//! Chain-ladder sparsification of the classifier network, and the
//! matrix-free pipeline that builds every non-dense network.
//!
//! The paper's Section-5.1 construction inserts one infinite type-3 edge
//! per dominating pair in `P₀^con × P₁^con` — `Θ(n²)` edges at any
//! dimension. This module removes that wall at **every** dimension using
//! the paper's own Lemma-6 machinery:
//!
//! 1. Cover the label-1 points the ladder must reach with a minimum set
//!    of chains `o_{c,0} ⪯ o_{c,1} ⪯ …`: at `d ≥ 3` the contending ones
//!    only, by bitset Hopcroft–Karp; at `d ≤ 2` all of `P₁`, by the
//!    `O(n log n)` patience sort of [`TwoDimDecomposition`]. `w`, the
//!    number of chains, is their dominance width.
//! 2. Per chain, build a rung ladder of auxiliary nodes: `a_i → o_{c,i}`
//!    and `a_i → a_{i-1}`, all [`Capacity::Infinite`], so `a_i` reaches
//!    exactly the chain prefix `o_{c,0..=i}`.
//! 3. Per contending 0-point `p` and chain `c`, the set of chain
//!    elements `p` dominates is a **prefix** (chains are ascending and
//!    `⪰` is transitive), and it is empty iff `p` does not dominate the
//!    chain's head. The head sweep ([`HeadSweep`]) finds the chains
//!    whose head `p` dominates as one `w`-bit row; one binary search
//!    per hit chain — comparing rank columns, `O(d log n)` — then finds
//!    the deepest dominated element, and a single edge `p → a_{deepest}`
//!    reproduces every dense edge `p → o` into that chain.
//!
//! Cut preservation: every gadget edge is infinite, so no finite cut
//! gains or loses weight; and a 0-node reaches a 1-node through the
//! gadget iff it dominates it, so the *reachability* relation between
//! finite-capacity edges — which is what determines which finite cuts
//! separate source from sink — is exactly that of the dense network.
//! Min cuts (and hence Lemma-16/17 classifier readouts) coincide.
//!
//! Cost after the decomposition: per 0-point `O(d + d·⌈w/64⌉)` word
//! operations plus `O(d log n)` per hit chain, and at most
//! `2·|P₁^con|` rung edges plus one connector per (zero, head)
//! dominance pair, versus up to `|P₀^con|·|P₁^con|` dense edges.
//!
//! **Lemma 15 before Lemma 6 (`d ≥ 3`).** Only contending points reach
//! the cut, so [`contend_then_cover`] finds them before any matching
//! runs: the minimal label-1 points `M₁` ([`try_minimal_by_rank`]),
//! the zeros that dominate one of them, and the ones that one of those
//! zeros dominates ([`filter_dominating`], a prefix-restricted
//! word-parallel sweep). The cover then runs over the contending ones
//! alone — at `n = 10⁷`, seed 7, 38 750 of 120 394 label-1 points.
//!
//! At `d ≤ 2` the `O(n log n)`-edge divide-and-conquer gadget of
//! [`super::sparse`] competes. [`count_head_hits`] counts the ladder's
//! connectors exactly with a [`Fenwick`] sweep before anything is
//! built, and [`Gadget::ByEdgeCount`] builds the ladder iff that count
//! is at most `|P₀|·⌈log₂ n⌉`, the other gadget's connector bound.
//! There the head sweep that places the zero→rung edges doubles as
//! Lemma-15 discovery: a 0-point contends iff its head row is
//! non-empty, and the contending 1-points of chain `c` are exactly its
//! prefix up to the deepest rung any 0-point reaches.
//!
//! The head sweep treats the `w` chain heads as an anchor set, exactly
//! as [`crate::AnchorIndex`] treats a classifier's anchors: the heads'
//! ranks are gathered into compact reversed-rank columns (`top − rank`
//! per dimension), so "head rank ≤ rank of `p`" becomes the
//! `rev ≥ top − rank(p)` narrowing of [`mc_geom::kernel`]. Per zero,
//! an `O(d)` floor test (the minimum head rank per dimension) retires
//! zeros that dominate no head; survivors narrow an all-ones `w`-bit
//! row with [`mc_geom::kernel::narrow_ge_into`], one `and_ge_mask` pass
//! per dimension, most selective first, stopping when the row empties.
//! The set bits, in ascending chain order, are the only chains that get
//! a binary search.
//!
//! [`discover_and_build_cancellable`] is the route of every non-dense
//! solve, and it is **matrix-free**: only the `O(d·n log n)`
//! [`RankTable`] over all points, plus, at `d ≥ 3`, a [`RankOracle`]
//! gathered from the contending ones' rows, whose Lemma-6 split-graph
//! rows are computed on demand (`O(d·|P₁^con|)` resident; the rows are
//! cached once when they fit the `mc_chains::row_cache` budget). Every
//! zero sweep fans out over `parallel_chunks`, which is what carries
//! the `n = 10⁷` scale solves of [`super::scale`].

use crate::passive::contending::ContendingPoints;
use crate::passive::sparse::{build_sparse_network, contending_sweep, plane, ClassifierNetwork};
use mc_chains::{ChainDecomposition, TwoDimDecomposition};
use mc_flow::{Capacity, FlowNetwork, NodeId};
use mc_geom::kernel::narrow_ge_into;
use mc_geom::{
    iter_ones, parallel_chunks, try_minimal_by_rank, Fenwick, Label, RankOracle, RankTable,
    WeightedSet,
};
use mc_obs::{CancelToken, Cancelled, Checkpoint};

/// Which type-3 gadget the table pipeline builds at `d ≤ 2`; at `d ≥ 3`
/// it always builds the chain ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gadget {
    /// The chain ladder iff its exact connector count — the (zero, chain
    /// head) dominance pairs — is at most `|P₀|·⌈log₂ n⌉`, the
    /// divide-and-conquer gadget's per-zero bound; otherwise that
    /// gadget.
    ByEdgeCount,
    /// Always the chain ladder
    /// ([`NetworkStrategy::Sparse`](crate::passive::NetworkStrategy::Sparse)).
    Ladder,
    /// Always the divide-and-conquer gadget at `d ≤ 2`: the test hook
    /// that checks that branch on inputs the count would send to the
    /// ladder.
    #[cfg_attr(not(test), allow(dead_code))]
    DivideAndConquer,
}

/// Matrix-free pipeline: contending discovery *and* network
/// construction without ever building the `Θ(n²)` full-set
/// `DominanceIndex`. Returns the Lemma-15 contending sets (both
/// ascending) and, when they are non-empty, the sparsified network over
/// exactly those points — identical min cut to the dense network.
#[cfg(test)]
pub(crate) fn discover_and_build(
    data: &WeightedSet,
    gadget: Gadget,
) -> (ContendingPoints, Option<ClassifierNetwork>) {
    discover_and_build_cancellable(data, gadget, &CancelToken::never())
        .expect("a never-token cannot cancel")
}

/// Cancellable twin of `discover_and_build`: builds the `O(d·n)`
/// [`RankTable`] and delegates to the table-based pipeline.
pub(crate) fn discover_and_build_cancellable(
    data: &WeightedSet,
    gadget: Gadget,
    token: &CancelToken,
) -> Result<(ContendingPoints, Option<ClassifierNetwork>), Cancelled> {
    let table = RankTable::try_build(data.points(), token)?;
    let out = discover_and_build_from_table_cancellable(
        &table,
        data.labels(),
        data.weights(),
        gadget,
        token,
    )?;
    Ok((out.con, out.network))
}

/// Everything the matrix-free discovery learns in one pass: the
/// Lemma-15 contending sets, the network over them (when any
/// contention exists), and the number of chains its cover found.
pub(crate) struct LadderOutcome {
    pub con: ContendingPoints,
    pub network: Option<ClassifierNetwork>,
    /// Chains in the pipeline's minimum chain cover: of every label-1
    /// point at `d ≤ 2`, of the contending ones only at `d ≥ 3`; 0 when
    /// the cover never ran.
    pub ladder_chains: usize,
}

/// The matrix-free pipeline off prebuilt rank columns. This is the only
/// spelling the streaming scale path can use (coordinates may never
/// have been resident all at once — see [`super::scale`]), and the
/// [`WeightedSet`] entry points delegate here.
///
/// No `Θ(n²/64)` structure over all points exists anywhere in this
/// path. At `d ≤ 2` the minimum chain cover of the label-1 points is
/// the `O(n log n)` patience sort of [`TwoDimDecomposition`], and
/// [`Gadget`] picks the type-3 gadget; both have the dense network's
/// min cut. At `d ≥ 3` [`contend_then_cover`] finds the contending
/// points first and runs the Lemma-6 matching over the contending ones
/// only.
///
/// Every zero sweep fans out over `parallel_chunks`; chunk results
/// concatenate in index order, so the contending sets, the network,
/// and hence the min cut are identical to a sequential pipeline.
pub(crate) fn discover_and_build_from_table_cancellable(
    table: &RankTable,
    labels: &[Label],
    weights: &[f64],
    gadget: Gadget,
    token: &CancelToken,
) -> Result<LadderOutcome, Cancelled> {
    let _span = mc_obs::span("ladder");
    token.poll()?; // small inputs may never reach a checkpoint
    debug_assert_eq!(table.len(), labels.len());
    debug_assert_eq!(labels.len(), weights.len());
    let cols: Vec<&[u32]> = (0..table.dim()).map(|k| table.column(k)).collect();
    if table.dim() >= 3 {
        return contend_then_cover(table, &cols, labels, weights, token);
    }
    let mut zeros = Vec::new();
    let mut ones = Vec::new();
    for (i, &label) in labels.iter().enumerate() {
        match label {
            Label::Zero => zeros.push(i),
            Label::One => ones.push(i),
        }
    }
    if zeros.is_empty() || ones.is_empty() {
        return Ok(LadderOutcome::empty(0));
    }

    // Minimum chain cover of the label-1 points. Gathering rank columns
    // preserves per-dimension order (and equality), so the cover is
    // exact; chain entries are positions into `ones`.
    let chains = {
        let _span = mc_obs::span("path_cover");
        let (x, y) = plane(table);
        let gather = |col: &[u32]| ones.iter().map(|&q| col[q]).collect::<Vec<u32>>();
        TwoDimDecomposition::from_rank_columns(&gather(x), &gather(y)).into_chains()
    };
    let ladder_chains = chains.len();
    token.poll()?;

    if gadget != Gadget::Ladder {
        let (x, y) = plane(table);
        let heads: Vec<usize> = chains.iter().map(|chain| ones[chain[0]]).collect();
        let head_hits = count_head_hits(x, y, &heads, &zeros);
        let budget =
            zeros.len() as u64 * u64::from(table.len().next_power_of_two().trailing_zeros());
        if gadget == Gadget::DivideAndConquer || head_hits > budget {
            mc_obs::counter_add("passive.ladder_head_hits", head_hits);
            mc_obs::counter_add("passive.gadget_dc", 1);
            let con = {
                let _span = mc_obs::span("contending");
                contending_sweep(x, y, labels)
            };
            let network = (!con.is_empty()).then(|| build_sparse_network(x, y, weights, &con));
            return Ok(LadderOutcome {
                con,
                network,
                ladder_chains,
            });
        }
    }

    // One head sweep per 0-point: the deepest dominated prefix per
    // chain places its rung edge *and* answers Lemma 15 — `p` contends
    // iff any prefix is non-empty, and chain `c`'s contending 1-points
    // are its prefix up to the deepest rung any 0-point reaches.
    let sweep = {
        let _span = mc_obs::span("ladder_sweep");
        HeadSweep::new(&cols, &chains, &ones).sweep(&zeros, "ladder_sweep", token)?
    };
    let con_zeros: Vec<usize> = sweep.hits.iter().map(|&(zi, _)| zeros[zi]).collect();
    if con_zeros.is_empty() {
        return Ok(LadderOutcome::empty(ladder_chains));
    }
    let mut con_ones: Vec<usize> = chains
        .iter()
        .zip(&sweep.max_cnt)
        .flat_map(|(chain, &cnt)| chain[..cnt].iter().map(|&local| ones[local]))
        .collect();
    con_ones.sort_unstable();
    let _wire = mc_obs::span("ladder_wire");
    let con = ContendingPoints {
        zeros: con_zeros,
        ones: con_ones,
    };
    let network = wire_ladder(weights, &con, &chains, &ones, &sweep, token)?;
    Ok(LadderOutcome {
        con,
        network: Some(network),
        ladder_chains,
    })
}

impl LadderOutcome {
    fn empty(ladder_chains: usize) -> Self {
        Self {
            con: ContendingPoints {
                zeros: Vec::new(),
                ones: Vec::new(),
            },
            network: None,
            ladder_chains,
        }
    }
}

/// The `d ≥ 3` pipeline: Lemma 15 before Lemma 6.
///
/// 1. `minimal_ones`: the minimal label-1 points `M₁`
///    ([`try_minimal_by_rank`]).
/// 2. `ladder_sweep`: the contending zeros, i.e. the zeros that dominate
///    some member of `M₁` (a zero that dominates any one dominates the
///    minimal one below it).
/// 3. `contending_ones`: the ones that some contending zero dominates —
///    the same test on mirrored ranks (`u32::MAX − rank`).
/// 4. `path_cover`: the Lemma-6 chain cover of the contending ones
///    alone, over a [`RankOracle`] gathered from their rows (honouring
///    the thread's matching-engine override).
/// 5. `ladder_wire`: the [`HeadSweep`] of the contending zeros against
///    those chains, then the rung ladder. Every chain element is a
///    contending one, so some contending zero reaches every chain in
///    full.
fn contend_then_cover(
    table: &RankTable,
    cols: &[&[u32]],
    labels: &[Label],
    weights: &[f64],
    token: &CancelToken,
) -> Result<LadderOutcome, Cancelled> {
    let (ones, minimal) = {
        let _span = mc_obs::span("minimal_ones");
        let ones: Vec<usize> = (0..labels.len()).filter(|&i| labels[i].is_one()).collect();
        let mut cp = Checkpoint::with_progress(token, "minimal_ones", ones.len() as u64);
        let minimal = try_minimal_by_rank(cols, &ones, &mut cp)?;
        (ones, minimal)
    };
    mc_obs::counter_add("passive.minimal_ones", minimal.len() as u64);
    // The zero list lives only inside the sweep: at n = 10⁷ it is 80 MB,
    // and the cached split-graph rows below need the room.
    let con_zeros = {
        let _span = mc_obs::span("ladder_sweep");
        let zeros: Vec<usize> = (0..labels.len()).filter(|&i| labels[i].is_zero()).collect();
        let anchor_rank = |k: usize, j: usize| cols[k][minimal[j]];
        let zero_rank = |k: usize, p: usize| cols[k][p];
        filter_dominating(
            cols.len(),
            minimal.len(),
            anchor_rank,
            &zeros,
            zero_rank,
            "ladder_sweep",
            token,
        )?
    };
    if con_zeros.is_empty() {
        return Ok(LadderOutcome::empty(0));
    }
    let con_ones = {
        let _span = mc_obs::span("contending_ones");
        let anchor_rank = |k: usize, j: usize| u32::MAX - cols[k][con_zeros[j]];
        let one_rank = |k: usize, q: usize| u32::MAX - cols[k][q];
        filter_dominating(
            cols.len(),
            con_zeros.len(),
            anchor_rank,
            &ones,
            one_rank,
            "contending_ones",
            token,
        )?
    };
    let oracle = {
        let _span = mc_obs::span("oracle_build");
        RankOracle::try_from_table_subset(table, &con_ones, token)?
    };
    let chains = ChainDecomposition::compute_from_oracle_cancellable(&oracle, token)?.into_chains();
    token.poll()?;

    let _wire = mc_obs::span("ladder_wire");
    let sweep =
        HeadSweep::new(cols, &chains, &con_ones).sweep(&con_zeros, "ladder_heads", token)?;
    debug_assert_eq!(sweep.hits.len(), con_zeros.len());
    debug_assert!(chains
        .iter()
        .zip(&sweep.max_cnt)
        .all(|(chain, &cnt)| cnt == chain.len()));
    let con = ContendingPoints {
        zeros: con_zeros,
        ones: con_ones,
    };
    let network = wire_ladder(weights, &con, &chains, &con.ones, &sweep, token)?;
    Ok(LadderOutcome {
        con,
        network: Some(network),
        ladder_chains: chains.len(),
    })
}

/// Builds the chain-ladder network over the contending points `con`:
/// finite source and sink edges, one rung ladder per chain truncated to
/// the deepest prefix any zero reaches (`sweep.max_cnt`), and one
/// connector per sweep hit. Chain entries are positions into `ones`;
/// `sweep.hits` names exactly the zeros of `con.zeros`, in order.
fn wire_ladder(
    weights: &[f64],
    con: &ContendingPoints,
    chains: &[Vec<usize>],
    ones: &[usize],
    sweep: &SweepHits,
    token: &CancelToken,
) -> Result<ClassifierNetwork, Cancelled> {
    let source = 0;
    let sink = 1;
    let mut net = FlowNetwork::new(2 + con.len(), source, sink);
    let zero_nodes: Vec<NodeId> = (0..con.zeros.len()).map(|i| 2 + i).collect();
    let one_nodes: Vec<NodeId> = (0..con.ones.len())
        .map(|i| 2 + con.zeros.len() + i)
        .collect();
    for (zi, &p) in con.zeros.iter().enumerate() {
        net.add_edge(source, zero_nodes[zi], weights[p]);
    }
    for (oi, &q) in con.ones.iter().enumerate() {
        net.add_edge(one_nodes[oi], sink, weights[q]);
    }

    // Rung ladders, truncated to the reached prefix of each chain.
    let mut rungs: Vec<Vec<NodeId>> = Vec::with_capacity(chains.len());
    let mut rung_edges = 0u64;
    for (chain, &cnt) in chains.iter().zip(&sweep.max_cnt) {
        let mut ladder: Vec<NodeId> = Vec::with_capacity(cnt);
        for (i, &local) in chain[..cnt].iter().enumerate() {
            let a = net.add_node();
            let oi = con
                .ones
                .binary_search(&ones[local])
                .expect("a reached chain element contends");
            net.add_edge(a, one_nodes[oi], Capacity::Infinite);
            if i > 0 {
                net.add_edge(a, ladder[i - 1], Capacity::Infinite);
            }
            ladder.push(a);
        }
        rung_edges += (2 * ladder.len()).saturating_sub(1) as u64;
        rungs.push(ladder);
    }
    let total_hits: u64 = sweep.hits.iter().map(|(_, h)| h.len() as u64).sum();
    let mut cp = Checkpoint::with_progress(token, "ladder_wire", total_hits);
    for (zi, (_, hits)) in sweep.hits.iter().enumerate() {
        for &(c, cnt) in hits {
            cp.tick(1)?;
            net.add_edge(
                zero_nodes[zi],
                rungs[c as usize][cnt as usize - 1],
                Capacity::Infinite,
            );
        }
    }

    mc_obs::counter_add("passive.ladder_chains", chains.len() as u64);
    mc_obs::counter_add("passive.ladder_rungs", rung_edges);
    mc_obs::counter_add("passive.ladder_head_hits", total_hits);
    Ok(ClassifierNetwork {
        net,
        zero_nodes,
        one_nodes,
    })
}

/// The items that dominate at least one of `m` anchors, ascending if
/// `items` is. `anchor_rank(k, j)` is anchor `j`'s rank in dimension
/// `k`, `item_rank(k, p)` item `p`'s; dominance is the reflexive `≥`
/// on all `dim` ranks. Fans out over `parallel_chunks` and ticks the
/// progress phase `phase` once per item.
///
/// The anchors are sorted by their rank in one key dimension `k*`
/// (dimension 0; on the `scale` workloads every choice measured the
/// same), so an item need only narrow the *prefix* of anchors at or
/// below its own `k*` rank, and `k*` needs no narrowing pass. Before
/// that, two `O(d)` floor tests retire items that dominate no
/// anchor: the minimum anchor rank per dimension, and the minimum
/// anchor rank sum.
pub(crate) fn filter_dominating(
    dim: usize,
    m: usize,
    anchor_rank: impl Fn(usize, usize) -> u32,
    items: &[usize],
    item_rank: impl Fn(usize, usize) -> u32 + Sync,
    phase: &'static str,
    token: &CancelToken,
) -> Result<Vec<usize>, Cancelled> {
    debug_assert!(dim > 0, "dominance over no dimension is not a sweep");
    let key_dim = 0;
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_unstable_by_key(|&j| anchor_rank(key_dim, j));
    let key: Vec<u32> = order.iter().map(|&j| anchor_rank(key_dim, j)).collect();
    // Per dimension the minimum and maximum anchor rank, and the
    // minimum anchor rank sum: an item dominates an anchor only if it
    // reaches the anchor on every rank and on the sum.
    let mut floor = vec![u32::MAX; dim];
    let mut top = vec![0u32; dim];
    let mut sum_floor = u64::MAX;
    for j in 0..m {
        let mut sum = 0u64;
        for k in 0..dim {
            let r = anchor_rank(k, j);
            floor[k] = floor[k].min(r);
            top[k] = top[k].max(r);
            sum += u64::from(r);
        }
        sum_floor = sum_floor.min(sum);
    }
    // `rev[k][j] = top[k] − rank` in key order, so "anchor rank ≤ rank
    // of p" reads `rev ≥ top − rank(p)`; the key column is never read.
    let rev: Vec<Vec<u32>> = (0..dim)
        .map(|k| {
            if k == key_dim {
                Vec::new()
            } else {
                order.iter().map(|&j| top[k] - anchor_rank(k, j)).collect()
            }
        })
        .collect();
    let chunks = parallel_chunks(items.len(), |range| {
        let mut out = Vec::new();
        let mut scratch = SweepScratch::default();
        // One global total per worker keeps `progress.<phase>.frac` exact.
        let mut cp = Checkpoint::with_progress(token, phase, items.len() as u64);
        'items: for &p in &items[range] {
            if cp.tick(1).is_err() {
                break; // partial chunk; the caller polls and bails
            }
            scratch.thresholds.clear();
            let mut sum = 0u64;
            for k in 0..dim {
                let r = item_rank(k, p);
                if r < floor[k] {
                    continue 'items;
                }
                sum += u64::from(r);
                if k != key_dim && r < top[k] {
                    scratch.thresholds.push((top[k] - r, k));
                }
            }
            if sum < sum_floor {
                continue;
            }
            let len = key.partition_point(|&r| r <= item_rank(key_dim, p));
            if narrow_ge_into(len, &rev, &mut scratch.thresholds, &mut scratch.row) {
                out.push(p);
            }
        }
        out
    });
    token.poll()?;
    Ok(chunks.concat())
}

/// The number of `(zero, head)` pairs with `zero ⪰ head` over the rank
/// columns `x`, `y` (see [`plane`]) — exactly the connector edges the
/// chain ladder would wire, since a zero gets one edge per chain whose
/// head it dominates. Sorts both sides by `x` and sweeps the zeros,
/// inserting each head into a [`Fenwick`] tree over the heads' `y`
/// ranks once its `x` is reached: `O(|P₀| log |P₀| + w log w)`.
pub(crate) fn count_head_hits(x: &[u32], y: &[u32], heads: &[usize], zeros: &[usize]) -> u64 {
    let mut head_y: Vec<u32> = heads.iter().map(|&h| y[h]).collect();
    head_y.sort_unstable();
    head_y.dedup();
    let mut by_x: Vec<(u32, usize)> = heads
        .iter()
        .map(|&h| (x[h], head_y.partition_point(|&v| v < y[h])))
        .collect();
    by_x.sort_unstable();
    let mut zero_keys: Vec<u64> = zeros
        .iter()
        .map(|&z| (u64::from(x[z]) << 32) | u64::from(y[z]))
        .collect();
    zero_keys.sort_unstable();
    let mut bit = Fenwick::new(head_y.len());
    let mut next = 0;
    let mut count = 0;
    for key in zero_keys {
        let (zx, zy) = ((key >> 32) as u32, key as u32);
        while next < by_x.len() && by_x[next].0 <= zx {
            bit.add(by_x[next].1);
            next += 1;
        }
        let below = head_y.partition_point(|&v| v <= zy);
        if below > 0 {
            count += bit.prefix(below - 1);
        }
    }
    count
}

/// The chain heads as an anchor set: answers "which chains does `p`
/// reach, and how deep" for every 0-point with one word-parallel
/// subsumption check (Lemma 15's contending test) plus binary searches
/// on the hit chains only.
///
/// `cols[k]` is a full rank column over the point ids that `zeros` and
/// `ones` name; chain entries are positions into `ones`. Dominance is
/// the reflexive `cols[k][p] >= cols[k][q]` on every dimension.
pub(crate) struct HeadSweep<'a> {
    cols: &'a [&'a [u32]],
    chains: &'a [Vec<usize>],
    ones: &'a [usize],
    /// Per dimension, the minimum head rank: a zero below it on any
    /// dimension dominates no head.
    floor: Vec<u32>,
    /// Per dimension, the maximum head rank.
    top: Vec<u32>,
    /// `rev[k][c] = top[k] − rank of chain c's head`: reversed so that
    /// "head rank ≤ rank of p" reads `rev[k][c] ≥ top[k] − rank of p`,
    /// the `and_ge_mask` narrowing.
    rev: Vec<Vec<u32>>,
}

/// What a [`HeadSweep`] learns over a list of zeros: each zero that
/// reaches some chain (by its position in the list) with its
/// `(chain, dominated-prefix length)` hits in ascending chain order,
/// and the deepest prefix any zero reaches per chain.
pub(crate) struct SweepHits {
    pub hits: Vec<(usize, Vec<(u32, u32)>)>,
    pub max_cnt: Vec<usize>,
}

/// Per-worker scratch of [`HeadSweep::hits_into`].
#[derive(Default)]
pub(crate) struct SweepScratch {
    thresholds: Vec<(u32, usize)>,
    row: Vec<u64>,
}

impl<'a> HeadSweep<'a> {
    /// Gathers the heads' ranks into compact reversed-rank columns,
    /// `O(d·w)`.
    pub(crate) fn new(cols: &'a [&'a [u32]], chains: &'a [Vec<usize>], ones: &'a [usize]) -> Self {
        let mut floor = Vec::with_capacity(cols.len());
        let mut top = Vec::with_capacity(cols.len());
        let mut rev = Vec::with_capacity(cols.len());
        for col in cols {
            let ranks: Vec<u32> = chains.iter().map(|chain| col[ones[chain[0]]]).collect();
            let lo = ranks.iter().copied().min().unwrap_or(u32::MAX);
            let hi = ranks.iter().copied().max().unwrap_or(0);
            rev.push(ranks.iter().map(|&r| hi - r).collect());
            floor.push(lo);
            top.push(hi);
        }
        Self {
            cols,
            chains,
            ones,
            floor,
            top,
            rev,
        }
    }

    fn dominates(&self, p: usize, q: usize) -> bool {
        self.cols.iter().all(|c| c[p] >= c[q])
    }

    /// Appends `p`'s `(chain, dominated-prefix length)` hits to `hits`
    /// in ascending chain order. Cost: an `O(d)` floor test, then at
    /// most `d` narrowing passes of `⌈w/64⌉` words (stopping when the
    /// head row empties), then one binary search per hit chain.
    pub(crate) fn hits_into(
        &self,
        p: usize,
        scratch: &mut SweepScratch,
        hits: &mut Vec<(u32, u32)>,
    ) {
        scratch.thresholds.clear();
        for (k, col) in self.cols.iter().enumerate() {
            let r = col[p];
            if r < self.floor[k] {
                return;
            }
            if r < self.top[k] {
                scratch.thresholds.push((self.top[k] - r, k));
            }
        }
        let width = self.chains.len();
        if !narrow_ge_into(width, &self.rev, &mut scratch.thresholds, &mut scratch.row) {
            return;
        }
        for c in iter_ones(&scratch.row) {
            let chain = &self.chains[c];
            // Ascending chain ⇒ "p dominates chain[i]" holds on a
            // prefix, and the head is already known dominated.
            let cnt = 1 + chain[1..].partition_point(|&local| self.dominates(p, self.ones[local]));
            hits.push((c as u32, cnt as u32));
        }
    }

    /// Sweeps every zero, fanned out over `parallel_chunks`, ticking the
    /// progress phase `phase` once per zero; chunk results concatenate
    /// in index order, so the output is identical to a sequential sweep.
    pub(crate) fn sweep(
        &self,
        zeros: &[usize],
        phase: &'static str,
        token: &CancelToken,
    ) -> Result<SweepHits, Cancelled> {
        let width = self.chains.len();
        let chunks = parallel_chunks(zeros.len(), |range| {
            let mut out = SweepHits {
                hits: Vec::new(),
                max_cnt: vec![0; width],
            };
            let mut scratch = SweepScratch::default();
            // Every worker passes the same global total (one unit per
            // zero), so `progress.ladder_sweep.frac` is exact.
            let mut cp = Checkpoint::with_progress(token, phase, zeros.len() as u64);
            for zi in range {
                if cp.tick(1).is_err() {
                    break; // partial chunk; the caller polls and bails
                }
                let mut hits = Vec::new();
                self.hits_into(zeros[zi], &mut scratch, &mut hits);
                if hits.is_empty() {
                    continue;
                }
                for &(c, cnt) in &hits {
                    let m = &mut out.max_cnt[c as usize];
                    *m = (*m).max(cnt as usize);
                }
                out.hits.push((zi, hits));
            }
            out
        });
        token.poll()?;
        let mut all = SweepHits {
            hits: Vec::new(),
            max_cnt: vec![0; width],
        };
        for chunk in chunks {
            all.hits.extend(chunk.hits);
            for (m, l) in all.max_cnt.iter_mut().zip(chunk.max_cnt) {
                *m = (*m).max(l);
            }
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::solver::build_dense_network;
    use mc_flow::{Dinic, MaxFlowAlgorithm};
    use mc_geom::{DominanceIndex, Label};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weighted(n: usize, dim: usize, grid: f64, rng: &mut StdRng) -> WeightedSet {
        let mut ws = WeightedSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..grid).round()).collect();
            ws.push(
                &coords,
                Label::from_bool(rng.gen_bool(0.5)),
                rng.gen_range(1..10) as f64,
            );
        }
        ws
    }

    #[test]
    fn ladder_edge_count_is_bounded() {
        // ≤ 2·|ones| rung edges + w·|zeros| connector edges + the
        // finite source/sink edges — and never more than dense + rungs.
        let mut rng = StdRng::seed_from_u64(0x1ADE);
        let ws = random_weighted(600, 3, 6.0, &mut rng);
        let (con, ladder) = discover_and_build(&ws, Gadget::ByEdgeCount);
        let ladder = ladder.expect("grid data at n=600 must contend");
        let ones: Vec<usize> = (0..ws.len()).filter(|&i| ws.label(i).is_one()).collect();
        let w = ChainDecomposition::compute(&ws.points().subset(&ones)).width();
        let bound = con.len() + 2 * con.ones.len() + w * con.zeros.len();
        assert!(
            ladder.net.num_edges() <= bound,
            "ladder edges {} exceed O(w·n) bound {bound} (w = {w})",
            ladder.net.num_edges()
        );
        let index = DominanceIndex::build(ws.points());
        let dense = build_dense_network(&ws, &con, &index);
        assert!(
            ladder.net.num_edges() <= dense.net.num_edges() + 2 * con.ones.len(),
            "ladder ({}) must never exceed dense ({}) by more than the rungs",
            ladder.net.num_edges(),
            dense.net.num_edges()
        );
    }

    #[test]
    fn discover_matches_indexed_contending_and_dense_cut() {
        let mut rng = StdRng::seed_from_u64(0x1ADF);
        for dim in [1usize, 2, 3, 4] {
            for trial in 0..40 {
                let n = rng.gen_range(1..50);
                let ws = random_weighted(n, dim, 4.0, &mut rng);
                let index = DominanceIndex::build(ws.points());
                let reference = ContendingPoints::compute_indexed(&ws, &index);
                let (con, network) = discover_and_build(&ws, Gadget::ByEdgeCount);
                assert_eq!(
                    (con.zeros, con.ones),
                    (reference.zeros.clone(), reference.ones.clone()),
                    "dim {dim} trial {trial}: matrix-free Lemma 15 disagrees\n{ws:?}"
                );
                match network {
                    None => assert!(reference.is_empty()),
                    Some(ladder) => {
                        let dense = build_dense_network(&ws, &reference, &index);
                        let dv = Dinic.solve(&dense.net).value();
                        let lv = Dinic.solve(&ladder.net).value();
                        assert!(
                            (dv - lv).abs() < 1e-9,
                            "dim {dim} trial {trial}: dense {dv} vs discover {lv}\n{ws:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn discover_handles_one_sided_and_empty_inputs() {
        let mut all_ones = WeightedSet::empty(3);
        all_ones.push(&[0.0, 0.0, 0.0], Label::One, 1.0);
        all_ones.push(&[1.0, 1.0, 1.0], Label::One, 1.0);
        let (con, network) = discover_and_build(&all_ones, Gadget::ByEdgeCount);
        assert!(con.is_empty() && network.is_none());

        // Zeros and ones present but no dominating pair.
        let mut incomparable = WeightedSet::empty(2);
        incomparable.push(&[0.0, 1.0], Label::One, 1.0);
        incomparable.push(&[1.0, 0.0], Label::Zero, 1.0);
        let (con, network) = discover_and_build(&incomparable, Gadget::ByEdgeCount);
        assert!(con.is_empty() && network.is_none());

        let (con, network) = discover_and_build(&WeightedSet::empty(2), Gadget::ByEdgeCount);
        assert!(con.is_empty() && network.is_none());
    }

    #[test]
    fn duplicates_across_labels_contend_through_the_ladder() {
        // Equal coordinates, opposite labels: reflexive dominance must
        // wire the zero to the one through its chain.
        let mut ws = WeightedSet::empty(3);
        ws.push(&[2.0, 2.0, 2.0], Label::One, 7.0);
        ws.push(&[2.0, 2.0, 2.0], Label::Zero, 3.0);
        let (con, ladder) = discover_and_build(&ws, Gadget::ByEdgeCount);
        assert_eq!(
            (con.zeros.as_slice(), con.ones.as_slice()),
            (&[1][..], &[0][..])
        );
        let ladder = ladder.expect("the duplicate pair contends");
        assert_eq!(Dinic.solve(&ladder.net).value(), 3.0);
    }

    /// The per-head scan the head sweep replaced, kept as its test
    /// reference: a scattered dominance test against every chain head,
    /// then a binary search on each dominated chain.
    fn per_head_scan(
        cols: &[&[u32]],
        chains: &[Vec<usize>],
        ones: &[usize],
        zeros: &[usize],
    ) -> Vec<(usize, Vec<(u32, u32)>)> {
        let dominates = |p: usize, q: usize| cols.iter().all(|c| c[p] >= c[q]);
        let mut out = Vec::new();
        for (zi, &p) in zeros.iter().enumerate() {
            let mut hits = Vec::new();
            for (c, chain) in chains.iter().enumerate() {
                if dominates(p, ones[chain[0]]) {
                    let cnt = 1 + chain[1..].partition_point(|&local| dominates(p, ones[local]));
                    hits.push((c as u32, cnt as u32));
                }
            }
            if !hits.is_empty() {
                out.push((zi, hits));
            }
        }
        out
    }

    /// Column-major ranks for `w` ascending chains (ranks `1..=grid`
    /// at the heads, each later element `0..=step` above its
    /// predecessor per dimension) and `num_zeros` zeros (ranks
    /// `0..=grid + 1`, so rank 0 is below every head's floor).
    /// Returns `(cols, chains, ones, zeros)`; chain entries are
    /// positions into `ones`.
    #[allow(clippy::type_complexity)]
    fn chain_instance(
        w: usize,
        dim: usize,
        grid: u32,
        step: u32,
        dup_heads: bool,
        num_zeros: usize,
        rng: &mut StdRng,
    ) -> (Vec<Vec<u32>>, Vec<Vec<usize>>, Vec<usize>, Vec<usize>) {
        let mut points: Vec<Vec<u32>> = Vec::new();
        let mut chains: Vec<Vec<usize>> = Vec::with_capacity(w);
        for c in 0..w {
            let len = rng.gen_range(1..5);
            let mut cur: Vec<u32> = if dup_heads && c % 2 == 1 {
                points[chains[c - 1][0]].clone()
            } else {
                (0..dim).map(|_| rng.gen_range(1..=grid)).collect()
            };
            let mut chain = Vec::with_capacity(len);
            for _ in 0..len {
                chain.push(points.len());
                points.push(cur.clone());
                cur = cur.iter().map(|&r| r + rng.gen_range(0..=step)).collect();
            }
            chains.push(chain);
        }
        let ones: Vec<usize> = (0..points.len()).collect();
        let zeros: Vec<usize> = (points.len()..points.len() + num_zeros).collect();
        for _ in 0..num_zeros {
            points.push((0..dim).map(|_| rng.gen_range(0..=grid + 1)).collect());
        }
        let cols = (0..dim)
            .map(|k| points.iter().map(|p| p[k]).collect())
            .collect();
        (cols, chains, ones, zeros)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn head_sweep_matches_per_head_scan(
            wi in 0usize..6,
            dim in 1usize..=4,
            gi in 0usize..4,
            step in 0u32..=2,
            dup_heads in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            // Widths straddling the 64-bit word and 256-bit block edges.
            let w = [1usize, 63, 64, 65, 256, 257][wi];
            let grid = [1u32, 2, 5, 1000][gi];
            let mut rng = StdRng::seed_from_u64(seed);
            let (cols, chains, ones, zeros) =
                chain_instance(w, dim, grid, step, dup_heads, 120, &mut rng);
            let cols: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
            let want = per_head_scan(&cols, &chains, &ones, &zeros);
            let got = HeadSweep::new(&cols, &chains, &ones)
                .sweep(&zeros, "ladder_sweep", &CancelToken::never())
                .unwrap();
            let mut want_max = vec![0usize; w];
            for (_, hits) in &want {
                for &(c, cnt) in hits {
                    want_max[c as usize] = want_max[c as usize].max(cnt as usize);
                }
            }
            proptest::prop_assert_eq!(&got.hits, &want);
            proptest::prop_assert_eq!(&got.max_cnt, &want_max);
            // All-equal ranks (grid 1, step 0): every zero at the floor
            // or above dominates every chain in full.
            if grid == 1 && step == 0 {
                for (zi, hits) in &got.hits {
                    proptest::prop_assert!(cols.iter().all(|c| c[zeros[*zi]] >= 1));
                    proptest::prop_assert_eq!(hits.len(), w);
                }
            }
        }
    }

    #[test]
    fn head_sweep_retires_zeros_below_the_floor() {
        let dim = 3;
        let mut rng = StdRng::seed_from_u64(0xF100);
        let (mut cols, chains, ones, _) = chain_instance(65, dim, 5, 1, false, 0, &mut rng);
        // Zeros `k < dim`: rank 0 (below every head, which start at 1)
        // on dimension k, top rank elsewhere. Zero `dim`: top everywhere.
        let first = cols[0].len();
        for z in 0..=dim {
            for (k, col) in cols.iter_mut().enumerate() {
                col.push(if k == z { 0 } else { u32::MAX });
            }
        }
        let cols: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
        let heads = HeadSweep::new(&cols, &chains, &ones);
        let mut scratch = SweepScratch::default();
        for p in first..first + dim {
            let mut hits = Vec::new();
            heads.hits_into(p, &mut scratch, &mut hits);
            assert!(hits.is_empty(), "zero {p} below the floor must hit nothing");
        }
        let mut hits = Vec::new();
        heads.hits_into(first + dim, &mut scratch, &mut hits);
        let full: Vec<(u32, u32)> = chains
            .iter()
            .enumerate()
            .map(|(c, chain)| (c as u32, chain.len() as u32))
            .collect();
        assert_eq!(hits, full);
    }

    /// Error and per-point assignment read off a network's min cut, as
    /// the solver reads them.
    fn cut_readout(
        ws: &WeightedSet,
        con: &ContendingPoints,
        network: Option<&ClassifierNetwork>,
    ) -> (f64, Vec<Label>) {
        let mut assignment = ws.labels().to_vec();
        let Some(network) = network else {
            return (0.0, assignment);
        };
        let cut = Dinic.solve(&network.net).min_cut(&network.net);
        for (zi, &p) in con.zeros.iter().enumerate() {
            if !cut.on_source_side(network.zero_nodes[zi]) {
                assignment[p] = Label::One;
            }
        }
        for (oi, &q) in con.ones.iter().enumerate() {
            if cut.on_source_side(network.one_nodes[oi]) {
                assignment[q] = Label::Zero;
            }
        }
        (cut.weight, assignment)
    }

    /// Small grids with signed zeros: coordinates from
    /// `{-0.0, +0.0, 1, …}`, so duplicates, cross-label duplicates and
    /// `-0.0`/`+0.0` pairs are common.
    fn signed_grid(n: usize, dim: usize, grid: u32, rng: &mut StdRng) -> WeightedSet {
        let mut ws = WeightedSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim)
                .map(|_| match rng.gen_range(0..=grid) {
                    0 if rng.gen_bool(0.5) => -0.0,
                    v => f64::from(v),
                })
                .collect();
            ws.push(
                &coords,
                Label::from_bool(rng.gen_bool(0.5)),
                rng.gen_range(1..10) as f64,
            );
        }
        ws
    }

    #[test]
    fn both_low_dim_gadgets_match_dense_error_and_assignment() {
        let mut rng = StdRng::seed_from_u64(0x1AE0);
        for dim in [1usize, 2] {
            for trial in 0..80 {
                let n = rng.gen_range(1..60);
                let grid = [1u32, 2, 4, 30][trial % 4];
                let ws = signed_grid(n, dim, grid, &mut rng);
                let index = DominanceIndex::build(ws.points());
                let reference = ContendingPoints::compute_indexed(&ws, &index);
                let dense =
                    (!reference.is_empty()).then(|| build_dense_network(&ws, &reference, &index));
                let want = cut_readout(&ws, &reference, dense.as_ref());
                for gadget in [
                    Gadget::Ladder,
                    Gadget::DivideAndConquer,
                    Gadget::ByEdgeCount,
                ] {
                    let (con, network) = discover_and_build(&ws, gadget);
                    assert_eq!(
                        con, reference,
                        "dim {dim} trial {trial} {gadget:?}: contending sets differ\n{ws:?}"
                    );
                    assert_eq!(network.is_some(), dense.is_some());
                    let got = cut_readout(&ws, &con, network.as_ref());
                    assert!(
                        (got.0 - want.0).abs() < 1e-9,
                        "dim {dim} trial {trial} {gadget:?}: error {} vs dense {}\n{ws:?}",
                        got.0,
                        want.0
                    );
                    assert_eq!(
                        got.1, want.1,
                        "dim {dim} trial {trial} {gadget:?}: assignment differs\n{ws:?}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn high_dim_pipeline_matches_dense_error_and_assignment(
            dim in 3usize..=5,
            n in 0usize..70,
            gi in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            // Grid 0 puts every point at ±0.0 (all ranks equal, so every
            // zero contends with every one); small grids make duplicates
            // within and across labels common.
            let grid = [0u32, 1, 2, 4, 30][gi];
            let mut rng = StdRng::seed_from_u64(seed);
            let ws = signed_grid(n, dim, grid, &mut rng);
            let index = DominanceIndex::build(ws.points());
            let reference = ContendingPoints::compute_indexed(&ws, &index);
            let dense =
                (!reference.is_empty()).then(|| build_dense_network(&ws, &reference, &index));
            let want = cut_readout(&ws, &reference, dense.as_ref());
            let (con, network) = discover_and_build(&ws, Gadget::ByEdgeCount);
            proptest::prop_assert_eq!(&con, &reference);
            proptest::prop_assert_eq!(network.is_some(), dense.is_some());
            let got = cut_readout(&ws, &con, network.as_ref());
            proptest::prop_assert!(
                (got.0 - want.0).abs() < 1e-9,
                "error {} vs dense {}",
                got.0,
                want.0
            );
            proptest::prop_assert_eq!(got.1, want.1);
        }

        #[test]
        fn prefix_restricted_sweep_matches_per_member_scan(
            dim in 1usize..=5,
            m in 0usize..150,
            gi in 0usize..4,
            mirrored in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            let grid = [1u32, 2, 5, 1000][gi];
            let mut rng = StdRng::seed_from_u64(seed);
            let n = m + 200;
            let cols: Vec<Vec<u32>> = (0..dim)
                .map(|_| (0..n).map(|_| rng.gen_range(0..=grid)).collect())
                .collect();
            let (anchors, items): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| i < m);
            // Mirrored ranks ask the contending-ones question: which
            // items does some anchor dominate.
            let rank = |k: usize, i: usize| {
                if mirrored {
                    u32::MAX - cols[k][i]
                } else {
                    cols[k][i]
                }
            };
            let want: Vec<usize> = items
                .iter()
                .copied()
                .filter(|&p| anchors.iter().any(|&a| (0..dim).all(|k| rank(k, p) >= rank(k, a))))
                .collect();
            let got = filter_dominating(
                dim,
                m,
                |k, j| rank(k, anchors[j]),
                &items,
                rank,
                "test_sweep",
                &CancelToken::never(),
            )
            .unwrap();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn ladder_covers_only_the_contending_ones() {
        // d = 3: an antichain of 5 ones, of which only the first is
        // dominated by a zero. The cover runs over that one alone.
        let mut ws = WeightedSet::empty(3);
        for i in 0..5 {
            let c = f64::from(i);
            ws.push(&[c, 4.0 - c, 2.0], Label::One, 1.0);
        }
        ws.push(&[0.0, 4.0, 3.0], Label::Zero, 1.0);
        let table = RankTable::build(ws.points());
        let out = discover_and_build_from_table_cancellable(
            &table,
            ws.labels(),
            ws.weights(),
            Gadget::ByEdgeCount,
            &CancelToken::never(),
        )
        .unwrap();
        assert_eq!(
            (out.con.zeros.as_slice(), out.con.ones.as_slice()),
            (&[5][..], &[0][..])
        );
        assert_eq!(out.ladder_chains, 1);
    }

    #[test]
    fn edge_count_picks_the_smaller_gadget() {
        let edges = |ws: &WeightedSet, gadget| {
            discover_and_build(ws, gadget)
                .1
                .expect("the input contends")
                .net
                .num_edges()
        };
        // 64 ones, either on one chain (w = 1: one connector per zero,
        // the ladder fits) or on an antichain (w = 64, and every zero
        // dominates every head: 64 connectors per zero against
        // ⌈log₂ 128⌉ = 7, so the divide-and-conquer gadget wins).
        for (antichain, want_ladder) in [(false, true), (true, false)] {
            let mut ws = WeightedSet::empty(2);
            for i in 0..64 {
                let y = if antichain { 63 - i } else { i };
                ws.push(&[f64::from(i), f64::from(y)], Label::One, 1.0);
                ws.push(&[f64::from(64 + i), f64::from(64 + i)], Label::Zero, 1.0);
            }
            let ladder = edges(&ws, Gadget::Ladder);
            let dc = edges(&ws, Gadget::DivideAndConquer);
            assert_ne!(ladder, dc);
            let want = if want_ladder { ladder } else { dc };
            assert_eq!(
                edges(&ws, Gadget::ByEdgeCount),
                want,
                "antichain {antichain}"
            );
        }
    }

    #[test]
    fn head_hit_count_equals_the_sweep_total() {
        let mut rng = StdRng::seed_from_u64(0x1AE1);
        for dim in [1usize, 2] {
            for trial in 0..60 {
                let n = rng.gen_range(0..300);
                let grid = [1u32, 3, 20, 1000][trial % 4];
                let ws = signed_grid(n, dim, grid, &mut rng);
                let table = RankTable::build(ws.points());
                let (x, y) = plane(&table);
                let (zeros, ones): (Vec<usize>, Vec<usize>) =
                    (0..n).partition(|&i| ws.label(i).is_zero());
                let gather = |col: &[u32]| ones.iter().map(|&q| col[q]).collect::<Vec<u32>>();
                let chains =
                    TwoDimDecomposition::from_rank_columns(&gather(x), &gather(y)).into_chains();
                let heads: Vec<usize> = chains.iter().map(|chain| ones[chain[0]]).collect();
                let cols: Vec<&[u32]> = (0..dim).map(|k| table.column(k)).collect();
                let sweep = HeadSweep::new(&cols, &chains, &ones)
                    .sweep(&zeros, "ladder_sweep", &CancelToken::never())
                    .unwrap();
                let total: u64 = sweep.hits.iter().map(|(_, h)| h.len() as u64).sum();
                assert_eq!(
                    count_head_hits(x, y, &heads, &zeros),
                    total,
                    "dim {dim} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn one_sided_contention_builds_no_gadget() {
        // Zeros that dominate no chain head reach no rung: the sweep
        // finds no contention and no network is built, while both
        // labels are present.
        let mut ws = WeightedSet::empty(3);
        ws.push(&[1.0, 1.0, 1.0], Label::One, 1.0);
        ws.push(&[2.0, 2.0, 2.0], Label::One, 1.0);
        ws.push(&[0.0, 0.0, 0.0], Label::Zero, 1.0);
        ws.push(&[3.0, 0.0, 3.0], Label::Zero, 1.0);
        for gadget in [Gadget::ByEdgeCount, Gadget::Ladder] {
            let (con, network) = discover_and_build(&ws, gadget);
            assert!(con.is_empty(), "{gadget:?}");
            assert!(network.is_none(), "{gadget:?}");
        }
    }
}
