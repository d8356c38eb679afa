//! Minimum chain decomposition via Dilworth's theorem (Lemma 6).
//!
//! Dilworth \[10\]: the minimum number of chains that partition a poset
//! equals the maximum antichain size (the *dominance width* `w`). The
//! constructive route, used by the paper's Lemma 6:
//!
//! 1. build the dominance DAG (it is its own transitive closure);
//! 2. a partition into `k` chains = a cover of the DAG by `k`
//!    vertex-disjoint paths;
//! 3. minimum path cover = `n − (maximum matching of the split bipartite
//!    graph)`, solved with Hopcroft–Karp in `O(E·sqrt(V))`;
//! 4. König's minimum vertex cover of the same graph yields a maximum
//!    antichain *certificate* of the same size.
//!
//! Total: `O(d·n² + n^2.5)`, matching Lemma 6.
//!
//! Two matching engines implement step 3. The default ([`MatchingEngine::Bitset`])
//! views the split graph directly as the dominance index's bitset rows —
//! no `DominanceDag` adjacency lists (Θ(n²) edges) are ever materialized —
//! and runs `mc_matching::HopcroftKarpBitset`'s word-parallel phases. The
//! adjacency-list reference path survives as [`MatchingEngine::List`],
//! reached through [`ChainDecomposition::compute_with_engine`] or
//! [`with_matching_override`].
//! Over a [`RankOracle`] the same engine runs on cached rows when they
//! fit the row-cache budget ([`crate::row_cache`]) and on rows computed
//! on demand above it; both give the same matching.

use crate::dag::DominanceDag;
use crate::row_cache;
use mc_geom::{DominanceIndex, GeomError, PointSet, RankOracle};
use mc_matching::{
    minimum_vertex_cover, BipartiteAdjacency, BipartiteGraph, BitsetGraph, HopcroftKarp,
    HopcroftKarpBitset, Matching, MatchingAlgorithm, OracleGraph, RowSource,
};

/// Which Hopcroft–Karp engine drives the Lemma-6 path cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MatchingEngine {
    /// Word-parallel BFS/DFS straight over the dominance index's bitset
    /// rows; never materializes adjacency lists. The default.
    #[default]
    Bitset,
    /// Pointer-walking Hopcroft–Karp over explicit [`DominanceDag`]
    /// adjacency lists; kept as the tested reference path.
    List,
    /// Banded shard decomposition: the points are cut into contiguous
    /// rank bands, matched per band on worker threads, stitched across
    /// boundaries, and repaired to a global maximum matching (see
    /// [`crate::shard`]). Width-identical to the bitset engine; the
    /// chains themselves may differ. Shard count from
    /// [`with_matching_override`] (default: `max(worker threads, 2)`).
    Shard,
}

thread_local! {
    /// Per-thread engine override (see [`with_matching_override`]):
    /// `(engine, shard count)`, with `None` selecting the default count.
    static MATCHING_OVERRIDE: std::cell::Cell<Option<(MatchingEngine, Option<usize>)>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `f` with the Lemma-6 matching engine (and optionally the shard
/// count) pinned for the *current thread*; without an override every
/// dispatcher runs the bitset engine. This is how callers select an
/// engine — the portfolio's `shard-hk` roster entry, the CLI's
/// `--shards` flag — without process-global state, so engines racing
/// in one process never see each other's choice. Nested overrides
/// restore the outer one on exit (even on panic).
pub fn with_matching_override<T>(
    engine: MatchingEngine,
    shards: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    struct Restore(Option<(MatchingEngine, Option<usize>)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MATCHING_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(MATCHING_OVERRIDE.with(|c| c.replace(Some((engine, shards)))));
    f()
}

impl MatchingEngine {
    /// The engine pinned by the current thread's
    /// [`with_matching_override`]; the bitset engine otherwise.
    fn current() -> Self {
        MATCHING_OVERRIDE
            .with(|c| c.get())
            .map_or(Self::Bitset, |(engine, _)| engine)
    }
}

/// Shard count for a [`MatchingEngine::Shard`] solve: the current
/// thread's override, else one band per worker thread and at least two
/// — the band-local matchings run on rows `K×` narrower than the global
/// graph, so the decomposition usually wins on total work, not just on
/// parallelism.
fn shard_count() -> usize {
    MATCHING_OVERRIDE
        .with(|c| c.get())
        .and_then(|(_, shards)| shards)
        .unwrap_or_else(|| mc_geom::max_threads().max(2))
}

/// A partition of point indices into chains, each sorted in ascending
/// dominance order, together with a maximum-antichain certificate.
#[derive(Debug, Clone)]
pub struct ChainDecomposition {
    /// The chains; `chains[c][i]` is a point index, and
    /// `chains[c][i+1]` dominates `chains[c][i]`.
    chains: Vec<Vec<usize>>,
    /// Point indices forming a maximum antichain (one certificate).
    antichain: Vec<usize>,
}

impl ChainDecomposition {
    /// Computes a minimum chain decomposition of `points`.
    ///
    /// Builds one [`DominanceIndex`] and hands it to
    /// [`compute_from_index`](Self::compute_from_index); callers that
    /// already hold an index should call that directly to avoid a second
    /// dominance pass.
    pub fn compute(points: &PointSet) -> Self {
        Self::compute_from_index(&DominanceIndex::build(points))
    }

    /// Budget-guarded twin of [`compute`](Self::compute): refuses with a
    /// typed [`GeomError::MatrixBudget`] — instead of attempting an
    /// allocation that may OOM the process — when the dominator matrix
    /// would exceed the `MC_MATRIX_BUDGET_BYTES` budget. Callers that
    /// must stay matrix-free regardless of budget should build a
    /// [`RankOracle`] and use [`compute_from_oracle`](Self::compute_from_oracle).
    pub fn try_compute(points: &PointSet) -> Result<Self, GeomError> {
        Self::try_compute_against(points, mc_geom::matrix_budget_bytes())
    }

    /// [`try_compute`](Self::try_compute) against an explicit matrix
    /// budget (`None` = unlimited) instead of the env knob.
    pub fn try_compute_against(points: &PointSet, budget: Option<u64>) -> Result<Self, GeomError> {
        mc_geom::check_matrix_budget_against(points.len(), budget)?;
        Ok(Self::compute_from_index(&DominanceIndex::build(points)))
    }

    /// Decomposition over a [`RankOracle`]: the Lemma-6 split graph's
    /// rows come from rank columns — materialized once when they fit
    /// the row-cache budget ([`row_cache::cache_budget_bytes`]),
    /// computed on demand (`O(d·n)` resident instead of `Θ(n²/64)`)
    /// above it. The oracle rows are bit-identical to the
    /// dominator-matrix rows, so the chains, width, and antichain
    /// certificate match the matrix path exactly.
    pub fn compute_from_oracle(oracle: &RankOracle) -> Self {
        Self::compute_from_oracle_cancellable(oracle, &mc_obs::CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    /// Cancellable twin of [`compute_from_oracle`](Self::compute_from_oracle).
    ///
    /// Dispatches on the thread's [`with_matching_override`]: the shard
    /// engine routes to
    /// [`compute_sharded_cancellable`](Self::compute_sharded_cancellable);
    /// everything else runs the word-parallel bitset engine. The list
    /// reference engine needs materialized adjacency lists, which is
    /// exactly what this entry point exists to avoid, so selecting it
    /// warns once and is ignored here (the matching is identical).
    pub fn compute_from_oracle_cancellable(
        oracle: &RankOracle,
        token: &mc_obs::CancelToken,
    ) -> Result<Self, mc_obs::Cancelled> {
        match MatchingEngine::current() {
            MatchingEngine::Shard => {
                return Self::compute_sharded_cancellable(oracle, shard_count(), token);
            }
            MatchingEngine::List => {
                mc_obs::warn_once(
                    "mc_matching_oracle_list",
                    "the list matching engine has no matrix-free variant; the rank-oracle \
                     path uses the bitset engine (the matching is identical)",
                );
            }
            MatchingEngine::Bitset => {}
        }
        Self::compute_from_oracle_with_cache_budget(oracle, row_cache::cache_budget_bytes(), token)
    }

    /// The sequential oracle path with an explicit row-cache budget in
    /// bytes: one bitset Hopcroft–Karp solve over the whole oracle, on
    /// rows materialized once when `matrix_bytes(n)` fits
    /// `cache_budget` and on rows computed on demand otherwise. Both
    /// give identical chains and antichains. Shared by the env
    /// dispatcher above and by the sharded engine's certificate-failure
    /// fallback.
    pub fn compute_from_oracle_with_cache_budget(
        oracle: &RankOracle,
        cache_budget: u64,
        token: &mc_obs::CancelToken,
    ) -> Result<Self, mc_obs::Cancelled> {
        let _span = mc_obs::span("path_cover");
        let og = OracleGraph::new(oracle);
        match row_cache::cached_rows(
            &og,
            cache_budget,
            "materialize",
            "matching.rows_cached",
            token,
        )? {
            Some(g) => Self::solve_rows(&g, token),
            None => Self::solve_rows(&og, token),
        }
    }

    /// Banded shard decomposition ([`MatchingEngine::Shard`]): cuts the
    /// points into at most `shards` contiguous rank bands, matches each
    /// band independently on worker threads, stitches chains across
    /// band boundaries, and repairs the stitched matching to a global
    /// maximum with a warm-started Hopcroft–Karp pass — so the width
    /// (and the König antichain certificate) is identical to the
    /// sequential engines even though the individual chains may differ.
    /// See [`crate::shard`] for the algorithm and its invariants.
    pub fn compute_sharded(oracle: &RankOracle, shards: usize) -> Self {
        Self::compute_sharded_cancellable(oracle, shards, &mc_obs::CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    /// Cancellable twin of [`compute_sharded`](Self::compute_sharded):
    /// the token is threaded into every band's matching (per-shard
    /// checkpoints) and into the stitch and repair phases.
    pub fn compute_sharded_cancellable(
        oracle: &RankOracle,
        shards: usize,
        token: &mc_obs::CancelToken,
    ) -> Result<Self, mc_obs::Cancelled> {
        crate::shard::compute_sharded_cancellable(oracle, shards, token)
    }

    /// Computes the decomposition from a prebuilt [`DominanceIndex`],
    /// letting callers that already hold one skip a second dominance
    /// pass. Dispatches on the thread's [`with_matching_override`]
    /// (bitset by default).
    pub fn compute_from_index(index: &DominanceIndex) -> Self {
        Self::compute_with_engine(index, MatchingEngine::current())
    }

    /// Computes the decomposition with an explicit engine choice.
    pub fn compute_with_engine(index: &DominanceIndex, engine: MatchingEngine) -> Self {
        match engine {
            MatchingEngine::Bitset => Self::compute_bitset(index),
            MatchingEngine::List => Self::from_dag(&DominanceDag::from_index(index)),
            MatchingEngine::Shard => {
                Self::compute_sharded(&Self::oracle_from_index(index), shard_count())
            }
        }
    }

    /// Lifts a prebuilt index's rank columns into a [`RankOracle`] so
    /// the sharded engine (which bands and gathers rank columns) can
    /// serve index-path callers too. `O(d·n)` copy; the ranks are the
    /// same compressed columns, so dominance answers — and the width —
    /// are identical.
    fn oracle_from_index(index: &DominanceIndex) -> RankOracle {
        let (n, dim) = (index.len(), index.dim());
        let mut ranks = Vec::with_capacity(dim * n);
        for k in 0..dim {
            ranks.extend_from_slice(index.rank_column(k));
        }
        RankOracle::from_rank_columns(n, dim, ranks)
    }

    /// Computes the decomposition straight off the index's bitset rows:
    /// the split bipartite graph borrows the dominator matrix (owned
    /// masked copies only for duplicated points), so no adjacency lists
    /// or DAG are ever materialized.
    pub fn compute_bitset(index: &DominanceIndex) -> Self {
        let _span = mc_obs::span("path_cover");
        Self::solve_rows(
            &BitsetGraph::from_index(index),
            &mc_obs::CancelToken::never(),
        )
        .expect("a never-token cannot cancel")
    }

    /// Bitset Hopcroft–Karp over the split graph `g`, then chains from
    /// the matching and the König antichain from the same rows.
    fn solve_rows<G: RowSource + BipartiteAdjacency>(
        g: &G,
        token: &mc_obs::CancelToken,
    ) -> Result<Self, mc_obs::Cancelled> {
        let n = RowSource::num_left(g);
        if n == 0 {
            return Ok(Self {
                chains: Vec::new(),
                antichain: Vec::new(),
            });
        }
        let (matching, _) = HopcroftKarpBitset.solve_with_stats_cancellable(g, token)?;
        token.poll()?;
        let chains = Self::chains_from_matching(n, &matching);
        let antichain = Self::antichain_from_cover(n, g, &matching);
        Ok(Self::finish(chains, antichain))
    }

    /// Computes the decomposition from a pre-built dominance DAG.
    pub fn from_dag(dag: &DominanceDag) -> Self {
        let _span = mc_obs::span("path_cover");
        let n = dag.num_nodes();
        if n == 0 {
            return Self {
                chains: Vec::new(),
                antichain: Vec::new(),
            };
        }
        // Split bipartite graph: left copy = "tail" role, right = "head".
        let mut g = BipartiteGraph::new(n, n);
        for u in 0..n {
            for &v in dag.successors(u) {
                g.add_edge(u, v as usize);
            }
        }
        let matching = HopcroftKarp.solve(&g);
        let chains = Self::chains_from_matching(n, &matching);
        let antichain = Self::antichain_from_cover(n, &g, &matching);
        Self::finish(chains, antichain)
    }

    /// Shared tail of every construction path: Dilworth duality check
    /// plus the `chains.*` metrics.
    pub(crate) fn finish(chains: Vec<Vec<usize>>, antichain: Vec<usize>) -> Self {
        debug_assert_eq!(chains.len(), antichain.len(), "Dilworth duality violated");
        mc_obs::counter_add("chains.count", chains.len() as u64);
        if mc_obs::enabled() {
            let h = mc_obs::histogram("chains.chain_len");
            for c in &chains {
                h.record(c.len() as u64);
            }
        }
        Self { chains, antichain }
    }

    /// Follows matched successors from every chain head (a vertex whose
    /// right copy is unmatched).
    pub(crate) fn chains_from_matching(n: usize, matching: &Matching) -> Vec<Vec<usize>> {
        let mut chains = Vec::new();
        for start in 0..n {
            if matching.right_match[start].is_some() {
                continue; // not a chain head
            }
            let mut chain = vec![start];
            let mut cur = start;
            while let Some(next) = matching.left_match[cur] {
                cur = next as usize;
                chain.push(cur);
            }
            chains.push(chain);
        }
        chains
    }

    /// Maximum antichain: vertices neither of whose split copies lies in
    /// König's minimum vertex cover.
    pub(crate) fn antichain_from_cover<G: BipartiteAdjacency>(
        n: usize,
        g: &G,
        matching: &Matching,
    ) -> Vec<usize> {
        let cover = minimum_vertex_cover(g, matching);
        (0..n)
            .filter(|&v| !cover.left_in_cover[v] && !cover.right_in_cover[v])
            .collect()
    }

    /// The chains (ascending dominance order within each chain).
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// Consumes the decomposition, returning its chains.
    pub fn into_chains(self) -> Vec<Vec<usize>> {
        self.chains
    }

    /// Chain `c` in ascending dominance order: `chain(c)[i + 1] ⪰
    /// chain(c)[i]`. Because `⪰` is transitive, any predicate of the form
    /// "`p ⪰` chain element" is monotone along the chain — downstream
    /// consumers (the passive solver's ladder gadget) exploit this to
    /// binary-search the deepest dominated element.
    pub fn chain(&self, c: usize) -> &[usize] {
        &self.chains[c]
    }

    /// The dominance width `w` (number of chains = max antichain size).
    pub fn width(&self) -> usize {
        self.chains.len()
    }

    /// A maximum antichain certifying minimality (its size equals
    /// [`ChainDecomposition::width`]).
    pub fn antichain(&self) -> &[usize] {
        &self.antichain
    }

    /// Verifies all structural invariants against `points`:
    /// the chains partition the index set, consecutive chain elements are
    /// dominance-comparable (ascending), the certificate is an antichain,
    /// and its size equals the number of chains.
    pub fn validate(&self, points: &PointSet) -> Result<(), String> {
        let n = points.len();
        let mut seen = vec![false; n];
        for (c, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                return Err(format!("chain {c} is empty"));
            }
            for &i in chain {
                if i >= n {
                    return Err(format!("chain {c} contains out-of-range index {i}"));
                }
                if seen[i] {
                    return Err(format!("index {i} appears in two chains"));
                }
                seen[i] = true;
            }
            for pair in chain.windows(2) {
                if !points.dominates(pair[1], pair[0]) {
                    return Err(format!(
                        "chain {c}: point {} does not dominate its predecessor {}",
                        pair[1], pair[0]
                    ));
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("chains do not cover every point".into());
        }
        for (a, &i) in self.antichain.iter().enumerate() {
            for &j in &self.antichain[a + 1..] {
                if points.dominates(i, j) || points.dominates(j, i) {
                    return Err(format!("certificate points {i} and {j} are comparable"));
                }
            }
        }
        if self.antichain.len() != self.chains.len() {
            return Err(format!(
                "certificate size {} != chain count {}",
                self.antichain.len(),
                self.chains.len()
            ));
        }
        Ok(())
    }
}

/// The dominance width `w` of a point set: the size of its largest
/// antichain (Section 1.2 of the paper).
pub fn dominance_width(points: &PointSet) -> usize {
    ChainDecomposition::compute(points).width()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chain_in_1d() {
        let points = PointSet::from_values_1d(&[5.0, 2.0, 9.0, 1.0]);
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
        // The single chain must be fully sorted ascending.
        let chain = &dec.chains()[0];
        let vals: Vec<f64> = chain.iter().map(|&i| points.point(i)[0]).collect();
        assert_eq!(vals, vec![1.0, 2.0, 5.0, 9.0]);
    }

    #[test]
    fn pure_antichain() {
        let points = PointSet::from_rows(
            2,
            &[
                vec![0.0, 3.0],
                vec![1.0, 2.0],
                vec![2.0, 1.0],
                vec![3.0, 0.0],
            ],
        );
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 4);
        assert_eq!(dec.antichain().len(), 4);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn grid_width_is_side_length() {
        // A k×k grid of points (i, j): the width equals k (the
        // anti-diagonal is a maximum antichain).
        let k = 5;
        let mut rows = Vec::new();
        for i in 0..k {
            for j in 0..k {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        let points = PointSet::from_rows(2, &rows);
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), k);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn duplicates_share_a_chain() {
        let points = PointSet::from_rows(2, &[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn empty_and_singleton() {
        let empty = PointSet::new(3);
        let dec = ChainDecomposition::compute(&empty);
        assert_eq!(dec.width(), 0);
        dec.validate(&empty).unwrap();

        let single = PointSet::from_rows(3, &[vec![1.0, 2.0, 3.0]]);
        let dec = ChainDecomposition::compute(&single);
        assert_eq!(dec.width(), 1);
        dec.validate(&single).unwrap();
    }

    #[test]
    fn oracle_path_reproduces_matrix_path_exactly() {
        // Same chains, same antichain — not merely the same width: the
        // oracle rows are bit-identical to the matrix rows, so every
        // tie-break in the matching engine resolves the same way.
        let cases = [
            crate::test_support::figure1_like_points(),
            PointSet::from_rows(2, &[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]),
            PointSet::from_values_1d(&[5.0, 2.0, 9.0, 1.0, 2.0]),
        ];
        for points in &cases {
            let via_matrix = ChainDecomposition::compute_from_index(&DominanceIndex::build(points));
            let via_oracle = ChainDecomposition::compute_from_oracle(&RankOracle::build(points));
            assert_eq!(via_matrix.chains(), via_oracle.chains());
            assert_eq!(via_matrix.antichain(), via_oracle.antichain());
            via_oracle.validate(points).unwrap();
        }
    }

    #[test]
    fn oracle_path_handles_empty_input() {
        let dec = ChainDecomposition::compute_from_oracle(&RankOracle::build(&PointSet::new(2)));
        assert_eq!(dec.width(), 0);
    }

    #[test]
    fn try_compute_respects_matrix_budget() {
        // 10 bytes cannot hold any dominator matrix with n >= 2; the
        // guard must refuse with the typed error instead of building.
        let points = PointSet::from_rows(2, &[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let err = ChainDecomposition::try_compute_against(&points, Some(10)).unwrap_err();
        match err {
            GeomError::MatrixBudget {
                points: n,
                budget_bytes,
                ..
            } => {
                assert_eq!(n, 2);
                assert_eq!(budget_bytes, 10);
            }
            other => panic!("expected MatrixBudget, got {other:?}"),
        }
        // With the budget lifted the same input solves fine.
        assert_eq!(
            ChainDecomposition::try_compute_against(&points, None)
                .unwrap()
                .width(),
            2
        );
    }

    #[test]
    fn cached_and_on_demand_oracle_rows_decompose_identically() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let never = mc_obs::CancelToken::never();
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        for dim in [1usize, 2, 3, 4] {
            for trial in 0..12 {
                let n = rng.gen_range(1..200);
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..dim)
                            .map(|_| rng.gen_range(0.0..6.0f64).round())
                            .collect()
                    })
                    .collect();
                let points = PointSet::from_rows(dim, &rows);
                let oracle = RankOracle::build(&points);
                // Budget 0 keeps every row on demand; u64::MAX caches all.
                let on_demand =
                    ChainDecomposition::compute_from_oracle_with_cache_budget(&oracle, 0, &never)
                        .unwrap();
                let cached = ChainDecomposition::compute_from_oracle_with_cache_budget(
                    &oracle,
                    u64::MAX,
                    &never,
                )
                .unwrap();
                assert_eq!(
                    cached.chains(),
                    on_demand.chains(),
                    "dim {dim} trial {trial}"
                );
                assert_eq!(
                    cached.antichain(),
                    on_demand.antichain(),
                    "dim {dim} trial {trial}"
                );
                assert_eq!(cached.width(), on_demand.width(), "dim {dim} trial {trial}");
                cached.validate(&points).unwrap();
            }
        }
        let empty = RankOracle::build(&PointSet::new(3));
        for budget in [0, u64::MAX] {
            let dec =
                ChainDecomposition::compute_from_oracle_with_cache_budget(&empty, budget, &never)
                    .unwrap();
            assert_eq!(dec.width(), 0);
        }
    }

    #[test]
    fn paper_figure1_has_width_6() {
        // Section 2 of the paper decomposes the Figure-1 input into 6
        // chains. We reproduce a 16-point configuration with the same
        // chain/antichain structure: 6 chains of sizes 5,1,3,1,1,5.
        let points = crate::test_support::figure1_like_points();
        let dec = ChainDecomposition::compute(&points);
        assert_eq!(dec.width(), 6);
        dec.validate(&points).unwrap();
        let mut sizes: Vec<usize> = dec.chains().iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes.iter().sum::<usize>(), 16);
    }
}
