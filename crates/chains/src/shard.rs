//! Banded shard decomposition of the Lemma-6 matching
//! ([`crate::MatchingEngine::Shard`], selected per thread with
//! [`crate::with_matching_override`]).
//!
//! The sequential engines solve one Hopcroft–Karp instance over all `n`
//! label-1 points: every BFS/DFS phase sweeps rows `n` bits wide. This
//! engine cuts the instance into `K` contiguous rank bands along the
//! most-selective dimension ([`mc_geom::band_partition`]) and exploits
//! the band invariant — *every point of a later band is strictly above
//! every point of an earlier band on the cut dimension* — four times
//! over:
//!
//! 1. **Band solves.** Each band of `m ≈ n/K` points is a self-contained
//!    sub-poset, matched independently with the matrix-free bitset
//!    engine over a gathered sub-oracle ([`RankOracle::from_subset`]).
//!    Band rows are `m` bits wide instead of `n`, so the per-phase word
//!    work drops from `O(n²/64)` to `O(K · (n/K)²/64) = O(n²/(64K))` —
//!    a `K×` reduction that pays even on a single core. Bands are
//!    dealt to worker threads off an atomic queue; each worker pins
//!    [`mc_geom::with_sequential`] so the oracle kernels do not
//!    nest-spawn.
//! 2. **Merge.** No split-graph edge points from a later band back into
//!    an earlier one, so the union of per-band matchings is a valid
//!    global matching — copied into global arrays with no conflict
//!    checks. (Bands hold ascending point indices, so per-band
//!    duplicate tie-breaks coincide with global ones.)
//! 3. **Stitch.** The union's deficit versus the global maximum is only
//!    at the seams: chains that *could* continue across a boundary.
//!    A greedy pass walks the bands in ascending rank order, keeping
//!    the pool of open chain tails; each band's chain heads grab the
//!    first dominated tail (`head ⪰ tail`, with the index tie-break on
//!    equal points). Each stitch extends the matching by one edge.
//! 4. **Repair.** Greedy stitching is not optimal, so the stitched
//!    matching warm-starts one global Hopcroft–Karp
//!    ([`HopcroftKarpBitset::resume_with_stats_cancellable`]): phases
//!    run until no augmenting path remains, which *guarantees* a
//!    maximum matching — the width is bit-identical to the sequential
//!    engines (the chains themselves may differ).
//! 5. **Row caching.** Per-band maximum matchings are locally rigid:
//!    undoing them across a seam takes *long* alternating paths, so the
//!    repair runs as many full-width phases as a cold solve — and each
//!    phase recomputes every row from rank columns. The engine
//!    therefore materializes rows once
//!    ([`OracleGraph::materialize_cancellable`]) and lets the phases
//!    (and the König sweep) scan at word speed instead. Band
//!    sub-matrices are `(n/K)²` bits — `K²×` smaller than the
//!    monolithic dominator matrix — so bands stay materialized deep
//!    past the matrix wall; the full-width repair cache follows the
//!    shared [`crate::row_cache`] policy (`MC_MATRIX_BUDGET_BYTES`,
//!    default 256 MiB) and falls back to matrix-free on-demand rows
//!    above it. Cached rows are bit-identical to on-demand ones, so
//!    nothing downstream changes.
//!
//! The König antichain certificate is still computed from scratch and
//! cross-checked against the chain count; on a mismatch (which would
//! mean a bug, not an input property) the engine warns once, bumps
//! `matching.shard.fallbacks`, and recomputes with the sequential
//! bitset engine — callers never observe an uncertified width.
//!
//! Observability: `matching.shard.{bands,stitched,repair_rounds,
//! repair_augmented,fallbacks}` counters and the `matching.shard`
//! progress phase (`progress.matching.shard.{units,frac}` gauges, one
//! unit per banded point).

use crate::decomposition::ChainDecomposition;
use crate::row_cache::{self, rows_fit};
use mc_geom::{band_partition, RankOracle};
use mc_matching::{HkWorkspace, HopcroftKarpBitset, Matching, MatchingStats, OracleGraph};
use mc_obs::{CancelToken, Cancelled};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One band's solved matching, in band-local vertex numbering.
struct BandSolve {
    band: usize,
    matching: Matching,
}

/// Entry point behind [`ChainDecomposition::compute_sharded_cancellable`].
pub(crate) fn compute_sharded_cancellable(
    oracle: &RankOracle,
    shards: usize,
    token: &CancelToken,
) -> Result<ChainDecomposition, Cancelled> {
    let n = oracle.len();
    if n == 0 {
        return Ok(ChainDecomposition::finish(Vec::new(), Vec::new()));
    }
    let budget = row_cache::cache_budget_bytes();
    let sequential =
        || ChainDecomposition::compute_from_oracle_with_cache_budget(oracle, budget, token);
    if shards <= 1 {
        return sequential();
    }
    let part = band_partition(oracle, shards);
    if part.bands.len() <= 1 {
        // Rank classes too coarse to cut: nothing to shard.
        return sequential();
    }
    let _span = mc_obs::span("path_cover_sharded");
    mc_obs::counter_add("matching.shard.bands", part.bands.len() as u64);

    let solves = {
        let _s = mc_obs::span("shard.band_solves");
        solve_bands(oracle, &part.bands, budget, token)?
    };
    let (mut left_match, mut right_match) = merge_bands(n, &part.bands, &solves);
    let stitched = {
        let _s = mc_obs::span("shard.stitch");
        stitch(oracle, &part.bands, &mut left_match, &mut right_match)
    };
    mc_obs::counter_add("matching.shard.stitched", stitched);
    token.poll()?;

    // Warm-started global repair: runs to a true maximum matching, so
    // the width below is exactly the sequential engines' width. The
    // repair's phases — and the König certificate sweep after them —
    // revisit every row once per BFS/DFS pass, so when the full split
    // graph fits the cache budget its rows are materialized once:
    // a cached scan is a word load where an on-demand row costs a
    // d-dimension rank-compare pass. Rows are bit-identical either
    // way, so the matching (and the certificate) cannot differ.
    let og = OracleGraph::new(oracle);
    let cached = row_cache::cached_rows(
        &og,
        budget,
        "shard.materialize",
        "matching.shard.rows_cached",
        token,
    )?;
    let initial = Matching {
        left_match,
        right_match,
    };
    let mut ws = HkWorkspace::new();
    let (matching, stats): (Matching, MatchingStats) = {
        let _s = mc_obs::span("shard.repair");
        match &cached {
            Some(g) => {
                HopcroftKarpBitset.resume_with_stats_cancellable(g, initial, &mut ws, token)?
            }
            None => {
                HopcroftKarpBitset.resume_with_stats_cancellable(&og, initial, &mut ws, token)?
            }
        }
    };
    mc_obs::counter_add("matching.shard.repair_rounds", stats.rounds);
    mc_obs::counter_add("matching.shard.repair_augmented", stats.augmented);
    token.poll()?;

    let chains = ChainDecomposition::chains_from_matching(n, &matching);
    let antichain = match &cached {
        Some(g) => ChainDecomposition::antichain_from_cover(n, g, &matching),
        None => ChainDecomposition::antichain_from_cover(n, &og, &matching),
    };
    if antichain.len() != chains.len() {
        // König duality must hold for a maximum matching; a mismatch
        // means the stitched matching violated an engine invariant.
        // Fail safe: certify via the sequential path.
        mc_obs::warn_once(
            "mc_shard_certificate",
            "sharded chain decomposition failed its antichain certificate; \
             recomputing with the sequential bitset engine",
        );
        mc_obs::counter_add("matching.shard.fallbacks", 1);
        return sequential();
    }
    Ok(ChainDecomposition::finish(chains, antichain))
}

/// Solves every band's sub-instance, dealing bands to at most
/// `mc_geom::max_threads()` workers off an atomic queue. Returns the
/// band-local matchings (order unspecified; tagged with band ids).
fn solve_bands(
    oracle: &RankOracle,
    bands: &[Vec<usize>],
    budget: u64,
    token: &CancelToken,
) -> Result<Vec<BandSolve>, Cancelled> {
    let n = oracle.len();
    let workers = bands.len().min(mc_geom::max_threads());
    // A band's sub-matrix is `(n/K)²` bits — `K²×` smaller than the
    // monolithic matrix — so bands can run at materialized word speed
    // deep into the regime where the full matrix is out of budget.
    // Each worker holds at most one band's rows at a time, so the gate
    // charges the budget `workers` bands at once.
    let largest = bands.iter().map(Vec::len).max().unwrap_or(0);
    let materialize_bands = rows_fit(largest, workers, budget);
    let next = AtomicUsize::new(0);
    let worker = |ws: &mut HkWorkspace| -> Result<Vec<BandSolve>, Cancelled> {
        // Pin the oracle kernels to this thread: the bands *are* the
        // parallelism, nest-spawning would oversubscribe the pool.
        mc_geom::with_sequential(|| {
            let mut out = Vec::new();
            let mut cp = mc_obs::Checkpoint::with_progress(token, "matching.shard", n as u64);
            loop {
                let band = next.fetch_add(1, Ordering::Relaxed);
                let Some(indices) = bands.get(band) else {
                    return Ok(out);
                };
                let sub = oracle.from_subset(indices);
                ws.invalidate_degrees();
                let (matching, _) = if materialize_bands {
                    let g = OracleGraph::new(&sub).materialize_cancellable(token)?;
                    HopcroftKarpBitset.solve_in_workspace_cancellable(&g, ws, token)?
                } else {
                    let g = OracleGraph::new(&sub);
                    HopcroftKarpBitset.solve_in_workspace_cancellable(&g, ws, token)?
                };
                out.push(BandSolve { band, matching });
                cp.tick(indices.len() as u64)?;
            }
        })
    };
    if workers <= 1 {
        return worker(&mut HkWorkspace::new());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| worker(&mut HkWorkspace::new())))
            .collect();
        let mut solves = Vec::with_capacity(bands.len());
        let mut cancelled = None;
        for h in handles {
            match h.join().expect("shard worker panicked") {
                Ok(part) => solves.extend(part),
                Err(c) => cancelled = Some(c),
            }
        }
        match cancelled {
            Some(c) => Err(c),
            None => Ok(solves),
        }
    })
}

/// Lifts the band-local matchings into one global matching. Valid with
/// no conflict checks: bands partition the vertices and the band
/// invariant rules out cross-band edges in the per-band solves.
fn merge_bands(
    n: usize,
    bands: &[Vec<usize>],
    solves: &[BandSolve],
) -> (Vec<Option<u32>>, Vec<Option<u32>>) {
    let mut left_match = vec![None; n];
    let mut right_match = vec![None; n];
    for s in solves {
        let indices = &bands[s.band];
        for (l, &m) in s.matching.left_match.iter().enumerate() {
            if let Some(r) = m {
                let (gl, gr) = (indices[l], indices[r as usize]);
                left_match[gl] = Some(gr as u32);
                right_match[gr] = Some(gl as u32);
            }
        }
    }
    (left_match, right_match)
}

/// Greedy cross-boundary stitch: walks the bands in ascending rank
/// order keeping the pool of open chain tails (left copy unmatched);
/// each band's chain heads (right copy unmatched) grab the first
/// dominated tail. Every hit adds one matching edge — the resulting
/// matching stays valid (the dominance check *is* the split-graph edge
/// predicate) and strictly closer to maximum. Returns the stitch count.
fn stitch(
    oracle: &RankOracle,
    bands: &[Vec<usize>],
    left_match: &mut [Option<u32>],
    right_match: &mut [Option<u32>],
) -> u64 {
    let mut open_tails: Vec<usize> = Vec::new();
    let mut stitched = 0u64;
    for indices in bands {
        for &h in indices {
            if right_match[h].is_some() {
                continue; // not a chain head
            }
            let hit = open_tails
                .iter()
                .position(|&t| oracle.dominates(h, t) && (!oracle.equal_points(h, t) || h > t));
            if let Some(pos) = hit {
                let t = open_tails.swap_remove(pos);
                left_match[t] = Some(h as u32);
                right_match[h] = Some(t as u32);
                stitched += 1;
            }
        }
        // This band's tails become stitch candidates for later bands
        // only — a tail can never chain to a head of its own band
        // (the band solve already saturated in-band edges greedily).
        open_tails.extend(indices.iter().copied().filter(|&i| left_match[i].is_none()));
    }
    stitched
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_geom::PointSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dim: usize, grid: f64, rng: &mut StdRng) -> PointSet {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..grid).round()).collect())
            .collect();
        if n == 0 {
            PointSet::new(dim)
        } else {
            PointSet::from_rows(dim, &rows)
        }
    }

    #[test]
    fn sharded_width_matches_bitset_on_random_sets() {
        let mut rng = StdRng::seed_from_u64(0x54A2);
        for dim in [1usize, 2, 3, 4] {
            for &shards in &[2usize, 3, 8] {
                let n = rng.gen_range(1..160);
                let points = random_points(n, dim, 4.0, &mut rng);
                let oracle = RankOracle::build(&points);
                let seq = ChainDecomposition::compute_from_oracle(&oracle);
                let sh = ChainDecomposition::compute_sharded(&oracle, shards);
                assert_eq!(sh.width(), seq.width(), "dim {dim} shards {shards} n {n}");
                sh.validate(&points).unwrap();
            }
        }
    }

    #[test]
    fn stitched_matching_is_always_valid_before_repair() {
        // The repair pass asserts validity implicitly; check explicitly
        // that merge + stitch alone produce a valid (partial) matching.
        let mut rng = StdRng::seed_from_u64(0x571C);
        for _ in 0..20 {
            let n = rng.gen_range(2..120);
            let points = random_points(n, 2, 3.0, &mut rng);
            let oracle = RankOracle::build(&points);
            let part = band_partition(&oracle, 4);
            let solves = solve_bands(
                &oracle,
                &part.bands,
                row_cache::DEFAULT_CACHE_BYTES,
                &CancelToken::never(),
            )
            .unwrap();
            let (mut lm, mut rm) = merge_bands(n, &part.bands, &solves);
            stitch(&oracle, &part.bands, &mut lm, &mut rm);
            let m = Matching {
                left_match: lm,
                right_match: rm,
            };
            m.validate(&OracleGraph::new(&oracle)).unwrap();
        }
    }

    #[test]
    fn uniform_duplicates_collapse_to_single_chain() {
        // All-equal points: one dup class, one band, one chain; the
        // sharded entry must fall back cleanly and stay correct.
        let rows: Vec<Vec<f64>> = (0..50).map(|_| vec![1.0, 2.0]).collect();
        let points = PointSet::from_rows(2, &rows);
        let oracle = RankOracle::build(&points);
        let dec = ChainDecomposition::compute_sharded(&oracle, 8);
        assert_eq!(dec.width(), 1);
        dec.validate(&points).unwrap();
    }

    #[test]
    fn cancellation_propagates_from_band_workers() {
        let mut rng = StdRng::seed_from_u64(9);
        let points = random_points(400, 2, 40.0, &mut rng);
        let oracle = RankOracle::build(&points);
        let token = CancelToken::new();
        token.cancel();
        assert!(compute_sharded_cancellable(&oracle, 4, &token).is_err());
    }
}
