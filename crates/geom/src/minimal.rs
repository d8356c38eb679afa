//! Minimal points under rank dominance.
//!
//! The *minimal* points of a set (those that dominate no other point)
//! are a monotone classifier's anchor candidates, and the minimal
//! label-1 points are where Lemma-15 contention starts: a 0-point
//! contends iff it dominates one of them. [`minimal_by_rank`] finds
//! them from rank columns with a sort and one word-parallel
//! subsumption check per point: sort by rank sum, then keep each point
//! that dominates no point already kept. Maxima are the minima of the
//! reversed ranks (`u32::MAX − rank`).
//!
//! # Example
//!
//! ```
//! use mc_geom::{minimal_by_rank, PointSet, RankTable};
//!
//! let ps = PointSet::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 2.0]]);
//! let table = RankTable::build(&ps);
//! let cols: Vec<&[u32]> = (0..2).map(|k| table.column(k)).collect();
//! assert_eq!(minimal_by_rank(&cols, &[0, 1, 2]), vec![0]);
//!
//! // Maxima: the minima of the reversed order.
//! let rev: Vec<Vec<u32>> = cols
//!     .iter()
//!     .map(|c| c.iter().map(|&r| u32::MAX - r).collect())
//!     .collect();
//! let rev: Vec<&[u32]> = rev.iter().map(Vec::as_slice).collect();
//! assert_eq!(minimal_by_rank(&rev, &[0, 1, 2]), vec![1, 2]);
//! ```

use crate::kernel::narrow_ge_into;
use mc_obs::cancel::{CancelToken, Cancelled, Checkpoint};

/// The minimal points among `ids`, ascending. `cols[k][i]` is point
/// `i`'s rank in dimension `k`, and dominance is the reflexive
/// `cols[k][p] >= cols[k][q]` on every dimension, so of a group of
/// duplicates only the smallest id is kept.
///
/// Cost: an `O(n log n)` sort by rank sum, then per point an `O(d)`
/// floor test, one binary search and at most `d − 1` narrowing passes
/// of at most `⌈m/64⌉` words over the `m` points kept so far, plus
/// `O(d·m)` moved ranks per kept point.
pub fn minimal_by_rank(cols: &[&[u32]], ids: &[usize]) -> Vec<usize> {
    let token = CancelToken::never();
    let mut cp = Checkpoint::new(&token);
    try_minimal_by_rank(cols, ids, &mut cp).expect("a never-token cannot cancel")
}

/// Cancellable twin of [`minimal_by_rank`]: ticks `cp` once per point
/// tested.
///
/// A point that dominates some other point has a strictly smaller rank
/// sum than it, or an equal sum and equal ranks, so sorting by
/// `(rank sum, id)` tests every point after everything it dominates.
/// A point is kept iff it dominates no kept point: if it dominates a
/// dropped point it dominates, by transitivity, the kept point that one
/// dominates. The kept points stay sorted by their first-dimension
/// rank, so a point only tests the prefix of them at or below its own
/// rank there, with [`narrow_ge_into`] over their reversed-rank columns
/// in the other dimensions (`top − rank`, where "kept rank ≤ rank of
/// `p`" reads `rev ≥ top − rank(p)`).
pub fn try_minimal_by_rank(
    cols: &[&[u32]],
    ids: &[usize],
    cp: &mut Checkpoint<'_>,
) -> Result<Vec<usize>, Cancelled> {
    let Some((key_col, _)) = cols.split_first() else {
        // No dimension: every point dominates every other.
        return Ok(ids.iter().copied().min().into_iter().collect());
    };
    let mut order: Vec<(u64, usize)> = ids
        .iter()
        .map(|&i| (cols.iter().map(|c| u64::from(c[i])).sum(), i))
        .collect();
    order.sort_unstable();
    let top: Vec<u32> = cols
        .iter()
        .map(|c| ids.iter().map(|&i| c[i]).max().unwrap_or(0))
        .collect();
    // Per dimension, the minimum kept rank: a point below it on any
    // dimension dominates nothing kept.
    let mut floor = vec![u32::MAX; cols.len()];
    // The kept points' first-dimension ranks, ascending, and their
    // reversed ranks in the other dimensions in the same order.
    let mut key: Vec<u32> = Vec::new();
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); cols.len()];
    let mut kept = Vec::new();
    let mut thresholds = Vec::with_capacity(cols.len());
    let mut row = Vec::new();
    for (_, i) in order {
        cp.tick(1)?;
        let below = key.partition_point(|&r| r <= key_col[i]);
        let below_floor = cols.iter().zip(&floor).any(|(c, &f)| c[i] < f);
        if !below_floor {
            thresholds.clear();
            for (k, c) in cols.iter().enumerate().skip(1) {
                if c[i] < top[k] {
                    thresholds.push((top[k] - c[i], k));
                }
            }
            if narrow_ge_into(below, &rev, &mut thresholds, &mut row) {
                continue;
            }
        }
        kept.push(i);
        key.insert(below, key_col[i]);
        for (k, c) in cols.iter().enumerate() {
            if k > 0 {
                rev[k].insert(below, top[k] - c[i]);
            }
            floor[k] = floor[k].min(c[i]);
        }
    }
    kept.sort_unstable();
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `O(d·n²)` reference: `i` is minimal iff no other id `j` has
    /// `j ⪯ i`, counting an equal earlier id as dominated.
    fn brute_minimal(cols: &[&[u32]], ids: &[usize]) -> Vec<usize> {
        let le = |j: usize, i: usize| cols.iter().all(|c| c[j] <= c[i]);
        let equal = |j: usize, i: usize| cols.iter().all(|c| c[j] == c[i]);
        let mut out: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&i| {
                !ids.iter()
                    .any(|&j| j != i && le(j, i) && (!equal(j, i) || j < i))
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn chain_antichain_and_duplicates() {
        let chain: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![0, 1, 2]];
        let cols: Vec<&[u32]> = chain.iter().map(Vec::as_slice).collect();
        assert_eq!(minimal_by_rank(&cols, &[0, 1, 2]), vec![0]);
        assert_eq!(minimal_by_rank(&cols, &[2, 1]), vec![1]);

        let anti: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![2, 1, 0]];
        let cols: Vec<&[u32]> = anti.iter().map(Vec::as_slice).collect();
        assert_eq!(minimal_by_rank(&cols, &[0, 1, 2]), vec![0, 1, 2]);

        let dup: Vec<Vec<u32>> = vec![vec![3, 3, 3], vec![1, 1, 1]];
        let cols: Vec<&[u32]> = dup.iter().map(Vec::as_slice).collect();
        assert_eq!(minimal_by_rank(&cols, &[2, 0, 1]), vec![0]);
        assert!(minimal_by_rank(&cols, &[]).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn matches_brute_force(
            ni in 0usize..6,
            dim in 1usize..=5,
            gi in 0usize..4,
            subset in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            // Grid 1 makes every point a duplicate (all ranks tie);
            // small grids make ties and duplicates common.
            let n = [0usize, 1, 2, 63, 65, 200][ni];
            let grid = [1u32, 2, 4, 1000][gi];
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<Vec<u32>> = (0..dim)
                .map(|_| (0..n).map(|_| rng.gen_range(0..grid)).collect())
                .collect();
            let cols: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
            let ids: Vec<usize> = if subset {
                (0..n).filter(|_| rng.gen_bool(0.5)).collect()
            } else {
                (0..n).rev().collect()
            };
            let got = minimal_by_rank(&cols, &ids);
            proptest::prop_assert_eq!(&got, &brute_minimal(&cols, &ids));
            if grid == 1 && !ids.is_empty() {
                proptest::prop_assert_eq!(got, vec![*ids.iter().min().unwrap()]);
            }
        }
    }
}
