//! Width equivalence of the banded shard engine with the sequential
//! engines (ISSUE 9 acceptance matrix).
//!
//! The contract is *bit-identical width, not identical chains*: the
//! sharded decomposition must report exactly the width (and antichain
//! size) of the bitset and list engines on every input — including
//! duplicates, signed zeros, infinite sentinels, uniform point sets,
//! and shard counts from degenerate (1) to far past the band count.
//! Every sharded solve is also `validate()`d, which re-verifies the
//! König antichain certificate (`antichain.len() == chains.len()` plus
//! pairwise incomparability) on the shard path.

use mc_chains::{with_matching_override, ChainDecomposition, MatchingEngine};
use mc_geom::{DominanceIndex, PointSet, RankOracle};
use proptest::prelude::*;

/// Same palette as the bitset equivalence suite: duplicates, `-0.0`
/// vs `0.0` ties, and infinities all occur with high probability.
const PALETTE: [f64; 8] = [
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    -1.5,
    1.0,
    2.0,
    3.25,
    f64::INFINITY,
];

fn point_sets(max_n: usize, dim: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec(prop::collection::vec(0usize..PALETTE.len(), dim), 0..max_n).prop_map(
        move |rows| {
            let mut points = PointSet::new(dim);
            for row in rows {
                let coords: Vec<f64> = row.into_iter().map(|i| PALETTE[i]).collect();
                points.push(&coords);
            }
            points
        },
    )
}

/// Sharded vs bitset vs list, at several shard counts.
fn check_shard_agrees(points: &PointSet) {
    let index = DominanceIndex::build(points);
    let oracle = RankOracle::build(points);
    let bitset = ChainDecomposition::compute_with_engine(&index, MatchingEngine::Bitset);
    let list = ChainDecomposition::compute_with_engine(&index, MatchingEngine::List);
    assert_eq!(bitset.width(), list.width(), "sequential engines disagree");
    for shards in [1usize, 2, 3, 5, 16] {
        let sh = ChainDecomposition::compute_sharded(&oracle, shards);
        sh.validate(points).unwrap();
        assert_eq!(sh.width(), bitset.width(), "shards {shards}: width differs");
        assert_eq!(
            sh.antichain().len(),
            bitset.antichain().len(),
            "shards {shards}: antichain size differs"
        );
    }
    // The index-path dispatcher must route to the same result.
    let via_override = with_matching_override(MatchingEngine::Shard, Some(4), || {
        ChainDecomposition::compute_from_index(&index)
    });
    via_override.validate(points).unwrap();
    assert_eq!(via_override.width(), bitset.width());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shard_agrees_d1(points in point_sets(40, 1)) {
        check_shard_agrees(&points);
    }

    #[test]
    fn shard_agrees_d2(points in point_sets(32, 2)) {
        check_shard_agrees(&points);
    }

    #[test]
    fn shard_agrees_d3(points in point_sets(24, 3)) {
        check_shard_agrees(&points);
    }

    #[test]
    fn shard_agrees_d4(points in point_sets(20, 4)) {
        check_shard_agrees(&points);
    }

    /// Heavy duplication: dup groups span band-sized runs, exercising
    /// the never-straddle band invariant and the equal-point stitch
    /// tie-break.
    #[test]
    fn shard_agrees_with_heavy_duplicates(rows in prop::collection::vec(0usize..4, 0..40)) {
        let mut points = PointSet::new(2);
        for r in rows {
            let v = r as f64;
            points.push(&[v, 3.0 - v]);
        }
        check_shard_agrees(&points);
    }

    /// Uniform labels edge case from the acceptance matrix: every point
    /// identical — one dup class, one band, one chain.
    #[test]
    fn shard_agrees_on_uniform_sets(n in 0usize..60, coord in 0usize..PALETTE.len()) {
        let mut points = PointSet::new(3);
        for _ in 0..n {
            points.push(&[PALETTE[coord]; 3]);
        }
        check_shard_agrees(&points);
    }
}

#[test]
fn shard_agrees_on_figure1() {
    let points = mc_chains::test_support::figure1_like_points();
    check_shard_agrees(&points);
    let oracle = RankOracle::build(&points);
    assert_eq!(ChainDecomposition::compute_sharded(&oracle, 3).width(), 6);
}

#[test]
fn env_dispatch_routes_to_shard_engine() {
    // `with_matching_override` is the only engine selector and carries
    // the shard count; `None` takes the default count.
    let points = mc_chains::test_support::figure1_like_points();
    let index = DominanceIndex::build(&points);
    for shards in [None, Some(2), Some(64)] {
        let dec = with_matching_override(MatchingEngine::Shard, shards, || {
            ChainDecomposition::compute_from_index(&index)
        });
        dec.validate(&points).unwrap();
        assert_eq!(dec.width(), 6);
    }
}
