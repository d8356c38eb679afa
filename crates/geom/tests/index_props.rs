//! Property tests for the rank-compressed dominance index: on random
//! point sets — with duplicates, per-dimension ties, signed zeros, and
//! infinities — every query the index answers must agree with the naive
//! coordinate-wise comparison it replaces.

use mc_geom::{
    compress_column_ranks, count_dominating_pairs, Dominance, DominanceIndex, PointSet, RankOracle,
    RankTable,
};
use mc_obs::cancel::CancelToken;
use proptest::prelude::*;

/// Coordinates drawn from a small palette so duplicates, ties, and the
/// `-0.0`/`0.0` equivalence actually occur. Index 1 vs 2 is the signed
/// zero pair; the ends are infinite sentinels.
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

fn naive_pair_count(points: &PointSet) -> u64 {
    let n = points.len();
    let mut count = 0;
    for i in 0..n {
        for j in 0..n {
            if i != j && points.dominates(i, j) {
                count += 1;
            }
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `compare`/`dominates`/`equal_points` answered from ranks and bitset
    /// rows must match the coordinate-wise comparisons, in every dimension
    /// the build dispatches differently on (1, 2, generic).
    #[test]
    fn index_agrees_with_naive_compare_d1(points in point_sets(24, 1)) {
        check_against_naive(&points);
    }

    #[test]
    fn index_agrees_with_naive_compare_d2(points in point_sets(24, 2)) {
        check_against_naive(&points);
    }

    #[test]
    fn index_agrees_with_naive_compare_d3(points in point_sets(20, 3)) {
        check_against_naive(&points);
    }

    #[test]
    fn index_agrees_with_naive_compare_d5(points in point_sets(16, 5)) {
        check_against_naive(&points);
    }

    /// The Fenwick sweep (d ≤ 2) and the bitset popcount must both equal
    /// the naive ordered-pair count.
    #[test]
    fn pair_counts_agree_d1(points in point_sets(32, 1)) {
        prop_assert_eq!(count_dominating_pairs(&points), naive_pair_count(&points));
    }

    #[test]
    fn pair_counts_agree_d2(points in point_sets(32, 2)) {
        prop_assert_eq!(count_dominating_pairs(&points), naive_pair_count(&points));
    }

    #[test]
    fn pair_counts_agree_d4(points in point_sets(24, 4)) {
        prop_assert_eq!(count_dominating_pairs(&points), naive_pair_count(&points));
    }

    /// The matrix-free oracle must answer every dominator-row query
    /// bit-identically to the materialized bitset matrix, across the
    /// dimensionalities the passive pipeline actually runs (1..=4) and
    /// under the same duplicate/signed-zero/infinity stress.
    #[test]
    fn oracle_rows_match_matrix_d1(points in point_sets(24, 1)) {
        check_oracle_rows(&points);
    }

    #[test]
    fn oracle_rows_match_matrix_d2(points in point_sets(24, 2)) {
        check_oracle_rows(&points);
    }

    #[test]
    fn oracle_rows_match_matrix_d3(points in point_sets(20, 3)) {
        check_oracle_rows(&points);
    }

    #[test]
    fn oracle_rows_match_matrix_d4(points in point_sets(16, 4)) {
        check_oracle_rows(&points);
    }

    /// Gathering a subset's rank columns out of a full table must be
    /// indistinguishable — row for row — from rebuilding a dominance
    /// matrix on the restricted point set, which is exactly the ladder's
    /// matrix-free substitution.
    #[test]
    fn oracle_subset_rows_match_rebuilt_matrix(
        points in point_sets(24, 3),
        keep_mask in prop::collection::vec(prop::bool::ANY, 24),
    ) {
        let keep: Vec<usize> = (0..points.len())
            .filter(|&i| keep_mask.get(i).copied().unwrap_or(false))
            .collect();
        let sub_points = {
            let mut ps = PointSet::new(points.dim());
            for &i in &keep {
                ps.push(points.point(i));
            }
            ps
        };
        let table = RankTable::build(&points);
        let oracle = RankOracle::try_from_table_subset(&table, &keep, &CancelToken::never())
            .expect("never-token cannot cancel");
        let rebuilt = DominanceIndex::build(&sub_points);
        let mut row = vec![0u64; oracle.words()];
        for a in 0..keep.len() {
            oracle.dominator_row_into(a, &mut row);
            prop_assert_eq!(&row[..], rebuilt.dominator_row_words(a), "row {} of keep {:?}", a, &keep);
        }
    }
}

/// Oracle dominator rows vs matrix dominator rows, plus the rank-table
/// invariants the oracle builds on.
fn check_oracle_rows(points: &PointSet) {
    let index = DominanceIndex::build(points);
    let oracle = RankOracle::build(points);
    assert_eq!(oracle.len(), points.len());
    let mut row = vec![0u64; oracle.words()];
    for i in 0..points.len() {
        oracle.dominator_row_into(i, &mut row);
        assert_eq!(
            &row[..],
            index.dominator_row_words(i),
            "dominator row {i} diverges on {:?}",
            points.point(i)
        );
    }
    // The table the oracle compresses from must agree with coordinate
    // comparison on reflexive dominance.
    let table = RankTable::build(points);
    for i in 0..points.len() {
        for j in 0..points.len() {
            assert_eq!(table.dominates(i, j), points.dominates(i, j));
        }
    }
}

/// Edge cases the proptest palette cannot force deterministically.
mod rank_table_edges {
    use super::*;

    #[test]
    fn empty_table_has_no_points() {
        let table = RankTable::build(&PointSet::new(3));
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.dim(), 3);
        assert!(table.column(0).is_empty());
        let oracle = RankOracle::try_from_table_subset(&table, &[], &CancelToken::never())
            .expect("never-token cannot cancel");
        assert!(oracle.is_empty());
    }

    #[test]
    fn single_point_gets_rank_zero_everywhere() {
        let mut ps = PointSet::new(2);
        ps.push(&[7.5, -3.0]);
        let table = RankTable::build(&ps);
        assert_eq!(table.column(0), &[0]);
        assert_eq!(table.column(1), &[0]);
        assert!(table.dominates(0, 0));
    }

    #[test]
    fn all_duplicates_share_every_rank() {
        let mut ps = PointSet::new(3);
        for _ in 0..5 {
            ps.push(&[1.0, 2.0, 3.0]);
        }
        let table = RankTable::build(&ps);
        for k in 0..3 {
            assert_eq!(table.column(k), &[0, 0, 0, 0, 0]);
        }
        for i in 0..5 {
            for j in 0..5 {
                assert!(table.dominates(i, j));
            }
        }
    }

    #[test]
    fn signed_zeros_share_a_rank() {
        let mut ps = PointSet::new(1);
        ps.push(&[-0.0]);
        ps.push(&[0.0]);
        ps.push(&[1.0]);
        let table = RankTable::build(&ps);
        assert_eq!(table.column(0), &[0, 0, 1]);
        assert!(table.dominates(0, 1) && table.dominates(1, 0));
    }

    #[test]
    fn streamed_columns_match_pointset_build() {
        let rows = [
            [3.0, f64::NEG_INFINITY],
            [-0.0, 2.0],
            [0.0, 2.0],
            [f64::INFINITY, -1.5],
            [3.0, 2.0],
        ];
        let ps = PointSet::from_rows(2, &rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        let built = RankTable::build(&ps);
        let mut ranks = Vec::new();
        for k in 0..2 {
            let column: Vec<f64> = rows.iter().map(|r| r[k]).collect();
            ranks.extend(compress_column_ranks(&column));
        }
        let streamed = RankTable::from_rank_columns(rows.len(), 2, ranks);
        for k in 0..2 {
            assert_eq!(streamed.column(k), built.column(k), "column {k}");
        }
    }
}

fn check_against_naive(points: &PointSet) {
    let index = DominanceIndex::build(points);
    assert_eq!(index.len(), points.len());
    for i in 0..points.len() {
        // Reflexivity: every point dominates itself in the bitset.
        assert!(index.dominates(i, i));
        for j in 0..points.len() {
            let expected = points.compare(i, j);
            assert_eq!(
                index.compare(i, j),
                expected,
                "compare({}, {}) on {:?} vs {:?}",
                i,
                j,
                points.point(i),
                points.point(j)
            );
            assert_eq!(index.dominates(i, j), points.dominates(i, j));
            assert_eq!(index.equal_points(i, j), expected == Dominance::Equal);
        }
    }
}
