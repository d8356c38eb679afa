//! Property tests: the passive network strategies (paper-literal dense,
//! the chain ladder, and the default table pipeline, which at `d ≤ 2`
//! picks the ladder or the divide-and-conquer gadget) are
//! interchangeable — identical optimal weighted error, and every
//! strategy's assignment is a valid monotone labeling achieving it.

use mc_core::find_monotonicity_violation;
use mc_core::passive::{NetworkStrategy, PassiveSolver};
use mc_geom::{Label, WeightedSet};
use proptest::prelude::*;

/// Rows of (coords ≤ 4-dim, label, weight); each case truncates the
/// coordinates to the dimension under test.
fn rows_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u8, u8, u8, u8, bool, u8)>> {
    prop::collection::vec(
        (0u8..6, 0u8..6, 0u8..6, 0u8..6, prop::bool::ANY, 1u8..10),
        0..max_len,
    )
}

fn build(rows: &[(u8, u8, u8, u8, bool, u8)], dim: usize) -> WeightedSet {
    let mut ws = WeightedSet::empty(dim);
    for &(c0, c1, c2, c3, label, weight) in rows {
        let coords = [c0 as f64, c1 as f64, c2 as f64, c3 as f64];
        ws.push(&coords[..dim], Label::from_bool(label), weight as f64);
    }
    ws
}

/// Checks that `solver` reproduces the reference error on `ws` and that
/// its assignment is monotone and actually achieves the error it claims.
fn check_strategy(ws: &WeightedSet, strategy: NetworkStrategy, reference: f64) {
    let sol = PassiveSolver::new().with_network(strategy).solve(ws);
    assert!(
        (sol.weighted_error - reference).abs() < 1e-9,
        "{strategy:?}: weighted error {} != reference {reference}\n{ws:?}",
        sol.weighted_error
    );
    assert_eq!(
        find_monotonicity_violation(ws.points(), &sol.assignment),
        None,
        "{strategy:?}: assignment not monotone\n{ws:?}"
    );
    // The assignment's disagreement weight is the claimed error.
    let achieved: f64 = (0..ws.len())
        .filter(|&i| sol.assignment[i] != ws.label(i))
        .map(|i| ws.weight(i))
        .sum();
    assert!(
        (achieved - sol.weighted_error).abs() < 1e-9,
        "{strategy:?}: assignment cost {achieved} != reported {}",
        sol.weighted_error
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense vs chain ladder vs the default agree at every dimension
    /// 1..=4.
    #[test]
    fn strategies_agree(rows in rows_strategy(60), dim in 1usize..5) {
        let ws = build(&rows, dim);
        let dense = PassiveSolver::new()
            .with_network(NetworkStrategy::Dense)
            .solve(&ws);
        check_strategy(&ws, NetworkStrategy::Sparse, dense.weighted_error);
        check_strategy(&ws, NetworkStrategy::Auto, dense.weighted_error);
        // Dense itself must satisfy its own invariants too.
        check_strategy(&ws, NetworkStrategy::Dense, dense.weighted_error);
    }

    /// Heavy duplicate pressure: coordinates from a 2-value grid force
    /// many equal points and cross-label duplicates.
    #[test]
    fn strategies_agree_under_duplicates(rows in prop::collection::vec(
        (0u8..2, 0u8..2, 0u8..2, 0u8..2, prop::bool::ANY, 1u8..10), 0..40), dim in 1usize..5) {
        let ws = build(&rows, dim);
        let dense = PassiveSolver::new()
            .with_network(NetworkStrategy::Dense)
            .solve(&ws);
        check_strategy(&ws, NetworkStrategy::Sparse, dense.weighted_error);
    }
}

#[test]
fn signed_zeros_are_one_coordinate() {
    // -0.0 and +0.0 must compare equal in every strategy (the index
    // canonicalizes them; total_cmp alone would not).
    for dim in [1usize, 2, 3] {
        let mut ws = WeightedSet::empty(dim);
        ws.push(&vec![0.0; dim], Label::One, 5.0);
        ws.push(&vec![-0.0; dim], Label::Zero, 2.0);
        let dense = PassiveSolver::new()
            .with_network(NetworkStrategy::Dense)
            .solve(&ws);
        assert_eq!(
            dense.weighted_error, 2.0,
            "dim {dim}: duplicates must contend"
        );
        check_strategy(&ws, NetworkStrategy::Sparse, dense.weighted_error);
        check_strategy(&ws, NetworkStrategy::Auto, dense.weighted_error);
    }
}

#[test]
fn uniform_labels_cost_nothing() {
    for label in [Label::Zero, Label::One] {
        for dim in [1usize, 3] {
            let mut ws = WeightedSet::empty(dim);
            for i in 0..20 {
                ws.push(&vec![(i % 5) as f64; dim], label, 1.0 + i as f64);
            }
            for strategy in [
                NetworkStrategy::Auto,
                NetworkStrategy::Dense,
                NetworkStrategy::Sparse,
            ] {
                let sol = PassiveSolver::new().with_network(strategy).solve(&ws);
                assert_eq!(sol.weighted_error, 0.0, "{label:?}/{strategy:?}/d={dim}");
                assert_eq!(sol.contending, 0);
            }
        }
    }
}

#[test]
fn strategy_parsing_round_trips() {
    assert_eq!(NetworkStrategy::parse("auto"), Some(NetworkStrategy::Auto));
    assert_eq!(
        NetworkStrategy::parse("DENSE"),
        Some(NetworkStrategy::Dense)
    );
    assert_eq!(
        NetworkStrategy::parse("sparse"),
        Some(NetworkStrategy::Sparse)
    );
    assert_eq!(NetworkStrategy::parse(""), Some(NetworkStrategy::Auto));
    assert_eq!(NetworkStrategy::parse("ladder"), None);
}
