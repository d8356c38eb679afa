//! End-to-end equivalence of the banded shard matching engine through
//! the passive pipeline: routing the Lemma-6 chain decomposition
//! through `MatchingEngine::Shard` (any shard count) must leave the
//! optimal weighted error, the contending counts, and the dominance
//! width bit-identical to the sequential engines — on both the
//! in-memory ladder path and the streaming scale path, including the
//! uniform-label edge cases where one side of the flow is empty.

use mc_chains::{with_matching_override, MatchingEngine};
use mc_core::passive::{
    solve_passive, solve_passive_scale, solve_passive_scale_cancellable, NetworkStrategy,
    PassiveSolver,
};
use mc_geom::{Label, RankTable, WeightedSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_weighted(n: usize, dim: usize, grid: f64, rng: &mut StdRng) -> WeightedSet {
    let mut ws = WeightedSet::empty(dim);
    let mut coords = vec![0.0f64; dim];
    for _ in 0..n {
        for c in coords.iter_mut() {
            *c = rng.gen_range(0.0..grid).round();
        }
        ws.push(
            &coords,
            Label::from_bool(rng.gen_bool(0.5)),
            rng.gen_range(1..10) as f64,
        );
    }
    ws
}

#[test]
fn sharded_ladder_solve_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    for dim in [3usize, 4] {
        for &shards in &[2usize, 4, 16] {
            let n = rng.gen_range(20..140);
            let ws = random_weighted(n, dim, 5.0, &mut rng);
            let seq = PassiveSolver::new()
                .with_network(NetworkStrategy::Sparse)
                .solve(&ws);
            let sh = with_matching_override(MatchingEngine::Shard, Some(shards), || {
                PassiveSolver::new()
                    .with_network(NetworkStrategy::Sparse)
                    .solve(&ws)
            });
            assert_eq!(
                sh.weighted_error.to_bits(),
                seq.weighted_error.to_bits(),
                "dim {dim} shards {shards}: error differs"
            );
            assert_eq!(sh.contending, seq.contending);
            assert_eq!(
                mc_core::find_monotonicity_violation(ws.points(), &sh.assignment),
                None
            );
        }
    }
}

#[test]
fn sharded_scale_solve_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x5CAD);
    for dim in [2usize, 3, 4] {
        let n = rng.gen_range(30..160);
        let ws = random_weighted(n, dim, 4.0, &mut rng);
        let table = RankTable::build(ws.points());
        let seq = solve_passive_scale(&table, ws.labels(), ws.weights());
        let sh = with_matching_override(MatchingEngine::Shard, Some(4), || {
            solve_passive_scale_cancellable(
                &table,
                ws.labels(),
                ws.weights(),
                &mc_obs::CancelToken::never(),
            )
        })
        .unwrap();
        assert_eq!(
            sh.weighted_error.to_bits(),
            seq.weighted_error.to_bits(),
            "dim {dim}: scale error differs"
        );
        assert_eq!(
            sh.ladder_chains, seq.ladder_chains,
            "dim {dim}: ladder chains differ"
        );
        assert_eq!(sh.contending_zeros, seq.contending_zeros);
        assert_eq!(sh.contending_ones, seq.contending_ones);
    }
}

#[test]
fn sharded_solve_handles_uniform_labels() {
    // All-ones and all-zeros inputs: the Lemma-6 instance is either the
    // whole set or empty; the shard dispatch must survive both.
    for label in [Label::One, Label::Zero] {
        let mut ws = WeightedSet::empty(3);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..60 {
            let coords = [
                rng.gen_range(0.0..4.0f64).round(),
                rng.gen_range(0.0..4.0f64).round(),
                rng.gen_range(0.0..4.0f64).round(),
            ];
            ws.push(&coords, label, 1.0);
        }
        let seq = solve_passive(&ws);
        let sh = with_matching_override(MatchingEngine::Shard, Some(4), || solve_passive(&ws));
        assert_eq!(sh.weighted_error.to_bits(), seq.weighted_error.to_bits());
        assert_eq!(seq.weighted_error, 0.0, "uniform labels are monotone");
    }
}
