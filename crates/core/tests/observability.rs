//! Integration tests of the `mc-obs` instrumentation across the solve
//! pipeline: span nesting over the active→passive boundary, and
//! reconciliation of the exported `oracle.*` counters with the
//! [`mc_core::SolveReport`] of the same run.

use mc_core::passive::solve_passive;
use mc_core::{ActiveParams, ActiveSolver, InMemoryOracle};
use mc_geom::{Label, LabeledSet};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// These tests mutate the process-global `mc-obs` level and registry,
/// so they serialize on one lock (the harness runs tests in parallel).
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn demo_set(n: usize) -> LabeledSet {
    let mut data = LabeledSet::empty(2);
    for i in 0..n {
        let x = (i % 17) as f64;
        let y = (i / 17) as f64;
        data.push(&[x, y], Label::from_bool(x + y >= 12.0));
    }
    data
}

#[test]
fn spans_nest_across_active_passive_boundary() {
    let _l = obs_lock();
    let prev = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();

    let data = demo_set(300);
    let mut oracle = InMemoryOracle::from_labeled(&data);
    let sol =
        ActiveSolver::new(ActiveParams::new(0.5).with_seed(9)).solve(data.points(), &mut oracle);

    let s = mc_obs::snapshot();
    // The passive solve on Σ runs nested inside the active solve, as do
    // the decomposition and sampling phases.
    let passive = s.span("active/passive").expect("active/passive span");
    assert!(passive.calls >= 1);
    let active = s.span("active").expect("active span");
    assert!(active.total_ns >= passive.total_ns);
    for phase in ["active/chain_decomposition", "active/sampling"] {
        assert!(s.span(phase).is_some(), "missing span {phase}");
    }
    // The exported counters reconcile exactly with the SolveReport of
    // this (single, post-reset) solve.
    assert_eq!(s.counter("oracle.attempts"), sol.report.attempts as u64);
    assert_eq!(s.counter("oracle.retries"), sol.report.retries as u64);
    assert_eq!(
        s.counter("oracle.abstentions"),
        sol.report.abstentions as u64
    );
    assert_eq!(
        s.counter("passive.points"),
        s.counter("sampling.sigma_points")
    );

    mc_obs::set_level(prev);
}

#[test]
fn passive_standalone_is_a_root_span() {
    let _l = obs_lock();
    let prev = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();

    let data = demo_set(120).with_unit_weights();
    let _sol = solve_passive(&data);

    let s = mc_obs::snapshot();
    let p = s.span("passive").expect("root passive span");
    assert_eq!(p.depth, 0);
    // d = 2: the table pipeline runs under `build_network`, with the
    // rank table and the 2-D chain cover as named phases.
    assert!(s.span("passive/build_network/rank_table").is_some());
    assert!(s.span("passive/build_network/ladder/path_cover").is_some());
    assert_eq!(s.counter("passive.points"), 120);

    mc_obs::set_level(prev);
}

#[test]
fn disabled_runs_leave_no_metrics() {
    let _l = obs_lock();
    let prev = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Warn);
    mc_obs::reset();

    let data = demo_set(80).with_unit_weights();
    let _sol = solve_passive(&data);

    let s = mc_obs::snapshot();
    assert!(s.span("passive").is_none());
    assert_eq!(s.counter("passive.points"), 0);

    mc_obs::set_level(prev);
}

fn gauge(s: &mc_obs::Snapshot, name: &str) -> Option<f64> {
    s.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
}

/// A `d = 4` instance with real contention: ones sit on or above the
/// plane `Σx = 20`, zeros below it, and every fifth label is flipped.
fn contended_d4(n: usize) -> (mc_geom::RankTable, Vec<Label>, Vec<f64>) {
    let mut ws = mc_geom::WeightedSet::empty(4);
    for i in 0..n {
        let x: Vec<f64> = (0..4).map(|k| ((i * (7 + 4 * k)) % 11) as f64).collect();
        let above = x.iter().sum::<f64>() >= 20.0;
        ws.push(&x, Label::from_bool(above != (i % 5 == 0)), 1.0);
    }
    let table = mc_geom::RankTable::build(ws.points());
    (table, ws.labels().to_vec(), ws.weights().to_vec())
}

#[test]
fn high_dim_ladder_stages_are_named_spans_with_progress() {
    let _l = obs_lock();
    let prev = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();

    let (table, labels, weights) = contended_d4(600);
    let sol = mc_core::passive::solve_passive_scale(&table, &labels, &weights);
    assert!(sol.contending_zeros > 0 && sol.ladder_chains > 0);

    let s = mc_obs::snapshot();
    let ladder = s.span("passive/ladder").expect("ladder span");
    let mut children = 0;
    for stage in [
        "minimal_ones",
        "ladder_sweep",
        "contending_ones",
        "path_cover",
        "ladder_wire",
    ] {
        let span = s
            .span(&format!("passive/ladder/{stage}"))
            .unwrap_or_else(|| panic!("missing span ladder/{stage}"));
        children += span.total_ns;
    }
    assert!(children <= ladder.total_ns);
    for phase in ["minimal_ones", "ladder_sweep", "contending_ones"] {
        assert_eq!(
            gauge(&s, &format!("progress.{phase}.frac")),
            Some(1.0),
            "progress.{phase}"
        );
    }
    // One sweep unit per zero, contending or not.
    let zeros = labels.iter().filter(|l| l.is_zero()).count();
    assert_eq!(gauge(&s, "progress.ladder_sweep.units"), Some(zeros as f64));

    mc_obs::set_level(prev);
}

#[test]
fn shard_override_reaches_the_contending_cover() {
    use mc_chains::{with_matching_override, MatchingEngine};
    let _l = obs_lock();
    let prev = mc_obs::level();
    mc_obs::set_level(mc_obs::Level::Info);
    mc_obs::reset();

    let (table, labels, weights) = contended_d4(600);
    let plain = mc_core::passive::solve_passive_scale(&table, &labels, &weights);
    assert!(mc_obs::snapshot()
        .span("passive/ladder/path_cover_sharded")
        .is_none());
    let sharded = with_matching_override(MatchingEngine::Shard, Some(2), || {
        mc_core::passive::solve_passive_scale(&table, &labels, &weights)
    });
    let s = mc_obs::snapshot();
    assert!(
        s.span("passive/ladder/path_cover_sharded").is_some(),
        "the shard override must drive the contending-ones matching"
    );
    assert_eq!(sharded.weighted_error, plain.weighted_error);
    assert_eq!(sharded.ladder_chains, plain.ladder_chains);

    mc_obs::set_level(prev);
}
