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
