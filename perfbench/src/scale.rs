//! `scale-d4`: the streaming Theorem-4 fit of an MCC1 `scale` file.
//!
//! A run fits a series of distinct instances drawn from the run's seed
//! until the fits add up to the time budget, so its medians describe the
//! workload rather than one draw. Set-up writes an instance's file; the
//! timed operation — open the file, build the rank table, read labels and
//! weights, `solve_passive_scale` — runs in a fresh child process, so the
//! reported peak RSS is the fit's own and not the set-up's. Each fit's
//! weighted error is checked against a reference solved, outside timing,
//! by the *other* Lemma-6 engine (banded shard matching). Each instance
//! is fitted [`REPEATS`] times and its fastest fit counts.

use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{child, close, instance_seed, Outcome, RunConfig};
use mc_chains::{with_matching_override, ChainDecomposition, MatchingEngine};
use mc_core::passive::solve_passive_scale;
use mc_data::{write_scale_dataset, ColumnarDataset, ScaleConfig};
use mc_geom::{Label, RankOracle, RankTable};
use std::path::Path;

/// Points in the generated file.
pub const N: usize = 200_000;
/// Dimensions.
pub const DIM: usize = 4;
/// Fits per instance; the fastest one counts.
const REPEATS: usize = 2;
/// Fewest instances per run, whatever the time budget.
const MIN_INSTANCES: u64 = 5;
/// Relative tolerance of the reference check.
const TOLERANCE: f64 = 1e-9;

fn load(path: &Path) -> Result<(RankTable, Vec<Label>, Vec<f64>), String> {
    let err = |e: mc_data::ColumnarError| format!("{}: {e}", path.display());
    let mut ds = ColumnarDataset::open(path).map_err(err)?;
    let table = ds.rank_table().map_err(err)?;
    let labels = ds.read_labels().map_err(err)?;
    let weights = ds.read_weights().map_err(err)?;
    Ok((table, labels, weights))
}

fn reference_error(path: &Path) -> Result<f64, String> {
    let (table, labels, weights) = load(path)?;
    Ok(with_matching_override(MatchingEngine::Shard, None, || {
        solve_passive_scale(&table, &labels, &weights)
    })
    .weighted_error)
}

/// One fit as reported by its process.
struct Fit {
    solve_s: f64,
    error: f64,
    peak_rss_bytes: f64,
    /// Per-layer values (traced fits only).
    layers: Vec<(String, f64)>,
}

fn spawn_fit(tr: &mut Tracer, path: &Path, traced: bool) -> Result<Fit, String> {
    let args = [
        "--child-scale".to_string(),
        path.display().to_string(),
        if traced { "1" } else { "0" }.to_string(),
    ];
    let span = if traced {
        "scale.fit_traced"
    } else {
        "scale.fit"
    };
    let report = child::run(tr, span, &args)?;
    Ok(Fit {
        solve_s: report.number("solve_s"),
        error: report.number("error"),
        peak_rss_bytes: report.number("peak_rss_bytes"),
        layers: report.layers(),
    })
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut measured = 0.0;
    for i in 0.. {
        if i >= MIN_INSTANCES && measured >= cfg.seconds {
            break;
        }
        tr.next_run();
        let path = cfg.work.join(format!("scale-seed{}-{i}.mcc", cfg.seed));
        let config = ScaleConfig::new(N, DIM, instance_seed(cfg.seed, i));
        let (written, s) = tr.time("data.generate", || write_scale_dataset(&path, &config));
        written.map_err(|e| format!("writing {}: {e}", path.display()))?;
        setup.push(s);
        let (reference, _) = tr.time("check.reference", || reference_error(&path));
        let reference = reference?;
        let mut check = |fit: &Fit| {
            out.check(close(fit.error, reference, TOLERANCE), || {
                format!(
                    "instance {i}: fit error {} differs from the shard-engine reference {reference}",
                    fit.error
                )
            })
        };
        // Best of REPEATS fits: slowdowns from other tenants of the host
        // only ever add time, so the fastest fit is the steadiest figure
        // for the instance.
        let mut fit = spawn_fit(tr, &path, false)?;
        check(&fit);
        measured += fit.solve_s;
        let first_s = fit.solve_s;
        for _ in 1..REPEATS {
            let again = spawn_fit(tr, &path, false)?;
            check(&again);
            measured += again.solve_s;
            if again.solve_s < fit.solve_s {
                fit = again;
            }
        }
        if cfg.trace {
            let traced_fit = spawn_fit(tr, &path, true)?;
            check(&traced_fit);
            // Against a single untraced fit, not the best of several.
            traced.push((traced_fit, first_s));
        }
        plain.push(fit);
        std::fs::remove_file(&path).ok();
    }

    let solve: Vec<f64> = plain.iter().map(|f| f.solve_s).collect();
    if cfg.trace {
        out.set("data.generate_s", median(&setup));
        let overhead: Vec<f64> = traced
            .iter()
            .map(|(t, plain_s)| t.solve_s / plain_s - 1.0)
            .collect();
        out.set("obs.trace_overhead_frac", median(&overhead));
        for &(name, _) in crate::PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|(f, _)| f.layers.iter().find(|(k, _)| k == name).map(|&(_, v)| v))
                .collect();
            if !values.is_empty() {
                out.set(name, median(&values));
            }
        }
    } else {
        let rss: Vec<f64> = plain.iter().map(|f| f.peak_rss_bytes).collect();
        out.set("setup_s", median(&setup));
        out.set("p50_ms", median(&solve) * 1e3);
        out.set("throughput_pps", N as f64 / median(&solve));
        out.set("peak_rss_mib", median(&rss) / (1u64 << 20) as f64);
    }
    Ok(out)
}

/// Entry point of the fit process: `--child-scale <path> <0|1>`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [path, traced] = args else {
        return Err("usage: --child-scale <path> <0|1>".into());
    };
    let path = Path::new(path);
    let traced = traced == "1";
    trace::set_program_tracing(traced);
    let mut tr = Tracer::new();

    let fit = tr.begin("scale.open_to_solution");
    let (loaded, load_s) = tr.time("data.load", || load(path));
    let (table, labels, weights) = loaded?;
    let (solution, solve_only_s) = tr.time("passive.solve_scale", || {
        solve_passive_scale(&table, &labels, &weights)
    });
    let solve_s = tr.end(fit);
    let peak_rss = mc_obs::peak_rss_bytes();

    let numbers = [
        ("solve_s", solve_s),
        ("error", solution.weighted_error),
        ("peak_rss_bytes", peak_rss as f64),
    ];
    if !traced {
        child::print_report(&numbers, None, &tr);
        return Ok(());
    }
    let snap = mc_obs::snapshot();
    // The Lemma-6 inputs, timed as separate public calls after the solve
    // (so the solve itself ran exactly as in untraced fits).
    let ones: Vec<usize> = (0..labels.len()).filter(|&i| labels[i].is_one()).collect();
    let (oracle, oracle_s) = tr.time("geom.oracle_build", || {
        RankOracle::try_from_table_subset(&table, &ones, &mc_obs::CancelToken::never())
    });
    let oracle = oracle.map_err(|e| format!("oracle build: {e:?}"))?;
    let (dec, decompose_s) = tr.time("chains.decompose", || {
        ChainDecomposition::compute_from_oracle(&oracle)
    });

    let ladder = trace::span_s(&snap, "passive/ladder");
    let path_cover = trace::span_s(&snap, "passive/ladder/path_cover")
        + trace::span_s(&snap, "passive/ladder/path_cover_sharded");
    let c = |name: &str| snap.counter(name) as f64;
    let layers = [
        ("data.load_s", load_s),
        ("geom.oracle_build_s", oracle_s),
        ("chains.decompose_s", decompose_s),
        ("chains.width", dec.width() as f64),
        ("matching.hk_rounds", c("matching.hk_rounds")),
        (
            "matching.bitset_words_scanned",
            c("matching.bitset_words_scanned"),
        ),
        (
            "matching.greedy_hit_rate",
            trace::gauge(&snap, "matching.greedy_hit_rate"),
        ),
        (
            "passive.ladder_rest_s",
            solve_only_s - oracle_s - decompose_s,
        ),
        ("passive.untraced_s", ladder - path_cover),
        (
            "passive.build_network_s",
            trace::span_s(&snap, "passive/build_network"),
        ),
        (
            "passive.sweep_units",
            trace::gauge(&snap, "progress.ladder_sweep.units"),
        ),
        ("passive.contending", c("passive.contending")),
        ("passive.network_edges", c("passive.network_edges")),
        ("flow.maxflow_s", trace::span_s(&snap, "passive/maxflow")),
        ("flow.edges", c("flow.edges")),
        ("flow.augmenting_paths", c("flow.augmenting_paths")),
        ("flow.bfs_rounds", c("flow.bfs_rounds")),
        ("flow.bfs_visits", c("flow.bfs_visits")),
    ];
    child::print_report(&numbers, Some(&layers), &tr);
    Ok(())
}
