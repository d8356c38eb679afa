//! Benchmark of the monotone-classification workspace, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale-d4|rows-d2|serve-point> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input is generated in-process
//! from `--seed`; scratch files go under `perfbench/work/`. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Earlier stdout lines carry the run's
//! provenance. See `perfbench/README.md` for what each workload and
//! metric means.

mod child;
mod rows;
mod scale;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics (name, unit), reported by every workload with
/// tracing off. Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput_pps", "points/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (name, unit), reported by every workload's traced
/// run; a layer the workload does not exercise reads 0. Must match
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("data.load_s", "s"),
    ("geom.oracle_build_s", "s"),
    ("chains.decompose_s", "s"),
    ("chains.width", "count"),
    ("matching.hk_rounds", "count"),
    ("matching.bitset_words_scanned", "count"),
    ("matching.greedy_hit_rate", "ratio"),
    ("passive.ladder_rest_s", "s"),
    ("passive.untraced_s", "s"),
    ("passive.build_network_s", "s"),
    ("passive.sweep_units", "count"),
    ("passive.contending", "count"),
    ("passive.network_edges", "count"),
    ("flow.maxflow_s", "s"),
    ("flow.edges", "count"),
    ("flow.augmenting_paths", "count"),
    ("flow.bfs_rounds", "count"),
    ("flow.bfs_visits", "count"),
    ("rows.passive_s", "s"),
    ("rows.active_s", "s"),
    ("rows.active_probes", "count"),
    ("rows.active_err_ratio", "ratio"),
    ("active.decompose_s", "s"),
    ("active.sampling_s", "s"),
    ("active.passive_s", "s"),
    ("sampling.draws", "count"),
    ("sampling.sigma_points", "count"),
    ("oracle.attempts", "count"),
    ("index.build_us", "us"),
    ("index.classify_ns_per_point", "ns"),
    ("serve.parse_us", "us"),
    ("serve.parse_batch_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.server_us", "us"),
    ("serve.transport_us", "us"),
    ("gen.late_ms", "ms"),
    ("point.max_rate_fps", "frames/s"),
    ("point.p99_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["scale-d4", "rows-d2", "serve-point"];

/// One benchmark invocation's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for generated files and span dumps.
    pub work: PathBuf,
}

impl RunConfig {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations with a wrong answer, an error reply, or a transport
    /// failure.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per the run mode).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Relative-tolerance float comparison used by the correctness gates.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Deterministic 64-bit generator (SplitMix64) for query points.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seed of the `i`-th input instance of a run seeded with `seed`.
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    SplitMix(seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let child = match args.first().map(String::as_str) {
        Some("--child-scale") => Some(scale::child_main as fn(&[String]) -> Result<(), String>),
        Some("--child-rows") => Some(rows::child_main as fn(&[String]) -> Result<(), String>),
        _ => None,
    };
    if let Some(child_main) = child {
        if let Err(e) = child_main(&args[1..]) {
            eprintln!("perfbench child: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work: PathBuf::from("perfbench").join("work"),
    })
}

/// Fails unless `BENCHMARK.json` lists exactly this binary's workloads
/// and metrics, so the two cannot drift apart.
fn check_manifest(path: &Path) -> Result<(), String> {
    let text = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let tree = mc_serve::json_in::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let names = |key: &str| -> Vec<String> {
        tree.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(|n| n.as_str()).map(str::to_string))
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<String> {
        list.iter().map(|(n, _)| n.to_string()).collect()
    };
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    for (key, want) in [
        ("workloads", workloads),
        ("end_to_end", expect(END_TO_END)),
        ("per_layer", expect(PER_LAYER)),
    ] {
        if names(key) != want {
            return Err(format!(
                "BENCHMARK.json {key} do not match the benchmark binary"
            ));
        }
    }
    Ok(())
}

/// Reads the commit id from `.git` when the checkout has one.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(cfg: &RunConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    mc_obs::json::Obj::new()
        .str("workload", &cfg.workload)
        .u64("seed", cfg.seed)
        .f64("seconds", cfg.seconds)
        .bool("trace", cfg.trace)
        .u64("nproc", nproc as u64)
        .u64("solver_threads", mc_geom::max_threads() as u64)
        .str("git_sha", &git_sha())
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .finish()
}

fn run(args: &[String]) -> Result<(), String> {
    let cfg = parse_args(args)?;
    check_manifest(Path::new("BENCHMARK.json"))?;
    std::fs::create_dir_all(&cfg.work)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work.display()))?;
    trace::set_program_tracing(false);
    let mut tracer = Tracer::new();
    let outcome = match cfg.workload.as_str() {
        "scale-d4" => scale::run(&cfg, &mut tracer)?,
        "rows-d2" => rows::run(&cfg, &mut tracer)?,
        "serve-point" => serve::run(&cfg, &mut tracer)?,
        _ => unreachable!("validated in parse_args"),
    };

    let list = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = mc_obs::json::Obj::new();
    for &(name, unit) in list {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            // A layer the workload never enters did no work in it.
            None if cfg.trace => 0.0,
            None => return Err(format!("{}: no value for {name}", cfg.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{}: {name} is not finite", cfg.workload));
        }
        metrics = metrics.raw(
            name,
            &mc_obs::json::Obj::new()
                .f64("value", value)
                .str("unit", unit)
                .finish(),
        );
    }
    let metrics = metrics.finish();
    let provenance = provenance(&cfg);
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    if cfg.trace {
        let path = cfg.work.join(format!("{stem}-spans.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        for (layer, s) in tracer.self_time_by_layer() {
            eprintln!("perfbench: self time {layer:<10} {s:.6} s");
        }
    }
    let record = mc_obs::json::Obj::new()
        .raw("provenance", &provenance)
        .u64("attempted", outcome.attempted)
        .u64("failed", outcome.failed)
        .f64("failed_frac", failed_frac)
        .raw("metrics", &metrics)
        .finish();
    let path = cfg.work.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    println!(
        "{}",
        mc_obs::json::Obj::new()
            .raw("provenance", &provenance)
            .finish()
    );
    println!(
        "{}",
        mc_obs::json::Obj::new()
            .f64("failed_frac", failed_frac)
            .finish()
    );
    println!(
        "{}",
        mc_obs::json::Obj::new()
            .bool("correct", outcome.failed == 0)
            .u64("attempted", outcome.attempted)
            .u64("failed", outcome.failed)
            .raw("metrics", &metrics)
            .finish()
    );
    Ok(())
}
