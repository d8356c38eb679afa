//! `serve-point`: trained classifiers behind an in-process
//! `mc_serve::spawn` server, driven over one TCP connection.
//!
//! Set-up trains [`MODELS`] classifiers, each on its own entity-matching
//! set (n = 10⁴, d = 3, seeds drawn from the run's seed) with
//! `PassiveSolver`, and builds each one's `AnchorIndex`. The load runs
//! as a series of windows; before each window the next model is swapped
//! into the server, so a run's medians cover several models rather than
//! one draw of the anchor set. Query points are uniform in the unit
//! cube, and every reply is checked label for label against the served
//! model's `MonotoneClassifier::classify`.
//!
//! The load is an **open loop**: a sender thread writes single-point
//! frames on a fixed schedule while the calling thread reads replies.
//! Latency runs from each frame's *due* time, so a stall is charged to
//! every frame queued behind it.
//!
//! After the load, the `metrics` frame is fetched on the same connection
//! and its request count must equal the frames the client sent.

use crate::stats::{mean, median, quantile};
use crate::trace::{self, Tracer};
use crate::{instance_seed, Outcome, RunConfig, SplitMix};
use mc_core::{AnchorIndex, MonotoneClassifier, PassiveSolver};
use mc_data::entity_matching::{generate, EntityMatchingConfig};
use mc_serve::protocol::{
    encode_classify, encode_classify_response, parse_classify_response, parse_request, write_frame,
    FrameReader, MAX_FRAME_BYTES,
};
use mc_serve::{spawn, ServeConfig, ServerHandle};
use std::hint::black_box;
use std::io::{BufWriter, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Training-set size.
const TRAIN_N: usize = 10_000;
/// Dimensions.
const DIM: usize = 3;
/// Models trained in set-up and served in turn; `setup_s` is the median
/// of their set-ups.
const MODELS: usize = 8;
/// Windows per measured phase; window `w` serves model `w % MODELS`.
const WINDOWS: usize = 8;
/// Distinct single-point query frames (`serve-point`).
const POINT_POOL: usize = 4096;
/// Points in the batch frame whose parse is timed in traced runs.
const BATCH: usize = 1024;
/// Fixed open-loop rate (frames/s) at which latency is reported.
pub const MID_RATE: f64 = 8_000.0;
/// Offered rate (frames/s) well past what one connection sustains.
pub const SATURATION_RATE: f64 = 64_000.0;
/// Share of the time budget spent at [`MID_RATE`] (untraced runs).
const MID_SHARE: f64 = 0.5;
/// Share of the time budget for each traced-run phase.
const TRACE_SHARE: f64 = 0.28;
/// First rung of the rate ladder (frames/s).
pub const LADDER_START: f64 = 12_000.0;
/// Ratio between successive rungs.
pub const LADDER_FACTOR: f64 = 1.06;
/// Most rungs climbed.
const LADDER_RUNGS: usize = 16;
/// p99 latency limit of a ladder rung. Host scheduling stalls put a
/// single-point frame's p99 at 1–5 ms at any rate on a 2-vCPU virtual
/// machine, so a 1 ms limit is never met there.
pub const LIMIT_MS: f64 = 5.0;
/// The sender sleeps until this long before a frame is due, then spins:
/// a plain sleep wakes up to milliseconds late under load.
const SPIN: Duration = Duration::from_micros(300);
/// How long a reply may take before the connection counts as failed.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// The server and the models it serves in turn.
struct Served {
    models: Vec<MonotoneClassifier>,
    server: ServerHandle,
}

impl Served {
    /// Swaps model `m` into the server (between windows, with nothing in
    /// flight).
    fn serve(&self, m: usize) {
        self.server.store().swap(self.models[m].clone());
    }
}

/// Set-up times per model: the whole set-up and its data-generation part.
struct SetupTimes {
    total_s: Vec<f64>,
    generate_s: Vec<f64>,
}

/// Generates, trains and indexes [`MODELS`] models, then starts serving
/// the first.
fn setup(seed: u64, tr: &mut Tracer) -> Result<(Served, SetupTimes), String> {
    let mut times = SetupTimes {
        total_s: Vec::new(),
        generate_s: Vec::new(),
    };
    let mut models = Vec::new();
    for m in 0..MODELS {
        let setup = tr.begin("serve.setup");
        let (data, generate_s) = tr.time("data.generate", || {
            generate(&EntityMatchingConfig {
                pairs: TRAIN_N,
                metrics: DIM,
                seed: instance_seed(seed, m as u64),
                ..EntityMatchingConfig::default()
            })
            .data
        });
        let (solution, _) = tr.time("passive.train", || {
            PassiveSolver::new().solve(&data.with_unit_weights())
        });
        tr.time("index.build", || {
            drop(black_box(AnchorIndex::build(&solution.classifier)))
        });
        times.total_s.push(tr.end(setup));
        times.generate_s.push(generate_s);
        models.push(solution.classifier);
    }
    let (server, _) = tr.time("serve.spawn", || {
        spawn(ServeConfig::default(), models[0].clone())
    });
    let server = server.map_err(|e| format!("cannot start the server: {e}"))?;
    Ok((Served { models, server }, times))
}

/// Uniform query points in the unit cube, flat row-major.
fn query_points(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix(seed ^ 0x5E_2E_0C_1E);
    (0..n * DIM).map(|_| rng.unit()).collect()
}

fn expected_labels(h: &MonotoneClassifier, flat: &[f64]) -> Vec<u8> {
    flat.chunks_exact(DIM)
        .map(|p| h.classify(p).as_u8())
        .collect()
}

fn connect(served: &Served) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(served.server.addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(RECV_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(stream)
}

/// Whether a classify reply carries exactly `want`.
fn reply_ok(payload: &[u8], want: &[u8]) -> bool {
    matches!(parse_classify_response(payload), Ok((_, labels)) if labels == want)
}

/// Fetches the server's request count on the load connection and checks
/// it against the frames this client sent before it.
fn reconcile(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    sent: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    write_frame(stream, b"{\"op\":\"metrics\"}")
        .and_then(|()| stream.flush())
        .map_err(|e| format!("metrics request: {e}"))?;
    let reply = reader
        .read_frame(stream, MAX_FRAME_BYTES, None)
        .map_err(|e| format!("metrics reply: {e}"))?
        .ok_or("server closed the connection before the metrics reply")?;
    let tree = mc_serve::json_in::parse(&reply).map_err(|e| format!("metrics reply: {e}"))?;
    let served = tree
        .get("metrics")
        .and_then(|m| m.get("requests"))
        .and_then(|r| r.as_u64());
    out.check(served == Some(sent), || {
        format!("server counted {served:?} requests, client sent {sent}")
    });
    Ok(())
}

/// `(sum_us, count)` of the server's own per-frame latency histogram.
fn server_reading(served: &Served) -> (u64, u64) {
    let stats = served.server.stats();
    (stats.latency_us.sum(), stats.latency_us.count())
}

/// Mean server-side service time per frame between two readings.
fn server_us(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// Times `f` over repeated calls for about `budget`, returning the mean
/// seconds per call.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || start.elapsed() < budget {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Layer timings on the first model: index build and classify, request
/// parse (the served single-point frames and one [`BATCH`]-point frame),
/// response encode.
fn layer_micro(
    served: &Served,
    frames: &[Vec<u8>],
    queries: &[f64],
    budget: Duration,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let share = budget / 5;
    let h = &served.models[0];
    let (build, _) = tr.time("index.build", || {
        per_call(share, || drop(black_box(AnchorIndex::build(black_box(h)))))
    });
    out.set("index.build_us", build * 1e6);
    let index = AnchorIndex::build(h);
    let (classify, _) = tr.time("index.classify", || {
        per_call(share, || {
            drop(black_box(index.classify_batch(black_box(queries))))
        })
    });
    out.set(
        "index.classify_ns_per_point",
        classify * 1e9 / (queries.len() / DIM) as f64,
    );
    let mut i = 0;
    let (parse, _) = tr.time("serve.parse", || {
        per_call(share, || {
            let parsed = black_box(parse_request(black_box(&frames[i % frames.len()])));
            assert!(parsed.is_ok(), "the benchmark's own frame failed to parse");
            i += 1;
        })
    });
    out.set("serve.parse_us", parse * 1e6);
    let batch = encode_classify(&queries[..BATCH * DIM], DIM);
    let (parse_batch, _) = tr.time("serve.parse_batch", || {
        per_call(share, || drop(black_box(parse_request(black_box(&batch)))))
    });
    out.set("serve.parse_batch_us", parse_batch * 1e6);
    let labels = index.classify_batch(&queries[..queries.len() / frames.len()]);
    let (encode, _) = tr.time("serve.encode", || {
        per_call(share, || {
            drop(black_box(encode_classify_response(1, black_box(&labels))))
        })
    });
    out.set("serve.encode_us", encode * 1e6);
}

/// One open-loop step's measurements.
struct Step {
    /// Reply time minus due time, per frame (ms).
    from_due_ms: Vec<f64>,
    /// Reply time minus actual send time, per frame (ms).
    rtt_ms: Vec<f64>,
    /// Send time minus due time, per frame (ms).
    late_ms: Vec<f64>,
    /// Replies received per second, first due time to last reply.
    achieved_fps: f64,
    failed: u64,
}

impl Step {
    fn p99(&self) -> f64 {
        quantile(&self.from_due_ms, 0.99)
    }

    /// p99 within the limit, every frame answered correctly, and the
    /// last tenth of the step no slower than the limit (no backlog).
    fn passes(&self) -> bool {
        let tail = &self.from_due_ms[self.from_due_ms.len() * 9 / 10..];
        self.failed == 0 && self.p99() <= LIMIT_MS && median(tail) <= LIMIT_MS
    }
}

/// Sends `frames` round-robin at `rate` frames/s for `duration` on
/// `stream`, reading replies on this thread; `expected` holds the served
/// model's label for each frame.
fn open_loop(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    frames: &[Vec<u8>],
    expected: &[u8],
    rate: f64,
    duration: Duration,
    tr: &mut Tracer,
) -> Result<Step, String> {
    let n = ((rate * duration.as_secs_f64()) as usize).max(100);
    let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let span = tr.begin("serve.open_loop_step");
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut recv_at = Vec::with_capacity(n);
    let mut failed = 0u64;
    let send_at = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut w = BufWriter::new(writer);
            let mut sent = Vec::with_capacity(n);
            for i in 0..n {
                let target = start + due(i);
                let now = Instant::now();
                if target > now {
                    if w.flush().is_err() {
                        break;
                    }
                    let wake = target - SPIN;
                    if wake > now {
                        std::thread::sleep(wake - now);
                    }
                    while Instant::now() < target {
                        std::hint::spin_loop();
                    }
                }
                sent.push(Instant::now());
                if write_frame(&mut w, &frames[i % frames.len()]).is_err() {
                    break;
                }
            }
            // A failed write shows up as a missing reply below.
            let _ = w.flush();
            sent
        });
        for i in 0..n {
            match reader.read_frame(stream, MAX_FRAME_BYTES, None) {
                Ok(Some(payload)) => {
                    recv_at.push(Instant::now());
                    let k = i % frames.len();
                    if !reply_ok(&payload, &expected[k..k + 1]) {
                        failed += 1;
                    }
                }
                _ => {
                    // Unblock the sender; the missing replies fail the run.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        }
        sender.join().expect("the sender thread panicked")
    });
    tr.end(span);
    if recv_at.len() < n || send_at.len() < n {
        return Err(format!(
            "transport failure at {rate} frames/s: {} of {n} replies",
            recv_at.len()
        ));
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let from_due_ms = (0..n).map(|i| ms(recv_at[i] - (start + due(i)))).collect();
    let rtt_ms = (0..n).map(|i| ms(recv_at[i] - send_at[i])).collect();
    let late_ms = (0..n)
        .map(|i| ms(send_at[i].saturating_duration_since(start + due(i))))
        .collect();
    let achieved_fps = n as f64 / (recv_at[n - 1] - start).as_secs_f64();
    Ok(Step {
        from_due_ms,
        rtt_ms,
        late_ms,
        achieved_fps,
        failed,
    })
}

/// Runs one open-loop step: rate (frames/s), duration, served model.
type StepFn<'a> =
    dyn FnMut(f64, Duration, usize, &mut Tracer, &mut Outcome) -> Result<Step, String> + 'a;

/// The highest ladder rate whose rung meets the limit on model 0,
/// climbing until two rungs in a row miss it; `None` if no rung passes.
fn max_rate(
    served: &Served,
    step: &mut StepFn,
    budget: Duration,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Option<f64>, String> {
    served.serve(0);
    let rung = budget / LADDER_RUNGS as u32;
    let mut best = None;
    let mut misses = 0;
    let mut rate = LADDER_START;
    for _ in 0..LADDER_RUNGS {
        let s = step(rate, rung, 0, tr, out)?;
        if s.passes() {
            best = Some(s.achieved_fps);
            misses = 0;
        } else {
            misses += 1;
            if misses == 2 {
                break;
            }
        }
        rate *= LADDER_FACTOR;
    }
    Ok(best)
}

/// Medians over windows: one host stall moves one window only.
fn per_window<W>(ws: &[W], f: impl Fn(&W) -> f64) -> f64 {
    median(&ws.iter().map(f).collect::<Vec<_>>())
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Result<Outcome, String> {
    let (served, setup) = setup(cfg.seed, tr)?;
    let queries = query_points(cfg.seed, POINT_POOL);
    let expected: Vec<Vec<u8>> = served
        .models
        .iter()
        .map(|h| expected_labels(h, &queries))
        .collect();
    let frames: Vec<Vec<u8>> = queries
        .chunks_exact(DIM)
        .map(|p| encode_classify(p, DIM))
        .collect();

    let mut out = Outcome::default();
    let mut stream = connect(&served)?;
    let mut reader = FrameReader::new();
    let mut sent = 0u64;
    let budget = cfg.budget();
    let mut step = |rate: f64, duration: Duration, m: usize, tr: &mut Tracer, out: &mut Outcome| {
        let s = open_loop(
            &mut stream,
            &mut reader,
            &frames,
            &expected[m],
            rate,
            duration,
            tr,
        )?;
        out.attempted += s.from_due_ms.len() as u64;
        out.failed += s.failed;
        sent += s.from_due_ms.len() as u64;
        Ok::<Step, String>(s)
    };
    let windows = |step: &mut StepFn, rate: f64, share: f64, tr: &mut Tracer, out: &mut Outcome| {
        let window = budget.mul_f64(share) / WINDOWS as u32;
        (0..WINDOWS)
            .map(|w| {
                served.serve(w % MODELS);
                step(rate, window, w % MODELS, tr, out)
            })
            .collect::<Result<Vec<Step>, String>>()
    };

    if cfg.trace {
        // Untraced and traced windows at the mid rate, the rate ladder,
        // then the layers one by one.
        let before = server_reading(&served);
        let plain = windows(&mut step, MID_RATE, TRACE_SHARE, tr, &mut out)?;
        let after = server_reading(&served);
        trace::set_program_tracing(true);
        let traced = windows(&mut step, MID_RATE, TRACE_SHARE, tr, &mut out)?;
        trace::set_program_tracing(false);
        let best = max_rate(
            &served,
            &mut step,
            budget.mul_f64(TRACE_SHARE),
            tr,
            &mut out,
        )?;
        let server = server_us(before, after);
        out.set("serve.server_us", server);
        out.set(
            "serve.transport_us",
            per_window(&plain, |w| mean(&w.rtt_ms)) * 1e3 - server,
        );
        out.set(
            "gen.late_ms",
            per_window(&plain, |w| quantile(&w.late_ms, 0.99)),
        );
        out.set("point.max_rate_fps", best.unwrap_or(0.0));
        out.set("point.p99_ms", per_window(&plain, Step::p99));
        out.set(
            "obs.trace_overhead_frac",
            per_window(&traced, |w| median(&w.from_due_ms))
                / per_window(&plain, |w| median(&w.from_due_ms))
                - 1.0,
        );
        reconcile(&mut stream, &mut reader, sent, &mut out)?;
        let micro = budget.mul_f64(1.0 - 3.0 * TRACE_SHARE);
        layer_micro(&served, &frames, &queries, micro, tr, &mut out);
        out.set("data.generate_s", median(&setup.generate_s));
    } else {
        let mid = windows(&mut step, MID_RATE, MID_SHARE, tr, &mut out)?;
        // Offered far above what one connection sustains, replies arrive
        // at the connection's capacity and the sends take about
        // SATURATION_RATE / capacity times the window; half the window
        // keeps the phase near its share of the budget.
        let saturated = windows(
            &mut step,
            SATURATION_RATE,
            (1.0 - MID_SHARE) / 2.0,
            tr,
            &mut out,
        )?;
        reconcile(&mut stream, &mut reader, sent, &mut out)?;
        out.set("setup_s", median(&setup.total_s));
        out.set("p50_ms", per_window(&mid, |w| median(&w.from_due_ms)));
        out.set("throughput_pps", per_window(&saturated, |w| w.achieved_fps));
        out.set(
            "peak_rss_mib",
            mc_obs::peak_rss_bytes() as f64 / (1u64 << 20) as f64,
        );
    }
    drop(stream);
    served.server.shutdown_and_join();
    Ok(out)
}
