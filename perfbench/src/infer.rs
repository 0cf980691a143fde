//! `infer-http`: closed-loop `POST /v1/models/mlp/infer` for the
//! `antc bench` `mlp` archetype, `deep_mlp(16, 10, 24, 6)`, served by
//! `antd`. Compute is a few microseconds per request, so this measures
//! the daemon, HTTP and the engine's batch window.

use crate::client::{json_array, number_array, Conn};
use crate::daemon;
use crate::report::{Metrics, Phase};
use crate::rng::Rng;
use crate::serve::{put_server_layers, set_up, time_windows};
use crate::setup::{SetupFigures, WorkDir};
use crate::stats::{quantile, sub_windows, time_median, windowed_quantile, windowed_rate, within};
use crate::{calib, Args, Outcome};
use ant_nn::model::{deep_mlp, Sequential};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const FEATURES: usize = 16;
/// Distinct input rows a run draws from.
const ROWS: usize = 1024;
/// The model is fixed; `--seed` only picks the inputs.
const MODEL_SEED: u64 = 17;
const PATH: &str = "/v1/models/mlp/infer";
const WARMUP: Duration = Duration::from_secs(1);

fn build() -> (Sequential, Tensor) {
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[64, FEATURES],
        MODEL_SEED + 3,
    );
    (deep_mlp(FEATURES, 10, 24, 6, MODEL_SEED), calib)
}

/// What one connection saw: `(completion s since load start, ms)`.
#[derive(Default)]
struct Log {
    lat_ms: Vec<(f64, f64)>,
    first_byte_ms: Vec<(f64, f64)>,
    phase: Phase,
}

fn bits_equal(got: &[f64], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (*g as f32).to_bits() == w.to_bits())
}

/// One connection's closed loop until `stop`.
fn client(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    refs: &[Vec<f32>],
    mut rng: Rng,
    start: Instant,
    stop: &AtomicBool,
) -> Log {
    let mut log = Log::default();
    let mut conn = None;
    while !stop.load(Ordering::Relaxed) {
        let i = rng.below(bodies.len());
        log.phase.sent += 1;
        if conn.is_none() {
            conn = Conn::connect(addr).ok();
        }
        let Some(c) = conn.as_mut() else {
            log.phase.failed += 1;
            continue;
        };
        let t = Instant::now();
        let res = c.send("POST", PATH, &bodies[i]).and_then(|()| {
            let head = c.read_head()?;
            let first = t.elapsed();
            let body = c.read_body(&head)?;
            Ok((head.status, first, body))
        });
        match res {
            Ok((200, first, body)) => {
                let at = start.elapsed().as_secs_f64();
                log.lat_ms.push((at, t.elapsed().as_secs_f64() * 1e3));
                log.first_byte_ms.push((at, first.as_secs_f64() * 1e3));
                match number_array(&body, "output") {
                    Some(out) if bits_equal(&out, &refs[i]) => log.phase.ok += 1,
                    _ => log.phase.mismatched += 1,
                }
            }
            Ok((429 | 503, ..)) => log.phase.shed += 1,
            Ok(_) => log.phase.failed += 1,
            Err(_) => {
                log.phase.failed += 1;
                conn = None;
            }
        }
    }
    log
}

/// End-to-end figures of the requests completed inside `[a, b)`.
fn e2e(log: &Log, (a, b): (f64, f64), fig: &SetupFigures, rss: f64) -> Metrics {
    let parts = sub_windows(b - a);
    let times: Vec<f64> = log.lat_ms.iter().map(|&(t, _)| t).collect();
    let n = within(&log.lat_ms, a, b).len();
    let mut m = Metrics::default();
    m.put("setup_s", fig.setup_s, "s", fig.reps);
    m.put("peak_rss_mb", rss, "MB", 1);
    m.put(
        "throughput_per_s",
        windowed_rate(&times, a, b, parts),
        "1/s",
        n,
    );
    m.put(
        "latency_p50_ms",
        windowed_quantile(&log.lat_ms, a, b, parts, 0.5),
        "ms",
        n,
    );
    m.put(
        "latency_p90_ms",
        windowed_quantile(&log.lat_ms, a, b, parts, 0.9),
        "ms",
        n,
    );
    m.put(
        "latency_p99_ms",
        windowed_quantile(&log.lat_ms, a, b, parts, 0.99),
        "ms",
        n,
    );
    // One answer per request: its first byte is the first result.
    m.put(
        "ttft_p50_ms",
        windowed_quantile(&log.first_byte_ms, a, b, parts, 0.5),
        "ms",
        n,
    );
    m
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = daemon::build()?;
    let work = WorkDir::create()?;
    let served = set_up(&bin, &work.0, "mlp", &build)?;
    let mut reference = served.reference;
    let fig = served.fig;
    let d = served.daemon;

    // Inputs and their in-process answers from the same artifact.
    let mut rng = Rng::new(args.seed, 1);
    let rows: Vec<Vec<f32>> = (0..ROWS).map(|_| rng.gaussians(FEATURES)).collect();
    let bodies: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"input\":{}}}",
                json_array(r.iter().map(|&v| f64::from(v)))
            )
            .into_bytes()
        })
        .collect();
    let mut refs = Vec::with_capacity(ROWS);
    for r in &rows {
        let mut out = Vec::new();
        reference
            .forward_rows(r, 1, &mut out)
            .map_err(|e| format!("reference forward: {e}"))?;
        refs.push(out);
    }

    let conns = crate::nproc().min(2);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (log, marks) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let r = Rng::new(rng.next_u64(), 0);
                let (bodies, refs, stop) = (&bodies, &refs, &stop);
                s.spawn(move || client(d.addr, bodies, refs, r, start, stop))
            })
            .collect();
        // The first ~1000 requests after spawn run slow (page-in, branch
        // training): untimed warm-up.
        let marks = time_windows(args, &d, start, || {
            std::thread::sleep(WARMUP);
            Ok(())
        });
        stop.store(true, Ordering::Relaxed);
        let mut log = Log::default();
        for h in handles {
            let part = h.join().expect("client thread");
            log.lat_ms.extend(part.lat_ms);
            log.first_byte_ms.extend(part.first_byte_ms);
            log.phase.merge(&part.phase);
        }
        (log, marks)
    });
    let marks = marks?;
    d.shutdown();
    let phase = log.phase;
    let w = marks.untraced;
    let mut out = Outcome {
        e2e: e2e(&log, w, &fig, marks.rss),
        ..Outcome::default()
    };
    if let Some((tw, before, after, rss)) = &marks.traced {
        out.traced_e2e = Some(e2e(&log, *tw, &fig, *rss));
        let client_p50_us = quantile(&within(&log.lat_ms, tw.0, tw.1), 0.5) * 1e3;
        put_server_layers(&mut out.layers, before, after, false);
        // Client round trip minus the daemon's own request time.
        let server_us = out.layers.get("antd.request_p50_us").unwrap_or(0.0);
        out.layers.put(
            "http.client_overhead_p50_us",
            client_p50_us - server_us,
            "us",
            within(&log.lat_ms, tw.0, tw.1).len(),
        );
        let mut y = Vec::new();
        let forward_s = time_median(2001, || {
            let _ = reference.forward_rows(&rows[0], 1, &mut y);
        });
        out.layers
            .put("plan.forward_ms", forward_s * 1e3, "ms", 2001);
        fig.put_layers(&mut out.layers);
        calib::put_roofline(&mut out.layers);
        let l = |n: &str| out.layers.get(n).unwrap_or(0.0);
        let engine = l("engine.submit_wait_p50_us") + l("engine.service_p50_us");
        out.lines.push(format!(
            "coverage infer-http: engine wait {:.0} + service {:.0} = {:.0} us of antd.request_p50 {:.0} us ({:.0}%); \
             antd.request_p50 + http overhead {:.0} us = client p50 {:.0} us; untraced latency_p50 {:.0} us",
            l("engine.submit_wait_p50_us"),
            l("engine.service_p50_us"),
            engine,
            l("antd.request_p50_us"),
            100.0 * engine / l("antd.request_p50_us").max(1e-9),
            l("http.client_overhead_p50_us"),
            client_p50_us,
            out.e2e.get("latency_p50_ms").unwrap_or(0.0) * 1e3,
        ));
    }

    let n = within(&log.lat_ms, w.0, w.1).len();
    let named = &mut out.named;
    let e = |k: &str| out.e2e.get(k).unwrap_or(0.0);
    named.put("setup_s", fig.setup_s, "s", fig.reps);
    named.put("peak_rss_mb", marks.rss, "MB", 1);
    named.put("req_per_s", e("throughput_per_s"), "1/s", n);
    named.put("latency_p50_ms", e("latency_p50_ms"), "ms", n);
    named.put("latency_p90_ms", e("latency_p90_ms"), "ms", n);
    named.put("latency_p99_ms", e("latency_p99_ms"), "ms", n);
    out.lines.push(format!(
        "load: {conns} client threads, {conns} keep-alive connections, nproc {}",
        crate::nproc()
    ));
    out.attempted = phase.sent;
    out.failed = phase.bad();
    out.phases.push(("infer", phase));
    Ok(out)
}
