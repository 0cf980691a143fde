//! `decode-http`: closed-loop streaming `POST /v1/models/decoder/generate`
//! against a causal `decoder_block(dim 64, depth 4)` served by `antd`:
//! 64-token prompts, 448 generated tokens, so the context reaches 512.
//! Exercises sessions, prefill, coalesced decode and packed KV appends.

use crate::client::{int_field, Conn};
use crate::daemon;
use crate::report::{Metrics, Phase};
use crate::rng::Rng;
use crate::serve::{put_server_layers, set_up, time_windows};
use crate::setup::{SetupFigures, WorkDir};
use crate::stats::{median, quantile, sub_windows, windowed_quantile, windowed_rate, within};
use crate::{calib, Args, Outcome};
use ant_nn::model::{decoder_block, Sequential};
use ant_runtime::{CompiledPlan, DecodeSession};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const DIM: usize = 64;
const DEPTH: usize = 4;
const PROMPT: usize = 64;
const GENERATE: usize = 448;
/// Distinct prompts a run draws from.
const PROMPTS: usize = 8;
/// The model is fixed; `--seed` only picks the prompts.
const MODEL_SEED: u64 = 29;
const PATH: &str = "/v1/models/decoder/generate";

fn build() -> (Sequential, Tensor) {
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[24, PROMPT * DIM],
        MODEL_SEED + 1,
    );
    (decoder_block(PROMPT, DIM, DEPTH, MODEL_SEED), calib)
}

/// `antd`'s token embedding (docs/serving.md): each id maps to a
/// SplitMix64-seeded row in `[-1, 1)`.
fn embed(id: u32, out: &mut Vec<f32>) {
    for j in 0..DIM {
        let mut z = (u64::from(id) << 32) | j as u64;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.push(((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0);
    }
}

/// Greedy sampling as `antd` does it: the first maximum of the last row.
fn argmax(row: &[f32]) -> u32 {
    let mut best = 0;
    for (i, v) in row.iter().enumerate() {
        if *v > row[best] {
            best = i;
        }
    }
    best as u32
}

/// One stream as the client saw it; times in seconds since load start.
struct Stream {
    prompt: usize,
    sent_at: f64,
    tokens: Vec<u32>,
    arrivals: Vec<f64>,
    complete: bool,
}

/// Everything one connection did.
#[derive(Default)]
struct Log {
    streams: Vec<Stream>,
    /// Requests that never produced a token stream.
    shed: u64,
    failed: u64,
}

/// Load-shape coordination: client `k` of `n` starts its first stream
/// once client 0 has received `k * GENERATE / n` tokens, so the streams
/// run out of phase and a prefill always meets running decodes instead
/// of the clients drifting in and out of lockstep from run to run.
struct Shape {
    lead_tokens: AtomicUsize,
    started: AtomicUsize,
    stop: AtomicBool,
}

fn client(
    k: usize,
    n: usize,
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    mut rng: Rng,
    start: Instant,
    shape: &Shape,
) -> Log {
    let mut log = Log::default();
    while shape.lead_tokens.load(Ordering::Relaxed) < k * GENERATE / n {
        if shape.stop.load(Ordering::Relaxed) {
            return log;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut conn = None;
    let at = || start.elapsed().as_secs_f64();
    while !shape.stop.load(Ordering::Relaxed) {
        let prompt = rng.below(bodies.len());
        if conn.is_none() {
            conn = Conn::connect(addr).ok();
        }
        let Some(c) = conn.as_mut() else {
            log.failed += 1;
            continue;
        };
        let mut s = Stream {
            prompt,
            sent_at: at(),
            tokens: Vec::with_capacity(GENERATE),
            arrivals: Vec::with_capacity(GENERATE),
            complete: false,
        };
        let res = c.send("POST", PATH, &bodies[prompt]).and_then(|()| {
            let head = c.read_head()?;
            if head.status != 200 {
                c.read_body(&head)?;
                return Ok(head.status);
            }
            while let Some(chunk) = c.read_chunk()? {
                let line = String::from_utf8_lossy(&chunk);
                if let Some(tok) = int_field(&line, "token") {
                    s.arrivals.push(at());
                    s.tokens.push(tok as u32);
                    if s.tokens.len() == 1 && log.streams.is_empty() {
                        shape.started.fetch_add(1, Ordering::Relaxed);
                    }
                    if k == 0 {
                        shape.lead_tokens.fetch_add(1, Ordering::Relaxed);
                    }
                } else if line.contains("\"done\":true") {
                    s.complete = true;
                }
            }
            Ok(200)
        });
        match res {
            Ok(200) => log.streams.push(s),
            Ok(429 | 503) => log.shed += 1,
            Ok(_) => log.failed += 1,
            Err(_) => {
                if s.tokens.is_empty() {
                    log.failed += 1;
                } else {
                    log.streams.push(s);
                }
                conn = None;
            }
        }
    }
    log
}

/// `(seconds since load start, ms)` samples.
type Stamped = Vec<(f64, f64)>;

/// Token arrivals, `(arrival, inter-token gap ms)` and `(first token,
/// time to first token ms)` over every stream.
fn series(log: &Log) -> (Vec<f64>, Stamped, Stamped) {
    let arrivals = log
        .streams
        .iter()
        .flat_map(|s| s.arrivals.iter().copied())
        .collect();
    let gaps = log
        .streams
        .iter()
        .flat_map(|s| s.arrivals.windows(2).map(|p| (p[1], (p[1] - p[0]) * 1e3)))
        .collect();
    let ttft = log
        .streams
        .iter()
        .filter_map(|s| s.arrivals.first().map(|&f| (f, (f - s.sent_at) * 1e3)))
        .collect();
    (arrivals, gaps, ttft)
}

/// End-to-end figures of the tokens that arrived inside `[a, b)`.
fn e2e(log: &Log, (a, b): (f64, f64), fig: &SetupFigures, rss: f64) -> Metrics {
    let parts = sub_windows(b - a);
    let (arrivals, gaps, ttft) = series(log);
    let n_gaps = within(&gaps, a, b).len();
    let first = within(&ttft, a, b);
    let mut m = Metrics::default();
    m.put("setup_s", fig.setup_s, "s", fig.reps);
    m.put("peak_rss_mb", rss, "MB", 1);
    m.put(
        "throughput_per_s",
        windowed_rate(&arrivals, a, b, parts),
        "1/s",
        n_gaps,
    );
    m.put(
        "latency_p50_ms",
        windowed_quantile(&gaps, a, b, parts, 0.5),
        "ms",
        n_gaps,
    );
    m.put(
        "latency_p90_ms",
        windowed_quantile(&gaps, a, b, parts, 0.9),
        "ms",
        n_gaps,
    );
    m.put(
        "latency_p99_ms",
        windowed_quantile(&gaps, a, b, parts, 0.99),
        "ms",
        n_gaps,
    );
    m.put("ttft_p50_ms", quantile(&first, 0.5), "ms", first.len());
    m
}

/// Greedy reference for one prompt through `prefill` + single-session
/// `decode_steps`; also returns the prefill time.
fn reference(plan: &mut CompiledPlan, prompt: &[u32]) -> Result<(Vec<u32>, f64), String> {
    let err = |e: ant_runtime::RuntimeError| format!("reference decode: {e}");
    let mut session = plan.open_session(PROMPT + GENERATE).map_err(err)?;
    let mut x = Vec::with_capacity(PROMPT * DIM);
    for &id in prompt {
        embed(id, &mut x);
    }
    let mut out = Vec::new();
    let t = Instant::now();
    plan.prefill(&mut session, &x, &mut out).map_err(err)?;
    let prefill_s = t.elapsed().as_secs_f64();
    let mut tokens = vec![argmax(&out[out.len() - DIM..])];
    while tokens.len() < GENERATE {
        x.clear();
        embed(*tokens.last().expect("one token"), &mut x);
        plan.decode_steps(&mut [&mut session], &x, &mut out)
            .map_err(err)?;
        tokens.push(argmax(&out));
    }
    Ok((tokens, prefill_s))
}

/// Two sessions decoded together, as the engine coalesces them: step
/// times at the first and last eight steps (context ≈64 and ≈512), the
/// KV bytes per token, and whether both token streams match `want`.
fn coalesced_probe(
    plan: &mut CompiledPlan,
    prompts: [&[u32]; 2],
    want: [&[u32]; 2],
) -> Result<(Vec<f64>, Vec<f64>, f64, bool), String> {
    let err = |e: ant_runtime::RuntimeError| format!("coalesced decode: {e}");
    let mut sessions: Vec<DecodeSession> = Vec::new();
    let mut tokens: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    let mut out = Vec::new();
    for (k, prompt) in prompts.iter().enumerate() {
        let mut s = plan.open_session(PROMPT + GENERATE).map_err(err)?;
        let mut x = Vec::new();
        for &id in *prompt {
            embed(id, &mut x);
        }
        plan.prefill(&mut s, &x, &mut out).map_err(err)?;
        tokens[k].push(argmax(&out[out.len() - DIM..]));
        sessions.push(s);
    }
    let kv_per_token = sessions[0].kv_bytes() as f64 / (PROMPT + GENERATE) as f64;
    let mut steps_ms = Vec::with_capacity(GENERATE);
    let mut x = Vec::with_capacity(2 * DIM);
    for _ in 1..GENERATE {
        x.clear();
        embed(*tokens[0].last().expect("token"), &mut x);
        embed(*tokens[1].last().expect("token"), &mut x);
        let mut refs: Vec<&mut DecodeSession> = sessions.iter_mut().collect();
        let t = Instant::now();
        plan.decode_steps(&mut refs, &x, &mut out).map_err(err)?;
        steps_ms.push(t.elapsed().as_secs_f64() * 1e6);
        tokens[0].push(argmax(&out[..DIM]));
        tokens[1].push(argmax(&out[DIM..]));
    }
    let first = steps_ms[..8].to_vec();
    let last = steps_ms[steps_ms.len() - 8..].to_vec();
    Ok((
        first,
        last,
        kv_per_token,
        tokens[0] == want[0] && tokens[1] == want[1],
    ))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = daemon::build()?;
    let work = WorkDir::create()?;
    let served = set_up(&bin, &work.0, "decoder", &build)?;
    let mut plan = served.reference;
    let fig = served.fig;
    let d = served.daemon;

    let mut rng = Rng::new(args.seed, 2);
    let prompts: Vec<Vec<u32>> = (0..PROMPTS)
        .map(|_| (0..PROMPT).map(|_| rng.below(DIM) as u32).collect())
        .collect();
    let bodies: Vec<Vec<u8>> = prompts
        .iter()
        .map(|p| {
            let ids: Vec<String> = p.iter().map(u32::to_string).collect();
            format!(
                "{{\"prompt\":[{}],\"max_tokens\":{GENERATE}}}",
                ids.join(",")
            )
            .into_bytes()
        })
        .collect();

    let conns = crate::nproc().min(2);
    let shape = Shape {
        lead_tokens: AtomicUsize::new(0),
        started: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    let start = Instant::now();
    let (log, marks) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|k| {
                let r = Rng::new(rng.next_u64(), 0);
                let (bodies, shape) = (&bodies, &shape);
                s.spawn(move || client(k, conns, d.addr, bodies, r, start, shape))
            })
            .collect();
        // Warm-up: every client streaming, then one more second.
        let marks = time_windows(args, &d, start, || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while shape.started.load(Ordering::Relaxed) < conns {
                if Instant::now() > deadline {
                    return Err("decode streams never started".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_secs(1));
            Ok(())
        });
        // Clients finish the stream they are in, so every stream is whole.
        shape.stop.store(true, Ordering::Relaxed);
        let mut log = Log::default();
        for h in handles {
            let part = h.join().expect("client thread");
            log.streams.extend(part.streams);
            log.shed += part.shed;
            log.failed += part.failed;
        }
        (log, marks)
    });
    let marks = marks?;
    let w = marks.untraced;
    let mut out = Outcome {
        e2e: e2e(&log, w, &fig, marks.rss),
        ..Outcome::default()
    };
    if let Some((tw, before, after, rss)) = &marks.traced {
        out.traced_e2e = Some(e2e(&log, *tw, &fig, *rss));
        put_server_layers(&mut out.layers, before, after, true);
        // Per token: the client's inter-token gap minus the engine's
        // wait and decode step — time in `antd`, the socket and the client.
        let (_, gaps, _) = series(&log);
        let gaps = within(&gaps, tw.0, tw.1);
        let l = |n: &str| out.layers.get(n).unwrap_or(0.0);
        let engine_us = l("engine.submit_wait_p50_us") + l("engine.service_p50_us");
        out.layers.put(
            "http.client_overhead_p50_us",
            quantile(&gaps, 0.5) * 1e3 - engine_us,
            "us",
            gaps.len(),
        );
    }
    d.shutdown();

    // Verify every stream against the in-process greedy reference.
    let mut refs = Vec::with_capacity(PROMPTS);
    let mut prefill_s = Vec::with_capacity(PROMPTS);
    for p in &prompts {
        let (tokens, t) = reference(&mut plan, p)?;
        refs.push(tokens);
        prefill_s.push(t);
    }
    let mut streams = Phase {
        sent: log.streams.len() as u64 + log.shed + log.failed,
        shed: log.shed,
        failed: log.failed,
        ..Phase::default()
    };
    let mut tokens = Phase::default();
    for s in &log.streams {
        let want = &refs[s.prompt];
        let matched = s.tokens.iter().zip(want).filter(|(a, b)| a == b).count() as u64;
        tokens.sent += GENERATE as u64;
        tokens.ok += matched;
        tokens.mismatched += s.tokens.len().min(GENERATE) as u64 - matched;
        tokens.failed += GENERATE.saturating_sub(s.tokens.len()) as u64;
        if !s.complete || s.tokens.len() != GENERATE {
            streams.failed += 1;
        } else if s.tokens != *want {
            streams.mismatched += 1;
        } else {
            streams.ok += 1;
        }
    }

    if args.trace {
        let mut ctx64 = Vec::new();
        let mut ctx512 = Vec::new();
        let mut kv_per_token = 0.0;
        for pair in 0..2 {
            let (a, b) = (2 * pair, 2 * pair + 1);
            let (first, last, kv, same) =
                coalesced_probe(&mut plan, [&prompts[a], &prompts[b]], [&refs[a], &refs[b]])?;
            if !same {
                out.check_errors
                    .push("coalesced two-session decode differs from single-session decode".into());
            }
            ctx64.extend(first);
            ctx512.extend(last);
            kv_per_token = kv;
        }
        let layers = &mut out.layers;
        layers.put(
            "kv.prefill_us_per_token",
            median(&prefill_s) * 1e6 / PROMPT as f64,
            "us",
            prefill_s.len(),
        );
        layers.put("kv.decode_step_us.ctx64", median(&ctx64), "us", ctx64.len());
        layers.put(
            "kv.decode_step_us.ctx512",
            median(&ctx512),
            "us",
            ctx512.len(),
        );
        layers.put("kv.bytes_per_token", kv_per_token, "B", 1);
        fig.put_layers(layers);
        calib::put_roofline(layers);
        let l = |n: &str| out.layers.get(n).unwrap_or(0.0);
        let itl_us = out
            .traced_e2e
            .as_ref()
            .and_then(|m| m.get("latency_p50_ms"))
            .unwrap_or(0.0)
            * 1e3;
        out.lines.push(format!(
            "coverage decode-http: engine wait {:.0} + decode step {:.0} = {:.0} us of itl_p50 {:.0} us ({:.0}%); \
             in-process 2-session step {:.0} (ctx64) .. {:.0} (ctx512) us",
            l("engine.submit_wait_p50_us"),
            l("engine.service_p50_us"),
            l("engine.submit_wait_p50_us") + l("engine.service_p50_us"),
            itl_us,
            100.0 * (l("engine.submit_wait_p50_us") + l("engine.service_p50_us")) / itl_us.max(1e-9),
            l("kv.decode_step_us.ctx64"),
            l("kv.decode_step_us.ctx512"),
        ));
    }

    let (_, gaps, ttft) = series(&log);
    let (n_gaps, n_first) = (within(&gaps, w.0, w.1).len(), within(&ttft, w.0, w.1).len());
    let named = &mut out.named;
    let e = |k: &str| out.e2e.get(k).unwrap_or(0.0);
    named.put("setup_s", fig.setup_s, "s", fig.reps);
    named.put("peak_rss_mb", marks.rss, "MB", 1);
    named.put("tokens_per_s", e("throughput_per_s"), "1/s", n_gaps);
    named.put("ttft_p50_ms", e("ttft_p50_ms"), "ms", n_first);
    named.put("itl_p50_ms", e("latency_p50_ms"), "ms", n_gaps);
    named.put("itl_p90_ms", e("latency_p90_ms"), "ms", n_gaps);
    named.put("itl_p99_ms", e("latency_p99_ms"), "ms", n_gaps);
    out.lines.push(format!(
        "load: {conns} client threads, {conns} keep-alive connections, nproc {}",
        crate::nproc()
    ));
    out.attempted = streams.sent;
    out.failed = streams.bad();
    out.phases.push(("prefill", streams));
    out.phases.push(("decode", tokens));
    Ok(out)
}
