//! Repeatable benchmark for the ANT serving stack.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! * `infer-http`  — closed-loop `POST /v1/models/mlp/infer` against a
//!   release `antd` process over loopback keep-alive connections.
//! * `decode-http` — closed-loop streaming `POST .../generate` against a
//!   causal decoder served by `antd` (prefill, coalesced decode, KV).
//! * `batch-bert`  — in-process `CompiledPlan::forward_rows` over
//!   128-token sequences through the dense layers of one BERT-base
//!   encoder layer on the global `WorkerPool`.
//!
//! Every input comes from `--seed`; every answer is checked. Human
//! readable lines come first; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! See `perfbench/README.md` for what each metric means.

mod bert;
mod calib;
mod client;
mod daemon;
mod decode;
mod infer;
mod prom;
mod report;
mod rng;
mod serve;
mod setup;
mod stats;

use report::{result_line, Metrics, Phase};
use std::time::Duration;

/// End-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("ttft_p50_ms", "ms"),
];

/// Per-layer metrics a traced run reports. A layer that is not on a
/// workload's path reports 0 there (see README.md).
const PER_LAYER: [(&str, &str); 35] = [
    ("engine.submit_wait_p50_us", "us"),
    ("engine.service_p50_us", "us"),
    ("engine.mean_batch", "count"),
    ("antd.request_p50_us", "us"),
    ("http.client_overhead_p50_us", "us"),
    ("kv.prefill_us_per_token", "us"),
    ("kv.decode_step_us.ctx64", "us"),
    ("kv.decode_step_us.ctx512", "us"),
    ("kv.bytes_per_token", "B"),
    ("plan.forward_ms", "ms"),
    ("layer.qkv.us", "us"),
    ("layer.attn_out.us", "us"),
    ("layer.ffn1.us", "us"),
    ("layer.gelu.us", "us"),
    ("layer.ffn2.us", "us"),
    ("layer.qkv.gops", "GOPS"),
    ("layer.attn_out.gops", "GOPS"),
    ("layer.ffn1.gops", "GOPS"),
    ("layer.ffn2.gops", "GOPS"),
    ("layer.qkv.pct_peak", "%"),
    ("layer.attn_out.pct_peak", "%"),
    ("layer.ffn1.pct_peak", "%"),
    ("layer.ffn2.pct_peak", "%"),
    ("gemm.peak_gops", "GOPS"),
    ("mem.stream_gbps", "GB/s"),
    ("pool.tasks_per_forward", "count"),
    ("pool.parks_per_task", "count"),
    ("select.s", "s"),
    ("select.weights_per_s", "1/s"),
    ("select.types.int", "count"),
    ("select.types.pot", "count"),
    ("select.types.flint", "count"),
    ("select.types.float", "count"),
    ("artifact.save_ms", "ms"),
    ("artifact.open_compile_ms", "ms"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics of the untraced window.
    pub e2e: Metrics,
    /// End-to-end metrics of the traced window (traced runs only).
    pub traced_e2e: Option<Metrics>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// The workload's own metric names, as the human report prints them.
    pub named: Metrics,
    pub phases: Vec<(&'static str, Phase)>,
    /// Operations attempted and those without a verified answer.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures that are not tied to one operation.
    pub check_errors: Vec<String>,
    /// Extra report lines (coverage, roofline table).
    pub lines: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Load generator shape: at most `nproc` threads, one connection each.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "infer-http" => infer::run(args),
        "decode-http" => decode::run(args),
        "batch-bert" => bert::run(args),
        other => Err(format!(
            "unknown workload {other:?} (infer-http, decode-http, batch-bert)"
        )),
    }
}

/// `metrics` restricted to `names`, in that order; a name the workload
/// did not measure reports 0.
fn select(metrics: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        let (value, samples) = metrics
            .0
            .iter()
            .find(|m| m.name == name)
            .map_or((0.0, 0), |m| (m.value, m.samples));
        out.put(name, value, unit, samples);
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    out.named.put(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
    );
    println!("-- metrics ({}):", args.workload);
    out.named.print("metric ");
    for (name, phase) in &out.phases {
        phase.print(name);
    }
    let e2e = select(&out.e2e, &END_TO_END);
    if let Some(traced) = &out.traced_e2e {
        println!("-- tracing overhead (traced minus untraced window):");
        for m in &e2e.0 {
            if let Some(t) = traced.get(&m.name) {
                println!(
                    "overhead {:<18} untraced {:>12.4} traced {:>12.4} delta {:>+10.4} {}",
                    m.name,
                    m.value,
                    t,
                    t - m.value,
                    m.unit
                );
            }
        }
        println!("-- per-layer ({}):", args.workload);
        out.layers.print("layer ");
    }
    for line in &out.lines {
        println!("{line}");
    }
    for e in &out.check_errors {
        println!("check FAILED: {e}");
    }
    if out.attempted == 0 {
        eprintln!("perfbench: no operation completed");
        std::process::exit(1);
    }
    let correct = out.failed == 0 && out.check_errors.is_empty();
    let failed = out.failed + out.check_errors.len() as u64;
    let metrics = if args.trace {
        select(&out.layers, &PER_LAYER)
    } else {
        e2e
    };
    if let Some(bad) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        std::process::exit(1);
    }
    println!("{}", result_line(correct, out.attempted, failed, &metrics));
}
