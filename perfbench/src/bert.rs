//! `batch-bert`: the dense layers of one BERT-base encoder layer
//! (Table IV shapes: hidden 768, FFN 3072, 128 tokens) in process.
//!
//! The artifact holds five layers — `qkv` 768→2304, `attn_out` 768→768,
//! `ffn1` 768→3072, `gelu`, `ffn2` 3072→768 — and serves as two plans:
//! `qkv`, then `attn_out..ffn2`. Between them the benchmark passes the V
//! third of the QKV output on to the out-projection, an identity
//! attention pattern that keeps every dense shape of the encoder layer
//! without timing a softmax the runtime does not own here.

use crate::report::{Metrics, Phase};
use crate::rng::Rng;
use crate::setup::{open_model, select_and_save, sub_plan, SetupFigures, WorkDir, TYPE_NAMES};
use crate::stats::{median, sub_windows, time_median, windowed_quantile};
use crate::{calib, Args, Outcome};
use ant_core::{Codec, DataType};
use ant_nn::gelu::Gelu;
use ant_nn::layer::Dense;
use ant_nn::model::{NetLayer, Sequential};
use ant_runtime::{CompiledPlan, WorkerPool};
use ant_sim::design::{simulate, Design, SimConfig};
use ant_sim::workload::{bert_base, Workload};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use std::time::{Duration, Instant};

const TOKENS: usize = 128;
const HIDDEN: usize = 768;
const FFN: usize = 3072;
/// Distinct token sequences a run cycles through.
const SEQUENCES: usize = 4;
/// The model is fixed; `--seed` only picks the inputs.
const MODEL_SEED: u64 = 41;

/// A dense layer with weights drawn from `dist` (fixed per layer, so the
/// selection sees a mix of distributions as in a trained model).
fn dense(name: &str, out: usize, inp: usize, dist: Distribution, seed: u64) -> NetLayer {
    let w = sample_tensor(dist, &[out, inp], seed);
    NetLayer::Dense(Dense::new(name, w, Tensor::zeros(&[out])))
}

fn calibration(seed: u64) -> Tensor {
    sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[TOKENS, HIDDEN],
        seed,
    )
}

/// The two chained parts Algorithm 2 calibrates separately.
fn parts() -> Vec<(Sequential, Tensor)> {
    let s = MODEL_SEED;
    let gaussian = Distribution::Gaussian {
        mean: 0.0,
        std: 0.02,
    };
    let laplace = Distribution::Laplace { mu: 0.0, b: 0.02 };
    let uniform = Distribution::Uniform {
        lo: -0.035,
        hi: 0.035,
    };
    let outliers = Distribution::OutlierGaussian {
        std: 0.02,
        outlier_frac: 0.01,
        outlier_scale: 10.0,
    };
    let attn = Sequential::new().push(dense("qkv", 3 * HIDDEN, HIDDEN, gaussian, s));
    let ffn = Sequential::new()
        .push(dense("attn_out", HIDDEN, HIDDEN, laplace, s + 1))
        .push(dense("ffn1", FFN, HIDDEN, uniform, s + 2))
        .push(NetLayer::Gelu(Gelu::new("gelu")))
        .push(dense("ffn2", HIDDEN, FFN, outliers, s + 3));
    vec![(attn, calibration(s + 10)), (ffn, calibration(s + 11))]
}

/// The encoder layer's dense pipeline as two compiled plans.
struct Encoder {
    attn: CompiledPlan,
    ffn: CompiledPlan,
    qkv: Vec<f32>,
    v: Vec<f32>,
}

impl Encoder {
    fn new(model: &Sequential) -> Result<Encoder, String> {
        Ok(Encoder {
            attn: sub_plan(model, 0..1)?,
            ffn: sub_plan(model, 1..5)?,
            qkv: Vec::new(),
            v: Vec::new(),
        })
    }

    fn forward(&mut self, x: &[f32], rows: usize, out: &mut Vec<f32>) -> Result<(), String> {
        self.attn
            .forward_rows(x, rows, &mut self.qkv)
            .map_err(|e| format!("qkv forward: {e}"))?;
        v_slice(&self.qkv, rows, &mut self.v);
        self.ffn
            .forward_rows(&self.v, rows, out)
            .map_err(|e| format!("ffn forward: {e}"))
    }
}

/// The V columns of `rows` QKV output rows.
fn v_slice(qkv: &[f32], rows: usize, v: &mut Vec<f32>) {
    v.clear();
    for r in 0..rows {
        let row = &qkv[r * 3 * HIDDEN..(r + 1) * 3 * HIDDEN];
        v.extend_from_slice(&row[2 * HIDDEN..]);
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

struct Window {
    /// `(completion s since window start, forward ms)`.
    lat_ms: Vec<(f64, f64)>,
    phase: Phase,
    elapsed_s: f64,
}

/// Closed loop of batch-128 forwards for `dur`, each checked bit for bit
/// against the row-at-a-time reference of its sequence.
fn window(
    enc: &mut Encoder,
    seqs: &[Vec<f32>],
    refs: &[Vec<f32>],
    rng: &mut Rng,
    dur: Duration,
) -> Window {
    let mut w = Window {
        lat_ms: Vec::new(),
        phase: Phase::default(),
        elapsed_s: 0.0,
    };
    let mut out = Vec::new();
    let start = Instant::now();
    while start.elapsed() < dur {
        let i = rng.below(seqs.len());
        w.phase.sent += 1;
        let t = Instant::now();
        match enc.forward(&seqs[i], TOKENS, &mut out) {
            Ok(()) => {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                w.lat_ms.push((start.elapsed().as_secs_f64(), ms));
                if bits_equal(&out, &refs[i]) {
                    w.phase.ok += 1;
                } else {
                    w.phase.mismatched += 1;
                }
            }
            Err(_) => w.phase.failed += 1,
        }
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

/// Latency quantiles are medians over one-second sub-windows (about 14
/// forwards each); throughput is tokens over the window's wall time,
/// since per-second forward counts are too coarse.
fn e2e(w: &Window, fig: &SetupFigures, rss: f64) -> Metrics {
    let mut m = Metrics::default();
    let n = w.lat_ms.len();
    let (end, parts) = (w.elapsed_s, sub_windows(w.elapsed_s));
    let q = |q: f64| windowed_quantile(&w.lat_ms, 0.0, end, parts, q);
    m.put("setup_s", fig.setup_s, "s", fig.reps);
    m.put("peak_rss_mb", rss, "MB", 1);
    m.put(
        "throughput_per_s",
        (w.phase.ok + w.phase.mismatched) as f64 * TOKENS as f64 / w.elapsed_s,
        "1/s",
        n,
    );
    m.put("latency_p50_ms", q(0.5), "ms", n);
    m.put("latency_p90_ms", q(0.9), "ms", n);
    m.put("latency_p99_ms", q(0.99), "ms", n);
    // One output per forward: the first result is the whole result.
    m.put("ttft_p50_ms", q(0.5), "ms", n);
    m
}

/// Operand width the runtime's weight-image rule picks for a layer:
/// the narrowest integer holding both decoded lattices.
fn operand_width(w: DataType, a: DataType) -> &'static str {
    let max = |d: DataType| {
        Codec::new(d)
            .ok()
            .and_then(|c| c.decode_lut_int())
            .map_or(i64::MAX, |lut| {
                lut.iter().map(|v| (*v as i64).abs()).max().unwrap_or(0)
            })
    };
    let m = max(w).max(max(a));
    if m <= i8::MAX as i64 {
        "i8"
    } else if m <= i16::MAX as i64 {
        "i16"
    } else {
        "i32"
    }
}

fn process_rss_mb() -> f64 {
    crate::daemon::peak_rss_mb("/proc/self/status").unwrap_or(0.0)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create()?;
    let path = work.0.join("bert.antm");

    // Set-up: selection, artifact save, open and compile.
    let t0 = Instant::now();
    let mut fig: SetupFigures = select_and_save(parts(), &path)?;
    let t = Instant::now();
    let model = open_model(&path)?;
    let mut enc = Encoder::new(&model)?;
    fig.open_compile_ms = t.elapsed().as_secs_f64() * 1e3;
    fig.setup_s = t0.elapsed().as_secs_f64();

    let mut out = Outcome::default();
    check_census_stable(&fig, &mut out);

    // Inputs and the row-at-a-time reference.
    let mut rng = Rng::new(args.seed, 3);
    let seqs: Vec<Vec<f32>> = (0..SEQUENCES)
        .map(|_| rng.gaussians(TOKENS * HIDDEN))
        .collect();
    let mut refs = Vec::with_capacity(SEQUENCES);
    let mut row_out = Vec::new();
    for seq in &seqs {
        let mut r = Vec::with_capacity(TOKENS * HIDDEN);
        for row in seq.chunks(HIDDEN) {
            enc.forward(row, 1, &mut row_out)?;
            r.extend_from_slice(&row_out);
        }
        refs.push(r);
    }

    let mut phase = Phase::default();
    let warm = window(&mut enc, &seqs, &refs, &mut rng, Duration::from_millis(300));
    phase.merge(&warm.phase);
    let w = window(&mut enc, &seqs, &refs, &mut rng, args.window());
    phase.merge(&w.phase);
    out.e2e = e2e(&w, &fig, process_rss_mb());

    if args.trace {
        let pool = WorkerPool::global();
        let tasks0: u64 = pool.slot_task_counts().iter().sum();
        let parks0: u64 = pool.slot_park_counts().iter().sum();
        let tw = window(&mut enc, &seqs, &refs, &mut rng, args.window());
        let tasks = pool.slot_task_counts().iter().sum::<u64>() - tasks0;
        let parks = pool.slot_park_counts().iter().sum::<u64>() - parks0;
        phase.merge(&tw.phase);
        out.traced_e2e = Some(e2e(&tw, &fig, process_rss_mb()));
        let forwards = 2 * tw.lat_ms.len();
        let forward_ms: Vec<f64> = tw.lat_ms.iter().map(|&(_, ms)| ms).collect();
        out.layers.put(
            "plan.forward_ms",
            median(&forward_ms),
            "ms",
            forward_ms.len(),
        );
        out.layers.put(
            "pool.tasks_per_forward",
            tasks as f64 / forwards.max(1) as f64,
            "count",
            forwards,
        );
        out.layers.put(
            "pool.parks_per_task",
            parks as f64 / tasks.max(1) as f64,
            "count",
            tasks as usize,
        );
        fig.put_layers(&mut out.layers);
        layer_table(&model, &seqs[0], &mut out)?;
    }

    let n = w.lat_ms.len();
    let named = &mut out.named;
    let e = |k: &str| out.e2e.get(k).unwrap_or(0.0);
    named.put("setup_s", fig.setup_s, "s", 1);
    named.put("peak_rss_mb", e("peak_rss_mb"), "MB", 1);
    named.put("tokens_per_s", e("throughput_per_s"), "1/s", n);
    named.put("forward_p50_ms", e("latency_p50_ms"), "ms", n);
    named.put("forward_p90_ms", e("latency_p90_ms"), "ms", n);
    named.put("forward_p99_ms", e("latency_p99_ms"), "ms", n);
    named.put("select.s", fig.select_s, "s", 1);
    for (name, count) in TYPE_NAMES.iter().zip(fig.census) {
        named.put(format!("select.types.{name}"), count as f64, "count", 1);
    }
    out.lines.push(format!(
        "load: 1 thread (in-process), 0 connections, pool width {}, nproc {}",
        WorkerPool::global().width(),
        crate::nproc()
    ));
    out.attempted = phase.sent;
    out.failed = phase.bad();
    out.phases.push(("forward", phase));
    Ok(out)
}

/// `select.types.*` must not change between runs of the same build: the
/// first run of a build in a target directory records the census, later
/// runs compare against it. The record is keyed by a hash of this
/// executable, which links the runtime statically.
fn check_census_stable(fig: &SetupFigures, out: &mut Outcome) {
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
        .unwrap_or(0);
    let file = crate::daemon::target_dir().join(format!("perfbench-select-types-{build:016x}.txt"));
    let now = format!("{:?}", fig.census);
    match std::fs::read_to_string(&file) {
        Ok(prev) if prev.trim() == now => {}
        Ok(prev) => out.check_errors.push(format!(
            "select.types changed between runs of one build: {} then {now}",
            prev.trim()
        )),
        Err(_) => {
            let _ = std::fs::write(&file, &now);
        }
    }
}

/// One row per layer instance from one-layer plans built out of the
/// served artifact's model, fed the activations that layer sees.
fn layer_table(model: &Sequential, x: &[f32], out: &mut Outcome) -> Result<(), String> {
    const REPS: usize = 15;
    let width = WorkerPool::global().width();
    let (peak, stream) = calib::put_roofline(&mut out.layers);
    let peak1 = calib::gemm_peak_gops(1);

    // ANT (output-stationary) simulator cycles at the same shapes.
    let paper = bert_base(1, "MNLI");
    let blk0: Vec<_> = paper
        .layers
        .iter()
        .filter(|l| l.name.starts_with("blk0."))
        .cloned()
        .collect();
    let sim = simulate(
        Design::AntOs,
        &Workload {
            name: "BERT-base layer 0".into(),
            family: paper.family,
            layers: blk0.clone(),
        },
        &SimConfig::default(),
    )
    .map_err(|e| format!("simulate: {e}"))?;
    let sim_cycles = |name: &str| {
        blk0.iter()
            .zip(&sim.layers)
            .find(|(l, _)| l.name == format!("blk0.{name}"))
            .map(|(_, p)| p.cycles)
    };

    out.lines.push(format!(
        "calibration: packed i8 GEMM [{}x{}x{}] peak {peak1:.2} GOPS at 1 thread, {peak:.2} GOPS at {width}; stream copy {stream:.2} GB/s",
        64, 512, 128
    ));
    out.lines.push(
        "roofline  idx kind      [m, k, n]          dtype     width        us      GOPS  %peak  bytes(from tensor sizes)  ant-os-cycles".into(),
    );
    let mut input = x.to_vec();
    let mut total_us = 0.0;
    for (idx, layer) in model.layers().iter().enumerate() {
        let mut plan = sub_plan(model, idx..idx + 1)?;
        let mut y = Vec::new();
        plan.forward_rows(&input, TOKENS, &mut y)
            .map_err(|e| format!("layer {idx}: {e}"))?;
        let secs = time_median(REPS, || {
            let _ = plan.forward_rows(&input, TOKENS, &mut y);
        });
        let us = secs * 1e6;
        total_us += us;
        let name = layer.name().to_string();
        out.layers.put(format!("layer.{name}.us"), us, "us", REPS);
        match layer {
            NetLayer::Dense(d) => {
                let (k, n) = (d.in_features(), d.out_features());
                let gops = 2.0 * (TOKENS * k * n) as f64 / secs / 1e9;
                let wq = d.quant.weight.as_ref().map(|q| q.dtype());
                let aq = d.quant.activation.as_ref().map(|q| q.dtype());
                let (dtype, width) = match (wq, aq) {
                    (Some(w), Some(a)) => (w.to_string(), operand_width(w, a)),
                    _ => ("f32".into(), "-"),
                };
                let wbytes = match width {
                    "i8" => 1,
                    "i16" => 2,
                    _ => 4,
                };
                let bytes = 4 * TOKENS * k + wbytes * k * n + 4 * TOKENS * n;
                out.layers
                    .put(format!("layer.{name}.gops"), gops, "GOPS", REPS);
                out.layers.put(
                    format!("layer.{name}.pct_peak"),
                    100.0 * gops / peak,
                    "%",
                    REPS,
                );
                let sim_name = if name == "attn_out" {
                    "proj"
                } else {
                    name.as_str()
                };
                out.lines.push(format!(
                    "roofline  {idx:>3} {:<9} [{TOKENS}, {k}, {n}]{:pad$} {dtype:<9} {width:<5} {us:>10.1} {gops:>9.2} {:>6.1} {bytes:>12}  {:>14}",
                    "dense",
                    "",
                    100.0 * gops / peak,
                    sim_cycles(sim_name).map_or("-".to_string(), |c| c.to_string()),
                    pad = 18usize.saturating_sub(format!("[{TOKENS}, {k}, {n}]").len()),
                ));
            }
            _ => {
                let elems = input.len();
                out.lines.push(format!(
                    "roofline  {idx:>3} {:<9} [{TOKENS}, {}]{:pad$} {:<9} {:<5} {us:>10.1} {:>9} {:>6} {:>12}  {:>14}",
                    "gelu",
                    elems / TOKENS,
                    "",
                    "f32",
                    "-",
                    "-",
                    "-",
                    8 * elems,
                    "-",
                    pad = 18usize.saturating_sub(format!("[{TOKENS}, {}]", elems / TOKENS).len()),
                ));
            }
        }
        input = if name == "qkv" {
            let mut v = Vec::new();
            v_slice(&y, TOKENS, &mut v);
            v
        } else {
            y
        };
    }
    let forward_ms = out.layers.get("plan.forward_ms").unwrap_or(0.0);
    out.lines.push(format!(
        "coverage batch-bert: sum of layer.*.us {:.1} us vs plan.forward_ms {:.1} us ({:.0}%)",
        total_us,
        forward_ms * 1e3,
        100.0 * total_us / (forward_ms * 1e3).max(1e-9)
    ));
    Ok(())
}
