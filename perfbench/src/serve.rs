//! What the two HTTP workloads share: repeated set-up ending in a
//! healthy `antd`, and the per-layer rows read from `/metrics` deltas.

use crate::daemon::Daemon;
use crate::prom::{delta, delta_mean, delta_quantile, Scrape};
use crate::report::Metrics;
use crate::setup::{open_compile, select_and_save, SetupFigures};
use crate::Args;
use ant_nn::model::Sequential;
use ant_runtime::CompiledPlan;
use ant_tensor::Tensor;
use std::path::Path;
use std::time::Instant;

/// Window boundaries (seconds since the load started) and what was read
/// at them.
#[derive(Default)]
pub struct Marks {
    pub untraced: (f64, f64),
    pub rss: f64,
    /// Traced window, scrapes around it, daemon peak RSS after it.
    pub traced: Option<((f64, f64), Scrape, Scrape, f64)>,
}

/// Times the untraced window once `warm_up` returns and, in a traced
/// run, the traced window with a `/metrics` scrape on each side, while
/// the clients keep their closed loops running throughout.
pub fn time_windows(
    args: &Args,
    d: &Daemon,
    start: Instant,
    warm_up: impl FnOnce() -> Result<(), String>,
) -> Result<Marks, String> {
    warm_up()?;
    let since = || start.elapsed().as_secs_f64();
    let a = since();
    std::thread::sleep(args.window());
    let mut marks = Marks {
        untraced: (a, since()),
        rss: d.peak_rss_mb().unwrap_or(0.0),
        traced: None,
    };
    if args.trace {
        let before = Scrape::parse(&d.metrics()?);
        let c = since();
        std::thread::sleep(args.window());
        let e = since();
        let after = Scrape::parse(&d.metrics()?);
        marks.traced = Some(((c, e), before, after, d.peak_rss_mb().unwrap_or(0.0)));
    }
    Ok(marks)
}

/// Set-ups per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more (up to `MAX_SETUPS`) while they fit in
/// `SETUP_BUDGET_S`, so a set-up of tens of milliseconds gets a steady
/// median and one of seconds is not repeated needlessly.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;

pub struct Served {
    pub daemon: Daemon,
    /// In-process plan compiled from the artifact `antd` serves.
    pub reference: CompiledPlan,
    pub fig: SetupFigures,
}

/// Builds the model, selects types, saves the artifact and starts
/// `antd` on it, repeatedly (see `MIN_SETUPS`); keeps the last daemon
/// running.
/// Each set-up is timed from model construction to the first healthy
/// `/healthz`.
pub fn set_up(
    bin: &Path,
    dir: &Path,
    name: &str,
    build: &dyn Fn() -> (Sequential, Tensor),
) -> Result<Served, String> {
    let mut figs = Vec::new();
    let mut last: Option<(Daemon, std::path::PathBuf)> = None;
    let began = Instant::now();
    for rep in 0..MAX_SETUPS {
        if rep >= MIN_SETUPS && began.elapsed().as_secs_f64() > SETUP_BUDGET_S {
            break;
        }
        if let Some((d, _)) = last.take() {
            d.shutdown();
        }
        let t0 = Instant::now();
        let path = dir.join(format!("{name}-{rep}.antm"));
        let mut fig = select_and_save(vec![build()], &path)?;
        let daemon = Daemon::spawn(bin, name, &path)?;
        fig.setup_s = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        open_compile(&path)?;
        fig.open_compile_ms = t.elapsed().as_secs_f64() * 1e3;
        figs.push(fig);
        last = Some((daemon, path));
    }
    let (daemon, path) = last.expect("at least one set-up");
    Ok(Served {
        daemon,
        reference: open_compile(&path)?,
        fig: SetupFigures::median_of(&figs)?,
    })
}

/// Engine and `antd` rows from two scrapes around a traced window.
/// Decode batches land in the engine's decode series.
pub fn put_server_layers(out: &mut Metrics, before: &Scrape, after: &Scrape, decode: bool) {
    let (wait, n_wait) = delta_quantile(before, after, "ant_engine_submit_wait_ns", 0.5);
    out.put(
        "engine.submit_wait_p50_us",
        wait / 1e3,
        "us",
        n_wait as usize,
    );
    let (service_hist, batch_hist) = if decode {
        ("ant_engine_decode_step_ns", "ant_engine_decode_batch_size")
    } else {
        ("ant_engine_service_ns", "ant_engine_batch_size")
    };
    let (service, n_service) = delta_quantile(before, after, service_hist, 0.5);
    out.put(
        "engine.service_p50_us",
        service / 1e3,
        "us",
        n_service as usize,
    );
    out.put(
        "engine.mean_batch",
        delta_mean(before, after, batch_hist),
        "count",
        n_service as usize,
    );
    let (req, n_req) = delta_quantile(before, after, "antd_request_time_ns", 0.5);
    out.put("antd.request_p50_us", req / 1e3, "us", n_req as usize);
    let forwards = delta(before, after, "ant_forward_time_ns_count")
        + delta(before, after, "ant_engine_decode_step_ns_count");
    let tasks = delta(before, after, "ant_pool_tasks_total");
    out.put(
        "pool.tasks_per_forward",
        if forwards > 0.0 {
            tasks / forwards
        } else {
            0.0
        },
        "count",
        forwards as usize,
    );
}
