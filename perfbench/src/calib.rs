//! Calibration microbenchmarks for the roofline: the packed-panel GEMM
//! on a cache-resident `i8` shape, and a stream copy.

use crate::report::Metrics;
use crate::rng::Rng;
use ant_runtime::gemm::PanelGemm;
use ant_runtime::WorkerPool;
use std::time::Instant;

/// Cache-resident calibration shape: a 32 KiB lhs, a 64 KiB weight image.
const CAL_M: usize = 64;
const CAL_K: usize = 512;
const CAL_N: usize = 128;
/// Operand magnitude bound of the 4-bit paper types (flint4/PoT4 top out at 64).
const CAL_MAX: i64 = 64;

/// Best-of-`trials` rate of `f`, each trial running for at least `secs`,
/// after as long again untimed so pool workers and caches are warm;
/// `work` is the quantity one call performs.
fn best_rate<F: FnMut()>(trials: usize, secs: f64, work: f64, mut f: F) -> f64 {
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < secs * trials as f64 {
        f();
    }
    let mut best = 0.0f64;
    for _ in 0..trials {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed().as_secs_f64() < secs {
            f();
            calls += 1;
        }
        best = best.max(work * calls as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// Peak packed-panel GEMM rate in GOPS (2 ops per MAC) at `threads`.
pub fn gemm_peak_gops(threads: usize) -> f64 {
    let mut rng = Rng::new(0xCA1, 0);
    let mut draw = |n: usize| -> Vec<i8> {
        (0..n)
            .map(|_| (rng.below(2 * CAL_MAX as usize + 1) as i64 - CAL_MAX) as i8)
            .collect()
    };
    let a = draw(CAL_M * CAL_K);
    let b = draw(CAL_N * CAL_K);
    let packed = PanelGemm::pack(&b, CAL_N, CAL_K, CAL_MAX);
    let mut out = vec![0i64; CAL_M * CAL_N];
    let pool = WorkerPool::global();
    let ops = 2.0 * (CAL_M * CAL_K * CAL_N) as f64;
    best_rate(5, 0.1, ops, || {
        packed.matmul(&a, CAL_M, &mut out, pool, threads)
    }) / 1e9
}

/// Stream-copy bandwidth in GB/s (bytes read plus bytes written) over
/// buffers far larger than the last-level cache.
pub fn stream_gbps() -> f64 {
    const LEN: usize = 8 << 20; // 32 MiB of f32 per buffer
    let src: Vec<f32> = (0..LEN).map(|i| i as f32).collect();
    let mut dst = vec![0f32; LEN];
    let bytes = 2.0 * (LEN * 4) as f64;
    let rate = best_rate(5, 0.1, bytes, || dst.copy_from_slice(&src)) / 1e9;
    std::hint::black_box(&dst);
    rate
}

/// Puts `gemm.peak_gops` (at the global pool's width) and
/// `mem.stream_gbps`; returns both.
pub fn put_roofline(out: &mut Metrics) -> (f64, f64) {
    let peak = gemm_peak_gops(WorkerPool::global().width());
    let stream = stream_gbps();
    out.put("gemm.peak_gops", peak, "GOPS", 5);
    out.put("mem.stream_gbps", stream, "GB/s", 5);
    (peak, stream)
}
