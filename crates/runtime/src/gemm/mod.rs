//! Integer-domain GEMM over decoded operands.
//!
//! After the boundary LUT decode, every ANT operand is a small signed
//! integer and a layer's matmul is an exact integer computation — the same
//! arithmetic the TypeFusion PE array performs (`ant-hw`'s `multiply`/
//! `Accumulator`, paper Fig. 7). Exactness is what makes batched execution
//! deterministic: results are bit-identical regardless of how requests are
//! grouped *and* of which kernel, tiling, or thread partitioning computed
//! them.
//!
//! Three kernels share that contract:
//!
//! * [`int_gemm`] — the scalar `i32 × i32 → i64` reference: simple,
//!   obviously correct, and the oracle every other path is tested against.
//! * [`PanelGemm`] — the narrow microkernel: weights pre-packed once into
//!   `NR`-interleaved `i8`/`i16` panels (decode-once, serve-many), a
//!   register-blocked `4×8` tile, `i32` accumulation with a provably safe
//!   widening cadence (see the `kernel` submodule docs for the bound),
//!   and an AVX2 byte path behind runtime feature detection. This is the
//!   serving hot path: ≤8-bit types stream at a quarter of the `i32`
//!   memory traffic and twice the SIMD lanes.
//! * [`int_gemm_threaded`] — the threaded `i32` driver, now scheduled on
//!   the persistent [`WorkerPool`] instead of spawning scoped threads per
//!   call, and partitioned over output *columns* as well as rows — a
//!   batch-1 request against a wide layer (`m = 1`, `n = 4096`) fans out
//!   across the pool instead of running single-threaded.
//!
//! The weight operand is kept in (or packed from) the `[n, k]`
//! weight-stationary layout (rows contiguous), so each output channel is a
//! dot product of two contiguous streams; [`im2row_i32`] lowers
//! convolutions into the same layout.

pub(crate) mod avx2;
pub(crate) mod kernel;

use crate::pool::WorkerPool;
use ant_core::store::{PackedStore, StorePod};
pub(crate) use kernel::k_block_for;
pub use kernel::KernelOperand;

/// Panel width of the microkernel: output channels are packed and
/// computed in groups of `NR` (one `i32×8` SIMD register per row tile).
pub const NR: usize = 8;

/// Row-block tile height of the scalar `i32` path: weight rows stay
/// cache-hot across this many input rows.
const TILE_M: usize = 8;

/// Minimum multiply-accumulates per task before an extra worker pays for
/// its dispatch. A persistent-pool dispatch costs on the order of a
/// microsecond (one lock + wake), orders of magnitude below the thread
/// *spawn* the previous implementation paid, so the floor is 4× lower
/// than the old `1 << 20`.
const MIN_WORK_PER_TASK: usize = 1 << 18;

/// `out[m×n] = a[m×k] · bᵀ` where `b` is `[n, k]` row-major (the
/// weight-stationary layout). Each product is exact in `i64` and the sum
/// exact in `i128`; a sum past the `i64` output range saturates to it
/// instead of wrapping (only lattices as wide as `pot6s`, 2^30 per
/// operand, can get there, and only on adversarial rows).
///
/// This is the reference kernel: the narrow [`PanelGemm`] microkernel and
/// the threaded driver are bit-identical to it by construction (integer
/// arithmetic) and by test (`tests/microkernel.rs` proptests).
///
/// # Panics
///
/// Panics when slice lengths disagree with the given dimensions.
pub fn int_gemm(a: &[i32], b: &[i32], m: usize, k: usize, n: usize, out: &mut [i64]) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(out.len(), m * n, "output length");
    // SAFETY: full-range region over an exclusively borrowed output.
    unsafe { i32_region(a, b, k, 0..m, 0..n, out.as_mut_ptr(), n) }
}

/// Computes rows × cols of the `i32` GEMM into `out` with row stride
/// `ldc`.
///
/// # Safety
///
/// `out` must be valid for writes at `i·ldc + o` over the region, with no
/// concurrent access to those cells.
unsafe fn i32_region(
    a: &[i32],
    b: &[i32],
    k: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    out: *mut i64,
    ldc: usize,
) {
    let mut i0 = rows.start;
    while i0 < rows.end {
        let tile_rows = TILE_M.min(rows.end - i0);
        for o in cols.clone() {
            let w_row = &b[o * k..(o + 1) * k];
            for i in i0..i0 + tile_rows {
                let a_row = &a[i * k..(i + 1) * k];
                let mut acc = 0i128;
                for (&av, &wv) in a_row.iter().zip(w_row) {
                    acc += i128::from(av as i64 * wv as i64);
                }
                let acc = acc.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
                out.add(i * ldc + o).write(acc);
            }
        }
        i0 += tile_rows;
    }
}

/// A raw `*mut i64` that crosses thread boundaries; tasks write disjoint
/// regions, which is what makes the shared mutable access sound.
#[derive(Clone, Copy)]
struct SendPtr(*mut i64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// How a GEMM splits across pool workers: `(row_chunks, col_chunks)`
/// output-grid partitioning for a problem of the given shape at the given
/// parallelism cap.
///
/// Rows are preferred (better locality: a task streams contiguous output
/// rows), but when the row count can't absorb the parallelism — the
/// serving-critical `m = 1`, huge-`n` shape — the remainder splits over
/// output columns, so tall-weight/small-batch GEMMs parallelize too
/// (regression-pinned in `tests/microkernel.rs`). Work below
/// `MIN_WORK_PER_TASK` MACs per extra task stays single-threaded.
pub fn partition(m: usize, k: usize, n: usize, threads: usize) -> (usize, usize) {
    let work = m.saturating_mul(k).saturating_mul(n);
    let max_tasks = threads.max(1).min((work / MIN_WORK_PER_TASK).max(1));
    let row_chunks = max_tasks.min(m.max(1));
    let col_chunks = (max_tasks / row_chunks).clamp(1, n.div_ceil(NR).max(1));
    (row_chunks, col_chunks)
}

/// Runs `body(row_range, col_unit_range)` over the partition grid, on the
/// pool when the grid has more than one cell. `col_units` is the number
/// of independently splittable column units (output columns for the `i32`
/// path, `NR`-wide panels for the microkernel).
fn run_partitioned(
    pool: &WorkerPool,
    threads: usize,
    m: usize,
    k: usize,
    n: usize,
    col_units: usize,
    body: &(dyn Fn(std::ops::Range<usize>, std::ops::Range<usize>) + Sync),
) {
    let (rc, cc) = partition(m, k, n, threads.min(pool.width()));
    let cc = cc.min(col_units.max(1));
    if rc * cc <= 1 {
        body(0..m, 0..col_units);
        return;
    }
    let rows_per = m.div_ceil(rc);
    let units_per = col_units.div_ceil(cc);
    pool.run(rc * cc, &|t| {
        let (ri, ci) = (t / cc, t % cc);
        let r0 = (ri * rows_per).min(m);
        let r1 = ((ri + 1) * rows_per).min(m);
        let c0 = (ci * units_per).min(col_units);
        let c1 = ((ci + 1) * units_per).min(col_units);
        if r0 < r1 && c0 < c1 {
            body(r0..r1, c0..c1);
        }
    });
}

/// Multi-threaded [`int_gemm`] on the process-wide [`WorkerPool`]:
/// partitions the output grid over rows *and* columns (see
/// [`partition`]), so both batched and batch-1 shapes scale. Integer
/// arithmetic is exact, so the partitioning cannot change the result.
///
/// # Panics
///
/// Panics when slice lengths disagree with the given dimensions.
pub fn int_gemm_threaded(
    a: &[i32],
    b: &[i32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i64],
    threads: usize,
) {
    int_gemm_pooled(a, b, m, k, n, out, WorkerPool::global(), threads)
}

/// [`int_gemm_threaded`] against an explicit pool.
///
/// # Panics
///
/// Panics when slice lengths disagree with the given dimensions.
#[allow(clippy::too_many_arguments)] // a GEMM's shape is its signature
pub fn int_gemm_pooled(
    a: &[i32],
    b: &[i32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i64],
    pool: &WorkerPool,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(out.len(), m * n, "output length");
    let out_ptr = SendPtr(out.as_mut_ptr());
    run_partitioned(pool, threads, m, k, n, n, &|rows, cols| {
        let dst = out_ptr; // capture the Send+Sync wrapper, not the field
                           // SAFETY: partition cells are disjoint output regions.
        unsafe { i32_region(a, b, k, rows, cols, dst.0, n) }
    });
}

/// Weights pre-packed for the narrow-operand microkernel: `[n, k]`
/// row-major rows re-laid into `⌈n/NR⌉` interleaved `[k][NR]` panels at
/// construction (decode once, serve many), so the GEMM inner loop reads
/// both operands as perfectly sequential narrow streams.
///
/// The operand width `T` (`i8` or `i16`) is chosen by the caller from the
/// layer's decode-LUT magnitudes ([`ant_core::Codec::decode_lut_i8`] /
/// [`ant_core::Codec::decode_lut_int`]); the widening cadence is derived
/// from the packed data's actual maximum magnitude and the caller's bound
/// on activation magnitudes (see the `kernel` submodule for the overflow
/// argument).
///
/// # Example
///
/// ```
/// use ant_runtime::gemm::{int_gemm, PanelGemm};
/// use ant_runtime::WorkerPool;
///
/// let (m, k, n) = (3, 5, 4);
/// let a: Vec<i8> = (0..m * k as i8).map(|v| v - 7).collect();
/// let b: Vec<i8> = (0..n * k as i8).map(|v| 9 - v).collect();
/// let packed = PanelGemm::pack(&b, n as usize, k as usize, 127);
/// let mut fast = vec![0i64; (m * n) as usize];
/// packed.matmul(&a, m as usize, &mut fast, WorkerPool::global(), 1);
///
/// let a32: Vec<i32> = a.iter().map(|&v| v as i32).collect();
/// let b32: Vec<i32> = b.iter().map(|&v| v as i32).collect();
/// let mut reference = vec![0i64; (m * n) as usize];
/// int_gemm(&a32, &b32, m as usize, k as usize, n as usize, &mut reference);
/// assert_eq!(fast, reference);
/// ```
#[derive(Debug, Clone)]
pub struct PanelGemm<T: StorePod> {
    panels: PackedStore<T>,
    n: usize,
    k: usize,
    k_block: usize,
    a_max: i64,
    b_max: i64,
}

impl<T: KernelOperand> PanelGemm<T> {
    /// Packs `b` (`[n, k]` row-major weight-stationary rows) into
    /// microkernel panels. `a_max` is the caller's bound on the magnitude
    /// of every activation later passed to [`PanelGemm::matmul`]; it
    /// fixes the widening cadence, so violating it in release mode can
    /// silently wrap (debug builds assert it).
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != n * k`.
    pub fn pack(b: &[T], n: usize, k: usize, a_max: i64) -> PanelGemm<T> {
        assert_eq!(b.len(), n * k, "rhs length");
        let b_max = b
            .iter()
            .map(|&v| (v.widen() as i64).abs())
            .max()
            .unwrap_or(0);
        let n_panels = n.div_ceil(NR);
        let mut panels = vec![T::default(); n_panels * k * NR];
        for pi in 0..n_panels {
            for p in 0..k {
                for c in 0..NR {
                    let row = pi * NR + c;
                    if row < n {
                        panels[(pi * k + p) * NR + c] = b[row * k + p];
                    }
                }
            }
        }
        Self::from_store(PackedStore::from_vec(panels), n, k, a_max, b_max)
            .expect("freshly packed panels are exactly sized")
    }

    /// Rebuilds a panel image from already-interleaved storage — the
    /// zero-repack deserialization path, where `panels` borrows the
    /// panel section of a memory-mapped artifact verbatim. The widening
    /// cadence is re-derived from the recorded magnitude bounds
    /// (`a_max`, `b_max`), never trusted from the file. Returns `None`
    /// when the storage is not exactly `⌈n/NR⌉·k·NR` elements.
    ///
    /// Overstated magnitude bounds cost cadence (smaller `k_block`);
    /// *understated* bounds can silently wrap block sums in release
    /// mode, exactly as a violated `a_max` contract on
    /// [`PanelGemm::pack`] would — `antc verify` recomputes panels and
    /// bounds from the wire codes to detect a lying artifact.
    pub fn from_store(
        panels: PackedStore<T>,
        n: usize,
        k: usize,
        a_max: i64,
        b_max: i64,
    ) -> Option<PanelGemm<T>> {
        if panels.len() != n.div_ceil(NR) * k * NR {
            return None;
        }
        Some(PanelGemm {
            panels,
            n,
            k,
            k_block: k_block_for(a_max, b_max),
            a_max,
            b_max,
        })
    }

    /// Output channel count (`n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction depth (`k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The widening cadence in effect (exposed so tests can pin the
    /// overflow bound).
    pub fn k_block(&self) -> usize {
        self.k_block
    }

    /// The activation-magnitude bound the cadence was derived under.
    pub fn a_max(&self) -> i64 {
        self.a_max
    }

    /// The packed data's recorded maximum operand magnitude.
    pub fn b_max(&self) -> i64 {
        self.b_max
    }

    /// The raw `NR`-interleaved panel storage (`⌈n/NR⌉` panels of
    /// `[k][NR]`), as serialized into `.antm` panel sections.
    pub fn panels(&self) -> &[T] {
        &self.panels
    }

    /// Whether the panels are borrowed from a mapped artifact rather
    /// than owned.
    pub fn is_borrowed(&self) -> bool {
        self.panels.is_borrowed()
    }

    /// `out[m×n] = a[m×k] · bᵀ` through the microkernel, partitioned over
    /// the pool (capped at `threads`). Bit-identical to [`int_gemm`] on
    /// the widened operands.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the given dimensions, and
    /// in debug builds when an activation magnitude exceeds the `a_max`
    /// bound given to [`PanelGemm::pack`].
    pub fn matmul(&self, a: &[T], m: usize, out: &mut [i64], pool: &WorkerPool, threads: usize) {
        assert_eq!(a.len(), m * self.k, "lhs length");
        assert_eq!(out.len(), m * self.n, "output length");
        debug_assert!(
            a.iter().all(|&v| (v.widen() as i64).abs() <= self.a_max),
            "activation magnitude exceeds the a_max cadence bound"
        );
        let use_avx2 = cfg!(target_arch = "x86_64") && avx2_available();
        let (k, n, k_block) = (self.k, self.n, self.k_block);
        let out_ptr = SendPtr(out.as_mut_ptr());
        run_partitioned(pool, threads, m, k, n, n.div_ceil(NR), &|rows, panels| {
            let dst = out_ptr; // capture the Send+Sync wrapper, not the field
                               // SAFETY: partition cells are disjoint output regions.
            unsafe {
                kernel::run_region(
                    a,
                    &self.panels,
                    k,
                    n,
                    k_block,
                    rows,
                    panels,
                    dst.0,
                    n,
                    use_avx2,
                )
            }
        });
    }
}

/// Whether the AVX2 fast paths (byte microkernel, quantize loops) are
/// usable on this machine (runtime-detected, cached).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    avx2::available()
}

/// Non-x86: the AVX2 fast paths never apply.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn avx2_available() -> bool {
    false
}

/// Lowers one quantized `[c, h, w]` sample (as lattice integers of any
/// kernel width) into the `[oh*ow, c*kh*kw]` im2row matrix: row `p` holds
/// the receptive field of output pixel `p`, in the `(c, kh, kw)` order of
/// a row-major flattened conv kernel, so a convolution becomes
/// `im2row · Wᵀ` on the weight-stationary GEMM directly. Padding
/// positions stay `0` — the integer image of the reference path's
/// structural f32 zeros. With zero padding every element is overwritten,
/// so the output is *not* pre-cleared in that case (the buffer may hold
/// arbitrary stale scratch contents).
///
/// # Panics
///
/// Panics when slice lengths disagree with the geometry, or when the
/// kernel does not fit the padded input.
pub fn im2row<T: Copy + Default>(
    sample: &[T],
    c: usize,
    h: usize,
    w: usize,
    geo: ant_tensor::linalg::Conv2dGeometry,
    out: &mut [T],
) {
    assert_eq!(sample.len(), c * h * w, "sample length");
    let oh = geo.out_extent(h, geo.kh).expect("kernel fits input height");
    let ow = geo.out_extent(w, geo.kw).expect("kernel fits input width");
    let k = c * geo.kh * geo.kw;
    assert_eq!(out.len(), oh * ow * k, "output length");
    if geo.padding > 0 {
        // Padding positions are never written below; everything else is,
        // so the clear is only needed (and only paid) when padding exists.
        out.fill(T::default());
    }
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &mut out[(oy * ow + ox) * k..(oy * ow + ox + 1) * k];
            for ci in 0..c {
                for ki in 0..geo.kh {
                    let iy = (oy * geo.stride + ki) as isize - geo.padding as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for kj in 0..geo.kw {
                        let ix = (ox * geo.stride + kj) as isize - geo.padding as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        row[(ci * geo.kh + ki) * geo.kw + kj] =
                            sample[(ci * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
}

/// [`im2row`] at the `i32` width (the general-path entry point).
///
/// # Panics
///
/// As [`im2row`].
pub fn im2row_i32(
    sample: &[i32],
    c: usize,
    h: usize,
    w: usize,
    geo: ant_tensor::linalg::Conv2dGeometry,
    out: &mut [i32],
) {
    im2row(sample, c, h, w, geo, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_tensor::linalg::{self, Conv2dGeometry};
    use ant_tensor::Tensor;

    fn reference(a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            for o in 0..n {
                for p in 0..k {
                    out[i * n + o] += a[i * k + p] as i64 * b[o * k + p] as i64;
                }
            }
        }
        out
    }

    fn lcg_ints(len: usize, seed: u32, range: i32) -> Vec<i32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 16) as i32 % range) - range / 2
            })
            .collect()
    }

    #[test]
    fn matches_reference_on_odd_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (9, 16, 4), (17, 3, 11)] {
            let a = lcg_ints(m * k, 1, 65);
            let b = lcg_ints(n * k, 2, 65);
            let mut out = vec![0i64; m * n];
            int_gemm(&a, &b, m, k, n, &mut out);
            assert_eq!(out, reference(&a, &b, m, k, n), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn wide_lattice_sums_are_exact_or_saturate() {
        // pot6s-scale operands: 2^30 · 2^30 per product. Partial sums
        // past i64 that cancel come out exact; totals past it saturate.
        let p = 1 << 30;
        let a = [p; 16];
        // Rows: 16 × +p (2^64), 8 × +p then 8 × −p (0), 16 × −p (−2^64).
        let b = [[p; 24], [-p; 24]].concat();
        let mut out = [0i64; 3];
        int_gemm(&a, &b, 1, 16, 3, &mut out);
        assert_eq!(out, [i64::MAX, 0, i64::MIN]);
    }

    #[test]
    fn panel_gemm_matches_reference_on_odd_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (9, 16, 4), (17, 3, 11), (5, 129, 13)] {
            let a32 = lcg_ints(m * k, 11, 65);
            let b32 = lcg_ints(n * k, 12, 65);
            let a8: Vec<i8> = a32.iter().map(|&v| v as i8).collect();
            let b8: Vec<i8> = b32.iter().map(|&v| v as i8).collect();
            let packed = PanelGemm::pack(&b8, n, k, 127);
            let mut out = vec![0i64; m * n];
            packed.matmul(&a8, m, &mut out, WorkerPool::global(), 1);
            assert_eq!(out, reference(&a32, &b32, m, k, n), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn threaded_is_bit_identical() {
        // Large enough that partition() genuinely fans out.
        let (m, k, n) = (64, 129, 256);
        let a = lcg_ints(m * k, 3, 129);
        let b = lcg_ints(n * k, 4, 129);
        let mut single = vec![0i64; m * n];
        int_gemm(&a, &b, m, k, n, &mut single);
        assert!(m * k * n >= 8 * MIN_WORK_PER_TASK, "test must thread");
        for threads in [1, 2, 3, 8, 64] {
            let mut multi = vec![0i64; m * n];
            int_gemm_threaded(&a, &b, m, k, n, &mut multi, threads);
            assert_eq!(multi, single, "threads={threads}");
        }
    }

    #[test]
    fn partition_splits_columns_for_batch_one() {
        // The historical bug: `threads.min(m)` pinned m=1 GEMMs to one
        // thread no matter how wide the layer. A batch-1 request against
        // a 4096-wide layer must fan out over columns.
        let (rc, cc) = partition(1, 512, 4096, 8);
        assert_eq!(rc, 1);
        assert!(cc > 1, "m=1 huge-n GEMM must split columns, got {cc}");
        // Small problems stay single-task regardless of thread budget.
        assert_eq!(partition(4, 16, 16, 64), (1, 1));
        // Batched problems prefer rows.
        let (rc, cc) = partition(64, 512, 512, 8);
        assert_eq!((rc, cc), (8, 1));
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn rejects_bad_output_length() {
        let mut out = vec![0i64; 3];
        int_gemm(&[1, 2], &[3, 4, 5, 6], 1, 2, 2, &mut out);
    }

    #[test]
    fn im2row_is_the_transpose_of_im2col() {
        // im2row over integers must be element-for-element the transpose of
        // the f32 im2col the reference conv path uses, including the zero
        // padding ring — and regardless of what the output buffer held
        // before (the padding==0 path skips the clear).
        for (c, h, w, kernel, stride, padding) in [
            (1usize, 5usize, 5usize, 3usize, 1usize, 1usize),
            (2, 6, 4, 3, 2, 0),
            (3, 4, 4, 2, 1, 1),
            (2, 5, 5, 3, 1, 0),
        ] {
            let geo = Conv2dGeometry::new(kernel, kernel, stride, padding).unwrap();
            let ints = lcg_ints(c * h * w, 7, 15);
            let sample =
                Tensor::from_vec(ints.iter().map(|&v| v as f32).collect(), &[c, h, w]).unwrap();
            let cols = linalg::im2col(&sample, geo).unwrap(); // [k, oh*ow]
            let k = c * kernel * kernel;
            let pixels = cols.dims()[1];
            // Dirty buffer: proves every element is either overwritten or
            // cleared by the padding path.
            let mut rows = vec![i32::MIN; pixels * k];
            im2row_i32(&ints, c, h, w, geo, &mut rows);
            for p in 0..pixels {
                for r in 0..k {
                    assert_eq!(
                        rows[p * k + r] as f32,
                        cols.as_slice()[r * pixels + p],
                        "c={c} h={h} w={w} pad={padding} pixel={p} row={r}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sample length")]
    fn im2row_rejects_bad_sample_length() {
        let geo = Conv2dGeometry::new(3, 3, 1, 1).unwrap();
        let mut out = vec![0i32; 9];
        im2row_i32(&[1, 2, 3], 1, 3, 3, geo, &mut out);
    }
}
