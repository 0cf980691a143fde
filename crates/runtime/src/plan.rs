//! Plan compilation: from a quantized [`Sequential`] to an executable
//! packed-domain plan.
//!
//! A [`CompiledPlan`] is the inference-side artifact of ANT quantization:
//! every compute layer's weights are stored as packed wire codes
//! ([`PackedTensor`], the paper's fixed-length aligned representation,
//! Table I) together with a per-layer decode LUT and scales. At compile
//! time each weight matrix is decoded **once** through the integer LUT
//! ([`ant_core::Codec::decode_lut_int`]) into the narrowest operand image
//! that holds its lattice — `i8` for every 4-bit paper type and `int8`,
//! `i16` for wide flint and 8-bit float magnitudes, plain `i32` rows for
//! anything wider — and pre-packed into the microkernel panel layout
//! ([`crate::gemm::PanelGemm`]). Execution quantizes activations straight
//! into the same narrow width and runs the register-blocked integer
//! microkernel: the software mirror of the TypeFusion array's
//! boundary-decoder → low-bit int-PE pipeline (paper Fig. 9, Sec. VI-A).
//!
//! The hot path is engineered for steady-state serving:
//!
//! * all intermediate buffers (quantized activations, im2row matrices,
//!   accumulators, attention q/k/v/scores/context, the layer pipeline's
//!   ping/pong activations) live in a per-plan [`Scratch`] arena — after
//!   warmup a [`CompiledPlan::forward_rows`] call performs **zero heap
//!   allocations**,
//! * threaded GEMMs are scheduled on a persistent [`WorkerPool`] shared
//!   across layers and batches (no per-call thread spawning), partitioned
//!   over output rows *and* columns so batch-1 requests against wide
//!   layers still parallelize,
//! * integer arithmetic is exact, so none of this changes a single output
//!   bit relative to the scalar reference kernel.
//!
//! Three layer families run in the packed integer domain:
//!
//! * [`PackedLinear`] — dense layers, a direct integer GEMM,
//! * [`PackedConv`] — convolutions, lowered through an integer im2row
//!   ([`crate::gemm::im2row`]) at the layer's operand width into the same
//!   weight-stationary GEMM,
//! * [`PackedAttn`] — attention blocks: Q/K/V projections as integer
//!   GEMMs, then scores → softmax → context in f32 (attention scores are
//!   *activations* and "require high-precision numbers", Sec. IV-C /
//!   Fig. 4), and the output projection as a mixed-domain GEMM over the
//!   LUT-decoded weights with the scale applied at the boundary.
//!
//! Every primitive has an integer image: `float` lattices are whole
//! multiples of their smallest subnormal ([`ant_core::Codec::unit`]), and
//! that unit folds into the dequantization scales, so one integer GEMM
//! serves int, PoT, flint and float alike — the software counterpart of
//! the paper's type-specific decoders in front of one shared int MAC
//! (Sec. V). A layer whose lattice has no `i32` image (`pot6u` reaches
//! 2^62) is refused with [`RuntimeError::UnsupportedType`]; see
//! `int_lowering`. Shape-polymorphic layers (ReLU, GELU, max-pool,
//! layer norm) carry no wire codes and execute the same arithmetic as
//! their reference implementations.

use crate::error::RuntimeError;
use crate::gemm::{im2row, int_gemm_pooled, PanelGemm};
use crate::kv::{DecodeSession, KvCache, KvHalf, KvQuant, KvQuantSpec};
use crate::obs::{self, LayerKind};
use crate::pool::WorkerPool;
use crate::scratch::{grab, Scratch};
use ant_core::pack::PackedTensor;
use ant_core::store::PackedStore;
use ant_core::{Codec, DataType, PrimitiveType, Quantizer, TensorQuantizer};
use ant_nn::attention::{layer_norm_group, softmax_rows_in_place, Attention, LayerNorm};
use ant_nn::gelu::gelu;
use ant_nn::layer::{Conv2d, Dense, Layer as _};
use ant_nn::model::{NetLayer, Sequential};
use ant_tensor::linalg::Conv2dGeometry;
use ant_tensor::Tensor;
use std::sync::Arc;

/// Specialized integer quantization of input activations. Every variant
/// computes exactly `codec.snap(x / s)` in lattice units
/// ([`Codec::unit`]) — the fake-quantization semantics — but the common
/// primitives avoid the generic snap dispatch per element:
/// `int` is a round-and-clamp, and `flint` (whose snap rounds to an integer
/// magnitude first, Algorithm 1) becomes a table lookup over the pre-imaged
/// magnitudes.
#[derive(Debug, Clone)]
enum ActQuant {
    /// `int`: round then clamp.
    IntRound {
        /// Lattice bounds in normalized units.
        lo: f32,
        /// Upper lattice bound.
        hi: f32,
    },
    /// `flint`: LUT over rounded magnitudes, sign reapplied.
    FlintLut {
        /// `lut[m] = decode(encode_int(m))` for every integer magnitude.
        lut: Vec<i32>,
        /// Largest magnitude (`flint.max_value()`).
        max: f32,
        /// Whether negative inputs carry a sign (vs clamping to zero).
        signed: bool,
    },
    /// The codec's generic snap (`PoT` and `float`, whose snap is
    /// nearest-value on the continuous input and cannot be pre-rounded),
    /// rescaled to lattice units.
    Snap {
        /// `1 / codec.unit()`, a power of two, so the rescale is exact.
        inv_unit: f32,
    },
}

impl ActQuant {
    fn for_quantizer(q: &Quantizer) -> ActQuant {
        let codec = q.codec();
        let dt = codec.dtype();
        match dt.primitive() {
            PrimitiveType::Int => {
                let hi = codec.max_value();
                let lo = if dt.is_signed() { -hi } else { 0.0 };
                ActQuant::IntRound { lo, hi }
            }
            PrimitiveType::Flint => {
                let max = codec.max_value();
                let lut: Vec<i32> = (0..=max as usize)
                    .map(|m| codec.snap(m as f32) as i32)
                    .collect();
                ActQuant::FlintLut {
                    lut,
                    max,
                    signed: dt.is_signed(),
                }
            }
            PrimitiveType::Pot | PrimitiveType::Float => ActQuant::Snap {
                inv_unit: codec.unit().recip(),
            },
        }
    }

    /// Quantizes one normalized value to its integer lattice point.
    #[inline]
    fn apply(&self, v: f32, codec: &ant_core::Codec) -> i32 {
        match self {
            ActQuant::IntRound { lo, hi } => v.round().clamp(*lo, *hi) as i32,
            ActQuant::FlintLut { lut, max, signed } => {
                if *signed {
                    let q = lut[v.abs().round().min(*max) as usize];
                    if v < 0.0 {
                        -q
                    } else {
                        q
                    }
                } else {
                    lut[v.round().max(0.0).min(*max) as usize]
                }
            }
            ActQuant::Snap { inv_unit } => (codec.snap(v) * inv_unit) as i32,
        }
    }

    /// Quantizes a whole slice of real activations onto the integer
    /// lattice at operand width `T`, reusing `out`'s capacity (the
    /// zero-allocation steady state). The variant dispatch is hoisted out
    /// of the element loop so the common `int` path is a straight
    /// divide/round/clamp stream the autovectorizer handles; every
    /// element computes exactly what [`ActQuant::apply`] computes.
    fn apply_all_into<T: ActInt>(
        &self,
        x: &[f32],
        scale: f32,
        codec: &ant_core::Codec,
        out: &mut Vec<T>,
    ) {
        if out.len() != x.len() {
            out.clear();
            out.resize(x.len(), T::from_act(0));
        }
        match self {
            ActQuant::IntRound { lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                #[cfg(target_arch = "x86_64")]
                if crate::gemm::avx2_available() {
                    // SAFETY: gated on runtime AVX2 detection. Same Rust
                    // code as below — IEEE divide/round/clamp semantics
                    // are ISA-independent, so results are bit-identical;
                    // compiling with AVX2 enabled just lets the
                    // autovectorizer use 8-wide divides.
                    unsafe { int_round_all_avx2(x, scale, lo, hi, out) };
                    return;
                }
                for (dst, &v) in out.iter_mut().zip(x) {
                    *dst = T::from_act((v / scale).round().clamp(lo, hi) as i32);
                }
            }
            _ => {
                for (dst, &v) in out.iter_mut().zip(x) {
                    *dst = T::from_act(self.apply(v / scale, codec));
                }
            }
        }
    }
}

/// The `int` activation-quantization loop compiled with AVX2 enabled
/// (runtime-dispatched): element-for-element the same arithmetic as the
/// scalar path in [`ActQuant::apply_all_into`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn int_round_all_avx2<T: ActInt>(x: &[f32], scale: f32, lo: f32, hi: f32, out: &mut [T]) {
    for (dst, &v) in out.iter_mut().zip(x) {
        *dst = T::from_act((v / scale).round().clamp(lo, hi) as i32);
    }
}

/// Integer widths activation buffers come in (the microkernel operand
/// widths plus the general `i32`).
trait ActInt: Copy {
    fn from_act(v: i32) -> Self;
}

impl ActInt for i8 {
    #[inline(always)]
    fn from_act(v: i32) -> i8 {
        debug_assert!((i8::MIN as i32..=i8::MAX as i32).contains(&v));
        v as i8
    }
}

impl ActInt for i16 {
    #[inline(always)]
    fn from_act(v: i32) -> i16 {
        debug_assert!((i16::MIN as i32..=i16::MAX as i32).contains(&v));
        v as i16
    }
}

impl ActInt for i32 {
    #[inline(always)]
    fn from_act(v: i32) -> i32 {
        v
    }
}

/// Narrow-copies an `i32` activation master buffer into operand width
/// `T`, reusing capacity.
fn narrow_acts<T: ActInt>(src: &[i32], out: &mut Vec<T>) {
    out.clear();
    out.extend(src.iter().map(|&v| T::from_act(v)));
}

/// A raw `*mut f32` crossing into pool tasks; tasks write disjoint
/// regions, which is what makes the shared mutable access sound.
#[derive(Clone, Copy)]
struct ShareMut(*mut f32);
unsafe impl Send for ShareMut {}
unsafe impl Sync for ShareMut {}

/// The decode-once integer image of a weight matrix, at the narrowest
/// width its lattice (and the layer's activation lattice) permits.
///
/// `i8` covers every 4-bit paper type (Table I magnitudes top out at 64,
/// as does signed 4-bit float in its units) and `int8` (±128); wide
/// flint magnitudes (`flint8u` reaches 16384) and 8-bit floats (at most
/// 1984 units) take the `i16` panels; anything wider executes on plain
/// `i32` rows. Panel images are pre-packed for the microkernel at compile
/// time (or borrowed verbatim from a mapped v2 artifact's panel section),
/// so serving never re-lays weights out.
#[derive(Debug, Clone)]
pub(crate) enum WeightImage {
    /// Byte panels for the microkernel (quarter traffic, double lanes).
    I8(PanelGemm<i8>),
    /// Halfword panels (wide flint magnitudes).
    I16(PanelGemm<i16>),
    /// Plain `[out, in]` rows for the general kernel.
    I32(PackedStore<i32>),
}

impl WeightImage {
    /// Whether the image data is borrowed from a mapped artifact rather
    /// than owned by this plan.
    pub(crate) fn is_borrowed(&self) -> bool {
        match self {
            WeightImage::I8(pg) => pg.is_borrowed(),
            WeightImage::I16(pg) => pg.is_borrowed(),
            WeightImage::I32(rows) => rows.is_borrowed(),
        }
    }

    /// Bytes per decoded weight element at this image's execution width
    /// (telemetry: sizes the streamed-weight traffic of a GEMM pass).
    pub(crate) fn elem_bytes(&self) -> usize {
        match self {
            WeightImage::I8(_) => 1,
            WeightImage::I16(_) => 2,
            WeightImage::I32(_) => 4,
        }
    }
}

/// One weight matrix compiled to the packed integer domain: wire codes,
/// the LUT-decoded integer image in microkernel layout (decode once,
/// execute many) and one scale per output row.
#[derive(Debug, Clone)]
struct PackedMatrix {
    /// Packed wire codes, shaped (`[out, in]` for dense/attention
    /// projections, `[co, ci, kh, kw]` for conv kernels).
    weights: PackedTensor,
    /// LUT-decoded integer weights at the execution width, in units of
    /// `unit`.
    image: WeightImage,
    /// Per-output-row scales (broadcast when the quantizer was
    /// per-tensor).
    w_scales: Vec<f32>,
    /// The weight lattice unit ([`Codec::unit`]).
    unit: f32,
    out: usize,
    inp: usize,
}

/// Encodes a `[out, inp]`-flattened f32 weight onto packed wire codes
/// under `wq`, attaching `dims` as the logical shape. Shared by plan
/// compilation and artifact export so both produce bit-identical code
/// streams for the same `(weight, quantizer)` pair.
pub(crate) fn pack_weight_tensor(
    w: &[f32],
    out: usize,
    inp: usize,
    wq: &TensorQuantizer,
    dims: &[usize],
) -> Result<PackedTensor, RuntimeError> {
    let codec = wq.codec();
    let scales = wq.scales();
    // Broadcast a per-tensor scale across output rows.
    let w_scales: Vec<f32> = if scales.len() == 1 {
        vec![scales[0]; out]
    } else {
        scales.to_vec()
    };
    if w_scales.len() != out {
        return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
            expected: out,
            actual: w_scales.len(),
        }));
    }
    let mut codes = Vec::with_capacity(out * inp);
    for o in 0..out {
        let s = w_scales[o];
        for i in 0..inp {
            codes.push(codec.encode(w[o * inp + i] / s));
        }
    }
    Ok(PackedTensor::pack_with_dims(
        wq.dtype(),
        &codes,
        scales.to_vec(),
        dims,
    )?)
}

/// What [`int_lowering`] hands plan compilation for one weight tensor.
pub(crate) struct Lowering {
    /// The weight's integer decode LUT ([`Codec::decode_lut_int`]).
    pub(crate) lut: Vec<i32>,
    /// The weight lattice unit the LUT is expressed in.
    pub(crate) unit: f32,
    /// The activation magnitude bound in lattice units: what fixes the
    /// microkernel's widening cadence and qualifies the narrow operand
    /// widths.
    pub(crate) a_max: i64,
}

/// The packed-domain lowering rule, in one place: a weight tensor and
/// its layer's activation quantizer run on the shared integer GEMM iff
/// both lattices have an integer image ([`Codec::decode_lut_int`] is
/// `Some`). Plan compilation, the v2 panel writer and
/// [`crate::ModelArtifact::layer_summaries`] all ask this one function.
///
/// # Errors
///
/// [`RuntimeError::UnsupportedType`] naming the lattice that has no
/// `i32` image (`pot6u`, whose magnitudes reach 2^62).
pub(crate) fn int_lowering(
    layer: &str,
    weights: &PackedTensor,
    act: &Quantizer,
) -> Result<Lowering, RuntimeError> {
    let refuse = |dtype| RuntimeError::UnsupportedType {
        layer: layer.to_string(),
        dtype,
    };
    let a_codec = act.codec();
    a_codec
        .decode_lut_int()
        .ok_or_else(|| refuse(act.dtype()))?;
    let a_max = (a_codec.max_value() / a_codec.unit()) as i64;
    let codec = Codec::new(weights.dtype())?;
    let lut = codec
        .decode_lut_int()
        .ok_or_else(|| refuse(weights.dtype()))?;
    Ok(Lowering {
        lut,
        unit: codec.unit(),
        a_max,
    })
}

impl PackedMatrix {
    /// Builds the executable matrix from packed wire codes under the
    /// layer's activation quantizer. No floats are re-encoded: the wire
    /// codes *are* the weights, so a plan rebuilt from a saved artifact
    /// is bit-identical to the plan that was saved. With `image: None`
    /// the codes are decoded once into the narrowest operand image; with
    /// `Some` — the zero-copy path used by
    /// [`crate::artifact::MappedArtifact`], where the image bytes are
    /// borrowed straight from a mapped v2 panel section — the image's
    /// shape and activation bound are validated against the wire codes
    /// but its *contents* are trusted here (lying panel bytes produce
    /// wrong results, not UB) and cross-checked by `antc verify`.
    fn new(
        layer: &str,
        weights: PackedTensor,
        act: &Quantizer,
        image: Option<WeightImage>,
    ) -> Result<Self, RuntimeError> {
        let (out, inp, w_scales) = Self::validate_shape(&weights)?;
        let low = int_lowering(layer, &weights, act)?;
        let image = match image {
            None => decode_image(&weights, &low.lut, low.a_max),
            Some(image) => {
                let shape_ok = match &image {
                    WeightImage::I8(pg) => {
                        (pg.n(), pg.k()) == (out, inp)
                            && pg.a_max() == low.a_max
                            && low.a_max <= i8::MAX as i64
                    }
                    WeightImage::I16(pg) => {
                        (pg.n(), pg.k()) == (out, inp) && pg.a_max() == low.a_max
                    }
                    WeightImage::I32(rows) => rows.len() == out * inp,
                };
                if !shape_ok {
                    return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
                        expected: out * inp,
                        actual: match &image {
                            WeightImage::I8(pg) => pg.n() * pg.k(),
                            WeightImage::I16(pg) => pg.n() * pg.k(),
                            WeightImage::I32(rows) => rows.len(),
                        },
                    }));
                }
                image
            }
        };
        Ok(PackedMatrix {
            weights,
            image,
            w_scales,
            unit: low.unit,
            out,
            inp,
        })
    }

    /// Validates the packed tensor's dims/scales for matrix execution and
    /// returns `(out, inp, broadcast w_scales)`.
    fn validate_shape(weights: &PackedTensor) -> Result<(usize, usize, Vec<f32>), RuntimeError> {
        let dims = weights.dims();
        if dims.len() < 2 {
            return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
                expected: 2,
                actual: dims.len(),
            }));
        }
        let out = dims[0];
        let inp: usize = dims[1..].iter().product();
        let scales = weights.scales();
        let w_scales: Vec<f32> = if scales.len() == 1 {
            vec![scales[0]; out]
        } else {
            scales.to_vec()
        };
        if w_scales.len() != out {
            return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
                expected: out,
                actual: w_scales.len(),
            }));
        }
        Ok((out, inp, w_scales))
    }

    /// The decoded weight rows as f32 lattice values (`[out, inp]`,
    /// unscaled) — the operand of attention's mixed-domain output
    /// projection.
    fn rows_f32(&self) -> Vec<f32> {
        decode_rows_f32(&self.weights)
    }

    /// Integer GEMM `[m, inp] · selfᵀ` into the exact `i64` accumulator in
    /// `ws.acc`, quantizing the f32 input into the image's operand width
    /// first. All buffers come from the scratch arena.
    fn quantize_accumulate<'w>(
        &self,
        x: &[f32],
        m: usize,
        act: &Quantizer,
        act_quant: &ActQuant,
        ws: &'w mut LayerScratch<'_>,
    ) -> &'w mut [i64] {
        let s_a = act.scale();
        let codec = act.codec();
        match &self.image {
            WeightImage::I8(pg) => {
                act_quant.apply_all_into(x, s_a, codec, ws.act_i8);
                let acc = grab(ws.acc, m * self.out, 0);
                pg.matmul(ws.act_i8, m, acc, ws.pool, ws.threads);
                acc
            }
            WeightImage::I16(pg) => {
                act_quant.apply_all_into(x, s_a, codec, ws.act_i16);
                let acc = grab(ws.acc, m * self.out, 0);
                pg.matmul(ws.act_i16, m, acc, ws.pool, ws.threads);
                acc
            }
            WeightImage::I32(rows) => {
                act_quant.apply_all_into(x, s_a, codec, ws.act_i32);
                let acc = grab(ws.acc, m * self.out, 0);
                int_gemm_pooled(
                    ws.act_i32, rows, m, self.inp, self.out, acc, ws.pool, ws.threads,
                );
                acc
            }
        }
    }

    /// Integer GEMM over an already-quantized activation master buffer
    /// (attention's shared Q/K/V input). The caller pre-narrows the
    /// `i32` master into whichever widths its projections need — once
    /// per width, not once per projection — and this picks the matching
    /// view. Scratch buffers arrive as explicit arguments so the caller
    /// can keep the rest of the arena borrowed.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_master<'w>(
        &self,
        a32: &[i32],
        m: usize,
        pool: &WorkerPool,
        threads: usize,
        act_i8: &[i8],
        act_i16: &[i16],
        acc: &'w mut Vec<i64>,
    ) -> &'w mut [i64] {
        let acc = grab(acc, m * self.out, 0);
        match &self.image {
            WeightImage::I8(pg) => pg.matmul(act_i8, m, acc, pool, threads),
            WeightImage::I16(pg) => pg.matmul(act_i16, m, acc, pool, threads),
            WeightImage::I32(rows) => {
                int_gemm_pooled(a32, rows, m, self.inp, self.out, acc, pool, threads)
            }
        }
        acc
    }

    /// The combined per-output dequantization scales for the layer's
    /// activation quantizer: `deq[o] = (a_scale · a_unit) · (w_scales[o]
    /// · w_unit)`, the lattice units folded in (exactly: they are powers
    /// of two, and 1 for every primitive but `float`), precomputed once
    /// at plan compile time so the per-request dequant loop is a
    /// straight multiply-add stream.
    fn deq_scales(&self, act: &Quantizer) -> Vec<f32> {
        let a = unit_scale(act);
        self.w_scales.iter().map(|&w| a * (w * self.unit)).collect()
    }
}

/// An activation quantizer's scale per lattice unit: what one unit of
/// the quantized integer activations is worth.
fn unit_scale(act: &Quantizer) -> f32 {
    act.scale() * act.codec().unit()
}

/// Decodes a packed tensor's wire codes through its integer LUT into the
/// plan-domain image at the narrowest operand width the weight *and*
/// activation lattices allow, pre-packing microkernel panels for it.
/// Shared by plan compilation and the v2 artifact writer so the panel
/// bytes the writer serializes are bit-identical to the ones a fresh
/// compile would build.
pub(crate) fn decode_image(weights: &PackedTensor, lut: &[i32], a_max: i64) -> WeightImage {
    let dims = weights.dims();
    let (out, inp) = (dims[0], dims[1..].iter().product::<usize>());
    let w_int: Vec<i32> = weights.codes().iter().map(|&c| lut[c as usize]).collect();
    if a_max <= i8::MAX as i64 {
        if let Some(w8) = w_int
            .iter()
            .map(|&v| i8::try_from(v).ok())
            .collect::<Option<Vec<i8>>>()
        {
            return WeightImage::I8(PanelGemm::pack(&w8, out, inp, a_max));
        }
    }
    if a_max <= i16::MAX as i64 {
        if let Some(w16) = w_int
            .iter()
            .map(|&v| i16::try_from(v).ok())
            .collect::<Option<Vec<i16>>>()
        {
            let b_max = w16.iter().map(|&v| (v as i64).abs()).max().unwrap_or(0);
            // A cadence too short to amortize the widening fold means
            // the magnitudes are effectively wide: take the general path
            // instead.
            if crate::gemm::k_block_for(a_max, b_max) >= 16 {
                return WeightImage::I16(PanelGemm::pack(&w16, out, inp, a_max));
            }
        }
    }
    WeightImage::I32(PackedStore::from_vec(w_int))
}

/// Decodes a packed tensor's wire codes to f32 lattice values (exact,
/// independent of the execution image width). Shared by attention's
/// output projection and the v2 artifact writer.
pub(crate) fn decode_rows_f32(weights: &PackedTensor) -> Vec<f32> {
    let lut = ant_core::Codec::new(weights.dtype())
        .expect("codec validated at construction")
        .decode_lut();
    weights.codes().iter().map(|&c| lut[c as usize]).collect()
}

/// Transposes a square `[n, n]` row-major matrix.
pub(crate) fn transpose(m: &[f32], n: usize) -> Vec<f32> {
    let mut t = vec![0f32; n * n];
    for r in 0..n {
        for c in 0..n {
            t[c * n + r] = m[r * n + c];
        }
    }
    t
}

/// Dequantizes an accumulator (and optional bias) into `out`:
/// `out[i, o] = acc[i, o] · deq[o] + bias[o]`, with the bias dispatch
/// hoisted out of the element loops. Element-for-element the same float
/// operations as computing `acc · (a_scale · w_scales[o])` inline — the
/// scale product is just evaluated once per output channel instead of
/// once per element.
fn dequant_into(acc: &[i64], m: usize, deq: &[f32], bias: Option<&[f32]>, out: &mut [f32]) {
    let n = deq.len();
    debug_assert_eq!(out.len(), m * n, "output length");
    debug_assert_eq!(acc.len(), m * n, "accumulator length");
    match bias {
        Some(b) => {
            for i in 0..m {
                let ar = &acc[i * n..(i + 1) * n];
                let or = &mut out[i * n..(i + 1) * n];
                for o in 0..n {
                    or[o] = ar[o] as f32 * deq[o] + b[o];
                }
            }
        }
        None => {
            for i in 0..m {
                let ar = &acc[i * n..(i + 1) * n];
                let or = &mut out[i * n..(i + 1) * n];
                for o in 0..n {
                    or[o] = ar[o] as f32 * deq[o];
                }
            }
        }
    }
}

/// The slice of the scratch arena (plus scheduling context) a packed
/// layer borrows for one forward step. Pipeline buffers (`ping`/`pong`)
/// stay with the caller; everything else is here, split-borrowed so a
/// layer can hold several at once.
struct LayerScratch<'a> {
    pool: &'a WorkerPool,
    threads: usize,
    act_i8: &'a mut Vec<i8>,
    act_i16: &'a mut Vec<i16>,
    act_i32: &'a mut Vec<i32>,
    rows_i8: &'a mut Vec<i8>,
    rows_i16: &'a mut Vec<i16>,
    rows_i32: &'a mut Vec<i32>,
    acc: &'a mut Vec<i64>,
    q: &'a mut Vec<f32>,
    k: &'a mut Vec<f32>,
    v: &'a mut Vec<f32>,
    scores: &'a mut Vec<f32>,
    ctx: &'a mut Vec<f32>,
    kv_row: &'a mut Vec<f32>,
    kv_codes: &'a mut Vec<u8>,
}

/// Validates a `[batch, features]` slice against an expected feature
/// count.
fn check_features(x: &[f32], batch: usize, expected: usize) -> Result<(), RuntimeError> {
    if batch == 0 || x.len() != batch * expected {
        return Err(RuntimeError::ShapeMismatch {
            expected,
            actual: x.len().checked_div(batch).unwrap_or(0),
        });
    }
    Ok(())
}

/// A dense layer compiled to the packed integer domain.
#[derive(Debug, Clone)]
pub struct PackedLinear {
    name: String,
    mat: PackedMatrix,
    bias: Vec<f32>,
    /// Precomputed `act.scale() · w_scales[o]` dequant scales.
    deq: Vec<f32>,
    /// Input-activation quantizer (per-tensor).
    act: Quantizer,
    /// Specialized integer activation-quantization path.
    act_quant: ActQuant,
}

impl PackedLinear {
    /// Builds the layer from wire codes: `weights` must be a
    /// `[out, in]`-shaped pack and `bias` a length-`out` vector. `image`
    /// is a pre-built weight image (borrowed from a mapped v2 artifact);
    /// `None` decodes one from the codes.
    pub(crate) fn from_parts(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
        image: Option<WeightImage>,
    ) -> Result<Self, RuntimeError> {
        let mat = PackedMatrix::new(&name, weights, &act, image)?;
        if bias.len() != mat.out {
            return Err(RuntimeError::ShapeMismatch {
                expected: mat.out,
                actual: bias.len(),
            });
        }
        let deq = mat.deq_scales(&act);
        Ok(PackedLinear {
            name,
            mat,
            bias,
            deq,
            act_quant: ActQuant::for_quantizer(&act),
            act,
        })
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The packed weight tensor (`[out, in]`).
    pub fn weights(&self) -> &PackedTensor {
        &self.mat.weights
    }

    /// Whether the wire codes and the integer image are both borrowed
    /// from a mapped artifact (the v2 zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.mat.weights.is_borrowed() && self.mat.image.is_borrowed()
    }

    /// The weight data type.
    pub fn dtype(&self) -> DataType {
        self.mat.weights.dtype()
    }

    /// The activation quantizer.
    pub fn activation(&self) -> &Quantizer {
        &self.act
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.mat.inp
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.mat.out
    }

    /// Executes `y = dequant(int_gemm(quant(x), W_codes)) + b` on a
    /// `[batch, in]` slice, writing a `[batch, out]` slice.
    fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        check_features(x, batch, self.mat.inp)?;
        let acc = self
            .mat
            .quantize_accumulate(x, batch, &self.act, &self.act_quant, ws);
        let acc = &*acc;
        let out = grab(out, batch * self.mat.out, 0.0);
        dequant_into(acc, batch, &self.deq, Some(&self.bias), out);
        Ok(())
    }
}

/// A 2-D convolution compiled to the packed integer domain: the quantized
/// input is lowered by an *integer* im2row at the layer's operand width
/// and the kernel runs through the same weight-stationary GEMM as dense
/// layers, with one scale per output channel (paper Sec. V: CONV and FC
/// share the PE array after lowering).
#[derive(Debug, Clone)]
pub struct PackedConv {
    name: String,
    /// Kernel as `[co, ci·kh·kw]` with packed shape `[co, ci, kh, kw]`.
    mat: PackedMatrix,
    bias: Vec<f32>,
    /// Precomputed `act.scale() · w_scales[c]` dequant scales.
    deq: Vec<f32>,
    act: Quantizer,
    act_quant: ActQuant,
    in_shape: (usize, usize, usize),
    geo: Conv2dGeometry,
    out_shape: (usize, usize, usize),
}

impl PackedConv {
    /// Builds the convolution from wire codes: `weights` must be a
    /// `[co, ci, kh, kw]`-shaped pack consistent with `in_shape` and
    /// `geo`. `image` is a pre-built weight image (borrowed from a mapped
    /// v2 artifact); `None` decodes one from the codes.
    pub(crate) fn from_parts(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
        in_shape: (usize, usize, usize),
        geo: Conv2dGeometry,
        image: Option<WeightImage>,
    ) -> Result<Self, RuntimeError> {
        let dims = weights.dims().to_vec();
        if dims.len() != 4 || dims[1] != in_shape.0 || dims[2] != geo.kh || dims[3] != geo.kw {
            return Err(RuntimeError::UnsupportedLayer {
                layer: name,
                reason: format!(
                    "kernel shape {dims:?} inconsistent with input {in_shape:?} / geometry {geo:?}"
                ),
            });
        }
        let (oh, ow) = match (
            geo.out_extent(in_shape.1, geo.kh),
            geo.out_extent(in_shape.2, geo.kw),
        ) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => {
                return Err(RuntimeError::UnsupportedLayer {
                    layer: name,
                    reason: format!(
                        "kernel {0}x{1} does not fit input {in_shape:?}",
                        geo.kh, geo.kw
                    ),
                })
            }
        };
        let mat = PackedMatrix::new(&name, weights, &act, image)?;
        if bias.len() != mat.out {
            return Err(RuntimeError::ShapeMismatch {
                expected: mat.out,
                actual: bias.len(),
            });
        }
        let out_shape = (dims[0], oh, ow);
        let deq = mat.deq_scales(&act);
        Ok(PackedConv {
            name,
            mat,
            bias,
            deq,
            act_quant: ActQuant::for_quantizer(&act),
            act,
            in_shape,
            geo,
            out_shape,
        })
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The packed kernel (`[co, ci, kh, kw]`).
    pub fn weights(&self) -> &PackedTensor {
        &self.mat.weights
    }

    /// Whether the wire codes and the integer image are both borrowed
    /// from a mapped artifact (the v2 zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.mat.weights.is_borrowed() && self.mat.image.is_borrowed()
    }

    /// The kernel data type.
    pub fn dtype(&self) -> DataType {
        self.mat.weights.dtype()
    }

    /// The activation quantizer.
    pub fn activation(&self) -> &Quantizer {
        &self.act
    }

    /// Input geometry `(ci, h, w)`.
    pub fn in_shape(&self) -> (usize, usize, usize) {
        self.in_shape
    }

    /// Output geometry `(co, oh, ow)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        self.out_shape
    }

    /// Kernel/stride/padding geometry.
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geo
    }

    /// Flattened input feature count.
    pub fn in_features(&self) -> usize {
        let (c, h, w) = self.in_shape;
        c * h * w
    }

    /// Flattened output feature count.
    pub fn out_features(&self) -> usize {
        let (c, h, w) = self.out_shape;
        c * h * w
    }

    /// Quantizes a `[batch, ci·h·w]` slice into `acts` and lowers every
    /// sample's receptive fields into `rows` (`[batch·oh·ow, ci·kh·kw]`),
    /// both directly at operand width `T`.
    fn lower<'r, T: ActInt + Default>(
        &self,
        x: &[f32],
        batch: usize,
        acts: &mut Vec<T>,
        rows: &'r mut Vec<T>,
    ) -> &'r [T] {
        let (ci, h, w) = self.in_shape;
        let (feat, k) = (self.in_features(), self.mat.inp);
        let pixels = self.out_shape.1 * self.out_shape.2;
        self.act_quant
            .apply_all_into(x, self.act.scale(), self.act.codec(), acts);
        let rows = grab(rows, batch * pixels * k, T::default());
        for s in 0..batch {
            let dst = &mut rows[s * pixels * k..(s + 1) * pixels * k];
            im2row(&acts[s * feat..(s + 1) * feat], ci, h, w, self.geo, dst);
        }
        rows
    }

    /// Executes the convolution on a `[batch, ci·h·w]` slice entirely in
    /// the integer domain: quantize → im2row → integer GEMM → dequantize,
    /// all at the layer's operand width.
    fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        check_features(x, batch, self.in_features())?;
        let (co, oh, ow) = self.out_shape;
        let (k, pixels) = (self.mat.inp, oh * ow);
        // One big GEMM over every output pixel of every sample: rows are
        // receptive fields, so weight panels stream once per row tile.
        let m = batch * pixels;
        let acc = grab(ws.acc, m * co, 0);
        match &self.mat.image {
            WeightImage::I8(pg) => {
                let rows = self.lower(x, batch, ws.act_i8, ws.rows_i8);
                pg.matmul(rows, m, acc, ws.pool, ws.threads);
            }
            WeightImage::I16(pg) => {
                let rows = self.lower(x, batch, ws.act_i16, ws.rows_i16);
                pg.matmul(rows, m, acc, ws.pool, ws.threads);
            }
            WeightImage::I32(w_rows) => {
                let rows = self.lower(x, batch, ws.act_i32, ws.rows_i32);
                int_gemm_pooled(rows, w_rows, m, k, co, acc, ws.pool, ws.threads);
            }
        }
        let acc = &*acc;
        // Dequantize + bias, scattering [batch·pixels, co] straight into
        // the [batch, co·oh·ow] layout: channel-outer so writes are
        // contiguous and the scale/bias pair is hoisted per channel.
        let ov = grab(out, batch * co * pixels, 0.0);
        for s in 0..batch {
            let acc_s = &acc[s * pixels * co..(s + 1) * pixels * co];
            let out_s = &mut ov[s * co * pixels..(s + 1) * co * pixels];
            for c in 0..co {
                let (sc, bc) = (self.deq[c], self.bias[c]);
                let dst = &mut out_s[c * pixels..(c + 1) * pixels];
                for (p, d) in dst.iter_mut().enumerate() {
                    *d = acc_s[p * co + c] as f32 * sc + bc;
                }
            }
        }
        Ok(())
    }
}

/// A self-attention block compiled to the packed integer domain. Q/K/V
/// projections consume the quantized input as integer GEMMs; scores,
/// softmax and the context product stay f32 (softmax outputs are
/// activations that "require high-precision numbers", Sec. IV-C); the
/// output projection runs as a mixed-domain GEMM — f32 context against
/// the LUT-decoded weights, scale applied per output channel at the
/// boundary — so all four projection weights live as packed wire codes.
///
/// Causality is a property of the block ([`Self::causal`]), not a
/// separate kind of layer: a causal (decoder-style) block carries a
/// KV-cache group codec, masks future tokens, takes its sequence length
/// from the input, and supports incremental decode against a packed
/// per-session KV cache ([`CompiledPlan::open_session`]). The full
/// forward, prefill and a decode step share one Q/K/V projection and
/// one output projection.
#[derive(Debug, Clone)]
pub struct PackedAttn {
    name: String,
    seq: usize,
    dim: usize,
    /// Packed q, k, v, o projections, each `[dim, dim]`.
    projs: [PackedMatrix; 4],
    /// Precomputed `act.scale() · w_scales` for the q/k/v dequants.
    deq_qkv: [Vec<f32>; 3],
    /// The o-projection's decoded lattice values as f32, **transposed**
    /// (`[in, out]`): its GEMM operand is the f32 context, so the decode
    /// happens once at compile time, and the transposed layout lets the
    /// mixed-domain product run output-major — the per-output reduction
    /// keeps its ascending-`d` addition order (bit-identical to the
    /// row-major loop) while the inner loop vectorizes over outputs.
    /// Owned on compile; borrowed from the panel section of a mapped
    /// v2 artifact on the zero-copy reload path.
    wo_t_f32: PackedStore<f32>,
    act: Quantizer,
    act_quant: ActQuant,
    /// The KV-cache group codec — `Some` iff this is a causal
    /// (decoder-style) block. Encoder blocks never touch it.
    kv: Option<KvQuant>,
}

impl PackedAttn {
    /// Builds the attention block from wire codes: each projection must
    /// be a `[dim, dim]`-shaped pack. `prebuilt` carries pre-built q/k/v/o
    /// weight images and the transposed f32 o-operand (borrowed from a
    /// mapped v2 artifact); `None` decodes them from the codes. `kv`
    /// makes the block causal, with that KV-cache quantization spec.
    pub(crate) fn from_parts(
        name: String,
        seq: usize,
        dim: usize,
        projections: [PackedTensor; 4],
        act: Quantizer,
        prebuilt: Option<([WeightImage; 4], PackedStore<f32>)>,
        kv: Option<KvQuantSpec>,
    ) -> Result<Self, RuntimeError> {
        for p in &projections {
            if p.dims() != [dim, dim] {
                return Err(RuntimeError::UnsupportedLayer {
                    layer: name,
                    reason: format!("projection shape {:?}, expected [{dim}, {dim}]", p.dims()),
                });
            }
        }
        let [q, k, v, o] = projections;
        let pm = |w, img| PackedMatrix::new(&name, w, &act, img);
        let (projs, wo_t_f32) = match prebuilt {
            Some(([qi, ki, vi, oi], wo_t)) => {
                if wo_t.len() != dim * dim {
                    return Err(RuntimeError::ShapeMismatch {
                        expected: dim * dim,
                        actual: wo_t.len(),
                    });
                }
                (
                    [
                        pm(q, Some(qi))?,
                        pm(k, Some(ki))?,
                        pm(v, Some(vi))?,
                        pm(o, Some(oi))?,
                    ],
                    wo_t,
                )
            }
            None => {
                let projs = [pm(q, None)?, pm(k, None)?, pm(v, None)?, pm(o, None)?];
                let wo_t = PackedStore::from_vec(transpose(&projs[3].rows_f32(), dim));
                (projs, wo_t)
            }
        };
        let deq_qkv = std::array::from_fn(|i| projs[i].deq_scales(&act));
        Ok(PackedAttn {
            name,
            seq,
            dim,
            projs,
            deq_qkv,
            wo_t_f32,
            act_quant: ActQuant::for_quantizer(&act),
            act,
            kv: kv.map(KvQuant::new).transpose()?,
        })
    }

    /// Whether this block masks future tokens (decoder-style).
    pub fn causal(&self) -> bool {
        self.kv.is_some()
    }

    /// The KV-cache quantization spec, on causal blocks.
    pub fn kv_spec(&self) -> Option<KvQuantSpec> {
        self.kv.as_ref().map(|k| k.spec())
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sequence length (the compiled length; a causal block takes its
    /// length from each input instead).
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Per-token feature count.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The four packed projection weights (q, k, v, o).
    pub fn projections(&self) -> [&PackedTensor; 4] {
        [
            &self.projs[0].weights,
            &self.projs[1].weights,
            &self.projs[2].weights,
            &self.projs[3].weights,
        ]
    }

    /// Whether every projection's wire codes and integer image — plus
    /// the transposed f32 o-operand — are borrowed from a mapped
    /// artifact (the v2 zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.projs
            .iter()
            .all(|p| p.weights.is_borrowed() && p.image.is_borrowed())
            && self.wo_t_f32.is_borrowed()
    }

    /// The activation quantizer.
    pub fn activation(&self) -> &Quantizer {
        &self.act
    }

    /// Flattened input (and output) feature count.
    pub fn in_features(&self) -> usize {
        self.seq * self.dim
    }

    /// Executes `Y = X̂ + softmax(QKᵀ/√d) V Woᵀ` on a `[batch, seq·dim]`
    /// slice, where `X̂` is the quantized input and Q/K/V come from integer
    /// GEMMs over its lattice codes.
    ///
    /// A causal block takes `seq` from the input (one plan serves any
    /// prompt length), masks `j > i` in the scores, and
    /// quantize-dequantizes every K/V token row through the M-ANT group
    /// codec — exactly the values an incremental decode later streams
    /// back out of its [`KvCache`]. When `sink` is supplied (the prefill
    /// path; `batch` must be 1), the quantized rows are also appended to
    /// the cache and the attention consumes them as decoded *from the
    /// cache*, keeping prefill bit-identical to the cache-less forward by
    /// construction.
    fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
        sink: Option<&mut KvCache>,
    ) -> Result<(), RuntimeError> {
        let dim = self.dim;
        let seq = if self.causal() {
            let features = x.len() / batch.max(1);
            if batch == 0
                || !x.len().is_multiple_of(batch)
                || features == 0
                || !features.is_multiple_of(dim)
            {
                return Err(RuntimeError::ShapeMismatch {
                    expected: dim,
                    actual: features,
                });
            }
            features / dim
        } else {
            check_features(x, batch, self.in_features())?;
            self.seq
        };
        debug_assert!(
            sink.is_none() || (batch == 1 && self.causal()),
            "prefill sinks are per-session, on causal blocks"
        );
        let rows = batch * seq;
        let master = self.project_qkv(x, rows, ws);
        // Move K and V into the quantized KV domain row by row — in
        // place when free-running, through the cache when prefilling
        // (bitwise identical: one shared group-encode path).
        match (&self.kv, sink) {
            (Some(kvq), Some(cache)) => {
                let base = cache.tokens();
                for r in 0..rows {
                    let kr = &ws.k[r * dim..(r + 1) * dim];
                    let vr = &ws.v[r * dim..(r + 1) * dim];
                    cache.append(kvq, kr, vr, ws.kv_codes)?;
                }
                for r in 0..rows {
                    let span = r * dim..(r + 1) * dim;
                    cache.decode_row(kvq, KvHalf::K, base + r, &mut ws.k[span.clone()]);
                    cache.decode_row(kvq, KvHalf::V, base + r, &mut ws.v[span]);
                }
            }
            (Some(kvq), None) => {
                for r in 0..rows {
                    kvq.quant_dequant_row(&mut ws.k[r * dim..(r + 1) * dim], ws.kv_codes);
                    kvq.quant_dequant_row(&mut ws.v[r * dim..(r + 1) * dim], ws.kv_codes);
                }
            }
            (None, _) => {}
        }
        self.attend(batch, seq, ws);
        self.project_out(master, rows, ws, out);
        Ok(())
    }

    /// One incremental decode step for `n` sessions at once: batches the
    /// Q/K/V projections over all `n` new token rows (the coalescing the
    /// engine's decode batching buys), appends each session's K/V row to
    /// its cache for this layer, then runs causal attention for the new
    /// token against the cached prefix, streaming rows straight out of
    /// the packed codes.
    ///
    /// Numerically this reproduces the last token row of the
    /// full-sequence causal forward **exactly**: the cache hands back the
    /// same quantized values (shared group-encode path), the reductions
    /// keep the same ascending-`d`/ascending-`j` orders, and the prefix
    /// softmax is bitwise the masked full-row softmax.
    fn decode_rows(
        &self,
        x: &[f32],
        sessions: &mut [&mut DecodeSession],
        cache_ix: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let Some(kvq) = &self.kv else {
            return Err(not_token_local_err());
        };
        let dim = self.dim;
        let rows = sessions.len();
        check_features(x, rows, dim)?;
        let master = self.project_qkv(x, rows, ws);
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        // Fixed-stride score scratch — the largest capacity any session
        // in the batch can reach — so steady-state grabs never resize.
        let stride = sessions
            .iter()
            .map(|s| s.max_tokens())
            .max()
            .unwrap_or(1)
            .max(1);
        grab(ws.ctx, rows * dim, 0.0);
        grab(ws.scores, stride, 0.0);
        grab(ws.kv_row, dim, 0.0);
        for (si, sess) in sessions.iter_mut().enumerate() {
            let cache = session_cache(sess, cache_ix, &self.name)?;
            let kr = &ws.k[si * dim..(si + 1) * dim];
            let vr = &ws.v[si * dim..(si + 1) * dim];
            cache.append(kvq, kr, vr, ws.kv_codes)?;
            let t = cache.tokens();
            let qs = &ws.q[si * dim..(si + 1) * dim];
            let a = &mut ws.scores[..t];
            let row = &mut ws.kv_row[..dim];
            for (j, aj) in a.iter_mut().enumerate() {
                cache.decode_row(kvq, KvHalf::K, j, row);
                let mut dot = 0f32;
                for d in 0..dim {
                    dot += qs[d] * row[d];
                }
                *aj = dot * inv_sqrt_d;
            }
            softmax_rows_in_place(a, 1, t);
            let cs = &mut ws.ctx[si * dim..(si + 1) * dim];
            cs.fill(0.0);
            for (j, &aij) in a.iter().enumerate() {
                cache.decode_row(kvq, KvHalf::V, j, row);
                for d in 0..dim {
                    cs[d] += aij * row[d];
                }
            }
        }
        self.project_out(master, rows, ws, out);
        Ok(())
    }

    /// Projects `rows` token rows of `x` to Q, K and V in `ws.q`,
    /// `ws.k` and `ws.v`. One `i32` master quantization serves all
    /// three projections (which may sit at different operand widths) and
    /// the residual; it is narrowed once per width any projection needs
    /// (in the common case all three share one: one pass). Q/K/V are
    /// purely row-wise, so a whole batch projects through three
    /// batch-wide integer GEMMs — the coalescing the engine batches
    /// requests for.
    ///
    /// Returns the master, taken out of the arena so the rest of the
    /// scratch stays independently borrowable (the swap is pointer-sized,
    /// not a copy); [`Self::project_out`] hands it back.
    fn project_qkv(&self, x: &[f32], rows: usize, ws: &mut LayerScratch<'_>) -> Vec<i32> {
        self.act_quant
            .apply_all_into(x, self.act.scale(), self.act.codec(), ws.act_i32);
        let master = std::mem::take(ws.act_i32);
        let qkv = &self.projs[..3];
        if qkv.iter().any(|p| matches!(p.image, WeightImage::I8(_))) {
            narrow_acts(&master, ws.act_i8);
        }
        if qkv.iter().any(|p| matches!(p.image, WeightImage::I16(_))) {
            narrow_acts(&master, ws.act_i16);
        }
        for (which, proj) in qkv.iter().enumerate() {
            let acc = proj.accumulate_master(
                &master, rows, ws.pool, ws.threads, ws.act_i8, ws.act_i16, ws.acc,
            );
            let acc = &*acc;
            let dst = match which {
                0 => &mut *ws.q,
                1 => &mut *ws.k,
                _ => &mut *ws.v,
            };
            let dst = grab(dst, rows * self.dim, 0.0);
            dequant_into(acc, rows, &self.deq_qkv[which], None, dst);
        }
        master
    }

    /// Scores, softmax and context in f32 — the decode boundary — for
    /// `batch` samples of `seq` tokens, from `ws.q`/`ws.k`/`ws.v` into
    /// `ws.ctx`. A causal block computes `j ≤ i` and pins the remaining
    /// positions to -inf (their softmax weight is exactly 0.0, so the
    /// context reduction is bitwise the prefix-only reduction decode
    /// performs); an encoder block computes every position. Attention
    /// mixes tokens only within a sample, so this parallelizes over
    /// samples: each chunk of samples owns one scores slice and writes
    /// disjoint context rows.
    fn attend(&self, batch: usize, seq: usize, ws: &mut LayerScratch<'_>) {
        let (dim, feat) = (self.dim, seq * self.dim);
        let causal = self.causal();
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        let chunks = ws.threads.min(ws.pool.width()).min(batch).max(1);
        let samples_per = batch.div_ceil(chunks);
        grab(ws.ctx, batch * feat, 0.0);
        grab(ws.scores, chunks * seq * seq, 0.0);
        let (q, k, v) = (&*ws.q, &*ws.k, &*ws.v);
        let ctx_ptr = ShareMut(ws.ctx.as_mut_ptr());
        let scores_ptr = ShareMut(ws.scores.as_mut_ptr());
        ws.pool.run(chunks, &|chunk| {
            let (ctx_dst, scores_dst) = (ctx_ptr, scores_ptr);
            // SAFETY: each chunk touches its own scores slice and the
            // context rows of its own samples — disjoint regions.
            let a = unsafe {
                std::slice::from_raw_parts_mut(scores_dst.0.add(chunk * seq * seq), seq * seq)
            };
            let lo = chunk * samples_per;
            let hi = ((chunk + 1) * samples_per).min(batch);
            for s in lo..hi {
                let qs = &q[s * feat..(s + 1) * feat];
                let ks = &k[s * feat..(s + 1) * feat];
                for i in 0..seq {
                    let visible = if causal { i + 1 } else { seq };
                    let a_row = &mut a[i * seq..(i + 1) * seq];
                    for (j, aij) in a_row[..visible].iter_mut().enumerate() {
                        let mut dot = 0f32;
                        for d in 0..dim {
                            dot += qs[i * dim + d] * ks[j * dim + d];
                        }
                        *aij = dot * inv_sqrt_d;
                    }
                    a_row[visible..].fill(f32::NEG_INFINITY);
                }
                softmax_rows_in_place(a, seq, seq);
                let vs = &v[s * feat..(s + 1) * feat];
                // SAFETY: sample `s` belongs to this chunk alone, and
                // `ws.ctx` holds `batch · feat` elements.
                let cs = unsafe { std::slice::from_raw_parts_mut(ctx_dst.0.add(s * feat), feat) };
                cs.fill(0.0);
                for i in 0..seq {
                    for j in 0..seq {
                        let aij = a[i * seq + j];
                        for d in 0..dim {
                            cs[i * dim + d] += aij * vs[j * dim + d];
                        }
                    }
                }
            }
        });
    }

    /// Output projection plus residual over `rows` context rows of
    /// `ws.ctx`, into `out`: a mixed-domain GEMM of the f32 context
    /// against the decoded lattice weights, scale at the boundary, plus
    /// the residual on the quantized input `master` — parallelized over
    /// output rows once the product is large enough to pay for it.
    /// Output-major against the transposed weights: each output's
    /// reduction still sums in ascending `d` (bit-identical to the
    /// row-major dot), but the inner loop is a broadcast-multiply-add
    /// stream over outputs the autovectorizer handles. Hands `master`
    /// (and its capacity) back to the arena.
    fn project_out(
        &self,
        master: Vec<i32>,
        rows: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
    ) {
        let dim = self.dim;
        let s_res = unit_scale(&self.act);
        let ov = grab(out, rows * dim, 0.0);
        let (ctx, a32, wo_t) = (&*ws.ctx, &master[..], &self.wo_t_f32);
        let w_scales = &self.projs[3].w_scales;
        let out_ptr = ShareMut(ov.as_mut_ptr());
        let row_tasks = if rows * dim * dim >= 1 << 18 {
            ws.threads.min(ws.pool.width()).min(rows).max(1)
        } else {
            1
        };
        let rows_per = rows.div_ceil(row_tasks);
        ws.pool.run(row_tasks, &|t| {
            let dst = out_ptr;
            let lo = t * rows_per;
            let hi = ((t + 1) * rows_per).min(rows);
            for r in lo..hi {
                // SAFETY: tasks own disjoint output rows.
                let row_out = unsafe { std::slice::from_raw_parts_mut(dst.0.add(r * dim), dim) };
                row_out.fill(0.0);
                for d in 0..dim {
                    let c = ctx[r * dim + d];
                    let w_row = &wo_t[d * dim..(d + 1) * dim];
                    for (o, out_val) in row_out.iter_mut().enumerate() {
                        *out_val += c * w_row[o];
                    }
                }
                for (o, out_val) in row_out.iter_mut().enumerate() {
                    *out_val = a32[r * dim + o] as f32 * s_res + *out_val * w_scales[o];
                }
            }
        });
        *ws.act_i32 = master;
    }
}

/// Layer normalisation state copied into a plan (γ, β and ε are the only
/// things the stateless forward needs).
#[derive(Debug, Clone)]
pub struct PlanNorm {
    name: String,
    dim: usize,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl PlanNorm {
    /// Builds the norm step from explicit parameters (artifact reload
    /// path).
    pub(crate) fn from_parts(name: String, gamma: Vec<f32>, beta: Vec<f32>, eps: f32) -> PlanNorm {
        let dim = gamma.len();
        PlanNorm {
            name,
            dim,
            gamma,
            beta,
            eps,
        }
    }

    fn from_layer(n: &LayerNorm) -> PlanNorm {
        PlanNorm {
            name: n.name().to_string(),
            dim: n.dim(),
            gamma: n.gamma().as_slice().to_vec(),
            beta: n.beta().as_slice().to_vec(),
            eps: n.eps(),
        }
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature-group size.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Normalises `dim`-sized feature groups through the shared
    /// [`layer_norm_group`] kernel — the *same* arithmetic as the
    /// reference [`LayerNorm`] forward, by construction.
    fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        // Per-row validation: every sample's feature count must be a
        // whole number of norm groups, or groups would silently straddle
        // sample boundaries (total length alone cannot catch that).
        let features = x.len() / batch.max(1);
        if batch == 0 || !x.len().is_multiple_of(batch) || !features.is_multiple_of(self.dim) {
            return Err(RuntimeError::ShapeMismatch {
                expected: self.dim,
                actual: features,
            });
        }
        let groups = x.len() / self.dim;
        let ov = grab(out, x.len(), 0.0);
        for gi in 0..groups {
            let lo = gi * self.dim;
            layer_norm_group(
                &x[lo..lo + self.dim],
                &self.gamma,
                &self.beta,
                self.eps,
                None,
                &mut ov[lo..lo + self.dim],
            );
        }
        Ok(())
    }
}

/// 2×2/stride-2 max pooling over a `[batch, c·h·w]` slice — arithmetic
/// identical to the reference `MaxPool2` forward (pooling commutes with
/// the monotone dequantization, so it is free in either domain).
fn maxpool2_rows(
    x: &[f32],
    batch: usize,
    in_shape: (usize, usize, usize),
    out: &mut Vec<f32>,
) -> Result<(), RuntimeError> {
    let (c, h, w) = in_shape;
    check_features(x, batch, c * h * w)?;
    let (oh, ow) = (h / 2, w / 2);
    let ov = grab(out, batch * c * oh * ow, 0.0);
    for s in 0..batch {
        let xin = &x[s * c * h * w..(s + 1) * c * h * w];
        let xout = &mut ov[s * c * oh * ow..(s + 1) * c * oh * ow];
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = (ci * h + oy * 2 + dy) * w + ox * 2 + dx;
                            if xin[idx] > best {
                                best = xin[idx];
                            }
                        }
                    }
                    xout[(ci * oh + oy) * ow + ox] = best;
                }
            }
        }
    }
    Ok(())
}

/// One executable step of a compiled plan.
#[derive(Debug, Clone)]
pub enum PlanLayer {
    /// Packed-domain dense layer (boxed: an order of magnitude larger
    /// than the other variants).
    Packed(Box<PackedLinear>),
    /// Packed-domain convolution (integer im2row + GEMM).
    PackedConv(Box<PackedConv>),
    /// Packed-domain attention block (integer Q/K/V, f32 softmax). When
    /// [`PackedAttn::causal`] it is decoder-style: it masks future
    /// tokens, takes its sequence length from the input, and supports
    /// incremental decode against a per-session packed `KvCache` (see
    /// [`CompiledPlan::open_session`]).
    PackedAttn(Box<PackedAttn>),
    /// ReLU (free in either domain).
    Relu,
    /// GELU (decode-boundary activation, f32 — paper Fig. 4).
    Gelu,
    /// 2×2 max pooling (monotone, so free in either domain).
    Pool {
        /// Input geometry `(c, h, w)`.
        in_shape: (usize, usize, usize),
    },
    /// Layer normalisation (decode-boundary, f32).
    Norm(Box<PlanNorm>),
}

/// An executable quantized inference plan.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    layers: Vec<PlanLayer>,
    in_features: Option<usize>,
    threads: usize,
    pool: Arc<WorkerPool>,
    scratch: Scratch,
}

impl CompiledPlan {
    /// Compiles a plan from a model whose quantizable layers already carry
    /// quantizers (e.g. after [`ant_nn::qat::quantize_model`] or via
    /// [`crate::Planner::compile`], which adds the memoizing cache). Every
    /// layer lowers to the packed integer domain or compilation fails.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::NotQuantized`] when a quantizable layer has no
    ///   weight/activation quantizers,
    /// * [`RuntimeError::UnsupportedType`] when a selected type has no
    ///   integer image (see [`Codec::decode_lut_int`]).
    pub fn from_quantized(model: &Sequential) -> Result<Self, RuntimeError> {
        let mut layers = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            layers.push(match layer {
                NetLayer::Dense(d) => PlanLayer::Packed(Box::new(pack_dense(d)?)),
                NetLayer::Conv(c) => PlanLayer::PackedConv(Box::new(pack_conv(c)?)),
                NetLayer::Attn(a) => PlanLayer::PackedAttn(Box::new(pack_attn(a)?)),
                NetLayer::Relu(_) => PlanLayer::Relu,
                NetLayer::Gelu(_) => PlanLayer::Gelu,
                NetLayer::Pool(p) => PlanLayer::Pool {
                    in_shape: p.in_shape(),
                },
                NetLayer::Norm(n) => PlanLayer::Norm(Box::new(PlanNorm::from_layer(n))),
            });
        }
        Ok(Self::from_plan_layers(layers))
    }

    /// Former strict spelling of [`Self::from_quantized`], which now
    /// always refuses what it cannot lower.
    #[doc(hidden)]
    pub fn from_quantized_strict(model: &Sequential) -> Result<Self, RuntimeError> {
        Self::from_quantized(model)
    }

    /// Assembles a plan from already-lowered steps (the artifact reload
    /// path, where packed layers are rebuilt straight from wire codes).
    pub(crate) fn from_plan_layers(layers: Vec<PlanLayer>) -> Self {
        // Shape-polymorphic prefix layers (relu/gelu/norm) preserve
        // width, so the first layer that pins a width pins the plan's
        // input — a transformer opening with layer norm still reports
        // the attention block's width.
        let in_features = layers.iter().find_map(plan_layer_in_features);
        let pool = Arc::clone(WorkerPool::global());
        let threads = pool.width();
        CompiledPlan {
            layers,
            in_features,
            threads,
            pool,
            scratch: Scratch::default(),
        }
    }

    /// Overrides the GEMM parallelism cap (defaults to the pool's width).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Executes this plan on a dedicated [`WorkerPool`] instead of the
    /// process-wide one (e.g. to isolate a latency-critical engine from
    /// other tenants).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.threads = self.threads.min(pool.width()).max(1);
        self.pool = pool;
        self
    }

    /// The plan's steps.
    pub fn layers(&self) -> &[PlanLayer] {
        &self.layers
    }

    /// Expected input feature count, when some layer pins one (width
    /// propagates backwards through any shape-polymorphic prefix).
    pub fn in_features(&self) -> Option<usize> {
        self.in_features
    }

    /// Number of layers carrying packed wire codes (dense, conv,
    /// attention).
    pub fn packed_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| {
                matches!(
                    l,
                    PlanLayer::Packed(_) | PlanLayer::PackedConv(_) | PlanLayer::PackedAttn(_)
                )
            })
            .count()
    }

    /// Number of packed compute layers whose wire codes *and* integer
    /// weight images are all borrowed from a mapped artifact rather than
    /// owned by the plan — `packed_layer_count()` for a v2 zero-copy
    /// load, `0` for a compiled or v1-loaded plan.
    pub fn borrowed_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| match l {
                PlanLayer::Packed(p) => p.weights_borrowed(),
                PlanLayer::PackedConv(p) => p.weights_borrowed(),
                PlanLayer::PackedAttn(p) => p.weights_borrowed(),
                _ => false,
            })
            .count()
    }

    /// Bytes of packed weight storage (the aligned `⌈n·bits/8⌉` footprint),
    /// versus the f32 bytes the same weights would occupy.
    pub fn weight_bytes(&self) -> (usize, usize) {
        let mut packed = 0usize;
        let mut f32_bytes = 0usize;
        let mut add = |t: &PackedTensor| {
            packed += t.size_bytes();
            f32_bytes += t.len() * std::mem::size_of::<f32>();
        };
        for l in &self.layers {
            match l {
                PlanLayer::Packed(p) => add(p.weights()),
                PlanLayer::PackedConv(p) => add(p.weights()),
                PlanLayer::PackedAttn(p) => p.projections().into_iter().for_each(&mut add),
                _ => {}
            }
        }
        (packed, f32_bytes)
    }

    /// Runs a `[batch, features]` tensor through the plan.
    ///
    /// Integer-domain layers are exact, so outputs are deterministic and
    /// independent of how requests were grouped into the batch.
    ///
    /// This is the [`Tensor`] convenience wrapper over
    /// [`Self::forward_rows`]; it allocates the output tensor. Steady-state
    /// serving paths that care about allocation should call
    /// [`Self::forward_rows`] with a reused output buffer instead.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, RuntimeError> {
        if self.layers.is_empty() {
            return Ok(x.clone());
        }
        if x.rank() != 2 {
            return Err(RuntimeError::ShapeMismatch {
                expected: self.in_features.unwrap_or(0),
                actual: x.len(),
            });
        }
        let batch = x.dims()[0];
        let mut out = Vec::new();
        self.forward_rows(x.as_slice(), batch, &mut out)?;
        let features = out.len() / batch;
        Ok(Tensor::from_vec(out, &[batch, features]).expect("output length is batch × features"))
    }

    /// Runs `batch` rows (a `[batch, features]` slice) through the plan
    /// into `out` — the allocation-free serving entry point: every
    /// intermediate lives in the plan's [`Scratch`] arena and `out` is
    /// `clear`ed and refilled in place, so once buffers have reached
    /// their high-water marks a call performs **zero heap allocations**.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] when `batch` is zero, `x` is not a
    /// whole number of rows, or a layer's expected feature count
    /// disagrees.
    pub fn forward_rows(
        &mut self,
        x: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        if batch == 0 || !x.len().is_multiple_of(batch) {
            return Err(RuntimeError::ShapeMismatch {
                expected: self.in_features.unwrap_or(0),
                actual: x.len(),
            });
        }
        self.run(
            x,
            Phase::Forward {
                batch,
                session: None,
            },
            out,
        )
    }

    /// The pipeline driver behind [`Self::forward_rows`],
    /// [`Self::prefill`] and [`Self::decode_steps`] (callers validate
    /// their arguments): stages `x` in the arena, ping-pongs it through
    /// every layer, records per-layer telemetry and copies the result
    /// into `out`. Only attention blocks, convolution and pooling care
    /// about the phase; token-local layers run batched over its rows.
    fn run(
        &mut self,
        x: &[f32],
        mut phase: Phase<'_, '_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let (rows, decode_ctx) = phase.rows_and_context();
        let threads = self.threads;
        let pool = &*self.pool;
        let Scratch {
            act_i8,
            act_i16,
            act_i32,
            rows_i8,
            rows_i16,
            rows_i32,
            acc,
            q,
            k,
            v,
            scores,
            ctx,
            kv_row,
            kv_codes,
            ping,
            pong,
        } = &mut self.scratch;
        grab(ping, x.len(), 0.0).copy_from_slice(x);
        let mut cur_is_ping = true;
        let mut causal_ix = 0usize;
        // Timing is chained — one clock read per layer boundary (layer
        // i's end stamp is layer i+1's start), never inside GEMM tiles.
        let fwd = obs::metrics();
        let t0 = obs::now();
        let mut t_prev = t0;
        for layer in &self.layers {
            let (cur, next) = if cur_is_ping {
                (&mut *ping, &mut *pong)
            } else {
                (&mut *pong, &mut *ping)
            };
            let in_len = cur.len();
            let mut ws = LayerScratch {
                pool,
                threads,
                act_i8,
                act_i16,
                act_i32,
                rows_i8,
                rows_i16,
                rows_i32,
                acc,
                q,
                k,
                v,
                scores,
                ctx,
                kv_row,
                kv_codes,
            };
            // Whether the layer wrote `next` (the pipeline flips) rather
            // than rewriting `cur` in place.
            let flips = match layer {
                PlanLayer::Packed(p) => {
                    p.forward_rows(cur, rows, &mut ws, next)?;
                    true
                }
                PlanLayer::PackedAttn(p) => {
                    match &mut phase {
                        Phase::Forward { session, .. } => {
                            let sink = match session.as_deref_mut() {
                                Some(s) if p.causal() => {
                                    Some(session_cache(s, causal_ix, p.name())?)
                                }
                                _ => None,
                            };
                            p.forward_rows(cur, rows, &mut ws, next, sink)?;
                        }
                        Phase::Decode(sessions) => {
                            p.decode_rows(cur, sessions, causal_ix, &mut ws, next)?
                        }
                    }
                    causal_ix += usize::from(p.causal());
                    true
                }
                PlanLayer::Relu => {
                    for v in cur.iter_mut() {
                        *v = v.max(0.0);
                    }
                    false
                }
                PlanLayer::Gelu => {
                    for v in cur.iter_mut() {
                        *v = gelu(*v);
                    }
                    false
                }
                PlanLayer::Norm(n) => {
                    n.forward_rows(cur, rows, next)?;
                    true
                }
                // Unreachable when the session came from `open_session`
                // (it validates the whole plan); kept as a structured
                // error for hand-built sessions.
                PlanLayer::PackedConv(_) | PlanLayer::Pool { .. } if decode_ctx.is_some() => {
                    return Err(not_token_local_err());
                }
                PlanLayer::PackedConv(p) => {
                    p.forward_rows(cur, rows, &mut ws, next)?;
                    true
                }
                PlanLayer::Pool { in_shape } => {
                    maxpool2_rows(cur, rows, *in_shape, next)?;
                    true
                }
            };
            let t_now = obs::now();
            let out_len = if flips { next.len() } else { in_len };
            cur_is_ping ^= flips;
            let (kind, macs, bytes) = layer_obs_info(layer, rows, in_len, out_len, decode_ctx);
            fwd.record_layer(kind, t_prev, t_now - t_prev, rows as u64, macs, bytes);
            t_prev = t_now;
        }
        fwd.record_forward(t0, t_prev.saturating_sub(t0), rows as u64);
        let cur = if cur_is_ping { &*ping } else { &*pong };
        out.clear();
        out.extend_from_slice(cur);
        Ok(())
    }

    /// Whether this plan contains a causal attention layer
    /// ([`PackedAttn::causal`]) — and so supports [`Self::open_session`]
    /// / [`Self::prefill`] / [`Self::decode_steps`].
    pub fn is_causal(&self) -> bool {
        self.layers
            .iter()
            .any(|l| matches!(l, PlanLayer::PackedAttn(p) if p.causal()))
    }

    /// The per-token feature width of the decode pipeline (the first
    /// width-pinning decode step's input); `None` for non-causal plans.
    pub fn token_dim(&self) -> Option<usize> {
        if !self.is_causal() {
            return None;
        }
        self.layers.iter().find_map(|l| match l {
            PlanLayer::Packed(p) => Some(p.in_features()),
            PlanLayer::PackedAttn(p) if p.causal() => Some(p.dim()),
            _ => None,
        })
    }

    /// Replaces the KV-cache quantization spec on every causal layer
    /// (validating it once — combo members that don't support
    /// `spec.bits` are skipped, an empty candidate set is an error).
    ///
    /// Sessions store data laid out for the codec that wrote them: open
    /// sessions *after* configuring the plan, never across a spec
    /// change.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] for an invalid spec or a plan
    /// with no causal attention layer.
    pub fn with_kv_quant(mut self, spec: KvQuantSpec) -> Result<Self, RuntimeError> {
        let kvq = KvQuant::new(spec)?;
        let mut hit = false;
        for l in &mut self.layers {
            if let PlanLayer::PackedAttn(p) = l {
                if let Some(kv) = &mut p.kv {
                    *kv = kvq.clone();
                    hit = true;
                }
            }
        }
        if !hit {
            return Err(no_causal_err());
        }
        Ok(self)
    }

    /// Opens a decode session: one fixed-capacity packed KV cache per
    /// causal attention layer ([`PackedAttn::causal`]), every byte
    /// allocated *here* so the per-step hot path never touches the
    /// allocator. Also validates that every plan step can execute in the
    /// decode phase (token-local or causal attention).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] when `max_tokens` is zero, the
    /// plan has no causal layer, or a step is not decodable
    /// (convolution/pooling/encoder attention).
    pub fn open_session(&self, max_tokens: usize) -> Result<DecodeSession, RuntimeError> {
        self.session_factory()?.open(max_tokens)
    }

    /// A pre-validated session-opening recipe, detachable from the plan:
    /// [`crate::Engine`] hands its plan to the worker thread but still
    /// opens sessions on the caller side through one of these. Captures
    /// each causal layer's width and KV codec, so a factory must not
    /// outlive a [`Self::with_kv_quant`] reconfiguration of its plan.
    ///
    /// # Errors
    ///
    /// The same plan-composition errors as [`Self::open_session`].
    pub(crate) fn session_factory(&self) -> Result<SessionFactory, RuntimeError> {
        let mut layers = Vec::new();
        for l in &self.layers {
            match l {
                PlanLayer::PackedAttn(p) => match &p.kv {
                    Some(kv) => layers.push((p.dim(), kv.clone())),
                    None => {
                        return Err(decode_err(format!(
                            "layer {} is encoder-style attention; decode needs causal blocks",
                            p.name()
                        )));
                    }
                },
                PlanLayer::Packed(_) | PlanLayer::Relu | PlanLayer::Gelu | PlanLayer::Norm(_) => {}
                PlanLayer::PackedConv(p) => {
                    return Err(decode_err(format!(
                        "layer {} (convolution) is not token-local",
                        p.name()
                    )));
                }
                PlanLayer::Pool { .. } => {
                    return Err(decode_err("pooling is not token-local".to_string()));
                }
            }
        }
        if layers.is_empty() {
            return Err(no_causal_err());
        }
        Ok(SessionFactory { layers })
    }

    /// Prefill: runs the whole prompt (a `[1, n·token_dim]` slice)
    /// through the full-sequence causal pipeline, filling `session`'s KV
    /// caches along the way, and returns every token's output row in
    /// `out` (the last row is the next-token state). `session` must be
    /// freshly opened.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] for a prompt that is not a whole
    /// number of token rows, [`RuntimeError::KvCacheFull`] for one
    /// longer than the session capacity, and
    /// [`RuntimeError::UnsupportedLayer`] for a non-causal plan or a
    /// session that already holds tokens.
    pub fn prefill(
        &mut self,
        session: &mut DecodeSession,
        x: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let dim = self.token_dim().ok_or_else(no_causal_err)?;
        if session.tokens() != 0 {
            return Err(decode_err(format!(
                "prefill needs a fresh session (this one already holds {} tokens)",
                session.tokens()
            )));
        }
        if x.is_empty() || !x.len().is_multiple_of(dim) {
            return Err(RuntimeError::ShapeMismatch {
                expected: dim,
                actual: x.len(),
            });
        }
        if x.len() / dim > session.max_tokens() {
            return Err(RuntimeError::KvCacheFull {
                capacity: session.max_tokens(),
            });
        }
        self.run(
            x,
            Phase::Forward {
                batch: 1,
                session: Some(session),
            },
            out,
        )
    }

    /// One batched decode step: each of the `n` sessions contributes the
    /// new token row at the same index of `x` (`[n, token_dim]`), and
    /// `out` receives the `n` output rows. Causal layers append to and
    /// stream from each session's packed KV cache; token-local layers
    /// (dense/ReLU/GELU/norm) run batched over the `n` rows — this is
    /// the coalescing [`crate::Engine`]'s decode batching exploits.
    /// After warmup a step performs **zero heap allocations**
    /// (allocator-enforced by `alloc_steady.rs`).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] for a malformed `x`,
    /// [`RuntimeError::KvCacheFull`] when any session is at capacity,
    /// and [`RuntimeError::UnsupportedLayer`] for non-decodable plans.
    pub fn decode_steps(
        &mut self,
        sessions: &mut [&mut DecodeSession],
        x: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let dim = self.token_dim().ok_or_else(no_causal_err)?;
        let n = sessions.len();
        if n == 0 || x.len() != n * dim {
            return Err(RuntimeError::ShapeMismatch {
                expected: dim,
                actual: x.len().checked_div(n.max(1)).unwrap_or(0),
            });
        }
        for s in sessions.iter() {
            if s.tokens() >= s.max_tokens() {
                return Err(RuntimeError::KvCacheFull {
                    capacity: s.max_tokens(),
                });
            }
        }
        self.run(x, Phase::Decode(sessions), out)
    }
}

/// What one pass of [`CompiledPlan::run`] executes.
enum Phase<'a, 'b> {
    /// The full forward over `batch` samples. With a session (prefill,
    /// `batch` 1), every causal layer's K/V rows also land in that
    /// session's caches.
    Forward {
        batch: usize,
        session: Option<&'a mut DecodeSession>,
    },
    /// One decode step: one new token row per session, causal layers
    /// appending to and streaming from each session's caches.
    Decode(&'a mut [&'b mut DecodeSession]),
}

impl Phase<'_, '_> {
    /// The rows this pass pushes through the pipeline and, for a decode
    /// step, the total context its attention rows read: each session's
    /// cached tokens plus the one the step appends.
    fn rows_and_context(&self) -> (usize, Option<u64>) {
        match self {
            Phase::Forward { batch, .. } => (*batch, None),
            Phase::Decode(sessions) => (
                sessions.len(),
                Some(sessions.iter().map(|s| s.tokens() as u64 + 1).sum()),
            ),
        }
    }
}

/// `sess`'s KV cache for the plan's `ix`-th causal layer (`layer` names
/// it in the error).
fn session_cache<'s>(
    sess: &'s mut DecodeSession,
    ix: usize,
    layer: &str,
) -> Result<&'s mut KvCache, RuntimeError> {
    sess.caches
        .get_mut(ix)
        .ok_or_else(|| RuntimeError::UnsupportedLayer {
            layer: layer.to_string(),
            reason: "decode session does not match this plan's causal layers".to_string(),
        })
}

/// A plan's session-opening recipe, detached from the plan itself: the
/// per-causal-layer token width and KV codec, pre-validated by
/// [`CompiledPlan::session_factory`]. Lets [`crate::Engine`] open
/// sessions after its plan moved into the worker thread.
#[derive(Debug, Clone)]
pub(crate) struct SessionFactory {
    /// `(dim, codec)` for each causal layer, in plan order.
    layers: Vec<(usize, KvQuant)>,
}

impl SessionFactory {
    /// Opens a session with room for `max_tokens` tokens per layer —
    /// every byte of cache storage is allocated here, none on the
    /// decode hot path.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] when `max_tokens` is zero.
    pub(crate) fn open(&self, max_tokens: usize) -> Result<DecodeSession, RuntimeError> {
        if max_tokens == 0 {
            return Err(decode_err(
                "session capacity must be at least one token".to_string(),
            ));
        }
        let caches = self
            .layers
            .iter()
            .map(|(dim, kv)| KvCache::new(*dim, max_tokens, kv))
            .collect();
        Ok(DecodeSession::new(caches, max_tokens))
    }
}

/// Structured "this isn't decodable" error.
fn decode_err(reason: String) -> RuntimeError {
    RuntimeError::UnsupportedLayer {
        layer: "decode".to_string(),
        reason,
    }
}

/// The error every decode entry point returns on a non-causal plan.
fn no_causal_err() -> RuntimeError {
    decode_err("plan has no causal attention layer".to_string())
}

/// The error a decode step returns on a layer that mixes positions
/// other than through a KV cache (convolution, pooling, encoder
/// attention).
fn not_token_local_err() -> RuntimeError {
    decode_err("a non-token-local layer cannot execute in the decode phase".to_string())
}

/// Work accounting for one executed plan layer: `(kind, MACs, bytes
/// touched)` for `batch` rows with `in_len`/`out_len` f32 activations.
/// `decode_ctx` is `Some(Σt)` for a decode step — the sum over sessions
/// of the tokens each new row attends to — and `None` for a full
/// forward. MACs count GEMM multiply-accumulates (zero for non-GEMM
/// layers); bytes count the f32 activations read and written plus one
/// streamed pass over the integer weight image (and the im2row lowering
/// for convolutions) — the quantities `antc stats` turns into GOPS and
/// effective-bandwidth figures. All of it is a handful of integer
/// multiplies against already-resident struct fields; with telemetry
/// compiled out the no-op consumer lets the whole call fold away.
fn layer_obs_info(
    layer: &PlanLayer,
    batch: usize,
    in_len: usize,
    out_len: usize,
    decode_ctx: Option<u64>,
) -> (LayerKind, u64, u64) {
    let b = batch as u64;
    let act_bytes = ((in_len + out_len) * std::mem::size_of::<f32>()) as u64;
    match layer {
        PlanLayer::Packed(p) => {
            let (o, i) = (p.mat.out as u64, p.mat.inp as u64);
            let w = (p.mat.out * p.mat.inp * p.mat.image.elem_bytes()) as u64;
            (LayerKind::PackedLinear, b * o * i, act_bytes + w)
        }
        PlanLayer::PackedConv(p) => {
            let (co, oh, ow) = p.out_shape;
            let k = p.mat.inp as u64;
            let pixels = (oh * ow) as u64;
            let elem = p.mat.image.elem_bytes() as u64;
            let w = (p.mat.out * p.mat.inp) as u64 * elem;
            // The im2row matrix is written and then streamed by the GEMM
            // at the operand width.
            let rows_bytes = 2 * b * pixels * k * elem;
            (
                LayerKind::PackedConv,
                b * pixels * k * co as u64,
                act_bytes + w + rows_bytes,
            )
        }
        PlanLayer::PackedAttn(p) => {
            // Four [d, d] projections per token row, plus the score and
            // context products against every key a row sees.
            let d = p.dim as u64;
            let macs = match decode_ctx {
                // One new row per session, against that session's t
                // cached tokens: Σ (4d² + 2·t·d).
                Some(ctx) => b * 4 * d * d + 2 * ctx * d,
                // s tokens per sample (`in_len / (batch·dim)`: the fixed
                // sequence, or a causal block's prompt length), s×s
                // scores and context.
                None => {
                    let s = ((in_len as u64) / b.max(1) / d.max(1)).max(1);
                    b * (4 * s * d * d + 2 * s * s * d)
                }
            };
            let w: u64 = p
                .projs
                .iter()
                .map(|m| (m.out * m.inp * m.image.elem_bytes()) as u64)
                .sum::<u64>()
                + (p.wo_t_f32.len() * std::mem::size_of::<f32>()) as u64;
            (LayerKind::PackedAttn, macs, act_bytes + w)
        }
        PlanLayer::Relu => (LayerKind::Relu, 0, act_bytes),
        PlanLayer::Gelu => (LayerKind::Gelu, 0, act_bytes),
        PlanLayer::Pool { .. } => (LayerKind::Pool, 0, act_bytes),
        PlanLayer::Norm(_) => (LayerKind::Norm, 0, act_bytes),
    }
}

/// Input feature count implied by a lowered plan step, when it has one.
fn plan_layer_in_features(layer: &PlanLayer) -> Option<usize> {
    match layer {
        PlanLayer::Packed(p) => Some(p.in_features()),
        PlanLayer::PackedConv(p) => Some(p.in_features()),
        // A causal block takes its sequence length from the input.
        PlanLayer::PackedAttn(p) if !p.causal() => Some(p.in_features()),
        PlanLayer::Pool {
            in_shape: (c, h, w),
        } => Some(c * h * w),
        _ => None,
    }
}

/// Packs one quantized dense layer: encodes the fake-quantized weight onto
/// wire codes and builds the layer from them, exactly as a reload from a
/// saved artifact does.
fn pack_dense(d: &Dense) -> Result<PackedLinear, RuntimeError> {
    let name = d.name().to_string();
    let (wq, aq) = require_quantizers(&name, &d.quant.weight, &d.quant.activation)?;
    let (out, inp) = (d.out_features(), d.in_features());
    let weights = pack_weight_tensor(d.weight().as_slice(), out, inp, wq, &[out, inp])?;
    PackedLinear::from_parts(
        name,
        weights,
        d.bias().as_slice().to_vec(),
        aq.clone(),
        None,
    )
}

/// Packs one quantized convolution: kernel codes shaped `[co, ci, kh, kw]`
/// with per-output-channel scales, geometry captured for the im2row
/// lowering.
fn pack_conv(c: &Conv2d) -> Result<PackedConv, RuntimeError> {
    let name = c.name().to_string();
    let (wq, aq) = require_quantizers(&name, &c.quant.weight, &c.quant.activation)?;
    let dims = c.weight().dims().to_vec();
    let (co, kin) = (dims[0], dims[1] * dims[2] * dims[3]);
    let weights = pack_weight_tensor(c.weight().as_slice(), co, kin, wq, &dims)?;
    PackedConv::from_parts(
        name,
        weights,
        c.bias().as_slice().to_vec(),
        aq.clone(),
        c.in_shape(),
        c.geometry(),
        None,
    )
}

/// Packs one quantized attention block: all four projection weights onto
/// wire codes plus the shared input-activation quantizer. A causal block
/// carries the default M-ANT KV group codec; override it per plan with
/// [`CompiledPlan::with_kv_quant`].
fn pack_attn(a: &Attention) -> Result<PackedAttn, RuntimeError> {
    let name = a.name().to_string();
    let not_quantized = || RuntimeError::NotQuantized {
        layer: name.clone(),
    };
    let aq = a.quant.activation.as_ref().ok_or_else(not_quantized)?;
    let dim = a.dim();
    let mut projections = Vec::with_capacity(4);
    for (w, wq) in a.projection_weights().iter().zip(&a.quant.weights) {
        let wq = wq.as_ref().ok_or_else(not_quantized)?;
        projections.push(pack_weight_tensor(w.as_slice(), dim, dim, wq, &[dim, dim])?);
    }
    let projections: [PackedTensor; 4] = projections.try_into().expect("exactly four projections");
    let kv = a.causal().then(KvQuantSpec::default);
    PackedAttn::from_parts(name, a.seq(), dim, projections, aq.clone(), None, kv)
}

/// Unwraps a layer's weight/activation quantizer pair or reports it as
/// unquantized.
fn require_quantizers<'a>(
    name: &str,
    weight: &'a Option<TensorQuantizer>,
    activation: &'a Option<Quantizer>,
) -> Result<(&'a TensorQuantizer, &'a Quantizer), RuntimeError> {
    match (weight, activation) {
        (Some(w), Some(a)) => Ok((w, a)),
        _ => Err(RuntimeError::NotQuantized {
            layer: name.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_core::{ClipSearch, Granularity};
    use ant_nn::model::{decoder_block, mlp, small_cnn, tiny_transformer, transformer_block};
    use ant_nn::qat::{quantize_model, QuantSpec};
    use ant_tensor::dist::{sample_tensor, Distribution};

    fn gaussian(dims: &[usize], seed: u64) -> Tensor {
        sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            dims,
            seed,
        )
    }

    fn quantized_mlp() -> (Sequential, Tensor) {
        let mut model = mlp(8, 4, 11);
        let calib = gaussian(&[64, 8], 3);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        (model, calib)
    }

    fn assert_close(plan: &mut CompiledPlan, model: &mut Sequential, x: &Tensor) {
        let reference = model.forward(x).unwrap();
        let out = plan.forward(x).unwrap();
        assert_eq!(out.dims(), reference.dims());
        for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                "packed {a} vs reference {b}"
            );
        }
    }

    #[test]
    fn plan_matches_fake_quantized_forward() {
        let (mut model, calib) = quantized_mlp();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        assert_eq!(plan.packed_layer_count(), 3);
        assert_eq!(plan.in_features(), Some(8));
        let x = calib;
        assert_close(&mut plan, &mut model, &x);
    }

    #[test]
    fn default_plans_pack_byte_images() {
        // The paper's 4-bit selections must land on the i8 microkernel
        // path — that is the whole economics of the narrow kernel.
        let (model, _) = quantized_mlp();
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        for l in plan.layers() {
            if let PlanLayer::Packed(p) = l {
                assert!(
                    matches!(p.mat.image, WeightImage::I8(_)),
                    "{}: expected byte image",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn cnn_plan_runs_packed_end_to_end() {
        let mut model = small_cnn(4, 7);
        let calib = gaussian(&[24, 144], 9);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        assert_eq!(plan.packed_layer_count(), 3); // conv1, conv2, head
        assert_eq!(plan.in_features(), Some(144));
        assert!(plan
            .layers()
            .iter()
            .any(|l| matches!(l, PlanLayer::PackedConv(_))));
        let x = gaussian(&[5, 144], 13);
        assert_close(&mut plan, &mut model, &x);
    }

    #[test]
    fn transformer_plan_runs_packed_end_to_end() {
        for (mut model, feat) in [
            (transformer_block(4, 8, 3, 21), 32usize),
            (tiny_transformer(4, 8, 3, 23), 32),
        ] {
            let calib = gaussian(&[24, feat], 11);
            quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
            let mut plan = CompiledPlan::from_quantized(&model).unwrap();
            assert!(plan
                .layers()
                .iter()
                .any(|l| matches!(l, PlanLayer::PackedAttn(_))));
            let x = gaussian(&[3, feat], 17);
            assert_close(&mut plan, &mut model, &x);
        }
    }

    #[test]
    fn decode_step_attention_macs_count_the_cached_context() {
        let (seq, dim) = (8, 16);
        let mut model = decoder_block(seq, dim, 1, 3);
        quantize_model(
            &mut model,
            &gaussian(&[24, seq * dim], 5),
            QuantSpec::default(),
        )
        .unwrap();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        // The driver's decode context: sessions holding 4 and 1 tokens
        // each attend to one more (the row this step appends).
        let (mut s4, mut s1) = (
            plan.open_session(seq).unwrap(),
            plan.open_session(seq).unwrap(),
        );
        let x = gaussian(&[1, 4 * dim], 7);
        let mut out = Vec::new();
        plan.prefill(&mut s4, x.as_slice(), &mut out).unwrap();
        plan.prefill(&mut s1, &x.as_slice()[..dim], &mut out)
            .unwrap();
        let phase = Phase::Decode(&mut [&mut s4, &mut s1]);
        assert_eq!(phase.rows_and_context(), (2, Some(5 + 2)));
        let attn = plan
            .layers()
            .iter()
            .find(|l| matches!(l, PlanLayer::PackedAttn(p) if p.causal()))
            .unwrap();
        // One row at context 512: 4d² projection MACs plus 2·t·d score
        // and context MACs, not the 4d² + 2d an input-derived s = 1 gives.
        let d = dim as u64;
        let (kind, macs, _) = layer_obs_info(attn, 1, dim, dim, Some(512));
        assert_eq!(kind, LayerKind::PackedAttn);
        assert_eq!(macs, 4 * d * d + 2 * 512 * d);
        let (_, macs, _) = layer_obs_info(attn, 2, 2 * dim, 2 * dim, Some(7));
        assert_eq!(macs, 2 * 4 * d * d + 2 * 7 * d);
        // A full forward over a 5-token prompt still counts 5×5.
        let (_, macs, _) = layer_obs_info(attn, 1, 5 * dim, 5 * dim, None);
        assert_eq!(macs, 4 * 5 * d * d + 2 * 25 * d);
    }

    /// Re-fits one dense layer of `model` at `dt`: the weight (`weight:
    /// true`) or the input activation.
    fn force_dense_type(model: &mut Sequential, layer: usize, dt: DataType, weight: bool) {
        let calib = gaussian(&[64, 8], 3);
        let inputs = ant_nn::qat::capture_layer_inputs(model, &calib).unwrap();
        let NetLayer::Dense(d) = &mut model.layers_mut()[layer] else {
            panic!("layer {layer} is not dense");
        };
        if weight {
            let (q, _) = TensorQuantizer::fit(
                dt,
                &d.weight().clone(),
                Granularity::PerChannel,
                ClipSearch::default(),
            )
            .unwrap();
            d.quant.weight = Some(q);
        } else {
            let input = inputs[layer].as_ref().unwrap();
            let (q, _) = Quantizer::fit(dt, input.as_slice(), ClipSearch::default()).unwrap();
            d.quant.activation = Some(q);
        }
    }

    #[test]
    fn float_typed_layers_run_on_the_integer_gemm() {
        // Weight and activation both float: the lattice units fold into
        // the dequant scales, and the 4-bit image stays byte-wide.
        let (mut model, calib) = quantized_mlp();
        force_dense_type(&mut model, 2, DataType::float(4, true).unwrap(), true);
        force_dense_type(&mut model, 2, DataType::float(8, false).unwrap(), false);
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        assert_eq!(plan.packed_layer_count(), 3);
        let PlanLayer::Packed(p) = &plan.layers()[2] else {
            panic!("fc2 is not packed");
        };
        assert!(
            matches!(p.mat.image, WeightImage::I16(_)),
            "float8 acts need i16"
        );
        assert_close(&mut plan, &mut model, &calib);
    }

    #[test]
    fn lattice_without_an_i32_image_is_refused() {
        // pot6u magnitudes reach 2^62: refused by name, never saturated.
        let (mut model, _) = quantized_mlp();
        let pot6u = DataType::pot(6, false).unwrap();
        force_dense_type(&mut model, 2, pot6u, false);
        match CompiledPlan::from_quantized(&model) {
            Err(RuntimeError::UnsupportedType { layer, dtype }) => {
                assert_eq!((layer.as_str(), dtype), ("fc2", pot6u))
            }
            other => panic!("expected UnsupportedType, got {other:?}"),
        }
    }

    #[test]
    fn batched_equals_single_row_execution() {
        let (model, calib) = quantized_mlp();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        let batched = plan.forward(&calib).unwrap();
        let f = calib.dims()[1];
        for i in 0..calib.dims()[0] {
            let row =
                Tensor::from_vec(calib.as_slice()[i * f..(i + 1) * f].to_vec(), &[1, f]).unwrap();
            let single = plan.forward(&row).unwrap();
            assert_eq!(
                single.as_slice(),
                &batched.as_slice()[i * batched.dims()[1]..(i + 1) * batched.dims()[1]],
                "row {i}"
            );
        }
    }

    #[test]
    fn forward_rows_matches_forward_without_allocating_results_anew() {
        let (model, calib) = quantized_mlp();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        let via_tensor = plan.forward(&calib).unwrap();
        let mut out = Vec::new();
        plan.forward_rows(calib.as_slice(), calib.dims()[0], &mut out)
            .unwrap();
        assert_eq!(out, via_tensor.as_slice());
        // Second call reuses the buffer.
        let cap = out.capacity();
        plan.forward_rows(calib.as_slice(), calib.dims()[0], &mut out)
            .unwrap();
        assert_eq!(out.capacity(), cap);
        assert_eq!(out, via_tensor.as_slice());
    }

    #[test]
    fn dedicated_pool_and_thread_caps_are_bit_identical() {
        let mut model = small_cnn(4, 7);
        let calib = gaussian(&[24, 144], 9);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        let base = CompiledPlan::from_quantized(&model).unwrap();
        let x = gaussian(&[6, 144], 29);
        let want = base.clone().with_threads(1).forward(&x).unwrap();
        for threads in [2, 4, 7] {
            let got = base.clone().with_threads(threads).forward(&x).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "threads={threads}");
        }
        let pool = Arc::new(WorkerPool::new(3));
        let got = base.clone().with_pool(pool).forward(&x).unwrap();
        assert_eq!(got.as_slice(), want.as_slice(), "dedicated pool");
    }

    #[test]
    fn packed_weights_decode_to_effective_weights() {
        let (model, _) = quantized_mlp();
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        for (layer, plan_layer) in model.layers().iter().zip(plan.layers()) {
            if let (NetLayer::Dense(d), PlanLayer::Packed(p)) = (layer, plan_layer) {
                let expected = d.effective_weight().unwrap();
                let decoded = p.weights().decode_all().unwrap();
                assert_eq!(p.weights().dims(), d.weight().dims());
                for (a, b) in decoded.iter().zip(expected.as_slice()) {
                    assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn act_quant_specializations_match_codec_snap() {
        use ant_core::DataType;
        for dt in [
            DataType::int(4, true).unwrap(),
            DataType::int(4, false).unwrap(),
            DataType::int(8, true).unwrap(),
            DataType::flint(4, true).unwrap(),
            DataType::flint(4, false).unwrap(),
            DataType::flint(6, true).unwrap(),
            DataType::pot(4, true).unwrap(),
            DataType::pot(4, false).unwrap(),
            DataType::float(4, true).unwrap(),
            DataType::float(8, false).unwrap(),
        ] {
            let q = Quantizer::with_scale(dt, 1.0).unwrap();
            let act = ActQuant::for_quantizer(&q);
            let codec = q.codec();
            let max = codec.max_value();
            let mut v = -1.5 * max;
            let step = max / 97.0;
            while v <= 1.5 * max {
                let units = codec.snap(v) / codec.unit();
                assert_eq!(act.apply(v, codec), units as i32, "{dt}: v={v}");
                v += step;
            }
        }
    }

    #[test]
    fn norm_validates_per_row_not_per_buffer() {
        // dim=2 over [batch=2, features=3]: the total length (6) is a
        // multiple of dim but each row is not — groups would straddle
        // sample boundaries. Must error, not silently normalize.
        let norm = PlanNorm::from_parts("ln".into(), vec![1.0, 1.0], vec![0.0, 0.0], 1e-5);
        let mut plan = CompiledPlan::from_plan_layers(vec![PlanLayer::Norm(Box::new(norm))]);
        assert!(matches!(
            plan.forward(&Tensor::zeros(&[2, 3])),
            Err(RuntimeError::ShapeMismatch {
                expected: 2,
                actual: 3
            })
        ));
        // Valid per-row shape still works.
        assert!(plan.forward(&Tensor::zeros(&[2, 4])).is_ok());
    }

    #[test]
    fn unquantized_dense_is_rejected() {
        let model = mlp(8, 4, 11);
        assert!(matches!(
            CompiledPlan::from_quantized(&model),
            Err(RuntimeError::NotQuantized { .. })
        ));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (model, _) = quantized_mlp();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        assert!(matches!(
            plan.forward(&Tensor::zeros(&[2, 5])),
            Err(RuntimeError::ShapeMismatch {
                expected: 8,
                actual: 5
            })
        ));
    }

    #[test]
    fn weight_bytes_reports_compression() {
        let (model, _) = quantized_mlp();
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        let (packed, f32b) = plan.weight_bytes();
        assert!(packed > 0);
        // 4-bit codes: 8x smaller than f32 (up to rounding per layer).
        assert!(packed * 7 <= f32b, "packed {packed} vs f32 {f32b}");
    }

    #[test]
    fn conv_and_attn_weights_count_toward_weight_bytes() {
        let mut model = small_cnn(4, 3);
        let calib = gaussian(&[16, 144], 5);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        let (packed, f32b) = plan.weight_bytes();
        // conv1 (8·1·3·3) + conv2 (16·8·3·3) + head weights all counted.
        let total_weights = 8 * 9 + 16 * 8 * 9 + 4 * 144;
        assert_eq!(f32b, total_weights * 4);
        assert!(packed > 0 && packed * 7 <= f32b);
    }
}
