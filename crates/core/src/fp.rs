use crate::config::{MultiplierConfig, OperandMode};
use crate::mantissa::{MantissaMultiplier, PreparedMultiplicand};
use daism_num::{bits, encode_normal_f32, quantize_f32, FpClass, FpFormat, FpScalar};
use std::fmt;

/// Elements per lane group in the lane-packed approximate multiply
/// kernel (one [`MantissaMultiplier::mul_lanes`] call per group).
const LANES: usize = 8;

/// Shortest panel on which [`ApproxFpMul::mul_prepared`] builds a
/// multiplicand's subset-OR tables for a mantissa too wide for the
/// product table; shorter panels keep the mask-OR chain. Measured on
/// fp32/PC3_tr GEMMs (`16×72×n`, serial, 2-core x86-64): the two break
/// even near 48 columns, tables win by 1.3× at 64 and 4× at 1024, the
/// chain by 2× at 8.
const OR_TABLE_MIN_COLS: usize = 64;

/// A B row-panel pre-decoded for repeated [`ScalarMul::mul_prepared`]
/// calls — the operand-conversion work the GEMM engine hoists out of the
/// MAC loop entirely (one decode per panel *element*, reused by every C
/// row that consumes the panel).
///
/// Produced by [`ScalarMul::prepare_panel`]; the cached representation
/// is backend-specific (nothing for native `f32`, quantized operands for
/// [`QuantizedExactMul`], decoded sign/exponent fields and mantissas —
/// or, for mantissas too wide for the product table, wordline masks —
/// for [`ApproxFpMul`]), but every panel also keeps the raw `f32` values
/// so any backend can fall back to its [`mul_rows`](ScalarMul::mul_rows)
/// semantics — feeding a panel to a *different* backend is therefore
/// still correct, just unaccelerated.
#[derive(Debug, Clone)]
pub struct PreparedPanel {
    raw: Vec<f32>,
    data: PanelData,
}

#[derive(Debug, Clone)]
enum PanelData {
    /// No per-element cache; `mul_prepared` falls back to `mul_rows` on
    /// the raw values (the trait default, and native-`f32` backends).
    Raw,
    /// [`QuantizedExactMul`] on a format that
    /// [fits `f32`](FpFormat::fits_f32): operands quantized into
    /// `format` once, held as the exact `f32` the per-element multiply
    /// consumes.
    Quantized { format: FpFormat, vals: Vec<f32> },
    /// [`ApproxFpMul`] on a format that fits `f32`.
    Decoded(DecodedPanel),
}

/// [`ApproxFpMul`]'s panel: operands decoded into `format` once, held as
/// **structure-of-arrays lanes** so the multiply kernel runs branch-free
/// over [`LANES`]-wide groups — the multiplier keys the product stage
/// reads, the exponents/signs the combiner folds, a per-element
/// accumulate mask (zero bypass as a bit select, not a branch) and a
/// per-group escape flag for the rare Inf/NaN elements that need the
/// exact side logic.
#[derive(Debug, Clone)]
struct DecodedPanel {
    format: FpFormat,
    /// Per-element multiplier key (`0` for non-normals): the mantissa
    /// with explicit leading one — the product-table column — when the
    /// mantissa multiplier has a table (`n ≤ 8`), and otherwise the
    /// wordline mask `LineLayout::decode` gives for it, so the per-MAC
    /// product skips the decode.
    keys: Vec<u32>,
    /// Unbiased exponents (`0` for non-normals).
    exps: Vec<i32>,
    /// Sign bits, pre-shifted to the `f32` sign position.
    signs: Vec<u32>,
    /// Accumulate mask: `!0` for `Normal`, `0` for zero bypass — the
    /// lane kernel keeps the C bits through a select instead of
    /// branching per element.
    sel: Vec<u32>,
    /// Per-[`LANES`]-group flag: the group holds an element that needs
    /// the exact side logic — Inf/NaN, or a nonzero `f32` that flushes
    /// to format zero, whose signed-zero product the scalar path
    /// *accumulates* rather than skips — and must take the scalar
    /// fallback (covers full groups only; the tail group is always
    /// scalar).
    exotic: Vec<bool>,
}

impl PreparedPanel {
    /// Number of elements in the panel.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// `true` if the panel is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The raw (undecoded) panel values.
    pub fn raw(&self) -> &[f32] {
        &self.raw
    }
}

/// A scalar multiplication backend: the seam through which the DNN crates
/// and the architecture model plug in exact or approximate arithmetic.
///
/// Implementors must be deterministic and side-effect free; `mul` is
/// called billions of times by the accuracy experiments.
pub trait ScalarMul: fmt::Debug + Send + Sync {
    /// Multiplies two values, returning the result widened to `f32`.
    fn mul(&self, x: f32, y: f32) -> f32;

    /// Human-readable backend name for reports (e.g. `"bfloat16/PC3_tr"`).
    fn name(&self) -> String;

    /// `true` if `mul` is exactly native `f32` multiplication, letting
    /// bulk callers (GEMM kernels) skip per-element dispatch. Only
    /// [`ExactMul`] should return `true`.
    fn is_native_f32(&self) -> bool {
        false
    }

    /// Batched row-times-panel FMA: `c[j] += mul(a, b[j])` for every `j`
    /// with `b[j] != 0.0` — the accumulate step the GEMM engine issues
    /// once per (A-element, B-row-panel) pair.
    ///
    /// Skipping exact-zero `b[j]` mirrors the hardware's zero bypass
    /// (paper §III-C): a zero operand never activates the array, and
    /// because a freshly zeroed `f32` accumulator is `+0.0`, skipping the
    /// `±0.0` product leaves the same bits as adding it. `a == 0.0` is
    /// gated by the caller for the same reason. Native-`f32` backends may
    /// instead multiply zeros through (a branchless FMA loop) — identical
    /// bits on non-negative-zero accumulators with finite `a`.
    ///
    /// The default forwards each element to [`mul`](Self::mul);
    /// implementations override it to hoist per-`a` work (operand decode,
    /// line-pattern derivation, quantization) out of the panel loop.
    /// Overrides **must keep every accumulated product bit-identical to
    /// [`mul`](Self::mul)** — the `mul_rows`-vs-`mul` equivalence tests
    /// and the differential GEMM suite enforce this.
    ///
    /// # Panics
    ///
    /// May panic if `b.len() != c.len()`.
    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(b.len(), c.len(), "panel length mismatch");
        for (cv, bv) in c.iter_mut().zip(b) {
            if *bv != 0.0 {
                *cv += self.mul(a, *bv);
            }
        }
    }

    /// Decodes a B row-panel once, ahead of many
    /// [`mul_prepared`](Self::mul_prepared) calls against it.
    ///
    /// This is the second amortisation rung above
    /// [`mul_rows`](Self::mul_rows): `mul_rows` hoists the *A*-operand
    /// work out of the panel loop, `prepare_panel` hoists the *B*-operand
    /// decode out of the row loop entirely — the tiled GEMM engine
    /// prepares each packed `KC×NC` B-panel once and reuses it for every
    /// C row of the tile, so the per-MAC `FpScalar::from_f32` disappears.
    ///
    /// The default keeps only the raw values (correct for every backend);
    /// approximate backends override it to cache decoded
    /// sign/exponent/mantissa fields.
    fn prepare_panel(&self, b: &[f32]) -> PreparedPanel {
        PreparedPanel { raw: b.to_vec(), data: PanelData::Raw }
    }

    /// `true` if [`prepare_panel`](Self::prepare_panel) caches a decoded
    /// representation that [`mul_prepared`](Self::mul_prepared) consumes
    /// faster than re-deriving it per call. Backends keeping the raw-only
    /// default return `false`, so the GEMM engine can skip the panel
    /// allocation + B copy that would buy them nothing.
    fn supports_prepared_panels(&self) -> bool {
        false
    }

    /// [`mul_rows`](Self::mul_rows) against a panel prepared by
    /// [`prepare_panel`](Self::prepare_panel): `c[j] += mul(a, b[j])` for
    /// every `j` with `b[j] != 0.0`, with the same zero-bypass contract —
    /// and the same **bit-identity requirement**: for any panel, the
    /// result must equal `mul_rows(a, panel.raw(), c)` exactly (the
    /// equivalence tests and the differential GEMM suite enforce this).
    ///
    /// A panel prepared by a *different* backend (or the trait default)
    /// falls back to the raw values, so it is still correct — just not
    /// accelerated.
    ///
    /// # Panics
    ///
    /// May panic if `panel.len() != c.len()`.
    fn mul_prepared(&self, a: f32, panel: &PreparedPanel, c: &mut [f32]) {
        self.mul_rows(a, panel.raw(), c);
    }
}

/// Exact native `f32` multiplication — the paper's float32 baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMul;

impl ScalarMul for ExactMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        x * y
    }

    fn name(&self) -> String {
        "float32/exact".into()
    }

    fn is_native_f32(&self) -> bool {
        true
    }

    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        // Native multiply-accumulate: no zero test — `a * 0.0` adds
        // `±0.0`, which cannot change a `+0.0`-initialised accumulator,
        // and a branchless loop auto-vectorises.
        for (cv, bv) in c.iter_mut().zip(b) {
            *cv += a * bv;
        }
    }
}

/// Exact multiplication at reduced precision: operands are quantized into
/// `format`, multiplied exactly, and the result re-quantized
/// (round-to-nearest-even). This isolates *quantization* error from the
/// OR-approximation error that [`ApproxFpMul`] adds on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedExactMul {
    format: FpFormat,
}

impl QuantizedExactMul {
    /// Creates an exact multiplier at `format` precision.
    pub fn new(format: FpFormat) -> Self {
        QuantizedExactMul { format }
    }

    /// The operand/result format.
    pub fn format(&self) -> FpFormat {
        self.format
    }
}

impl ScalarMul for QuantizedExactMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        let f = self.format;
        if f.fits_f32() {
            // Format values are exact `f32`s and the exact product of two
            // has at most 48 significant bits, so rounding it once to
            // `f32` (overflow and subnormals included) is exactly the
            // native multiply.
            return quantize_f32(quantize_f32(x, f) * quantize_f32(y, f), f);
        }
        let xq = FpScalar::from_f32(x, f).to_f64();
        let yq = FpScalar::from_f32(y, f).to_f64();
        FpScalar::from_f32((xq * yq) as f32, f).to_f32()
    }

    fn name(&self) -> String {
        format!("{}/exact", self.format)
    }

    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        let f = self.format;
        if !f.fits_f32() {
            for (cv, bv) in c.iter_mut().zip(b) {
                if *bv != 0.0 {
                    *cv += self.mul(a, *bv);
                }
            }
            return;
        }
        // Quantize the reused operand once per panel; per-element math is
        // `mul`'s, so results stay bit-identical to it.
        let xq = quantize_f32(a, f);
        for (cv, bv) in c.iter_mut().zip(b) {
            if *bv != 0.0 {
                *cv += quantize_f32(xq * quantize_f32(*bv, f), f);
            }
        }
    }

    fn prepare_panel(&self, b: &[f32]) -> PreparedPanel {
        let f = self.format;
        if !f.fits_f32() {
            return PreparedPanel { raw: b.to_vec(), data: PanelData::Raw };
        }
        let vals = b.iter().map(|&bv| quantize_f32(bv, f)).collect();
        PreparedPanel { raw: b.to_vec(), data: PanelData::Quantized { format: f, vals } }
    }

    fn supports_prepared_panels(&self) -> bool {
        // Other formats keep the raw fallback in `prepare_panel`.
        self.format.fits_f32()
    }

    fn mul_prepared(&self, a: f32, panel: &PreparedPanel, c: &mut [f32]) {
        let PanelData::Quantized { format, vals } = &panel.data else {
            return self.mul_rows(a, panel.raw(), c);
        };
        if *format != self.format {
            return self.mul_rows(a, panel.raw(), c);
        }
        debug_assert_eq!(panel.len(), c.len(), "panel length mismatch");
        // The cached `yq` is exactly the value `mul_rows` re-derives per
        // element; only the native multiply and the result rounding
        // remain in the loop, with the zero bypass as a select.
        let xq = quantize_f32(a, *format);
        for ((cv, bv), yq) in c.iter_mut().zip(panel.raw()).zip(vals) {
            let p = quantize_f32(xq * yq, *format);
            *cv = if *bv != 0.0 { *cv + p } else { *cv };
        }
    }
}

/// The full DAISM floating-point multiply pipeline (paper §III-C, §IV-A):
///
/// 1. decode operands into `format` (subnormals flush to zero);
/// 2. **zero bypass** — multiplications by zero never touch the SRAM;
/// 3. sign = XOR, exponents added exactly (separate small adder);
/// 4. mantissas (with explicit leading ones) multiplied by the
///    OR-approximate [`MantissaMultiplier`];
/// 5. renormalisation by at most one position; mantissa *truncated*
///    (floor) to the format — the hardware has no rounding logic;
/// 6. exponent overflow saturates to infinity, underflow flushes to zero.
///
/// # Examples
///
/// ```
/// use daism_core::{ApproxFpMul, MultiplierConfig, ScalarMul};
/// use daism_num::FpFormat;
///
/// let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
/// // Powers of two multiply exactly (single active partial product):
/// assert_eq!(mul.mul(4.0, -0.5), -2.0);
/// // Zero bypass:
/// assert_eq!(mul.mul(0.0, 123.4), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxFpMul {
    format: FpFormat,
    mult: MantissaMultiplier,
}

impl ApproxFpMul {
    /// Builds the pipeline for a multiplier configuration and operand
    /// format.
    pub fn new(config: MultiplierConfig, format: FpFormat) -> Self {
        let mult = MantissaMultiplier::new(config, OperandMode::Fp, format.mantissa_width());
        ApproxFpMul { format, mult }
    }

    /// The operand/result format.
    #[inline]
    pub fn format(&self) -> FpFormat {
        self.format
    }

    /// The underlying mantissa multiplier.
    #[inline]
    pub fn mantissa_multiplier(&self) -> &MantissaMultiplier {
        &self.mult
    }

    /// The multiplier configuration.
    #[inline]
    pub fn config(&self) -> MultiplierConfig {
        self.mult.config()
    }

    /// Multiplies two decoded scalars through the approximate pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the scalars are not in this pipeline's format.
    pub fn mul_scalars(&self, x: &FpScalar, y: &FpScalar) -> FpScalar {
        assert_eq!(x.format(), self.format, "left operand format mismatch");
        assert_eq!(y.format(), self.format, "right operand format mismatch");
        let sign = x.sign() ^ y.sign();

        // NaN / Inf / zero handling (exact side logic, not in the SRAM).
        match (x.class(), y.class()) {
            (FpClass::Nan, _) | (_, FpClass::Nan) => {
                return FpScalar::from_f32(f32::NAN, self.format)
            }
            (FpClass::Inf, FpClass::Zero) | (FpClass::Zero, FpClass::Inf) => {
                return FpScalar::from_f32(f32::NAN, self.format)
            }
            (FpClass::Inf, _) | (_, FpClass::Inf) => {
                let v = if sign { f32::NEG_INFINITY } else { f32::INFINITY };
                return FpScalar::from_f32(v, self.format);
            }
            (FpClass::Zero, _) | (_, FpClass::Zero) => {
                // Zero bypass (§III-C): never reaches the array.
                let v = if sign { -0.0 } else { 0.0 };
                return FpScalar::from_f32(v, self.format);
            }
            (FpClass::Normal, FpClass::Normal) => {}
        }

        let raw = self.mult.multiply(x.mantissa(), y.mantissa());
        self.combine_raw(x, y, raw)
    }

    /// Combines a raw mantissa-multiplier read-out (`raw`, as produced by
    /// [`MantissaMultiplier::multiply`] or
    /// [`SramMultiplier::multiply_group`](crate::SramMultiplier)) with the
    /// operands' signs and exponents: renormalisation, exponent add and
    /// saturation. This is the accumulator-side logic of the accelerator;
    /// exposing it lets the SRAM-backed datapath share one normalisation
    /// implementation.
    ///
    /// `raw == 0` yields (signed) zero — the read-out of a slot whose
    /// stored multiplicand is zero.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not a `Normal` scalar of this
    /// pipeline's format.
    pub fn combine_raw(&self, x: &FpScalar, y: &FpScalar, raw: u64) -> FpScalar {
        assert_eq!(x.format(), self.format, "left operand format mismatch");
        assert_eq!(y.format(), self.format, "right operand format mismatch");
        assert_eq!(x.class(), FpClass::Normal, "combine_raw needs normal operands");
        assert_eq!(y.class(), FpClass::Normal, "combine_raw needs normal operands");
        let sign = x.sign() ^ y.sign();
        if raw == 0 {
            let v = if sign { -0.0 } else { 0.0 };
            return FpScalar::from_f32(v, self.format);
        }
        let n = self.format.mantissa_width();
        let exp_sum = x.exponent() + y.exponent();

        // Renormalise: the product of two [1,2) mantissas lies in [1,4).
        // Full result has 2n columns; truncated keeps the top n. The
        // normaliser looks at the top column and shifts by at most one.
        let (man, exp) = if self.mult.config().truncate {
            // raw approximates (x.man * y.man) >> n, an n-bit value whose
            // bit n-1 is set iff the product reached [2,4). Masking keeps
            // an over-wide approximate read-out to the n columns the
            // hardware latches (mirrored in `fuse_combine`).
            if bits::bit(raw, n - 1) {
                (raw & bits::mask(n), exp_sum + 1)
            } else {
                // Shift left; the incoming LSB (column n-1 of the full
                // product) was truncated away — hardware fills zero.
                ((raw << 1) & bits::mask(n), exp_sum)
            }
        } else {
            // raw approximates the full 2n-bit product.
            if bits::bit(raw, 2 * n - 1) {
                ((raw >> n) & bits::mask(n), exp_sum + 1)
            } else {
                ((raw >> (n - 1)) & bits::mask(n), exp_sum)
            }
        };

        debug_assert!(bits::bit(man, n - 1), "normalised mantissa must have its leading one");
        FpScalar::from_parts(sign, exp, man, self.format)
    }

    /// [`combine_raw`](Self::combine_raw) fused with the `f32` encode,
    /// skipping the `FpScalar` round-trip (and its `powi`): same
    /// normalisation, same saturation, same panic on a denormalised
    /// read-out — **bit-identical** results, asserted by the
    /// `mul_rows`-vs-`mul` equivalence tests. Only valid when
    /// `self.format.fits_f32()` (checked by the caller).
    #[inline]
    fn combine_raw_to_f32(&self, x: &FpScalar, y: &FpScalar, raw: u64) -> f32 {
        self.fuse_combine(x.sign() ^ y.sign(), x.exponent() + y.exponent(), raw)
    }

    /// The parts-level core of [`combine_raw_to_f32`](Self::combine_raw_to_f32):
    /// takes the already-XORed sign and already-summed exponent, so the
    /// prepared-panel path can feed cached fields without materialising
    /// `FpScalar`s. Only valid when `self.format.fits_f32()` (checked by
    /// callers).
    #[inline]
    fn fuse_combine(&self, sign: bool, exp_sum: i32, raw: u64) -> f32 {
        if raw == 0 {
            return if sign { -0.0 } else { 0.0 };
        }
        let n = self.format.mantissa_width();
        // Same branch structure and masking as `combine_raw` — an
        // over-wide read-out must normalise identically on both paths.
        let (man, exp) = if self.mult.config().truncate {
            if bits::bit(raw, n - 1) {
                (raw & bits::mask(n), exp_sum + 1)
            } else {
                ((raw << 1) & bits::mask(n), exp_sum)
            }
        } else if bits::bit(raw, 2 * n - 1) {
            ((raw >> n) & bits::mask(n), exp_sum + 1)
        } else {
            ((raw >> (n - 1)) & bits::mask(n), exp_sum)
        };
        // `encode_normal_f32` asserts the leading one (the `from_parts`
        // contract) and applies the identical saturation/flush rules.
        encode_normal_f32(sign, exp, man, self.format)
    }

    /// Folds one group of raw mantissa read-outs into the C lanes:
    /// branch-free renormalise ([`fuse_combine`](Self::fuse_combine)'s
    /// one-position shift as a select between two uniform shifts),
    /// branch-free encode (saturation/flush as exponent-range selects)
    /// and the zero bypass as a bit select on the accumulator — never
    /// `c + 0.0`, which would flip a negative-zero accumulator. All
    /// lanes are fixed-width arrays, so the whole fold autovectorizes
    /// on stable. Only valid when `self.format.fits_f32()` and for
    /// read-outs of `Normal` operands and exact-zero `f32`s (callers
    /// route Inf/NaN and flushed-nonzero groups to the scalar fallback).
    // Always inlined: with three product kernels calling it the compiler
    // would outline it, and a call per lane group measurably slows the
    // narrow-mantissa kernel.
    #[inline(always)]
    fn combine_lanes(
        &self,
        raws: &[u64; LANES],
        exps: &[i32; LANES],
        signs: &[u32; LANES],
        sel: &[u32; LANES],
        xs: &FpScalar,
        c: &mut [f32; LANES],
    ) {
        let n = self.format.mantissa_width();
        let truncate = self.mult.config().truncate;
        let (max_exp, min_exp) = (self.format.max_exp(), self.format.min_exp());
        let frac_mask = bits::mask(n - 1) as u32;
        let xsign = (xs.sign() as u32) << 31;
        let xexp = xs.exponent();
        for j in 0..LANES {
            let raw = raws[j];
            // `fuse_combine`'s branch structure as selects: the top
            // read-out column picks between two *uniform* shifts (no
            // per-lane shift amounts, which baseline SSE lacks) and the
            // exponent increment.
            let (t, man) = if truncate {
                let t = ((raw >> (n - 1)) & 1) as i32;
                (t, (if t != 0 { raw } else { raw << 1 }) as u32)
            } else {
                let t = ((raw >> (2 * n - 1)) & 1) as i32;
                (t, (if t != 0 { raw >> n } else { raw >> (n - 1) }) as u32)
            };
            let exp = xexp + exps[j] + t;
            let sign = xsign ^ signs[j];
            // `encode_normal_f32` with saturation/flush as selects; the
            // out-of-range lanes' `normal` bits are garbage that the
            // select discards.
            let normal = sign | (((exp + 127) as u32) << 23) | ((man & frac_mask) << (24 - n));
            let pbits = if exp > max_exp {
                sign | 0x7F80_0000 // saturate to (signed) infinity
            } else if exp < min_exp {
                sign // flush to (signed) zero
            } else {
                normal
            };
            let cv = c[j];
            let sum = cv + f32::from_bits(pbits);
            c[j] = f32::from_bits((sum.to_bits() & sel[j]) | (cv.to_bits() & !sel[j]));
        }
    }

    /// The scalar per-element multiply-accumulate over a slice of raw B
    /// values with the multiplicand already decoded and prepared — the
    /// fallback the lane kernel escapes to for Inf/NaN groups and tail
    /// elements, and the body of the batched `mul_rows` fast path. Only
    /// valid when `self.format.fits_f32()` and `xs` is `Normal` (checked
    /// by callers).
    fn mul_prepared_scalar_chunk(
        &self,
        xs: &FpScalar,
        prep: &PreparedMultiplicand,
        bs: &[f32],
        c: &mut [f32],
    ) {
        for (cv, bv) in c.iter_mut().zip(bs) {
            if *bv == 0.0 {
                continue; // zero bypass (§III-C) — never touches the array
            }
            let ys = FpScalar::from_f32(*bv, self.format);
            *cv += if ys.class() == FpClass::Normal {
                let raw = self.mult.multiply_prepared_trusted(prep, ys.mantissa());
                self.combine_raw_to_f32(xs, &ys, raw)
            } else {
                self.mul_scalars(xs, &ys).to_f32()
            };
        }
    }

    /// The decoded-panel kernel: `c[j] += mul(a, b[j])` over a
    /// [`DecodedPanel`], with `product` turning a cached multiplier key
    /// into the raw mantissa read-out for the prepared `a`. Renormalise,
    /// saturation and the zero bypass are selects over fixed-width lanes
    /// ([`combine_lanes`](Self::combine_lanes)), so each group
    /// vectorizes; Inf/NaN or flushed-nonzero groups and the tail take
    /// the scalar fallback. Every step computes exactly the value the
    /// scalar path computes, so results stay bit-identical (the
    /// prepared-vs-`mul_rows` equivalence tests and the differential
    /// GEMM suite enforce this). Only valid when
    /// `self.format.fits_f32()` and `xs` is `Normal`.
    fn mac_decoded(
        &self,
        xs: &FpScalar,
        prep: &PreparedMultiplicand,
        raw: &[f32],
        dec: &DecodedPanel,
        c: &mut [f32],
        product: impl Fn(u32) -> u64,
    ) {
        let groups = c.len() / LANES;
        let (head, tail) = c.split_at_mut(groups * LANES);
        for (g, cch) in head.chunks_exact_mut(LANES).enumerate() {
            let base = g * LANES;
            if dec.exotic[g] {
                self.mul_prepared_scalar_chunk(xs, prep, &raw[base..base + LANES], cch);
                continue;
            }
            // Fixed-width array views: index-free lanes the compiler can
            // keep in vector registers.
            let lanes = base..base + LANES;
            let cch: &mut [f32; LANES] = cch.try_into().expect("lane group");
            let kch: &[u32; LANES] = dec.keys[lanes.clone()].try_into().expect("lane group");
            let ech: &[i32; LANES] = dec.exps[lanes.clone()].try_into().expect("lane group");
            let sch: &[u32; LANES] = dec.signs[lanes.clone()].try_into().expect("lane group");
            let zch: &[u32; LANES] = dec.sel[lanes].try_into().expect("lane group");
            let mut raws = [0u64; LANES];
            for (r, &k) in raws.iter_mut().zip(kch) {
                *r = product(k);
            }
            self.combine_lanes(&raws, ech, sch, zch, xs, cch);
        }
        self.mul_prepared_scalar_chunk(xs, prep, &raw[groups * LANES..], tail);
    }
}

impl ScalarMul for ApproxFpMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        let xs = FpScalar::from_f32(x, self.format);
        let ys = FpScalar::from_f32(y, self.format);
        self.mul_scalars(&xs, &ys).to_f32()
    }

    fn name(&self) -> String {
        format!("{}/{}", self.format, self.mult.config())
    }

    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        // Decode the reused operand and derive its line patterns (or
        // table row) once per panel — this is the batched fast path the
        // GEMM engine exists for. Every per-element step below matches
        // `mul_scalars` exactly, keeping results bit-identical.
        let xs = FpScalar::from_f32(a, self.format);
        if xs.class() != FpClass::Normal {
            // Zero / NaN / Inf multiplicand: rare, handled by the exact
            // side logic — no mantissa work to hoist.
            for (cv, bv) in c.iter_mut().zip(b) {
                if *bv != 0.0 {
                    *cv += self.mul_scalars(&xs, &FpScalar::from_f32(*bv, self.format)).to_f32();
                }
            }
            return;
        }
        let prep = self.mult.prepare(xs.mantissa());
        if self.format.fits_f32() {
            self.mul_prepared_scalar_chunk(&xs, &prep, b, c);
            return;
        }
        for (cv, bv) in c.iter_mut().zip(b) {
            if *bv == 0.0 {
                continue; // zero bypass (§III-C) — never touches the array
            }
            let ys = FpScalar::from_f32(*bv, self.format);
            let product = if ys.class() == FpClass::Normal {
                let raw = self.mult.multiply_prepared(&prep, ys.mantissa());
                self.combine_raw(&xs, &ys, raw)
            } else {
                self.mul_scalars(&xs, &ys)
            };
            *cv += product.to_f32();
        }
    }

    fn prepare_panel(&self, b: &[f32]) -> PreparedPanel {
        if !self.format.fits_f32() {
            // Exotic formats stay on the FpScalar path; nothing cheap to
            // cache, so keep the raw fallback.
            return PreparedPanel { raw: b.to_vec(), data: PanelData::Raw };
        }
        let len = b.len();
        let mut keys = Vec::with_capacity(len);
        let mut exps = Vec::with_capacity(len);
        let mut signs = Vec::with_capacity(len);
        let mut sel = Vec::with_capacity(len);
        let mut exotic = vec![false; len / LANES];
        for (i, &bv) in b.iter().enumerate() {
            let ys = FpScalar::from_f32(bv, self.format);
            match ys.class() {
                FpClass::Normal => {
                    keys.push(self.mult.key(ys.mantissa()));
                    exps.push(ys.exponent());
                    signs.push((ys.sign() as u32) << 31);
                    sel.push(u32::MAX);
                }
                FpClass::Zero => {
                    // Zero bypass: key 0 reads product 0, and the zeroed
                    // select mask keeps C untouched — exactly the scalar
                    // path's `bv == 0.0` skip.
                    keys.push(0);
                    exps.push(0);
                    signs.push(0);
                    sel.push(0);
                    if bv != 0.0 {
                        // A nonzero f32 that *flushes* to format zero
                        // (subnormal, or below the format's min
                        // exponent): the scalar path does NOT skip it —
                        // it accumulates the signed-zero product, which
                        // can flip a -0.0 accumulator to +0.0. Route
                        // the group to the scalar fallback so the lane
                        // path stays bit-identical.
                        if let Some(flag) = exotic.get_mut(i / LANES) {
                            *flag = true;
                        }
                    }
                }
                FpClass::Inf | FpClass::Nan => {
                    keys.push(0);
                    exps.push(0);
                    signs.push(0);
                    sel.push(0);
                    if let Some(flag) = exotic.get_mut(i / LANES) {
                        *flag = true; // whole group escapes to scalar
                    }
                }
            }
        }
        let decoded = DecodedPanel { format: self.format, keys, exps, signs, sel, exotic };
        PreparedPanel { raw: b.to_vec(), data: PanelData::Decoded(decoded) }
    }

    fn supports_prepared_panels(&self) -> bool {
        // Exotic formats keep the raw fallback in `prepare_panel`, so
        // there is nothing for the engine to amortise.
        self.format.fits_f32()
    }

    fn mul_prepared(&self, a: f32, panel: &PreparedPanel, c: &mut [f32]) {
        let PanelData::Decoded(dec) = &panel.data else {
            return self.mul_rows(a, panel.raw(), c);
        };
        if dec.format != self.format || !self.format.fits_f32() {
            return self.mul_rows(a, panel.raw(), c);
        }
        debug_assert_eq!(panel.len(), c.len(), "panel length mismatch");
        let xs = FpScalar::from_f32(a, self.format);
        if xs.class() != FpClass::Normal {
            // Zero / NaN / Inf multiplicand: rare, exact side logic.
            for (cv, bv) in c.iter_mut().zip(panel.raw()) {
                if *bv != 0.0 {
                    *cv += self.mul_scalars(&xs, &FpScalar::from_f32(*bv, self.format)).to_f32();
                }
            }
            return;
        }
        // Per-call work: one decode of `a` and its line patterns (or
        // table row); per-MAC work: one product read of the cached key
        // plus the branch-free combine.
        let prep = self.mult.prepare(xs.mantissa());
        if let Some(row) = self.mult.lut_row(&prep) {
            let mask = row.len() - 1;
            self.mac_decoded(&xs, &prep, panel.raw(), dec, c, |k| row[k as usize & mask] as u64);
        } else if c.len() >= OR_TABLE_MIN_COLS {
            self.mult.with_or_tables(&prep, |t| {
                self.mac_decoded(&xs, &prep, panel.raw(), dec, c, |k| t.product(k))
            });
        } else {
            self.mac_decoded(&xs, &prep, panel.raw(), dec, c, |k| prep.or_mask(k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc3tr_bf16() -> ApproxFpMul {
        ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)
    }

    #[test]
    fn zero_bypass() {
        let m = pc3tr_bf16();
        assert_eq!(m.mul(0.0, 5.0), 0.0);
        assert_eq!(m.mul(5.0, 0.0), 0.0);
        assert_eq!(m.mul(-0.0, 5.0), -0.0);
        assert!(m.mul(-3.0, 0.0).to_bits() == (-0.0f32).to_bits());
    }

    #[test]
    fn sign_xor() {
        let m = pc3tr_bf16();
        assert!(m.mul(2.0, 3.0) > 0.0);
        assert!(m.mul(-2.0, 3.0) < 0.0);
        assert!(m.mul(2.0, -3.0) < 0.0);
        assert!(m.mul(-2.0, -3.0) > 0.0);
    }

    #[test]
    fn powers_of_two_are_exact() {
        for config in MultiplierConfig::ALL {
            let m = ApproxFpMul::new(config, FpFormat::BF16);
            for &(x, y) in
                &[(2.0f32, 8.0f32), (0.5, 0.25), (1.0, 1.0), (-4.0, 2.0), (1024.0, 0.0625)]
            {
                assert_eq!(m.mul(x, y), x * y, "{config}: {x}*{y}");
            }
        }
    }

    #[test]
    fn nan_and_inf_propagate() {
        let m = pc3tr_bf16();
        assert!(m.mul(f32::NAN, 1.0).is_nan());
        assert!(m.mul(f32::INFINITY, 0.0).is_nan());
        assert_eq!(m.mul(f32::INFINITY, 2.0), f32::INFINITY);
        assert_eq!(m.mul(f32::NEG_INFINITY, 2.0), f32::NEG_INFINITY);
        assert_eq!(m.mul(f32::INFINITY, -2.0), f32::NEG_INFINITY);
    }

    #[test]
    fn never_overestimates_magnitude() {
        // The OR approximation + floor truncation can only lose magnitude
        // relative to the bf16-quantized exact product.
        let exact = QuantizedExactMul::new(FpFormat::BF16);
        for config in MultiplierConfig::ALL {
            let m = ApproxFpMul::new(config, FpFormat::BF16);
            let mut v = 0.11f32;
            for _ in 0..200 {
                let mut w = 0.07f32;
                for _ in 0..50 {
                    let a = m.mul(v, w).abs();
                    // Compare against the unquantized product of the
                    // quantized operands (the true reference).
                    let xq = FpScalar::from_f32(v, FpFormat::BF16).to_f64();
                    let yq = FpScalar::from_f32(w, FpFormat::BF16).to_f64();
                    let e = (xq * yq).abs();
                    assert!(
                        a as f64 <= e * (1.0 + 1e-12),
                        "{config}: {v}*{w}: approx {a} > exact {e}"
                    );
                    w *= 1.83;
                }
                v *= 1.31;
            }
            let _ = exact; // silence unused in case asserts compiled out
        }
    }

    #[test]
    fn relative_error_bounded_for_pc3() {
        // PC3's worst case: all collisions below the top-3 bits. The
        // exhaustive mantissa analysis puts the ceiling just under 20%;
        // the fp pipeline adds one floor-truncation on top.
        let m = pc3tr_bf16();
        let mut worst = 0.0f64;
        let mut v = 1.0f32;
        for i in 0..256 {
            let x = 1.0 + (i as f32) / 256.0; // sweep mantissas in [1,2)
            for j in 0..256 {
                let y = 1.0 + (j as f32) / 256.0;
                let approx = m.mul(x, y) as f64;
                let xq = FpScalar::from_f32(x, FpFormat::BF16).to_f64();
                let yq = FpScalar::from_f32(y, FpFormat::BF16).to_f64();
                let exact = xq * yq;
                let rel = ((exact - approx) / exact).abs();
                worst = worst.max(rel);
            }
            v += 1.0;
        }
        let _ = v;
        assert!(worst < 0.25, "worst-case PC3_tr relative error {worst}");
        assert!(worst > 0.05, "PC3_tr suspiciously accurate: {worst}");
    }

    #[test]
    fn truncated_and_full_agree_when_no_low_bits() {
        // Operands whose product fits the top n columns exactly lose
        // nothing to truncation.
        let full = ApproxFpMul::new(MultiplierConfig::PC3, FpFormat::BF16);
        let tr = pc3tr_bf16();
        for &(x, y) in &[(1.5f32, 1.5f32), (1.75, 1.25), (1.5, 3.0)] {
            assert_eq!(full.mul(x, y), tr.mul(x, y), "{x}*{y}");
        }
    }

    #[test]
    fn quantized_exact_matches_f64_reference() {
        let m = QuantizedExactMul::new(FpFormat::BF16);
        let x = 1.0 + 3.0 / 128.0;
        let y = 1.0 + 5.0 / 128.0;
        let expect = FpScalar::from_f32(
            (FpScalar::from_f32(x, FpFormat::BF16).to_f64()
                * FpScalar::from_f32(y, FpFormat::BF16).to_f64()) as f32,
            FpFormat::BF16,
        )
        .to_f32();
        assert_eq!(m.mul(x, y), expect);
    }

    /// The native-multiply path against the exact `f64` product it
    /// replaces: quantize both operands, multiply exactly in `f64`,
    /// round once to `f32`, quantize the result.
    #[test]
    fn quantized_exact_native_multiply_matches_f64_product() {
        let ys =
            [1.0 + 2f32.powi(-8), -1.5, 3.0e38, -1.1e-38, 2f32.powi(-14), 65504.0, 1e-30, 7.25];
        for format in [FpFormat::BF16, FpFormat::FP16, FpFormat::TF32, FpFormat::FP32] {
            let m = QuantizedExactMul::new(format);
            for h in (0u32..=0xFFFF).step_by(3) {
                let x = f32::from_bits(h << 16 | 0x8000);
                for &y in &ys {
                    let xq = FpScalar::from_f32(x, format).to_f64();
                    let yq = FpScalar::from_f32(y, format).to_f64();
                    let want = FpScalar::from_f32((xq * yq) as f32, format).to_f32();
                    let got = m.mul(x, y);
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{format}: {x:e} * {y:e}: {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_mul_name_and_behaviour() {
        let m = ExactMul;
        assert_eq!(m.mul(3.0, 4.0), 12.0);
        assert_eq!(m.name(), "float32/exact");
    }

    #[test]
    fn names_follow_convention() {
        assert_eq!(pc3tr_bf16().name(), "bfloat16/PC3_tr");
        assert_eq!(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP32).name(), "float32/FLA");
        assert_eq!(QuantizedExactMul::new(FpFormat::BF16).name(), "bfloat16/exact");
    }

    #[test]
    fn fp32_pipeline_within_pc3_envelope() {
        let m = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP32);
        let x = 1.2345678f32;
        let y = 7.654_321_f32;
        let approx = m.mul(x, y);
        let exact = x * y;
        let rel = ((exact - approx) / exact).abs();
        assert!(rel < 0.20, "rel {rel}");
        assert!(approx <= exact);
    }

    #[test]
    fn exponent_saturation() {
        let m = pc3tr_bf16();
        let big = 1e38f32;
        assert_eq!(m.mul(big, big), f32::INFINITY);
        let tiny = 1e-38f32;
        assert_eq!(m.mul(tiny, tiny), 0.0);
    }

    fn edge_values() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.5,
            -2.75,
            3.3e38,
            -3.3e38,
            1.2e-38,
            -1.2e-38,
            f32::MIN_POSITIVE / 2.0, // subnormal: flushed on decode
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            std::f32::consts::PI,
            -0.1,
        ]
    }

    /// `mul_rows` must be element-wise bit-identical to accumulating
    /// `mul` products into a `+0.0` accumulator. Zero `b` elements may
    /// either be skipped or natively multiplied (`is_native_f32`
    /// backends do the latter); both leave the same bits behind.
    fn assert_mul_rows_matches_mul(m: &dyn ScalarMul) {
        let bs = edge_values();
        for &a in &edge_values() {
            let mut batched = vec![0.0f32; bs.len()];
            m.mul_rows(a, &bs, &mut batched);
            for (j, &bv) in bs.iter().enumerate() {
                let term = if bv != 0.0 {
                    m.mul(a, bv)
                } else if m.is_native_f32() {
                    a * bv // native kernels do not test for zero
                } else {
                    0.0 // zero bypass: no accumulation at all
                };
                let expect = 0.0f32 + term;
                let got = batched[j];
                assert!(
                    got.to_bits() == expect.to_bits() || (got.is_nan() && expect.is_nan()),
                    "{}: a={a}, b={bv}: batched {got} vs scalar {expect}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn mul_rows_matches_mul_for_every_backend() {
        assert_mul_rows_matches_mul(&ExactMul);
        assert_mul_rows_matches_mul(&QuantizedExactMul::new(FpFormat::BF16));
        assert_mul_rows_matches_mul(&QuantizedExactMul::new(FpFormat::FP32));
        for config in MultiplierConfig::ALL {
            assert_mul_rows_matches_mul(&ApproxFpMul::new(config, FpFormat::BF16));
            assert_mul_rows_matches_mul(&ApproxFpMul::new(config, FpFormat::FP32));
            assert_mul_rows_matches_mul(&ApproxFpMul::new(config, FpFormat::FP16));
        }
    }

    /// `prepare_panel` + `mul_prepared` must be element-wise bit-identical
    /// to `mul_rows` on the same panel — the contract the prepared-panel
    /// GEMM engine is built on. Exercised over the full edge-value grid
    /// (zeros, subnormals, infinities, NaN), a dense magnitude sweep,
    /// and **both** `+0.0`- and `-0.0`-initialised accumulators — a
    /// negative-zero accumulator is flipped to `+0.0` by the signed-zero
    /// product of a *flushed* (nonzero-f32, format-zero) element, which
    /// the lane path must reproduce, not skip.
    fn assert_prepared_matches_mul_rows(m: &dyn ScalarMul, bs: &[f32], as_: &[f32]) {
        let panel = m.prepare_panel(bs);
        assert_eq!(panel.len(), bs.len());
        assert_eq!(panel.is_empty(), bs.is_empty());
        for (p, b) in panel.raw().iter().zip(bs) {
            assert_eq!(p.to_bits(), b.to_bits(), "{}: raw values must round-trip", m.name());
        }
        for &a in as_ {
            for init in [0.0f32, -0.0] {
                let mut plain = vec![init; bs.len()];
                let mut prepared = vec![init; bs.len()];
                m.mul_rows(a, bs, &mut plain);
                m.mul_prepared(a, &panel, &mut prepared);
                for (j, (p, q)) in plain.iter().zip(&prepared).enumerate() {
                    assert!(
                        p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                        "{}: a={a}, b={}, c0={init}: mul_rows {p} vs mul_prepared {q}",
                        m.name(),
                        bs[j]
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_panel_matches_mul_rows_for_every_backend() {
        let edges = edge_values();
        let mut dense = Vec::new();
        let mut v = 1.07e-30f32;
        while v < 1e30 {
            dense.push(v);
            dense.push(-v);
            v *= 3.9;
        }
        let backends: Vec<Box<dyn ScalarMul>> = {
            let mut v: Vec<Box<dyn ScalarMul>> = vec![
                Box::new(ExactMul),
                Box::new(QuantizedExactMul::new(FpFormat::BF16)),
                Box::new(QuantizedExactMul::new(FpFormat::FP32)),
            ];
            for config in MultiplierConfig::ALL {
                v.push(Box::new(ApproxFpMul::new(config, FpFormat::BF16)));
                v.push(Box::new(ApproxFpMul::new(config, FpFormat::FP16)));
                v.push(Box::new(ApproxFpMul::new(config, FpFormat::FP32)));
            }
            v
        };
        for m in &backends {
            assert_prepared_matches_mul_rows(m.as_ref(), &edges, &edges);
            assert_prepared_matches_mul_rows(m.as_ref(), &dense, &[0.37, -11.0, 1.0, 255.4]);
            assert_prepared_matches_mul_rows(m.as_ref(), &[], &[1.5]);
        }
    }

    #[test]
    fn foreign_panels_fall_back_correctly() {
        // A panel prepared by one backend fed to another must still match
        // the consumer's own `mul_rows` semantics (unaccelerated path).
        let bs = edge_values();
        let preparers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP16)),
        ];
        let consumers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(QuantizedExactMul::new(FpFormat::FP32)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC2, FpFormat::BF16)),
        ];
        for preparer in &preparers {
            let panel = preparer.prepare_panel(&bs);
            for consumer in &consumers {
                for &a in &[1.5f32, -0.37, 0.0] {
                    let mut plain = vec![0.0f32; bs.len()];
                    let mut prepared = vec![0.0f32; bs.len()];
                    consumer.mul_rows(a, &bs, &mut plain);
                    consumer.mul_prepared(a, &panel, &mut prepared);
                    for (p, q) in plain.iter().zip(&prepared) {
                        assert!(
                            p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                            "panel from {} into {}: a={a}: {p} vs {q}",
                            preparer.name(),
                            consumer.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mul_rows_dense_value_sweep_pc3_tr() {
        // A dense magnitude sweep through the fused fast path: the
        // bit-encode must agree with the FpScalar round-trip everywhere.
        let m = pc3tr_bf16();
        let mut bs = Vec::new();
        let mut v = 1.07e-30f32;
        while v < 1e30 {
            bs.push(v);
            bs.push(-v);
            v *= 3.9;
        }
        for &a in &[0.37f32, -11.0, 1.0, 255.4, 1e-3, -9.9e20] {
            let mut batched = vec![0.0f32; bs.len()];
            m.mul_rows(a, &bs, &mut batched);
            for (j, &bv) in bs.iter().enumerate() {
                assert_eq!(batched[j].to_bits(), m.mul(a, bv).to_bits(), "a={a}, b={bv}");
            }
        }
    }

    #[test]
    fn default_mul_rows_equals_overrides() {
        // A wrapper that erases the override, forcing the trait default.
        #[derive(Debug)]
        struct DefaultOnly<'a>(&'a dyn ScalarMul);
        impl ScalarMul for DefaultOnly<'_> {
            fn mul(&self, x: f32, y: f32) -> f32 {
                self.0.mul(x, y)
            }
            fn name(&self) -> String {
                format!("default({})", self.0.name())
            }
        }
        let backends: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP32)),
        ];
        let bs = edge_values();
        for m in &backends {
            for &a in &edge_values() {
                let mut fast = vec![0.0f32; bs.len()];
                let mut slow = vec![0.0f32; bs.len()];
                m.mul_rows(a, &bs, &mut fast);
                DefaultOnly(m.as_ref()).mul_rows(a, &bs, &mut slow);
                for (f, s) in fast.iter().zip(&slow) {
                    assert!(
                        f.to_bits() == s.to_bits() || (f.is_nan() && s.is_nan()),
                        "{}: a={a}: override {f} vs default {s}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn trait_object_usable() {
        let muls: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
        ];
        for m in &muls {
            assert_eq!(m.mul(1.0, 1.0), 1.0, "{}", m.name());
        }
    }
}
