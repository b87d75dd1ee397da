use crate::config::{MultiplierConfig, OperandMode};
use crate::mantissa::{MantissaMultiplier, PreparedMultiplicand};
use daism_num::{
    bits, decode_f32, encode_normal_f32, quantize_f32, DecodedF32, FpClass, FpFormat, FpScalar,
};
use std::fmt;
use std::ops::Range;

/// Elements per lane group in the lane-packed approximate multiply
/// kernel; decoded tile rows are padded to a multiple of it.
const LANES: usize = 8;

/// Fewest active wordlines, summed over the keys of a tile row, for
/// which [`ApproxFpMul`]'s `mul_decoded` builds a multiplicand's
/// subset-OR tables for a mantissa too wide for the product table;
/// rows with fewer keep the mask-OR chain. Building the tables costs a
/// fixed ~240 ns per multiplicand, the chain ~1.5 ns per active line,
/// and zero elements have none. Measured with fp32/PC3_tr, serial, on a
/// 2-core x86-64 host at 2.1 GHz, in ns per A element: random
/// mantissas (≈9 active lines per element, a quarter of them zero),
/// chain 258 vs tables 287 at 16 columns and 452 vs 341 at 32;
/// small-integer operands (one active line), chain 414 vs tables 552
/// at 128 columns.
const OR_TABLE_MIN_LINES: u32 = 192;

/// One tile of a B matrix decoded once for repeated
/// [`ScalarMul::mul_decoded`] calls — the operand conversion the GEMM
/// engine hoists out of the MAC loop entirely (one decode per tile
/// *element*, reused by every C row that consumes the tile).
///
/// Filled by [`ScalarMul::decode_tile`], which reuses the buffers of the
/// previous fill. The cached form is backend-specific: nothing for
/// native `f32`, quantized operands for [`QuantizedExactMul`], and for
/// [`ApproxFpMul`] flat lane arrays of decoded sign/exponent fields and
/// multiplier keys. A tile holds no raw values: `mul_decoded` takes them
/// from the caller and falls back to [`mul_rows`](ScalarMul::mul_rows)
/// semantics on them, so feeding a tile to a *different* backend is
/// still correct, just unaccelerated.
#[derive(Debug, Clone, Default)]
pub struct DecodedTile {
    /// Tile rows: the depth of the A segment a multiply consumes.
    rows: usize,
    /// Columns per tile row: the length of the raw rows and of the C
    /// row a multiply accumulates into.
    cols: usize,
    data: TileData,
}

impl DecodedTile {
    /// An uncached `rows × cols` tile: multiplies fall back to
    /// `mul_rows` on the raw values.
    fn raw(rows: usize, cols: usize) -> Self {
        DecodedTile { rows, cols, data: TileData::Raw }
    }

    /// Checks the operands of a multiply against this tile, given the
    /// raw block's row stride.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not one tile deep, `c` not one tile row long,
    /// or `raw` too short for the tile.
    fn check(&self, a: &[f32], raw: &[f32], stride: usize, c: &[f32]) {
        assert!(a.len() == self.rows && c.len() == self.cols, "operands do not fit the tile");
        assert!(
            self.rows == 0 || raw.len() >= (self.rows - 1) * stride + self.cols,
            "raw block shorter than the tile"
        );
    }

    /// Tile row `l` of the raw block `raw` with row stride `stride`.
    fn raw_row<'a>(&self, raw: &'a [f32], stride: usize, l: usize) -> &'a [f32] {
        &raw[l * stride..l * stride + self.cols]
    }

    /// The uncached multiply: one [`ScalarMul::mul_rows`] per nonzero
    /// `a[l]` against tile row `l`'s raw values, in ascending `l`.
    fn mul_rows<M: ScalarMul + ?Sized>(
        &self,
        mul: &M,
        a: &[f32],
        raw: &[f32],
        stride: usize,
        c: &mut [f32],
    ) {
        for (l, &av) in a.iter().enumerate() {
            if av != 0.0 {
                mul.mul_rows(av, self.raw_row(raw, stride, l), c);
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
enum TileData {
    /// No cache; `mul_decoded` falls back to `mul_rows` on the raw
    /// values (the trait default, and native-`f32` backends).
    #[default]
    Raw,
    /// [`QuantizedExactMul`] on a format that
    /// [fits `f32`](FpFormat::fits_f32): the row-major operands quantized
    /// into `format`, held as the exact `f32` the per-element multiply
    /// consumes.
    Quantized { format: FpFormat, vals: Vec<f32> },
    /// [`ApproxFpMul`] on a format that fits `f32`. The keys depend on
    /// the multiplier configuration as well as the format.
    Approx { format: FpFormat, config: MultiplierConfig, lanes: LaneTile },
}

/// [`ApproxFpMul`]'s tile as **structure-of-arrays lanes**: one array
/// per field, of [`LANES`]-wide groups, each tile row padded to whole
/// groups with zero-select lanes, so the multiply kernel runs
/// branch-free over every group of a row: the multiplier keys the
/// product stage reads, the exponents/signs the combiner folds, a
/// per-element accumulate mask (zero bypass as a bit select, not a
/// branch) and a per-group flag for the rare elements that need the
/// exact side logic.
#[derive(Debug, Clone, Default)]
struct LaneTile {
    /// Per-element multiplier key (`0` for non-normals and padding): the
    /// mantissa with explicit leading one — the product-table column —
    /// when the mantissa multiplier has a table (`n ≤ 8`), and otherwise
    /// the wordline mask `LineLayout::decode` gives for it, so the
    /// per-MAC product skips the decode.
    keys: Vec<[u32; LANES]>,
    /// Unbiased exponents (`0` for non-normals and padding).
    exps: Vec<[i32; LANES]>,
    /// Sign bits, at the `f32` sign position.
    signs: Vec<[u32; LANES]>,
    /// Accumulate mask: `!0` for `Normal`, `0` for zero bypass and
    /// padding — the lane kernel keeps the C bits through a select
    /// instead of branching per element.
    sel: Vec<[u32; LANES]>,
    /// Per-group flag: the group holds an element that needs the exact
    /// side logic — Inf/NaN, or a nonzero `f32` that flushes to format
    /// zero, whose signed-zero product the scalar path *accumulates*
    /// rather than skips — and must take the scalar fallback.
    exotic: Vec<bool>,
    /// Per tile row, the active wordlines its keys select in all (`0`
    /// when the keys are product-table columns): what choosing between
    /// the mask-OR chain and subset-OR tables weighs.
    lines: Vec<u32>,
}

impl LaneTile {
    /// Empties the tile and zero-fills `rows` rows of `row_groups` lane
    /// groups, keeping the allocations.
    fn reset(&mut self, rows: usize, row_groups: usize) {
        let groups = rows * row_groups;
        for v in [&mut self.keys, &mut self.signs, &mut self.sel] {
            v.clear();
            v.resize(groups, [0; LANES]);
        }
        self.exps.clear();
        self.exps.resize(groups, [0; LANES]);
        self.exotic.clear();
        self.exotic.resize(groups, false);
        self.lines.clear();
        self.lines.resize(rows, 0);
    }
}

/// The raw `rows × cols` block of the row-major `b` (row stride `n`),
/// one slice per row.
fn tile_rows(
    b: &[f32],
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) -> impl Iterator<Item = &[f32]> {
    rows.map(move |l| &b[l * n + cols.start..l * n + cols.end])
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

    /// Decodes the `rows × cols` block of the row-major `b` (row stride
    /// `n`) into `tile` once, ahead of many
    /// [`mul_decoded`](Self::mul_decoded) calls against it, reusing the
    /// buffers `tile` already holds.
    ///
    /// This is the second amortisation rung above
    /// [`mul_rows`](Self::mul_rows): `mul_rows` hoists the *A*-operand
    /// work out of the row loop, `decode_tile` hoists the *B*-operand
    /// decode out of the MAC loop entirely — the tiled GEMM engine
    /// decodes each `KC×NC` tile of B once and reuses it for every C row,
    /// so no per-MAC operand decode is left.
    ///
    /// The default caches nothing (correct for every backend);
    /// approximate and quantized backends override it.
    ///
    /// # Panics
    ///
    /// Panics if the block reaches outside `b`.
    fn decode_tile(
        &self,
        b: &[f32],
        n: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        tile: &mut DecodedTile,
    ) {
        assert!(rows.end * n <= b.len() && cols.end <= n, "tile outside B");
        *tile = DecodedTile::raw(rows.len(), cols.len());
    }

    /// `true` if [`decode_tile`](Self::decode_tile) caches a decoded
    /// form that [`mul_decoded`](Self::mul_decoded) consumes faster than
    /// [`mul_rows`](Self::mul_rows) re-derives it. Backends keeping the
    /// raw default return `false`, so the GEMM engine skips a decode
    /// that would buy them nothing.
    fn decodes_tiles(&self) -> bool {
        false
    }

    /// One C row against a tile decoded by
    /// [`decode_tile`](Self::decode_tile): `c += a · tile`, where `a` is
    /// the A row segment over the tile's depth and row `l` of the tile's
    /// raw values is `raw[l * stride..][..c.len()]`. The result must be
    /// **bit-identical** to `mul_rows(a[l], row l, c)` for every `l` with
    /// `a[l] != 0.0`, in ascending `l` — the zero bypass on both operands
    /// included (the equivalence tests and the differential GEMM suite
    /// enforce this).
    ///
    /// A tile decoded by a *different* backend (or the trait default)
    /// falls back to exactly that `mul_rows` loop on `raw`, so it is
    /// still correct — just not accelerated.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not one tile deep, `c` is not one tile row long,
    /// or `raw` is too short for the tile.
    fn mul_decoded(
        &self,
        a: &[f32],
        tile: &DecodedTile,
        raw: &[f32],
        stride: usize,
        c: &mut [f32],
    ) {
        tile.check(a, raw, stride, c);
        tile.mul_rows(self, a, raw, stride, c);
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

    fn decode_tile(
        &self,
        b: &[f32],
        n: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        tile: &mut DecodedTile,
    ) {
        let format = self.format;
        if !format.fits_f32() {
            // Other formats keep the raw default: nothing cheap to cache.
            *tile = DecodedTile::raw(rows.len(), cols.len());
            return;
        }
        let mut vals = match std::mem::take(&mut tile.data) {
            TileData::Quantized { vals, .. } => vals,
            _ => Vec::new(),
        };
        vals.clear();
        for row in tile_rows(b, n, rows.clone(), cols.clone()) {
            vals.extend(row.iter().map(|&x| quantize_f32(x, format)));
        }
        let data = TileData::Quantized { format, vals };
        *tile = DecodedTile { rows: rows.len(), cols: cols.len(), data };
    }

    fn decodes_tiles(&self) -> bool {
        self.format.fits_f32()
    }

    fn mul_decoded(
        &self,
        a: &[f32],
        tile: &DecodedTile,
        raw: &[f32],
        stride: usize,
        c: &mut [f32],
    ) {
        tile.check(a, raw, stride, c);
        let f = self.format;
        let vals = match &tile.data {
            TileData::Quantized { format, vals } if *format == f => vals,
            _ => return tile.mul_rows(self, a, raw, stride, c),
        };
        for (l, &av) in a.iter().enumerate() {
            if av == 0.0 {
                continue; // zero bypass, as the hardware does
            }
            let yqs = &vals[l * tile.cols..(l + 1) * tile.cols];
            // The cached `yq` is exactly the value `mul_rows` re-derives
            // per element; only the native multiply and the result
            // rounding remain in the loop, with the zero bypass as a
            // select.
            let xq = quantize_f32(av, f);
            for ((cv, bv), yq) in c.iter_mut().zip(tile.raw_row(raw, stride, l)).zip(yqs) {
                let p = quantize_f32(xq * yq, f);
                *cv = if *bv != 0.0 { *cv + p } else { *cv };
            }
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

    /// [`combine_raw`](Self::combine_raw) fused with the `f32` encode, on
    /// parts: takes the already-XORed sign and already-summed exponent,
    /// so decoded operands feed it without materialising `FpScalar`s, and
    /// skips the `FpScalar` round-trip (and its `powi`). Same
    /// normalisation, same saturation, same panic on a denormalised
    /// read-out — **bit-identical** results, asserted by the
    /// `mul_rows`-vs-`mul` equivalence tests. Only valid when
    /// `self.format.fits_f32()` (checked by callers).
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
        x: &DecodedF32,
        c: &mut [f32; LANES],
    ) {
        let n = self.format.mantissa_width();
        let truncate = self.mult.config().truncate;
        let (max_exp, min_exp) = (self.format.max_exp(), self.format.min_exp());
        let frac_mask = bits::mask(n - 1) as u32;
        let (xsign, xexp) = (x.sign, x.exp);
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
    /// values with the multiplicand `a` already decoded (`x`) and
    /// prepared — the fallback the lane kernel escapes to for exotic
    /// groups, and the body of the batched `mul_rows` fast path. Only
    /// valid when `self.format.fits_f32()` and `x` is normal (checked by
    /// callers).
    fn mul_prepared_scalar_chunk(
        &self,
        a: f32,
        x: &DecodedF32,
        prep: &PreparedMultiplicand,
        bs: &[f32],
        c: &mut [f32],
    ) {
        for (cv, &bv) in c.iter_mut().zip(bs) {
            if bv == 0.0 {
                continue; // zero bypass (§III-C) — never touches the array
            }
            let y = decode_f32(bv, self.format);
            *cv += if y.normal != 0 {
                let raw = self.mult.multiply_prepared_trusted(prep, y.man as u64);
                self.fuse_combine(x.sign != y.sign, x.exp + y.exp, raw)
            } else {
                // Inf/NaN, or a nonzero that flushes: exact side logic.
                self.mul(a, bv)
            };
        }
    }

    /// The decoded-tile kernel: `c[j] += mul(a, raw[j])` over one tile
    /// row — `row` is the tile's lanes and the row's first group index —
    /// with `product` turning a cached multiplier key into the raw
    /// mantissa read-out for the prepared `a`, one lane group at a time
    /// ([`mac_group`](Self::mac_group)). The padded tail group runs the
    /// same lanes as the full ones.
    #[allow(clippy::too_many_arguments)] // internal kernel seam: operand, decode, tile row, C
    fn mac_decoded(
        &self,
        a: f32,
        x: &DecodedF32,
        prep: &PreparedMultiplicand,
        raw: &[f32],
        row: (&LaneTile, usize),
        c: &mut [f32],
        product: impl Fn(u32) -> u64,
    ) {
        let groups = c.len() / LANES;
        let mut full = c.chunks_exact_mut(LANES);
        for (g, cg) in (&mut full).enumerate() {
            let cg: &mut [f32; LANES] = cg.try_into().expect("lane group");
            self.mac_group(a, x, prep, raw, row, g, cg, LANES, &product);
        }
        let tail = full.into_remainder();
        if !tail.is_empty() {
            // The tail group runs on a padded copy of its C values.
            // Element-wise copies with a fixed trip count: a `memcpy`
            // call per tail would cost narrow tiles more than the lanes.
            let mut lanes = [0.0f32; LANES];
            for (j, v) in lanes.iter_mut().enumerate() {
                *v = tail.get(j).copied().unwrap_or(0.0);
            }
            self.mac_group(a, x, prep, raw, row, groups, &mut lanes, tail.len(), &product);
            for (j, v) in lanes.into_iter().enumerate() {
                if let Some(cv) = tail.get_mut(j) {
                    *cv = v;
                }
            }
        }
    }

    /// Lane group `g` of [`mac_decoded`](Self::mac_decoded): `c` holds
    /// its C values, the first `len` of them real. Renormalise,
    /// saturation and the zero bypass are selects over fixed-width lanes
    /// ([`combine_lanes`](Self::combine_lanes)), so the group
    /// vectorizes — the zero selects of a tail group's padding lanes
    /// leave them alone — and an exotic group takes the scalar fallback.
    /// Every step computes exactly the value the scalar path computes,
    /// so results stay bit-identical (the decoded-vs-`mul_rows`
    /// equivalence tests and the differential GEMM suite enforce this).
    /// Only valid when `self.format.fits_f32()` and `x` is normal.
    // Always inlined, like `combine_lanes`: a call per lane group would
    // cost the narrow-mantissa kernel.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // internal kernel seam: operand, decode, tile row, C
    fn mac_group(
        &self,
        a: f32,
        x: &DecodedF32,
        prep: &PreparedMultiplicand,
        raw: &[f32],
        (lanes, row): (&LaneTile, usize),
        g: usize,
        c: &mut [f32; LANES],
        len: usize,
        product: &impl Fn(u32) -> u64,
    ) {
        let gi = row + g;
        if lanes.exotic[gi] {
            let cols = g * LANES..g * LANES + len;
            return self.mul_prepared_scalar_chunk(a, x, prep, &raw[cols], &mut c[..len]);
        }
        let mut raws = [0u64; LANES];
        for (r, &k) in raws.iter_mut().zip(&lanes.keys[gi]) {
            *r = product(k);
        }
        self.combine_lanes(&raws, &lanes.exps[gi], &lanes.signs[gi], &lanes.sel[gi], x, c);
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
        // table row) once per row — this is the batched fast path the
        // GEMM engine exists for. Every per-element step below matches
        // `mul_scalars` exactly, keeping results bit-identical.
        if self.format.fits_f32() {
            let x = decode_f32(a, self.format);
            if x.normal != 0 {
                let prep = self.mult.prepare(x.man as u64);
                return self.mul_prepared_scalar_chunk(a, &x, &prep, b, c);
            }
        } else {
            let xs = FpScalar::from_f32(a, self.format);
            if xs.class() == FpClass::Normal {
                let prep = self.mult.prepare(xs.mantissa());
                for (cv, &bv) in c.iter_mut().zip(b) {
                    if bv == 0.0 {
                        continue; // zero bypass (§III-C) — never touches the array
                    }
                    let ys = FpScalar::from_f32(bv, self.format);
                    let product = if ys.class() == FpClass::Normal {
                        let raw = self.mult.multiply_prepared(&prep, ys.mantissa());
                        self.combine_raw(&xs, &ys, raw)
                    } else {
                        self.mul_scalars(&xs, &ys)
                    };
                    *cv += product.to_f32();
                }
                return;
            }
        }
        // Zero / NaN / Inf multiplicand, or one that flushes: rare,
        // handled by the exact side logic — no mantissa work to hoist.
        for (cv, &bv) in c.iter_mut().zip(b) {
            if bv != 0.0 {
                *cv += self.mul(a, bv);
            }
        }
    }

    fn decode_tile(
        &self,
        b: &[f32],
        n: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        tile: &mut DecodedTile,
    ) {
        let format = self.format;
        if !format.fits_f32() {
            // Exotic formats stay on the FpScalar path; nothing cheap to
            // cache, so keep the raw default.
            *tile = DecodedTile::raw(rows.len(), cols.len());
            return;
        }
        let mut lanes = match std::mem::take(&mut tile.data) {
            TileData::Approx { lanes, .. } => lanes,
            _ => LaneTile::default(),
        };
        let row_groups = cols.len().div_ceil(LANES);
        lanes.reset(rows.len(), row_groups);
        for (r, src) in tile_rows(b, n, rows.clone(), cols.clone()).enumerate() {
            for (g, xs) in src.chunks(LANES).enumerate() {
                let gi = r * row_groups + g;
                let (keys, sel) = (&mut lanes.keys[gi], &mut lanes.sel[gi]);
                let (exps, signs) = (&mut lanes.exps[gi], &mut lanes.signs[gi]);
                let dst =
                    keys.iter_mut().zip(exps.iter_mut()).zip(signs.iter_mut()).zip(sel.iter_mut());
                // A zero select on a nonzero element marks a group whose
                // exact result the lanes cannot give: an Inf/NaN product,
                // or the signed zero a flushed element adds to C.
                let mut odd = 0;
                for ((((key, exp), sign), sel), &bv) in dst.zip(xs) {
                    // Zero, flushed and Inf/NaN elements decode to
                    // mantissa 0, exponent 0 and a cleared select: the
                    // lane keeps C.
                    let y = decode_f32(bv, format);
                    *key = y.man;
                    *exp = y.exp;
                    *sign = y.sign;
                    *sel = y.normal;
                    odd |= (bv.to_bits() << 1) & !y.normal;
                }
                if !self.mult.has_table() {
                    for (key, &sel) in keys.iter_mut().zip(sel.iter()) {
                        *key = self.mult.key(*key as u64) & sel;
                        lanes.lines[r] += key.count_ones();
                    }
                }
                lanes.exotic[gi] = odd != 0;
            }
        }
        let data = TileData::Approx { format, config: self.config(), lanes };
        *tile = DecodedTile { rows: rows.len(), cols: cols.len(), data };
    }

    fn decodes_tiles(&self) -> bool {
        // Exotic formats keep the raw default in `decode_tile`, so there
        // is nothing for the engine to amortise.
        self.format.fits_f32()
    }

    fn mul_decoded(
        &self,
        a: &[f32],
        tile: &DecodedTile,
        raw: &[f32],
        stride: usize,
        c: &mut [f32],
    ) {
        tile.check(a, raw, stride, c);
        let f = self.format;
        let lanes = match &tile.data {
            TileData::Approx { format, config, lanes }
                if (*format, *config) == (f, self.config()) =>
            {
                lanes
            }
            _ => return tile.mul_rows(self, a, raw, stride, c),
        };
        let row_groups = tile.cols.div_ceil(LANES);
        for (l, &av) in a.iter().enumerate() {
            if av == 0.0 {
                continue; // zero bypass, as the hardware does
            }
            let braw = tile.raw_row(raw, stride, l);
            let x = decode_f32(av, f);
            if x.normal == 0 {
                // NaN / Inf multiplicand, or one that flushes: rare,
                // exact side logic.
                self.mul_rows(av, braw, c);
                continue;
            }
            // Per-element work: one decode of `a` and its line patterns
            // (or table row); per-MAC work: one product read of the
            // cached key plus the branch-free combine.
            let prep = self.mult.prepare(x.man as u64);
            let row = (lanes, l * row_groups);
            if let Some(table) = self.mult.lut_row(&prep) {
                let mask = table.len() - 1;
                self.mac_decoded(av, &x, &prep, braw, row, c, |k| table[k as usize & mask] as u64);
            } else if lanes.lines[l] >= OR_TABLE_MIN_LINES {
                self.mult.with_or_tables(&prep, |t| {
                    self.mac_decoded(av, &x, &prep, braw, row, c, |k| t.product(k))
                });
            } else {
                let lines = prep.line_patterns();
                self.mac_decoded(av, &x, &prep, braw, row, c, |k| lines.or_mask(k));
            }
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

    /// `decode_tile` + `mul_decoded` must be element-wise bit-identical
    /// to `mul_rows` on the same row — the contract the decoded-tile
    /// GEMM engine is built on. The tile is the block `[1, 1 + len)` of
    /// a `3 × (len + 2)` matrix whose rows hold `bs` forwards and
    /// reversed, so the row stride and column offset are exercised, and
    /// `tile` arrives holding whatever the previous call decoded. Both
    /// `+0.0`- and `-0.0`-initialised accumulators are checked — a
    /// negative-zero accumulator is flipped to `+0.0` by the signed-zero
    /// product of a *flushed* (nonzero-f32, format-zero) element, which
    /// the lane path must reproduce, not skip.
    fn assert_decoded_matches_mul_rows(
        m: &dyn ScalarMul,
        bs: &[f32],
        as_: &[f32],
        tile: &mut DecodedTile,
    ) {
        let n = bs.len() + 2;
        let rows: Vec<Vec<f32>> = vec![bs.to_vec(), bs.iter().rev().copied().collect()];
        let mut b = vec![7.0f32; n];
        for row in &rows {
            b.extend([f32::NAN]);
            b.extend(row);
            b.extend([-0.0]);
        }
        m.decode_tile(&b, n, 1..3, 1..n - 1, tile);
        for (r, row) in rows.iter().enumerate() {
            for &a in as_ {
                for init in [0.0f32, -0.0] {
                    let mut plain = vec![init; bs.len()];
                    let mut decoded = vec![init; bs.len()];
                    if a != 0.0 {
                        m.mul_rows(a, row, &mut plain); // zero A is bypassed
                    }
                    // `a` against tile row `r` alone: the other row's A
                    // element is a bypassed zero.
                    let mut arow = [0.0f32; 2];
                    arow[r] = a;
                    m.mul_decoded(&arow, tile, &b[n + 1..], n, &mut decoded);
                    for (j, (p, q)) in plain.iter().zip(&decoded).enumerate() {
                        assert!(
                            p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                            "{}: a={a}, b={}, c0={init}: mul_rows {p} vs mul_decoded {q}",
                            m.name(),
                            row[j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decoded_tile_matches_mul_rows_for_every_backend() {
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
        let mut tile = DecodedTile::default();
        for m in &backends {
            assert_decoded_matches_mul_rows(m.as_ref(), &edges, &edges, &mut tile);
            // 9 columns: one full lane group and a one-lane tail group.
            assert_decoded_matches_mul_rows(m.as_ref(), &edges[5..14], &edges, &mut tile);
            let some_as = [0.37, -11.0, 1.0, 255.4];
            assert_decoded_matches_mul_rows(m.as_ref(), &dense, &some_as, &mut tile);
            assert_decoded_matches_mul_rows(m.as_ref(), &[], &[1.5], &mut tile);
        }
    }

    #[test]
    fn foreign_tiles_fall_back_correctly() {
        // A tile decoded by one backend fed to another must still match
        // the consumer's own `mul_rows` semantics (unaccelerated path) —
        // also between two configurations of one wide format, whose
        // cached wordline masks differ.
        let bs = edge_values();
        let preparers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP16)),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC2, FpFormat::FP32)),
        ];
        let consumers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(QuantizedExactMul::new(FpFormat::FP32)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC2, FpFormat::BF16)),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC3, FpFormat::FP32)),
        ];
        for preparer in &preparers {
            let mut tile = DecodedTile::default();
            preparer.decode_tile(&bs, bs.len(), 0..1, 0..bs.len(), &mut tile);
            for consumer in &consumers {
                for &a in &[1.5f32, -0.37, 0.0, 1.0 + 2f32.powi(-7)] {
                    let mut plain = vec![0.0f32; bs.len()];
                    let mut decoded = vec![0.0f32; bs.len()];
                    if a != 0.0 {
                        consumer.mul_rows(a, &bs, &mut plain); // zero A is bypassed
                    }
                    consumer.mul_decoded(&[a], &tile, &bs, bs.len(), &mut decoded);
                    for (p, q) in plain.iter().zip(&decoded) {
                        assert!(
                            p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                            "tile from {} into {}: a={a}: {p} vs {q}",
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
