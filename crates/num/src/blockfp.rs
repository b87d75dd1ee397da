/// A block-floating-point (BFP) encoding of a slice of values: signed
/// mantissas sharing a single exponent.
///
/// The DAISM accelerator (paper §IV-A) handles exponents "similar to how a
/// block floating point architecture would work — this data type only has
/// one exponent per matrix, reducing data size and improving performance".
/// `BlockFp` is that representation: each element is stored as a signed
/// `man_width`-bit mantissa scaled by `2^(shared_exp - (man_width - 2))`
/// (the `- 2` leaves headroom for the sign and for the leading digit of the
/// largest element, whose magnitude may reach just under
/// `2^(shared_exp + 1)`).
///
/// Mantissas are **symmetric**: every value clamps to
/// `±(2^(man_width-1) - 1)`, so a mantissa *magnitude* always fits in
/// `man_width - 1` bits. This is what lets the integer-mode DAISM
/// multiplier consume magnitudes directly — there is no
/// `-2^(man_width-1)` two's-complement extreme whose magnitude would
/// overflow the multiplier's operand width and silently saturate (the
/// `i32::MIN`-style bug the earlier asymmetric clamp exposed downstream).
/// The cost is that a largest-magnitude element whose mantissa would
/// round to `±2^(man_width-1)` (the top sliver of its octave, either
/// sign) clamps and can carry up to one quantization step of error
/// instead of half a step; see [`quantize`](BlockFp::quantize).
///
/// # Examples
///
/// ```
/// use daism_num::BlockFp;
///
/// let block = BlockFp::quantize(&[1.0, -0.5, 0.25], 8);
/// let back = block.dequantize();
/// assert!((back[0] - 1.0).abs() < 0.01);
/// assert!((back[1] + 0.5).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFp {
    shared_exp: i32,
    man_width: u32,
    mantissas: Vec<i32>,
}

/// The bit pattern of `+inf`: a sign-cleared `f32` pattern below it is
/// finite, one above it is a NaN.
const INF_BITS: u32 = 0x7F80_0000;

/// Lanes of the chunked max in [`max_finite_abs_bits`].
const LANES: usize = 8;

/// The absolute bit pattern of the largest finite element of `values`,
/// or 0 when there is none (empty, all zero, all non-finite).
///
/// Non-negative `f32` order equals `u32` order of their bit patterns, so
/// an integer max over the sign-cleared bits finds the largest
/// magnitude; infinities and NaNs are masked to 0 first. Written as an
/// explicit `LANES`-wide chunk loop so the max vectorizes.
#[inline(always)]
fn max_finite_abs_bits(values: &[f32]) -> u32 {
    let finite_abs = |v: f32| {
        let a = v.to_bits() & !(1 << 31);
        if a < INF_BITS {
            a
        } else {
            0
        }
    };
    let mut lanes = [0u32; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane).max(finite_abs(v));
        }
    }
    let tail = chunks.remainder().iter().fold(0, |m, &v| m.max(finite_abs(v)));
    lanes.iter().fold(tail, |m, &l| m.max(l))
}

/// Rounds one element to its block mantissa: `v · 2^(man_width - 2 -
/// shared_exp)` rounded to nearest, ties away from zero, clamped to
/// `±limit`; `±inf` saturates to `±limit` and NaN gives 0.
///
/// `bias` is `man_width - 152 - shared_exp`, so `max(e, 1) + bias` is the
/// power of two that scales the element's integer significand `s`
/// (`v = s · 2^(max(e, 1) - 150)`) onto the mantissa grid. A negative
/// power is a rounding right shift, clamped to 31 — exact because `s <
/// 2^24`, so every shift of 25 or more rounds to 0 anyway. A
/// non-negative one is an exact left shift. One of the two shifts is
/// always 0, so both run unconditionally; the specials, the clamp and
/// the sign are selects, leaving no data-dependent branch.
#[inline(always)]
fn quantize_element(v: f32, bias: i32, limit: u32) -> i32 {
    let bits = v.to_bits();
    let a = bits & !(1 << 31);
    let e = (a >> 23) as i32;
    let s = (a & 0x007F_FFFF) | (u32::from(e != 0) << 23);
    let d = e.max(1) + bias;
    let right = (-d).clamp(0, 31) as u32;
    let left = d.clamp(0, 31) as u32;
    let half = (1u32 << right) >> 1;
    let q = (((s + half) >> right) << left).min(limit);
    let q = if a == INF_BITS { limit } else { q };
    let q = if a > INF_BITS { 0 } else { q } as i32;
    let neg = -((bits >> 31) as i32); // 0 or -1
    (q ^ neg) - neg
}

/// Panics unless `man_width` is in `2..=31`.
#[inline(always)]
fn check_width(man_width: u32) {
    assert!(
        (2..=31).contains(&man_width),
        "mantissa width {man_width} outside supported range 2..=31"
    );
}

impl BlockFp {
    /// Quantizes `values` into a block with `man_width`-bit signed
    /// mantissas (including the sign's magnitude bit; `man_width >= 2`).
    ///
    /// The shared exponent is the largest element exponent; smaller
    /// elements lose low-order bits (standard BFP behaviour). Subnormal
    /// inputs carry their true exponent (they are *not* flushed to zero
    /// at this stage — a block of tiny values keeps its information; they
    /// only round to zero when sharing a block with much larger values,
    /// which is the BFP error model, not a flush).
    ///
    /// Each element becomes `v · 2^(man_width - 2 - shared_exp)` rounded
    /// to nearest, ties away from zero, followed by a **symmetric** clamp
    /// to `±(2^(man_width-1) - 1)`: a mantissa magnitude always fits
    /// `man_width - 1` bits, so integer datapaths consuming
    /// [`mantissas`](Self::mantissas) never need to saturate. Every
    /// element therefore reconstructs within half a quantization step,
    /// except an extreme whose mantissa rounds to exactly
    /// `±2^(man_width-1)` (either sign — a max-magnitude element in the
    /// top half-step sliver of its octave), which clamps and may carry
    /// up to one full step.
    ///
    /// Non-finite values cannot be represented: `NaN` quantizes to `0`
    /// and `±inf` saturates to the clamp limit (neither contributes to
    /// the shared exponent). A block with no finite nonzero element is
    /// all zeros with shared exponent 0.
    ///
    /// The work is two branch-free passes of integer arithmetic on the
    /// `f32` bits, no floating point:
    /// [`shared_exponent`](Self::shared_exponent), then
    /// [`quantize_mantissas`](Self::quantize_mantissas).
    ///
    /// # Panics
    ///
    /// Panics if `man_width < 2` or `man_width > 31`.
    pub fn quantize(values: &[f32], man_width: u32) -> Self {
        check_width(man_width);
        let mut mantissas = vec![0; values.len()];
        let shared_exp = match Self::shared_exponent(values) {
            Some(exp) => {
                Self::quantize_mantissas(values, exp, man_width, &mut mantissas);
                exp
            }
            None => 0,
        };
        BlockFp { shared_exp, man_width, mantissas }
    }

    /// Pass one of [`quantize`](Self::quantize): the largest exponent of
    /// a finite nonzero element of `values` — the block's shared
    /// exponent — or `None` when there is none.
    ///
    /// An integer max over the sign-cleared bit patterns of the finite
    /// elements (positive-float order is integer order), in 8 `u32`
    /// lanes, then the winner's exponent field, or its leading zeros for
    /// a subnormal. The exponent grows with the magnitude, so the shared
    /// exponent of a block split into parts is the max over the parts.
    ///
    /// `#[inline(always)]`, like [`quantize_mantissas`](Self::quantize_mantissas),
    /// so a caller compiled for a wider vector unit (the BlockFp GEMM
    /// engine's runtime-detected AVX2 build) gets the loop compiled for
    /// it.
    #[inline(always)]
    pub fn shared_exponent(values: &[f32]) -> Option<i32> {
        let max = max_finite_abs_bits(values);
        if max == 0 {
            None
        } else if max >= 1 << 23 {
            Some((max >> 23) as i32 - 127)
        } else {
            // Subnormal: the top set bit of the significand is at
            // 31 - lz, and the significand's unit is 2^-149.
            Some(-118 - max.leading_zeros() as i32)
        }
    }

    /// Pass two of [`quantize`](Self::quantize): writes the mantissas of
    /// `values` in a block with exponent `shared_exp` into `out`,
    /// allocating nothing. Each element's integer significand is shifted
    /// and rounded in `u32` lanes with no data-dependent branch.
    /// `shared_exp` must not be below
    /// [`shared_exponent`](Self::shared_exponent) of `values`: a larger
    /// element does not fit the mantissa grid.
    ///
    /// # Panics
    ///
    /// Panics if `man_width` is outside `2..=31` or if `out.len() !=
    /// values.len()`.
    #[inline(always)]
    pub fn quantize_mantissas(values: &[f32], shared_exp: i32, man_width: u32, out: &mut [i32]) {
        check_width(man_width);
        assert_eq!(out.len(), values.len(), "output length must match the block");
        let bias = man_width as i32 - 152 - shared_exp;
        let limit = (1u32 << (man_width - 1)) - 1;
        for (q, &v) in out.iter_mut().zip(values) {
            *q = quantize_element(v, bias, limit);
        }
    }

    /// Quantizes a row-major `rows × row_len` matrix into **one block per
    /// `seg_len`-wide row segment**: row `r` becomes the consecutive
    /// blocks `r * ceil(row_len / seg_len) ..`, each holding up to
    /// `seg_len` elements with its own shared exponent. The final segment
    /// of a row is short when `seg_len` does not divide `row_len`.
    ///
    /// This is the sub-block quantization the tiled BlockFp GEMM engine
    /// uses for its A operand (one exponent per `(row, k-tile)` pair
    /// instead of one per matrix): each block is produced by
    /// [`quantize`](Self::quantize) on the segment's values, so the
    /// per-element semantics are identical — only the exponent-sharing
    /// granularity changes.
    ///
    /// # Panics
    ///
    /// Panics if `seg_len == 0`, if `row_len == 0` while `values` is
    /// non-empty, or if `values.len()` is not a multiple of `row_len`.
    pub fn quantize_rows(
        values: &[f32],
        row_len: usize,
        seg_len: usize,
        man_width: u32,
    ) -> Vec<Self> {
        assert!(seg_len > 0, "segment length must be positive");
        if values.is_empty() {
            return Vec::new();
        }
        assert!(row_len > 0, "row length must be positive for non-empty values");
        assert!(
            values.len().is_multiple_of(row_len),
            "values length {} is not a multiple of row length {row_len}",
            values.len()
        );
        let segs_per_row = row_len.div_ceil(seg_len);
        let mut blocks = Vec::with_capacity((values.len() / row_len) * segs_per_row);
        for row in values.chunks_exact(row_len) {
            for seg in row.chunks(seg_len) {
                blocks.push(Self::quantize(seg, man_width));
            }
        }
        blocks
    }

    /// Reconstructs the approximated values.
    pub fn dequantize(&self) -> Vec<f32> {
        let scale = self.scale();
        self.mantissas.iter().map(|&m| (m as f64 * scale) as f32).collect()
    }

    /// The value of one mantissa unit: `2^(shared_exp - (man_width - 2))`.
    /// `value[i] ≈ mantissas[i] * scale()`; this is also the block's
    /// quantization step.
    #[inline]
    pub fn scale(&self) -> f64 {
        2f64.powi(self.shared_exp - (self.man_width as i32 - 2))
    }

    /// The shared (unbiased) exponent of the block.
    #[inline]
    pub fn shared_exp(&self) -> i32 {
        self.shared_exp
    }

    /// Mantissa width in bits (including the sign-magnitude bit).
    #[inline]
    pub fn man_width(&self) -> u32 {
        self.man_width
    }

    /// The signed integer mantissas. Magnitudes are guaranteed to fit
    /// `man_width - 1` bits (symmetric clamp, see
    /// [`quantize`](Self::quantize)).
    #[inline]
    pub fn mantissas(&self) -> &[i32] {
        &self.mantissas
    }

    /// Number of elements in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.mantissas.len()
    }

    /// `true` if the block holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mantissas.is_empty()
    }

    /// Worst-case relative quantization error over the block (ignoring
    /// zeros), useful for accuracy accounting in the accelerator model.
    pub fn max_rel_error(&self, original: &[f32]) -> f64 {
        let back = self.dequantize();
        original
            .iter()
            .zip(&back)
            .filter(|(&o, _)| o != 0.0)
            .map(|(&o, &b)| ((b - o) / o).abs() as f64)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule [`BlockFp::quantize`] implements, in `f64`: the shared
    /// exponent is the largest exponent of a finite nonzero element
    /// (read from its exact `f64` widening), and each mantissa is
    /// `round(v · 2^(man_width - 2 - shared_exp))` clamped to ±limit.
    /// `v as f64 * scale` is exact, `round` ties away from zero, NaN
    /// casts to 0 and ±inf saturates. Writes into `out` and returns the
    /// shared exponent.
    fn quantize_oracle(values: &[f32], man_width: u32, out: &mut [i32]) -> i32 {
        let Some(shared_exp) = values.iter().filter_map(|&v| oracle_exponent(v)).max() else {
            out.fill(0);
            return 0;
        };
        let scale = 2f64.powi(man_width as i32 - 2 - shared_exp);
        let limit = (1i64 << (man_width - 1)) - 1;
        for (q, &v) in out.iter_mut().zip(values) {
            *q = ((v as f64 * scale).round() as i64).clamp(-limit, limit) as i32;
        }
        shared_exp
    }

    /// The exponent the `f64` rule reads off a finite nonzero element.
    fn oracle_exponent(v: f32) -> Option<i32> {
        (v != 0.0 && v.is_finite())
            .then(|| (((v.abs() as f64).to_bits() >> 52) & 0x7FF) as i32 - 1023)
    }

    /// Every upper-16 bit pattern with five low halves (both ends, both
    /// sides of the midpoint), each in a block with a pivot that either
    /// sets the shared exponent or loses to the element: the bit-level
    /// quantizer equals the `f64` rule.
    ///
    /// Elements with the same exponent share one block with the pivot.
    /// That block's shared exponent is the one each element would get
    /// in a two-element block with the pivot, and an element's mantissa
    /// depends only on it, the element and the width — so this is the
    /// exhaustive two-element check, at long-block speed. The serving
    /// widths (9, 12) and the widest get every pivot; the rest a cheaper
    /// set that still covers zero, a unit, the smallest subnormal, the
    /// largest finite value and a NaN.
    #[test]
    fn quantize_matches_f64_rule_exhaustively() {
        let all = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            7e-45,
            1e-40,
            f32::MIN_POSITIVE,
            3.3e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let few = [0.0f32, -1.0, 7e-45, 3.3e38, f32::NAN];
        let mut groups = std::collections::BTreeMap::<Option<i32>, Vec<f32>>::new();
        for hi in 0u32..=0xFFFF {
            for lo in [0x0000u32, 0x7FFF, 0x8000, 0x8001, 0xFFFF] {
                let v = f32::from_bits(hi << 16 | lo);
                groups.entry(oracle_exponent(v)).or_default().push(v);
            }
        }
        for width in [2u32, 5, 9, 12, 16, 24, 25, 31] {
            let pivots: &[f32] = if matches!(width, 9 | 12 | 31) { &all } else { &few };
            for &pivot in pivots {
                for group in groups.values() {
                    let mut block = group.clone();
                    block.push(pivot);
                    let mut want = vec![0; block.len()];
                    let want_exp = quantize_oracle(&block, width, &mut want);
                    let q = BlockFp::quantize(&block, width);
                    let (exp, got) = (q.shared_exp(), q.mantissas());
                    assert_eq!(exp, want_exp, "width {width}, pivot {pivot:e}: shared exponent");
                    if let Some(i) = (0..block.len()).find(|&i| got[i] != want[i]) {
                        panic!(
                            "width {width}, pivot {pivot:e}, element {:#010x}: got {}, \
                             f64 rule gives {}",
                            block[i].to_bits(),
                            got[i],
                            want[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_matches_f64_rule_on_long_blocks() {
        // Blocks longer than one lane chunk, with the maximum in the
        // chunked part, in the tail, or only among specials.
        let mut state = 0x9E37_79B9u32;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for len in [8usize, 9, 16, 17, 33, 100] {
            for _ in 0..200 {
                let values: Vec<f32> = (0..len).map(|_| f32::from_bits(next())).collect();
                for width in [2u32, 9, 25, 31] {
                    let mut want = vec![0; len];
                    let shared_exp = quantize_oracle(&values, width, &mut want);
                    let block = BlockFp::quantize(&values, width);
                    assert_eq!((block.shared_exp(), block.mantissas()), (shared_exp, &want[..]));
                }
            }
        }
    }

    #[test]
    fn roundtrip_within_block_precision() {
        let values = [1.0f32, -0.5, 0.25, 0.75, -0.125];
        let block = BlockFp::quantize(&values, 12);
        let back = block.dequantize();
        for (o, b) in values.iter().zip(&back) {
            assert!((o - b).abs() <= 2f32.powi(-10), "{o} vs {b}");
        }
    }

    #[test]
    fn shared_exponent_is_max() {
        let block = BlockFp::quantize(&[0.25, 8.0, 1.0], 8);
        // 8.0 = 1.0 * 2^3.
        assert_eq!(block.shared_exp(), 3);
    }

    #[test]
    fn all_zero_block() {
        let block = BlockFp::quantize(&[0.0, 0.0, -0.0], 8);
        assert_eq!(block.shared_exp(), 0);
        assert_eq!(block.dequantize(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_block() {
        let block = BlockFp::quantize(&[], 8);
        assert!(block.is_empty());
        assert_eq!(block.dequantize(), Vec::<f32>::new());
    }

    #[test]
    fn small_values_lose_precision_relative_to_large() {
        // With a big max element, tiny elements quantize to zero.
        let block = BlockFp::quantize(&[1000.0, 1e-4], 8);
        let back = block.dequantize();
        assert_eq!(back[1], 0.0);
    }

    #[test]
    fn mantissa_magnitudes_fit_multiplier_width() {
        // The symmetric clamp: no mantissa magnitude may need man_width-1
        // bits plus one — the integer multiplier consumes magnitudes
        // directly and must never saturate. -1.99 at width 4 would round
        // to -8 (= -2^3); it must clamp to -7 instead.
        for width in [2u32, 4, 8, 16, 31] {
            let limit = (1u32 << (width - 1)) - 1;
            let block = BlockFp::quantize(&[-1.99, -1.0, 0.9, 1.99], width);
            for &m in block.mantissas() {
                assert!(m.unsigned_abs() <= limit, "width {width}: mantissa {m} exceeds ±{limit}");
            }
        }
    }

    #[test]
    fn negative_extreme_saturates_symmetrically() {
        // -1.0 with max exp 0 and width 4: scale 2^2, q = -4 — exact.
        let block = BlockFp::quantize(&[-1.0, 0.9], 4);
        assert_eq!(block.dequantize()[0], -1.0);
        // -1.99 rounds to -8 = -2^3, which clamps to -7: within one step
        // (0.25) instead of half a step — the documented symmetric-clamp
        // trade-off.
        let block = BlockFp::quantize(&[-1.99, 0.9], 4);
        let back = block.dequantize();
        assert_eq!(back[0], -1.75);
        assert!((back[0] - -1.99f32).abs() <= 0.25 + 1e-6);
    }

    #[test]
    fn positive_extreme_saturates_symmetrically() {
        // The positive twin of the negative extreme: 524200.0 at width
        // 12 has its mantissa round to +2^11, which clamps to +2047 —
        // within one step instead of half.
        let block = BlockFp::quantize(&[524200.0f32], 12);
        assert_eq!(block.mantissas()[0], (1 << 11) - 1);
        let back = block.dequantize()[0];
        assert!(((back - 524200.0).abs() as f64) <= block.scale() * 1.0000001);
    }

    #[test]
    fn subnormal_only_block_is_not_flushed() {
        // All-subnormal inputs used to flush to an all-zero block (their
        // FpScalar decode classifies them as Zero); the bit-level f64
        // exponent keeps them.
        let v = f32::MIN_POSITIVE / 4.0; // subnormal
        let block = BlockFp::quantize(&[v, -v, v / 2.0], 12);
        let back = block.dequantize();
        assert!(back[0] > 0.0, "subnormal flushed: {:?}", back);
        assert!((back[0] - v).abs() / v < 2e-3);
        assert!((back[1] + v).abs() / v < 2e-3);
        assert!((back[2] - v / 2.0).abs() / (v / 2.0) < 2e-3);
    }

    #[test]
    fn huge_dynamic_range_keeps_largest_and_zeroes_tiniest() {
        let values = [3.3e38f32, -1.2e-38, 4.7e-41];
        let block = BlockFp::quantize(&values, 12);
        let back = block.dequantize();
        assert!((back[0] - values[0]).abs() / values[0] < 2e-3);
        assert_eq!(back[1], 0.0);
        assert_eq!(back[2], 0.0);
    }

    #[test]
    fn non_finite_values_do_not_poison_the_block() {
        let block = BlockFp::quantize(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0], 8);
        // Exponent comes from the finite 1.0; NaN quantizes to 0, ±inf
        // saturates to the clamp limit.
        assert_eq!(block.shared_exp(), 0);
        assert_eq!(block.mantissas()[0], 0);
        let limit = (1i32 << 7) - 1;
        assert_eq!(block.mantissas()[1], limit);
        assert_eq!(block.mantissas()[2], -limit);
        assert_eq!(block.dequantize()[3], 1.0);
    }

    #[test]
    fn quantize_rows_matches_per_segment_quantize() {
        // 2 rows of 5, segment 2: blocks are [0..2], [2..4], [4..5] per row.
        let values: Vec<f32> = (0..10).map(|i| (i as f32 - 4.5) * 1.3).collect();
        let blocks = BlockFp::quantize_rows(&values, 5, 2, 9);
        assert_eq!(blocks.len(), 6);
        for (r, row) in values.chunks(5).enumerate() {
            for (s, seg) in row.chunks(2).enumerate() {
                assert_eq!(blocks[r * 3 + s], BlockFp::quantize(seg, 9), "row {r} seg {s}");
            }
        }
    }

    #[test]
    fn quantize_rows_whole_row_segments() {
        let values: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        // seg_len >= row_len: one block per row.
        let blocks = BlockFp::quantize_rows(&values, 2, 8, 8);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0], BlockFp::quantize(&[1.0, 2.0], 8));
        assert_eq!(blocks[1], BlockFp::quantize(&[3.0, 4.0], 8));
    }

    #[test]
    fn quantize_rows_empty_is_empty() {
        assert!(BlockFp::quantize_rows(&[], 0, 4, 8).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn quantize_rows_rejects_ragged_input() {
        let _ = BlockFp::quantize_rows(&[1.0, 2.0, 3.0], 2, 1, 8);
    }

    #[test]
    #[should_panic(expected = "segment length")]
    fn quantize_rows_rejects_zero_segment() {
        let _ = BlockFp::quantize_rows(&[1.0, 2.0], 2, 0, 8);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn rejects_width_one() {
        let _ = BlockFp::quantize(&[1.0], 1);
    }

    #[test]
    fn max_rel_error_reports_zero_for_exact() {
        let values = [0.5f32, 1.0, -0.75];
        let block = BlockFp::quantize(&values, 16);
        assert!(block.max_rel_error(&values) < 1e-4);
    }

    #[test]
    fn scale_is_the_dequantization_step() {
        let block = BlockFp::quantize(&[1.0, 0.5], 8);
        assert_eq!(block.scale(), 2f64.powi(-(8 - 2)));
        let back = block.dequantize();
        assert_eq!(back[0] as f64, block.mantissas()[0] as f64 * block.scale());
    }
}
