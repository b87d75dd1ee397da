use crate::bits;
use crate::format::FpFormat;

/// Classification of a decoded floating-point value.
///
/// Subnormal inputs are flushed to [`FpClass::Zero`] on decode — the DAISM
/// datapath (like most DNN accelerators) does not implement gradual
/// underflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpClass {
    /// Positive or negative zero (also produced by flushed subnormals).
    Zero,
    /// A normal value with an explicit leading one in the mantissa.
    Normal,
    /// Positive or negative infinity.
    Inf,
    /// Not-a-number. The sign bit is preserved but meaningless.
    Nan,
}

/// A decoded floating-point value in a given [`FpFormat`].
///
/// A `Normal` scalar holds its mantissa as an unsigned integer of width
/// [`FpFormat::mantissa_width`] with the leading one explicit (top bit
/// always set) — exactly the operand shape the in-SRAM multiplier consumes —
/// plus an unbiased exponent and a sign.
///
/// The represented value of a normal scalar is
/// `(-1)^sign · mantissa · 2^(exponent - man_bits)`.
///
/// # Examples
///
/// ```
/// use daism_num::{FpFormat, FpScalar};
///
/// let x = FpScalar::from_f32(-3.25, FpFormat::FP32);
/// assert!(x.sign());
/// assert_eq!(x.exponent(), 1); // 3.25 = 1.625 * 2^1
/// assert_eq!(x.to_f32(), -3.25);
///
/// // Narrowing to bfloat16 rounds to nearest-even:
/// let y = FpScalar::from_f32(3.141592653589793, FpFormat::BF16);
/// assert_eq!(y.to_f32(), 3.140625);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpScalar {
    sign: bool,
    exp: i32,
    man: u64,
    format: FpFormat,
    class: FpClass,
}

impl FpScalar {
    /// Positive zero in `format`.
    pub fn zero(format: FpFormat) -> Self {
        FpScalar { sign: false, exp: 0, man: 0, format, class: FpClass::Zero }
    }

    /// One (`1.0`) in `format`.
    pub fn one(format: FpFormat) -> Self {
        FpScalar {
            sign: false,
            exp: 0,
            man: 1u64 << (format.mantissa_width() - 1),
            format,
            class: FpClass::Normal,
        }
    }

    /// Builds a scalar from raw normal parts.
    ///
    /// `man` must have width exactly [`FpFormat::mantissa_width`] with the
    /// top bit set; `exp` is the unbiased exponent. Exponent overflow
    /// saturates to infinity; underflow flushes to zero (the behaviour of
    /// the modelled hardware).
    ///
    /// # Panics
    ///
    /// Panics if `man` does not have its leading-one bit set or exceeds the
    /// mantissa width.
    pub fn from_parts(sign: bool, exp: i32, man: u64, format: FpFormat) -> Self {
        let w = format.mantissa_width();
        assert!(
            bits::width_of(man) == w,
            "mantissa {man:#x} must be exactly {w} bits wide with the leading one set"
        );
        if exp > format.max_exp() {
            return FpScalar { sign, exp: 0, man: 0, format, class: FpClass::Inf };
        }
        if exp < format.min_exp() {
            return FpScalar { sign, exp: 0, man: 0, format, class: FpClass::Zero };
        }
        FpScalar { sign, exp, man, format, class: FpClass::Normal }
    }

    /// Decodes `x` into `format`, narrowing the mantissa with
    /// round-to-nearest-even. Subnormal inputs (in either format) are
    /// flushed to zero.
    pub fn from_f32(x: f32, format: FpFormat) -> Self {
        let raw = x.to_bits();
        let sign = raw >> 31 == 1;
        let e = (raw >> 23) & 0xFF;
        let m = raw & 0x7F_FFFF;

        if e == 0xFF {
            let class = if m == 0 { FpClass::Inf } else { FpClass::Nan };
            return FpScalar { sign, exp: 0, man: 0, format, class };
        }
        if e == 0 {
            // Zero or subnormal: flush.
            return FpScalar { sign, exp: 0, man: 0, format, class: FpClass::Zero };
        }

        let mut exp = e as i32 - 127;
        let mant24 = (1u64 << 23) | m as u64; // 24-bit, leading one explicit
        let w = format.mantissa_width();

        let mut man = if w <= 24 {
            let shift = 24 - w;
            let keep = mant24 >> shift;
            if shift == 0 {
                keep
            } else {
                let rem = mant24 & bits::mask(shift);
                let half = 1u64 << (shift - 1);
                if rem > half || (rem == half && keep & 1 == 1) {
                    keep + 1
                } else {
                    keep
                }
            }
        } else {
            mant24 << (w - 24)
        };

        // Rounding may overflow the mantissa (e.g. 1.1111111.. -> 10.0).
        if bits::width_of(man) > w {
            man >>= 1;
            exp += 1;
        }

        if exp > format.max_exp() {
            return FpScalar { sign, exp: 0, man: 0, format, class: FpClass::Inf };
        }
        if exp < format.min_exp() {
            return FpScalar { sign, exp: 0, man: 0, format, class: FpClass::Zero };
        }
        FpScalar { sign, exp, man, format, class: FpClass::Normal }
    }

    /// Re-encodes the scalar as an `f32`.
    ///
    /// Exact whenever the format's mantissa is no wider than 24 bits and the
    /// exponent fits `f32` (always true for `bfloat16`/`float32`); wider
    /// mantissas are rounded by the conversion.
    pub fn to_f32(&self) -> f32 {
        match self.class {
            FpClass::Zero => {
                if self.sign {
                    -0.0
                } else {
                    0.0
                }
            }
            FpClass::Inf => {
                if self.sign {
                    f32::NEG_INFINITY
                } else {
                    f32::INFINITY
                }
            }
            FpClass::Nan => f32::NAN,
            FpClass::Normal => self.to_f64() as f32,
        }
    }

    /// Re-encodes the scalar as an `f64` (always exact for supported
    /// formats).
    pub fn to_f64(&self) -> f64 {
        match self.class {
            FpClass::Zero => {
                if self.sign {
                    -0.0
                } else {
                    0.0
                }
            }
            FpClass::Inf => {
                if self.sign {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            FpClass::Nan => f64::NAN,
            FpClass::Normal => {
                let w = self.format.mantissa_width();
                let magnitude = self.man as f64 * 2f64.powi(self.exp - (w as i32 - 1));
                if self.sign {
                    -magnitude
                } else {
                    magnitude
                }
            }
        }
    }

    /// The sign bit (`true` = negative).
    #[inline]
    pub fn sign(&self) -> bool {
        self.sign
    }

    /// The unbiased exponent. Only meaningful for `Normal` values.
    #[inline]
    pub fn exponent(&self) -> i32 {
        self.exp
    }

    /// The mantissa with explicit leading one, of width
    /// [`FpFormat::mantissa_width`]. Zero for non-`Normal` values.
    #[inline]
    pub fn mantissa(&self) -> u64 {
        self.man
    }

    /// The format this scalar is encoded in.
    #[inline]
    pub fn format(&self) -> FpFormat {
        self.format
    }

    /// The value class.
    #[inline]
    pub fn class(&self) -> FpClass {
        self.class
    }

    /// `true` if the value is (±) zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.class == FpClass::Zero
    }
}

/// Encodes a normal value — `sign`, unbiased exponent `exp` and a
/// mantissa `man` carrying its explicit leading one — directly into
/// `f32` bits, with the saturation/flush behaviour of
/// [`FpScalar::from_parts`]: exponent overflow returns (signed)
/// infinity, underflow returns (signed) zero.
///
/// This is the fused fast path batched multiply kernels use to skip the
/// `FpScalar` round-trip (and its `powi`); it is bit-identical to
/// `FpScalar::from_parts(sign, exp, man, format).to_f32()` whenever the
/// result is exactly representable — i.e. `format.mantissa_width() <= 24`
/// and the format's exponent range lies within `f32`'s (`max_exp <= 127`,
/// `min_exp >= -126`), which holds for every predefined format. Callers
/// must check those bounds once per configuration, not per call.
///
/// # Panics
///
/// Panics if `man` is not exactly `format.mantissa_width()` bits wide
/// with its leading one set (the same contract as
/// [`FpScalar::from_parts`]). Normalisers feeding raw multiplier
/// read-outs here must mask to the mantissa width first (as
/// `ApproxFpMul::combine_raw` does), so an over-wide read-out cannot
/// make the fused and `FpScalar` paths diverge.
#[inline]
pub fn encode_normal_f32(sign: bool, exp: i32, man: u64, format: FpFormat) -> f32 {
    let n = format.mantissa_width();
    debug_assert!(format.fits_f32());
    assert!(
        bits::width_of(man) == n,
        "mantissa {man:#x} must be exactly {n} bits wide with the leading one set"
    );
    if exp > format.max_exp() {
        return if sign { f32::NEG_INFINITY } else { f32::INFINITY };
    }
    if exp < format.min_exp() {
        return if sign { -0.0 } else { 0.0 };
    }
    // value = 1.frac · 2^exp with ≤ 23 fraction bits: exact in f32.
    let frac = ((man & bits::mask(n - 1)) as u32) << (24 - n);
    f32::from_bits(((sign as u32) << 31) | (((exp + 127) as u32) << 23) | frac)
}

/// Quantizes `x` through `format` and back to `f32` — the storage round-trip
/// a value experiences when held in a reduced-precision buffer.
///
/// Bit-identical to `FpScalar::from_f32(x, format).to_f32()`: the
/// mantissa rounds to nearest-even (a carry moves into the exponent),
/// exponent overflow saturates to ±Inf, values below the format's
/// smallest normal — `f32` subnormals included — flush to ±0, ±Inf stays
/// itself and every NaN becomes `f32::NAN`. For formats that
/// [`fit f32`](FpFormat::fits_f32) it works on the bits alone, cheap
/// enough for a per-MAC call; other formats take the `FpScalar`
/// round-trip.
///
/// # Examples
///
/// ```
/// use daism_num::{quantize_f32, FpFormat};
///
/// // bf16 keeps only 8 mantissa bits:
/// assert_eq!(quantize_f32(1.0 + 1.0 / 512.0, FpFormat::BF16), 1.0);
/// assert_eq!(quantize_f32(1.0 + 1.0 / 64.0, FpFormat::BF16), 1.0 + 1.0 / 64.0);
/// ```
#[inline]
pub fn quantize_f32(x: f32, format: FpFormat) -> f32 {
    if !format.fits_f32() {
        return FpScalar::from_f32(x, format).to_f32();
    }
    f32::from_bits(quantize_bits(x.to_bits(), format))
}

/// [`quantize_f32`] on the bits of `x`, for a format that fits `f32`.
#[inline]
fn quantize_bits(raw: u32, format: FpFormat) -> u32 {
    let sign = raw & 0x8000_0000;
    let abs = raw & 0x7FFF_FFFF;
    // Round to nearest-even at the format's last mantissa bit: adding
    // `half - 1 + lsb` carries out of the dropped bits exactly when they
    // exceed half, or equal it with an odd kept part; a carry out of the
    // mantissa lands in the exponent field.
    let drop = 24 - format.mantissa_width();
    let rounded = if drop == 0 {
        abs
    } else {
        let lsb = (abs >> drop) & 1;
        (abs + (1 << (drop - 1)) - 1 + lsb) & !((1u32 << drop) - 1)
    };
    // The format's range as `f32` magnitude bits: its smallest normal,
    // and the largest pattern with its top exponent (±Inf lies above).
    let min_normal = ((format.min_exp() + 127) as u32) << 23;
    let max_finite = (((format.max_exp() + 127) as u32) << 23) | 0x7F_FFFF;
    // Every case is a select, not a branch, so loops over this vectorize.
    if abs > 0x7F80_0000 {
        f32::NAN.to_bits()
    } else if rounded > max_finite {
        sign | 0x7F80_0000 // overflow, or ±Inf itself
    } else if abs < 0x0080_0000 || rounded < min_normal {
        sign // zero, f32 subnormal or format underflow
    } else {
        sign | rounded
    }
}

/// The fields [`FpScalar::from_f32`] decodes, as plain integers: what a
/// lane kernel caches per operand. See [`decode_f32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedF32 {
    /// The input's sign bit, at the `f32` sign position.
    pub sign: u32,
    /// Unbiased exponent of a normal value; `0` otherwise.
    pub exp: i32,
    /// Mantissa with explicit leading one, `format.mantissa_width()`
    /// bits wide, of a normal value; `0` otherwise.
    pub man: u32,
    /// `u32::MAX` if the value is normal in the format, `0` otherwise —
    /// an accumulate mask for a select.
    pub normal: u32,
    /// The bits of `quantize_f32(x, format)` without the sign: `0` for a
    /// zero (flushed or not), `0x7F80_0000` for an infinity (overflowed
    /// or not), above it for a NaN.
    pub magnitude: u32,
}

impl DecodedF32 {
    /// The value class, as [`FpScalar::class`] reports it.
    pub fn class(&self) -> FpClass {
        match self.magnitude {
            _ if self.normal != 0 => FpClass::Normal,
            0 => FpClass::Zero,
            0x7F80_0000 => FpClass::Inf,
            _ => FpClass::Nan,
        }
    }
}

/// Decodes `x` into `format` on the bits, with no data-dependent branch:
/// the round-to-nearest-even, saturation and flush of [`quantize_f32`],
/// then field extraction from the rounded `f32`. Sign, exponent,
/// mantissa and class equal those of `FpScalar::from_f32(x, format)` for
/// every input (a NaN keeps its sign, as there).
///
/// Only valid for formats that [fit `f32`](FpFormat::fits_f32) — every
/// predefined format. Callers check that once per configuration, not
/// per call.
///
/// # Examples
///
/// ```
/// use daism_num::{decode_f32, FpClass, FpFormat};
///
/// let d = decode_f32(-1.5, FpFormat::BF16);
/// assert_eq!((d.sign, d.exp, d.man), (0x8000_0000, 0, 0b1100_0000));
/// assert_eq!(d.class(), FpClass::Normal);
/// // f32 subnormals flush to zero:
/// assert_eq!(decode_f32(1e-40, FpFormat::BF16).class(), FpClass::Zero);
/// ```
#[inline]
pub fn decode_f32(x: f32, format: FpFormat) -> DecodedF32 {
    debug_assert!(format.fits_f32());
    let magnitude = quantize_bits(x.to_bits(), format) & 0x7FFF_FFFF;
    let e = magnitude >> 23;
    // Biased exponent in 1..=254: neither zero nor Inf/NaN.
    let normal = if e.wrapping_sub(1) < 0xFE { u32::MAX } else { 0 };
    // `quantize_f32` cleared the dropped bits, so the shift is exact.
    let man = ((magnitude & 0x7F_FFFF) | 0x80_0000) >> (24 - format.mantissa_width());
    DecodedF32 {
        sign: x.to_bits() & 0x8000_0000,
        exp: (e as i32 - 127) & normal as i32,
        man: man & normal,
        normal,
        magnitude,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_one() {
        for format in [FpFormat::FP32, FpFormat::BF16, FpFormat::FP16] {
            let x = FpScalar::from_f32(1.0, format);
            assert_eq!(x.class(), FpClass::Normal);
            assert_eq!(x.exponent(), 0);
            assert_eq!(x.mantissa(), 1u64 << (format.mantissa_width() - 1));
            assert_eq!(x.to_f32(), 1.0);
        }
    }

    #[test]
    fn fp32_roundtrip_is_exact() {
        for &v in &[
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            1.5,
            0.1,
            -123.456,
            3.4e38,
            1.2e-38,
            std::f32::consts::PI,
            f32::MAX,
            f32::MIN_POSITIVE,
        ] {
            let x = FpScalar::from_f32(v, FpFormat::FP32);
            assert_eq!(x.to_f32().to_bits(), v.to_bits(), "roundtrip failed for {v}");
        }
    }

    #[test]
    fn subnormals_flush_to_zero() {
        let sub = f32::MIN_POSITIVE / 2.0;
        assert!(sub > 0.0);
        let x = FpScalar::from_f32(sub, FpFormat::FP32);
        assert!(x.is_zero());
        let neg = FpScalar::from_f32(-sub, FpFormat::FP32);
        assert!(neg.is_zero());
        assert!(neg.sign());
    }

    #[test]
    fn inf_and_nan_classify() {
        let inf = FpScalar::from_f32(f32::INFINITY, FpFormat::BF16);
        assert_eq!(inf.class(), FpClass::Inf);
        assert_eq!(inf.to_f32(), f32::INFINITY);
        let ninf = FpScalar::from_f32(f32::NEG_INFINITY, FpFormat::BF16);
        assert_eq!(ninf.to_f32(), f32::NEG_INFINITY);
        let nan = FpScalar::from_f32(f32::NAN, FpFormat::BF16);
        assert_eq!(nan.class(), FpClass::Nan);
        assert!(nan.to_f32().is_nan());
    }

    #[test]
    fn bf16_narrowing_rounds_to_nearest_even() {
        // 1 + 1/256 is exactly halfway between bf16 values 1.0 and 1 + 1/128;
        // nearest-even keeps 1.0 (even mantissa 0b10000000).
        let x = FpScalar::from_f32(1.0 + 1.0 / 256.0, FpFormat::BF16);
        assert_eq!(x.to_f32(), 1.0);
        // 1 + 3/256 is halfway between 1 + 1/128 and 1 + 2/128; nearest-even
        // rounds up to 1 + 2/128 (mantissa ...10 even).
        let y = FpScalar::from_f32(1.0 + 3.0 / 256.0, FpFormat::BF16);
        assert_eq!(y.to_f32(), 1.0 + 2.0 / 128.0);
        // Slightly above halfway always rounds up.
        let z = FpScalar::from_f32(1.0 + 1.0 / 256.0 + 1e-6, FpFormat::BF16);
        assert_eq!(z.to_f32(), 1.0 + 1.0 / 128.0);
    }

    #[test]
    fn rounding_mantissa_overflow_carries_into_exponent() {
        // The largest f32 mantissa rounds up to 2.0 in bf16.
        let v = f32::from_bits(0x3FFF_FFFF); // just under 2.0
        let x = FpScalar::from_f32(v, FpFormat::BF16);
        assert_eq!(x.to_f32(), 2.0);
        assert_eq!(x.exponent(), 1);
    }

    #[test]
    fn fp16_overflow_saturates_to_inf() {
        // 1e6 exceeds fp16 max (65504).
        let x = FpScalar::from_f32(1e6, FpFormat::FP16);
        assert_eq!(x.class(), FpClass::Inf);
    }

    #[test]
    fn fp16_underflow_flushes_to_zero() {
        let x = FpScalar::from_f32(1e-8, FpFormat::FP16);
        assert!(x.is_zero());
    }

    #[test]
    fn from_parts_roundtrip() {
        let x = FpScalar::from_parts(true, 3, 0b1010_0000, FpFormat::BF16);
        assert_eq!(x.to_f32(), -(0b1010_0000 as f32) * 2f32.powi(3 - 7));
        assert_eq!(x.to_f32(), -10.0);
    }

    #[test]
    fn from_parts_saturates() {
        let man = 1u64 << 7;
        let inf = FpScalar::from_parts(false, 1000, man, FpFormat::BF16);
        assert_eq!(inf.class(), FpClass::Inf);
        let zero = FpScalar::from_parts(false, -1000, man, FpFormat::BF16);
        assert_eq!(zero.class(), FpClass::Zero);
    }

    #[test]
    #[should_panic(expected = "leading one")]
    fn from_parts_rejects_missing_leading_one() {
        let _ = FpScalar::from_parts(false, 0, 0b0100_0000, FpFormat::BF16);
    }

    #[test]
    fn encode_normal_f32_matches_from_parts_roundtrip() {
        // Exhaustive over bf16 normals, sampled over fp16/fp32: the fused
        // encode must agree bit-for-bit with the FpScalar path.
        for man in 0x80u64..=0xFF {
            for exp in [-126, -30, -1, 0, 1, 64, 127] {
                for sign in [false, true] {
                    let fused = encode_normal_f32(sign, exp, man, FpFormat::BF16);
                    let slow = FpScalar::from_parts(sign, exp, man, FpFormat::BF16).to_f32();
                    assert_eq!(fused.to_bits(), slow.to_bits(), "s={sign} e={exp} m={man:#x}");
                }
            }
        }
        for format in [FpFormat::FP16, FpFormat::FP32, FpFormat::TF32] {
            let w = format.mantissa_width();
            for man in [1u64 << (w - 1), (1 << w) - 1, (1 << (w - 1)) | (0x15 % (1 << (w - 1)))] {
                for exp in [format.min_exp(), -2, 0, 3, format.max_exp()] {
                    let fused = encode_normal_f32(true, exp, man, format);
                    let slow = FpScalar::from_parts(true, exp, man, format).to_f32();
                    assert_eq!(fused.to_bits(), slow.to_bits(), "{format} e={exp} m={man:#x}");
                }
            }
        }
    }

    #[test]
    fn encode_normal_f32_saturates_and_flushes() {
        let man = 1u64 << 7;
        assert_eq!(encode_normal_f32(false, 1000, man, FpFormat::BF16), f32::INFINITY);
        assert_eq!(encode_normal_f32(true, 1000, man, FpFormat::BF16), f32::NEG_INFINITY);
        assert_eq!(encode_normal_f32(false, -1000, man, FpFormat::BF16).to_bits(), 0f32.to_bits());
        assert_eq!(
            encode_normal_f32(true, -1000, man, FpFormat::BF16).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "leading one")]
    fn encode_normal_f32_rejects_missing_leading_one() {
        let _ = encode_normal_f32(false, 0, 0b0100_0000, FpFormat::BF16);
    }

    /// Every upper 16-bit pattern × low halves on and around the bf16
    /// rounding boundary: covers every rounding tie, mantissa carry-out,
    /// saturation and flush edge of every predefined format.
    #[test]
    fn quantize_f32_matches_fpscalar_round_trip() {
        for format in [FpFormat::FP32, FpFormat::BF16, FpFormat::FP16, FpFormat::TF32] {
            for hi in 0u32..=0xFFFF {
                for lo in [0x0000u32, 0x7FFF, 0x8000, 0x8001, 0xFFFF] {
                    let x = f32::from_bits(hi << 16 | lo);
                    let fast = quantize_f32(x, format);
                    let oracle = FpScalar::from_f32(x, format).to_f32();
                    assert_eq!(fast.to_bits(), oracle.to_bits(), "{format}: {:#010x}", x.to_bits());
                }
            }
        }
    }

    /// The bit decode against the `FpScalar` decode on the same grid as
    /// `quantize_f32_matches_fpscalar_round_trip`: class, sign, exponent
    /// and mantissa must agree everywhere, NaN signs included.
    #[test]
    fn decode_f32_matches_fpscalar_decode() {
        for format in [FpFormat::BF16, FpFormat::FP16, FpFormat::TF32, FpFormat::FP32] {
            for hi in 0u32..=0xFFFF {
                for lo in [0x0000u32, 0x7FFF, 0x8000, 0x8001, 0xFFFF] {
                    let x = f32::from_bits(hi << 16 | lo);
                    let fast = decode_f32(x, format);
                    let oracle = FpScalar::from_f32(x, format);
                    let got = (fast.class(), fast.sign != 0, fast.exp, fast.man as u64);
                    let want =
                        (oracle.class(), oracle.sign(), oracle.exponent(), oracle.mantissa());
                    assert_eq!(got, want, "{format}: {:#010x}", x.to_bits());
                }
            }
        }
    }

    #[test]
    fn quantize_f32_covers_formats_outside_f32() {
        let wide = FpFormat::new(11, 30).unwrap();
        for x in [1.0f32 + f32::EPSILON, -3.3e38, 1e-40, f32::INFINITY] {
            assert_eq!(
                quantize_f32(x, wide).to_bits(),
                FpScalar::from_f32(x, wide).to_f32().to_bits()
            );
        }
    }

    #[test]
    fn quantize_is_idempotent() {
        for &v in &[0.37f32, -11.0, 255.4, 1e-3] {
            let q = quantize_f32(v, FpFormat::BF16);
            assert_eq!(quantize_f32(q, FpFormat::BF16), q);
        }
    }

    #[test]
    fn bf16_error_bounded_by_half_ulp() {
        // Relative error of bf16 quantization is at most 2^-8.
        let mut v = 1.000001f32;
        for _ in 0..1000 {
            let q = quantize_f32(v, FpFormat::BF16);
            let rel = ((q - v) / v).abs();
            assert!(rel <= 1.0 / 256.0, "rel err {rel} too large for {v}");
            v *= 1.017;
        }
    }
}
