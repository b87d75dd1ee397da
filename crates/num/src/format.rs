use crate::error::FormatError;
use std::fmt;

/// A parametric binary floating-point format: `1` sign bit, `exp_bits`
/// exponent bits and `man_bits` stored mantissa bits (the leading one is
/// implicit, as in IEEE 754).
///
/// The two formats evaluated by the DAISM paper are provided as constants:
/// [`FpFormat::FP32`] (e8m23) and [`FpFormat::BF16`] (e8m7). Arbitrary
/// formats can be built with [`FpFormat::new`] to explore the trade-off
/// space (the in-SRAM multiplier handles any integer mantissa width).
///
/// # Examples
///
/// ```
/// use daism_num::FpFormat;
///
/// let bf16 = FpFormat::BF16;
/// assert_eq!(bf16.mantissa_width(), 8); // 7 stored bits + implicit 1
/// assert_eq!(bf16.bias(), 127);
/// assert_eq!(bf16.total_bits(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FpFormat {
    exp_bits: u32,
    man_bits: u32,
}

impl FpFormat {
    /// IEEE 754 binary32: 8 exponent bits, 23 stored mantissa bits.
    pub const FP32: FpFormat = FpFormat { exp_bits: 8, man_bits: 23 };

    /// `bfloat16` (Google brain float): 8 exponent bits, 7 stored mantissa
    /// bits. Same dynamic range as `f32`, reduced precision.
    pub const BF16: FpFormat = FpFormat { exp_bits: 8, man_bits: 7 };

    /// IEEE 754 binary16 (half precision): 5 exponent bits, 10 stored
    /// mantissa bits.
    pub const FP16: FpFormat = FpFormat { exp_bits: 5, man_bits: 10 };

    /// NVIDIA TensorFloat-32: 8 exponent bits, 10 stored mantissa bits.
    pub const TF32: FpFormat = FpFormat { exp_bits: 8, man_bits: 10 };

    /// Creates a new format with the given exponent and stored-mantissa
    /// widths.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::ExponentWidth`] unless `1 <= exp_bits <= 11`
    /// and [`FormatError::MantissaWidth`] unless `man_bits <= 52`.
    pub fn new(exp_bits: u32, man_bits: u32) -> Result<Self, FormatError> {
        if exp_bits == 0 || exp_bits > 11 {
            return Err(FormatError::ExponentWidth(exp_bits));
        }
        if man_bits > 52 {
            return Err(FormatError::MantissaWidth(man_bits));
        }
        Ok(FpFormat { exp_bits, man_bits })
    }

    /// Exponent field width in bits.
    #[inline]
    pub const fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Stored mantissa width in bits (excluding the implicit leading one).
    #[inline]
    pub const fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Mantissa width *including* the implicit leading one — the integer
    /// width the DAISM multiplier operates on (`n` in the paper; 8 for
    /// `bfloat16`, 24 for `float32`).
    #[inline]
    pub const fn mantissa_width(&self) -> u32 {
        self.man_bits + 1
    }

    /// Width of the full (non-truncated) mantissa product, `2n`.
    #[inline]
    pub const fn product_width(&self) -> u32 {
        2 * self.mantissa_width()
    }

    /// Exponent bias (`2^(exp_bits-1) - 1`; 127 for e8 formats).
    #[inline]
    pub const fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// Smallest unbiased exponent of a *normal* value (`1 - bias`).
    #[inline]
    pub const fn min_exp(&self) -> i32 {
        1 - self.bias()
    }

    /// Largest unbiased exponent of a finite value
    /// (`2^exp_bits - 2 - bias`).
    #[inline]
    pub const fn max_exp(&self) -> i32 {
        (1 << self.exp_bits) - 2 - self.bias()
    }

    /// Total storage width: sign + exponent + stored mantissa.
    #[inline]
    pub const fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// `true` if every normal value of this format is a normal `f32`:
    /// a mantissa of at most 24 bits and an exponent range inside
    /// `f32`'s. Holds for every predefined format; it is the gate for
    /// the fused `f32` bit paths ([`encode_normal_f32`](crate::encode_normal_f32),
    /// [`quantize_f32`](crate::quantize_f32)'s rounding trick).
    #[inline]
    pub const fn fits_f32(&self) -> bool {
        self.mantissa_width() <= 24 && self.max_exp() <= 127 && self.min_exp() >= -126
    }

    /// Largest finite value representable in this format.
    pub fn max_value(&self) -> f64 {
        let frac = 2.0 - (0.5f64).powi(self.man_bits as i32) * 1.0;
        frac * 2f64.powi(self.max_exp())
    }

    /// Smallest positive *normal* value representable in this format.
    pub fn min_normal(&self) -> f64 {
        2f64.powi(self.min_exp())
    }
}

impl Default for FpFormat {
    /// Defaults to [`FpFormat::BF16`], the format the DAISM accelerator
    /// evaluation centres on.
    fn default() -> Self {
        FpFormat::BF16
    }
}

impl fmt::Display for FpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FpFormat::FP32 => write!(f, "float32"),
            FpFormat::BF16 => write!(f, "bfloat16"),
            FpFormat::FP16 => write!(f, "float16"),
            FpFormat::TF32 => write!(f, "tf32"),
            FpFormat { exp_bits, man_bits } => write!(f, "e{exp_bits}m{man_bits}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_parameters() {
        let f = FpFormat::FP32;
        assert_eq!(f.exp_bits(), 8);
        assert_eq!(f.man_bits(), 23);
        assert_eq!(f.mantissa_width(), 24);
        assert_eq!(f.product_width(), 48);
        assert_eq!(f.bias(), 127);
        assert_eq!(f.min_exp(), -126);
        assert_eq!(f.max_exp(), 127);
        assert_eq!(f.total_bits(), 32);
    }

    #[test]
    fn bf16_parameters() {
        let f = FpFormat::BF16;
        assert_eq!(f.mantissa_width(), 8);
        assert_eq!(f.product_width(), 16);
        assert_eq!(f.bias(), 127);
        assert_eq!(f.total_bits(), 16);
    }

    #[test]
    fn fp16_parameters() {
        let f = FpFormat::FP16;
        assert_eq!(f.bias(), 15);
        assert_eq!(f.min_exp(), -14);
        assert_eq!(f.max_exp(), 15);
        assert_eq!(f.total_bits(), 16);
    }

    #[test]
    fn predefined_formats_fit_f32() {
        for f in [FpFormat::FP32, FpFormat::BF16, FpFormat::FP16, FpFormat::TF32] {
            assert!(f.fits_f32(), "{f}");
        }
        assert!(!FpFormat::new(11, 23).unwrap().fits_f32()); // exponent range
        assert!(!FpFormat::new(8, 24).unwrap().fits_f32()); // mantissa width
    }

    #[test]
    fn new_validates() {
        assert!(FpFormat::new(8, 23).is_ok());
        assert_eq!(FpFormat::new(0, 23), Err(FormatError::ExponentWidth(0)));
        assert_eq!(FpFormat::new(12, 23), Err(FormatError::ExponentWidth(12)));
        assert_eq!(FpFormat::new(8, 53), Err(FormatError::MantissaWidth(53)));
    }

    #[test]
    fn display_names() {
        assert_eq!(FpFormat::FP32.to_string(), "float32");
        assert_eq!(FpFormat::BF16.to_string(), "bfloat16");
        assert_eq!(FpFormat::new(6, 9).unwrap().to_string(), "e6m9");
    }

    #[test]
    fn max_value_fp32_matches_std() {
        let max = FpFormat::FP32.max_value();
        assert!((max - f32::MAX as f64).abs() / (f32::MAX as f64) < 1e-6);
    }

    #[test]
    fn min_normal_fp32_matches_std() {
        assert_eq!(FpFormat::FP32.min_normal(), f32::MIN_POSITIVE as f64);
    }
}
