//! The BlockFp engine's block quantizer: [`BlockFp::shared_exponent`]
//! and [`BlockFp::quantize_mantissas`] over a strided block, compiled
//! twice — once for the build target and once under
//! `#[target_feature(enable = "avx2")]` behind runtime detection. The
//! quantizer's per-lane variable shifts, clamps and selects only become
//! straight-line vector code with AVX2 (`vpsrlvd`, `vpsllvd`, blends);
//! on baseline x86-64 LLVM turns the clamps into branches. Both builds
//! come from the one `#[inline(always)]` source, so they are
//! bit-identical; the unit test pins each against
//! [`BlockFp::quantize`].

use crate::microkernel::avx2_available;
use daism_num::BlockFp;

/// Quantizes one block into `out` and returns its shared exponent —
/// [`BlockFp::quantize`] without the allocation, read in place from a
/// row-major matrix, on the widest vector unit the host has. The block
/// is `out.len() / width` rows of `width` values, row `r` being
/// `values[r * stride..r * stride + width]`; `out` receives them back to
/// back.
pub(crate) fn quantize_block(
    values: &[f32],
    stride: usize,
    width: usize,
    man_width: u32,
    out: &mut [i32],
) -> i32 {
    if avx2_available() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `avx2_available()` detected AVX2 at runtime.
        #[allow(unsafe_code)]
        return unsafe { avx2::quantize_block(values, stride, width, man_width, out) };
    }
    quantize_rows(values, stride, width, man_width, out)
}

/// The one source of both builds: the shared exponent is the max over
/// the rows' exponents, then every row is rounded onto its grid.
#[inline(always)]
fn quantize_rows(
    values: &[f32],
    stride: usize,
    width: usize,
    man_width: u32,
    out: &mut [i32],
) -> i32 {
    debug_assert!(width > 0 && out.len().is_multiple_of(width), "block rows must be whole");
    // Rows with no gap between them are one row: one pass, no per-row
    // reductions.
    let width = if stride == width { out.len() } else { width };
    let row = |r: usize| &values[r * stride..r * stride + width];
    let rows = out.len() / width;
    // A plain loop, not `Iterator::max`: that is an out-of-line call,
    // which would compile the first pass without AVX2.
    let mut exp = None;
    for r in 0..rows {
        exp = exp.max(BlockFp::shared_exponent(row(r)));
    }
    let Some(exp) = exp else {
        // No finite nonzero element: an all-zero block.
        out.fill(0);
        return 0;
    };
    for (r, q) in out.chunks_exact_mut(width).enumerate() {
        BlockFp::quantize_mantissas(row(r), exp, man_width, q);
    }
    exp
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    //! The runtime-gated AVX2 build. The body is safe code; `unsafe` is
    //! only the `target_feature` call contract, discharged by
    //! [`super::avx2_available`] before every call.

    /// [`super::quantize_block`]'s work compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_block(
        values: &[f32],
        stride: usize,
        width: usize,
        man_width: u32,
        out: &mut [i32],
    ) -> i32 {
        super::quantize_rows(values, stride, width, man_width, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocks of every length through two lane chunks plus a tail, drawn
    /// from a pool of specials, subnormals, clamp edges and random bit
    /// patterns.
    fn blocks() -> Vec<Vec<f32>> {
        let pool = [
            0.0f32,
            -0.0,
            1.0,
            -1.99,
            7e-45,
            -1e-40,
            f32::MIN_POSITIVE,
            3.3e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            0.5,
        ];
        let mut state = 0x2545_F491u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let mut out = Vec::new();
        for len in 0..=17usize {
            for _ in 0..64 {
                let block = (0..len)
                    .map(|_| {
                        let r = next();
                        if r % 3 == 0 {
                            f32::from_bits(next())
                        } else {
                            pool[r as usize % pool.len()]
                        }
                    })
                    .collect();
                out.push(block);
            }
        }
        out
    }

    /// `f` on `values` as one contiguous block, and as a block of two
    /// rows read from every other column of a doubled matrix, against
    /// `BlockFp::quantize`.
    fn assert_matches_quantize(
        f: impl Fn(&[f32], usize, usize, u32, &mut [i32]) -> i32,
        what: &str,
    ) {
        for values in blocks() {
            for width in [2u32, 5, 9, 12, 25, 31] {
                let want = BlockFp::quantize(&values, width);
                let len = values.len();
                let mut got = vec![7; len];
                if len > 0 {
                    let exp = f(&values, len, len, width, &mut got);
                    assert_eq!(
                        (exp, &got[..]),
                        (want.shared_exp(), want.mantissas()),
                        "{what}, width {width}: {values:?}"
                    );
                }
                if len >= 2 && len % 2 == 0 {
                    // Rows of len/2 at stride len: the second half of
                    // each matrix row is filler that must not be read.
                    let half = len / 2;
                    let filler = vec![f32::MAX; half];
                    let matrix = [&values[..half], &filler, &values[half..]].concat();
                    let exp = f(&matrix, len, half, width, &mut got);
                    assert_eq!(
                        (exp, &got[..]),
                        (want.shared_exp(), want.mantissas()),
                        "{what} strided, width {width}: {values:?}"
                    );
                }
            }
        }
    }

    /// Both builds, whatever the dispatch picks on this host: the
    /// portable one, and the AVX2 one when the host has it.
    #[test]
    fn both_builds_match_quantize_on_every_tail_length() {
        assert_matches_quantize(quantize_rows, "portable");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if avx2_available() {
            #[allow(unsafe_code)]
            // SAFETY: AVX2 support was just detected.
            let avx2 = |v: &[f32], stride, width, w, out: &mut [i32]| unsafe {
                avx2::quantize_block(v, stride, width, w, out)
            };
            assert_matches_quantize(avx2, "avx2");
        }
    }
}
