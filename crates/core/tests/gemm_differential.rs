//! Differential property suite: the tiled, decoded-tile, parallel GEMM
//! engine must be **bit-identical** to the scalar reference for every
//! backend, every multiplier configuration, every mantissa width and
//! every shape — including degenerate ones — from both B sources: eager
//! `gemm` and a `GemmPlan` run auto-dispatched or in explicit row
//! chunks.
//!
//! This is the contract that makes the engine a pure speed refactor: any
//! divergence in accumulation order, zero-bypass handling, backend
//! batching or tile pre-decode shows up here as a failing bit
//! comparison.

use daism_core::{
    gemm, gemm_f32_microkernel_portable, gemm_reference, ApproxFpMul, ExactMul, GemmPlan,
    MantissaMultiplier, MultiplierConfig, OperandMode, QuantizedExactMul, ScalarMul,
};
use daism_num::FpFormat;
use proptest::prelude::*;

/// All backends under test: exact, quantized-exact, and the approximate
/// pipeline over FLA/PC2/PC3 × truncation × every mantissa width the
/// predefined formats span (8-bit bf16 through 24-bit fp32, including
/// the no-LUT wide-mantissa path).
fn backends() -> Vec<Box<dyn ScalarMul>> {
    let mut v: Vec<Box<dyn ScalarMul>> = vec![
        Box::new(ExactMul),
        Box::new(QuantizedExactMul::new(FpFormat::BF16)),
        Box::new(QuantizedExactMul::new(FpFormat::FP32)),
    ];
    for config in MultiplierConfig::ALL {
        v.push(Box::new(ApproxFpMul::new(config, FpFormat::BF16)));
    }
    // Wider-mantissa representatives: fp16 (11 bits, no LUT), tf32
    // (11 bits), fp32 (24 bits) — the prepared-pattern OR path.
    v.push(Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16)));
    v.push(Box::new(ApproxFpMul::new(MultiplierConfig::PC2, FpFormat::TF32)));
    v.push(Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP32)));
    v
}

fn assert_bits_eq(reference: &[f32], got: &[f32], what: &str) -> Result<(), TestCaseError> {
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        prop_assert_eq!(
            r.to_bits(),
            g.to_bits(),
            "{} element {}: reference {} vs {}",
            what,
            i,
            r,
            g
        );
    }
    Ok(())
}

/// Pins eager `gemm`, `GemmPlan::run` and `GemmPlan::run_chunked` (chunks
/// of 1, 2 and `m` rows) to `gemm_reference` for every backend, each
/// accumulating into a copy of `c0` (all `+0.0` when empty).
fn assert_all_backends_bit_identical(
    a: &[f32],
    b: &[f32],
    c0: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TestCaseError> {
    let c0 = if c0.is_empty() { vec![0.0f32; m * n] } else { c0.to_vec() };
    for mul in backends() {
        let mul = mul.as_ref();
        let what = |path: &str| format!("{} {m}x{k}x{n} {path}", mul.name());
        let mut reference = c0.clone();
        gemm_reference(mul, a, b, &mut reference, m, k, n);
        let mut engine = c0.clone();
        gemm(mul, a, b, &mut engine, m, k, n);
        assert_bits_eq(&reference, &engine, &what("gemm"))?;
        let plan = GemmPlan::new(mul, b, k, n);
        let mut served = c0.clone();
        plan.run(mul, a, &mut served, m);
        assert_bits_eq(&reference, &served, &what("plan"))?;
        let mut chunks = vec![1, 2, m.max(1)];
        chunks.dedup();
        for chunk_rows in chunks {
            let mut chunked = c0.clone();
            plan.run_chunked(mul, a, &mut chunked, m, chunk_rows);
            assert_bits_eq(&reference, &chunked, &what(&format!("plan chunk {chunk_rows}")))?;
        }
    }
    Ok(())
}

/// A deterministic hash of `(seed, i)`, for salting operands.
fn mix(seed: u64, i: usize) -> u64 {
    let mut h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 11
}

/// Salts the `n`-column `b` with the values a lane kernel must route to
/// the exact side logic or keep out of C: about one element in twelve
/// becomes an `f32` subnormal or a normal `f32` that flushes in fp16
/// (signed either way), and up to three positions become `+Inf`, `-Inf`
/// and NaN — few enough that most C columns stay finite and comparable.
/// About one column in eight holds nothing but zeros and flushed values,
/// so its C stays a signed zero that a flushed product can flip, and
/// mishandling one shows in the result.
fn salt(b: &mut [f32], n: usize, seed: u64) {
    let flushers = [1e-40f32, f32::from_bits(0x007F_FFFF), 2f32.powi(-20), 1e-6];
    for (i, v) in b.iter_mut().enumerate() {
        if mix(seed.rotate_left(17), i % n).is_multiple_of(8) {
            *v = 0.0;
        }
        let h = mix(seed, i);
        if h.is_multiple_of(12) {
            let x = flushers[(h >> 8) as usize % flushers.len()];
            *v = if (h >> 16) & 1 == 0 { x } else { -x };
        }
    }
    for (j, special) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN].into_iter().enumerate() {
        let h = mix(seed, usize::MAX - j);
        if !h.is_multiple_of(3) {
            b[(h >> 8) as usize % b.len()] = special;
        }
    }
}

/// Sparsify: push small magnitudes to exact zero so the zero-bypass path
/// is exercised on almost every case.
fn sparsify(v: Vec<f32>) -> Vec<f32> {
    v.into_iter().map(|x| if x.abs() < 1.5 { 0.0 } else { x }).collect()
}

proptest! {
    #[test]
    fn tiled_equals_reference_on_odd_small_shapes(
        case in (0usize..8, 0usize..8, 0usize..8).prop_flat_map(|(m, k, n)| {
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
            )
        }),
    ) {
        let ((m, k, n), a, b) = case;
        let (a, b) = (sparsify(a), sparsify(b));
        assert_all_backends_bit_identical(&a, &b, &[], m, k, n)?;
    }

    #[test]
    fn tiled_equals_reference_on_wide_panels(
        case in (1usize..3, 1usize..4, 64usize..100).prop_flat_map(|(m, k, n)| {
            // Panels of 64+ columns: wide mantissas take the subset-OR
            // table product instead of the mask chain.
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
            )
        }),
    ) {
        let ((m, k, n), a, b) = case;
        let (a, b) = (sparsify(a), sparsify(b));
        assert_all_backends_bit_identical(&a, &b, &[], m, k, n)?;
    }

    #[test]
    fn tiled_equals_reference_on_narrow_panels_with_specials(
        case in (2usize..4, 250usize..270, 8usize..41).prop_flat_map(|(m, k, n)| {
            // Every tail length after one to five lane groups, depths
            // across the KC = 256 tile edge, and two or three C rows so
            // eager `gemm` decodes its tiles too.
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
                any::<u64>(),
            )
        }),
    ) {
        let ((m, k, n), a, b, seed) = case;
        let (a, mut b) = (sparsify(a), sparsify(b));
        salt(&mut b, n, seed);
        // C arrives holding signed zeros — which a flushed element's
        // signed-zero product can flip — and some finite values.
        let c0: Vec<f32> = (0..m * n)
            .map(|i| match mix(!seed, i) % 3 {
                0 => -0.0,
                1 => 0.0,
                _ => (mix(seed, i) % 64) as f32 / 8.0 - 4.0,
            })
            .collect();
        assert_all_backends_bit_identical(&a, &b, &c0, m, k, n)?;
    }

    #[test]
    fn tiled_equals_reference_above_parallel_threshold(
        case in (33usize..44, 24usize..32, 96usize..128).prop_flat_map(|(m, k, n)| {
            // m > MC and m·k·n ≥ 76k MACs: the row panels genuinely split
            // and (on a multi-core host) run on worker threads.
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
            )
        }),
    ) {
        let ((m, k, n), a, b) = case;
        let (a, b) = (sparsify(a), sparsify(b));
        // Restrict to the three cheapest backends at this size to keep
        // the suite fast; the small-shape property covers the full grid.
        for mul in [
            Box::new(ExactMul) as Box<dyn ScalarMul>,
            Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::BF16)),
        ] {
            let mut reference = vec![0.0f32; m * n];
            let mut engine = vec![0.0f32; m * n];
            gemm_reference(mul.as_ref(), &a, &b, &mut reference, m, k, n);
            gemm(mul.as_ref(), &a, &b, &mut engine, m, k, n);
            for (r, t) in reference.iter().zip(&engine) {
                prop_assert_eq!(r.to_bits(), t.to_bits(), "{} diverged at {}x{}x{}",
                    mul.name(), m, k, n);
            }
        }
    }

    #[test]
    fn accumulation_into_nonzero_c_is_preserved(
        seed in 0u64..1000,
    ) {
        // C arrives non-zero (bias pre-fill, residual accumulation): the
        // engine must add to it exactly as the reference does.
        let (m, k, n) = (5usize, 9usize, 6usize);
        let hash = |i: usize, salt: u64| -> f32 {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed ^ salt);
            ((h % 997) as f32 - 498.0) / 100.0
        };
        let a: Vec<f32> = (0..m * k).map(|i| hash(i, 1)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| hash(i, 2)).collect();
        let c0: Vec<f32> = (0..m * n).map(|i| hash(i, 3)).collect();
        for mul in backends() {
            let mut reference = c0.clone();
            let mut tiled = c0.clone();
            gemm_reference(mul.as_ref(), &a, &b, &mut reference, m, k, n);
            gemm(mul.as_ref(), &a, &b, &mut tiled, m, k, n);
            for (r, t) in reference.iter().zip(&tiled) {
                prop_assert_eq!(r.to_bits(), t.to_bits(), "{}", mul.name());
            }
        }
    }
}

/// Applies `f` to `ys` through `mul_lanes` groups of `L`, scalar
/// `multiply` on the remainder, asserting lane == scalar per element.
fn assert_lanes_match_scalar<const L: usize>(
    m: &MantissaMultiplier,
    a: u64,
    ys: &[u64],
) -> Result<(), TestCaseError> {
    let prep = m.prepare(a);
    let mut it = ys.chunks_exact(L);
    for chunk in &mut it {
        let lanes: [u64; L] = chunk.try_into().expect("chunk length");
        let raws = m.mul_lanes(&prep, &lanes);
        for (j, &b) in chunk.iter().enumerate() {
            prop_assert_eq!(
                raws[j],
                m.multiply(a, b),
                "{} n={} L={}: a={:#x} b={:#x}",
                m.config(),
                m.mantissa_width(),
                L,
                a,
                b
            );
        }
    }
    for &b in it.remainder() {
        prop_assert_eq!(m.multiply_prepared(&prep, b), m.multiply(a, b));
    }
    Ok(())
}

proptest! {
    /// `mul_lanes` == N× scalar `multiply` across all five multiplier
    /// configurations, every BlockFp-reachable multiplier width
    /// (`man_width 5..=25` ⇒ `n = 4..=24`, spanning LUT and
    /// prepared-pattern-OR service), both operand modes, and several
    /// lane counts — the contract the lane-packed GEMM kernels ride.
    #[test]
    fn mul_lanes_matches_scalar_multiply(
        config_idx in 0usize..5,
        man_width in 5u32..=25,
        seed in 0u64..10_000,
    ) {
        let config = MultiplierConfig::ALL[config_idx];
        let n = man_width - 1;
        let top = 1u64 << (n - 1);
        let hash = |i: u64| -> u64 {
            (i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed) >> 17) & ((1 << n) - 1)
        };
        for mode in [OperandMode::Int, OperandMode::Fp] {
            let m = MantissaMultiplier::new(config, mode, n);
            let ys: Vec<u64> = (0..19u64)
                .map(|i| {
                    let v = hash(i);
                    match mode {
                        // fp-mode multipliers carry their leading one
                        // (or are zero — the bypass lane).
                        OperandMode::Fp => if i % 7 == 0 { 0 } else { v | top },
                        OperandMode::Int => if i % 7 == 0 { 0 } else { v },
                    }
                })
                .collect();
            for a in [top, top | 1, hash(97) | top, (1 << n) - 1, 0] {
                assert_lanes_match_scalar::<1>(&m, a, &ys)?;
                assert_lanes_match_scalar::<3>(&m, a, &ys)?;
                assert_lanes_match_scalar::<8>(&m, a, &ys)?;
                assert_lanes_match_scalar::<16>(&m, a, &ys)?;
            }
        }
    }

    /// The runtime-detected f32 microkernel (an `ExactMul` plan's packed
    /// tiles) and the forced-portable fallback must be
    /// **byte-identical** to each other and to the scalar reference,
    /// across register-tile remainders (m, n, k not multiples of
    /// MR/NR/KC), m == 1 and arbitrary fills — on a host without AVX2
    /// (or a no-`simd` build) the two are the same code and the property
    /// still pins kernel-vs-reference.
    #[test]
    fn microkernel_detected_equals_portable_equals_reference(
        case in (1usize..19, 1usize..40, 1usize..37).prop_flat_map(|(m, k, n)| {
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
                prop::collection::vec(-4.0f32..4.0, m * n),
            )
        }),
    ) {
        let ((m, k, n), a, b, c0) = case;
        let (a, b) = (sparsify(a), sparsify(b));
        let mut reference = c0.clone();
        let mut detected = c0.clone();
        let mut portable = c0;
        gemm_reference(&ExactMul, &a, &b, &mut reference, m, k, n);
        GemmPlan::new(&ExactMul, &b, k, n).run(&ExactMul, &a, &mut detected, m);
        gemm_f32_microkernel_portable(&a, &b, &mut portable, m, k, n);
        assert_bits_eq(&reference, &detected, &format!("detected {m}x{k}x{n}"))?;
        assert_bits_eq(&reference, &portable, &format!("portable {m}x{k}x{n}"))?;
    }
}

#[test]
fn unit_dims_zero_dims_exhaustive() {
    // Every combination of {0, 1, 2} per dimension, all backends.
    for m in [0usize, 1, 2] {
        for k in [0usize, 1, 2] {
            for n in [0usize, 1, 2] {
                let a: Vec<f32> = (0..m * k).map(|i| i as f32 - 1.0).collect();
                let b: Vec<f32> = (0..k * n).map(|i| 0.5 * i as f32 - 0.5).collect();
                for mul in backends() {
                    let mut reference = vec![0.0f32; m * n];
                    let mut tiled = vec![0.0f32; m * n];
                    gemm_reference(mul.as_ref(), &a, &b, &mut reference, m, k, n);
                    gemm(mul.as_ref(), &a, &b, &mut tiled, m, k, n);
                    assert_eq!(reference, tiled, "{} {m}x{k}x{n}", mul.name());
                }
            }
        }
    }
}

#[test]
fn mantissa_lut_equals_bitwise_for_every_fp_operand_pair() {
    // LUT-vs-bitwise equivalence at the mantissa level, exhaustive over
    // the bf16 fp-operand space for all five Table I configurations.
    use daism_core::{MantissaMultiplier, OperandMode};
    for config in MultiplierConfig::ALL {
        let m = MantissaMultiplier::new(config, OperandMode::Fp, 8);
        for a in 0x80u64..=0xFF {
            for b in 0x80u64..=0xFF {
                assert_eq!(
                    m.multiply(a, b),
                    m.multiply_bitwise(a, b),
                    "{config}: a={a:#x} b={b:#x}"
                );
            }
        }
    }
}
