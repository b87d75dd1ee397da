//! Adversarial-float corpus: every `bfloat16` bit pattern (all 65 536,
//! NaNs, infinities, zeros and subnormals included) as the A operand,
//! crossed with a boundary set of B values, through every batched path
//! of the GEMM engine — eager `gemm`, `GemmPlan::run` and `mul_rows` —
//! and compared with scalar `mul` bit for bit.
//!
//! The boundary set holds the values where a fused kernel is most likely
//! to part from the `FpScalar` reference: signed zeros, each format's
//! smallest normal and largest finite value, the largest `f32`
//! subnormal, infinities and NaN, magnitudes whose exponent sum with
//! some A overflows or underflows the format, operands that sit on a
//! round-to-nearest-even tie, and all-ones mantissas (every wordline
//! active). The B row is the boundary set plus one value, 33 columns,
//! ordered so that the zeros, infinities and NaN close it: four full
//! lane groups and a padded tail group whose one lane is the NaN, right
//! after the infinities. Eager `gemm` runs it as one 33-column row, so
//! wide mantissas take the mask-chain product; the plan holds it seven
//! times over, 231 columns, so they take the subset-OR-table product and
//! its tail group holds the zeros, the infinities and the NaN.

use daism_core::{gemm, ApproxFpMul, GemmPlan, MultiplierConfig, QuantizedExactMul, ScalarMul};
use daism_num::FpFormat;

const FORMATS: [FpFormat; 4] = [FpFormat::BF16, FpFormat::FP16, FpFormat::TF32, FpFormat::FP32];

/// Every bf16 bit pattern, widened to `f32`.
fn bf16_patterns() -> Vec<f32> {
    (0u32..=0xFFFF).map(|h| f32::from_bits(h << 16)).collect()
}

/// The largest finite value of `f`, as `f32` bits: top exponent, all
/// mantissa ones.
fn max_finite(f: FpFormat) -> f32 {
    let frac = ((1u32 << f.man_bits()) - 1) << (23 - f.man_bits());
    f32::from_bits(((f.max_exp() + 127) as u32) << 23 | frac)
}

fn boundary_set() -> Vec<f32> {
    let mut v = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    // Smallest normals (fp16's, and the f32 one bf16/tf32/fp32 share),
    // the largest f32 subnormal, largest finite values.
    for x in [2f32.powi(-14), f32::MIN_POSITIVE, f32::from_bits(0x007F_FFFF)] {
        v.extend([x, -x]);
    }
    for f in FORMATS {
        v.extend([max_finite(f), -max_finite(f)]);
    }
    // Exponent sums past either end of every format's range against
    // the corpus' large and small magnitudes.
    v.extend([2f32.powi(-100), 2f32.powi(-12), 2f32.powi(12), 2f32.powi(100), -2f32.powi(64)]);
    // Operand ties: halfway between neighbouring bf16, and fp16/tf32,
    // values. Product ties: 1.5 and 1 + 2^-7 put many bf16 × bf16
    // products exactly halfway between two bf16 values.
    v.extend([1.0 + 2f32.powi(-8), -(1.0 + 2f32.powi(-11)), 1.5, -1.5, 1.0 + 2f32.powi(-7)]);
    v.push(3.0 * (1.0 + 2f32.powi(-7)));
    // All-ones mantissas: every wordline of the multiplier active.
    v.extend([f32::from_bits(0x3FFF_FFFF), -f32::from_bits(0x2BFF_FFFF)]);
    v
}

/// Copies of the B row side by side in the plan's B: 231 columns, whose
/// keys select enough wordlines (238 for fp16/PC3_tr, the fewest) for
/// every wide mantissa to take the subset-OR-table product, and whose
/// seven-lane tail group holds the zeros, infinities and NaN.
const PLAN_COPIES: usize = 7;

/// The corpus' B row: one plain value, then the boundary set with its
/// five leading specials (±0, ±Inf, NaN) moved to the end.
fn b_row() -> Vec<f32> {
    let set = boundary_set();
    let mut row = vec![-0.75f32];
    row.extend(&set[5..]);
    row.extend(&set[..5]);
    row
}

/// What a batched path must leave in a `+0.0` accumulator: the
/// zero-bypassed product of `a` and `b`.
fn expected(mul: &dyn ScalarMul, a: f32, b: f32) -> u32 {
    let term = if a == 0.0 || b == 0.0 { 0.0 } else { mul.mul(a, b) };
    (0.0f32 + term).to_bits()
}

fn assert_corpus(mul: &dyn ScalarMul) {
    let a = bf16_patterns();
    let b = b_row();
    let (m, n) = (a.len(), b.len());
    let want: Vec<u32> =
        a.iter().flat_map(|&av| b.iter().map(move |&bv| expected(mul, av, bv))).collect();
    let check = |got: Vec<u32>, path: &str| {
        if got == want {
            return;
        }
        let i = got.iter().zip(&want).position(|(g, w)| g != w).expect("a mismatch");
        panic!(
            "{} via {path}: a={:#010x} b={:#010x}: got {}, mul gives {}",
            mul.name(),
            a[i / n].to_bits(),
            b[i % n].to_bits(),
            f32::from_bits(got[i]),
            f32::from_bits(want[i])
        );
    };
    let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();

    // A is m×1, B is 1×n.
    let mut c = vec![0.0f32; m * n];
    gemm(mul, &a, &b, &mut c, m, 1, n);
    check(bits(&c), "gemm");

    let wide: Vec<f32> = b.repeat(PLAN_COPIES);
    let plan = GemmPlan::new(mul, &wide, 1, PLAN_COPIES * n);
    let mut c = vec![0.0f32; m * PLAN_COPIES * n];
    plan.run(mul, &a, &mut c, m);
    for copy in 0..PLAN_COPIES {
        let cols = copy * n..(copy + 1) * n;
        check(
            c.chunks_exact(PLAN_COPIES * n).flat_map(|row| bits(&row[cols.clone()])).collect(),
            "GemmPlan::run",
        );
    }

    let mut c = vec![0.0f32; m * n];
    for (&av, row) in a.iter().zip(c.chunks_exact_mut(n)) {
        if av != 0.0 {
            mul.mul_rows(av, &b, row);
        }
    }
    check(bits(&c), "mul_rows");
}

#[test]
fn boundary_set_fills_a_wide_panel_when_doubled() {
    let b = boundary_set();
    assert_eq!(b.len(), 32, "the B row is the boundary set plus one value");
    assert!(b.iter().any(|x| x.is_nan()));
    // Eager: four full lane groups and a one-lane tail group holding the
    // NaN. Plan: a seven-lane tail group ending in ±0, ±Inf and NaN.
    let row = b_row();
    assert_eq!(row.len(), 33);
    assert!(row[32].is_nan() && row[30..32].iter().all(|x| x.is_infinite()));
    assert_eq!(PLAN_COPIES * row.len() % 8, 7);
}

#[test]
fn quantized_exact_bf16() {
    assert_corpus(&QuantizedExactMul::new(FpFormat::BF16));
}

#[test]
fn quantized_exact_fp16() {
    assert_corpus(&QuantizedExactMul::new(FpFormat::FP16));
}

#[test]
fn quantized_exact_tf32() {
    assert_corpus(&QuantizedExactMul::new(FpFormat::TF32));
}

#[test]
fn quantized_exact_fp32() {
    assert_corpus(&QuantizedExactMul::new(FpFormat::FP32));
}

#[test]
fn approx_bf16_pc3_tr() {
    assert_corpus(&ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16));
}

#[test]
fn approx_bf16_fla() {
    assert_corpus(&ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::BF16));
}

#[test]
fn approx_fp16_pc3_tr() {
    assert_corpus(&ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16));
}

#[test]
fn approx_tf32_pc2() {
    assert_corpus(&ApproxFpMul::new(MultiplierConfig::PC2, FpFormat::TF32));
}

#[test]
fn approx_fp32_pc3_tr() {
    assert_corpus(&ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP32));
}
