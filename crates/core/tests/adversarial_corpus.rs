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
//!
//! The BlockFp engine gets its own corpus of adversarial *blocks* —
//! all-zero, subnormal-only, Inf/NaN among finite values, mantissas on
//! the symmetric clamp edge, and 3.3e38 beside 1e-45 — placed as A
//! row segments and B tiles, through `execute`, `execute_chunked` and
//! both prepared operands, against `BlockFpGemm::reference`.

use daism_core::{
    gemm, ApproxFpMul, BlockFpGemm, GemmPlan, MultiplierConfig, QuantizedExactMul, ScalarMul,
};
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

/// The BlockFp corpus: blocks that stress the quantizer's shared
/// exponent, its specials and its clamp, each one quantization block
/// when cycled to a tile's length.
fn blockfp_blocks() -> Vec<Vec<f32>> {
    let tiny = f32::from_bits(1); // 1e-45, the smallest subnormal
                                  // Top-of-octave values next to 1.0: `2 - 2^-(w-1)` sits on the tie
                                  // that rounds to 2^(w-1) and clamps at width w, `2 - 2^-(w-2)` is
                                  // exactly the clamp limit, and the largest f32 below 2 clamps at
                                  // every width up to 24.
    let mut clamp = vec![f32::from_bits(0x3FFF_FFFF), -f32::from_bits(0x3FFF_FFFF)];
    for w in [5, 9, 12] {
        let tie = 2.0 - 2f32.powi(1 - w);
        clamp.extend([tie, -tie, 2.0 - 2f32.powi(2 - w), 1.0]);
    }
    vec![
        vec![0.0, -0.0],
        vec![tiny, -1e-40, f32::from_bits(0x007F_FFFF), -tiny, 1e-41, 0.0],
        vec![1.5, f32::INFINITY, -0.75, f32::NEG_INFINITY, f32::NAN, 0.25, -1.0, f32::NAN],
        vec![f32::NAN, f32::INFINITY, 0.0, f32::NEG_INFINITY],
        clamp,
        vec![3.3e38, tiny, -3.3e38, -tiny, 1.0, f32::MAX, -1e-45],
        vec![0.5, -1.25, 3.0, -0.125, 0.0, 2.5],
    ]
}

/// Every adversarial block as A row segments and as B tiles, against
/// `BlockFpGemm::reference` through every engine path: A rows are two
/// blocks (one per k-tile), each of B's four `TILE_K × TILE_N` quarters
/// one block, rotated so every block meets every other. A second engine
/// with tiles as wide as B quantizes two quarters per tile, from whole B
/// rows rather than gathered row segments.
fn assert_blockfp_corpus(config: MultiplierConfig, width: u32) {
    const TILE_K: usize = 12;
    const TILE_N: usize = 5;
    let engines = [TILE_N, 2 * TILE_N].map(|tn| BlockFpGemm::with_tiles(config, width, TILE_K, tn));
    let blocks = blockfp_blocks();
    let cycled = |i: usize, len: usize| -> Vec<f32> {
        let block = &blocks[i % blocks.len()];
        block.iter().copied().cycle().take(len).collect()
    };
    let (m, k, n) = (blocks.len(), 2 * TILE_K, 2 * TILE_N);
    let a: Vec<f32> =
        (0..m).flat_map(|i| [cycled(i, TILE_K), cycled(i + 1, TILE_K)]).flatten().collect();
    for rotation in 0..blocks.len() {
        let mut b = vec![0.0f32; k * n];
        for (lb, jb) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let tile = cycled(rotation + 2 * jb + lb, TILE_K * TILE_N);
            for (dl, row) in tile.chunks_exact(TILE_N).enumerate() {
                let start = (lb * TILE_K + dl) * n + jb * TILE_N;
                b[start..start + TILE_N].copy_from_slice(row);
            }
        }
        let run = |f: &dyn Fn(&mut [f32])| {
            let mut c = vec![0.0f32; m * n];
            f(&mut c);
            c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        for engine in &engines {
            let want = run(&|c| engine.reference(&a, &b, c, m, k, n));
            let ap = engine.prepare_a(&a, m, k);
            let bp = engine.prepare_b(&b, k, n);
            let paths: [(&str, Vec<u32>); 5] = [
                ("execute", run(&|c| engine.execute(&a, &b, c, m, k, n))),
                ("execute_chunked(1)", run(&|c| engine.execute_chunked(&a, &b, c, m, k, n, 1))),
                ("execute_chunked(3)", run(&|c| engine.execute_chunked(&a, &b, c, m, k, n, 3))),
                ("prepared A", run(&|c| engine.execute_with_prepared_a(&ap, &b, c, n))),
                ("prepared B", run(&|c| engine.execute_with_prepared_b(&a, &bp, c, m))),
            ];
            for (path, got) in paths {
                if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                    panic!(
                        "{} tile_n {} via {path}, rotation {rotation}: C[{}][{}] = {}, \
                         reference gives {}",
                        engine.name(),
                        engine.tile_n(),
                        i / n,
                        i % n,
                        f32::from_bits(got[i]),
                        f32::from_bits(want[i])
                    );
                }
            }
        }
    }
}

#[test]
fn blockfp_corpus_is_adversarial() {
    // The quantizer sees what the corpus promises: an all-zero block,
    // an all-subnormal one, a clamped extreme at every width.
    let blocks = blockfp_blocks();
    assert!(blocks[0].iter().all(|&v| v == 0.0));
    assert!(blocks[1].iter().all(|v| v.is_subnormal() || *v == 0.0));
    for width in [5u32, 9, 12, 25] {
        let limit = (1i32 << (width - 1)) - 1;
        let q = daism_num::BlockFp::quantize(&blocks[4], width);
        assert!(q.mantissas().contains(&limit) && q.mantissas().contains(&-limit), "width {width}");
    }
}

#[test]
fn blockfp_w5_pc3_tr() {
    assert_blockfp_corpus(MultiplierConfig::PC3_TR, 5);
}

#[test]
fn blockfp_w9_pc3_tr() {
    assert_blockfp_corpus(MultiplierConfig::PC3_TR, 9);
}

#[test]
fn blockfp_w9_fla() {
    assert_blockfp_corpus(MultiplierConfig::FLA, 9);
}

#[test]
fn blockfp_w12_pc2() {
    assert_blockfp_corpus(MultiplierConfig::PC2, 12);
}

#[test]
fn blockfp_w25_pc3() {
    assert_blockfp_corpus(MultiplierConfig::PC3, 25);
}
