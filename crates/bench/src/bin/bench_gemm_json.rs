//! Machine-readable GEMM perf trajectory: times the scalar reference,
//! the serial **lane-packed microkernel** layer and the full
//! auto-dispatched engine for the exact-f32 and bf16/PC3_tr backends and
//! the two Fig. 4 baselines, quantized-exact bf16 and fp32/PC3_tr — plus
//! the **block-floating-point** engine (whole-matrix baseline,
//! scalar reference, serial tiled, parallel) — then writes
//! `BENCH_gemm.json` so speedups are tracked across PRs without parsing
//! criterion output.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p daism-bench --bin bench_gemm_json            # 64³ + 256³
//! cargo run --release -p daism-bench --bin bench_gemm_json -- --quick # 16³ + 32³ (CI smoke)
//! cargo run --release -p daism-bench --bin bench_gemm_json -- --out path.json
//! ```
//!
//! Variants per float backend (each one a path the dispatch layer can
//! actually select, so the guard below is meaningful):
//!
//! * `reference` — the scalar loop, the semantic anchor;
//! * `microkernel` — the serial lane-packed layer: a [`GemmPlan`] built
//!   per call and run as one C chunk — the packed register-tile `f32`
//!   kernel for `exact_f32`, the decoded-tile kernels for the others
//!   (SoA lanes over the product table for bf16, over subset-OR tables
//!   for fp32, native multiply plus bit rounding for quantized-exact);
//! * `parallel` — the auto-dispatched engine ([`gemm`]), which adds the
//!   thread gate on top.
//!
//! For the blockfp backend `tiled` *is* the row-lane engine (one chunk
//! spanning all rows); `parallel` adds the worker pool.
//!
//! After the square sizes come bf16/PC3_tr rows on three non-square
//! `mini_vgg` training GEMMs (16-sample batch): conv1's weight gradient
//! `8×4096×9`, conv2's forward `16×72×1024` and conv2's weight gradient
//! `16×1024×72` — narrow tiles where operand decoding, not the products,
//! used to dominate. Their rows carry a `shape` (`m×k×n`) and a `gemm`
//! name instead of a `size`; `--quick` times conv1's weight gradient at
//! a 2-sample batch, `8×512×9`.
//!
//! Last come BlockFp rows on the two `tiny_resnet` serving GEMMs
//! (`serve-blockfp`'s residual convolutions, 8 output channels over a
//! 72-deep im2col lowering): `res1` `8×72×256` and `res2` `8×72×64`,
//! each twice: with B ≈80% zeros like the lowered post-ReLU
//! activations, which the engine's zero bypass skips, and with B dense,
//! where there is nothing to skip. Their rows carry the measured
//! `zero_frac_b` in the id. `--quick` times `res2` only, both ways.
//!
//! Each (size, backend, variant) cell reports the best and median of a
//! few timed repetitions and its speedup over the same run's reference
//! (see [`daism_bench::harness`]).
//!
//! # Guards (CI gates, non-zero exit)
//!
//! * **Dispatch guard**: at sizes ≥ 64³, and on the full-size training
//!   and serving shapes, every non-`reference` row must measure
//!   `speedup_vs_reference ≥ 0.95` — the dispatch layer must never pick
//!   a variant that loses to the naive loop (the early exact-f32
//!   regression stays fixed). Smaller smoke sizes are below timing
//!   resolution and are exempt. The JSON is still written.
//! * **BlockFp validation**: before timing, the engine's output is
//!   checked — all-finite, no scale blowup against the exact f32 GEMM,
//!   byte-identical across repeats and chunk sizes (the thread-count
//!   seam). A violation panics the bin.

use daism_bench::harness::{self, quoted, Report, Row, BLOCKFP_WIDTH};
use daism_core::{
    gemm, gemm_reference, ApproxFpMul, BlockFpGemm, ExactMul, GemmPlan, MultiplierConfig,
    QuantizedExactMul, ScalarMul,
};
use daism_num::FpFormat;
use std::process::ExitCode;

/// One timed path: `C[m×n] += A[m×k]·B[k×n]`.
type Variant<'a> =
    (&'static str, Box<dyn Fn(&[f32], &[f32], &mut [f32], usize, usize, usize) + 'a>);

fn float_variants(mul: &dyn ScalarMul) -> Vec<Variant<'_>> {
    vec![
        ("reference", Box::new(|a, b, c, m, k, n| gemm_reference(mul, a, b, c, m, k, n))),
        // B converted tile by tile at plan time, then every tile run over
        // all rows on the calling thread: the serial kernel layer without
        // the thread gate.
        (
            "microkernel",
            Box::new(|a, b, c, m, k, n| {
                GemmPlan::new(mul, b, k, n).run_chunked(mul, a, c, m, m.max(1))
            }),
        ),
        ("parallel", Box::new(|a, b, c, m, k, n| gemm(mul, a, b, c, m, k, n))),
    ]
}

/// Whole-matrix quantization (the paper's literal mode) is the blockfp
/// baseline, the scalar per-tile reference anchors semantics, and
/// tiled/parallel are the engine.
fn blockfp_variants(e: &BlockFpGemm) -> Vec<Variant<'_>> {
    vec![
        ("whole_matrix", Box::new(|a, b, c, m, k, n| e.execute_whole_matrix(a, b, c, m, k, n))),
        ("reference", Box::new(|a, b, c, m, k, n| e.reference(a, b, c, m, k, n))),
        // One chunk spanning all rows: the lane-packed tiled kernel
        // without row parallelism, so the engine win is visible next to
        // `parallel`.
        ("tiled", Box::new(|a, b, c, m, k, n| e.execute_chunked(a, b, c, m, k, n, m.max(1)))),
        ("parallel", Box::new(|a, b, c, m, k, n| e.execute(a, b, c, m, k, n))),
    ]
}

/// The `mini_vgg` training GEMMs (16-sample batch) timed on bf16/PC3_tr,
/// as `(gemm, m, k, n)`.
const TRAIN_SHAPES: [(&str, usize, usize, usize); 3] =
    [("conv1_grad_w", 8, 4096, 9), ("conv2_forward", 16, 72, 1024), ("conv2_grad_w", 16, 1024, 72)];

/// The `--quick` training shape: conv1's weight gradient at a 2-sample
/// batch.
const QUICK_TRAIN_SHAPE: (&str, usize, usize, usize) = ("conv1_grad_w", 8, 512, 9);

/// The `tiny_resnet` serving GEMMs timed on the BlockFp backend, as
/// `(gemm, m, k, n)`; `--quick` times the last.
const SERVE_SHAPES: [(&str, usize, usize, usize); 2] =
    [("serve_res1", 8, 72, 256), ("serve_res2", 8, 72, 64)];

/// Fractions of B zeroed in the serving shapes: as in the lowered
/// post-ReLU activations the residual convolutions see, and none, so
/// one row exercises the zero bypass and its twin does not.
const SERVE_ZERO_FRACS: [f64; 2] = [0.8, 0.0];

/// [`harness::test_operands`]' A, and a B that is zero at a hashed
/// `zero_frac` of its positions and ±0.5 or ±1.5 elsewhere; also returns
/// B's measured zero fraction.
fn sparse_operands(m: usize, k: usize, n: usize, zero_frac: f64) -> (Vec<f32>, Vec<f32>, f64) {
    let (a, _) = harness::test_operands(m, k, n);
    let b: Vec<f32> = (0..k * n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if (h as f64) < zero_frac * (1u64 << 24) as f64 {
                0.0
            } else {
                (i % 4) as f32 - 1.5
            }
        })
        .collect();
    let zero_frac = b.iter().filter(|&&v| v == 0.0).count() as f64 / b.len() as f64;
    (a, b, zero_frac)
}

/// Smallest size the dispatch guard applies to: below this a cell runs
/// in microseconds and scheduler noise swamps the 5% margin.
const GUARD_MIN_SIZE: usize = 64;

/// Checks the blockfp engine before it is timed: no NaN/Inf, no scale
/// blowup against the exact f32 GEMM, and byte-identical output across
/// repeated runs and chunk sizes (the thread-count seam).
///
/// # Panics
///
/// Panics on any violation, failing the run.
fn validate_blockfp(engine: &BlockFpGemm, size: usize) {
    let (m, k, n) = (size, size, size);
    let (a, b) = harness::test_operands(m, k, n);
    let run = |f: &dyn Fn(&mut [f32])| {
        let mut c = vec![0.0f32; m * n];
        f(&mut c);
        c
    };
    let out = run(&|c| engine.execute(&a, &b, c, m, k, n));
    assert!(out.iter().all(|v| v.is_finite()), "blockfp: non-finite output at {size}^3");
    let exact = run(&|c| gemm(&ExactMul, &a, &b, c, m, k, n));
    let err: f64 = exact.iter().zip(&out).map(|(e, v)| (*e as f64 - *v as f64).abs()).sum();
    let mag: f64 = exact.iter().map(|e| (*e as f64).abs()).sum();
    assert!(err <= 0.5 * mag + 1e-3, "blockfp: scale blowup at {size}^3 (err {err} vs mag {mag})");
    let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let golden = bits(&out);
    let repeat = bits(&run(&|c| engine.execute(&a, &b, c, m, k, n)));
    assert!(repeat == golden, "blockfp: repeated runs diverged at {size}^3");
    for chunk_rows in [1usize, 7, m] {
        let chunked = bits(&run(&|c| engine.execute_chunked(&a, &b, c, m, k, n, chunk_rows)));
        assert!(chunked == golden, "blockfp: chunk_rows {chunk_rows} diverged at {size}^3");
    }
}

fn main() -> ExitCode {
    let (quick, out) = harness::args("BENCH_gemm.json");
    let (sizes, reps): (&[usize], usize) = if quick { (&[16, 32], 3) } else { (&[64, 256], 5) };
    let header = vec![("threads", rayon::current_num_threads()), ("reps_per_cell", reps)];
    let mut report = Report::new("daism-bench-gemm/2", "bench_gemm_json", quick, header);

    let muls: [(&str, Box<dyn ScalarMul>); 4] = [
        ("exact_f32", Box::new(ExactMul)),
        ("bf16_pc3_tr", Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16))),
        ("quantized_exact_bf16", Box::new(QuantizedExactMul::new(FpFormat::BF16))),
        ("fp32_pc3_tr", Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP32))),
    ];
    let blockfp = BlockFpGemm::new(MultiplierConfig::PC3_TR, BLOCKFP_WIDTH);
    let mut backends: Vec<(String, Vec<Variant>)> =
        muls.iter().map(|(name, mul)| (name.to_string(), float_variants(mul.as_ref()))).collect();
    backends.push((format!("blockfp_w{BLOCKFP_WIDTH}_pc3_tr"), blockfp_variants(&blockfp)));

    for &size in sizes {
        validate_blockfp(&blockfp, size);
        let floor = if size >= GUARD_MIN_SIZE { 0.95 } else { 0.0 };
        let (a, b) = harness::test_operands(size, size, size);
        let mut c = vec![0.0f32; size * size];
        for (backend, variants) in &backends {
            for (variant, f) in variants {
                let timing = harness::time(reps, || f(&a, &b, &mut c, size, size, size));
                let id = vec![
                    ("size", size.to_string()),
                    ("backend", quoted(backend)),
                    ("variant", quoted(variant)),
                ];
                report.record(Row::new(id, timing).vs("variant", "reference", floor));
            }
        }
    }

    let (bf16_name, bf16) = &muls[1];
    let (shapes, floor) =
        if quick { (&[QUICK_TRAIN_SHAPE][..], 0.0) } else { (&TRAIN_SHAPES[..], 0.95) };
    for &(name, m, k, n) in shapes {
        let (a, b) = harness::test_operands(m, k, n);
        let mut c = vec![0.0f32; m * n];
        for (variant, f) in float_variants(bf16.as_ref()) {
            let timing = harness::time(reps, || f(&a, &b, &mut c, m, k, n));
            let id = vec![
                ("shape", quoted(&format!("{m}x{k}x{n}"))),
                ("gemm", quoted(name)),
                ("backend", quoted(bf16_name)),
                ("variant", quoted(variant)),
            ];
            report.record(Row::new(id, timing).vs("variant", "reference", floor));
        }
    }

    let (shapes, floor) = if quick { (&SERVE_SHAPES[1..], 0.0) } else { (&SERVE_SHAPES[..], 0.95) };
    let blockfp_name = format!("blockfp_w{BLOCKFP_WIDTH}_pc3_tr");
    for &(name, m, k, n) in shapes {
        for zero_frac in SERVE_ZERO_FRACS {
            let (a, b, zero_frac) = sparse_operands(m, k, n, zero_frac);
            let mut c = vec![0.0f32; m * n];
            for (variant, f) in blockfp_variants(&blockfp) {
                if variant == "whole_matrix" {
                    continue;
                }
                let timing = harness::time(reps, || f(&a, &b, &mut c, m, k, n));
                let id = vec![
                    ("shape", quoted(&format!("{m}x{k}x{n}"))),
                    ("gemm", quoted(name)),
                    ("zero_frac_b", format!("{zero_frac:.3}")),
                    ("backend", quoted(&blockfp_name)),
                    ("variant", quoted(variant)),
                ];
                report.record(Row::new(id, timing).vs("variant", "reference", floor));
            }
        }
    }
    report.finish(&out)
}
