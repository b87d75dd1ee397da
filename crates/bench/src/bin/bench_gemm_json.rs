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
//!   kernel for `exact_f32`, the prepared-panel kernels for the others
//!   (SoA lanes over the product table for bf16, over subset-OR tables
//!   for fp32, native multiply plus bit rounding for quantized-exact);
//! * `parallel` — the auto-dispatched engine ([`gemm`]), which adds the
//!   thread gate on top.
//!
//! For the blockfp backend `tiled` *is* the lane-packed engine (one
//! chunk spanning all rows); `parallel` adds the worker pool.
//!
//! Each (size, backend, variant) cell reports the best and median of a
//! few timed repetitions and its speedup over the same run's reference
//! (see [`daism_bench::harness`]).
//!
//! # Guards (CI gates, non-zero exit)
//!
//! * **Dispatch guard**: at sizes ≥ 64³ every non-`reference` row must
//!   measure `speedup_vs_reference ≥ 0.95` — the dispatch layer must
//!   never pick a variant that loses to the naive loop (the PR-1/PR-2
//!   exact-f32 regression this PR fixes). Smaller smoke sizes are below
//!   timing resolution and are exempt. The JSON is still written.
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

/// One timed path: `C += A·B` for square `size³` operands.
type Variant<'a> = (&'static str, Box<dyn Fn(&[f32], &[f32], &mut [f32], usize) + 'a>);

fn float_variants(mul: &dyn ScalarMul) -> Vec<Variant<'_>> {
    vec![
        ("reference", Box::new(|a, b, c, s| gemm_reference(mul, a, b, c, s, s, s))),
        // B converted tile by tile at plan time, then every tile run over
        // all rows on the calling thread: the serial kernel layer without
        // the thread gate.
        (
            "microkernel",
            Box::new(|a, b, c, s| GemmPlan::new(mul, b, s, s).run_chunked(mul, a, c, s, s.max(1))),
        ),
        ("parallel", Box::new(|a, b, c, s| gemm(mul, a, b, c, s, s, s))),
    ]
}

/// Whole-matrix quantization (the paper's literal mode) is the blockfp
/// baseline, the scalar per-tile reference anchors semantics, and
/// tiled/parallel are the engine.
fn blockfp_variants(e: &BlockFpGemm) -> Vec<Variant<'_>> {
    vec![
        ("whole_matrix", Box::new(|a, b, c, s| e.execute_whole_matrix(a, b, c, s, s, s))),
        ("reference", Box::new(|a, b, c, s| e.reference(a, b, c, s, s, s))),
        // One chunk spanning all rows: the lane-packed tiled kernel
        // without row parallelism, so the engine win is visible next to
        // `parallel`.
        ("tiled", Box::new(|a, b, c, s| e.execute_chunked(a, b, c, s, s, s, s.max(1)))),
        ("parallel", Box::new(|a, b, c, s| e.execute(a, b, c, s, s, s))),
    ]
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
                let timing = harness::time(reps, || f(&a, &b, &mut c, size));
                let id = vec![
                    ("size", size.to_string()),
                    ("backend", quoted(backend)),
                    ("variant", quoted(variant)),
                ];
                report.record(Row::new(id, timing).vs("variant", "reference", floor));
            }
        }
    }
    report.finish(&out)
}
