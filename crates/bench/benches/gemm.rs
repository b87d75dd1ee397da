//! GEMM throughput: backend comparison at 32³ (the cost of simulating
//! approximate arithmetic), plus the engine trajectory — the seed's
//! scalar loop vs the scalar reference vs the serial lane-packed
//! **microkernel** layer (a `GemmPlan` built and run as one C chunk) vs
//! the auto-dispatched engine — at 64³ and 256³ for the exact and
//! PC3_tr backends. The ≥4× engine-vs-reference target for 256³ PC3 on
//! a multi-core runner and the microkernel-vs-reference single-core win
//! are tracked here (see also the `bench_gemm_json` bin, which emits the
//! same trajectory as machine-readable `BENCH_gemm.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use daism_core::{
    gemm, gemm_reference, ApproxFpMul, BlockFpGemm, ExactMul, GemmPlan, MultiplierConfig,
    QuantizedExactMul, ScalarMul,
};
use daism_num::FpFormat;

fn test_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..m * k).map(|i| (i as f32 % 7.0) - 3.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i as f32 % 5.0) - 2.0).collect();
    (a, b)
}

fn gemm_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_32x32x32");
    let (m, k, n) = (32usize, 32, 32);
    let (a, b) = test_operands(m, k, n);
    let backends: Vec<(&str, Box<dyn ScalarMul>)> = vec![
        ("exact_f32", Box::new(ExactMul)),
        ("bf16_exact", Box::new(QuantizedExactMul::new(FpFormat::BF16))),
        ("bf16_pc3_tr", Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16))),
        ("bf16_fla", Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::BF16))),
    ];
    for (name, backend) in &backends {
        group.bench_function(*name, |bench| {
            bench.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm(backend.as_ref(), black_box(&a), black_box(&b), &mut out, m, k, n);
                black_box(out)
            })
        });
    }
    group.finish();
}

/// The seed's scalar GEMM loop, verbatim: one virtual `mul` call per
/// element, no batching, no tiling, no threads. Kept here (only) as the
/// perf baseline the engine's ≥4× target is counted from.
fn seed_scalar_gemm(
    mul: &dyn ScalarMul,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        for l in 0..k {
            let av = a[i * k + l];
            if av == 0.0 {
                continue;
            }
            let brow = &b[l * n..(l + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                if *bv != 0.0 {
                    *cv += mul.mul(av, *bv);
                }
            }
        }
    }
}

/// seed loop vs reference vs serial microkernel vs auto-dispatched
/// engine, per backend and size — the speedup trajectory of the engine.
fn gemm_engine_trajectory(c: &mut Criterion) {
    let backends: Vec<(&str, Box<dyn ScalarMul>)> = vec![
        ("exact_f32", Box::new(ExactMul)),
        ("bf16_pc3_tr", Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16))),
    ];
    for size in [64usize, 256] {
        let (m, k, n) = (size, size, size);
        let (a, b) = test_operands(m, k, n);
        let mut group = c.benchmark_group(format!("gemm_{size}x{size}x{size}"));
        for (name, backend) in &backends {
            group.bench_function(format!("{name}/seed_scalar"), |bench| {
                bench.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    seed_scalar_gemm(
                        backend.as_ref(),
                        black_box(&a),
                        black_box(&b),
                        &mut out,
                        m,
                        k,
                        n,
                    );
                    black_box(out)
                })
            });
            group.bench_function(format!("{name}/reference"), |bench| {
                bench.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    gemm_reference(
                        backend.as_ref(),
                        black_box(&a),
                        black_box(&b),
                        &mut out,
                        m,
                        k,
                        n,
                    );
                    black_box(out)
                })
            });
            group.bench_function(format!("{name}/microkernel"), |bench| {
                bench.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    let plan = GemmPlan::new(backend.as_ref(), black_box(&b), k, n);
                    plan.run_chunked(backend.as_ref(), black_box(&a), &mut out, m, m);
                    black_box(out)
                })
            });
            group.bench_function(format!("{name}/tiled_parallel"), |bench| {
                bench.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    gemm(backend.as_ref(), black_box(&a), black_box(&b), &mut out, m, k, n);
                    black_box(out)
                })
            });
        }
        group.finish();
    }
}

/// The block-floating-point engine trajectory: the paper's literal
/// whole-matrix mode vs the per-tile tiled kernel vs the parallel
/// engine, at the bf16-mantissa-equivalent width (9 signed bits, LUT
/// path). Tracked alongside the float engine so the §IV-B dataflow has
/// its own perf history (`bench_gemm_json` emits the same rows as JSON).
fn gemm_blockfp_trajectory(c: &mut Criterion) {
    let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 9);
    for size in [64usize, 256] {
        let (m, k, n) = (size, size, size);
        let (a, b) = test_operands(m, k, n);
        let mut group = c.benchmark_group(format!("blockfp_{size}x{size}x{size}"));
        group.bench_function("w9_pc3_tr/whole_matrix", |bench| {
            bench.iter(|| {
                let mut out = vec![0.0f32; m * n];
                engine.execute_whole_matrix(black_box(&a), black_box(&b), &mut out, m, k, n);
                black_box(out)
            })
        });
        group.bench_function("w9_pc3_tr/tiled", |bench| {
            bench.iter(|| {
                let mut out = vec![0.0f32; m * n];
                engine.execute_chunked(black_box(&a), black_box(&b), &mut out, m, k, n, m);
                black_box(out)
            })
        });
        group.bench_function("w9_pc3_tr/parallel", |bench| {
            bench.iter(|| {
                let mut out = vec![0.0f32; m * n];
                engine.execute(black_box(&a), black_box(&b), &mut out, m, k, n);
                black_box(out)
            })
        });
        group.finish();
    }
}

criterion_group!(benches, gemm_backends, gemm_engine_trajectory, gemm_blockfp_trajectory);
criterion_main!(benches);
