//! GEMM throughput rows no other bench times: the backend comparison at
//! 32³ (the cost of simulating approximate arithmetic) and the seed's
//! scalar loop at 64³ and 256³, the baseline the engine's ≥4× target is
//! counted from. The engine trajectory itself (reference, microkernel,
//! parallel; BlockFp whole-matrix, reference, tiled, parallel) is timed
//! by the `bench_gemm_json` bin, with speedups over the same run's
//! reference in `BENCH_gemm.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use daism_bench::harness::test_operands;
use daism_core::{gemm, ApproxFpMul, ExactMul, MultiplierConfig, QuantizedExactMul, ScalarMul};
use daism_num::FpFormat;

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
fn seed_scalar(
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

/// The seed loop per backend at 64³ and 256³.
fn gemm_seed_scalar(c: &mut Criterion) {
    let backends: Vec<(&str, Box<dyn ScalarMul>)> = vec![
        ("exact_f32", Box::new(ExactMul)),
        ("bf16_pc3_tr", Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16))),
    ];
    for size in [64usize, 256] {
        let (m, k, n) = (size, size, size);
        let (a, b) = test_operands(m, k, n);
        let mut group = c.benchmark_group(format!("gemm_{size}x{size}x{size}"));
        for (name, mul) in &backends {
            group.bench_function(format!("{name}/seed_scalar"), |bench| {
                bench.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    seed_scalar(mul.as_ref(), black_box(&a), black_box(&b), &mut out, m, k, n);
                    black_box(out)
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, gemm_backends, gemm_seed_scalar);
criterion_main!(benches);
