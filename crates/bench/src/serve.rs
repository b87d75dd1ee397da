//! Serving-throughput experiment: **compiled sessions vs eager
//! forwards**, per backend, at request batch sizes 1 / 8 / 32.
//!
//! The workload is the repo's serving scenario distilled: a trained
//! Dense stack with 256-wide hidden layers (each request drives
//! `batch × 256 × 256`-class GEMMs), fixed weights, a stream of
//! requests. The *eager* mode re-derives every weight-side operand per
//! request — prepared B panels, microkernel packing, BlockFp weight
//! tiles — exactly as `Sequential::forward` always has; the *compiled*
//! mode serves from a [`CompiledModel`](daism_dnn::CompiledModel)
//! snapshot that paid the conversion once at compile time.
//!
//! Before timing, each backend's compiled output is validated
//! bit-identical to its eager output (a wrong cache must never win a
//! benchmark). The `bench_serve_json` bin writes the resulting report,
//! guards included, as `BENCH_serve.json`.

use crate::harness::{self, quoted, Report, Row, BLOCKFP_WIDTH};
use daism_core::{ApproxFpMul, BlockFpGemm, ExactMul, MultiplierConfig, ScalarMul};
use daism_dnn::{models, Layer, Sequential, Tensor};
use daism_num::FpFormat;

/// Input feature width of the serving model (also its hidden width).
fn model_dim(quick: bool) -> usize {
    if quick {
        32
    } else {
        256
    }
}

/// Timed repetitions per cell.
const REPS: usize = 3;

/// Output classes of the serving model.
const CLASSES: usize = 16;

/// The serving model: two 256-wide (or 32-wide in quick mode) hidden
/// Dense layers — the "256³-class" GEMM shape per request at batch
/// ≥ the layer width, and the `m == 1` serving case at batch 1.
fn serve_model(quick: bool) -> Sequential {
    let dim = model_dim(quick);
    models::mlp(dim, dim, CLASSES, 2)
}

/// One timed cell: `mode` is `"eager"`, `"compiled"`, or `"compile"`
/// (the one-time snapshot cost, amortised across every subsequent
/// request; batch 0, one request).
fn row(backend: &str, mode: &str, batch: usize, requests: usize, timing: (u128, u128)) -> Row {
    let best_ns = timing.0;
    let requests_per_sec =
        if best_ns == 0 { 0.0 } else { requests as f64 / (best_ns as f64 * 1e-9) };
    let id = vec![
        ("backend", quoted(backend)),
        ("mode", quoted(mode)),
        ("batch", batch.to_string()),
        ("requests", requests.to_string()),
    ];
    Row::new(id, timing)
        .derived("ns_per_request", (best_ns / requests.max(1) as u128).to_string())
        .derived("requests_per_sec", format!("{requests_per_sec:.1}"))
}

/// Deterministic request stream: `count` inputs of `batch × dim`.
fn request_stream(count: usize, batch: usize, dim: usize) -> Vec<Tensor> {
    (0..count).map(|i| Tensor::randn(&[batch, dim], 1.0, 1000 + i as u64)).collect()
}

fn requests_for(quick: bool, batch: usize) -> usize {
    if quick {
        (8 / batch).max(2)
    } else {
        (48 / batch).max(4)
    }
}

/// Asserts compiled output == eager output, bit for bit, on one probe
/// input — a wrong cache must never win a benchmark.
///
/// # Panics
///
/// Panics on any bit divergence.
fn validate_bits(eager: &Tensor, compiled: &Tensor, backend: &str) {
    assert_eq!(eager.shape(), compiled.shape(), "{backend}: serve validation shape mismatch");
    for (i, (a, b)) in eager.data().iter().zip(compiled.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{backend}: compiled serving diverged from eager at element {i}: {a} vs {b}"
        );
    }
}

/// The one measurement protocol every backend runs: bit-validation,
/// compile-cost row, then eager-vs-compiled rows per batch size.
/// `compile` snapshots the (fresh, identically-seeded) compile model
/// for the backend; `eager_forward` is the backend's per-request eager
/// path — keeping the protocol in one place so the backends' rows can
/// never skew apart.
fn run_backend<'b>(
    report: &mut Report,
    backend: &str,
    quick: bool,
    compile: &dyn Fn(&Sequential) -> daism_dnn::CompiledModel<'b>,
    eager_forward: &mut dyn FnMut(&Tensor) -> Tensor,
) {
    let dim = model_dim(quick);
    let compile_model = serve_model(quick); // identical seeds => identical weights
    let probe = Tensor::randn(&[3, dim], 1.0, 7);
    let compiled = compile(&compile_model);
    validate_bits(&eager_forward(&probe), &compiled.forward(&probe), backend);

    let timing = harness::time(REPS, || {
        std::hint::black_box(compile(&compile_model));
    });
    report.record(row(backend, "compile", 0, 1, timing));

    // The CI guards, at full sizes only (quick cells run in microseconds
    // and timing noise swamps any margin): compiled serving at ≥ 0.95×
    // eager at batch ≥ 8, and beating eager outright at batch 1 on the
    // approximate backends.
    let approximate = backend.starts_with("bf16") || backend.starts_with("blockfp");
    let batches: &[usize] = if quick { &[1, 4] } else { &[1, 8, 32] };
    for &batch in batches {
        let floor = match batch {
            _ if quick => 0.0,
            8.. => 0.95,
            1 if approximate => 1.0,
            _ => 0.0,
        };
        let count = requests_for(quick, batch);
        let stream = request_stream(count, batch, dim);
        let timing = harness::time(REPS, || {
            for x in &stream {
                std::hint::black_box(eager_forward(x));
            }
        });
        report.record(row(backend, "eager", batch, count, timing));
        let timing = harness::time(REPS, || {
            for x in &stream {
                std::hint::black_box(compiled.forward(x));
            }
        });
        report.record(row(backend, "compiled", batch, count, timing).vs("mode", "eager", floor));
    }
}

/// Runs the whole experiment: every backend × {eager, compiled} ×
/// batch {1, 8, 32} (quick mode: {1, 4} at 32-wide layers), with a
/// bit-identity validation per backend before any timing. Compiled rows
/// carry their speedup over the eager row at the same batch.
pub fn run(quick: bool) -> Report {
    let header = vec![("model_dim", model_dim(quick)), ("threads", rayon::current_num_threads())];
    let mut report = Report::new("daism-bench-serve/1", "bench_serve_json", quick, header);
    let scalars: [(&str, Box<dyn ScalarMul>); 2] = [
        ("exact_f32", Box::new(ExactMul)),
        ("bf16_pc3_tr", Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16))),
    ];
    for (name, mul) in &scalars {
        let mut eager_model = serve_model(quick);
        run_backend(
            &mut report,
            name,
            quick,
            &|m: &Sequential| m.compile(mul.as_ref()),
            &mut |x| eager_model.forward(x, mul.as_ref(), false),
        );
    }
    let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, BLOCKFP_WIDTH);
    let mut eager_model = serve_model(quick);
    run_backend(
        &mut report,
        &format!("blockfp_w{BLOCKFP_WIDTH}_pc3_tr"),
        quick,
        &|m: &Sequential| m.compile_blockfp(&engine),
        &mut |x| eager_model.forward_blockfp(x, &engine),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_cells() {
        let report = run(true);
        // 3 backends x (1 compile row + 2 batches x 2 modes).
        assert_eq!(report.rows.len(), 3 * (1 + 2 * 2));
        assert!(report.rows.iter().all(|r| 0 < r.best_ns && r.best_ns <= r.median_ns));
        // Every compiled row (3 backends x 2 batches) found its eager twin.
        let with_ratio = report.rows.iter().filter(|r| report.ratio(r).is_some()).count();
        assert_eq!(with_ratio, 3 * 2);
    }

    #[test]
    fn renders_the_committed_serve_line_format() {
        // Values and expected lines copied from BENCH_serve.json.
        let mut report = Report::new("daism-bench-serve/1", "bench_serve_json", false, vec![]);
        report.record(row("exact_f32", "compile", 0, 1, (888880, 944427)));
        report.record(row("exact_f32", "eager", 1, 48, (18270433, 18930208)));
        let compiled = row("exact_f32", "compiled", 1, 48, (1725505, 1749950));
        report.record(compiled.vs("mode", "eager", 0.0));
        let json = report.to_json();
        let rows: Vec<&str> = json.lines().skip(5).take(3).collect();
        assert_eq!(
            rows,
            [
                r#"    {"backend": "exact_f32", "mode": "compile", "batch": 0, "requests": 1, "best_ns": 888880, "median_ns": 944427, "ns_per_request": 888880, "requests_per_sec": 1125.0},"#,
                r#"    {"backend": "exact_f32", "mode": "eager", "batch": 1, "requests": 48, "best_ns": 18270433, "median_ns": 18930208, "ns_per_request": 380634, "requests_per_sec": 2627.2},"#,
                r#"    {"backend": "exact_f32", "mode": "compiled", "batch": 1, "requests": 48, "best_ns": 1725505, "median_ns": 1749950, "ns_per_request": 35948, "requests_per_sec": 27817.9, "speedup_vs_eager": 10.588}"#,
            ]
        );
    }
}
