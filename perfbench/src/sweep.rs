//! `fig4-sweep`: the Fig. 4 rows for one `mini_vgg` trained in exact
//! f32 — `train::accuracy` on the test set under nine backends.

use crate::ops::{bits_equal, stage_probe, StageBackend};
use crate::train::{capture_conv2_forward, CLASSES, IMG, NOISE, PRETRAIN_SEED};
use crate::util::{median, params_fingerprint, quantile, secs, Fnv, Report};
use crate::Sizes;
use daism_core::{
    ApproxFpMul, BlockFpGemm, ExactMul, MultiplierConfig, QuantizedExactMul, ScalarMul,
};
use daism_dnn::train::{self, TrainParams};
use daism_dnn::{datasets, models, Layer, Sequential, Tensor};
use daism_num::FpFormat;
use std::time::Instant;

/// Forward MACs of one `mini_vgg` sample at 16×16: conv1, conv2, dense1, dense2.
const MACS_PER_SAMPLE: u64 = 8 * 9 * 256 + 16 * 72 * 64 + 256 * 32 + 32 * 4;

enum Backend {
    Scalar(Box<dyn ScalarMul>),
    BlockFp(BlockFpGemm),
}

/// The nine Fig. 4 backends, with their metric names.
fn backends() -> Vec<(String, Backend)> {
    let mut v: Vec<(String, Backend)> = vec![
        ("exact_f32".into(), Backend::Scalar(Box::new(ExactMul))),
        (
            "quantized_exact_bf16".into(),
            Backend::Scalar(Box::new(QuantizedExactMul::new(FpFormat::BF16))),
        ),
    ];
    for config in MultiplierConfig::ALL {
        let name = format!("bf16_{}", config.to_string().to_lowercase());
        v.push((name, Backend::Scalar(Box::new(ApproxFpMul::new(config, FpFormat::BF16)))));
    }
    v.push((
        "fp32_pc3_tr".into(),
        Backend::Scalar(Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP32))),
    ));
    v.push((
        "blockfp_w9_pc3_tr".into(),
        Backend::BlockFp(BlockFpGemm::new(MultiplierConfig::PC3_TR, 9)),
    ));
    v
}

struct Setup {
    data: datasets::Dataset,
    model: Sequential,
    backends: Vec<(String, Backend)>,
}

/// Dataset generation, exact-f32 pre-training on the fixed pre-training
/// set, the seeded test set, the backends (product tables) and a warm-up
/// evaluation of each on a few samples.
fn setup(seed: u64, sizes: &Sizes) -> Setup {
    let train_set = datasets::shapes_noisy(IMG, sizes.pretrain_set, 1, PRETRAIN_SEED, NOISE);
    let mut model = models::mini_vgg(IMG, CLASSES);
    let params = TrainParams { epochs: sizes.pretrain_epochs, ..TrainParams::default() };
    train::fit(&mut model, &train_set, &ExactMul, &params);
    let data = datasets::shapes_noisy(IMG, 1, sizes.sweep_test, seed, NOISE);
    let backends = backends();
    let few = first(&data.test_x, 8);
    for (_, b) in &backends {
        std::hint::black_box(eval(&mut model, b, &few, &data.test_y[..8]));
    }
    Setup { data, model, backends }
}

fn first(x: &Tensor, n: usize) -> Tensor {
    let per = IMG * IMG;
    let n = n.min(x.shape()[0]);
    Tensor::from_vec(x.data()[..n * per].to_vec(), &[n, 1, IMG, IMG])
}

fn eval(model: &mut Sequential, b: &Backend, x: &Tensor, y: &[usize]) -> f32 {
    match b {
        Backend::Scalar(mul) => train::accuracy(model, x, y, mul.as_ref()),
        Backend::BlockFp(engine) => train::accuracy_blockfp(model, x, y, engine),
    }
}

/// One sweep: every backend's accuracy and evaluation time.
fn sweep(s: &mut Setup) -> (Vec<f32>, Vec<f64>) {
    let mut acc = Vec::new();
    let mut t = Vec::new();
    for (_, b) in &s.backends {
        let t0 = Instant::now();
        acc.push(eval(&mut s.model, b, &s.data.test_x, &s.data.test_y));
        t.push(secs(t0));
    }
    (acc, t)
}

/// Sweeps for `seconds` (at least `min_sweeps`). Returns the
/// per-backend times of every sweep and the accuracy vector, checking
/// that every sweep produced the same one.
fn sweeps(
    s: &mut Setup,
    seconds: f64,
    min_sweeps: usize,
    rep: &mut Report,
) -> (Vec<Vec<f64>>, Vec<f32>) {
    let mut times = Vec::new();
    let mut first_acc: Option<Vec<f32>> = None;
    let mut same = true;
    let start = Instant::now();
    while times.len() < min_sweeps || secs(start) < seconds {
        let (acc, t) = sweep(s);
        times.push(t);
        match &first_acc {
            None => first_acc = Some(acc),
            Some(a) => same &= bits_equal(a, &acc),
        }
    }
    rep.attempted += (times.len() * s.backends.len()) as u64;
    rep.check("sweep: every sweep gives the same accuracy vector", same);
    (times, first_acc.expect("at least one sweep"))
}

/// Checks shared by both modes: each backend's compiled chunk equals
/// its eager forward on the first 64 test samples, bit for bit.
fn check_compiled_vs_eager(s: &mut Setup, rep: &mut Report) {
    let chunk = first(&s.data.test_x, 64);
    let mut ok = true;
    for (name, b) in &s.backends {
        let same = match b {
            Backend::Scalar(mul) => {
                let compiled = s.model.compile(mul.as_ref()).forward(&chunk);
                bits_equal(compiled.data(), s.model.forward(&chunk, mul.as_ref(), false).data())
            }
            Backend::BlockFp(engine) => {
                let compiled = s.model.compile_blockfp(engine).forward(&chunk);
                bits_equal(compiled.data(), s.model.forward_blockfp(&chunk, engine).data())
            }
        };
        if !same {
            rep.note(format!("sweep: {name}: compiled chunk differs from the eager forward"));
        }
        ok &= same;
    }
    rep.check("sweep: each backend's compiled chunk == its eager forward, bit for bit", ok);
}

fn record(rep: &mut Report, s: &Setup, acc: &[f32]) {
    let mut fp = Fnv::new();
    fp.floats(acc);
    let row: Vec<String> =
        s.backends.iter().zip(acc).map(|((n, _), a)| format!("{n} {:.4}", a)).collect();
    rep.note(format!("sweep: accuracy {}", row.join(", ")));
    rep.check("sweep: exact-f32 accuracy above chance", acc[0] * CLASSES as f32 > 1.0);
    rep.fingerprint("sweep: pre-trained parameters", params_fingerprint(&s.model));
    rep.fingerprint("sweep: accuracy vector", fp.finish());
}

pub fn plain(seed: u64, seconds: f64, sizes: &Sizes) -> Report {
    let mut rep = Report::default();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..sizes.setup_reps {
        let t = Instant::now();
        let s = setup(seed, sizes);
        times.push(secs(t));
        last = Some(s);
    }
    rep.metric("setup_s", median(&times), "s", times.len());
    let mut s = last.expect("at least one set-up");
    let (runs, acc) = sweeps(&mut s, seconds, sizes.min_sweeps, &mut rep);
    let sweep_s: Vec<f64> = runs.iter().map(|t| t.iter().sum()).collect();
    let n = sweep_s.len();
    let per_sweep = (s.backends.len() * s.data.test_len()) as f64;
    let rates: Vec<f64> = sweep_s.iter().map(|t| per_sweep / t).collect();
    rep.metric("samples_per_s", median(&rates), "1/s", n);
    rep.metric("latency_p50_ms", 1e3 * median(&sweep_s), "ms", n);
    rep.metric("latency_p90_ms", 1e3 * quantile(&sweep_s, 0.9), "ms", n);
    rep.note(format!(
        "sweep_s = {:.4} s, p90 {:.4} s ({n} sweeps of {} backends x {} test samples)",
        median(&sweep_s),
        quantile(&sweep_s, 0.9),
        s.backends.len(),
        s.data.test_len()
    ));
    check_compiled_vs_eager(&mut s, &mut rep);
    record(&mut rep, &s, &acc);
    rep
}

pub fn traced(seed: u64, seconds: f64, sizes: &Sizes) -> Report {
    let mut rep = Report::default();
    let mut s = setup(seed, sizes);
    // Untraced baseline: whole sweeps with no per-backend spans.
    let plain_sweeps: Vec<f64> = (0..2)
        .map(|_| {
            let t = Instant::now();
            for (_, b) in &s.backends {
                std::hint::black_box(eval(&mut s.model, b, &s.data.test_x, &s.data.test_y));
            }
            secs(t)
        })
        .collect();

    let (runs, acc) = sweeps(&mut s, seconds, 2, &mut rep);
    let n = runs.len();
    let macs = MACS_PER_SAMPLE as f64 * s.data.test_len() as f64;
    for (i, (name, _)) in s.backends.iter().enumerate() {
        let v: Vec<f64> = runs.iter().map(|r| r[i]).collect();
        rep.metric(format!("sweep.{name}.s"), median(&v), "s", n);
        rep.metric(format!("sweep.{name}.ns_per_mac"), median(&v) * 1e9 / macs, "ns", n);
    }
    let sweep_s: Vec<f64> = runs.iter().map(|t| t.iter().sum()).collect();
    rep.metric("trace.overhead_frac", median(&sweep_s) / median(&plain_sweeps) - 1.0, "ratio", n);
    check_compiled_vs_eager(&mut s, &mut rep);
    record(&mut rep, &s, &acc);

    let g = capture_conv2_forward(&s.model, &s.data.test_x);
    stage_probe(
        &mut rep,
        "stage.fp32_pc3_tr",
        &g,
        sizes.stage_cols,
        &StageBackend::Approx(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP32)),
        sizes.replay_reps,
    );
    stage_probe(
        &mut rep,
        "stage.quantized_exact_bf16",
        &g,
        sizes.stage_cols,
        &StageBackend::QuantizedExact(FpFormat::BF16),
        sizes.replay_reps,
    );
    rep
}
