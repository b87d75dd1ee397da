//! `train-bf16`: `train::fit`'s loop on `models::mini_vgg` over
//! `datasets::shapes_noisy` (16×16), with `ApproxFpMul(PC3_tr, bf16)`
//! in the forward and the backward passes — the paper's training claim.

use crate::ops::{
    self, arch_rollup, bits_equal, conv_step_gemms, im2col, stage_probe, Gemm, StageBackend,
};
use crate::trace::{Recorder, Timed};
use crate::util::{median, params_fingerprint, quantile, secs, zero_frac, Report};
use crate::Sizes;
use daism_core::{ApproxFpMul, MultiplierConfig};
use daism_dnn::train::{self, TrainParams};
use daism_dnn::{
    datasets, models, Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU, Sequential, Tensor,
};
use daism_num::FpFormat;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

pub const IMG: usize = 16;
pub const CLASSES: usize = 4;
pub const NOISE: f32 = 0.5;
/// Seed of the exact-f32 pre-training set behind the serve-blockfp and
/// fig4-sweep models. Those models are fixed artefacts of set-up; the
/// run's `--seed` draws the inputs they are evaluated on.
pub const PRETRAIN_SEED: u64 = 2024;
/// The GEMM layers of `mini_vgg`, in model order.
const GEMM_UNITS: [&str; 4] = ["conv1", "conv2", "dense1", "dense2"];
/// Every span unit of the traced model.
const UNITS: [&str; 5] = ["conv1", "conv2", "dense1", "dense2", "other"];

fn backend() -> ApproxFpMul {
    ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)
}

/// `fit`'s defaults with a gentler step: at the default `lr = 0.05`
/// this task diverges in the second epoch for some seeds even in exact
/// f32, so a falling loss would not say anything about the multiplier.
fn params() -> TrainParams {
    TrainParams { epochs: 1, lr: 0.02, ..TrainParams::default() }
}

/// The mini-batches `fit` walks, in its order.
struct Batches {
    data: datasets::Dataset,
    batches: Vec<(Tensor, Vec<usize>)>,
}

fn setup(seed: u64, sizes: &Sizes) -> Batches {
    // The generator always makes a test split; this workload never reads it.
    let data = datasets::shapes_noisy(IMG, sizes.train, 1, seed, NOISE);
    let n = data.train_len();
    let per = IMG * IMG;
    let batch = params().batch;
    let mut batches = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + batch).min(n);
        let x = Tensor::from_vec(
            data.train_x.data()[start * per..end * per].to_vec(),
            &[end - start, 1, IMG, IMG],
        );
        batches.push((x, data.train_y[start..end].to_vec()));
        start = end;
    }
    Batches { data, batches }
}

/// Epochs per training cycle: each cycle trains a freshly initialised
/// model for this many epochs, so every cycle does the same work and a
/// run's step mix does not drift as the model converges.
const CYCLE_EPOCHS: usize = 2;

/// Step-loop results shared by the plain and traced runs.
#[derive(Default)]
struct Loop {
    step_s: Vec<f64>,
    phase_s: [Vec<f64>; 4],
    /// Mean loss of each epoch, per cycle.
    cycle_loss: Vec<Vec<f32>>,
    /// Parameters after the first epoch, per cycle.
    epoch1_fingerprints: Vec<u64>,
    /// Samples trained per second of wall time, per cycle.
    cycle_rate: Vec<f64>,
}

/// `fit`'s inner loop — forward, `softmax_cross_entropy`, backward,
/// `sgd_step` per mini-batch, batches in order — run in cycles of
/// [`CYCLE_EPOCHS`] epochs on a fresh model from `make`, until `seconds`
/// have passed and at least `min_steps` steps are done. With `rec`, each
/// phase is timed and the recorder's steps are opened and closed around
/// it; steps of the first epoch listed in `capture_steps` are captured.
fn step_loop(
    make: &mut dyn FnMut() -> Sequential,
    b: &Batches,
    seconds: f64,
    min_steps: usize,
    rec: Option<&Rc<RefCell<Recorder>>>,
    capture_steps: &[usize],
) -> Loop {
    let mul = backend();
    let p = params();
    let mut out = Loop::default();
    let start = Instant::now();
    while out.cycle_loss.is_empty() || out.step_s.len() < min_steps || secs(start) < seconds {
        let first_cycle = out.cycle_loss.is_empty();
        let cycle_start = Instant::now();
        let mut samples = 0usize;
        let mut model = make();
        let mut losses = Vec::new();
        for epoch in 0..CYCLE_EPOCHS {
            let mut loss_sum = 0.0f32;
            for (step, (x, y)) in b.batches.iter().enumerate() {
                if let Some(r) = rec {
                    let capture = first_cycle && epoch == 0 && capture_steps.contains(&step);
                    r.borrow_mut().begin_step(capture);
                }
                let t0 = Instant::now();
                let logits = model.forward(x, &mul, true);
                let t1 = Instant::now();
                let (loss, grad) = train::softmax_cross_entropy(&logits, y);
                let t2 = Instant::now();
                model.backward(&grad, &mul);
                let t3 = Instant::now();
                train::sgd_step(&mut model, p.lr, p.momentum, p.weight_decay);
                let t4 = Instant::now();
                out.step_s.push((t4 - t0).as_secs_f64());
                if let Some(r) = rec {
                    r.borrow_mut().end_step();
                    for (i, (a, z)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)].iter().enumerate() {
                        out.phase_s[i].push((*z - *a).as_secs_f64());
                    }
                }
                loss_sum += loss;
                samples += y.len();
            }
            losses.push(loss_sum / b.batches.len() as f32);
            if epoch == 0 {
                out.epoch1_fingerprints.push(params_fingerprint(&model));
            }
        }
        out.cycle_loss.push(losses);
        out.cycle_rate.push(samples as f64 / secs(cycle_start));
    }
    out
}

/// Set-up, repeated `sizes.setup_reps` times in a plain run: dataset
/// generation and, as the warm-up, `train::fit` for one epoch on a fresh
/// model — the reference the step loop's first epoch must reproduce.
/// Returns the batches and the reference fingerprint.
fn setup_with_reference(seed: u64, sizes: &Sizes) -> (Batches, u64) {
    let b = setup(seed, sizes);
    let mut reference = models::mini_vgg(IMG, CLASSES);
    train::fit(&mut reference, &b.data, &backend(), &params());
    (b, params_fingerprint(&reference))
}

/// Checks shared by both modes: per-epoch loss finite and falling within
/// every cycle, and every cycle's first epoch equal to `train::fit` for
/// one epoch, bit for bit.
fn check_loop(rep: &mut Report, lp: &Loop, reference: u64) {
    let finite = lp.cycle_loss.iter().flatten().all(|l| l.is_finite());
    let falls = lp.cycle_loss.iter().all(|c| c.last() < c.first());
    rep.check("train: per-epoch loss is finite", finite);
    rep.check("train: per-epoch loss falls within every cycle", falls);
    rep.check(
        "train: first epoch of every cycle == train::fit(epochs = 1), bit for bit",
        lp.epoch1_fingerprints.iter().all(|f| *f == reference),
    );
    let c = &lp.cycle_loss[0];
    rep.note(format!(
        "train: {} cycles of {CYCLE_EPOCHS} epochs; epoch losses of a cycle {:?}",
        lp.cycle_loss.len(),
        c
    ));
}

pub fn plain(seed: u64, seconds: f64, sizes: &Sizes) -> Report {
    let mut rep = Report::default();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..sizes.setup_reps {
        let t = Instant::now();
        last = Some(setup_with_reference(seed, sizes));
        times.push(secs(t));
    }
    rep.metric("setup_s", median(&times), "s", times.len());
    let (b, reference) = last.expect("at least one set-up");
    let lp =
        step_loop(&mut || models::mini_vgg(IMG, CLASSES), &b, seconds, sizes.min_steps, None, &[]);
    rep.attempted += lp.step_s.len() as u64;
    let n = lp.step_s.len();
    let rate = median(&lp.cycle_rate);
    rep.metric("samples_per_s", rate, "1/s", lp.cycle_rate.len());
    rep.metric("latency_p50_ms", 1e3 * median(&lp.step_s), "ms", n);
    rep.metric("latency_p90_ms", 1e3 * quantile(&lp.step_s, 0.9), "ms", n);
    rep.note(format!(
        "train_samples_per_s = {rate:.2} 1/s (median of {} cycles); train_step_ms_p50 = {:.3} ms; train_step_ms_p90 = {:.3} ms ({n} steps of batch {})",
        lp.cycle_rate.len(),
        1e3 * median(&lp.step_s),
        1e3 * quantile(&lp.step_s, 0.9),
        params().batch
    ));
    check_loop(&mut rep, &lp, reference);
    rep.fingerprint("train: parameters after epoch 1", reference);
    rep
}

/// `models::mini_vgg` rebuilt from the public layer constructors with
/// the same seeds, every layer wrapped in a span.
pub fn traced_mini_vgg(rec: &Rc<RefCell<Recorder>>) -> Sequential {
    let after = IMG / 4;
    Sequential::new()
        .push(Timed::new("conv1", Conv2d::new(1, 8, 3, 1, 1, 201), rec, true))
        .push(Timed::new("other", ReLU::new(), rec, false))
        .push(Timed::new("other", MaxPool2d::new(), rec, false))
        .push(Timed::new("conv2", Conv2d::new(8, 16, 3, 1, 1, 202), rec, true))
        .push(Timed::new("other", ReLU::new(), rec, false))
        .push(Timed::new("other", MaxPool2d::new(), rec, false))
        .push(Timed::new("other", Flatten::new(), rec, false))
        .push(Timed::new("dense1", Dense::new(16 * after * after, 32, 203), rec, true))
        .push(Timed::new("other", ReLU::new(), rec, false))
        .push(Timed::new("dense2", Dense::new(32, CLASSES, 204), rec, true))
}

/// `(unit, out_ch)` of the two conv layers.
const CONVS: [(&str, usize); 2] = [("conv1", 8), ("conv2", 16)];

/// The traced section: one plain cycle for the overhead baseline, the
/// traced loop for `seconds`, then the captured operands replayed.
pub fn traced(seed: u64, seconds: f64, sizes: &Sizes) -> Report {
    let mut rep = Report::default();
    let (b, reference) = setup_with_reference(seed, sizes);
    let steps_per_epoch = b.batches.len();

    // Untraced baseline: one cycle of the plain loop.
    let base = step_loop(&mut || models::mini_vgg(IMG, CLASSES), &b, 0.0, 0, None, &[]);

    let rec = Recorder::shared();
    rep.check(
        "train: traced model initialises exactly like models::mini_vgg",
        params_fingerprint(&traced_mini_vgg(&rec))
            == params_fingerprint(&models::mini_vgg(IMG, CLASSES)),
    );
    let capture_steps: Vec<usize> = (0..steps_per_epoch).step_by(8).collect();
    let lp = step_loop(&mut || traced_mini_vgg(&rec), &b, seconds, 0, Some(&rec), &capture_steps);
    rep.attempted += lp.step_s.len() as u64;
    check_loop(&mut rep, &lp, reference);
    rep.check(
        "train: traced fingerprint == plain fingerprint",
        lp.epoch1_fingerprints[0] == base.epoch1_fingerprints[0],
    );
    rep.fingerprint("train: parameters after epoch 1", lp.epoch1_fingerprints[0]);

    let n = lp.step_s.len();
    for (i, phase) in ["forward", "loss", "backward", "sgd"].iter().enumerate() {
        rep.metric(format!("train.{phase}_ms"), 1e3 * median(&lp.phase_s[i]), "ms", n);
    }
    let r = rec.borrow();
    let mut layer_sum = 0.0;
    for unit in UNITS {
        let f = median(&r.fwd[unit]);
        let g = median(&r.bwd[unit]);
        layer_sum += f + g;
        rep.metric(format!("layers.{unit}.fwd_ms"), 1e3 * f, "ms", n);
        rep.metric(format!("layers.{unit}.bwd_ms"), 1e3 * g, "ms", n);
    }
    let step_p50 = median(&lp.step_s);
    let attributed = layer_sum + median(&lp.phase_s[1]) + median(&lp.phase_s[3]);
    rep.metric("layers.coverage", attributed / step_p50, "ratio", n);
    rep.metric("trace.overhead_frac", step_p50 / median(&base.step_s) - 1.0, "ratio", n);

    // Operand statistics and replays from the captured steps.
    let mul = backend();
    let mut shapes = Vec::new();
    for unit in GEMM_UNITS {
        let mut zero = Vec::new();
        let (mut macs, mut bytes) = (0u64, 0u64);
        for (ci, cap) in r.captures.iter().enumerate() {
            let c = &cap[unit];
            let x = c.x.as_ref().expect("captured input");
            let grad = c.grad.as_ref().expect("captured gradient");
            let gemms = gemms_of(unit, x, &c.w, grad);
            if ci == 0 {
                macs = gemms.iter().map(Gemm::macs).sum();
                bytes = gemms.iter().map(Gemm::bytes).sum();
                shapes.extend(gemms.iter().map(|g| (g.m, g.k, g.n)));
            }
            // The activation operand: B of the conv forward GEMM (the
            // lowering), A of the dense forward GEMM (the input).
            zero.push(if unit.starts_with("conv") {
                zero_frac(&gemms[0].b)
            } else {
                zero_frac(&gemms[0].a)
            });
        }
        rep.metric(format!("layers.{unit}.macs"), macs as f64, "count", 1);
        rep.metric(format!("layers.{unit}.bytes"), bytes as f64, "bytes", 1);
        rep.metric(
            format!("layers.{unit}.act_zero_frac"),
            crate::util::mean(&zero),
            "ratio",
            zero.len(),
        );
    }

    // Replay validation on every captured step: forward output plus bias
    // and the weight gradient of both convs, bit for bit.
    let mut replay_ok = true;
    for cap in &r.captures {
        for (unit, out_ch) in CONVS {
            let c = &cap[unit];
            let x = c.x.as_ref().expect("captured input");
            let gemms = gemms_of(unit, x, &c.w, c.grad.as_ref().expect("captured gradient"));
            let fwd =
                gemms[0].run(|a, bb, cc, m, k, nn| daism_core::gemm(&mul, a, bb, cc, m, k, nn));
            let p = x.shape()[2] * x.shape()[3];
            let y = ops::unstage(&fwd, &c.bias, x.shape()[0], out_ch, p);
            replay_ok &= bits_equal(&y, c.y.as_ref().expect("captured output").data());
            let gw =
                gemms[1].run(|a, bb, cc, m, k, nn| daism_core::gemm(&mul, a, bb, cc, m, k, nn));
            replay_ok &= bits_equal(&gw, &c.grad_w);
        }
    }
    rep.check("train: replayed conv GEMMs == layer forward output and weight gradient", replay_ok);

    let last = r.captures.last().expect("a captured step");
    let c2 = &last["conv2"];
    let x2 = c2.x.as_ref().expect("captured input");
    let gemms = gemms_of("conv2", x2, &c2.w, c2.grad.as_ref().expect("captured gradient"));
    ops::replay_eager(&mut rep, "gemm.train_conv2", &gemms, &mul, sizes.replay_reps);
    stage_probe(
        &mut rep,
        "stage.bf16_pc3_tr",
        &gemms[0],
        sizes.stage_cols,
        &StageBackend::Approx(mul),
        sizes.replay_reps,
    );
    arch_rollup(&mut rep, "arch.train", &shapes);
    rep
}

/// The training-step GEMMs of one GEMM layer from its captured operands.
fn gemms_of(unit: &str, x: &Tensor, w: &[f32], grad: &Tensor) -> Vec<Gemm> {
    if let Some((_, out_ch)) = CONVS.iter().find(|(u, _)| *u == unit) {
        return conv_step_gemms(x.data(), x.shape(), w, *out_ch, grad.data()).into();
    }
    // Dense: y = x·Wᵀ, grad_w = gradᵀ·x, grad_x = grad·W.
    let (batch, inf) = (x.shape()[0], x.shape()[1]);
    let outf = w.len() / inf;
    vec![
        Gemm { m: batch, k: inf, n: outf, a: x.data().to_vec(), b: ops::transpose(w, outf, inf) },
        Gemm {
            m: outf,
            k: batch,
            n: inf,
            a: ops::transpose(grad.data(), batch, outf),
            b: x.data().to_vec(),
        },
        Gemm { m: batch, k: outf, n: inf, a: grad.data().to_vec(), b: w.to_vec() },
    ]
}

/// The conv2 forward operands of the exact-f32 trained model on the
/// first 64 test samples, captured through a traced copy of the model —
/// the real data the fig4-sweep stage probes run on.
pub fn capture_conv2_forward(trained: &Sequential, test_x: &Tensor) -> Gemm {
    let rec = Recorder::shared();
    let mut copy = traced_mini_vgg(&rec);
    crate::trace::copy_params(&mut copy, trained);
    let n = test_x.shape()[0].min(64);
    let per = IMG * IMG;
    let chunk = Tensor::from_vec(test_x.data()[..n * per].to_vec(), &[n, 1, IMG, IMG]);
    rec.borrow_mut().begin_step(true);
    copy.forward(&chunk, &daism_core::ExactMul, false);
    rec.borrow_mut().end_step();
    let r = rec.borrow();
    let c = &r.captures[0]["conv2"];
    let x = c.x.as_ref().expect("captured input");
    let (batch, ch, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    Gemm {
        m: 16,
        k: ch * 9,
        n: batch * h * w,
        a: c.w.clone(),
        b: im2col(x.data(), batch, ch, h, w),
    }
}
