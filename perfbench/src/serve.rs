//! `serve-blockfp`: a closed loop with one client. Each request is one
//! test sample drawn by the seed, served by `submit` then `flush` on an
//! `InferenceSession` over a `tiny_resnet` trained in exact f32 and
//! compiled with `compile_blockfp(&BlockFpGemm::new(PC3_tr, 9))`.

use crate::ops::{self, arch_rollup, im2col, Shape};
use crate::train::{CLASSES, IMG, NOISE, PRETRAIN_SEED};
use crate::util::{median, quantile, secs, zero_frac, Fnv, Report, SplitMix};
use crate::Sizes;
use daism_core::{BlockFpGemm, ExactMul, MultiplierConfig};
use daism_dnn::train::{self, TrainParams};
use daism_dnn::{
    datasets, models, CompiledModel, Conv2d, Dense, Flatten, InferenceSession, Layer, MaxPool2d,
    ReLU, Residual, Sequential, Tensor,
};
use std::time::Instant;

/// Requests per throughput window.
const WINDOW: usize = 500;
/// Requests whose logits form the fingerprint.
const FP_REQUESTS: usize = 64;
/// Requests checked against the eager BlockFp forward (one in this many,
/// at a seed-chosen phase).
const CHECK_EVERY: usize = 64;

fn engine() -> BlockFpGemm {
    BlockFpGemm::new(MultiplierConfig::PC3_TR, 9)
}

struct Setup {
    model: Sequential,
    requests: Vec<Tensor>,
    labels: Vec<usize>,
}

/// Dataset generation, exact-f32 pre-training of `tiny_resnet` on the
/// fixed pre-training set, and the seeded request pool.
fn setup(seed: u64, sizes: &Sizes) -> Setup {
    let train_set = datasets::shapes_noisy(IMG, sizes.pretrain_set, 1, PRETRAIN_SEED, NOISE);
    let mut model = models::tiny_resnet(IMG, CLASSES);
    let params = TrainParams { epochs: sizes.pretrain_epochs, lr: 0.015, ..TrainParams::default() };
    train::fit(&mut model, &train_set, &ExactMul, &params);
    let data = datasets::shapes_noisy(IMG, 1, sizes.serve_pool, seed, NOISE);
    let per = IMG * IMG;
    let requests = (0..data.test_len())
        .map(|i| {
            Tensor::from_vec(data.test_x.data()[i * per..(i + 1) * per].to_vec(), &[1, 1, IMG, IMG])
        })
        .collect();
    Setup { model, requests, labels: data.test_y }
}

/// The seeded request order: indices into the request pool.
fn request_order(seed: u64, pool: usize) -> impl Iterator<Item = usize> {
    let mut rng = SplitMix::new(seed);
    std::iter::repeat_with(move || rng.below(pool))
}

pub fn plain(seed: u64, seconds: f64, sizes: &Sizes) -> Report {
    let mut rep = Report::default();
    let engine = engine();
    let mut times = Vec::new();
    let mut s = None;
    for _ in 0..sizes.setup_reps {
        let t = Instant::now();
        let st = setup(seed, sizes);
        let compiled = st.model.compile_blockfp(&engine);
        let mut session = InferenceSession::new(&compiled);
        for x in st.requests.iter().take(8) {
            session.submit(x.clone());
            session.flush();
        }
        times.push(secs(t));
        s = Some(st);
    }
    rep.metric("setup_s", median(&times), "s", times.len());
    let mut st = s.expect("at least one set-up");
    let compiled = st.model.compile_blockfp(&engine);
    let mut session = InferenceSession::new(&compiled);

    let check_phase = (seed as usize) % CHECK_EVERY;
    let mut lat = Vec::new();
    let mut fp = Fnv::new();
    let mut checked = Vec::new();
    let mut hits = 0usize;
    let mut rates = Vec::new();
    let start = Instant::now();
    let mut window = Instant::now();
    for (i, idx) in request_order(seed, st.requests.len()).enumerate() {
        if i > 0 && i % WINDOW == 0 {
            rates.push(WINDOW as f64 / secs(window));
            window = Instant::now();
        }
        if i >= sizes.min_requests && secs(start) >= seconds {
            break;
        }
        let x = st.requests[idx].clone();
        let t = Instant::now();
        session.submit(x);
        let out = session.flush();
        lat.push(secs(t));
        let logits = &out[0];
        hits += usize::from(logits.argmax_rows()[0] == st.labels[idx]);
        if i < FP_REQUESTS {
            fp.floats(logits.data());
        }
        if i % CHECK_EVERY == check_phase {
            checked.push((idx, out.into_iter().next().expect("one output")));
        }
    }
    let n = lat.len();
    if rates.is_empty() {
        rates.push(n as f64 / secs(start));
    }
    let rate = median(&rates);
    rep.attempted += n as u64;
    rep.metric("samples_per_s", rate, "1/s", rates.len());
    rep.metric("latency_p50_ms", 1e3 * median(&lat), "ms", n);
    rep.metric("latency_p90_ms", 1e3 * quantile(&lat, 0.9), "ms", n);
    rep.note(format!(
        "serve_samples_per_s = {rate:.2} 1/s (median of {} windows of {WINDOW} requests); serve_p50_us = {:.2} us; serve_p90_us = {:.2} us ({n} requests); diagnostic serve_p99_us = {:.2} us ({} requests beyond it)",
        rates.len(),
        1e6 * median(&lat),
        1e6 * quantile(&lat, 0.9),
        1e6 * quantile(&lat, 0.99),
        n / 100
    ));
    rep.note(format!("serve: served accuracy {:.4} over {n} requests", hits as f64 / n as f64));
    drop(session);
    drop(compiled);

    let eager_ok = checked.iter().all(|(idx, served)| {
        let eager = st.model.forward_blockfp(&st.requests[*idx], &engine);
        ops::bits_equal(eager.data(), served.data())
    });
    rep.check(
        format!(
            "serve: {} seed-chosen requests: compiled == eager forward_blockfp, bit for bit",
            checked.len()
        ),
        eager_ok && !checked.is_empty(),
    );
    rep.check("serve: served accuracy above chance", hits * CLASSES > n);
    rep.fingerprint("serve: pre-trained parameters", crate::util::params_fingerprint(&st.model));
    rep.fingerprint("serve: logits of the first requests", fp.finish());
    rep
}

/// One serving unit of the traced chain: a single-layer (or single
/// residual block) model compiled on its own.
struct Unit {
    name: &'static str,
    model: Sequential,
}

fn block(seed: u64) -> Residual {
    Residual::new(
        Sequential::new()
            .push(Conv2d::new(8, 8, 3, 1, 1, seed))
            .push(ReLU::new())
            .push(Conv2d::new(8, 8, 3, 1, 1, seed + 1)),
    )
}

/// `models::tiny_resnet` cut into units, carrying the trained weights.
fn units(trained: &Sequential) -> Vec<Unit> {
    let after = IMG / 4;
    let unit = |name, model| Unit { name, model };
    let mut units = vec![
        unit("conv1", Sequential::new().push(Conv2d::new(1, 8, 3, 1, 1, 301))),
        unit("other", Sequential::new().push(ReLU::new())),
        unit("res1", Sequential::new().push(block(302))),
        unit("other", Sequential::new().push(ReLU::new())),
        unit("other", Sequential::new().push(MaxPool2d::new())),
        unit("res2", Sequential::new().push(block(304))),
        unit("other", Sequential::new().push(ReLU::new())),
        unit("other", Sequential::new().push(MaxPool2d::new())),
        unit("other", Sequential::new().push(Flatten::new())),
        unit("dense", Sequential::new().push(Dense::new(8 * after * after, CLASSES, 306))),
    ];
    // Hand the trained parameters out to the units, in model order.
    let from = trained.params();
    let mut it = from.into_iter();
    for u in &mut units {
        for p in u.model.params_mut() {
            let src = it.next().expect("enough trained parameters");
            assert_eq!(p.value.shape(), src.value.shape(), "unit parameter shape mismatch");
            p.value.data_mut().copy_from_slice(src.value.data());
        }
    }
    assert!(it.next().is_none(), "every trained parameter handed out");
    units
}

/// `(macs, bytes)` of one request through a GEMM unit, from its
/// `(m, k, n)` GEMM shapes; also the arch shapes.
const UNIT_GEMMS: [(&str, &[Shape]); 4] = [
    ("conv1", &[(8, 9, IMG * IMG)]),
    ("res1", &[(8, 72, IMG * IMG), (8, 72, IMG * IMG)]),
    ("res2", &[(8, 72, IMG * IMG / 4), (8, 72, IMG * IMG / 4)]),
    ("dense", &[(1, 8 * IMG * IMG / 16, CLASSES)]),
];

pub fn traced(seed: u64, seconds: f64, sizes: &Sizes) -> Report {
    let mut rep = Report::default();
    let engine = engine();
    let st = setup(seed, sizes);
    let pool = st.requests.len();

    let mut compile_t = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let c = st.model.compile_blockfp(&engine);
        compile_t.push(secs(t));
        drop(c);
    }
    let compiled = st.model.compile_blockfp(&engine);

    // Untraced baseline: the same requests through submit + flush and
    // through the bare compiled forward.
    let n_base = sizes.min_requests.max(FP_REQUESTS);
    let (mut req_t, mut fwd_t) = (Vec::new(), Vec::new());
    let mut base_fp = Fnv::new();
    let mut session = InferenceSession::new(&compiled);
    for (i, idx) in request_order(seed, pool).take(n_base).enumerate() {
        let x = st.requests[idx].clone();
        let t = Instant::now();
        session.submit(x);
        let out = session.flush();
        req_t.push(secs(t));
        if i < FP_REQUESTS {
            base_fp.floats(out[0].data());
        }
        let t = Instant::now();
        let y = compiled.forward(&st.requests[idx]);
        fwd_t.push(secs(t));
        std::hint::black_box(y);
    }

    // The traced chain: each unit compiled on its own and timed.
    let us = units(&st.model);
    let compiled_units: Vec<(&'static str, CompiledModel<'_>)> =
        us.iter().map(|u| (u.name, u.model.compile_blockfp(&engine))).collect();
    let names = ["conv1", "res1", "res2", "dense", "other"];
    let mut per_unit: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut chain_t = Vec::new();
    let mut fp = Fnv::new();
    // Per-request unit inputs and outputs for the first few requests.
    let mut caps: Vec<Vec<(Vec<f32>, Vec<f32>)>> = vec![Vec::new(); names.len()];
    let start = Instant::now();
    for (i, idx) in request_order(seed, pool).enumerate() {
        if i >= sizes.min_requests.max(FP_REQUESTS) && secs(start) >= seconds {
            break;
        }
        let mut acc = [0.0f64; 5];
        let mut y = st.requests[idx].clone();
        for (name, unit) in &compiled_units {
            let slot = names.iter().position(|n| n == name).expect("known unit");
            let t = Instant::now();
            let out = unit.forward(&y);
            acc[slot] += secs(t);
            if i < sizes.replay_requests && slot < 4 {
                caps[slot].push((y.data().to_vec(), out.data().to_vec()));
            }
            y = out;
        }
        for (v, a) in per_unit.iter_mut().zip(acc) {
            v.push(a);
        }
        chain_t.push(acc.iter().sum());
        if i < FP_REQUESTS {
            fp.floats(y.data());
        }
    }
    let n = chain_t.len();
    rep.attempted += n as u64;
    let fp = fp.finish();
    rep.check(
        "serve: traced unit chain fingerprint == plain session fingerprint",
        fp == base_fp.finish(),
    );
    rep.fingerprint("serve: pre-trained parameters", crate::util::params_fingerprint(&st.model));
    rep.fingerprint("serve: logits of the first requests", fp);

    let mut unit_sum = 0.0;
    for (name, v) in names.iter().zip(&per_unit) {
        unit_sum += median(v);
        rep.metric(format!("session.{name}.us"), 1e6 * median(v), "us", n);
    }
    let req_p50 = median(&req_t);
    rep.metric("session.flush_overhead_us", 1e6 * (req_p50 - median(&fwd_t)), "us", req_t.len());
    rep.metric("session.compile_ms", 1e3 * median(&compile_t), "ms", compile_t.len());
    rep.metric("session.coverage", unit_sum / req_p50, "ratio", n);
    rep.metric("trace.overhead_frac", median(&chain_t) / median(&fwd_t) - 1.0, "ratio", n);

    // Operand statistics. The activation operand is the lowering (conv
    // units) or the input (dense).
    let mut shapes = Vec::new();
    let mut res_inner_zero = [0.0f64; 2];
    let trained = st.model.params();
    for (ri, (name, first, hw)) in
        [("res1", 2usize, (IMG, IMG)), ("res2", 6, (IMG / 2, IMG / 2))].into_iter().enumerate()
    {
        let params: [Vec<f32>; 4] =
            std::array::from_fn(|j| trained[first + j].value.data().to_vec());
        let slot = names.iter().position(|n| *n == name).expect("known unit");
        let replay = ops::replay_blockfp_residual(&engine, &params, 8, &caps[slot], hw);
        rep.check(
            format!(
                "serve: replayed {name} == served unit output, prepared == BlockFpGemm::reference"
            ),
            replay.ok,
        );
        res_inner_zero[ri] = replay.inner_zero_frac;
        if name == "res1" {
            ops::time_blockfp_residual(
                &mut rep,
                "gemm.serve_res1",
                &engine,
                &params,
                8,
                &replay,
                sizes.replay_reps,
            );
        }
    }
    for (slot, (name, gemms)) in UNIT_GEMMS.iter().enumerate() {
        let macs: usize = gemms.iter().map(|(m, k, n)| m * k * n).sum();
        let bytes: usize = gemms.iter().map(|(m, k, n)| 4 * (m * k + k * n + m * n)).sum();
        shapes.extend_from_slice(gemms);
        let zf: Vec<f64> = caps[slot]
            .iter()
            .map(|(x, _)| match *name {
                "conv1" => zero_frac(&im2col(x, 1, 1, IMG, IMG)),
                "res1" => (zero_frac(&im2col(x, 1, 8, IMG, IMG)) + res_inner_zero[0]) / 2.0,
                "res2" => (zero_frac(&im2col(x, 1, 8, IMG / 2, IMG / 2)) + res_inner_zero[1]) / 2.0,
                _ => zero_frac(x),
            })
            .collect();
        rep.metric(format!("session.{name}.macs"), macs as f64, "count", 1);
        rep.metric(format!("session.{name}.bytes"), bytes as f64, "bytes", 1);
        rep.metric(
            format!("session.{name}.act_zero_frac"),
            crate::util::mean(&zf),
            "ratio",
            zf.len(),
        );
    }
    arch_rollup(&mut rep, "arch.serve", &shapes);
    rep
}
