//! The benchmark's own copies of the conv lowering, and the replays
//! built on them: captured layer operands run again through the public
//! GEMM entry points (eager, reference, prepared, BlockFp) and through
//! the per-scalar stages of the multiply pipeline, each timed against a
//! baseline from the same run. Also the modelled-hardware roll-up.

use crate::util::{median, timed, zero_frac, Report};
use daism_arch::{simulate_tiled, DaismConfig, GemmShape};
use daism_core::{
    gemm, gemm_reference, ApproxFpMul, BlockFpGemm, ExactMul, QuantizedExactMul, ScalarMul,
};
use daism_num::{FpClass, FpFormat, FpScalar};
use std::hint::black_box;

/// Kernel size, stride and padding of every conv layer in the models
/// the workloads run (3×3, stride 1, padding 1).
const K: usize = 3;

/// 3×3 / stride-1 / pad-1 im2col of `x` (`[batch, ch, h, w]`) into the
/// `[ch·9, batch·h·w]` column matrix the conv GEMMs consume: row
/// `(c·3 + ki)·3 + kj`, column `n·h·w + i·w + j`, padding left zero.
pub fn im2col(x: &[f32], batch: usize, ch: usize, h: usize, w: usize) -> Vec<f32> {
    let p = h * w;
    let bp = batch * p;
    let mut cols = vec![0.0f32; ch * K * K * bp];
    for n in 0..batch {
        for c in 0..ch {
            let img = &x[(n * ch + c) * p..(n * ch + c + 1) * p];
            for ki in 0..K {
                for kj in 0..K {
                    let row = (c * K + ki) * K + kj;
                    for i in 0..h {
                        let si = i + ki;
                        if si < 1 || si > h {
                            continue;
                        }
                        for j in 0..w {
                            let sj = j + kj;
                            if sj < 1 || sj > w {
                                continue;
                            }
                            cols[row * bp + n * p + i * w + j] = img[(si - 1) * w + (sj - 1)];
                        }
                    }
                }
            }
        }
    }
    cols
}

/// Transpose of a row-major `rows × cols` matrix.
pub fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; a.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = a[r * cols + c];
        }
    }
    t
}

/// `[out_ch, batch·p]` GEMM output to `[batch, out_ch, p]`, adding the
/// channel bias the way the layers do.
pub fn unstage(staged: &[f32], bias: &[f32], batch: usize, out_ch: usize, p: usize) -> Vec<f32> {
    let bp = batch * p;
    let mut y = vec![0.0f32; batch * out_ch * p];
    for n in 0..batch {
        for (c, &b) in bias.iter().enumerate() {
            let src = &staged[c * bp + n * p..c * bp + (n + 1) * p];
            let dst = &mut y[(n * out_ch + c) * p..(n * out_ch + c + 1) * p];
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s + b;
            }
        }
    }
    y
}

/// `[batch, out_ch, p]` upstream gradient to the `[out_ch, batch·p]`
/// layout of the conv backward GEMMs.
pub fn gather_grad(grad: &[f32], batch: usize, out_ch: usize, p: usize) -> Vec<f32> {
    let bp = batch * p;
    let mut g = vec![0.0f32; out_ch * bp];
    for n in 0..batch {
        for c in 0..out_ch {
            g[c * bp + n * p..c * bp + (n + 1) * p]
                .copy_from_slice(&grad[(n * out_ch + c) * p..(n * out_ch + c + 1) * p]);
        }
    }
    g
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A GEMM shape `(m, k, n)`.
pub type Shape = (usize, usize, usize);

/// One GEMM `C[m×n] = A[m×k]·B[k×n]` with owned operands.
pub struct Gemm {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: Vec<f32>,
    pub b: Vec<f32>,
}

impl Gemm {
    pub fn macs(&self) -> u64 {
        (self.m * self.k * self.n) as u64
    }

    /// Operand and result bytes the GEMM touches once (f32 A, B, C).
    pub fn bytes(&self) -> u64 {
        4 * (self.m * self.k + self.k * self.n + self.m * self.n) as u64
    }

    pub fn run(&self, f: impl Fn(&[f32], &[f32], &mut [f32], usize, usize, usize)) -> Vec<f32> {
        let mut c = vec![0.0f32; self.m * self.n];
        f(black_box(&self.a), black_box(&self.b), &mut c, self.m, self.k, self.n);
        black_box(c)
    }
}

/// The three GEMMs of one conv layer's training step, rebuilt from the
/// layer's captured input, weights and upstream gradient exactly as the
/// layer lowers them: forward `W·cols`, `grad_w = g·colsᵀ` and
/// `grad_cols = Wᵀ·g`.
pub fn conv_step_gemms(
    x: &[f32],
    x_shape: &[usize],
    w: &[f32],
    out_ch: usize,
    grad: &[f32],
) -> [Gemm; 3] {
    let (batch, ch, h, wd) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let p = h * wd;
    let bp = batch * p;
    let kdim = ch * K * K;
    let cols = im2col(x, batch, ch, h, wd);
    let g = gather_grad(grad, batch, out_ch, p);
    [
        Gemm { m: out_ch, k: kdim, n: bp, a: w.to_vec(), b: cols.clone() },
        Gemm { m: out_ch, k: bp, n: kdim, a: g.clone(), b: transpose(&cols, kdim, bp) },
        Gemm { m: kdim, k: out_ch, n: bp, a: transpose(w, out_ch, kdim), b: g },
    ]
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&v)
}

/// Replays `gemms` through eager `gemm` under `mul`, against
/// `gemm_reference` under `mul` and eager `gemm` under exact f32, all
/// timed here. Checks eager == reference bit for bit. Emits
/// `<prefix>.{eager_ns_per_mac,vs_reference,vs_exact_f32}`.
pub fn replay_eager(
    rep: &mut Report,
    prefix: &str,
    gemms: &[Gemm],
    mul: &dyn ScalarMul,
    reps: usize,
) {
    let macs: u64 = gemms.iter().map(Gemm::macs).sum();
    let (mut t_eager, mut t_ref, mut t_exact) = (0.0, 0.0, 0.0);
    let mut same = true;
    for g in gemms {
        let eager = g.run(|a, b, c, m, k, n| gemm(mul, a, b, c, m, k, n));
        let reference = g.run(|a, b, c, m, k, n| gemm_reference(mul, a, b, c, m, k, n));
        same &= bits_equal(&eager, &reference);
        t_eager += median_time(reps, || {
            g.run(|a, b, c, m, k, n| gemm(mul, a, b, c, m, k, n));
        });
        t_ref += median_time(reps, || {
            g.run(|a, b, c, m, k, n| gemm_reference(mul, a, b, c, m, k, n));
        });
        t_exact += median_time(reps, || {
            g.run(|a, b, c, m, k, n| gemm(&ExactMul, a, b, c, m, k, n));
        });
    }
    rep.check(format!("{prefix}: eager gemm == gemm_reference"), same);
    rep.metric(format!("{prefix}.eager_ns_per_mac"), t_eager * 1e9 / macs as f64, "ns", reps);
    rep.metric(format!("{prefix}.vs_reference"), t_eager / t_ref, "ratio", reps);
    rep.metric(format!("{prefix}.vs_exact_f32"), t_eager / t_exact, "ratio", reps);
}

/// A decoded operand as the float pipeline sees it.
#[derive(Clone, Copy)]
struct Dec {
    s: FpScalar,
    normal: bool,
}

/// The backend a stage probe splits into stages.
pub enum StageBackend {
    Approx(ApproxFpMul),
    QuantizedExact(FpFormat),
}

/// Per-stage cost of the float multiply pipeline on real operands: the
/// `m × k` A block against the first `n` columns of B. Stages are timed
/// in isolation through the public per-scalar APIs:
///
/// * `decode`: `FpScalar::from_f32` per operand element;
/// * `product`: the OR-approximate mantissa product,
///   `MantissaMultiplier::prepare` per A element and `mul_lanes` over
///   16-lane groups of B (for quantized-exact: the exact f64 product);
/// * `combine`: `ApproxFpMul::combine_raw` per normal×normal product
///   (for quantized-exact: rounding the product back to the format);
/// * `accumulate`: the f32 add into C in ascending-k order.
///
/// The staged result must equal `gemm_reference` on the same block bit
/// for bit. Emits `<prefix>.{decode,product,combine,accumulate}_ns`, each
/// in ns per element decoded or per product. These are the costs of the
/// public per-scalar path; the GEMM kernels run fused crate-internal
/// versions of the same stages, so the stages do not sum to a kernel's
/// ns per MAC.
pub fn stage_probe(
    rep: &mut Report,
    prefix: &str,
    g: &Gemm,
    cols: usize,
    backend: &StageBackend,
    reps: usize,
) {
    let (m, k) = (g.m, g.k);
    let n = cols.min(g.n);
    let a = &g.a;
    let b: Vec<f32> = (0..k).flat_map(|l| g.b[l * g.n..l * g.n + n].to_vec()).collect();
    let fmt = match backend {
        StageBackend::Approx(mul) => mul.format(),
        StageBackend::QuantizedExact(f) => *f,
    };
    let products = (m * k * n) as f64;

    // Decode.
    let decode = |v: &[f32]| -> Vec<Dec> {
        v.iter()
            .map(|&x| {
                let s = FpScalar::from_f32(x, fmt);
                Dec { s, normal: s.class() == FpClass::Normal }
            })
            .collect()
    };
    let t_decode = median_time(reps, || {
        black_box(decode(black_box(a)));
        black_box(decode(black_box(&b)));
    });
    let da = decode(a);
    let db = decode(&b);
    let decoded = (a.len() + b.len()) as f64;

    // Product and combine, then accumulate.
    let mut prod = vec![0.0f32; m * k * n];
    let (t_product, t_combine) = match backend {
        StageBackend::Approx(mul) => {
            let mm = mul.mantissa_multiplier();
            let bman: Vec<u64> =
                db.iter().map(|d| if d.normal { d.s.mantissa() } else { 0 }).collect();
            let mut raw = vec![0u64; m * k * n];
            let mut product = || {
                for i in 0..m {
                    for l in 0..k {
                        let d = &da[i * k + l];
                        if !d.normal {
                            continue;
                        }
                        let prep = mm.prepare(d.s.mantissa());
                        let row = &bman[l * n..(l + 1) * n];
                        let out = &mut raw[(i * k + l) * n..(i * k + l + 1) * n];
                        let mut j = 0;
                        while j + 16 <= n {
                            let lanes: &[u64; 16] = row[j..j + 16].try_into().expect("16 lanes");
                            out[j..j + 16].copy_from_slice(&mm.mul_lanes(&prep, lanes));
                            j += 16;
                        }
                        for jj in j..n {
                            out[jj] = mm.multiply_prepared(&prep, row[jj]);
                        }
                    }
                }
                black_box(&raw);
            };
            let t_product = median_time(reps, &mut product);
            let mut combine = || {
                for i in 0..m {
                    for l in 0..k {
                        let x = &da[i * k + l];
                        for j in 0..n {
                            let y = &db[l * n + j];
                            let at = (i * k + l) * n + j;
                            prod[at] = if x.normal && y.normal {
                                mul.combine_raw(&x.s, &y.s, raw[at]).to_f32()
                            } else {
                                0.0
                            };
                        }
                    }
                }
                black_box(&prod);
            };
            let t_combine = median_time(reps, &mut combine);
            (t_product, t_combine)
        }
        StageBackend::QuantizedExact(_) => {
            let qa: Vec<f64> = da.iter().map(|d| d.s.to_f64()).collect();
            let qb: Vec<f64> = db.iter().map(|d| d.s.to_f64()).collect();
            let mut wide = vec![0.0f64; m * k * n];
            let mut product = || {
                for i in 0..m {
                    for l in 0..k {
                        let xq = qa[i * k + l];
                        for j in 0..n {
                            wide[(i * k + l) * n + j] = xq * qb[l * n + j];
                        }
                    }
                }
                black_box(&wide);
            };
            let t_product = median_time(reps, &mut product);
            let mut combine = || {
                for (p, w) in prod.iter_mut().zip(&wide) {
                    *p = FpScalar::from_f32(*w as f32, fmt).to_f32();
                }
                black_box(&prod);
            };
            let t_combine = median_time(reps, &mut combine);
            (t_product, t_combine)
        }
    };

    // Accumulate with the engine's zero bypass on either f32 operand.
    let mut c = vec![0.0f32; m * n];
    let t_accumulate = median_time(reps, || {
        c.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..m {
            for l in 0..k {
                if a[i * k + l] == 0.0 {
                    continue;
                }
                for j in 0..n {
                    if b[l * n + j] != 0.0 {
                        c[i * n + j] += prod[(i * k + l) * n + j];
                    }
                }
            }
        }
        black_box(&c);
    });

    let mut reference = vec![0.0f32; m * n];
    match backend {
        StageBackend::Approx(mul) => gemm_reference(mul, a, &b, &mut reference, m, k, n),
        StageBackend::QuantizedExact(f) => {
            gemm_reference(&QuantizedExactMul::new(*f), a, &b, &mut reference, m, k, n)
        }
    }
    rep.check(format!("{prefix}: staged pipeline == gemm_reference"), bits_equal(&c, &reference));
    rep.metric(format!("{prefix}.decode_ns"), t_decode * 1e9 / decoded, "ns", reps);
    rep.metric(format!("{prefix}.product_ns"), t_product * 1e9 / products, "ns", reps);
    rep.metric(format!("{prefix}.combine_ns"), t_combine * 1e9 / products, "ns", reps);
    rep.metric(format!("{prefix}.accumulate_ns"), t_accumulate * 1e9 / products, "ns", reps);
}

/// The lowered GEMM inputs of one residual block's replay: per request,
/// the first conv's lowering and the second's.
pub struct ResidualReplay {
    /// Replayed outputs equal the served unit outputs, and the prepared
    /// engine equals `BlockFpGemm::reference`, bit for bit.
    pub ok: bool,
    /// Mean zero fraction of the second conv's lowered input.
    pub inner_zero_frac: f64,
    cols: Vec<(bool, Vec<f32>)>,
}

/// Replays one BlockFp residual block (`conv → ReLU → conv`, plus the
/// skip) for each captured `(unit input, served output)` pair through
/// `prepare_a` and `execute_with_prepared_a`, the way the compiled
/// session runs it. `params` are the two convs' weights and biases.
pub fn replay_blockfp_residual(
    engine: &BlockFpGemm,
    params: &[Vec<f32>; 4],
    ch: usize,
    inputs: &[(Vec<f32>, Vec<f32>)],
    (h, w): (usize, usize),
) -> ResidualReplay {
    let p = h * w;
    let kdim = ch * K * K;
    let [wa, ba, wb, bb] = params;
    let pa = engine.prepare_a(wa, ch, kdim);
    let pb = engine.prepare_a(wb, ch, kdim);
    let mut ok = !inputs.is_empty();
    let mut inner_zero = Vec::new();
    let mut cols = Vec::new();
    for (x, served) in inputs {
        let cols_a = im2col(x, 1, ch, h, w);
        let mut sa = vec![0.0f32; ch * p];
        engine.execute_with_prepared_a(&pa, &cols_a, &mut sa, p);
        let mut ra = vec![0.0f32; ch * p];
        engine.reference(wa, &cols_a, &mut ra, ch, kdim, p);
        ok &= bits_equal(&sa, &ra);
        let ya: Vec<f32> = unstage(&sa, ba, 1, ch, p).iter().map(|v| v.max(0.0)).collect();
        let cols_b = im2col(&ya, 1, ch, h, w);
        inner_zero.push(zero_frac(&cols_b));
        let mut sb = vec![0.0f32; ch * p];
        engine.execute_with_prepared_a(&pb, &cols_b, &mut sb, p);
        let out: Vec<f32> = unstage(&sb, bb, 1, ch, p).iter().zip(x).map(|(y, x)| y + x).collect();
        ok &= bits_equal(&out, served);
        cols.push((false, cols_a));
        cols.push((true, cols_b));
    }
    ResidualReplay { ok, inner_zero_frac: crate::util::mean(&inner_zero), cols }
}

/// Times a replayed residual block: `prepare_a` per conv, the prepared
/// GEMMs, and `BlockFpGemm::reference` on the same operands. Emits
/// `<prefix>.{prepare_ns,prepared_ns_per_mac,vs_reference}`.
pub fn time_blockfp_residual(
    rep: &mut Report,
    prefix: &str,
    engine: &BlockFpGemm,
    params: &[Vec<f32>; 4],
    ch: usize,
    replay: &ResidualReplay,
    reps: usize,
) {
    let kdim = ch * K * K;
    let p = replay.cols.first().map_or(0, |(_, c)| c.len() / kdim);
    let [wa, _, wb, _] = params;
    let pa = engine.prepare_a(wa, ch, kdim);
    let pb = engine.prepare_a(wb, ch, kdim);
    let macs = (replay.cols.len() * ch * kdim * p) as f64;
    let t_prepare = median_time(reps, || {
        black_box(engine.prepare_a(black_box(wa), ch, kdim));
        black_box(engine.prepare_a(black_box(wb), ch, kdim));
    }) / 2.0;
    let mut c = vec![0.0f32; ch * p];
    let t_prepared = median_time(reps, || {
        for (second, cols) in &replay.cols {
            c.iter_mut().for_each(|v| *v = 0.0);
            engine.execute_with_prepared_a(if *second { &pb } else { &pa }, cols, &mut c, p);
            black_box(&c);
        }
    });
    let t_reference = median_time(reps, || {
        for (second, cols) in &replay.cols {
            c.iter_mut().for_each(|v| *v = 0.0);
            engine.reference(if *second { wb } else { wa }, cols, &mut c, ch, kdim, p);
            black_box(&c);
        }
    });
    rep.metric(format!("{prefix}.prepare_ns"), t_prepare * 1e9, "ns", reps);
    rep.metric(format!("{prefix}.prepared_ns_per_mac"), t_prepared * 1e9 / macs, "ns", reps);
    rep.metric(format!("{prefix}.vs_reference"), t_prepared / t_reference, "ratio", reps);
}

/// Modelled-hardware roll-up: every recorded `(m, k, n)` GEMM shape
/// through the analytical DAISM model (16 × 8 kB banks, bf16 PC3_tr —
/// the paper's Table II design), summing cycles and energy. The model is
/// analytical and not validated against hardware.
pub fn arch_rollup(rep: &mut Report, prefix: &str, shapes: &[Shape]) {
    let config = DaismConfig::paper_16x8kb();
    let (mut cycles, mut pj, mut ok) = (0u64, 0.0f64, true);
    for &(m, k, n) in shapes {
        match GemmShape::new(m, k, n).and_then(|g| simulate_tiled(&config, &g)) {
            Ok(run) => {
                cycles += run.perf.total_cycles;
                pj += run.energy.total_pj;
            }
            Err(e) => {
                ok = false;
                rep.note(format!("{prefix}: arch model rejected {m}x{k}x{n}: {e}"));
            }
        }
    }
    rep.check(format!("{prefix}: every GEMM shape maps onto the modelled accelerator"), ok);
    rep.metric(format!("{prefix}.sim_cycles"), cycles as f64, "cycles", shapes.len());
    rep.metric(format!("{prefix}.sim_energy_uj"), pj / 1e6, "uJ", shapes.len());
}
