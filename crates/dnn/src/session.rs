//! Compiled inference sessions: **compile once, serve many**.
//!
//! DAISM's inference story is static weights flowing through the
//! in-SRAM multiplier array, yet the eager layers re-derive every
//! weight-side operand on **every** forward call — prepared B panels,
//! microkernel packed panels and BlockFp weight tiles are rebuilt per
//! request and thrown away. This module makes the weight-stationary
//! reuse explicit:
//!
//! * [`Sequential::compile`] walks a trained model once and snapshots
//!   each layer into its immutable serving form — `Dense` captures a
//!   [`GemmPlan`] of its weight matrix (or pre-quantized BlockFp
//!   tiles), `Conv2d` captures its kernel matrix (and its BlockFp
//!   row quantization), activations/pooling/reshapes compile to pure
//!   functions;
//! * [`CompiledModel::forward`] takes `&self`, owns per-call scratch,
//!   and is `Send + Sync` — one compiled session is safely shared
//!   across serving threads;
//! * [`InferenceSession`] micro-batches queued requests: same-shape
//!   requests are concatenated into one batched GEMM per layer (riding
//!   the whole-batch im2col lowering) and the per-request outputs
//!   scattered back — byte-identical to serving each request alone.
//!
//! # Bit-exactness
//!
//! `CompiledModel::forward` is **byte-identical** to the eager
//! `Sequential::forward(x, mul, false)` (scalar backends) /
//! `Sequential::forward_blockfp(x, engine)` (BlockFp backend) — the
//! compiled layers run the same kernels over the same values, with only
//! the operand conversion moved to compile time (enforced by
//! `tests/compiled_differential.rs`).
//!
//! # Staleness
//!
//! A compiled model is a *snapshot*: mutating the source model's
//! weights afterwards (an `sgd_step`, a manual edit) does **not**
//! propagate. The contract is detection + explicit rebuild:
//! [`CompiledModel::is_stale`] compares a fingerprint of the source
//! parameters against the one captured at compile time, and
//! [`CompiledModel::refresh`] re-snapshots the weights in place.

use crate::layers::{maxpool2x2, ConvGeom, Layer, Sequential};
use crate::tensor::Tensor;
use daism_core::{gemm, BlockFpGemm, BlockFpPreparedA, BlockFpPreparedB, GemmPlan, ScalarMul};

/// The arithmetic backend a model is compiled *for* — either a
/// [`ScalarMul`] (the float datapath the eager `forward` uses) or the
/// [`BlockFpGemm`] engine (the `forward_blockfp` integer datapath).
///
/// Borrowed, not owned: the backend outlives the compiled model (both
/// are cheap to keep around for the lifetime of a serving process), and
/// borrowing keeps `compile` callable with the `&dyn ScalarMul` handles
/// the rest of the crate already passes.
#[derive(Clone, Copy)]
pub enum InferenceBackendRef<'b> {
    /// A scalar-multiplier backend: exact, quantized-exact or the
    /// approximate floating-point pipeline.
    Scalar(&'b dyn ScalarMul),
    /// The block-floating-point GEMM engine (paper §IV-B).
    BlockFp(&'b BlockFpGemm),
}

impl std::fmt::Debug for InferenceBackendRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferenceBackendRef::Scalar(mul) => write!(f, "Scalar({})", mul.name()),
            InferenceBackendRef::BlockFp(engine) => write!(f, "BlockFp({})", engine.name()),
        }
    }
}

/// A `Dense` layer's captured weights, in the prepared form its
/// backend's GEMM consumes with zero per-request conversion.
#[derive(Debug)]
pub(crate) enum CompiledDenseWeights {
    /// `Wᵀ` as a [`GemmPlan`]: packed microkernel panels for native f32,
    /// decoded panels for the approximate backends.
    Scalar(GemmPlan),
    /// `Wᵀ` pre-quantized into per-tile BlockFp mantissas/exponents.
    BlockFp(BlockFpPreparedB),
}

/// A compiled `Dense`: `y = x · Wᵀ + b` with `Wᵀ` fully prepared.
#[derive(Debug)]
pub(crate) struct CompiledDense {
    pub(crate) in_features: usize,
    pub(crate) out_features: usize,
    pub(crate) bias: Vec<f32>,
    pub(crate) weights: CompiledDenseWeights,
}

impl CompiledDense {
    fn forward(&self, x: &Tensor, backend: InferenceBackendRef<'_>) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Dense expects [batch, features]");
        assert_eq!(x.shape()[1], self.in_features, "Dense input width mismatch");
        let batch = x.shape()[0];
        let mut y = Tensor::zeros(&[batch, self.out_features]);
        match (&self.weights, backend) {
            (CompiledDenseWeights::Scalar(wt), InferenceBackendRef::Scalar(mul)) => {
                wt.run(mul, x.data(), y.data_mut(), batch);
            }
            (CompiledDenseWeights::BlockFp(wt), InferenceBackendRef::BlockFp(engine)) => {
                engine.execute_with_prepared_b(x.data(), wt, y.data_mut(), batch);
            }
            _ => panic!("compiled Dense served through a different backend class"),
        }
        // Same bias loop order as the eager layer, so bits match.
        for n in 0..batch {
            for (o, &b) in self.bias.iter().enumerate() {
                y.data_mut()[n * self.out_features + o] += b;
            }
        }
        y
    }
}

/// A `Conv2d` layer's captured kernel matrix — exactly one
/// representation per backend class, mirroring [`CompiledDenseWeights`].
#[derive(Debug)]
pub(crate) enum CompiledConvWeights {
    /// Kernel matrix `[out_ch, in_ch·k·k]` — the GEMM's A operand.
    Scalar(Vec<f32>),
    /// The kernel matrix quantized per `(row, k-tile)` block.
    BlockFp(BlockFpPreparedA),
}

/// A compiled `Conv2d`: the kernel matrix snapshot (in its backend's
/// prepared form) and **per-call** lowering scratch — serving through
/// `&self` can never touch an eager training layer's reused buffers.
#[derive(Debug)]
pub(crate) struct CompiledConv {
    pub(crate) geom: ConvGeom,
    pub(crate) bias: Vec<f32>,
    pub(crate) weights: CompiledConvWeights,
}

impl CompiledConv {
    fn forward(&self, x: &Tensor, backend: InferenceBackendRef<'_>) -> Tensor {
        assert_eq!(x.shape().len(), 4, "Conv2d expects [batch, ch, h, w]");
        assert_eq!(x.shape()[1], self.geom.in_ch, "Conv2d channel mismatch");
        let (batch, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.geom.out_hw(h, w);
        let kdim = self.geom.kdim();
        let bp = batch * oh * ow;

        // Same whole-batch lowering as the eager forward, into scratch
        // owned by *this call* — `&self` sharing across threads (or an
        // interleaved eager training step on the source layer) cannot
        // corrupt it.
        let mut cols = Vec::new();
        self.geom.lower_batch(x, &mut cols, None);
        let mut staged = vec![0.0f32; self.geom.out_ch * bp];
        match (&self.weights, backend) {
            (CompiledConvWeights::Scalar(w), InferenceBackendRef::Scalar(mul)) => {
                gemm(mul, w, &cols, &mut staged, self.geom.out_ch, kdim, bp);
            }
            (CompiledConvWeights::BlockFp(wq), InferenceBackendRef::BlockFp(engine)) => {
                engine.execute_with_prepared_a(wq, &cols, &mut staged, bp);
            }
            _ => panic!("compiled Conv2d served through a different backend class"),
        }
        self.geom.unstage_with_bias(&self.bias, &staged, batch, oh, ow)
    }
}

#[derive(Debug)]
enum CompiledKind {
    Dense(CompiledDense),
    Conv(CompiledConv),
    ReLU,
    MaxPool,
    Flatten,
    Residual(Vec<CompiledLayer>),
    Seq(Vec<CompiledLayer>),
}

/// One layer of a [`CompiledModel`]: an immutable serving snapshot
/// produced by [`Layer::compile_layer`]. Opaque — built through the
/// crate's layer implementations, consumed by `CompiledModel::forward`.
#[derive(Debug)]
pub struct CompiledLayer(CompiledKind);

impl CompiledLayer {
    pub(crate) fn dense(d: CompiledDense) -> Self {
        CompiledLayer(CompiledKind::Dense(d))
    }

    pub(crate) fn conv(c: CompiledConv) -> Self {
        CompiledLayer(CompiledKind::Conv(c))
    }

    pub(crate) fn relu() -> Self {
        CompiledLayer(CompiledKind::ReLU)
    }

    pub(crate) fn maxpool() -> Self {
        CompiledLayer(CompiledKind::MaxPool)
    }

    pub(crate) fn flatten() -> Self {
        CompiledLayer(CompiledKind::Flatten)
    }

    pub(crate) fn residual(inner: Vec<CompiledLayer>) -> Self {
        CompiledLayer(CompiledKind::Residual(inner))
    }

    pub(crate) fn seq(inner: Vec<CompiledLayer>) -> Self {
        CompiledLayer(CompiledKind::Seq(inner))
    }

    /// Does this layer (or any nested layer) run a conv lowering? The
    /// BlockFp backend quantizes the lowered input per tile, which
    /// couples columns of *different* samples — see
    /// [`CompiledModel::batch_invariant`].
    fn has_conv(&self) -> bool {
        match &self.0 {
            CompiledKind::Conv(_) => true,
            CompiledKind::Residual(inner) | CompiledKind::Seq(inner) => {
                inner.iter().any(CompiledLayer::has_conv)
            }
            _ => false,
        }
    }

    fn forward(&self, x: &Tensor, backend: InferenceBackendRef<'_>) -> Tensor {
        match &self.0 {
            CompiledKind::Dense(d) => d.forward(x, backend),
            CompiledKind::Conv(c) => c.forward(x, backend),
            CompiledKind::ReLU => x.map(|v| v.max(0.0)),
            CompiledKind::MaxPool => maxpool2x2(x, None),
            CompiledKind::Flatten => {
                let batch = x.shape()[0];
                x.reshape(&[batch, x.len() / batch])
            }
            CompiledKind::Residual(inner) => {
                let mut y = x.clone();
                for layer in inner {
                    y = layer.forward(&y, backend);
                }
                assert_eq!(y.shape(), x.shape(), "Residual inner must preserve shape");
                y.add(x)
            }
            CompiledKind::Seq(inner) => {
                let mut y = x.clone();
                for layer in inner {
                    y = layer.forward(&y, backend);
                }
                y
            }
        }
    }
}

/// FNV-1a over every parameter's bits (values only — gradients and
/// momentum don't affect what a snapshot serves), plus a length mix per
/// parameter so reshapes can't alias.
fn params_fingerprint(model: &Sequential) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for p in model.params() {
        h ^= p.value.data().len() as u64;
        h = h.wrapping_mul(PRIME);
        for &v in p.value.data() {
            h ^= v.to_bits() as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// A model compiled for one backend: every layer an immutable snapshot
/// with its weight-side operand conversion already done, served through
/// `&self` — see the [module docs](self) for the full contract.
///
/// # Examples
///
/// ```
/// use daism_core::{ApproxFpMul, MultiplierConfig};
/// use daism_dnn::{models, Tensor};
/// use daism_num::FpFormat;
///
/// let model = models::mlp(8, 16, 3, 1);
/// let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
/// let compiled = model.compile(&mul); // weights prepared once…
/// let x = Tensor::randn(&[1, 8], 1.0, 7);
/// let y = compiled.forward(&x); // …every request served from the cache
/// assert_eq!(y.shape(), &[1, 3]);
/// ```
#[derive(Debug)]
pub struct CompiledModel<'b> {
    backend: InferenceBackendRef<'b>,
    layers: Vec<CompiledLayer>,
    fingerprint: u64,
    batch_invariant: bool,
}

/// Is a concatenated micro-batch byte-identical to per-request serving
/// for these layers on this backend? Shared by `build` and `refresh` so
/// a structural change can never leave the flag stale.
fn batch_invariant_of(backend: InferenceBackendRef<'_>, layers: &[CompiledLayer]) -> bool {
    match backend {
        // Scalar GEMMs are row-independent: concatenating requests
        // changes nothing about any single row's products.
        InferenceBackendRef::Scalar(_) => true,
        // BlockFp quantizes the conv's lowered input per
        // tile_k × tile_n tile; tiles span (sample, position) columns,
        // so a request's shared exponents depend on its batch
        // neighbours. Dense-only models quantize A per row —
        // batch-invariant.
        InferenceBackendRef::BlockFp(_) => !layers.iter().any(CompiledLayer::has_conv),
    }
}

impl<'b> CompiledModel<'b> {
    fn build(model: &Sequential, backend: InferenceBackendRef<'b>) -> Option<Self> {
        let layers = model.compile_chain(backend)?;
        let batch_invariant = batch_invariant_of(backend, &layers);
        Some(CompiledModel {
            backend,
            layers,
            fingerprint: params_fingerprint(model),
            batch_invariant,
        })
    }

    /// The backend this model was compiled for.
    pub fn backend(&self) -> InferenceBackendRef<'b> {
        self.backend
    }

    /// `true` when a concatenated micro-batch is byte-identical to
    /// serving each request alone — always, except for BlockFp models
    /// containing a conv (per-tile exponents couple batch neighbours).
    /// [`InferenceSession::flush`] consults this before concatenating.
    pub fn batch_invariant(&self) -> bool {
        self.batch_invariant
    }

    /// One inference forward through the compiled layers. Byte-identical
    /// to the eager model's inference forward on the same backend;
    /// `&self`, so one compiled model serves many threads.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        for layer in &self.layers {
            y = layer.forward(&y, self.backend);
        }
        y
    }

    /// `true` when `model`'s parameters no longer match the snapshot
    /// this compiled model captured — serving would silently use stale
    /// weights. Detection is by parameter fingerprint, so it costs one
    /// pass over the weights.
    pub fn is_stale(&self, model: &Sequential) -> bool {
        params_fingerprint(model) != self.fingerprint
    }

    /// Re-snapshots `model`'s current weights (same backend), clearing
    /// staleness. Cheaper to call than to reason about: it rebuilds
    /// only the prepared weight state, not the backend.
    ///
    /// # Panics
    ///
    /// Panics if `model` is no longer compilable (a layer without a
    /// compiled form was pushed since).
    pub fn refresh(&mut self, model: &Sequential) {
        self.layers =
            model.compile_chain(self.backend).expect("model no longer compilable on refresh");
        self.fingerprint = params_fingerprint(model);
        // The structure may have changed too (e.g. a conv pushed onto a
        // Dense-only BlockFp model) — recompute, don't carry over.
        self.batch_invariant = batch_invariant_of(self.backend, &self.layers);
    }
}

impl Sequential {
    /// Compiles the model for a scalar-multiplier backend, or `None` if
    /// any layer lacks a compiled form. See [`CompiledModel`].
    pub fn try_compile<'b>(&self, backend: InferenceBackendRef<'b>) -> Option<CompiledModel<'b>> {
        CompiledModel::build(self, backend)
    }

    /// Compiles the model for `mul`: every layer snapshots its weights
    /// in the backend's prepared form, once, and
    /// [`CompiledModel::forward`] serves requests against the cache —
    /// byte-identical to `forward(x, mul, false)`.
    ///
    /// # Panics
    ///
    /// Panics if a layer has no compiled form (custom layers keep the
    /// [`Layer::compile_layer`] default); use
    /// [`try_compile`](Self::try_compile) to fall back gracefully.
    pub fn compile<'b>(&self, mul: &'b dyn ScalarMul) -> CompiledModel<'b> {
        self.try_compile(InferenceBackendRef::Scalar(mul))
            .expect("model contains a layer without a compiled form")
    }

    /// Compiles the model for the BlockFp engine — byte-identical to
    /// `forward_blockfp(x, engine)`, with `Dense` weight tiles and
    /// `Conv2d` kernel rows pre-quantized.
    ///
    /// # Panics
    ///
    /// Panics if a layer has no compiled form.
    pub fn compile_blockfp<'b>(&self, engine: &'b BlockFpGemm) -> CompiledModel<'b> {
        self.try_compile(InferenceBackendRef::BlockFp(engine))
            .expect("model contains a layer without a compiled form")
    }
}

/// A micro-batching request queue over a shared [`CompiledModel`]:
/// [`submit`](Self::submit) enqueues requests,
/// [`flush`](Self::flush) serves them — same-shape requests
/// concatenated into **one** batched forward (one GEMM per layer, the
/// whole-batch im2col lowering doing the heavy lifting for convs) and
/// the per-request outputs scattered back in submission order.
///
/// Byte-identical to serving each request alone: scalar GEMMs are
/// row-independent, and models where concatenation *would* change bits
/// (BlockFp + conv — see [`CompiledModel::batch_invariant`]) are served
/// per request automatically.
#[derive(Debug)]
pub struct InferenceSession<'m, 'b> {
    model: &'m CompiledModel<'b>,
    queue: Vec<Tensor>,
}

impl<'m, 'b> InferenceSession<'m, 'b> {
    /// A fresh queue over `model`.
    pub fn new(model: &'m CompiledModel<'b>) -> Self {
        InferenceSession { model, queue: Vec::new() }
    }

    /// Enqueues one request (leading dimension = samples in the
    /// request), returning its index into [`flush`](Self::flush)'s
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no dimensions.
    pub fn submit(&mut self, x: Tensor) -> usize {
        assert!(!x.shape().is_empty(), "requests need a leading batch dimension");
        self.queue.push(x);
        self.queue.len() - 1
    }

    /// Number of queued requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Serves every queued request, returning outputs in submission
    /// order and leaving the queue empty.
    pub fn flush(&mut self) -> Vec<Tensor> {
        let requests = std::mem::take(&mut self.queue);
        if requests.len() <= 1 || !self.model.batch_invariant() {
            return requests.iter().map(|x| self.model.forward(x)).collect();
        }
        // Group by per-sample shape (requests of different geometry
        // can't share a GEMM), concatenate each group along the batch
        // dimension, forward once, scatter rows back per request.
        let mut outputs: Vec<Option<Tensor>> = (0..requests.len()).map(|_| None).collect();
        let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for (i, x) in requests.iter().enumerate() {
            let tail = x.shape()[1..].to_vec();
            match groups.iter_mut().find(|(t, _)| *t == tail) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((tail, vec![i])),
            }
        }
        for (tail, idxs) in groups {
            let total: usize = idxs.iter().map(|&i| requests[i].shape()[0]).sum();
            let mut shape = Vec::with_capacity(tail.len() + 1);
            shape.push(total);
            shape.extend_from_slice(&tail);
            let mut data = Vec::with_capacity(
                requests[idxs[0]].len() / requests[idxs[0]].shape()[0].max(1) * total,
            );
            for &i in &idxs {
                data.extend_from_slice(requests[i].data());
            }
            let batched = Tensor::from_vec(data, &shape);
            let y = self.model.forward(&batched);
            let per_sample = y.len().checked_div(total).unwrap_or(0);
            let out_tail = y.shape()[1..].to_vec();
            let mut row = 0usize;
            for &i in &idxs {
                let rows = requests[i].shape()[0];
                let mut out_shape = Vec::with_capacity(out_tail.len() + 1);
                out_shape.push(rows);
                out_shape.extend_from_slice(&out_tail);
                let slice = y.data()[row * per_sample..(row + rows) * per_sample].to_vec();
                outputs[i] = Some(Tensor::from_vec(slice, &out_shape));
                row += rows;
            }
        }
        outputs.into_iter().map(|o| o.expect("every request served")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use daism_core::{ApproxFpMul, ExactMul, MultiplierConfig};
    use daism_num::FpFormat;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_model_is_send_sync() {
        assert_send_sync::<CompiledModel<'_>>();
        assert_send_sync::<InferenceSession<'_, '_>>();
    }

    #[test]
    fn compile_matches_eager_forward_mlp() {
        let mut model = models::mlp(6, 10, 4, 1);
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let compiled = model.compile(&mul);
        for seed in 0..3 {
            let x = Tensor::randn(&[3, 6], 1.0, 40 + seed);
            let eager = model.forward(&x, &mul, false);
            let served = compiled.forward(&x);
            assert_eq!(eager.shape(), served.shape());
            for (a, b) in eager.data().iter().zip(served.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "compiled diverged from eager");
            }
        }
    }

    #[test]
    fn staleness_detection_and_refresh() {
        let mut model = models::mlp(4, 6, 2, 1);
        let mul = ExactMul;
        let mut compiled = model.compile(&mul);
        assert!(!compiled.is_stale(&model));
        // Mutate a weight: the snapshot must report stale and, after
        // refresh, serve the new weights bit-identically again.
        model.params_mut()[0].value.data_mut()[0] += 1.0;
        assert!(compiled.is_stale(&model));
        compiled.refresh(&model);
        assert!(!compiled.is_stale(&model));
        let x = Tensor::randn(&[2, 4], 1.0, 3);
        let eager = model.forward(&x, &mul, false);
        for (a, b) in eager.data().iter().zip(compiled.forward(&x).data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn session_micro_batch_equals_per_request() {
        let model = models::mlp(5, 8, 3, 1);
        let mul = ApproxFpMul::new(MultiplierConfig::PC2_TR, FpFormat::BF16);
        let compiled = model.compile(&mul);
        let mut session = InferenceSession::new(&compiled);
        let requests: Vec<Tensor> =
            (0..4).map(|s| Tensor::randn(&[1 + s % 3, 5], 1.0, 60 + s as u64)).collect();
        for x in &requests {
            session.submit(x.clone());
        }
        assert_eq!(session.pending(), 4);
        let outs = session.flush();
        assert_eq!(session.pending(), 0);
        for (x, y) in requests.iter().zip(&outs) {
            let solo = compiled.forward(x);
            assert_eq!(solo.shape(), y.shape());
            for (a, b) in solo.data().iter().zip(y.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "micro-batched output diverged");
            }
        }
    }

    #[test]
    fn blockfp_conv_models_serve_per_request() {
        use daism_core::BlockFpGemm;
        let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 9);
        let conv_model = models::mini_vgg(4, 2);
        let compiled = conv_model.compile_blockfp(&engine);
        assert!(!compiled.batch_invariant());
        let dense_model = models::mlp(4, 6, 2, 1);
        let compiled_dense = dense_model.compile_blockfp(&engine);
        assert!(compiled_dense.batch_invariant());
    }
}
