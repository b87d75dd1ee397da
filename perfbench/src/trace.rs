//! The benchmark-side trace: a `Layer` wrapper that only delegates and
//! times, and the recorder it reports to. No span lives inside the
//! program; every span is a call into a layer's public functions.

use crate::util::secs;
use daism_core::{BlockFpGemm, ScalarMul};
use daism_dnn::{CompiledLayer, InferenceBackendRef, Layer, Param, Tensor};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Operands one GEMM layer saw during a capture step.
#[derive(Clone, Default)]
pub struct Capture {
    pub x: Option<Tensor>,
    pub w: Vec<f32>,
    pub bias: Vec<f32>,
    pub y: Option<Tensor>,
    pub grad: Option<Tensor>,
    pub grad_w: Vec<f32>,
}

/// Per-unit span totals for the current step, the finished per-step
/// series, and the captures of the steps marked for capture.
#[derive(Default)]
pub struct Recorder {
    step_fwd: BTreeMap<&'static str, f64>,
    step_bwd: BTreeMap<&'static str, f64>,
    pub fwd: BTreeMap<&'static str, Vec<f64>>,
    pub bwd: BTreeMap<&'static str, Vec<f64>>,
    /// `true` while the current step's operands should be captured.
    pub capturing: bool,
    pub captures: Vec<BTreeMap<&'static str, Capture>>,
}

impl Recorder {
    pub fn shared() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder::default()))
    }

    /// Starts a step; `capture` marks it for operand capture.
    pub fn begin_step(&mut self, capture: bool) {
        self.capturing = capture;
        if capture {
            self.captures.push(BTreeMap::new());
        }
    }

    /// Closes the step: its per-unit totals join the per-step series.
    pub fn end_step(&mut self) {
        for (unit, t) in std::mem::take(&mut self.step_fwd) {
            self.fwd.entry(unit).or_default().push(t);
        }
        for (unit, t) in std::mem::take(&mut self.step_bwd) {
            self.bwd.entry(unit).or_default().push(t);
        }
        self.capturing = false;
    }

    fn capture(&mut self, unit: &'static str) -> &mut Capture {
        self.captures.last_mut().expect("capture step open").entry(unit).or_default()
    }
}

/// A layer wrapped in spans. Layers of one unit name share a span
/// series (all activations, pools and reshapes go to `other`). With
/// `captures` set, the wrapper also copies the layer's operands on
/// capture steps; copies happen outside the timed call.
pub struct Timed<L> {
    unit: &'static str,
    inner: L,
    rec: Rc<RefCell<Recorder>>,
    captures: bool,
}

impl<L: Layer> Timed<L> {
    pub fn new(unit: &'static str, inner: L, rec: &Rc<RefCell<Recorder>>, captures: bool) -> Self {
        Timed { unit, inner, rec: Rc::clone(rec), captures }
    }

    fn capturing(&self) -> bool {
        self.captures && self.rec.borrow().capturing
    }
}

impl<L: Layer> Layer for Timed<L> {
    fn forward(&mut self, x: &Tensor, mul: &dyn ScalarMul, training: bool) -> Tensor {
        let t = Instant::now();
        let y = self.inner.forward(x, mul, training);
        let dt = secs(t);
        *self.rec.borrow_mut().step_fwd.entry(self.unit).or_default() += dt;
        if self.capturing() {
            let params = self.inner.params();
            let mut rec = self.rec.borrow_mut();
            let c = rec.capture(self.unit);
            c.x = Some(x.clone());
            c.w = params[0].value.data().to_vec();
            c.bias = params[1].value.data().to_vec();
            c.y = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad: &Tensor, mul: &dyn ScalarMul) -> Tensor {
        let t = Instant::now();
        let gx = self.inner.backward(grad, mul);
        let dt = secs(t);
        *self.rec.borrow_mut().step_bwd.entry(self.unit).or_default() += dt;
        if self.capturing() {
            let params = self.inner.params();
            let mut rec = self.rec.borrow_mut();
            let c = rec.capture(self.unit);
            c.grad = Some(grad.clone());
            c.grad_w = params[0].grad.data().to_vec();
        }
        gx
    }

    fn forward_blockfp(&mut self, x: &Tensor, engine: &BlockFpGemm) -> Tensor {
        self.inner.forward_blockfp(x, engine)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn compile_layer(&self, backend: InferenceBackendRef<'_>) -> Option<CompiledLayer> {
        self.inner.compile_layer(backend)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Copies parameter values from `src` into `dst`, which must have the
/// same parameter shapes in the same order.
pub fn copy_params(dst: &mut dyn Layer, src: &dyn Layer) {
    let from = src.params();
    let mut to = dst.params_mut();
    assert_eq!(from.len(), to.len(), "parameter count mismatch");
    for (d, s) in to.iter_mut().zip(from) {
        assert_eq!(d.value.shape(), s.value.shape(), "parameter shape mismatch");
        d.value.data_mut().copy_from_slice(s.value.data());
    }
}
