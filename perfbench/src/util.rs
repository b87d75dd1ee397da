//! Small shared pieces: order statistics, a seeded generator, an FNV
//! fingerprint, and the report every workload fills in.

use std::time::Instant;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation between
/// order statistics. `v` must be non-empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// SplitMix64: the benchmark's own seeded generator, so request order
/// and subsets depend on `--seed` and on nothing else.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// 64-bit FNV-1a over f32 bit patterns and words: the fingerprint that
/// ties a traced run to its plain run.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits() as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a model's parameter values, in `params()` order.
pub fn params_fingerprint(model: &daism_dnn::Sequential) -> u64 {
    use daism_dnn::Layer;
    let mut h = Fnv::new();
    for p in model.params() {
        h.floats(p.value.data());
    }
    h.finish()
}

/// Fraction of exact zeros (either sign) in `v`.
pub fn zero_frac(v: &[f32]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().filter(|x| **x == 0.0).count() as f64 / v.len() as f64
}

/// One named number with its unit and the samples it summarises.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run produced: its metrics, its correctness verdict
/// and operation counts, a fingerprint of its outputs, and free-form
/// diagnostic lines.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub fingerprint: Vec<(String, u64)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Records a correctness check; a failed check also counts as a
    /// failed operation.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn fingerprint(&mut self, what: impl Into<String>, value: u64) {
        self.fingerprint.push((what.into(), value));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Appends everything `other` recorded.
    pub fn absorb(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.fingerprint.extend(other.fingerprint);
        self.notes.extend(other.notes);
    }

    /// The combined fingerprint of everything recorded, in order.
    pub fn fingerprint_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (_, v) in &self.fingerprint {
            h.word(*v);
        }
        h.finish()
    }
}

/// A finite JSON number: Rust's shortest round-trip form, which keeps
/// every digit of the measured value.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
