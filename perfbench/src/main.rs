//! The DAISM workload benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-bf16|serve-blockfp|fig4-sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Workloads, each driven from this one process through the public APIs
//! of `daism_dnn`, `daism_core` and `daism_arch`:
//!
//! * `train-bf16` — `train::fit`'s step loop on `mini_vgg`, with
//!   `ApproxFpMul(PC3_tr, bf16)` forward and backward;
//! * `serve-blockfp` — one closed-loop client against an
//!   `InferenceSession` over a BlockFp-compiled `tiny_resnet`;
//! * `fig4-sweep` — `train::accuracy` of one `mini_vgg` under the nine
//!   Fig. 4 backends.
//!
//! A plain run (`--trace 0`) times the workload with no spans and prints
//! the end-to-end metrics. A traced run (`--trace 1`) times calls into
//! each layer's public functions from this crate's own wrappers and
//! prints the per-layer metrics of all three workloads: its own workload
//! gets most of `--seconds`, the other two a short slice each. Both
//! modes check their outputs and print a fingerprint of them; a traced
//! run must reproduce the plain run's fingerprint.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! process exits non-zero if any check fails.

mod ops;
mod serve;
mod sweep;
mod trace;
mod train;
mod util;

use util::{json_num, Report};

const WORKLOADS: [&str; 3] = ["train-bf16", "serve-blockfp", "fig4-sweep"];
/// The end-to-end metrics a plain run reports in its result line. Each
/// workload also measures `latency_p90_ms` and prints it with its sample
/// count, but it stays out of the result: on a shared two-core host its
/// run-to-run spread (13–23% of the median over ten seeds) follows
/// other tenants' load rather than the program.
const E2E: [&str; 4] = ["setup_s", "samples_per_s", "latency_p50_ms", "peak_rss_mb"];

/// Problem sizes: the full sizes are what the benchmark measures, the
/// quick sizes the self-test's.
pub struct Sizes {
    /// train-bf16 training samples (an epoch).
    pub train: usize,
    /// Set-ups per plain run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Minimum train steps per plain run (for a p90 with ten samples beyond it).
    pub min_steps: usize,
    /// Exact-f32 pre-training set and epochs (serve-blockfp, fig4-sweep).
    pub pretrain_set: usize,
    pub pretrain_epochs: usize,
    /// serve-blockfp request pool (test samples).
    pub serve_pool: usize,
    /// Minimum requests per run.
    pub min_requests: usize,
    /// Requests whose unit operands the traced run captures and replays.
    pub replay_requests: usize,
    /// fig4-sweep test set and minimum sweeps per run.
    pub sweep_test: usize,
    pub min_sweeps: usize,
    /// Repetitions of each timed replay, and B columns per stage probe.
    pub replay_reps: usize,
    pub stage_cols: usize,
}

impl Sizes {
    fn full() -> Self {
        Sizes {
            train: 512,
            setup_reps: 3,
            min_steps: 100,
            pretrain_set: 256,
            pretrain_epochs: 3,
            serve_pool: 256,
            min_requests: 100,
            replay_requests: 8,
            sweep_test: 64,
            min_sweeps: 3,
            replay_reps: 5,
            stage_cols: 256,
        }
    }

    fn quick() -> Self {
        Sizes {
            train: 64,
            setup_reps: 1,
            min_steps: 8,
            pretrain_set: 64,
            pretrain_epochs: 2,
            serve_pool: 32,
            min_requests: 64,
            replay_requests: 2,
            sweep_test: 16,
            min_sweeps: 2,
            replay_reps: 1,
            stage_cols: 32,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--self-test" => a.self_test = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", a.workload));
    }
    Ok(a)
}

/// The checkout's commit, read from `.git` without running git
/// (`unknown` outside a git checkout).
fn git_sha() -> String {
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Some(head) = read(git.join("HEAD")) {
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                None => Some(head.to_string()),
                Some(r) => read(git.join(r)).map(|s| s.trim().to_string()).or_else(|| {
                    read(git.join("packed-refs"))?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
                }),
            }
            .unwrap_or_else(|| "unknown".into());
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    "unknown".into()
}

/// Peak resident set size in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn provenance(a: &Args) -> String {
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    format!(
        "{{\"git_sha\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"pool_threads\": {}, \"nproc\": {}, \"avx2_detected\": {avx2}, \"f32_kernel\": \"{}\", \"build_profile\": \"{}\"}}",
        git_sha(),
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        rayon::current_num_threads(),
        nproc(),
        if avx2 { "avx2" } else { "portable" },
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
}

/// Runs one workload in one mode and returns its report. In a traced
/// run the workload's own section gets 60% of `seconds`, the other two
/// 10% each; only the own section's `trace.overhead_frac` is kept.
fn run(workload: &str, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Report {
    type Section = fn(u64, f64, &Sizes) -> Report;
    let sections: [(&str, Section, Section); 3] = [
        ("train-bf16", train::plain, train::traced),
        ("serve-blockfp", serve::plain, serve::traced),
        ("fig4-sweep", sweep::plain, sweep::traced),
    ];
    let mut rep = Report::default();
    for (name, plain, traced) in sections {
        let own = name == workload;
        if !trace {
            if own {
                rep.absorb(plain(seed, seconds, sizes));
            }
            continue;
        }
        let mut part = traced(seed, if own { 0.6 * seconds } else { 0.1 * seconds }, sizes);
        if !own {
            part.metrics.retain(|m| m.name != "trace.overhead_frac");
            // Only the own workload's fingerprint ties to its plain run.
            part.fingerprint.clear();
        }
        rep.absorb(part);
    }
    if !trace {
        match peak_rss_mb() {
            Some(mb) => rep.metric("peak_rss_mb", mb, "MB", 1),
            None => rep.check("peak RSS readable from /proc/self/status", false),
        }
    }
    rep
}

/// Prints the report's human-readable lines and, last, the result JSON
/// carrying exactly the `expected` metrics. Returns whether the run is
/// correct.
fn emit(rep: &Report, expected: &[String]) -> bool {
    for m in &rep.metrics {
        println!("metric {} = {} {} (n = {})", m.name, json_num(m.value), m.unit, m.samples);
    }
    for (what, ok) in &rep.checks {
        println!("check {} {what}", if *ok { "PASS" } else { "FAIL" });
    }
    for n in &rep.notes {
        println!("note {n}");
    }
    for (what, v) in &rep.fingerprint {
        println!("fingerprint {what} = {v:016x}");
    }
    println!("fingerprint_digest = {:016x}", rep.fingerprint_digest());

    let mut correct = rep.correct();
    let mut fields = Vec::new();
    for name in expected {
        match rep.metrics.iter().find(|m| &m.name == name) {
            Some(m) if m.value.is_finite() => {
                fields.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                ));
            }
            _ => {
                println!("check FAIL metric {name} missing or not finite");
                correct = false;
            }
        }
    }
    let failed = rep.failed + u64::from(!correct && rep.failed == 0);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        fields.join(", ")
    );
    correct
}

/// The distinct metric names a report holds, in order.
fn metric_names(rep: &Report) -> Vec<String> {
    let mut v: Vec<String> = Vec::new();
    for m in &rep.metrics {
        if !v.contains(&m.name) {
            v.push(m.name.clone());
        }
    }
    v
}

/// Metric names listed under `key` in `BENCHMARK.json`, if the file is
/// in the working directory (a minimal scan for `"name": "<x>"` inside
/// the key's array).
fn benchmark_json_names(key: &str) -> Option<Vec<String>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let start = text.find(&format!("\"{key}\""))?;
    let body = &text[start..];
    let body = &body[body.find('[')?..];
    let end = body.find(']')?;
    let mut names = Vec::new();
    let mut rest = &body[..end];
    while let Some(i) = rest.find("\"name\"") {
        rest = &rest[i + 6..];
        let q1 = rest.find('"')?;
        let q2 = q1 + 1 + rest[q1 + 1..].find('"')?;
        names.push(rest[q1 + 1..q2].to_string());
        rest = &rest[q2 + 1..];
    }
    Some(names)
}

/// Runs all three workloads at quick sizes, plain and traced, and checks
/// that each emits exactly the metrics `BENCHMARK.json` lists and that
/// each traced fingerprint equals the plain one.
fn self_test(seed: u64) -> bool {
    let sizes = Sizes::quick();
    let (Some(e2e), Some(layer)) =
        (benchmark_json_names("end_to_end"), benchmark_json_names("per_layer"))
    else {
        println!("self-test FAIL: BENCHMARK.json not readable in the working directory");
        return false;
    };
    let mut ok = e2e == E2E.map(String::from).to_vec();
    for w in WORKLOADS {
        let plain = run(w, seed, 0.0, false, &sizes);
        let traced = run(w, seed, 0.0, true, &sizes);
        println!("== {w} plain");
        ok &= emit(&plain, &e2e);
        println!("== {w} traced");
        ok &= emit(&traced, &layer);
        let same = plain.fingerprint_digest() == traced.fingerprint_digest()
            && !plain.fingerprint.is_empty();
        println!("self-test {w}: traced fingerprint == plain fingerprint: {same}");
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        let listed = sorted(metric_names(&traced)) == sorted(layer.clone());
        println!(
            "self-test {w}: traced metrics are exactly the listed per-layer metrics: {listed}"
        );
        ok &= same && listed;
    }
    println!("self-test {}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The worker pool never exceeds the machine's parallelism.
    if rayon::current_num_threads() > nproc() {
        std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());
    }
    println!("provenance {}", provenance(&args));
    println!("note the arch.* figures come from the analytical DAISM model and are not validated against hardware");
    let ok = if args.self_test {
        self_test(args.seed)
    } else {
        let sizes = Sizes::full();
        let rep = run(&args.workload, args.seed, args.seconds, args.trace, &sizes);
        let expected = if args.trace { metric_names(&rep) } else { E2E.map(String::from).to_vec() };
        emit(&rep, &expected)
    };
    std::process::exit(if ok { 0 } else { 1 });
}
