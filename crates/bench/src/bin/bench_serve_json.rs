//! Machine-readable serving-throughput trajectory: times a request
//! stream through the eager model forwards vs a compiled inference
//! session, per backend, at batch 1/8/32, and writes `BENCH_serve.json`
//! so the compile-once-serve-many win is tracked across PRs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p daism-bench --bin bench_serve_json              # full (256-wide layers)
//! cargo run --release -p daism-bench --bin bench_serve_json -- --quick  # 32-wide (CI smoke)
//! cargo run --release -p daism-bench --bin bench_serve_json -- --out path.json
//! ```
//!
//! The measurement and its guards live in [`daism_bench::serve`]; each
//! backend validates compiled output == eager output bit-for-bit before
//! any timing (a panic there fails CI louder than any guard).
//!
//! # Guards (CI gates, non-zero exit after the JSON is written; full
//! sizes only — quick cells run in microseconds and timing noise swamps
//! any margin)
//!
//! * **Throughput guard**: at batch ≥ 8 no backend's compiled mode may
//!   measure below 0.95× its eager requests/sec — persisting the packed
//!   weights must never lose to rebuilding them per request.
//! * **Batch-1 latency guard**: for the approximate backends
//!   (`bf16_pc3_tr`, `blockfp_*`) compiled batch-1 must beat eager
//!   outright (≥ 1.0×) — single-sample requests are exactly where the
//!   per-request B re-decode hurts most, and the compiled path does
//!   none of it.

use daism_bench::{harness, serve};
use std::process::ExitCode;

fn main() -> ExitCode {
    let (quick, out) = harness::args("BENCH_serve.json");
    serve::run(quick).finish(&out)
}
