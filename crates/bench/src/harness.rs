//! The measurement harness behind the `bench_*_json` emitters: one
//! timer, one command line, one report that records rows, derives the
//! same-run baseline ratio, collects guard failures and writes the JSON.
//!
//! Ratios are always taken against a baseline timed in the same run,
//! never against a committed file: absolute nanoseconds drift between
//! sessions on a shared host, ratios of neighbouring cells much less.

use std::process::ExitCode;
use std::time::Instant;

/// Parses the emitters' command line, `[--quick] [--out <path>]`
/// without the program name, into `(quick, out)`. Anything else is an
/// error, so a typo or a forgotten path can never fall back to a full
/// run or overwrite the committed default file.
///
/// # Errors
///
/// Returns a message for an unknown argument, or for `--out` with no
/// path or followed by a flag.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    default_out: &str,
) -> Result<(bool, String), String> {
    let (mut quick, mut out) = (false, default_out.to_string());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) if !path.starts_with('-') => out = path,
                _ => return Err("`--out` needs a path".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((quick, out))
}

/// [`parse_args`] on the process arguments; prints the error and a usage
/// line and exits 2 on a bad command line.
pub fn args(default_out: &str) -> (bool, String) {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse_args(args, default_out).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\nusage: {bin} [--quick] [--out <path>]");
        std::process::exit(2)
    })
}

/// Calls `f` once to warm up (LUT build, pool spawn, allocator steady
/// state), then `reps` timed times, returning `(best_ns, median_ns)`:
/// best-of filters scheduler noise, the median shows the spread.
///
/// # Panics
///
/// Panics if `reps` is 0.
pub fn time(reps: usize, mut f: impl FnMut()) -> (u128, u128) {
    assert!(reps > 0, "need at least one timed repetition");
    f();
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (samples[0], samples[reps / 2])
}

/// `man_width` of the BlockFp backend both emitters time: 9 signed bits
/// = 8 magnitude bits, the bf16-mantissa-equivalent width that rides the
/// memoized product LUT (the configuration the accelerator targets).
pub const BLOCKFP_WIDTH: u32 = 9;

/// The deterministic `m × k` A and `k × n` B every GEMM bench times.
pub fn test_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..m * k).map(|i| (i as f32 % 7.0) - 3.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i as f32 % 5.0) - 2.0).collect();
    (a, b)
}

/// `s` as a JSON string.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One timed cell. Field values are rendered JSON.
#[derive(Debug, Clone)]
pub struct Row {
    id: Vec<(&'static str, String)>,
    /// Best-of-reps wall time.
    pub(crate) best_ns: u128,
    /// Median-of-reps wall time.
    pub(crate) median_ns: u128,
    derived: Vec<(&'static str, String)>,
    vs: Option<(&'static str, &'static str, f64)>,
}

impl Row {
    /// A row named by `id` (written first, in order) with the timings
    /// [`time`] returned.
    pub fn new(id: Vec<(&'static str, String)>, (best_ns, median_ns): (u128, u128)) -> Row {
        Row { id, best_ns, median_ns, derived: vec![], vs: None }
    }

    /// Appends a field written after the timings.
    pub fn derived(mut self, key: &'static str, value: String) -> Row {
        self.derived.push((key, value));
        self
    }

    /// Writes `speedup_vs_<baseline>`: the best time of the row whose id
    /// field `role` is `baseline` and whose other id fields equal this
    /// row's, over this row's best time. The run fails if it measures
    /// below `floor`.
    pub fn vs(mut self, role: &'static str, baseline: &'static str, floor: f64) -> Row {
        self.vs = Some((role, baseline, floor));
        self
    }

    fn label(&self) -> String {
        let values: Vec<&str> = self.id.iter().map(|(_, v)| v.as_str()).collect();
        values.join(" ")
    }
}

/// The rows of one emitter run and its JSON.
#[derive(Debug, Clone)]
pub struct Report {
    schema: &'static str,
    emitter: &'static str,
    quick: bool,
    header: Vec<(&'static str, usize)>,
    pub(crate) rows: Vec<Row>,
}

impl Report {
    /// An empty report whose header is `schema`, `emitter`, `quick`,
    /// then the numeric fields of `header`.
    pub fn new(
        schema: &'static str,
        emitter: &'static str,
        quick: bool,
        header: Vec<(&'static str, usize)>,
    ) -> Self {
        Report { schema, emitter, quick, header, rows: vec![] }
    }

    /// Records a row and prints it to stderr.
    pub fn record(&mut self, row: Row) {
        eprintln!("{}: best {} ns, median {} ns", row.label(), row.best_ns, row.median_ns);
        self.rows.push(row);
    }

    /// `row`'s speedup over its same-run baseline (see [`Row::vs`]), or
    /// `None` if it has none or the baseline row was not recorded.
    pub(crate) fn ratio(&self, row: &Row) -> Option<f64> {
        let (role, baseline, _) = row.vs?;
        let baseline = quoted(baseline);
        let base = self.rows.iter().find(|r| {
            let mut pairs = r.id.iter().zip(&row.id);
            pairs.all(|((k, v), (_, w))| if *k == role { *v == baseline } else { v == w })
        })?;
        Some(base.best_ns as f64 / row.best_ns.max(1) as f64)
    }

    /// The report as JSON, one row per line (the workspace has no serde).
    pub fn to_json(&self) -> String {
        let field = |(key, value): &(&str, String)| format!("\"{key}\": {value}");
        let mut json = format!(
            "{{\n  \"schema\": \"{}\",\n  \"emitter\": \"{}\",\n  \"quick\": {},\n",
            self.schema, self.emitter, self.quick
        );
        for (key, value) in &self.header {
            json.push_str(&format!("  \"{key}\": {value},\n"));
        }
        json.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let timings =
                [("best_ns", row.best_ns.to_string()), ("median_ns", row.median_ns.to_string())];
            let ratio = self.ratio(row).zip(row.vs);
            let ratio = ratio.map(|(r, (_, b, _))| format!("\"speedup_vs_{b}\": {r:.3}"));
            let fields = row.id.iter().chain(&timings).chain(&row.derived).map(field);
            let fields: Vec<String> = fields.chain(ratio).collect();
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            json.push_str(&format!("    {{{}}}{sep}\n", fields.join(", ")));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Checks every row's floor (see [`Row::vs`]), writes the JSON to
    /// `path`, then reports failure if the write or any guard failed.
    pub fn finish(&self, path: &str) -> ExitCode {
        let mut failed = false;
        for row in &self.rows {
            let Some((ratio, (_, baseline, floor))) = self.ratio(row).zip(row.vs) else { continue };
            if ratio < floor {
                let label = row.label();
                eprintln!("guard failed: {label} at {ratio:.3}x vs {baseline}, floor {floor}x");
                failed = true;
            }
        }
        if let Err(e) = std::fs::write(path, self.to_json()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(bool, String), String> {
        parse_args(args.iter().map(|a| a.to_string()), "BENCH_x.json")
    }

    #[test]
    fn parses_the_forms_ci_uses() {
        assert_eq!(parse(&["--quick", "--out", "smoke.json"]), Ok((true, "smoke.json".into())));
        assert_eq!(parse(&["--out", "guard.json"]), Ok((false, "guard.json".into())));
        assert_eq!(parse(&[]), Ok((false, "BENCH_x.json".into())));
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse(&["--quik"]).unwrap_err().contains("--quik"));
    }

    #[test]
    fn rejects_out_without_path() {
        assert!(parse(&["--quick", "--out"]).is_err());
    }

    #[test]
    fn rejects_out_followed_by_flag() {
        assert!(parse(&["--out", "--quick"]).is_err());
    }

    #[test]
    fn timer_warms_up_once_then_times_each_rep() {
        let mut calls = 0;
        let (best, median) = time(5, || {
            calls += 1;
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert_eq!(calls, 1 + 5);
        assert!(best <= median);
    }

    #[test]
    fn renders_the_committed_gemm_line_format() {
        // Values and expected lines copied from BENCH_gemm.json; the
        // blockfp baseline is recorded after a row that needs it.
        let header = vec![("threads", 2), ("reps_per_cell", 5)];
        let mut report = Report::new("daism-bench-gemm/2", "bench_gemm_json", false, header);
        let row = |variant, timing| {
            let backend = quoted("blockfp_w9_pc3_tr");
            let id =
                vec![("size", "64".into()), ("backend", backend), ("variant", quoted(variant))];
            Row::new(id, timing).vs("variant", "reference", 0.0)
        };
        report.record(row("whole_matrix", (701956, 708505)));
        report.record(row("reference", (1654874, 1717277)));
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": "daism-bench-gemm/2",
  "emitter": "bench_gemm_json",
  "quick": false,
  "threads": 2,
  "reps_per_cell": 5,
  "results": [
    {"size": 64, "backend": "blockfp_w9_pc3_tr", "variant": "whole_matrix", "best_ns": 701956, "median_ns": 708505, "speedup_vs_reference": 2.358},
    {"size": 64, "backend": "blockfp_w9_pc3_tr", "variant": "reference", "best_ns": 1654874, "median_ns": 1717277, "speedup_vs_reference": 1.000}
  ]
}
"#
        );
    }

    #[test]
    fn guard_failure_still_writes_the_json_then_fails() {
        let path = std::env::temp_dir().join(format!("daism-harness-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let row = |variant, best| Row::new(vec![("variant", quoted(variant))], (best, best));
        let mut report = Report::new("test/1", "test", false, vec![]);
        report.record(row("reference", 100).vs("variant", "reference", 0.95));
        assert_eq!(report.finish(path), ExitCode::SUCCESS);
        report.record(row("slow", 200).vs("variant", "reference", 0.95));
        assert_eq!(report.finish(path), ExitCode::FAILURE);
        assert_eq!(std::fs::read_to_string(path).unwrap(), report.to_json());
        std::fs::remove_file(path).unwrap();
    }
}
