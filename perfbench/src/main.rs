//! perfbench — the repository's seeded benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `serve-write`, `serve-read`, `tenant-churn` (one
//! closed-loop client against a 1-shard `nvserver`) and `pi-kernels`
//! (direct `pds` calls, no server). Every input is generated from the
//! seed; the op count is fixed by `--seconds`, so counts repeat exactly.
//! The paper latency model (115 ns fence, 40 ns per flushed line) is
//! installed before anything is timed, and the process is pinned to one
//! CPU first (see [`affinity`]).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` a separate
//! traced run's per-layer metrics, timed from this crate's own code
//! around calls into each layer's public API, and writes the
//! per-request spans under `.perfbench-run/`. Every metric is printed
//! by name with its unit, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Any answer that disagrees with the benchmark's own model fails the
//! run with exit code 1.

mod affinity;
mod gen;
mod kernels;
mod layers;
mod oracle;
mod replay;
mod serve;
mod stats;
mod structures;
mod trace;

use gen::{Class, NUM_CLASSES};
use nvmsim::latency::{self, LatencyModel};
use stats::{ratio, Metrics, Samples};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["serve-write", "serve-read", "tenant-churn", "pi-kernels"];

/// Everything a run produced.
pub struct Outcome {
    /// The metrics of this run kind.
    pub metrics: Metrics,
    /// Requests (or kernel ops) attempted in the measured pass.
    pub attempted: u64,
    /// Those answered with a non-`Ok` status.
    pub failed: u64,
    /// A correctness failure, if any.
    pub error: Option<String>,
    /// Extra human-readable lines (sample counts).
    pub notes: Vec<(String, f64, &'static str)>,
    /// Traced requests, written out as spans.
    pub records: Vec<trace::Record>,
}

/// The end-to-end metrics of an untraced run, in report order.
pub fn end_to_end(
    setup_s: f64,
    samples: &mut [Samples; NUM_CLASSES],
    requests: u64,
    bytes_per_key: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    // Closed-loop throughput with no think time: requests over the sum
    // of their round trips (the client's own checking is not counted).
    let busy_ns: u64 = samples.iter().map(Samples::sum_ns).sum();
    m.put(
        "ops_per_s",
        ratio(requests as f64, busy_ns as f64 / 1e9),
        "1/s",
    );
    for c in Class::REPORTED {
        let s = &mut samples[c.idx()];
        m.put(format!("{}_p50_us", c.name()), s.quantile_us(0.5), "us");
        // The reopen tail includes synchronous msync writeback to the
        // disk under the images; it is reported per layer instead.
        if c != Class::Reopen {
            m.put(format!("{}_p99_us", c.name()), s.quantile_us(0.99), "us");
        }
    }
    m.put("nv_bytes_per_key", bytes_per_key, "B");
    m.put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    m
}

/// Sample count per class, for the human-readable lines.
pub fn class_counts(samples: &[Samples; NUM_CLASSES]) -> Vec<(String, f64, &'static str)> {
    Class::REPORTED
        .iter()
        .map(|c| {
            (
                format!("samples.{}", c.name()),
                samples[c.idx()].len() as f64,
                "count",
            )
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 || seconds > 60 {
        return Err("--seconds must be 1..=60".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let (seed, secs) = (args.seed, args.seconds);
    match (serve::shape(&args.workload), args.trace) {
        (Some(shape), false) => serve::run(&shape, seed, secs, dir),
        (Some(shape), true) => serve::run_traced(&shape, seed, secs, dir),
        (None, false) => kernels::run(seed, secs, dir),
        (None, true) => kernels::run_traced(seed, secs, dir),
    }
}

fn json_line(o: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = o
        .metrics
        .entries()
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if affinity::pin_to_one_cpu().is_none() {
        eprintln!("perfbench: could not pin to one CPU; running unpinned");
    }
    latency::set_model(LatencyModel::PAPER);
    let out_dir = PathBuf::from(".perfbench-run");
    let dir = out_dir.join(format!("data-{}", std::process::id()));
    let result = std::panic::catch_unwind(|| run(&args, &dir))
        .unwrap_or_else(|_| Err("panicked".to_string()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !outcome.records.is_empty() {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_spans(&path, &outcome.records) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!(
            "spans: {} requests -> {}",
            outcome.records.len(),
            path.display()
        );
    }
    for (name, value, unit) in outcome.metrics.entries().iter().chain(&outcome.notes) {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    let correct = outcome.error.is_none() && outcome.failed == 0;
    if let Some(e) = &outcome.error {
        eprintln!("perfbench: {e}");
    }
    println!("{}", json_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the runs print.
    #[test]
    fn benchmark_json_matches_the_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let json = bench::json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let names = |m: &Metrics| -> Vec<(String, String)> {
            m.entries()
                .iter()
                .map(|(n, _, u)| (n.clone(), u.to_string()))
                .collect()
        };
        let e2e = end_to_end(1.0, &mut Default::default(), 1, 1.0);
        assert_eq!(listed("end_to_end"), names(&e2e));
        let mut layers = Metrics::default();
        layers::Layers::default().to_metrics(&mut layers);
        assert_eq!(listed("per_layer"), names(&layers));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
