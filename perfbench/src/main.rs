//! The distvliw benchmark: one command that boots the real
//! `distvliw_serve::Server` in-process on loopback, drives one named
//! workload from this process, checks every output against independent
//! oracles, and prints each metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_figures|matrix_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --emit-spec
//! ```
//!
//! `--trace 0` runs the workload and reports the end-to-end metrics;
//! `--trace 1` runs the per-layer pass instead (see [`layers`]), which
//! calls each layer's public functions directly and times them from
//! here. The per-layer pass is the same for every workload: each traced
//! run reports every layer, and `--seed` fixes its inputs. Human-readable lines go first; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness gate makes the process exit 1. `--emit-spec` prints the
//! `BENCHMARK.json` this catalog defines.

mod layers;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

/// One metric definition of the catalog.
pub struct Def {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed regression as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Workloads listed in `BENCHMARK.json`, and why each was chosen.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "cold_figures",
        "Regenerate /fig6 /fig7 /fig9 /table4 /nobal /sweep on a fresh checked engine and seed store: \
         sched/sim/check/coherence/ir cost. 1 client thread, 1 connection.",
    ),
    (
        "matrix_churn",
        "Seeded POST /matrix stream over a cell pool 3x the cache, with a state dir: hits, inserts, \
         LRU evictions, persist appends and compaction. 1 client thread, 1 connection.",
    ),
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `latency_p50_ms` is the median latency of the workload's unit of
/// work: one six-route regeneration pass for `cold_figures`, one
/// request otherwise.
pub const END_TO_END: [Def; 3] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.24),
    e2e("throughput_rps", "req/s", "higher", 0.24),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [Def; 39] = [
    // Set-up → setup_s.
    layer("mediabench.build_suites_ms", "ms", "lower"),
    layer("mediabench.trace_parse_ms", "ms", "lower"),
    layer("core.suite_fingerprint_ms", "ms", "lower"),
    // Busy time over the cold /fig7 + /sweep replay → pass (cold_figures).
    layer("ir.profile_ms", "ms", "lower"),
    layer("coherence.pass_ms", "ms", "lower"),
    layer("sched.schedule_ms", "ms", "lower"),
    layer("check.schedule_ms", "ms", "lower"),
    layer("sim.kernel_ms", "ms", "lower"),
    // Exact replay counts and useful-work ratios.
    layer("sched.schedules", "count", "lower"),
    layer("sched.iis_tried", "count", "lower"),
    layer("sched.placement_attempts", "count", "lower"),
    layer("sched.ejections", "count", "lower"),
    layer("sched.seeded_schedules", "count", "higher"),
    layer("sched.ii_over_mii", "ratio", "lower"),
    layer("sim.kernels", "count", "lower"),
    layer("sim.cycles", "count", "lower"),
    layer("sim.host_ns_per_cycle", "ns", "lower"),
    layer("check.violations", "count", "lower"),
    layer("sim.mdc_ddgt_violations", "count", "lower"),
    // Warm path: a warm engine serving the six figure routes.
    layer("core.cell_key_ns", "ns", "lower"),
    layer("core.par_map_us", "us", "lower"),
    layer("serve.http_parse_ns", "ns", "lower"),
    layer("serve.cache_get_ns", "ns", "lower"),
    layer("serve.handle_us", "us", "lower"),
    layer("serve.json_render_us", "us", "lower"),
    layer("serve.response_render_us", "us", "lower"),
    layer("serve.conn_overhead_us", "us", "lower"),
    // Write path → throughput_rps / latency (matrix_churn).
    layer("serve.http_parse_post_ns", "ns", "lower"),
    layer("serve.cache_insert_ns", "ns", "lower"),
    layer("serve.persist_encode_us", "us", "lower"),
    layer("serve.persist_append_us", "us", "lower"),
    layer("serve.persist_compact_ms", "ms", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.cells_computed", "count", "lower"),
    layer("serve.evictions", "count", "lower"),
    layer("serve.seeded_kernels", "count", "higher"),
    layer("serve.persist_compactions", "count", "lower"),
    layer("serve.rejected_503", "count", "lower"),
    // Tracing cost every layer would pay → pass and warm latency.
    layer("obs.span_ns", "ns", "lower"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The command-line arguments of one run.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every random draw derives from.
    pub seed: u64,
    /// Measurement window.
    pub seconds: u64,
}

/// What one run found: metric values, request accounting and failed
/// correctness gates.
#[derive(Default)]
pub struct Report {
    /// Catalog metrics (`END_TO_END` or `PER_LAYER`), in report order.
    metrics: Vec<(&'static str, f64)>,
    /// Human-only figures with their unit: the end-to-end figures that
    /// only some workloads have, and diagnostics.
    notes: Vec<(&'static str, f64, &'static str)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: non-200, body mismatch or transport error.
    pub failed: u64,
    /// Failed correctness gates.
    failures: Vec<String>,
}

impl Report {
    /// Records a catalog metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a human-only figure.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// Records a failed correctness gate.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Checks `cond`, recording `msg` as a failed gate when it is false.
    pub fn gate(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.fail(msg());
        }
    }

    /// Whether every gate held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the human lines and the final JSON line; `true` when the
    /// run is correct.
    fn print(&mut self, catalog: &[Def]) -> bool {
        // A run cut short by a failed gate reports what it has.
        if !self.correct() {
            for d in catalog {
                if !self.metrics.iter().any(|(n, _)| *n == d.name) {
                    self.metrics.push((d.name, f64::NAN));
                }
            }
        }
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = catalog.iter().map(|d| d.name).collect();
        want.sort_unstable();
        assert_eq!(names, want, "a run must report exactly its catalog");

        let unit = |name: &str| {
            catalog
                .iter()
                .find(|d| d.name == name)
                .map_or("", |d| d.unit)
        };
        for (name, value) in &self.metrics {
            println!("metric {name} = {value:.6} {}", unit(name));
        }
        for (name, value, unit) in &self.notes {
            println!("  also {name} = {value:.6} {unit}");
        }
        for failure in &self.failures {
            println!("GATE FAILED: {failure}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                unit(name)
            );
        }
        json.push_str("}}");
        println!("{json}");
        self.correct()
    }
}

/// The `BENCHMARK.json` this catalog defines.
fn spec() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            d.better,
            d.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name, d.unit, d.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

const USAGE: &str = "usage: perfbench --workload <cold_figures|matrix_churn> \
                     --seed <n> --seconds <s> --trace <0|1>  |  perfbench --emit-spec";

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = match arg.as_str() {
            "--emit-spec" => {
                print!("{}", spec());
                return ExitCode::SUCCESS;
            }
            "--workload" | "--seed" | "--seconds" | "--trace" => args.next(),
            other => return usage(&format!("unknown argument `{other}`")),
        };
        let Some(value) = value else {
            return usage(&format!("{arg} needs a value"));
        };
        match arg.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            _ => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return usage(&format!("unknown workload `{workload}`"));
    }
    let args = Args {
        workload,
        seed,
        seconds,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let host_reference = stats::host_reference_ms();
    let (mut report, catalog): (Report, &[Def]) = if trace {
        (layers::run(&args), &PER_LAYER)
    } else {
        (workloads::run(&args), &END_TO_END)
    };
    // State directories are removed as their servers stop; drop the
    // (then empty) parent too.
    let _ = std::fs::remove_dir(workloads::SCRATCH_DIR);
    report.note("host_reference_ms", host_reference, "ms");
    if report.print(catalog) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}
