//! Wall-clock benchmark for the JITBULL reproduction.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <suite-guarded|serve-unique|serve-swap> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures one workload end to end and prints
//! the end-to-end metrics; with `--trace 1` it measures the same way and
//! then replays a sample of the workload's inputs layer by layer, timing
//! each public entry point in spans, and prints the per-layer metrics.
//! Every line before the last is a human-readable report; the last line
//! is one JSON object. `README.md` explains every metric.

mod gen;
mod replay;
mod serve;
mod suite;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use util::{json_num, json_str, Sched};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("script_ms.geomean", "ms"),
    ("sim_cycles.geomean", "cycles"),
    ("req_per_s", "req/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` (followed by one
/// `suite.<Script>.ms` row per suite script).
const PER_LAYER: &[(&str, &str)] = &[
    ("latency_ms.p99", "ms"),
    ("frontend.parse_ms", "ms"),
    ("vm.bytecode_ms", "ms"),
    ("mir.build_ms", "ms"),
    ("mir.instrs", "count"),
    ("jit.ion_compiles", "count"),
    ("jit.optimize_ms", "ms"),
    ("jit.trace_ms", "ms"),
    ("jit.snapshot_instrs", "count"),
    ("lir.compile_ms", "ms"),
    ("extract.ms", "ms"),
    ("extract.reference_ms", "ms"),
    ("extract.memo_hit_ratio", "ratio"),
    ("extract.chains", "count"),
    ("compare.ms", "ms"),
    ("compare.index_rebuild_ms", "ms"),
    ("compare.cache_hit_ratio", "ratio"),
    ("guard.analyze_ms", "ms"),
    ("policy.go", "count"),
    ("policy.recompile", "count"),
    ("policy.nojit", "count"),
    ("vm.interp_only_ms", "ms"),
    ("vm.baseline_only_ms", "ms"),
    ("exec.jit_ms", "ms"),
    ("exec.guarded_ms", "ms"),
    ("guard.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("pool.queue_wait_ms.p50", "ms"),
    ("pool.queue_wait_ms.p99", "ms"),
    ("pool.run_ms.p50", "ms"),
    ("pool.run_ms.p99", "ms"),
    ("pool.swap_publish_ms", "ms"),
    ("pool.post_swap_run_ms.p50", "ms"),
    ("pool.rejected", "count"),
    ("pool.degraded", "count"),
    ("pool.gen_late_ms.p99", "ms"),
    ("failed_frac", "ratio"),
    ("host.runqueue_wait_pct", "%"),
    ("host.steal_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SuiteGuarded,
    ServeUnique,
    ServeSwap,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "suite-guarded" => Some(Workload::SuiteGuarded),
            "serve-unique" => Some(Workload::ServeUnique),
            "serve-swap" => Some(Workload::ServeSwap),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SuiteGuarded => "suite-guarded",
            Workload::ServeUnique => "serve-unique",
            Workload::ServeSwap => "serve-swap",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: jitbull-wallbench --workload <suite-guarded|serve-unique|serve-swap> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one end-to-end phase produced.
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// End-to-end metrics plus the per-layer metrics this phase measures.
    pub metrics: Vec<Metric>,
    /// Wall time and scheduler time of the timed window, and the share of
    /// the machine's CPU time the hypervisor stole during it.
    pub window_s: f64,
    pub sched: Sched,
    pub steal_pct: f64,
    /// Per-operation records for the output file, one JSON object each.
    pub records: Vec<String>,
    /// Inputs for the traced replay.
    pub plan: replay::Plan,
}

/// Failure bookkeeping shared by the workloads.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub problems: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, what: impl FnOnce() -> String) {
        self.count += 1;
        if self.problems.len() < 8 {
            self.problems.push(what());
        }
    }
}

/// Runs `setup` `repeats` times, dropping all but the last result, and
/// returns it with the median set-up time in seconds.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one setup"), util::median(&times)))
}

fn host_facts(args: &Args, load_start: &str) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"rustc\":{},\
         \"commit\":{},\"profile\":{},\"loadavg_start\":{},\"loadavg_end\":{}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        util::nproc(),
        json_str(env!("WALLBENCH_RUSTC")),
        json_str(env!("WALLBENCH_COMMIT")),
        json_str(env!("WALLBENCH_PROFILE")),
        json_str(load_start),
        json_str(&util::loadavg()),
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Picks the metrics named in `wanted` from `have`, in `wanted` order.
fn select(have: &[Metric], wanted: &[(String, &'static str)]) -> Result<Vec<Metric>, String> {
    wanted
        .iter()
        .map(|(name, unit)| match have.iter().find(|m| &m.name == name) {
            Some(m) if m.unit == *unit => Ok(m.clone()),
            _ => Err(format!("metric {name} ({unit}) was not measured")),
        })
        .collect()
}

fn wanted(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
    }
    let mut list: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for w in jitbull_workloads::all_workloads() {
        list.push((format!("suite.{}.ms", w.name), "ms"));
    }
    list
}

fn run(args: &Args) -> Result<String, String> {
    let load_start = util::loadavg();
    let phase = match args.workload {
        Workload::SuiteGuarded => suite::run(args)?,
        Workload::ServeUnique => serve::run_unique(args)?,
        Workload::ServeSwap => serve::run_swap(args)?,
    };
    let mut attempted = phase.attempted;
    let mut failed = phase.failed;
    let mut problems = phase.problems.clone();
    let mut all = phase.metrics.clone();
    all.push(metric(
        "host.runqueue_wait_pct",
        phase.sched.wait_pct(),
        "%",
    ));
    all.push(metric("host.steal_pct", phase.steal_pct, "%"));
    let mut spans_file = None;
    if args.trace {
        let replayed = replay::run(&phase.plan);
        attempted += replayed.attempted;
        failed += replayed.failed;
        problems.extend(replayed.problems);
        all.extend(replayed.metrics);
        spans_file = Some(replayed.spans_jsonl);
        // Short probes measure the layers this workload does not
        // exercise, so every per-layer metric is a measurement.
        let probes = match args.workload {
            Workload::SuiteGuarded => vec![serve::suite_pool_probe()?],
            Workload::ServeUnique => {
                vec![suite::rows_probe()?, serve::unique_swap_probe(args.seed)?]
            }
            Workload::ServeSwap => vec![suite::rows_probe()?],
        };
        for p in probes {
            attempted += p.attempted;
            failed += p.failures.count;
            problems.extend(p.failures.problems);
            all.extend(p.metrics);
        }
    }
    all.push(metric(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));

    let host = host_facts(args, &load_start);
    println!("# host {host}");
    println!(
        "# timed window: wall {:.3} s, cpu {:.3} s, run-queue wait {:.3} s ({:.2}%), steal {:.2}%",
        phase.window_s,
        phase.sched.cpu_ns as f64 / 1e9,
        phase.sched.wait_ns as f64 / 1e9,
        phase.sched.wait_pct(),
        phase.steal_pct
    );
    println!("# attempted {attempted}, failed {failed}");
    for p in &problems {
        println!("# failure: {p}");
    }
    println!("# {:<32} {:>16}  unit", "metric", "value");
    for m in &all {
        println!("# {:<32} {:>16.6}  {}", m.name, m.value, m.unit);
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        let mut doc = String::new();
        let _ = writeln!(
            doc,
            "{{\"host\":{host},\"attempted\":{attempted},\"failed\":{failed},\"problems\":[{}],\
             \"window\":{{\"wall_s\":{},\"cpu_s\":{},\"runqueue_wait_s\":{},\"steal_pct\":{}}},\"metrics\":{},\"records\":[{}]}}",
            problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(","),
            json_num(phase.window_s),
            json_num(phase.sched.cpu_ns as f64 / 1e9),
            json_num(phase.sched.wait_ns as f64 / 1e9),
            json_num(phase.steal_pct),
            metrics_json(&all),
            phase.records.join(",")
        );
        std::fs::write(format!("{out_dir}/{stem}.json"), doc)?;
        if let Some(spans) = &spans_file {
            std::fs::write(format!("{out_dir}/{stem}.spans.jsonl"), spans)?;
        }
        Ok(())
    });
    match written {
        Ok(()) => println!("# details in {out_dir}/{stem}.json"),
        Err(e) => println!("# could not write {out_dir}: {e}"),
    }

    let chosen = select(&all, &wanted(args.trace))?;
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(&chosen)
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-swap --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeSwap);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve-swap --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload serve-swap --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        for trace in [false, true] {
            let names = wanted(trace);
            let mut sorted: Vec<_> = names.iter().map(|(n, _)| n.clone()).collect();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len());
        }
    }
}
