//! `suite-guarded`: the 14-script workload suite under JITBULL #4.
//!
//! Each script runs start to finish in a fresh engine with the default
//! 100/1500 tier thresholds, a vulnerable engine matching DB #4, and a
//! fresh DNA memo — a cold page load. The seed shuffles the script order
//! of every pass.

use std::time::Instant;

use jitbull::DnaDatabase;
use jitbull_jit::engine::EngineConfig;
use jitbull_jit::VulnConfig;
use jitbull_workloads::{all_workloads, run_workload, Workload};

use crate::replay::{Item, Plan};
use crate::serve::Probe;
use crate::util::{geomean, median, ms, percentile, Rng, Sched, Ticks};
use crate::{metric, repeated_setup, Args, Failures, Phase};

/// `(Nr_JIT, Nr_DisJIT, Nr_NoJIT)` per script under JITBULL #4.
const EXPECTED: &str = include_str!("../expected/suite-guarded.txt");

struct Setup {
    db: DnaDatabase,
    vulns: VulnConfig,
    scripts: Vec<Workload>,
    reference: Vec<Vec<String>>,
    expected: Vec<[usize; 3]>,
}

fn guarded(vulns: &VulnConfig) -> EngineConfig {
    EngineConfig {
        vulns: vulns.clone(),
        ..EngineConfig::default()
    }
}

fn interp_only() -> EngineConfig {
    EngineConfig {
        jit_enabled: false,
        ..EngineConfig::default()
    }
}

fn expected_counts(scripts: &[Workload]) -> Result<Vec<[usize; 3]>, String> {
    let mut table = Vec::new();
    for line in EXPECTED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let nums: Result<Vec<usize>, _> = f.iter().skip(1).map(|n| n.parse()).collect();
        match (f.first(), nums) {
            (Some(name), Ok(n)) if n.len() == 3 => {
                table.push((name.to_string(), [n[0], n[1], n[2]]))
            }
            _ => return Err(format!("bad expectation line: {line}")),
        }
    }
    scripts
        .iter()
        .map(|w| {
            table
                .iter()
                .find(|(n, _)| n == w.name)
                .map(|(_, c)| *c)
                .ok_or_else(|| format!("no expectation for {}", w.name))
        })
        .collect()
}

fn setup() -> Result<Setup, String> {
    let (db, vulns) = jitbull_bench::figures::db_with(4);
    let scripts = all_workloads();
    let reference = scripts
        .iter()
        .map(|w| {
            run_workload(w, interp_only(), None)
                .map(|m| m.printed)
                .map_err(|e| format!("{} interpreter reference: {e}", w.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let expected = expected_counts(&scripts)?;
    // Warm-up: the two micro-benchmarks, guarded.
    for w in scripts.iter().take(2) {
        run_workload(w, guarded(&vulns), Some(db.clone()))
            .map_err(|e| format!("{} warm-up: {e}", w.name))?;
    }
    Ok(Setup {
        db,
        vulns,
        scripts,
        reference,
        expected,
    })
}

struct Sample {
    script: usize,
    wall_ms: f64,
    cpu: Sched,
    cycles: u64,
}

/// Runs script `i` once, guarded, and checks it: the sample if it ran,
/// and what was wrong if anything was.
fn run_once(s: &Setup, i: usize) -> (Option<Sample>, Option<String>) {
    let w = &s.scripts[i];
    let config = guarded(&s.vulns);
    let db = s.db.clone();
    let cpu0 = Sched::thread();
    let t0 = Instant::now();
    let result = run_workload(w, config, Some(db));
    let wall_ms = ms(t0);
    let cpu = Sched::thread().since(cpu0);
    match result {
        Ok(m) => {
            let counts = [m.nr_jit, m.nr_disjit, m.nr_nojit];
            let problem = if m.printed != s.reference[i] {
                Some(format!(
                    "{}: printed {:?}, interpreter {:?}",
                    w.name, m.printed, s.reference[i]
                ))
            } else if counts != s.expected[i] {
                Some(format!(
                    "{}: JIT/DisJIT/NoJIT {counts:?}, expected {:?}",
                    w.name, s.expected[i]
                ))
            } else {
                None
            };
            let sample = Sample {
                script: i,
                wall_ms,
                cpu,
                cycles: m.cycles,
            };
            (Some(sample), problem)
        }
        Err(e) => (None, Some(format!("{}: {e}", w.name))),
    }
}

/// The serving workloads' traced runs run each suite script once,
/// guarded, so the `suite.<Script>.ms` rows are measured on them too.
pub fn rows_probe() -> Result<Probe, String> {
    let s = setup()?;
    let mut failures = Failures::default();
    let mut metrics = Vec::new();
    for (i, w) in s.scripts.iter().enumerate() {
        let (sample, problem) = run_once(&s, i);
        if let Some(p) = problem {
            failures.add(|| p);
        }
        let wall_ms = sample.map_or(0.0, |x| x.wall_ms);
        metrics.push(metric(format!("suite.{}.ms", w.name), wall_ms, "ms"));
    }
    Ok(Probe {
        metrics,
        attempted: s.scripts.len() as u64,
        failures,
    })
}

pub fn run(args: &Args) -> Result<Phase, String> {
    let (s, setup_s) = repeated_setup(3, setup)?;
    let n = s.scripts.len();
    let mut rng = Rng::stream(args.seed, 1);
    let mut order: Vec<usize> = (0..n).collect();
    let mut samples: Vec<Sample> = Vec::new();
    let mut failures = Failures::default();
    let mut passes = 0u32;

    let start = Instant::now();
    let sched0 = Sched::thread();
    let ticks0 = Ticks::now();
    loop {
        // Whole passes only, so every script has the same sample count;
        // stop before a pass that would overrun the budget.
        let elapsed = start.elapsed().as_secs_f64();
        if passes > 0 && elapsed + elapsed / f64::from(passes) > args.seconds {
            break;
        }
        rng.shuffle(&mut order);
        for &i in &order {
            let (sample, problem) = run_once(&s, i);
            samples.extend(sample);
            if let Some(p) = problem {
                failures.add(|| p);
            }
        }
        passes += 1;
    }
    let window_s = start.elapsed().as_secs_f64();
    let sched = Sched::thread().since(sched0);
    let steal_pct = Ticks::now().steal_pct_since(ticks0);

    let per_script = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let v: Vec<f64> = samples.iter().filter(|x| x.script == i).map(f).collect();
                median(&v)
            })
            .collect()
    };
    let script_ms = per_script(&|x| x.wall_ms);
    let cycles = per_script(&|x| x.cycles as f64);
    let attempted = (passes as usize * n) as u64;

    let mut metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("script_ms.geomean", geomean(&script_ms), "ms"),
        metric("sim_cycles.geomean", geomean(&cycles), "cycles"),
        metric("req_per_s", samples.len() as f64 / window_s, "req/s"),
        // Latency percentiles rank the 14 per-script medians: over raw
        // runs the median rank falls between two scripts' groups of runs
        // and jumps between them from run to run.
        metric("latency_ms.p50", percentile(&script_ms, 50.0), "ms"),
        metric("latency_ms.p90", percentile(&script_ms, 90.0), "ms"),
        metric("latency_ms.p99", percentile(&script_ms, 99.0), "ms"),
        metric(
            "ok_frac",
            (attempted - failures.count) as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", crate::util::peak_rss_mb(), "MB"),
    ];
    for (w, v) in s.scripts.iter().zip(&script_ms) {
        metrics.push(metric(format!("suite.{}.ms", w.name), *v, "ms"));
    }
    let records = samples
        .iter()
        .map(|x| {
            format!(
                "{{\"script\":\"{}\",\"wall_ms\":{},\"cpu_ms\":{},\"runqueue_wait_ms\":{},\"cycles\":{}}}",
                s.scripts[x.script].name,
                x.wall_ms,
                x.cpu.cpu_ns as f64 / 1e6,
                x.cpu.wait_ns as f64 / 1e6,
                x.cycles
            )
        })
        .collect();

    let items = s
        .scripts
        .iter()
        .zip(&s.reference)
        .map(|(w, reference)| Item {
            name: w.name,
            source: w.source.clone(),
            db: 0,
            reference: reference.clone(),
            warmup: false,
        })
        .collect();
    Ok(Phase {
        attempted,
        failed: failures.count,
        problems: failures.problems,
        metrics,
        window_s,
        sched,
        steal_pct,
        records,
        plan: Plan {
            items,
            dbs: vec![s.db],
            config: guarded(&s.vulns),
            shared: false,
        },
    })
}
