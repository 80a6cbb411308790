//! Golden cycle model: for every workload-suite script under the three
//! configurations of the paper's Figure 5 that bracket JITBULL's cost —
//! interpreter only (NoJIT), the plain JIT, and JITBULL with database #4
//! on an engine vulnerable to its four CVEs — the printed output, the
//! executed-operation count, the simulated cycles, the
//! `Nr_JIT`/`Nr_DisJIT`/`Nr_NoJIT` counts and the analysis cycles are
//! checked into `tests/golden/cycles.txt`, one line per run.
//!
//! The cycle model is the reproduction's metric, so an executor, tiering
//! or pipeline change that moves even one operation fails here with a
//! readable line diff. Regenerate after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test cycle_golden
//! ```
//!
//! and explain the diff in the change that makes it.

use std::fmt::Write as _;
use std::path::PathBuf;

use jitbull_bench::figures::db_with;
use jitbull_jit::engine::EngineConfig;
use jitbull_workloads::{all_workloads, run_workload, Measurement};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("cycles.txt")
}

fn line(config: &str, m: &Measurement) -> String {
    format!(
        "{} {config} ops={} cycles={} nr_jit={} nr_disjit={} nr_nojit={} analysis_cycles={} printed={:?}",
        m.name, m.ops, m.cycles, m.nr_jit, m.nr_disjit, m.nr_nojit, m.analysis_cycles, m.printed
    )
}

fn render() -> String {
    let (db4, vulns4) = db_with(4);
    let mut out = String::from(
        "# golden cycle model — workload x {interp, jit, jitbull4} \
         (regenerate: UPDATE_GOLDEN=1 cargo test --test cycle_golden)\n",
    );
    for w in all_workloads() {
        let runs = [
            (
                "interp",
                EngineConfig {
                    jit_enabled: false,
                    ..EngineConfig::default()
                },
                None,
            ),
            ("jit", EngineConfig::default(), None),
            (
                "jitbull4",
                EngineConfig {
                    vulns: vulns4.clone(),
                    ..EngineConfig::default()
                },
                Some(db4.clone()),
            ),
        ];
        for (config, engine, db) in runs {
            let m = run_workload(&w, engine, db)
                .unwrap_or_else(|e| panic!("{} under {config}: {e}", w.name));
            out.push_str(&line(config, &m));
            out.push('\n');
        }
    }
    out
}

/// Every differing line with its number, plus lines present on only one
/// side.
fn line_diff(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..e.len().max(a.len()) {
        match (e.get(i), a.get(i)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => {
                let _ = writeln!(
                    out,
                    "  line {}:\n    golden   `{}`\n    measured `{}`",
                    i + 1,
                    x.copied().unwrap_or("<missing>"),
                    y.copied().unwrap_or("<missing>")
                );
            }
        }
    }
    out
}

#[test]
fn workload_cycles_match_golden() {
    let actual = render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {} — regenerate with UPDATE_GOLDEN=1 cargo test --test cycle_golden",
            path.display()
        )
    });
    assert!(
        golden == actual,
        "cycle model drifted from tests/golden/cycles.txt (intentional? regenerate with \
         UPDATE_GOLDEN=1 and explain the diff):\n{}",
        line_diff(&golden, &actual)
    );
}
