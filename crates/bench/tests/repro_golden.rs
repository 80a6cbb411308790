//! Golden `repro` reports: the exact stdout of every deterministic
//! `repro` experiment, checked into the workspace's `tests/golden/`. Each
//! report is a pure function of the cycle model and the fault seeds, so
//! every byte is pinned: guard cycles per workload, the extractor's
//! pass-skip and chain-skip receipts, the `repro obs` delta-0 line, the
//! 21/21 security table, the Figure 4 rates, the Figure 6 overheads with
//! their naive-vs-indexed comparator cycles, Table I and the
//! vulnerability-window statistics, both ablations, and the chaos
//! ladder with the `chaos.*`/`recovery.*` counters its recorder saw.
//! Not pinned: `repro fig5`, `repro fuzz` (minutes per run) and `repro
//! serve` (its counters depend on host thread timing).
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release -p jitbull-bench --test repro_golden
//! ```
//!
//! and explain the diff in the change that makes it.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

fn golden_path(experiment: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("repro_{experiment}.txt"))
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
                    "  line {}:\n    golden `{}`\n    printed `{}`",
                    i + 1,
                    x.copied().unwrap_or("<missing>"),
                    y.copied().unwrap_or("<missing>")
                );
            }
        }
    }
    out
}

fn check(experiment: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(experiment)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {experiment} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let path = golden_path(experiment);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {} — regenerate with UPDATE_GOLDEN=1 cargo test -p jitbull-bench --test repro_golden",
            path.display()
        )
    });
    assert!(
        golden == actual,
        "`repro {experiment}` drifted from {} (intentional? regenerate with UPDATE_GOLDEN=1 \
         and explain the diff):\n{}",
        path.display(),
        line_diff(&golden, &actual)
    );
}

#[test]
fn repro_obs_matches_golden() {
    check("obs");
}

#[test]
fn repro_security_matches_golden() {
    check("security");
}

#[test]
fn repro_fig4_matches_golden() {
    check("fig4");
}

/// Figure 6 runs every octane workload at eight database sizes (~25 s
/// in release, several minutes unoptimized), so it runs in release only.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: ~25 s optimized")]
fn repro_fig6_matches_golden() {
    check("fig6");
}

#[test]
fn repro_table1_matches_golden() {
    check("table1");
}

#[test]
fn repro_window_matches_golden() {
    check("window");
}

#[test]
fn repro_ablation_policy_matches_golden() {
    check("ablation-policy");
}

#[test]
fn repro_chaos_matches_golden() {
    check("chaos");
}

/// The threshold sweep runs the suite at 21 comparator settings (~15 s
/// in release), so like fig6 it runs in release only.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: ~15 s optimized")]
fn repro_ablation_matches_golden() {
    check("ablation");
}
