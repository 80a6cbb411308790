//! Golden `repro` reports: the exact stdout of `repro obs`, `repro
//! security` and `repro fig4`, checked into the workspace's
//! `tests/golden/`. Each report is a deterministic function of the cycle
//! model, so every byte is pinned: guard cycles per workload, the
//! extractor's pass-skip and chain-skip receipts, the `repro obs`
//! delta-0 line, the 21/21 security table and the Figure 4 rates.
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
