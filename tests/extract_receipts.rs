//! Golden extractor receipts: one warm `IncrementalExtractor` digests a
//! fixed corpus of traced compilations, and the simulated cost and skip
//! counts of every trace, plus the extractor's lifetime counters, are
//! checked into `tests/golden/extract_receipts.txt`.
//!
//! The corpus, in order: every traced Ion round of every suite and
//! serving-mix workload under JITBULL #4, the trigger functions of every
//! VDC catalog PoC (each on an engine carrying its own CVE, analyzed
//! against database #4), and a seeded set of fuzzer programs under
//! JITBULL #4. The receipts depend on the extractor's warm state
//! (enumeration reuse, run-window cache), so any change to how it
//! proves passes empty or reuses work shows up here line by line, while
//! `tests/extract_differential.rs` holds its DNA to the oracle.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test extract_receipts
//! ```
//!
//! and explain the diff in the change that makes it.

use std::fmt::Write as _;
use std::path::PathBuf;

use jitbull::{extract_dna, CompareConfig, Guard, IncrementalExtractor};
use jitbull_bench::corpus::{ion_rounds, workload_rounds};
use jitbull_bench::figures::db_with;
use jitbull_frontend::parse_program;
use jitbull_fuzzer::{generate, GenConfig};
use jitbull_jit::pipeline::N_SLOTS;
use jitbull_jit::VulnConfig;
use jitbull_mir::PassTrace;
use jitbull_vm::compile_program;

/// Seeded fuzzer programs in the corpus.
const FUZZ_SEEDS: u64 = 32;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("extract_receipts.txt")
}

/// Every traced Ion round of `functions` in `source`.
fn source_rounds(
    tag: &str,
    source: &str,
    functions: &[String],
    vulns: &VulnConfig,
    guard: &Guard,
) -> Vec<(String, PassTrace)> {
    let program = parse_program(source).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let module = compile_program(&program).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let mut out = Vec::new();
    for name in functions {
        let func = module.function_id(name).expect("function exists");
        for trace in ion_rounds(&module, func, vulns, guard) {
            out.push((format!("{tag}/{name}"), trace));
        }
    }
    out
}

fn corpus() -> Vec<(String, PassTrace)> {
    let (db4, vulns4) = db_with(4);
    let mut workloads = jitbull_workloads::all_workloads();
    workloads.extend(jitbull_workloads::serving_mix());
    let mut out = Vec::new();
    for w in &workloads {
        out.extend(workload_rounds(w, &db4, &vulns4));
    }
    let guard = Guard::new(db4, CompareConfig::default());
    for v in jitbull_vdc::all_vdcs() {
        let vulns = VulnConfig::with([v.cve]);
        out.extend(source_rounds(
            &v.name,
            &v.source,
            &v.trigger_functions,
            &vulns,
            &guard,
        ));
    }
    for seed in 0..FUZZ_SEEDS {
        let source = generate(&GenConfig {
            seed,
            ..GenConfig::default()
        });
        out.extend(source_rounds(
            &format!("fuzz{seed}"),
            &source,
            &["hot".to_owned()],
            &vulns4,
            &guard,
        ));
    }
    out
}

fn render() -> String {
    let mut out = String::from(
        "# golden extractor receipts — one warm IncrementalExtractor over the traced corpus \
         (regenerate: UPDATE_GOLDEN=1 cargo test --test extract_receipts)\n\
         # name cost passes=enumerated/skipped chains=enumerated/skipped\n",
    );
    let mut extractor = IncrementalExtractor::new();
    for (name, trace) in corpus() {
        let (dna, r) = extractor.extract_dna(&trace, N_SLOTS);
        assert_eq!(
            dna,
            extract_dna(&trace, N_SLOTS),
            "{name}: incremental DNA differs from extract_dna"
        );
        let _ = writeln!(
            out,
            "{name} cost={} passes={}/{} chains={}/{}",
            r.cost_cycles,
            r.passes_enumerated,
            r.passes_skipped,
            r.chains_enumerated,
            r.chains_skipped
        );
    }
    let _ = writeln!(
        out,
        "stats {:?} interned_chains={}",
        extractor.stats(),
        extractor.interned_chains()
    );
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
                    "  line {}:\n    golden    `{}`\n    extracted `{}`",
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
fn extractor_receipts_match_golden() {
    let actual = render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {} — regenerate with UPDATE_GOLDEN=1 cargo test --test extract_receipts",
            path.display()
        )
    });
    assert!(
        golden == actual,
        "extractor receipts drifted from tests/golden/extract_receipts.txt (intentional? \
         regenerate with UPDATE_GOLDEN=1 and explain the diff):\n{}",
        line_diff(&golden, &actual)
    );
}
