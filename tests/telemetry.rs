//! Telemetry integration: invariants the event stream and metrics must
//! satisfy over full workload runs, and a golden capture of one guarded
//! run's whole event stream (`tests/golden/events_guarded.txt`).
//!
//! Regenerate the event golden after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test telemetry
//! ```
//!
//! and explain the diff in the change that makes it.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use jitbull::{CompareConfig, DnaDatabase, Guard};
use jitbull_bench::figures::db_with;
use jitbull_chaos::{FaultInjector, FaultKind, FaultPlan, FaultSite};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::CveId;
use jitbull_telemetry::{export_text, Event, Recorder, Tier};
use jitbull_vdc::{build_database, vdc};
use jitbull_workloads::{microbenches, run_workload, serving_mix};

fn recorder() -> Arc<Mutex<Recorder>> {
    // Generous capacity so no event is dropped and counters can be
    // cross-checked against the raw stream.
    Arc::new(Mutex::new(Recorder::with_capacity(1 << 16)))
}

#[test]
fn ion_promotions_match_ion_compiles_on_a_clean_engine() {
    for w in microbenches() {
        let rec = recorder();
        let config = EngineConfig {
            collector: Some(rec.clone()),
            ..EngineConfig::default()
        };
        let m = run_workload(&w, config, None).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let rec = rec.lock().unwrap();
        let met = rec.metrics();
        // No guard, harmless code: every optimizing compile promotes.
        assert_eq!(
            met.counter("engine.compile.ion"),
            met.counter("engine.promoted.ion"),
            "{}",
            w.name
        );
        assert_eq!(met.counter("engine.promoted.ion"), m.nr_jit as u64);
        assert_eq!(met.counter("runs.clean"), 1);
        // Counters agree with the raw event stream.
        assert_eq!(rec.events().dropped(), 0);
        let promoted_events = rec
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::TierPromoted {
                        tier: Tier::Ion,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(promoted_events, met.counter("engine.promoted.ion"));
    }
}

#[test]
fn verdicts_partition_analyses_under_jitbull() {
    let (db, vulns) = db_with(4);
    for w in microbenches() {
        let rec = recorder();
        run_workload(
            &w,
            EngineConfig {
                vulns: vulns.clone(),
                collector: Some(rec.clone()),
                ..Default::default()
            },
            Some(db.clone()),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let rec = rec.lock().unwrap();
        let met = rec.metrics();
        let analyses = met.counter("guard.analyses");
        assert!(analyses > 0, "{}: guard never ran", w.name);
        // Exactly one policy verdict per guard analysis, one analysis per
        // optimizing compile round.
        assert_eq!(
            met.counter("policy.go")
                + met.counter("policy.recompile")
                + met.counter("policy.nojit"),
            analyses,
            "{}",
            w.name
        );
        assert_eq!(analyses, met.counter("engine.compile.ion"), "{}", w.name);
        // Per-slot attribution covers the whole pipeline charge.
        let slot_total: u64 = rec.slot_stats().iter().map(|s| s.cycles).sum();
        assert_eq!(slot_total, met.counter("pipeline.cycles"), "{}", w.name);
    }
}

#[test]
fn empty_db_observation_is_cycle_neutral_and_guard_silent() {
    let benches = microbenches();
    let plain = run_workload(&benches[0], EngineConfig::default(), None).unwrap();
    let rec = recorder();
    let observed = run_workload(
        &benches[0],
        EngineConfig {
            collector: Some(rec.clone()),
            ..EngineConfig::default()
        },
        Some(DnaDatabase::new()),
    )
    .unwrap();
    // Attaching a recorder must not perturb the simulated cycle model —
    // the paper's zero-overhead empty-DB property survives observation.
    assert_eq!(plain.cycles, observed.cycles);
    let rec = rec.lock().unwrap();
    let met = rec.metrics();
    // With no VDCs installed the guard and policy never run.
    assert_eq!(met.counter("guard.analyses"), 0);
    assert_eq!(
        met.counter("policy.go") + met.counter("policy.recompile") + met.counter("policy.nojit"),
        0
    );
    assert!(rec.events().iter().all(|e| !matches!(
        e,
        Event::GuardAnalyzed { .. } | Event::PolicyDecision { .. }
    )));
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
                    "  line {}:\n    golden   `{}`\n    recorded `{}`",
                    i + 1,
                    x.copied().unwrap_or("<missing>"),
                    y.copied().unwrap_or("<missing>")
                );
            }
        }
    }
    out
}

/// The complete telemetry of one guarded run, pinned byte for byte:
/// `ServeArray` on a fast-test engine guarded by CVE-2019-17026's VDC at
/// permissive thresholds (its honest false positive matches), with the
/// comparator's verdict cache and the DNA memo each poisoned once after
/// the first compile warmed them. The rendering covers every counter,
/// the per-slot attribution and every event in order, so it fixes which
/// events a compile emits, in what order and with what payloads,
/// including both poison-purge recoveries.
#[test]
fn guarded_event_stream_matches_golden() {
    let source = &serving_mix()
        .into_iter()
        .find(|w| w.name == "ServeArray")
        .expect("serving-mix workload")
        .source;
    let faults = FaultInjector::from_plan(
        FaultPlan::new(17)
            .script(FaultSite::ComparatorQuery, FaultKind::CachePoison, 1, 1)
            .script(FaultSite::ExtractQuery, FaultKind::CachePoison, 1, 1),
    );
    let db = build_database(&[vdc(CveId::Cve2019_17026)]).expect("vdc database builds");
    let rec = recorder();
    let mut engine = Engine::with_guard(
        EngineConfig {
            faults: faults.clone(),
            collector: Some(rec.clone()),
            ..EngineConfig::fast_test()
        },
        Guard::new(db, CompareConfig { thr: 1, ratio: 0.5 }),
    );
    engine.run_source_with(source).expect("script serves");
    assert_eq!(faults.tally().get("cache_poison"), 2, "both faults fired");
    let rec = rec.lock().unwrap();
    assert_eq!(rec.events().dropped(), 0);
    let actual = export_text(&rec);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events_guarded.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {} — regenerate with UPDATE_GOLDEN=1 cargo test --test telemetry",
            path.display()
        )
    });
    assert!(
        golden == actual,
        "event stream drifted from tests/golden/events_guarded.txt (intentional? regenerate \
         with UPDATE_GOLDEN=1 and explain the diff):\n{}",
        line_diff(&golden, &actual)
    );
}
