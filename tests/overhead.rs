//! Figure-5/6 reproduction bounds: JITBULL's overhead properties.

use jitbull_bench::corpus::workload_replay;
use jitbull_bench::figures::{db_with, fig5, fig6, fig6_comparator};
use jitbull_workloads::octane_analogues;

#[test]
fn fig5_overhead_shapes_match_paper() {
    let rows = fig5();
    for r in &rows {
        // Paper §VI-C: an empty DB costs nothing.
        assert_eq!(
            r.jitbull_0, r.jit,
            "{}: empty-DB JITBULL must be free",
            r.name
        );
        // JITBULL's overhead (1-20 % in the paper; we allow a bit of
        // headroom) is far below disabling the JIT.
        let o1 = r.overhead_pct(r.jitbull_1);
        let o4 = r.overhead_pct(r.jitbull_4);
        assert!(
            (0.0..30.0).contains(&o1),
            "{}: #1 overhead {o1:.1}%",
            r.name
        );
        assert!(
            (-5.0..35.0).contains(&o4),
            "{}: #4 overhead {o4:.1}%",
            r.name
        );
        let nojit = r.overhead_pct(r.nojit);
        assert!(
            nojit > 45.0,
            "{}: NoJIT should be drastically slower, got {nojit:.1}%",
            r.name
        );
        assert!(
            nojit > 3.0 * o4.max(1.0),
            "{}: JITBULL ({o4:.1}%) must beat NoJIT ({nojit:.1}%) clearly",
            r.name
        );
    }
}

#[test]
fn fig6_overhead_flattens_with_db_size() {
    // Run the scalability sweep on a subset to keep the test fast.
    let workloads: Vec<_> = octane_analogues()
        .into_iter()
        .filter(|w| matches!(w.name, "Splay" | "Richards" | "Crypto"))
        .collect();
    let rows = fig6(&workloads);
    for r in &rows {
        let o1 = r.overhead_pct(1);
        let o8 = r.overhead_pct(8);
        // Paper: max 22 %, growth flattens beyond #4.
        assert!(o8 < 35.0, "{}: #8 overhead {o8:.1}%", r.name);
        assert!(
            o8 >= o1 - 6.0,
            "{}: overhead collapsed unexpectedly",
            r.name
        );
        let o4 = r.overhead_pct(4);
        let tail_growth = o8 - o4;
        assert!(
            tail_growth.abs() < 10.0,
            "{}: overhead did not stabilize beyond #4 ({tail_growth:.1}%)",
            r.name
        );
    }
}

#[test]
fn db_construction_is_deterministic() {
    let (a, _) = db_with(4);
    let (b, _) = db_with(4);
    assert_eq!(a, b);
}

/// The indexed comparator must beat the naive reference loop once the
/// database is non-trivial (acceptance: DB >= 8 entries). The replay
/// checks every round's verdicts and DNA against the oracles, so a
/// reference-comparator engine would run the same path and program.
#[test]
fn indexed_comparator_beats_reference_at_db8() {
    let (db, vulns) = db_with(8);
    for w in &octane_analogues() {
        let r = workload_replay(w, &db, &vulns);
        let (reference, indexed) = (r.reference_comparator_cycles(), r.production_cycles());
        assert!(
            indexed < reference,
            "{}: indexed {indexed} >= reference {reference} analysis cycles",
            w.name,
        );
    }
}

/// Release-profile smoke run of the full Figure-6 comparator sweep (the
/// CI `--ignored` job): indexed must win at every workload for DB >= 8.
#[test]
#[ignore = "slow: full fig6 comparator sweep, run via cargo test --release -- --ignored"]
fn fig6_comparator_sweep_smoke() {
    let sizes = [1usize, 2, 4, 8];
    let rows = fig6_comparator(&octane_analogues(), &sizes);
    assert!(!rows.is_empty());
    for r in &rows {
        let (reference, indexed) = r.cycles[sizes.len() - 1];
        assert!(
            indexed < reference,
            "{}: indexed {indexed} >= reference {reference} at #8",
            r.name
        );
        // Speedup grows (or at least does not regress badly) with DB size.
        assert!(r.speedup(sizes.len() - 1) > 1.0, "{}", r.name);
    }
}
