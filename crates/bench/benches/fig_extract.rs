//! Wall-clock bench for the Δ-extractor: a first-compile workload run
//! priced under the naive Algorithm 1 reference and the incremental
//! extractor + memo, the repeat-compilation memo-hit scenario, a kernel
//! microbench of the extractor itself, and a same-run wall-clock ratio of
//! the two extractors over every traced compile of the suite. The
//! paper-grade metric is the deterministic simulated-cycle count, printed
//! alongside; wall-clock measures the host cost of running the simulator.

use jitbull::{DnaMemo, IncrementalExtractor};
use jitbull_bench::corpus::{workload_replay, workload_rounds};
use jitbull_bench::figures::db_with;
use jitbull_bench::timing::bench;
use jitbull_frontend::parse_program;
use jitbull_jit::engine::EngineConfig;
use jitbull_jit::pipeline::{optimize, OptimizeOptions, N_SLOTS};
use jitbull_jit::VulnConfig;
use jitbull_mir::build_mir;
use jitbull_vm::compile_program;
use jitbull_workloads::{all_workloads, run_workload, workload};

/// Floor on the wall-clock ratio of `extract_dna` to a cold
/// `IncrementalExtractor` over the suite's traced compiles (min of
/// samples each, same run). On a 2-vCPU Xeon VM the string-keyed
/// incremental extractor measured 3.3x and the integer one 16x, so the
/// floor rejects the former and leaves the latter a 2x margin.
const SUITE_WALL_RATIO_FLOOR: f64 = 8.0;

fn main() {
    let w = workload("Splay").expect("workload exists");
    let (db, vulns) = db_with(4);

    // First-compile path: fresh memo per run, so the incremental win is
    // pure structural diffing (unchanged passes skipped), not
    // memoization. The run's rounds are priced under the reference
    // extractor by replaying them through the oracle.
    println!("fig_extract_splay_first_compile");
    let replayed = workload_replay(&w, &db, &vulns);
    let (reference, incremental) = (
        replayed.reference_extractor_cycles(),
        replayed.production_cycles(),
    );
    bench("first_compile_inc", 2, 10, || {
        run_workload(
            &w,
            EngineConfig {
                vulns: vulns.clone(),
                memo: DnaMemo::default(),
                ..Default::default()
            },
            Some(db.clone()),
        )
        .unwrap()
    });
    let first_speedup = reference as f64 / incremental.max(1) as f64;
    println!("analysis_cycles ref={reference} inc={incremental} speedup={first_speedup:.2}x");
    assert!(
        first_speedup >= 2.0,
        "first-compile extraction speedup floor violated: {first_speedup:.2}x < 2x"
    );

    // Repeat-compilation path: one shared memo; the first run pays the
    // extractions, every later run of the same program hits the memo.
    println!("fig_extract_splay_repeat_compile");
    let memo = DnaMemo::default();
    let repeat = || {
        run_workload(
            &w,
            EngineConfig {
                vulns: vulns.clone(),
                memo: memo.clone(),
                ..Default::default()
            },
            Some(db.clone()),
        )
        .unwrap()
    };
    let cold = repeat().analysis_cycles;
    let warm = repeat().analysis_cycles;
    bench("repeat_compile_memo_warm", 2, 10, repeat);
    let repeat_speedup = cold as f64 / warm.max(1) as f64;
    println!("analysis_cycles cold={cold} memo_warm={warm} speedup={repeat_speedup:.2}x");
    assert!(
        repeat_speedup >= 2.0,
        "repeat-compilation memo speedup floor violated: {repeat_speedup:.2}x < 2x"
    );

    // Extractor kernel in isolation: one traced Ion compilation of a
    // guarded array loop, digested by each implementation.
    println!("extract_kernel_sum_loop");
    let src =
        "function f(a, n) { var t = 0; for (var i = 0; i < n; i++) { t += a[i]; } return t; }";
    let program = parse_program(src).expect("parses");
    let module = compile_program(&program).expect("compiles");
    let fid = module.function_id("f").expect("function exists");
    let mir = build_mir(&module, fid).expect("mir builds");
    let result = optimize(
        mir,
        &VulnConfig::none(),
        &OptimizeOptions {
            trace: true,
            ..Default::default()
        },
    );
    let trace = result.trace;
    bench("reference_walk", 20, 100, || {
        jitbull::extract_dna(&trace, N_SLOTS)
    });
    bench("incremental_cold", 20, 100, || {
        IncrementalExtractor::new().extract_dna(&trace, N_SLOTS)
    });
    let mut warm_extractor = IncrementalExtractor::new();
    warm_extractor.extract_dna(&trace, N_SLOTS);
    bench("incremental_warm_runs", 20, 100, || {
        warm_extractor.extract_dna(&trace, N_SLOTS)
    });
    let memo = DnaMemo::default();
    let key = jitbull::MemoKey::from_trace(&trace, N_SLOTS, 0).expect("non-empty trace");
    let (dna, _) = IncrementalExtractor::new().extract_dna(&trace, N_SLOTS);
    memo.insert(key.clone(), dna);
    bench("memo_hit", 20, 100, || {
        let key = jitbull::MemoKey::from_trace(&trace, N_SLOTS, 0).expect("non-empty trace");
        memo.lookup(&key).expect("memoized")
    });

    // Wall-clock floor: every traced Ion round of the suite under
    // JITBULL #4, digested by the reference and by a cold incremental
    // extractor per trace. A ratio of two timings taken in the same run
    // holds on a noisy host where absolute times do not.
    println!("extract_suite_traced_compiles");
    let traces: Vec<_> = all_workloads()
        .iter()
        .flat_map(|w| workload_rounds(w, &db, &vulns))
        .map(|(_, trace)| trace)
        .collect();
    let reference = bench("suite_reference", 2, 15, || {
        for t in &traces {
            std::hint::black_box(jitbull::extract_dna(t, N_SLOTS));
        }
    });
    let incremental = bench("suite_incremental_cold", 2, 15, || {
        for t in &traces {
            std::hint::black_box(IncrementalExtractor::new().extract_dna(t, N_SLOTS));
        }
    });
    let wall_ratio = reference.min().as_secs_f64() / incremental.min().as_secs_f64();
    println!(
        "traces={} wall-clock reference/incremental={wall_ratio:.2}x (floor {SUITE_WALL_RATIO_FLOOR}x)",
        traces.len()
    );
    assert!(
        wall_ratio >= SUITE_WALL_RATIO_FLOOR,
        "suite extraction wall-clock ratio floor violated: {wall_ratio:.2}x < {SUITE_WALL_RATIO_FLOOR}x"
    );
}
