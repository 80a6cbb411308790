//! Traced-compile corpora: the pass traces a guarded engine's Ion
//! compilations produce, replayed round by round through the same
//! public functions the engine calls (`build_mir`, traced `optimize`,
//! `Guard::analyze`, `decide`). Extractor benches and golden receipts
//! run over these.

use std::collections::HashSet;

use jitbull::{decide, CompareConfig, Decision, DnaDatabase, Guard};
use jitbull_frontend::parse_program;
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::pipeline::{optimize, slot_disableable, OptimizeOptions, N_SLOTS};
use jitbull_jit::{TierStats, VulnConfig};
use jitbull_mir::{build_mir, PassTrace};
use jitbull_vm::bytecode::FuncId;
use jitbull_vm::{compile_program, Module};
use jitbull_workloads::Workload;

/// Every traced Ion round the engine's `OptimizeMIR` loop runs for
/// `func` under `guard`: compile with the disabled slots so far, analyze,
/// and recompile while the policy says so.
pub fn ion_rounds(
    module: &Module,
    func: FuncId,
    vulns: &VulnConfig,
    guard: &Guard,
) -> Vec<PassTrace> {
    let mut traces = Vec::new();
    let mut disabled: HashSet<usize> = HashSet::new();
    for _round in 0..=N_SLOTS {
        let Ok(mir) = build_mir(module, func) else {
            break;
        };
        let options = OptimizeOptions {
            trace: true,
            disabled_slots: disabled.clone(),
            ..OptimizeOptions::default()
        };
        let result = optimize(mir, vulns, &options);
        if result.broken.is_some() {
            break;
        }
        let analysis = guard.analyze(&result.trace, N_SLOTS);
        traces.push(result.trace);
        let fresh: Vec<usize> = analysis
            .dangerous
            .into_iter()
            .filter(|s| !disabled.contains(s))
            .collect();
        match decide(fresh, slot_disableable) {
            Decision::Recompile(slots) => disabled.extend(slots),
            Decision::Go | Decision::NoJit(_) => break,
        }
    }
    traces
}

/// The traced Ion rounds of every function that a run of `w` on a
/// JITBULL-guarded engine (`db`, `vulns`) sends to the optimizing tier,
/// in the run's function order, each named `workload/function`.
///
/// # Panics
///
/// If the workload fails to parse, compile or run.
pub fn workload_rounds(
    w: &Workload,
    db: &DnaDatabase,
    vulns: &VulnConfig,
) -> Vec<(String, PassTrace)> {
    let config = EngineConfig {
        vulns: vulns.clone(),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_guard(config, Guard::new(db.clone(), CompareConfig::default()));
    let outcome = engine
        .run_source_with(&w.source)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let program = parse_program(&w.source).expect("workload parses");
    let module = compile_program(&program).expect("workload compiles");
    let guard = Guard::new(db.clone(), CompareConfig::default());
    let mut out = Vec::new();
    for stat in &outcome.stats {
        if !matches!(
            stat.tier,
            TierStats::Ion | TierStats::IonPassesDisabled | TierStats::NoIon
        ) {
            continue;
        }
        let func = module.function_id(&stat.name).expect("function exists");
        for trace in ion_rounds(&module, func, vulns, &guard) {
            out.push((format!("{}/{}", w.name, stat.name), trace));
        }
    }
    out
}
