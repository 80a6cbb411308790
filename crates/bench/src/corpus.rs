//! Traced-compile corpora: the pass traces a guarded engine's Ion
//! compilations produce, replayed round by round through the same
//! public functions the engine calls (`build_mir`, traced `optimize`,
//! `Guard::analyze`, `decide`). Extractor benches and golden receipts
//! run over these, and [`replay`] checks a production engine run round
//! by round against the normative oracles and prices it under them.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use jitbull::{decide, Analysis, CompareConfig, Decision, DnaDatabase, Guard};
use jitbull_frontend::parse_program;
use jitbull_jit::engine::{Engine, EngineConfig, EngineOutcome};
use jitbull_jit::pipeline::{optimize, slot_disableable, OptimizeOptions, N_SLOTS};
use jitbull_jit::{TierStats, VulnConfig};
use jitbull_mir::{build_mir, PassTrace};
use jitbull_telemetry::{Collector, Event};
use jitbull_vm::bytecode::FuncId;
use jitbull_vm::{compile_program, Module, VmError};
use jitbull_workloads::Workload;

/// Every traced Ion round the engine's `OptimizeMIR` loop runs for
/// `func` under `guard`, with the guard's analysis of it: compile with
/// the disabled slots so far, analyze, and recompile while the policy
/// says so.
pub fn ion_rounds(
    module: &Module,
    func: FuncId,
    vulns: &VulnConfig,
    guard: &Guard,
) -> Vec<(PassTrace, Analysis)> {
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
        let fresh: Vec<usize> = analysis
            .dangerous
            .iter()
            .copied()
            .filter(|s| !disabled.contains(s))
            .collect();
        traces.push((result.trace, analysis));
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
        for (trace, _) in ion_rounds(&module, func, vulns, &guard) {
            out.push((format!("{}/{}", w.name, stat.name), trace));
        }
    }
    out
}

/// Simulated analysis cycles of one production Ion round, next to what
/// the normative oracles charge for the same round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundCycles {
    /// The engine's charge: memo and incremental extractor, indexed
    /// comparator ([`Guard::analyze`]).
    pub production: u64,
    /// The extraction share of `production`.
    pub production_extract: u64,
    /// The oracles' charge: Algorithm 1 and the naive Algorithm 2 loop
    /// ([`Guard::analyze_reference`]).
    pub oracle: u64,
    /// The extraction share of `oracle`.
    pub oracle_extract: u64,
}

impl RoundCycles {
    /// The round with the naive comparator behind the production
    /// extractor.
    pub fn reference_comparator(&self) -> u64 {
        self.production_extract + self.oracle - self.oracle_extract
    }

    /// The round with the naive extractor in front of the indexed
    /// comparator.
    pub fn reference_extractor(&self) -> u64 {
        self.oracle_extract + self.production - self.production_extract
    }
}

/// A production engine run and its Ion rounds, replayed through the
/// oracles.
#[derive(Debug)]
pub struct Replay {
    /// What the engine run returned.
    pub outcome: Result<EngineOutcome, VmError>,
    /// Every guard analysis of the run, in compile order.
    pub rounds: Vec<RoundCycles>,
}

impl Replay {
    /// Analysis cycles the engine charged (its `analysis_cycles`).
    pub fn production_cycles(&self) -> u64 {
        self.rounds.iter().map(|r| r.production).sum()
    }

    /// Analysis cycles of the same run with the naive comparator.
    pub fn reference_comparator_cycles(&self) -> u64 {
        self.rounds
            .iter()
            .map(RoundCycles::reference_comparator)
            .sum()
    }

    /// Analysis cycles of the same run with the naive extractor.
    pub fn reference_extractor_cycles(&self) -> u64 {
        self.rounds
            .iter()
            .map(RoundCycles::reference_extractor)
            .sum()
    }
}

/// Keeps each [`Event::GuardAnalyzed`] as (function, cost), in order.
#[derive(Debug, Default)]
struct GuardRounds(Vec<(String, u64)>);

impl Collector for GuardRounds {
    fn record(&mut self, event: Event) {
        if let Event::GuardAnalyzed {
            function,
            cost_cycles,
            ..
        } = event
        {
            self.0.push((function, cost_cycles));
        }
    }
}

/// Runs `source` once on an engine guarded by `db`, then replays the
/// run's Ion rounds, function by function in the engine's compile order,
/// through a guard set up the way [`Engine::with_guard`] sets one up
/// (fresh DNA memo, keyed by the vulnerability fingerprint). The
/// extractor's and the index's costs depend on the order they see
/// traces in, so only that order reproduces the engine's charges.
///
/// Each round is also analysed by [`Guard::analyze_reference`]. Every
/// round's verdict is the oracle's, so an engine running either naive
/// implementation would take exactly the production run's path, and the
/// returned costs price the run under it exactly. `config.memo` must be
/// fresh.
///
/// # Panics
///
/// If a replayed round costs other than the engine charged, or its
/// dangerous slots, matches or DNA differ from the oracles'.
pub fn replay(
    source: &str,
    mut config: EngineConfig,
    db: &DnaDatabase,
    compare: CompareConfig,
) -> Replay {
    let vulns = config.vulns.clone();
    let events = Arc::new(Mutex::new(GuardRounds::default()));
    config.collector = Some(events.clone());
    let mut engine = Engine::with_guard(config, Guard::new(db.clone(), compare));
    let outcome = engine.run_source_with(source);
    let engine_rounds = std::mem::take(&mut events.lock().expect("rounds lock").0);

    let program = parse_program(source).expect("source parses");
    let module = compile_program(&program).expect("source compiles");
    let mut guard = Guard::new(db.clone(), compare);
    guard.set_extract_context(vulns.fingerprint());
    let mut functions: Vec<&str> = Vec::new();
    for (f, _) in &engine_rounds {
        if !functions.contains(&f.as_str()) {
            functions.push(f);
        }
    }
    let mut replayed = Vec::new();
    let mut rounds = Vec::new();
    for f in functions {
        let func = module.function_id(f).expect("analysed function exists");
        for (trace, production) in ion_rounds(&module, func, &vulns, &guard) {
            let oracle = guard.analyze_reference(&trace, N_SLOTS);
            assert_eq!(
                production.dangerous, oracle.dangerous,
                "{f}: dangerous slots"
            );
            assert_eq!(production.matches, oracle.matches, "{f}: matches");
            assert!(
                production.dna == oracle.dna,
                "{f}: DNA differs from the oracle's"
            );
            replayed.push((f.to_owned(), production.cost_cycles));
            rounds.push(RoundCycles {
                production: production.cost_cycles,
                production_extract: production.extract_cycles,
                oracle: oracle.cost_cycles,
                oracle_extract: oracle.extract_cycles,
            });
        }
    }
    assert_eq!(
        replayed, engine_rounds,
        "replayed (function, cost) rounds differ from the engine's"
    );
    Replay { outcome, rounds }
}

/// [`replay`] of a workload on an engine at default thresholds with
/// `vulns`, guarded by `db` at the default comparator thresholds.
///
/// # Panics
///
/// As [`replay`], and if the workload fails to run.
pub fn workload_replay(w: &Workload, db: &DnaDatabase, vulns: &VulnConfig) -> Replay {
    let config = EngineConfig {
        vulns: vulns.clone(),
        ..EngineConfig::default()
    };
    let r = replay(&w.source, config, db, CompareConfig::default());
    if let Err(e) = &r.outcome {
        panic!("{}: {e}", w.name);
    }
    r
}
