//! The traced per-layer replay — the only file that calls layer entry
//! points below `run_workload`, `Engine` and `Pool`.
//!
//! For each replayed request the replay parses and compiles the script,
//! runs it under four tier configurations, and then recompiles each hot
//! function the guarded run sent to the optimizing tier, round by round,
//! through the same public functions the engine calls: `build_mir`,
//! `optimize` (tracing off, then on), the guard's `analyze`, the DNA memo
//! in front of the incremental extractor, the `extract_dna` oracle, the
//! comparator index, `decide`, and `jitbull_lir::compile`. The disabled
//! slots reached this way must equal the ones the guarded run reported in
//! `FunctionStats`.
//!
//! Every call sits in a span carrying the request id and its parent
//! span's id. Spans stay in memory until the end; layer metrics are
//! self times (a span's duration minus its children's) averaged over the
//! measured requests.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

use jitbull::{
    decide, extract_dna, ComparatorIndex, CompareConfig, Decision, DnaDatabase, DnaMemo, Guard,
    IncrementalExtractor, IndexConfig, MemoKey,
};
use jitbull_jit::engine::{Engine, EngineConfig, EngineOutcome};
use jitbull_jit::pipeline::{slot_disableable, N_SLOTS};
use jitbull_jit::{optimize, OptimizeOptions, TierStats};
use jitbull_vm::Module;
use jitbull_workloads::{run_workload, Workload};

use crate::{metric, Failures, Metric};

/// One replayed request.
#[derive(Debug, Clone)]
pub struct Item {
    pub name: &'static str,
    pub source: String,
    /// Index into [`Plan::dbs`] of the database in force.
    pub db: usize,
    /// What an interpreter-only run prints.
    pub reference: Vec<String>,
    /// Warm-up items fill caches and are left out of the metrics.
    pub warmup: bool,
}

/// What to replay.
#[derive(Debug, Clone)]
pub struct Plan {
    pub items: Vec<Item>,
    pub dbs: Vec<DnaDatabase>,
    /// The engine configuration the end-to-end run used.
    pub config: EngineConfig,
    /// `true`: caches persist across items, as in a pool worker (guard
    /// and comparator index until the database changes, DNA memo for
    /// good). `false`: every item starts cold, as in a fresh engine.
    pub shared: bool,
}

pub struct Replayed {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub spans_jsonl: String,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    parent: usize,
    request: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Span ids are positions + 1; parent 0 is the
/// root.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: usize,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len() + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now();
        self.spans.push(Span {
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id - 1].end_ns = self.now();
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                children[s.parent - 1] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }
}

/// Counts over the measured requests.
#[derive(Debug, Default)]
struct Counts {
    requests: u64,
    ion_compiles: u64,
    mir_instrs: u64,
    snapshot_instrs: u64,
    chains: u64,
    memo_lookups: u64,
    memo_hits: u64,
    queries: u64,
    cache_hits: u64,
    go: u64,
    recompile: u64,
    nojit: u64,
    guarded_untraced_ns: u64,
    guarded_traced_ns: u64,
}

/// Caches a pool worker keeps between requests.
struct Warm {
    db: usize,
    engine_guards: [Option<Guard>; 2],
    engine_memos: [DnaMemo; 2],
    analyze_guard: Guard,
    analyze_memo: DnaMemo,
    memo: DnaMemo,
    extractor: IncrementalExtractor,
    index: ComparatorIndex,
    rebuild_due: bool,
}

impl Warm {
    fn new(plan: &Plan, db: usize) -> Warm {
        let analyze_memo = DnaMemo::default();
        Warm {
            db,
            engine_guards: [None, None],
            engine_memos: [DnaMemo::default(), DnaMemo::default()],
            analyze_guard: analyze_guard(plan, db, &analyze_memo),
            analyze_memo,
            memo: DnaMemo::default(),
            extractor: IncrementalExtractor::new(),
            index: ComparatorIndex::new(IndexConfig::default()),
            rebuild_due: true,
        }
    }

    /// A database swap drops what a worker drops: guards, extractor
    /// state, and the comparator index. The DNA memos survive.
    fn swap(&mut self, plan: &Plan, db: usize) {
        self.db = db;
        self.engine_guards = [None, None];
        self.analyze_guard = analyze_guard(plan, db, &self.analyze_memo);
        self.extractor = IncrementalExtractor::new();
        self.index = ComparatorIndex::new(IndexConfig::default());
        self.rebuild_due = true;
    }
}

/// A guard set up the way `Engine::with_guard` sets one up.
fn analyze_guard(plan: &Plan, db: usize, memo: &DnaMemo) -> Guard {
    let mut guard = Guard::new(plan.dbs[db].clone(), CompareConfig::default());
    guard.set_dna_memo(memo.clone());
    guard.set_extract_context(plan.config.vulns.fingerprint());
    guard
}

struct Replayer<'p> {
    plan: &'p Plan,
    tracer: Tracer,
    counts: Counts,
    rebuild_ns: Vec<u64>,
}

impl Replayer<'_> {
    /// Runs `item` guarded on engine `k` (0 untraced, 1 traced) with the
    /// worker's warm guard.
    fn guarded(
        &mut self,
        warm: &mut Warm,
        item: &Item,
        k: usize,
    ) -> (Result<EngineOutcome, String>, u64) {
        let config = EngineConfig {
            memo: warm.engine_memos[k].clone(),
            ..self.plan.config.clone()
        };
        let guard = warm.engine_guards[k].take().unwrap_or_else(|| {
            Guard::new(self.plan.dbs[warm.db].clone(), CompareConfig::default())
        });
        let mut engine = Engine::with_guard(config, guard);
        let span = (k == 1).then(|| self.tracer.open("run.guarded"));
        let t0 = Instant::now();
        let out = engine.run_source_with(&item.source);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(id) = span {
            self.tracer.close(id);
        }
        warm.engine_guards[k] = engine.into_guard();
        (out.map_err(|e| e.to_string()), ns)
    }

    fn item(&mut self, warm: &mut Warm, index: usize, item: &Item, f: &mut Vec<String>) {
        let measured = !item.warmup;
        let t = &mut self.tracer;
        let program = match t.timed("frontend.parse", || {
            jitbull_frontend::parse_program(&item.source)
        }) {
            Ok(p) => p,
            Err(e) => return f.push(format!("parse: {e}")),
        };
        let module = match t.timed("vm.bytecode", || jitbull_vm::compile_program(&program)) {
            Ok(m) => m,
            Err(e) => return f.push(format!("bytecode: {e}")),
        };

        let w = Workload {
            name: item.name,
            source: item.source.clone(),
        };
        let tiers: [(&'static str, EngineConfig); 3] = [
            (
                "run.interp",
                EngineConfig {
                    jit_enabled: false,
                    ..self.plan.config.clone()
                },
            ),
            (
                "run.baseline",
                EngineConfig {
                    ion_threshold: u64::MAX,
                    ..self.plan.config.clone()
                },
            ),
            ("run.jit", self.plan.config.clone()),
        ];
        for (span, config) in tiers {
            match t.timed(span, || run_workload(&w, config, None)) {
                Ok(m) if m.printed == item.reference => {}
                Ok(m) => f.push(format!(
                    "{span}: printed {:?}, interpreter {:?}",
                    m.printed, item.reference
                )),
                Err(e) => f.push(format!("{span}: {e}")),
            }
        }

        // The same guarded run untraced and traced, alternating which
        // goes first; each engine keeps its own warm guard and memo so
        // both see the same cache history.
        let order = if index.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        let mut traced = None;
        for k in order {
            let (out, ns) = self.guarded(warm, item, k);
            if measured {
                if k == 0 {
                    self.counts.guarded_untraced_ns += ns;
                } else {
                    self.counts.guarded_traced_ns += ns;
                }
            }
            match out {
                Ok(o) if o.outcome.status.is_compromised() => {
                    f.push(format!("guarded run: {:?}", o.outcome.status));
                }
                Ok(o) if o.outcome.printed != item.reference => f.push(format!(
                    "guarded run: printed {:?}, interpreter {:?}",
                    o.outcome.printed, item.reference
                )),
                Ok(o) => {
                    if k == 1 {
                        traced = Some(o);
                    }
                }
                Err(e) => f.push(format!("guarded run: {e}")),
            }
        }
        let Some(outcome) = traced else { return };
        for stat in &outcome.stats {
            if matches!(
                stat.tier,
                TierStats::Ion | TierStats::IonPassesDisabled | TierStats::NoIon
            ) {
                self.compile(warm, &module, stat, measured, f);
            }
        }
    }

    /// Replays one hot function's compile rounds.
    fn compile(
        &mut self,
        warm: &mut Warm,
        module: &Module,
        stat: &jitbull_jit::FunctionStats,
        measured: bool,
        f: &mut Vec<String>,
    ) {
        let Some(func) = module.function_id(&stat.name) else {
            return f.push(format!("{}: not in the module", stat.name));
        };
        let vulns = &self.plan.config.vulns;
        let context = vulns.fingerprint();
        let db = &self.plan.dbs[warm.db];
        let compare = CompareConfig::default();
        let mut disabled: HashSet<usize> = HashSet::new();
        let mut verdict = None;
        let c = &mut self.counts;
        let t = &mut self.tracer;
        let compile_span = t.open("compile");
        for _round in 0..=N_SLOTS {
            let round_span = t.open("round");
            let mir = match t.timed("mir.build", || jitbull_mir::build_mir(module, func)) {
                Ok(m) => m,
                Err(e) => {
                    t.close(round_span);
                    t.close(compile_span);
                    return f.push(format!("{}: build_mir: {e}", stat.name));
                }
            };
            let plain = OptimizeOptions {
                disabled_slots: disabled.clone(),
                ..OptimizeOptions::default()
            };
            let tracing = OptimizeOptions {
                trace: true,
                ..plain.clone()
            };
            let copy = mir.clone();
            let instrs = mir.instr_count() as u64;
            drop(t.timed("jit.optimize", || optimize(copy, vulns, &plain)));
            let result = t.timed("jit.optimize_traced", || optimize(mir, vulns, &tracing));
            let snap: u64 = result
                .trace
                .records
                .iter()
                .map(|r| (r.before.len() + r.after.len()) as u64)
                .sum();
            if measured {
                c.ion_compiles += 1;
                c.mir_instrs += instrs;
                c.snapshot_instrs += snap;
            }
            if let Some(why) = &result.broken {
                f.push(format!("{}: broken graph: {why}", stat.name));
                t.close(round_span);
                break;
            }
            let trace = &result.trace;
            let analysis = t.timed("guard.analyze", || {
                warm.analyze_guard.analyze(trace, N_SLOTS)
            });

            // The guard's extraction path, from its public parts: the
            // memo in front of the incremental extractor.
            let extract_span = t.open("extract");
            let key = MemoKey::from_trace(trace, N_SLOTS, context);
            let cached = key.as_ref().and_then(|k| warm.memo.lookup(k));
            let hit = cached.is_some();
            let dna = cached.unwrap_or_else(|| {
                let (dna, receipt) = warm.extractor.extract_dna(trace, N_SLOTS);
                if measured {
                    c.chains += receipt.chains_enumerated;
                }
                if let Some(k) = key {
                    warm.memo.insert(k, dna.clone());
                }
                dna
            });
            t.close(extract_span);
            let oracle = t.timed("extract.reference", || extract_dna(trace, N_SLOTS));
            if oracle != dna {
                f.push(format!(
                    "{}: incremental DNA differs from extract_dna",
                    stat.name
                ));
            }

            if warm.rebuild_due {
                let span = t.open("compare.index_rebuild");
                warm.index.ensure(db);
                t.close(span);
                let s = t.spans[span - 1];
                self.rebuild_ns.push(s.end_ns - s.start_ns);
                warm.rebuild_due = false;
            }
            let (entries, receipt) = t.timed("compare", || {
                warm.index.ensure(db);
                warm.index.query(&dna, &compare)
            });
            let mut dangerous: Vec<usize> = entries
                .iter()
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            dangerous.sort_unstable();
            dangerous.dedup();
            if dangerous != analysis.dangerous {
                f.push(format!(
                    "{}: index says {dangerous:?}, guard says {:?}",
                    stat.name, analysis.dangerous
                ));
            }
            if measured {
                c.memo_lookups += 1;
                c.memo_hits += u64::from(hit);
                c.queries += 1;
                c.cache_hits += u64::from(receipt.cache_hit);
            }

            let fresh: Vec<usize> = analysis
                .dangerous
                .iter()
                .copied()
                .filter(|s| !disabled.contains(s))
                .collect();
            let decision = t.timed("policy.decide", || decide(fresh, slot_disableable));
            match decision {
                Decision::Go => {
                    if measured {
                        c.go += 1;
                    }
                    drop(t.timed("lir.compile", || jitbull_lir::compile(&result.mir)));
                    verdict = Some(if disabled.is_empty() {
                        TierStats::Ion
                    } else {
                        TierStats::IonPassesDisabled
                    });
                }
                Decision::Recompile(slots) => {
                    if measured {
                        c.recompile += 1;
                    }
                    disabled.extend(slots);
                }
                Decision::NoJit(slots) => {
                    if measured {
                        c.nojit += 1;
                    }
                    disabled.extend(slots);
                    verdict = Some(TierStats::NoIon);
                }
            }
            t.close(round_span);
            if verdict.is_some() {
                break;
            }
        }
        t.close(compile_span);
        let mut slots: Vec<usize> = disabled.into_iter().collect();
        slots.sort_unstable();
        if verdict != Some(stat.tier) || slots != stat.disabled_slots {
            f.push(format!(
                "{}: replay reached {verdict:?} with slots {slots:?}, engine reported {:?} with {:?}",
                stat.name, stat.tier, stat.disabled_slots
            ));
        }
    }
}

pub fn run(plan: &Plan) -> Replayed {
    let mut r = Replayer {
        plan,
        tracer: Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        },
        counts: Counts::default(),
        rebuild_ns: Vec::new(),
    };
    let mut failures = Failures::default();
    let mut warm = Warm::new(plan, plan.items.first().map_or(0, |i| i.db));
    let mut attempted = 0u64;
    for (index, item) in plan.items.iter().enumerate() {
        if !plan.shared {
            warm = Warm::new(plan, item.db);
        } else if item.db != warm.db {
            warm.swap(plan, item.db);
        }
        r.tracer.request = index;
        let root = r.tracer.open("request");
        let mut problems = Vec::new();
        r.item(&mut warm, index, item, &mut problems);
        r.tracer.close(root);
        attempted += 1;
        if !item.warmup {
            r.counts.requests += 1;
        }
        if !problems.is_empty() {
            failures.add(|| format!("replay {} #{index}: {}", item.name, problems.join("; ")));
        }
    }

    let self_ns = r.tracer.self_ns();
    let mut per_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, ns) in r.tracer.spans.iter().zip(&self_ns) {
        if !plan.items[s.request].warmup {
            *per_name.entry(s.name).or_default() += ns;
        }
    }
    let c = &r.counts;
    let n = c.requests.max(1) as f64;
    let per_req = |name: &str| per_name.get(name).copied().unwrap_or(0) as f64 / 1e6 / n;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let pct = |a: f64, b: f64| if b > 0.0 { 100.0 * (a - b) / b } else { 0.0 };
    let rebuild_ms = if r.rebuild_ns.is_empty() {
        0.0
    } else {
        r.rebuild_ns.iter().sum::<u64>() as f64 / 1e6 / r.rebuild_ns.len() as f64
    };
    let metrics = vec![
        metric("frontend.parse_ms", per_req("frontend.parse"), "ms"),
        metric("vm.bytecode_ms", per_req("vm.bytecode"), "ms"),
        metric("mir.build_ms", per_req("mir.build"), "ms"),
        metric("mir.instrs", c.mir_instrs as f64 / n, "count"),
        metric("jit.ion_compiles", c.ion_compiles as f64 / n, "count"),
        metric("jit.optimize_ms", per_req("jit.optimize"), "ms"),
        metric(
            "jit.trace_ms",
            per_req("jit.optimize_traced") - per_req("jit.optimize"),
            "ms",
        ),
        metric("jit.snapshot_instrs", c.snapshot_instrs as f64 / n, "count"),
        metric("lir.compile_ms", per_req("lir.compile"), "ms"),
        metric("extract.ms", per_req("extract"), "ms"),
        metric("extract.reference_ms", per_req("extract.reference"), "ms"),
        metric(
            "extract.memo_hit_ratio",
            ratio(c.memo_hits, c.memo_lookups),
            "ratio",
        ),
        metric("extract.chains", c.chains as f64 / n, "count"),
        metric("compare.ms", per_req("compare"), "ms"),
        metric("compare.index_rebuild_ms", rebuild_ms, "ms"),
        metric(
            "compare.cache_hit_ratio",
            ratio(c.cache_hits, c.queries),
            "ratio",
        ),
        metric("guard.analyze_ms", per_req("guard.analyze"), "ms"),
        metric("policy.go", c.go as f64 / n, "count"),
        metric("policy.recompile", c.recompile as f64 / n, "count"),
        metric("policy.nojit", c.nojit as f64 / n, "count"),
        metric("vm.interp_only_ms", per_req("run.interp"), "ms"),
        metric("vm.baseline_only_ms", per_req("run.baseline"), "ms"),
        metric("exec.jit_ms", per_req("run.jit"), "ms"),
        metric("exec.guarded_ms", per_req("run.guarded"), "ms"),
        metric(
            "guard.overhead_pct",
            pct(per_req("run.guarded"), per_req("run.jit")),
            "%",
        ),
        metric(
            "trace.overhead_pct",
            pct(c.guarded_traced_ns as f64, c.guarded_untraced_ns as f64),
            "%",
        ),
    ];

    let mut jsonl = String::new();
    let summary: Vec<String> = per_name
        .iter()
        .map(|(name, ns)| format!("\"{name}\":{}", *ns as f64 / 1e6 / n))
        .collect();
    let _ = writeln!(
        jsonl,
        "{{\"self_ms_per_request\":{{{}}},\"measured_requests\":{}}}",
        summary.join(","),
        c.requests
    );
    for (i, (s, ns)) in r.tracer.spans.iter().zip(&self_ns).enumerate() {
        let _ = writeln!(
            jsonl,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{ns}}}",
            i + 1,
            s.parent,
            s.request,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    Replayed {
        attempted,
        failed: failures.count,
        problems: failures.problems,
        metrics,
        spans_jsonl: jsonl,
    }
}
