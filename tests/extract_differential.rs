//! Differential lockdown of the incremental Δ extractor.
//!
//! `jitbull::extract_dna` / `jitbull::extract_delta` are the normative
//! Algorithm 1 implementation; `jitbull::IncrementalExtractor` (edge-diff
//! fast path, cached enumeration, interned run windows) must return
//! chain-for-chain identical DNA on every trace. These tests sweep seeded
//! random MIR snapshot pairs — including renumberings, no-op passes,
//! pathological high-fanout graphs that bind the chain caps, chained
//! records sharing snapshots, 32-record pipeline-shaped traces of mostly
//! no-op and renumbering passes, duplicate instruction ids, a literal
//! `"?"` label, a slot overwritten by a later empty record, and equal
//! labels in distinct allocations — the full VDC catalog, the workload
//! suite at engine level, and fail on the first divergence.

use std::sync::Arc;

use jitbull::{extract_delta, extract_dna, IncrementalExtractor};
use jitbull_mir::{MirSnapshot, PassRecord, PassTrace, SnapInstr};
use jitbull_prng::Rng;

const LABELS: &[&str] = &[
    "add",
    "mul",
    "sub",
    "constant:number",
    "parameter0",
    "parameter1",
    "loadelement",
    "storeelement",
    "boundscheck",
    "initializedlength",
    "unbox:array",
    "return",
    "phi",
    "guardshape",
];

const PASS_NAMES: &[&str] = &[
    "TypeSpecialization",
    "GVN",
    "LICM",
    "BoundsCheckElimination",
    "EliminateRedundantChecks",
    "FoldLinearArithmetic",
];

const SLOTS: usize = 16;

/// Slots of a pipeline-shaped trace: one record per slot, in order.
const PIPELINE_SLOTS: usize = 32;

/// A label for a random instruction: mostly from [`LABELS`], sometimes
/// a literal `"?"` — the same text the oracle gives a dangling operand.
fn label(rng: &mut Rng) -> Arc<str> {
    if rng.gen_bool(0.03) {
        Arc::from("?")
    } else {
        Arc::from(*rng.pick(LABELS))
    }
}

fn instr(rng: &mut Rng, id: u32, prior: &[u32]) -> SnapInstr {
    let n_ops = rng.gen_range(0..3usize);
    let operands = (0..n_ops)
        .map(|_| {
            if !prior.is_empty() && rng.gen_bool(0.85) {
                *rng.pick(prior)
            } else {
                // Dangling or forward reference: the extractor must
                // treat unknown ids exactly like the reference ("?").
                rng.gen_range(0..40u32)
            }
        })
        .collect();
    SnapInstr {
        id,
        label: label(rng),
        operands,
    }
}

fn random_snapshot(rng: &mut Rng, max_instrs: usize) -> MirSnapshot {
    let n = rng.gen_range(1..max_instrs.max(2));
    let mut ids: Vec<u32> = Vec::new();
    let mut instrs = Vec::new();
    let mut next = 0u32;
    for _ in 0..n {
        next += rng.gen_range(1..3u32); // occasional id gaps
                                        // Occasionally reuse an id: the oracle's label table keeps the
                                        // last instruction's label, its dependency map appends operands.
        let id = if !ids.is_empty() && rng.gen_bool(0.05) {
            *rng.pick(&ids)
        } else {
            next
        };
        instrs.push(instr(rng, id, &ids));
        ids.push(id);
    }
    MirSnapshot { instrs }
}

/// `ir` with every label copied into a fresh allocation: structurally
/// equal, but no two labels share an `Arc` with the original.
fn reallocated(ir: &MirSnapshot) -> MirSnapshot {
    MirSnapshot {
        instrs: ir
            .instrs
            .iter()
            .map(|i| SnapInstr {
                label: Arc::from(&*i.label),
                ..i.clone()
            })
            .collect(),
    }
}

/// `ir` with every id and operand shifted: the renumbering a
/// `RenumberInstructions` slot performs.
fn renumbered(rng: &mut Rng, ir: &MirSnapshot) -> MirSnapshot {
    let shift = rng.gen_range(1..50u32);
    let mut after = ir.clone();
    for i in &mut after.instrs {
        i.id += shift;
        for o in &mut i.operands {
            *o += shift;
        }
    }
    after
}

/// A dense layered graph wide and deep enough that the reference
/// extractor's MAX_CHAINS / MAX_CHAIN_LEN caps bind — the regime where
/// enumeration *order* becomes observable and any ordering drift in the
/// incremental path would change the emitted set.
fn pathological_snapshot(rng: &mut Rng) -> MirSnapshot {
    let width = rng.gen_range(3..6usize);
    let depth = rng.gen_range(4..8usize);
    let mut instrs = Vec::new();
    for layer in 0..depth {
        for lane in 0..width {
            let id = (layer * width + lane) as u32;
            let operands = if layer == 0 {
                Vec::new()
            } else {
                ((layer - 1) * width..layer * width)
                    .map(|p| p as u32)
                    .collect()
            };
            instrs.push(SnapInstr {
                id,
                label: Arc::from(*rng.pick(LABELS)),
                operands,
            });
        }
    }
    MirSnapshot { instrs }
}

/// Derives `after` from `before` the way a pass would: a few removals,
/// insertions, rewires, relabels — or a pure renumbering / no-op, the
/// cases the incremental fast path must prove empty without enumerating.
fn mutate(rng: &mut Rng, before: &MirSnapshot) -> MirSnapshot {
    let mut after = before.clone();
    match rng.gen_range(0..11u32) {
        0 => {} // no-op pass: identical snapshot
        1 => after = renumbered(rng, before),
        2 => after = reallocated(before),
        3 if before.instrs.len() >= 2 => {
            // Give one instruction another's id.
            let from = rng.gen_range(0..after.instrs.len());
            let to = rng.gen_range(0..after.instrs.len());
            after.instrs[to].id = after.instrs[from].id;
        }
        _ => {
            for _ in 0..rng.gen_range(1..4usize) {
                if after.instrs.is_empty() {
                    break;
                }
                match rng.gen_range(0..4u32) {
                    0 => {
                        let at = rng.gen_range(0..after.instrs.len());
                        after.instrs.remove(at);
                    }
                    1 => {
                        let prior: Vec<u32> = after.instrs.iter().map(|i| i.id).collect();
                        let id = prior.iter().max().unwrap_or(&0) + rng.gen_range(1..4u32);
                        let ins = instr(rng, id, &prior);
                        let at = rng.gen_range(0..after.instrs.len() + 1);
                        after.instrs.insert(at, ins);
                    }
                    2 => {
                        let at = rng.gen_range(0..after.instrs.len());
                        after.instrs[at].label = label(rng);
                    }
                    _ => {
                        let at = rng.gen_range(0..after.instrs.len());
                        if !after.instrs[at].operands.is_empty() {
                            let o = rng.gen_range(0..after.instrs[at].operands.len());
                            after.instrs[at].operands[o] = rng.gen_range(0..40u32);
                        }
                    }
                }
            }
        }
    }
    after
}

/// Builds a trace of `n_records` passes. With probability ~0.7 each
/// record's `before` is the previous record's `after` (the shape a real
/// pipeline produces, exercising the enumeration-reuse path); otherwise
/// it is a fresh snapshot.
fn random_trace(rng: &mut Rng, n_records: usize, pathological: bool) -> PassTrace {
    let mut records = Vec::new();
    let mut current = if pathological {
        pathological_snapshot(rng)
    } else {
        random_snapshot(rng, 14)
    };
    for _ in 0..n_records {
        let before = if !records.is_empty() && rng.gen_bool(0.3) {
            if pathological {
                pathological_snapshot(rng)
            } else {
                random_snapshot(rng, 14)
            }
        } else {
            current.clone()
        };
        let after = mutate(rng, &before);
        records.push(PassRecord {
            slot: rng.gen_range(0..SLOTS),
            // Not auto-deref: the explicit `*` pins `pick`'s element
            // type to `&str` (clippy's suggestion fails inference).
            #[allow(clippy::explicit_auto_deref)]
            name: *rng.pick(PASS_NAMES),
            before: before.clone(),
            after: after.clone(),
        });
        current = after;
    }
    PassTrace {
        function: "f".into(),
        records,
    }
}

/// A trace shaped like the real pipeline: one record per slot in
/// order, each `before` the previous `after` (a copy, as snapshot capture
/// makes), mostly no-op and renumbering passes with a few real changes.
/// Now and then a slot runs twice, the second time as a no-op, so an
/// empty record overwrites a non-empty delta at the same slot.
fn pipeline_trace(rng: &mut Rng) -> PassTrace {
    let mut current = random_snapshot(rng, 24);
    let mut records = Vec::new();
    for slot in 0..PIPELINE_SLOTS {
        let after = match rng.gen_range(0..16u32) {
            0..=8 => current.clone(),
            9..=10 => renumbered(rng, &current),
            11 => reallocated(&current),
            _ => mutate(rng, &current),
        };
        records.push(PassRecord {
            slot,
            name: PASS_NAMES[slot % PASS_NAMES.len()],
            before: current.clone(),
            after: after.clone(),
        });
        if rng.gen_bool(0.1) {
            records.push(PassRecord {
                slot,
                name: PASS_NAMES[slot % PASS_NAMES.len()],
                before: after.clone(),
                after: after.clone(),
            });
        }
        current = after;
    }
    PassTrace {
        function: "f".into(),
        records,
    }
}

/// Runs seeded random traces through both extractors and asserts
/// chain-for-chain identical DNA (whole-trace) and identical per-pass
/// deltas (pairwise). One `IncrementalExtractor` persists across the
/// whole sweep so the interner, run-window cache, and enumeration cache
/// carry real cross-case state. Returns snapshot pairs checked.
fn sweep(seed: u64, traces: usize) -> usize {
    let mut rng = Rng::seed_from_u64(seed);
    let mut incremental = IncrementalExtractor::new();
    let mut pairs = 0;
    let mut seen = Coverage::default();
    for case in 0..traces {
        let shape = rng.gen_range(0..20u32);
        let pathological = shape == 0;
        let (trace, n_slots) = if (1..=2).contains(&shape) {
            seen.pipeline_traces += 1;
            (pipeline_trace(&mut rng), PIPELINE_SLOTS)
        } else {
            let n_records = rng.gen_range(1..5usize);
            (random_trace(&mut rng, n_records, pathological), SLOTS)
        };
        pairs += trace.records.len();
        let expected = extract_dna(&trace, n_slots);
        let (got, receipt) = incremental.extract_dna(&trace, n_slots);
        assert_eq!(
            got, expected,
            "whole-trace divergence: seed={seed} case={case} shape={shape} receipt={receipt:?}"
        );
        let mut filled = vec![false; n_slots];
        for (i, r) in trace.records.iter().enumerate() {
            let expected = extract_delta(&r.before, &r.after);
            let got = incremental.extract_delta(&r.before, &r.after);
            assert_eq!(
                got, expected,
                "per-pass divergence: seed={seed} case={case} record={i}"
            );
            seen.note(r, &expected, &mut filled);
        }
    }
    let stats = incremental.stats();
    assert!(
        stats.passes_skipped > 0 && stats.passes_enumerated > 0,
        "sweep never exercised both the fast path and the slow path: {stats:?}"
    );
    assert!(seen.all_exercised(), "sweep missed a case: {seen:?}");
    pairs
}

/// How often the sweep hit each corner case the extractors must agree
/// on.
#[derive(Debug, Default)]
struct Coverage {
    pipeline_traces: usize,
    duplicate_ids: usize,
    literal_unknown_labels: usize,
    empty_after_nonempty_slot: usize,
    reallocated_equal: usize,
}

impl Coverage {
    /// Tallies one record; `filled[slot]` tracks whether an earlier
    /// record of the trace left a non-empty delta at that slot.
    fn note(&mut self, r: &PassRecord, delta: &jitbull::PassDelta, filled: &mut [bool]) {
        for ir in [&r.before, &r.after] {
            let mut ids: Vec<u32> = ir.instrs.iter().map(|i| i.id).collect();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() < ir.instrs.len() {
                self.duplicate_ids += 1;
            }
            if ir.instrs.iter().any(|i| &*i.label == "?") {
                self.literal_unknown_labels += 1;
            }
        }
        let shares_a_label = r
            .before
            .instrs
            .iter()
            .zip(&r.after.instrs)
            .any(|(b, a)| Arc::ptr_eq(&b.label, &a.label));
        if r.before == r.after && !r.before.is_empty() && !shares_a_label {
            self.reallocated_equal += 1;
        }
        if let Some(slot) = filled.get_mut(r.slot) {
            if *slot && delta.is_empty() {
                self.empty_after_nonempty_slot += 1;
            }
            *slot = !delta.is_empty();
        }
    }

    fn all_exercised(&self) -> bool {
        self.pipeline_traces > 0
            && self.duplicate_ids > 0
            && self.literal_unknown_labels > 0
            && self.empty_after_nonempty_slot > 0
            && self.reallocated_equal > 0
    }
}

/// The headline differential: ≥10k seeded random snapshot pairs, zero
/// divergences between the incremental extractor and the Algorithm 1
/// oracle.
#[test]
fn random_sweep_finds_zero_divergences() {
    let pairs = sweep(0xE0_7C47, 4200);
    assert!(pairs >= 10_000, "only {pairs} snapshot pairs checked");
}

/// Large release-profile sweep, run by the CI `--ignored` job.
#[test]
#[ignore = "large sweep; run with --release -- --ignored"]
fn large_random_sweep_finds_zero_divergences() {
    let pairs = sweep(0x05EE_DE47, 21_000);
    assert!(pairs >= 50_000, "only {pairs} snapshot pairs checked");
}

/// Every VDC in the catalog: the trace a protected engine would take
/// (each VDC compiled on an engine carrying its own CVE) must extract
/// identically under both implementations.
#[test]
fn full_vdc_catalog_extracts_identically() {
    use jitbull_frontend::parse_program;
    use jitbull_jit::pipeline::{optimize, OptimizeOptions, N_SLOTS};
    use jitbull_jit::VulnConfig;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    let mut incremental = IncrementalExtractor::new();
    for v in jitbull_vdc::all_vdcs() {
        let program = parse_program(&v.source).unwrap();
        let module = compile_program(&program).unwrap();
        for name in &v.trigger_functions {
            let fid = module.function_id(name).unwrap();
            let mir = build_mir(&module, fid).unwrap();
            let result = optimize(
                mir,
                &VulnConfig::with([v.cve]),
                &OptimizeOptions {
                    trace: true,
                    ..Default::default()
                },
            );
            let expected = extract_dna(&result.trace, N_SLOTS);
            let (got, _) = incremental.extract_dna(&result.trace, N_SLOTS);
            assert_eq!(got, expected, "divergence: vdc={} fn={name}", v.name);
        }
    }
}

/// Engine level: the whole workload serving mix, run end-to-end against
/// a full VDC database, extracts exactly the reference DNA in every Ion
/// round the guard analysed and reaches the same verdicts (checked round
/// by round by the replay), so a reference-extractor engine takes the
/// identical path to the same output and tier counts; the reference
/// extractor also costs more.
#[test]
fn engine_runs_agree_across_extractor_modes() {
    use jitbull_bench::corpus::replay;
    use jitbull_jit::engine::EngineConfig;
    use jitbull_jit::{CveId, VulnConfig};

    let db = jitbull_vdc::build_database(&jitbull_vdc::all_vdcs()).unwrap();
    for w in jitbull_workloads::serving_mix() {
        let config = EngineConfig {
            vulns: VulnConfig::with([CveId::Cve2019_17026]),
            ..EngineConfig::fast_test()
        };
        let r = replay(
            &w.source,
            config,
            &db,
            jitbull::CompareConfig { thr: 1, ratio: 0.5 },
        );
        let out = r.outcome.as_ref().unwrap();
        assert!(!out.outcome.printed.is_empty(), "{}", w.name);
        assert!(!r.rounds.is_empty(), "{}: no round analysed", w.name);
        assert!(
            r.reference_extractor_cycles() > r.production_cycles(),
            "{}",
            w.name
        );
    }
}
