//! The incremental Δ-extractor: the fast production path for
//! Algorithm 1, mirroring what [`crate::index`] did for Algorithm 2.
//!
//! [`super::extract_delta`] (the normative reference) enumerates every
//! root-to-leaf chain of *both* snapshots of *every* pass, hashes
//! string-keyed edge multisets, and windows and deduplicates label
//! sub-chains through a `BTreeSet<Chain>` — even for the many passes that
//! changed nothing. This module computes the same deltas, chain for
//! chain, on integers, and touches strings only to give each label an id
//! and to resolve the final sub-chains:
//!
//! 1. **Equality skip**: a pass whose `after` snapshot equals its
//!    `before` (the same object, or structurally) changed no edge, so
//!    its delta is empty without any further work. Most pipeline slots
//!    take this path on real workloads.
//! 2. **Integer form**: otherwise each snapshot becomes one label id per
//!    instruction (an extractor-lifetime table maps each distinct label
//!    to a `u32`) and a sorted `Vec<u64>` of `(user, operand)` label-pair
//!    edge keys, one per operand. A record's `before` reuses the previous
//!    record's `after` form when the two snapshots are proven equal.
//!    Equal key vectors mean equal edge multisets, so both directed
//!    changed-edge sets are empty and the delta is empty (renumbering
//!    passes end here).
//! 3. **Changed sides**: one merge of the two sorted key vectors yields
//!    both directed changed-edge sets. A side whose set is empty
//!    contributes nothing, so its snapshot is never enumerated.
//! 4. **Dense enumeration with reuse**: a side that must be enumerated
//!    runs the reference DFS over a dense adjacency with an on-path
//!    bitset — same root order, same operand order (duplicates
//!    included), same cycle guard, same [`super::MAX_CHAINS`] /
//!    [`super::MAX_CHAIN_LEN`] caps — recording each path's label ids.
//!    The last enumeration is kept and reused when the next snapshot to
//!    enumerate compares structurally equal.
//! 5. **Interned runs and memoised windows**: maximal changed-edge runs
//!    are found by looking label-pair keys up in the sorted changed set,
//!    interned by label-id sequence, and expanded into their contiguous
//!    windows through a per-run-id cache. Window ids are deduplicated as
//!    integers and resolved to label chains once per delta.
//!
//! Exactness, step by step: (1) equal snapshots have equal edge
//! multisets; (2) the label table is injective and keys are built with
//! the oracle's resolution rules (the operand side takes the label of the
//! *last* instruction carrying the id, `"?"` when none does), so equal
//! sorted keys ⇔ equal multisets; (3) a key is in a directed set exactly
//! when the oracle's `changed_edges` holds it; (4) walks the oracle's
//! paths in the oracle's order under the same caps, so the path set is
//! identical even when the caps bind; (5) is a representation change —
//! run → windows is deterministic and the final dedup is
//! order-independent. The differential harness
//! (`tests/extract_differential.rs`) locks this in against tens of
//! thousands of random traces, and `tests/golden/extract_receipts.txt`
//! pins the cost accounting.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use jitbull_mir::{MirSnapshot, PassTrace};

use crate::dna::{Chain, Dna, PassDelta};

use super::{MAX_CHAINS, MAX_CHAIN_LEN};

/// Cycles charged per instruction for building and comparing a pass's
/// edge multisets (paid by every traced pass — the fast path's price).
pub const EDGE_DIFF_COST_PER_INSTR: u64 = 6;
/// Cycles charged per instruction of a snapshot whose chains were
/// actually enumerated (id-path DFS, no string materialisation).
pub const ENUM_COST_PER_INSTR: u64 = 24;
/// Cycles charged per id-path scanned for changed-edge runs.
pub const SCAN_COST_PER_CHAIN: u64 = 2;
/// Cycles charged per label when materialising and interning a
/// changed-edge run or one of its windows.
pub const RUN_INTERN_COST_PER_LABEL: u64 = 8;
/// Flat cycles charged when a run's window expansion is served from the
/// per-run-id cache.
pub const RUN_CACHE_HIT_COST: u64 = 2;

/// What one incremental extraction did (telemetry + simulated cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractReceipt {
    /// Whether the whole-function DNA came from the shared
    /// [`crate::extract::memo::DnaMemo`] (set by the guard, not here).
    pub memo_hit: bool,
    /// Traced passes whose chains were enumerated (≥1 side changed).
    pub passes_enumerated: u64,
    /// Traced passes proven empty without enumeration (equal snapshots
    /// or equal edge keys).
    pub passes_skipped: u64,
    /// Enumerated paths that crossed ≥1 changed edge (materialised).
    pub chains_enumerated: u64,
    /// Enumerated paths with no changed edge (integer scan only).
    pub chains_skipped: u64,
    /// Simulated cycles the extraction consumed.
    pub cost_cycles: u64,
}

/// Cumulative counters across an extractor's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Traces extracted.
    pub traces: u64,
    /// Passes whose chains were enumerated.
    pub passes_enumerated: u64,
    /// Passes proven empty without enumeration.
    pub passes_skipped: u64,
    /// Paths that crossed a changed edge.
    pub chains_enumerated: u64,
    /// Paths with no changed edge.
    pub chains_skipped: u64,
    /// Run window expansions served from the cache.
    pub run_cache_hits: u64,
    /// Snapshot enumerations reused from the previous record.
    pub enum_reuses: u64,
}

/// Label id of `"?"`, the label the oracle gives an operand id that no
/// instruction of the snapshot carries.
const UNKNOWN: u32 = 0;

/// The `(user, operand)` label pair of one edge as a single sortable key.
fn edge_key(from: u32, to: u32) -> u64 {
    u64::from(from) << 32 | u64::from(to)
}

/// Extractor-lifetime label table: each distinct label ↔ a dense id,
/// with `"?"` pre-assigned [`UNKNOWN`] so a literal `"?"` label and a
/// dangling operand resolve alike, as they do in the oracle.
#[derive(Debug, Clone)]
struct Labels {
    ids: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Default for Labels {
    fn default() -> Self {
        let unknown: Arc<str> = Arc::from("?");
        Labels {
            ids: HashMap::from([(Arc::clone(&unknown), UNKNOWN)]),
            names: vec![unknown],
        }
    }
}

impl Labels {
    fn id(&mut self, label: &Arc<str>) -> u32 {
        if let Some(&id) = self.ids.get(&**label) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("label table overflow");
        self.names.push(Arc::clone(label));
        self.ids.insert(Arc::clone(label), id);
        id
    }
}

/// Sub-chains interned by label-id sequence.
#[derive(Debug, Clone, Default)]
struct Chains {
    ids: HashMap<Box<[u32]>, u32>,
    seqs: Vec<Box<[u32]>>,
}

impl Chains {
    fn intern(&mut self, seq: &[u32]) -> u32 {
        if let Some(&id) = self.ids.get(seq) {
            return id;
        }
        let id = u32::try_from(self.seqs.len()).expect("chain table overflow");
        self.seqs.push(seq.into());
        self.ids.insert(seq.into(), id);
        id
    }
}

/// A snapshot in integer form.
struct Form {
    /// Label id of each instruction, in snapshot order.
    labels: Vec<u32>,
    /// One [`edge_key`] per operand, sorted: the label-pair edge
    /// multiset.
    keys: Vec<u64>,
}

/// One enumerated snapshot: its integer identity, kept to prove a later
/// snapshot equal, and the label ids of every path the reference DFS
/// emits, in emission order, concatenated.
#[derive(Debug, Clone)]
struct Enumeration {
    /// `(id, label id, operand count)` of each instruction, in order.
    instrs: Vec<(u32, u32, u32)>,
    /// Every operand, in snapshot order.
    operands: Vec<u32>,
    /// Path labels back to back; path `k` ends at `ends[k]`.
    labels: Vec<u32>,
    ends: Vec<usize>,
}

impl Enumeration {
    /// Whether `ir`, with per-instruction label ids `labels`, is
    /// structurally equal to the enumerated snapshot. Label ids are equal
    /// exactly when the labels are, so no string is compared.
    fn is_of(&self, ir: &MirSnapshot, labels: &[u32]) -> bool {
        ir.len() == self.instrs.len()
            && ir.instrs.iter().zip(labels).zip(&self.instrs).all(
                |((i, &label), &(id, l, arity))| {
                    i.id == id && label == l && i.operands.len() == arity as usize
                },
            )
            && ir
                .instrs
                .iter()
                .flat_map(|i| &i.operands)
                .eq(&self.operands)
    }
}

/// The incremental Δ-extractor. Label table, chain interner and window
/// cache persist across passes, functions, and recompiles, so repeated
/// changed regions (the same GVN rewrite firing on every hot function,
/// say) are materialised once per process, not once per compilation.
#[derive(Debug, Clone, Default)]
pub struct IncrementalExtractor {
    labels: Labels,
    chains: Chains,
    /// run chain id → ids of all its contiguous windows (≥2 labels).
    run_windows: HashMap<u32, Box<[u32]>>,
    /// Last enumerated snapshot, reused when the next snapshot to
    /// enumerate compares structurally equal.
    enumeration: Option<Enumeration>,
    /// Scratch id → label table, reused by every [`Form`] build.
    last_label: HashMap<u32, u32>,
    stats: IncrementalStats,
}

impl IncrementalExtractor {
    /// An empty extractor.
    #[must_use]
    pub fn new() -> Self {
        IncrementalExtractor::default()
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Distinct sub-chains interned so far.
    #[must_use]
    pub fn interned_chains(&self) -> usize {
        self.chains.seqs.len()
    }

    /// Incremental Algorithm 1 over a whole trace. Chain-for-chain equal
    /// to [`super::extract_dna`].
    pub fn extract_dna(&mut self, trace: &PassTrace, n_slots: usize) -> (Dna, ExtractReceipt) {
        self.stats.traces += 1;
        let mut dna = Dna::with_slots(n_slots);
        let mut receipt = ExtractReceipt::default();
        let mut last = None;
        for record in &trace.records {
            if record.slot < n_slots {
                dna.deltas[record.slot] =
                    self.delta(&record.before, &record.after, &mut last, &mut receipt);
            }
        }
        (dna, receipt)
    }

    /// Incremental Algorithm 1 for one pass. Chain-for-chain equal to
    /// [`super::extract_delta`].
    pub fn extract_delta(&mut self, before: &MirSnapshot, after: &MirSnapshot) -> PassDelta {
        let mut receipt = ExtractReceipt::default();
        self.delta(before, after, &mut None, &mut receipt)
    }

    /// One pass's delta. `last` holds the most recent snapshot put in
    /// integer form within this trace; its form stands in for `before`'s
    /// when the two are proven equal, and `after`'s form replaces it.
    fn delta<'t>(
        &mut self,
        before: &'t MirSnapshot,
        after: &'t MirSnapshot,
        last: &mut Option<(&'t MirSnapshot, Form)>,
        receipt: &mut ExtractReceipt,
    ) -> PassDelta {
        let work = (before.len() + after.len()) as u64;
        receipt.cost_cycles += work * EDGE_DIFF_COST_PER_INSTR;
        if std::ptr::eq(before, after) || before == after {
            return self.skip(receipt);
        }
        let before_form = match last.take() {
            Some((snap, form)) if std::ptr::eq(snap, before) || snap == before => form,
            _ => self.form(before),
        };
        let after_form = self.form(after);
        let delta = if before_form.keys == after_form.keys {
            // No label-pair multiplicity moved in either direction, so
            // the reference's changed-edge sets are both empty and its
            // diff emits nothing — whatever the chains are.
            self.skip(receipt)
        } else {
            receipt.passes_enumerated += 1;
            self.stats.passes_enumerated += 1;
            let (removed, added) = changed_keys(&before_form.keys, &after_form.keys);
            PassDelta {
                removed: self.side(before, &before_form, &removed, receipt),
                added: self.side(after, &after_form, &added, receipt),
            }
        };
        *last = Some((after, after_form));
        delta
    }

    fn skip(&mut self, receipt: &mut ExtractReceipt) -> PassDelta {
        receipt.passes_skipped += 1;
        self.stats.passes_skipped += 1;
        PassDelta::default()
    }

    /// `ir` in integer form. An operand's label is that of the *last*
    /// instruction carrying its id (as `HashMap::insert` leaves the
    /// oracle's table), [`UNKNOWN`] when none does.
    fn form(&mut self, ir: &MirSnapshot) -> Form {
        let labels: Vec<u32> = ir.instrs.iter().map(|i| self.labels.id(&i.label)).collect();
        let last_label = &mut self.last_label;
        last_label.clear();
        let mut n_edges = 0;
        for (i, &label) in ir.instrs.iter().zip(&labels) {
            last_label.insert(i.id, label);
            n_edges += i.operands.len();
        }
        let mut keys = Vec::with_capacity(n_edges);
        for (i, &from) in ir.instrs.iter().zip(&labels) {
            for o in &i.operands {
                let to = last_label.get(o).copied().unwrap_or(UNKNOWN);
                keys.push(edge_key(from, to));
            }
        }
        keys.sort_unstable();
        Form { labels, keys }
    }

    /// One delta side: enumerate (or reuse) the snapshot's paths, then
    /// collect the interned windows of every maximal changed-edge run.
    fn side(
        &mut self,
        ir: &MirSnapshot,
        form: &Form,
        changed: &[u64],
        receipt: &mut ExtractReceipt,
    ) -> BTreeSet<Chain> {
        if changed.is_empty() {
            // An empty changed set can never start a run.
            return BTreeSet::new();
        }
        match &self.enumeration {
            Some(e) if e.is_of(ir, &form.labels) => self.stats.enum_reuses += 1,
            _ => {
                receipt.cost_cycles += ir.len() as u64 * ENUM_COST_PER_INSTR;
                self.enumeration = Some(enumerate(ir, &form.labels));
            }
        }
        let IncrementalExtractor {
            labels,
            chains,
            run_windows,
            enumeration,
            stats,
            ..
        } = self;
        let paths = enumeration.as_ref().expect("just enumerated");
        // Most edges leave a label no changed key starts from: one array
        // lookup rejects them before the search.
        let mut changed_from = vec![false; labels.names.len()];
        for &key in changed {
            changed_from[(key >> 32) as usize] = true;
        }
        let is_changed = |from: u32, to: u32| {
            changed_from[from as usize] && changed.binary_search(&edge_key(from, to)).is_ok()
        };
        let mut out: Vec<u32> = Vec::new();
        let mut start = 0;
        for &end in &paths.ends {
            let path = &paths.labels[start..end];
            start = end;
            receipt.cost_cycles += SCAN_COST_PER_CHAIN;
            let mut crossed = false;
            let mut k = 0;
            while k + 1 < path.len() {
                if !is_changed(path[k], path[k + 1]) {
                    k += 1;
                    continue;
                }
                let s = k;
                while k + 1 < path.len() && is_changed(path[k], path[k + 1]) {
                    k += 1;
                }
                crossed = true;
                let run = &path[s..=k];
                receipt.cost_cycles += run.len() as u64 * RUN_INTERN_COST_PER_LABEL;
                let run_id = chains.intern(run);
                if let Some(windows) = run_windows.get(&run_id) {
                    receipt.cost_cycles += RUN_CACHE_HIT_COST;
                    stats.run_cache_hits += 1;
                    out.extend_from_slice(windows);
                    continue;
                }
                let mut windows = Vec::new();
                for len in 2..=run.len() {
                    for window in run.windows(len) {
                        receipt.cost_cycles += len as u64 * RUN_INTERN_COST_PER_LABEL;
                        windows.push(chains.intern(window));
                    }
                }
                out.extend_from_slice(&windows);
                run_windows.insert(run_id, windows.into());
            }
            if crossed {
                receipt.chains_enumerated += 1;
                stats.chains_enumerated += 1;
            } else {
                receipt.chains_skipped += 1;
                stats.chains_skipped += 1;
            }
        }
        out.sort_unstable();
        out.dedup();
        out.iter()
            .map(|&id| {
                chains.seqs[id as usize]
                    .iter()
                    .map(|&l| Arc::clone(&labels.names[l as usize]))
                    .collect()
            })
            .collect()
    }
}

/// The directed changed-edge sets of two sorted key multisets: keys
/// whose multiplicity strictly drops from `before` to `after` (removed
/// side) and strictly rises (added side), each sorted.
fn changed_keys(before: &[u64], after: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < before.len() || j < after.len() {
        let key = match (before.get(i), after.get(j)) {
            (Some(&b), Some(&a)) => b.min(a),
            (Some(&b), None) => b,
            (None, Some(&a)) => a,
            (None, None) => unreachable!("loop condition"),
        };
        let (i0, j0) = (i, j);
        while before.get(i) == Some(&key) {
            i += 1;
        }
        while after.get(j) == Some(&key) {
            j += 1;
        }
        match (i - i0).cmp(&(j - j0)) {
            std::cmp::Ordering::Greater => removed.push(key),
            std::cmp::Ordering::Less => added.push(key),
            std::cmp::Ordering::Equal => {}
        }
    }
    (removed, added)
}

/// Dense node indices for the ids of a dependency graph, assigned in
/// order of first sight.
struct Nodes {
    node_of: HashMap<u32, u32>,
    ids: Vec<u32>,
}

impl Nodes {
    fn node(&mut self, id: u32) -> u32 {
        if let Some(&n) = self.node_of.get(&id) {
            return n;
        }
        let n = u32::try_from(self.ids.len()).expect("graph overflow");
        self.node_of.insert(id, n);
        self.ids.push(id);
        n
    }
}

/// The reference DFS ([`super::make_chains`]) over `ir`: same root order
/// (ascending id), same operand order, same cycle guard, same emission
/// points, same caps — so the path *set* is identical to the reference's
/// chain set even when [`MAX_CHAINS`] binds. `labels` is `ir`'s
/// per-instruction label ids.
///
/// The graph is the oracle's: nodes are the ids of instructions with
/// operands plus every operand id; a node's dependencies are the
/// operands of every instruction carrying its id, in snapshot order,
/// duplicates included; a node is labelled by the last instruction
/// carrying its id, `"?"` when none does.
fn enumerate(ir: &MirSnapshot, labels: &[u32]) -> Enumeration {
    let n_operands: usize = ir.instrs.iter().map(|i| i.operands.len()).sum();
    let mut nodes = Nodes {
        node_of: HashMap::with_capacity(ir.len() + n_operands),
        ids: Vec::with_capacity(ir.len() + n_operands),
    };
    let mut instrs = Vec::with_capacity(ir.len());
    let mut operands = Vec::with_capacity(n_operands);
    // (user node, operand count) per instruction with operands, and the
    // operand nodes back to back.
    let mut users = Vec::with_capacity(ir.len());
    let mut operand_nodes = Vec::with_capacity(n_operands);
    for (v, &label) in ir.instrs.iter().zip(labels) {
        let arity = u32::try_from(v.operands.len()).expect("operand count");
        instrs.push((v.id, label, arity));
        operands.extend_from_slice(&v.operands);
        if arity > 0 {
            users.push((nodes.node(v.id), v.operands.len()));
            operand_nodes.extend(v.operands.iter().map(|&o| nodes.node(o)));
        }
    }
    // Compressed adjacency: node `u`'s dependencies are
    // `deps[start[u]..start[u + 1]]`.
    let n = nodes.ids.len();
    let mut start = vec![0usize; n + 1];
    for &(user, arity) in &users {
        start[user as usize + 1] += arity;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut fill = start.clone();
    let mut deps = vec![0u32; n_operands];
    let mut is_dep = vec![false; n];
    let mut next = operand_nodes.iter();
    for &(user, arity) in &users {
        for &dep in next.by_ref().take(arity) {
            deps[fill[user as usize]] = dep;
            fill[user as usize] += 1;
            is_dep[dep as usize] = true;
        }
    }
    let mut node_label = vec![UNKNOWN; n];
    for &(id, label, _) in &instrs {
        if let Some(&node) = nodes.node_of.get(&id) {
            node_label[node as usize] = label;
        }
    }
    let mut roots: Vec<u32> = (0..n as u32).filter(|&u| !is_dep[u as usize]).collect();
    roots.sort_unstable_by_key(|&u| nodes.ids[u as usize]);
    let mut dfs = Dfs {
        start: &start,
        deps: &deps,
        node_label: &node_label,
        on_path: vec![false; n],
        path: Vec::with_capacity(MAX_CHAIN_LEN),
        labels: Vec::new(),
        ends: Vec::new(),
    };
    for root in roots {
        dfs.path.push(root);
        dfs.on_path[root as usize] = true;
        dfs.visit(root);
        dfs.on_path[root as usize] = false;
        dfs.path.pop();
        if dfs.ends.len() >= MAX_CHAINS {
            break;
        }
    }
    Enumeration {
        instrs,
        operands,
        labels: dfs.labels,
        ends: dfs.ends,
    }
}

struct Dfs<'g> {
    start: &'g [usize],
    deps: &'g [u32],
    node_label: &'g [u32],
    on_path: Vec<bool>,
    path: Vec<u32>,
    labels: Vec<u32>,
    ends: Vec<usize>,
}

impl Dfs<'_> {
    fn visit(&mut self, node: u32) {
        if self.ends.len() >= MAX_CHAINS {
            return;
        }
        let all_deps = self.deps;
        let deps = &all_deps[self.start[node as usize]..self.start[node as usize + 1]];
        // Leaf, cycle guard, or depth cap: emit the current path.
        if self.path.len() >= MAX_CHAIN_LEN || deps.iter().all(|&d| self.on_path[d as usize]) {
            let node_label = self.node_label;
            self.labels
                .extend(self.path.iter().map(|&n| node_label[n as usize]));
            self.ends.push(self.labels.len());
            return;
        }
        for &d in deps {
            if self.on_path[d as usize] {
                continue;
            }
            self.path.push(d);
            self.on_path[d as usize] = true;
            self.visit(d);
            self.on_path[d as usize] = false;
            self.path.pop();
            if self.ends.len() >= MAX_CHAINS {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_mir::{PassRecord, SnapInstr};

    fn instr(id: u32, label: &str, operands: &[u32]) -> SnapInstr {
        SnapInstr {
            id,
            label: Arc::from(label),
            operands: operands.to_vec(),
        }
    }

    fn snap(instrs: Vec<SnapInstr>) -> MirSnapshot {
        MirSnapshot { instrs }
    }

    fn guarded() -> MirSnapshot {
        snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "parameter1", &[]),
            instr(2, "initializedlength", &[0]),
            instr(3, "boundscheck", &[1, 2]),
            instr(4, "loadelement", &[0, 3]),
            instr(5, "return", &[4]),
        ])
    }

    fn unguarded() -> MirSnapshot {
        snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "parameter1", &[]),
            instr(4, "loadelement", &[0, 1]),
            instr(5, "return", &[4]),
        ])
    }

    #[test]
    fn agrees_with_reference_on_the_worked_example() {
        let before = snap(vec![
            instr(3, "d", &[]),
            instr(2, "c", &[3]),
            instr(1, "b", &[2]),
            instr(0, "a", &[1]),
        ]);
        let after = snap(vec![
            instr(4, "e", &[]),
            instr(2, "c", &[4]),
            instr(1, "b", &[2]),
        ]);
        let mut inc = IncrementalExtractor::new();
        assert_eq!(
            inc.extract_delta(&before, &after),
            super::super::extract_delta(&before, &after)
        );
    }

    #[test]
    fn fast_path_skips_unchanged_passes() {
        let s = guarded();
        let mut inc = IncrementalExtractor::new();
        let delta = inc.extract_delta(&s, &s);
        assert!(delta.is_empty());
        assert_eq!(inc.stats().passes_skipped, 1);
        assert_eq!(inc.stats().passes_enumerated, 0);
    }

    #[test]
    fn renumbering_takes_the_fast_path() {
        let before = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "constant:number", &[]),
            instr(2, "add", &[0, 1]),
            instr(3, "return", &[2]),
        ]);
        let after = snap(vec![
            instr(10, "parameter0", &[]),
            instr(11, "constant:number", &[]),
            instr(12, "add", &[10, 11]),
            instr(13, "return", &[12]),
        ]);
        let mut inc = IncrementalExtractor::new();
        assert!(inc.extract_delta(&before, &after).is_empty());
        assert_eq!(inc.stats().passes_skipped, 1);
    }

    #[test]
    fn changed_pass_agrees_and_costs_less_than_reference() {
        let mut inc = IncrementalExtractor::new();
        let delta = inc.extract_delta(&guarded(), &unguarded());
        assert_eq!(delta, super::super::extract_delta(&guarded(), &unguarded()));
        assert!(!delta.is_empty());
        assert_eq!(inc.stats().passes_enumerated, 1);
    }

    #[test]
    fn run_window_cache_hits_on_repeat_deltas() {
        let mut inc = IncrementalExtractor::new();
        let first = inc.extract_delta(&guarded(), &unguarded());
        assert_eq!(inc.stats().run_cache_hits, 0);
        // Same structural change again: every run's windows are cached.
        let second = inc.extract_delta(&guarded(), &unguarded());
        assert_eq!(first, second);
        assert!(inc.stats().run_cache_hits > 0);
    }

    #[test]
    fn adjacent_records_reuse_the_enumeration() {
        let mid = unguarded();
        let end = snap(vec![instr(0, "parameter0", &[]), instr(5, "return", &[0])]);
        let trace = PassTrace {
            function: "f".into(),
            records: vec![
                PassRecord {
                    slot: 0,
                    name: "GVN",
                    before: guarded(),
                    after: mid.clone(),
                },
                PassRecord {
                    slot: 1,
                    name: "DCE",
                    before: mid,
                    after: end,
                },
            ],
        };
        let mut inc = IncrementalExtractor::new();
        let (dna, receipt) = inc.extract_dna(&trace, 4);
        assert_eq!(dna, super::super::extract_dna(&trace, 4));
        assert_eq!(receipt.passes_enumerated, 2);
        // Record 0's `after` enumeration serves record 1's `before`.
        assert!(inc.stats().enum_reuses >= 1, "{:?}", inc.stats());
    }

    #[test]
    fn trace_receipt_counts_fast_and_slow_passes() {
        let s = guarded();
        let trace = PassTrace {
            function: "f".into(),
            records: vec![
                PassRecord {
                    slot: 0,
                    name: "Renumber",
                    before: s.clone(),
                    after: s.clone(),
                },
                PassRecord {
                    slot: 2,
                    name: "GVN",
                    before: s,
                    after: unguarded(),
                },
            ],
        };
        let mut inc = IncrementalExtractor::new();
        let (dna, receipt) = inc.extract_dna(&trace, 4);
        assert_eq!(dna, super::super::extract_dna(&trace, 4));
        assert_eq!(receipt.passes_skipped, 1);
        assert_eq!(receipt.passes_enumerated, 1);
        assert!(receipt.cost_cycles > 0);
        assert!(
            receipt.cost_cycles
                < super::super::trace_work(&trace) * crate::guard::EXTRACT_COST_PER_INSTR,
            "incremental must undercut the reference cost model"
        );
    }

    #[test]
    fn caps_agree_with_reference_on_pathological_graphs() {
        // The wide layered graph from the reference cap test, as the
        // `before` of a pass that removes one leaf edge — the chain cap
        // binds, and the emitted set must still match exactly.
        let mut instrs = Vec::new();
        for i in 0..6u32 {
            instrs.push(instr(i, "leaf", &[]));
        }
        let mut prev: Vec<u32> = (0..6).collect();
        let mut next_id = 6u32;
        for _ in 0..5 {
            let mut cur = Vec::new();
            for _ in 0..6 {
                instrs.push(instr(next_id, "mid", &prev.clone()));
                cur.push(next_id);
                next_id += 1;
            }
            prev = cur;
        }
        instrs.push(instr(next_id, "root", &prev));
        let before = snap(instrs.clone());
        // After: drop one leaf's edge by re-pointing a first-layer node.
        let mut after_instrs = instrs;
        after_instrs[6] = instr(6, "mid", &[1, 2, 3, 4, 5]);
        let after = snap(after_instrs);
        let mut inc = IncrementalExtractor::new();
        assert_eq!(
            inc.extract_delta(&before, &after),
            super::super::extract_delta(&before, &after)
        );
    }
}
