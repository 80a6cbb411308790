//! Figures 4, 5, and 6: false-positive rates, execution times, and
//! database-size scalability on the workload suite.

use jitbull::DnaDatabase;
use jitbull_jit::engine::EngineConfig;
use jitbull_jit::{CveId, VulnConfig};
use jitbull_vdc::{build_database, vdc};
use jitbull_workloads::{all_workloads, octane_analogues, run_workload, Measurement, Workload};

/// The database-growth order used by Figures 4–6: the paper's #1 database
/// holds CVE-2019-17026; #4 holds the §VI-B security set; #5–#8 add the
/// scalability set.
pub fn db_order() -> [CveId; 8] {
    [
        CveId::Cve2019_17026,
        CveId::Cve2019_9791,
        CveId::Cve2019_9810,
        CveId::Cve2019_11707,
        CveId::Cve2019_9792,
        CveId::Cve2019_9795,
        CveId::Cve2019_9813,
        CveId::Cve2020_26952,
    ]
}

/// Builds the database with the first `n` CVEs of [`db_order`], and the
/// matching vulnerable-engine configuration (unpatched exactly for those
/// CVEs — the vulnerability-window situation).
pub fn db_with(n: usize) -> (DnaDatabase, VulnConfig) {
    let cves: Vec<CveId> = db_order().into_iter().take(n).collect();
    let vdcs: Vec<_> = cves.iter().map(|c| vdc(*c)).collect();
    let db = build_database(&vdcs).expect("db builds");
    (db, VulnConfig::with(cves))
}

/// One Figure-4 row.
#[derive(Debug)]
pub struct Fig4Row {
    /// Workload name.
    pub name: &'static str,
    /// `Nr_JIT` annotation (from the plain-JIT run, as in the paper).
    pub nr_jit: usize,
    /// (%safe, %pass-disabled, %no-jit) with 1 VDC installed.
    pub with_1: (f64, f64, f64),
    /// Same with 4 VDCs installed.
    pub with_4: (f64, f64, f64),
}

fn fp_triplet(m: &Measurement) -> (f64, f64, f64) {
    (m.pct_safe(), m.pct_pass_disabled(), m.pct_nojit())
}

/// Runs the Figure-4 experiment over the Octane analogues.
pub fn fig4() -> Vec<Fig4Row> {
    let (db1, vulns1) = db_with(1);
    let (db4, vulns4) = db_with(4);
    octane_analogues()
        .iter()
        .map(|w| {
            let plain = run_workload(w, EngineConfig::default(), None).expect("plain run");
            let m1 = run_workload(
                w,
                EngineConfig {
                    vulns: vulns1.clone(),
                    ..Default::default()
                },
                Some(db1.clone()),
            )
            .expect("#1 run");
            let m4 = run_workload(
                w,
                EngineConfig {
                    vulns: vulns4.clone(),
                    ..Default::default()
                },
                Some(db4.clone()),
            )
            .expect("#4 run");
            Fig4Row {
                name: w.name,
                nr_jit: plain.nr_jit,
                with_1: fp_triplet(&m1),
                with_4: fp_triplet(&m4),
            }
        })
        .collect()
}

/// Renders Figure 4 as a table.
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.nr_jit.to_string(),
                format!("{:.1}", r.with_1.0),
                format!("{:.1}", r.with_1.1),
                format!("{:.1}", r.with_1.2),
                format!("{:.1}", r.with_4.0),
                format!("{:.1}", r.with_4.1),
                format!("{:.1}", r.with_4.2),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "benchmark",
            "Nr_JIT",
            "#1 %safe",
            "#1 %dis",
            "#1 %nojit",
            "#4 %safe",
            "#4 %dis",
            "#4 %nojit",
        ],
        &table,
    )
}

/// One Figure-5 row: cycles per configuration.
#[derive(Debug)]
pub struct Fig5Row {
    /// Workload name.
    pub name: &'static str,
    /// Plain JIT (baseline for normalization).
    pub jit: u64,
    /// JIT disabled entirely.
    pub nojit: u64,
    /// JITBULL with an empty database.
    pub jitbull_0: u64,
    /// JITBULL with 1 VDC.
    pub jitbull_1: u64,
    /// JITBULL with 4 VDCs.
    pub jitbull_4: u64,
}

impl Fig5Row {
    /// Overhead of a configuration versus plain JIT, in percent.
    pub fn overhead_pct(&self, cycles: u64) -> f64 {
        (cycles as f64 - self.jit as f64) * 100.0 / self.jit as f64
    }
}

fn cycles(w: &Workload, config: EngineConfig, db: Option<DnaDatabase>) -> u64 {
    run_workload(w, config, db).expect("workload runs").cycles
}

/// Runs the Figure-5 experiment over micro-benchmarks + Octane analogues.
pub fn fig5() -> Vec<Fig5Row> {
    let (db1, vulns1) = db_with(1);
    let (db4, vulns4) = db_with(4);
    all_workloads()
        .iter()
        .map(|w| Fig5Row {
            name: w.name,
            jit: cycles(w, EngineConfig::default(), None),
            nojit: cycles(
                w,
                EngineConfig {
                    jit_enabled: false,
                    ..Default::default()
                },
                None,
            ),
            jitbull_0: cycles(w, EngineConfig::default(), Some(DnaDatabase::new())),
            jitbull_1: cycles(
                w,
                EngineConfig {
                    vulns: vulns1.clone(),
                    ..Default::default()
                },
                Some(db1.clone()),
            ),
            jitbull_4: cycles(
                w,
                EngineConfig {
                    vulns: vulns4.clone(),
                    ..Default::default()
                },
                Some(db4.clone()),
            ),
        })
        .collect()
}

/// Renders Figure 5 (cycles plus overhead percentages).
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.jit.to_string(),
                format!("{} (+{:.0}%)", r.nojit, r.overhead_pct(r.nojit)),
                format!("{:+.1}%", r.overhead_pct(r.jitbull_0)),
                format!("{:+.1}%", r.overhead_pct(r.jitbull_1)),
                format!("{:+.1}%", r.overhead_pct(r.jitbull_4)),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "benchmark",
            "JIT cycles",
            "NoJIT",
            "JITBULL#0",
            "JITBULL#1",
            "JITBULL#4",
        ],
        &table,
    )
}

/// One Figure-6 row: overhead versus plain JIT for DB sizes 1..=8.
#[derive(Debug)]
pub struct Fig6Row {
    /// Workload name.
    pub name: &'static str,
    /// Plain-JIT cycles.
    pub jit: u64,
    /// Cycles with 1..=8 VDCs installed.
    pub with_n: Vec<u64>,
}

impl Fig6Row {
    /// Overhead (%) for DB size `n` (1-based).
    pub fn overhead_pct(&self, n: usize) -> f64 {
        (self.with_n[n - 1] as f64 - self.jit as f64) * 100.0 / self.jit as f64
    }
}

/// Runs the Figure-6 scalability experiment.
pub fn fig6(workloads: &[Workload]) -> Vec<Fig6Row> {
    let dbs: Vec<_> = (1..=8).map(db_with).collect();
    workloads
        .iter()
        .map(|w| {
            let jit = cycles(w, EngineConfig::default(), None);
            let with_n = dbs
                .iter()
                .map(|(db, vulns)| {
                    cycles(
                        w,
                        EngineConfig {
                            vulns: vulns.clone(),
                            ..Default::default()
                        },
                        Some(db.clone()),
                    )
                })
                .collect();
            Fig6Row {
                name: w.name,
                jit,
                with_n,
            }
        })
        .collect()
}

/// One comparator-cost row: simulated analysis cycles (extraction +
/// comparison) per database size, for the naive reference comparator and
/// the indexed pipeline. The verdicts are identical by construction (the
/// differential harness enforces it); only the cost differs.
#[derive(Debug)]
pub struct Fig6ComparatorRow {
    /// Workload name.
    pub name: &'static str,
    /// Per-DB-size `(reference, indexed)` analysis cycles, for sizes
    /// matching the `sizes` argument of [`fig6_comparator`].
    pub cycles: Vec<(u64, u64)>,
}

impl Fig6ComparatorRow {
    /// Indexed speedup over the reference comparator at sweep point `i`
    /// (e.g. `2.0` = indexed analysis costs half the cycles).
    pub fn speedup(&self, i: usize) -> f64 {
        let (reference, indexed) = self.cycles[i];
        reference as f64 / indexed.max(1) as f64
    }
}

/// Runs the naive-vs-indexed comparator cost sweep behind Figure 6:
/// one production run per workload and database, priced with the naive
/// comparator and as charged ([`crate::corpus::replay`]).
pub fn fig6_comparator(workloads: &[Workload], sizes: &[usize]) -> Vec<Fig6ComparatorRow> {
    let dbs: Vec<_> = sizes.iter().map(|&n| db_with(n)).collect();
    workloads
        .iter()
        .map(|w| {
            let cycles = dbs
                .iter()
                .map(|(db, vulns)| {
                    let r = crate::corpus::workload_replay(w, db, vulns);
                    (r.reference_comparator_cycles(), r.production_cycles())
                })
                .collect();
            Fig6ComparatorRow {
                name: w.name,
                cycles,
            }
        })
        .collect()
}

/// Renders the comparator cost sweep (`ref cyc → idx cyc (speedup)` per
/// database size).
pub fn render_fig6_comparator(rows: &[Fig6ComparatorRow], sizes: &[usize]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.to_string()];
            for (i, (reference, indexed)) in r.cycles.iter().enumerate() {
                row.push(format!("{reference}->{indexed} ({:.1}x)", r.speedup(i)));
            }
            row
        })
        .collect();
    let headers: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(sizes.iter().map(|n| format!("#{n} ref->idx")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    crate::render_table(&headers_ref, &table)
}

/// Renders Figure 6.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.to_string()];
            for n in 1..=8 {
                row.push(format!("{:+.1}%", r.overhead_pct(n)));
            }
            row
        })
        .collect();
    crate::render_table(
        &["benchmark", "#1", "#2", "#3", "#4", "#5", "#6", "#7", "#8"],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_sizes_grow() {
        let (db1, v1) = db_with(1);
        let (db8, v8) = db_with(8);
        assert_eq!(db1.cves().len(), 1);
        assert_eq!(db8.cves().len(), 8);
        assert_eq!(v1.enabled().count(), 1);
        assert_eq!(v8.enabled().count(), 8);
    }
}
