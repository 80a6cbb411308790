//! Wall-clock bench for the Figure-6 database-size sweep on one workload,
//! plus a kernel microbench of the comparator itself (naive reference
//! loop vs indexed pipeline).

use jitbull::{ComparatorIndex, CompareConfig, IndexConfig};
use jitbull_bench::figures::db_with;
use jitbull_bench::timing::bench;
use jitbull_jit::engine::EngineConfig;
use jitbull_workloads::{run_workload, workload};

fn main() {
    let w = workload("Splay").expect("workload exists");
    println!("fig6_splay_db_size");
    for n in [1usize, 2, 4, 8] {
        let (db, vulns) = db_with(n);
        bench(&format!("db_size_{n}_idx"), 2, 10, || {
            run_workload(
                &w,
                EngineConfig {
                    vulns: vulns.clone(),
                    ..Default::default()
                },
                Some(db.clone()),
            )
            .unwrap()
        });
    }

    // Comparator kernel in isolation: one DNA queried against the full
    // 8-entry database, naive loop vs indexed scan (cold cache) vs
    // indexed with the verdict cache warm.
    println!("comparator_kernel_db8");
    let (db, _) = db_with(8);
    let query = db.entries()[0].dna.clone();
    let config = CompareConfig::default();
    bench("reference_loop", 50, 200, || {
        db.entries()
            .iter()
            .map(|e| jitbull::compare::reference(&query, &e.dna, &config).len())
            .sum::<usize>()
    });
    bench("indexed_build", 50, 200, || {
        let mut index = ComparatorIndex::new(IndexConfig::default());
        index.ensure(&db);
        index
    });
    let mut uncached = ComparatorIndex::new(IndexConfig {
        max_cache_entries: 0,
    });
    uncached.ensure(&db);
    bench("indexed_uncached", 50, 200, || {
        uncached.query(&query, &config)
    });
    let mut warm = ComparatorIndex::new(IndexConfig::default());
    warm.ensure(&db);
    warm.query(&query, &config);
    bench("indexed_cached", 50, 200, || warm.query(&query, &config));
}
