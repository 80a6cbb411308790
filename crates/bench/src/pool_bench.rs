//! Serving-pool throughput scaling (`benches/pool_throughput.rs`).
//!
//! The headline metric is **simulated-cycle speedup**: the served
//! requests' simulated cycles, dispatched in submission order by the
//! pool's FIFO queue to whichever worker frees up first in simulated
//! time, summed over workers and divided by the busiest worker's cycles.
//! It measures how evenly the pool's queue spreads work — the quantity
//! that bounds wall-clock scaling on a real multi-core host — from the
//! requests' costs alone, so it does not depend on which host thread
//! happened to take which request. Wall-clock throughput is reported
//! only as a secondary observation.

use std::time::Instant;

use jitbull::CompareConfig;
use jitbull_jit::engine::EngineConfig;
use jitbull_jit::CveId;
use jitbull_pool::{Pool, PoolConfig, Request};
use jitbull_vdc::{build_database, vdc};

use crate::render_table;

/// One worker-count measurement.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Worker threads.
    pub workers: usize,
    /// Requests served.
    pub served: u64,
    /// Simulated busy cycles summed over workers.
    pub total_cycles: u64,
    /// Simulated-cycle speedup of the FIFO dispatch (total / busiest
    /// worker, see [`fifo_speedup`]); the headline.
    pub cycle_speedup: f64,
    /// Wall-clock for the whole batch, milliseconds (secondary).
    pub wall_ms: f64,
    /// Wall-clock requests per second (secondary).
    pub req_per_s: f64,
}

/// Serves `requests` requests (round-robin over the serving mix, guard
/// loaded with CVE-2019-17026's VDC DNA) at each worker count.
pub fn throughput_scaling(worker_counts: &[usize], requests: usize) -> Vec<ScalingPoint> {
    let db = build_database(&[vdc(CveId::Cve2019_17026)]).expect("vdc database builds");
    let mix = jitbull_workloads::serving_mix();
    worker_counts
        .iter()
        .map(|&workers| {
            let pool = Pool::new(
                PoolConfig {
                    workers,
                    capacity: requests.max(1),
                    compare: CompareConfig::default(),
                    ..PoolConfig::default()
                },
                db.clone(),
            );
            let start = Instant::now();
            let tickets: Vec<_> = (0..requests)
                .map(|i| {
                    let w = &mix[i % mix.len()];
                    pool.submit(
                        Request::new(w.source.clone()).with_config(EngineConfig::fast_test()),
                    )
                    .expect("capacity sized to the batch")
                })
                .collect();
            let cycles: Vec<u64> = tickets
                .into_iter()
                .map(|t| t.wait().expect("request serves cleanly").cycles)
                .collect();
            let wall = start.elapsed().as_secs_f64();
            let stats = pool.shutdown();
            ScalingPoint {
                workers,
                served: stats.served,
                total_cycles: stats.worker_cycles.iter().sum(),
                cycle_speedup: fifo_speedup(&cycles, workers),
                wall_ms: wall * 1e3,
                req_per_s: requests as f64 / wall,
            }
        })
        .collect()
}

/// Balance of `cycles` (per request, in submission order) on `workers`
/// workers fed by one FIFO queue in simulated time: each request goes
/// to the worker that frees up first (the lowest index on a tie), and
/// the result is the total over the busiest worker's cycles.
#[must_use]
pub fn fifo_speedup(cycles: &[u64], workers: usize) -> f64 {
    let mut busy = vec![0u64; workers.max(1)];
    for &c in cycles {
        let free = (0..busy.len()).min_by_key(|&w| busy[w]).unwrap_or(0);
        busy[free] += c;
    }
    let max = busy.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 0.0;
    }
    busy.iter().sum::<u64>() as f64 / max as f64
}

/// Renders the scaling table.
#[must_use]
pub fn render_scaling(points: &[ScalingPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                p.served.to_string(),
                p.total_cycles.to_string(),
                format!("{:.2}x", p.cycle_speedup),
                format!("{:.1}", p.wall_ms),
                format!("{:.0}", p.req_per_s),
            ]
        })
        .collect();
    render_table(
        &[
            "workers",
            "served",
            "busy cycles",
            "cycle speedup",
            "wall ms",
            "req/s",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_dispatch_goes_to_the_first_free_worker() {
        assert_eq!(fifo_speedup(&[5, 5, 5, 5], 4), 4.0);
        // 9 → w0, 1 → w1, 1 → w1 (free at 1 < 9): busiest 9 of 11.
        assert_eq!(fifo_speedup(&[9, 1, 1], 2), 11.0 / 9.0);
        assert_eq!(fifo_speedup(&[3, 4], 1), 1.0);
        assert_eq!(fifo_speedup(&[], 4), 0.0);
    }

    #[test]
    fn four_workers_balance_at_least_2_5x() {
        let points = throughput_scaling(&[1, 4], 48);
        assert_eq!(points[0].served, 48);
        assert_eq!(points[1].served, 48);
        // One worker trivially has speedup 1.0.
        assert!((points[0].cycle_speedup - 1.0).abs() < 1e-9);
        // Four workers must spread the batch well past the 2.5x floor.
        assert!(
            points[1].cycle_speedup >= 2.5,
            "cycle speedup {:.2} < 2.5",
            points[1].cycle_speedup
        );
        // Same batch of scripts: totals agree closely (not exactly —
        // each worker warms its own comparator cache, so more workers
        // means a few more cold queries).
        let (a, b) = (points[0].total_cycles as f64, points[1].total_cycles as f64);
        assert!((a - b).abs() / a < 0.05, "totals diverged: {a} vs {b}");
    }
}
