//! Serving-pool throughput scaling vs worker count.
//!
//! ```text
//! cargo bench -p jitbull-bench --bench pool_throughput
//! ```
//!
//! Headline: simulated-cycle speedup (busy-cycle total / busiest worker
//! under the pool's FIFO dispatch in simulated time) — load-balance
//! quality independent of host thread timing, which bounds wall-clock
//! scaling on a multi-core host. Wall-clock req/s is secondary.

use jitbull_bench::pool_bench;

fn main() {
    let points = pool_bench::throughput_scaling(&[1, 2, 4, 8], 160);
    println!("pool throughput scaling (160 requests, serving mix, 1 VDC):\n");
    print!("{}", pool_bench::render_scaling(&points));
    let one = &points[0];
    let four = points
        .iter()
        .find(|p| p.workers == 4)
        .expect("4-worker point");
    println!(
        "\n4 workers vs 1: {:.2}x simulated-cycle speedup (floor: 2.50x)",
        four.cycle_speedup / one.cycle_speedup
    );
    assert!(
        four.cycle_speedup / one.cycle_speedup >= 2.5,
        "4-worker cycle speedup below the 2.5x acceptance floor"
    );
}
