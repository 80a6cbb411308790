//! Seeded randomness, order statistics, and host facts read from `/proc`.

use std::time::Instant;

/// SplitMix64: the benchmark's own seeded generator, so its inputs do not
/// change when the repository's generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed, independent of the
    /// other streams drawn from the same seed.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Requests per block of [`block_percentile`].
pub const BLOCK: usize = 1000;

/// Percentile `p` of each block of [`BLOCK`] consecutive samples (a
/// shorter tail joins the last block), then the median over blocks. A
/// host stall of a few milliseconds moves one block's tail, not the
/// result; a slower program moves every block.
pub fn block_percentile(samples: &[f64], p: f64) -> f64 {
    if samples.len() < 2 * BLOCK {
        return percentile(samples, p);
    }
    let blocks = samples.len() / BLOCK;
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * BLOCK
            };
            percentile(&samples[b * BLOCK..end], p)
        })
        .collect();
    median(&per_block)
}

/// Geometric mean of positive values; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Time on CPU and time waiting on a run queue, both in nanoseconds, from
/// a `schedstat` file. Waiting time is what a busy host takes from the
/// program, so it tells a slow host from a slow program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl Sched {
    fn read(path: &str) -> Option<Sched> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        Some(Sched {
            cpu_ns: fields.next()??,
            wait_ns: fields.next()??,
        })
    }

    /// The calling thread.
    pub fn thread() -> Sched {
        Sched::read("/proc/thread-self/schedstat").unwrap_or_default()
    }

    /// Every live thread of this process, summed.
    pub fn process() -> Sched {
        let mut total = Sched::default();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for task in dir.flatten() {
                let path = task.path().join("schedstat");
                if let Some(s) = path.to_str().and_then(Sched::read) {
                    total.cpu_ns += s.cpu_ns;
                    total.wait_ns += s.wait_ns;
                }
            }
        }
        total
    }

    pub fn since(self, start: Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_sub(start.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(start.wait_ns),
        }
    }

    /// Share of runnable time spent waiting for a CPU, in percent.
    pub fn wait_pct(self) -> f64 {
        let runnable = self.cpu_ns + self.wait_ns;
        if runnable == 0 {
            0.0
        } else {
            self.wait_ns as f64 * 100.0 / runnable as f64
        }
    }
}

/// Whole-machine CPU time from `/proc/stat`, in clock ticks: all of it,
/// and the part the hypervisor gave to other guests (steal).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    total: u64,
    steal: u64,
}

impl Ticks {
    pub fn now() -> Ticks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Ticks {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of the machine's CPU time since `start` that was stolen, in
    /// percent.
    pub fn steal_pct_since(self, start: Ticks) -> f64 {
        let total = self.total.saturating_sub(start.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(start.steal) as f64 * 100.0 / total as f64
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite values print with every digit, anything else as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        // One stalled block does not move the median over blocks.
        let mut v: Vec<f64> = (0..5 * BLOCK).map(|i| (i % BLOCK) as f64).collect();
        v[..BLOCK].iter_mut().for_each(|x| *x += 1e6);
        assert_eq!(block_percentile(&v, 99.0), 989.0);
    }

    #[test]
    fn streams_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
    }
}
