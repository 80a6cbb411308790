//! The two serving workloads, both through `jitbull_pool::Pool` with one
//! worker per CPU and `EngineConfig::fast_test()` tier thresholds.
//!
//! * `serve-unique` — closed loop, one client per worker, every request a
//!   distinct generated script (see [`crate::gen`]), JITBULL #4.
//! * `serve-swap` — closed loop with two clients per worker, so requests
//!   queue, over the 4-script serving mix, toggling CVE-2019-17026 in and
//!   out of DB #3 at seeded points about every [`SWAP_EVERY`] requests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use jitbull::{CompareConfig, DnaDatabase, Guard};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::pipeline::N_SLOTS;
use jitbull_pool::{Pool, PoolConfig, PoolError, PoolResponse, Request, Ticket};
use jitbull_workloads::{run_workload, serving_mix, Workload};

use crate::replay::{Item, Plan};
use crate::util::{block_percentile, geomean, median, nproc, percentile, Rng, Sched, Ticks};
use crate::{gen, metric, repeated_setup, Args, Failures, Metric, Phase};

/// Mean number of requests between two `serve-swap` database toggles;
/// each gap is drawn from the seed in `SWAP_EVERY/2 ..= 3*SWAP_EVERY/2`.
pub const SWAP_EVERY: u64 = 250;
/// `serve-swap` clients per pool worker.
const SWAP_CLIENTS_PER_WORKER: usize = 2;
/// The CVE `serve-swap` toggles.
const TOGGLED: &str = "CVE-2019-17026";
/// Generated-script indices from here on are warm-up scripts, so they
/// never collide with the timed stream.
const WARMUP_BASE: u64 = 1 << 40;
/// Requests the traced replay samples from a `serve-unique` run.
const UNIQUE_REPLAY: usize = 48;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Distinct warm-up scripts `serve-unique` serves during set-up.
const UNIQUE_WARMUP: u64 = 32;
/// Rounds of the serving mix per database content during `serve-swap`
/// set-up.
const SWAP_WARMUP_ROUNDS: usize = 8;

fn pool_config() -> PoolConfig {
    PoolConfig {
        workers: nproc(),
        capacity: 64,
        ..PoolConfig::default()
    }
}

fn interp_only() -> EngineConfig {
    EngineConfig {
        jit_enabled: false,
        ..EngineConfig::default()
    }
}

fn interp_printed(name: &'static str, source: String) -> Result<Vec<String>, String> {
    run_workload(&Workload { name, source }, interp_only(), None)
        .map(|m| m.printed)
        .map_err(|e| format!("{name} interpreter reference: {e}"))
}

/// One request's fate, as the client saw it.
struct Done {
    index: u64,
    latency_ms: f64,
    result: Result<PoolResponse, PoolError>,
}

/// Metrics both serving workloads derive from their responses.
fn pool_metrics(
    done: &[Done],
    pool_stats: &jitbull_pool::PoolStats,
    gen_late_ms: &[f64],
) -> Vec<Metric> {
    let ok: Vec<&PoolResponse> = done.iter().filter_map(|d| d.result.as_ref().ok()).collect();
    let waits: Vec<f64> = ok.iter().map(|r| r.wait_micros as f64 / 1e3).collect();
    let runs: Vec<f64> = ok.iter().map(|r| r.run_micros as f64 / 1e3).collect();
    vec![
        metric("pool.queue_wait_ms.p50", percentile(&waits, 50.0), "ms"),
        metric("pool.queue_wait_ms.p99", percentile(&waits, 99.0), "ms"),
        metric("pool.run_ms.p50", percentile(&runs, 50.0), "ms"),
        metric("pool.run_ms.p99", percentile(&runs, 99.0), "ms"),
        metric("pool.rejected", pool_stats.rejected as f64, "count"),
        metric("pool.degraded", pool_stats.degraded as f64, "count"),
        metric("pool.gen_late_ms.p99", percentile(gen_late_ms, 99.0), "ms"),
    ]
}

fn end_to_end(
    setup_s: f64,
    script_ms: f64,
    cycles: f64,
    done: &[Done],
    window_s: f64,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let served = done.iter().filter(|d| d.result.is_ok()).count();
    let latencies: Vec<f64> = done
        .iter()
        .filter(|d| d.result.is_ok())
        .map(|d| d.latency_ms)
        .collect();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("script_ms.geomean", script_ms, "ms"),
        metric("sim_cycles.geomean", cycles, "cycles"),
        metric("req_per_s", served as f64 / window_s, "req/s"),
        metric("latency_ms.p50", block_percentile(&latencies, 50.0), "ms"),
        metric("latency_ms.p90", block_percentile(&latencies, 90.0), "ms"),
        metric("latency_ms.p99", block_percentile(&latencies, 99.0), "ms"),
        metric(
            "ok_frac",
            attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", crate::util::peak_rss_mb(), "MB"),
    ]
}

fn record(d: &Done, extra: &str) -> String {
    match &d.result {
        Ok(r) => format!(
            "{{\"index\":{},\"latency_ms\":{},\"wait_ms\":{},\"run_ms\":{},\"worker\":{},\"epoch\":{},\"cycles\":{}{extra}}}",
            d.index,
            d.latency_ms,
            r.wait_micros as f64 / 1e3,
            r.run_micros as f64 / 1e3,
            r.worker,
            r.db_epoch,
            r.cycles
        ),
        Err(e) => format!("{{\"index\":{},\"error\":{}}}", d.index, crate::util::json_str(&e.to_string())),
    }
}

/// What a closed loop returns: responses sorted by request index, each
/// client's turnaround between a response and its next submission, and
/// the timed window's wall seconds and scheduler time.
struct Loop {
    done: Vec<Done>,
    turnaround_ms: Vec<f64>,
    window_s: f64,
    sched: Sched,
    steal_pct: f64,
}

/// Closed loop: `clients` threads each submit a request and wait for its
/// response before sending the next, until `deadline` has passed or
/// `request` runs out. Request indices are handed out in order;
/// `request(i)` builds request `i` on the client that drew it. Latency
/// runs from submission to response.
fn closed_loop(
    pool: &Pool,
    clients: usize,
    deadline: Duration,
    request: impl Fn(u64) -> Option<Request> + Sync,
) -> Loop {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let sched0 = Sched::process();
    let ticks0 = Ticks::now();
    let per_client: Vec<(Vec<Done>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    let mut turnaround = Vec::new();
                    let mut last = Instant::now();
                    while start.elapsed() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = request(index) else { break };
                        let submitted = Instant::now();
                        turnaround.push((submitted - last).as_secs_f64() * 1e3);
                        let result = pool.submit(req).and_then(Ticket::wait);
                        last = Instant::now();
                        done.push(Done {
                            index,
                            latency_ms: (last - submitted).as_secs_f64() * 1e3,
                            result,
                        });
                    }
                    (done, turnaround)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let sched = Sched::process().since(sched0);
    let steal_pct = Ticks::now().steal_pct_since(ticks0);
    let mut done = Vec::new();
    let mut turnaround_ms = Vec::new();
    for (d, t) in per_client {
        done.extend(d);
        turnaround_ms.extend(t);
    }
    done.sort_by_key(|d| d.index);
    Loop {
        done,
        turnaround_ms,
        window_s,
        sched,
        steal_pct,
    }
}

// ---------------------------------------------------------------- unique

struct UniqueSetup {
    pool: Pool,
    db: DnaDatabase,
    config: EngineConfig,
    /// Warm-up script indices with their interpreter-only output.
    warmup: Vec<(u64, Vec<String>)>,
}

fn unique_setup(seed: u64) -> Result<UniqueSetup, String> {
    let (db, vulns) = jitbull_bench::figures::db_with(4);
    let config = EngineConfig {
        vulns,
        ..EngineConfig::fast_test()
    };
    let warmup = (WARMUP_BASE..WARMUP_BASE + UNIQUE_WARMUP)
        .map(|i| Ok((i, interp_printed("generated", gen::script(seed, i))?)))
        .collect::<Result<Vec<_>, String>>()?;
    let pool = Pool::new(pool_config(), db.clone());
    let tickets = warmup
        .iter()
        .map(|(i, _)| pool.submit(Request::new(gen::script(seed, *i)).with_config(config.clone())))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up submit: {e}"))?;
    for (t, (i, reference)) in tickets.into_iter().zip(&warmup) {
        let r = t.wait().map_err(|e| format!("warm-up request: {e}"))?;
        if &r.printed != reference {
            return Err(format!(
                "warm-up script {i} printed {:?}, interpreter {reference:?}",
                r.printed
            ));
        }
    }
    Ok(UniqueSetup {
        pool,
        db,
        config,
        warmup,
    })
}

pub fn run_unique(args: &Args) -> Result<Phase, String> {
    let seed = args.seed;
    let (s, setup_s) = repeated_setup(SETUPS, || unique_setup(seed))?;
    let clients = nproc();
    let Loop {
        done,
        turnaround_ms: gen_late,
        window_s,
        sched,
        steal_pct,
    } = closed_loop(
        &s.pool,
        clients,
        Duration::from_secs_f64(args.seconds),
        |index| Some(Request::new(gen::script(seed, index)).with_config(s.config.clone())),
    );
    let UniqueSetup {
        pool,
        db,
        config,
        warmup,
    } = s;
    let pool_stats = pool.shutdown();

    // Every response against an interpreter-only run of its script, made
    // after the timed window (the scripts are only known once served).
    let mut failures = Failures::default();
    let checks: Vec<Option<String>> = std::thread::scope(|scope| {
        let chunk = done.len().div_ceil(clients).max(1);
        let handles: Vec<_> = done
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|d| match &d.result {
                            Err(e) => Some(format!("request {}: {e}", d.index)),
                            Ok(r) => {
                                match interp_printed("generated", gen::script(seed, d.index)) {
                                    Err(e) => Some(e),
                                    Ok(p) if p != r.printed => Some(format!(
                                        "request {}: printed {:?}, interpreter {p:?}",
                                        d.index, r.printed
                                    )),
                                    Ok(_) => None,
                                }
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for c in checks.into_iter().flatten() {
        failures.add(|| c);
    }

    let ok: Vec<&PoolResponse> = done.iter().filter_map(|d| d.result.as_ref().ok()).collect();
    let run_ms: Vec<f64> = ok.iter().map(|r| r.run_micros as f64 / 1e3).collect();
    let cycles: Vec<f64> = ok.iter().map(|r| r.cycles as f64).collect();
    let attempted = done.len() as u64;
    let mut metrics = end_to_end(
        setup_s,
        geomean(&run_ms),
        geomean(&cycles),
        &done,
        window_s,
        attempted,
        failures.count,
    );
    metrics.extend(pool_metrics(&done, &pool_stats, &gen_late));

    // Replay: a few warm-up scripts, then a seeded sample of served ones.
    let mut rng = Rng::stream(seed, 2);
    let mut sample: Vec<u64> = done
        .iter()
        .filter(|d| d.result.is_ok())
        .map(|d| d.index)
        .collect();
    rng.shuffle(&mut sample);
    sample.truncate(UNIQUE_REPLAY);
    sample.sort_unstable();
    let mut items: Vec<Item> = warmup
        .into_iter()
        .take(4)
        .map(|(index, reference)| Item {
            name: "generated",
            source: gen::script(seed, index),
            db: 0,
            reference,
            warmup: true,
        })
        .collect();
    for index in sample {
        let source = gen::script(seed, index);
        items.push(Item {
            name: "generated",
            reference: interp_printed("generated", source.clone())?,
            source,
            db: 0,
            warmup: false,
        });
    }
    Ok(Phase {
        attempted,
        failed: failures.count,
        problems: failures.problems,
        metrics,
        window_s,
        sched,
        steal_pct,
        records: done.iter().map(|d| record(d, "")).collect(),
        plan: Plan {
            items,
            dbs: vec![db],
            config,
            shared: true,
        },
    })
}

// ------------------------------------------------------------------ swap

/// Which database content a `serve-swap` epoch served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// DB #3 with the toggled CVE.
    With = 0,
    /// DB #3 without it.
    Without = 1,
}

struct SwapSetup {
    pool: Pool,
    texts: [String; 2],
    dbs: [DnaDatabase; 2],
    config: EngineConfig,
    mix: Vec<Workload>,
    reference: Vec<Vec<String>>,
    /// `expected[variant][script]`: sorted CVEs the script's verdicts
    /// must name under that database content.
    expected: [Vec<Vec<String>>; 2],
    /// Epoch → content, for every epoch the pool has published.
    epochs: Vec<(u64, Variant)>,
    /// Warm-up requests as `(script, variant)`, in order.
    warmup: Vec<(usize, Variant)>,
}

fn matched_cves(
    config: &EngineConfig,
    db: &DnaDatabase,
    source: &str,
) -> Result<Vec<String>, String> {
    let mut engine = Engine::with_guard(
        config.clone(),
        Guard::new(db.clone(), CompareConfig::default()),
    );
    let out = engine.run_source_with(source).map_err(|e| e.to_string())?;
    let mut cves: Vec<String> = out
        .stats
        .iter()
        .flat_map(|s| s.matched.iter().map(|(cve, _)| cve.clone()))
        .collect();
    cves.sort();
    cves.dedup();
    Ok(cves)
}

fn swap_setup() -> Result<SwapSetup, String> {
    let (with, vulns) = jitbull_bench::figures::db_with(3);
    let mut without = with.clone();
    if without.remove_cve(TOGGLED) == 0 {
        return Err(format!("DB #3 lacks {TOGGLED}"));
    }
    let texts = [with.to_text(), without.to_text()];
    let parse = |t: &str| DnaDatabase::from_text(t, N_SLOTS).map_err(|e| e.to_string());
    let dbs = [parse(&texts[0])?, parse(&texts[1])?];
    let config = EngineConfig {
        vulns,
        ..EngineConfig::fast_test()
    };
    let mix = serving_mix();
    let reference = mix
        .iter()
        .map(|w| interp_printed(w.name, w.source.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let verdicts = |db: &DnaDatabase| {
        mix.iter()
            .map(|w| matched_cves(&config, db, &w.source))
            .collect::<Result<Vec<_>, _>>()
    };
    let expected = [verdicts(&dbs[0])?, verdicts(&dbs[1])?];
    if expected[0] == expected[1] {
        return Err(format!(
            "toggling {TOGGLED} changes no verdict of the serving mix"
        ));
    }

    let pool = Pool::new(pool_config(), dbs[0].clone());
    let mut epochs = vec![(pool.epoch(), Variant::With)];
    // Warm-up: rounds of the mix under each content, ending on the
    // content the timed run starts with.
    let mut warmup = Vec::new();
    for variant in [Variant::Without, Variant::With] {
        let epoch = pool
            .reload_from_text(&texts[variant as usize], N_SLOTS)
            .map_err(|e| e.to_string())?;
        epochs.push((epoch, variant));
        let mut tickets = Vec::new();
        for round in 0..SWAP_WARMUP_ROUNDS * mix.len() {
            let i = round % mix.len();
            warmup.push((i, variant));
            let req = Request::new(mix[i].source.clone()).with_config(config.clone());
            tickets.push(
                pool.submit(req)
                    .map_err(|e| format!("warm-up submit: {e}"))?,
            );
        }
        for t in tickets {
            t.wait().map_err(|e| format!("warm-up request: {e}"))?;
        }
    }
    Ok(SwapSetup {
        pool,
        texts,
        dbs,
        config,
        mix,
        reference,
        expected,
        epochs,
        warmup,
    })
}

/// Seeded toggle points of the timed run: before each listed request
/// index the pool publishes the other database content.
struct Toggles(Vec<u64>);

impl Toggles {
    fn new(seed: u64) -> Toggles {
        let mut rng = Rng::stream(seed, 3);
        let mut at = 0u64;
        let points = std::iter::from_fn(|| {
            at += rng.range(SWAP_EVERY / 2, 3 * SWAP_EVERY / 2);
            Some(at)
        })
        .take_while(|&p| p < 1 << 24)
        .collect();
        Toggles(points)
    }

    /// The content in force for request `index`: the timed run starts
    /// with the CVE installed.
    fn variant(&self, index: u64) -> Variant {
        if self.0.partition_point(|&p| p <= index) % 2 == 0 {
            Variant::With
        } else {
            Variant::Without
        }
    }

    fn is_toggle(&self, index: u64) -> bool {
        self.0.binary_search(&index).is_ok()
    }
}

pub fn run_swap(args: &Args) -> Result<Phase, String> {
    let (s, setup_s) = repeated_setup(SETUPS, swap_setup)?;
    let n_mix = s.mix.len() as u64;
    let toggles = Toggles::new(args.seed);
    let published = std::sync::Mutex::new((Vec::new(), Vec::new(), Failures::default()));
    // The client that draws a toggle index publishes the new content
    // before building its request, as an operator's update would land
    // between two requests.
    let run = closed_loop(
        &s.pool,
        SWAP_CLIENTS_PER_WORKER * nproc(),
        Duration::from_secs_f64(args.seconds),
        |index| {
            if toggles.is_toggle(index) {
                let variant = toggles.variant(index);
                let t0 = Instant::now();
                let result = s.pool.reload_from_text(&s.texts[variant as usize], N_SLOTS);
                let ms = crate::util::ms(t0);
                let mut p = published.lock().expect("publish log lock");
                p.1.push(ms);
                match result {
                    Ok(epoch) => p.0.push((epoch, variant)),
                    Err(e) => p.2.add(|| format!("reload before request {index}: {e}")),
                }
            }
            let script = (index % n_mix) as usize;
            Some(Request::new(s.mix[script].source.clone()).with_config(s.config.clone()))
        },
    );
    let (new_epochs, swap_ms, mut failures) = published.into_inner().expect("publish log lock");
    let Loop {
        done,
        turnaround_ms: gen_late,
        window_s,
        sched,
        steal_pct,
    } = run;
    let SwapSetup {
        pool,
        dbs,
        config,
        mix,
        reference,
        expected,
        mut epochs,
        warmup,
        ..
    } = s;
    let pool_stats = pool.shutdown();
    epochs.extend(new_epochs);
    let epoch_variant: HashMap<u64, Variant> = epochs.into_iter().collect();

    let mut first_after_swap: HashMap<(usize, u64), (u64, f64)> = HashMap::new();
    for d in &done {
        let script = (d.index % n_mix) as usize;
        let r = match &d.result {
            Ok(r) => r,
            Err(e) => {
                failures.add(|| format!("request {}: {e}", d.index));
                continue;
            }
        };
        if r.printed != reference[script] {
            failures.add(|| {
                format!(
                    "request {}: printed {:?}, interpreter {:?}",
                    d.index, r.printed, reference[script]
                )
            });
        }
        match epoch_variant.get(&r.db_epoch) {
            None => failures.add(|| {
                format!(
                    "request {}: served at unknown epoch {}",
                    d.index, r.db_epoch
                )
            }),
            Some(v) if r.matched_cves != expected[*v as usize][script] => failures.add(|| {
                format!(
                    "request {} ({}): matched {:?} at epoch {} ({v:?}), expected {:?}",
                    d.index,
                    mix[script].name,
                    r.matched_cves,
                    r.db_epoch,
                    expected[*v as usize][script]
                )
            }),
            Some(_) => {}
        }
        if d.index >= toggles.0[0] {
            let e = first_after_swap
                .entry((r.worker, r.db_epoch))
                .or_insert((d.index, r.run_micros as f64 / 1e3));
            if d.index < e.0 {
                *e = (d.index, r.run_micros as f64 / 1e3);
            }
        }
    }

    let per_script = |f: &dyn Fn(&PoolResponse) -> f64| -> Vec<f64> {
        (0..n_mix)
            .map(|i| {
                let v: Vec<f64> = done
                    .iter()
                    .filter(|d| d.index % n_mix == i)
                    .filter_map(|d| d.result.as_ref().ok())
                    .map(f)
                    .collect();
                median(&v)
            })
            .collect()
    };
    let script_ms = per_script(&|r| r.run_micros as f64 / 1e3);
    let cycles = per_script(&|r| r.cycles as f64);
    let attempted = done.len() as u64;
    let mut metrics = end_to_end(
        setup_s,
        geomean(&script_ms),
        geomean(&cycles),
        &done,
        window_s,
        attempted,
        failures.count,
    );
    metrics.extend(pool_metrics(&done, &pool_stats, &gen_late));
    let post: Vec<f64> = first_after_swap.values().map(|(_, ms)| *ms).collect();
    metrics.push(metric("pool.swap_publish_ms", median(&swap_ms), "ms"));
    metrics.push(metric("pool.post_swap_run_ms.p50", median(&post), "ms"));

    // Replay: the warm-up sequence, then the timed run's first two
    // content periods.
    let item = |script: usize, variant: Variant, warm: bool| Item {
        name: mix[script].name,
        source: mix[script].source.clone(),
        db: variant as usize,
        reference: reference[script].clone(),
        warmup: warm,
    };
    let mut items: Vec<Item> = warmup.iter().map(|&(i, v)| item(i, v, true)).collect();
    items.extend((0..toggles.0[1]).map(|i| item((i % n_mix) as usize, toggles.variant(i), false)));
    let records = done
        .iter()
        .map(|d| {
            record(
                d,
                &format!(",\"script\":\"{}\"", mix[(d.index % n_mix) as usize].name),
            )
        })
        .collect();
    Ok(Phase {
        attempted,
        failed: failures.count,
        problems: failures.problems,
        metrics,
        window_s,
        sched,
        steal_pct,
        records,
        plan: Plan {
            items,
            dbs: dbs.into(),
            config,
            shared: true,
        },
    })
}

// ---------------------------------------------------------------- probes

/// Publishes `text` to `pool`, then serves `sources` closed-loop with one
/// client per worker. Returns the publish time, the median over workers
/// of each worker's first run after it, the loop, and a failure for every
/// response that errs or prints other than `reference[i]`.
fn swap_probe(
    pool: &Pool,
    text: &str,
    config: &EngineConfig,
    sources: &[String],
    reference: &[Vec<String>],
) -> Result<(f64, f64, Loop, Failures), String> {
    let t0 = Instant::now();
    pool.reload_from_text(text, N_SLOTS)
        .map_err(|e| e.to_string())?;
    let publish_ms = crate::util::ms(t0);
    let run = closed_loop(pool, nproc(), Duration::MAX, |i| {
        sources
            .get(i as usize)
            .map(|s| Request::new(s.clone()).with_config(config.clone()))
    });
    let mut first: HashMap<usize, f64> = HashMap::new();
    let mut failures = Failures::default();
    for d in &run.done {
        match &d.result {
            Ok(r) => {
                first.entry(r.worker).or_insert(r.run_micros as f64 / 1e3);
                if r.printed != reference[d.index as usize] {
                    failures.add(|| format!("probe request {}: printed {:?}", d.index, r.printed));
                }
            }
            Err(e) => failures.add(|| format!("probe request {}: {e}", d.index)),
        }
    }
    let firsts: Vec<f64> = first.into_values().collect();
    Ok((publish_ms, median(&firsts), run, failures))
}

/// What a probe measured.
pub struct Probe {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Failures,
}

/// `suite-guarded` has no pool: its traced run serves the 14 suite
/// scripts once through one, right after republishing DB #4, so every
/// pool metric is measured on it too.
pub fn suite_pool_probe() -> Result<Probe, String> {
    let (db, vulns) = jitbull_bench::figures::db_with(4);
    let scripts = jitbull_workloads::all_workloads();
    let reference = scripts
        .iter()
        .map(|w| interp_printed(w.name, w.source.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let sources: Vec<String> = scripts.into_iter().map(|w| w.source).collect();
    let config = EngineConfig {
        vulns,
        ..EngineConfig::default()
    };
    let pool = Pool::new(pool_config(), db.clone());
    let (publish_ms, post_ms, run, failures) =
        swap_probe(&pool, &db.to_text(), &config, &sources, &reference)?;
    let stats = pool.shutdown();
    let mut metrics = pool_metrics(&run.done, &stats, &run.turnaround_ms);
    metrics.push(metric("pool.swap_publish_ms", publish_ms, "ms"));
    metrics.push(metric("pool.post_swap_run_ms.p50", post_ms, "ms"));
    Ok(Probe {
        metrics,
        attempted: sources.len() as u64,
        failures,
    })
}

/// `serve-unique` has no swaps: its traced run republishes DB #4 to a
/// fresh pool and serves a few more distinct scripts after it.
pub fn unique_swap_probe(seed: u64) -> Result<Probe, String> {
    let (db, vulns) = jitbull_bench::figures::db_with(4);
    let config = EngineConfig {
        vulns,
        ..EngineConfig::fast_test()
    };
    let base = WARMUP_BASE + UNIQUE_WARMUP;
    let sources: Vec<String> = (base..base + 4 * nproc() as u64)
        .map(|i| gen::script(seed, i))
        .collect();
    let reference = sources
        .iter()
        .map(|s| interp_printed("generated", s.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let pool = Pool::new(pool_config(), db.clone());
    let (publish_ms, post_ms, _, failures) =
        swap_probe(&pool, &db.to_text(), &config, &sources, &reference)?;
    pool.shutdown();
    Ok(Probe {
        metrics: vec![
            metric("pool.swap_publish_ms", publish_ms, "ms"),
            metric("pool.post_swap_run_ms.p50", post_ms, "ms"),
        ],
        attempted: sources.len() as u64,
        failures,
    })
}
