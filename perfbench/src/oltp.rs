//! The three closed-loop OLTP workloads: TPC-C on the RapiLog machine,
//! the commit storm on the same machine, and TPC-C on synchronous virtio
//! logging with an undersized buffer pool.
//!
//! Every client is a virtual task; each waits for its reply before sending
//! the next transaction (closed loop). The benchmark drives
//! its own clients instead of `workload::client::run` so it can stamp each
//! transaction at submit, job-body entry, commit call, job-body exit and ack
//! — that is how the `session` and `engine` layers are timed from outside.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use rapilog::{BufferStats, RapiLog};
use rapilog_bench::alloc;
use rapilog_dbengine::buffer::PoolStats;
use rapilog_dbengine::util::put_u64;
use rapilog_dbengine::wal::WalStats;
use rapilog_dbengine::{Database, DbConfig, DbError, EngineProfile};
use rapilog_faultsim::{Machine, MachineConfig, Setup};
use rapilog_simcore::rng::exponential;
use rapilog_simcore::{Sim, SimCtx, SimDuration, SimTime};
use rapilog_simdisk::{specs, DiskSpec, DiskStats};
use rapilog_simpower::supplies;
use rapilog_workload::session::{job, outcome_from, Job, JobOutcome};
use rapilog_workload::tpcc::{self, TpccScale, TpccTables};
use rapilog_workload::{micro, Connection};

use crate::spans::{Recorder, Span};
use crate::stats::{median, percentile, ratio};
use crate::{Rep, Work};

/// Which transaction mix the clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// TPC-C at `TpccScale::small()` (the standard 45/43/4/4/4 mix).
    Tpcc,
    /// One blind update of a private register pair plus commit per
    /// transaction; the benchmark issues `begin`/`update`/`commit` itself.
    Storm,
}

/// One OLTP workload: a machine, a population and a client count.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Machine assembly.
    pub setup: Setup,
    /// Data-disk model.
    pub data: DiskSpec,
    /// Log-disk model.
    pub log: DiskSpec,
    /// Buffer-pool capacity, pages.
    pub pool_pages: usize,
    /// Transaction mix.
    pub mix: Mix,
    /// Closed-loop clients.
    pub clients: u64,
    /// Mean exponential think time between a client's transactions.
    pub think: Option<SimDuration>,
    /// Measured window.
    pub measure: SimDuration,
}

/// Excluded from statistics at the start of the run.
const WARMUP: SimDuration = SimDuration::from_millis(500);
/// Measured window of the TPC-C workloads (≥ 30k commits, 12 checkpoints).
const TPCC_MEASURE: SimDuration = SimDuration::from_secs(6);
/// Measured window of the storm (≈ 500k commits, 3 checkpoints).
const STORM_MEASURE: SimDuration = SimDuration::from_millis(1500);
/// Automatic checkpoint period (the default 5 s would never fire in the
/// window, so the pool would never write back).
const CHECKPOINT: SimDuration = SimDuration::from_millis(500);
/// Period of the read-only RapiLog gauge sampler.
const TICK: SimDuration = SimDuration::from_micros(100);
/// Storm clients' mean think time.
const STORM_THINK: SimDuration = SimDuration::from_micros(5);
/// Set-ups timed per run (the last one goes on to the measurement).
const SETUP_REPS: usize = 20;
/// Window over which the sampler measures drain bandwidth for headroom.
const BW_WINDOW: SimDuration = SimDuration::from_millis(100);

/// The OLTP workload called `name`, if there is one.
pub fn spec(name: &str) -> Option<Spec> {
    let name: &'static str = crate::WORKLOADS.iter().find(|w| **w == name)?;
    let rapilog = |data, mix, clients, think, measure| Spec {
        name,
        setup: Setup::RapiLog,
        data,
        log: specs::hdd_7200(512 << 20),
        pool_pages: 2048,
        mix,
        clients,
        think,
        measure,
    };
    match name {
        "tpcc-rapilog-hdd" => Some(rapilog(
            specs::ssd_sata(1 << 30),
            Mix::Tpcc,
            16,
            None,
            TPCC_MEASURE,
        )),
        // A short seeded think time keeps the 32 clients out of lock-step;
        // without it every commit takes the same path and the latency
        // percentiles would not depend on the seed at all.
        "storm-rapilog-hdd" => Some(rapilog(
            specs::instant(256 << 20),
            Mix::Storm,
            32,
            Some(STORM_THINK),
            STORM_MEASURE,
        )),
        "tpcc-sync-ssd" => Some(Spec {
            name,
            setup: Setup::Virtualized,
            data: specs::ssd_sata(1 << 30),
            log: specs::ssd_sata(512 << 20),
            pool_pages: 64,
            mix: Mix::Tpcc,
            clients: 16,
            think: None,
            measure: TPCC_MEASURE,
        }),
        _ => None,
    }
}

impl Spec {
    fn machine(&self) -> MachineConfig {
        let mut m = MachineConfig::new(self.setup, self.data.clone(), self.log.clone());
        m.supply = Some(supplies::atx_psu());
        m.db = DbConfig {
            profile: EngineProfile::pg_like(),
            pool_pages: self.pool_pages,
            checkpoint_interval: CHECKPOINT,
            ..DbConfig::default()
        };
        m
    }
}

/// Counter readings at one instant.
#[derive(Clone, Default)]
struct Counters {
    wal: WalStats,
    pool: PoolStats,
    log_disk: DiskStats,
    data_disk: DiskStats,
    rapilog: BufferStats,
}

impl Counters {
    fn read(machine: &Machine, db: &Database) -> Counters {
        Counters {
            wal: db.wal().stats(),
            pool: db.pool().stats(),
            log_disk: machine.log_disk().stats(),
            data_disk: machine.data_disk().stats(),
            rapilog: machine.rapilog().map(|rl| rl.stats()).unwrap_or_default(),
        }
    }
}

/// Everything the clients observed inside the measured window.
#[derive(Default)]
struct Observed {
    committed: u64,
    aborted: u64,
    lock_timeouts: u64,
    lost: u64,
    /// Submit → ack, ns, per committed transaction.
    latency: Vec<u64>,
    /// Submit → job-body entry, ns.
    queue: Vec<u64>,
    /// Whole job body (TPC-C), ns.
    txn: Vec<u64>,
    /// Body entry → commit call (storm), ns.
    exec: Vec<u64>,
    /// `Database::commit` (storm), ns.
    commit: Vec<u64>,
    /// `(client, seq, latency)` of committed transactions (traced runs only).
    by_request: Vec<(u64, u64, u64)>,
    /// Commits acknowledged any time after set-up (warmup and tail too).
    all_commits: u64,
}

/// What the RapiLog gauge sampler saw.
#[derive(Default)]
struct Gauges {
    /// Accepted → drained delay of acknowledged bytes, ns.
    durable_lag: Vec<u64>,
    /// Buffer occupancy, bytes, one per tick.
    occupancy: Vec<u64>,
    /// Lowest energy headroom seen, ns (`None` until the drain has run).
    headroom_min: Option<i64>,
}

/// A loaded machine: the machine, its database and the TPC-C tables.
pub type Loaded = (Machine, Database, Option<TpccTables>);

/// Runs the workload once on `seed`.
///
/// # Panics
///
/// Panics when a correctness check fails: the RapiLog audit, the trusted
/// cells, drained ≠ accepted at quiesce, or no checkpoint in the window.
pub fn run(spec: &Spec, seed: u64, rec: &Recorder) -> Rep {
    let mut setups = Vec::new();
    let (mut sim, (machine, db, tables)) = loop {
        let (sim, loaded, secs) = set_up(spec, seed);
        setups.push(secs);
        if setups.len() == SETUP_REPS {
            break (sim, loaded);
        }
    };
    let ctx = sim.ctx();
    let start = ctx.now() + WARMUP;
    let end = start + spec.measure;
    let observed: Rc<RefCell<Observed>> = Rc::default();
    let (mix, clients, think) = (spec.mix, spec.clients, spec.think);
    let usable = spec.machine().supply.map(|s| s.usable_window());
    let measured = {
        let (ctx, observed, rec) = (ctx.clone(), Rc::clone(&observed), rec.clone());
        sim.spawn(async move {
            let server = machine.server();
            let rl = machine.rapilog();
            let stop = Rc::new(Cell::new(false));
            let sampler = rl.clone().zip(usable).map(|(rl, usable)| {
                let (c, s) = (ctx.clone(), Rc::clone(&stop));
                ctx.spawn(sample_gauges(c, rl, usable, start, end, s))
            });
            let window = {
                let (c, m, d) = (ctx.clone(), machine.clone(), db.clone());
                ctx.spawn(async move {
                    c.sleep_until(start).await;
                    let w0 = Counters::read(&m, &d);
                    c.sleep_until(end).await;
                    (w0, Counters::read(&m, &d))
                })
            };
            let mut handles = Vec::new();
            for client in 0..clients {
                let conn = server.connect();
                let (c, o, r) = (ctx.clone(), Rc::clone(&observed), rec.clone());
                let params = ClientParams {
                    client,
                    mix,
                    tables,
                    think,
                    start,
                    end,
                };
                handles.push(ctx.spawn(drive_client(c, conn, params, o, r)));
            }
            for h in handles {
                let _ = h.await;
            }
            let window = window.await.expect("window counters read");
            if let Some(rl) = &rl {
                rl.quiesce().await;
                let s = rl.snapshot();
                assert_eq!(
                    s.buffer.accepted_bytes, s.buffer.drained_bytes,
                    "drained bytes differ from accepted bytes at quiesce"
                );
                assert_eq!(s.occupancy, 0, "buffer not empty at quiesce");
                assert!(!s.degraded && !s.frozen, "RapiLog left early-ack mode");
            }
            stop.set(true);
            let gauges = match sampler {
                Some(h) => h.await.expect("sampler finished"),
                None => Gauges::default(),
            };
            if let Some(held) = machine.rapilog_guarantee_held() {
                assert!(held, "RapiLog audit: guarantee violated during the run");
            }
            machine.assert_trusted_intact();
            let resident = db.pool().resident();
            db.stop();
            (window, gauges, resident)
        })
    };
    let a0 = alloc::snapshot();
    let (polls, run_slices) = step_until(&mut sim, || measured.is_finished());
    let allocs = alloc::snapshot().since(a0);
    let ((w0, w1), gauges, resident) = measured.try_take().expect("measurement finished");

    let mut o = observed.take();
    let modelled = layer_values(spec, &mut o, gauges, &w0, &w1, resident);
    let failed = o.aborted + o.lock_timeouts + o.lost;
    Rep {
        attempted: o.committed + failed,
        failed,
        modelled,
        work: Work {
            commits: o.all_commits,
            polls,
            allocs: allocs.calls,
            alloc_bytes: allocs.bytes,
        },
        setup_s: median(&setups),
        run_slices,
        spans: rec.take(),
        latencies: o.by_request,
    }
}

/// Builds the machine, installs the schema and loads the population in a
/// fresh simulation; returns it with the host seconds that took.
fn set_up(spec: &Spec, seed: u64) -> (Sim, Loaded, f64) {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let (cfg, mix, clients) = (spec.machine(), spec.mix, spec.clients);
    let loaded = sim.spawn(async move { install(&ctx, cfg, mix, clients).await });
    let secs = step_until(&mut sim, || loaded.is_finished()).1.iter().sum();
    let loaded = loaded.try_take().expect("set-up finished");
    (sim, loaded, secs)
}

/// Builds the machine, installs the schema for `mix` and loads it: TPC-C
/// at `TpccScale::small()`, or one register pair per client.
pub async fn install(ctx: &SimCtx, cfg: MachineConfig, mix: Mix, clients: u64) -> Loaded {
    let machine = Machine::new(ctx, cfg);
    let scale = TpccScale::small();
    let defs = match mix {
        Mix::Tpcc => tpcc::table_defs(&scale),
        Mix::Storm => micro::table_defs(clients),
    };
    let db = machine.install(&defs).await.expect("install schema");
    let tables = match mix {
        Mix::Tpcc => {
            let mut rng = ctx.fork_rng();
            Some(tpcc::load(&db, &scale, &mut rng).await.expect("load tpcc"))
        }
        Mix::Storm => {
            let table = micro::registers_table(&db).expect("registers table");
            for c in 0..clients {
                micro::init_client(&db, table, c)
                    .await
                    .expect("init registers");
            }
            None
        }
    };
    (machine, db, tables)
}

/// Advances `sim` in 1 ms slices until `done()`, returning the polls spent
/// and the host seconds of every slice. The slice boundary is the only
/// place the host can look in, so set-up ends (and measurement starts) on a
/// whole virtual millisecond.
pub fn step_until(sim: &mut Sim, done: impl Fn() -> bool) -> (u64, Vec<f64>) {
    let mut polls = 0;
    let mut slices = Vec::new();
    while !done() {
        let limit = sim.now() + SimDuration::from_millis(1);
        assert!(limit < SimTime::from_secs(3600), "run did not finish");
        let t = Instant::now();
        polls += sim.run_until(limit).polls;
        slices.push(t.elapsed().as_secs_f64());
    }
    (polls, slices)
}

/// Per-transaction stamps written by the job wrapper inside the server.
#[derive(Default)]
pub struct Stamps {
    enter: Cell<u64>,
    commit_call: Cell<u64>,
    exit: Cell<u64>,
}

impl Stamps {
    /// `(body entry, commit call, body exit)`, virtual ns.
    pub fn get(&self) -> (u64, u64, u64) {
        (self.enter.get(), self.commit_call.get(), self.exit.get())
    }
}

/// What one client sends and when it measures.
struct ClientParams {
    client: u64,
    mix: Mix,
    tables: Option<TpccTables>,
    think: Option<SimDuration>,
    start: SimTime,
    end: SimTime,
}

async fn drive_client(
    ctx: SimCtx,
    conn: Connection,
    p: ClientParams,
    observed: Rc<RefCell<Observed>>,
    rec: Recorder,
) {
    let ClientParams {
        client,
        mix,
        tables,
        think,
        start,
        end,
    } = p;
    let mut rng = ctx.fork_rng();
    let scale = TpccScale::small();
    let mut seq = 0u64;
    while ctx.now() < end {
        seq += 1;
        let stamps = Rc::new(Stamps::default());
        let job = match mix {
            Mix::Tpcc => {
                let params = tpcc::generate(&mut rng, &scale, client + 1, seq);
                let tables = tables.expect("tpcc tables loaded");
                timed_job(&ctx, &stamps, move |db| async move {
                    outcome_from(tpcc::execute(&db, &tables, &params).await)
                })
            }
            Mix::Storm => storm_job(&ctx, &stamps, client, seq),
        };
        let t0 = ctx.now().as_nanos();
        let outcome = conn.submit(job).await;
        let t1 = ctx.now().as_nanos();
        if outcome == JobOutcome::ConnectionLost {
            observed.borrow_mut().lost += 1;
            break;
        }
        if let Some(mean) = think {
            let ns = exponential(&mut rng, mean.as_nanos() as f64);
            ctx.sleep(SimDuration::from_nanos(ns as u64)).await;
        }
        let mut o = observed.borrow_mut();
        if outcome == JobOutcome::Committed {
            o.all_commits += 1;
        }
        if t1 < start.as_nanos() || t1 >= end.as_nanos() {
            continue;
        }
        let (enter, commit_call, exit) = stamps.get();
        match outcome {
            JobOutcome::Committed => {
                o.committed += 1;
                o.latency.push(t1 - t0);
                o.queue.push(enter - t0);
                match mix {
                    Mix::Tpcc => o.txn.push(exit - enter),
                    Mix::Storm => {
                        o.exec.push(commit_call - enter);
                        o.commit.push(exit - commit_call);
                    }
                }
                let span = |name, parent, start, end| Span {
                    name,
                    client,
                    seq,
                    parent,
                    start,
                    end,
                };
                if rec.enabled() {
                    o.by_request.push((client, seq, t1 - t0));
                    rec.record(span("client.txn", None, t0, t1));
                    rec.record(span("session.queue", Some("client.txn"), t0, enter));
                    match mix {
                        Mix::Tpcc => {
                            rec.record(span("engine.txn", Some("client.txn"), enter, exit))
                        }
                        Mix::Storm => {
                            rec.record(span("engine.exec", Some("client.txn"), enter, commit_call));
                            rec.record(span(
                                "engine.commit",
                                Some("client.txn"),
                                commit_call,
                                exit,
                            ));
                        }
                    }
                }
            }
            JobOutcome::Aborted(DbError::LockTimeout(_)) => o.lock_timeouts += 1,
            JobOutcome::Aborted(_) => o.aborted += 1,
            JobOutcome::ConnectionLost => unreachable!("handled above"),
        }
    }
}

/// Wraps a job body so it stamps its entry and exit in virtual time.
fn timed_job<F, Fut>(ctx: &SimCtx, stamps: &Rc<Stamps>, body: F) -> Job
where
    F: FnOnce(Database) -> Fut + 'static,
    Fut: std::future::Future<Output = JobOutcome> + 'static,
{
    let (ctx, stamps) = (ctx.clone(), Rc::clone(stamps));
    job(move |db| async move {
        stamps.enter.set(ctx.now().as_nanos());
        let outcome = body(db).await;
        stamps.exit.set(ctx.now().as_nanos());
        outcome
    })
}

/// The storm transaction: write `seq` to both of `client`'s registers and
/// commit, timing `Database::commit` on its own.
pub fn storm_job(ctx: &SimCtx, stamps: &Rc<Stamps>, client: u64, seq: u64) -> Job {
    let (c, s) = (ctx.clone(), Rc::clone(stamps));
    timed_job(ctx, stamps, move |db| async move {
        let (a, b) = micro::register_keys(client);
        let mut row = Vec::new();
        put_u64(&mut row, seq);
        let table = match micro::registers_table(&db) {
            Ok(t) => t,
            Err(e) => return JobOutcome::Aborted(e),
        };
        let txn = match db.begin().await {
            Ok(t) => t,
            Err(e) => return JobOutcome::Aborted(e),
        };
        for key in [a, b] {
            if let Err(e) = db.update(txn, table, key, &row).await {
                let _ = db.abort(txn).await;
                return JobOutcome::Aborted(e);
            }
        }
        s.commit_call.set(c.now().as_nanos());
        outcome_from(db.commit(txn).await)
    })
}

/// Read-only sampler of the RapiLog gauges on a fixed virtual tick.
///
/// `snapshot().drain` cannot serve here: under the default strict drain its
/// EWMAs and commit-latency fields stay 0, because only the windowed drain
/// feeds them. The sampler therefore reads the public accepted/drained byte
/// counters and the occupancy itself.
async fn sample_gauges(
    ctx: SimCtx,
    rl: RapiLog,
    usable: SimDuration,
    start: SimTime,
    end: SimTime,
    stop: Rc<Cell<bool>>,
) -> Gauges {
    let mut g = Gauges::default();
    // (tick time, accepted bytes at it): acked bytes not yet known drained.
    let mut pending: VecDeque<(u64, u64)> = VecDeque::new();
    // (tick time, drained bytes at it) over the bandwidth window.
    let mut drained_hist: VecDeque<(u64, u64)> = VecDeque::new();
    let mut last_accepted = 0;
    loop {
        let now = ctx.now().as_nanos();
        let s = rl.stats();
        let occupancy = rl.occupancy();
        let in_window = now >= start.as_nanos() && now < end.as_nanos();
        if s.accepted_bytes > last_accepted {
            pending.push_back((now, s.accepted_bytes));
            last_accepted = s.accepted_bytes;
        }
        while let Some(&(t, acc)) = pending.front() {
            if acc > s.drained_bytes {
                break;
            }
            pending.pop_front();
            if t >= start.as_nanos() && t < end.as_nanos() {
                g.durable_lag.push(now - t);
            }
        }
        drained_hist.push_back((now, s.drained_bytes));
        while drained_hist
            .front()
            .is_some_and(|&(t, _)| now - t > BW_WINDOW.as_nanos())
        {
            drained_hist.pop_front();
        }
        if in_window {
            g.occupancy.push(occupancy);
            let (t_old, d_old) = drained_hist.front().copied().unwrap_or((now, 0));
            let bw = ratio((s.drained_bytes - d_old) as f64, (now - t_old) as f64);
            if bw > 0.0 {
                let headroom = usable.as_nanos() as i64 - (occupancy as f64 / bw) as i64;
                g.headroom_min = Some(g.headroom_min.map_or(headroom, |h| h.min(headroom)));
            }
        }
        if stop.get() && pending.is_empty() {
            return g;
        }
        ctx.sleep(TICK).await;
    }
}

/// Folds the window's observations and counter deltas into named values.
fn layer_values(
    spec: &Spec,
    o: &mut Observed,
    mut g: Gauges,
    w0: &Counters,
    w1: &Counters,
    resident: usize,
) -> Vec<(&'static str, f64)> {
    let secs = spec.measure.as_secs_f64();
    let commits = o.committed as f64;
    let us = |v: u64| v as f64 / 1e3;
    let per_commit = |v: u64| ratio(v as f64, commits);
    let wal_bytes = w1.wal.bytes - w0.wal.bytes;
    let log_w = (w1.log_disk.sectors_written - w0.log_disk.sectors_written) * 512;
    let hits = w1.pool.hits - w0.pool.hits;
    let misses = w1.pool.misses - w0.pool.misses;
    let writebacks = w1.pool.writebacks - w0.pool.writebacks;
    assert!(
        writebacks > 0,
        "{}: no checkpoint wrote back inside the window",
        spec.name
    );
    let drained = w1.rapilog.drained_bytes - w0.rapilog.drained_bytes;
    let log_writes = w1.log_disk.writes - w0.log_disk.writes;
    let busy = |a: &DiskStats, b: &DiskStats| (b.busy - a.busy).as_secs_f64() / secs;
    let failed = o.aborted + o.lock_timeouts + o.lost;
    let is_rl = spec.setup == Setup::RapiLog;
    vec![
        ("tps", commits / secs),
        ("commit_p50_us", us(percentile(&mut o.latency, 50.0))),
        ("commit_p99_us", us(percentile(&mut o.latency, 99.0))),
        ("commit_p999_us", us(percentile(&mut o.latency, 99.9))),
        (
            "failed_share",
            ratio(failed as f64, (o.committed + failed) as f64),
        ),
        (
            "durable_lag_p99_ms",
            percentile(&mut g.durable_lag, 99.0) as f64 / 1e6,
        ),
        ("session.queue_us_p50", us(percentile(&mut o.queue, 50.0))),
        ("session.queue_us_p99", us(percentile(&mut o.queue, 99.0))),
        ("engine.txn_us_p50", us(percentile(&mut o.txn, 50.0))),
        ("engine.txn_us_p99", us(percentile(&mut o.txn, 99.0))),
        ("engine.exec_us_p50", us(percentile(&mut o.exec, 50.0))),
        ("engine.commit_us_p50", us(percentile(&mut o.commit, 50.0))),
        ("engine.commit_us_p99", us(percentile(&mut o.commit, 99.0))),
        (
            "wal.flushes_per_commit",
            per_commit(w1.wal.flushes - w0.wal.flushes),
        ),
        ("wal.bytes_per_commit", per_commit(wal_bytes)),
        (
            "wal.device_bytes_per_wal_byte",
            ratio(log_w as f64, wal_bytes as f64),
        ),
        ("pool.hit_ratio", ratio(hits as f64, (hits + misses) as f64)),
        ("pool.misses_per_commit", per_commit(misses)),
        ("pool.writebacks_per_commit", per_commit(writebacks)),
        ("pool.resident_pages", resident as f64),
        (
            "rapilog.writes_per_commit",
            per_commit(w1.rapilog.accepted_writes - w0.rapilog.accepted_writes),
        ),
        (
            "rapilog.bytes_per_drain_write",
            if is_rl {
                ratio(drained as f64, log_writes as f64)
            } else {
                0.0
            },
        ),
        (
            "rapilog.drain_mib_s",
            drained as f64 / secs / (1 << 20) as f64,
        ),
        (
            "rapilog.backpressure_events",
            (w1.rapilog.backpressure_events - w0.rapilog.backpressure_events) as f64,
        ),
        (
            "rapilog.peak_occupancy_kib",
            w1.rapilog.peak_occupancy as f64 / 1024.0,
        ),
        (
            "rapilog.occupancy_p99_kib",
            percentile(&mut g.occupancy, 99.0) as f64 / 1024.0,
        ),
        (
            "rapilog.headroom_min_ms",
            g.headroom_min.map_or(0.0, |h| h as f64 / 1e6),
        ),
        ("disk.log.busy_share", busy(&w0.log_disk, &w1.log_disk)),
        ("disk.log.mib_s", log_w as f64 / secs / (1 << 20) as f64),
        ("disk.log.writes_per_s", log_writes as f64 / secs),
        (
            "disk.log.max_outstanding",
            w1.log_disk.max_outstanding as f64,
        ),
        (
            "disk.data.reads_per_commit",
            per_commit(w1.data_disk.reads - w0.data_disk.reads),
        ),
        (
            "disk.data.writes_per_commit",
            per_commit(w1.data_disk.writes - w0.data_disk.writes),
        ),
        ("disk.data.busy_share", busy(&w0.data_disk, &w1.data_disk)),
    ]
}
