//! Microbenchmarks for the suite's hot paths (plain harness, no external
//! bench framework so the workspace builds offline).
//!
//! These are not paper figures; they keep the simulation substrate honest:
//! the DES executor, WAL codec, histogram, tracing fast path and TPC-C
//! generator all sit on the critical path of every experiment, so
//! regressions here inflate every wall-clock run.
//!
//! Each case runs a warmup batch and then reports wall-clock nanoseconds
//! per operation over a fixed iteration count. The `tracer_disabled` case
//! doubles as the enforcement of the tracing cost contract: after a million
//! events against a disabled tracer the ring must still be empty.
//!
//! Two machine-readable artifacts come out of a run:
//!
//! * every case's ns/op is written to `BENCH_hotpaths.json`;
//! * a commit-storm run over the full RapiLog stack is measured with the
//!   counting global allocator, and **allocations per committed
//!   transaction** are asserted against a hard budget — the regression
//!   tripwire for the zero-copy data path (one stray `to_vec` in the log
//!   path blows straight through it).
//!
//! Set `BENCH_CHECK=1` to run shortened iteration counts (CI smoke mode);
//! assertions still run at full strength.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rapilog_bench::alloc::{snapshot, CountingAlloc};
use rapilog_bench::{run_perf, Json, PerfConfig, WorkloadSpec};
use rapilog_dbengine::types::{Lsn, PageId, TableId, TxnId};
use rapilog_dbengine::wal::Record;
use rapilog_faultsim::{MachineConfig, Setup};
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::sync::Notify;
use rapilog_simcore::trace::{Layer, Payload, Tracer};
use rapilog_simcore::{Sim, SimDuration, SimTime};
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcc::{self, TpccScale};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation budget per committed storm transaction over the full RapiLog
/// stack (client → engine → WAL → virtio → buffer → drain → media).
///
/// The zero-copy path measures ~33.8 allocations per commit for `storm`
/// and ~24.6 for `storm_timer` (pooled WAL batches, viewed extents, moved
/// drain batches, per-task cached wakers); the pre-zero-copy baseline
/// measured ~106 on the same workload. The budget sits ~18% above the
/// larger measurement to absorb noise and batching variance — well under
/// half the old baseline. Reintroducing even one per-commit copy on the
/// log path blows straight through it.
const STORM_ALLOCS_PER_COMMIT_BUDGET: f64 = 40.0;

struct Runner {
    /// `BENCH_CHECK=1`: shortened iteration counts for CI smoke runs.
    check: bool,
    results: Vec<(String, f64, u64)>,
}

impl Runner {
    fn new() -> Runner {
        Runner {
            check: std::env::var("BENCH_CHECK").is_ok_and(|v| v == "1"),
            results: Vec::new(),
        }
    }

    fn iters(&self, full: u64) -> u64 {
        if self.check {
            (full / 20).max(10)
        } else {
            full
        }
    }

    fn bench(&mut self, name: &str, full_iters: u64, mut f: impl FnMut()) {
        let iters = self.iters(full_iters);
        for _ in 0..iters / 10 {
            f();
        }
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
        println!("{name:<28} {ns_per_op:>12.1} ns/op   ({iters} iters, {elapsed:?} total)");
        self.results.push((name.to_string(), ns_per_op, iters));
    }

    /// Records a case measured externally (one timed region covering `ops`
    /// operations) in the same table and JSON format as [`Runner::bench`].
    fn report(&mut self, name: &str, elapsed: std::time::Duration, ops: u64) {
        let ns_per_op = elapsed.as_nanos() as f64 / ops as f64;
        println!("{name:<28} {ns_per_op:>12.1} ns/op   ({ops} ops, {elapsed:?} total)");
        self.results.push((name.to_string(), ns_per_op, ops));
    }
}

fn bench_histogram(r: &mut Runner) {
    let mut h = Histogram::new();
    let mut x = 12345u64;
    r.bench("histogram/record", 1_000_000, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        h.record(x >> 33);
    });
    let mut h = Histogram::new();
    for i in 0..100_000u64 {
        h.record(i * 37 % 1_000_000);
    }
    r.bench("histogram/percentile", 100_000, || {
        black_box(h.percentile(99.0));
    });
}

fn bench_wal_codec(r: &mut Runner) {
    let rec = Record::Update {
        txn: TxnId(42),
        prev: Lsn(1000),
        table: TableId(3),
        page: PageId(77),
        slot: 5,
        key: 123456,
        before: vec![0xAA; 128],
        after: vec![0xBB; 128],
    };
    let encoded = rec.encode(Lsn(9000));
    r.bench("wal/encode_update", 200_000, || {
        black_box(rec.encode(Lsn(9000)));
    });
    // The staging path: append into a reused buffer, no allocation per
    // record once the buffer has grown.
    let mut staging = Vec::with_capacity(64 << 10);
    r.bench("wal/encode_into_staged", 200_000, || {
        if staging.len() > 32 << 10 {
            staging.clear();
        }
        black_box(rec.encode_into(Lsn(9000), &mut staging));
    });
    r.bench("wal/decode_update", 200_000, || {
        black_box(Record::decode(&encoded, Lsn(9000)).expect("decodes"));
    });
}

fn bench_executor(r: &mut Runner) {
    r.bench("simcore/spawn_sleep_1000", 200, || {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        for i in 0..1000u64 {
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(i % 997)).await;
            });
        }
        black_box(sim.run());
    });
}

/// Executor-kernel rows: isolates the scheduling core's three primitive
/// costs — spawning a task into the slab arena, waking a task through the
/// ready ring, and firing a timer out of the wheel — plus an overall
/// poll-throughput (events/sec) figure for the timer-heavy run.
fn bench_exec_kernel(r: &mut Runner) {
    // ns per spawn: enqueue cost only (slab insert + ready-ring push);
    // the tasks are trivial so the trailing run() is not measured.
    let spawns = r.iters(300_000);
    let mut sim = Sim::new(2);
    let start = Instant::now();
    for _ in 0..spawns {
        sim.spawn(async {});
    }
    r.report("exec/spawn", start.elapsed(), spawns);
    sim.run();

    // ns per wake: two tasks ping-pong through a pair of Notify cells, so
    // every round trip is two wake()s plus the two polls they schedule.
    let rounds = r.iters(200_000);
    let mut sim = Sim::new(3);
    let ctx = sim.ctx();
    let ping = Rc::new(Notify::new());
    let pong = Rc::new(Notify::new());
    {
        let (ping, pong) = (Rc::clone(&ping), Rc::clone(&pong));
        sim.spawn(async move {
            for _ in 0..rounds {
                ping.notified().await;
                pong.notify_one();
            }
        });
    }
    {
        let (ping, pong) = (Rc::clone(&ping), Rc::clone(&pong));
        let ctx = ctx.clone();
        sim.spawn(async move {
            // One sim-time tick so the partner registers first.
            ctx.sleep(SimDuration::from_nanos(1)).await;
            for _ in 0..rounds {
                ping.notify_one();
                pong.notified().await;
            }
        });
    }
    let start = Instant::now();
    sim.run();
    r.report("exec/wake", start.elapsed(), rounds * 2);

    // ns per timer fire: 64 tasks each sleeping through a ladder of
    // distinct deadlines — wheel insert, cascade, and batch-fire per await.
    let per_task = r.iters(4_000);
    let tasks = 64u64;
    let mut sim = Sim::new(4);
    let ctx = sim.ctx();
    for t in 0..tasks {
        let ctx = ctx.clone();
        sim.spawn(async move {
            for i in 0..per_task {
                ctx.sleep(SimDuration::from_nanos(1 + (t * 31 + i * 17) % 4093))
                    .await;
            }
        });
    }
    let start = Instant::now();
    let report = sim.run();
    let elapsed = start.elapsed();
    r.report("exec/timer_fire", elapsed, tasks * per_task);
    let events_per_sec = report.polls as f64 / elapsed.as_secs_f64();
    println!(
        "exec/poll_throughput        {events_per_sec:>12.0} events/sec ({} polls)",
        report.polls
    );
    r.results.push((
        "exec/poll_throughput_events_per_sec".to_string(),
        events_per_sec,
        report.polls,
    ));
}

fn bench_tpcc_generate(r: &mut Runner) {
    let mut rng = SimRng::seed_from_u64(7);
    let scale = TpccScale::small();
    let mut seq = 0u64;
    r.bench("tpcc/generate", 500_000, || {
        seq += 1;
        black_box(tpcc::generate(&mut rng, &scale, 1, seq));
    });
}

fn bench_tracer(r: &mut Runner) {
    // The disabled path must be a pure no-op: no allocation, no ring write.
    let tracer = Tracer::new();
    assert!(!tracer.is_enabled());
    let mut i = 0u64;
    r.bench("trace/disabled_instant", 1_000_000, || {
        i += 1;
        tracer.instant(
            SimTime::from_nanos(i),
            Layer::Disk,
            "io",
            Payload::Bytes { bytes: i },
        );
    });
    let snap = tracer.snapshot();
    assert_eq!(snap.total, 0, "disabled tracer must not record");
    assert_eq!(snap.dropped, 0, "disabled tracer must not evict");
    assert!(
        snap.events.is_empty(),
        "disabled tracer ring must stay empty"
    );

    tracer.set_enabled(true);
    let mut i = 0u64;
    r.bench("trace/enabled_span", 500_000, || {
        i += 1;
        tracer.begin(SimTime::from_nanos(i), Layer::Wal, "gc", Payload::None);
        tracer.end(
            SimTime::from_nanos(i + 1),
            Layer::Wal,
            "gc",
            Payload::Bytes { bytes: i },
        );
    });
    assert!(tracer.snapshot().total > 0);
}

/// Runs the commit storm through the full RapiLog machine and measures
/// allocator traffic per committed transaction. This is the end-to-end
/// guard on the zero-copy log data path.
///
/// Two flavours share the budget: the plain storm, and a **timer-heavy**
/// storm (`timer_heavy = true`) with 8× the clients on 1/10th the think
/// time, so each committed transaction drags an order of magnitude more
/// sleep registrations, wheel cascades, and waker traffic through the
/// executor. Under the pre-wheel core every re-poll of `Sleep` cloned a
/// fresh waker into the heap, so this case is the tripwire for timer-path
/// allocation regressions specifically.
fn bench_storm_allocations(check: bool, timer_heavy: bool) -> Json {
    let mut machine = MachineConfig::new(
        Setup::RapiLog,
        specs::instant(256 << 20),
        specs::hdd_7200(256 << 20),
    );
    machine.supply = Some(supplies::atx_psu());
    let measure = if check {
        SimDuration::from_secs(2)
    } else {
        SimDuration::from_secs(5)
    };
    let (clients, think) = if timer_heavy {
        (32, SimDuration::from_micros(20))
    } else {
        (4, SimDuration::from_micros(200))
    };
    let cfg = PerfConfig {
        seed: 11,
        machine,
        workload: WorkloadSpec::Storm { clients },
        run: RunConfig {
            clients: clients as usize,
            warmup: SimDuration::from_millis(500),
            measure,
            think_time: Some(think),
        },
        trace: false,
    };
    let wall_start = Instant::now();
    let before = snapshot();
    let outcome = run_perf(cfg);
    let after = snapshot();
    let wall = wall_start.elapsed();
    let delta = after.since(before);
    let committed = outcome.stats.committed;
    assert!(committed > 1000, "storm run too small: {committed} commits");
    let per_commit = delta.calls as f64 / committed as f64;
    let bytes_per_commit = delta.bytes as f64 / committed as f64;
    let label = if timer_heavy {
        "storm_timer/allocs_commit"
    } else {
        "storm/allocs_per_commit"
    };
    println!(
        "{label:<28} {per_commit:>12.1} allocs  \
         ({committed} commits, {:.0} B/commit, budget {STORM_ALLOCS_PER_COMMIT_BUDGET})",
        bytes_per_commit
    );
    assert!(
        per_commit <= STORM_ALLOCS_PER_COMMIT_BUDGET,
        "allocation budget blown ({label}): {per_commit:.1} allocs per committed \
         storm transaction (budget {STORM_ALLOCS_PER_COMMIT_BUDGET}) — \
         a copy has crept back into the log data path or the timer path"
    );
    Json::obj([
        ("timer_heavy", Json::Bool(timer_heavy)),
        ("committed", Json::int(committed)),
        ("alloc_calls", Json::int(delta.calls)),
        ("alloc_bytes", Json::int(delta.bytes)),
        ("allocs_per_commit", Json::Num(per_commit)),
        ("bytes_per_commit", Json::Num(bytes_per_commit)),
        ("budget", Json::Num(STORM_ALLOCS_PER_COMMIT_BUDGET)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
    ])
}

fn main() {
    let mut r = Runner::new();
    let wall_start = Instant::now();
    bench_histogram(&mut r);
    bench_wal_codec(&mut r);
    bench_executor(&mut r);
    bench_exec_kernel(&mut r);
    bench_tpcc_generate(&mut r);
    bench_tracer(&mut r);
    let storm = bench_storm_allocations(r.check, false);
    let storm_timer = bench_storm_allocations(r.check, true);
    let doc = Json::obj([
        ("bench", Json::str("hotpaths")),
        ("check_mode", Json::Bool(r.check)),
        (
            "wall_ms",
            Json::int(wall_start.elapsed().as_millis() as u64),
        ),
        (
            "cases",
            Json::Arr(
                r.results
                    .iter()
                    .map(|(name, ns, iters)| {
                        Json::obj([
                            ("name", Json::str(name.clone())),
                            ("ns_per_op", Json::Num(*ns)),
                            ("iters", Json::int(*iters)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("storm", storm),
        ("storm_timer", storm_timer),
    ]);
    rapilog_bench::json::write_doc("BENCH_hotpaths.json", &doc).expect("write BENCH_hotpaths.json");
    println!("hotpaths: all assertions passed (BENCH_hotpaths.json written)");
}
