//! The repository benchmark: one command, two planes, three listed
//! workloads plus the crash/recovery workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The *modelled* plane (latency, throughput, durability, recovery) is in
//! virtual time and exact for a seed; the *host* plane (set-up time,
//! simulated commits per host second, memory) is the simulator's own cost.
//! A run repeats the seeded workload until `--seconds` of host time are
//! spent, checks that every repetition reproduced the same modelled plane,
//! and reports host timings as medians over the repetitions.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repetitions and prints the per-layer metrics, the
//! layers' self times from the benchmark's spans and the tracing overhead.
//! Every run prints a table of all metrics, then one JSON line.

mod crash;
mod oltp;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use rapilog_bench::alloc::CountingAlloc;
use rapilog_bench::Json;

use spans::Recorder;
use stats::{median, peak_rss_mib, ratio};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 3] = ["tpcc-rapilog-hdd", "storm-rapilog-hdd", "tpcc-sync-ssd"];

/// The crash/recovery workload. It is not listed in `BENCHMARK.json`: at
/// the time of writing some of its trials fail the durability audit (a
/// program defect, see `perfbench/README.md`), and a run that fails its
/// audit reports no numbers.
pub const CRASH_WORKLOAD: &str = "crash-recover";

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("tps", "txn/s"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("commit_p999_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A metric a workload does
/// not exercise reads 0 there (for example `rapilog.*` on sync logging).
/// Simulator speed is here rather than end-to-end: on a shared host it
/// swings by a third between runs, so only the deterministic work counters
/// (`exec.*`, `alloc.*`) can gate it.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sim_commits_per_s", "1/s"),
    ("failed_share", "fraction"),
    ("durable_lag_p99_ms", "ms"),
    ("session.queue_us_p50", "us"),
    ("session.queue_us_p99", "us"),
    ("engine.txn_us_p50", "us"),
    ("engine.txn_us_p99", "us"),
    ("engine.exec_us_p50", "us"),
    ("engine.commit_us_p50", "us"),
    ("engine.commit_us_p99", "us"),
    ("wal.flushes_per_commit", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.device_bytes_per_wal_byte", "ratio"),
    ("pool.hit_ratio", "fraction"),
    ("pool.misses_per_commit", "count"),
    ("pool.writebacks_per_commit", "count"),
    ("pool.resident_pages", "count"),
    ("rapilog.writes_per_commit", "count"),
    ("rapilog.bytes_per_drain_write", "B"),
    ("rapilog.drain_mib_s", "MiB/s"),
    ("rapilog.backpressure_events", "count"),
    ("rapilog.peak_occupancy_kib", "KiB"),
    ("rapilog.occupancy_p99_kib", "KiB"),
    ("rapilog.headroom_min_ms", "ms"),
    ("disk.log.busy_share", "fraction"),
    ("disk.log.mib_s", "MiB/s"),
    ("disk.log.writes_per_s", "1/s"),
    ("disk.log.max_outstanding", "count"),
    ("disk.data.reads_per_commit", "count"),
    ("disk.data.writes_per_commit", "count"),
    ("disk.data.busy_share", "fraction"),
    ("exec.polls_per_commit", "count"),
    ("alloc.allocs_per_commit", "count"),
    ("alloc.bytes_per_commit", "B"),
    ("client.self_us_mean", "us"),
    ("session.self_us_mean", "us"),
    ("engine.self_us_mean", "us"),
    ("trace.spans", "count"),
    ("trace.traced_run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "fraction"),
];

/// Metrics only `crash-recover` has; its traced run reports them as well.
pub const CRASH_LAYER: [(&str, &str); 14] = [
    ("recovery_ms_p50", "ms"),
    ("recovery_ms_p90", "ms"),
    ("recovery.scan_ms_p50", "ms"),
    ("recovery.redo_ms_p50", "ms"),
    ("recovery.undo_ms_p50", "ms"),
    ("recovery.scanned_records_p50", "count"),
    ("recovery.redo_skipped_share", "fraction"),
    ("crash.trials", "count"),
    ("crash.acked_audited", "count"),
    ("crash.counterexamples", "count"),
    ("crash.control_lost_acked", "count"),
    ("crash.self_ms_mean", "ms"),
    ("crash.load_ms_mean", "ms"),
    ("crash.recover_ms_mean", "ms"),
];

/// Spans written to `perfbench/out/<workload>.spans.jsonl` by a traced run
/// (the first requests'; spans are sorted by request).
const SPANS_WRITTEN: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if !WORKLOADS.contains(&args.workload.as_str()) && args.workload != CRASH_WORKLOAD {
        return Err(format!(
            "unknown workload {} (one of {WORKLOADS:?} or {CRASH_WORKLOAD})",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of (0, 600]", args.seconds));
    }
    Ok(args)
}

/// What one repetition reports, whichever workload ran it.
pub struct Rep {
    /// Transactions attempted in the measured window(s).
    pub attempted: u64,
    /// Of those, aborted, timed out or lost.
    pub failed: u64,
    /// Virtual-time values, identical for identical seeds.
    pub modelled: Vec<(&'static str, f64)>,
    /// Deterministic work counters (polls, allocations) and their base.
    pub work: Work,
    /// Host seconds of one set-up (median when the workload sets up often).
    pub setup_s: f64,
    /// Host seconds of each 1 ms virtual slice after set-up.
    pub run_slices: Vec<f64>,
    /// Spans, when traced.
    pub spans: Vec<spans::Span>,
    /// `(client, seq, latency ns)` per committed transaction.
    pub latencies: Vec<(u64, u64, u64)>,
}

/// Exact work counts after set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Commits acknowledged after set-up.
    pub commits: u64,
    /// Executor polls.
    pub polls: u64,
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
}

fn run_once(workload: &str, seed: u64, rec: &Recorder) -> Result<Rep, String> {
    match oltp::spec(workload) {
        Some(spec) => Ok(oltp::run(&spec, seed, rec)),
        None => crash::run(seed, rec),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let began = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    // Self times and span count of the latest traced repetition.
    let mut selfs = None;
    // Repeat until the next repetition would overrun the budget. A traced
    // run alternates untraced and traced repetitions so both see the same
    // host conditions.
    loop {
        let rec = Recorder::new(args.trace && untraced.len() > traced.len());
        let mut rep = match run_once(&args.workload, args.seed, &rec) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
                return ExitCode::from(1);
            }
        };
        let first = untraced.first().unwrap_or(&rep);
        if rep.modelled != first.modelled
            || rep.run_slices.len() != first.run_slices.len()
            || (!rec.enabled() && rep.work != first.work)
        {
            eprintln!(
                "perfbench: {}: seed {} did not reproduce",
                args.workload, args.seed
            );
            return ExitCode::from(1);
        }
        if rec.enabled() {
            match spans::self_times(&mut rep.spans, &rep.latencies) {
                Ok(s) => selfs = Some((s, rep.spans.len())),
                Err(e) => {
                    eprintln!("perfbench: {}: span check failed: {e}", args.workload);
                    return ExitCode::from(1);
                }
            }
            // Keep only what the span file needs: the storm records
            // millions of spans per repetition.
            rep.spans.truncate(SPANS_WRITTEN);
            rep.spans.shrink_to_fit();
            rep.latencies = Vec::new();
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
        // A traced run repeats in untraced + traced pairs.
        let step = if args.trace { 2.0 } else { 1.0 };
        let reps = (untraced.len() + traced.len()) as f64;
        let per_step = step * began.elapsed().as_secs_f64() / reps;
        let paired = !args.trace || traced.len() == untraced.len();
        if paired && began.elapsed().as_secs_f64() + per_step > args.seconds {
            break;
        }
    }
    let base = &untraced[0];
    let mut values: Vec<(&str, f64)> = base.modelled.clone();
    let setup = median(&untraced.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let run_s = sliced_median(&untraced);
    let commits = base.work.commits as f64;
    values.push(("sim_commits_per_s", commits / run_s));
    values.push(("setup_s", setup));
    values.push(("peak_rss_mib", peak_rss_mib()));
    values.push((
        "exec.polls_per_commit",
        ratio(base.work.polls as f64, commits),
    ));
    values.push((
        "alloc.allocs_per_commit",
        ratio(base.work.allocs as f64, commits),
    ));
    values.push((
        "alloc.bytes_per_commit",
        ratio(base.work.alloc_bytes as f64, commits),
    ));
    if let (Some(t), Some((selfs, recorded))) = (traced.last(), selfs) {
        let engine: f64 = ["engine.txn", "engine.exec", "engine.commit"]
            .iter()
            .map(|n| spans::mean(&selfs, n))
            .sum();
        values.push((
            "client.self_us_mean",
            spans::mean(&selfs, "client.txn") / 1e3,
        ));
        values.push((
            "session.self_us_mean",
            spans::mean(&selfs, "session.queue") / 1e3,
        ));
        values.push(("engine.self_us_mean", engine / 1e3));
        if args.workload == CRASH_WORKLOAD {
            values.push((
                "crash.self_ms_mean",
                spans::mean(&selfs, "crash.trial") / 1e6,
            ));
            values.push((
                "crash.load_ms_mean",
                spans::mean(&selfs, "crash.load") / 1e6,
            ));
            values.push((
                "crash.recover_ms_mean",
                spans::mean(&selfs, "crash.recover") / 1e6,
            ));
        }
        values.push(("trace.spans", recorded as f64));
        let traced_s = sliced_median(&traced);
        values.push(("trace.traced_run_s", traced_s));
        values.push(("trace.untraced_run_s", run_s));
        values.push(("trace.overhead_s", traced_s - run_s));
        values.push(("trace.overhead_share", (traced_s - run_s) / run_s));
        let path =
            std::path::Path::new("perfbench/out").join(format!("{}.spans.jsonl", args.workload));
        if let Err(e) = spans::write_jsonl(&path, &t.spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    let value = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut selected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    if args.trace && args.workload == CRASH_WORKLOAD {
        selected.extend(CRASH_LAYER);
    }
    println!(
        "perfbench {} seed {}: {} untraced + {} traced repetitions in {:.1} host s",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        began.elapsed().as_secs_f64()
    );
    for (name, v) in &values {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .chain(CRASH_LAYER.iter())
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u);
        println!("  {name:<32} {v:>16.4} {unit}");
    }
    let metrics = selected
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value(name))),
                    ("unit", Json::str(*unit)),
                ]),
            )
        })
        .collect();
    let out = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::int(base.attempted)),
        ("failed", Json::int(base.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", out.render());
    ExitCode::SUCCESS
}

/// Host seconds after set-up, robust to bursts of noise from other work on
/// the host: every repetition times each 1 ms virtual slice of the same
/// deterministic run, and the run's time is the sum of the slices' medians
/// across repetitions.
fn sliced_median(reps: &[Rep]) -> f64 {
    (0..reps[0].run_slices.len())
        .map(|i| median(&reps.iter().map(|r| r.run_slices[i]).collect::<Vec<_>>()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values of `"key": "..."` in file order.
    fn strings(json: &str, key: &str) -> Vec<String> {
        let tag = format!("\"{key}\": \"");
        json.split(tag.as_str())
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let metrics = END_TO_END.iter().chain(PER_LAYER.iter());
        let names: Vec<String> = WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .chain(metrics.clone().map(|(n, _)| n.to_string()))
            .collect();
        assert_eq!(strings(&json, "name"), names);
        let units: Vec<String> = metrics.map(|(_, u)| u.to_string()).collect();
        assert_eq!(strings(&json, "unit"), units);
    }
}
