//! The `crash-recover` workload: the audited register workload on the
//! RapiLog machine, a guest crash or power cut at a seeded instant, then
//! reboot, recovery and a durability audit made by the benchmark itself.
//!
//! A trial follows `faultsim::run_trial` step for step through the public
//! `Machine` API, so the benchmark can time set-up, load, fault and
//! recovery separately and keep exact client latencies. Fault instants are
//! spread over more than two checkpoint intervals, so the log tail recovery
//! scans ranges from just checkpointed to a full interval. One extra trial
//! with the deliberately unsafe `async_unsafe` engine profile on the Native
//! machine under a guest crash must lose acknowledged commits; if the audit
//! passes it, the audit has no teeth and the run fails.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_bench::alloc;
use rapilog_dbengine::{DbConfig, EngineProfile, RecoveryReport};
use rapilog_faultsim::{FaultKind, MachineConfig, Setup};
use rapilog_simcore::rng::exponential;
use rapilog_simcore::{Sim, SimDuration};
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;
use rapilog_workload::micro;
use rapilog_workload::session::JobOutcome;

use crate::oltp::{install, step_until, storm_job, Mix, Stamps};
use crate::spans::{Recorder, Span};
use crate::stats::{percentile, ratio};
use crate::{Rep, Work};

/// Audited trials per run: p90 of recovery time has 12 trials beyond it.
const TRIALS: u64 = 120;
/// Audited clients.
const CLIENTS: u64 = 8;
/// Mean exponential think time between a client's transactions.
const THINK: SimDuration = SimDuration::from_micros(300);
/// Automatic checkpoint period.
const CHECKPOINT: SimDuration = SimDuration::from_millis(200);
/// Earliest fault instant after set-up.
const FAULT_MIN: SimDuration = SimDuration::from_millis(50);
/// Fault instants are uniform over `[FAULT_MIN, FAULT_MIN + FAULT_SPREAD)`.
const FAULT_SPREAD: SimDuration = SimDuration::from_millis(500);

/// What one trial measured.
struct Trial {
    /// Commits acknowledged before the fault.
    acked: u64,
    /// Acknowledged commits missing after recovery.
    lost_acked: u64,
    /// Audit violations (atomicity, durability, phantoms, RapiLog audit).
    violations: Vec<String>,
    recovery: RecoveryReport,
    /// Submit → ack, ns.
    latency: Vec<u64>,
    /// Submit → job-body entry, ns.
    queue: Vec<u64>,
    /// Body entry → commit call, ns.
    exec: Vec<u64>,
    /// `Database::commit`, ns.
    commit: Vec<u64>,
    /// Virtual ns from the start of the load to the end of the audit.
    span_ns: u64,
    setup_s: f64,
    run_slices: Vec<f64>,
    polls: u64,
    allocs: alloc::AllocSnapshot,
}

fn machine(setup: Setup, profile: EngineProfile) -> MachineConfig {
    let mut m = MachineConfig::new(
        setup,
        specs::ssd_sata(256 << 20),
        specs::hdd_7200(128 << 20),
    );
    m.supply = Some(supplies::atx_psu());
    m.db = DbConfig {
        profile,
        checkpoint_interval: CHECKPOINT,
        ..DbConfig::default()
    };
    m
}

/// Runs one trial; `index` keys its spans.
fn trial(
    seed: u64,
    index: u64,
    setup: Setup,
    profile: EngineProfile,
    fault: FaultKind,
    fault_after: SimDuration,
    rec: &Recorder,
) -> Trial {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let loaded = {
        let ctx = ctx.clone();
        sim.spawn(async move {
            install(&ctx, machine(setup, profile), Mix::Storm, CLIENTS)
                .await
                .0
        })
    };
    let setup_s = step_until(&mut sim, || loaded.is_finished()).1.iter().sum();
    let machine = loaded.try_take().expect("set-up finished");

    type Journal = (u64, u64); // (highest acked seq, highest attempted seq)
    let journals: Rc<RefCell<Vec<Journal>>> = Rc::new(RefCell::new(vec![(0, 0); CLIENTS as usize]));
    let samples: Rc<RefCell<[Vec<u64>; 4]>> = Rc::default();
    let outcome = {
        let (ctx, journals, samples, rec) = (
            ctx.clone(),
            Rc::clone(&journals),
            Rc::clone(&samples),
            rec.clone(),
        );
        sim.spawn(async move {
            let t_load = ctx.now().as_nanos();
            let server = machine.server();
            let mut clients = Vec::new();
            for client in 0..CLIENTS {
                let conn = server.connect();
                let (ctx, journals, samples) =
                    (ctx.clone(), Rc::clone(&journals), Rc::clone(&samples));
                clients.push(ctx.clone().spawn(async move {
                    let mut rng = ctx.fork_rng();
                    let mut seq = 0u64;
                    loop {
                        seq += 1;
                        journals.borrow_mut()[client as usize].1 = seq;
                        let stamps = Rc::new(Stamps::default());
                        let t0 = ctx.now().as_nanos();
                        let out = conn.submit(storm_job(&ctx, &stamps, client, seq)).await;
                        if out != JobOutcome::Committed {
                            break; // the machine is going down
                        }
                        let t1 = ctx.now().as_nanos();
                        journals.borrow_mut()[client as usize].0 = seq;
                        let (enter, call, exit) = stamps.get();
                        for (v, x) in samples.borrow_mut().iter_mut().zip([
                            t1 - t0,
                            enter - t0,
                            call - enter,
                            exit - call,
                        ]) {
                            v.push(x);
                        }
                        let ns = exponential(&mut rng, THINK.as_nanos() as f64);
                        ctx.sleep(SimDuration::from_nanos(ns as u64)).await;
                    }
                }));
            }
            ctx.sleep(fault_after).await;
            let t_fault = ctx.now().as_nanos();
            match fault {
                FaultKind::GuestCrash => {
                    machine.crash_guest();
                }
                FaultKind::PowerCut => {
                    machine.cut_power();
                    machine
                        .psu()
                        .expect("supply fitted")
                        .death_event()
                        .wait()
                        .await;
                    ctx.sleep(SimDuration::from_millis(500)).await;
                    machine.restore_power();
                }
                other => unreachable!("fault {other:?} is not part of this workload"),
            }
            for c in clients {
                let _ = c.await;
            }
            let t_recover = ctx.now().as_nanos();
            let (db, report) = machine.reboot_and_recover().await.expect("recovery");
            let t_audit = ctx.now().as_nanos();
            let table = micro::registers_table(&db).expect("registers table");
            let mut violations = Vec::new();
            let mut lost = 0;
            let journal = journals.borrow().clone();
            for (client, &(acked, attempted)) in journal.iter().enumerate() {
                let (a, b) = micro::read_pair(&db, table, client as u64)
                    .await
                    .expect("read registers after recovery");
                if a != b {
                    violations.push(format!("client {client}: torn pair {a}/{b}"));
                }
                if a < acked {
                    lost += acked - a;
                    violations.push(format!("client {client}: acked {acked}, recovered {a}"));
                }
                if a > attempted {
                    violations.push(format!(
                        "client {client}: phantom {a} > attempted {attempted}"
                    ));
                }
            }
            if machine.rapilog_guarantee_held() == Some(false) {
                violations.push("RapiLog audit: guarantee violated".to_string());
            }
            machine.assert_trusted_intact();
            db.stop();
            let t_end = ctx.now().as_nanos();
            if rec.enabled() {
                let span = |name, parent, start, end| Span {
                    name,
                    client: index,
                    seq: 0,
                    parent,
                    start,
                    end,
                };
                rec.record(span("crash.trial", None, t_load, t_end));
                rec.record(span("crash.load", Some("crash.trial"), t_load, t_fault));
                rec.record(span("crash.fault", Some("crash.trial"), t_fault, t_recover));
                rec.record(span(
                    "crash.recover",
                    Some("crash.trial"),
                    t_recover,
                    t_audit,
                ));
            }
            (violations, lost, report, t_end - t_load)
        })
    };
    let a0 = alloc::snapshot();
    let (polls, run_slices) = step_until(&mut sim, || outcome.is_finished());
    let allocs = alloc::snapshot().since(a0);
    let (violations, lost_acked, recovery, span_ns) = outcome.try_take().expect("trial finished");
    let [latency, queue, exec, commit] = samples.take();
    let acked = journals.borrow().iter().map(|j| j.0).sum();
    Trial {
        acked,
        lost_acked,
        violations,
        recovery,
        latency,
        queue,
        exec,
        commit,
        span_ns,
        setup_s,
        run_slices,
        polls,
        allocs,
    }
}

/// A stable 64-bit mix of the run seed and a trial index.
fn trial_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs every trial and the negative control once on `seed`.
///
/// Returns every counterexample (trial seed, fault, instant, violations)
/// when any trial fails its audit, or an error when the negative control
/// loses no acknowledged commit.
pub fn run(seed: u64, rec: &Recorder) -> Result<Rep, String> {
    let mut trials = Vec::new();
    let mut counterexamples = Vec::new();
    let mut load = SimDuration::ZERO;
    for i in 0..TRIALS {
        let s = trial_seed(seed, i);
        let fault = if i % 2 == 0 {
            FaultKind::GuestCrash
        } else {
            FaultKind::PowerCut
        };
        let after = FAULT_MIN + SimDuration::from_nanos(s % FAULT_SPREAD.as_nanos());
        let t = trial(
            s,
            i,
            Setup::RapiLog,
            EngineProfile::pg_like(),
            fault,
            after,
            rec,
        );
        if !t.violations.is_empty() {
            counterexamples.push(format!(
                "trial {i} (trial seed {s}, {fault:?} after {after:?}): {}",
                t.violations.join("; ")
            ));
        }
        load += after;
        trials.push(t);
    }
    if !counterexamples.is_empty() {
        return Err(format!(
            "{} of {TRIALS} trials failed the durability audit:\n  {}",
            counterexamples.len(),
            counterexamples.join("\n  ")
        ));
    }
    let s = trial_seed(seed, TRIALS);
    let after = FAULT_MIN + SimDuration::from_nanos(s % FAULT_SPREAD.as_nanos());
    let control = trial(
        s,
        TRIALS,
        Setup::Native,
        EngineProfile::async_unsafe(),
        FaultKind::GuestCrash,
        after,
        &Recorder::new(false),
    );
    if control.lost_acked == 0 {
        return Err(
            "negative control passed: async_unsafe under a guest crash lost no acked commit".into(),
        );
    }

    let cat = |f: fn(&Trial) -> &Vec<u64>| {
        trials
            .iter()
            .flat_map(|t| f(t).iter().copied())
            .collect::<Vec<_>>()
    };
    let (mut latency, mut queue, mut exec, mut commit) = (
        cat(|t| &t.latency),
        cat(|t| &t.queue),
        cat(|t| &t.exec),
        cat(|t| &t.commit),
    );
    let rec_ns =
        |f: fn(&RecoveryReport) -> u64| trials.iter().map(|t| f(&t.recovery)).collect::<Vec<_>>();
    let mut duration = rec_ns(|r| r.duration.as_nanos());
    let mut scan = rec_ns(|r| r.scan_time.as_nanos());
    let mut redo = rec_ns(|r| r.redo_time.as_nanos());
    let mut undo = rec_ns(|r| r.undo_time.as_nanos());
    let mut scanned = rec_ns(|r| r.scanned_records);
    let skipped: u64 = rec_ns(|r| r.redo_skipped_clean).iter().sum();
    let applied: u64 = rec_ns(|r| r.redo_applied).iter().sum();
    let acked: u64 = trials.iter().map(|t| t.acked).sum();
    let us = |v: u64| v as f64 / 1e3;
    let ms = |v: u64| v as f64 / 1e6;
    let modelled = vec![
        ("tps", acked as f64 / load.as_secs_f64()),
        ("commit_p50_us", us(percentile(&mut latency, 50.0))),
        ("commit_p99_us", us(percentile(&mut latency, 99.0))),
        ("commit_p999_us", us(percentile(&mut latency, 99.9))),
        ("recovery_ms_p50", ms(percentile(&mut duration, 50.0))),
        ("recovery_ms_p90", ms(percentile(&mut duration, 90.0))),
        ("session.queue_us_p50", us(percentile(&mut queue, 50.0))),
        ("session.queue_us_p99", us(percentile(&mut queue, 99.0))),
        ("engine.exec_us_p50", us(percentile(&mut exec, 50.0))),
        ("engine.commit_us_p50", us(percentile(&mut commit, 50.0))),
        ("engine.commit_us_p99", us(percentile(&mut commit, 99.0))),
        ("recovery.scan_ms_p50", ms(percentile(&mut scan, 50.0))),
        ("recovery.redo_ms_p50", ms(percentile(&mut redo, 50.0))),
        ("recovery.undo_ms_p50", ms(percentile(&mut undo, 50.0))),
        (
            "recovery.scanned_records_p50",
            percentile(&mut scanned, 50.0) as f64,
        ),
        (
            "recovery.redo_skipped_share",
            ratio(skipped as f64, (skipped + applied) as f64),
        ),
        ("crash.trials", TRIALS as f64),
        ("crash.acked_audited", acked as f64),
        ("crash.counterexamples", 0.0),
        ("crash.control_lost_acked", control.lost_acked as f64),
    ];
    let setup: Vec<f64> = trials.iter().map(|t| t.setup_s).collect();
    // Every trial's in-flight transaction is lost with the machine; the
    // workload injects that, so it is not counted as a failure.
    Ok(Rep {
        attempted: acked,
        failed: 0,
        modelled,
        work: Work {
            commits: acked,
            polls: trials.iter().map(|t| t.polls).sum(),
            allocs: trials.iter().map(|t| t.allocs.calls).sum(),
            alloc_bytes: trials.iter().map(|t| t.allocs.bytes).sum(),
        },
        setup_s: crate::stats::median(&setup),
        run_slices: trials
            .iter()
            .flat_map(|t| t.run_slices.iter().copied())
            .collect(),
        spans: rec.take(),
        latencies: trials
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u64, 0, t.span_ns))
            .collect(),
    })
}
