//! Table 4 \[new\]: throughput and durability under media faults.
//!
//! Each row runs the audited register workload against one machine
//! configuration while the log disk misbehaves, and reports the commit
//! rate in three windows — before, during and after the fault — plus the
//! resilience activity (retries, remaps, degraded-mode transitions) and a
//! durability verdict.
//!
//! The headline rows are the transient-error **burst**: the synchronous
//! engine's WAL halts on the first failed flush that outlives the OS
//! retry budget, while RapiLog's drain rides it out — degrading to
//! synchronous acknowledgement when its own retry budget is spent, and
//! recovering (throughput within a few percent of the pre-fault rate)
//! once the disk heals.
//!
//! Environment: `QUICK=1` halves every window.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog::{AuditReport, RetryPolicy};
use rapilog_bench::table::{f1, TextTable};
use rapilog_faultsim::{FaultStats, Machine, MachineConfig, Setup};
use rapilog_simcore::{Sim, SimDuration, SimTime};
use rapilog_simdisk::{specs, FaultProfile};
use rapilog_simpower::supplies;
use rapilog_workload::micro;
use rapilog_workload::session::{job, outcome_from, JobOutcome};

const CLIENTS: u64 = 4;

/// What the log disk does during the run.
#[derive(Clone, Copy)]
enum Fault {
    /// Healthy disk.
    None,
    /// Every command fails inside the burst window.
    Burst,
    /// Background transient failures at this rate, whole run.
    Transient(f64),
    /// Background grown defects at this rate, whole run.
    Defects(f64),
}

impl Fault {
    fn label(&self) -> String {
        match self {
            Fault::None => "clean".to_string(),
            Fault::Burst => "error burst".to_string(),
            Fault::Transient(r) => format!("transient {:.0}%", r * 100.0),
            Fault::Defects(r) => format!("defects {:.1}%", r * 100.0),
        }
    }
}

struct RowSpec {
    label: &'static str,
    setup: Setup,
    fault: Fault,
    /// RapiLog drain policy (ignored for native rows).
    retry: RetryPolicy,
}

struct Outcome {
    /// Acked commits in the pre / during / post windows.
    windows: [u64; 3],
    report: Option<AuditReport>,
    stats: FaultStats,
}

struct Phases {
    pre: SimDuration,
    burst: SimDuration,
    post: SimDuration,
}

fn run_row(row: &RowSpec, phases: &Phases) -> Outcome {
    let mut sim = Sim::new(0x7AB4);
    let ctx = sim.ctx();
    let counts: Rc<RefCell<[u64; 3]>> = Rc::new(RefCell::new([0; 3]));
    let out: Rc<RefCell<Option<Outcome>>> = Rc::new(RefCell::new(None));
    let (c2, counts2, out2) = (ctx.clone(), Rc::clone(&counts), Rc::clone(&out));
    let pre_end = SimTime::ZERO + phases.pre;
    let burst_end = pre_end + phases.burst;
    let run_end = burst_end + phases.post;
    let fault = row.fault;
    let setup = row.setup;
    let retry = row.retry;
    sim.spawn(async move {
        let mut log_spec = specs::hdd_7200(256 << 20);
        match fault {
            Fault::Transient(rate) => {
                log_spec = log_spec.with_faults(FaultProfile::transient(7, rate));
            }
            Fault::Defects(rate) => {
                log_spec = log_spec.with_faults(FaultProfile::grown_defects(7, rate));
            }
            Fault::None | Fault::Burst => {}
        }
        let mut mc = MachineConfig::new(setup, specs::instant(256 << 20), log_spec);
        mc.supply = Some(supplies::atx_psu());
        mc.rapilog.drain.retry = retry;
        let machine = Machine::new(&c2, mc);
        let db = machine
            .install(&micro::table_defs(CLIENTS))
            .await
            .expect("install");
        let table = micro::registers_table(&db).expect("registers");
        for client in 0..CLIENTS {
            micro::init_client(&db, table, client).await.expect("init");
        }
        let server = machine.server();
        for client in 0..CLIENTS {
            let conn = server.connect();
            let ctx3 = c2.clone();
            let counts3 = Rc::clone(&counts2);
            c2.spawn(async move {
                let mut seq = 0u64;
                loop {
                    seq += 1;
                    let outcome = conn
                        .submit(job(move |db| async move {
                            let t = match micro::registers_table(&db) {
                                Ok(t) => t,
                                Err(e) => return JobOutcome::Aborted(e),
                            };
                            outcome_from(micro::write_pair(&db, t, client, seq).await)
                        }))
                        .await;
                    match outcome {
                        JobOutcome::Committed => {
                            let now = ctx3.now();
                            let w = if now < pre_end {
                                0
                            } else if now < burst_end {
                                1
                            } else {
                                2
                            };
                            counts3.borrow_mut()[w] += 1;
                        }
                        _ => break,
                    }
                    ctx3.sleep(SimDuration::from_micros(200)).await;
                }
            });
        }
        c2.sleep_until(pre_end).await;
        if matches!(fault, Fault::Burst) {
            machine.log_disk().set_sick(true);
        }
        c2.sleep_until(burst_end).await;
        if matches!(fault, Fault::Burst) {
            machine.log_disk().set_sick(false);
        }
        c2.sleep_until(run_end).await;
        db.stop();
        // Let the drain settle before reading the verdict.
        c2.sleep(SimDuration::from_millis(200)).await;
        *out2.borrow_mut() = Some(Outcome {
            windows: *counts2.borrow(),
            report: machine.rapilog_report(),
            stats: FaultStats::collect(&machine),
        });
    });
    sim.run_until(SimTime::from_secs(60));
    let o = out.borrow_mut().take();
    o.expect("row did not complete")
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let scale = if quick { 2 } else { 1 };
    let phases = Phases {
        pre: SimDuration::from_millis(400 / scale),
        burst: SimDuration::from_millis(200 / scale),
        post: SimDuration::from_millis(800 / scale),
    };
    println!(
        "Table 4: media faults on the log disk ({} ms load, {} ms fault window, {} ms recovery)\n",
        phases.pre.as_millis(),
        phases.burst.as_millis(),
        phases.post.as_millis()
    );
    let sticky_degraded = RetryPolicy {
        degraded_exit_successes: u32::MAX,
        ..RetryPolicy::default()
    };
    let rows = vec![
        RowSpec {
            label: "native-sync",
            setup: Setup::Native,
            fault: Fault::None,
            retry: RetryPolicy::default(),
        },
        RowSpec {
            label: "native-sync",
            setup: Setup::Native,
            fault: Fault::Burst,
            retry: RetryPolicy::default(),
        },
        RowSpec {
            label: "rapilog",
            setup: Setup::RapiLog,
            fault: Fault::None,
            retry: RetryPolicy::default(),
        },
        RowSpec {
            label: "rapilog",
            setup: Setup::RapiLog,
            fault: Fault::Transient(0.05),
            retry: RetryPolicy::default(),
        },
        RowSpec {
            label: "rapilog",
            setup: Setup::RapiLog,
            fault: Fault::Defects(0.01),
            retry: RetryPolicy::default(),
        },
        RowSpec {
            label: "rapilog",
            setup: Setup::RapiLog,
            fault: Fault::Burst,
            retry: RetryPolicy::default(),
        },
        RowSpec {
            label: "rapilog-degraded",
            setup: Setup::RapiLog,
            fault: Fault::Burst,
            retry: sticky_degraded,
        },
    ];
    let mut t = TextTable::new(&[
        "configuration",
        "fault",
        "pre (c/s)",
        "during (c/s)",
        "post (c/s)",
        "retries",
        "remaps",
        "degraded",
        "verdict",
    ]);
    let mut recovery_checked = false;
    let mut recovery_ok = true;
    for row in &rows {
        let o = run_row(row, &phases);
        let rate = |commits: u64, window: SimDuration| commits as f64 / window.as_secs_f64();
        let pre = rate(o.windows[0], phases.pre);
        let during = rate(o.windows[1], phases.burst);
        let post = rate(o.windows[2], phases.post);
        let degraded = match &o.report {
            Some(r) => format!("{}/{}", r.degraded_entries, r.degraded_exits),
            None => "-".to_string(),
        };
        let verdict = match (&o.report, row.setup) {
            (Some(r), _) if !r.guarantee_held() => "GUARANTEE VIOLATED".to_string(),
            (Some(r), _) => {
                let recovered = post >= 0.9 * pre;
                if matches!(row.fault, Fault::Burst) && r.degraded_exits > 0 {
                    recovery_checked = true;
                    recovery_ok &= recovered;
                }
                if recovered {
                    "no loss, recovered".to_string()
                } else {
                    "no loss, still slow".to_string()
                }
            }
            (None, _) => {
                if post == 0.0 && !matches!(row.fault, Fault::None) {
                    "halted at fault (no loss)".to_string()
                } else {
                    "no loss".to_string()
                }
            }
        };
        t.row(&[
            row.label.to_string(),
            row.fault.label(),
            f1(pre),
            f1(during),
            f1(post),
            o.stats.drain_retries.to_string(),
            o.stats.sector_remaps.to_string(),
            degraded,
            verdict,
        ]);
    }
    println!("{}", t.render());
    println!("Expected shape: the native engine halts for good when a burst outlives the OS");
    println!("retry budget; RapiLog degrades to synchronous acknowledgement, never loses an");
    println!("acked commit, and returns to within 10% of its pre-fault rate after the burst.");
    if recovery_checked && !recovery_ok {
        println!("WARNING: post-fault throughput did not recover to within 10% of pre-fault.");
        std::process::exit(1);
    }
}
