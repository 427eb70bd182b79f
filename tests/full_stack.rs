//! Cross-crate integration tests: the whole stack, end to end, through the
//! public APIs only.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_suite::dbengine::EngineProfile;
use rapilog_suite::faultsim::{run_trial, FaultKind, Machine, MachineConfig, Setup, TrialConfig};
use rapilog_suite::simcore::rng::SimRng;
use rapilog_suite::simcore::{Sim, SimDuration, SimTime};
use rapilog_suite::simdisk::{specs, SECTOR_SIZE};
use rapilog_suite::simpower::supplies;
use rapilog_suite::workload::client::{self, JobSource, RunConfig, StormSource, TpccSource};
use rapilog_suite::workload::micro;
use rapilog_suite::workload::session::{job, outcome_from, Job};
use rapilog_suite::workload::tpcc::{self, TpccScale};

fn machine_cfg(setup: Setup) -> MachineConfig {
    let mut mc = MachineConfig::new(setup, specs::instant(512 << 20), specs::hdd_7200(256 << 20));
    mc.supply = Some(supplies::atx_psu());
    mc
}

/// Runs TPC-C on a setup and returns (tps, lock timeouts).
fn tpcc_tps(setup: Setup, clients: usize, seed: u64) -> (f64, u64) {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let out = Rc::new(RefCell::new((0.0f64, 0u64)));
    let out2 = Rc::clone(&out);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let machine = Machine::new(&c2, machine_cfg(setup));
        let scale = TpccScale::tiny();
        let db = machine.install(&tpcc::table_defs(&scale)).await.unwrap();
        let mut rng = c2.fork_rng();
        let tables = tpcc::load(&db, &scale, &mut rng).await.unwrap();
        let server = machine.server();
        let stats = client::run(
            &c2,
            &server,
            Rc::new(TpccSource { tables, scale }),
            RunConfig {
                clients,
                warmup: SimDuration::from_millis(500),
                measure: SimDuration::from_secs(3),
                think_time: None,
            },
        )
        .await;
        machine.assert_trusted_intact();
        if let Some(held) = machine.rapilog_guarantee_held() {
            assert!(held);
        }
        db.stop();
        *out2.borrow_mut() = (stats.tps(), stats.lock_timeouts);
    });
    sim.run_until(SimTime::from_secs(120));
    let v = *out.borrow();
    v
}

#[test]
fn rapilog_beats_sync_logging_on_hdd_tpcc() {
    let (sync_tps, _) = tpcc_tps(Setup::Virtualized, 8, 61);
    let (rapi_tps, _) = tpcc_tps(Setup::RapiLog, 8, 61);
    assert!(
        rapi_tps > 1.5 * sync_tps,
        "expected a clear win on HDD: rapilog {rapi_tps:.0} vs sync {sync_tps:.0}"
    );
}

#[test]
fn virtualisation_overhead_is_modest() {
    let (native, _) = tpcc_tps(Setup::Native, 8, 62);
    let (virt, _) = tpcc_tps(Setup::Virtualized, 8, 62);
    let overhead = (native - virt) / native;
    assert!(
        overhead < 0.25,
        "virtualisation cost should be modest, got {:.0}% ({native:.0} -> {virt:.0})",
        overhead * 100.0
    );
}

/// `(W_YTD, Σ D_YTD, Σ history amounts, history rows)`: Payment adds its
/// amount to all three in one transaction, so the three sums agree in
/// every committed state.
async fn payment_totals(
    db: &rapilog_suite::dbengine::Database,
    t: &tpcc::TpccTables,
    scale: &TpccScale,
) -> (u64, u64, u64, usize) {
    let present = |bytes: Option<Vec<u8>>| bytes.expect("row present");
    let w = tpcc::WarehouseRow::decode(&present(db.get(t.warehouse, 1).await.unwrap()))
        .unwrap()
        .ytd_cents;
    let mut d = 0;
    for k in 1..=scale.districts {
        let row = present(db.get(t.district, tpcc::dist_key(1, k)).await.unwrap());
        d += tpcc::DistrictRow::decode(&row).unwrap().ytd_cents;
    }
    let history = db
        .scan_range(t.history, 0, u64::MAX, usize::MAX)
        .await
        .unwrap();
    // A history row is the customer key (8 bytes), then the amount.
    let h = history
        .iter()
        .map(|(_, row)| u32::from_le_bytes(row[8..12].try_into().unwrap()) as u64)
        .sum();
    (w, d, h, history.len())
}

/// TPC-C clients whose history keys cannot collide with an earlier
/// generation's: a key is the client tag and a per-client sequence number
/// that restarts with every run.
struct Generation {
    tables: tpcc::TpccTables,
    scale: TpccScale,
    generation: u64,
}

impl JobSource for Generation {
    fn next_job(&self, client: u64, seq: u64, rng: &mut SimRng) -> (Job, usize) {
        let tag = self.generation * 1000 + client + 1;
        let params = tpcc::generate(rng, &self.scale, tag, seq);
        let (kind, tables) = (params.kind(), self.tables);
        let job =
            job(move |db| async move { outcome_from(tpcc::execute(&db, &tables, &params).await) });
        (job, kind)
    }
}

/// TPC-C's money trail on the RapiLog machine with 16 clients: every
/// Payment's amount is in the warehouse total, its district's total and a
/// history row, with no lock timeouts. The totals survive a guest crash
/// after the run, and agree again after a crash in the middle of one.
#[test]
fn tpcc_payments_conserve_money_across_crashes() {
    let mut sim = Sim::new(63);
    let ctx = sim.ctx();
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let machine = Machine::new(&c2, machine_cfg(Setup::RapiLog));
        // Two districts for 16 clients: every Payment contends. Room for
        // both runs' orders and history rows.
        let scale = TpccScale {
            order_capacity: 10_000,
            ..TpccScale::tiny()
        };
        let db = machine.install(&tpcc::table_defs(&scale)).await.unwrap();
        let mut rng = c2.fork_rng();
        let tables = tpcc::load(&db, &scale, &mut rng).await.unwrap();
        let run = |generation: u64, measure| {
            let (c3, server) = (c2.clone(), machine.server());
            let source = Rc::new(Generation {
                tables,
                scale,
                generation,
            });
            c2.spawn(async move {
                let cfg = RunConfig {
                    clients: 16,
                    warmup: SimDuration::ZERO,
                    measure,
                    think_time: None,
                };
                client::run(&c3, &server, source, cfg).await
            })
        };
        let stats = run(0, SimDuration::from_secs(1)).await.unwrap();
        assert!(stats.committed > 1000, "{}", stats.summary());
        assert_eq!(stats.lock_timeouts, 0, "{}", stats.summary());
        let (w, d, h, rows) = payment_totals(&db, &tables, &scale).await;
        assert!(rows > 100, "payments ran: {rows} history rows");
        assert_eq!((w, d), (h, h), "after the run");
        // A crash with everything committed changes nothing.
        machine.crash_guest();
        c2.sleep(SimDuration::from_millis(50)).await;
        let (db, _) = machine.reboot_and_recover().await.unwrap();
        assert_eq!(
            payment_totals(&db, &tables, &scale).await,
            (w, d, h, rows),
            "after a crash at rest"
        );
        // A crash mid-run keeps each Payment whole: in all three totals
        // or in none.
        let running = run(1, SimDuration::from_secs(1));
        c2.sleep(SimDuration::from_millis(300)).await;
        machine.crash_guest();
        let _ = running.await;
        c2.sleep(SimDuration::from_millis(50)).await;
        let (db, _) = machine.reboot_and_recover().await.unwrap();
        let (w_after, d_after, h_after, rows_after) = payment_totals(&db, &tables, &scale).await;
        assert!(rows_after > rows, "the second run committed payments");
        assert_eq!(
            (w_after, d_after),
            (h_after, h_after),
            "after a crash mid-run"
        );
        db.stop();
        *d2.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(120));
    assert!(*done.borrow());
}

/// The log disk's media follows the live log, not the log ever written:
/// after each checkpoint the engine discards the log it made dead, so at
/// every instant of a storm the populated sectors fit in the superblock
/// plus the sectors between the truncation horizon and the log end.
#[test]
fn storm_log_disk_holds_only_the_live_log() {
    let mut sim = Sim::new(64);
    let ctx = sim.ctx();
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let mut cfg = machine_cfg(Setup::RapiLog);
        cfg.db.checkpoint_interval = SimDuration::from_millis(100);
        let machine = Machine::new(&c2, cfg);
        let db = machine.install(&micro::table_defs(4)).await.unwrap();
        let table = micro::registers_table(&db).unwrap();
        for c in 0..4 {
            micro::init_client(&db, table, c).await.unwrap();
        }
        let (c3, server) = (c2.clone(), machine.server());
        let storm = c2.spawn(async move {
            let cfg = RunConfig {
                clients: 4,
                warmup: SimDuration::ZERO,
                measure: SimDuration::from_secs(2),
                think_time: Some(SimDuration::from_micros(50)),
            };
            client::run(&c3, &server, Rc::new(StormSource), cfg).await
        });
        let sector = SECTOR_SIZE as u64;
        let mut peak = 0;
        while c2.now() < SimTime::from_millis(2100) {
            let wal = db.wal();
            let live = wal.end().0.div_ceil(sector) - wal.recovery_start().0 / sector;
            let populated = machine.log_disk().stats().populated_bytes;
            assert!(
                populated <= (1 + live) * sector,
                "{populated} bytes populated, live log {live} sectors"
            );
            peak = peak.max(populated);
            c2.sleep(SimDuration::from_millis(10)).await;
        }
        let stats = storm.await.unwrap();
        let written = db.wal().stats().bytes;
        assert!(stats.committed > 10_000, "{}", stats.summary());
        assert!(
            peak * 10 < written,
            "peak {peak} bytes populated of {written} logged"
        );
        db.stop();
        *d2.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(10));
    assert!(*done.borrow());
}

#[test]
fn durability_trials_across_random_instants() {
    // A mini Table 2: both fault kinds, several fault instants each.
    for (i, fault) in [FaultKind::GuestCrash, FaultKind::PowerCut]
        .into_iter()
        .enumerate()
    {
        for k in 0..3u64 {
            let seed = 700 + i as u64 * 10 + k;
            let r = run_trial(
                seed,
                TrialConfig {
                    machine: machine_cfg(Setup::RapiLog),
                    fault,
                    clients: 4,
                    fault_after: SimDuration::from_millis(120 + 170 * k),
                    think_time: SimDuration::from_micros(250),
                },
            );
            assert!(r.ok, "seed {seed} {fault:?}: violations {:?}", r.violations);
            assert!(r.total_acked > 0, "seed {seed}: load ran");
            assert_eq!(r.rapilog_guarantee, Some(true));
        }
    }
}

/// Two crash trials that lost acked work while checkpoints ran every
/// 200 ms: seed 1135 rolled back a commit whose log force was in flight
/// when a checkpoint listed it as active, and seed 1015 tore a register
/// pair when a page reached media ahead of the log record that changed it.
#[test]
fn checkpointing_trials_keep_acked_commits_whole() {
    for (seed, fault, ms) in [
        (1135, FaultKind::GuestCrash, 595),
        (1015, FaultKind::PowerCut, 581),
    ] {
        let mut machine = machine_cfg(Setup::RapiLog);
        machine.db.checkpoint_interval = SimDuration::from_millis(200);
        let r = run_trial(
            seed,
            TrialConfig {
                machine,
                fault,
                clients: 4,
                fault_after: SimDuration::from_millis(ms),
                think_time: SimDuration::from_micros(250),
            },
        );
        assert!(r.ok, "seed {seed} {fault:?}: {:?}", r.violations);
        assert!(r.total_acked > 1000, "seed {seed}: load ran");
    }
}

#[test]
fn repeated_crashes_and_recoveries_accumulate_no_damage() {
    // Crash the same machine three times in a row; all committed data must
    // persist across every generation.
    let mut sim = Sim::new(77);
    let ctx = sim.ctx();
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let machine = Machine::new(&c2, machine_cfg(Setup::RapiLog));
        let defs = rapilog_suite::workload::micro::table_defs(2);
        let db = machine.install(&defs).await.unwrap();
        let table = rapilog_suite::workload::micro::registers_table(&db).unwrap();
        for c in 0..2 {
            rapilog_suite::workload::micro::init_client(&db, table, c)
                .await
                .unwrap();
        }
        let mut expected = 0u64;
        let mut db = db;
        for round in 1..=3u64 {
            for step in 0..10u64 {
                let seq = expected + step + 1;
                rapilog_suite::workload::micro::write_pair(&db, table, 0, seq)
                    .await
                    .unwrap();
            }
            expected += 10;
            machine.crash_guest();
            c2.sleep(SimDuration::from_millis(50)).await;
            let (db2, report) = machine.reboot_and_recover().await.unwrap();
            assert!(
                report.committed_seen > 0 || round > 1,
                "recovery saw the committed work"
            );
            let (a, b) = rapilog_suite::workload::micro::read_pair(&db2, table, 0)
                .await
                .unwrap();
            assert_eq!((a, b), (expected, expected), "round {round}");
            db = db2;
        }
        db.stop();
        *d2.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(120));
    assert!(*done.borrow());
}

#[test]
fn async_commit_negative_control_detected() {
    let mut lost = false;
    for seed in 900..908 {
        let mut cfg = TrialConfig {
            machine: machine_cfg(Setup::Native),
            fault: FaultKind::GuestCrash,
            clients: 4,
            fault_after: SimDuration::from_millis(300),
            think_time: SimDuration::from_micros(100),
        };
        cfg.machine.db.profile = EngineProfile::async_unsafe();
        let r = run_trial(seed, cfg);
        if !r.ok {
            lost = true;
            break;
        }
    }
    assert!(lost, "the unsafe configuration must lose data on some seed");
}
