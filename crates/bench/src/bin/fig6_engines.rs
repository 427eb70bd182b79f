//! Fig 6 \[reconstructed\]: cross-engine comparison.
//!
//! The paper's evaluation spans multiple engines (PostgreSQL, MySQL, a
//! commercial system). What differs between them, for logging purposes, is
//! the commit-forcing policy and per-operation CPU cost — captured here as
//! engine profiles over the same storage engine. For each profile, the
//! speedup of RapiLog over virtualised-sync on an HDD log.

use rapilog_bench::table::{f1, f2, TextTable};
use rapilog_bench::{run_perf, PerfConfig, WorkloadSpec};
use rapilog_dbengine::EngineProfile;
use rapilog_faultsim::{MachineConfig, Setup};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcc::TpccScale;

fn run_one(profile: EngineProfile, setup: Setup, clients: usize, measure: u64) -> f64 {
    let mut machine =
        MachineConfig::new(setup, specs::instant(1 << 30), specs::hdd_7200(512 << 20));
    machine.supply = Some(supplies::atx_psu());
    machine.db.profile = profile;
    let stats = run_perf(PerfConfig {
        seed: 6,
        machine,
        workload: WorkloadSpec::Tpcc(TpccScale::small()),
        run: RunConfig {
            clients,
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(measure),
            think_time: None,
        },
        trace: false,
    });
    stats.stats.tps()
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let measure = if quick { 2 } else { 5 };
    println!("Fig 6: RapiLog speedup over virt-sync per engine profile, TPC-C on hdd-7200\n");
    let mut t = TextTable::new(&[
        "engine",
        "clients",
        "virt-sync tps",
        "rapilog tps",
        "speedup",
    ]);
    let profiles: Vec<fn() -> EngineProfile> = vec![
        EngineProfile::pg_like,
        EngineProfile::innodb_like,
        EngineProfile::simple_sync,
    ];
    for make in &profiles {
        for clients in [8usize, 32] {
            let sync_tps = run_one(make(), Setup::Virtualized, clients, measure);
            let rapi_tps = run_one(make(), Setup::RapiLog, clients, measure);
            t.row(&[
                make().name,
                clients.to_string(),
                f1(sync_tps),
                f1(rapi_tps),
                format!("{}x", f2(rapi_tps / sync_tps)),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Expected shape: every engine speeds up by an order of magnitude or more on the");
    println!("rotating disk; the absolute ceiling under RapiLog tracks each engine's CPU cost");
    println!("per transaction (simple-sync is the most CPU-hungry profile).");
}
