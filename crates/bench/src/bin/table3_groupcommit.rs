//! Table 3 \[reconstructed\]: the group-commit interaction.
//!
//! PostgreSQL's `commit_delay` trades commit latency for batching. The
//! paper notes RapiLog makes such tuning unnecessary: this sweep shows the
//! sync path's throughput depending on the knob while RapiLog is flat (and
//! better) at every setting.

use rapilog_bench::table::{f1, f2, ms, TextTable};
use rapilog_bench::{run_perf, PerfConfig, WorkloadSpec};
use rapilog_dbengine::EngineProfile;
use rapilog_faultsim::{MachineConfig, Setup};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcc::TpccScale;

fn run_one(delay: SimDuration, setup: Setup, measure: u64) -> rapilog_workload::RunStats {
    let mut machine =
        MachineConfig::new(setup, specs::instant(1 << 30), specs::hdd_7200(512 << 20));
    machine.supply = Some(supplies::atx_psu());
    machine.db.profile = if delay.is_zero() {
        EngineProfile::pg_like()
    } else {
        EngineProfile::pg_like_with_delay(delay)
    };
    run_perf(PerfConfig {
        seed: 13,
        machine,
        workload: WorkloadSpec::Tpcc(TpccScale::small()),
        run: RunConfig {
            clients: 16,
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(measure),
            think_time: None,
        },
        trace: false,
    })
    .stats
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let measure = if quick { 2 } else { 5 };
    println!("Table 3: commit_delay sweep, TPC-C 16 clients, log on hdd-7200\n");
    let mut t = TextTable::new(&[
        "commit_delay",
        "virt-sync tps",
        "virt-sync p95 (ms)",
        "rapilog tps",
        "rapilog p95 (ms)",
        "speedup",
    ]);
    for delay_us in [0u64, 100, 500, 1_000, 5_000] {
        let delay = SimDuration::from_micros(delay_us);
        let sync = run_one(delay, Setup::Virtualized, measure);
        let rapi = run_one(delay, Setup::RapiLog, measure);
        t.row(&[
            format!("{delay_us} us"),
            f1(sync.tps()),
            ms(sync.latency.percentile(95.0)),
            f1(rapi.tps()),
            ms(rapi.latency.percentile(95.0)),
            format!("{}x", f2(rapi.tps() / sync.tps())),
        ]);
    }
    println!("{}", t.render());
    println!("Expected shape: the sync path needs the knob (throughput rises with delay, at a");
    println!("latency price) while under RapiLog any delay only hurts — the correct setting is");
    println!("always 0, and rapilog@0 beats virt-sync at every setting: the tuning dimension");
    println!("disappears.");
}
