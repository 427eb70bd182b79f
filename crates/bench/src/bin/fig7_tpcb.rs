//! Fig 7 \[reconstructed\]: pgbench-style (TPC-B) throughput vs. clients.
//!
//! Four writes and a commit per transaction: nearly all commit path. The
//! sharpest view of what removing the synchronous log force buys.

use rapilog_bench::table::{ms, TextTable};
use rapilog_bench::{run_perf, PerfConfig, WorkloadSpec};
use rapilog_faultsim::{MachineConfig, Setup};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcb::TpcbScale;

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let client_counts: &[usize] = if quick {
        &[1, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    println!("Fig 7: TPC-B (pgbench) throughput vs clients, log on hdd-7200\n");
    let mut t = TextTable::new(&["setup", "clients", "tps", "p50 (ms)", "p95 (ms)"]);
    for setup in [Setup::Native, Setup::Virtualized, Setup::RapiLog] {
        for &clients in client_counts {
            let mut machine =
                MachineConfig::new(setup, specs::instant(1 << 30), specs::hdd_7200(512 << 20));
            machine.supply = Some(supplies::atx_psu());
            let stats = run_perf(PerfConfig {
                seed: 7,
                machine,
                workload: WorkloadSpec::Tpcb(TpcbScale::small()),
                run: RunConfig {
                    clients,
                    warmup: SimDuration::from_secs(1),
                    measure: SimDuration::from_secs(if quick { 2 } else { 5 }),
                    think_time: None,
                },
                trace: false,
            })
            .stats;
            t.row(&[
                setup.label().to_string(),
                clients.to_string(),
                format!("{:.0}", stats.tps()),
                ms(stats.latency.percentile(50.0)),
                ms(stats.latency.percentile(95.0)),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Expected shape: single-client sync ≈ 120 tps (one rotation per commit); RapiLog in the thousands.");
}
