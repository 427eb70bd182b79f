//! Fig 3 \[reconstructed\]: the cost of virtualisation alone.
//!
//! Native vs. virtualised, both with synchronous logging, on disks fast
//! enough that the log force does not mask the CPU and I/O-crossing tax.
//! The paper's claim is that this gap — a few percent — is the *only*
//! price RapiLog's architecture charges.

use rapilog_bench::table::{f1, TextTable};
use rapilog_bench::{run_perf, PerfConfig, WorkloadSpec};
use rapilog_faultsim::{MachineConfig, Setup};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::specs;
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcc::TpccScale;

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let client_counts: &[usize] = if quick { &[8] } else { &[1, 4, 8, 16, 32] };
    println!("Fig 3: virtualisation overhead (sync logging on ssd-nvme, TPC-C)\n");
    let mut t = TextTable::new(&["clients", "native tps", "virt tps", "overhead %"]);
    for &clients in client_counts {
        let mut tps = Vec::new();
        for setup in [Setup::Native, Setup::Virtualized] {
            let machine =
                MachineConfig::new(setup, specs::ssd_nvme(1 << 30), specs::ssd_nvme(512 << 20));
            let stats = run_perf(PerfConfig {
                seed: 3,
                machine,
                workload: WorkloadSpec::Tpcc(TpccScale::small()),
                run: RunConfig {
                    clients,
                    warmup: SimDuration::from_secs(1),
                    measure: SimDuration::from_secs(if quick { 2 } else { 5 }),
                    think_time: None,
                },
                trace: false,
            });
            tps.push(stats.stats.tps());
        }
        let overhead = (tps[0] - tps[1]) / tps[0] * 100.0;
        t.row(&[clients.to_string(), f1(tps[0]), f1(tps[1]), f1(overhead)]);
    }
    println!("{}", t.render());
    println!("Expected shape: overhead stays in the single-digit percent range.");
}
