//! Fig 5 \[reconstructed\]: TPC-C throughput vs. client count on an SSD.
//!
//! Same sweep as Fig 4 with the log on flash. The synchronous path no
//! longer pays rotations, so RapiLog's advantage shrinks — the paper's
//! point that RapiLog "is never degraded, and at times significantly
//! improved" shows up here as parity within noise.
//!
//! The run doubles as a gate on the paper's shape: it exits non-zero unless
//! RapiLog's throughput is at least virt-sync's, and virt-sync's at most
//! native's (within 1%, see `VIRT_OVER_NATIVE_TOLERANCE`), at every client
//! count.

use rapilog_bench::table::{ms, TextTable};
use rapilog_bench::{paper_shape_holds, run_perf, PerfConfig, WorkloadSpec};
use rapilog_faultsim::{MachineConfig, Setup};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcc::TpccScale;

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let client_counts: &[usize] = if quick {
        &[1, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    println!("Fig 5: TPC-C throughput vs clients, log on ssd-sata\n");
    let mut t = TextTable::new(&["setup", "clients", "tpmC", "tps", "p95 (ms)"]);
    let mut rows = Vec::new();
    for setup in [Setup::Native, Setup::Virtualized, Setup::RapiLog] {
        for &clients in client_counts {
            let mut machine =
                MachineConfig::new(setup, specs::instant(1 << 30), specs::ssd_sata(512 << 20));
            machine.supply = Some(supplies::atx_psu());
            let stats = run_perf(PerfConfig {
                seed: 5,
                machine,
                workload: WorkloadSpec::Tpcc(TpccScale::small()),
                run: RunConfig {
                    clients,
                    warmup: SimDuration::from_secs(1),
                    measure: SimDuration::from_secs(if quick { 2 } else { 5 }),
                    think_time: None,
                },
                trace: false,
            })
            .stats;
            rows.push((setup, clients, stats.tps()));
            t.row(&[
                setup.label().to_string(),
                clients.to_string(),
                format!("{:.0}", stats.tpm_c()),
                format!("{:.0}", stats.tps()),
                ms(stats.latency.percentile(95.0)),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Expected shape: RapiLog ≈ virt-sync (small win at best); the HDD gap from Fig 4 collapses.");
    // Gate: the paper's shape must hold at every client count.
    if !paper_shape_holds(&rows) {
        std::process::exit(1);
    }
    println!("Gate: RapiLog >= virt-sync, virt-sync <= native (+1%) at every client count: held");
}
