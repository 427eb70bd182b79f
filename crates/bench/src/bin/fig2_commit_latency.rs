//! Fig 2 \[reconstructed\]: commit-latency anatomy.
//!
//! A single client commits minimal transactions (the commit storm). The
//! commit latency is dominated by the log force: one disk rotation under
//! synchronous logging on an HDD, the flash write on an SSD, and the
//! buffer-acknowledgement time under RapiLog. This figure is the paper's
//! motivation in one table.

use rapilog_bench::table::{ms, TextTable};
use rapilog_bench::{run_perf, PerfConfig, WorkloadSpec};
use rapilog_faultsim::{MachineConfig, Setup};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::{specs, DiskSpec};
use rapilog_simpower::supplies;
use rapilog_workload::client::RunConfig;

fn one(setup: Setup, log_spec: DiskSpec) -> rapilog_workload::RunStats {
    let mut machine = MachineConfig::new(setup, specs::instant(256 << 20), log_spec);
    machine.supply = Some(supplies::atx_psu());
    run_perf(PerfConfig {
        seed: 2,
        machine,
        workload: WorkloadSpec::Storm { clients: 1 },
        run: RunConfig {
            clients: 1,
            warmup: SimDuration::from_millis(500),
            measure: SimDuration::from_secs(5),
            think_time: Some(SimDuration::from_micros(500)),
        },
        trace: false,
    })
    .stats
}

fn main() {
    println!("Fig 2: commit latency, single client, minimal transactions\n");
    let mut t = TextTable::new(&[
        "log disk",
        "setup",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "commits/s",
    ]);
    for (disk_name, spec_fn) in [
        ("hdd-7200", specs::hdd_7200 as fn(u64) -> DiskSpec),
        ("ssd-sata", specs::ssd_sata as fn(u64) -> DiskSpec),
    ] {
        for setup in [Setup::Native, Setup::Virtualized, Setup::RapiLog] {
            let stats = one(setup, spec_fn(256 << 20));
            t.row(&[
                disk_name.to_string(),
                setup.label().to_string(),
                ms(stats.latency.percentile(50.0)),
                ms(stats.latency.percentile(95.0)),
                ms(stats.latency.percentile(99.0)),
                format!("{:.0}", stats.tps()),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Expected shape: HDD sync p50 ≈ one rotation (~8 ms); RapiLog p50 well under 1 ms on either disk.");
}
