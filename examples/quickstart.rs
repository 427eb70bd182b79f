//! Quickstart: what RapiLog does, in sixty lines.
//!
//! Builds a 7200 rpm disk, mounts a RapiLog buffer over it inside a
//! trusted cell, and times the same "synchronous" log write against the
//! raw disk and against RapiLog.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rapilog_suite::microvisor::{Hypervisor, Trust};
use rapilog_suite::rapilog::RapiLog;
use rapilog_suite::simcore::{Sim, SimDuration};
use rapilog_suite::simdisk::{specs, BlockDeviceExt, Disk, SECTOR_SIZE};

fn main() {
    let mut sim = Sim::new(42);
    let ctx = sim.ctx();
    let c2 = ctx.clone();
    sim.spawn(async move {
        // The physical substrate: a commodity 7200 rpm disk.
        let raw = Disk::new(&c2, specs::hdd_7200(1 << 30));

        // The verified layer: a trusted cell hosting the dependable buffer.
        let hv = Hypervisor::new(&c2);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&c2).cell(&cell).disk(raw.clone()).build();
        let vdisk = rl.device();

        let record = vec![0xD8u8; 8 * SECTOR_SIZE]; // a 4 KiB log record

        // A database committing on the raw disk: one write, one rotation.
        let t0 = c2.now();
        raw.write(1_000_000, &record, true).await.unwrap();
        let raw_latency = c2.now() - t0;

        // Give the platter an arbitrary spin so the comparison is fair.
        c2.sleep(SimDuration::from_millis(3)).await;

        // The same commit through RapiLog: acknowledged from the buffer.
        let t0 = c2.now();
        vdisk.write(0, &record, true).await.unwrap();
        let rapilog_latency = c2.now() - t0;

        // The data still reaches the platter — asynchronously, in order.
        rl.quiesce().await;
        let mut back = vec![0u8; record.len()];
        raw.read(0, &mut back).await.unwrap();
        assert_eq!(back, record, "drained bytes are on the physical disk");

        println!("synchronous write, raw disk : {raw_latency}");
        println!("synchronous write, RapiLog  : {rapilog_latency}");
        println!(
            "speedup                     : {:.0}x",
            raw_latency.as_nanos() as f64 / rapilog_latency.as_nanos() as f64
        );
        println!(
            "and the bytes are on the platter anyway (drained {} bytes).",
            rl.stats().drained_bytes
        );
    });
    sim.run();
}
