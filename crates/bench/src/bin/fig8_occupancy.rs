//! Fig 8 \[reconstructed\]: dependable-buffer occupancy over time, with a
//! guest crash in the middle.
//!
//! Shows the buffer breathing under TPC-C load and — after the guest OS is
//! crashed — the drain emptying it while the database is dead: the log data
//! outlives the OS, which is the paper's core guarantee made visible.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_bench::table::TextTable;
use rapilog_faultsim::{Machine, MachineConfig, Setup};
use rapilog_simcore::{Sim, SimDuration, SimTime};
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;
use rapilog_workload::client::{self, RunConfig, TpccSource};
use rapilog_workload::tpcc::{self, TpccScale};

fn main() {
    let mut sim = Sim::new(8);
    let ctx = sim.ctx();
    let series: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let out = Rc::clone(&series);
    let c2 = ctx.clone();
    let crash_at = SimTime::from_secs(3);
    sim.spawn(async move {
        let mut mc = MachineConfig::new(
            Setup::RapiLog,
            specs::instant(1 << 30),
            specs::hdd_7200(512 << 20),
        );
        mc.supply = Some(supplies::atx_psu());
        let machine = Machine::new(&c2, mc);
        let db = machine
            .install(&tpcc::table_defs(&TpccScale::small()))
            .await
            .expect("install");
        let mut rng = c2.fork_rng();
        let tables = tpcc::load(&db, &TpccScale::small(), &mut rng)
            .await
            .expect("load");
        let rl = machine.rapilog().expect("rapilog setup");
        // Sampler task: occupancy every 20 ms.
        let sampler_ctx = c2.clone();
        let rl2 = rl.clone();
        let samples = Rc::clone(&out);
        c2.spawn(async move {
            loop {
                samples
                    .borrow_mut()
                    .push((sampler_ctx.now().as_millis(), rl2.occupancy()));
                sampler_ctx.sleep(SimDuration::from_millis(20)).await;
            }
        });
        // Load until the crash.
        let server = machine.server();
        let run_handle = {
            let c3 = c2.clone();
            let server2 = server;
            c2.spawn(async move {
                client::run(
                    &c3,
                    &server2,
                    Rc::new(TpccSource {
                        tables,
                        scale: TpccScale::small(),
                    }),
                    RunConfig {
                        clients: 32,
                        warmup: SimDuration::from_millis(200),
                        measure: SimDuration::from_secs(60),
                        think_time: None,
                    },
                )
                .await
            })
        };
        c2.sleep_until(crash_at).await;
        machine.crash_guest();
        let _ = run_handle.await;
        // Watch the drain finish after the guest is gone.
        rl.quiesce().await;
        c2.sleep(SimDuration::from_millis(200)).await;
    });
    sim.run_until(SimTime::from_secs(10));
    println!("Fig 8: RapiLog buffer occupancy, TPC-C 32 clients, guest crash at t=3000 ms\n");
    let mut t = TextTable::new(&["t (ms)", "occupancy (KiB)"]);
    let series = series.borrow();
    // Downsample to ~40 rows for the terminal.
    let step = (series.len() / 40).max(1);
    for (ms, occ) in series.iter().step_by(step) {
        t.row(&[ms.to_string(), (occ / 1024).to_string()]);
    }
    println!("{}", t.render());
    println!(
        "Expected shape: occupancy fluctuates under load, then falls to 0 shortly after the crash"
    );
    println!("(the drain keeps running inside the trusted cell while the guest is dead).");
}
