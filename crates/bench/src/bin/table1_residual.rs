//! Table 1 \[reconstructed\]: residual-energy windows and the buffer sizes
//! they admit.
//!
//! The paper measured PSU hold-up times and derived how much log data can
//! safely be buffered. This table reproduces the sizing rule for the
//! supply catalogue against the disk models' drain bandwidths.

use rapilog_bench::table::{f1, TextTable};
use rapilog_simdisk::specs;
use rapilog_simpower::{budget, supplies};

fn main() {
    println!("Table 1: residual windows and admitted buffer sizes\n");
    let disks = [
        ("hdd-7200", specs::hdd_7200(1 << 30).sequential_bandwidth()),
        ("hdd-15k", specs::hdd_15k(1 << 30).sequential_bandwidth()),
        ("ssd-sata", specs::ssd_sata(1 << 30).sequential_bandwidth()),
    ];
    let mut t = TextTable::new(&[
        "supply",
        "window (ms)",
        "usable (ms)",
        "max buffer hdd-7200 (MiB)",
        "max buffer hdd-15k (MiB)",
        "max buffer ssd-sata (MiB)",
    ]);
    for spec in [
        supplies::atx_psu(),
        supplies::atx_psu_loaded(),
        supplies::server_psu(),
        supplies::small_ups(),
    ] {
        let mut row = vec![
            spec.name.clone(),
            f1(spec.window().as_millis_f64()),
            f1(spec.usable_window().as_millis_f64()),
        ];
        for (_, bw) in &disks {
            let cap = budget::max_buffer_bytes(&spec, *bw);
            row.push(f1(cap as f64 / (1024.0 * 1024.0)));
        }
        t.row(&row);
    }
    println!("{}", t.render());
    println!(
        "Safety rule: buffer ≤ bandwidth × (usable window × {:.0}% − {} startup).",
        (1.0 - budget::SAFETY_MARGIN) * 100.0,
        budget::DRAIN_STARTUP
    );
    println!("Even a plain ATX supply admits tens of MiB — far more than any commit burst needs.");
}
