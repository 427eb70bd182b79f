//! The one-method device contract: every `BlockDevice` in the stack gives
//! the same typed result for the same request through `io` — the raw disk,
//! the virtio transport, the RapiLog virtual log disk (buffered and
//! write-through) and the engine's retrying block layer. Discards get two
//! RapiLog-only rows: one ordering against acked writes, one power loss.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_suite::dbengine::retry::RetryingDevice;
use rapilog_suite::microvisor::{VirtCosts, VirtioBlk};
use rapilog_suite::prelude::*;
use rapilog_suite::rapilog::CapacitySpec;
use rapilog_suite::simdisk::{IoError, IoReq, IoResult, LocalBoxFuture, SectorBuf};

/// Every device fronts a 1 MiB disk.
const SECTORS: u64 = 2048;

type Build = fn(&SimCtx, &Hypervisor, Disk) -> Rc<dyn BlockDevice>;

fn rapilog(ctx: &SimCtx, hv: &Hypervisor, disk: Disk, capacity: u64) -> Rc<dyn BlockDevice> {
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let rl = RapiLog::builder(ctx)
        .cell(&cell)
        .disk(disk)
        .capacity(CapacitySpec::Fixed(capacity))
        .build();
    let dev = rl.device();
    assert_eq!(dev.is_write_through(), capacity == 0);
    Rc::new(dev)
}

const DEVICES: [(&str, Build); 5] = [
    ("disk", |_, _, disk| Rc::new(disk)),
    ("virtio", |ctx, hv, disk| {
        let driver = hv.create_cell("blk-driver", Trust::Trusted);
        Rc::new(VirtioBlk::new(
            ctx,
            &driver,
            Rc::new(disk),
            VirtCosts::default(),
        ))
    }),
    ("rapilog", |ctx, hv, disk| rapilog(ctx, hv, disk, 64 << 10)),
    ("rapilog-write-through", |ctx, hv, disk| {
        rapilog(ctx, hv, disk, 0)
    }),
    ("retrying", |ctx, _, disk| {
        Rc::new(RetryingDevice::new(
            ctx,
            Rc::new(disk),
            4,
            SimDuration::from_micros(10),
        ))
    }),
];

/// Runs `script` against each device in its own simulation and returns
/// the per-device results, failing if a script did not finish.
fn run_each<T: 'static>(
    script: fn(Rc<dyn BlockDevice>) -> LocalBoxFuture<'static, T>,
) -> Vec<(&'static str, T)> {
    DEVICES
        .iter()
        .map(|&(name, build)| {
            let mut sim = Sim::new(5);
            let ctx = sim.ctx();
            let hv = Hypervisor::new(&ctx);
            let dev = build(&ctx, &hv, Disk::new(&ctx, specs::instant(SECTORS * 512)));
            let out = Rc::new(RefCell::new(None));
            let o2 = Rc::clone(&out);
            sim.spawn(async move {
                *o2.borrow_mut() = Some(script(dev).await);
            });
            sim.run_until(SimTime::from_secs(1));
            let got = out.borrow_mut().take();
            (
                name,
                got.unwrap_or_else(|| panic!("{name}: script never finished")),
            )
        })
        .collect()
}

fn payload(sectors: usize) -> SectorBuf {
    SectorBuf::from_vec(
        (0..sectors * SECTOR_SIZE)
            .map(|i| (i % 251) as u8)
            .collect(),
    )
}

#[test]
fn every_device_gives_the_same_typed_result() {
    let results = run_each(|dev| {
        Box::pin(async move {
            let data = payload(3);
            let mut got: Vec<IoResult<Option<SectorBuf>>> = Vec::new();
            // Write/read round trip, then a barrier.
            got.push(
                dev.io(IoReq::Write {
                    sector: 40,
                    data: data.clone(),
                    fua: true,
                })
                .await,
            );
            got.push(
                dev.io(IoReq::Read {
                    sector: 40,
                    sectors: 3,
                })
                .await,
            );
            got.push(dev.io(IoReq::Flush).await);
            // A write that is not a whole number of sectors.
            got.push(
                dev.io(IoReq::Write {
                    sector: 0,
                    data: SectorBuf::from_vec(vec![1; 100]),
                    fua: true,
                })
                .await,
            );
            // A read of no sectors.
            got.push(
                dev.io(IoReq::Read {
                    sector: 0,
                    sectors: 0,
                })
                .await,
            );
            // A write past the end.
            got.push(
                dev.io(IoReq::Write {
                    sector: SECTORS - 1,
                    data: payload(2),
                    fua: true,
                })
                .await,
            );
            got
        })
    });
    let expect: Vec<IoResult<Option<SectorBuf>>> = vec![
        Ok(None),
        Ok(Some(payload(3))),
        Ok(None),
        Err(IoError::Misaligned { len: 100 }),
        Err(IoError::Misaligned { len: 0 }),
        Err(IoError::OutOfRange {
            sector: SECTORS - 1,
            count: 2,
        }),
    ];
    for (name, got) in results {
        assert_eq!(got, expect, "{name}");
    }
}

#[test]
fn oversized_reads_are_rejected_without_allocating() {
    // Sized by an unchecked count, either read would abort the process
    // (2^49 and 2^73 bytes); every device must refuse it as out of range,
    // and keep serving afterwards.
    let results = run_each(|dev| {
        Box::pin(async move {
            let mut got = Vec::new();
            for (sector, sectors) in [(0, 1 << 40), (0, u64::MAX), (u64::MAX, 2)] {
                got.push(dev.io(IoReq::Read { sector, sectors }).await);
            }
            let mut buf = vec![0u8; SECTOR_SIZE];
            dev.write(7, &[9; SECTOR_SIZE], true).await.unwrap();
            dev.read(7, &mut buf).await.unwrap();
            assert_eq!(buf, [9; SECTOR_SIZE]);
            got
        })
    });
    for (name, got) in results {
        assert_eq!(
            got,
            vec![
                Err(IoError::OutOfRange {
                    sector: 0,
                    count: 1 << 40
                }),
                Err(IoError::OutOfRange {
                    sector: 0,
                    count: u64::MAX
                }),
                Err(IoError::OutOfRange {
                    sector: u64::MAX,
                    count: 2
                }),
            ],
            "{name}"
        );
    }
}

#[test]
fn discards_read_back_zeros_and_refuse_bad_ranges() {
    let results = run_each(|dev| {
        Box::pin(async move {
            let mut got: Vec<IoResult<Option<SectorBuf>>> = Vec::new();
            dev.io(IoReq::Write {
                sector: 40,
                data: payload(3),
                fua: true,
            })
            .await
            .unwrap();
            got.push(
                dev.io(IoReq::Discard {
                    sector: 40,
                    sectors: 2,
                })
                .await,
            );
            got.push(
                dev.io(IoReq::Read {
                    sector: 40,
                    sectors: 3,
                })
                .await,
            );
            // Counts a plain loop over would never finish, then an empty
            // run and a run past the end.
            for (sector, sectors) in [(0, u64::MAX), (u64::MAX, 2), (0, 0), (SECTORS - 1, 2)] {
                got.push(dev.io(IoReq::Discard { sector, sectors }).await);
            }
            got
        })
    });
    let mut kept = vec![0u8; 2 * SECTOR_SIZE];
    kept.extend_from_slice(&payload(3)[2 * SECTOR_SIZE..]);
    let expect: Vec<IoResult<Option<SectorBuf>>> = vec![
        Ok(None),
        Ok(Some(SectorBuf::from_vec(kept))),
        Err(IoError::OutOfRange {
            sector: 0,
            count: u64::MAX,
        }),
        Err(IoError::OutOfRange {
            sector: u64::MAX,
            count: 2,
        }),
        Err(IoError::Misaligned { len: 0 }),
        Err(IoError::OutOfRange {
            sector: SECTORS - 1,
            count: 2,
        }),
    ];
    for (name, got) in results {
        assert_eq!(got, expect, "{name}");
    }
}

/// A write RapiLog has acknowledged but not drained still heads for the
/// sectors a later discard names. The discard must wait for it to land,
/// or the drain would write it back over the discard.
#[test]
fn rapilog_discard_waits_for_older_acked_writes_to_reach_media() {
    let mut sim = Sim::new(5);
    let ctx = sim.ctx();
    let hv = Hypervisor::new(&ctx);
    // A rotating disk: the drain takes milliseconds, the ack microseconds.
    let disk = Disk::new(&ctx, specs::hdd_7200(SECTORS * 512));
    let dev = rapilog(&ctx, &hv, disk.clone(), 64 << 10);
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    let (c2, disk2) = (ctx.clone(), disk.clone());
    sim.spawn(async move {
        dev.write(40, &payload(3), true).await.unwrap();
        assert_eq!(disk2.stats().sectors_written, 0, "acked from the buffer");
        dev.io(IoReq::Discard {
            sector: 40,
            sectors: 3,
        })
        .await
        .unwrap();
        assert_eq!(disk2.stats().sectors_written, 3, "the write landed first");
        assert_eq!(disk2.stats().discards, 1);
        assert_eq!(disk2.stats().populated_bytes, 0);
        c2.sleep(SimDuration::from_millis(100)).await;
        *d2.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(1));
    assert!(*done.borrow());
    let mut media = vec![0xFFu8; 3 * SECTOR_SIZE];
    disk.peek_media(40, &mut media);
    assert!(media.iter().all(|&b| b == 0), "nothing came back");
}

#[test]
fn rapilog_discard_on_a_frozen_buffer_is_power_loss() {
    let mut sim = Sim::new(5);
    let ctx = sim.ctx();
    let hv = Hypervisor::new(&ctx);
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let psu = PowerSupply::new(&ctx, supplies::atx_psu());
    let rl = RapiLog::builder(&ctx)
        .cell(&cell)
        .disk(Disk::new(&ctx, specs::instant(SECTORS * 512)))
        .supply(&psu)
        .build();
    let dev = rl.device();
    let got = Rc::new(RefCell::new(None));
    let g2 = Rc::clone(&got);
    let c2 = ctx.clone();
    sim.spawn(async move {
        dev.write(40, &payload(1), true).await.unwrap();
        psu.cut_mains();
        while !rl.device_frozen() {
            c2.sleep(SimDuration::from_micros(100)).await;
        }
        *g2.borrow_mut() = Some(
            dev.io(IoReq::Discard {
                sector: 40,
                sectors: 1,
            })
            .await,
        );
    });
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(*got.borrow(), Some(Err(IoError::PowerLoss)));
}
