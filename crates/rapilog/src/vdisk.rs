//! The guest-facing virtual log disk.
//!
//! [`RapiLogDevice`] implements [`BlockDevice`], so a database engine's log
//! partition can point at it unchanged. The semantics it exports are the
//! paper's:
//!
//! * `write` (FUA or not) returns once the bytes are in the dependable
//!   buffer — microseconds, independent of disk mechanics. The FUA flag is
//!   honoured *semantically*: acknowledged data is guaranteed to reach
//!   media even across OS crash and power cut, which is the property FUA
//!   exists to provide.
//! * `flush` returns immediately: there is never acknowledged-but-
//!   undependable data.
//! * `read` sees the newest acknowledged bytes (buffer overlay first, then
//!   the physical disk) — so a rebooted guest reading its log tail gets
//!   exactly what was acknowledged before the crash.
//! * When the buffer is full, `write` waits: RapiLog degrades to the
//!   drain's (= the disk's sequential) throughput, never below the raw
//!   synchronous path.

use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::trace::{Layer, Payload, Tracer};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{
    BlockDevice, Geometry, IoError, IoReq, IoResult, LocalBoxFuture, SECTOR_SIZE,
};

use crate::audit::Audit;
use crate::buffer::{DependableBuffer, PushError};
use crate::replicate::{ReplicationMode, Replicator};
use crate::{ModeState, RapiLogConfig};

/// The virtual block device backed by the dependable buffer.
#[derive(Clone)]
pub struct RapiLogDevice {
    ctx: SimCtx,
    /// `None` in write-through mode (residual window too small to buffer).
    buffer: Option<DependableBuffer>,
    backing: Rc<dyn BlockDevice>,
    cfg: RapiLogConfig,
    #[allow(dead_code)]
    audit: Audit,
    /// Shared with the drain: while degraded, acks wait for media.
    mode: Rc<ModeState>,
    /// Sync-replication gate: the tenant this device writes as, plus the
    /// shipper whose standby ack the write must wait for. `None` when
    /// shipping is off or asynchronous.
    repl: Option<(u64, Replicator)>,
    geometry: Geometry,
    tracer: Rc<Tracer>,
}

impl RapiLogDevice {
    pub(crate) fn new(
        ctx: &SimCtx,
        buffer: DependableBuffer,
        backing: Rc<dyn BlockDevice>,
        cfg: RapiLogConfig,
        audit: Audit,
        mode: Rc<ModeState>,
        repl: Option<(u64, Replicator)>,
    ) -> RapiLogDevice {
        let geometry = backing.geometry();
        let repl = repl.filter(|(_, r)| r.mode() == ReplicationMode::Sync);
        RapiLogDevice {
            ctx: ctx.clone(),
            buffer: Some(buffer),
            backing,
            cfg,
            audit,
            mode,
            repl,
            geometry,
            tracer: ctx.tracer(),
        }
    }

    /// Builds a write-through device: every write forwards synchronously
    /// (FUA) to the backing disk. Used when the residual-energy window is
    /// too small to honour the buffering guarantee.
    pub(crate) fn new_write_through(
        ctx: &SimCtx,
        backing: Rc<dyn BlockDevice>,
        cfg: RapiLogConfig,
        audit: Audit,
    ) -> RapiLogDevice {
        let geometry = backing.geometry();
        RapiLogDevice {
            ctx: ctx.clone(),
            buffer: None,
            backing,
            cfg,
            audit,
            // Write-through is already synchronous; it never degrades.
            mode: ModeState::new(),
            repl: None,
            geometry,
            tracer: ctx.tracer(),
        }
    }

    /// True if the device is running in write-through (unbuffered) mode.
    pub fn is_write_through(&self) -> bool {
        self.buffer.is_none()
    }

    /// True while acknowledgements wait for media (drain-driven fallback).
    pub fn is_degraded(&self) -> bool {
        self.mode.is_degraded()
    }

    fn ack_cost(&self, bytes: usize) -> SimDuration {
        self.cfg.ack_base + self.cfg.ack_per_kib * (bytes as u64).div_ceil(1024)
    }

    /// The write path: admission into the buffer, or a synchronous write
    /// to the backing disk in write-through mode. `data` is *viewed* all
    /// the way into the buffer: chunking for a small buffer is O(1)
    /// sub-slicing, and no byte is copied between here and the media store.
    async fn write_inner(&self, sector: u64, data: SectorBuf) -> IoResult<()> {
        self.geometry.check_access(sector, data.len())?;
        let Some(buffer) = &self.buffer else {
            // Write-through: honest synchronous durability.
            let payload = Payload::Extent {
                seq: 0,
                sector,
                bytes: data.len() as u64,
            };
            self.tracer
                .begin(self.ctx.now(), Layer::Buffer, "write_through", payload);
            let res = self
                .backing
                .io(IoReq::Write {
                    sector,
                    data,
                    fua: true,
                })
                .await
                .map(drop);
            self.tracer
                .end(self.ctx.now(), Layer::Buffer, "write_through", payload);
            return res;
        };
        self.tracer.begin(
            self.ctx.now(),
            Layer::Buffer,
            "ack",
            Payload::Bytes {
                bytes: data.len() as u64,
            },
        );
        self.ctx.sleep(self.ack_cost(data.len())).await;
        self.tracer.end(
            self.ctx.now(),
            Layer::Buffer,
            "ack",
            Payload::Bytes {
                bytes: data.len() as u64,
            },
        );
        // A write larger than the buffer is split into capacity-sized
        // extents; each chunk waits for drain space (backpressure), so a
        // tiny buffer degrades to streaming at disk speed instead of
        // refusing large transfers.
        let chunk_sectors = (buffer.capacity() as usize / SECTOR_SIZE).clamp(1, 128);
        let mut offset = 0usize;
        let mut first = sector;
        let mut last_seq = None;
        while offset < data.len() {
            let take = (data.len() - offset).min(chunk_sectors * SECTOR_SIZE);
            match buffer.push(first, data.slice(offset..offset + take)).await {
                Ok(seq) => {
                    last_seq = Some(seq);
                    self.tracer.instant(
                        self.ctx.now(),
                        Layer::Buffer,
                        "admit",
                        Payload::Extent {
                            seq,
                            sector: first,
                            bytes: take as u64,
                        },
                    );
                }
                // Frozen buffer means the power-fail warning has fired:
                // from the guest's perspective the machine is dying.
                Err(PushError::Frozen) => return Err(IoError::PowerLoss),
            }
            offset += take;
            first += (take / SECTOR_SIZE) as u64;
        }
        // Degraded mode: the log disk is misbehaving, so the early ack
        // would be a promise the drain might take arbitrarily long to
        // keep. Hold the acknowledgement until the drain has pushed this
        // write (same ordered pipeline, so ordering is free) all the way
        // to media.
        if self.mode.is_degraded() {
            if let Some(seq) = last_seq {
                self.tracer.begin(
                    self.ctx.now(),
                    Layer::Buffer,
                    "degraded_ack",
                    Payload::Mark { value: seq },
                );
                let committed = buffer.wait_completed(seq).await;
                self.tracer.end(
                    self.ctx.now(),
                    Layer::Buffer,
                    "degraded_ack",
                    Payload::Mark { value: seq },
                );
                if !committed {
                    return Err(IoError::PowerLoss);
                }
            }
        }
        // Synchronous replication: the acknowledgement is a promise about
        // the *standby* too, so hold it until the standby has acked this
        // write's sequence. A halted shipper (primary power death) fails
        // the write instead — a dying box must not promise remote
        // durability it can no longer deliver.
        if let Some((tenant, repl)) = &self.repl {
            if let Some(seq) = last_seq {
                self.tracer.begin(
                    self.ctx.now(),
                    Layer::Net,
                    "repl_wait",
                    Payload::Mark { value: seq },
                );
                let replicated = repl.wait_replicated(*tenant, seq).await;
                self.tracer.end(
                    self.ctx.now(),
                    Layer::Net,
                    "repl_wait",
                    Payload::Mark { value: seq },
                );
                if !replicated {
                    return Err(IoError::PowerLoss);
                }
            }
        }
        Ok(())
    }

    /// The read path: the newest acknowledged bytes, buffer overlay over
    /// the backing disk.
    async fn read_inner(&self, sector: u64, sectors: u64) -> IoResult<SectorBuf> {
        let len = self.geometry.read_len(sector, sectors)?;
        let req = IoReq::Read { sector, sectors };
        let Some(buffer) = &self.buffer else {
            let data = self.backing.io(req).await?;
            return Ok(data.expect("read completion carries data"));
        };
        // Fast path: everything in the overlay (tail re-reads). The
        // views are taken before the ack delay: the drain may land and
        // release them meanwhile, and the media read was skipped.
        let views: Option<Vec<SectorBuf>> = (0..sectors)
            .map(|i| buffer.read_overlay(sector + i))
            .collect();
        if let Some(views) = views {
            self.ctx.sleep(self.ack_cost(len)).await;
            let mut buf = Vec::with_capacity(len);
            for view in views {
                buf.extend_from_slice(&view);
            }
            return Ok(SectorBuf::from_vec(buf));
        }
        let data = self.backing.io(req).await?;
        let data = data.expect("read completion carries data");
        // Overlay newer buffered sectors, copying the media bytes only if
        // there are any.
        let mut merged: Option<Vec<u8>> = None;
        for i in 0..sectors {
            if let Some(newer) = buffer.read_overlay(sector + i) {
                let buf = merged.get_or_insert_with(|| data.to_vec());
                let at = i as usize * SECTOR_SIZE;
                buf[at..at + SECTOR_SIZE].copy_from_slice(&newer);
            }
        }
        Ok(merged.map_or(data, SectorBuf::from_vec))
    }

    async fn flush_inner(&self) -> IoResult<()> {
        let Some(buffer) = &self.buffer else {
            return self.backing.io(IoReq::Flush).await.map(drop);
        };
        // Nothing to do: every acknowledged write is already
        // dependable. This is the entire point.
        if buffer.is_frozen() {
            return Err(IoError::PowerLoss);
        }
        self.ctx.sleep(self.cfg.ack_base).await;
        Ok(())
    }
}

impl BlockDevice for RapiLogDevice {
    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn io(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        // The FUA flag needs no handling: every acknowledged write is
        // dependable, which is the property FUA exists to provide.
        Box::pin(async move {
            match req {
                IoReq::Read { sector, sectors } => self.read_inner(sector, sectors).await.map(Some),
                IoReq::Write { sector, data, .. } => {
                    self.write_inner(sector, data).await.map(|()| None)
                }
                IoReq::Flush => self.flush_inner().await.map(|()| None),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CapacitySpec, RapiLog};
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimTime};
    use rapilog_simdisk::{specs, BlockDeviceExt, Disk};
    use std::cell::Cell as StdCell;

    fn setup(sim: &mut Sim, capacity: CapacitySpec) -> (RapiLog, RapiLogDevice, Disk) {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .capacity(capacity)
            .build();
        let dev = rl.device();
        std::mem::forget(cell);
        (rl, dev, disk)
    }

    #[test]
    fn sync_write_acks_in_microseconds_then_reaches_media() {
        let mut sim = Sim::new(3);
        let (rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let ack_ns = Rc::new(StdCell::new(0u64));
        let a2 = Rc::clone(&ack_ns);
        let ctx = sim.ctx();
        sim.spawn(async move {
            let t0 = ctx.now();
            dev.write(0, &vec![0x5A; 8 * SECTOR_SIZE], true)
                .await
                .unwrap();
            a2.set((ctx.now() - t0).as_nanos());
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(
            ack_ns.get() < 50_000,
            "ack took {} ns, should be microseconds",
            ack_ns.get()
        );
        // The drain has long since committed it.
        assert_eq!(rl.occupancy(), 0);
        let mut media = vec![0u8; SECTOR_SIZE];
        disk.peek_media(0, &mut media);
        assert_eq!(media, vec![0x5A; SECTOR_SIZE]);
        assert!(rl.audit_report().guarantee_held());
    }

    #[test]
    fn flush_is_instant_and_reads_see_buffered_tail() {
        let mut sim = Sim::new(3);
        let (_rl, dev, _disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let ctx = sim.ctx();
        sim.spawn(async move {
            dev.write(10, &vec![1; SECTOR_SIZE], false).await.unwrap();
            let t0 = ctx.now();
            dev.flush().await.unwrap();
            assert!((ctx.now() - t0).as_micros() < 100, "flush must not wait");
            // Immediately read back: served from the overlay even though
            // the drain has not finished.
            let mut buf = vec![0u8; SECTOR_SIZE];
            dev.read(10, &mut buf).await.unwrap();
            assert_eq!(buf, vec![1; SECTOR_SIZE]);
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
    }

    #[test]
    fn read_mixes_media_and_overlay() {
        let mut sim = Sim::new(3);
        let (_rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            // Old data directly on media.
            disk.poke_media(20, &vec![7u8; SECTOR_SIZE]);
            disk.poke_media(21, &vec![8u8; SECTOR_SIZE]);
            // Newer data for sector 21 sits in the buffer.
            dev.write(21, &vec![9u8; SECTOR_SIZE], true).await.unwrap();
            let mut buf = vec![0u8; 2 * SECTOR_SIZE];
            dev.read(20, &mut buf).await.unwrap();
            assert_eq!(&buf[..SECTOR_SIZE], &vec![7u8; SECTOR_SIZE][..]);
            assert_eq!(&buf[SECTOR_SIZE..], &vec![9u8; SECTOR_SIZE][..]);
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
    }

    #[test]
    fn full_buffer_degrades_to_disk_speed_not_below() {
        let mut sim = Sim::new(3);
        // Tiny buffer: 4 sectors.
        let (rl, dev, _disk) = setup(&mut sim, CapacitySpec::Fixed(4 * SECTOR_SIZE as u64));
        let ctx = sim.ctx();
        let finished = Rc::new(StdCell::new(0u64));
        let f2 = Rc::clone(&finished);
        sim.spawn(async move {
            // Stream far more than the buffer holds; each write beyond the
            // cap must wait for the drain.
            for i in 0..64u64 {
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
            }
            f2.set(ctx.now().as_nanos());
        });
        sim.run_until(SimTime::from_secs(10));
        let stats = rl.stats();
        assert!(
            stats.backpressure_events > 0,
            "the writer must have hit backpressure"
        );
        assert!(stats.peak_occupancy <= 4 * SECTOR_SIZE as u64, "cap held");
        assert!(
            finished.get() > 0,
            "stream completed despite the tiny buffer"
        );
        assert!(rl.audit_report().guarantee_held());
    }

    #[test]
    fn oversized_write_is_chunked_through_a_tiny_buffer() {
        let mut sim = Sim::new(3);
        // Buffer of 2 sectors; write 64 sectors through it.
        let (rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(2 * SECTOR_SIZE as u64));
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let data: Vec<u8> = (0..64 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
            dev.write(100, &data, true).await.unwrap();
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(30));
        assert!(done.get(), "large write completed via chunking");
        let stats = rl.stats();
        assert!(stats.accepted_writes >= 32, "split into many extents");
        assert!(stats.peak_occupancy <= 2 * SECTOR_SIZE as u64, "cap held");
        // Contents arrived intact and in order.
        let mut media = vec![0u8; 64 * SECTOR_SIZE];
        for i in 0..64u64 {
            disk.peek_media(
                100 + i,
                &mut media[i as usize * SECTOR_SIZE..][..SECTOR_SIZE],
            );
        }
        let expect: Vec<u8> = (0..64 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        assert_eq!(media, expect);
    }

    #[test]
    fn bounds_are_checked() {
        let mut sim = Sim::new(3);
        let (_rl, dev, _disk) = setup(&mut sim, CapacitySpec::Fixed(1 << 20));
        sim.spawn(async move {
            let sectors = dev.geometry().sectors;
            assert_eq!(
                dev.write(sectors, &vec![0; SECTOR_SIZE], true).await,
                Err(IoError::OutOfRange {
                    sector: sectors,
                    count: 1
                })
            );
            assert_eq!(
                dev.write(0, &[0; 100], true).await,
                Err(IoError::Misaligned { len: 100 })
            );
        });
        sim.run_until(SimTime::from_secs(1));
    }
}

#[cfg(test)]
mod write_through_tests {
    use super::*;
    use crate::{CapacitySpec, RapiLog};
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimDuration, SimTime};
    use rapilog_simdisk::{specs, BlockDeviceExt, Disk};
    use rapilog_simpower::{PowerSupply, SupplySpec};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    #[test]
    fn hopeless_supply_falls_back_to_write_through() {
        let mut sim = Sim::new(19);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        // A brownout supply: 5 ms window, below the drain startup cost.
        let psu = PowerSupply::new(
            &ctx,
            SupplySpec {
                name: "brownout".to_string(),
                residual_joules: 1.0,
                drain_draw_watts: 200.0,
                warning_latency: SimDuration::from_millis(1),
            },
        );
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .supply(&psu)
            .capacity(CapacitySpec::FromSupply)
            .build();
        let dev = rl.device();
        assert!(dev.is_write_through());
        assert_eq!(rl.capacity(), 0);
        std::mem::forget(cell);
        let wrote_slow = Rc::new(StdCell::new(false));
        let w2 = Rc::clone(&wrote_slow);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let t0 = c2.now();
            dev.write(0, &vec![3u8; SECTOR_SIZE], true).await.unwrap();
            // Synchronous: pays real disk time, not buffer-ack time.
            w2.set((c2.now() - t0) > SimDuration::from_micros(50));
            let mut buf = vec![0u8; SECTOR_SIZE];
            dev.read(0, &mut buf).await.unwrap();
            assert_eq!(buf, vec![3u8; SECTOR_SIZE]);
            dev.flush().await.unwrap();
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(wrote_slow.get(), "write-through pays the disk's price");
        // Nothing buffered: nothing to lose at the (instant) power death.
        assert_eq!(rl.occupancy(), 0);
    }
}
