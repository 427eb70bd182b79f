//! The virtio-style block transport between guest and hypervisor.
//!
//! [`VirtioBlk`] implements [`BlockDevice`] on the guest side and forwards
//! every request through a bounded queue to a backend device served by a
//! (trusted) driver cell. Each request pays:
//!
//! * `trap` — the vmexit / hypercall on submission (guest vCPU time);
//! * `backend` — hypervisor-side request handling;
//! * `irq` — the completion injection back into the guest.
//!
//! These three numbers *are* the virtualisation overhead in this model: the
//! paper's claim "never degraded beyond the virtualisation overhead" is
//! checked by comparing a native run (engine → [`Disk`]) against a
//! virtualised run (engine → `VirtioBlk` → `Disk`) with identical disks.
//!
//! [`Disk`]: rapilog_simdisk::Disk

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::chan::{self, OnceSender, Sender};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, Geometry, IoReq, IoResult, LocalBoxFuture};

use crate::cell::Cell;

/// Ring depth: outstanding requests before the guest blocks (virtio-blk's
/// traditional default).
const QUEUE_DEPTH: usize = 128;

/// Per-request boundary-crossing costs.
#[derive(Debug, Clone, Copy)]
pub struct VirtCosts {
    /// Guest-side vmexit/hypercall cost on submission.
    pub trap: SimDuration,
    /// Hypervisor-side handling per request.
    pub backend: SimDuration,
    /// Completion-interrupt delivery cost.
    pub irq: SimDuration,
}

impl Default for VirtCosts {
    fn default() -> Self {
        // A few microseconds per crossing — consistent with the small
        // TPC-C-level overhead the paper attributes to virtualisation.
        VirtCosts {
            trap: SimDuration::from_micros(4),
            backend: SimDuration::from_micros(3),
            irq: SimDuration::from_micros(4),
        }
    }
}

impl VirtCosts {
    /// A zero-cost transport, for isolating other effects in ablations.
    pub fn free() -> Self {
        VirtCosts {
            trap: SimDuration::ZERO,
            backend: SimDuration::ZERO,
            irq: SimDuration::ZERO,
        }
    }
}

/// Cumulative transport statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtioStats {
    /// Requests submitted by the guest.
    pub requests: u64,
    /// Bytes carried guest → host (writes).
    pub bytes_out: u64,
    /// Bytes carried host → guest (reads).
    pub bytes_in: u64,
}

struct Request {
    /// Carried through the ring without copying: a write's [`SectorBuf`]
    /// is the simulated analogue of a descriptor pointing into guest
    /// memory, and a read's reply hands the backend's buffer straight back.
    req: IoReq,
    reply: OnceSender<IoResult<Option<SectorBuf>>>,
}

/// Guest-side virtual block device forwarding to a backend through a
/// driver cell. Cloneable; clones share the ring.
#[derive(Clone)]
pub struct VirtioBlk {
    ctx: SimCtx,
    tx: Sender<Request>,
    geometry: Geometry,
    costs: VirtCosts,
    stats: Rc<RefCell<VirtioStats>>,
}

impl VirtioBlk {
    /// Creates the device and starts its backend service loop inside
    /// `driver_cell` (which should be trusted — drivers outside the guest
    /// are exactly what the RapiLog architecture relies on).
    pub fn new(
        ctx: &SimCtx,
        driver_cell: &Cell,
        backend: Rc<dyn BlockDevice>,
        costs: VirtCosts,
    ) -> VirtioBlk {
        let (tx, rx) = chan::bounded::<Request>(QUEUE_DEPTH);
        let geometry = backend.geometry();
        let serve_ctx = ctx.clone();
        let cell_domain_spawner = driver_cell.ctx();
        let domain = driver_cell.domain();
        driver_cell.spawn(async move {
            while let Some(Request { req, reply }) = rx.recv().await {
                // Each request is handled by its own task so a slow media
                // op does not head-of-line-block unrelated requests; the
                // backend device orders operations itself.
                let backend = Rc::clone(&backend);
                let ctx2 = serve_ctx.clone();
                let hv_cost = costs.backend;
                cell_domain_spawner.spawn_in(domain, async move {
                    ctx2.sleep(hv_cost).await;
                    reply.send(backend.io(req).await);
                });
            }
        });
        VirtioBlk {
            ctx: ctx.clone(),
            tx,
            geometry,
            costs,
            stats: Rc::new(RefCell::new(VirtioStats::default())),
        }
    }

    /// Snapshot of transport statistics.
    pub fn stats(&self) -> VirtioStats {
        *self.stats.borrow()
    }

    async fn transact(&self, req: IoReq) -> IoResult<Option<SectorBuf>> {
        self.ctx.sleep(self.costs.trap).await;
        let (rtx, rrx) = chan::oneshot();
        self.tx
            .send(Request { req, reply: rtx })
            .await
            .unwrap_or_else(|_| panic!("virtio backend vanished: trusted cell must not die"));
        let result = rrx
            .recv()
            .await
            .expect("virtio backend dropped a reply: trusted cell must not die");
        self.ctx.sleep(self.costs.irq).await;
        result
    }
}

impl BlockDevice for VirtioBlk {
    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn io(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        Box::pin(async move {
            // Malformed requests (misaligned, empty or past the end) are
            // refused here and never cross into the driver cell.
            {
                let mut s = self.stats.borrow_mut();
                match &req {
                    IoReq::Read { sector, sectors } => {
                        s.bytes_in += self.geometry.read_len(*sector, *sectors)? as u64;
                    }
                    IoReq::Write { sector, data, .. } => {
                        self.geometry.check_access(*sector, data.len())?;
                        s.bytes_out += data.len() as u64;
                    }
                    IoReq::Flush => {}
                }
                s.requests += 1;
            }
            self.transact(req).await
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimTime};
    use rapilog_simdisk::{specs, BlockDeviceExt, Disk, IoError, SECTOR_SIZE};
    use std::cell::Cell as StdCell;

    fn setup(costs: VirtCosts) -> (Sim, VirtioBlk, Disk) {
        let sim = Sim::new(11);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let driver = hv.create_cell("blk-driver", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::instant(1 << 20));
        let vblk = VirtioBlk::new(&ctx, &driver, Rc::new(disk.clone()), costs);
        // Keep the driver cell alive implicitly; the Sim owns the tasks.
        std::mem::forget(driver);
        (sim, vblk, disk)
    }

    #[test]
    fn forwards_reads_and_writes() {
        let (mut sim, vblk, disk) = setup(VirtCosts::default());
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let data = vec![0x42u8; 2 * SECTOR_SIZE];
            vblk.write(4, &data, true).await.unwrap();
            let mut buf = vec![0u8; 2 * SECTOR_SIZE];
            vblk.read(4, &mut buf).await.unwrap();
            assert_eq!(buf, data);
            let s = vblk.stats();
            assert_eq!(s.requests, 2);
            assert_eq!(s.bytes_out as usize, 2 * SECTOR_SIZE);
            assert_eq!(s.bytes_in as usize, 2 * SECTOR_SIZE);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        // The data really reached the backend media.
        let mut media = vec![0u8; SECTOR_SIZE];
        disk.peek_media(4, &mut media);
        assert_eq!(media, vec![0x42u8; SECTOR_SIZE]);
    }

    #[test]
    fn charges_crossing_costs() {
        let costs = VirtCosts {
            trap: SimDuration::from_micros(10),
            backend: SimDuration::from_micros(20),
            irq: SimDuration::from_micros(30),
        };
        let (mut sim, vblk, _disk) = setup(costs);
        sim.spawn(async move {
            let data = vec![0u8; SECTOR_SIZE];
            vblk.write(0, &data, true).await.unwrap();
        });
        let end = sim.run().now;
        // Instant disk: the entire elapsed time is the crossing cost.
        assert_eq!(end, SimTime::from_micros(60));
    }

    #[test]
    fn free_costs_add_nothing() {
        let (mut sim, vblk, _disk) = setup(VirtCosts::free());
        sim.spawn(async move {
            let data = vec![0u8; SECTOR_SIZE];
            vblk.write(0, &data, true).await.unwrap();
        });
        assert_eq!(sim.run().now, SimTime::ZERO);
    }

    #[test]
    fn propagates_backend_errors() {
        let (mut sim, vblk, disk) = setup(VirtCosts::default());
        let observed = Rc::new(StdCell::new(None));
        let o2 = Rc::clone(&observed);
        sim.spawn(async move {
            disk.power_cut();
            let data = vec![0u8; SECTOR_SIZE];
            o2.set(Some(vblk.write(0, &data, true).await));
        });
        sim.run();
        assert_eq!(observed.get(), Some(Err(IoError::PowerLoss)));
    }

    #[test]
    fn misaligned_rejected_at_the_frontend() {
        let (mut sim, vblk, _disk) = setup(VirtCosts::default());
        sim.spawn(async move {
            let data = vec![0u8; 7];
            assert_eq!(
                vblk.write(0, &data, true).await,
                Err(IoError::Misaligned { len: 7 })
            );
            // Nothing was submitted.
            assert_eq!(vblk.stats().requests, 0);
        });
        sim.run();
    }

    #[test]
    fn concurrent_requests_pipeline_through_the_ring() {
        // Two guests submitting at the same instant must overlap their
        // crossing costs: serialised handling would take twice as long.
        let (mut sim, vblk, _disk) = setup(VirtCosts::default());
        for i in 0..2u64 {
            let vblk = vblk.clone();
            sim.spawn(async move {
                let data = vec![i as u8; SECTOR_SIZE];
                vblk.write(i, &data, true).await.unwrap();
            });
        }
        let end = sim.run().now;
        // trap(4) + backend(3) + irq(4) = 11 µs for both, in parallel.
        assert_eq!(end, SimTime::from_micros(11));
    }
}
