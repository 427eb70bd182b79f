//! The composite simulated disk: timing model + volatile cache + media.
//!
//! One [`Disk`] owns a [`SectorStore`] (the media), a [`TimingModel`] and an
//! optional volatile write cache with a background writeback task. A single
//! media actuator serialises all media accesses, which both matches SATA
//! semantics (no overlapped mechanical ops) and keeps runs deterministic.
//!
//! # Power semantics
//!
//! [`Disk::power_cut`] models yanking the plug at the current instant:
//!
//! * the volatile write cache is discarded (this is why synchronous
//!   databases disable it or flush through it);
//! * a media write in flight commits only the sector prefix the head had
//!   passed (`torn_writes: true`, rotating disks) — individual sectors are
//!   atomic, as real drives guarantee, which is what makes rewriting the
//!   WAL's partial tail block safe; with `torn_writes: false`
//!   (power-loss-protected flash) the whole in-flight write commits;
//! * every pending and future request fails with [`IoError::PowerLoss`]
//!   until [`Disk::power_restore`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::sync::{Notify, Semaphore};
use rapilog_simcore::trace::{Layer, Payload, Tracer};
use rapilog_simcore::{SimCtx, SimDuration, SimTime};

use crate::queue::IoQueue;
use crate::spec::DiskSpec;
use crate::store::SectorStore;
use crate::timing::{ServiceParts, TimingModel};
use crate::{
    BlockDevice, Geometry, IoError, IoReq, IoResult, IoRun, LocalBoxFuture, ReqToken, SECTOR_SIZE,
};

/// Largest contiguous run the writeback task commits in one media op.
const MAX_WRITEBACK_SECTORS: u64 = 4096; // 2 MiB

/// Cumulative statistics for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read requests observed.
    pub reads: u64,
    /// Write requests observed (cached or media).
    pub writes: u64,
    /// Flush requests observed.
    pub flushes: u64,
    /// Media operations performed (includes writeback batches).
    pub media_ops: u64,
    /// Sectors read from media.
    pub sectors_read: u64,
    /// Sectors written to media.
    pub sectors_written: u64,
    /// Writes absorbed by the volatile cache.
    pub cache_write_hits: u64,
    /// Media ops failed with [`IoError::Transient`] (injected or sick-mode).
    pub transient_errors: u64,
    /// Media ops failed with [`IoError::MediaError`].
    pub media_errors: u64,
    /// Media ops delayed by an injected firmware stall.
    pub stalls: u64,
    /// Sectors silently corrupted by the fault model (no error returned).
    pub corrupt_sectors: u64,
    /// Defective sectors remapped to spares ([`Disk::remap`]).
    pub remaps: u64,
    /// Requests rejected with [`IoError::PowerLoss`] because the device was
    /// offline (or lost power mid-request). Previously these failures were
    /// invisible in the counters.
    pub rejected_offline: u64,
    /// Requests submitted through the queue ([`Disk::submit`],
    /// [`Disk::submit_segments`]).
    pub queued_requests: u64,
    /// Queued requests outstanding right now (submitted, not yet
    /// completed).
    pub outstanding: u32,
    /// High-water mark of [`outstanding`](DiskStats::outstanding) — the
    /// deepest the submission queue has ever been. Stays 0 when requests
    /// only arrive through [`BlockDevice::io`]; under the windowed drain it
    /// shows how much channel parallelism was actually exploited.
    pub max_outstanding: u32,
    /// Total time the actuator was busy.
    pub busy: SimDuration,
}

struct CacheEntry {
    data: Box<[u8; SECTOR_SIZE]>,
    version: u64,
}

struct Inflight {
    sector: u64,
    nsectors: u64,
    is_write: bool,
    /// Scatter-gather view of the bytes being transferred. Holding
    /// `SectorBuf` views instead of a copied `Vec` is what makes the
    /// in-flight window zero-copy: the drive "DMAs" straight from the
    /// caller's buffers, and only a power cut or media defect forces the
    /// committed prefix onto the store.
    segments: Vec<SectorBuf>,
    start: SimTime,
    duration: SimDuration,
}

/// Commits the first `nsectors` sectors of `segments` (laid out from
/// `first`) onto the media — the torn-prefix rule for power cuts and media
/// defects mid-transfer.
fn commit_prefix(store: &mut SectorStore, first: u64, segments: &[SectorBuf], nsectors: u64) {
    let mut remaining = nsectors as usize * SECTOR_SIZE;
    let mut cursor = first;
    for seg in segments {
        if remaining == 0 {
            break;
        }
        let take = seg.len().min(remaining);
        store.write_run(cursor, &seg.as_slice()[..take]);
        cursor += (take / SECTOR_SIZE) as u64;
        remaining -= take;
    }
}

struct St {
    store: SectorStore,
    timing: TimingModel,
    cache: BTreeMap<u64, CacheEntry>,
    next_version: u64,
    /// Media operations currently in flight, keyed by an issue ticket. A
    /// single-actuator disk has at most one entry; an SSD holds up to one
    /// per channel. A power cut disposes of all of them at once (torn
    /// prefixes per the spec).
    inflight: BTreeMap<u64, Inflight>,
    next_ticket: u64,
    writeback_active: bool,
}

struct DiskInner {
    ctx: SimCtx,
    spec: DiskSpec,
    geometry: Geometry,
    st: RefCell<St>,
    media_gate: Semaphore,
    /// Kicks the writeback task.
    dirty: Notify,
    /// Fires after each writeback batch and whenever the cache empties;
    /// flush and space waiters re-check their condition on every wake.
    clean: Notify,
    offline: Cell<bool>,
    power_epoch: Cell<u64>,
    /// Dedicated fault RNG stream; present iff the spec has a
    /// [`FaultProfile`](crate::FaultProfile).
    fault_rng: Option<RefCell<SimRng>>,
    /// Sectors with a persistent media defect (grown or planted).
    bad_sectors: RefCell<BTreeSet<u64>>,
    /// Sick mode: every media op fails with [`IoError::Transient`] until
    /// cleared — models a drive in an error burst / firmware reset storm.
    sick: Cell<bool>,
    stats: RefCell<DiskStats>,
    /// Completion bookkeeping for [`Disk::submit`].
    queue: IoQueue,
    tracer: Rc<Tracer>,
}

/// Outcome of the fault model for one media operation, decided up front so
/// the RNG stream advances identically regardless of request timing.
#[derive(Default)]
struct FaultPlan {
    /// Extra latency before the op is serviced.
    stall: Option<SimDuration>,
    /// Error to return after the service time elapses.
    outcome: Option<IoError>,
    /// Sector to silently corrupt after an otherwise successful write.
    corrupt: Option<u64>,
}

impl DiskInner {
    fn io_payload(&self, sector: u64, sectors: u64, write: bool, parts: ServiceParts) -> Payload {
        Payload::Io {
            sector,
            sectors,
            write,
            seek: parts.seek.as_nanos(),
            rotation: parts.rotation.as_nanos(),
            transfer: parts.transfer.as_nanos(),
        }
    }

    /// Records an offline rejection and returns the error to propagate.
    /// Every `PowerLoss` exit funnels through here so the failures show up
    /// in [`DiskStats::rejected_offline`] instead of vanishing.
    fn reject_offline(&self) -> IoError {
        self.stats.borrow_mut().rejected_offline += 1;
        IoError::PowerLoss
    }

    /// Decides what the fault model does to a media op on `count` sectors
    /// starting at `sector`. Draw order is fixed per op so the fault
    /// schedule replays exactly under the same profile seed.
    fn plan_faults(&self, sector: u64, count: u64, is_write: bool) -> FaultPlan {
        let mut plan = FaultPlan::default();
        if self.sick.get() {
            plan.outcome = Some(IoError::Transient);
            return plan;
        }
        // A known-bad sector in the range fails deterministically, with or
        // without a probabilistic profile (tests plant defects directly).
        if let Some(&bad) = self
            .bad_sectors
            .borrow()
            .range(sector..sector + count)
            .next()
        {
            plan.outcome = Some(IoError::MediaError { sector: bad });
            return plan;
        }
        let Some(rng) = &self.fault_rng else {
            return plan;
        };
        let profile = self.spec.fault.as_ref().expect("fault_rng implies profile");
        let mut rng = rng.borrow_mut();
        let r_stall = rng.next_f64();
        let r_transient = rng.next_f64();
        let r_defect = rng.next_f64();
        let r_corrupt = rng.next_f64();
        let pick = rng.next_u64();
        if r_stall < profile.stall_rate {
            plan.stall = Some(profile.stall);
        }
        if r_transient < profile.transient_rate {
            plan.outcome = Some(IoError::Transient);
        } else if is_write && r_defect < profile.grown_defect_rate {
            let s = sector + pick % count;
            self.bad_sectors.borrow_mut().insert(s);
            plan.outcome = Some(IoError::MediaError { sector: s });
        } else if is_write && r_corrupt < profile.corruption_rate {
            plan.corrupt = Some(sector + pick % count);
        }
        plan
    }

    /// Applies the pre-service parts of a fault plan (the stall) and traces
    /// it. Returns `Err` if power was lost during the stall.
    async fn serve_stall(&self, plan: &FaultPlan, sector: u64) -> IoResult<()> {
        let Some(stall) = plan.stall else {
            return Ok(());
        };
        self.stats.borrow_mut().stalls += 1;
        self.tracer.instant(
            self.ctx.now(),
            Layer::Disk,
            "disk_stall",
            Payload::Fault {
                kind: "stall",
                sector,
            },
        );
        let epoch = self.power_epoch.get();
        self.ctx.sleep(stall).await;
        if self.power_epoch.get() != epoch {
            return Err(self.reject_offline());
        }
        Ok(())
    }

    /// Books a planned post-service failure into stats + trace and returns
    /// it. Call sites have already paid the service time.
    fn book_failure(&self, err: IoError) -> IoError {
        let now = self.ctx.now();
        match err {
            IoError::Transient => {
                self.stats.borrow_mut().transient_errors += 1;
                self.tracer.instant(
                    now,
                    Layer::Disk,
                    "disk_transient",
                    Payload::Fault {
                        kind: "transient",
                        sector: 0,
                    },
                );
            }
            IoError::MediaError { sector } => {
                self.stats.borrow_mut().media_errors += 1;
                self.tracer.instant(
                    now,
                    Layer::Disk,
                    "disk_media_error",
                    Payload::Fault {
                        kind: "media_error",
                        sector,
                    },
                );
            }
            _ => {}
        }
        err
    }
}

/// A cloneable handle to a simulated disk.
#[derive(Clone)]
pub struct Disk {
    inner: Rc<DiskInner>,
}

impl Disk {
    /// Creates a device and (if the spec has a cache) starts its writeback
    /// task in the root domain — device firmware outlives guest crashes.
    pub fn new(ctx: &SimCtx, spec: DiskSpec) -> Disk {
        let queue_depth = spec.queue_depth();
        let geometry = Geometry {
            sector_size: SECTOR_SIZE,
            sectors: spec.sectors,
            queue_depth,
        };
        let timing = TimingModel::from_spec(&spec.timing, spec.sectors);
        let inner = Rc::new(DiskInner {
            ctx: ctx.clone(),
            geometry,
            st: RefCell::new(St {
                store: SectorStore::new(),
                timing,
                cache: BTreeMap::new(),
                next_version: 0,
                inflight: BTreeMap::new(),
                next_ticket: 0,
                writeback_active: false,
            }),
            // One permit per concurrent media op: the single actuator of a
            // rotating disk, or one per flash channel on an SSD.
            media_gate: Semaphore::new(queue_depth as usize),
            dirty: Notify::new(),
            clean: Notify::new(),
            offline: Cell::new(false),
            power_epoch: Cell::new(0),
            fault_rng: spec
                .fault
                .as_ref()
                .map(|f| RefCell::new(SimRng::seed_from_u64(f.seed))),
            bad_sectors: RefCell::new(BTreeSet::new()),
            sick: Cell::new(false),
            stats: RefCell::new(DiskStats::default()),
            queue: IoQueue::default(),
            tracer: ctx.tracer(),
            spec,
        });
        if inner.spec.cache.is_some() {
            let wb = Rc::clone(&inner);
            ctx.spawn(async move {
                writeback_loop(wb).await;
            });
        }
        Disk { inner }
    }

    /// The device's spec (for sizing calculations upstream).
    pub fn spec(&self) -> &DiskSpec {
        &self.inner.spec
    }

    /// Snapshot of cumulative statistics. The queue gauges (`outstanding`,
    /// `max_outstanding`) are folded in from the live submission queue.
    pub fn stats(&self) -> DiskStats {
        let mut stats = *self.inner.stats.borrow();
        stats.outstanding = self.inner.queue.outstanding();
        stats.max_outstanding = self.inner.queue.max_outstanding();
        stats
    }

    /// Dirty sectors currently in the volatile cache.
    pub fn cached_dirty_sectors(&self) -> u64 {
        self.inner.st.borrow().cache.len() as u64
    }

    /// True if the device has lost power.
    pub fn is_offline(&self) -> bool {
        self.inner.offline.get()
    }

    /// Puts the device in (or takes it out of) sick mode: while sick, every
    /// media operation fails with [`IoError::Transient`]. Models an error
    /// burst — cabling fault, firmware reset storm — that ends.
    pub fn set_sick(&self, sick: bool) {
        if self.inner.sick.get() == sick {
            return;
        }
        self.inner.sick.set(sick);
        self.inner.tracer.instant(
            self.inner.ctx.now(),
            Layer::Disk,
            if sick { "disk_sick" } else { "disk_healthy" },
            Payload::Fault {
                kind: if sick { "sick" } else { "healthy" },
                sector: 0,
            },
        );
    }

    /// True while the device is in sick mode.
    pub fn is_sick(&self) -> bool {
        self.inner.sick.get()
    }

    /// Fault hook: plants a persistent defect at `sector`. Every access
    /// touching it fails with [`IoError::MediaError`] until remapped.
    pub fn mark_bad(&self, sector: u64) {
        self.inner.bad_sectors.borrow_mut().insert(sector);
    }

    /// Remaps a defective sector to a spare. The spare reads as it was
    /// before the defect (old media contents persist); subsequent writes
    /// succeed. Returns false if the sector was not defective.
    pub fn remap(&self, sector: u64) -> bool {
        let was_bad = self.inner.bad_sectors.borrow_mut().remove(&sector);
        if was_bad {
            self.inner.stats.borrow_mut().remaps += 1;
            self.inner.tracer.instant(
                self.inner.ctx.now(),
                Layer::Disk,
                "disk_remap",
                Payload::Fault {
                    kind: "remap",
                    sector,
                },
            );
        }
        was_bad
    }

    /// Currently defective (unremapped) sectors.
    pub fn bad_sector_count(&self) -> u64 {
        self.inner.bad_sectors.borrow().len() as u64
    }

    /// Cuts power at the current instant. See the module docs for exactly
    /// what is lost. Idempotent.
    pub fn power_cut(&self) {
        if self.inner.offline.get() {
            return;
        }
        self.inner.offline.set(true);
        self.inner.power_epoch.set(self.inner.power_epoch.get() + 1);
        let now = self.inner.ctx.now();
        self.inner
            .tracer
            .instant(now, Layer::Power, "disk_power_cut", Payload::None);
        {
            let mut st = self.inner.st.borrow_mut();
            // Every media op in flight dies; each in-flight *write* commits
            // a prefix. Sectors are written atomically and in order; a torn
            // multi-sector write commits the prefix the head had completed.
            // Power-loss-protected devices (`torn_writes: false`) finish
            // the whole command from stored energy.
            let inflight = std::mem::take(&mut st.inflight);
            for inf in inflight.into_values() {
                if !inf.is_write {
                    continue;
                }
                let committed = if self.inner.spec.torn_writes {
                    let frac = if inf.duration.is_zero() {
                        1.0
                    } else {
                        now.saturating_duration_since(inf.start) / inf.duration
                    };
                    ((frac * inf.nsectors as f64).floor() as u64).min(inf.nsectors)
                } else {
                    inf.nsectors
                };
                if committed > 0 {
                    commit_prefix(&mut st.store, inf.sector, &inf.segments, committed);
                }
            }
            // Volatile cache contents are gone.
            st.cache.clear();
        }
        // Release anyone waiting on cache conditions so they observe the
        // failure promptly.
        self.inner.clean.notify_all();
        self.inner.dirty.notify_one();
    }

    /// Restores power. Media contents persist; the cache starts empty.
    pub fn power_restore(&self) {
        self.inner.offline.set(false);
        self.inner.tracer.instant(
            self.inner.ctx.now(),
            Layer::Power,
            "disk_power_restore",
            Payload::None,
        );
    }

    /// Reads `buf.len() / 512` sectors starting at `sector`, overlaying any
    /// newer data still in the volatile cache.
    pub async fn read(&self, sector: u64, buf: &mut [u8]) -> IoResult<()> {
        let count = self.inner.geometry.check_access(sector, buf.len())?;
        if self.inner.offline.get() {
            return Err(self.inner.reject_offline());
        }
        self.inner.stats.borrow_mut().reads += 1;
        // Fully-cached reads are served at cache latency without touching
        // the actuator.
        let fully_cached = {
            let st = self.inner.st.borrow();
            (0..count).all(|i| st.cache.contains_key(&(sector + i)))
        };
        if fully_cached {
            let latency = self
                .inner
                .spec
                .cache
                .as_ref()
                .map(|c| c.write_latency)
                .unwrap_or(SimDuration::ZERO);
            self.inner.ctx.sleep(latency).await;
            if self.inner.offline.get() {
                return Err(self.inner.reject_offline());
            }
            let st = self.inner.st.borrow();
            for (i, chunk) in buf.chunks_exact_mut(SECTOR_SIZE).enumerate() {
                let entry = st
                    .cache
                    .get(&(sector + i as u64))
                    .expect("fully-cached read lost an entry");
                chunk.copy_from_slice(&entry.data[..]);
            }
            return Ok(());
        }
        let _permit = self.inner.media_gate.acquire(1).await;
        if self.inner.offline.get() {
            return Err(self.inner.reject_offline());
        }
        let plan = self.inner.plan_faults(sector, count, false);
        self.inner.serve_stall(&plan, sector).await?;
        let epoch = self.inner.power_epoch.get();
        let (dur, ticket) = {
            let mut st = self.inner.st.borrow_mut();
            let parts = st
                .timing
                .service(self.inner.ctx.now(), sector, count, false);
            let dur = parts.total();
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.inflight.insert(
                ticket,
                Inflight {
                    sector,
                    nsectors: count,
                    is_write: false,
                    segments: Vec::new(),
                    start: self.inner.ctx.now(),
                    duration: dur,
                },
            );
            self.inner.tracer.begin(
                self.inner.ctx.now(),
                Layer::Disk,
                "media_read",
                self.inner.io_payload(sector, count, false, parts),
            );
            (dur, ticket)
        };
        self.inner.ctx.sleep(dur).await;
        if self.inner.power_epoch.get() != epoch {
            self.inner.tracer.end(
                self.inner.ctx.now(),
                Layer::Disk,
                "media_read",
                Payload::Text { text: "power_loss" },
            );
            return Err(self.inner.reject_offline());
        }
        self.inner.tracer.end(
            self.inner.ctx.now(),
            Layer::Disk,
            "media_read",
            match plan.outcome {
                Some(IoError::Transient) => Payload::Text { text: "transient" },
                Some(IoError::MediaError { .. }) => Payload::Text {
                    text: "media_error",
                },
                _ => Payload::None,
            },
        );
        if let Some(err) = plan.outcome {
            self.inner.st.borrow_mut().inflight.remove(&ticket);
            let mut stats = self.inner.stats.borrow_mut();
            stats.media_ops += 1;
            stats.busy += dur;
            drop(stats);
            return Err(self.inner.book_failure(err));
        }
        let mut st = self.inner.st.borrow_mut();
        st.inflight.remove(&ticket);
        st.store.read_run(sector, buf);
        // Overlay dirty cache entries: they are newer than the media.
        for (i, chunk) in buf.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            if let Some(entry) = st.cache.get(&(sector + i as u64)) {
                chunk.copy_from_slice(&entry.data[..]);
            }
        }
        let mut stats = self.inner.stats.borrow_mut();
        stats.media_ops += 1;
        stats.sectors_read += count;
        stats.busy += dur;
        Ok(())
    }

    /// Writes `data` starting at `sector`. With `fua`, or when the device
    /// has no volatile cache, the data is on media when this returns;
    /// otherwise it is absorbed by the cache and written back later.
    pub async fn write(&self, sector: u64, data: &[u8], fua: bool) -> IoResult<()> {
        self.inner.geometry.check_access(sector, data.len())?;
        if let Some(res) = self.cached_write(sector, data, fua).await {
            return res;
        }
        // One copy into a reference-counted buffer, standing in for the DMA
        // setup a borrowed slice cannot avoid; owned-buffer callers use
        // [`Disk::write_segments`] and skip it.
        self.media_path(sector, vec![SectorBuf::copy_from(data)])
            .await
    }

    /// Vectored write: lays `segments` down back to back from `sector`, as
    /// one device command. This is the zero-copy entry point — the segments
    /// are viewed, not copied, until they land on the media store.
    pub async fn write_segments(
        &self,
        sector: u64,
        segments: Vec<SectorBuf>,
        fua: bool,
    ) -> IoResult<()> {
        let total: usize = segments.iter().map(SectorBuf::len).sum();
        self.inner.geometry.check_access(sector, total)?;
        for seg in &segments {
            if seg.is_empty() || !seg.len().is_multiple_of(SECTOR_SIZE) {
                return Err(IoError::Misaligned { len: seg.len() });
            }
        }
        if segments.len() == 1 {
            if let Some(res) = self.cached_write(sector, segments[0].as_slice(), fua).await {
                return res;
            }
        } else if self.inner.offline.get() {
            return Err(self.inner.reject_offline());
        } else {
            self.inner.stats.borrow_mut().writes += 1;
        }
        self.media_path(sector, segments).await
    }

    /// Writes a batch of scatter-gather runs in order (later runs overwrite
    /// earlier ones where they overlap). Each run is one media operation.
    pub async fn write_runs(&self, runs: &[IoRun], fua: bool) -> IoResult<()> {
        for run in runs {
            self.write_segments(run.sector, run.segments.clone(), fua)
                .await?;
        }
        Ok(())
    }

    /// Enqueues `req` and returns its token, without waiting: the request
    /// runs as its own task and its result is claimed with
    /// [`wait`](Disk::wait). Up to [`Geometry::queue_depth`] queued
    /// requests make media progress at once; completion order is not
    /// submission order. The queue's depth is what
    /// [`DiskStats::outstanding`] and [`DiskStats::max_outstanding`]
    /// report.
    pub fn submit(&self, req: IoReq) -> ReqToken {
        let disk = self.clone();
        self.enqueue(async move { disk.io(req).await })
    }

    /// [`submit`](Disk::submit) for a scatter-gather write: `segments` laid
    /// out back to back from `sector`, as one device command (see
    /// [`write_segments`](Disk::write_segments)).
    pub fn submit_segments(&self, sector: u64, segments: Vec<SectorBuf>, fua: bool) -> ReqToken {
        let disk = self.clone();
        self.enqueue(async move {
            disk.write_segments(sector, segments, fua)
                .await
                .map(|()| None)
        })
    }

    /// Waits for the submitted request `token` and takes its result; a
    /// completed read yields `Some(data)`. Each token must be claimed
    /// exactly once.
    pub async fn wait(&self, token: ReqToken) -> IoResult<Option<SectorBuf>> {
        self.inner.queue.wait(token).await
    }

    fn enqueue(&self, op: impl Future<Output = IoResult<Option<SectorBuf>>> + 'static) -> ReqToken {
        let token = self.inner.queue.issue();
        self.inner.stats.borrow_mut().queued_requests += 1;
        // Make the reordering observable: mark every change in queue depth
        // on the disk trace layer.
        self.inner.tracer.instant(
            self.inner.ctx.now(),
            Layer::Disk,
            "disk_queue_depth",
            Payload::Bytes {
                bytes: self.inner.queue.outstanding() as u64,
            },
        );
        let inner = Rc::clone(&self.inner);
        self.inner.ctx.spawn(async move {
            let result = op.await;
            inner.queue.finish(token, result);
        });
        token
    }

    /// Cache-absorption leg shared by the slice and vectored write paths.
    /// Returns `Some(result)` when the write was fully handled here (cache
    /// hit or power loss), `None` when it must proceed to the media.
    async fn cached_write(&self, sector: u64, data: &[u8], fua: bool) -> Option<IoResult<()>> {
        let count = (data.len() / SECTOR_SIZE) as u64;
        if self.inner.offline.get() {
            return Some(Err(self.inner.reject_offline()));
        }
        {
            let mut stats = self.inner.stats.borrow_mut();
            stats.writes += 1;
        }
        let cache_spec = self.inner.spec.cache.clone();
        if let (false, Some(cache)) = (fua, cache_spec) {
            // Wait for cache space (writeback makes progress underneath).
            loop {
                if self.inner.offline.get() {
                    return Some(Err(self.inner.reject_offline()));
                }
                let used = self.inner.st.borrow().cache.len() as u64;
                if used + count <= cache.capacity_sectors {
                    break;
                }
                self.inner.dirty.notify_one();
                self.inner.clean.notified().await;
            }
            let epoch = self.inner.power_epoch.get();
            self.inner.ctx.sleep(cache.write_latency).await;
            if self.inner.power_epoch.get() != epoch {
                return Some(Err(self.inner.reject_offline()));
            }
            let mut st = self.inner.st.borrow_mut();
            for (i, chunk) in data.chunks_exact(SECTOR_SIZE).enumerate() {
                let version = st.next_version;
                st.next_version += 1;
                let mut boxed = Box::new([0u8; SECTOR_SIZE]);
                boxed.copy_from_slice(chunk);
                st.cache.insert(
                    sector + i as u64,
                    CacheEntry {
                        data: boxed,
                        version,
                    },
                );
            }
            self.inner.stats.borrow_mut().cache_write_hits += 1;
            self.inner.dirty.notify_one();
            return Some(Ok(()));
        }
        None
    }

    /// FUA / cacheless leg: drops superseded cache entries, then performs
    /// the media write.
    async fn media_path(&self, sector: u64, segments: Vec<SectorBuf>) -> IoResult<()> {
        let count: u64 = segments
            .iter()
            .map(|s| (s.len() / SECTOR_SIZE) as u64)
            .sum();
        // Dirty cache entries for these sectors are superseded by program
        // order — drop them so a later writeback cannot reorder stale data
        // over this write.
        {
            let mut st = self.inner.st.borrow_mut();
            for i in 0..count {
                st.cache.remove(&(sector + i));
            }
        }
        self.media_write_segments(sector, segments).await
    }

    /// Resolves once every acknowledged write is on stable media.
    pub async fn flush(&self) -> IoResult<()> {
        self.inner.stats.borrow_mut().flushes += 1;
        if self.inner.spec.cache.is_some() {
            loop {
                if self.inner.offline.get() {
                    return Err(self.inner.reject_offline());
                }
                let drained = {
                    let st = self.inner.st.borrow();
                    st.cache.is_empty() && !st.writeback_active
                };
                if drained {
                    break;
                }
                self.inner.dirty.notify_one();
                self.inner.clean.notified().await;
            }
        }
        let _permit = self.inner.media_gate.acquire(1).await;
        if self.inner.offline.get() {
            return Err(self.inner.reject_offline());
        }
        if self.inner.sick.get() {
            return Err(self.inner.book_failure(IoError::Transient));
        }
        let epoch = self.inner.power_epoch.get();
        let dur = self.inner.st.borrow().timing.flush_time();
        self.inner.tracer.begin(
            self.inner.ctx.now(),
            Layer::Disk,
            "media_flush",
            Payload::None,
        );
        self.inner.ctx.sleep(dur).await;
        if self.inner.power_epoch.get() != epoch {
            self.inner.tracer.end(
                self.inner.ctx.now(),
                Layer::Disk,
                "media_flush",
                Payload::Text { text: "power_loss" },
            );
            return Err(self.inner.reject_offline());
        }
        self.inner.tracer.end(
            self.inner.ctx.now(),
            Layer::Disk,
            "media_flush",
            Payload::None,
        );
        Ok(())
    }

    async fn media_write_segments(&self, sector: u64, segments: Vec<SectorBuf>) -> IoResult<()> {
        let count: u64 = segments
            .iter()
            .map(|s| (s.len() / SECTOR_SIZE) as u64)
            .sum();
        let _permit = self.inner.media_gate.acquire(1).await;
        if self.inner.offline.get() {
            return Err(self.inner.reject_offline());
        }
        let plan = self.inner.plan_faults(sector, count, true);
        self.inner.serve_stall(&plan, sector).await?;
        let epoch = self.inner.power_epoch.get();
        let (dur, ticket) = {
            let mut st = self.inner.st.borrow_mut();
            let parts = st.timing.service(self.inner.ctx.now(), sector, count, true);
            let dur = parts.total();
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.inflight.insert(
                ticket,
                Inflight {
                    sector,
                    nsectors: count,
                    is_write: true,
                    segments: segments.clone(),
                    start: self.inner.ctx.now(),
                    duration: dur,
                },
            );
            self.inner.tracer.begin(
                self.inner.ctx.now(),
                Layer::Disk,
                "media_write",
                self.inner.io_payload(sector, count, true, parts),
            );
            (dur, ticket)
        };
        self.inner.ctx.sleep(dur).await;
        if self.inner.power_epoch.get() != epoch {
            // The power-cut handler already disposed of the in-flight op
            // (committing a torn prefix if configured).
            self.inner.tracer.end(
                self.inner.ctx.now(),
                Layer::Disk,
                "media_write",
                Payload::Text { text: "power_loss" },
            );
            return Err(self.inner.reject_offline());
        }
        self.inner.tracer.end(
            self.inner.ctx.now(),
            Layer::Disk,
            "media_write",
            match plan.outcome {
                Some(IoError::Transient) => Payload::Text { text: "transient" },
                Some(IoError::MediaError { .. }) => Payload::Text {
                    text: "media_error",
                },
                _ => Payload::None,
            },
        );
        if let Some(err) = plan.outcome {
            let mut st = self.inner.st.borrow_mut();
            st.inflight.remove(&ticket);
            // A media error mid-transfer commits the sectors before the
            // defect — the head wrote them before hitting the bad one. A
            // transient abort commits nothing.
            if let IoError::MediaError { sector: bad } = err {
                commit_prefix(&mut st.store, sector, &segments, bad - sector);
            }
            drop(st);
            let mut stats = self.inner.stats.borrow_mut();
            stats.media_ops += 1;
            stats.busy += dur;
            drop(stats);
            return Err(self.inner.book_failure(err));
        }
        let mut st = self.inner.st.borrow_mut();
        st.inflight.remove(&ticket);
        // The one real copy on the acknowledged-byte path: segments land on
        // the media store, like DMA completing into the platter.
        st.store.write_segments(sector, &segments);
        // Silent corruption: the op reports success, but one sector's
        // contents landed wrong. Only a later read-back can notice.
        if let Some(cs) = plan.corrupt {
            let mut sec = vec![0u8; SECTOR_SIZE];
            st.store.read_run(cs, &mut sec);
            for b in sec.iter_mut().take(32) {
                *b ^= 0xA5;
            }
            st.store.write_run(cs, &sec);
            self.inner.stats.borrow_mut().corrupt_sectors += 1;
            self.inner.tracer.instant(
                self.inner.ctx.now(),
                Layer::Disk,
                "disk_corrupt",
                Payload::Fault {
                    kind: "corrupt",
                    sector: cs,
                },
            );
        }
        drop(st);
        let mut stats = self.inner.stats.borrow_mut();
        stats.media_ops += 1;
        stats.sectors_written += count;
        stats.busy += dur;
        Ok(())
    }

    /// Test/audit hook: reads the media contents directly, bypassing the
    /// cache and all timing. Used by durability auditors to inspect what
    /// would survive a crash.
    pub fn peek_media(&self, sector: u64, buf: &mut [u8]) {
        self.inner.st.borrow().store.read_run(sector, buf);
    }

    /// Test/fault hook: overwrites media contents directly, bypassing
    /// timing and the cache. Used to plant corruption (torn pages) for
    /// recovery tests.
    pub fn poke_media(&self, sector: u64, data: &[u8]) {
        self.inner.st.borrow_mut().store.write_run(sector, data);
    }
}

async fn writeback_loop(inner: Rc<DiskInner>) {
    loop {
        inner.dirty.notified().await;
        loop {
            if inner.offline.get() {
                break;
            }
            // Pull the first contiguous dirty run (bounded), remembering
            // entry versions so concurrent overwrites are not lost.
            let batch = {
                let st = inner.st.borrow();
                let mut iter = st.cache.iter();
                match iter.next() {
                    None => None,
                    Some((&first, entry)) => {
                        let mut data = Vec::with_capacity(SECTOR_SIZE * 8);
                        let mut versions = vec![entry.version];
                        data.extend_from_slice(&entry.data[..]);
                        for (i, (&s, e)) in iter.enumerate() {
                            if s != first + 1 + i as u64
                                || versions.len() as u64 >= MAX_WRITEBACK_SECTORS
                            {
                                break;
                            }
                            data.extend_from_slice(&e.data[..]);
                            versions.push(e.version);
                        }
                        Some((first, data, versions))
                    }
                }
            };
            let Some((first, data, versions)) = batch else {
                break;
            };
            inner.st.borrow_mut().writeback_active = true;
            let disk = Disk {
                inner: Rc::clone(&inner),
            };
            let res = disk
                .media_write_segments(first, vec![SectorBuf::from_vec(data)])
                .await;
            {
                let mut st = inner.st.borrow_mut();
                st.writeback_active = false;
                if res.is_ok() {
                    for (i, v) in versions.iter().enumerate() {
                        let s = first + i as u64;
                        if st.cache.get(&s).map(|e| e.version) == Some(*v) {
                            st.cache.remove(&s);
                        }
                    }
                }
            }
            inner.clean.notify_all();
            match res {
                Ok(()) => {}
                // Device firmware retries transient failures itself — the
                // host never sees an error for cached writes it already
                // acknowledged. A short pause, then the batch (still dirty
                // in the cache) is retried from the top of the loop.
                Err(IoError::Transient) => {
                    inner.ctx.sleep(SimDuration::from_millis(2)).await;
                }
                // Grown defect under writeback: auto-remap the sector to a
                // spare (drives do this internally) and retry.
                Err(IoError::MediaError { sector }) => {
                    disk.remap(sector);
                }
                Err(_) => break,
            }
        }
        inner.clean.notify_all();
    }
}

impl BlockDevice for Disk {
    fn geometry(&self) -> Geometry {
        self.inner.geometry
    }

    fn io(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        Box::pin(async move {
            match req {
                IoReq::Read { sector, sectors } => {
                    let mut buf = vec![0u8; self.inner.geometry.read_len(sector, sectors)?];
                    self.read(sector, &mut buf).await?;
                    Ok(Some(SectorBuf::from_vec(buf)))
                }
                IoReq::Write { sector, data, fua } => self
                    .write_segments(sector, vec![data], fua)
                    .await
                    .map(|()| None),
                IoReq::Flush => self.flush().await.map(|()| None),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::specs;
    use crate::BlockDeviceExt;
    use rapilog_simcore::{Sim, SimTime};
    use std::cell::Cell;

    fn run_on_disk<F, Fut>(spec: DiskSpec, f: F) -> SimTime
    where
        F: FnOnce(SimCtx, Disk) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, spec);
        sim.spawn(f(ctx, disk));
        sim.run().now
    }

    fn pattern(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8) ^ tag).collect()
    }

    #[test]
    fn write_read_roundtrip_multisector() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = pattern(4 * SECTOR_SIZE, 0x3C);
            disk.write(10, &data, true).await.unwrap();
            let mut buf = vec![0u8; 4 * SECTOR_SIZE];
            disk.read(10, &mut buf).await.unwrap();
            assert_eq!(buf, data);
        });
    }

    #[test]
    fn bounds_and_alignment_errors() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let sectors = disk.geometry().sectors;
            let data = vec![0u8; SECTOR_SIZE];
            assert_eq!(
                disk.write(sectors, &data, true).await,
                Err(IoError::OutOfRange {
                    sector: sectors,
                    count: 1
                })
            );
            assert_eq!(
                disk.write(0, &data[..100], true).await,
                Err(IoError::Misaligned { len: 100 })
            );
            let mut buf = vec![0u8; 0];
            assert_eq!(
                disk.read(0, &mut buf).await,
                Err(IoError::Misaligned { len: 0 })
            );
        });
    }

    #[test]
    fn sync_writes_on_hdd_cost_rotations() {
        let end = run_on_disk(specs::hdd_7200(1 << 30), |ctx, disk| async move {
            let data = pattern(8 * SECTOR_SIZE, 1);
            let mut sector = 0;
            for _ in 0..10 {
                disk.write(sector, &data, true).await.unwrap();
                sector += 8;
                // Database "thinks" between commits.
                ctx.sleep(SimDuration::from_micros(300)).await;
            }
        });
        // Ten sync writes, each dominated by a ~8.3 ms rotation.
        assert!(
            end > SimTime::from_millis(40),
            "finished suspiciously fast: {end}"
        );
    }

    #[test]
    fn cached_writes_ack_fast_and_flush_persists() {
        run_on_disk(specs::hdd_7200_wce(1 << 30), |ctx, disk| async move {
            let data = pattern(8 * SECTOR_SIZE, 2);
            let t0 = ctx.now();
            disk.write(100, &data, false).await.unwrap();
            let ack = ctx.now() - t0;
            assert!(ack < SimDuration::from_millis(1), "cached ack took {ack}");
            disk.flush().await.unwrap();
            // Simulate the crash: cache is dropped, media must have it.
            disk.power_cut();
            disk.power_restore();
            let mut buf = vec![0u8; 8 * SECTOR_SIZE];
            disk.read(100, &mut buf).await.unwrap();
            assert_eq!(buf, data, "flushed data survived the power cut");
        });
    }

    #[test]
    fn unflushed_cache_is_lost_on_power_cut() {
        run_on_disk(specs::hdd_7200_wce(1 << 30), |_ctx, disk| async move {
            let data = pattern(SECTOR_SIZE, 3);
            disk.write(5, &data, false).await.unwrap();
            // No flush; cut immediately (before writeback gets a chance —
            // writeback needs media time which has not elapsed).
            disk.power_cut();
            disk.power_restore();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(5, &mut buf).await.unwrap();
            assert_eq!(buf, vec![0u8; SECTOR_SIZE], "dirty cache vanished");
        });
    }

    #[test]
    fn fua_write_survives_immediate_power_cut() {
        run_on_disk(specs::hdd_7200_wce(1 << 30), |_ctx, disk| async move {
            let data = pattern(SECTOR_SIZE, 4);
            disk.write(6, &data, true).await.unwrap();
            disk.power_cut();
            disk.power_restore();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(6, &mut buf).await.unwrap();
            assert_eq!(buf, data);
        });
    }

    #[test]
    fn ops_fail_while_offline() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            disk.power_cut();
            assert!(disk.is_offline());
            let data = vec![0u8; SECTOR_SIZE];
            assert_eq!(disk.write(0, &data, true).await, Err(IoError::PowerLoss));
            let mut buf = vec![0u8; SECTOR_SIZE];
            assert_eq!(disk.read(0, &mut buf).await, Err(IoError::PowerLoss));
            assert_eq!(disk.flush().await, Err(IoError::PowerLoss));
            disk.power_restore();
            assert!(disk.write(0, &data, true).await.is_ok());
        });
    }

    #[test]
    fn inflight_write_fails_and_tears_on_power_cut() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let failed = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&failed);
        let d2 = disk.clone();
        // A large write takes several ms of media time.
        let data = Rc::new(pattern(2048 * SECTOR_SIZE, 5));
        let data2 = Rc::clone(&data);
        sim.spawn(async move {
            let res = d2.write(0, &data2, true).await;
            assert_eq!(res, Err(IoError::PowerLoss));
            f2.set(true);
        });
        let d3 = disk.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                // Cut mid-transfer: a 1 MiB write takes ~9 ms on this disk.
                ctx.sleep(SimDuration::from_millis(5)).await;
                d3.power_cut();
            }
        });
        sim.run();
        assert!(failed.get(), "writer observed the power loss");
        // Audit the media: a clean prefix of whole sectors committed; every
        // later sector is untouched (still zero). No mid-sector garbage:
        // sector writes are atomic.
        let mut committed = 0u64;
        let mut buf = vec![0u8; SECTOR_SIZE];
        for s in 0..2048u64 {
            disk.peek_media(s, &mut buf);
            let expect = &data[(s as usize) * SECTOR_SIZE..(s as usize + 1) * SECTOR_SIZE];
            if buf == expect {
                committed += 1;
            } else {
                break;
            }
        }
        assert!(
            committed > 0 && committed < 2048,
            "expected a partial commit, got {committed}/2048"
        );
        for s in committed..2048u64 {
            disk.peek_media(s, &mut buf);
            assert_eq!(
                buf,
                vec![0u8; SECTOR_SIZE],
                "sector {s} past the torn prefix must be untouched"
            );
        }
    }

    #[test]
    fn reads_see_dirty_cache_overlay() {
        run_on_disk(specs::hdd_7200_wce(1 << 30), |_ctx, disk| async move {
            // Put old data on media.
            let old = pattern(SECTOR_SIZE, 6);
            disk.write(50, &old, true).await.unwrap();
            // Newer data sits in the cache.
            let new = pattern(SECTOR_SIZE, 7);
            disk.write(50, &new, false).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(50, &mut buf).await.unwrap();
            assert_eq!(buf, new, "read-your-writes through the cache");
        });
    }

    #[test]
    fn writeback_eventually_persists_without_flush() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200_wce(1 << 30));
        let d2 = disk.clone();
        sim.spawn(async move {
            let data = pattern(SECTOR_SIZE, 8);
            d2.write(9, &data, false).await.unwrap();
        });
        // Give the writeback task plenty of virtual time.
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(disk.cached_dirty_sectors(), 0, "cache drained");
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(9, &mut buf);
        assert_eq!(buf, pattern(SECTOR_SIZE, 8));
    }

    #[test]
    fn stats_track_operations() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = vec![1u8; 2 * SECTOR_SIZE];
            disk.write(0, &data, true).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(0, &mut buf).await.unwrap();
            disk.flush().await.unwrap();
            let s = disk.stats();
            assert_eq!(s.writes, 1);
            assert_eq!(s.reads, 1);
            assert_eq!(s.flushes, 1);
            assert_eq!(s.sectors_written, 2);
            assert_eq!(s.sectors_read, 1);
        });
    }

    #[test]
    fn dyn_block_device_usable() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(1 << 20)));
        sim.spawn(async move {
            let data = vec![9u8; SECTOR_SIZE];
            disk.write(1, &data, true).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(1, &mut buf).await.unwrap();
            assert_eq!(buf, data);
            assert_eq!(disk.geometry().sector_size, SECTOR_SIZE);
        });
        sim.run();
    }

    #[test]
    fn concurrent_writers_serialise_on_the_actuator() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        for i in 0..4u64 {
            let disk = disk.clone();
            sim.spawn(async move {
                let data = pattern(SECTOR_SIZE, i as u8);
                disk.write(i * 1000, &data, true).await.unwrap();
            });
        }
        let report = sim.run();
        let stats = disk.stats();
        assert_eq!(stats.media_ops, 4);
        // Busy time cannot exceed elapsed wall (virtual) time: serialised.
        assert!(stats.busy.as_nanos() <= report.now.as_nanos());
    }

    #[test]
    fn queued_interface_roundtrips_and_counts_depth() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = pattern(2 * SECTOR_SIZE, 0x5A);
            let w = disk.submit(IoReq::Write {
                sector: 8,
                data: SectorBuf::from_vec(data.clone()),
                fua: true,
            });
            let r = disk.submit(IoReq::Read {
                sector: 8,
                sectors: 2,
            });
            let f = disk.submit(IoReq::Flush);
            assert_eq!(disk.wait(w).await, Ok(None));
            let got = disk.wait(r).await.unwrap().expect("read data");
            assert_eq!(got.as_slice(), &data[..]);
            assert_eq!(disk.wait(f).await, Ok(None));
            let s = disk.stats();
            assert_eq!(s.queued_requests, 3);
            assert_eq!(s.outstanding, 0);
            assert!(s.max_outstanding >= 2, "requests overlapped in the queue");
        });
    }

    #[test]
    fn ssd_channels_serve_writes_concurrently() {
        // Four 15 µs writes: depth 1 takes ~4× as long as four channels.
        fn elapsed(channels: u32) -> SimTime {
            let mut sim = Sim::new(7);
            let ctx = sim.ctx();
            let spec = specs::ssd_nvme(1 << 20).with_channels(channels);
            let disk = Disk::new(&ctx, spec);
            sim.spawn(async move {
                let tokens: Vec<_> = (0..4u64)
                    .map(|i| {
                        disk.submit(IoReq::Write {
                            sector: i * 100,
                            data: SectorBuf::from_vec(vec![i as u8; SECTOR_SIZE]),
                            fua: true,
                        })
                    })
                    .collect();
                for t in tokens {
                    disk.wait(t).await.unwrap();
                }
            });
            sim.run().now
        }
        let serial = elapsed(1);
        let parallel = elapsed(4);
        assert!(
            parallel.as_nanos() * 3 < serial.as_nanos(),
            "4 channels should be ~4x faster: serial {serial}, parallel {parallel}"
        );
    }

    #[test]
    fn hdd_queue_depth_stays_one() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        assert_eq!(disk.geometry().queue_depth, 1);
        let d2 = disk.clone();
        sim.spawn(async move {
            let tokens: Vec<_> = (0..3u64)
                .map(|i| {
                    d2.submit(IoReq::Write {
                        sector: i * 1000,
                        data: SectorBuf::from_vec(vec![i as u8; SECTOR_SIZE]),
                        fua: true,
                    })
                })
                .collect();
            for t in tokens {
                d2.wait(t).await.unwrap();
            }
        });
        let report = sim.run();
        let stats = disk.stats();
        assert_eq!(stats.media_ops, 3);
        // The actuator still serialises: busy time ≤ elapsed time.
        assert!(stats.busy.as_nanos() <= report.now.as_nanos());
    }

    #[test]
    fn vectored_write_lays_segments_contiguously_in_one_media_op() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let segs = vec![
                SectorBuf::from_vec(pattern(2 * SECTOR_SIZE, 0x10)),
                SectorBuf::from_vec(pattern(SECTOR_SIZE, 0x20)),
                SectorBuf::from_vec(pattern(3 * SECTOR_SIZE, 0x30)),
            ];
            let mut expect = Vec::new();
            for s in &segs {
                expect.extend_from_slice(s.as_slice());
            }
            disk.write_segments(20, segs, true).await.unwrap();
            let s = disk.stats();
            assert_eq!(s.media_ops, 1, "one command for the whole run");
            assert_eq!(s.sectors_written, 6);
            let mut buf = vec![0u8; 6 * SECTOR_SIZE];
            disk.read(20, &mut buf).await.unwrap();
            assert_eq!(buf, expect);
        });
    }

    #[test]
    fn vectored_write_rejects_misaligned_segments() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let segs = vec![
                SectorBuf::from_vec(vec![0u8; SECTOR_SIZE]),
                SectorBuf::from_vec(vec![0u8; 100]),
                // Pad the total to a sector multiple so only the per-segment
                // check can catch the bad one.
                SectorBuf::from_vec(vec![0u8; SECTOR_SIZE - 100]),
            ];
            assert_eq!(
                disk.write_segments(0, segs, true).await,
                Err(IoError::Misaligned { len: 100 })
            );
        });
    }

    #[test]
    fn write_runs_applies_runs_in_order_newest_wins() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let runs = vec![
                IoRun {
                    sector: 5,
                    segments: vec![SectorBuf::from_vec(pattern(4 * SECTOR_SIZE, 0x01))],
                },
                IoRun {
                    sector: 6,
                    segments: vec![SectorBuf::from_vec(pattern(SECTOR_SIZE, 0x02))],
                },
            ];
            disk.write_runs(&runs, true).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.peek_media(6, &mut buf);
            assert_eq!(buf, pattern(SECTOR_SIZE, 0x02), "later run overwrote");
            disk.peek_media(5, &mut buf);
            assert_eq!(&buf[..], &pattern(4 * SECTOR_SIZE, 0x01)[..SECTOR_SIZE]);
        });
    }

    #[test]
    fn vectored_write_over_defect_commits_prefix_across_segments() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            disk.mark_bad(12);
            let a = pattern(2 * SECTOR_SIZE, 0x40); // sectors 10,11
            let b = pattern(2 * SECTOR_SIZE, 0x50); // sectors 12,13
            let segs = vec![SectorBuf::from_vec(a.clone()), SectorBuf::from_vec(b)];
            assert_eq!(
                disk.write_segments(10, segs, true).await,
                Err(IoError::MediaError { sector: 12 })
            );
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.peek_media(11, &mut buf);
            assert_eq!(&buf[..], &a[SECTOR_SIZE..], "prefix committed");
            disk.peek_media(12, &mut buf);
            assert_eq!(buf, vec![0u8; SECTOR_SIZE], "defective sector untouched");
        });
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::spec::{specs, FaultProfile};
    use rapilog_simcore::{Sim, SimTime};

    fn run_with_faults<F, Fut>(spec: DiskSpec, f: F) -> (Disk, SimTime)
    where
        F: FnOnce(SimCtx, Disk) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, spec);
        sim.spawn(f(ctx, disk.clone()));
        let end = sim.run().now;
        (disk, end)
    }

    #[test]
    fn transient_faults_hit_at_roughly_the_configured_rate() {
        let spec = specs::instant(1 << 20).with_faults(FaultProfile::transient(42, 0.2));
        let (disk, _) = run_with_faults(spec, |_ctx, disk| async move {
            let data = vec![7u8; SECTOR_SIZE];
            let mut failures = 0u32;
            for i in 0..500u64 {
                if disk.write(i % 100, &data, true).await == Err(IoError::Transient) {
                    failures += 1;
                }
            }
            assert!(
                (60..160).contains(&failures),
                "expected ~100 transient failures, got {failures}"
            );
        });
        let s = disk.stats();
        assert!(s.transient_errors > 0);
        assert_eq!(s.media_errors, 0);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        fn stats_for(seed: u64) -> DiskStats {
            let spec = specs::instant(1 << 20).with_faults(FaultProfile {
                seed,
                transient_rate: 0.1,
                grown_defect_rate: 0.02,
                stall_rate: 0.05,
                stall: SimDuration::from_micros(10),
                corruption_rate: 0.0,
            });
            let (disk, _) = run_with_faults(spec, |_ctx, disk| async move {
                let data = vec![9u8; SECTOR_SIZE];
                for i in 0..300u64 {
                    let sector = i % 200;
                    if disk.write(sector, &data, true).await == Err(IoError::MediaError { sector })
                    {
                        disk.remap(sector);
                    }
                }
            });
            disk.stats()
        }
        assert_eq!(stats_for(7), stats_for(7), "same seed, same schedule");
        assert_ne!(stats_for(7), stats_for(8), "different seed diverges");
    }

    #[test]
    fn bad_sector_fails_until_remapped() {
        let (disk, _) = run_with_faults(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = vec![3u8; SECTOR_SIZE];
            disk.write(40, &data, true).await.unwrap();
            disk.mark_bad(40);
            assert_eq!(
                disk.write(40, &data, true).await,
                Err(IoError::MediaError { sector: 40 })
            );
            let mut buf = vec![0u8; SECTOR_SIZE];
            assert_eq!(
                disk.read(40, &mut buf).await,
                Err(IoError::MediaError { sector: 40 })
            );
            assert!(disk.remap(40), "sector was defective");
            assert!(!disk.remap(40), "already remapped");
            disk.write(40, &data, true).await.unwrap();
            disk.read(40, &mut buf).await.unwrap();
            assert_eq!(buf, data);
        });
        let s = disk.stats();
        assert_eq!(s.media_errors, 2);
        assert_eq!(s.remaps, 1);
        assert_eq!(disk.bad_sector_count(), 0);
    }

    #[test]
    fn multisector_write_over_defect_commits_the_prefix() {
        let (disk, _) = run_with_faults(specs::instant(1 << 20), |_ctx, disk| async move {
            disk.mark_bad(12);
            let data: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| i as u8).collect();
            assert_eq!(
                disk.write(10, &data, true).await,
                Err(IoError::MediaError { sector: 12 })
            );
            // Sectors 10 and 11 made it; 12 and 13 did not.
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.peek_media(10, &mut buf);
            assert_eq!(buf, data[..SECTOR_SIZE]);
            disk.peek_media(11, &mut buf);
            assert_eq!(buf, data[SECTOR_SIZE..2 * SECTOR_SIZE]);
            disk.peek_media(13, &mut buf);
            assert_eq!(buf, vec![0u8; SECTOR_SIZE]);
        });
        drop(disk);
    }

    #[test]
    fn sick_mode_fails_everything_and_recovers() {
        let (disk, _) = run_with_faults(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = vec![5u8; SECTOR_SIZE];
            disk.set_sick(true);
            assert!(disk.is_sick());
            assert_eq!(disk.write(0, &data, true).await, Err(IoError::Transient));
            let mut buf = vec![0u8; SECTOR_SIZE];
            assert_eq!(disk.read(0, &mut buf).await, Err(IoError::Transient));
            assert_eq!(disk.flush().await, Err(IoError::Transient));
            disk.set_sick(false);
            disk.write(0, &data, true).await.unwrap();
            disk.read(0, &mut buf).await.unwrap();
            assert_eq!(buf, data);
        });
        assert_eq!(disk.stats().transient_errors, 3);
    }

    #[test]
    fn stalls_add_latency_and_are_counted() {
        let spec = specs::instant(1 << 20).with_faults(FaultProfile::stalls(
            3,
            1.0,
            SimDuration::from_millis(25),
        ));
        let (disk, end) = run_with_faults(spec, |_ctx, disk| async move {
            let data = vec![1u8; SECTOR_SIZE];
            for i in 0..4u64 {
                disk.write(i, &data, true).await.unwrap();
            }
        });
        assert_eq!(disk.stats().stalls, 4);
        assert!(
            end >= SimTime::from_millis(100),
            "four 25 ms stalls must show in elapsed time, got {end}"
        );
    }

    #[test]
    fn silent_corruption_alters_media_without_an_error() {
        let spec = specs::instant(1 << 20).with_faults(FaultProfile {
            seed: 5,
            corruption_rate: 1.0,
            ..FaultProfile::default()
        });
        let (disk, _) = run_with_faults(spec, |_ctx, disk| async move {
            let data = vec![0x11u8; SECTOR_SIZE];
            disk.write(77, &data, true).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(77, &mut buf).await.unwrap();
            assert_ne!(buf, data, "corruption flipped bytes silently");
        });
        assert_eq!(disk.stats().corrupt_sectors, 1);
    }

    #[test]
    fn offline_rejections_are_counted() {
        let (disk, _) = run_with_faults(specs::instant(1 << 20), |_ctx, disk| async move {
            disk.power_cut();
            let data = vec![0u8; SECTOR_SIZE];
            let mut buf = vec![0u8; SECTOR_SIZE];
            assert_eq!(disk.write(0, &data, true).await, Err(IoError::PowerLoss));
            assert_eq!(disk.read(0, &mut buf).await, Err(IoError::PowerLoss));
            assert_eq!(disk.flush().await, Err(IoError::PowerLoss));
            disk.power_restore();
            disk.write(0, &data, true).await.unwrap();
        });
        assert_eq!(disk.stats().rejected_offline, 3);
    }

    #[test]
    fn writeback_retries_through_a_sick_interval() {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200_wce(1 << 30));
        let d2 = disk.clone();
        sim.spawn(async move {
            let data = vec![0xEEu8; SECTOR_SIZE];
            d2.write(8, &data, false).await.unwrap();
            // Drive falls sick after the cached ack; firmware must retry
            // the writeback until it recovers.
            d2.set_sick(true);
        });
        let d3 = disk.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(200)).await;
                d3.set_sick(false);
            }
        });
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(disk.cached_dirty_sectors(), 0, "writeback got through");
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(8, &mut buf);
        assert_eq!(buf, vec![0xEEu8; SECTOR_SIZE]);
        assert!(disk.stats().transient_errors > 0, "retries were needed");
    }

    #[test]
    fn writeback_auto_remaps_grown_defects() {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200_wce(1 << 30));
        disk.mark_bad(9);
        let d2 = disk.clone();
        sim.spawn(async move {
            let data = vec![0xABu8; SECTOR_SIZE];
            d2.write(9, &data, false).await.unwrap();
        });
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(disk.cached_dirty_sectors(), 0);
        assert_eq!(disk.stats().remaps, 1);
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(9, &mut buf);
        assert_eq!(buf, vec![0xABu8; SECTOR_SIZE]);
    }
}

#[cfg(test)]
mod cache_backpressure_tests {
    use super::*;
    use crate::spec::{specs, CacheSpec};
    use rapilog_simcore::{Sim, SimTime};
    use std::cell::Cell;

    #[test]
    fn full_cache_blocks_writers_until_writeback_progresses() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        // A 4-sector cache over slow mechanics.
        let mut spec = specs::hdd_7200(1 << 30);
        spec.cache = Some(CacheSpec {
            capacity_sectors: 4,
            write_latency: SimDuration::from_micros(100),
        });
        let disk = Disk::new(&ctx, spec);
        let finished = Rc::new(Cell::new(0u32));
        let f2 = Rc::clone(&finished);
        let d2 = disk.clone();
        sim.spawn(async move {
            // Twelve cached single-sector writes through a 4-sector cache:
            // the later ones must wait for writeback drains.
            for i in 0..12u64 {
                d2.write(i * 10, &vec![i as u8; SECTOR_SIZE], false)
                    .await
                    .unwrap();
                f2.set(f2.get() + 1);
            }
        });
        // After a millisecond, only about a cache-full has been accepted.
        sim.run_until(SimTime::from_millis(1));
        assert!(
            finished.get() < 12,
            "cache absorbed everything instantly: backpressure missing"
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(finished.get(), 12, "all writes eventually accepted");
        // And the writeback persisted them.
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(110, &mut buf);
        assert_eq!(buf, vec![11u8; SECTOR_SIZE]);
    }
}
