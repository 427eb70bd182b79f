//! Buffer pool with the WAL-before-data rule.
//!
//! Pages live in frames; a frame is pinned while any caller holds its
//! `Rc`. Eviction is LRU over unpinned frames. Before a dirty page goes to
//! the device — on eviction, cleaning or checkpoint — the WAL is forced up
//! to the page's LSN. That single rule is what makes the log the authority
//! for recovery.
//!
//! # Victim cleaning
//!
//! A miss on a full pool evicts the *victim*: the first unpinned frame in
//! LRU order. Were the victim dirty, the miss would pay a WAL force and a
//! page write before its own read, all while its transaction holds row
//! locks. The victim cleaner — one task in the database's cancellation
//! domain, so a guest crash kills it — keeps the victim clean instead:
//! whenever a miss leaves the pool full, it writes back the frame the next
//! miss would evict, through the same write-back path (WAL-before-data,
//! full-page-image re-stamping), so a miss pays one read. It is woken when
//! a miss evicts (a new victim heads the LRU) and when a load fills the
//! pool. A miss whose victim is dirty while a write-back ahead of it in LRU
//! order is landing waits for that frame instead of writing its own.
//! [`PoolStats::dirty_evictions`] counts the misses that still had to write
//! their own victim.
//!
//! At most one write per page is in flight. The cleaner and eviction never
//! pick a frame under write-back; a checkpoint waits for it, then writes
//! only if the page is still dirty. Otherwise, on a multi-channel device, an
//! older image could land after a newer one that was already marked clean.
//! Eviction likewise drops only a frame that is still clean after its
//! write-back: a frame re-stamped during the write stays resident.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::hash::FastMap;
use rapilog_simcore::sync::{Event, Notify};
use rapilog_simcore::{DomainId, SimCtx};
use rapilog_simdisk::{BlockDevice, IoReq};

use crate::error::{DbError, DbResult};
use crate::page::{Page, PageLoad, PAGE_SECTORS};
use crate::types::{Lsn, PageId, TableId};
use crate::wal::{Record, Wal};

/// A resident page plus its dirty flag.
pub struct Frame {
    /// The page contents.
    pub page: Page,
    /// True if the in-memory page is newer than the device copy.
    pub dirty: bool,
    /// recLSN: the LSN of the first log record covering this page since it
    /// was last clean on media. `None` once the page is written back. Fuzzy
    /// checkpoints snapshot these into the dirty-page table; recovery's
    /// redo scan must start no later than `min(recLSN)`.
    pub rec_lsn: Option<Lsn>,
}

/// Shared handle to a resident frame; holding it pins the page.
pub type FrameRef = Rc<RefCell<Frame>>;

/// Cumulative pool statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Fetches served from memory.
    pub hits: u64,
    /// Fetches that read the device.
    pub misses: u64,
    /// Dirty pages written back (evictions, cleaning and checkpoints).
    pub writebacks: u64,
    /// Misses that found their victim dirty and had to write it back
    /// themselves (the victim cleaner had not got to it).
    pub dirty_evictions: u64,
}

struct PoolSt {
    frames: FastMap<PageId, FrameRef>,
    lru: VecDeque<PageId>,
    loading: FastMap<PageId, Event>,
    /// Pages with a write-back in flight; each event is set when it lands.
    writing: FastMap<PageId, Event>,
    stopped: bool,
    stats: PoolStats,
}

impl PoolSt {
    /// True once the next miss must evict: resident frames plus the loads
    /// in progress fill the pool.
    fn full(&self, capacity: usize) -> bool {
        self.frames.len() + self.loading.len() >= capacity
    }

    /// The frame the next miss would evict: the first unpinned frame in
    /// LRU order. A frame under write-back is pinned by its writer, so it
    /// is never the victim.
    fn victim(&self) -> Option<(PageId, FrameRef)> {
        self.lru.iter().find_map(|pid| {
            let f = self.frames.get(pid)?;
            (Rc::strong_count(f) == 1).then(|| (*pid, Rc::clone(f)))
        })
    }
}

/// The buffer pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Rc<PoolInner>,
}

struct PoolInner {
    dev: Rc<dyn BlockDevice>,
    wal: Wal,
    capacity: usize,
    st: RefCell<PoolSt>,
    /// Wakes the victim cleaner when a miss leaves the pool full.
    clean: Notify,
}

/// Marks a page's write-back in flight for as long as it lives. Dropping
/// it — on completion, error or cancellation — releases any waiter.
struct InFlight<'a> {
    inner: &'a PoolInner,
    pid: PageId,
}

impl<'a> InFlight<'a> {
    fn start(inner: &'a PoolInner, pid: PageId) -> Self {
        inner.st.borrow_mut().writing.insert(pid, Event::new());
        InFlight { inner, pid }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let done = self.inner.st.borrow_mut().writing.remove(&self.pid);
        if let Some(done) = done {
            done.set();
        }
    }
}

impl BufferPool {
    /// Creates a pool of `capacity` pages over `dev`, forcing `wal` before
    /// data writes.
    pub fn new(dev: Rc<dyn BlockDevice>, wal: Wal, capacity: usize) -> BufferPool {
        assert!(capacity >= 2, "buffer pool too small");
        BufferPool {
            inner: Rc::new(PoolInner {
                dev,
                wal,
                capacity,
                st: RefCell::new(PoolSt {
                    frames: FastMap::default(),
                    lru: VecDeque::new(),
                    loading: FastMap::default(),
                    writing: FastMap::default(),
                    stopped: false,
                    stats: PoolStats::default(),
                }),
                clean: Notify::new(),
            }),
        }
    }

    /// Starts the victim cleaner in `domain`. It runs until
    /// [`stop`](Self::stop), a failed write-back, or the domain's death.
    pub fn start_cleaner(&self, ctx: &SimCtx, domain: DomainId) {
        let pool = self.clone();
        ctx.spawn_in(domain, async move {
            loop {
                pool.inner.clean.notified().await;
                loop {
                    let dirty_victim = {
                        let st = pool.inner.st.borrow();
                        if st.stopped {
                            return;
                        }
                        if !st.full(pool.inner.capacity) {
                            break;
                        }
                        st.victim().filter(|(_, f)| f.borrow().dirty)
                    };
                    let Some((pid, frame)) = dirty_victim else {
                        break;
                    };
                    if pool.write_frame(pid, &frame).await.is_err() {
                        return;
                    }
                }
            }
        });
    }

    /// Stops the victim cleaner (engine shutdown).
    pub fn stop(&self) {
        self.inner.st.borrow_mut().stopped = true;
        self.inner.clean.notify_one();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.st.borrow().stats
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.inner.st.borrow().frames.len()
    }

    /// Fetches a page, reading it from the device on a miss. A blank
    /// (never-written) page comes back as a fresh page initialised for
    /// `table`/`slot_size`. A corrupt page is an error unless
    /// `tolerate_corrupt` (recovery sets it: the page will be rebuilt from
    /// a full-page image), in which case a fresh page is returned.
    pub async fn fetch(
        &self,
        pid: PageId,
        table: TableId,
        slot_size: u16,
        tolerate_corrupt: bool,
    ) -> DbResult<FrameRef> {
        loop {
            let wait_for: Option<Event> = {
                let mut st = self.inner.st.borrow_mut();
                if let Some(frame) = st.frames.get(&pid) {
                    let frame = Rc::clone(frame);
                    // Touch LRU.
                    if let Some(pos) = st.lru.iter().position(|&p| p == pid) {
                        st.lru.remove(pos);
                    }
                    st.lru.push_back(pid);
                    st.stats.hits += 1;
                    return Ok(frame);
                }
                if let Some(ev) = st.loading.get(&pid) {
                    Some(ev.clone())
                } else {
                    st.loading.insert(pid, Event::new());
                    st.stats.misses += 1;
                    None
                }
            };
            if let Some(ev) = wait_for {
                ev.wait().await;
                continue;
            }
            // We own the load. Make room first, then read.
            let result = self
                .load_page(pid, table, slot_size, tolerate_corrupt)
                .await;
            let (ev, full) = {
                let mut st = self.inner.st.borrow_mut();
                let ev = st.loading.remove(&pid).expect("loading marker vanished");
                if let Ok(frame) = &result {
                    st.frames.insert(pid, Rc::clone(frame));
                    st.lru.push_back(pid);
                }
                (ev, st.full(self.inner.capacity))
            };
            ev.set();
            if full {
                // The next miss will evict: have its victim cleaned first.
                self.inner.clean.notify_one();
            }
            return result;
        }
    }

    async fn load_page(
        &self,
        pid: PageId,
        table: TableId,
        slot_size: u16,
        tolerate_corrupt: bool,
    ) -> DbResult<FrameRef> {
        self.make_room().await?;
        let data = self
            .inner
            .dev
            .io(IoReq::Read {
                sector: pid.0 * PAGE_SECTORS,
                sectors: PAGE_SECTORS,
            })
            .await?;
        let data = data.expect("read completion carries data");
        let page = match Page::load(&data) {
            PageLoad::Valid(p) => p,
            PageLoad::Fresh => Page::new(table, slot_size),
            PageLoad::Corrupt if tolerate_corrupt => Page::new(table, slot_size),
            PageLoad::Corrupt => {
                return Err(DbError::Corrupt(format!("page {pid:?} failed its CRC")))
            }
        };
        Ok(Rc::new(RefCell::new(Frame {
            page,
            dirty: false,
            rec_lsn: None,
        })))
    }

    async fn make_room(&self) -> DbResult<()> {
        let mut wrote_victim = false;
        loop {
            let (victim, landing) = {
                let st = self.inner.st.borrow();
                if st.frames.len() < self.inner.capacity {
                    return Ok(());
                }
                let victim = st.victim();
                // A write-back in flight ahead of a dirty victim (the
                // cleaner's, usually) hands over a clean frame sooner than
                // a WAL force and a write of our own would.
                let landing =
                    victim
                        .as_ref()
                        .filter(|(_, f)| f.borrow().dirty)
                        .and_then(|(vpid, _)| {
                            st.lru
                                .iter()
                                .take_while(|pid| *pid != vpid)
                                .find_map(|pid| st.writing.get(pid).cloned())
                        });
                (victim, landing)
            };
            if let Some(landing) = landing {
                drop(victim);
                landing.wait().await;
                continue;
            }
            let Some((pid, frame)) = victim else {
                // Everything is pinned or being written: allow temporary
                // overcommit rather than deadlocking; the pool shrinks on
                // later fetches.
                return Ok(());
            };
            if frame.borrow().dirty {
                if !wrote_victim {
                    wrote_victim = true;
                    self.inner.st.borrow_mut().stats.dirty_evictions += 1;
                }
                self.write_frame(pid, &frame).await?;
            }
            drop(frame); // release our own pin before re-checking
            let mut st = self.inner.st.borrow_mut();
            // The frame may have been re-pinned or re-dirtied while we
            // wrote; only drop it if it is still unpinned and clean.
            let evictable = st
                .frames
                .get(&pid)
                .is_some_and(|f| Rc::strong_count(f) == 1 && !f.borrow().dirty);
            if evictable {
                st.frames.remove(&pid);
                if let Some(pos) = st.lru.iter().position(|&p| p == pid) {
                    st.lru.remove(pos);
                }
                // A new victim heads the LRU: clean it while we read.
                self.inner.clean.notify_one();
                return Ok(());
            }
        }
    }

    async fn write_frame(&self, pid: PageId, frame: &FrameRef) -> DbResult<()> {
        // At most one write per page in flight: wait out another writer's,
        // then write only if the page is still dirty.
        loop {
            let in_flight = self.inner.st.borrow().writing.get(&pid).cloned();
            let Some(done) = in_flight else { break };
            done.wait().await;
        }
        if !frame.borrow().dirty {
            return Ok(());
        }
        let _in_flight = InFlight::start(&self.inner, pid);
        let (lsn, bytes) = {
            let f = frame.borrow();
            (f.page.lsn(), f.page.to_disk_bytes())
        };
        // WAL-before-data: the log must cover the page's changes first.
        self.inner.wal.flush_to(lsn).await?;
        self.inner
            .dev
            .io(IoReq::Write {
                sector: pid.0 * PAGE_SECTORS,
                data: SectorBuf::from_vec(bytes),
                fua: false,
            })
            .await?;
        let restamped_image = {
            let mut f = frame.borrow_mut();
            if f.page.lsn() == lsn {
                f.dirty = false;
                f.rec_lsn = None;
                None
            } else {
                // The page was re-stamped while the write was in flight —
                // the media image only covers `lsn`, so the frame must stay
                // dirty. Its old recLSN is still correct but would pin the
                // redo horizon forever on a page that never comes clean
                // under sustained writes. Log a fresh full-page image below
                // and advance recLSN to it: the image carries every delta
                // the old recLSN protected, and a redo scan starting at the
                // new recLSN replays the image first, so torn-page repair
                // still holds.
                Some(f.page.image().to_vec())
            }
        };
        if let Some(image) = restamped_image {
            let (fpw, _) = self
                .inner
                .wal
                .append(&Record::FullPage { page: pid, image })?;
            frame.borrow_mut().rec_lsn = Some(fpw);
        }
        self.inner.st.borrow_mut().stats.writebacks += 1;
        Ok(())
    }

    /// Writes back the listed pages if still resident and dirty — one pass,
    /// no chasing. Fuzzy checkpoints call this on a snapshot of the
    /// dirty-page table; pages dirtied during the pass ride the next one.
    pub async fn flush_pages(&self, pages: &[(PageId, Lsn)]) -> DbResult<()> {
        for &(pid, _) in pages {
            let frame = { self.inner.st.borrow().frames.get(&pid).map(Rc::clone) };
            if let Some(frame) = frame {
                self.write_frame(pid, &frame).await?;
            }
        }
        Ok(())
    }

    /// Device cache barrier: every previously acknowledged cached write is
    /// on stable media once this returns.
    pub async fn barrier(&self) -> DbResult<()> {
        self.inner.dev.io(IoReq::Flush).await?;
        Ok(())
    }

    /// Writes every dirty page (checkpoint), then flushes the device cache.
    pub async fn flush_all(&self) -> DbResult<()> {
        loop {
            let next: Option<(PageId, FrameRef)> = {
                let st = self.inner.st.borrow();
                st.frames
                    .iter()
                    .find(|(_, f)| f.borrow().dirty)
                    .map(|(pid, f)| (*pid, Rc::clone(f)))
            };
            let Some((pid, frame)) = next else { break };
            self.write_frame(pid, &frame).await?;
        }
        self.inner.dev.io(IoReq::Flush).await?;
        Ok(())
    }

    /// Snapshot of the dirty-page table: every resident page that may be
    /// newer in memory than on media, with its recLSN. Sorted by page id so
    /// checkpoint records are deterministic regardless of map order.
    pub fn dirty_page_table(&self) -> Vec<(PageId, Lsn)> {
        let st = self.inner.st.borrow();
        let mut dpt: Vec<(PageId, Lsn)> = st
            .frames
            .iter()
            .filter_map(|(pid, f)| f.borrow().rec_lsn.map(|l| (*pid, l)))
            .collect();
        dpt.sort_unstable_by_key(|&(pid, _)| pid.0);
        dpt
    }

    /// Marks a frame dirty (callers mutate the page through the frame).
    /// Captures the page's freshly stamped LSN as recLSN on the clean→dirty
    /// transition, unless [`note_rec_lsn`](Self::note_rec_lsn) already
    /// pinned an earlier one (the full-page-write case).
    pub fn mark_dirty(frame: &FrameRef) {
        let mut f = frame.borrow_mut();
        f.dirty = true;
        if f.rec_lsn.is_none() {
            f.rec_lsn = Some(f.page.lsn());
        }
    }

    /// Pins `lsn` as the frame's recLSN if it does not have one. The engine
    /// calls this when it appends a full-page image for the frame: the FPW
    /// record precedes the delta in the log, so redo starting at
    /// `min(recLSN)` must not skip past it — torn-page repair depends on
    /// replaying the image.
    pub fn note_rec_lsn(frame: &FrameRef, lsn: Lsn) {
        let mut f = frame.borrow_mut();
        if f.rec_lsn.is_none() {
            f.rec_lsn = Some(lsn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use crate::wal::CommitPolicy;
    use rapilog_simcore::{DomainId, Sim, SimDuration};
    use rapilog_simdisk::{specs, Disk, DiskSpec};
    use std::cell::Cell as StdCell;

    fn pool_fixture(sim: &mut Sim, capacity: usize) -> (BufferPool, Disk, Wal) {
        let ctx = sim.ctx();
        let data = Disk::new(&ctx, specs::instant(64 << 20));
        let logd = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(logd),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        let pool = BufferPool::new(Rc::new(data.clone()), wal.clone(), capacity);
        (pool, data, wal)
    }

    #[test]
    fn fetch_fresh_page_and_cache_hit() {
        let mut sim = Sim::new(2);
        let (pool, ..) = pool_fixture(&mut sim, 8);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let f1 = pool.fetch(PageId(5), TableId(1), 64, false).await.unwrap();
            f1.borrow_mut().page.write_slot(0, 7, b"x");
            BufferPool::mark_dirty(&f1);
            drop(f1);
            let f2 = pool.fetch(PageId(5), TableId(1), 64, false).await.unwrap();
            assert_eq!(f2.borrow().page.read_slot(0), Some((7, b"x".to_vec())));
            let s = pool.stats();
            assert_eq!(s.misses, 1);
            assert_eq!(s.hits, 1);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn eviction_respects_capacity_and_persists_dirty_pages() {
        let mut sim = Sim::new(2);
        let (pool, data, _wal) = pool_fixture(&mut sim, 4);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let p2 = pool.clone();
        sim.spawn(async move {
            // Dirty ten distinct pages through a 4-page pool.
            for i in 0..10u64 {
                let f = p2.fetch(PageId(i), TableId(1), 64, false).await.unwrap();
                {
                    let mut fr = f.borrow_mut();
                    fr.page.write_slot(0, i, &i.to_le_bytes());
                    fr.page.set_lsn(Lsn(1)); // pretend it was logged
                }
                BufferPool::mark_dirty(&f);
            }
            assert!(p2.resident() <= 4, "resident {} > capacity", p2.resident());
            // Re-read an evicted page: contents came back from the device.
            let f = p2.fetch(PageId(0), TableId(1), 64, false).await.unwrap();
            assert_eq!(
                f.borrow().page.read_slot(0),
                Some((0, 0u64.to_le_bytes().to_vec()))
            );
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        assert!(pool.stats().writebacks >= 6, "evictions wrote back");
        // And the bytes really are on the media.
        let mut buf = vec![0u8; PAGE_SIZE];
        data.peek_media(0, &mut buf[..512]);
        assert!(buf[..512].iter().any(|&b| b != 0), "page 0 reached media");
    }

    #[test]
    fn flush_all_writes_every_dirty_page() {
        let mut sim = Sim::new(2);
        let (pool, _data, _wal) = pool_fixture(&mut sim, 8);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            for i in 0..5u64 {
                let f = pool.fetch(PageId(i), TableId(1), 64, false).await.unwrap();
                f.borrow_mut().page.write_slot(0, i, b"d");
                BufferPool::mark_dirty(&f);
            }
            pool.flush_all().await.unwrap();
            assert_eq!(pool.stats().writebacks, 5);
            // Everything clean now: a second flush writes nothing.
            pool.flush_all().await.unwrap();
            assert_eq!(pool.stats().writebacks, 5);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn corrupt_page_is_error_unless_tolerated() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let data = Disk::new(&ctx, specs::instant(64 << 20));
        let logd = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(logd),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        let pool = BufferPool::new(Rc::new(data.clone()), wal, 8);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            // Write garbage that is non-blank but not a valid page.
            let garbage = vec![0xA5u8; PAGE_SIZE];
            data.write(3 * PAGE_SECTORS, &garbage, true).await.unwrap();
            let err = pool.fetch(PageId(3), TableId(1), 64, false).await.err();
            assert!(matches!(err, Some(DbError::Corrupt(_))), "got {err:?}");
            // Recovery mode: a fresh page replaces the wreck.
            let f = pool.fetch(PageId(3), TableId(1), 64, true).await.unwrap();
            assert_eq!(f.borrow().page.lsn(), Lsn::ZERO);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    /// Logs an update to `pid` and applies it: slot 0 holds `value`.
    async fn dirty_page(pool: &BufferPool, wal: &Wal, pid: u64, value: u64) -> FrameRef {
        let f = pool
            .fetch(PageId(pid), TableId(1), 64, false)
            .await
            .unwrap();
        let (lsn, _) = wal
            .append(&Record::Update {
                txn: crate::types::TxnId(1),
                prev: Lsn::ZERO,
                table: TableId(1),
                page: PageId(pid),
                slot: 0,
                key: pid,
                before: Vec::new(),
                after: value.to_le_bytes().to_vec(),
            })
            .unwrap();
        {
            let mut fr = f.borrow_mut();
            fr.page.write_slot(0, pid, &value.to_le_bytes());
            fr.page.set_lsn(lsn);
        }
        BufferPool::mark_dirty(&f);
        f
    }

    /// A pool over flash-latency devices, so writes and reads take time.
    fn flash_pool(sim: &mut Sim, data: DiskSpec, capacity: usize) -> (BufferPool, Disk, Wal) {
        let ctx = sim.ctx();
        let data = Disk::new(&ctx, data);
        let logd = Disk::new(&ctx, specs::ssd_sata(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(logd),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        let pool = BufferPool::new(Rc::new(data.clone()), wal.clone(), capacity);
        (pool, data, wal)
    }

    #[test]
    fn cleaner_keeps_the_victim_clean_under_a_steady_miss_load() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let (pool, data, wal) = flash_pool(&mut sim, specs::ssd_sata(64 << 20), 8);
        pool.start_cleaner(&ctx, DomainId::ROOT);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            for pid in 0..8 {
                dirty_page(&pool, &wal, pid, pid).await;
            }
            let (misses, reads) = (pool.stats().misses, data.stats().reads);
            // Every miss evicts, and every page it brings in is dirtied.
            for pid in 8..40 {
                ctx.sleep(SimDuration::from_millis(1)).await;
                dirty_page(&pool, &wal, pid, pid).await;
            }
            let s = pool.stats();
            assert_eq!(s.misses - misses, 32);
            assert_eq!(s.dirty_evictions, 0, "every victim was already clean");
            assert_eq!(data.stats().reads - reads, 32, "one device read per miss");
            assert!(s.writebacks >= 32, "the cleaner wrote the victims back");
            pool.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn cleaner_dies_with_the_guest() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let guest = ctx.create_domain();
        let (pool, data, wal) = flash_pool(&mut sim, specs::ssd_sata(64 << 20), 8);
        pool.start_cleaner(&ctx, guest);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            for pid in 0..8 {
                dirty_page(&pool, &wal, pid, pid).await;
            }
            // The full pool has just woken the cleaner: crash the guest
            // before it runs.
            assert_eq!(ctx.kill_domain(guest), 1, "the cleaner is the guest's");
            let writes = data.stats().writes;
            for pid in 8..24 {
                ctx.sleep(SimDuration::from_millis(1)).await;
                dirty_page(&pool, &wal, pid, pid).await;
            }
            let s = pool.stats();
            assert_eq!(s.dirty_evictions, 16, "each miss wrote its own victim");
            assert_eq!(
                data.stats().writes - writes,
                s.dirty_evictions,
                "no write-back but the misses' own"
            );
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    /// The cleaner's write-back of a page waits for a flash channel; the
    /// page is updated, and a checkpoint asks for it at the very instant
    /// the channels free up — ahead of the cleaner's queued write. Were the
    /// two writes both in flight, the checkpoint's newer image would land
    /// first and be marked clean, and the cleaner's older one would land
    /// over it.
    #[test]
    fn checkpoint_waits_out_the_cleaners_write_back() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let spec = specs::ssd_nvme(64 << 20).with_channels(4);
        let (pool, data, wal) = flash_pool(&mut sim, spec, 2);
        pool.start_cleaner(&ctx, DomainId::ROOT);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let big = || SectorBuf::from_vec(vec![7u8; 64 * 512]);
            let p = PageId(3);
            // Pinning the other frame makes `p` the victim.
            let _pinned = pool.fetch(PageId(9), TableId(1), 64, false).await;
            drop(dirty_page(&pool, &wal, p.0, 1).await);
            ctx.sleep(SimDuration::from_millis(1)).await;
            assert!(!pool.inner.st.borrow().frames[&p].borrow().dirty);
            drop(dirty_page(&pool, &wal, p.0, 2).await);
            wal.wait_durable(wal.end()).await.unwrap();
            // How long a big write holds a channel.
            let t = ctx.now();
            data.write(20_000, big().as_slice(), false).await.unwrap();
            let hold = ctx.now() - t;
            // The checkpoint's timer is armed before the channels' timers,
            // so at the instant they fire it runs first.
            let ckpt = {
                let (ctx, pool) = (ctx.clone(), pool.clone());
                ctx.clone().spawn(async move {
                    ctx.sleep(hold).await;
                    pool.flush_pages(&[(p, Lsn::ZERO)]).await.unwrap();
                })
            };
            let fill: Vec<_> = (0..4)
                .map(|i| {
                    data.submit(IoReq::Write {
                        sector: 30_000 + i * 64,
                        data: big(),
                        fua: false,
                    })
                })
                .collect();
            // Stand in for the miss that would wake the cleaner: it queues
            // its write of `p` behind the busy channels.
            pool.inner.clean.notify_one();
            ctx.yield_now().await;
            drop(dirty_page(&pool, &wal, p.0, 3).await);
            wal.wait_durable(wal.end()).await.unwrap();
            ckpt.await;
            for token in fill {
                data.wait(token).await.unwrap();
            }
            // Let every write-back land, then compare.
            ctx.sleep(SimDuration::from_millis(1)).await;
            let frame = pool.inner.st.borrow().frames[&p].clone();
            assert!(!frame.borrow().dirty, "the checkpoint cleaned the page");
            let mut media = vec![0u8; PAGE_SIZE];
            data.peek_media(p.0 * PAGE_SECTORS, &mut media);
            assert!(
                media == frame.borrow().page.to_disk_bytes(),
                "media holds an older image than the one marked clean"
            );
            pool.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    /// Writers, misses, the cleaner and a checkpoint loop race on a small
    /// pool over a 4-channel SSD. Afterwards every clean resident frame
    /// must match its media image, and every evicted page's media image
    /// must hold its last update: an older write-back landing after a newer
    /// one that was marked clean breaks one or the other.
    #[test]
    fn media_holds_the_last_image_marked_clean() {
        for seed in 0..12 {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let spec = specs::ssd_nvme(64 << 20).with_channels(4);
            let (pool, data, wal) = flash_pool(&mut sim, spec, 8);
            pool.start_cleaner(&ctx, DomainId::ROOT);
            let latest: Rc<RefCell<FastMap<u64, u64>>> = Rc::default();
            let writers_left = Rc::new(StdCell::new(4));
            for w in 0..4u64 {
                let (ctx, pool, wal) = (ctx.clone(), pool.clone(), wal.clone());
                let (latest, writers_left) = (Rc::clone(&latest), Rc::clone(&writers_left));
                sim.spawn(async move {
                    for i in 0..150u64 {
                        let pid = ctx.rand_range(0, 12);
                        let value = w << 32 | i;
                        let f = dirty_page(&pool, &wal, pid, value).await;
                        latest.borrow_mut().insert(pid, value);
                        // Hold the pin a little, so re-stamps and pinned
                        // victims both happen.
                        ctx.sleep(SimDuration::from_micros(ctx.rand_range(0, 20)))
                            .await;
                        drop(f);
                        ctx.sleep(SimDuration::from_micros(ctx.rand_range(0, 30)))
                            .await;
                    }
                    writers_left.set(writers_left.get() - 1);
                });
            }
            {
                let (ctx, pool) = (ctx.clone(), pool.clone());
                let writers_left = Rc::clone(&writers_left);
                sim.spawn(async move {
                    while writers_left.get() > 0 {
                        let dpt = pool.dirty_page_table();
                        pool.flush_pages(&dpt).await.unwrap();
                        ctx.sleep(SimDuration::from_micros(40)).await;
                    }
                    pool.stop();
                });
            }
            // Between write-backs, a clean frame's image is what media holds.
            {
                let (ctx, pool, data) = (ctx.clone(), pool.clone(), data.clone());
                let writers_left = Rc::clone(&writers_left);
                sim.spawn(async move {
                    while writers_left.get() > 0 {
                        for (pid, f) in pool.inner.st.borrow().frames.iter() {
                            let f = f.borrow();
                            if f.dirty || pool.inner.st.borrow().writing.contains_key(pid) {
                                continue;
                            }
                            let mut media = vec![0u8; PAGE_SIZE];
                            data.peek_media(pid.0 * PAGE_SECTORS, &mut media);
                            assert!(
                                media == f.page.to_disk_bytes(),
                                "seed {seed}: page {pid:?} clean but media differs"
                            );
                        }
                        ctx.sleep(SimDuration::from_micros(5)).await;
                    }
                });
            }
            sim.run();
            for (&pid, &value) in latest.borrow().iter() {
                let mut media = vec![0u8; PAGE_SIZE];
                data.peek_media(pid * PAGE_SECTORS, &mut media);
                let frame = pool.inner.st.borrow().frames.get(&PageId(pid)).cloned();
                match frame {
                    Some(f) if !f.borrow().dirty => assert_eq!(
                        media,
                        f.borrow().page.to_disk_bytes(),
                        "seed {seed}: page {pid} clean but media differs"
                    ),
                    Some(_) => {}
                    None => {
                        let PageLoad::Valid(page) = Page::load(&media) else {
                            panic!("seed {seed}: evicted page {pid} not on media");
                        };
                        assert_eq!(
                            page.read_slot(0),
                            Some((pid, value.to_le_bytes().to_vec())),
                            "seed {seed}: evicted page {pid} lost its last update"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_fetchers_share_one_load() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        // HDD so the load takes real time and the second fetch overlaps.
        let data = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let logd = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(logd),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        let pool = BufferPool::new(Rc::new(data), wal, 8);
        let hits = Rc::new(StdCell::new(0u32));
        for _ in 0..4 {
            let pool = pool.clone();
            let hits = Rc::clone(&hits);
            sim.spawn(async move {
                let _f = pool.fetch(PageId(9), TableId(1), 64, false).await.unwrap();
                hits.set(hits.get() + 1);
            });
        }
        sim.run();
        assert_eq!(hits.get(), 4);
        assert_eq!(pool.stats().misses, 1, "only one device read");
    }
}
