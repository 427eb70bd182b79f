//! ARIES-style crash recovery: pipelined scan, analysis, partitioned
//! redo, undo.
//!
//! [`Database::open`] brings a database back after any crash:
//!
//! 1. **Scan** the log from the superblock's checkpoint position,
//!    validating CRC and LSN continuity; the first invalid frame is the
//!    torn tail — the durable end of the log. In
//!    [`RecoveryMode::Parallel`] the scan keeps up to
//!    `Geometry::queue_depth` chunk reads in flight through the queued
//!    device API, overlapping CRC validation and frame decode with media
//!    latency.
//! 2. **Analysis** classifies transactions into committed, aborted and
//!    *losers* (active at the crash), seeding the loser set from the
//!    checkpoint record's active-transaction table, and picks up the
//!    checkpoint's dirty-page table: records older than the checkpoint
//!    touching pages that were clean on media when it was taken (absent
//!    from the table, or below their recLSN) need no redo at all.
//! 3. **Redo** replays every surviving page-touching record whose LSN is
//!    newer than the page's LSN. Replay order only has to respect the
//!    per-page LSN order — the same dependency argument the drain uses
//!    for sector-overlap edges — so parallel mode partitions the records
//!    into per-page chains and replays the chains as concurrent tasks,
//!    overlapping their page reads across device channels.
//! 4. **Undo** rolls every loser back through its `prev` chain, writing
//!    compensation records, and closes it with an abort record.
//!
//! Serial mode is the pinned reference: it consumes the same filtered
//! record list in log order, and must produce counter-identical reports
//! and byte-identical media images — the property
//! `serial_and_parallel_recovery_agree` verifies across random crash
//! points.
//!
//! Recovery ends with a checkpoint, and reports the work it did — the
//! recovery-time figures in EXPERIMENTS.md come straight from
//! [`RecoveryReport`], including the per-phase scan/redo/undo split.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rapilog_simcore::hash::{FastMap, FastSet};
use rapilog_simcore::sync::Event;
use rapilog_simcore::{DomainId, SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, SECTOR_SIZE};

use crate::buffer::BufferPool;
use crate::engine::{Database, DbConfig, TableMeta};
use crate::error::{DbError, DbResult};
use crate::types::{Lsn, PageId, TxnId};
use crate::wal::{read_stream, ClrAction, Record, StreamReader, Superblock, Wal, RECORD_HEADER};

/// How [`Database::open`] drives the scan and redo phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Read one chunk, decode it, read the next; replay records one at a
    /// time in log order. The pinned reference mode.
    Serial,
    /// Windowed scan reads up to `Geometry::queue_depth` chunks ahead;
    /// redo partitions records into per-page chains replayed as
    /// concurrent tasks. Counter- and media-identical to `Serial`.
    Parallel,
}

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Records scanned between the checkpoint and the torn tail.
    pub scanned_records: u64,
    /// Page-touching records actually applied during redo.
    pub redo_applied: u64,
    /// Page-touching records skipped without a page read because the
    /// checkpoint's dirty-page table proved their page already current on
    /// media.
    pub redo_skipped_clean: u64,
    /// Transactions rolled back (active at the crash).
    pub losers_undone: u64,
    /// Commit records seen in the scan range.
    pub committed_seen: u64,
    /// End of the durable log (new streams append here).
    pub log_end: Lsn,
    /// Virtual time the whole recovery took (scan + redo + undo +
    /// index rebuild + final checkpoint).
    pub duration: SimDuration,
    /// Virtual time in the scan phase (log reads, CRC, decode, analysis).
    pub scan_time: SimDuration,
    /// Virtual time in the redo phase (page reads + replay).
    pub redo_time: SimDuration,
    /// Virtual time in the undo phase (loser rollback + CLR appends).
    pub undo_time: SimDuration,
    /// Committed transaction ids seen in the scan range (the durability
    /// auditor intersects this with the client-side ack journal).
    pub committed_txns: Vec<TxnId>,
}

impl RecoveryReport {
    /// The mode-independent counters: every field that must be identical
    /// between serial and parallel recovery of the same log (durations are
    /// exactly what the modes are allowed to change).
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, Lsn, Vec<TxnId>) {
        (
            self.scanned_records,
            self.redo_applied,
            self.redo_skipped_clean,
            self.losers_undone,
            self.committed_seen,
            self.log_end,
            self.committed_txns.clone(),
        )
    }
}

fn meta_for_page(tables: &[TableMeta], page: PageId) -> DbResult<&TableMeta> {
    tables
        .iter()
        .find(|t| page.0 >= t.base_page && page.0 < t.base_page + t.n_pages)
        .ok_or_else(|| DbError::Corrupt(format!("page {page:?} belongs to no table")))
}

async fn read_record_at(wal: &Wal, lsn: Lsn) -> DbResult<Record> {
    let head = wal.read_stream(lsn, RECORD_HEADER).await?;
    let total = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if !(RECORD_HEADER..16 * 1024 * 1024).contains(&total) {
        return Err(DbError::Corrupt(format!("bad record length at {lsn}")));
    }
    let bytes = wal.read_stream(lsn, total).await?;
    Record::decode(&bytes, lsn)
        .map(|(rec, _)| rec)
        .ok_or_else(|| DbError::Corrupt(format!("undecodable record at {lsn}")))
}

async fn apply_page_record(
    pool: &BufferPool,
    tables: &[TableMeta],
    lsn: Lsn,
    rec: &Record,
) -> DbResult<bool> {
    // Applied in place, borrowing images and row bytes straight from the
    // record: redo visits every scanned record, so a per-record boxed
    // closure (and an 8 KiB image clone per full-page record) is pure
    // overhead — most applications are skipped by the LSN check anyway.
    let page = match rec {
        Record::FullPage { page, .. }
        | Record::Insert { page, .. }
        | Record::Update { page, .. }
        | Record::Delete { page, .. }
        | Record::Clr { page, .. } => *page,
        _ => return Ok(false),
    };
    let meta = meta_for_page(tables, page)?;
    let frame = pool.fetch(page, meta.id, meta.slot_size, true).await?;
    let stale = frame.borrow().page.lsn() < lsn;
    if stale {
        {
            let mut f = frame.borrow_mut();
            match rec {
                Record::FullPage { image, .. } => f.page.restore_image(image),
                Record::Insert {
                    slot, key, after, ..
                }
                | Record::Update {
                    slot, key, after, ..
                } => f.page.write_slot(*slot, *key, after),
                Record::Delete { slot, .. } => f.page.clear_slot(*slot),
                Record::Clr {
                    slot, key, action, ..
                } => match action {
                    ClrAction::Restore(bytes) => f.page.write_slot(*slot, *key, bytes),
                    ClrAction::Clear => f.page.clear_slot(*slot),
                },
                _ => unreachable!("page id extracted above"),
            }
            f.page.set_lsn(lsn);
        }
        BufferPool::mark_dirty(&frame);
        return Ok(true);
    }
    Ok(false)
}

impl Database {
    /// Opens an existing database, running full crash recovery.
    pub async fn open(
        ctx: &SimCtx,
        cfg: DbConfig,
        data_dev: Rc<dyn BlockDevice>,
        log_dev: Rc<dyn BlockDevice>,
        domain: DomainId,
    ) -> DbResult<(Database, RecoveryReport)> {
        let t0 = ctx.now();
        // The OS block layer: bounded transient-error retry on both
        // devices. Media errors are not retryable and surface as typed
        // [`DbError::Io`] from whichever phase hit them.
        let data_dev =
            crate::retry::RetryingDevice::wrap(ctx, data_dev, cfg.io_retries, cfg.io_retry_delay);
        let log_dev =
            crate::retry::RetryingDevice::wrap(ctx, log_dev, cfg.io_retries, cfg.io_retry_delay);
        let tables = Self::read_catalog(&*data_dev).await?;
        let sb = Superblock::read(&*log_dev)
            .await?
            .ok_or_else(|| DbError::Corrupt("no superblock: not a database".to_string()))?;
        let region_sectors = log_dev.geometry().sectors - 1;
        let region_bytes = region_sectors * SECTOR_SIZE as u64;

        // --- 1. Scan -----------------------------------------------------
        // The buffer is consumed through `off` rather than drained per
        // record: a drain memmoves the whole remainder, which turns a scan
        // of n small records into O(n·CHUNK) byte shuffling. Consumed bytes
        // are reclaimed in one amortised drain per chunk instead.
        //
        // Reads go through a windowed `StreamReader`: in parallel mode up
        // to `queue_depth` chunk reads are in flight while this loop
        // decodes, so validation overlaps media latency. The torn-tail
        // decision depends only on the bytes, so serial and parallel scans
        // land on the same record list.
        let window = match cfg.recovery {
            RecoveryMode::Serial => 1,
            RecoveryMode::Parallel => (log_dev.geometry().queue_depth as usize).max(1),
        };
        const CHUNK: usize = 256 * 1024;
        let mut reader =
            StreamReader::new(ctx, &log_dev, region_sectors, sb.checkpoint, CHUNK, window);
        let mut records: Vec<(Lsn, Record)> = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut off = 0usize;
        let mut pos = sb.checkpoint;
        'scan: loop {
            if pos.0 - sb.checkpoint.0 >= region_bytes {
                break; // wrapped the whole region: cannot happen in a sane log
            }
            if off >= CHUNK {
                buf.drain(..off);
                off = 0;
            }
            // Ensure a frame header, then the whole frame, is buffered.
            while buf.len() - off < RECORD_HEADER {
                if reader.fill(&mut buf).await? == 0 {
                    break 'scan; // region exhausted mid-frame: torn tail
                }
            }
            let total =
                u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]) as usize;
            if !(RECORD_HEADER..16 * 1024 * 1024).contains(&total) {
                break; // torn tail / end of log
            }
            while buf.len() - off < total {
                if reader.fill(&mut buf).await? == 0 {
                    break 'scan;
                }
            }
            match Record::decode(&buf[off..off + total], pos) {
                Some((rec, n)) => {
                    records.push((pos, rec));
                    off += n;
                    pos = pos.advance(n as u64);
                }
                None => break, // CRC/LSN failure: torn tail
            }
        }
        // Claim whatever the readahead window still has in flight.
        reader.abandon().await;
        let log_end = pos;

        // --- 2. Analysis --------------------------------------------------
        let mut committed: Vec<TxnId> = Vec::new();
        let mut ended: FastSet<TxnId> = FastSet::default();
        let mut last_lsn: BTreeMap<TxnId, Lsn> = BTreeMap::new();
        // The newest checkpoint's position and dirty-page table (page →
        // recLSN). Records older than the checkpoint touching pages that
        // were clean on media when it was taken need no redo.
        let mut ckpt: Option<(Lsn, FastMap<PageId, Lsn>)> = None;
        for (lsn, rec) in &records {
            match rec {
                Record::Checkpoint { active, dirty } => {
                    for (txn, l) in active {
                        if !ended.contains(txn) {
                            let e = last_lsn.entry(*txn).or_insert(*l);
                            *e = (*e).max(*l);
                        }
                    }
                    ckpt = Some((*lsn, dirty.iter().copied().collect()));
                }
                Record::Commit { txn } => {
                    committed.push(*txn);
                    ended.insert(*txn);
                    last_lsn.remove(txn);
                }
                Record::Abort { txn } => {
                    ended.insert(*txn);
                    last_lsn.remove(txn);
                }
                other => {
                    if let Some(txn) = other.txn() {
                        if !ended.contains(&txn) {
                            let e = last_lsn.entry(txn).or_insert(*lsn);
                            *e = (*e).max(*lsn);
                        }
                    }
                }
            }
        }
        let scan_done = ctx.now();

        // --- Reconstruct the WAL manager at the durable end ---------------
        let wal = Wal::new(
            ctx,
            Rc::clone(&log_dev),
            cfg.profile.commit_policy,
            log_end,
            sb.recovery_start,
            domain,
        );
        let tail_start = log_end.0 / SECTOR_SIZE as u64 * SECTOR_SIZE as u64;
        if tail_start < log_end.0 {
            let tail = read_stream(
                ctx,
                &log_dev,
                region_sectors,
                Lsn(tail_start),
                (log_end.0 - tail_start) as usize,
            )
            .await?;
            wal.preload_tail(&tail);
        }
        let pool = BufferPool::new(Rc::clone(&data_dev), wal.clone(), cfg.pool_pages);

        // --- 3. Redo -------------------------------------------------------
        // Partition the page-touching records into per-page chains (scan
        // order within a chain, so per-page LSN order is preserved — the
        // only ordering redo actually needs). The dirty-page-table filter
        // runs here, identically in both modes: a record older than the
        // newest checkpoint whose page is absent from the table (or below
        // its recLSN) describes a change that was already on stable media
        // when the checkpoint's cache barrier completed.
        let records = Rc::new(records);
        let mut chains: Vec<(PageId, Vec<usize>)> = Vec::new();
        let mut chain_of: FastMap<PageId, usize> = FastMap::default();
        let mut survives = vec![false; records.len()];
        let mut redo_skipped_clean = 0u64;
        for (idx, (lsn, rec)) in records.iter().enumerate() {
            let page = match rec {
                Record::FullPage { page, .. }
                | Record::Insert { page, .. }
                | Record::Update { page, .. }
                | Record::Delete { page, .. }
                | Record::Clr { page, .. } => *page,
                _ => continue,
            };
            if let Some((ckpt_lsn, dpt)) = &ckpt {
                if lsn < ckpt_lsn && dpt.get(&page).is_none_or(|rec_lsn| lsn < rec_lsn) {
                    redo_skipped_clean += 1;
                    continue;
                }
            }
            survives[idx] = true;
            let slot = *chain_of.entry(page).or_insert_with(|| {
                chains.push((page, Vec::new()));
                chains.len() - 1
            });
            chains[slot].1.push(idx);
        }
        let redo_applied = match cfg.recovery {
            RecoveryMode::Serial => {
                // The pinned reference: replay the surviving records one at
                // a time in log order.
                let mut applied = 0u64;
                for (idx, (lsn, rec)) in records.iter().enumerate() {
                    if survives[idx] && apply_page_record(&pool, &tables, *lsn, rec).await? {
                        applied += 1;
                    }
                }
                applied
            }
            RecoveryMode::Parallel => {
                // One task per page chain: chains touch disjoint pages, so
                // they replay concurrently, and their page reads overlap
                // across the device's channels. Joined via a countdown so
                // recovery proceeds only once every chain is done.
                let tables_rc = Rc::new(tables.clone());
                let applied = Rc::new(Cell::new(0u64));
                let pending = Rc::new(Cell::new(chains.len()));
                let failed: Rc<RefCell<Option<DbError>>> = Rc::new(RefCell::new(None));
                let all_done = Event::new();
                if pending.get() == 0 {
                    all_done.set();
                }
                for (_, chain) in chains.iter().cloned() {
                    let records = Rc::clone(&records);
                    let tables = Rc::clone(&tables_rc);
                    let pool = pool.clone();
                    let applied = Rc::clone(&applied);
                    let pending = Rc::clone(&pending);
                    let failed = Rc::clone(&failed);
                    let all_done = all_done.clone();
                    ctx.spawn_in(domain, async move {
                        for idx in chain {
                            let (lsn, rec) = &records[idx];
                            match apply_page_record(&pool, &tables, *lsn, rec).await {
                                Ok(true) => applied.set(applied.get() + 1),
                                Ok(false) => {}
                                Err(e) => {
                                    failed.borrow_mut().get_or_insert(e);
                                    break;
                                }
                            }
                        }
                        pending.set(pending.get() - 1);
                        if pending.get() == 0 {
                            all_done.set();
                        }
                    });
                }
                all_done.wait().await;
                if let Some(e) = failed.borrow_mut().take() {
                    return Err(e);
                }
                applied.get()
            }
        };
        let redo_done = ctx.now();

        // --- 4. Undo -------------------------------------------------------
        let losers: Vec<(TxnId, Lsn)> = last_lsn.into_iter().collect();
        // Index into the scan by reference: cloning every record here used
        // to duplicate the whole redo range (full-page images included)
        // just to serve a handful of undo-chain lookups.
        let scanned: FastMap<Lsn, &Record> = records.iter().map(|(lsn, rec)| (*lsn, rec)).collect();
        for (txn, mut at) in losers.clone() {
            while at != Lsn::ZERO {
                let fetched;
                let rec: &Record = match scanned.get(&at) {
                    Some(r) => r,
                    None => {
                        fetched = read_record_at(&wal, at).await?;
                        &fetched
                    }
                };
                let (clr, next) = match rec {
                    Record::Update {
                        prev,
                        page,
                        slot,
                        key,
                        before,
                        ..
                    } => (
                        Some(Record::Clr {
                            txn,
                            undo_next: *prev,
                            page: *page,
                            slot: *slot,
                            key: *key,
                            action: ClrAction::Restore(before.clone()),
                        }),
                        *prev,
                    ),
                    Record::Insert {
                        prev,
                        page,
                        slot,
                        key,
                        ..
                    } => (
                        Some(Record::Clr {
                            txn,
                            undo_next: *prev,
                            page: *page,
                            slot: *slot,
                            key: *key,
                            action: ClrAction::Clear,
                        }),
                        *prev,
                    ),
                    Record::Delete {
                        prev,
                        page,
                        slot,
                        key,
                        before,
                        ..
                    } => (
                        Some(Record::Clr {
                            txn,
                            undo_next: *prev,
                            page: *page,
                            slot: *slot,
                            key: *key,
                            action: ClrAction::Restore(before.clone()),
                        }),
                        *prev,
                    ),
                    // A CLR from a partially-completed rollback: skip to
                    // whatever it says is next; never undo an undo.
                    Record::Clr { undo_next, .. } => (None, *undo_next),
                    Record::Begin { .. } => (None, Lsn::ZERO),
                    other => {
                        return Err(DbError::Corrupt(format!(
                            "unexpected record in undo chain of {txn:?}: {other:?}"
                        )))
                    }
                };
                if let Some(clr) = clr {
                    let (clr_lsn, _) = wal.append(&clr)?;
                    apply_page_record(&pool, &tables, clr_lsn, &clr).await?;
                }
                at = next;
            }
            wal.append(&Record::Abort { txn })?;
        }
        wal.kick();
        let undo_done = ctx.now();

        // --- Rebuild the derived state (index, free lists) ----------------
        let db = Database::assemble(ctx, cfg, tables, wal, pool, Rc::clone(&log_dev));
        db.rebuild_index().await?;
        // Close recovery with a checkpoint: pages flushed, superblock moved.
        db.checkpoint().await?;
        db.start_background(domain);

        let report = RecoveryReport {
            scanned_records: records.len() as u64,
            redo_applied,
            redo_skipped_clean,
            losers_undone: losers.len() as u64,
            committed_seen: committed.len() as u64,
            log_end,
            duration: ctx.now() - t0,
            scan_time: scan_done - t0,
            redo_time: redo_done - scan_done,
            undo_time: undo_done - redo_done,
            committed_txns: committed,
        };
        Ok((db, report))
    }

    /// Scans every table page, rebuilding the key index and free lists.
    pub(crate) async fn rebuild_index(&self) -> DbResult<()> {
        let tables = self.inner.tables.clone();
        for meta in &tables {
            let mut max_flat: Option<u64> = None;
            let mut occupied: FastSet<u64> = FastSet::default();
            for p in 0..meta.n_pages {
                let pid = PageId(meta.base_page + p);
                let frame = self
                    .inner
                    .pool
                    .fetch(pid, meta.id, meta.slot_size, false)
                    .await?;
                let rows = frame.borrow().page.occupied();
                let mut st = self.inner.st.borrow_mut();
                for (slot, key) in rows {
                    let flat = p * meta.spp as u64 + slot as u64;
                    occupied.insert(flat);
                    max_flat = Some(max_flat.map_or(flat, |m: u64| m.max(flat)));
                    st.index
                        .insert((meta.id, key), crate::engine::SlotAddr { page: pid, slot });
                }
            }
            let high_water = max_flat.map_or(0, |m| m + 1);
            let mut st = self.inner.st.borrow_mut();
            let fs = &mut st.free[meta.id.0 as usize];
            fs.high_water = high_water;
            fs.freed = (0..high_water).filter(|f| !occupied.contains(f)).collect();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TableDef;
    use crate::page::PAGE_SECTORS;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;

    fn defs() -> Vec<TableDef> {
        vec![TableDef {
            name: "t".to_string(),
            slot_size: 64,
            max_rows: 1_000,
        }]
    }

    /// Runs `f` against a fresh db, then "crashes" (stop + drop), reopens,
    /// and hands the recovered db plus report to `check`.
    fn crash_and_recover<F, Fut, G, Gut>(f: F, check: G)
    where
        F: FnOnce(Database) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
        G: FnOnce(Database, RecoveryReport) -> Gut + 'static,
        Gut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs(),
                Rc::clone(&data) as Rc<dyn BlockDevice>,
                Rc::clone(&log) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            f(db.clone()).await;
            // Crash: the engine stops abruptly; dirty pages and the staged
            // WAL tail are simply gone with the process.
            db.stop();
            let (db2, report) = Database::open(
                &c2,
                DbConfig::default(),
                data as Rc<dyn BlockDevice>,
                log as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .expect("recovery");
            check(db2.clone(), report).await;
            db2.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get(), "scenario completed");
    }

    #[test]
    fn media_error_during_recovery_surfaces_typed() {
        // A grown defect under the catalog sector must fail `open` with a
        // typed `DbError::Io(MediaError)` — never a panic, and never a
        // silent success. (Transient errors, by contrast, are retried by
        // the engine's OS-block-layer wrapper and recovery proceeds.)
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs(),
                Rc::clone(&data) as Rc<dyn BlockDevice>,
                Rc::clone(&log) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, t, 1, b"row").await.unwrap();
            db.commit(txn).await.unwrap();
            db.stop();
            // The catalog sector develops an unreadable defect. (Snapshot
            // its bytes first: the remap below loses the sector contents,
            // like a real spare-sector remap does.)
            let mut catalog_sector = vec![0u8; SECTOR_SIZE];
            data.peek_media(0, &mut catalog_sector);
            data.mark_bad(0);
            let err = match Database::open(
                &c2,
                DbConfig::default(),
                Rc::clone(&data) as Rc<dyn BlockDevice>,
                Rc::clone(&log) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            {
                Ok(_) => panic!("an unreadable catalog cannot recover"),
                Err(e) => e,
            };
            assert_eq!(
                err,
                DbError::Io(rapilog_simdisk::IoError::MediaError { sector: 0 })
            );
            // Firmware remaps the sector (contents lost; restoring them
            // from the snapshot models re-writing from a backup): recovery
            // works again.
            assert!(data.remap(0));
            data.poke_media(0, &catalog_sector);
            let (db2, _) = Database::open(
                &c2,
                DbConfig::default(),
                data as Rc<dyn BlockDevice>,
                log as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .expect("recovery after remap");
            let t = db2.table("t").unwrap();
            assert_eq!(db2.get(t, 1).await.unwrap(), Some(b"row".to_vec()));
            db2.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn committed_transactions_survive() {
        crash_and_recover(
            |db| async move {
                let t = db.table("t").unwrap();
                for k in 0..20u64 {
                    let txn = db.begin().await.unwrap();
                    db.insert(txn, t, k, format!("val{k}").as_bytes())
                        .await
                        .unwrap();
                    db.commit(txn).await.unwrap();
                }
            },
            |db, report| async move {
                let t = db.table("t").unwrap();
                for k in 0..20u64 {
                    assert_eq!(
                        db.get(t, k).await.unwrap(),
                        Some(format!("val{k}").into_bytes()),
                        "row {k} lost"
                    );
                }
                assert_eq!(report.committed_seen, 20);
                assert_eq!(report.losers_undone, 0);
            },
        );
    }

    #[test]
    fn active_transaction_is_rolled_back() {
        crash_and_recover(
            |db| async move {
                let t = db.table("t").unwrap();
                let txn = db.begin().await.unwrap();
                db.insert(txn, t, 1, b"committed").await.unwrap();
                db.commit(txn).await.unwrap();
                // A loser: updates row 1, inserts row 2, never commits.
                let loser = db.begin().await.unwrap();
                db.update(loser, t, 1, b"dirty").await.unwrap();
                db.insert(loser, t, 2, b"ghost").await.unwrap();
                // Make sure the loser's records are durable so undo has
                // something real to chew on.
                db.wal().kick();
                db.wal().wait_durable(db.wal().end()).await.unwrap();
            },
            |db, report| async move {
                let t = db.table("t").unwrap();
                assert_eq!(db.get(t, 1).await.unwrap(), Some(b"committed".to_vec()));
                assert_eq!(db.get(t, 2).await.unwrap(), None, "ghost insert undone");
                assert_eq!(report.losers_undone, 1);
            },
        );
    }

    #[test]
    fn aborted_transaction_stays_aborted() {
        crash_and_recover(
            |db| async move {
                let t = db.table("t").unwrap();
                let txn = db.begin().await.unwrap();
                db.insert(txn, t, 5, b"base").await.unwrap();
                db.commit(txn).await.unwrap();
                let txn = db.begin().await.unwrap();
                db.update(txn, t, 5, b"oops").await.unwrap();
                db.abort(txn).await.unwrap();
                db.wal().kick();
                db.wal().wait_durable(db.wal().end()).await.unwrap();
            },
            |db, report| async move {
                let t = db.table("t").unwrap();
                assert_eq!(db.get(t, 5).await.unwrap(), Some(b"base".to_vec()));
                assert_eq!(report.losers_undone, 0, "abort already completed");
            },
        );
    }

    #[test]
    fn recovery_after_checkpoint_and_more_work() {
        crash_and_recover(
            |db| async move {
                let t = db.table("t").unwrap();
                for k in 0..10u64 {
                    let txn = db.begin().await.unwrap();
                    db.insert(txn, t, k, b"pre-ckpt").await.unwrap();
                    db.commit(txn).await.unwrap();
                }
                db.checkpoint().await.unwrap();
                for k in 10..20u64 {
                    let txn = db.begin().await.unwrap();
                    db.insert(txn, t, k, b"post-ckpt").await.unwrap();
                    db.commit(txn).await.unwrap();
                }
                let txn = db.begin().await.unwrap();
                db.delete(txn, t, 0).await.unwrap();
                db.commit(txn).await.unwrap();
            },
            |db, _report| async move {
                let t = db.table("t").unwrap();
                assert_eq!(db.get(t, 0).await.unwrap(), None);
                for k in 1..20u64 {
                    assert!(db.get(t, k).await.unwrap().is_some(), "row {k} lost");
                }
                assert_eq!(db.row_count(t), 19);
            },
        );
    }

    #[test]
    fn torn_data_page_rebuilt_from_full_page_image() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Disk::new(&c2, specs::instant(64 << 20));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs(),
                Rc::new(data.clone()) as Rc<dyn BlockDevice>,
                Rc::clone(&log) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, t, 1, b"precious").await.unwrap();
            db.commit(txn).await.unwrap();
            // Force the page out so media holds a valid copy, then plant a
            // torn write over it.
            db.checkpoint().await.unwrap();
            // More committed work on the same page after the checkpoint
            // (guarantees a fresh FPW in the redo range).
            let txn = db.begin().await.unwrap();
            db.update(txn, t, 1, b"updated").await.unwrap();
            db.commit(txn).await.unwrap();
            db.stop();
            // Tear the page on media: garbage in its middle sector.
            let meta = db.table_meta(t).unwrap();
            let first_page_sector = meta.base_page * PAGE_SECTORS;
            data.poke_media(first_page_sector + 3, &vec![0xEE; 512]);
            let (db2, report) = Database::open(
                &c2,
                DbConfig::default(),
                Rc::new(data.clone()) as Rc<dyn BlockDevice>,
                log as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .expect("recovery survives the torn page");
            assert_eq!(db2.get(t, 1).await.unwrap(), Some(b"updated".to_vec()));
            assert!(report.redo_applied >= 1);
            db2.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn double_recovery_is_idempotent() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs(),
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, t, 77, b"x").await.unwrap();
            db.commit(txn).await.unwrap();
            let loser = db.begin().await.unwrap();
            db.update(loser, t, 77, b"y").await.unwrap();
            db.wal().kick();
            db.wal().wait_durable(db.wal().end()).await.unwrap();
            db.stop();
            let (db2, _) = Database::open(
                &c2,
                DbConfig::default(),
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            db2.stop();
            let (db3, report) = Database::open(
                &c2,
                DbConfig::default(),
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            assert_eq!(db3.get(t, 77).await.unwrap(), Some(b"x".to_vec()));
            assert_eq!(report.losers_undone, 0, "first recovery finished the job");
            db3.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}

#[cfg(test)]
mod checkpoint_spanning_tests {
    use super::*;
    use crate::engine::TableDef;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    /// A transaction that began *before* a checkpoint and wrote nothing
    /// after it is invisible to the redo scan — only the checkpoint
    /// record's active-transaction list knows it must be rolled back.
    #[test]
    fn loser_spanning_a_checkpoint_is_rolled_back_via_the_active_list() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 100,
            }];
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs,
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let setup = db.begin().await.unwrap();
            db.insert(setup, t, 1, b"base").await.unwrap();
            db.commit(setup).await.unwrap();
            // The long transaction: writes before the checkpoint, then
            // stays silent.
            let long = db.begin().await.unwrap();
            db.update(long, t, 1, b"dirty-from-long-txn").await.unwrap();
            db.wal().kick();
            db.wal().wait_durable(db.wal().end()).await.unwrap();
            // Checkpoint while `long` is active: its last LSN enters the
            // checkpoint record; the redo scan starts after its records.
            db.checkpoint().await.unwrap();
            // Unrelated committed work after the checkpoint.
            let other = db.begin().await.unwrap();
            db.insert(other, t, 2, b"after-ckpt").await.unwrap();
            db.commit(other).await.unwrap();
            // Crash with `long` still open.
            db.stop();
            let (db2, report) = Database::open(&c2, DbConfig::default(), data, log, DomainId::ROOT)
                .await
                .expect("recovery");
            assert_eq!(
                report.losers_undone, 1,
                "the spanning transaction was identified from the checkpoint's active list"
            );
            assert_eq!(
                db2.get(t, 1).await.unwrap(),
                Some(b"base".to_vec()),
                "the pre-checkpoint dirty write was undone via the chain below the redo horizon"
            );
            assert_eq!(db2.get(t, 2).await.unwrap(), Some(b"after-ckpt".to_vec()));
            db2.stop();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(30));
        assert!(done.get());
    }

    /// Media corruption in the middle of the durable log truncates
    /// recovery at the last valid prefix instead of crashing it.
    #[test]
    fn mid_log_corruption_truncates_the_scan_cleanly() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log_disk = Disk::new(&c2, specs::instant(64 << 20));
            let log: Rc<dyn BlockDevice> = Rc::new(log_disk.clone());
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 100,
            }];
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs,
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            for k in 0..10u64 {
                let txn = db.begin().await.unwrap();
                db.insert(txn, t, k, b"v").await.unwrap();
                db.commit(txn).await.unwrap();
            }
            let end = db.wal().end();
            db.stop();
            // Smash the tail of the durable log (the stream lives from
            // sector 1; corrupt the last written sector).
            let last_sector = 1 + (end.0 / 512).saturating_sub(1);
            log_disk.poke_media(last_sector, &vec![0xBD; 512]);
            let (db2, report) = Database::open(&c2, DbConfig::default(), data, log, DomainId::ROOT)
                .await
                .expect("recovery survives mid-log corruption");
            assert!(report.log_end < end, "scan truncated at the damage");
            // Early committed keys (whose records precede the damage) are
            // intact.
            assert_eq!(db2.get(t, 0).await.unwrap(), Some(b"v".to_vec()));
            db2.stop();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(30));
        assert!(done.get());
    }
}

#[cfg(test)]
mod parity_tests {
    use super::*;
    use crate::engine::TableDef;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, Disk, DiskSpec};
    use std::cell::Cell as StdCell;

    /// Deterministic multiplier-increment generator so every trial replays
    /// bit-identically from its seed.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn nvme(bytes: u64) -> DiskSpec {
        specs::ssd_nvme(bytes).with_channels(4)
    }

    /// The durable media contents, cache excluded — exactly what a crash
    /// leaves behind.
    fn media_image(d: &Disk) -> Vec<u8> {
        let mut buf = vec![0u8; (d.spec().sectors * SECTOR_SIZE as u64) as usize];
        d.peek_media(0, &mut buf);
        buf
    }

    /// One random workload → crash → recover the **same** media snapshot
    /// under both modes, then compare report counters and the media images
    /// both recoveries leave behind.
    fn parity_trial(seed: u64) {
        let mut sim = Sim::new(seed);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
            let cfg = DbConfig {
                // Cover both checkpoint flavours across the trial set.
                fuzzy_checkpoints: seed.is_multiple_of(2),
                ..Default::default()
            };
            let data = Disk::new(&c2, nvme(4 << 20));
            let log = Disk::new(&c2, nvme(4 << 20));
            let defs = vec![TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 2_000,
            }];
            let db = Database::create(
                &c2,
                cfg.clone(),
                &defs,
                Rc::new(data.clone()) as Rc<dyn BlockDevice>,
                Rc::new(log.clone()) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let mut alive: Vec<u64> = Vec::new();
            let mut next_key = 0u64;
            let txn = db.begin().await.unwrap();
            for _ in 0..30 {
                db.insert(txn, t, next_key, format!("base{next_key}").as_bytes())
                    .await
                    .unwrap();
                alive.push(next_key);
                next_key += 1;
            }
            db.commit(txn).await.unwrap();
            let ops = 40 + rng.next() % 60;
            // Half the trials crash without any mid-run checkpoint.
            let ckpt_at = rng.next() % (ops * 2);
            for i in 0..ops {
                if i == ckpt_at {
                    db.checkpoint().await.unwrap();
                }
                let txn = db.begin().await.unwrap();
                match rng.next() % 3 {
                    0 => {
                        db.insert(txn, t, next_key, format!("i{seed}-{i}").as_bytes())
                            .await
                            .unwrap();
                        alive.push(next_key);
                        next_key += 1;
                    }
                    1 => {
                        let k = alive[rng.next() as usize % alive.len()];
                        db.update(txn, t, k, format!("u{seed}-{i}").as_bytes())
                            .await
                            .unwrap();
                    }
                    _ => {
                        let k = alive.swap_remove(rng.next() as usize % alive.len());
                        db.delete(txn, t, k).await.unwrap();
                    }
                }
                db.commit(txn).await.unwrap();
            }
            // Leave a few losers open at the crash (distinct keys, so they
            // never deadlock each other).
            for j in 0..(rng.next() % 3) as usize {
                if j >= alive.len() {
                    break;
                }
                let loser = db.begin().await.unwrap();
                db.update(loser, t, alive[j], b"loser-dirt").await.unwrap();
            }
            db.wal().kick();
            if rng.next().is_multiple_of(2) {
                db.wal().wait_durable(db.wal().end()).await.unwrap();
            }
            db.stop();
            // Crash: the buffer pool and staged WAL tail die with the
            // process; only the durable media survives. Snapshot it and
            // recover the same image under each mode.
            let data_img = media_image(&data);
            let log_img = media_image(&log);
            let mut outcomes = Vec::new();
            for mode in [RecoveryMode::Serial, RecoveryMode::Parallel] {
                let rdata = Disk::new(&c2, nvme(4 << 20));
                let rlog = Disk::new(&c2, nvme(4 << 20));
                rdata.poke_media(0, &data_img);
                rlog.poke_media(0, &log_img);
                let mut rcfg = cfg.clone();
                rcfg.recovery = mode;
                let (rdb, report) = Database::open(
                    &c2,
                    rcfg,
                    Rc::new(rdata.clone()) as Rc<dyn BlockDevice>,
                    Rc::new(rlog.clone()) as Rc<dyn BlockDevice>,
                    DomainId::ROOT,
                )
                .await
                .expect("recovery");
                rdb.stop();
                outcomes.push((report.counters(), media_image(&rdata), media_image(&rlog)));
            }
            assert_eq!(
                outcomes[0].0, outcomes[1].0,
                "seed {seed}: report counters diverge between serial and parallel recovery"
            );
            assert!(
                outcomes[0].1 == outcomes[1].1,
                "seed {seed}: recovered data media images diverge"
            );
            assert!(
                outcomes[0].2 == outcomes[1].2,
                "seed {seed}: recovered log media images diverge"
            );
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(120));
        assert!(done.get(), "seed {seed}: trial completed");
    }

    /// Serial and parallel recovery of the same crash image are
    /// indistinguishable — counter-identical reports, byte-identical media —
    /// across random crash points (random op mixes, checkpoint positions,
    /// open losers, and torn vs durable log tails).
    #[test]
    fn serial_and_parallel_recovery_agree() {
        for seed in [2, 3, 17, 42, 71, 104] {
            parity_trial(seed);
        }
    }

    /// A dirty-page-table entry goes stale when its page reaches media
    /// *after* the checkpoint record was written. Redo must rescan that
    /// page's records (they survive the DPT filter) but apply none of them
    /// — and records under clean pages in the same scan window are skipped
    /// without even a page read.
    #[test]
    fn stale_dirty_page_table_entry_is_skipped_by_redo() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let cfg = DbConfig::default(); // fuzzy checkpoints on
            let data = Disk::new(&c2, nvme(8 << 20));
            let log = Disk::new(&c2, nvme(8 << 20));
            let defs = vec![TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 2_000,
            }];
            let db = Database::create(
                &c2,
                cfg.clone(),
                &defs,
                Rc::new(data.clone()) as Rc<dyn BlockDevice>,
                Rc::new(log.clone()) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let meta = db.table_meta(t).unwrap();
            let spp = meta.spp as u64;
            // Slots are allocated sequentially, so key k lands on page
            // k / spp. Populate pages 0..=7; key B sits alone on page 7.
            let b_key = 7 * spp;
            let txn = db.begin().await.unwrap();
            for k in 0..=b_key {
                db.insert(txn, t, k, format!("init{k}").as_bytes())
                    .await
                    .unwrap();
            }
            db.commit(txn).await.unwrap();
            // First checkpoint: everything clean on media.
            db.checkpoint().await.unwrap();
            // Dirty pages 0..=5 (the checkpoint below must have real work,
            // so a concurrent update can land inside its flush window).
            let c_key = 6 * spp - 1; // last slot of page 5: flushed last
            let txn = db.begin().await.unwrap();
            for k in 0..=c_key {
                db.update(txn, t, k, format!("v1-{k}").as_bytes())
                    .await
                    .unwrap();
            }
            db.commit(txn).await.unwrap();
            // While the fuzzy checkpoint flushes its snapshot, a client
            // dirties page 7 (key B: clean → dirty, enters the DPT) and
            // re-dirties page 5 (key C: flushed later in the same pass, so
            // it is clean again when the DPT is captured).
            let window_done = Event::new();
            let dbw = db.clone();
            let wd = window_done.clone();
            let cw = c2.clone();
            c2.spawn_in(DomainId::ROOT, async move {
                cw.sleep(SimDuration::from_micros(5)).await;
                let txn = dbw.begin().await.unwrap();
                dbw.update(txn, t, b_key, b"b1").await.unwrap();
                dbw.update(txn, t, c_key, b"c1").await.unwrap();
                dbw.commit(txn).await.unwrap();
                wd.set();
            });
            db.checkpoint().await.unwrap();
            window_done.wait().await;
            // The checkpoint record's DPT must have caught page 7 dirty —
            // otherwise this test exercises nothing.
            let dirty = db.inner.pool.dirty_page_table();
            assert_eq!(
                dirty.len(),
                1,
                "exactly page 7 (key B) stayed dirty through the fuzzy checkpoint: {dirty:?}"
            );
            assert_eq!(dirty[0].0, PageId(meta.base_page + 7));
            // Now make that DPT entry stale: flush page 7 to durable media
            // *after* the checkpoint record was written.
            db.inner.pool.flush_pages(&dirty).await.unwrap();
            db.inner.pool.barrier().await.unwrap();
            db.wal().kick();
            db.wal().wait_durable(db.wal().end()).await.unwrap();
            db.stop();
            // Crash and recover from the durable image alone.
            let data_img = media_image(&data);
            let log_img = media_image(&log);
            let rdata = Disk::new(&c2, nvme(8 << 20));
            let rlog = Disk::new(&c2, nvme(8 << 20));
            rdata.poke_media(0, &data_img);
            rlog.poke_media(0, &log_img);
            let (rdb, report) = Database::open(
                &c2,
                cfg,
                Rc::new(rdata.clone()) as Rc<dyn BlockDevice>,
                Rc::new(rlog.clone()) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .expect("recovery");
            // Page B's records survive the DPT filter (its entry says
            // dirty), but the page's on-media LSN is already current, so
            // redo applies nothing.
            assert_eq!(
                report.redo_applied, 0,
                "the stale entry's page was flushed after the checkpoint — nothing to replay"
            );
            // Page C's pre-checkpoint update was proven clean by the DPT
            // and skipped without a page read.
            assert!(
                report.redo_skipped_clean >= 1,
                "the clean page's scanned records were skipped: {report:?}"
            );
            assert_eq!(rdb.get(t, b_key).await.unwrap(), Some(b"b1".to_vec()));
            assert_eq!(rdb.get(t, c_key).await.unwrap(), Some(b"c1".to_vec()));
            assert_eq!(rdb.get(t, 0).await.unwrap(), Some(b"v1-0".to_vec()));
            rdb.stop();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(60));
        assert!(done.get());
    }
}
