//! Write-ahead log: record format, group-commit writer, reader.
//!
//! The log is a byte stream addressed by [`Lsn`] (byte offset), stored
//! circularly in a region of the log device starting at sector 1 (sector 0
//! holds the [`Superblock`]). Every record carries its own LSN and a CRC,
//! which gives the torn-tail rule on recovery: scan forward validating
//! `crc` and `lsn == expected`; the first failure is the end of the durable
//! log. Everything the engine acknowledged as committed lies before that
//! point **iff** the commit record was durable — exactly the property the
//! durability audit checks.
//!
//! # Commit policies
//!
//! The flusher task turns staged bytes into FUA device writes, on demand:
//! it writes only while some caller has asked for more durability than it
//! has delivered — [`Wal::wait_durable`]/[`Wal::flush_to`] up to an LSN, or
//! [`Wal::kick`] up to the current end — as PostgreSQL's `XLogFlush` does.
//! Records nobody waits for (a transaction's updates before its commit)
//! stay staged and ride the next requested flush, which always takes every
//! staged byte. While one write is in flight, later appends accumulate and
//! ride the next write — the *natural group commit* every engine exhibits
//! under concurrency. An explicit `group_delay` (PostgreSQL's
//! `commit_delay`) can force extra batching; `wait_for_durable = false`
//! models the unsafe `synchronous_commit = off` configuration used as an
//! ablation (its commits still kick, so they reach media unwaited).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rapilog_simcore::bytes::{SectorBuf, SectorPool};
use rapilog_simcore::sync::Notify;
use rapilog_simcore::trace::{Layer, Payload, Tracer};
use rapilog_simcore::{JoinHandle, SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, IoReq, IoResult, SECTOR_SIZE};

use crate::error::{DbError, DbResult};
use crate::types::{Lsn, PageId, TableId, TxnId};
use crate::util::{crc32, put_bytes, put_u16, put_u32, put_u64, Cursor};

/// Fixed bytes before the payload: len(4) + crc(4) + lsn(8) + kind(1).
pub(crate) const RECORD_HEADER: usize = 17;
/// First device sector of the circular log region.
const LOG_BASE_SECTOR: u64 = 1;

/// What a CLR does when replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClrAction {
    /// Restore a slot to these bytes (undo of update/delete).
    Restore(Vec<u8>),
    /// Clear the slot (undo of insert).
    Clear,
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Transaction start.
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// Transaction commit — the durability point.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// Transaction abort (rollback completed).
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// Physical slot update.
    Update {
        /// The transaction.
        txn: TxnId,
        /// Previous record of the same transaction (undo chain).
        prev: Lsn,
        /// Table owning the slot.
        table: TableId,
        /// Page holding the slot.
        page: PageId,
        /// Slot index within the page.
        slot: u16,
        /// Row key (for audits; the slot also stores it).
        key: u64,
        /// Before-image of the row bytes.
        before: Vec<u8>,
        /// After-image of the row bytes.
        after: Vec<u8>,
    },
    /// Physical slot insert.
    Insert {
        /// The transaction.
        txn: TxnId,
        /// Undo-chain predecessor.
        prev: Lsn,
        /// Table owning the slot.
        table: TableId,
        /// Page holding the slot.
        page: PageId,
        /// Slot index within the page.
        slot: u16,
        /// Row key.
        key: u64,
        /// Row bytes.
        after: Vec<u8>,
    },
    /// Physical slot delete.
    Delete {
        /// The transaction.
        txn: TxnId,
        /// Undo-chain predecessor.
        prev: Lsn,
        /// Table owning the slot.
        table: TableId,
        /// Page holding the slot.
        page: PageId,
        /// Slot index within the page.
        slot: u16,
        /// Row key.
        key: u64,
        /// Before-image of the row bytes.
        before: Vec<u8>,
    },
    /// Compensation log record: one undo step, never itself undone.
    Clr {
        /// The transaction being rolled back.
        txn: TxnId,
        /// Next record to undo (the undone record's `prev`).
        undo_next: Lsn,
        /// Page holding the slot.
        page: PageId,
        /// Slot index within the page.
        slot: u16,
        /// Row key.
        key: u64,
        /// What to do to the slot.
        action: ClrAction,
    },
    /// Fuzzy checkpoint: records the transactions active at the checkpoint
    /// and the buffer pool's dirty-page table (page → recLSN, the LSN of the
    /// first record that dirtied the page since it was last clean). Redo must
    /// start at `min(recLSN)` over the table (the superblock stores that
    /// bound); pages absent from the table were clean on media when the
    /// checkpoint was taken.
    Checkpoint {
        /// Transactions active at the checkpoint with their last LSN.
        active: Vec<(TxnId, Lsn)>,
        /// Dirty-page table: pages not yet flushed, with their recLSN.
        dirty: Vec<(PageId, Lsn)>,
    },
    /// Full-page image (first modification after a checkpoint); makes torn
    /// data pages recoverable, as PostgreSQL's `full_page_writes` does.
    FullPage {
        /// The page.
        page: PageId,
        /// Complete page image (post-modification).
        image: Vec<u8>,
    },
}

impl Record {
    fn kind(&self) -> u8 {
        match self {
            Record::Begin { .. } => 1,
            Record::Commit { .. } => 2,
            Record::Abort { .. } => 3,
            Record::Update { .. } => 4,
            Record::Insert { .. } => 5,
            Record::Delete { .. } => 6,
            Record::Clr { .. } => 7,
            Record::Checkpoint { .. } => 8,
            Record::FullPage { .. } => 9,
        }
    }

    /// The transaction a record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            Record::Begin { txn }
            | Record::Commit { txn }
            | Record::Abort { txn }
            | Record::Update { txn, .. }
            | Record::Insert { txn, .. }
            | Record::Delete { txn, .. }
            | Record::Clr { txn, .. } => Some(*txn),
            Record::Checkpoint { .. } | Record::FullPage { .. } => None,
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Record::Begin { txn } | Record::Commit { txn } | Record::Abort { txn } => {
                put_u64(buf, txn.0);
            }
            Record::Update {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                before,
                after,
            } => {
                put_u64(buf, txn.0);
                put_u64(buf, prev.0);
                put_u16(buf, table.0);
                put_u64(buf, page.0);
                put_u16(buf, *slot);
                put_u64(buf, *key);
                put_bytes(buf, before);
                put_bytes(buf, after);
            }
            Record::Insert {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                after,
            } => {
                put_u64(buf, txn.0);
                put_u64(buf, prev.0);
                put_u16(buf, table.0);
                put_u64(buf, page.0);
                put_u16(buf, *slot);
                put_u64(buf, *key);
                put_bytes(buf, after);
            }
            Record::Delete {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                before,
            } => {
                put_u64(buf, txn.0);
                put_u64(buf, prev.0);
                put_u16(buf, table.0);
                put_u64(buf, page.0);
                put_u16(buf, *slot);
                put_u64(buf, *key);
                put_bytes(buf, before);
            }
            Record::Clr {
                txn,
                undo_next,
                page,
                slot,
                key,
                action,
            } => {
                put_u64(buf, txn.0);
                put_u64(buf, undo_next.0);
                put_u64(buf, page.0);
                put_u16(buf, *slot);
                put_u64(buf, *key);
                match action {
                    ClrAction::Clear => buf.push(0),
                    ClrAction::Restore(bytes) => {
                        buf.push(1);
                        put_bytes(buf, bytes);
                    }
                }
            }
            Record::Checkpoint { active, dirty } => {
                put_u32(buf, active.len() as u32);
                for (txn, lsn) in active {
                    put_u64(buf, txn.0);
                    put_u64(buf, lsn.0);
                }
                put_u32(buf, dirty.len() as u32);
                for (page, rec_lsn) in dirty {
                    put_u64(buf, page.0);
                    put_u64(buf, rec_lsn.0);
                }
            }
            Record::FullPage { page, image } => {
                put_u64(buf, page.0);
                put_bytes(buf, image);
            }
        }
    }

    fn decode_payload(kind: u8, payload: &[u8]) -> Option<Record> {
        let mut c = Cursor::new(payload);
        let rec = match kind {
            1 => Record::Begin {
                txn: TxnId(c.u64()?),
            },
            2 => Record::Commit {
                txn: TxnId(c.u64()?),
            },
            3 => Record::Abort {
                txn: TxnId(c.u64()?),
            },
            4 => Record::Update {
                txn: TxnId(c.u64()?),
                prev: Lsn(c.u64()?),
                table: TableId(c.u16()?),
                page: PageId(c.u64()?),
                slot: c.u16()?,
                key: c.u64()?,
                before: c.bytes()?,
                after: c.bytes()?,
            },
            5 => Record::Insert {
                txn: TxnId(c.u64()?),
                prev: Lsn(c.u64()?),
                table: TableId(c.u16()?),
                page: PageId(c.u64()?),
                slot: c.u16()?,
                key: c.u64()?,
                after: c.bytes()?,
            },
            6 => Record::Delete {
                txn: TxnId(c.u64()?),
                prev: Lsn(c.u64()?),
                table: TableId(c.u16()?),
                page: PageId(c.u64()?),
                slot: c.u16()?,
                key: c.u64()?,
                before: c.bytes()?,
            },
            7 => Record::Clr {
                txn: TxnId(c.u64()?),
                undo_next: Lsn(c.u64()?),
                page: PageId(c.u64()?),
                slot: c.u16()?,
                key: c.u64()?,
                action: match c.u8()? {
                    0 => ClrAction::Clear,
                    1 => ClrAction::Restore(c.bytes()?),
                    _ => return None,
                },
            },
            8 => {
                let n = c.u32()? as usize;
                let mut active = Vec::with_capacity(n);
                for _ in 0..n {
                    active.push((TxnId(c.u64()?), Lsn(c.u64()?)));
                }
                let d = c.u32()? as usize;
                let mut dirty = Vec::with_capacity(d);
                for _ in 0..d {
                    dirty.push((PageId(c.u64()?), Lsn(c.u64()?)));
                }
                Record::Checkpoint { active, dirty }
            }
            9 => Record::FullPage {
                page: PageId(c.u64()?),
                image: c.bytes()?,
            },
            _ => return None,
        };
        if c.remaining() != 0 {
            return None;
        }
        Some(rec)
    }

    /// Encodes the full framed record at `lsn`, appending to `out` in
    /// place (no intermediate allocation — this is the WAL staging hot
    /// path). Returns the encoded length.
    pub fn encode_into(&self, lsn: Lsn, out: &mut Vec<u8>) -> usize {
        let base = out.len();
        put_u32(out, 0); // len placeholder
        put_u32(out, 0); // crc placeholder
        put_u64(out, lsn.0);
        out.push(self.kind());
        self.encode_payload(out);
        let total = out.len() - base;
        out[base..base + 4].copy_from_slice(&(total as u32).to_le_bytes());
        let crc = crc32(&out[base + 8..]);
        out[base + 4..base + 8].copy_from_slice(&crc.to_le_bytes());
        total
    }

    /// Encodes the full framed record at `lsn`.
    pub fn encode(&self, lsn: Lsn) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(lsn, &mut out);
        out
    }

    /// Decodes one framed record from the front of `data`, verifying frame
    /// length, CRC, and that the embedded LSN equals `expected_lsn`.
    /// Returns the record and its total encoded length.
    pub fn decode(data: &[u8], expected_lsn: Lsn) -> Option<(Record, usize)> {
        if data.len() < RECORD_HEADER {
            return None;
        }
        let total = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
        if total < RECORD_HEADER || total > data.len() {
            return None;
        }
        let stored_crc = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        if crc32(&data[8..total]) != stored_crc {
            return None;
        }
        let lsn = u64::from_le_bytes([
            data[8], data[9], data[10], data[11], data[12], data[13], data[14], data[15],
        ]);
        if lsn != expected_lsn.0 {
            return None;
        }
        let kind = data[16];
        let rec = Record::decode_payload(kind, &data[RECORD_HEADER..total])?;
        Some((rec, total))
    }

    /// Length the record will occupy in the stream.
    pub fn encoded_len(&self) -> usize {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload);
        RECORD_HEADER + payload.len()
    }
}

/// How commits interact with log flushing.
#[derive(Debug, Clone, Copy)]
pub struct CommitPolicy {
    /// Extra wait before each flush to accumulate a batch (PostgreSQL's
    /// `commit_delay`). Zero disables.
    pub group_delay: SimDuration,
    /// If false, `commit` returns before the record is durable
    /// (`synchronous_commit = off`): fast and **unsafe** — the durability
    /// audit demonstrates the loss.
    pub wait_for_durable: bool,
}

impl Default for CommitPolicy {
    fn default() -> Self {
        CommitPolicy {
            group_delay: SimDuration::ZERO,
            wait_for_durable: true,
        }
    }
}

/// Cumulative WAL statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// Device flush operations (group-commit batches).
    pub flushes: u64,
    /// Records that were commits.
    pub commits: u64,
}

struct WalSt {
    /// Next byte to be assigned.
    next: Lsn,
    /// Staged-but-unflushed bytes; starts at the sector floor of `durable`.
    buf: Vec<u8>,
    /// Stream offset of `buf[0]` (sector aligned).
    buf_start: Lsn,
    /// Everything below is on the device.
    durable: Lsn,
    /// Highest LSN a caller has asked to be durable; the flusher writes
    /// only while this is above `durable`.
    requested: Lsn,
    /// Oldest byte that must remain readable (checkpoint/undo horizon).
    recovery_start: Lsn,
    stopped: bool,
    stats: WalStats,
}

/// The write-ahead log manager. Cheap to clone.
#[derive(Clone)]
pub struct Wal {
    inner: Rc<WalInner>,
}

struct WalInner {
    ctx: SimCtx,
    dev: Rc<dyn BlockDevice>,
    region_sectors: u64,
    policy: CommitPolicy,
    st: RefCell<WalSt>,
    kick: Notify,
    durable_changed: Notify,
    tracer: Rc<Tracer>,
    /// Recycled flush buffers: in steady state each group commit reuses an
    /// allocation instead of growing a fresh `Vec` per batch.
    pool: SectorPool,
}

impl Wal {
    /// Creates the WAL manager over `dev`, with the stream starting at
    /// `start` (0 for a fresh database, the recovered end for reopen).
    /// `spawn_domain` decides which cancellation domain the flusher task
    /// lives in — the DBMS's own domain, so a guest crash kills it.
    pub fn new(
        ctx: &SimCtx,
        dev: Rc<dyn BlockDevice>,
        policy: CommitPolicy,
        start: Lsn,
        recovery_start: Lsn,
        spawn_domain: rapilog_simcore::DomainId,
    ) -> Wal {
        let region_sectors = dev.geometry().sectors - LOG_BASE_SECTOR;
        assert!(region_sectors > 2, "log device too small");
        let buf_start = Lsn(start.0 / SECTOR_SIZE as u64 * SECTOR_SIZE as u64);
        let inner = Rc::new(WalInner {
            ctx: ctx.clone(),
            dev,
            region_sectors,
            policy,
            st: RefCell::new(WalSt {
                next: start,
                buf: Vec::new(),
                buf_start,
                durable: start,
                requested: start,
                recovery_start,
                stopped: false,
                stats: WalStats::default(),
            }),
            kick: Notify::new(),
            durable_changed: Notify::new(),
            tracer: ctx.tracer(),
            pool: SectorPool::new(),
        });
        // Preload the partial tail sector so rewrites keep earlier bytes.
        // At `new` time nothing is staged, so this is only needed when
        // reopening mid-sector; the caller (recovery) passes the tail bytes
        // via `preload_tail` instead, keeping `new` synchronous.
        let flusher = Rc::clone(&inner);
        ctx.spawn_in(spawn_domain, async move {
            flusher_loop(flusher).await;
        });
        Wal { inner }
    }

    /// Injects the bytes of the current partial tail sector (recovery path:
    /// the stream does not end on a sector boundary, and future flushes
    /// rewrite that sector).
    ///
    /// # Panics
    ///
    /// Panics if bytes have already been staged.
    pub fn preload_tail(&self, tail: &[u8]) {
        let mut st = self.inner.st.borrow_mut();
        assert!(st.buf.is_empty(), "preload_tail after staging");
        assert_eq!(
            st.buf_start.0 + tail.len() as u64,
            st.next.0,
            "tail does not line up with the stream position"
        );
        st.buf = tail.to_vec();
    }

    /// Current end of the stream (next LSN to be assigned).
    pub fn end(&self) -> Lsn {
        self.inner.st.borrow().next
    }

    /// Highest durable LSN.
    pub fn durable(&self) -> Lsn {
        self.inner.st.borrow().durable
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> WalStats {
        self.inner.st.borrow().stats
    }

    /// The commit policy in force.
    pub fn policy(&self) -> CommitPolicy {
        self.inner.policy
    }

    /// Raises the truncation horizon (checkpointer only).
    pub fn set_recovery_start(&self, lsn: Lsn) {
        let mut st = self.inner.st.borrow_mut();
        assert!(lsn >= st.recovery_start, "recovery horizon moved backwards");
        st.recovery_start = lsn;
    }

    /// Marks the WAL stopped (device dead / shutdown); wakes all waiters
    /// with [`DbError::Stopped`].
    pub fn stop(&self) {
        self.inner.st.borrow_mut().stopped = true;
        self.inner.durable_changed.notify_all();
        self.inner.kick.notify_one();
    }

    /// Appends a record, returning `(start, end)` LSNs. The record is
    /// staged only; durability requires [`Wal::wait_durable`] /
    /// [`Wal::flush_to`]. Fails with [`DbError::Stopped`] once the WAL is
    /// stopped (crash/shutdown) so in-flight operations unwind cleanly.
    ///
    /// # Panics
    ///
    /// Panics if the log region is exhausted (checkpointing misconfigured).
    pub fn append(&self, rec: &Record) -> DbResult<(Lsn, Lsn)> {
        let mut st = self.inner.st.borrow_mut();
        if st.stopped {
            return Err(DbError::Stopped);
        }
        let lsn = st.next;
        // Frame the record directly into the staging buffer: no
        // per-record temporaries on the commit hot path.
        let staged = rec.encode_into(lsn, &mut st.buf) as u64;
        let region_bytes = self.inner.region_sectors * SECTOR_SIZE as u64;
        let used = lsn.0 + staged - st.recovery_start.0;
        assert!(
            used + SECTOR_SIZE as u64 <= region_bytes,
            "log region exhausted ({used} of {region_bytes} bytes): \
             increase log_region or checkpoint more often"
        );
        st.next = lsn.advance(staged);
        st.stats.records += 1;
        st.stats.bytes += staged;
        if matches!(rec, Record::Commit { .. }) {
            st.stats.commits += 1;
        }
        let end = st.next;
        drop(st);
        self.inner.tracer.instant(
            self.inner.ctx.now(),
            Layer::Wal,
            "append",
            Payload::Wal {
                lsn: lsn.0,
                bytes: staged,
                records: 1,
            },
        );
        Ok((lsn, end))
    }

    /// Requests a flush of everything appended so far without waiting for
    /// it (the flusher batches).
    pub fn kick(&self) {
        let end = self.end();
        self.request(end);
    }

    /// Raises the requested-durability mark to `upto` and wakes the
    /// flusher if that asks for more than it has delivered.
    fn request(&self, upto: Lsn) {
        let mut st = self.inner.st.borrow_mut();
        if upto > st.requested {
            st.requested = upto;
        }
        if st.requested > st.durable {
            drop(st);
            self.inner.kick.notify_one();
        }
    }

    /// Waits until everything below `upto` is durable. An `upto` beyond
    /// the current stream end is clamped to it (waits for everything
    /// appended so far).
    pub async fn wait_durable(&self, upto: Lsn) -> DbResult<()> {
        let upto = upto.min(self.end());
        loop {
            {
                let st = self.inner.st.borrow();
                if st.durable >= upto {
                    return Ok(());
                }
                if st.stopped {
                    return Err(DbError::Stopped);
                }
            }
            self.request(upto);
            self.inner.durable_changed.notified().await;
        }
    }

    /// Forces the log through `upto` (WAL-before-data rule).
    pub async fn flush_to(&self, upto: Lsn) -> DbResult<()> {
        self.wait_durable(upto).await
    }

    /// Reads `len` bytes of the stream starting at `from`, straight from
    /// the device (used by recovery and the auditors).
    pub async fn read_stream(&self, from: Lsn, len: usize) -> IoResult<Vec<u8>> {
        read_stream(
            &self.inner.ctx,
            &self.inner.dev,
            self.inner.region_sectors,
            from,
            len,
        )
        .await
    }
}

/// Reads stream bytes from a log device without a `Wal` instance (recovery
/// opens the device before constructing the manager).
pub async fn read_stream(
    ctx: &SimCtx,
    dev: &Rc<dyn BlockDevice>,
    region_sectors: u64,
    from: Lsn,
    len: usize,
) -> IoResult<Vec<u8>> {
    let first_sector_stream = from.0 / SECTOR_SIZE as u64;
    let offset = (from.0 % SECTOR_SIZE as u64) as usize;
    let total_sectors = (offset + len).div_ceil(SECTOR_SIZE) as u64;
    let mut out = Vec::with_capacity((total_sectors as usize) * SECTOR_SIZE);
    // Start every contiguous device run up front (the circular mapping may
    // wrap), then collect the reads in stream order.
    let mut reads = Vec::with_capacity(2);
    let mut done = 0u64;
    while done < total_sectors {
        let stream_sector = first_sector_stream + done;
        let dev_sector = LOG_BASE_SECTOR + stream_sector % region_sectors;
        // Contiguous until the region end.
        let until_wrap = region_sectors - stream_sector % region_sectors;
        let n = (total_sectors - done).min(until_wrap);
        reads.push(spawn_read(ctx, dev, dev_sector, n));
        done += n;
    }
    let mut err = None;
    for read in reads {
        match finish_read(read).await {
            Ok(data) if err.is_none() => out.extend_from_slice(&data),
            Ok(_) => {}
            Err(e) if err.is_none() => err = Some(e),
            Err(_) => {}
        }
    }
    if let Some(e) = err {
        return Err(e);
    }
    out.drain(..offset);
    out.truncate(len);
    Ok(out)
}

/// A log read running as its own task, so several can be in flight.
type PendingRead = JoinHandle<IoResult<SectorBuf>>;

/// Starts reading `sectors` sectors at `sector` as a root-domain task.
fn spawn_read(ctx: &SimCtx, dev: &Rc<dyn BlockDevice>, sector: u64, sectors: u64) -> PendingRead {
    let dev = Rc::clone(dev);
    ctx.spawn(async move {
        let data = dev.io(IoReq::Read { sector, sectors }).await?;
        Ok(data.expect("read completion carries data"))
    })
}

/// Waits for a read started by [`spawn_read`].
async fn finish_read(read: PendingRead) -> IoResult<SectorBuf> {
    read.await.expect("root-domain tasks are never killed")
}

/// Windowed log-stream reader used by recovery's scan phase: keeps up to
/// `window` chunk reads in flight, each its own task, so CRC validation
/// and frame decode of one chunk overlap the media latency of the next.
/// `window = 1` degenerates to the serial read-one-decode-one loop;
/// `window = Geometry::queue_depth` fills every device channel.
pub struct StreamReader {
    ctx: SimCtx,
    dev: Rc<dyn BlockDevice>,
    region_sectors: u64,
    /// Next stream sector a read will be submitted for.
    next_stream_sector: u64,
    /// Stream sectors not yet submitted (at most one full region circle).
    unsubmitted: u64,
    /// Bytes dropped from the front of the first completed chunk (the scan
    /// may start mid-sector).
    skip: usize,
    /// In-flight chunks, oldest first; a chunk split by the circular wrap
    /// carries one read per contiguous device run.
    inflight: VecDeque<Vec<PendingRead>>,
    chunk_sectors: u64,
    window: usize,
}

impl StreamReader {
    /// Starts a reader at stream position `from`, covering at most one full
    /// circle of the `region_sectors`-sector circular log region.
    pub fn new(
        ctx: &SimCtx,
        dev: &Rc<dyn BlockDevice>,
        region_sectors: u64,
        from: Lsn,
        chunk_bytes: usize,
        window: usize,
    ) -> Self {
        assert!(window >= 1, "stream reader window must be at least 1");
        assert!(chunk_bytes >= SECTOR_SIZE, "chunk must cover a sector");
        StreamReader {
            ctx: ctx.clone(),
            dev: Rc::clone(dev),
            region_sectors,
            next_stream_sector: from.0 / SECTOR_SIZE as u64,
            unsubmitted: region_sectors,
            skip: (from.0 % SECTOR_SIZE as u64) as usize,
            inflight: VecDeque::new(),
            chunk_sectors: (chunk_bytes / SECTOR_SIZE) as u64,
            window,
        }
    }

    fn top_up(&mut self) {
        while self.inflight.len() < self.window && self.unsubmitted > 0 {
            let mut n = self.chunk_sectors.min(self.unsubmitted);
            self.unsubmitted -= n;
            let mut reads = Vec::with_capacity(2);
            while n > 0 {
                let at = self.next_stream_sector % self.region_sectors;
                let run = n.min(self.region_sectors - at);
                reads.push(spawn_read(&self.ctx, &self.dev, LOG_BASE_SECTOR + at, run));
                self.next_stream_sector += run;
                n -= run;
            }
            self.inflight.push_back(reads);
        }
    }

    /// Appends the next chunk's stream bytes to `out` and tops the window
    /// back up. Returns the number of bytes appended; `Ok(0)` once one full
    /// region circle has been consumed.
    pub async fn fill(&mut self, out: &mut Vec<u8>) -> IoResult<usize> {
        self.top_up();
        let Some(reads) = self.inflight.pop_front() else {
            return Ok(0);
        };
        let before = out.len();
        let mut err = None;
        for read in reads {
            match finish_read(read).await {
                Ok(data) if err.is_none() => {
                    let skip = std::mem::take(&mut self.skip);
                    out.extend_from_slice(&data[skip..]);
                }
                Ok(_) => {}
                Err(e) if err.is_none() => err = Some(e),
                Err(_) => {}
            }
        }
        match err {
            Some(e) => {
                self.abandon().await;
                Err(e)
            }
            None => Ok(out.len() - before),
        }
    }

    /// Waits out every in-flight read, discarding the results. Must be
    /// called before dropping the reader mid-stream (e.g. once the torn
    /// tail is found): the readahead window usually runs past the point
    /// the scan stops at, and dropping a read's handle does not cancel it —
    /// the device would still be serving it behind the caller's back.
    pub async fn abandon(&mut self) {
        self.unsubmitted = 0;
        for reads in std::mem::take(&mut self.inflight) {
            for read in reads {
                let _ = finish_read(read).await;
            }
        }
    }
}

/// The superblock stored in sector 0 of the log device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// LSN of the most recent checkpoint record.
    pub checkpoint: Lsn,
    /// Oldest LSN that must remain readable (undo horizon).
    pub recovery_start: Lsn,
}

const SB_MAGIC: u32 = 0x5250_4C47; // "RPLG"

impl Superblock {
    /// Serialises into one sector.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SECTOR_SIZE);
        put_u32(&mut buf, SB_MAGIC);
        put_u64(&mut buf, self.checkpoint.0);
        put_u64(&mut buf, self.recovery_start.0);
        let crc = crc32(&buf);
        put_u32(&mut buf, crc);
        buf.resize(SECTOR_SIZE, 0);
        buf
    }

    /// Parses a sector; `None` if blank or corrupt (fresh device).
    pub fn decode(sector: &[u8]) -> Option<Superblock> {
        let mut c = Cursor::new(sector);
        if c.u32()? != SB_MAGIC {
            return None;
        }
        let checkpoint = Lsn(c.u64()?);
        let recovery_start = Lsn(c.u64()?);
        let crc = c.u32()?;
        if crc32(&sector[..20]) != crc {
            return None;
        }
        Some(Superblock {
            checkpoint,
            recovery_start,
        })
    }

    /// Writes the superblock durably (FUA).
    pub async fn write(&self, dev: &dyn BlockDevice) -> IoResult<()> {
        dev.io(IoReq::Write {
            sector: 0,
            data: SectorBuf::from_vec(self.encode()),
            fua: true,
        })
        .await
        .map(drop)
    }

    /// Reads and parses the superblock.
    pub async fn read(dev: &dyn BlockDevice) -> IoResult<Option<Superblock>> {
        let data = dev
            .io(IoReq::Read {
                sector: 0,
                sectors: 1,
            })
            .await?;
        let data = data.expect("read completion carries data");
        Ok(Superblock::decode(&data))
    }
}

async fn flusher_loop(inner: Rc<WalInner>) {
    loop {
        inner.kick.notified().await;
        loop {
            // Has anyone asked for more than is durable?
            let pending = {
                let st = inner.st.borrow();
                if st.stopped {
                    return;
                }
                st.requested > st.durable
            };
            if !pending {
                break;
            }
            if !inner.policy.group_delay.is_zero() {
                inner.ctx.sleep(inner.policy.group_delay).await;
            }
            // Snapshot the staged range (latecomers during the device write
            // ride the next batch). The snapshot goes into a pooled, frozen
            // buffer: downstream layers (virtio ring, RapiLog buffer and
            // drain) take views of it instead of copying, and in steady
            // state the allocation itself is recycled batch to batch.
            let (start_sector_lsn, data, end) = {
                let st = inner.st.borrow();
                let mut v = inner.pool.take(st.buf.len() + SECTOR_SIZE);
                v.extend_from_slice(&st.buf);
                let pad = (SECTOR_SIZE - v.len() % SECTOR_SIZE) % SECTOR_SIZE;
                v.resize(v.len() + pad, 0);
                (st.buf_start, SectorBuf::from_vec(v), st.next)
            };
            let batch_bytes = data.len() as u64;
            inner.tracer.begin(
                inner.ctx.now(),
                Layer::Wal,
                "group_commit",
                Payload::Wal {
                    lsn: start_sector_lsn.0,
                    bytes: batch_bytes,
                    records: 0,
                },
            );
            // Write, splitting at the circular-region wrap. Each split is
            // an O(1) view of the pooled batch, handed down the zero-copy
            // owned-buffer write path.
            let region_bytes = inner.region_sectors * SECTOR_SIZE as u64;
            let mut ok = true;
            let mut off = 0usize;
            while off < data.len() {
                let lsn = Lsn(start_sector_lsn.0 + off as u64);
                let dev_sector = LOG_BASE_SECTOR + (lsn.0 % region_bytes) / SECTOR_SIZE as u64;
                let until_wrap = (region_bytes - lsn.0 % region_bytes) as usize;
                let n = (data.len() - off).min(until_wrap);
                if inner
                    .dev
                    .io(IoReq::Write {
                        sector: dev_sector,
                        data: data.slice(off..off + n),
                        fua: true,
                    })
                    .await
                    .is_err()
                {
                    ok = false;
                    break;
                }
                off += n;
            }
            // Reclaim the batch allocation if every downstream view has
            // been dropped (always true over a synchronous disk; over
            // RapiLog the drain may still hold views, in which case the
            // allocation is simply freed later).
            inner.pool.recycle(data);
            {
                let mut st = inner.st.borrow_mut();
                if !ok {
                    st.stopped = true;
                    drop(st);
                    inner.tracer.end(
                        inner.ctx.now(),
                        Layer::Wal,
                        "group_commit",
                        Payload::Text {
                            text: "device_lost",
                        },
                    );
                    inner.durable_changed.notify_all();
                    return;
                }
                st.stats.flushes += 1;
                if end > st.durable {
                    st.durable = end;
                }
                // Trim everything before the sector floor of the new end.
                let new_start = Lsn(end.0 / SECTOR_SIZE as u64 * SECTOR_SIZE as u64);
                let drop_bytes = ((new_start.0 - st.buf_start.0) as usize).min(st.buf.len());
                st.buf.drain(..drop_bytes);
                st.buf_start = new_start;
            }
            inner.tracer.end(
                inner.ctx.now(),
                Layer::Wal,
                "group_commit",
                Payload::Wal {
                    lsn: end.0,
                    bytes: batch_bytes,
                    records: 0,
                },
            );
            inner.durable_changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::{DomainId, Sim, SimTime};
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;

    fn upd(txn: u64, key: u64) -> Record {
        Record::Update {
            txn: TxnId(txn),
            prev: Lsn(0),
            table: TableId(1),
            page: PageId(3),
            slot: 4,
            key,
            before: vec![1, 2, 3],
            after: vec![4, 5, 6, 7],
        }
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        let records = vec![
            Record::Begin { txn: TxnId(7) },
            Record::Commit { txn: TxnId(7) },
            Record::Abort { txn: TxnId(7) },
            upd(7, 99),
            Record::Insert {
                txn: TxnId(8),
                prev: Lsn(10),
                table: TableId(2),
                page: PageId(5),
                slot: 0,
                key: 42,
                after: vec![9; 100],
            },
            Record::Delete {
                txn: TxnId(8),
                prev: Lsn(20),
                table: TableId(2),
                page: PageId(5),
                slot: 0,
                key: 42,
                before: vec![9; 100],
            },
            Record::Clr {
                txn: TxnId(9),
                undo_next: Lsn(5),
                page: PageId(6),
                slot: 3,
                key: 1,
                action: ClrAction::Restore(vec![1]),
            },
            Record::Clr {
                txn: TxnId(9),
                undo_next: Lsn(0),
                page: PageId(6),
                slot: 3,
                key: 1,
                action: ClrAction::Clear,
            },
            Record::Checkpoint {
                active: vec![(TxnId(1), Lsn(100)), (TxnId(2), Lsn(200))],
                dirty: vec![(PageId(7), Lsn(90)), (PageId(11), Lsn(150))],
            },
            Record::FullPage {
                page: PageId(11),
                image: vec![0xAB; 8192],
            },
        ];
        let mut lsn = Lsn(1234);
        for rec in records {
            let bytes = rec.encode(lsn);
            assert_eq!(bytes.len(), rec.encoded_len());
            let (back, n) = Record::decode(&bytes, lsn).expect("decodes");
            assert_eq!(back, rec);
            assert_eq!(n, bytes.len());
            lsn = lsn.advance(n as u64);
        }
    }

    #[test]
    fn decode_rejects_bad_crc_bad_lsn_and_truncation() {
        let rec = upd(1, 2);
        let mut bytes = rec.encode(Lsn(50));
        assert!(Record::decode(&bytes, Lsn(51)).is_none(), "wrong lsn");
        assert!(
            Record::decode(&bytes[..10], Lsn(50)).is_none(),
            "truncated frame"
        );
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(Record::decode(&bytes, Lsn(50)).is_none(), "bad crc");
    }

    #[test]
    fn superblock_roundtrip_and_blank() {
        let sb = Superblock {
            checkpoint: Lsn(777),
            recovery_start: Lsn(555),
        };
        let bytes = sb.encode();
        assert_eq!(bytes.len(), SECTOR_SIZE);
        assert_eq!(Superblock::decode(&bytes), Some(sb));
        assert_eq!(Superblock::decode(&vec![0u8; SECTOR_SIZE]), None);
        let mut bad = sb.encode();
        bad[5] ^= 1;
        assert_eq!(Superblock::decode(&bad), None);
    }

    fn wal_on_instant_disk(sim: &mut Sim) -> (Wal, Disk) {
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk.clone()),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        (wal, disk)
    }

    #[test]
    fn append_flush_readback() {
        let mut sim = Sim::new(1);
        let (wal, _disk) = wal_on_instant_disk(&mut sim);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let w2 = wal.clone();
        sim.spawn(async move {
            let mut lsns = Vec::new();
            for i in 0..5u64 {
                let (lsn, end) = w2.append(&upd(i, i * 10)).unwrap();
                lsns.push((lsn, end));
            }
            let last_end = lsns.last().unwrap().1;
            w2.wait_durable(last_end).await.unwrap();
            assert!(w2.durable() >= last_end);
            // Read the stream back and decode every record.
            let bytes = w2
                .read_stream(Lsn::ZERO, last_end.0 as usize)
                .await
                .unwrap();
            let mut at = Lsn::ZERO;
            let mut n = 0;
            while at < last_end {
                let (rec, len) = Record::decode(&bytes[at.0 as usize..], at).expect("valid record");
                assert_eq!(rec, upd(n, n * 10));
                at = at.advance(len as u64);
                n += 1;
            }
            assert_eq!(n, 5);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        assert_eq!(wal.stats().records, 5);
        assert!(wal.stats().flushes >= 1);
    }

    #[test]
    fn natural_group_commit_batches_under_concurrency() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        // A real HDD: each flush costs about a rotation.
        let disk = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        let committed = Rc::new(StdCell::new(0u32));
        for i in 0..32u64 {
            let wal = wal.clone();
            let committed = Rc::clone(&committed);
            sim.spawn(async move {
                let (_, end) = wal.append(&Record::Commit { txn: TxnId(i) }).unwrap();
                wal.wait_durable(end).await.unwrap();
                committed.set(committed.get() + 1);
            });
        }
        sim.run();
        assert_eq!(committed.get(), 32);
        let flushes = wal.stats().flushes;
        assert!(
            flushes <= 3,
            "32 concurrent commits should batch into a few flushes, got {flushes}"
        );
    }

    #[test]
    fn records_nobody_waits_for_stay_staged_until_kicked() {
        let mut sim = Sim::new(1);
        let (wal, disk) = wal_on_instant_disk(&mut sim);
        let w2 = wal.clone();
        sim.spawn(async move {
            for i in 0..6u64 {
                w2.append(&upd(i, i)).unwrap();
            }
        });
        sim.run();
        assert_eq!(disk.stats().writes, 0, "no waiter, no device write");
        assert_eq!(wal.stats().flushes, 0);
        assert_eq!(wal.durable(), Lsn::ZERO);
        wal.kick();
        sim.run();
        assert_eq!(wal.stats().flushes, 1, "one kick, one flush");
        assert_eq!(disk.stats().writes, 1);
        assert_eq!(wal.durable(), wal.end(), "the flush took every record");
    }

    #[test]
    fn commits_serialised_by_rotation_without_concurrency() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        let w2 = wal.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                for i in 0..10u64 {
                    let (_, end) = w2.append(&Record::Commit { txn: TxnId(i) }).unwrap();
                    w2.wait_durable(end).await.unwrap();
                    // Think time between commits, like a single client.
                    ctx.sleep(SimDuration::from_micros(200)).await;
                }
            }
        });
        let end = sim.run().now;
        // Ten sequential sync commits each pay ~a rotation (8.3 ms).
        assert!(end > SimTime::from_millis(40), "suspiciously fast: {end}");
    }

    #[test]
    fn group_delay_accumulates_one_flush() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk),
            CommitPolicy {
                group_delay: SimDuration::from_millis(1),
                wait_for_durable: true,
            },
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        for i in 0..8u64 {
            let wal = wal.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                // Stagger arrivals within the delay window.
                ctx.sleep(SimDuration::from_micros(i * 100)).await;
                let (_, end) = wal.append(&Record::Commit { txn: TxnId(i) }).unwrap();
                wal.wait_durable(end).await.unwrap();
            });
        }
        sim.run();
        assert_eq!(wal.stats().flushes, 1, "one delayed batch");
    }

    #[test]
    fn stopped_wal_fails_waiters() {
        let mut sim = Sim::new(1);
        let (wal, _disk) = wal_on_instant_disk(&mut sim);
        let observed = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&observed);
        let w2 = wal.clone();
        sim.spawn(async move {
            // Stop before anything is flushed.
            let (_, end) = w2.append(&Record::Commit { txn: TxnId(1) }).unwrap();
            w2.stop();
            assert_eq!(
                w2.append(&Record::Commit { txn: TxnId(2) }).err(),
                Some(DbError::Stopped)
            );
            *o2.borrow_mut() = Some(w2.wait_durable(end).await);
        });
        sim.run();
        assert_eq!(*observed.borrow(), Some(Err(DbError::Stopped)));
    }

    #[test]
    fn power_loss_on_log_device_stops_the_wal() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk.clone()),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        let observed = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&observed);
        let w2 = wal.clone();
        sim.spawn(async move {
            let (_, end) = w2.append(&Record::Commit { txn: TxnId(1) }).unwrap();
            *o2.borrow_mut() = Some(w2.wait_durable(end).await);
        });
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                // Cut power while the flush is still in flight (the
                // controller overhead alone is 60 µs).
                ctx.sleep(SimDuration::from_micros(30)).await;
                disk.power_cut();
            }
        });
        sim.run();
        assert_eq!(*observed.borrow(), Some(Err(DbError::Stopped)));
    }

    #[test]
    fn wraparound_flush_and_readback() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        // Tiny log: 1 superblock + 8 data sectors.
        let disk = Disk::new(&ctx, specs::instant(9 * SECTOR_SIZE as u64));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        );
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let w2 = wal.clone();
        sim.spawn(async move {
            // Fill most of the region, advance the horizon, keep writing
            // so the stream wraps.
            let mut ends = Vec::new();
            for i in 0..300u64 {
                let (_, end) = w2.append(&Record::Begin { txn: TxnId(i) }).unwrap();
                ends.push(end);
                w2.wait_durable(end).await.unwrap();
                // Pretend a checkpoint retired everything already durable.
                w2.set_recovery_start(Lsn(end.0.saturating_sub(100)));
            }
            let last = *ends.last().unwrap();
            assert!(last.0 > 8 * SECTOR_SIZE as u64, "stream did wrap: {last:?}");
            // Read the tail back across the wrap and decode.
            let from = Lsn(last.0 - 100);
            let bytes = w2.read_stream(from, 100).await.unwrap();
            assert_eq!(bytes.len(), 100);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}
