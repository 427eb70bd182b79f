//! The database façade: catalog, transactions, row operations, checkpoints.
//!
//! See the [crate docs](crate) for the architecture. The engine is driven
//! entirely by its callers' tasks (the simulated clients) plus three
//! background tasks — the WAL flusher, the checkpointer and the buffer
//! pool's victim cleaner — all spawned in the **database's own
//! cancellation domain**: when the guest OS crashes, the whole engine
//! vanishes mid-flight, like a real kernel panic.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::hash::FastMap;
use rapilog_simcore::sync::Event;
use rapilog_simcore::{DomainId, SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, IoReq};

use crate::buffer::{BufferPool, FrameRef};
use crate::error::{DbError, DbResult};
use crate::page::{slots_per_page, PAGE_SECTORS, PAGE_SIZE};
use crate::profile::EngineProfile;
use crate::recovery::RecoveryMode;
use crate::retry::RetryingDevice;
use crate::txn::LockTable;
use crate::types::{Key, Lsn, PageId, TableId, TxnId};
use crate::util::{crc32, put_bytes, put_u16, put_u32, put_u64, Cursor};
use crate::wal::{ClrAction, Record, Superblock, Wal};

/// Table declaration at `create` time.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Fixed row capacity in bytes.
    pub slot_size: u16,
    /// Maximum number of rows; determines the page region size.
    pub max_rows: u64,
}

/// Engine configuration.
#[derive(Clone)]
pub struct DbConfig {
    /// Commit policy and CPU cost personality.
    pub profile: EngineProfile,
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
    /// CPU multiplier (1.0 native; >1.0 models the hypervisor CPU tax).
    pub cpu_factor: f64,
    /// Automatic checkpoint period (the checkpointer task).
    pub checkpoint_interval: SimDuration,
    /// Lock wait budget before a transaction is told to abort.
    pub lock_timeout: SimDuration,
    /// OS-block-layer retry budget for transient device errors (0 = use
    /// the raw devices). See [`crate::retry::RetryingDevice`].
    pub io_retries: u32,
    /// Pause between transient-error retries.
    pub io_retry_delay: SimDuration,
    /// Crash-recovery pipeline mode (see [`crate::recovery`]): `Serial` is
    /// the pinned read-one-replay-one reference, `Parallel` overlaps the
    /// windowed log scan with decode and partitions redo by page.
    pub recovery: RecoveryMode,
    /// Fuzzy checkpoints: one writeback pass over a snapshot of the
    /// dirty-page table instead of chasing dirty pages until the pool is
    /// clean; the checkpoint record carries the remaining table and redo
    /// starts at `min(recLSN)` over it.
    pub fuzzy_checkpoints: bool,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            profile: EngineProfile::pg_like(),
            pool_pages: 2048,
            cpu_factor: 1.0,
            checkpoint_interval: SimDuration::from_secs(5),
            lock_timeout: SimDuration::from_millis(500),
            io_retries: 5,
            io_retry_delay: SimDuration::from_millis(2),
            recovery: RecoveryMode::Parallel,
            fuzzy_checkpoints: true,
        }
    }
}

/// Catalog entry with the assigned page region.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table id (position in the catalog).
    pub id: TableId,
    /// Name.
    pub name: String,
    /// Slot size in bytes.
    pub slot_size: u16,
    /// First page of the region.
    pub base_page: u64,
    /// Pages in the region.
    pub n_pages: u64,
    /// Slots per page.
    pub spp: u16,
}

/// Physical address of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotAddr {
    /// The page.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

enum UndoAction {
    Restore(Vec<u8>),
    Clear,
}

struct UndoEntry {
    table: TableId,
    addr: SlotAddr,
    key: Key,
    action: UndoAction,
    /// `prev` of the logged record: where undo continues after this step.
    chain_prev: Lsn,
}

struct TxnState {
    last_lsn: Lsn,
    begin_lsn: Lsn,
    locks: Vec<(TableId, Key)>,
    undo: Vec<UndoEntry>,
}

pub(crate) struct FreeSpace {
    /// Next slot never yet allocated, as a flat index over the region.
    pub(crate) high_water: u64,
    /// Slots freed by deletes/aborts.
    pub(crate) freed: BTreeSet<u64>,
    /// Total slot capacity.
    capacity: u64,
}

pub(crate) struct DbSt {
    next_txn: u64,
    active: FastMap<TxnId, TxnState>,
    pub(crate) index: BTreeMap<(TableId, Key), SlotAddr>,
    pub(crate) free: Vec<FreeSpace>,
}

/// A running database instance. Clone freely; clones share the instance.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Rc<DbInner>,
}

pub(crate) struct DbInner {
    ctx: SimCtx,
    cfg: DbConfig,
    pub(crate) tables: Vec<TableMeta>,
    names: HashMap<String, TableId>,
    pub(crate) wal: Wal,
    pub(crate) pool: BufferPool,
    locks: LockTable,
    log_dev: Rc<dyn BlockDevice>,
    pub(crate) st: RefCell<DbSt>,
    stopped: Cell<bool>,
    shutdown: Event,
}

const CATALOG_MAGIC: u32 = 0x4341_544C; // "CATL"

fn encode_catalog(tables: &[TableMeta]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, CATALOG_MAGIC);
    put_u16(&mut buf, tables.len() as u16);
    for t in tables {
        put_u16(&mut buf, t.id.0);
        put_u16(&mut buf, t.slot_size);
        put_u64(&mut buf, t.base_page);
        put_u64(&mut buf, t.n_pages);
        put_u16(&mut buf, t.spp);
        put_bytes(&mut buf, t.name.as_bytes());
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    assert!(buf.len() <= PAGE_SIZE, "catalog exceeds its page");
    buf.resize(PAGE_SIZE, 0);
    buf
}

fn decode_catalog(bytes: &[u8]) -> DbResult<Vec<TableMeta>> {
    let mut c = Cursor::new(bytes);
    if c.u32() != Some(CATALOG_MAGIC) {
        return Err(DbError::Corrupt("catalog magic mismatch".to_string()));
    }
    let n = c
        .u16()
        .ok_or_else(|| DbError::Corrupt("catalog truncated".to_string()))? as usize;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        let bad = || DbError::Corrupt("catalog truncated".to_string());
        let id = TableId(c.u16().ok_or_else(bad)?);
        let slot_size = c.u16().ok_or_else(bad)?;
        let base_page = c.u64().ok_or_else(bad)?;
        let n_pages = c.u64().ok_or_else(bad)?;
        let spp = c.u16().ok_or_else(bad)?;
        let name = String::from_utf8(c.bytes().ok_or_else(bad)?)
            .map_err(|_| DbError::Corrupt("catalog name not utf8".to_string()))?;
        tables.push(TableMeta {
            id,
            name,
            slot_size,
            base_page,
            n_pages,
            spp,
        });
    }
    // CRC covers everything up to the cursor position.
    let used = bytes.len() - c.remaining();
    let stored = c
        .u32()
        .ok_or_else(|| DbError::Corrupt("catalog truncated".to_string()))?;
    if crc32(&bytes[..used]) != stored {
        return Err(DbError::Corrupt("catalog crc mismatch".to_string()));
    }
    Ok(tables)
}

fn layout_tables(defs: &[TableDef]) -> Vec<TableMeta> {
    let mut tables = Vec::with_capacity(defs.len());
    let mut next_page = 1u64; // page 0 is the catalog
    for (i, d) in defs.iter().enumerate() {
        assert!(d.slot_size > 0, "zero slot size for table {}", d.name);
        let spp = slots_per_page(d.slot_size as usize) as u16;
        assert!(spp > 0, "slot size {} too large for a page", d.slot_size);
        let n_pages = d.max_rows.div_ceil(spp as u64).max(1);
        tables.push(TableMeta {
            id: TableId(i as u16),
            name: d.name.clone(),
            slot_size: d.slot_size,
            base_page: next_page,
            n_pages,
            spp,
        });
        next_page += n_pages;
    }
    tables
}

impl Database {
    /// Creates a fresh database on blank devices: writes the catalog and
    /// the initial checkpoint, then opens for business. Background tasks
    /// (WAL flusher, checkpointer, victim cleaner) are spawned into
    /// `domain`.
    pub async fn create(
        ctx: &SimCtx,
        cfg: DbConfig,
        defs: &[TableDef],
        data_dev: Rc<dyn BlockDevice>,
        log_dev: Rc<dyn BlockDevice>,
        domain: DomainId,
    ) -> DbResult<Database> {
        let tables = layout_tables(defs);
        // The OS block layer: bounded transient-error retry on both devices.
        let data_dev = RetryingDevice::wrap(ctx, data_dev, cfg.io_retries, cfg.io_retry_delay);
        let log_dev = RetryingDevice::wrap(ctx, log_dev, cfg.io_retries, cfg.io_retry_delay);
        // Capacity check against the data device.
        let last = tables.last().map(|t| t.base_page + t.n_pages).unwrap_or(1);
        if last * PAGE_SECTORS > data_dev.geometry().sectors {
            return Err(DbError::Corrupt(format!(
                "data device too small: need {} pages",
                last
            )));
        }
        data_dev
            .io(IoReq::Write {
                sector: 0,
                data: SectorBuf::from_vec(encode_catalog(&tables)),
                fua: true,
            })
            .await?;
        Superblock {
            checkpoint: Lsn::ZERO,
            recovery_start: Lsn::ZERO,
        }
        .write(&*log_dev)
        .await?;
        let wal = Wal::new(
            ctx,
            Rc::clone(&log_dev),
            cfg.profile.commit_policy,
            Lsn::ZERO,
            Lsn::ZERO,
            domain,
        );
        let (_, end) = wal.append(&Record::Checkpoint {
            active: Vec::new(),
            dirty: Vec::new(),
        })?;
        wal.kick();
        wal.wait_durable(end).await?;
        let pool = BufferPool::new(data_dev, wal.clone(), cfg.pool_pages);
        let db = Self::assemble(ctx, cfg, tables, wal, pool, log_dev);
        db.start_background(domain);
        Ok(db)
    }

    pub(crate) fn assemble(
        ctx: &SimCtx,
        cfg: DbConfig,
        tables: Vec<TableMeta>,
        wal: Wal,
        pool: BufferPool,
        log_dev: Rc<dyn BlockDevice>,
    ) -> Database {
        let names = tables
            .iter()
            .map(|t| (t.name.clone(), t.id))
            .collect::<HashMap<_, _>>();
        let free = tables
            .iter()
            .map(|t| FreeSpace {
                high_water: 0,
                freed: BTreeSet::new(),
                capacity: t.n_pages * t.spp as u64,
            })
            .collect();
        let lock_timeout = cfg.lock_timeout;
        Database {
            inner: Rc::new(DbInner {
                ctx: ctx.clone(),
                cfg,
                tables,
                names,
                wal,
                pool,
                locks: LockTable::new(lock_timeout),
                log_dev,
                st: RefCell::new(DbSt {
                    next_txn: 1,
                    active: FastMap::default(),
                    index: BTreeMap::new(),
                    free,
                }),
                stopped: Cell::new(false),
                shutdown: Event::new(),
            }),
        }
    }

    /// Reads the catalog page from a data device.
    pub(crate) async fn read_catalog(data_dev: &dyn BlockDevice) -> DbResult<Vec<TableMeta>> {
        let data = data_dev
            .io(IoReq::Read {
                sector: 0,
                sectors: (PAGE_SIZE / rapilog_simdisk::SECTOR_SIZE) as u64,
            })
            .await?;
        decode_catalog(&data.expect("read completion carries data"))
    }

    /// Starts the periodic checkpointer and the buffer pool's victim
    /// cleaner in `domain`. Both exit promptly on [`Database::stop`] so
    /// simulations can run to idle.
    pub fn start_background(&self, domain: DomainId) {
        self.inner.pool.start_cleaner(&self.inner.ctx, domain);
        let db = self.clone();
        let interval = self.inner.cfg.checkpoint_interval;
        self.inner.ctx.spawn_in(domain, async move {
            loop {
                let shutdown = db.inner.shutdown.clone();
                let stopped = db
                    .inner
                    .ctx
                    .timeout(interval, shutdown.wait())
                    .await
                    .is_some();
                if stopped || db.inner.stopped.get() {
                    break;
                }
                // A checkpoint failure (power loss) just stops the engine.
                if db.checkpoint().await.is_err() {
                    break;
                }
            }
        });
    }

    fn charge(&self, d: SimDuration) -> rapilog_simcore::exec::Sleep {
        self.inner.ctx.sleep(d.mul_f64(self.inner.cfg.cpu_factor))
    }

    fn check_live(&self) -> DbResult<()> {
        if self.inner.stopped.get() {
            Err(DbError::Stopped)
        } else {
            Ok(())
        }
    }

    /// Looks up a table id by name.
    pub fn table(&self, name: &str) -> Option<TableId> {
        self.inner.names.get(name).copied()
    }

    /// Table metadata by id.
    pub fn table_meta(&self, id: TableId) -> DbResult<TableMeta> {
        self.inner
            .tables
            .get(id.0 as usize)
            .cloned()
            .ok_or(DbError::NoSuchTable(id))
    }

    /// The WAL handle (benchmarks read its statistics).
    pub fn wal(&self) -> &Wal {
        &self.inner.wal
    }

    /// The buffer pool handle (benchmarks read its statistics).
    pub fn pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    /// Rows currently indexed in `table` (for audits).
    pub fn row_count(&self, table: TableId) -> u64 {
        self.inner
            .st
            .borrow()
            .index
            .keys()
            .filter(|(t, _)| *t == table)
            .count() as u64
    }

    /// Marks the engine stopped; in-flight operations fail with
    /// [`DbError::Stopped`].
    pub fn stop(&self) {
        self.inner.stopped.set(true);
        self.inner.shutdown.set();
        self.inner.wal.stop();
        self.inner.pool.stop();
    }

    /// Begins a transaction.
    pub async fn begin(&self) -> DbResult<TxnId> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_begin).await;
        let txn = {
            let mut st = self.inner.st.borrow_mut();
            let txn = TxnId(st.next_txn);
            st.next_txn += 1;
            txn
        };
        let (lsn, _) = self.inner.wal.append(&Record::Begin { txn })?;
        self.inner.st.borrow_mut().active.insert(
            txn,
            TxnState {
                last_lsn: lsn,
                begin_lsn: lsn,
                locks: Vec::new(),
                undo: Vec::new(),
            },
        );
        Ok(txn)
    }

    /// Reads a row (no locks: read-committed-style slot read).
    pub async fn get(&self, table: TableId, key: Key) -> DbResult<Option<Vec<u8>>> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_read).await;
        let meta = self.table_meta(table)?;
        let addr = match self.inner.st.borrow().index.get(&(table, key)) {
            Some(a) => *a,
            None => return Ok(None),
        };
        let frame = self
            .inner
            .pool
            .fetch(addr.page, table, meta.slot_size, false)
            .await?;
        let got = frame.borrow().page.read_slot(addr.slot);
        match got {
            Some((k, bytes)) if k == key => Ok(Some(bytes)),
            // The slot was reused under us (concurrent delete+insert);
            // treat as not found under this weak read isolation.
            _ => Ok(None),
        }
    }

    /// Reads a row under the transaction's exclusive lock (SELECT ... FOR
    /// UPDATE). Required for read-modify-write sequences: a plain
    /// [`get`](Self::get) is lock-free, so two concurrent transactions
    /// would both read the same base value and one update would be lost.
    pub async fn get_for_update(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
    ) -> DbResult<Option<Vec<u8>>> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_read).await;
        let meta = self.table_meta(table)?;
        self.txn_chain(txn)?;
        self.inner
            .locks
            .acquire(&self.inner.ctx, txn, table, key)
            .await?;
        self.inner
            .st
            .borrow_mut()
            .active
            .get_mut(&txn)
            .ok_or(DbError::NoSuchTxn(txn))?
            .locks
            .push((table, key));
        let addr = match self.inner.st.borrow().index.get(&(table, key)) {
            Some(a) => *a,
            None => return Ok(None),
        };
        let frame = self
            .inner
            .pool
            .fetch(addr.page, table, meta.slot_size, false)
            .await?;
        let got = frame.borrow().page.read_slot(addr.slot);
        match got {
            Some((k, bytes)) if k == key => Ok(Some(bytes)),
            _ => Ok(None),
        }
    }

    /// Returns up to `limit` rows with keys in `[lo, hi]`, in ascending key
    /// order (a read-committed index range scan; rows are fetched without
    /// locks, like [`get`](Self::get)).
    pub async fn scan_range(
        &self,
        table: TableId,
        lo: Key,
        hi: Key,
        limit: usize,
    ) -> DbResult<Vec<(Key, Vec<u8>)>> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_read).await;
        let meta = self.table_meta(table)?;
        if lo > hi || limit == 0 {
            return Ok(Vec::new());
        }
        // Snapshot the matching index entries, then fetch pages without
        // holding the state borrow.
        let addrs: Vec<(Key, SlotAddr)> = self
            .inner
            .st
            .borrow()
            .index
            .range((table, lo)..=(table, hi))
            .take(limit)
            .map(|((_, k), a)| (*k, *a))
            .collect();
        let mut out = Vec::with_capacity(addrs.len());
        for (key, addr) in addrs {
            // Amortised per-row read cost.
            self.charge(self.inner.cfg.profile.cpu_read / 4).await;
            let frame = self
                .inner
                .pool
                .fetch(addr.page, table, meta.slot_size, false)
                .await?;
            let got = frame.borrow().page.read_slot(addr.slot);
            if let Some((k, bytes)) = got {
                if k == key {
                    out.push((key, bytes));
                }
            }
        }
        Ok(out)
    }

    fn addr_of(meta: &TableMeta, flat: u64) -> SlotAddr {
        SlotAddr {
            page: PageId(meta.base_page + flat / meta.spp as u64),
            slot: (flat % meta.spp as u64) as u16,
        }
    }

    /// Fetches and prepares a page for modification: logs a full-page
    /// image on the clean→dirty transition. The image precedes the
    /// upcoming delta in the log and becomes the frame's recLSN, so a redo
    /// scan starting at `min(recLSN)` over the dirty-page table always
    /// covers the image a torn-page repair needs.
    async fn fetch_for_write(&self, meta: &TableMeta, pid: PageId) -> DbResult<FrameRef> {
        let frame = self
            .inner
            .pool
            .fetch(pid, meta.id, meta.slot_size, false)
            .await?;
        let need_fpw = !frame.borrow().dirty;
        if need_fpw {
            let (lsn, _) = self.inner.wal.append(&Record::FullPage {
                page: pid,
                image: frame.borrow().page.image().to_vec(),
            })?;
            BufferPool::note_rec_lsn(&frame, lsn);
        }
        Ok(frame)
    }

    fn txn_chain(&self, txn: TxnId) -> DbResult<Lsn> {
        self.inner
            .st
            .borrow()
            .active
            .get(&txn)
            .map(|t| t.last_lsn)
            .ok_or(DbError::NoSuchTxn(txn))
    }

    /// Inserts a row.
    pub async fn insert(&self, txn: TxnId, table: TableId, key: Key, row: &[u8]) -> DbResult<()> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_write).await;
        let meta = self.table_meta(table)?;
        if row.len() > meta.slot_size as usize {
            return Err(DbError::RowTooLarge {
                table,
                len: row.len(),
                cap: meta.slot_size as usize,
            });
        }
        self.txn_chain(txn)?; // validate txn before locking
        self.inner
            .locks
            .acquire(&self.inner.ctx, txn, table, key)
            .await?;
        self.inner
            .st
            .borrow_mut()
            .active
            .get_mut(&txn)
            .ok_or(DbError::NoSuchTxn(txn))?
            .locks
            .push((table, key));
        // Allocate a slot.
        let addr = {
            let mut st = self.inner.st.borrow_mut();
            if st.index.contains_key(&(table, key)) {
                return Err(DbError::Duplicate(table, key));
            }
            let fs = &mut st.free[table.0 as usize];
            let flat = if let Some(&f) = fs.freed.iter().next() {
                fs.freed.remove(&f);
                f
            } else if fs.high_water < fs.capacity {
                let f = fs.high_water;
                fs.high_water += 1;
                f
            } else {
                return Err(DbError::TableFull(table));
            };
            Self::addr_of(&meta, flat)
        };
        let frame = self.fetch_for_write(&meta, addr.page).await?;
        let prev = self.txn_chain(txn)?;
        let (lsn, _) = self.inner.wal.append(&Record::Insert {
            txn,
            prev,
            table,
            page: addr.page,
            slot: addr.slot,
            key,
            after: row.to_vec(),
        })?;
        {
            let mut f = frame.borrow_mut();
            f.page.write_slot(addr.slot, key, row);
            f.page.set_lsn(lsn);
        }
        BufferPool::mark_dirty(&frame);
        let mut st = self.inner.st.borrow_mut();
        st.index.insert((table, key), addr);
        let t = st.active.get_mut(&txn).ok_or(DbError::NoSuchTxn(txn))?;
        t.last_lsn = lsn;
        t.undo.push(UndoEntry {
            table,
            addr,
            key,
            action: UndoAction::Clear,
            chain_prev: prev,
        });
        Ok(())
    }

    /// Updates a row in place.
    pub async fn update(&self, txn: TxnId, table: TableId, key: Key, row: &[u8]) -> DbResult<()> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_write).await;
        let meta = self.table_meta(table)?;
        if row.len() > meta.slot_size as usize {
            return Err(DbError::RowTooLarge {
                table,
                len: row.len(),
                cap: meta.slot_size as usize,
            });
        }
        self.txn_chain(txn)?;
        self.inner
            .locks
            .acquire(&self.inner.ctx, txn, table, key)
            .await?;
        self.inner
            .st
            .borrow_mut()
            .active
            .get_mut(&txn)
            .ok_or(DbError::NoSuchTxn(txn))?
            .locks
            .push((table, key));
        let addr = *self
            .inner
            .st
            .borrow()
            .index
            .get(&(table, key))
            .ok_or(DbError::NotFound(table, key))?;
        let frame = self.fetch_for_write(&meta, addr.page).await?;
        let before = {
            let f = frame.borrow();
            match f.page.read_slot(addr.slot) {
                Some((k, bytes)) if k == key => bytes,
                _ => return Err(DbError::NotFound(table, key)),
            }
        };
        let prev = self.txn_chain(txn)?;
        let (lsn, _) = self.inner.wal.append(&Record::Update {
            txn,
            prev,
            table,
            page: addr.page,
            slot: addr.slot,
            key,
            before: before.clone(),
            after: row.to_vec(),
        })?;
        {
            let mut f = frame.borrow_mut();
            f.page.write_slot(addr.slot, key, row);
            f.page.set_lsn(lsn);
        }
        BufferPool::mark_dirty(&frame);
        let mut st = self.inner.st.borrow_mut();
        let t = st.active.get_mut(&txn).ok_or(DbError::NoSuchTxn(txn))?;
        t.last_lsn = lsn;
        t.undo.push(UndoEntry {
            table,
            addr,
            key,
            action: UndoAction::Restore(before),
            chain_prev: prev,
        });
        Ok(())
    }

    /// Deletes a row.
    pub async fn delete(&self, txn: TxnId, table: TableId, key: Key) -> DbResult<()> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_write).await;
        let meta = self.table_meta(table)?;
        self.txn_chain(txn)?;
        self.inner
            .locks
            .acquire(&self.inner.ctx, txn, table, key)
            .await?;
        self.inner
            .st
            .borrow_mut()
            .active
            .get_mut(&txn)
            .ok_or(DbError::NoSuchTxn(txn))?
            .locks
            .push((table, key));
        let addr = *self
            .inner
            .st
            .borrow()
            .index
            .get(&(table, key))
            .ok_or(DbError::NotFound(table, key))?;
        let frame = self.fetch_for_write(&meta, addr.page).await?;
        let before = {
            let f = frame.borrow();
            match f.page.read_slot(addr.slot) {
                Some((k, bytes)) if k == key => bytes,
                _ => return Err(DbError::NotFound(table, key)),
            }
        };
        let prev = self.txn_chain(txn)?;
        let (lsn, _) = self.inner.wal.append(&Record::Delete {
            txn,
            prev,
            table,
            page: addr.page,
            slot: addr.slot,
            key,
            before: before.clone(),
        })?;
        {
            let mut f = frame.borrow_mut();
            f.page.clear_slot(addr.slot);
            f.page.set_lsn(lsn);
        }
        BufferPool::mark_dirty(&frame);
        let mut st = self.inner.st.borrow_mut();
        st.index.remove(&(table, key));
        let flat = (addr.page.0 - meta.base_page) * meta.spp as u64 + addr.slot as u64;
        st.free[table.0 as usize].freed.insert(flat);
        let t = st.active.get_mut(&txn).ok_or(DbError::NoSuchTxn(txn))?;
        t.last_lsn = lsn;
        t.undo.push(UndoEntry {
            table,
            addr,
            key,
            action: UndoAction::Restore(before),
            chain_prev: prev,
        });
        Ok(())
    }

    /// Commits: appends the commit record and — under a durable policy —
    /// waits for it to reach stable storage before acknowledging. Locks
    /// are held until then (strict 2PL).
    pub async fn commit(&self, txn: TxnId) -> DbResult<()> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_commit).await;
        self.txn_chain(txn)?;
        let appended = self.inner.wal.append(&Record::Commit { txn });
        let end = match appended {
            Ok((_, end)) => end,
            Err(e) => {
                // The engine died under us: release locks and report.
                let state = self.inner.st.borrow_mut().active.remove(&txn);
                if let Some(state) = state {
                    self.inner.locks.release_all(txn, state.locks.iter());
                }
                return Err(e);
            }
        };
        self.inner.wal.kick();
        let result = if self.inner.wal.policy().wait_for_durable {
            self.inner.wal.wait_durable(end).await
        } else {
            Ok(())
        };
        // Win or lose, the transaction is finished locally: release locks.
        let state = self.inner.st.borrow_mut().active.remove(&txn);
        if let Some(state) = state {
            self.inner.locks.release_all(txn, state.locks.iter());
        }
        result
    }

    /// Rolls back: restores before-images (writing CLRs), appends the
    /// abort record, releases locks. Rollback does not wait for
    /// durability — aborts are not acknowledged promises.
    pub async fn abort(&self, txn: TxnId) -> DbResult<()> {
        self.check_live()?;
        let mut state = self
            .inner
            .st
            .borrow_mut()
            .active
            .remove(&txn)
            .ok_or(DbError::NoSuchTxn(txn))?;
        while let Some(entry) = state.undo.pop() {
            let meta = self.table_meta(entry.table)?;
            let frame = self.fetch_for_write(&meta, entry.addr.page).await?;
            let action = match &entry.action {
                UndoAction::Restore(bytes) => ClrAction::Restore(bytes.clone()),
                UndoAction::Clear => ClrAction::Clear,
            };
            let (lsn, _) = self.inner.wal.append(&Record::Clr {
                txn,
                undo_next: entry.chain_prev,
                page: entry.addr.page,
                slot: entry.addr.slot,
                key: entry.key,
                action: action.clone(),
            })?;
            {
                let mut f = frame.borrow_mut();
                match &action {
                    ClrAction::Restore(bytes) => {
                        f.page.write_slot(entry.addr.slot, entry.key, bytes)
                    }
                    ClrAction::Clear => f.page.clear_slot(entry.addr.slot),
                }
                f.page.set_lsn(lsn);
            }
            BufferPool::mark_dirty(&frame);
            // Fix the derived state.
            let mut st = self.inner.st.borrow_mut();
            match &action {
                ClrAction::Restore(_) => {
                    st.index.insert((entry.table, entry.key), entry.addr);
                    let flat = (entry.addr.page.0 - meta.base_page) * meta.spp as u64
                        + entry.addr.slot as u64;
                    st.free[entry.table.0 as usize].freed.remove(&flat);
                }
                ClrAction::Clear => {
                    st.index.remove(&(entry.table, entry.key));
                    let flat = (entry.addr.page.0 - meta.base_page) * meta.spp as u64
                        + entry.addr.slot as u64;
                    st.free[entry.table.0 as usize].freed.insert(flat);
                }
            }
        }
        self.inner.wal.append(&Record::Abort { txn })?;
        self.inner.wal.kick();
        self.inner.locks.release_all(txn, state.locks.iter());
        Ok(())
    }

    /// Takes a checkpoint and persists the superblock, bounding both
    /// recovery time and the log region in use.
    ///
    /// Sharp mode (`fuzzy_checkpoints = false`) chases dirty pages until
    /// the pool is clean, so redo can start at the LSN the checkpoint began
    /// at. Fuzzy mode makes one writeback pass over a snapshot of the
    /// dirty-page table — pages dirtied during the pass ride the next
    /// checkpoint — then records the remaining table in the checkpoint
    /// record; redo starts at `min(recLSN)` over it, which under
    /// write-heavy load stays far closer to the log tail than a chasing
    /// flush allows.
    pub async fn checkpoint(&self) -> DbResult<()> {
        self.check_live()?;
        let begin = self.inner.wal.end();
        if self.inner.cfg.fuzzy_checkpoints {
            let snapshot = self.inner.pool.dirty_page_table();
            self.inner.pool.flush_pages(&snapshot).await?;
            // Cache barrier: every earlier cached write — this pass and any
            // prior evictions — is on stable media after this, so a page
            // absent from the table recorded below is current on media.
            self.inner.pool.barrier().await?;
        } else {
            self.inner.pool.flush_all().await?;
        }
        // Capture the record contents and append in one synchronous step,
        // so no modification sneaks between capture and append.
        let (end, active_min, dirty_min) = {
            let st = self.inner.st.borrow();
            let active: Vec<(TxnId, Lsn)> =
                st.active.iter().map(|(t, s)| (*t, s.last_lsn)).collect();
            let active_min = st.active.values().map(|s| s.begin_lsn).min();
            let dirty = self.inner.pool.dirty_page_table();
            let ckpt_lsn = self.inner.wal.end();
            let dirty_min = dirty
                .iter()
                .map(|&(_, l)| l)
                .min()
                .unwrap_or(ckpt_lsn)
                .min(ckpt_lsn);
            let (_, end) = self
                .inner
                .wal
                .append(&Record::Checkpoint { active, dirty })?;
            (end, active_min, dirty_min)
        };
        self.inner.wal.kick();
        self.inner.wal.wait_durable(end).await?;
        // Redo start: fuzzy trusts the dirty-page table; sharp also bounds
        // by the LSN the chasing flush began at (a page re-stamped while
        // its writeback was in flight keeps its old recLSN, so `dirty_min`
        // may reach below `begin`).
        let redo = if self.inner.cfg.fuzzy_checkpoints {
            dirty_min
        } else {
            begin.min(dirty_min)
        };
        let undo_horizon = active_min.unwrap_or(redo).min(redo);
        Superblock {
            checkpoint: redo,
            recovery_start: undo_horizon,
        }
        .write(&*self.inner.log_dev)
        .await?;
        self.inner.wal.set_recovery_start(undo_horizon);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;

    fn small_tables() -> Vec<TableDef> {
        vec![
            TableDef {
                name: "acct".to_string(),
                slot_size: 64,
                max_rows: 10_000,
            },
            TableDef {
                name: "hist".to_string(),
                slot_size: 128,
                max_rows: 50_000,
            },
        ]
    }

    fn with_db<F, Fut>(f: F) -> Sim
    where
        F: FnOnce(SimCtx, Database) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &small_tables(),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .expect("create");
            f(c2.clone(), db.clone()).await;
            db.stop();
        });
        sim.run();
        sim
    }

    #[test]
    fn unwaited_commits_and_aborts_reach_media() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s2 = Rc::clone(&seen);
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&ctx, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&ctx, specs::ssd_sata(64 << 20)));
            let cfg = DbConfig {
                profile: EngineProfile::async_unsafe(),
                ..DbConfig::default()
            };
            let db = Database::create(&ctx, cfg, &small_tables(), data, log, DomainId::ROOT)
                .await
                .expect("create");
            let acct = db.table("acct").unwrap();
            let committed = db.begin().await.unwrap();
            db.insert(committed, acct, 1, b"kept").await.unwrap();
            db.commit(committed).await.unwrap();
            let aborted = db.begin().await.unwrap();
            db.insert(aborted, acct, 2, b"undone").await.unwrap();
            db.abort(aborted).await.unwrap();
            let end = db.wal().end();
            assert!(db.wal().durable() < end, "the commit returned unforced");
            // Nobody waits, yet the kicks carry both records to media.
            ctx.sleep(SimDuration::from_millis(10)).await;
            assert_eq!(db.wal().durable(), end);
            let bytes = db
                .wal()
                .read_stream(Lsn::ZERO, end.0 as usize)
                .await
                .unwrap();
            let mut at = Lsn::ZERO;
            while at < end {
                let (rec, len) = Record::decode(&bytes[at.0 as usize..], at).expect("on media");
                s2.borrow_mut().push(rec);
                at = at.advance(len as u64);
            }
            db.stop();
        });
        sim.run();
        let seen = seen.borrow();
        assert!(seen.iter().any(|r| matches!(r, Record::Commit { .. })));
        assert!(seen.iter().any(|r| matches!(r, Record::Abort { .. })));
    }

    #[test]
    fn catalog_roundtrip() {
        let tables = layout_tables(&small_tables());
        let bytes = encode_catalog(&tables);
        let back = decode_catalog(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "acct");
        assert_eq!(back[0].base_page, 1);
        assert!(back[1].base_page > back[0].base_page);
        assert_eq!(back[1].slot_size, 128);
        // Corruption detected.
        let mut bad = bytes.clone();
        bad[6] ^= 1;
        assert!(decode_catalog(&bad).is_err());
    }

    #[test]
    fn insert_get_update_delete_roundtrip() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, acct, 1, b"alice:100").await.unwrap();
            db.insert(txn, acct, 2, b"bob:50").await.unwrap();
            db.commit(txn).await.unwrap();

            assert_eq!(db.get(acct, 1).await.unwrap(), Some(b"alice:100".to_vec()));
            assert_eq!(db.get(acct, 3).await.unwrap(), None);

            let txn = db.begin().await.unwrap();
            db.update(txn, acct, 1, b"alice:90").await.unwrap();
            db.delete(txn, acct, 2).await.unwrap();
            db.commit(txn).await.unwrap();

            assert_eq!(db.get(acct, 1).await.unwrap(), Some(b"alice:90".to_vec()));
            assert_eq!(db.get(acct, 2).await.unwrap(), None);
            assert_eq!(db.row_count(acct), 1);
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn abort_restores_everything() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let setup = db.begin().await.unwrap();
            db.insert(setup, acct, 1, b"v1").await.unwrap();
            db.commit(setup).await.unwrap();

            let txn = db.begin().await.unwrap();
            db.update(txn, acct, 1, b"v2").await.unwrap();
            db.insert(txn, acct, 2, b"new").await.unwrap();
            db.delete(txn, acct, 1).await.unwrap();
            db.abort(txn).await.unwrap();

            assert_eq!(db.get(acct, 1).await.unwrap(), Some(b"v1".to_vec()));
            assert_eq!(db.get(acct, 2).await.unwrap(), None);
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn duplicate_and_missing_keys_error() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, acct, 1, b"x").await.unwrap();
            assert_eq!(
                db.insert(txn, acct, 1, b"y").await,
                Err(DbError::Duplicate(acct, 1))
            );
            assert_eq!(
                db.update(txn, acct, 99, b"y").await,
                Err(DbError::NotFound(acct, 99))
            );
            assert_eq!(
                db.delete(txn, acct, 99).await,
                Err(DbError::NotFound(acct, 99))
            );
            db.commit(txn).await.unwrap();
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn row_too_large_rejected() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            let big = vec![0u8; 65];
            assert!(matches!(
                db.insert(txn, acct, 1, &big).await,
                Err(DbError::RowTooLarge { .. })
            ));
            db.commit(txn).await.unwrap();
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn write_write_conflict_blocks_until_commit() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let db_slot: Rc<RefCell<Option<Database>>> = Rc::new(RefCell::new(None));
        let ds = Rc::clone(&db_slot);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &small_tables(),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let acct = db.table("acct").unwrap();
            let t = db.begin().await.unwrap();
            db.insert(t, acct, 7, b"base").await.unwrap();
            db.commit(t).await.unwrap();
            *ds.borrow_mut() = Some(db);
        });
        sim.run_until(rapilog_simcore::SimTime::from_millis(100));
        let db = db_slot.borrow().clone().unwrap();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2u32 {
            let db = db.clone();
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let acct = db.table("acct").unwrap();
                let t = db.begin().await.unwrap();
                db.update(t, acct, 7, format!("w{i}").as_bytes())
                    .await
                    .unwrap();
                order.borrow_mut().push((i, "locked"));
                ctx.sleep(SimDuration::from_millis(2)).await;
                db.commit(t).await.unwrap();
                order.borrow_mut().push((i, "done"));
            });
        }
        sim.run_until(rapilog_simcore::SimTime::from_secs(2));
        let o = order.borrow();
        assert_eq!(o.len(), 4);
        assert_eq!(o[0].1, "locked");
        assert_eq!(
            o[1],
            (o[0].0, "done"),
            "second writer waited for the first to finish: {o:?}"
        );
    }

    #[test]
    fn scan_range_returns_ordered_window() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let hist = db.table("hist").unwrap();
            let txn = db.begin().await.unwrap();
            for k in [5u64, 1, 9, 3, 7] {
                db.insert(txn, acct, k, &k.to_le_bytes()).await.unwrap();
            }
            // Rows in another table must not leak into the scan.
            db.insert(txn, hist, 4, b"other").await.unwrap();
            db.commit(txn).await.unwrap();

            let rows = db.scan_range(acct, 2, 8, 100).await.unwrap();
            let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![3, 5, 7], "ordered, bounded, table-scoped");
            assert_eq!(rows[0].1, 3u64.to_le_bytes().to_vec());

            // Limit applies.
            let rows = db.scan_range(acct, 0, 100, 2).await.unwrap();
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].0, 1);

            // Empty and inverted ranges.
            assert!(db.scan_range(acct, 20, 30, 10).await.unwrap().is_empty());
            assert!(db.scan_range(acct, 8, 2, 10).await.unwrap().is_empty());
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn get_for_update_prevents_lost_updates() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let db_slot: Rc<RefCell<Option<Database>>> = Rc::new(RefCell::new(None));
        let ds = Rc::clone(&db_slot);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::hdd_7200(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &small_tables(),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let acct = db.table("acct").unwrap();
            let t = db.begin().await.unwrap();
            db.insert(t, acct, 7, &0u64.to_le_bytes()).await.unwrap();
            db.commit(t).await.unwrap();
            *ds.borrow_mut() = Some(db);
        });
        sim.run_until(rapilog_simcore::SimTime::from_millis(200));
        let db = db_slot.borrow().clone().unwrap();
        // Sixteen concurrent incrementers; the slow HDD log maximises the
        // read-update window where a lock-free read would lose updates.
        for _ in 0..16u32 {
            let db = db.clone();
            sim.spawn(async move {
                let acct = db.table("acct").unwrap();
                for _ in 0..4 {
                    let txn = db.begin().await.unwrap();
                    let cur = db
                        .get_for_update(txn, acct, 7)
                        .await
                        .unwrap()
                        .expect("row exists");
                    let v = u64::from_le_bytes(cur[..8].try_into().unwrap());
                    db.update(txn, acct, 7, &(v + 1).to_le_bytes())
                        .await
                        .unwrap();
                    db.commit(txn).await.unwrap();
                }
            });
        }
        sim.run_until(rapilog_simcore::SimTime::from_secs(30));
        let final_val = Rc::new(StdCell::new(0u64));
        let fv = Rc::clone(&final_val);
        let db2 = db.clone();
        sim.spawn(async move {
            let acct = db2.table("acct").unwrap();
            let cur = db2.get(acct, 7).await.unwrap().unwrap();
            fv.set(u64::from_le_bytes(cur[..8].try_into().unwrap()));
            db2.stop();
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(31));
        assert_eq!(final_val.get(), 64, "no increment was lost");
    }

    #[test]
    fn table_full_reports_and_free_slots_recycle() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(16 << 20)));
            let defs = vec![TableDef {
                name: "tiny".to_string(),
                slot_size: 32,
                max_rows: 4,
            }];
            let db = Database::create(&c2, DbConfig::default(), &defs, data, log, DomainId::ROOT)
                .await
                .unwrap();
            let t = db.table("tiny").unwrap();
            let txn = db.begin().await.unwrap();
            for k in 0..4u64 {
                db.insert(txn, t, k, b"r").await.unwrap();
            }
            // Region is ceil(4 / spp) pages => capacity may exceed 4; fill
            // the rest to hit the wall.
            let meta = db.table_meta(t).unwrap();
            let cap = meta.n_pages * meta.spp as u64;
            for k in 4..cap {
                db.insert(txn, t, k, b"r").await.unwrap();
            }
            assert_eq!(
                db.insert(txn, t, 10_000, b"r").await,
                Err(DbError::TableFull(t))
            );
            // Deleting frees a slot which gets reused.
            db.delete(txn, t, 0).await.unwrap();
            db.insert(txn, t, 10_000, b"r").await.unwrap();
            db.commit(txn).await.unwrap();
            db.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn stopped_database_rejects_operations() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            db.stop();
            assert_eq!(db.begin().await.err(), Some(DbError::Stopped));
            assert_eq!(db.get(acct, 1).await.err(), Some(DbError::Stopped));
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn checkpoint_flushes_and_is_repeatable() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            for round in 0..3u64 {
                let txn = db.begin().await.unwrap();
                for k in 0..50 {
                    let key = round * 100 + k;
                    db.insert(txn, acct, key, b"data").await.unwrap();
                }
                db.commit(txn).await.unwrap();
                db.checkpoint().await.unwrap();
            }
            assert_eq!(db.row_count(acct), 150);
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn commit_on_hdd_costs_a_rotation_but_batches_across_clients() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let db_slot: Rc<RefCell<Option<Database>>> = Rc::new(RefCell::new(None));
        let ds = Rc::clone(&db_slot);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::hdd_7200(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &small_tables(),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            *ds.borrow_mut() = Some(db);
        });
        sim.run_until(rapilog_simcore::SimTime::from_millis(100));
        let db = db_slot.borrow().clone().unwrap();
        let t0 = sim.now();
        let committed = Rc::new(StdCell::new(0u32));
        let last_done = Rc::new(StdCell::new(0u64));
        for i in 0..16u64 {
            let db = db.clone();
            let committed = Rc::clone(&committed);
            let last_done = Rc::clone(&last_done);
            let ctx = ctx.clone();
            sim.spawn(async move {
                // Stagger arrivals so commits span several flushes.
                ctx.sleep(SimDuration::from_micros(i * 400)).await;
                let acct = db.table("acct").unwrap();
                let txn = db.begin().await.unwrap();
                db.insert(txn, acct, 1000 + i, b"row").await.unwrap();
                db.commit(txn).await.unwrap();
                committed.set(committed.get() + 1);
                last_done.set(last_done.get().max(ctx.now().as_nanos()));
            });
        }
        sim.run_until(rapilog_simcore::SimTime::from_secs(2));
        assert_eq!(committed.get(), 16);
        let elapsed =
            SimDuration::from_nanos(last_done.get()) - SimDuration::from_nanos(t0.as_nanos());
        // All 16 commits should ride a handful of rotations (group commit),
        // far less than 16 full rotations.
        assert!(
            elapsed < SimDuration::from_millis(60),
            "took {elapsed}, group commit broken?"
        );
        assert!(
            elapsed > SimDuration::from_millis(4),
            "took {elapsed}, rotation not charged?"
        );
    }
}
