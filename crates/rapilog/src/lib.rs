#![warn(missing_docs)]

//! RapiLog: dependable asynchronous logging through verification.
//!
//! This crate is the paper's primary contribution. A database forces its
//! write-ahead log synchronously because it trusts nothing between itself
//! and the platter: the OS can crash, power can fail. RapiLog inserts a
//! layer it *can* trust — a buffer owned by a verified hypervisor component
//! — and turns every synchronous log write into:
//!
//! 1. copy into the **dependable buffer** (microseconds),
//! 2. acknowledge immediately,
//! 3. drain to the physical disk **asynchronously, in order**, in large
//!    batches that run at sequential media bandwidth.
//!
//! The acknowledgement is honest because the buffer survives everything the
//! database fears:
//!
//! * **Guest/OS crash** — the buffer lives in a trusted cell outside the
//!   guest; the drain continues unaffected ([`rapilog_microvisor`] enforces
//!   the isolation).
//! * **Power cut** — the machine keeps running for the supply's residual
//!   window ([`rapilog_simpower`]); the buffer is **admission-controlled**
//!   to the size that provably drains within that window
//!   ([`rapilog_simpower::budget`]), and the power-fail warning triggers an
//!   immediate emergency drain.
//! * **Overload** — if the log stream exceeds disk bandwidth the buffer
//!   fills and writers block: RapiLog degrades to exactly the synchronous
//!   path's throughput, never below it (invariant I5).
//!
//! The guest-facing [`RapiLogDevice`] implements
//! [`BlockDevice`](rapilog_simdisk::BlockDevice), so an unmodified engine
//! points its log partition at it and cannot tell the difference — except
//! that "sync" writes return in microseconds.
//!
//! # Examples
//!
//! ```
//! use rapilog::prelude::*;
//! use rapilog_simcore::Sim;
//! use rapilog_simdisk::{specs, BlockDeviceExt, Disk};
//! use rapilog_microvisor::{Hypervisor, Trust};
//!
//! let mut sim = Sim::new(1);
//! let ctx = sim.ctx();
//! let hv = Hypervisor::new(&ctx);
//! let cell = hv.create_cell("rapilog", Trust::Trusted);
//! let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
//! let rl = RapiLog::builder(&ctx).cell(&cell).disk(disk).build();
//! let dev = rl.device();
//! sim.spawn(async move {
//!     // A "synchronous" log write: acknowledged from the buffer.
//!     dev.write(0, &vec![7u8; 512], true).await.unwrap();
//! });
//! sim.run();
//! ```

pub mod audit;
pub mod buffer;
pub mod drain;
pub mod replicate;
pub mod service;
pub mod shard;
pub mod vdisk;

pub use audit::{AuditReport, TenantAudit};
pub use buffer::{BufferStats, DependableBuffer};
pub use replicate::{
    ReplicationConfig, ReplicationMode, ReplicationReport, Replicator, ShipAck, ShipFrame, Standby,
    StandbyReport,
};
pub use service::{LogClient, LogService, SubmitError};
pub use shard::{ShardedBuffer, TenantId, TenantSpec};
pub use vdisk::RapiLogDevice;

/// One-stop imports for assembling and observing a RapiLog stack.
///
/// ```
/// use rapilog::prelude::*;
/// ```
pub mod prelude {
    pub use crate::audit::{AuditReport, TenantAudit};
    pub use crate::buffer::{BufferStats, DependableBuffer};
    pub use crate::replicate::{
        ReplicationConfig, ReplicationMode, ReplicationReport, Replicator, ShipAck, ShipFrame,
        Standby, StandbyReport,
    };
    pub use crate::service::{LogClient, LogService, SubmitError};
    pub use crate::shard::{ShardedBuffer, TenantId, TenantSpec};
    pub use crate::vdisk::RapiLogDevice;
    pub use crate::{
        AdaptiveBatchConfig, BatchPolicy, CapacitySpec, DrainConfig, DrainStats, OrderingMode,
        RapiLog, RapiLogBuilder, RapiLogConfig, RapiLogSnapshot, RetryPolicy, TenantSnapshot,
    };
}

use std::rc::Rc;

use rapilog_microvisor::cell::{Cell, Trust};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::Disk;
use rapilog_simpower::{budget, PowerSupply};

/// How the buffer capacity is chosen.
#[derive(Debug, Clone, Copy)]
pub enum CapacitySpec {
    /// Fixed size in bytes (ablation studies).
    Fixed(u64),
    /// Derived from the power supply's residual window and the physical
    /// disk's sequential bandwidth — the paper's sizing rule.
    FromSupply,
}

/// How the drain reacts to device faults.
///
/// Transient command failures are retried with capped exponential backoff;
/// media errors are remapped and rewritten. When the retry budget for one
/// run is exhausted the instance enters **degraded mode**: commits are no
/// longer acknowledged early — the device waits for the drain to put each
/// write on media before returning — until
/// [`degraded_exit_successes`](Self::degraded_exit_successes) consecutive
/// media writes succeed again. The durability guarantee is preserved at the
/// cost of latency (invariant I5 in spirit: degrade, never lie).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Master switch. With retries disabled, the first device error kills
    /// the drain exactly as a power collapse would — used by the fault
    /// harness to prove the durability checker can fail.
    pub enabled: bool,
    /// Transient failures tolerated on one run before entering degraded
    /// mode. The drain keeps retrying past the budget (dropping the batch
    /// would lose acknowledged data); the budget only gates the mode.
    pub max_retries: u32,
    /// First retry delay; doubles each attempt.
    pub backoff_base: SimDuration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: SimDuration,
    /// Maximum deterministic jitter added to each delay (decorrelates
    /// retry storms across instances; drawn from the drain's forked RNG).
    pub jitter: SimDuration,
    /// Consecutive successful media writes required to leave degraded mode
    /// (hysteresis: one lucky write must not flap the mode).
    pub degraded_exit_successes: u32,
    /// Sector remaps tolerated on one run before declaring the device dead
    /// (a disk growing defects this fast has failed).
    pub max_remaps: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            enabled: true,
            max_retries: 8,
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(20),
            jitter: SimDuration::from_micros(50),
            degraded_exit_successes: 4,
            max_remaps: 64,
        }
    }
}

/// How strictly the drain orders media writes relative to the log's
/// sequence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingMode {
    /// One run on media at a time, in exact sequence order — the paper's
    /// original serial drain. Trace-identical to previous releases.
    #[default]
    Strict,
    /// Runs are issued out of order across the device's channels wherever
    /// their sector ranges are disjoint; overlapping rewrites and batch
    /// boundaries still order. Durability is unchanged (the audit ledger
    /// only advances with the contiguous durable prefix) but disjoint runs
    /// overlap in flight, so SSD-class devices drain at channel-scaled
    /// bandwidth.
    PartiallyConstrained,
}

/// Tuning for [`BatchPolicy::Adaptive`]: the bounds and deadlines of the
/// controller that sizes group commits to the observed drain operating
/// point (see DESIGN.md §15 for the control law).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBatchConfig {
    /// Floor for the batch target — the size the controller decays to
    /// under light load so a small commit never rides a giant run.
    pub min_batch: usize,
    /// Ceiling on one batch's acceptable drain service time. The target
    /// grows only while the service-time EWMA sits well below this budget
    /// (and marginal bandwidth still improves), and shrinks as soon as the
    /// EWMA exceeds it.
    pub latency_budget: SimDuration,
    /// Longest the drain loop may hold a pop to coalesce a fuller batch.
    /// The hold timer only arms while the in-flight window is saturated
    /// (the held bytes could not dispatch anyway); an idle window pops
    /// immediately, so a lone commit never waits at all.
    pub max_hold: SimDuration,
}

impl Default for AdaptiveBatchConfig {
    fn default() -> Self {
        AdaptiveBatchConfig {
            min_batch: 64 * 1024,
            latency_budget: SimDuration::from_millis(2),
            max_hold: SimDuration::from_micros(100),
        }
    }
}

/// How the drain sizes its group-commit batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Every pop takes up to [`DrainConfig::max_batch`] bytes — today's
    /// behaviour, bit-identical trace for trace to previous releases.
    #[default]
    Fixed,
    /// An EWMA controller tracks per-batch drain service time and achieved
    /// bandwidth from batch-retirement events and resizes the next pop to
    /// sit at the latency/bandwidth knee: growing while marginal bandwidth
    /// gain holds and the latency budget allows, decaying to
    /// [`AdaptiveBatchConfig::min_batch`] under light load. Under
    /// [`OrderingMode::PartiallyConstrained`] it also autotunes the
    /// in-flight window between [`DrainConfig::window_depth`] and the
    /// device's [`Geometry::queue_depth`](rapilog_simdisk::Geometry).
    /// [`OrderingMode::Strict`] pins the batch target to `max_batch` and
    /// ignores the controller entirely, preserving the serial drain's
    /// trace bit for bit.
    Adaptive(AdaptiveBatchConfig),
}

/// Drain tuning: batching, fault handling and the in-flight window.
///
/// Built fluently and handed to
/// [`RapiLogBuilder::drain_config`]:
///
/// ```
/// use rapilog::{BatchPolicy, DrainConfig, OrderingMode};
/// let cfg = DrainConfig::new()
///     .max_batch(1 << 20)
///     .window_depth(8)
///     .ordering(OrderingMode::PartiallyConstrained)
///     .batch_policy(BatchPolicy::Adaptive(Default::default()));
/// assert_eq!(cfg.window_depth, 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DrainConfig {
    /// Drain fault handling.
    pub retry: RetryPolicy,
    /// Largest single drain batch in bytes.
    pub max_batch: usize,
    /// Maximum runs in flight at once under
    /// [`OrderingMode::PartiallyConstrained`] (ignored by
    /// [`OrderingMode::Strict`], which is always depth 1).
    pub window_depth: usize,
    /// Media write ordering discipline.
    pub ordering: OrderingMode,
    /// Group-commit batch sizing policy.
    pub batch: BatchPolicy,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            retry: RetryPolicy::default(),
            max_batch: 2 * 1024 * 1024,
            window_depth: 4,
            ordering: OrderingMode::Strict,
            batch: BatchPolicy::Fixed,
        }
    }
}

impl DrainConfig {
    /// Starts from the defaults (2 MiB batches, retries on, strict order).
    pub fn new() -> DrainConfig {
        DrainConfig::default()
    }

    /// Drain fault handling (default: [`RetryPolicy::default`]).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Largest single drain batch in bytes (default: 2 MiB).
    pub fn max_batch(mut self, bytes: usize) -> Self {
        self.max_batch = bytes;
        self
    }

    /// Runs kept in flight under the windowed drain (default: 4).
    ///
    /// A depth of 0 is meaningless — the window could never dispatch — so
    /// the setter **silently clamps to 1** rather than erroring: the field
    /// stays plain-old-data and a clamped window is exactly the strict
    /// serial discipline, which is always safe. Pass the device's channel
    /// count (or more) to actually exploit a multi-queue disk.
    pub fn window_depth(mut self, depth: usize) -> Self {
        self.window_depth = depth.max(1);
        self
    }

    /// Media write ordering discipline (default: [`OrderingMode::Strict`]).
    pub fn ordering(mut self, mode: OrderingMode) -> Self {
        self.ordering = mode;
        self
    }

    /// Group-commit batch sizing policy (default: [`BatchPolicy::Fixed`]).
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }
}

/// RapiLog configuration.
#[derive(Debug, Clone, Copy)]
pub struct RapiLogConfig {
    /// Buffer capacity policy.
    pub capacity: CapacitySpec,
    /// Fixed CPU cost of accepting one write into the buffer.
    pub ack_base: SimDuration,
    /// Additional copy cost per KiB accepted.
    pub ack_per_kib: SimDuration,
    /// Drain tuning (batching, retries, ordering window).
    pub drain: DrainConfig,
}

impl Default for RapiLogConfig {
    fn default() -> Self {
        RapiLogConfig {
            capacity: CapacitySpec::FromSupply,
            ack_base: SimDuration::from_micros(2),
            // ~4 GB/s single-copy bandwidth.
            ack_per_kib: SimDuration::from_nanos(250),
            drain: DrainConfig::default(),
        }
    }
}

/// Shared ack-mode flag between the drain (which decides) and the device
/// (which obeys): while degraded, writes are acknowledged only after the
/// drain has committed them to media.
pub(crate) struct ModeState {
    degraded: std::cell::Cell<bool>,
}

impl ModeState {
    pub(crate) fn new() -> Rc<ModeState> {
        Rc::new(ModeState {
            degraded: std::cell::Cell::new(false),
        })
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.get()
    }

    pub(crate) fn set_degraded(&self, on: bool) {
        self.degraded.set(on);
    }
}

/// A unified point-in-time view of one RapiLog instance, combining buffer
/// statistics, the invariant auditor's report and the device's mode.
///
/// Produced by [`RapiLog::snapshot`]; this is the one stats surface callers
/// should consume instead of stitching together `stats()`, `occupancy()`,
/// `capacity()` and `audit_report()` by hand.
#[derive(Debug, Clone)]
pub struct RapiLogSnapshot {
    /// Buffer counters (accepted/drained bytes, peak occupancy, …).
    pub buffer: BufferStats,
    /// The invariant auditor's report.
    pub audit: AuditReport,
    /// Bytes currently buffered (acked, not yet on media).
    pub occupancy: u64,
    /// The admission cap in bytes (0 in write-through mode).
    pub capacity: u64,
    /// True once a power-failure episode froze the buffer.
    pub frozen: bool,
    /// True if the device runs unbuffered (residual window too small).
    pub write_through: bool,
    /// True while the instance acknowledges synchronously because the log
    /// disk is misbehaving (see [`RetryPolicy`]).
    pub degraded: bool,
    /// The backing disk's counters, including queued-request depth
    /// (`outstanding` / `max_outstanding`) under the windowed drain.
    pub disk: rapilog_simdisk::DiskStats,
    /// Per-tenant views, in shard order. A single-tenant instance has one
    /// entry for [`TenantId::DEFAULT`]; the aggregate fields above are the
    /// sums across these.
    pub tenants: Vec<TenantSnapshot>,
    /// The log shipper's status, when replication is enabled.
    pub replication: Option<replicate::ReplicationReport>,
    /// The batching controller's state: current batch target, window
    /// depth, EWMAs and commit-latency percentiles.
    pub drain: DrainStats,
}

/// The drain controller's point-in-time view: what the batching policy is
/// currently doing and what it has observed. Populated for every instance;
/// under [`BatchPolicy::Fixed`] or [`OrderingMode::Strict`] the target and
/// window never move but the EWMA and commit-latency fields still measure
/// the drain.
#[derive(Debug, Clone, Default)]
pub struct DrainStats {
    /// Bytes the next `pop_batch` will aim for.
    pub batch_target: u64,
    /// Current in-flight window depth (permits the drain may hold).
    pub window_depth: u64,
    /// The configured depth the window never narrows below.
    pub window_base: u64,
    /// The device-geometry cap the window never widens past.
    pub window_max: u64,
    /// EWMA of per-batch drain service time (dispatch → retirement), ns.
    pub ewma_service_ns: u64,
    /// EWMA of achieved drain bandwidth, bytes per second.
    pub ewma_bytes_per_sec: u64,
    /// Times the controller doubled the batch target.
    pub batch_grows: u64,
    /// Times the controller halved the batch target.
    pub batch_shrinks: u64,
    /// Times the window widened by one permit.
    pub window_widens: u64,
    /// Times the window narrowed by one permit.
    pub window_narrows: u64,
    /// Times the hold timer armed and expired before a pop.
    pub hold_fires: u64,
    /// Median commit latency (admission → contiguous durable prefix), ns.
    pub commit_p50_ns: u64,
    /// 99th-percentile commit latency, ns.
    pub commit_p99_ns: u64,
    /// Extents measured into the commit-latency histogram.
    pub commits_measured: u64,
}

/// One tenant's slice of a [`RapiLogSnapshot`].
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The tenant (`TenantId` raw value).
    pub tenant: u64,
    /// Fair-share weight.
    pub weight: u32,
    /// This shard's buffer counters.
    pub buffer: BufferStats,
    /// Bytes this shard currently buffers.
    pub occupancy: u64,
    /// This shard's admission cap in bytes.
    pub capacity: u64,
}

/// Fluent constructor for [`RapiLog`]; obtained from [`RapiLog::builder`].
///
/// `cell` and `disk` are mandatory; everything else has the defaults of
/// [`RapiLogConfig::default`]. `build` panics if a mandatory part is
/// missing or the cell is untrusted.
///
/// # Examples
///
/// ```
/// use rapilog::prelude::*;
/// use rapilog_microvisor::{Hypervisor, Trust};
/// use rapilog_simcore::Sim;
/// use rapilog_simdisk::{specs, Disk};
///
/// let mut sim = Sim::new(1);
/// let ctx = sim.ctx();
/// let hv = Hypervisor::new(&ctx);
/// let cell = hv.create_cell("rapilog", Trust::Trusted);
/// let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
/// let rl = RapiLog::builder(&ctx)
///     .cell(&cell)
///     .disk(disk)
///     .capacity(CapacitySpec::Fixed(8 << 20))
///     .drain_config(DrainConfig::new().max_batch(1 << 20))
///     .build();
/// assert_eq!(rl.capacity(), 8 << 20);
/// ```
#[must_use = "a builder does nothing until build() is called"]
pub struct RapiLogBuilder<'a> {
    ctx: SimCtx,
    cell: Option<&'a Cell>,
    disk: Option<Disk>,
    supply: Option<&'a PowerSupply>,
    cfg: RapiLogConfig,
    tenants: Vec<TenantSpec>,
    repl: Option<replicate::Replicator>,
}

impl<'a> RapiLogBuilder<'a> {
    /// The trusted cell the drain tasks run in (mandatory).
    pub fn cell(mut self, cell: &'a Cell) -> Self {
        self.cell = Some(cell);
        self
    }

    /// The physical disk the buffer drains to (mandatory).
    pub fn disk(mut self, disk: Disk) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The power supply whose residual window sizes the buffer and whose
    /// warning signal arms the emergency drain. Optional: without one,
    /// [`CapacitySpec::FromSupply`] falls back to 16 MiB.
    pub fn supply(mut self, psu: &'a PowerSupply) -> Self {
        self.supply = Some(psu);
        self
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, cfg: RapiLogConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Buffer capacity policy (default: [`CapacitySpec::FromSupply`]).
    pub fn capacity(mut self, capacity: CapacitySpec) -> Self {
        self.cfg.capacity = capacity;
        self
    }

    /// Replaces the drain tuning (batching, retries, ordering window) at
    /// once; see [`DrainConfig`].
    pub fn drain_config(mut self, drain: DrainConfig) -> Self {
        self.cfg.drain = drain;
        self
    }

    /// The tenants sharing this instance (default: one shard for
    /// [`TenantId::DEFAULT`]). The capacity is split into per-tenant shards
    /// by weight and the drain runs the weighted-round-robin fair-share
    /// scheduler over them; a lone shard under [`OrderingMode::Strict`]
    /// gets the serial drain instead. Every named tenant gets its own audit
    /// section; the default tenant alone reports through the global
    /// ledger. See [`TenantSpec`].
    pub fn tenants(mut self, specs: &[TenantSpec]) -> Self {
        self.tenants = specs.to_vec();
        self
    }

    /// Ships every retired batch to a standby cell through `repl`; see
    /// [`Replicator`]. The builder attaches the
    /// shipper's send/ack loops to this instance's trusted cell; in
    /// [`Sync`](replicate::ReplicationMode::Sync) mode, guest
    /// acknowledgements additionally wait for the standby's ack.
    pub fn replicate(mut self, repl: &replicate::Replicator) -> Self {
        self.repl = Some(repl.clone());
        self
    }

    /// Fixed CPU cost of accepting one write (default: 2 µs).
    pub fn ack_base(mut self, cost: SimDuration) -> Self {
        self.cfg.ack_base = cost;
        self
    }

    /// Additional copy cost per KiB accepted (default: 250 ns).
    pub fn ack_per_kib(mut self, cost: SimDuration) -> Self {
        self.cfg.ack_per_kib = cost;
        self
    }

    /// Assembles the instance: sizes the buffer, splits it into one shard
    /// per tenant (falling back to write-through if some shard cannot
    /// cover even one sector), builds the guest-facing devices and spawns
    /// the drain tasks. Without [`tenants`](Self::tenants) the instance has
    /// one shard, for [`TenantId::DEFAULT`].
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `disk` was not supplied, or if the cell is
    /// untrusted: an unverified buffer would make the early
    /// acknowledgement a lie, which is the whole point of the paper.
    pub fn build(self) -> RapiLog {
        let ctx = &self.ctx;
        let cell = self.cell.expect("RapiLogBuilder: cell is mandatory");
        let disk = self.disk.expect("RapiLogBuilder: disk is mandatory");
        let supply = self.supply;
        let cfg = self.cfg;
        let repl = self.repl;
        assert!(
            cell.trust() == Trust::Trusted,
            "RapiLog must live in a trusted (verified) cell"
        );
        let bandwidth = disk.spec().sequential_bandwidth();
        let capacity = match (cfg.capacity, supply) {
            (CapacitySpec::Fixed(b), _) => b,
            (CapacitySpec::FromSupply, Some(psu)) => {
                budget::max_buffer_bytes(psu.spec(), bandwidth)
            }
            (CapacitySpec::FromSupply, None) => 16 * 1024 * 1024,
        };
        let specs = match self.tenants.as_slice() {
            [] => vec![TenantSpec::new(TenantId::DEFAULT.0)],
            named => named.to_vec(),
        };
        let weights: Vec<u32> = specs.iter().map(|s| s.weight.max(1)).collect();
        let shard_caps = shard::split_capacity(capacity, &weights);
        let audit = audit::Audit::new(ctx, supply.cloned());
        // Named tenants get their audit sections up front, so the report
        // testifies for each even if it never writes. The lone default
        // shard reports through the global ledger.
        if specs.len() > 1 || specs[0].id != TenantId::DEFAULT {
            for spec in &specs {
                audit.register_tenant(spec.id.0);
            }
        }
        let mode = ModeState::new();
        let drain_ctrl = drain::DrainController::new(ctx, &cfg.drain, &disk);
        if shard_caps
            .iter()
            .any(|&c| c < rapilog_simdisk::SECTOR_SIZE as u64)
        {
            // Some shard cannot cover even one sector's drain: the whole
            // instance runs write-through (per-tenant devices, no buffers)
            // rather than buffering for some tenants and lying to others.
            // RapiLog then adds nothing but also risks nothing; the
            // paper's sizing rule exists so deployments detect this case
            // up front.
            assert!(
                repl.is_none(),
                "log shipping requires a buffered instance; write-through has no drain to tee"
            );
            let tenants: Vec<TenantHandle> = specs
                .iter()
                .map(|spec| TenantHandle {
                    id: spec.id,
                    weight: spec.weight.max(1),
                    buffer: DependableBuffer::new(0),
                    device: RapiLogDevice::new_write_through(
                        ctx,
                        Rc::new(disk.clone()),
                        cfg,
                        audit.clone(),
                    ),
                })
                .collect();
            return RapiLog {
                tenants: Rc::new(tenants),
                audit,
                mode,
                disk,
                replication: None,
                drain_ctrl,
            };
        }
        if let Some(r) = &repl {
            r.attach(cell, audit.clone());
        }
        let sharded = ShardedBuffer::new(&specs, capacity);
        for s in sharded.shards() {
            s.buf.set_clock(ctx);
        }
        if let Some(psu) = supply.filter(|_| specs.len() > 1) {
            // The sizing rule must hold for the AGGREGATE: the emergency
            // drain empties every shard within one residual window. (A
            // lone shard's capacity is the operator's: `Fixed` exists to
            // oversize it in ablations.)
            assert!(
                budget::aggregate_fits(psu.spec(), bandwidth, &sharded.capacities()),
                "aggregate shard capacity exceeds the residual-energy budget"
            );
        }
        let tenants: Vec<TenantHandle> = sharded
            .shards()
            .iter()
            .map(|s| TenantHandle {
                id: s.id,
                weight: s.weight,
                buffer: s.buf.clone(),
                device: RapiLogDevice::new(
                    ctx,
                    s.buf.clone(),
                    Rc::new(disk.clone()),
                    cfg,
                    audit.clone(),
                    Rc::clone(&mode),
                    repl.clone().map(|r| (s.id.0, r)),
                ),
            })
            .collect();
        drain::start(
            ctx,
            cell,
            &sharded,
            disk.clone(),
            cfg,
            supply.cloned(),
            audit.clone(),
            Rc::clone(&mode),
            repl.clone(),
            Rc::clone(&drain_ctrl),
        );
        RapiLog {
            tenants: Rc::new(tenants),
            audit,
            mode,
            disk,
            replication: repl,
            drain_ctrl,
        }
    }
}

/// One tenant's slice of the instance: identity, weight, buffer shard and
/// guest-facing device. A single-tenant instance has exactly one handle.
struct TenantHandle {
    id: TenantId,
    weight: u32,
    buffer: DependableBuffer,
    device: RapiLogDevice,
}

/// The assembled RapiLog instance.
#[derive(Clone)]
pub struct RapiLog {
    tenants: Rc<Vec<TenantHandle>>,
    audit: audit::Audit,
    mode: Rc<ModeState>,
    disk: Disk,
    replication: Option<replicate::Replicator>,
    drain_ctrl: Rc<drain::DrainController>,
}

impl RapiLog {
    /// Starts assembling a RapiLog instance; see [`RapiLogBuilder`].
    pub fn builder<'a>(ctx: &SimCtx) -> RapiLogBuilder<'a> {
        RapiLogBuilder {
            ctx: ctx.clone(),
            cell: None,
            disk: None,
            supply: None,
            cfg: RapiLogConfig::default(),
            tenants: Vec::new(),
            repl: None,
        }
    }

    /// The guest-facing block device for the log partition. On a
    /// multi-tenant instance this is the *first* tenant's device; use
    /// [`device_for`](Self::device_for) to address a specific tenant.
    pub fn device(&self) -> RapiLogDevice {
        self.tenants[0].device.clone()
    }

    /// The guest-facing device for `tenant`, if it shares this instance.
    pub fn device_for(&self, tenant: TenantId) -> Option<RapiLogDevice> {
        self.tenants
            .iter()
            .find(|t| t.id == tenant)
            .map(|t| t.device.clone())
    }

    /// The tenants sharing this instance, in shard order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.iter().map(|t| t.id).collect()
    }

    /// Buffer statistics snapshot, aggregated across shards.
    pub fn stats(&self) -> BufferStats {
        let mut agg = BufferStats::default();
        for t in self.tenants.iter() {
            let s = t.buffer.stats();
            agg.accepted_writes += s.accepted_writes;
            agg.accepted_bytes += s.accepted_bytes;
            agg.drained_bytes += s.drained_bytes;
            agg.peak_occupancy += s.peak_occupancy;
            agg.backpressure_events += s.backpressure_events;
        }
        agg
    }

    /// One unified snapshot of the instance's observable state: aggregate
    /// buffer counters, audit report, occupancy, capacity and mode flags,
    /// plus one [`TenantSnapshot`] per shard.
    pub fn snapshot(&self) -> RapiLogSnapshot {
        let tenants: Vec<TenantSnapshot> = self
            .tenants
            .iter()
            .map(|t| TenantSnapshot {
                tenant: t.id.0,
                weight: t.weight,
                buffer: t.buffer.stats(),
                occupancy: t.buffer.occupancy(),
                capacity: t.buffer.capacity(),
            })
            .collect();
        RapiLogSnapshot {
            buffer: self.stats(),
            audit: self.audit.report(),
            occupancy: self.occupancy(),
            capacity: self.capacity(),
            frozen: self.device_frozen(),
            write_through: self.tenants[0].device.is_write_through(),
            degraded: self.mode.is_degraded(),
            disk: self.disk.stats(),
            tenants,
            replication: self.replication.as_ref().map(|r| r.report()),
            drain: self.drain_ctrl.stats(),
        }
    }

    /// The log shipper's status, when replication is enabled.
    pub fn replication_report(&self) -> Option<replicate::ReplicationReport> {
        self.replication.as_ref().map(|r| r.report())
    }

    /// True while the instance has fallen back to synchronous
    /// acknowledgements because the log disk is misbehaving.
    pub fn is_degraded(&self) -> bool {
        self.mode.is_degraded()
    }

    /// Bytes currently buffered across all shards (acked, not on media).
    pub fn occupancy(&self) -> u64 {
        self.tenants.iter().map(|t| t.buffer.occupancy()).sum()
    }

    /// The admission cap in bytes, summed across shards.
    pub fn capacity(&self) -> u64 {
        self.tenants.iter().map(|t| t.buffer.capacity()).sum()
    }

    /// Waits until every acknowledged byte — from every tenant — is on the
    /// physical disk.
    pub async fn quiesce(&self) {
        for t in self.tenants.iter() {
            t.buffer.drained().await;
        }
    }

    /// True once the buffer has frozen (a power-failure episode ran); a
    /// frozen instance must be replaced after power returns. Shards freeze
    /// together, so any frozen shard means the instance froze.
    pub fn device_frozen(&self) -> bool {
        self.tenants.iter().any(|t| t.buffer.is_frozen())
    }

    /// The invariant auditor's report.
    pub fn audit_report(&self) -> AuditReport {
        self.audit.report()
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, BlockDeviceExt};
    use rapilog_simpower::{PowerSupply, SupplySpec};

    fn fixture(seed: u64) -> (Sim, SimCtx, Hypervisor, Disk) {
        let sim = Sim::new(seed);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        (sim, ctx, hv, disk)
    }

    #[test]
    fn window_depth_zero_clamps_to_one() {
        // Pins the documented clamp: a zero window could never dispatch,
        // so the setter coerces it to the always-safe serial depth of 1.
        let cfg = DrainConfig::new().window_depth(0);
        assert_eq!(cfg.window_depth, 1);
        let cfg = DrainConfig::new().window_depth(1);
        assert_eq!(cfg.window_depth, 1);
        let cfg = DrainConfig::new().window_depth(7);
        assert_eq!(cfg.window_depth, 7);
    }

    #[test]
    fn builder_applies_defaults_and_setters() {
        let (_sim, ctx, hv, disk) = fixture(1);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(4 << 20))
            .drain_config(DrainConfig::new().max_batch(1 << 20))
            .ack_base(SimDuration::from_micros(5))
            .ack_per_kib(SimDuration::from_nanos(100))
            .build();
        assert_eq!(rl.capacity(), 4 << 20);
        assert!(!rl.device().is_write_through());
        std::mem::forget(cell);
    }

    #[test]
    fn builder_without_supply_defaults_from_supply_to_16_mib() {
        let (_sim, ctx, hv, disk) = fixture(2);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx).cell(&cell).disk(disk).build();
        assert_eq!(rl.capacity(), 16 * 1024 * 1024);
        std::mem::forget(cell);
    }

    #[test]
    fn builder_config_replaces_the_whole_configuration() {
        let (_sim, ctx, hv, disk) = fixture(3);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let cfg = RapiLogConfig {
            capacity: CapacitySpec::Fixed(1 << 20),
            ..RapiLogConfig::default()
        };
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .config(cfg)
            .build();
        assert_eq!(rl.capacity(), 1 << 20);
        std::mem::forget(cell);
    }

    #[test]
    #[should_panic(expected = "cell is mandatory")]
    fn builder_panics_without_a_cell() {
        let (_sim, ctx, _hv, disk) = fixture(4);
        let _ = RapiLog::builder(&ctx).disk(disk).build();
    }

    #[test]
    #[should_panic(expected = "disk is mandatory")]
    fn builder_panics_without_a_disk() {
        let (_sim, ctx, hv, _disk) = fixture(5);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let _ = RapiLog::builder(&ctx).cell(&cell).build();
    }

    #[test]
    #[should_panic(expected = "trusted")]
    fn builder_rejects_an_untrusted_cell() {
        let (_sim, ctx, hv, disk) = fixture(6);
        let cell = hv.create_cell("sketchy", Trust::Untrusted);
        let _ = RapiLog::builder(&ctx).cell(&cell).disk(disk).build();
    }

    #[test]
    fn hopeless_supply_builds_write_through_with_zero_capacity() {
        let (_sim, ctx, hv, disk) = fixture(7);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
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
            .disk(disk)
            .supply(&psu)
            .build();
        let snap = rl.snapshot();
        assert!(snap.write_through);
        assert_eq!(snap.capacity, 0);
        assert!(!snap.frozen);
        std::mem::forget(cell);
    }

    #[test]
    fn silent_tenant_still_gets_an_audit_section() {
        let (mut sim, ctx, hv, disk) = fixture(9);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        // Single-tenant instance with an explicit tenant id: the section
        // must exist (as zero activity) even though the tenant never
        // writes — silence is a fact the report should state, not omit.
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(1 << 20))
            .tenants(&[shard::TenantSpec::new(5)])
            .build();
        sim.run_until(rapilog_simcore::SimTime::from_millis(10));
        let report = rl.audit_report();
        let section = report
            .tenant(5)
            .expect("a registered tenant is reported even with zero writes");
        assert_eq!(section.commits, 0);
        assert!(section.guarantee_held());
        assert!(report.guarantee_held());
        std::mem::forget(cell);
    }

    #[test]
    fn silent_tenants_get_sections_on_a_sharded_instance_too() {
        let (mut sim, ctx, hv, disk) = fixture(10);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(2 << 20))
            .tenants(&[shard::TenantSpec::new(1), shard::TenantSpec::new(2)])
            .build();
        // Only tenant 1 writes; tenant 2 stays silent.
        let dev = rl.device_for(TenantId(1)).unwrap();
        sim.spawn(async move {
            dev.write(0, &vec![3u8; rapilog_simdisk::SECTOR_SIZE], true)
                .await
                .unwrap();
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        let report = rl.audit_report();
        assert!(report.tenant(1).unwrap().commits > 0);
        let silent = report.tenant(2).expect("silent tenant still reported");
        assert_eq!(silent.commits, 0);
        assert!(report.guarantee_held());
        std::mem::forget(cell);
    }

    #[test]
    fn a_one_spec_instance_reports_its_weight() {
        let (_sim, ctx, hv, disk) = fixture(11);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(1 << 20))
            .tenants(&[TenantSpec::new(5).weight(3)])
            .build();
        let snap = rl.snapshot();
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.tenants[0].tenant, 5);
        assert_eq!(snap.tenants[0].weight, 3);
        std::mem::forget(cell);
    }

    /// Four writers push 1 KiB flushes at an HDD-backed instance built
    /// either with no `.tenants()` or with `.tenants(&[TenantSpec::new(0)])`.
    /// Returns the trace, the audit report and the drain statistics.
    fn one_shard_run(
        explicit: bool,
        drain: DrainConfig,
        sick: bool,
    ) -> (String, AuditReport, DrainStats) {
        let mut sim = Sim::new(0x1D);
        let ctx = sim.ctx();
        ctx.tracer().set_capacity(1 << 16);
        ctx.tracer().set_enabled(true);
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let mut builder = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .capacity(CapacitySpec::Fixed(4 << 20))
            .drain_config(drain);
        if explicit {
            builder = builder.tenants(&[TenantSpec::new(0)]);
        }
        let rl = builder.build();
        disk.set_sick(sick);
        for w in 0..4u64 {
            let dev = rl.device();
            let ctx = ctx.clone();
            sim.spawn(async move {
                for i in 0..64u64 {
                    let data = vec![i as u8; 2 * rapilog_simdisk::SECTOR_SIZE];
                    // A dead drain freezes the buffer: later writes fail.
                    let _ = dev.write(w * 4096 + i * 2, &data, true).await;
                    ctx.sleep(SimDuration::from_micros(20)).await;
                }
            });
        }
        sim.run_until(rapilog_simcore::SimTime::from_secs(2));
        let snap = rl.snapshot();
        std::mem::forget(cell);
        (ctx.tracer().snapshot().to_jsonl(), snap.audit, snap.drain)
    }

    #[test]
    fn a_default_build_is_the_tenant_zero_one_shard_build() {
        let adaptive = DrainConfig::new()
            .ordering(OrderingMode::PartiallyConstrained)
            .window_depth(1)
            .batch_policy(BatchPolicy::Adaptive(AdaptiveBatchConfig::default()));
        let retries_off = DrainConfig::new().retry(RetryPolicy {
            enabled: false,
            ..RetryPolicy::default()
        });
        for (name, drain, sick) in [
            ("strict", DrainConfig::new(), false),
            ("adaptive", adaptive, false),
            ("drain failure", retries_off, true),
        ] {
            let (trace, audit, stats) = one_shard_run(false, drain, sick);
            let (named_trace, named_audit, _) = one_shard_run(true, drain, sick);
            assert!(trace == named_trace, "{name}: traces diverge");
            assert_eq!(format!("{audit:?}"), format!("{named_audit:?}"), "{name}");
            assert!(audit.tenants.is_empty(), "{name}: no tenant sections");
            assert_eq!(audit.guarantee_held(), !sick, "{name}: {audit:?}");
            if name == "adaptive" {
                assert!(stats.hold_fires > 0, "the hold timer never armed");
            }
        }
    }

    #[test]
    fn snapshot_is_coherent_with_the_individual_surfaces() {
        let (mut sim, ctx, hv, disk) = fixture(8);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(1 << 20))
            .build();
        let dev = rl.device();
        sim.spawn(async move {
            dev.write(0, &vec![9u8; 1024], true).await.unwrap();
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        let snap = rl.snapshot();
        assert_eq!(snap.buffer.accepted_writes, rl.stats().accepted_writes);
        assert_eq!(snap.occupancy, rl.occupancy());
        assert_eq!(snap.capacity, rl.capacity());
        assert_eq!(snap.frozen, rl.device_frozen());
        assert!(!snap.write_through);
        assert!(snap.buffer.accepted_writes > 0);
        assert!(snap.audit.guarantee_held());
        std::mem::forget(cell);
    }
}
