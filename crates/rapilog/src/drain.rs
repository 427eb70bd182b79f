//! The asynchronous drain: trusted tasks that move buffered log data to
//! the physical disk in large batches.
//!
//! Every instance is a [`ShardedBuffer`] — a single tenant is the one-shard
//! case — and two tasks live in the trusted cell:
//!
//! * the **drain loop** — work-conserving: whenever extents are queued it
//!   coalesces the head of a queue into contiguous sector runs (up to the
//!   batch size) and commits them with FUA writes. Large sequential
//!   batches are what let the drain run at media bandwidth while the
//!   database's own synchronous writes would pay a rotation each.
//! * the **power watcher** — on the supply's power-fail warning it freezes
//!   every shard (no new admissions: the machine is dying anyway) and
//!   records, via the [`audit`](crate::audit), whether the remaining bytes
//!   hit the disk before the residual window expired. With correct sizing
//!   this is guaranteed; the audit exists to prove it run after run.
//!
//! Every drain loop forms its batches the same way, through
//! `BatchFormer`: pop, consolidate, and defer the last run's tail when
//! the next queued write rewrites it, so back-to-back batches stream to an
//! HDD as one sequential continuation instead of paying a rotation each.
//!
//! The drain loop has two bodies (see
//! [`OrderingMode`]):
//!
//! * **Strict on one shard** — one run on media at a time, in exact
//!   sequence order: the paper's original serial drain, byte- and
//!   trace-identical to previous releases wherever no tail is deferred.
//! * **the fair-share window engine** — everything else. A
//!   deficit-round-robin cursor pops each shard's batches into a **drain
//!   window** (`RunWindow`): up to
//!   [`window_depth`](crate::DrainConfig::window_depth) runs in flight at
//!   once across the device's channels (depth 1 for Strict over several
//!   shards). A run must wait for every earlier in-flight run whose sector
//!   range overlaps its own (media order is the newest-wins tiebreak, so
//!   overlapping rewrites must land in order); disjoint runs carry no edge
//!   and retire out of order. A batch releases its retire range the moment
//!   its last run lands, but the audit ledger only advances with each
//!   shard's contiguous durable prefix, so invariant I3 is untouched.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use rapilog_microvisor::cell::Cell;
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::sync::{Event, SemPermit, Semaphore};
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, Disk, IoError, IoRun, SECTOR_SIZE};
use rapilog_simpower::PowerSupply;

use crate::audit::Audit;
use crate::buffer::{DependableBuffer, Extent};
use crate::replicate::Replicator;
use crate::shard::{ShardedBuffer, TenantId};
use crate::{
    AdaptiveBatchConfig, BatchPolicy, DrainConfig, DrainStats, ModeState, OrderingMode,
    RapiLogConfig, RetryPolicy,
};

/// Truncates `run` to its first `keep_sectors` sectors, slicing the
/// boundary segment if the cut falls inside it (an O(1) re-view, not a
/// copy).
fn truncate_run(run: &mut IoRun, keep_sectors: u64) {
    let mut keep_bytes = keep_sectors as usize * SECTOR_SIZE;
    let mut keep_segments = 0;
    while keep_segments < run.segments.len() && keep_bytes > 0 {
        let len = run.segments[keep_segments].len();
        if len <= keep_bytes {
            keep_bytes -= len;
        } else {
            let cut = run.segments[keep_segments].slice(0..keep_bytes);
            run.segments[keep_segments] = cut;
            keep_bytes = 0;
        }
        keep_segments += 1;
    }
    run.segments.truncate(keep_segments);
}

/// Consolidates a batch of extents into scatter-gather runs holding the
/// *newest* bytes per sector.
///
/// This is the drain's key trick: a log stream contains endless rewrites of
/// its tail sector (every group-commit flush re-forces it). Replaying those
/// rewrites verbatim would cost one disk rotation each — exactly the cost
/// RapiLog exists to remove. Because the batch is committed (and
/// acknowledged to [`complete`](crate::buffer::DependableBuffer::complete))
/// only as a whole, writing the per-sector union preserves the durability
/// guarantee while turning the batch into a single sequential stream.
///
/// The builder is a single sort-free pass in sequence order, appending O(1)
/// views of extent memory (no per-sector re-copying):
///
/// * an extent starting exactly at the current run's end extends it;
/// * a *tail rewrite* — an extent overlapping the current run's tail and
///   reaching at least its end — truncates the superseded tail views and
///   extends the run, so the group-commit hot pattern still yields one run;
/// * anything else starts a new run. Runs are written to the device **in
///   order**, so a later run overlapping an earlier one lands newest-last
///   on the media — newest-wins without any per-sector map.
pub(crate) fn consolidate(batch: &[Extent]) -> Vec<IoRun> {
    let mut runs: Vec<IoRun> = Vec::new();
    for e in batch {
        let nsectors = (e.data.len() / SECTOR_SIZE) as u64;
        if let Some(run) = runs.last_mut() {
            let run_end = run.sector + run.sectors();
            if e.sector == run_end {
                run.segments.push(e.data.clone());
                continue;
            }
            if e.sector >= run.sector && e.sector < run_end && e.sector + nsectors >= run_end {
                truncate_run(run, e.sector - run.sector);
                run.segments.push(e.data.clone());
                continue;
            }
        }
        runs.push(IoRun {
            sector: e.sector,
            segments: vec![e.data.clone()],
        });
    }
    runs
}

/// One batch as the drain writes it, formed by [`BatchFormer::form`].
struct FormedBatch {
    /// The popped extents, whole: replication ships them as admitted.
    extents: Vec<Extent>,
    /// The consolidated runs; the last one may have lost its tail to the
    /// next batch.
    runs: Vec<IoRun>,
    /// Sequence range `[lo, hi]` that is durable once every run has
    /// landed; `None` when a deferral holds back everything it would
    /// retire.
    retire: Option<(u64, u64)>,
    /// Admission stamps of the retired extents, oldest first.
    admits: Vec<u64>,
    /// True when the tail went to the next batch, whose runs must then
    /// land after this batch's.
    deferred: bool,
}

impl FormedBatch {
    /// Bytes the runs write.
    fn bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.bytes() as u64).sum()
    }

    /// The `drain_batch` span payload: extents popped, runs and bytes
    /// written.
    fn payload(&self) -> Payload {
        Payload::Batch {
            extents: self.extents.len() as u64,
            runs: self.runs.len() as u64,
            bytes: self.bytes(),
        }
    }
}

/// Batch formation for one buffer, shared by every drain loop: pop,
/// consolidate, and **defer the tail** the queue's head is about to
/// rewrite.
///
/// A log's next flush re-forces the sector its previous flush ended in.
/// Writing that sector at the end of batch N and again at the start of
/// batch N+1 costs an HDD a near-full rotation per batch. So when the
/// oldest still-queued extent covers the trailing sectors of the batch's
/// last run, and starts after the run's first sector (a run is never
/// trimmed to nothing), those sectors are cut from the run. The newer
/// bytes go out at the start of the next batch, which then begins exactly
/// where this one ended: a sequential continuation.
///
/// Durability: let `k` be the oldest sequence with bytes in a trimmed
/// sector, counting the extents an earlier deferral carried when the trim
/// reaches back into the sectors it deferred. Every extent before `k` has
/// each of its sectors on media with its own or newer bytes once this
/// batch lands, so the batch retires only through `k − 1`. Extents `k..`
/// stay charged in the buffer's in-flight ledger and join the next batch's
/// retire range. That batch opens with the head extent, whose bytes cover
/// every deferred sector, so when it has landed (after this batch — the
/// windowed drains add that edge) every carried sector holds newer bytes.
/// Retire ranges still tile the sequence space in order.
///
/// With nothing queued nothing is deferred: the drain pays a rotation only
/// once it has caught up, and the emergency drain still empties the
/// buffer.
#[derive(Default)]
struct BatchFormer {
    /// `(seq, admit_ns)` of extents popped by earlier batches and not yet
    /// retired, oldest first.
    carried: Vec<(u64, u64)>,
    /// Sectors `[start, end)` the previous batch deferred.
    deferred: Option<(u64, u64)>,
    /// Negative control for the accounting property test: retire through
    /// `k` instead of `k − 1`.
    #[cfg(test)]
    retire_early: bool,
}

impl BatchFormer {
    /// Pops up to `max_bytes` from `buffer` (at least one extent) and forms
    /// the batch; `None` when nothing is queued.
    fn form(&mut self, buffer: &DependableBuffer, max_bytes: usize) -> Option<FormedBatch> {
        let extents = buffer.pop_batch(max_bytes);
        if extents.is_empty() {
            return None;
        }
        let mut runs = consolidate(&extents);
        let hold_from = self.defer_tail(buffer.head_range(), &extents, &mut runs);
        #[cfg(test)]
        let hold_from = hold_from.map(|k| k + u64::from(self.retire_early));
        self.carried
            .extend(extents.iter().map(|e| (e.seq, e.admit_ns)));
        let keep = hold_from.map_or(self.carried.len(), |k| {
            self.carried.partition_point(|&(seq, _)| seq < k)
        });
        let retire = (keep > 0).then(|| (self.carried[0].0, self.carried[keep - 1].0));
        let admits = self.carried.drain(..keep).map(|(_, admit)| admit).collect();
        Some(FormedBatch {
            extents,
            runs,
            retire,
            admits,
            deferred: hold_from.is_some(),
        })
    }

    /// Trims the last run's tail when `head` (the oldest queued extent)
    /// covers it, and returns `k`, the oldest sequence the trim holds
    /// back.
    fn defer_tail(
        &mut self,
        head: Option<(u64, u64)>,
        extents: &[Extent],
        runs: &mut [IoRun],
    ) -> Option<u64> {
        let previous = self.deferred.take();
        let (head_start, head_sectors) = head?;
        let last = runs.last_mut().expect("a non-empty batch has a run");
        let (start, end) = (last.sector, last.sector + last.sectors());
        if head_start <= start || head_start >= end || head_start + head_sectors < end {
            return None;
        }
        truncate_run(last, head_start - start);
        self.deferred = Some((head_start, end));
        let trimmed = |lo: u64, hi: u64| lo < end && head_start < hi;
        let carried = previous
            .filter(|&(lo, hi)| trimmed(lo, hi))
            .and_then(|_| self.carried.first().map(|&(seq, _)| seq));
        let in_batch = extents
            .iter()
            .find(|e| trimmed(e.sector, e.sector + (e.data.len() / SECTOR_SIZE) as u64))
            .map(|e| e.seq);
        carried.or(in_batch)
    }
}

/// The ordering edges over one consolidated batch: run `j` must wait for
/// every earlier run `i` whose sector range overlaps its own. A later run
/// overlapping an earlier one carries the *newer* bytes for the shared
/// sectors, so media order is the newest-wins tiebreak; disjoint runs
/// carry no edge and may land in any order.
///
/// This is the declarative spec of the constraint the windowed drain
/// enforces online (against every in-flight run, including runs of earlier
/// batches); the permutation property test exercises it directly.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn dep_edges(runs: &[IoRun]) -> Vec<Vec<usize>> {
    let mut edges = vec![Vec::new(); runs.len()];
    for j in 1..runs.len() {
        let (js, je) = (runs[j].sector, runs[j].sector + runs[j].sectors());
        for (i, earlier) in runs.iter().enumerate().take(j) {
            let (is, ie) = (earlier.sector, earlier.sector + earlier.sectors());
            if js < ie && is < je {
                edges[j].push(i);
            }
        }
    }
    edges
}

/// Computes the delay before retry number `attempt` (0-based): capped
/// exponential backoff plus bounded jitter from the drain's forked RNG.
/// Deterministic: the same policy, attempt and RNG state give the same
/// delay on every run.
pub(crate) fn backoff_delay(policy: &RetryPolicy, attempt: u32, rng: &mut SimRng) -> SimDuration {
    let base = policy.backoff_base.as_nanos();
    let mult = 1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX);
    let delay = base.saturating_mul(mult).min(policy.backoff_cap.as_nanos());
    let jitter = match policy.jitter.as_nanos() {
        0 => 0,
        j => rng.next_u64() % j,
    };
    SimDuration::from_nanos(delay.saturating_add(jitter))
}

/// Why [`write_run_resilient`] gave up.
enum RunFatal {
    /// The device is unreachable for good (power collapse, or retries
    /// disabled by configuration): freeze and abandon the drain.
    DeviceLost,
}

/// Commits one consolidated run, surviving transient failures (capped
/// exponential backoff) and grown media defects (remap + rewrite). Enters
/// degraded mode once the retry budget is exhausted — but never drops the
/// run: every byte in it was acknowledged, so giving up would turn a slow
/// disk into a broken promise.
///
/// `consecutive_ok` is the degraded-mode hysteresis counter, shared by
/// every concurrent writer under the windowed drain (one disk, one health
/// signal): any writer's failure resets it, any writer's successes count
/// toward the exit threshold.
///
/// With `queued`, each attempt rides the disk's submission queue
/// ([`Disk::submit_segments`] + [`Disk::wait`]) so the device's
/// outstanding-request accounting sees the drain window; without it, the
/// legacy direct vectored write is used — byte- and trace-identical to the
/// pre-window serial drain, which [`OrderingMode::Strict`] promises.
#[allow(clippy::too_many_arguments)]
async fn write_run_resilient(
    ctx: &SimCtx,
    disk: &Disk,
    run: &IoRun,
    policy: &RetryPolicy,
    rng: &mut SimRng,
    audit: &Audit,
    mode: &ModeState,
    consecutive_ok: &StdCell<u32>,
    queued: bool,
) -> Result<(), RunFatal> {
    let tracer = ctx.tracer();
    let mut attempt: u32 = 0;
    let mut remaps: u32 = 0;
    loop {
        // Vectored zero-copy write either way: the disk views the run's
        // segments until they land on the media store; segment clones are
        // refcount bumps.
        let wrote = if queued {
            let token = disk.submit_segments(run.sector, run.segments.clone(), true);
            disk.wait(token).await.map(drop)
        } else {
            disk.write_segments(run.sector, run.segments.clone(), true)
                .await
        };
        match wrote {
            Ok(()) => {
                consecutive_ok.set(consecutive_ok.get().saturating_add(1));
                if mode.is_degraded() && consecutive_ok.get() >= policy.degraded_exit_successes {
                    mode.set_degraded(false);
                    audit.record_degraded_exit();
                    tracer.instant(
                        ctx.now(),
                        Layer::Drain,
                        "degraded_exit",
                        Payload::Mark {
                            value: consecutive_ok.get() as u64,
                        },
                    );
                }
                return Ok(());
            }
            Err(IoError::Transient) if policy.enabled => {
                consecutive_ok.set(0);
                audit.record_retry();
                tracer.instant(
                    ctx.now(),
                    Layer::Drain,
                    "drain_retry",
                    Payload::Mark {
                        value: attempt as u64,
                    },
                );
                if attempt >= policy.max_retries && !mode.is_degraded() {
                    mode.set_degraded(true);
                    audit.record_degraded_entry();
                    tracer.instant(
                        ctx.now(),
                        Layer::Drain,
                        "degraded_entry",
                        Payload::Mark {
                            value: attempt as u64,
                        },
                    );
                }
                ctx.sleep(backoff_delay(policy, attempt, rng)).await;
                attempt = attempt.saturating_add(1);
            }
            Err(IoError::MediaError { sector }) if policy.enabled => {
                consecutive_ok.set(0);
                remaps += 1;
                if remaps > policy.max_remaps {
                    return Err(RunFatal::DeviceLost);
                }
                disk.remap(sector);
                audit.record_remap();
                tracer.instant(
                    ctx.now(),
                    Layer::Drain,
                    "drain_remap",
                    Payload::Fault {
                        kind: "remap",
                        sector,
                    },
                );
                // Rewrite the whole run: the failed write may have torn at
                // the defect, and rewriting is idempotent.
            }
            Err(_) => {
                consecutive_ok.set(0);
                return Err(RunFatal::DeviceLost);
            }
        }
    }
}

/// One run in flight under the windowed drain: its sector range, and the
/// event dependents (later overlapping runs) wait on before touching media.
struct InflightRun {
    id: u64,
    sector: u64,
    sectors: u64,
    done: Rc<Event>,
}

/// One popped batch awaiting retirement under the windowed drain.
struct BatchEntry {
    id: u64,
    /// Sequence range `[lo, hi]` the batch popped, as shipped to the
    /// standby.
    lo: u64,
    hi: u64,
    /// Sequence range released and recorded durable when the batch
    /// retires (see [`FormedBatch::retire`]).
    retire: Option<(u64, u64)>,
    /// Runs still in flight; the batch retires when this reaches zero.
    remaining: u64,
    retired: bool,
    payload: Payload,
    /// Total payload bytes — the controller's bandwidth numerator.
    bytes: u64,
    /// When the batch was popped, for the service-time EWMA.
    dispatched_ns: u64,
    /// Admission stamps of the extents in `retire`, consumed for
    /// commit-latency samples when the batch reaches the contiguous
    /// durable prefix.
    admits: Vec<u64>,
    /// The batch's extents, kept for the replication tee. Empty (and
    /// allocation-free) when log shipping is off.
    extents: Vec<Extent>,
}

impl BatchEntry {
    /// Registers a formed batch popped at `dispatched_ns` whose runs are
    /// about to be dispatched.
    fn new(id: u64, formed: &mut FormedBatch, dispatched_ns: u64, ship: bool) -> BatchEntry {
        BatchEntry {
            id,
            lo: formed.extents.first().expect("non-empty batch").seq,
            hi: formed.extents.last().expect("non-empty batch").seq,
            retire: formed.retire,
            remaining: formed.runs.len() as u64,
            retired: false,
            payload: formed.payload(),
            bytes: formed.bytes(),
            dispatched_ns,
            admits: std::mem::take(&mut formed.admits),
            extents: if ship {
                std::mem::take(&mut formed.extents)
            } else {
                Vec::new()
            },
        }
    }
}

/// Retirement accounting: batches are registered in sequence order and may
/// finish out of order, but [`Audit::record_shard_commit`] is fed only the
/// contiguous durable prefix — exactly what invariant I3 promises. Each
/// shard has its own ledger, so each tenant's durable prefix advances on
/// its own.
struct BatchLedger {
    batches: VecDeque<BatchEntry>,
    tenant: TenantId,
}

impl BatchLedger {
    /// Marks one run of batch `id` complete. Returns the trace payloads of
    /// batches newly retired plus the sequence numbers whose durable-prefix
    /// commits should be recorded, and whether this retirement jumped ahead
    /// of an older still-pending batch.
    ///
    /// Retirement is also the controller's sensor: the batch's dispatch →
    /// retirement service time feeds [`DrainController::observe_batch`]
    /// (with `backlog`, the bytes still queued behind it), and every extent
    /// reaching the contiguous durable prefix records its admission →
    /// commit latency.
    #[allow(clippy::too_many_arguments)]
    fn run_done(
        &mut self,
        id: u64,
        buffer: &DependableBuffer,
        audit: &Audit,
        repl: Option<&Replicator>,
        ctrl: &DrainController,
        now_ns: u64,
        backlog: u64,
    ) -> (Option<Payload>, bool) {
        let idx = self
            .batches
            .iter()
            .position(|b| b.id == id)
            .expect("run retired for an unregistered batch");
        let entry = &mut self.batches[idx];
        entry.remaining -= 1;
        if entry.remaining > 0 {
            return (None, false);
        }
        entry.retired = true;
        let payload = entry.payload;
        ctrl.observe_batch(
            entry.bytes,
            now_ns.saturating_sub(entry.dispatched_ns),
            backlog,
        );
        // Space (and the read overlay) release immediately: the bytes are
        // on media whether or not older batches still fly.
        if let Some((lo, hi)) = entry.retire {
            buffer.complete_seqs(lo, hi);
        }
        let jumped = idx != 0;
        if jumped {
            audit.record_ooo_retirement();
        }
        // The audit ledger advances only with the contiguous prefix — and
        // so does the replication tee: the standby receives exactly the
        // durable prefix, in order, never an out-of-order island.
        while self.batches.front().is_some_and(|b| b.retired) {
            let front = self.batches.pop_front().expect("checked non-empty");
            ctrl.record_commit_latencies(&front.admits, now_ns);
            if let Some((_, hi)) = front.retire {
                audit.record_shard_commit(self.tenant.0, hi);
            }
            if let Some(r) = repl {
                r.offer(self.tenant.0, front.lo, front.hi, &front.extents);
            }
        }
        (Some(payload), jumped)
    }
}

/// The adaptive group-commit controller: one per instance, shared by the
/// drain loop, every run task, and [`RapiLog::snapshot`](crate::RapiLog).
///
/// The controller owns the in-flight window semaphore and the batch-size
/// target the drain pops with. Under [`BatchPolicy::Fixed`] (or
/// [`OrderingMode::Strict`], which pins batching regardless of policy) it
/// is inert: the target stays at `max_batch`, the window at its configured
/// depth, and `observe_batch` only updates the EWMAs and commit-latency
/// histogram for observability — no decision, no trace event, so Fixed and
/// Strict traces stay bit-identical to previous releases.
///
/// Under [`BatchPolicy::Adaptive`] + `PartiallyConstrained`, each batch
/// retirement updates an integer EWMA (α = ¼) of per-batch service time
/// and achieved bandwidth, then walks the target toward the
/// latency/bandwidth knee (see DESIGN.md §15):
///
/// * **shrink** (halve) when the service-time EWMA exceeds the latency
///   budget — the batch is too big for the device's current behaviour;
/// * **decay** (to `min_batch`) when the queue behind the retiring batch
///   is empty — light load, so the next lone commit rides a small run;
/// * **grow** (double) when the backlog would fill ≥ 4 targets, the
///   service EWMA sits below half the budget, *and* the bandwidth EWMA
///   improved ≥ 2% since the last grow — past the knee, marginal
///   bandwidth gain vanishes and growth stops on its own.
///
/// Window autotuning rides the same signal: with backlog for more than the
/// current depth and latency inside budget, the window widens one permit at
/// a time toward the device's [`Geometry::queue_depth`]; when the budget is
/// exceeded it narrows back toward the configured depth by parking permits
/// (never below — the configured depth is the operator's floor).
pub(crate) struct DrainController {
    ctx: SimCtx,
    adaptive: Option<AdaptiveBatchConfig>,
    max_batch: usize,
    min_batch: usize,
    target: StdCell<usize>,
    base_depth: usize,
    max_depth: usize,
    depth: StdCell<usize>,
    window: Rc<Semaphore>,
    /// Permits withdrawn from the window by narrowing, held until a widen
    /// releases one again.
    parked: RefCell<Vec<SemPermit>>,
    ewma_service_ns: StdCell<u64>,
    ewma_bps: StdCell<u64>,
    /// Bandwidth EWMA captured at the last grow — the marginal-gain
    /// reference; 0 means "no reference, first grow is free".
    grow_ref_bps: StdCell<u64>,
    batch_grows: StdCell<u64>,
    batch_shrinks: StdCell<u64>,
    window_widens: StdCell<u64>,
    window_narrows: StdCell<u64>,
    hold_fires: StdCell<u64>,
    latency: RefCell<Histogram>,
}

/// Integer EWMA with α = ¼: `e + (x − e)/4`, seeding from the first
/// sample. Signed arithmetic so the estimate tracks downward too.
fn ewma_update(e: u64, x: u64) -> u64 {
    if e == 0 {
        x
    } else {
        (e as i64 + ((x as i64 - e as i64) >> 2)).max(0) as u64
    }
}

impl DrainController {
    /// Builds the controller for one instance. `disk` supplies the
    /// geometry cap for window autotuning; the drain config supplies
    /// everything else. Always constructed (a Fixed/Strict/write-through
    /// instance just never moves), so `snapshot().drain` is uniform.
    pub(crate) fn new(ctx: &SimCtx, cfg: &DrainConfig, disk: &Disk) -> Rc<DrainController> {
        let base_depth = match cfg.ordering {
            OrderingMode::Strict => 1,
            OrderingMode::PartiallyConstrained => cfg.window_depth.max(1),
        };
        // Strict pins the batch target fixed: the serial drain's trace is a
        // compatibility promise, and a moving target would break it.
        let adaptive = match (cfg.ordering, cfg.batch) {
            (OrderingMode::PartiallyConstrained, BatchPolicy::Adaptive(a)) => Some(a),
            _ => None,
        };
        let max_depth = match adaptive {
            Some(_) => (disk.geometry().queue_depth as usize).max(base_depth),
            None => base_depth,
        };
        let min_batch = adaptive
            .map(|a| a.min_batch.max(SECTOR_SIZE).min(cfg.max_batch))
            .unwrap_or(cfg.max_batch);
        // Adaptive starts small and earns its way up; Fixed starts (and
        // stays) at max_batch — today's behaviour.
        let target = if adaptive.is_some() {
            min_batch
        } else {
            cfg.max_batch
        };
        Rc::new(DrainController {
            ctx: ctx.clone(),
            adaptive,
            max_batch: cfg.max_batch,
            min_batch,
            target: StdCell::new(target),
            base_depth,
            max_depth,
            depth: StdCell::new(base_depth),
            window: Rc::new(Semaphore::new(base_depth)),
            parked: RefCell::new(Vec::new()),
            ewma_service_ns: StdCell::new(0),
            ewma_bps: StdCell::new(0),
            grow_ref_bps: StdCell::new(0),
            batch_grows: StdCell::new(0),
            batch_shrinks: StdCell::new(0),
            window_widens: StdCell::new(0),
            window_narrows: StdCell::new(0),
            hold_fires: StdCell::new(0),
            latency: RefCell::new(Histogram::new()),
        })
    }

    /// The in-flight window the drain loop acquires permits from. The
    /// controller owns it so narrowing can park permits.
    pub(crate) fn window(&self) -> Rc<Semaphore> {
        Rc::clone(&self.window)
    }

    /// Bytes the next `pop_batch` should aim for.
    pub(crate) fn pop_target(&self) -> usize {
        self.target.get()
    }

    /// The adaptive tuning, when the controller is live (Adaptive policy
    /// under PartiallyConstrained ordering).
    pub(crate) fn adaptive_cfg(&self) -> Option<AdaptiveBatchConfig> {
        self.adaptive
    }

    /// Counts (and traces) one hold-timer expiry in the drain loop.
    pub(crate) fn note_hold_fire(&self) {
        self.hold_fires.set(self.hold_fires.get() + 1);
        self.ctx.tracer().instant(
            self.ctx.now(),
            Layer::Drain,
            "hold_fire",
            Payload::Mark {
                value: self.hold_fires.get(),
            },
        );
    }

    /// Feeds one batch retirement into the EWMAs and, when adaptive, walks
    /// the batch target and window depth (see the type-level doc for the
    /// control law). `service_ns` spans dispatch (pop) to retirement (last
    /// run landed); `backlog` is the bytes still queued at retirement.
    pub(crate) fn observe_batch(&self, bytes: u64, service_ns: u64, backlog: u64) {
        let service_ns = service_ns.max(1);
        let bps = bytes.saturating_mul(1_000_000_000) / service_ns;
        let svc = ewma_update(self.ewma_service_ns.get(), service_ns);
        let ebps = ewma_update(self.ewma_bps.get(), bps);
        self.ewma_service_ns.set(svc);
        self.ewma_bps.set(ebps);
        let Some(a) = self.adaptive else {
            return;
        };
        let budget = a.latency_budget.as_nanos().max(1);
        let tgt = self.target.get();
        if svc > budget && tgt > self.min_batch {
            // Over budget: the batch is too big for what the device is
            // currently delivering. Halve and re-reference marginal gain.
            self.retarget(tgt / 2, false);
        } else if backlog == 0 && tgt > self.min_batch {
            // Light load: nothing waiting behind the batch that just
            // landed. Decay to the floor so the next lone commit rides a
            // small, fast run instead of a saturation-sized one.
            self.retarget(self.min_batch, false);
        } else if tgt < self.max_batch && backlog >= 4 * tgt as u64 && svc <= budget / 2 {
            // Saturation headroom: only grow while the bandwidth EWMA says
            // the last grow actually bought throughput (≥ 2% — the knee).
            let marginal_ok = match self.grow_ref_bps.get() {
                0 => true,
                r => ebps > r + r / 50,
            };
            if marginal_ok {
                self.grow_ref_bps.set(ebps);
                self.retarget((tgt * 2).min(self.max_batch), true);
            }
        }
        // Window autotuning on the same retirement signal.
        let depth = self.depth.get();
        if svc > budget && depth > self.base_depth {
            // Retirement latency degraded: narrow by parking a permit (if
            // one is free right now; otherwise retry on a later batch).
            if let Some(permit) = self.window.try_acquire(1) {
                self.parked.borrow_mut().push(permit);
                self.depth.set(depth - 1);
                self.window_narrows.set(self.window_narrows.get() + 1);
                self.trace_depth("window_narrow");
            }
        } else if depth < self.max_depth
            && svc <= budget
            && backlog >= (tgt as u64).saturating_mul(depth as u64 + 1)
        {
            // Backlog for more than the current depth and latency inside
            // budget: widen toward the device's queue depth.
            match self.parked.borrow_mut().pop() {
                Some(permit) => drop(permit),
                None => self.window.add_permits(1),
            }
            self.depth.set(depth + 1);
            self.window_widens.set(self.window_widens.get() + 1);
            self.trace_depth("window_widen");
        }
    }

    /// Applies a new batch target, counting and tracing the move.
    fn retarget(&self, new_target: usize, grew: bool) {
        self.target.set(new_target);
        if grew {
            self.batch_grows.set(self.batch_grows.get() + 1);
        } else {
            self.batch_shrinks.set(self.batch_shrinks.get() + 1);
            self.grow_ref_bps.set(0);
        }
        self.ctx.tracer().instant(
            self.ctx.now(),
            Layer::Drain,
            "batch_target",
            Payload::Mark {
                value: new_target as u64,
            },
        );
    }

    fn trace_depth(&self, name: &'static str) {
        self.ctx.tracer().instant(
            self.ctx.now(),
            Layer::Drain,
            name,
            Payload::Mark {
                value: self.depth.get() as u64,
            },
        );
    }

    /// Records each retired extent's admission → durable-prefix-commit
    /// latency at `now_ns`. A zero stamp (a buffer without a clock) is not
    /// a measurement and is skipped.
    pub(crate) fn record_commit_latencies(&self, admits: &[u64], now_ns: u64) {
        let mut latency = self.latency.borrow_mut();
        for &admit_ns in admits.iter().filter(|&&a| a > 0) {
            latency.record(now_ns.saturating_sub(admit_ns));
        }
    }

    /// Point-in-time view for [`RapiLogSnapshot::drain`](crate::RapiLogSnapshot).
    pub(crate) fn stats(&self) -> DrainStats {
        let lat = self.latency.borrow();
        DrainStats {
            batch_target: self.target.get() as u64,
            window_depth: self.depth.get() as u64,
            window_base: self.base_depth as u64,
            window_max: self.max_depth as u64,
            ewma_service_ns: self.ewma_service_ns.get(),
            ewma_bytes_per_sec: self.ewma_bps.get(),
            batch_grows: self.batch_grows.get(),
            batch_shrinks: self.batch_shrinks.get(),
            window_widens: self.window_widens.get(),
            window_narrows: self.window_narrows.get(),
            hold_fires: self.hold_fires.get(),
            commit_p50_ns: lat.percentile(50.0),
            commit_p99_ns: lat.percentile(99.0),
            commits_measured: lat.count(),
        }
    }
}

/// Spawns the drain loop over `sharded` and (with a supply) the power
/// watcher. A lone shard under [`OrderingMode::Strict`] gets the serial
/// loop; everything else runs the fair-share window engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn start(
    ctx: &SimCtx,
    cell: &Cell,
    sharded: &ShardedBuffer,
    disk: Disk,
    cfg: RapiLogConfig,
    supply: Option<PowerSupply>,
    audit: Audit,
    mode: Rc<ModeState>,
    repl: Option<Replicator>,
    ctrl: Rc<DrainController>,
) {
    if cfg.drain.ordering == OrderingMode::Strict && sharded.shard_count() == 1 {
        start_strict(ctx, cell, sharded, disk, cfg, &audit, mode, repl, ctrl);
    } else {
        start_fair_share(ctx, cell, sharded, disk, cfg, &audit, mode, repl, ctrl);
    }
    if let Some(psu) = supply {
        spawn_power_watcher(ctx, cell, sharded.clone(), psu, audit);
    }
}

/// The paper's original serial drain over a lone shard: one run on media
/// at a time, in exact sequence order. [`OrderingMode::Strict`] stays
/// trace-identical release over release wherever no tail is deferred (with
/// shipping off, the replication tee is a dead branch and emits no
/// events). Each retirement feeds the [`DrainController`]'s sensors —
/// EWMAs and commit latency — but never its control law, which Strict
/// pins.
#[allow(clippy::too_many_arguments)]
fn start_strict(
    ctx: &SimCtx,
    cell: &Cell,
    sharded: &ShardedBuffer,
    disk: Disk,
    cfg: RapiLogConfig,
    audit: &Audit,
    mode: Rc<ModeState>,
    repl: Option<Replicator>,
    ctrl: Rc<DrainController>,
) {
    let [shard] = sharded.shards() else {
        panic!("the serial drain runs a lone shard");
    };
    let tenant = shard.id;
    let drain_buffer = shard.buf.clone();
    let drain_sharded = sharded.clone();
    let drain_audit = audit.clone();
    let drain_ctx = ctx.clone();
    let tracer = ctx.tracer();
    let mut rng = ctx.fork_rng();
    cell.spawn(async move {
        let policy = cfg.drain.retry;
        let consecutive_ok = StdCell::new(0u32);
        let mut former = BatchFormer::default();
        loop {
            drain_buffer.wait_avail().await;
            // Extents move out of the queue; the buffer's in-flight ledger
            // keeps occupancy and read-your-writes alive until complete().
            while let Some(formed) = former.form(&drain_buffer, cfg.drain.max_batch) {
                let dispatched_ns = drain_ctx.now().as_nanos();
                let batch_payload = formed.payload();
                tracer.begin(drain_ctx.now(), Layer::Drain, "drain_batch", batch_payload);
                for run in &formed.runs {
                    if write_run_resilient(
                        &drain_ctx,
                        &disk,
                        run,
                        &policy,
                        &mut rng,
                        &drain_audit,
                        &mode,
                        &consecutive_ok,
                        false,
                    )
                    .await
                    .is_err()
                    {
                        lose_device(&drain_ctx, &drain_audit, &drain_sharded);
                        return;
                    }
                }
                tracer.end(drain_ctx.now(), Layer::Drain, "drain_batch", batch_payload);
                let now_ns = drain_ctx.now().as_nanos();
                ctrl.observe_batch(
                    formed.bytes(),
                    now_ns.saturating_sub(dispatched_ns),
                    drain_buffer.queued_bytes(),
                );
                ctrl.record_commit_latencies(&formed.admits, now_ns);
                if let Some((_, hi)) = formed.retire {
                    drain_audit.record_shard_commit(tenant.0, hi);
                }
                if let Some(r) = &repl {
                    let lo = formed.extents.first().expect("non-empty batch").seq;
                    let hi = formed.extents.last().expect("non-empty batch").seq;
                    r.offer(tenant.0, lo, hi, &formed.extents);
                }
                if let Some((_, hi)) = formed.retire {
                    drain_buffer.complete(hi);
                }
            }
        }
    });
}

/// The device is gone for good (power collapse, or the resilience policy
/// is switched off): whatever remains buffered is lost with the machine.
/// Records the loss — the aggregate, then each shard's part — closes the
/// open batch span and freezes admission; the audit decides whether that
/// violated the guarantee (it must not, if sizing was honest and the
/// warning fired).
fn lose_device(ctx: &SimCtx, audit: &Audit, sharded: &ShardedBuffer) {
    let occupancy = sharded.total_occupancy();
    let tracer = ctx.tracer();
    tracer.end(
        ctx.now(),
        Layer::Drain,
        "drain_batch",
        Payload::Text {
            text: "drain_failure",
        },
    );
    tracer.instant(
        ctx.now(),
        Layer::Drain,
        "freeze",
        Payload::Bytes { bytes: occupancy },
    );
    audit.record_drain_failure(occupancy);
    for shard in sharded.shards() {
        audit.record_shard_loss(shard.id.0, shard.buf.occupancy());
    }
    sharded.freeze_all();
}

/// What every run task of a [`RunWindow`] shares.
struct WindowShared {
    ctx: SimCtx,
    disk: Disk,
    audit: Audit,
    mode: Rc<ModeState>,
    policy: RetryPolicy,
    repl: Option<Replicator>,
    ctrl: Rc<DrainController>,
    sharded: ShardedBuffer,
    /// Degraded-mode hysteresis: one disk, one health signal.
    consecutive_ok: StdCell<u32>,
    /// Set once a writer lost the device.
    failed: StdCell<bool>,
    inflight: RefCell<Vec<InflightRun>>,
}

/// The out-of-order engine under the fair-share drain: up to
/// the controller's window of runs in flight at once, each waiting for
/// every earlier in-flight run overlapping its sector range (see
/// [`dep_edges`] for the declarative form of the constraint — here it is
/// enforced online, across batch boundaries too) and then committing
/// through [`write_run_resilient`], so the full retry/remap/degraded
/// machinery applies per run. Disjoint runs ride separate device channels
/// and retire out of order; each batch's [`BatchLedger`] keeps the audit
/// ledger on the contiguous durable prefix.
struct RunWindow {
    shared: Rc<WindowShared>,
    window: Rc<Semaphore>,
    /// Forked from the simulation's stream once, at start: each run's
    /// retry RNG forks from this, so the run count never moves the
    /// stream other consumers draw from.
    rng: SimRng,
    next_run_id: u64,
    next_batch_id: u64,
}

impl RunWindow {
    #[allow(clippy::too_many_arguments)]
    fn new(
        ctx: &SimCtx,
        disk: Disk,
        audit: Audit,
        mode: Rc<ModeState>,
        policy: RetryPolicy,
        repl: Option<Replicator>,
        ctrl: Rc<DrainController>,
        sharded: ShardedBuffer,
    ) -> RunWindow {
        RunWindow {
            window: ctrl.window(),
            rng: ctx.fork_rng(),
            shared: Rc::new(WindowShared {
                ctx: ctx.clone(),
                disk,
                audit,
                mode,
                policy,
                repl,
                ctrl,
                sharded,
                consecutive_ok: StdCell::new(0),
                failed: StdCell::new(false),
                inflight: RefCell::new(Vec::new()),
            }),
            next_run_id: 0,
            next_batch_id: 0,
        }
    }

    /// True once a writer lost the device: the buffer is frozen and the
    /// drain must stop.
    fn failed(&self) -> bool {
        self.shared.failed.get()
    }

    /// Registers `formed` with `ledger` and dispatches its runs, each as
    /// soon as a window permit frees (backpressure: the window bounds runs
    /// in flight). `after_deferral` holds the completion events of the
    /// buffer's previous batch if it deferred its tail; this batch's first
    /// run waits on all of them, so the extents it retires on that batch's
    /// behalf never release before their other sectors land. Returns false
    /// once the device is lost.
    async fn dispatch(
        &mut self,
        mut formed: FormedBatch,
        ledger: &Rc<RefCell<BatchLedger>>,
        buffer: &DependableBuffer,
        after_deferral: &mut Vec<Rc<Event>>,
    ) -> bool {
        let ctx = &self.shared.ctx;
        ctx.tracer()
            .begin(ctx.now(), Layer::Drain, "drain_batch", formed.payload());
        let batch_id = self.next_batch_id;
        self.next_batch_id += 1;
        let entry = BatchEntry::new(
            batch_id,
            &mut formed,
            ctx.now().as_nanos(),
            self.shared.repl.is_some(),
        );
        ledger.borrow_mut().batches.push_back(entry);
        let mut prev_deferral = std::mem::take(after_deferral);
        for run in formed.runs {
            let permit = self.window.acquire(1).await;
            if self.failed() {
                return false;
            }
            let run_id = self.next_run_id;
            self.next_run_id += 1;
            // Ordering edges: every in-flight run overlapping this one —
            // including earlier runs of this very batch, and other tenants'
            // runs (one disk, one newest-wins media order) — must land
            // first.
            let (run_lo, run_hi) = (run.sector, run.sector + run.sectors());
            let mut deps: Vec<Rc<Event>> = self
                .shared
                .inflight
                .borrow()
                .iter()
                .filter(|f| run_lo < f.sector + f.sectors && f.sector < run_hi)
                .map(|f| Rc::clone(&f.done))
                .collect();
            deps.append(&mut prev_deferral);
            let done = Rc::new(Event::new());
            if formed.deferred {
                after_deferral.push(Rc::clone(&done));
            }
            self.shared.inflight.borrow_mut().push(InflightRun {
                id: run_id,
                sector: run.sector,
                sectors: run.sectors(),
                done: Rc::clone(&done),
            });
            // RNG forked at dispatch, in deterministic order.
            let mut rng = self.rng.fork();
            let shared = Rc::clone(&self.shared);
            let ledger = Rc::clone(ledger);
            let buffer = buffer.clone();
            self.shared.ctx.spawn(async move {
                let _permit = permit;
                for dep in &deps {
                    dep.wait().await;
                }
                let sh = &*shared;
                // A sibling writer lost the device: the buffer is frozen,
                // nothing more may touch media coherently.
                let result = if sh.failed.get() {
                    None
                } else {
                    Some(
                        write_run_resilient(
                            &sh.ctx,
                            &sh.disk,
                            &run,
                            &sh.policy,
                            &mut rng,
                            &sh.audit,
                            &sh.mode,
                            &sh.consecutive_ok,
                            true,
                        )
                        .await,
                    )
                };
                // Dependents proceed (and observe `failed`) even when this
                // run went down with the device.
                done.set();
                sh.inflight.borrow_mut().retain(|f| f.id != run_id);
                match result {
                    Some(Ok(())) if !sh.failed.get() => {
                        let (retired, jumped) = ledger.borrow_mut().run_done(
                            batch_id,
                            &buffer,
                            &sh.audit,
                            sh.repl.as_ref(),
                            &sh.ctrl,
                            sh.ctx.now().as_nanos(),
                            sh.sharded.total_queued_bytes(),
                        );
                        if let Some(payload) = retired {
                            let tracer = sh.ctx.tracer();
                            tracer.end(sh.ctx.now(), Layer::Drain, "drain_batch", payload);
                            if jumped {
                                tracer.instant(sh.ctx.now(), Layer::Drain, "ooo_retire", payload);
                            }
                        }
                    }
                    Some(Err(RunFatal::DeviceLost)) if !sh.failed.replace(true) => {
                        lose_device(&sh.ctx, &sh.audit, &sh.sharded);
                    }
                    // Skipped (device already lost) or landed after the
                    // failure: leave the ledger alone — the occupancy
                    // snapshot at failure is the loss.
                    _ => {}
                }
            });
        }
        !self.failed()
    }
}

/// The fair-share drain: a deficit-round-robin scheduler over tenant
/// shards feeding the [`RunWindow`] engine — on a lone shard, simply the
/// windowed drain.
///
/// Each scheduling cycle visits every shard once (the start position
/// rotates so no shard gets a standing head-of-line advantage) and grants
/// it one batch of up to `weight × pop target` bytes — the weighted
/// quantum. The runs of all tenants share one in-flight window and one
/// overlap-dependency set (one disk, one newest-wins media order), but
/// batch formation and retirement bookkeeping are **per tenant**: each
/// shard has its own [`BatchFormer`] and [`BatchLedger`], so space release
/// and the audit's contiguous durable prefix advance independently per
/// tenant, and a slow tenant never holds back another tenant's commit
/// ledger.
///
/// [`OrderingMode::Strict`] over several shards is honoured by clamping the
/// window to depth 1: runs then land serially in dispatch order, which —
/// because every shard's batches are dispatched in its own sequence order
/// — preserves the strict per-tenant discipline.
///
/// All tenants' ledgers feed the **one shared** [`DrainController`]: there
/// is one disk, so there is one latency/bandwidth operating point, and the
/// pop target scales every tenant's quantum together (relative fair
/// shares are untouched). Under [`BatchPolicy::Fixed`] the target and the
/// window are constants (`max_batch`, `window_depth`); under
/// [`BatchPolicy::Adaptive`] they move with the observed operating point,
/// and a **hold timer** arms once per cycle when the window is saturated
/// but the aggregate backlog would make a fractional batch: the loop waits
/// up to `max_hold` for more bytes to coalesce (free, since no permit is
/// available anyway), then pops whatever arrived. With a free permit the
/// pop is immediate, so a lone commit at idle never waits on the timer.
#[allow(clippy::too_many_arguments)]
fn start_fair_share(
    ctx: &SimCtx,
    cell: &Cell,
    sharded: &ShardedBuffer,
    disk: Disk,
    cfg: RapiLogConfig,
    audit: &Audit,
    mode: Rc<ModeState>,
    repl: Option<Replicator>,
    ctrl: Rc<DrainController>,
) {
    let drain_sharded = sharded.clone();
    let mut window = RunWindow::new(
        ctx,
        disk,
        audit.clone(),
        mode,
        cfg.drain.retry,
        repl,
        Rc::clone(&ctrl),
        sharded.clone(),
    );
    let drain_ctx = ctx.clone();
    cell.spawn(async move {
        let permits = ctrl.window();
        // Per shard: weight, buffer, ledger, batch formation, and the
        // completion events a deferral orders its next batch after.
        let mut shards: Vec<_> = drain_sharded
            .shards()
            .iter()
            .map(|s| {
                let ledger = Rc::new(RefCell::new(BatchLedger {
                    batches: VecDeque::new(),
                    tenant: s.id,
                }));
                let after: Vec<Rc<Event>> = Vec::new();
                (
                    s.weight,
                    s.buf.clone(),
                    ledger,
                    BatchFormer::default(),
                    after,
                )
            })
            .collect();
        let n = shards.len();
        let mut cursor = 0usize;
        loop {
            drain_sharded.wait_any_avail().await;
            loop {
                if window.failed() {
                    return;
                }
                // Adaptive hold: the window is saturated (no batch could
                // dispatch yet anyway) and the queues hold less than one
                // target — wait briefly for the batches to fill out.
                if let Some(a) = ctrl.adaptive_cfg() {
                    if permits.available() == 0
                        && drain_sharded.total_queued_bytes() < ctrl.pop_target() as u64
                        && !drain_sharded.is_frozen()
                    {
                        drain_ctx.sleep(a.max_hold).await;
                        ctrl.note_hold_fire();
                    }
                }
                let mut popped_any = false;
                for off in 0..n {
                    let (weight, buf, ledger, former, after) = &mut shards[(cursor + off) % n];
                    let quantum = ctrl.pop_target().saturating_mul(*weight as usize);
                    let Some(formed) = former.form(buf, quantum) else {
                        continue;
                    };
                    popped_any = true;
                    if !window.dispatch(formed, ledger, buf, after).await {
                        return;
                    }
                }
                cursor = (cursor + 1) % n;
                if !popped_any {
                    break;
                }
            }
        }
    });
}

/// The power watcher: on the supply's warning it freezes every shard and
/// audits the *aggregate* emergency drain — the residual-energy window was
/// sized for the sum of the shard capacities, so the deadline applies to
/// the sum of their occupancies.
fn spawn_power_watcher(
    ctx: &SimCtx,
    cell: &Cell,
    sharded: ShardedBuffer,
    psu: PowerSupply,
    audit: Audit,
) {
    let watcher_ctx = ctx.clone();
    let tracer = ctx.tracer();
    cell.spawn(async move {
        // One power episode per RapiLog instance: after power loss the
        // instance is frozen and must be replaced by the operator (the
        // fault harness rebuilds the device stack on reboot).
        let warning = psu.warning_event();
        warning.wait().await;
        // Power is failing: stop admitting, note the state, and watch
        // the (already eager) drain race the deadline.
        sharded.freeze_all();
        let remaining = sharded.total_occupancy();
        tracer.instant(
            watcher_ctx.now(),
            Layer::Power,
            "power_warning",
            Payload::Bytes { bytes: remaining },
        );
        let deadline = watcher_ctx.now()
            + psu
                .time_until_death()
                .expect("warning implies residual state");
        audit.record_warning(remaining, deadline);
        tracer.begin(
            watcher_ctx.now(),
            Layer::Drain,
            "emergency_drain",
            Payload::Bytes { bytes: remaining },
        );
        sharded.all_drained().await;
        tracer.end(
            watcher_ctx.now(),
            Layer::Drain,
            "emergency_drain",
            Payload::Bytes { bytes: remaining },
        );
        audit.record_emergency_drained();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Extent;
    use rapilog_simcore::bytes::SectorBuf;
    use rapilog_simdisk::{SectorStore, SECTOR_SIZE};

    fn ext(seq: u64, sector: u64, sectors: usize) -> Extent {
        Extent {
            seq,
            sector,
            admit_ns: 0,
            data: SectorBuf::from_vec(vec![seq as u8; sectors * SECTOR_SIZE]),
        }
    }

    /// Applies runs in order onto a store and reads back `sectors` sectors
    /// from `first` — the media-order ground truth for newest-wins.
    fn apply_and_read(runs: &[IoRun], first: u64, sectors: usize) -> Vec<u8> {
        let mut store = SectorStore::new();
        store.write_runs(runs);
        let mut buf = vec![0u8; sectors * SECTOR_SIZE];
        store.read_run(first, &mut buf);
        buf
    }

    #[test]
    fn consolidate_merges_contiguous_runs() {
        let runs = consolidate(&[ext(0, 0, 2), ext(1, 2, 3), ext(2, 5, 1)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 0);
        assert_eq!(runs[0].bytes(), 6 * SECTOR_SIZE);
        assert_eq!(runs[0].segments.len(), 3, "segments appended, not copied");
    }

    #[test]
    fn consolidate_dedupes_tail_rewrites_keeping_newest() {
        // Extents 1 and 2 both write sector 10; the union must hold the
        // newest bytes (tag 2), and everything becomes ONE ascending run.
        let runs = consolidate(&[ext(0, 9, 1), ext(1, 10, 1), ext(2, 10, 1), ext(3, 11, 1)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 9);
        assert_eq!(runs[0].bytes(), 3 * SECTOR_SIZE);
        let media = apply_and_read(&runs, 9, 3);
        assert_eq!(
            &media[SECTOR_SIZE..2 * SECTOR_SIZE],
            &vec![2u8; SECTOR_SIZE][..],
            "newest bytes win for the rewritten sector"
        );
    }

    #[test]
    fn consolidate_splits_on_gaps() {
        let runs = consolidate(&[ext(0, 0, 1), ext(1, 5, 2)]);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].sector, 0);
        assert_eq!(runs[1].sector, 5);
        assert_eq!(runs[1].bytes(), 2 * SECTOR_SIZE);
    }

    #[test]
    fn consolidate_empty() {
        assert!(consolidate(&[]).is_empty());
    }

    #[test]
    fn consolidate_whole_run_rewrite_keeps_one_run() {
        // Extent 1 rewrites everything extent 0 covered and extends it.
        let runs = consolidate(&[ext(0, 4, 2), ext(1, 4, 3)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 4);
        assert_eq!(runs[0].bytes(), 3 * SECTOR_SIZE);
        let media = apply_and_read(&runs, 4, 3);
        assert_eq!(media, vec![1u8; 3 * SECTOR_SIZE]);
    }

    #[test]
    fn consolidate_tail_rewrite_slices_the_boundary_segment() {
        // Extent 0 covers sectors 0..4; extent 1 rewrites 2..5. The cut
        // falls inside extent 0's single segment, which must be re-viewed
        // (sliced), not copied.
        let runs = consolidate(&[ext(0, 0, 4), ext(1, 2, 3)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 0);
        assert_eq!(runs[0].bytes(), 5 * SECTOR_SIZE);
        let media = apply_and_read(&runs, 0, 5);
        assert_eq!(&media[..2 * SECTOR_SIZE], &vec![0u8; 2 * SECTOR_SIZE][..]);
        assert_eq!(&media[2 * SECTOR_SIZE..], &vec![1u8; 3 * SECTOR_SIZE][..]);
    }

    #[test]
    fn consolidate_middle_overlap_resolves_newest_by_media_order() {
        // Extent 1 rewrites a sector in the *middle* of extent 0's run;
        // truncating would lose extent 0's tail, so it becomes a separate
        // run written after — media order keeps newest-wins.
        let runs = consolidate(&[ext(0, 0, 4), ext(1, 1, 1)]);
        assert_eq!(runs.len(), 2);
        let media = apply_and_read(&runs, 0, 4);
        assert_eq!(&media[..SECTOR_SIZE], &vec![0u8; SECTOR_SIZE][..]);
        assert_eq!(
            &media[SECTOR_SIZE..2 * SECTOR_SIZE],
            &vec![1u8; SECTOR_SIZE][..]
        );
        assert_eq!(&media[2 * SECTOR_SIZE..], &vec![0u8; 2 * SECTOR_SIZE][..]);
    }

    #[test]
    fn consolidated_runs_share_extent_allocations() {
        // The zero-copy invariant inside the drain: run segments are views
        // of the very allocations the extents carry.
        let e = ext(0, 0, 2);
        let admitted_ptr = e.data.as_ptr();
        let runs = consolidate(&[e, ext(1, 2, 1)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].segments[0].as_ptr(), admitted_ptr);
    }

    #[test]
    fn pointer_identity_from_admission_through_buffer_to_run() {
        // The acceptance test for the zero-copy path: bytes admitted into
        // the DependableBuffer surface in the consolidated run at the SAME
        // address — no copy happened between vdisk admission and the media
        // write the run feeds.
        let mut sim = rapilog_simcore::Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let data = SectorBuf::from_vec(vec![0xED; 2 * SECTOR_SIZE]);
            let admitted_ptr = data.as_ptr();
            b2.push(7, data).await.unwrap();
            b2.push(9, SectorBuf::from_vec(vec![0xEE; SECTOR_SIZE]))
                .await
                .unwrap();
            let batch = b2.pop_batch(usize::MAX);
            let runs = consolidate(&batch);
            assert_eq!(runs.len(), 1, "contiguous extents consolidate");
            assert_eq!(
                runs[0].segments[0].as_ptr(),
                admitted_ptr,
                "run feeds the admitted allocation itself"
            );
            assert!(runs[0].segments[0].same_allocation(&batch[0].data));
        });
        sim.run();
    }
}

#[cfg(test)]
mod backoff_tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(20),
            jitter: SimDuration::from_micros(50),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn backoff_is_deterministic_for_equal_rng_state() {
        let p = policy();
        let mut a = SimRng::seed_from_u64(99);
        let mut b = SimRng::seed_from_u64(99);
        for attempt in 0..12 {
            assert_eq!(
                backoff_delay(&p, attempt, &mut a),
                backoff_delay(&p, attempt, &mut b),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let mut p = policy();
        p.jitter = SimDuration::ZERO;
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(backoff_delay(&p, 0, &mut rng).as_micros(), 100);
        assert_eq!(backoff_delay(&p, 1, &mut rng).as_micros(), 200);
        assert_eq!(backoff_delay(&p, 4, &mut rng).as_micros(), 1600);
        // 100 µs * 2^8 = 25.6 ms > 20 ms cap.
        assert_eq!(backoff_delay(&p, 8, &mut rng).as_millis(), 20);
        // Huge attempt numbers must not overflow.
        assert_eq!(backoff_delay(&p, u32::MAX, &mut rng).as_millis(), 20);
    }

    #[test]
    fn jitter_is_bounded_and_consumed_from_the_rng() {
        let p = policy();
        let mut rng = SimRng::seed_from_u64(7);
        for attempt in 0..20 {
            let base_only = {
                let mut p0 = p;
                p0.jitter = SimDuration::ZERO;
                let mut dummy = SimRng::seed_from_u64(0);
                backoff_delay(&p0, attempt, &mut dummy)
            };
            let with_jitter = backoff_delay(&p, attempt, &mut rng);
            assert!(with_jitter >= base_only);
            assert!(with_jitter < base_only + p.jitter);
        }
    }
}

#[cfg(test)]
mod resilience_tests {
    use crate::prelude::*;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimDuration, SimTime};
    use rapilog_simdisk::{specs, BlockDeviceExt, Disk, FaultProfile, SECTOR_SIZE};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    fn setup(sim: &mut Sim, disk: Disk, retry: RetryPolicy) -> RapiLog {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(16 << 20))
            .drain_config(DrainConfig::new().retry(retry))
            .build();
        std::mem::forget(cell);
        rl
    }

    #[test]
    fn drain_retries_through_transient_faults() {
        let mut sim = Sim::new(21);
        let ctx = sim.ctx();
        let spec = specs::instant(1 << 24).with_faults(FaultProfile::transient(4, 0.3));
        let disk = Disk::new(&ctx, spec);
        let rl = setup(&mut sim, disk.clone(), RetryPolicy::default());
        let dev = rl.device();
        sim.spawn(async move {
            for i in 0..200u64 {
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
            }
        });
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(rl.occupancy(), 0, "everything drained despite faults");
        let report = rl.audit_report();
        assert!(report.guarantee_held());
        assert!(report.drain_retries > 0, "faults forced retries");
        // Spot-check contents made it.
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(150, &mut buf);
        assert_eq!(buf, vec![150u8; SECTOR_SIZE]);
    }

    #[test]
    fn drain_remaps_grown_defects_and_rewrites() {
        let mut sim = Sim::new(22);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        disk.mark_bad(5);
        let rl = setup(&mut sim, disk.clone(), RetryPolicy::default());
        let dev = rl.device();
        sim.spawn(async move {
            dev.write(4, &vec![0xCD; 3 * SECTOR_SIZE], true)
                .await
                .unwrap();
        });
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(rl.occupancy(), 0);
        let report = rl.audit_report();
        assert!(report.guarantee_held());
        assert_eq!(report.sector_remaps, 1);
        let mut buf = vec![0u8; SECTOR_SIZE];
        for s in 4..7u64 {
            disk.peek_media(s, &mut buf);
            assert_eq!(buf, vec![0xCD; SECTOR_SIZE], "sector {s}");
        }
    }

    #[test]
    fn degraded_mode_enters_on_burst_and_exits_with_hysteresis() {
        let mut sim = Sim::new(23);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        let retry = RetryPolicy {
            max_retries: 3,
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(2),
            degraded_exit_successes: 4,
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        let entered = Rc::new(StdCell::new(false));
        let e2 = Rc::clone(&entered);
        let rl2 = rl.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            for i in 0..400u64 {
                dev.write(i % 64, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                if rl2.is_degraded() {
                    e2.set(true);
                }
                c2.sleep(SimDuration::from_micros(500)).await;
            }
        });
        // A 40 ms sick burst starting at t=20 ms.
        let d2 = disk.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(20)).await;
                d2.set_sick(true);
                ctx.sleep(SimDuration::from_millis(40)).await;
                d2.set_sick(false);
            }
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(entered.get(), "burst drove the instance into degraded mode");
        let report = rl.audit_report();
        assert!(report.guarantee_held(), "no acked byte was lost");
        assert!(report.degraded_entries >= 1);
        assert_eq!(
            report.degraded_entries, report.degraded_exits,
            "every entry recovered"
        );
        assert!(!rl.is_degraded(), "healthy again after the burst");
        assert_eq!(rl.occupancy(), 0);
    }

    #[test]
    fn second_burst_after_recovery_reenters_degraded_mode_and_acks_synchronously() {
        let mut sim = Sim::new(25);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        let retry = RetryPolicy {
            max_retries: 3,
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(2),
            degraded_exit_successes: 4,
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        // Probe state sampled during the second burst: the mode flag and
        // the ack latency of one write issued while the disk is sick again.
        let degraded_in_burst2 = Rc::new(StdCell::new(false));
        let probe_ack_ns = Rc::new(StdCell::new(0u64));
        let rl2 = rl.clone();
        let c2 = ctx.clone();
        {
            let dev = dev.clone();
            sim.spawn(async move {
                for i in 0..400u64 {
                    dev.write(i % 64, &vec![i as u8; SECTOR_SIZE], true)
                        .await
                        .unwrap();
                    c2.sleep(SimDuration::from_micros(500)).await;
                }
            });
        }
        // Two sick bursts separated by a long healthy gap: 20–50 ms and
        // 150–180 ms. The writer stream keeps the drain busy throughout,
        // so hysteresis recovers the mode between the bursts.
        let d2 = disk.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(20)).await;
                d2.set_sick(true);
                ctx.sleep(SimDuration::from_millis(30)).await;
                d2.set_sick(false);
                ctx.sleep(SimDuration::from_millis(100)).await;
                d2.set_sick(true);
                ctx.sleep(SimDuration::from_millis(30)).await;
                d2.set_sick(false);
            }
        });
        // The probe: 10 ms into the second burst, one write must be
        // re-acknowledged synchronously (it waits out the rest of the
        // burst for media), proving re-entry is behavioural, not just a
        // counter.
        {
            let dev = dev.clone();
            let ctx = ctx.clone();
            let rl = rl.clone();
            let flag = Rc::clone(&degraded_in_burst2);
            let ack = Rc::clone(&probe_ack_ns);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(160)).await;
                flag.set(rl.is_degraded());
                let t0 = ctx.now();
                dev.write(500, &vec![0xEE; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                ack.set((ctx.now() - t0).as_nanos());
            });
        }
        sim.run_until(SimTime::from_secs(10));
        let report = rl2.audit_report();
        assert!(report.guarantee_held(), "no acked byte was lost");
        assert!(
            report.degraded_entries >= 2,
            "the second burst re-entered degraded mode (entries = {})",
            report.degraded_entries
        );
        assert_eq!(
            report.degraded_entries, report.degraded_exits,
            "every entry recovered once its burst passed"
        );
        assert!(
            degraded_in_burst2.get(),
            "the instance was degraded while the second burst was active"
        );
        assert!(
            probe_ack_ns.get() > 5_000_000,
            "the probe write re-acked synchronously, waiting out the burst \
             ({} ns)",
            probe_ack_ns.get()
        );
        assert!(!rl2.is_degraded(), "healthy again after the second burst");
        assert_eq!(rl2.occupancy(), 0);
    }

    #[test]
    fn degraded_ack_waits_for_media() {
        let mut sim = Sim::new(24);
        let ctx = sim.ctx();
        // Real mechanics so a media write costs milliseconds.
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let retry = RetryPolicy {
            max_retries: 0,
            backoff_base: SimDuration::from_micros(200),
            backoff_cap: SimDuration::from_millis(1),
            degraded_exit_successes: u32::MAX, // stay degraded
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        let ack_ns = Rc::new(StdCell::new(0u64));
        let a2 = Rc::clone(&ack_ns);
        let d2 = disk.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            // Trip the mode with a short sick window. The device write is
            // acked from the buffer before degradation engages; the *drain*
            // sees the faults and exhausts its (zero) retry budget.
            d2.set_sick(true);
            dev.write(0, &vec![1u8; SECTOR_SIZE], true).await.unwrap();
            c2.sleep(SimDuration::from_millis(5)).await;
            d2.set_sick(false);
            c2.sleep(SimDuration::from_millis(50)).await;
            let t0 = c2.now();
            dev.write(1, &vec![2u8; SECTOR_SIZE], true).await.unwrap();
            a2.set((c2.now() - t0).as_nanos());
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(rl.is_degraded(), "exit threshold unreachable by design");
        assert!(
            ack_ns.get() > 1_000_000,
            "degraded ack paid media time, got {} ns",
            ack_ns.get()
        );
        // The write is on media at ack time — the promise is synchronous.
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(1, &mut buf);
        assert_eq!(buf, vec![2u8; SECTOR_SIZE]);
    }

    #[test]
    fn disabled_retry_turns_first_fault_into_a_drain_failure() {
        let mut sim = Sim::new(25);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        let retry = RetryPolicy {
            enabled: false,
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        let d2 = disk.clone();
        sim.spawn(async move {
            d2.set_sick(true);
            // Acked into the buffer; the drain then hits the sick disk.
            let _ = dev.write(0, &vec![9u8; SECTOR_SIZE], true).await;
        });
        sim.run_until(SimTime::from_secs(1));
        let report = rl.audit_report();
        assert!(report.drain_failures > 0, "drain gave up immediately");
        assert!(
            !report.guarantee_held(),
            "acked bytes were lost: the checker must notice"
        );
        assert!(rl.device_frozen());
    }
}

#[cfg(test)]
mod window_tests {
    use super::{consolidate, dep_edges, BatchEntry, BatchLedger, DrainController, TenantId};
    use crate::audit::Audit;
    use crate::buffer::Extent;
    use crate::prelude::*;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::bytes::SectorBuf;
    use rapilog_simcore::rng::SimRng;
    use rapilog_simcore::trace::{Payload, Phase};
    use rapilog_simcore::{Sim, SimDuration, SimTime};
    use rapilog_simdisk::{specs, BlockDeviceExt, Disk, DiskSpec, SectorStore, SECTOR_SIZE};
    use std::cell::Cell as StdCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    fn setup(sim: &mut Sim, spec: DiskSpec, drain: DrainConfig) -> (RapiLog, Disk) {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, spec);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .capacity(CapacitySpec::Fixed(64 << 20))
            .drain_config(drain)
            .build();
        std::mem::forget(cell);
        (rl, disk)
    }

    /// Writes `batches` adjacent-but-disjoint 64 KiB extents and returns
    /// the virtual time at which the buffer was fully drained.
    fn drain_time(seed: u64, spec: DiskSpec, drain: DrainConfig) -> (u64, RapiLog, Disk) {
        let mut sim = Sim::new(seed);
        let (rl, disk) = setup(&mut sim, spec, drain);
        let dev = rl.device();
        let rl2 = rl.clone();
        let ctx = sim.ctx();
        let drained_at = Rc::new(StdCell::new(0u64));
        let d2 = Rc::clone(&drained_at);
        sim.spawn(async move {
            let sectors_per = (64 << 10) / SECTOR_SIZE as u64;
            for i in 0..16u64 {
                dev.write(i * sectors_per, &vec![(i + 1) as u8; 64 << 10], true)
                    .await
                    .unwrap();
            }
            rl2.quiesce().await;
            d2.set(ctx.now().as_nanos());
        });
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(rl.occupancy(), 0, "workload must fully drain");
        (drained_at.get(), rl, disk)
    }

    #[test]
    fn windowed_drain_commits_everything_and_audit_holds() {
        let spec = specs::ssd_nvme(1 << 30).with_channels(4);
        let drain = DrainConfig::new()
            .max_batch(64 << 10)
            .window_depth(8)
            .ordering(OrderingMode::PartiallyConstrained);
        let (t, rl, disk) = drain_time(31, spec, drain);
        assert!(t > 0, "drain finished");
        let report = rl.audit_report();
        assert!(report.guarantee_held());
        assert!(report.commits > 0, "durable prefix advanced");
        // Every byte is on media, newest-wins intact.
        let sectors_per = (64 << 10) / SECTOR_SIZE as u64;
        let mut buf = vec![0u8; SECTOR_SIZE];
        for i in 0..16u64 {
            disk.peek_media(i * sectors_per, &mut buf);
            assert_eq!(buf, vec![(i + 1) as u8; SECTOR_SIZE], "extent {i}");
        }
        // The window actually kept several requests in flight.
        let snap = rl.snapshot();
        assert!(
            snap.disk.max_outstanding >= 2,
            "window never overlapped requests: max_outstanding = {}",
            snap.disk.max_outstanding
        );
    }

    #[test]
    fn windowed_drain_outpaces_strict_on_a_multichannel_ssd() {
        let spec = specs::ssd_nvme(1 << 30).with_channels(4);
        let strict = DrainConfig::new().max_batch(64 << 10);
        let windowed = DrainConfig::new()
            .max_batch(64 << 10)
            .window_depth(8)
            .ordering(OrderingMode::PartiallyConstrained);
        let (t_strict, rl_s, _) = drain_time(32, spec.clone(), strict);
        let (t_windowed, rl_w, _) = drain_time(32, spec, windowed);
        assert!(rl_s.audit_report().guarantee_held());
        assert!(rl_w.audit_report().guarantee_held());
        assert!(
            t_windowed < t_strict,
            "4-channel windowed drain ({t_windowed} ns) must beat the serial drain ({t_strict} ns)"
        );
    }

    #[test]
    fn later_batch_may_retire_first_but_the_ledger_stays_ordered() {
        // Batch 1 is a long 256 KiB run; batch 2 a single disjoint sector.
        // On a multi-channel SSD the small run lands first — an ooo
        // retirement — while record_commit still sees ascending sequences
        // (guarantee_held checks exactly that).
        let mut sim = Sim::new(33);
        let spec = specs::ssd_nvme(1 << 30).with_channels(4);
        let drain = DrainConfig::new()
            .max_batch(256 << 10)
            .window_depth(4)
            .ordering(OrderingMode::PartiallyConstrained);
        let (rl, disk) = setup(&mut sim, spec, drain);
        let dev = rl.device();
        let rl2 = rl.clone();
        sim.spawn(async move {
            dev.write(0, &vec![0xAA; 256 << 10], true).await.unwrap();
            dev.write(10_000, &vec![0xBB; SECTOR_SIZE], true)
                .await
                .unwrap();
            rl2.quiesce().await;
        });
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(rl.occupancy(), 0);
        let report = rl.audit_report();
        assert!(report.guarantee_held(), "prefix commits stayed ordered");
        assert!(
            report.ooo_retirements >= 1,
            "the small batch should have jumped the big one"
        );
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(10_000, &mut buf);
        assert_eq!(buf, vec![0xBB; SECTOR_SIZE]);
        disk.peek_media(0, &mut buf);
        assert_eq!(buf, vec![0xAA; SECTOR_SIZE]);
    }

    #[test]
    fn overlapping_rewrites_stay_newest_wins_under_the_window() {
        // The same sector is rewritten in every batch; dependency edges
        // force those runs to land in order even though the window would
        // happily fly them together.
        let mut sim = Sim::new(34);
        let spec = specs::ssd_nvme(1 << 30).with_channels(8);
        let drain = DrainConfig::new()
            .max_batch(SECTOR_SIZE)
            .window_depth(8)
            .ordering(OrderingMode::PartiallyConstrained);
        let (rl, disk) = setup(&mut sim, spec, drain);
        let dev = rl.device();
        let rl2 = rl.clone();
        sim.spawn(async move {
            for round in 1..=32u64 {
                dev.write(7, &vec![round as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
            }
            rl2.quiesce().await;
        });
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(rl.occupancy(), 0);
        assert!(rl.audit_report().guarantee_held());
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(7, &mut buf);
        assert_eq!(buf, vec![32u8; SECTOR_SIZE], "newest rewrite wins");
    }

    #[test]
    fn windowed_drain_failure_freezes_and_the_checker_notices() {
        let mut sim = Sim::new(35);
        let spec = specs::instant(1 << 24);
        let drain = DrainConfig::new()
            .window_depth(4)
            .ordering(OrderingMode::PartiallyConstrained)
            .retry(RetryPolicy {
                enabled: false,
                ..RetryPolicy::default()
            });
        let (rl, disk) = setup(&mut sim, spec, drain);
        let dev = rl.device();
        sim.spawn(async move {
            disk.set_sick(true);
            let _ = dev.write(0, &vec![9u8; SECTOR_SIZE], true).await;
        });
        sim.run_until(SimTime::from_secs(1));
        let report = rl.audit_report();
        assert!(report.drain_failures > 0, "drain gave up immediately");
        assert!(!report.guarantee_held(), "acked bytes were lost");
        assert!(rl.device_frozen());
    }

    #[test]
    fn strict_mode_traces_are_bit_identical_across_window_depths() {
        // The sched_differential-style check: window_depth is dead config
        // under Strict — the serial loop must produce the exact same event
        // stream regardless, i.e. today's traces are preserved.
        let run = |depth: usize| {
            let mut sim = Sim::new(36);
            let ctx = sim.ctx();
            ctx.tracer().set_capacity(1 << 16);
            ctx.tracer().set_enabled(true);
            let drain = DrainConfig::new().max_batch(64 << 10).window_depth(depth);
            let (rl, _disk) = setup(&mut sim, specs::ssd_nvme(1 << 30).with_channels(4), drain);
            let dev = rl.device();
            let rl2 = rl.clone();
            sim.spawn(async move {
                for i in 0..24u64 {
                    dev.write(i * 16, &vec![i as u8; 4 * SECTOR_SIZE], true)
                        .await
                        .unwrap();
                }
                rl2.quiesce().await;
            });
            sim.run_until(SimTime::from_secs(60));
            assert!(rl.audit_report().guarantee_held());
            ctx.tracer().snapshot()
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a, b, "Strict must stay trace-identical");
    }

    #[test]
    fn strict_fixed_drain_feeds_the_controller_sensors() {
        let mut sim = Sim::new(38);
        let (rl, _disk) = setup(&mut sim, specs::hdd_7200(1 << 30), DrainConfig::new());
        let dev = rl.device();
        let rl2 = rl.clone();
        sim.spawn(async move {
            for i in 0..64u64 {
                dev.write(i * 8, &vec![i as u8; 8 * SECTOR_SIZE], true)
                    .await
                    .unwrap();
            }
            rl2.quiesce().await;
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(rl.audit_report().guarantee_held());
        let drain = rl.snapshot().drain;
        assert!(drain.commits_measured > 0, "commit latency unmeasured");
        assert!(drain.ewma_bytes_per_sec > 0, "bandwidth EWMA unfed");
        assert!(drain.ewma_service_ns > 0, "service-time EWMA unfed");
        assert_eq!(
            drain.batch_grows + drain.batch_shrinks,
            0,
            "Strict pins the target"
        );
    }

    #[test]
    fn drain_runs_do_not_shift_the_global_random_stream() {
        // The drain window forks its retry RNG from the simulation's once,
        // when it starts: how many runs it issues must not move the stream
        // every later consumer (clients, fault lotteries) draws from.
        let draw_after = |writes: u64| {
            let mut sim = Sim::new(42);
            let ctx = sim.ctx();
            let drain = DrainConfig::new()
                .window_depth(4)
                .ordering(OrderingMode::PartiallyConstrained);
            let spec = specs::ssd_nvme(1 << 30).with_channels(4);
            let (rl, disk) = setup(&mut sim, spec, drain);
            let dev = rl.device();
            let rl2 = rl.clone();
            sim.spawn(async move {
                for i in 0..writes {
                    dev.write(i * 64, &vec![i as u8; SECTOR_SIZE], true)
                        .await
                        .unwrap();
                    rl2.quiesce().await;
                }
            });
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(rl.occupancy(), 0);
            (disk.stats().writes, ctx.rand_u64())
        };
        let (runs_few, few) = draw_after(2);
        let (runs_many, many) = draw_after(8);
        assert!(runs_few < runs_many, "{runs_few} vs {runs_many} runs");
        assert_eq!(few, many, "the run count moved the global RNG");
    }

    #[test]
    fn fair_share_hold_timer_fires_and_keeps_every_tenant_clean() {
        // Two tenants flush small writes at an HDD with a one-run window:
        // the window stays saturated while the aggregate backlog sits below
        // the adaptive target, which is exactly when the hold timer arms.
        let mut sim = Sim::new(41);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(Disk::new(&ctx, specs::hdd_7200(1 << 30)))
            .capacity(CapacitySpec::Fixed(4 << 20))
            .drain_config(
                DrainConfig::new()
                    .ordering(OrderingMode::PartiallyConstrained)
                    .window_depth(1)
                    .batch_policy(BatchPolicy::Adaptive(AdaptiveBatchConfig::default())),
            )
            .tenants(&[TenantSpec::new(1), TenantSpec::new(2)])
            .build();
        std::mem::forget(cell);
        for t in 1..=2u64 {
            let dev = rl.device_for(TenantId(t)).unwrap();
            let ctx = ctx.clone();
            sim.spawn(async move {
                for i in 0..128u64 {
                    dev.write((t << 16) + i * 2, &vec![i as u8; 2 * SECTOR_SIZE], true)
                        .await
                        .unwrap();
                    ctx.sleep(SimDuration::from_micros(20)).await;
                }
            });
        }
        sim.run_until(SimTime::from_secs(2));
        let rl2 = rl.clone();
        sim.spawn(async move { rl2.quiesce().await });
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(rl.occupancy(), 0);
        let snap = rl.snapshot();
        assert!(snap.drain.hold_fires > 0, "the hold timer never armed");
        assert!(snap.audit.guarantee_held(), "{:?}", snap.audit);
        for t in 1..=2u64 {
            let section = snap.audit.tenant(t).expect("registered tenant");
            assert!(section.commits > 0, "tenant {t} never committed");
            assert!(section.guarantee_held(), "tenant {t}: {section:?}");
        }
    }

    /// A WAL-style writer: issues `flushes` (first sector, sectors) in
    /// order, tagging every sector of flush `i` with `i as u16`; `acked`
    /// counts acknowledged flushes.
    async fn wal_writer(
        dev: crate::RapiLogDevice,
        flushes: impl Iterator<Item = (u64, u64)>,
        acked: Rc<StdCell<u64>>,
    ) {
        for (i, (sector, sectors)) in flushes.enumerate() {
            let mut data = vec![0u8; sectors as usize * SECTOR_SIZE];
            for chunk in data.chunks_mut(SECTOR_SIZE) {
                chunk[..2].copy_from_slice(&(i as u16).to_le_bytes());
            }
            dev.write(sector, &data, true).await.unwrap();
            acked.set(i as u64 + 1);
        }
    }

    /// `n` WAL flushes from `base`, each re-forcing the last sector of the
    /// one before and adding 1–24 new sectors, so batches and runs differ
    /// in size.
    fn ragged_flushes(base: u64, n: u64) -> Vec<(u64, u64)> {
        let mut start = base;
        (0..n)
            .map(|i| {
                let new = 1 + (i * 7 + i / 3) % 24;
                let flush = (start, new + 1);
                start += new;
                flush
            })
            .collect()
    }

    fn tag(sector: &[u8]) -> u64 {
        u16::from_le_bytes([sector[0], sector[1]]) as u64
    }

    /// Media bytes per virtual second, as a share of the sequential
    /// bandwidth the residual-energy budget charges, that `drain` reaches
    /// on `hdd_7200` under a WAL writer that never lets the queue empty:
    /// measured over 2 s after 0.5 s of warm-up.
    fn saturated_hdd_media_share(drain: DrainConfig) -> f64 {
        let spec = specs::hdd_7200(1 << 30);
        let sequential = spec.sequential_bandwidth();
        let mut sim = Sim::new(39);
        let ctx = sim.ctx();
        let (rl, disk) = setup(&mut sim, spec, drain);
        let flushes = (0..).map(|i| (16 * i, 17));
        sim.spawn(wal_writer(rl.device(), flushes, Rc::default()));
        let window = Rc::new(StdCell::new((0u64, 0u64)));
        let w2 = Rc::clone(&window);
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(500)).await;
            let before = disk.stats().sectors_written;
            ctx.sleep(SimDuration::from_secs(2)).await;
            w2.set((before, disk.stats().sectors_written));
        });
        sim.run_until(SimTime::from_millis(2_600));
        assert!(
            rl.snapshot().buffer.backpressure_events > 0,
            "the writer must saturate the drain"
        );
        let (before, after) = window.get();
        ((after - before) * SECTOR_SIZE as u64 / 2) as f64 / sequential as f64
    }

    #[test]
    fn strict_drain_streams_a_saturated_hdd_log_at_media_bandwidth() {
        // Track skew caps the model near 0.93; a drain that opens every
        // batch by rewriting the previous batch's tail sector pays a
        // rotation per batch and reaches 0.64.
        let share = saturated_hdd_media_share(DrainConfig::new());
        assert!(share >= 0.85, "media share {share:.3}");
    }

    #[test]
    fn windowed_drain_streams_a_saturated_hdd_log_at_media_bandwidth() {
        let drain = DrainConfig::new()
            .window_depth(4)
            .ordering(OrderingMode::PartiallyConstrained);
        let share = saturated_hdd_media_share(drain);
        assert!(share >= 0.85, "media share {share:.3}");
    }

    #[test]
    fn every_drain_defers_tails_and_keeps_read_your_writes() {
        // Serial, windowed and fair-share drains on a 4-channel SSD, with
        // small batches so the queue stays non-empty and runs of different
        // sizes overlap in flight. While the writers run, a reader re-reads
        // each region's last megabyte of acknowledged flushes through the
        // device: an extent released before all its sectors landed would
        // read back stale media. A media write that starts exactly where
        // an earlier one ended is a deferred tail's continuation (without
        // deferral each batch reopens the previous batch's last sector).
        const FLUSHES: u64 = 1_500;
        const READ_BACK: u64 = 1 << 20;
        let windowed = DrainConfig::new()
            .max_batch(64 << 10)
            .window_depth(8)
            .ordering(OrderingMode::PartiallyConstrained);
        for (name, drain, tenants) in [
            ("strict", DrainConfig::new().max_batch(64 << 10), 1u64),
            ("windowed", windowed, 1),
            ("fair-share", windowed, 2),
        ] {
            let mut sim = Sim::new(40);
            let ctx = sim.ctx();
            ctx.tracer().set_capacity(1 << 16);
            ctx.tracer().set_enabled(true);
            let hv = Hypervisor::new(&ctx);
            let cell = hv.create_cell("rapilog", Trust::Trusted);
            let disk = Disk::new(&ctx, specs::ssd_nvme(1 << 30).with_channels(4));
            let mut builder = RapiLog::builder(&ctx)
                .cell(&cell)
                .disk(disk.clone())
                .capacity(CapacitySpec::Fixed(1 << 20))
                .drain_config(drain);
            if tenants > 1 {
                builder = builder.tenants(&[TenantSpec::new(1), TenantSpec::new(2)]);
            }
            let rl = builder.build();
            std::mem::forget(cell);
            let stale = Rc::new(StdCell::new(None::<(u64, u64)>));
            let regions: Vec<Rc<Vec<(u64, u64)>>> = (0..tenants)
                .map(|t| Rc::new(ragged_flushes(t << 16, FLUSHES)))
                .collect();
            // The newest of the first `acked` flushes that wrote `sector`.
            let newest = |flushes: &[(u64, u64)], acked: u64, sector: u64| {
                (flushes.partition_point(|&(start, _)| start <= sector) as u64)
                    .min(acked)
                    .saturating_sub(1)
            };
            for (t, flushes) in regions.iter().enumerate() {
                let dev = match tenants {
                    1 => rl.device(),
                    _ => rl.device_for(TenantId(t as u64 + 1)).unwrap(),
                };
                let acked = Rc::new(StdCell::new(0u64));
                let writes = ragged_flushes(flushes[0].0, FLUSHES).into_iter();
                sim.spawn(wal_writer(dev.clone(), writes, Rc::clone(&acked)));
                let (ctx, stale, flushes) = (ctx.clone(), Rc::clone(&stale), Rc::clone(flushes));
                sim.spawn(async move {
                    let mut buf = vec![0u8; READ_BACK as usize];
                    let sectors = READ_BACK / SECTOR_SIZE as u64;
                    while acked.get() < FLUSHES {
                        ctx.sleep(SimDuration::from_micros(20)).await;
                        let n = acked.get();
                        let Some(&(start, len)) = n.checked_sub(1).map(|i| &flushes[i as usize])
                        else {
                            continue;
                        };
                        // Half the buffer back (served from it alone), then
                        // twice that (partly from media).
                        for span in [sectors / 2, sectors] {
                            let first = (start + len).saturating_sub(span).max(flushes[0].0);
                            let read = &mut buf[..(start + len - first) as usize * SECTOR_SIZE];
                            dev.read(first, read).await.unwrap();
                            for (k, sector) in read.chunks(SECTOR_SIZE).enumerate() {
                                let s = first + k as u64;
                                if tag(sector) < newest(&flushes, n, s) && stale.get().is_none() {
                                    stale.set(Some((s, tag(sector))));
                                }
                            }
                        }
                    }
                });
            }
            sim.run_until(SimTime::from_secs(5));
            let rl2 = rl.clone();
            sim.spawn(async move { rl2.quiesce().await });
            sim.run_until(SimTime::from_secs(10));
            assert_eq!(stale.get(), None, "{name}: read back (sector, tag) stale");
            assert_eq!(rl.occupancy(), 0, "{name}: drained");
            let report = rl.audit_report();
            assert!(report.guarantee_held(), "{name}: {report:?}");
            let mut ends = std::collections::HashSet::new();
            let mut continuations = 0;
            for e in ctx.tracer().snapshot().events.iter() {
                if let (
                    Phase::Begin,
                    Payload::Io {
                        sector,
                        sectors,
                        write: true,
                        ..
                    },
                ) = (e.phase, e.payload)
                {
                    continuations += usize::from(ends.contains(&sector));
                    ends.insert(sector + sectors);
                }
            }
            assert!(continuations > 0, "{name}: no batch deferred its tail");
            let mut buf = vec![0u8; SECTOR_SIZE];
            for flushes in &regions {
                let (start, _) = flushes[0];
                let &(last, len) = flushes.last().unwrap();
                for s in start..last + len {
                    disk.peek_media(s, &mut buf);
                    let want = newest(flushes, FLUSHES, s);
                    assert_eq!(tag(&buf), want, "{name}: sector {s}");
                }
            }
        }
    }

    // ---- dependency-permutation property test ----

    /// One random linearization of `edges` (a DAG in index order), chosen
    /// uniformly-ish by repeatedly picking a random ready node.
    fn random_linearization(edges: &[Vec<usize>], rng: &mut SimRng) -> Vec<usize> {
        let n = edges.len();
        let mut missing: Vec<usize> = edges.iter().map(|e| e.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, deps) in edges.iter().enumerate() {
            for &i in deps {
                dependents[i].push(j);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&j| missing[j] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while !ready.is_empty() {
            let pick = (rng.next_u64() as usize) % ready.len();
            let j = ready.swap_remove(pick);
            order.push(j);
            for &d in &dependents[j] {
                missing[d] -= 1;
                if missing[d] == 0 {
                    ready.push(d);
                }
            }
        }
        assert_eq!(order.len(), n, "dep graph must be acyclic");
        order
    }

    #[test]
    fn any_edge_respecting_completion_order_yields_the_same_media_state() {
        // Property: for random batches of log extents, every completion
        // order permitted by dep_edges() recovers to the same committed
        // media state as the serial drain. 16 seeded batches × 8 sampled
        // linearizations each.
        const SECTOR_SPAN: u64 = 48;
        for seed in 0..16u64 {
            let mut rng = SimRng::seed_from_u64(0xD0_0D + seed);
            let n_extents = 4 + (rng.next_u64() % 12) as usize;
            let mut extents = Vec::with_capacity(n_extents);
            for seq in 0..n_extents as u64 {
                let sectors = 1 + (rng.next_u64() % 4) as usize;
                let sector = rng.next_u64() % (SECTOR_SPAN - sectors as u64);
                extents.push(Extent {
                    seq,
                    sector,
                    admit_ns: 0,
                    data: SectorBuf::from_vec(vec![(seq + 1) as u8; sectors * SECTOR_SIZE]),
                });
            }
            let runs = consolidate(&extents);
            let edges = dep_edges(&runs);
            // Ground truth: serial media order.
            let mut serial = SectorStore::new();
            serial.write_runs(&runs);
            let mut expect = vec![0u8; SECTOR_SPAN as usize * SECTOR_SIZE];
            serial.read_run(0, &mut expect);
            for sample in 0..8u64 {
                let mut prng = SimRng::seed_from_u64(seed * 100 + sample);
                let order = random_linearization(&edges, &mut prng);
                let mut store = SectorStore::new();
                for &j in &order {
                    store.write_runs(std::slice::from_ref(&runs[j]));
                }
                let mut got = vec![0u8; SECTOR_SPAN as usize * SECTOR_SIZE];
                store.read_run(0, &mut got);
                assert_eq!(
                    got, expect,
                    "seed {seed} sample {sample} order {order:?} diverged"
                );
            }
        }
    }

    // ---- adaptive-resize ledger property test ----

    #[test]
    fn adaptive_resizing_never_breaks_the_durable_prefix_or_leaks_space() {
        // Property: popping with a batch target that shrinks and grows
        // mid-stream (what the adaptive controller does), then retiring the
        // resulting batches' runs in ANY order, must still (a) feed the
        // audit only a contiguous, monotonic durable prefix — one commit
        // per batch, in sequence order — and (b) release every byte back
        // through `complete_seqs` (occupancy returns to zero, nothing
        // double-released or stranded).
        for seed in 0..12u64 {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let disk = Disk::new(&ctx, rapilog_simdisk::specs::hdd_7200(1 << 30));
            let cfg = DrainConfig::new()
                .ordering(OrderingMode::PartiallyConstrained)
                .window_depth(2)
                .batch_policy(BatchPolicy::Adaptive(AdaptiveBatchConfig::default()));
            let ctrl = DrainController::new(&ctx, &cfg, &disk);
            let audit = Audit::new(&ctx, None);
            let buffer = DependableBuffer::new(64 << 20);
            buffer.set_clock(&ctx);
            let batches_seen = Rc::new(StdCell::new(0u64));
            let done = Rc::new(StdCell::new(false));
            let t_buffer = buffer.clone();
            let t_audit = audit.clone();
            let t_ctrl = Rc::clone(&ctrl);
            let t_batches = Rc::clone(&batches_seen);
            let t_done = Rc::clone(&done);
            let t_ctx = ctx.clone();
            sim.spawn(async move {
                let mut rng = SimRng::seed_from_u64(0xADA7 + seed);
                let mut ledger = BatchLedger {
                    batches: VecDeque::new(),
                    tenant: TenantId::DEFAULT,
                };
                // (batch id, runs still to retire) for the random scheduler.
                let mut pending: Vec<(u64, u64)> = Vec::new();
                let mut next_seq_sector = 0u64;
                let mut next_batch_id = 0u64;
                // Several push/pop rounds so resized pops interleave with
                // arrivals, as they do mid-stream in the real drain. The
                // sleep moves the clock off zero so admission stamps are
                // distinguishable from "no clock attached".
                for _round in 0..6 {
                    t_ctx.sleep(SimDuration::from_micros(10)).await;
                    for _ in 0..(8 + rng.next_u64() % 12) {
                        let sectors = 1 + (rng.next_u64() % 3) as usize;
                        let data = SectorBuf::from_vec(vec![7u8; sectors * SECTOR_SIZE]);
                        t_buffer.push(next_seq_sector * 8, data).await.unwrap();
                        next_seq_sector += 1;
                    }
                    loop {
                        // The resizing under test: every pop uses a fresh
                        // random target between 1 and 8 sectors.
                        let target = SECTOR_SIZE * (1 + (rng.next_u64() % 8) as usize);
                        let batch = t_buffer.pop_batch(target);
                        if batch.is_empty() {
                            break;
                        }
                        let runs = consolidate(&batch);
                        let (lo, hi) = (batch.first().unwrap().seq, batch.last().unwrap().seq);
                        ledger.batches.push_back(BatchEntry {
                            id: next_batch_id,
                            lo,
                            hi,
                            retire: Some((lo, hi)),
                            remaining: runs.len() as u64,
                            retired: false,
                            payload: Payload::Batch {
                                extents: batch.len() as u64,
                                runs: runs.len() as u64,
                                bytes: runs.iter().map(|r| r.bytes() as u64).sum(),
                            },
                            bytes: runs.iter().map(|r| r.bytes() as u64).sum(),
                            dispatched_ns: t_ctx.now().as_nanos(),
                            admits: batch.iter().map(|e| e.admit_ns).collect(),
                            extents: Vec::new(),
                        });
                        pending.push((next_batch_id, runs.len() as u64));
                        next_batch_id += 1;
                    }
                    // Retire this round's runs in a random global order.
                    while !pending.is_empty() {
                        let pick = (rng.next_u64() as usize) % pending.len();
                        let (id, left) = pending[pick];
                        if left == 1 {
                            pending.swap_remove(pick);
                        } else {
                            pending[pick].1 -= 1;
                        }
                        let _ = ledger.run_done(
                            id,
                            &t_buffer,
                            &t_audit,
                            None,
                            &t_ctrl,
                            t_ctx.now().as_nanos(),
                            t_buffer.queued_bytes(),
                        );
                    }
                }
                assert!(ledger.batches.is_empty(), "every batch must retire");
                t_batches.set(next_batch_id);
                t_done.set(true);
            });
            sim.run();
            assert!(done.get(), "seed {seed}: scenario must complete");
            assert_eq!(
                buffer.occupancy(),
                0,
                "seed {seed}: complete_seqs leaked space"
            );
            let report = audit.report();
            assert!(
                !report.order_violated,
                "seed {seed}: durable prefix went non-contiguous"
            );
            assert_eq!(
                report.commits,
                batches_seen.get(),
                "seed {seed}: exactly one prefix commit per batch"
            );
            assert!(
                ctrl.stats().commits_measured > 0,
                "seed {seed}: admission stamps must feed the latency histogram"
            );
        }
    }

    #[test]
    fn dep_edges_order_overlaps_and_free_disjoint_runs() {
        let runs = consolidate(&[
            Extent {
                seq: 0,
                sector: 0,
                admit_ns: 0,
                data: SectorBuf::from_vec(vec![1; 4 * SECTOR_SIZE]),
            },
            Extent {
                seq: 1,
                sector: 1,
                admit_ns: 0,
                data: SectorBuf::from_vec(vec![2; SECTOR_SIZE]),
            },
            Extent {
                seq: 2,
                sector: 100,
                admit_ns: 0,
                data: SectorBuf::from_vec(vec![3; SECTOR_SIZE]),
            },
        ]);
        assert_eq!(runs.len(), 3, "middle overlap + gap split the batch");
        let edges = dep_edges(&runs);
        assert!(edges[0].is_empty());
        assert_eq!(edges[1], vec![0], "the middle rewrite must order");
        assert!(edges[2].is_empty(), "the disjoint run is free to fly");
    }
}

#[cfg(test)]
mod deferral_tests {
    use super::BatchFormer;
    use crate::buffer::DependableBuffer;
    use rapilog_simcore::bytes::SectorBuf;
    use rapilog_simcore::rng::SimRng;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{IoRun, SectorStore, SECTOR_SIZE};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sectors in the modelled log device: small, so wraps and header
    /// rewrites collide with the tail.
    const SPAN: u64 = 64;

    /// A WAL-style stream of `(sector, sectors)` writes: most re-force the
    /// last one to three sectors the previous flush ended in (a partly
    /// filled log page), some start fresh after it, the log wraps back to
    /// sector 1, and now and then sector 0 (a header) is rewritten. Lengths
    /// reach 12 sectors, past the smallest batch sizes.
    fn wal_stream(rng: &mut SimRng, n: usize) -> Vec<(u64, u64)> {
        let mut end = 1u64;
        (0..n)
            .map(|_| match rng.next_u64() % 10 {
                0 => (0, 1),
                k => {
                    let len = 1 + rng.next_u64() % 12;
                    let mut start = if k <= 6 {
                        end.saturating_sub(1 + rng.next_u64() % 3).max(1)
                    } else {
                        end
                    };
                    if start + len > SPAN {
                        start = 1;
                    }
                    end = start + len;
                    (start, len)
                }
            })
            .collect()
    }

    /// Every sector of extent `seq` carries the tag `seq + 1`; 0 means the
    /// sector was never written.
    fn tagged(seq: u64, sectors: u64) -> SectorBuf {
        let mut data = vec![0u8; sectors as usize * SECTOR_SIZE];
        for sector in data.chunks_mut(SECTOR_SIZE) {
            sector[..8].copy_from_slice(&(seq + 1).to_le_bytes());
        }
        SectorBuf::from_vec(data)
    }

    fn media_tag(media: &SectorStore, sector: u64) -> u64 {
        let mut buf = vec![0u8; SECTOR_SIZE];
        media.read_run(sector, &mut buf);
        u64::from_le_bytes(buf[..8].try_into().expect("8-byte tag"))
    }

    /// One run dispatched to the model disk.
    struct Flight {
        batch: usize,
        run: IoRun,
        deps: Vec<usize>,
        landed: bool,
    }

    fn overlaps(a: &IoRun, b: &IoRun) -> bool {
        a.sector < b.sector + b.sectors() && b.sector < a.sector + a.sectors()
    }

    /// Drives a [`BatchFormer`] over a random WAL-style stream, with pushes
    /// interleaved between batches, against a model disk, checking after
    /// every batch that lands (a power cut may follow any of them):
    ///
    /// * every retired seq's sectors hold its own bytes or a newer seq's;
    /// * retire ranges tile the sequence space in order, no gap or repeat;
    /// * the buffer empties once the stream ends.
    ///
    /// With `window`, runs land in any order the windowed drains' edges
    /// allow (overlap with an in-flight run, and — unless `deferral_edge`
    /// is off — every run of a deferring batch before the next batch's
    /// first run); without it each batch lands whole before the next forms,
    /// as under Strict. Returns the number of deferrals, or the first
    /// violation.
    fn run_model(
        seed: u64,
        window: bool,
        retire_early: bool,
        deferral_edge: bool,
    ) -> Result<u64, String> {
        let out = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&out);
        let mut sim = Sim::new(seed);
        sim.spawn(async move {
            *o2.borrow_mut() = Some(drive(seed, window, retire_early, deferral_edge).await);
        });
        sim.run();
        out.take().expect("model finished")
    }

    async fn drive(
        seed: u64,
        window: bool,
        retire_early: bool,
        deferral_edge: bool,
    ) -> Result<u64, String> {
        let mut rng = SimRng::seed_from_u64(0xDEF0 + seed);
        let n = 20 + (rng.next_u64() % 100) as usize;
        let stream = wal_stream(&mut rng, n);
        let max_batch = SECTOR_SIZE * (1 + (rng.next_u64() % 16) as usize);
        let buffer = DependableBuffer::new(1 << 30);
        let mut former = BatchFormer {
            retire_early,
            ..BatchFormer::default()
        };
        let mut media = SectorStore::new();
        let mut flights: Vec<Flight> = Vec::new();
        // Per formed batch: runs still to land, and its retire range.
        let mut batches: Vec<(usize, Option<(u64, u64)>)> = Vec::new();
        let mut prev_deferral: Vec<usize> = Vec::new();
        let (mut pushed, mut next_retire, mut deferrals) = (0usize, 0u64, 0u64);
        loop {
            let ready: Vec<usize> = (0..flights.len())
                .filter(|&i| {
                    !flights[i].landed && flights[i].deps.iter().all(|&d| flights[d].landed)
                })
                .collect();
            let all_pushed = pushed == stream.len();
            if all_pushed && !buffer.has_queued() && ready.is_empty() {
                break;
            }
            match rng.next_u64() % 3 {
                0 if !all_pushed => {
                    let (sector, sectors) = stream[pushed];
                    buffer
                        .push(sector, tagged(pushed as u64, sectors))
                        .await
                        .unwrap();
                    pushed += 1;
                }
                1 if window && !ready.is_empty() => {
                    let id = ready[(rng.next_u64() as usize) % ready.len()];
                    land(&mut flights, id, &mut media);
                    let batch = &mut batches[flights[id].batch];
                    batch.0 -= 1;
                    if batch.0 == 0 {
                        retire(&buffer, &media, &stream, batch.1)?;
                    }
                }
                _ => {
                    let Some(formed) = former.form(&buffer, max_batch) else {
                        continue;
                    };
                    if let Some((lo, hi)) = formed.retire {
                        if lo != next_retire || hi < lo {
                            return Err(format!("retire range [{lo}, {hi}] after {next_retire}"));
                        }
                        next_retire = hi + 1;
                    }
                    deferrals += u64::from(formed.deferred);
                    let batch = batches.len();
                    batches.push((formed.runs.len(), formed.retire));
                    let first = flights.len();
                    let mut after = std::mem::take(&mut prev_deferral);
                    for run in formed.runs {
                        let mut deps: Vec<usize> = (0..flights.len())
                            .filter(|&i| !flights[i].landed && overlaps(&flights[i].run, &run))
                            .collect();
                        if deferral_edge {
                            deps.append(&mut after);
                        }
                        flights.push(Flight {
                            batch,
                            run,
                            deps,
                            landed: false,
                        });
                    }
                    if formed.deferred {
                        prev_deferral = (first..flights.len()).collect();
                    }
                    if !window {
                        for id in first..flights.len() {
                            land(&mut flights, id, &mut media);
                        }
                        retire(&buffer, &media, &stream, formed.retire)?;
                    }
                }
            }
        }
        if next_retire != stream.len() as u64 || buffer.occupancy() != 0 || buffer.queued() != 0 {
            return Err(format!(
                "stream of {} ended with {next_retire} retired, occupancy {}, {} extents held",
                stream.len(),
                buffer.occupancy(),
                buffer.queued()
            ));
        }
        Ok(deferrals)
    }

    fn land(flights: &mut [Flight], id: usize, media: &mut SectorStore) {
        media.write_runs(std::slice::from_ref(&flights[id].run));
        flights[id].landed = true;
    }

    /// Checks a landed batch's retire range against media, then releases it.
    fn retire(
        buffer: &DependableBuffer,
        media: &SectorStore,
        stream: &[(u64, u64)],
        range: Option<(u64, u64)>,
    ) -> Result<(), String> {
        let Some((lo, hi)) = range else {
            return Ok(());
        };
        for seq in lo..=hi {
            let (sector, sectors) = stream[seq as usize];
            for s in sector..sector + sectors {
                let tag = media_tag(media, s);
                if tag < seq + 1 {
                    return Err(format!("seq {seq} retired but sector {s} holds tag {tag}"));
                }
            }
        }
        buffer.complete_seqs(lo, hi);
        Ok(())
    }

    #[test]
    fn tail_deferral_keeps_every_retired_seq_on_media() {
        for window in [false, true] {
            let mut deferrals = 0;
            for seed in 0..150 {
                match run_model(seed, window, false, true) {
                    Ok(d) => deferrals += d,
                    Err(e) => panic!("seed {seed} (window {window}): {e}"),
                }
            }
            assert!(
                deferrals > 100,
                "the streams must exercise deferral ({deferrals})"
            );
        }
    }

    #[test]
    fn retiring_the_deferred_seq_early_is_caught() {
        for window in [false, true] {
            let caught = (0..150).filter(|&seed| run_model(seed, window, true, true).is_err());
            assert!(
                caught.count() > 0,
                "retire-through-k control escaped (window {window})"
            );
        }
    }

    #[test]
    fn dropping_the_deferral_edge_is_caught() {
        let caught = (0..150).filter(|&seed| run_model(seed, true, false, false).is_err());
        assert!(caught.count() > 0, "unordered deferral control escaped");
    }
}
