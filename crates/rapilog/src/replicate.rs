//! Log shipping to a standby cell.
//!
//! The single-box guarantee ends where the box does: a fire takes the
//! trusted cell and its disk together. This module extends the dependable
//! pipeline over a (simulated, faulty) network: a primary-side
//! [`Replicator`] tees the drain's *retired* batches — exactly the
//! contiguous durable prefix, in order — onto a [`Link`], and a [`Standby`]
//! applies them into its own disk image, acknowledging with its durable
//! prefix. The standby can then be [promoted](Standby::promote) after the
//! primary fails.
//!
//! The protocol is deliberately minimal — frames carry a contiguous
//! sequence range `[lo, hi]` per tenant, the standby applies only at its
//! expected prefix (holding bounded-reordered frames, re-acking
//! duplicates), and the primary retransmits everything unacknowledged once
//! its ack deadline lapses (capped exponential backoff, reusing
//! [`RetryPolicy`]). Reliability is therefore end-to-end: the link may
//! drop, duplicate, reorder within a bound, or partition, and the replica
//! still converges to a prefix of the primary's committed log.
//!
//! Two guarantee levels (see [`ReplicationMode`]):
//!
//! * **Sync** — the guest's write acknowledgement additionally waits until
//!   the standby has acknowledged the write's sequence number. Every commit
//!   the primary ever acked is then servable by the promoted standby.
//! * **Async** — acks stay early (buffer-speed); on failover the pair
//!   reports an exact replication lag: the count of locally committed
//!   sequence numbers the standby has not applied. Because the standby
//!   only ever applies its contiguous prefix, what is missing is exactly a
//!   suffix of the committed log.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use rapilog_microvisor::cell::Cell;
use rapilog_simcore::sync::Notify;
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::Disk;
use rapilog_simnet::Link;

use crate::audit::Audit;
use crate::buffer::Extent;
use crate::drain::backoff_delay;
use crate::RetryPolicy;

/// When the guest's acknowledgement may run ahead of the standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// The device ack waits for the standby's ack: primary-acked implies
    /// standby-durable, at the cost of one network round trip per write.
    Sync,
    /// Acks stay buffer-speed; the replica trails by a reported, exact lag.
    Async,
}

/// Tuning for the primary-side shipper.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// The guarantee level.
    pub mode: ReplicationMode,
    /// How long the shipper waits for ack progress before retransmitting
    /// every unacknowledged frame.
    pub ack_timeout: SimDuration,
    /// Backoff applied on top of [`ack_timeout`](Self::ack_timeout) as
    /// consecutive retransmission rounds go unanswered (the retry budget
    /// only caps the backoff growth — the shipper never gives up on
    /// acknowledged data).
    pub retry: RetryPolicy,
}

impl ReplicationConfig {
    /// Synchronous replication with a 5 ms ack deadline.
    pub fn sync() -> ReplicationConfig {
        ReplicationConfig {
            mode: ReplicationMode::Sync,
            ack_timeout: SimDuration::from_millis(5),
            retry: RetryPolicy::default(),
        }
    }

    /// Asynchronous replication with a 5 ms ack deadline.
    pub fn asynchronous() -> ReplicationConfig {
        ReplicationConfig {
            mode: ReplicationMode::Async,
            ..ReplicationConfig::sync()
        }
    }
}

/// One shipped unit: a tenant's contiguous sequence range and its extents.
#[derive(Debug, Clone)]
pub struct ShipFrame {
    /// The tenant whose sequence space `[lo, hi]` lives in.
    pub tenant: u64,
    /// First sequence number the frame covers.
    pub lo: u64,
    /// Last sequence number the frame covers (inclusive).
    pub hi: u64,
    /// The extents, in sequence order.
    pub extents: Vec<Extent>,
}

impl ShipFrame {
    /// Wire size: payload bytes plus a fixed header.
    pub fn wire_bytes(&self) -> u64 {
        32 + self
            .extents
            .iter()
            .map(|e| e.data.len() as u64)
            .sum::<u64>()
    }
}

/// The standby's cumulative acknowledgement for one tenant.
#[derive(Debug, Clone, Copy)]
pub struct ShipAck {
    /// The tenant being acknowledged.
    pub tenant: u64,
    /// Every sequence number up to and including this one is durable on
    /// the standby's image.
    pub durable_hi: u64,
}

/// Per-tenant `(tenant, hi)` map; tenants are few, a linear scan wins.
fn upsert_max(v: &mut Vec<(u64, u64)>, tenant: u64, hi: u64) -> bool {
    for e in v.iter_mut() {
        if e.0 == tenant {
            if hi > e.1 {
                e.1 = hi;
                return true;
            }
            return false;
        }
    }
    v.push((tenant, hi));
    true
}

fn lookup(v: &[(u64, u64)], tenant: u64) -> Option<u64> {
    v.iter().find(|e| e.0 == tenant).map(|e| e.1)
}

/// One tenant's shipping status in a [`ReplicationReport`].
#[derive(Debug, Clone, Copy)]
pub struct ReplTenantStatus {
    /// The tenant (`TenantId` raw value).
    pub tenant: u64,
    /// Highest locally committed sequence handed to the shipper.
    pub offered_hi: Option<u64>,
    /// Highest sequence the standby has acknowledged durable.
    pub acked_hi: Option<u64>,
    /// Committed-but-unacknowledged sequence count: `offered − acked`.
    /// Sequence spaces are dense from 0, so this is an exact count.
    pub lag: u64,
}

/// Point-in-time view of the primary-side shipper.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// The configured guarantee level.
    pub mode: ReplicationMode,
    /// True once [`Replicator::halt`] ran (primary power death).
    pub halted: bool,
    /// Frames sent for the first time.
    pub frames_shipped: u64,
    /// Frames re-sent after an ack deadline lapsed.
    pub retransmits: u64,
    /// Acknowledgements received from the standby.
    pub acks_received: u64,
    /// Frames offered but not yet acknowledged (queued or in flight).
    pub frames_pending: u64,
    /// Per-tenant shipping status.
    pub tenants: Vec<ReplTenantStatus>,
}

impl ReplicationReport {
    /// The status row for `tenant`, if it ever shipped.
    pub fn tenant(&self, tenant: u64) -> Option<&ReplTenantStatus> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Total committed-but-unacknowledged sequence count across tenants.
    pub fn total_lag(&self) -> u64 {
        self.tenants.iter().map(|t| t.lag).sum()
    }
}

struct ReplInner {
    ctx: SimCtx,
    cfg: ReplicationConfig,
    ship: Link<ShipFrame>,
    acks: Link<ShipAck>,
    /// Offered by the drain, not yet put on the wire.
    pending: RefCell<VecDeque<ShipFrame>>,
    /// On the wire (at least once), awaiting acknowledgement.
    unacked: RefCell<VecDeque<ShipFrame>>,
    offered_hi: RefCell<Vec<(u64, u64)>>,
    acked_hi: RefCell<Vec<(u64, u64)>>,
    /// Bumped whenever `acked_hi` advances; the send loop uses it to tell
    /// real progress from mere wakeups.
    epoch: StdCell<u64>,
    /// Wakes the send loop and every sync-mode waiter: new offer, ack
    /// progress, halt.
    wake: Notify,
    halted: StdCell<bool>,
    attached: StdCell<bool>,
    frames_shipped: StdCell<u64>,
    retransmits: StdCell<u64>,
    acks_received: StdCell<u64>,
    audit: RefCell<Option<Audit>>,
}

/// The primary-side shipper.
///
/// Create it with the two link directions, hand it to
/// [`RapiLogBuilder::replicate`](crate::RapiLogBuilder::replicate); the
/// builder attaches it to the instance's trusted cell and the drain then
/// tees every retired batch through [`ShipFrame`]s.
#[derive(Clone)]
pub struct Replicator {
    inner: Rc<ReplInner>,
}

impl Replicator {
    /// Creates a shipper over `ship` (primary → standby frames) and `acks`
    /// (standby → primary acknowledgements).
    pub fn new(
        ctx: &SimCtx,
        cfg: ReplicationConfig,
        ship: Link<ShipFrame>,
        acks: Link<ShipAck>,
    ) -> Replicator {
        Replicator {
            inner: Rc::new(ReplInner {
                ctx: ctx.clone(),
                cfg,
                ship,
                acks,
                pending: RefCell::new(VecDeque::new()),
                unacked: RefCell::new(VecDeque::new()),
                offered_hi: RefCell::new(Vec::new()),
                acked_hi: RefCell::new(Vec::new()),
                epoch: StdCell::new(0),
                wake: Notify::new(),
                halted: StdCell::new(false),
                attached: StdCell::new(false),
                frames_shipped: StdCell::new(0),
                retransmits: StdCell::new(0),
                acks_received: StdCell::new(0),
                audit: RefCell::new(None),
            }),
        }
    }

    /// The configured guarantee level.
    pub fn mode(&self) -> ReplicationMode {
        self.inner.cfg.mode
    }

    /// Stops shipping and releases every sync-mode waiter with an error.
    /// Called when the primary dies (power collapse): a dead primary must
    /// neither promise nor believe anything further.
    pub fn halt(&self) {
        self.inner.halted.set(true);
        self.inner.wake.notify_all();
    }

    /// True once [`halt`](Self::halt) ran.
    pub fn is_halted(&self) -> bool {
        self.inner.halted.get()
    }

    /// True when every offered frame has been acknowledged by the standby.
    pub fn settled(&self) -> bool {
        self.inner.pending.borrow().is_empty() && self.inner.unacked.borrow().is_empty()
    }

    /// Waits until [`settled`](Self::settled) (or the shipper halts).
    pub async fn wait_settled(&self) {
        loop {
            if self.settled() || self.inner.halted.get() {
                return;
            }
            self.inner.wake.notified().await;
        }
    }

    /// Point-in-time shipping status.
    pub fn report(&self) -> ReplicationReport {
        let inner = &self.inner;
        let offered = inner.offered_hi.borrow();
        let acked = inner.acked_hi.borrow();
        let tenants = offered
            .iter()
            .map(|&(tenant, off)| {
                let ack = lookup(&acked, tenant);
                // Sequence spaces are dense from 0: `hi` is a count − 1.
                let lag = (off + 1).saturating_sub(ack.map_or(0, |a| a + 1));
                ReplTenantStatus {
                    tenant,
                    offered_hi: Some(off),
                    acked_hi: ack,
                    lag,
                }
            })
            .collect();
        ReplicationReport {
            mode: inner.cfg.mode,
            halted: inner.halted.get(),
            frames_shipped: inner.frames_shipped.get(),
            retransmits: inner.retransmits.get(),
            acks_received: inner.acks_received.get(),
            frames_pending: (inner.pending.borrow().len() + inner.unacked.borrow().len()) as u64,
            tenants,
        }
    }

    /// The drain's tee: called with each retired batch as the contiguous
    /// durable prefix advances, in order, per tenant.
    pub(crate) fn offer(&self, tenant: u64, lo: u64, hi: u64, extents: &[Extent]) {
        let inner = &self.inner;
        upsert_max(&mut inner.offered_hi.borrow_mut(), tenant, hi);
        if inner.halted.get() {
            return;
        }
        let frame = ShipFrame {
            tenant,
            lo,
            hi,
            extents: extents.to_vec(),
        };
        inner.ctx.tracer().instant(
            inner.ctx.now(),
            Layer::Net,
            "ship_offer",
            Payload::Bytes {
                bytes: frame.wire_bytes(),
            },
        );
        inner.pending.borrow_mut().push_back(frame);
        inner.wake.notify_all();
    }

    /// Sync-mode gate: waits until the standby has acknowledged `seq` for
    /// `tenant`. Returns `false` if the shipper halted first — the caller
    /// must then fail the write rather than acknowledge it.
    pub(crate) async fn wait_replicated(&self, tenant: u64, seq: u64) -> bool {
        loop {
            if lookup(&self.inner.acked_hi.borrow(), tenant).is_some_and(|a| a >= seq) {
                return true;
            }
            if self.inner.halted.get() {
                return false;
            }
            self.inner.wake.notified().await;
        }
    }

    /// Spawns the send and ack loops in the instance's trusted cell.
    /// Called once by the builder; `audit` receives the replica-prefix
    /// sections.
    pub(crate) fn attach(&self, cell: &Cell, audit: Audit) {
        assert!(
            !self.inner.attached.replace(true),
            "a Replicator serves exactly one RapiLog instance"
        );
        *self.inner.audit.borrow_mut() = Some(audit);
        let inner = Rc::clone(&self.inner);
        let mut rng = inner.ctx.fork_rng();
        cell.spawn(async move {
            // Send loop: puts new frames on the wire eagerly; retransmits
            // every unacknowledged frame when the ack deadline lapses.
            let ctx = inner.ctx.clone();
            let mut attempt: u32 = 0;
            let mut last_epoch = inner.epoch.get();
            let mut deadline = ctx.now() + inner.cfg.ack_timeout;
            loop {
                if inner.halted.get() {
                    return;
                }
                loop {
                    let next = inner.pending.borrow_mut().pop_front();
                    let Some(frame) = next else { break };
                    inner.ship.send(frame.clone(), frame.wire_bytes());
                    inner.frames_shipped.set(inner.frames_shipped.get() + 1);
                    inner.unacked.borrow_mut().push_back(frame);
                }
                if inner.unacked.borrow().is_empty() {
                    attempt = 0;
                    inner.wake.notified().await;
                    deadline = ctx.now() + inner.cfg.ack_timeout;
                    continue;
                }
                if inner.epoch.get() != last_epoch {
                    last_epoch = inner.epoch.get();
                    attempt = 0;
                    deadline = ctx.now() + inner.cfg.ack_timeout;
                }
                let now = ctx.now();
                if now >= deadline {
                    let frames: Vec<ShipFrame> = inner.unacked.borrow().iter().cloned().collect();
                    for frame in frames {
                        inner.ship.send(frame.clone(), frame.wire_bytes());
                        inner.retransmits.set(inner.retransmits.get() + 1);
                    }
                    attempt = attempt.saturating_add(1);
                    let capped = attempt.min(inner.cfg.retry.max_retries.max(1));
                    deadline = now
                        + inner.cfg.ack_timeout
                        + backoff_delay(&inner.cfg.retry, capped, &mut rng);
                    continue;
                }
                ctx.timeout(deadline - now, inner.wake.notified()).await;
            }
        });
        let inner = Rc::clone(&self.inner);
        cell.spawn(async move {
            // Ack loop: advances the per-tenant replicated prefix and
            // releases acknowledged frames (and sync-mode waiters).
            loop {
                let Some(ack) = inner.acks.recv().await else {
                    return;
                };
                if inner.halted.get() {
                    return;
                }
                inner.acks_received.set(inner.acks_received.get() + 1);
                let advanced =
                    upsert_max(&mut inner.acked_hi.borrow_mut(), ack.tenant, ack.durable_hi);
                if advanced {
                    inner.epoch.set(inner.epoch.get() + 1);
                    if let Some(audit) = inner.audit.borrow().as_ref() {
                        audit.record_replicated(ack.tenant, ack.durable_hi);
                    }
                    inner
                        .unacked
                        .borrow_mut()
                        .retain(|f| f.tenant != ack.tenant || f.hi > ack.durable_hi);
                }
                inner.wake.notify_all();
            }
        });
    }
}

/// One tenant's application status in a [`StandbyReport`].
#[derive(Debug, Clone, Copy)]
pub struct StandbyTenantStatus {
    /// The tenant (`TenantId` raw value).
    pub tenant: u64,
    /// Highest sequence applied to the standby image (its durable prefix).
    pub applied_hi: Option<u64>,
}

/// Point-in-time view of the standby's apply loop.
#[derive(Debug, Clone)]
pub struct StandbyReport {
    /// True once [`Standby::promote`] ran.
    pub promoted: bool,
    /// True if an apply write failed: the replica image is suspect.
    pub wedged: bool,
    /// Frames applied (fully or partially, after de-duplication).
    pub frames_applied: u64,
    /// Frames ignored as pure duplicates (their range was already applied).
    pub duplicates_ignored: u64,
    /// Frames currently held waiting for the gap before them to fill.
    pub frames_held: u64,
    /// Frames refused because they arrived after promotion — the
    /// split-brain probe: a promoted standby neither applies nor
    /// acknowledges a zombie primary.
    pub refused_after_promotion: u64,
    /// Per-tenant applied prefixes.
    pub tenants: Vec<StandbyTenantStatus>,
}

impl StandbyReport {
    /// The status row for `tenant`, if it ever applied.
    pub fn tenant(&self, tenant: u64) -> Option<&StandbyTenantStatus> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

struct TenantApply {
    tenant: u64,
    /// Next sequence the image is waiting for (applied prefix is
    /// `..expected`).
    expected: u64,
    /// Frames that arrived ahead of the prefix, keyed by their `lo`.
    held: BTreeMap<u64, ShipFrame>,
}

struct StandbyInner {
    ctx: SimCtx,
    disk: Disk,
    acks: Link<ShipAck>,
    tenants: RefCell<Vec<TenantApply>>,
    promoted: StdCell<bool>,
    wedged: StdCell<bool>,
    frames_applied: StdCell<u64>,
    duplicates_ignored: StdCell<u64>,
    refused_after_promotion: StdCell<u64>,
}

impl StandbyInner {
    fn with_tenant<R>(&self, tenant: u64, f: impl FnOnce(&mut TenantApply) -> R) -> R {
        let mut tenants = self.tenants.borrow_mut();
        let idx = match tenants.iter().position(|t| t.tenant == tenant) {
            Some(i) => i,
            None => {
                tenants.push(TenantApply {
                    tenant,
                    expected: 0,
                    held: BTreeMap::new(),
                });
                tenants.len() - 1
            }
        };
        f(&mut tenants[idx])
    }

    /// Writes `frame`'s extents from sequence `from` onward to the image.
    async fn apply_extents(&self, frame: &ShipFrame, from: u64) -> Result<(), ()> {
        for e in &frame.extents {
            if e.seq < from {
                continue;
            }
            if self
                .disk
                .write_segments(e.sector, vec![e.data.clone()], true)
                .await
                .is_err()
            {
                self.wedged.set(true);
                return Err(());
            }
        }
        self.frames_applied.set(self.frames_applied.get() + 1);
        Ok(())
    }
}

/// The standby cell: applies shipped frames into its own disk image and
/// acknowledges its durable prefix; promotable after primary failure.
#[derive(Clone)]
pub struct Standby {
    inner: Rc<StandbyInner>,
}

impl Standby {
    /// Spawns the apply loop in `cell`, applying into `disk`, receiving
    /// frames from `ship` and acknowledging over `acks`.
    pub fn start(
        ctx: &SimCtx,
        cell: &Cell,
        disk: Disk,
        ship: Link<ShipFrame>,
        acks: Link<ShipAck>,
    ) -> Standby {
        let standby = Standby {
            inner: Rc::new(StandbyInner {
                ctx: ctx.clone(),
                disk,
                acks,
                tenants: RefCell::new(Vec::new()),
                promoted: StdCell::new(false),
                wedged: StdCell::new(false),
                frames_applied: StdCell::new(0),
                duplicates_ignored: StdCell::new(0),
                refused_after_promotion: StdCell::new(0),
            }),
        };
        let inner = Rc::clone(&standby.inner);
        cell.spawn(async move {
            loop {
                let Some(frame) = ship.recv().await else {
                    return;
                };
                if inner.promoted.get() {
                    inner
                        .refused_after_promotion
                        .set(inner.refused_after_promotion.get() + 1);
                    continue;
                }
                if inner.wedged.get() {
                    continue;
                }
                let tenant = frame.tenant;
                let expected = inner.with_tenant(tenant, |t| t.expected);
                if frame.hi < expected {
                    // Pure duplicate. Re-acknowledge: the original ack may
                    // have been lost, and an unacked duplicate would make
                    // the primary retransmit forever.
                    inner
                        .duplicates_ignored
                        .set(inner.duplicates_ignored.get() + 1);
                    inner.send_ack(tenant, expected - 1);
                    continue;
                }
                if frame.lo > expected {
                    // A gap: hold (bounded — the link's reorder window is
                    // bounded, and lost frames are retransmitted).
                    inner.with_tenant(tenant, |t| {
                        t.held.insert(frame.lo, frame);
                    });
                    continue;
                }
                // frame.lo <= expected <= frame.hi: apply the new suffix.
                if inner.apply_extents(&frame, expected).await.is_err() {
                    return;
                }
                let mut durable = frame.hi;
                inner.with_tenant(tenant, |t| t.expected = durable + 1);
                // Drain any held frames the prefix now reaches.
                loop {
                    let next = inner.with_tenant(tenant, |t| {
                        let lo = t.held.keys().next().copied()?;
                        if lo <= t.expected {
                            t.held.remove(&lo)
                        } else {
                            None
                        }
                    });
                    let Some(held) = next else { break };
                    let expected = inner.with_tenant(tenant, |t| t.expected);
                    if held.hi < expected {
                        inner
                            .duplicates_ignored
                            .set(inner.duplicates_ignored.get() + 1);
                        continue;
                    }
                    if inner.apply_extents(&held, expected).await.is_err() {
                        return;
                    }
                    durable = held.hi;
                    inner.with_tenant(tenant, |t| t.expected = durable + 1);
                }
                inner.send_ack(tenant, durable);
            }
        });
        standby
    }

    /// The replica image.
    pub fn disk(&self) -> Disk {
        self.inner.disk.clone()
    }

    /// The applied (durable) prefix for `tenant`, if anything applied.
    pub fn applied_hi(&self, tenant: u64) -> Option<u64> {
        self.inner
            .tenants
            .borrow()
            .iter()
            .find_map(|t| (t.tenant == tenant && t.expected > 0).then_some(t.expected - 1))
    }

    /// True once promoted.
    pub fn is_promoted(&self) -> bool {
        self.inner.promoted.get()
    }

    /// Promotes the standby: it stops applying and stops acknowledging —
    /// frames from a zombie primary are refused and counted. Returns the
    /// report at the instant of promotion.
    pub fn promote(&self) -> StandbyReport {
        self.inner.promoted.set(true);
        self.inner.ctx.tracer().instant(
            self.inner.ctx.now(),
            Layer::Net,
            "standby_promote",
            Payload::None,
        );
        self.report()
    }

    /// Point-in-time application status.
    pub fn report(&self) -> StandbyReport {
        let inner = &self.inner;
        let tenants_st = inner.tenants.borrow();
        StandbyReport {
            promoted: inner.promoted.get(),
            wedged: inner.wedged.get(),
            frames_applied: inner.frames_applied.get(),
            duplicates_ignored: inner.duplicates_ignored.get(),
            frames_held: tenants_st.iter().map(|t| t.held.len() as u64).sum(),
            refused_after_promotion: inner.refused_after_promotion.get(),
            tenants: tenants_st
                .iter()
                .map(|t| StandbyTenantStatus {
                    tenant: t.tenant,
                    applied_hi: (t.expected > 0).then(|| t.expected - 1),
                })
                .collect(),
        }
    }
}

impl StandbyInner {
    fn send_ack(&self, tenant: u64, durable_hi: u64) {
        self.acks.send(ShipAck { tenant, durable_hi }, 16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CapacitySpec, RapiLog};
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimTime};
    use rapilog_simdisk::{specs, BlockDeviceExt, SECTOR_SIZE};
    use rapilog_simnet::{LinkFaults, LinkSpec};
    use std::cell::Cell as StdCell;

    struct Fixture {
        rl: RapiLog,
        repl: Replicator,
        standby: Standby,
        primary_disk: Disk,
        standby_disk: Disk,
        ship: Link<ShipFrame>,
    }

    fn fixture(sim: &mut Sim, cfg: ReplicationConfig, faults: LinkFaults) -> Fixture {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let pcell = hv.create_cell("primary", Trust::Trusted);
        let scell = hv.create_cell("standby", Trust::Trusted);
        let primary_disk = Disk::new(&ctx, specs::instant(1 << 24));
        let standby_disk = Disk::new(&ctx, specs::instant(1 << 24));
        let ship = Link::new(&ctx, LinkSpec::lan("ship").with_faults(faults.clone()));
        let acks = Link::new(&ctx, LinkSpec::lan("acks").with_faults(faults));
        let repl = Replicator::new(&ctx, cfg, ship.clone(), acks.clone());
        let standby = Standby::start(&ctx, &scell, standby_disk.clone(), ship.clone(), acks);
        let rl = RapiLog::builder(&ctx)
            .cell(&pcell)
            .disk(primary_disk.clone())
            .capacity(CapacitySpec::Fixed(16 << 20))
            .replicate(&repl)
            .build();
        std::mem::forget(pcell);
        std::mem::forget(scell);
        Fixture {
            rl,
            repl,
            standby,
            primary_disk,
            standby_disk,
            ship,
        }
    }

    fn assert_images_match(f: &Fixture, sectors: u64) {
        let mut p = vec![0u8; SECTOR_SIZE];
        let mut s = vec![0u8; SECTOR_SIZE];
        for sec in 0..sectors {
            f.primary_disk.peek_media(sec, &mut p);
            f.standby_disk.peek_media(sec, &mut s);
            assert_eq!(p, s, "replica diverged at sector {sec}");
        }
    }

    #[test]
    fn sync_mode_acks_only_after_the_standby_is_durable() {
        let mut sim = Sim::new(41);
        let ctx = sim.ctx();
        let f = fixture(&mut sim, ReplicationConfig::sync(), LinkFaults::default());
        let dev = f.rl.device();
        let min_ack_ns = Rc::new(StdCell::new(u64::MAX));
        let m2 = Rc::clone(&min_ack_ns);
        sim.spawn(async move {
            for i in 0..32u64 {
                let t0 = ctx.now();
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                m2.set(m2.get().min((ctx.now() - t0).as_nanos()));
            }
        });
        sim.run_until(SimTime::from_secs(2));
        // A sync ack includes a network round trip: it can never be the
        // microsecond-class buffer ack.
        assert!(
            min_ack_ns.get() >= 100_000,
            "sync acks paid the round trip (min {} ns)",
            min_ack_ns.get()
        );
        assert!(f.repl.settled(), "everything acknowledged by the standby");
        assert_eq!(f.standby.applied_hi(0), Some(31));
        assert_images_match(&f, 32);
        let report = f.rl.audit_report();
        assert!(report.guarantee_held());
        assert_eq!(report.tenant(0).unwrap().replicated_seq, Some(31));
        let repl_report = f.rl.replication_report().expect("shipping enabled");
        assert_eq!(repl_report.total_lag(), 0);
        assert!(!repl_report.halted);
    }

    #[test]
    fn async_mode_keeps_buffer_speed_acks_and_converges() {
        let mut sim = Sim::new(42);
        let ctx = sim.ctx();
        let f = fixture(
            &mut sim,
            ReplicationConfig::asynchronous(),
            LinkFaults::default(),
        );
        let dev = f.rl.device();
        let max_ack_ns = Rc::new(StdCell::new(0u64));
        let m2 = Rc::clone(&max_ack_ns);
        sim.spawn(async move {
            for i in 0..64u64 {
                let t0 = ctx.now();
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                m2.set(m2.get().max((ctx.now() - t0).as_nanos()));
            }
        });
        sim.run_until(SimTime::from_secs(2));
        assert!(
            max_ack_ns.get() < 100_000,
            "async acks stay buffer-speed (max {} ns)",
            max_ack_ns.get()
        );
        assert!(f.repl.settled(), "the replica caught up");
        assert_eq!(f.standby.applied_hi(0), Some(63));
        assert_images_match(&f, 64);
        assert_eq!(f.rl.replication_report().unwrap().total_lag(), 0);
    }

    #[test]
    fn lossy_link_converges_through_retransmission() {
        let mut sim = Sim::new(43);
        let ctx = sim.ctx();
        // Aggressive chaos on both directions: drops, duplicates and
        // bounded reorder. End-to-end retransmission must still converge.
        let f = fixture(
            &mut sim,
            ReplicationConfig::asynchronous(),
            LinkFaults::chaos(7, 0.2, 0.1, 0.3),
        );
        let dev = f.rl.device();
        sim.spawn(async move {
            for i in 0..100u64 {
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                ctx.sleep(SimDuration::from_micros(200)).await;
            }
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(f.repl.settled(), "chaos link still converged");
        assert_eq!(f.standby.applied_hi(0), Some(99));
        assert_images_match(&f, 100);
        let report = f.repl.report();
        assert!(
            report.retransmits > 0,
            "drops forced retransmission (the test would be vacuous otherwise)"
        );
        assert!(!f.standby.report().wedged);
        assert_eq!(report.total_lag(), 0);
    }

    #[test]
    fn promoted_standby_refuses_a_zombie_primary() {
        let mut sim = Sim::new(44);
        let f = fixture(
            &mut sim,
            ReplicationConfig::asynchronous(),
            LinkFaults::default(),
        );
        let dev = f.rl.device();
        let promoted_hi = Rc::new(StdCell::new(None));
        let p2 = Rc::clone(&promoted_hi);
        let standby = f.standby.clone();
        let repl = f.repl.clone();
        sim.spawn(async move {
            for i in 0..16u64 {
                dev.write(i, &vec![1u8; SECTOR_SIZE], true).await.unwrap();
            }
            repl.wait_settled().await;
            // Failover: the standby is promoted while the primary (a
            // zombie from the cluster's point of view) keeps writing.
            let report = standby.promote();
            p2.set(report.tenant(0).and_then(|t| t.applied_hi));
            for i in 16..24u64 {
                dev.write(i, &vec![2u8; SECTOR_SIZE], true).await.unwrap();
            }
        });
        sim.run_until(SimTime::from_secs(2));
        let report = f.standby.report();
        assert_eq!(promoted_hi.get(), Some(15));
        assert!(
            report.refused_after_promotion > 0,
            "zombie frames were refused, not applied"
        );
        // The stale-ack probe: the applied prefix froze at promotion and
        // the primary never saw an ack beyond it.
        assert_eq!(f.standby.applied_hi(0), Some(15));
        let prim = f.repl.report();
        assert!(prim.tenant(0).unwrap().acked_hi <= Some(15));
        // The zombie's post-promotion sectors never reached the replica.
        let mut s = vec![0u8; SECTOR_SIZE];
        f.standby_disk.peek_media(20, &mut s);
        assert_eq!(
            s,
            vec![0u8; SECTOR_SIZE],
            "zombie write absent from replica"
        );
    }

    #[test]
    fn halt_releases_sync_waiters_with_an_error() {
        let mut sim = Sim::new(45);
        let ctx = sim.ctx();
        let f = fixture(&mut sim, ReplicationConfig::sync(), LinkFaults::default());
        // Partition the ship link so no frame ever reaches the standby,
        // then halt mid-wait: the blocked writer must fail, not hang.
        f.ship.partition(true);
        let dev = f.rl.device();
        let outcome = Rc::new(StdCell::new(None));
        let o2 = Rc::clone(&outcome);
        sim.spawn(async move {
            let r = dev.write(0, &vec![9u8; SECTOR_SIZE], true).await;
            o2.set(Some(r.is_err()));
        });
        let repl = f.repl.clone();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            repl.halt();
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(outcome.get(), Some(true), "halt failed the blocked write");
        assert!(f.repl.is_halted());
    }
}
