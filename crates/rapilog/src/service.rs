//! The log service: RapiLog's badged-IPC front door for guest cells.
//!
//! In the paper's deployment the dependable buffer lives in a trusted cell
//! and guests reach it through seL4 endpoints. [`LogService`] models that
//! boundary: it owns one [`Endpoint`] inside the trusted cell and mints one
//! send-only capability per tenant, **badged with the tenant's id**. The
//! badge is unforgeable within the model, so the service routes every
//! submission to the caller's own buffer shard without trusting a single
//! byte of the message — a guest cannot name another tenant's shard, which
//! is the cross-tenant isolation argument at the IPC layer.
//!
//! Wire format of a submission (a `call`, so the guest blocks for the
//! early ack exactly as it would for a synchronous log write):
//!
//! ```text
//! [sector: u64 little-endian] [payload: N × SECTOR_SIZE bytes]
//! ```
//!
//! The reply is one status byte: [`STATUS_OK`], [`STATUS_UNKNOWN_TENANT`],
//! [`STATUS_MALFORMED`] or [`STATUS_WRITE_ERROR`].

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_microvisor::cell::Cell;
use rapilog_microvisor::ipc::{CapRights, Endpoint, EndpointCap};
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{BlockDeviceExt, SECTOR_SIZE};

use crate::audit::Audit;
use crate::drain::backoff_delay;
use crate::shard::TenantId;
use crate::{RapiLog, RetryPolicy};

/// Submission accepted: the payload is in the tenant's dependable buffer
/// (or on media, in write-through / degraded mode).
pub const STATUS_OK: u8 = 0;
/// The capability's badge names no tenant of this instance.
pub const STATUS_UNKNOWN_TENANT: u8 = 1;
/// The message was shorter than a header plus one sector, or the payload
/// was not a whole number of sectors.
pub const STATUS_MALFORMED: u8 = 2;
/// The device rejected the write (frozen after a power episode, or a
/// fatal drain error).
pub const STATUS_WRITE_ERROR: u8 = 3;

/// Badged-IPC front end routing guest submissions to their buffer shard.
///
/// Obtained from [`LogService::start`]; hand each tenant cell the
/// capability from [`cap_for`](LogService::cap_for) and nothing else.
#[derive(Clone)]
pub struct LogService {
    ep: Rc<Endpoint>,
    tenants: Vec<TenantId>,
    audit: Audit,
}

impl LogService {
    /// Spawns the service loop in `cell` (the trusted cell that owns
    /// `rapilog`) and returns the handle used to mint tenant capabilities.
    ///
    /// Each request is served in its own task, so one tenant blocking on
    /// its shard's backpressure never stalls another tenant's submissions.
    pub fn start(ctx: &SimCtx, cell: &Cell, rapilog: RapiLog) -> LogService {
        let ep = Rc::new(Endpoint::new());
        let service = LogService {
            ep: Rc::clone(&ep),
            tenants: rapilog.tenant_ids(),
            audit: rapilog.audit.clone(),
        };
        let loop_ctx = ctx.clone();
        cell.spawn(async move {
            while let Some(msg) = ep.recv().await {
                let rl = rapilog.clone();
                loop_ctx.spawn(async move {
                    let status = handle(&rl, msg.badge, &msg.bytes).await;
                    if let Some(reply) = msg.reply {
                        reply.send(vec![status]);
                    }
                });
            }
        });
        service
    }

    /// Mints the send-only capability for `tenant`, badged with its id.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` does not share this instance — minting a cap for
    /// a tenant with no shard would manufacture requests that can only be
    /// refused.
    pub fn cap_for(&self, tenant: TenantId) -> EndpointCap {
        assert!(self.tenants.contains(&tenant), "no such tenant: {tenant}");
        self.ep.mint(tenant.badge(), CapRights::SEND)
    }

    /// The tenants this service routes for, in shard order.
    pub fn tenant_ids(&self) -> &[TenantId] {
        &self.tenants
    }

    /// Builds a guest-side client for `tenant` with a bounded per-request
    /// `timeout` and retry policy — the graceful-degradation wrapper around
    /// the raw capability: a stalled IPC ring costs a bounded wait, never a
    /// hung session. See [`LogClient`].
    pub fn client(
        &self,
        ctx: &SimCtx,
        tenant: TenantId,
        timeout: SimDuration,
        policy: RetryPolicy,
    ) -> LogClient {
        LogClient {
            ctx: ctx.clone(),
            cap: self.cap_for(tenant),
            audit: self.audit.clone(),
            timeout,
            policy,
            rng: RefCell::new(ctx.fork_rng()),
        }
    }
}

/// Why a [`LogClient::submit`] gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Every attempt's deadline lapsed without a reply: the service is
    /// stalled (wedged trusted cell, dead ring). `attempts` is the total
    /// number of requests sent.
    TimedOut {
        /// Requests sent before giving up (1 + retries).
        attempts: u32,
    },
    /// The service answered with a non-OK status byte.
    Refused(u8),
    /// The endpoint is gone — the trusted cell was torn down.
    ServerGone,
}

/// A guest-side submission handle with a bounded request timeout and
/// capped exponential backoff (reusing [`RetryPolicy`]).
///
/// The raw [`EndpointCap::call`] blocks until the server replies — honest
/// IPC semantics, but a wedged trusted cell would hang the guest session
/// forever. The client bounds each attempt with the session timeout and
/// retries with backoff up to the policy's budget, so a stalled ring
/// degrades into a bounded, observable error instead of a hang. Timeouts
/// and retries are counted in the instance's audit report
/// (`service_timeouts` / `service_retries`), visible in every snapshot.
///
/// A retry may duplicate a request whose first attempt was actually
/// served (the reply raced the deadline): submissions are at-least-once.
/// That is safe here because a log submission is idempotent — rewriting
/// the same payload to the same sector is a no-op on media state.
pub struct LogClient {
    ctx: SimCtx,
    cap: EndpointCap,
    audit: Audit,
    timeout: SimDuration,
    policy: RetryPolicy,
    rng: RefCell<SimRng>,
}

impl LogClient {
    /// Submits one log write, waiting at most `timeout` per attempt and
    /// retrying per the policy.
    pub async fn submit(&self, sector: u64, payload: &[u8]) -> Result<(), SubmitError> {
        let msg = encode_submission(sector, payload);
        let mut attempt: u32 = 0;
        loop {
            match self
                .ctx
                .timeout(self.timeout, self.cap.call(msg.clone()))
                .await
            {
                Some(Ok(reply)) => {
                    return match reply.first().copied() {
                        Some(STATUS_OK) => Ok(()),
                        Some(status) => Err(SubmitError::Refused(status)),
                        None => Err(SubmitError::Refused(STATUS_MALFORMED)),
                    };
                }
                Some(Err(_)) => return Err(SubmitError::ServerGone),
                None => {
                    self.audit.record_service_timeout();
                    if !self.policy.enabled || attempt >= self.policy.max_retries {
                        return Err(SubmitError::TimedOut {
                            attempts: attempt + 1,
                        });
                    }
                    self.audit.record_service_retry();
                    let delay = backoff_delay(&self.policy, attempt, &mut self.rng.borrow_mut());
                    self.ctx.sleep(delay).await;
                    attempt += 1;
                }
            }
        }
    }
}

/// Encodes a submission in the service's wire format.
pub fn encode_submission(sector: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(8 + payload.len());
    bytes.extend_from_slice(&sector.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

async fn handle(rl: &RapiLog, badge: u64, bytes: &[u8]) -> u8 {
    let Some(device) = rl.device_for(TenantId::from_badge(badge)) else {
        return STATUS_UNKNOWN_TENANT;
    };
    if bytes.len() < 8 + SECTOR_SIZE || !(bytes.len() - 8).is_multiple_of(SECTOR_SIZE) {
        return STATUS_MALFORMED;
    }
    let sector = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    match device.write(sector, &bytes[8..], true).await {
        Ok(()) => STATUS_OK,
        Err(_) => STATUS_WRITE_ERROR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::CapacitySpec;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;

    #[test]
    fn badges_route_to_shards_and_bad_requests_are_refused() {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::ssd_sata(1 << 30));
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(8 << 20))
            .tenants(&[TenantSpec::new(1), TenantSpec::new(2)])
            .build();
        let svc = LogService::start(&ctx, &cell, rl.clone());
        let t1 = svc.cap_for(TenantId(1));
        let t2 = svc.cap_for(TenantId(2));
        // A cap whose badge names no tenant: mint directly off the
        // endpoint via a grant-capable cap to simulate a stale badge.
        let done = std::rc::Rc::new(StdCell::new(false));
        let d2 = std::rc::Rc::clone(&done);
        sim.spawn(async move {
            let payload = vec![0xABu8; SECTOR_SIZE];
            let r = t1.call(encode_submission(64, &payload)).await.unwrap();
            assert_eq!(r, vec![STATUS_OK]);
            let r = t2.call(encode_submission(128, &payload)).await.unwrap();
            assert_eq!(r, vec![STATUS_OK]);
            // Truncated header → malformed.
            let r = t1.call(vec![1, 2, 3]).await.unwrap();
            assert_eq!(r, vec![STATUS_MALFORMED]);
            // Ragged payload → malformed.
            let r = t1.call(encode_submission(64, &[0u8; 100])).await.unwrap();
            assert_eq!(r, vec![STATUS_MALFORMED]);
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(2));
        assert!(done.get());
        let snap = rl.snapshot();
        assert_eq!(snap.buffer.accepted_writes, 2);
        let per_tenant: Vec<u64> = snap
            .tenants
            .iter()
            .map(|t| t.buffer.accepted_writes)
            .collect();
        assert_eq!(per_tenant, vec![1, 1], "one write landed in each shard");
        std::mem::forget(cell);
    }

    #[test]
    fn unknown_badge_is_refused_not_routed() {
        let mut sim = Sim::new(12);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::ssd_sata(1 << 30));
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(8 << 20))
            .tenants(&[TenantSpec::new(1), TenantSpec::new(2)])
            .build();
        let svc = LogService::start(&ctx, &cell, rl.clone());
        // A grant-capable cap lets a (hypothetical) management cell mint a
        // badge for a tenant that was never configured.
        let full = svc.ep.mint(1, CapRights::FULL);
        let stale = full.mint(99, CapRights::SEND).unwrap();
        let done = std::rc::Rc::new(StdCell::new(false));
        let d2 = std::rc::Rc::clone(&done);
        sim.spawn(async move {
            let payload = vec![0u8; SECTOR_SIZE];
            let r = stale.call(encode_submission(0, &payload)).await.unwrap();
            assert_eq!(r, vec![STATUS_UNKNOWN_TENANT]);
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        assert!(done.get());
        assert_eq!(rl.stats().accepted_writes, 0);
        std::mem::forget(cell);
    }

    fn quick_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(2),
            jitter: SimDuration::ZERO,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn client_bounds_a_stalled_service_and_counts_timeouts() {
        let mut sim = Sim::new(31);
        let ctx = sim.ctx();
        let audit = Audit::new(&ctx, None);
        // A wedged service: it accepts every request and keeps the reply
        // channel alive but never answers — the raw cap.call would hang
        // this session forever.
        let ep = Rc::new(Endpoint::new());
        let held = Rc::new(RefCell::new(Vec::new()));
        {
            let ep = Rc::clone(&ep);
            let held = Rc::clone(&held);
            sim.spawn(async move {
                while let Some(msg) = ep.recv().await {
                    held.borrow_mut().push(msg.reply);
                }
            });
        }
        let client = LogClient {
            ctx: ctx.clone(),
            cap: ep.mint(1, CapRights::SEND),
            audit: audit.clone(),
            timeout: SimDuration::from_micros(500),
            policy: quick_policy(2),
            rng: RefCell::new(ctx.fork_rng()),
        };
        let outcome = Rc::new(StdCell::new(None));
        let o2 = Rc::clone(&outcome);
        sim.spawn(async move {
            let r = client.submit(0, &vec![7u8; SECTOR_SIZE]).await;
            o2.set(Some(r));
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        assert_eq!(
            outcome.get(),
            Some(Err(SubmitError::TimedOut { attempts: 3 })),
            "one initial attempt plus two retries, then a bounded error"
        );
        let report = audit.report();
        assert_eq!(report.service_timeouts, 3, "every lapsed deadline counted");
        assert_eq!(report.service_retries, 2);
    }

    #[test]
    fn client_recovers_when_the_service_unstalls_mid_retry() {
        let mut sim = Sim::new(32);
        let ctx = sim.ctx();
        let audit = Audit::new(&ctx, None);
        // The service swallows the first two requests, then serves.
        let ep = Rc::new(Endpoint::new());
        let held = Rc::new(RefCell::new(Vec::new()));
        {
            let ep = Rc::clone(&ep);
            let held = Rc::clone(&held);
            sim.spawn(async move {
                let mut seen = 0u32;
                while let Some(msg) = ep.recv().await {
                    seen += 1;
                    if seen <= 2 {
                        held.borrow_mut().push(msg.reply);
                    } else if let Some(reply) = msg.reply {
                        reply.send(vec![STATUS_OK]);
                    }
                }
            });
        }
        let client = LogClient {
            ctx: ctx.clone(),
            cap: ep.mint(1, CapRights::SEND),
            audit: audit.clone(),
            timeout: SimDuration::from_micros(500),
            policy: quick_policy(8),
            rng: RefCell::new(ctx.fork_rng()),
        };
        let outcome = Rc::new(StdCell::new(None));
        let o2 = Rc::clone(&outcome);
        sim.spawn(async move {
            let r = client.submit(0, &vec![7u8; SECTOR_SIZE]).await;
            o2.set(Some(r));
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        assert_eq!(outcome.get(), Some(Ok(())));
        let report = audit.report();
        assert_eq!(report.service_retries, 2, "two resubmissions recovered");
        assert_eq!(report.service_timeouts, 2);
    }

    #[test]
    fn client_counters_surface_in_the_instance_snapshot() {
        let mut sim = Sim::new(33);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::ssd_sata(1 << 30));
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(8 << 20))
            .build();
        let svc = LogService::start(&ctx, &cell, rl.clone());
        let client = svc.client(
            &ctx,
            TenantId::DEFAULT,
            SimDuration::from_millis(5),
            quick_policy(2),
        );
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            // A healthy service answers well inside the deadline.
            client.submit(0, &vec![1u8; SECTOR_SIZE]).await.unwrap();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        assert!(done.get());
        let snap = rl.snapshot();
        assert_eq!(snap.audit.service_timeouts, 0);
        assert_eq!(snap.audit.service_retries, 0);
        assert_eq!(snap.buffer.accepted_writes, 1);
        std::mem::forget(cell);
    }

    #[test]
    #[should_panic(expected = "no such tenant")]
    fn cap_for_unknown_tenant_panics() {
        let sim = Sim::new(13);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::ssd_sata(1 << 30));
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(8 << 20))
            .build();
        let svc = LogService::start(&ctx, &cell, rl);
        std::mem::forget(cell);
        let _ = svc.cap_for(TenantId(7));
    }
}
