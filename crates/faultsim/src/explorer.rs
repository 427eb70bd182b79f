//! Crash-point exploration: seeds × fault instants × fault kinds.
//!
//! The explorer is the suite's answer to "did we only test the crash
//! points we thought of?". It sweeps a grid of independent deterministic
//! trials — every combination of RNG seed, fault-injection instant and
//! [`FaultKind`] — and audits each one for lost acknowledged commits. A
//! clean sweep is evidence; a violation is a **counterexample** that
//! replays exactly from its `(seed, kind, fault_after)` coordinates,
//! because every trial is a closed deterministic simulation.
//!
//! The negative control matters as much as the sweep: run the same grid
//! with [`RetryPolicy::enabled`] switched off (a deliberately broken
//! drain) and the explorer *must* find counterexamples — see
//! [`ExplorerConfig::broken_drain`]. An explorer that cannot find a
//! planted bug proves nothing when it finds none.

use rapilog::{DrainConfig, OrderingMode, RapiLogConfig, RetryPolicy};
use rapilog_dbengine::DbConfig;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::SimDuration;
use rapilog_simdisk::{specs, FaultProfile};
use rapilog_simpower::{supplies, SupplySpec};

use crate::machine::{MachineConfig, Setup};
use crate::scenario::{run_trial, FaultKind, FaultStats, TrialConfig, TrialResult};

/// The grid of crash points to explore, plus the machine shape every trial
/// shares.
#[derive(Clone)]
pub struct ExplorerConfig {
    /// The configuration under test.
    pub setup: Setup,
    /// RNG seeds: each seed is an independent world (client interleaving,
    /// fault schedules, backoff jitter).
    pub seeds: Vec<u64>,
    /// Fault-injection instants, in milliseconds of load.
    pub fault_times_ms: Vec<u64>,
    /// The fault kinds to inject at each point.
    pub kinds: Vec<FaultKind>,
    /// Audited clients per trial.
    pub clients: usize,
    /// Mean think time between a client's transactions.
    pub think_time: SimDuration,
    /// Background media-fault profile for the log disk (seeded per trial
    /// from the trial seed), on top of whatever the kind injects.
    pub log_fault: Option<FaultProfile>,
    /// The drain's resilience policy.
    pub retry: RetryPolicy,
    /// The drain's completion-ordering discipline. `Strict` replays the
    /// classic serial drain; `PartiallyConstrained` exercises the windowed
    /// out-of-order engine under the same fault grid.
    pub ordering: OrderingMode,
    /// Power supply model (power kinds need the residual window).
    pub supply: SupplySpec,
    /// Tenants sharing the RapiLog instance per trial. `1` is the classic
    /// single-tenant machine; `n > 1` adds `n − 1` co-tenant writer cells
    /// whose shards the media audit checks for per-tenant durability and
    /// cross-tenant isolation.
    pub tenants: usize,
    /// The database's automatic checkpoint period. The 5 s default never
    /// fires inside a sub-second trial; a shorter one puts checkpoints,
    /// and the log discards that follow them, before the crash.
    pub checkpoint_interval: SimDuration,
}

impl ExplorerConfig {
    /// The default RapiLog sweep: all five fault kinds, a light background
    /// transient rate on the log disk, and the stock retry policy.
    pub fn rapilog_default() -> ExplorerConfig {
        ExplorerConfig {
            setup: Setup::RapiLog,
            seeds: (0..4).map(|i| 0x5EED + i * 101).collect(),
            fault_times_ms: vec![120, 260, 420],
            kinds: FaultKind::all(),
            clients: 3,
            think_time: SimDuration::from_micros(300),
            log_fault: Some(FaultProfile::transient(0, 0.02)),
            retry: RetryPolicy::default(),
            ordering: OrderingMode::Strict,
            supply: supplies::atx_psu(),
            tenants: 1,
            checkpoint_interval: DbConfig::default().checkpoint_interval,
        }
    }

    /// The multi-tenant sweep: four equal-weight tenants on one instance,
    /// the windowed out-of-order drain, and the full fault-kind set. Every
    /// trial audits the per-tenant durability invariant (no tenant loses
    /// acknowledged bytes) and shard isolation (no tenant's sectors carry
    /// another tenant's data) across the whole crash-point grid.
    pub fn multi_tenant() -> ExplorerConfig {
        ExplorerConfig {
            tenants: 4,
            ordering: OrderingMode::PartiallyConstrained,
            ..ExplorerConfig::rapilog_default()
        }
    }

    /// The negative control: the same machine with the drain's resilience
    /// switched off. The sweep over media-fault kinds must produce
    /// counterexamples, proving the auditor can see real loss.
    pub fn broken_drain() -> ExplorerConfig {
        ExplorerConfig {
            retry: RetryPolicy {
                enabled: false,
                ..RetryPolicy::default()
            },
            kinds: vec![FaultKind::DiskErrorBurst {
                burst: SimDuration::from_millis(40),
                slack: SimDuration::from_millis(60),
            }],
            ..ExplorerConfig::rapilog_default()
        }
    }

    /// The full grid in canonical order: seed-outer, fault-instant-middle,
    /// kind-inner — exactly the order [`explore_crash_points`] visits, so a
    /// parallel runner that merges per-point results by grid index produces
    /// a report bit-identical to the sequential sweep.
    pub fn grid(&self) -> Vec<(u64, FaultKind, SimDuration)> {
        let mut points =
            Vec::with_capacity(self.seeds.len() * self.fault_times_ms.len() * self.kinds.len());
        for &seed in &self.seeds {
            for &ms in &self.fault_times_ms {
                for &kind in &self.kinds {
                    points.push((seed, kind, SimDuration::from_millis(ms)));
                }
            }
        }
        points
    }

    /// The [`TrialConfig`] for one grid point.
    pub fn trial(&self, seed: u64, kind: FaultKind, fault_after: SimDuration) -> TrialConfig {
        let mut log_spec = specs::hdd_7200(128 << 20);
        if let Some(profile) = self.log_fault.clone() {
            // Re-seed the media-fault schedule from the trial seed so every
            // grid point sees an independent (but replayable) schedule.
            log_spec = log_spec.with_faults(FaultProfile {
                seed: seed ^ 0xFA07,
                ..profile
            });
        }
        let mut machine = MachineConfig::new(self.setup, specs::instant(256 << 20), log_spec);
        machine.supply = Some(self.supply.clone());
        machine.tenants = self.tenants;
        machine.db.checkpoint_interval = self.checkpoint_interval;
        machine.rapilog = RapiLogConfig {
            drain: DrainConfig::new()
                .retry(self.retry)
                .max_batch(machine.rapilog.drain.max_batch)
                .window_depth(machine.rapilog.drain.window_depth)
                .ordering(self.ordering),
            ..machine.rapilog
        };
        TrialConfig {
            machine,
            fault: kind,
            clients: self.clients,
            fault_after,
            think_time: self.think_time,
        }
    }
}

impl FaultKind {
    /// One representative of every fault kind, with sub-second parameters
    /// that fit the explorer's trial horizon.
    pub fn all() -> Vec<FaultKind> {
        vec![
            FaultKind::GuestCrash,
            FaultKind::PowerCut,
            FaultKind::DiskErrorBurst {
                burst: SimDuration::from_millis(40),
                slack: SimDuration::from_millis(60),
            },
            FaultKind::SickLogDisk {
                lead: SimDuration::from_millis(30),
            },
            FaultKind::PowerFlicker {
                flicker: SimDuration::from_millis(100),
            },
        ]
    }
}

/// One grid point whose trial violated an invariant. Its coordinates replay
/// the failure exactly.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The trial's RNG seed.
    pub seed: u64,
    /// The injected fault.
    pub kind: FaultKind,
    /// When it was injected.
    pub fault_after: SimDuration,
    /// The machine configuration under test.
    pub setup: Setup,
    /// What the audit found.
    pub violations: Vec<String>,
}

impl Counterexample {
    /// A one-line replay recipe for reports and panic messages.
    pub fn replay_line(&self) -> String {
        format!(
            "replay: seed={} kind={} fault_after={}ms setup={} ({} violations: {})",
            self.seed,
            self.kind.label(),
            self.fault_after.as_millis(),
            self.setup.label(),
            self.violations.len(),
            self.violations.join("; "),
        )
    }
}

/// What a sweep found.
#[derive(Debug, Clone, Default)]
pub struct ExplorationReport {
    /// Trials executed.
    pub trials: u64,
    /// Acknowledged commits audited, summed over trials.
    pub total_acked: u64,
    /// Grid points that violated an invariant.
    pub counterexamples: Vec<Counterexample>,
    /// Fault-handling activity summed over every trial.
    pub stats: FaultStats,
    /// Client commit latency (µs) merged over every trial's pre-fault load;
    /// `percentile(99.0)` / `percentile(99.9)` feed the sweep tables.
    pub commit_latency: Histogram,
    /// Co-tenant writer acknowledgements audited, summed over trials (0 on
    /// single-tenant sweeps).
    pub tenant_acked: u64,
}

impl ExplorationReport {
    /// True iff no trial violated any invariant.
    pub fn clean(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Folds one trial's outcome into the report. Public so external
    /// runners (e.g. a thread-parallel sweep) can rebuild the exact
    /// sequential report by absorbing per-point results in grid order.
    pub fn absorb(&mut self, point: &Counterexample, r: &TrialResult) {
        self.trials += 1;
        self.total_acked += r.total_acked;
        let s = &r.fault_stats;
        self.stats.transient_errors += s.transient_errors;
        self.stats.media_errors += s.media_errors;
        self.stats.stalls += s.stalls;
        self.stats.corrupt_sectors += s.corrupt_sectors;
        self.stats.rejected_offline += s.rejected_offline;
        self.stats.drain_retries += s.drain_retries;
        self.stats.sector_remaps += s.sector_remaps;
        self.stats.degraded_entries += s.degraded_entries;
        self.stats.degraded_exits += s.degraded_exits;
        self.commit_latency.merge(&r.commit_latency);
        self.tenant_acked += r
            .tenant_journals
            .iter()
            .map(|t| t.acked_writes)
            .sum::<u64>();
        if !r.ok {
            let mut ce = point.clone();
            ce.violations = r.violations.clone();
            self.counterexamples.push(ce);
        }
    }
}

/// Runs the full grid: every seed × fault instant × fault kind, one
/// deterministic trial each, and collects the verdicts.
pub fn explore_crash_points(cfg: &ExplorerConfig) -> ExplorationReport {
    let mut report = ExplorationReport::default();
    for (seed, kind, fault_after) in cfg.grid() {
        let r = run_trial(seed, cfg.trial(seed, kind, fault_after));
        let point = Counterexample {
            seed,
            kind,
            fault_after,
            setup: cfg.setup,
            violations: Vec::new(),
        };
        report.absorb(&point, &r);
    }
    report
}

/// Replays a single grid point — the counterexample workflow: paste the
/// coordinates from [`Counterexample::replay_line`] and get the identical
/// trial back, violations and all.
pub fn replay_crash_point(
    cfg: &ExplorerConfig,
    seed: u64,
    kind: FaultKind,
    fault_after: SimDuration,
) -> TrialResult {
    run_trial(seed, cfg.trial(seed, kind, fault_after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilient_drain_survives_a_small_grid() {
        let mut cfg = ExplorerConfig::rapilog_default();
        cfg.seeds = vec![0x5EED, 0x5EED + 101];
        cfg.fault_times_ms = vec![150, 350];
        let report = explore_crash_points(&cfg);
        assert_eq!(report.trials, 2 * 2 * 5);
        assert!(
            report.clean(),
            "counterexamples: {:?}",
            report
                .counterexamples
                .iter()
                .map(|c| c.replay_line())
                .collect::<Vec<_>>()
        );
        assert!(report.total_acked > 0, "the load ran");
        assert!(
            report.stats.transient_errors > 0,
            "the background fault profile injected something"
        );
    }

    #[test]
    fn multi_tenant_grid_holds_per_tenant_durability_and_isolation() {
        let mut cfg = ExplorerConfig::multi_tenant();
        cfg.seeds = vec![0x5EED];
        cfg.fault_times_ms = vec![150, 350];
        let report = explore_crash_points(&cfg);
        assert_eq!(report.trials, 2 * 5);
        assert!(
            report.clean(),
            "counterexamples: {:?}",
            report
                .counterexamples
                .iter()
                .map(|c| c.replay_line())
                .collect::<Vec<_>>()
        );
        assert!(report.total_acked > 0, "the WAL load ran");
        assert!(report.tenant_acked > 0, "the co-tenant writers ran");
        assert!(report.commit_latency.count() > 0, "latency was recorded");
    }

    #[test]
    fn broken_drain_yields_a_replayable_counterexample() {
        let mut cfg = ExplorerConfig::broken_drain();
        cfg.seeds = vec![0x5EED];
        cfg.fault_times_ms = vec![150];
        let report = explore_crash_points(&cfg);
        assert!(
            !report.clean(),
            "a drain with retries disabled must lose acknowledged commits"
        );
        let ce = &report.counterexamples[0];
        assert!(
            ce.violations
                .iter()
                .any(|v| v.contains("durability") || v.contains("rapilog")),
            "violations: {:?}",
            ce.violations
        );
        // The counterexample replays: same coordinates, same verdict.
        let replay = replay_crash_point(&cfg, ce.seed, ce.kind, ce.fault_after);
        assert!(!replay.ok);
        assert_eq!(replay.violations, ce.violations);
    }
}
