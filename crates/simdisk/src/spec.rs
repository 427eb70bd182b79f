//! Device specifications and factory presets.

use rapilog_simcore::SimDuration;

use crate::SECTOR_SIZE;

/// Timing model selection for a device.
#[derive(Debug, Clone)]
pub enum TimingSpec {
    /// Rotating disk: the model tracks head cylinder and platter angle.
    Hdd {
        /// Spindle speed in revolutions per minute.
        rpm: u32,
        /// Sectors per track; determines sequential bandwidth
        /// (`spt * sector_size * rpm / 60` bytes/s).
        sectors_per_track: u64,
        /// Track-to-track seek time.
        seek_min: SimDuration,
        /// Full-stroke seek time.
        seek_max: SimDuration,
        /// Fixed per-request controller/command overhead.
        overhead: SimDuration,
    },
    /// Flash device: fixed per-op latencies plus bus-limited transfer.
    Ssd {
        /// Latency of a read command before data transfer.
        read_latency: SimDuration,
        /// Latency of a write command before data transfer.
        write_latency: SimDuration,
        /// Cost of a FLUSH (FTL metadata sync).
        flush_latency: SimDuration,
        /// Interface bandwidth in bytes per second.
        bus_bytes_per_sec: u64,
        /// Independent flash channels: how many media operations the device
        /// services concurrently. Each channel has the full per-op latency
        /// and bus share; keeping several requests in flight (concurrent
        /// [`BlockDevice::io`](crate::BlockDevice::io) calls, or the
        /// [`Disk::submit`](crate::Disk::submit) queue) is what keeps them
        /// busy.
        channels: u32,
    },
}

/// Media-fault model parameters.
///
/// Real stable storage fails in more ways than losing power: commands fail
/// transiently, sectors grow unrecoverable defects, firmware stalls a
/// request for tens of milliseconds while it retries internally, and —
/// rarest and nastiest — a write lands wrong without any error (the IRON
/// taxonomy of Prabhakaran et al., SOSP'05). All of it is driven by a
/// dedicated [`SimRng`](rapilog_simcore::rng::SimRng) stream seeded from
/// `seed`, so a fault schedule replays exactly under the same seed
/// regardless of request timing upstream.
///
/// Rates are per *media operation* (requests served from the volatile
/// cache are electronics, not media, and do not fault). All rates default
/// to zero; [`FaultProfile::default`] is a healthy disk.
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// Seed of the fault RNG stream.
    pub seed: u64,
    /// Probability that a media op fails with
    /// [`IoError::Transient`](crate::IoError::Transient).
    pub transient_rate: f64,
    /// Probability that a media *write* grows a persistent defect on one of
    /// its sectors, failing with
    /// [`IoError::MediaError`](crate::IoError::MediaError) until the sector
    /// is remapped.
    pub grown_defect_rate: f64,
    /// Probability that a media op stalls for [`stall`](Self::stall) before
    /// being serviced (drive-internal retries / thermal recalibration).
    pub stall_rate: f64,
    /// Duration of one write/read stall.
    pub stall: SimDuration,
    /// Probability that a media write silently corrupts one of its sectors
    /// — no error is returned; only a later read-back notices.
    pub corruption_rate: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0,
            transient_rate: 0.0,
            grown_defect_rate: 0.0,
            stall_rate: 0.0,
            stall: SimDuration::from_millis(30),
            corruption_rate: 0.0,
        }
    }
}

impl FaultProfile {
    /// A profile of only transient command failures at the given rate.
    pub fn transient(seed: u64, rate: f64) -> FaultProfile {
        FaultProfile {
            seed,
            transient_rate: rate,
            ..FaultProfile::default()
        }
    }

    /// A profile of only grown media defects at the given rate.
    pub fn grown_defects(seed: u64, rate: f64) -> FaultProfile {
        FaultProfile {
            seed,
            grown_defect_rate: rate,
            ..FaultProfile::default()
        }
    }

    /// A profile of only write stalls at the given rate and magnitude.
    pub fn stalls(seed: u64, rate: f64, stall: SimDuration) -> FaultProfile {
        FaultProfile {
            seed,
            stall_rate: rate,
            stall,
            ..FaultProfile::default()
        }
    }
}

/// Volatile write-cache configuration.
#[derive(Debug, Clone)]
pub struct CacheSpec {
    /// Cache capacity in sectors.
    pub capacity_sectors: u64,
    /// Latency of a cache-hit write acknowledgement.
    pub write_latency: SimDuration,
}

/// Full description of a simulated device.
#[derive(Debug, Clone)]
pub struct DiskSpec {
    /// Human-readable model name (appears in reports).
    pub name: String,
    /// Total addressable sectors.
    pub sectors: u64,
    /// Service-time model.
    pub timing: TimingSpec,
    /// Volatile write cache; `None` disables it (every write behaves as
    /// FUA). Databases that care about durability run with the cache off or
    /// flush through it — both paths are modelled.
    pub cache: Option<CacheSpec>,
    /// If true, a multi-sector write in flight at a power cut commits only
    /// the sector prefix the head had completed (sectors themselves are
    /// atomic). If false (power-loss-protected flash), the whole in-flight
    /// command completes from stored energy.
    pub torn_writes: bool,
    /// Media-fault model; `None` is a fault-free device (every preset's
    /// default). Set via [`DiskSpec::with_faults`].
    pub fault: Option<FaultProfile>,
}

impl DiskSpec {
    /// Sequential media bandwidth in bytes per second (the rate the RapiLog
    /// drain can sustain with large batches).
    pub fn sequential_bandwidth(&self) -> u64 {
        match &self.timing {
            TimingSpec::Hdd {
                rpm,
                sectors_per_track,
                ..
            } => sectors_per_track * SECTOR_SIZE as u64 * *rpm as u64 / 60,
            TimingSpec::Ssd {
                bus_bytes_per_sec, ..
            } => *bus_bytes_per_sec,
        }
    }

    /// Returns the spec with the given fault profile installed.
    pub fn with_faults(mut self, profile: FaultProfile) -> DiskSpec {
        self.fault = Some(profile);
        self
    }

    /// Returns the spec with `n` independent flash channels (SSD specs
    /// only; ignored for rotating disks, which have a single actuator).
    pub fn with_channels(mut self, n: u32) -> DiskSpec {
        if let TimingSpec::Ssd { channels, .. } = &mut self.timing {
            *channels = n.max(1);
        }
        self
    }

    /// How many media operations the device can service concurrently: the
    /// channel count for flash, 1 for a rotating disk.
    pub fn queue_depth(&self) -> u32 {
        match &self.timing {
            TimingSpec::Hdd { .. } => 1,
            TimingSpec::Ssd { channels, .. } => (*channels).max(1),
        }
    }

    /// Time for one platter rotation; zero for SSDs.
    pub fn rotation_period(&self) -> SimDuration {
        match &self.timing {
            TimingSpec::Hdd { rpm, .. } => SimDuration::from_nanos(60_000_000_000 / *rpm as u64),
            TimingSpec::Ssd { .. } => SimDuration::ZERO,
        }
    }
}

/// Factory presets modelled on common 2013-era hardware (the paper's
/// evaluation ran on SATA disks of that generation).
pub mod specs {
    use super::*;

    fn sectors_for(capacity_bytes: u64) -> u64 {
        capacity_bytes.div_ceil(SECTOR_SIZE as u64)
    }

    /// 7200 rpm SATA disk: 8.33 ms rotation, ~117 MB/s sequential,
    /// 0.6–9 ms seeks, volatile cache disabled (safe configuration).
    pub fn hdd_7200(capacity_bytes: u64) -> DiskSpec {
        DiskSpec {
            name: "hdd-7200".to_string(),
            sectors: sectors_for(capacity_bytes),
            timing: TimingSpec::Hdd {
                rpm: 7200,
                sectors_per_track: 1900,
                seek_min: SimDuration::from_micros(600),
                seek_max: SimDuration::from_millis(9),
                overhead: SimDuration::from_micros(60),
            },
            cache: None,
            torn_writes: true,
            fault: None,
        }
    }

    /// Same mechanics as [`hdd_7200`] but with a 32 MiB volatile write cache
    /// enabled — fast and **unsafe**: used by the ablation that shows why
    /// enabling WCE without RapiLog loses committed transactions.
    pub fn hdd_7200_wce(capacity_bytes: u64) -> DiskSpec {
        DiskSpec {
            cache: Some(CacheSpec {
                capacity_sectors: 32 * 1024 * 1024 / SECTOR_SIZE as u64,
                write_latency: SimDuration::from_micros(120),
            }),
            name: "hdd-7200-wce".to_string(),
            ..hdd_7200(capacity_bytes)
        }
    }

    /// 15 krpm enterprise disk: 4 ms rotation, ~190 MB/s sequential.
    pub fn hdd_15k(capacity_bytes: u64) -> DiskSpec {
        DiskSpec {
            name: "hdd-15k".to_string(),
            sectors: sectors_for(capacity_bytes),
            timing: TimingSpec::Hdd {
                rpm: 15000,
                sectors_per_track: 1500,
                seek_min: SimDuration::from_micros(300),
                seek_max: SimDuration::from_millis(4),
                overhead: SimDuration::from_micros(60),
            },
            cache: None,
            torn_writes: true,
            fault: None,
        }
    }

    /// SATA-era SSD: ~70 µs writes, ~2 ms flush, 250 MB/s bus.
    pub fn ssd_sata(capacity_bytes: u64) -> DiskSpec {
        DiskSpec {
            name: "ssd-sata".to_string(),
            sectors: sectors_for(capacity_bytes),
            timing: TimingSpec::Ssd {
                read_latency: SimDuration::from_micros(50),
                write_latency: SimDuration::from_micros(70),
                flush_latency: SimDuration::from_millis(2),
                bus_bytes_per_sec: 250 * 1024 * 1024,
                channels: 1,
            },
            cache: None,
            torn_writes: false,
            fault: None,
        }
    }

    /// Fast NVMe-class flash: ~15 µs writes, 2 GB/s.
    pub fn ssd_nvme(capacity_bytes: u64) -> DiskSpec {
        DiskSpec {
            name: "ssd-nvme".to_string(),
            sectors: sectors_for(capacity_bytes),
            timing: TimingSpec::Ssd {
                read_latency: SimDuration::from_micros(10),
                write_latency: SimDuration::from_micros(15),
                flush_latency: SimDuration::from_micros(400),
                bus_bytes_per_sec: 2 * 1024 * 1024 * 1024,
                channels: 1,
            },
            cache: None,
            torn_writes: false,
            fault: None,
        }
    }

    /// Zero-latency device for unit tests that only care about contents.
    pub fn instant(capacity_bytes: u64) -> DiskSpec {
        DiskSpec {
            name: "instant".to_string(),
            sectors: sectors_for(capacity_bytes),
            timing: TimingSpec::Ssd {
                read_latency: SimDuration::ZERO,
                write_latency: SimDuration::ZERO,
                flush_latency: SimDuration::ZERO,
                bus_bytes_per_sec: u64::MAX,
                channels: 1,
            },
            cache: None,
            torn_writes: false,
            fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_bandwidth_and_rotation() {
        let spec = specs::hdd_7200(1 << 30);
        // 1900 sectors * 512 B * 120 rot/s = ~116.7 MB/s.
        let bw = spec.sequential_bandwidth();
        assert!((110_000_000..125_000_000).contains(&bw), "bw {bw}");
        assert_eq!(spec.rotation_period().as_micros(), 8_333);
    }

    #[test]
    fn ssd_bandwidth_is_bus_limited() {
        let spec = specs::ssd_sata(1 << 30);
        assert_eq!(spec.sequential_bandwidth(), 250 * 1024 * 1024);
        assert!(spec.rotation_period().is_zero());
    }

    #[test]
    fn capacity_rounds_up_to_sectors() {
        let spec = specs::instant(1000);
        assert_eq!(spec.sectors, 2);
    }

    #[test]
    fn channels_default_to_one_and_are_configurable() {
        assert_eq!(specs::ssd_nvme(1 << 30).queue_depth(), 1);
        assert_eq!(specs::ssd_nvme(1 << 30).with_channels(4).queue_depth(), 4);
        assert_eq!(specs::ssd_nvme(1 << 30).with_channels(0).queue_depth(), 1);
        // Rotating disks have a single actuator no matter what.
        assert_eq!(specs::hdd_7200(1 << 30).with_channels(4).queue_depth(), 1);
    }

    #[test]
    fn wce_variant_has_cache() {
        let spec = specs::hdd_7200_wce(1 << 30);
        assert!(spec.cache.is_some());
        assert_eq!(spec.name, "hdd-7200-wce");
        // The mechanical parameters are inherited.
        assert_eq!(spec.rotation_period().as_micros(), 8_333);
    }
}
