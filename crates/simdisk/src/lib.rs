#![warn(missing_docs)]

//! Simulated block devices with honest timing and power-loss semantics.
//!
//! This crate is the stable-storage substrate of the RapiLog reproduction.
//! The paper's entire argument hinges on two physical facts that this crate
//! models faithfully:
//!
//! 1. **Synchronous small writes to a rotating disk cost about one platter
//!    rotation each.** A database forcing its log at every commit therefore
//!    commits at ~`rpm/60` transactions per second per stream, even though
//!    the writes are sequential — by the time the next log record is ready,
//!    the head has just passed the target sector. The HDD model tracks the
//!    angular position of the platter continuously, so this effect *emerges*
//!    rather than being hard-coded.
//! 2. **Large sequential writes run at full media bandwidth**, because the
//!    rotational miss is paid once per multi-track transfer. This is what
//!    lets RapiLog's batched asynchronous drain keep up with a log stream
//!    that the synchronous path cannot sustain.
//!
//! Devices store **real bytes** (sparse, in memory), so crash-recovery code
//! upstream is genuinely exercised: after a simulated power cut, exactly the
//! sectors that had reached the media are readable, the volatile write cache
//! is lost, and an in-flight multi-sector write may be torn.
//!
//! # Examples
//!
//! ```
//! use rapilog_simcore::Sim;
//! use rapilog_simdisk::{specs, Disk};
//!
//! let mut sim = Sim::new(1);
//! let ctx = sim.ctx();
//! let disk = Disk::new(&ctx, specs::hdd_7200(64 * 1024 * 1024));
//! sim.spawn(async move {
//!     let data = vec![0xAB; 512];
//!     disk.write(0, &data, true).await.unwrap();
//!     let mut buf = vec![0; 512];
//!     disk.read(0, &mut buf).await.unwrap();
//!     assert_eq!(buf, data);
//! });
//! sim.run();
//! ```

pub mod disk;
mod queue;
pub mod spec;
pub mod store;
pub mod timing;

pub use disk::{Disk, DiskStats};
pub use rapilog_simcore::bytes::{SectorBuf, SectorPool};
pub use spec::{specs, CacheSpec, DiskSpec, FaultProfile, TimingSpec};
pub use store::SectorStore;
pub use timing::ServiceParts;

use std::fmt;
use std::future::Future;
use std::pin::Pin;

/// Sector size used by every device in the suite (bytes).
pub const SECTOR_SIZE: usize = 512;

/// Boxed single-threaded future, used so [`BlockDevice`] stays object-safe.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Errors returned by block-device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// Access past the end of the device.
    OutOfRange {
        /// First sector of the offending access.
        sector: u64,
        /// Sectors in the access.
        count: u64,
    },
    /// Buffer length is not a positive multiple of the sector size.
    Misaligned {
        /// Offending length in bytes.
        len: usize,
    },
    /// The device has lost power; the request did not complete.
    PowerLoss,
    /// The command failed transiently (bus glitch, command timeout, drive
    /// firmware hiccup). The same request may well succeed if retried —
    /// resilient layers above are expected to do exactly that.
    Transient,
    /// A persistent media defect: the addressed sector is unreadable /
    /// unwritable until it is remapped to a spare ([`Disk::remap`]).
    MediaError {
        /// The defective sector.
        sector: u64,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::OutOfRange { sector, count } => {
                write!(f, "access out of range: {count} sectors at {sector}")
            }
            IoError::Misaligned { len } => {
                write!(f, "buffer not sector-aligned: {len} bytes")
            }
            IoError::PowerLoss => write!(f, "device lost power"),
            IoError::Transient => write!(f, "transient command failure"),
            IoError::MediaError { sector } => {
                write!(f, "unrecoverable media error at sector {sector}")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// Result alias for device operations.
pub type IoResult<T> = Result<T, IoError>;

/// Static description of a device's addressable space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Bytes per sector.
    pub sector_size: usize,
    /// Total addressable sectors.
    pub sectors: u64,
    /// How many requests the device services concurrently: the flash
    /// channel count for SSDs, 1 for a single-actuator rotating disk.
    /// Submitting more than this never fails — excess requests queue
    /// inside the device — but only `queue_depth` make media progress
    /// at once.
    pub queue_depth: u32,
}

impl Geometry {
    /// Device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sectors * self.sector_size as u64
    }

    /// Validates an access of `len` bytes at `sector` and returns its
    /// length in sectors: [`IoError::Misaligned`] unless `len` is a
    /// positive multiple of the sector size, [`IoError::OutOfRange`] if it
    /// runs past the end.
    pub fn check_access(&self, sector: u64, len: usize) -> IoResult<u64> {
        if len == 0 || !len.is_multiple_of(self.sector_size) {
            return Err(IoError::Misaligned { len });
        }
        let count = (len / self.sector_size) as u64;
        if sector
            .checked_add(count)
            .is_none_or(|end| end > self.sectors)
        {
            return Err(IoError::OutOfRange { sector, count });
        }
        Ok(count)
    }

    /// Validates a read of `sectors` sectors at `sector` and returns its
    /// length in bytes. Checked arithmetic throughout, and it runs before
    /// any caller sizes a buffer, so a hostile count is a typed error
    /// rather than a huge allocation.
    pub fn read_len(&self, sector: u64, sectors: u64) -> IoResult<usize> {
        let len = usize::try_from(sectors)
            .ok()
            .and_then(|n| n.checked_mul(self.sector_size))
            .ok_or(IoError::OutOfRange {
                sector,
                count: sectors,
            })?;
        self.check_access(sector, len).map(|_| len)
    }
}

/// One request on the [`BlockDevice`] interface, run to completion by
/// [`BlockDevice::io`].
#[derive(Debug, Clone)]
pub enum IoReq {
    /// Read `sectors` sectors starting at `sector`. Completes with the data.
    Read {
        /// First sector of the access.
        sector: u64,
        /// Number of sectors to read.
        sectors: u64,
    },
    /// Write `data` starting at `sector`.
    Write {
        /// First sector of the access.
        sector: u64,
        /// The bytes, a positive multiple of the sector size. Layers that
        /// keep the bytes alive (the virtio ring, the RapiLog buffer, the
        /// media model's in-flight window) take O(1) views of it instead
        /// of copying.
        data: SectorBuf,
        /// Force unit access: data is on stable media at completion.
        fua: bool,
    },
    /// Barrier: completes once every previously acknowledged write is on
    /// stable media.
    Flush,
}

/// Opaque handle identifying a request submitted to [`Disk::submit`] or
/// [`Disk::submit_segments`]; claimed exactly once with [`Disk::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqToken(pub(crate) u64);

/// An asynchronous, sector-addressed block device.
///
/// Implemented by the raw simulated [`Disk`], the virtio transport, the
/// engine's retrying block layer and — crucially — the RapiLog virtual log
/// disk, which is how an unmodified database engine is pointed at either a
/// raw disk or RapiLog. The trait is object-safe (it returns boxed
/// futures) so engines can hold `Rc<dyn BlockDevice>`.
///
/// A device has exactly one I/O entry point: [`io`](BlockDevice::io) runs
/// one request to completion. Callers that want several requests in flight
/// spawn several `io` futures; callers holding borrowed slices use the
/// [`BlockDeviceExt`] helpers, which every device gets for free.
pub trait BlockDevice {
    /// The device's geometry.
    fn geometry(&self) -> Geometry;

    /// Runs `req` to completion. A completed [`IoReq::Read`] yields
    /// `Some(data)`; writes and flushes yield `None`.
    ///
    /// Every device validates a request before acting on it: a zero-length
    /// or misaligned access fails with [`IoError::Misaligned`], an access
    /// past the end with [`IoError::OutOfRange`] — never a panic or an
    /// allocation sized by an unchecked count.
    fn io(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>>;
}

/// Borrowed-slice helpers over [`BlockDevice::io`], implemented once for
/// every device (and for `dyn BlockDevice`).
///
/// Each costs one copy between the borrowed slice and an owned buffer;
/// code on the log data path builds [`IoReq`]s with owned [`SectorBuf`]s
/// instead.
pub trait BlockDeviceExt: BlockDevice {
    /// Reads `buf.len() / SECTOR_SIZE` sectors starting at `sector` into
    /// `buf`, whose length must be a positive multiple of the sector size.
    fn read<'a>(
        &'a self,
        sector: u64,
        buf: &'a mut [u8],
    ) -> impl Future<Output = IoResult<()>> + 'a;

    /// Writes `data` starting at `sector`. With `fua` (force unit access)
    /// the data is on stable media when the future resolves; without it the
    /// write may land in a volatile cache.
    fn write<'a>(
        &'a self,
        sector: u64,
        data: &'a [u8],
        fua: bool,
    ) -> impl Future<Output = IoResult<()>> + 'a;

    /// Barrier: resolves once every previously acknowledged write is on
    /// stable media.
    fn flush(&self) -> impl Future<Output = IoResult<()>> + '_;
}

impl<T: BlockDevice + ?Sized> BlockDeviceExt for T {
    async fn read(&self, sector: u64, buf: &mut [u8]) -> IoResult<()> {
        if buf.is_empty() || !buf.len().is_multiple_of(SECTOR_SIZE) {
            return Err(IoError::Misaligned { len: buf.len() });
        }
        let sectors = (buf.len() / SECTOR_SIZE) as u64;
        let data = self.io(IoReq::Read { sector, sectors }).await?;
        buf.copy_from_slice(&data.expect("read completion carries data"));
        Ok(())
    }

    async fn write(&self, sector: u64, data: &[u8], fua: bool) -> IoResult<()> {
        let data = SectorBuf::copy_from(data);
        self.io(IoReq::Write { sector, data, fua }).await.map(drop)
    }

    async fn flush(&self) -> IoResult<()> {
        self.io(IoReq::Flush).await.map(drop)
    }
}

/// One contiguous scatter-gather write: `segments` laid out back to back
/// starting at `sector`. Produced by the RapiLog drain's consolidation pass
/// and consumed by [`Disk::write_runs`](crate::Disk::write_runs), which
/// copies the segments onto the media in a single device operation — the one
/// real copy on the acknowledged-byte path.
#[derive(Debug, Clone)]
pub struct IoRun {
    /// First sector of the run.
    pub sector: u64,
    /// Byte segments, each a multiple of the sector size, laid out
    /// contiguously from `sector`.
    pub segments: Vec<SectorBuf>,
}

impl IoRun {
    /// Total bytes across all segments.
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(SectorBuf::len).sum()
    }

    /// Total sectors covered by the run.
    pub fn sectors(&self) -> u64 {
        (self.bytes() / SECTOR_SIZE) as u64
    }
}
