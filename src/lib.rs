#![warn(missing_docs)]

//! Umbrella crate for the RapiLog reproduction suite.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests read naturally. See the README for the map and
//! DESIGN.md for the architecture.

pub use rapilog;
pub use rapilog_dbengine as dbengine;
pub use rapilog_faultsim as faultsim;
pub use rapilog_microvisor as microvisor;
pub use rapilog_simcore as simcore;
pub use rapilog_simdisk as simdisk;
pub use rapilog_simpower as simpower;
pub use rapilog_workload as workload;

/// One-stop imports for assembling a simulated RapiLog stack and reading
/// its traces: the simulator, disks, power supplies, the RapiLog builder
/// and the structured-tracing types.
pub mod prelude {
    pub use rapilog::prelude::*;
    pub use rapilog_microvisor::{Hypervisor, Trust};
    pub use rapilog_simcore::trace::{LatencyAttribution, Layer, Payload, TraceSnapshot, Tracer};
    pub use rapilog_simcore::{Sim, SimCtx, SimDuration, SimTime};
    pub use rapilog_simdisk::{specs, BlockDevice, BlockDeviceExt, Disk, SECTOR_SIZE};
    pub use rapilog_simpower::{supplies, PowerSupply, SupplySpec};
}
