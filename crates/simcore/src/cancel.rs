//! Cancellation domains.
//!
//! A *domain* groups tasks that live and die together. The microvisor crate
//! models a guest operating-system crash by killing the guest's domain:
//! every task spawned in it is dropped atomically (at a single instant of
//! virtual time), while tasks in other domains — in particular the trusted
//! RapiLog components — keep running. This mirrors the isolation argument of
//! the paper: the verified hypervisor survives arbitrary guest failure.
//!
//! Domains are created with [`SimCtx::create_domain`](crate::SimCtx) and
//! killed with [`SimCtx::kill_domain`](crate::SimCtx). A killed domain stays
//! dead; a rebooted guest gets a fresh domain.

use std::fmt;

/// Identifier of a cancellation domain.
///
/// `DomainId::ROOT` is the default domain used by
/// [`Sim::spawn`](crate::Sim::spawn) and cannot be killed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub(crate) u64);

impl DomainId {
    /// The root domain; hosts trusted/harness tasks and cannot be killed.
    pub const ROOT: DomainId = DomainId(0);

    /// Raw numeric id, for logging.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain#{}", self.0)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}
