//! External placement gate: the hook a federation layer installs so a
//! shard's locally-computed placements are validated against an
//! authoritative shared commitment ledger at the moment of commit.
//!
//! A single-plane simulation never installs a gate and pays nothing; the
//! plane's behavior is bit-for-bit identical with `gate == None`. With a
//! gate installed, the placement stage of every provisioning program
//! ([`OpKind::CreateVm`] and non-instant [`OpKind::CloneVm`]) calls
//! [`PlacementGate::commit`] *after* the local [`Placer`] picks a
//! `(host, datastore)` pair and *before* the task acquires admission
//! slots. The gate holds the authoritative view; the plane's own
//! [`Inventory`] is a possibly-stale mirror refreshed on a configurable
//! period via [`PlacementGate::sync`].
//!
//! On [`GateDecision::Conflict`] the plane treats the placement like any
//! other transient phase failure: the task retries the placement stage
//! with bounded backoff through the `cpsim-faults` recovery machinery
//! (the gate is expected to refresh the mirror for the contended
//! datastore before returning, so the retry picks somewhere else).
//!
//! [`OpKind::CreateVm`]: crate::OpKind::CreateVm
//! [`OpKind::CloneVm`]: crate::OpKind::CloneVm
//! [`Placer`]: crate::Placer

use cpsim_inventory::{DatastoreId, HostId, Inventory};

/// Outcome of an external placement commit attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateDecision {
    /// The authoritative store accepted the reservation; the task may
    /// proceed to materialize the VM on the chosen placement.
    Commit,
    /// The reservation lost a race against another shard's commit: the
    /// capacity the stale local view promised is no longer there. The
    /// task retries placement with backoff.
    Conflict(String),
}

/// An authoritative placement ledger consulted at commit time.
///
/// Both methods receive the shard's own [`Inventory`] mutably so the
/// implementation can fold authoritative usage back into the mirror
/// (e.g. on a periodic refresh, or eagerly for a datastore that just
/// conflicted). Implementations must be deterministic: no wall-clock
/// reads and no randomness outside the simulation's seeded streams.
pub trait PlacementGate {
    /// Attempts to commit `mem_mb` + `disk_gb` on `(host, ds)` against
    /// the authoritative view. Called once per placement stage; a retry
    /// after a conflict calls it again with the freshly-picked pair.
    fn commit(
        &mut self,
        inv: &mut Inventory,
        host: HostId,
        ds: DatastoreId,
        mem_mb: u64,
        disk_gb: f64,
    ) -> GateDecision;

    /// Refreshes the shard's mirrored free-capacity view from the
    /// authoritative store (the staleness-window tick).
    fn sync(&mut self, inv: &mut Inventory);
}
