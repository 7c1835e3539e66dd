//! External placement gate: the hook a federation layer installs so a
//! shard's locally-computed placements are validated against an
//! authoritative shared commitment ledger at the moment of commit.
//!
//! A single-plane simulation never installs a gate and pays nothing; the
//! plane's behavior is bit-for-bit identical with `gate == None`. With a
//! gate installed, a reservation goes through three calls, all keyed by
//! what the plane already knows:
//!
//! 1. [`PlacementGate::commit`]: the placement stage of every
//!    provisioning program ([`OpKind::CreateVm`] and every
//!    [`OpKind::CloneVm`] mode) calls it with the task's id *after* the
//!    local [`Placer`] picks a `(host, datastore)` pair (an instant clone
//!    takes its source's) and *before* the task acquires admission slots.
//! 2. [`PlacementGate::settle`]: the plane calls it for every task it
//!    finishes, with the VM the task produced if it succeeded. The gate
//!    binds the task's commit to that VM or returns it to the pool.
//! 3. [`PlacementGate::release`]: the plane calls it after each
//!    successful [`OpKind::DestroyVm`], freeing the VM's reservation.
//!
//! The gate holds the authoritative view; the plane's own [`Inventory`]
//! is a possibly-stale mirror refreshed on a configurable period via
//! [`PlacementGate::sync`].
//!
//! On [`GateDecision::Conflict`] the plane treats the placement like any
//! other transient phase failure: the task retries the placement stage
//! with bounded backoff through the `cpsim-faults` recovery machinery.
//!
//! [`OpKind::CreateVm`]: crate::OpKind::CreateVm
//! [`OpKind::CloneVm`]: crate::OpKind::CloneVm
//! [`OpKind::DestroyVm`]: crate::OpKind::DestroyVm
//! [`Placer`]: crate::Placer

use cpsim_inventory::{DatastoreId, HostId, Inventory, TaskId, VmId};

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
/// Implementations must be deterministic: no wall-clock reads and no
/// randomness outside the simulation's seeded streams.
pub trait PlacementGate {
    /// Attempts to commit `mem_mb` + `disk_gb` on `(host, ds)` for
    /// `task` against the authoritative view. Called at most once per
    /// placement attempt; a retry after a conflict calls it again with
    /// the freshly-picked pair.
    fn commit(
        &mut self,
        task: TaskId,
        host: HostId,
        ds: DatastoreId,
        mem_mb: u64,
        disk_gb: f64,
    ) -> GateDecision;

    /// Settles `task`'s accepted commit, if it made one, as the task
    /// finishes: `kept` names the VM the task produced on success, which
    /// now holds the reservation; `None` returns it to the pool.
    fn settle(&mut self, task: TaskId, kept: Option<VmId>);

    /// Frees the reservation `vm` holds, if any (the VM was destroyed).
    fn release(&mut self, vm: VmId);

    /// Refreshes the shard's mirrored free-capacity view from the
    /// authoritative store (the staleness-window tick).
    fn sync(&mut self, inv: &mut Inventory);
}
