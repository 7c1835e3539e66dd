//! [`StoreGate`]: the per-shard [`PlacementGate`] implementation that
//! binds a [`ControlPlane`](cpsim_mgmt::ControlPlane) to the federation's
//! shared [`PlacementStore`].
//!
//! The gate is a `(shard, store)` handle: every call goes to the store,
//! which owns the shard's local-id → pool-index maps, its open commits
//! and its reservations. A rejected commit leaves the shard's mirror
//! untouched — only the periodic staleness-windowed sync refreshes it,
//! so a loser keeps conflicting until a sync lands and the retried scan
//! steers elsewhere.

use std::cell::RefCell;
use std::rc::Rc;

use cpsim_inventory::{DatastoreId, HostId, Inventory, TaskId, VmId};
use cpsim_mgmt::{GateDecision, PlacementGate};

use crate::store::PlacementStore;

/// One shard's view onto the shared placement store.
pub struct StoreGate {
    shard: usize,
    store: Rc<RefCell<PlacementStore>>,
}

impl StoreGate {
    /// Creates the gate for `shard`.
    pub fn new(shard: usize, store: Rc<RefCell<PlacementStore>>) -> Self {
        StoreGate { shard, store }
    }
}

impl PlacementGate for StoreGate {
    fn commit(
        &mut self,
        task: TaskId,
        host: HostId,
        ds: DatastoreId,
        mem_mb: u64,
        disk_gb: f64,
    ) -> GateDecision {
        let mut st = self.store.borrow_mut();
        match st.commit(self.shard, task, host, ds, mem_mb, disk_gb) {
            Ok(()) => GateDecision::Commit,
            // Deliberately no mirror refresh here: the shard keeps its
            // stale view until the next periodic sync, so the loser's
            // backed-off retry only succeeds if a refresh lands inside the
            // backoff window. Staleness is the one coordination knob, and
            // F13 measures exactly its cost.
            Err(reason) => GateDecision::Conflict(reason),
        }
    }

    fn settle(&mut self, task: TaskId, kept: Option<VmId>) {
        self.store.borrow_mut().settle(self.shard, task, kept);
    }

    fn release(&mut self, vm: VmId) {
        self.store.borrow_mut().release(self.shard, vm);
    }

    fn sync(&mut self, inv: &mut Inventory) {
        self.store.borrow_mut().sync(self.shard, inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_inventory::{DatastoreSpec, EntityId};

    /// Two shards, one stale view of a nearly-full shared datastore:
    /// exactly one commit wins, the loser's mirror waits for its sync,
    /// and no capacity is double-booked.
    #[test]
    fn stale_views_race_to_one_winner() {
        let store = Rc::new(RefCell::new(PlacementStore::new(2)));
        let di = store.borrow_mut().add_shared_ds(100.0);

        let build = |shard: usize| {
            let mut inv = Inventory::new();
            let ds = inv.add_datastore(DatastoreSpec::new("shared-ds-00", 100.0, 200.0));
            // This shard's own setup-time usage: 48 GiB of seeded bases.
            inv.adjust_datastore_usage(ds, 48.0).unwrap();
            store.borrow_mut().share_ds(shard, ds, di, 48.0);
            let gate = StoreGate::new(shard, Rc::clone(&store));
            (inv, ds, gate)
        };
        let (mut inv_a, ds_a, mut gate_a) = build(0);
        let (mut inv_b, ds_b, mut gate_b) = build(1);
        // Initial sync: each shard mirrors the other's 48 GiB of seeds,
        // so both local views agree with the truth (96 used, 4 free).
        gate_a.sync(&mut inv_a);
        gate_b.sync(&mut inv_b);
        let host = HostId::from_parts(0, 0);
        let task = TaskId::from_parts(0, 1);

        // Authoritative free: 100 - 96 = 4. Both shards want 3 GiB.
        let a = gate_a.commit(task, host, ds_a, 1_024, 3.0);
        let b = gate_b.commit(task, host, ds_b, 1_024, 3.0);
        assert_eq!(a, GateDecision::Commit);
        let GateDecision::Conflict(reason) = b else {
            panic!("second commit must lose the race");
        };
        assert!(reason.contains("conflict"), "{reason}");

        // One winner, nothing double-booked.
        let st = store.borrow();
        assert_eq!(st.stats().commits, 1);
        assert_eq!(st.stats().conflicts, 1);
        assert!(st.committed_gb(di) <= 100.0);
        st.check_invariants().unwrap();
        drop(st);

        // The loser keeps its stale view until its next periodic sync —
        // staleness is the coordination knob, so a conflict alone must
        // not refresh the mirror.
        let used = inv_b.datastore(ds_b).unwrap().used_gb;
        assert!((used - 96.0).abs() < 1e-9, "loser view used={used}");
        // After the sync the loser sees the winner's 3 GiB too.
        gate_b.sync(&mut inv_b);
        let used = inv_b.datastore(ds_b).unwrap().used_gb;
        assert!((used - 99.0).abs() < 1e-9, "synced loser view used={used}");
        // The winner's own view is untouched (its commit is its own
        // contribution, materialized later by the storage layer).
        assert!((inv_a.datastore(ds_a).unwrap().used_gb - 96.0).abs() < 1e-9);

        // The winner's task fails: its commit returns to the pool.
        gate_a.settle(task, None);
        assert!((store.borrow().free_gb(di) - 4.0).abs() < 1e-9);
        store.borrow().check_invariants().unwrap();
    }
}
