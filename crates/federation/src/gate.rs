//! [`StoreGate`]: the per-shard [`PlacementGate`] implementation that
//! binds a [`ControlPlane`](cpsim_mgmt::ControlPlane) to the federation's
//! shared [`PlacementStore`].
//!
//! Home placements (neither the host nor the datastore is in the shared
//! pool) commit trivially — the shard owns them outright and never touch
//! the shared store at all. Shared-pool placements go through the
//! ledger: an accepted commit is recorded as an
//! [`OpenCommit`] for the shard to settle when the task finishes; a
//! rejected one leaves the shard's mirror untouched — only the periodic
//! staleness-windowed sync refreshes it, so a loser keeps conflicting
//! until a sync lands and the retried scan steers elsewhere.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cpsim_inventory::{DatastoreId, HostId, Inventory};
use cpsim_mgmt::{GateDecision, PlacementGate};

use crate::store::{OpenCommit, PlacementStore};

/// One shard's view onto the shared placement store.
pub struct StoreGate {
    shard: usize,
    store: Rc<RefCell<PlacementStore>>,
    /// Local datastore id → shared-store index, for the spillover pool.
    shared_ds: BTreeMap<DatastoreId, usize>,
    /// Local host id → shared-store index.
    shared_hosts: BTreeMap<HostId, usize>,
}

impl StoreGate {
    /// Creates the gate for `shard` with its local-id → store-index maps.
    pub fn new(
        shard: usize,
        store: Rc<RefCell<PlacementStore>>,
        shared_ds: BTreeMap<DatastoreId, usize>,
        shared_hosts: BTreeMap<HostId, usize>,
    ) -> Self {
        StoreGate {
            shard,
            store,
            shared_ds,
            shared_hosts,
        }
    }
}

impl PlacementGate for StoreGate {
    fn commit(
        &mut self,
        inv: &mut Inventory,
        host: HostId,
        ds: DatastoreId,
        mem_mb: u64,
        disk_gb: f64,
    ) -> GateDecision {
        let hi = self.shared_hosts.get(&host).copied();
        let di = self.shared_ds.get(&ds).copied();
        if hi.is_none() && di.is_none() {
            // Exclusively-owned home capacity: no coordination needed.
            return GateDecision::Commit;
        }
        let shard = self.shard;
        let mut st = self.store.borrow_mut();
        match st.try_commit(shard, hi, di, mem_mb, disk_gb) {
            Ok(()) => {
                st.record_open(
                    shard,
                    host,
                    ds,
                    OpenCommit {
                        host: hi,
                        ds: di,
                        mem_mb,
                        disk_gb,
                    },
                );
                GateDecision::Commit
            }
            Err(reason) => {
                // Deliberately no mirror refresh here: the shard keeps
                // its stale view until the next periodic sync, so the
                // loser's backed-off retry only succeeds if a refresh
                // lands inside the backoff window. Staleness is the one
                // coordination knob, and F13 measures exactly its cost.
                let _ = inv;
                GateDecision::Conflict(reason)
            }
        }
    }

    fn sync(&mut self, inv: &mut Inventory) {
        let mut st = self.store.borrow_mut();
        for (&ds, &di) in &self.shared_ds {
            let delta = st.mirror_delta(self.shard, di);
            if delta != 0.0 {
                let _ = inv.adjust_datastore_usage(ds, delta);
            }
        }
        st.on_sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_inventory::DatastoreSpec;

    /// Two shards, one stale view of a nearly-full shared datastore:
    /// exactly one commit wins, the loser's mirror is refreshed in the
    /// same call, and no capacity is double-booked.
    #[test]
    fn stale_views_race_to_one_winner() {
        let store = Rc::new(RefCell::new(PlacementStore::new(2)));
        let di = store.borrow_mut().add_shared_ds(100.0);

        let build = |shard: usize| {
            let mut inv = Inventory::new();
            let ds = inv.add_datastore(DatastoreSpec::new("shared-ds-00", 100.0, 200.0));
            // This shard's own setup-time usage: 48 GiB of seeded bases.
            inv.adjust_datastore_usage(ds, 48.0).unwrap();
            store.borrow_mut().seed_ds(di, shard, 48.0);
            let gate = StoreGate::new(
                shard,
                Rc::clone(&store),
                BTreeMap::from([(ds, di)]),
                BTreeMap::new(),
            );
            (inv, ds, gate)
        };
        let (mut inv_a, ds_a, mut gate_a) = build(0);
        let (mut inv_b, ds_b, mut gate_b) = build(1);
        // Initial sync: each shard mirrors the other's 48 GiB of seeds,
        // so both local views agree with the truth (96 used, 4 free).
        gate_a.sync(&mut inv_a);
        gate_b.sync(&mut inv_b);
        let host = cpsim_inventory::EntityId::from_parts(0, 0);

        // Authoritative free: 100 - 96 = 4. Both shards want 3 GiB.
        let a = gate_a.commit(&mut inv_a, host, ds_a, 1_024, 3.0);
        let b = gate_b.commit(&mut inv_b, host, ds_b, 1_024, 3.0);
        assert_eq!(a, GateDecision::Commit);
        let GateDecision::Conflict(reason) = b else {
            panic!("second commit must lose the race");
        };
        assert!(reason.contains("conflict"), "{reason}");

        // One winner, one open reservation, nothing double-booked.
        let st = store.borrow();
        assert_eq!(st.stats().commits, 1);
        assert_eq!(st.stats().conflicts, 1);
        assert_eq!(st.open_len(), 1);
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
    }

    #[test]
    fn home_placements_bypass_the_ledger() {
        let store = Rc::new(RefCell::new(PlacementStore::new(2)));
        let mut inv = Inventory::new();
        let home = inv.add_datastore(DatastoreSpec::new("s0-ds-00", 50.0, 200.0));
        let host = cpsim_inventory::EntityId::from_parts(0, 0);
        let mut gate = StoreGate::new(0, Rc::clone(&store), BTreeMap::new(), BTreeMap::new());
        assert_eq!(
            gate.commit(&mut inv, host, home, 512, 5.0),
            GateDecision::Commit
        );
        assert_eq!(store.borrow().stats().commits, 0);
        assert_eq!(store.borrow().open_len(), 0);
    }
}
