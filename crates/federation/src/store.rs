//! The shared [`PlacementStore`]: the one owner of the federation's
//! spillover-pool accounting.
//!
//! Every shard owns its home hosts and datastores outright — no ledger,
//! no races. The shared pool is different: each shard registers the same
//! physical spillover entities in its own inventory, and the store is
//! the single source of truth for how much of each one is committed
//! across the whole federation, and by which task or VM.
//!
//! A shared-pool reservation lives through three calls, each keyed by
//! what the committing shard already knows:
//!
//! 1. [`commit`](PlacementStore::commit): a task's placement on a shared
//!    host or datastore is checked against the authoritative free
//!    capacity and, if it fits, recorded as an open commit under
//!    `(shard, task)`. A placement touching neither pool entity commits
//!    trivially and is never recorded.
//! 2. [`settle`](PlacementStore::settle): when the task finishes, its
//!    open commit becomes a reservation held under `(shard, VM)` by the
//!    VM it produced, or returns to the pool if it failed.
//! 3. [`release`](PlacementStore::release): destroying the VM frees its
//!    reservation.
//!
//! Bookkeeping model, per shared datastore:
//!
//! - `committed_gb` — authoritative total commitment;
//! - `contributed_gb[s]` — how much of that total shard `s` committed:
//!   its seeded template bases plus its open commits and reservations.
//!   A shard's own contributions are materialized in its own inventory
//!   by the storage layer, so only the *foreign* share
//!   (`committed - contributed[s]`) must be mirrored in;
//! - `mirrored_gb[s]` — how much foreign usage shard `s` has folded into
//!   its inventory so far. The mirror is refreshed on the staleness
//!   window, so between refreshes a shard's local view under- or
//!   over-counts the others by whatever they committed or released in
//!   the window.
//!
//! [`check_invariants`](PlacementStore::check_invariants) enforces
//! `committed == Σ contributed`, `0 ≤ committed ≤ cap`, and that each
//! shard's contribution is exactly its seeds, open commits and
//! reservations: a double-booked commit, a skipped release or a double
//! release shows up as a violation.

use std::collections::BTreeMap;

use cpsim_inventory::{DatastoreId, HostId, Inventory, TaskId, VmId};

/// Capacity one accepted commit holds on the shared pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Reservation {
    /// Shared-host index the memory was committed on, if the placement's
    /// host is in the shared pool.
    host: Option<usize>,
    /// Shared-datastore index the disk was committed on, if the
    /// placement's datastore is in the shared pool.
    ds: Option<usize>,
    mem_mb: u64,
    disk_gb: f64,
}

/// Ledger counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Accepted shared-pool commits.
    pub commits: u64,
    /// Rejected commits (stale-view conflicts).
    pub conflicts: u64,
    /// Mirror refreshes (staleness-window ticks).
    pub syncs: u64,
    /// Released reservations.
    pub releases: u64,
    /// Cross-shard migration handoffs.
    pub handoffs: u64,
}

struct SharedDs {
    cap_gb: f64,
    committed_gb: f64,
    contributed_gb: Vec<f64>,
    seeded_gb: Vec<f64>,
    mirrored_gb: Vec<f64>,
}

struct SharedHost {
    cap_mem_mb: u64,
    committed_mem_mb: u64,
    contributed_mem_mb: Vec<u64>,
}

/// One shard's side of the store: which of its local ids are pool
/// entities, and what its tasks and VMs hold there.
#[derive(Default)]
struct ShardBook {
    /// Local datastore id → shared-datastore index.
    ds_index: BTreeMap<DatastoreId, usize>,
    /// Local host id → shared-host index.
    host_index: BTreeMap<HostId, usize>,
    /// Accepted commits whose task has not finished.
    open: BTreeMap<TaskId, Reservation>,
    /// Settled commits, held by the VM their task produced.
    held: BTreeMap<VmId, Reservation>,
}

/// The authoritative shared-pool commitment ledger.
pub struct PlacementStore {
    ds: Vec<SharedDs>,
    hosts: Vec<SharedHost>,
    books: Vec<ShardBook>,
    stats: StoreStats,
}

impl PlacementStore {
    /// Creates an empty ledger for `shards` control planes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a federation needs at least one shard");
        PlacementStore {
            ds: Vec::new(),
            hosts: Vec::new(),
            books: (0..shards).map(|_| ShardBook::default()).collect(),
            stats: StoreStats::default(),
        }
    }

    /// Number of shards this ledger serves.
    pub fn shards(&self) -> usize {
        self.books.len()
    }

    /// Registers a shared datastore of `cap_gb`; returns its index.
    pub fn add_shared_ds(&mut self, cap_gb: f64) -> usize {
        let shards = self.shards();
        self.ds.push(SharedDs {
            cap_gb,
            committed_gb: 0.0,
            contributed_gb: vec![0.0; shards],
            seeded_gb: vec![0.0; shards],
            mirrored_gb: vec![0.0; shards],
        });
        self.ds.len() - 1
    }

    /// Registers a shared host with `cap_mem_mb` of memory; returns its
    /// index.
    pub fn add_shared_host(&mut self, cap_mem_mb: u64) -> usize {
        let shards = self.shards();
        self.hosts.push(SharedHost {
            cap_mem_mb,
            committed_mem_mb: 0,
            contributed_mem_mb: vec![0; shards],
        });
        self.hosts.len() - 1
    }

    /// Records that shard `shard` knows shared datastore `idx` as `local`,
    /// and seeds `seeded_gb` of setup-time usage there (the template bases
    /// the shard installed) as that shard's contribution.
    ///
    /// # Panics
    ///
    /// Panics if the seeded usage exceeds the declared capacity.
    pub fn share_ds(&mut self, shard: usize, local: DatastoreId, idx: usize, seeded_gb: f64) {
        self.books[shard].ds_index.insert(local, idx);
        let d = &mut self.ds[idx];
        d.committed_gb += seeded_gb;
        d.contributed_gb[shard] += seeded_gb;
        d.seeded_gb[shard] += seeded_gb;
        assert!(
            d.committed_gb <= d.cap_gb + 1e-9,
            "shared datastore {idx} over-seeded: {} > {}",
            d.committed_gb,
            d.cap_gb
        );
    }

    /// Records that shard `shard` knows shared host `idx` as `local`.
    pub fn share_host(&mut self, shard: usize, local: HostId, idx: usize) {
        self.books[shard].host_index.insert(local, idx);
    }

    /// Authoritative committed space on shared datastore `idx`, GiB.
    pub fn committed_gb(&self, idx: usize) -> f64 {
        self.ds[idx].committed_gb
    }

    /// Authoritative free space on shared datastore `idx`, GiB.
    pub fn free_gb(&self, idx: usize) -> f64 {
        self.ds[idx].cap_gb - self.ds[idx].committed_gb
    }

    /// Commits `task`'s placement of `mem_mb` + `disk_gb` on shard
    /// `shard`'s local `(host, ds)`: on whichever of the two is in the
    /// shared pool, both or neither. A placement on home capacity only
    /// commits trivially.
    ///
    /// # Errors
    ///
    /// Returns the conflict reason when the authoritative free capacity
    /// no longer covers the reservation the shard's stale view promised.
    pub fn commit(
        &mut self,
        shard: usize,
        task: TaskId,
        host: HostId,
        ds: DatastoreId,
        mem_mb: u64,
        disk_gb: f64,
    ) -> Result<(), String> {
        let book = &self.books[shard];
        let r = Reservation {
            host: book.host_index.get(&host).copied(),
            ds: book.ds_index.get(&ds).copied(),
            mem_mb,
            disk_gb,
        };
        if r.host.is_none() && r.ds.is_none() {
            return Ok(());
        }
        if let Some(di) = r.ds {
            let d = &self.ds[di];
            if d.committed_gb + disk_gb > d.cap_gb + 1e-9 {
                self.stats.conflicts += 1;
                return Err(format!(
                    "placement conflict: shared datastore {di} has {:.1} GiB free, need {disk_gb:.1}",
                    d.cap_gb - d.committed_gb
                ));
            }
        }
        if let Some(hi) = r.host {
            let h = &self.hosts[hi];
            if h.committed_mem_mb + mem_mb > h.cap_mem_mb {
                self.stats.conflicts += 1;
                return Err(format!(
                    "placement conflict: shared host {hi} has {} MB free, need {mem_mb}",
                    h.cap_mem_mb - h.committed_mem_mb
                ));
            }
        }
        if let Some(di) = r.ds {
            let d = &mut self.ds[di];
            d.committed_gb += disk_gb;
            d.contributed_gb[shard] += disk_gb;
        }
        if let Some(hi) = r.host {
            let h = &mut self.hosts[hi];
            h.committed_mem_mb += mem_mb;
            h.contributed_mem_mb[shard] += mem_mb;
        }
        let prev = self.books[shard].open.insert(task, r);
        debug_assert!(prev.is_none(), "task {task} committed twice");
        self.stats.commits += 1;
        Ok(())
    }

    /// Settles `task`'s open commit on shard `shard`, if it made one:
    /// `kept` now holds the reservation, or with `None` it returns to the
    /// pool (the task failed and rolled back).
    pub fn settle(&mut self, shard: usize, task: TaskId, kept: Option<VmId>) {
        let Some(r) = self.books[shard].open.remove(&task) else {
            return;
        };
        match kept {
            Some(vm) => {
                self.books[shard].held.insert(vm, r);
            }
            None => self.free(shard, &r),
        }
    }

    /// Frees the reservation `vm` holds on shard `shard`, if any (the VM
    /// was destroyed).
    pub fn release(&mut self, shard: usize, vm: VmId) {
        if let Some(r) = self.books[shard].held.remove(&vm) {
            self.free(shard, &r);
        }
    }

    fn free(&mut self, shard: usize, r: &Reservation) {
        if let Some(di) = r.ds {
            let d = &mut self.ds[di];
            d.committed_gb = (d.committed_gb - r.disk_gb).max(0.0);
            d.contributed_gb[shard] = (d.contributed_gb[shard] - r.disk_gb).max(0.0);
        }
        if let Some(hi) = r.host {
            let h = &mut self.hosts[hi];
            h.committed_mem_mb = h.committed_mem_mb.saturating_sub(r.mem_mb);
            h.contributed_mem_mb[shard] = h.contributed_mem_mb[shard].saturating_sub(r.mem_mb);
        }
        self.stats.releases += 1;
    }

    /// Foreign commitment on shared datastore `idx` from shard `shard`'s
    /// point of view: what everyone else committed.
    fn foreign_gb(&self, shard: usize, idx: usize) -> f64 {
        let d = &self.ds[idx];
        d.committed_gb - d.contributed_gb[shard]
    }

    /// Folds the foreign commitment on every shared datastore into shard
    /// `shard`'s inventory mirror (a delta may be negative after
    /// releases), and counts one refresh.
    pub fn sync(&mut self, shard: usize, inv: &mut Inventory) {
        for (&local, &di) in &self.books[shard].ds_index {
            let foreign = self.foreign_gb(shard, di);
            let mirrored = &mut self.ds[di].mirrored_gb[shard];
            let delta = foreign - *mirrored;
            *mirrored = foreign;
            if delta != 0.0 {
                let _ = inv.adjust_datastore_usage(local, delta);
            }
        }
        self.stats.syncs += 1;
    }

    /// Whether shard `shard`'s local `host` or `ds` is in the shared pool.
    pub fn is_shared(&self, shard: usize, host: HostId, ds: DatastoreId) -> bool {
        let book = &self.books[shard];
        book.host_index.contains_key(&host) || book.ds_index.contains_key(&ds)
    }

    /// The VMs holding a reservation on shard `shard`, in id order.
    pub fn reserved_vms(&self, shard: usize) -> impl Iterator<Item = VmId> + '_ {
        self.books[shard].held.keys().copied()
    }

    /// Shard `shard`'s reservations, for tests that corrupt them.
    #[cfg(test)]
    pub(crate) fn held_mut(&mut self, shard: usize) -> &mut BTreeMap<VmId, Reservation> {
        &mut self.books[shard].held
    }

    /// Notes one cross-shard migration handoff.
    pub fn on_handoff(&mut self) {
        self.stats.handoffs += 1;
    }

    /// Ledger counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Verifies ledger conservation: every committed unit is attributed
    /// to exactly one shard; each shard's contribution to each shared
    /// entity is its seeds plus its open commits and reservations there;
    /// commitments never exceed capacity or go negative; and mirrors
    /// never exceed capacity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        // What each shard's books hold, per shared entity.
        let mut disk: Vec<Vec<f64>> = self.ds.iter().map(|d| d.seeded_gb.clone()).collect();
        let mut mem = vec![vec![0_u64; self.shards()]; self.hosts.len()];
        for (s, book) in self.books.iter().enumerate() {
            for r in book.open.values().chain(book.held.values()) {
                if let Some(di) = r.ds {
                    disk[di][s] += r.disk_gb;
                }
                if let Some(hi) = r.host {
                    mem[hi][s] += r.mem_mb;
                }
            }
        }
        for (i, d) in self.ds.iter().enumerate() {
            let sum: f64 = d.contributed_gb.iter().sum();
            if (sum - d.committed_gb).abs() > 1e-6 {
                return Err(format!(
                    "shared ds {i}: committed {:.6} != sum of contributions {:.6}",
                    d.committed_gb, sum
                ));
            }
            if d.committed_gb < -1e-9 || d.committed_gb > d.cap_gb + 1e-6 {
                return Err(format!(
                    "shared ds {i}: committed {:.6} outside [0, {:.1}]",
                    d.committed_gb, d.cap_gb
                ));
            }
            for (s, (&c, &booked)) in d.contributed_gb.iter().zip(&disk[i]).enumerate() {
                if (c - booked).abs() > 1e-6 {
                    return Err(format!(
                        "shared ds {i}: shard {s} contributes {c:.6} GiB, \
                         its seeds, commits and reservations hold {booked:.6}"
                    ));
                }
            }
            if d.mirrored_gb
                .iter()
                .any(|&m| m < -1e-9 || m > d.cap_gb + 1e-6)
            {
                return Err(format!("shared ds {i}: mirror outside [0, cap]"));
            }
        }
        for (i, h) in self.hosts.iter().enumerate() {
            let sum: u64 = h.contributed_mem_mb.iter().sum();
            if sum != h.committed_mem_mb {
                return Err(format!(
                    "shared host {i}: committed {} != sum of contributions {sum}",
                    h.committed_mem_mb
                ));
            }
            if h.committed_mem_mb > h.cap_mem_mb {
                return Err(format!("shared host {i}: memory over-committed"));
            }
            for (s, (&c, &booked)) in h.contributed_mem_mb.iter().zip(&mem[i]).enumerate() {
                if c != booked {
                    return Err(format!(
                        "shared host {i}: shard {s} contributes {c} MB, \
                         its commits and reservations hold {booked}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_inventory::EntityId;

    /// Shard-local ids: each shard knows shared datastore 0 as `ds(0)`
    /// and shared host 0 as `host(0)`; `home()` is in no pool.
    fn ds(i: u32) -> DatastoreId {
        DatastoreId::from_parts(i, 1)
    }
    fn host(i: u32) -> HostId {
        HostId::from_parts(i, 1)
    }
    fn home() -> HostId {
        HostId::from_parts(9, 1)
    }
    fn task(i: u32) -> TaskId {
        TaskId::from_parts(i, 1)
    }
    fn vm(i: u32) -> VmId {
        VmId::from_parts(i, 1)
    }

    /// A store of `shards` over one shared datastore of `cap_gb` (index
    /// 0, seeded with `seed_gb` per shard) and one shared host.
    fn store(shards: usize, cap_gb: f64, seed_gb: f64) -> PlacementStore {
        let mut st = PlacementStore::new(shards);
        let di = st.add_shared_ds(cap_gb);
        let hi = st.add_shared_host(4_096);
        for s in 0..shards {
            st.share_ds(s, ds(0), di, seed_gb);
            st.share_host(s, host(0), hi);
        }
        st
    }

    #[test]
    fn two_shards_race_one_winner() {
        let mut st = store(2, 100.0, 49.0);
        // 2 GiB free; both shards' stale views still show room for 2.
        assert!(st.commit(0, task(1), home(), ds(0), 2_048, 2.0).is_ok());
        let err = st
            .commit(1, task(1), home(), ds(0), 2_048, 2.0)
            .unwrap_err();
        assert!(err.contains("conflict"), "{err}");
        assert_eq!(st.stats().commits, 1);
        assert_eq!(st.stats().conflicts, 1);
        // No double booking: committed stays within capacity.
        assert!(st.committed_gb(0) <= 100.0);
        st.check_invariants().unwrap();
        // The loser's refreshed mirror now sees the winner's commit.
        assert!((st.foreign_gb(1, 0) - 51.0).abs() < 1e-9);
    }

    #[test]
    fn release_restores_capacity_without_leaks() {
        let mut st = store(2, 10.0, 0.0);
        st.commit(0, task(1), host(0), ds(0), 1_024, 10.0).unwrap();
        assert!(st.commit(1, task(1), home(), ds(0), 0, 1.0).is_err());
        st.settle(0, task(1), Some(vm(1)));
        st.check_invariants().unwrap();
        assert_eq!(st.reserved_vms(0).collect::<Vec<_>>(), [vm(1)]);
        st.release(0, vm(1));
        st.check_invariants().unwrap();
        assert!((st.free_gb(0) - 10.0).abs() < 1e-9);
        assert!(st.commit(1, task(1), home(), ds(0), 0, 1.0).is_ok());
        st.check_invariants().unwrap();
    }

    #[test]
    fn sync_mirrors_foreign_commits_only() {
        let mut st = store(2, 100.0, 0.0);
        let mut inv = Inventory::new();
        let local = inv.add_datastore(cpsim_inventory::DatastoreSpec::new("shared", 100.0, 200.0));
        assert_eq!(local, ds(0));
        st.commit(0, task(1), home(), ds(0), 0, 5.0).unwrap();
        st.commit(1, task(1), home(), ds(0), 0, 3.0).unwrap();
        // Shard 0 mirrors only shard 1's 3 GiB.
        st.sync(0, &mut inv);
        assert!((inv.datastore(local).unwrap().used_gb - 3.0).abs() < 1e-9);
        // Nothing new since: the mirror stays put.
        st.sync(0, &mut inv);
        assert!((inv.datastore(local).unwrap().used_gb - 3.0).abs() < 1e-9);
        // Shard 1's task fails: its commit returns to the pool.
        st.settle(1, task(1), None);
        st.sync(0, &mut inv);
        assert!(inv.datastore(local).unwrap().used_gb.abs() < 1e-9);
        assert_eq!(st.stats().syncs, 3);
        st.check_invariants().unwrap();
    }

    #[test]
    fn home_placements_never_reach_the_books() {
        let mut st = store(2, 10.0, 0.0);
        st.commit(0, task(1), home(), ds(7), 512, 5.0).unwrap();
        st.settle(0, task(1), Some(vm(1)));
        assert_eq!(st.stats().commits, 0);
        assert_eq!(st.reserved_vms(0).count(), 0);
        assert!(!st.is_shared(0, home(), ds(7)));
        assert!(st.is_shared(0, home(), ds(0)) && st.is_shared(0, host(0), ds(7)));
    }

    /// Two commits on one `(host, ds)` pair settle by task: whichever
    /// finishes first keeps its own size, and destroying its VM frees
    /// exactly that.
    #[test]
    fn settlement_follows_the_task_not_the_placement() {
        let mut st = store(1, 100.0, 20.0);
        st.commit(0, task(1), home(), ds(0), 0, 20.0).unwrap();
        st.commit(0, task(2), home(), ds(0), 0, 1.0).unwrap();
        st.settle(0, task(2), Some(vm(2)));
        st.release(0, vm(2));
        assert!((st.committed_gb(0) - 40.0).abs() < 1e-9);
        st.check_invariants().unwrap();
        st.settle(0, task(1), Some(vm(1)));
        st.release(0, vm(1));
        assert!((st.committed_gb(0) - 20.0).abs() < 1e-9);
        st.check_invariants().unwrap();
    }

    #[test]
    fn invariants_tie_contributions_to_the_books() {
        let mut st = store(2, 100.0, 10.0);
        st.commit(0, task(1), host(0), ds(0), 512, 4.0).unwrap();
        st.settle(0, task(1), Some(vm(1)));
        st.check_invariants().unwrap();
        // A reservation dropped without freeing its capacity.
        let r = st.books[0].held.remove(&vm(1)).unwrap();
        let err = st.check_invariants().unwrap_err();
        assert!(err.contains("shard 0 contributes 14.0"), "{err}");
        // Freed twice: the contribution falls below the books.
        st.books[0].held.insert(vm(1), r);
        st.free(0, &r);
        let err = st.check_invariants().unwrap_err();
        assert!(err.contains("shard 0 contributes 10.0"), "{err}");
    }
}
