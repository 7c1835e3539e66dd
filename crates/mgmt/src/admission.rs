//! Admission control: global / per-host / per-datastore concurrency limits
//! and per-VM operation locks, with a FIFO pending queue.
//!
//! The pending queue is event-driven: each parked task records the first
//! resource that blocked it, and a release only re-offers the tasks whose
//! recorded blocker was actually freed. This is exact with respect to the
//! naive "rescan everything in FIFO order" drain because acquisitions never
//! free capacity — a task whose recorded blocker has not been released since
//! it was recorded still cannot be admitted. Re-offered tasks are processed
//! in arrival order merged across blockers, so the greedy FIFO admission
//! semantics (and therefore every simulation trace) are unchanged; only the
//! per-release cost drops from O(pending) to O(affected).

use std::collections::{BTreeMap, BTreeSet};

use cpsim_des::FastMap;

use cpsim_des::SlotPool;
use cpsim_inventory::{DatastoreId, HostId, TaskId, VmId};

use crate::config::AdmissionLimits;

/// The resources an operation must hold while executing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scope {
    /// Host whose agent the operation occupies.
    pub host: Option<HostId>,
    /// Second host (migration destination).
    pub host2: Option<HostId>,
    /// Datastore the operation provisions onto / copies into.
    pub datastore: Option<DatastoreId>,
    /// VMs that must be exclusively locked for the duration.
    pub vms: Vec<VmId>,
    /// VMs locked in shared mode (e.g. clone sources: many concurrent
    /// clones may read one template, but none while an exclusive op runs).
    pub vms_shared: Vec<VmId>,
}

impl Scope {
    /// A scope touching nothing but the global limit.
    pub fn global_only() -> Self {
        Scope::default()
    }

    /// Builder: sets the host.
    pub fn with_host(mut self, host: HostId) -> Self {
        self.host = Some(host);
        self
    }

    /// Builder: sets the second host.
    pub fn with_host2(mut self, host: HostId) -> Self {
        self.host2 = Some(host);
        self
    }

    /// Builder: sets the datastore.
    pub fn with_datastore(mut self, ds: DatastoreId) -> Self {
        self.datastore = Some(ds);
        self
    }

    /// Builder: adds an exclusive VM lock.
    pub fn with_vm(mut self, vm: VmId) -> Self {
        self.vms.push(vm);
        self
    }

    /// Builder: adds a shared VM lock.
    pub fn with_vm_shared(mut self, vm: VmId) -> Self {
        self.vms_shared.push(vm);
        self
    }
}

/// State of one VM's operation lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VmLock {
    Exclusive,
    Shared(u32),
}

/// One concrete resource a parked task is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Blocker {
    Global,
    Host(HostId),
    Datastore(DatastoreId),
    Vm(VmId),
}

/// Admission control state.
#[derive(Debug)]
pub struct AdmissionControl {
    limits: AdmissionLimits,
    global: SlotPool,
    /// The three capacity tables are keyed lookups on the acquire/release
    /// hot path and are never iterated, so hash ordering cannot leak into
    /// event order. The pending-queue structures below stay ordered: FIFO
    /// offer order is observable.
    // cpsim-lint: allow(no-unordered-iteration): keyed get/insert/remove only; iteration order is never observed
    per_host: FastMap<HostId, SlotPool>,
    per_ds: FastMap<DatastoreId, SlotPool>,
    vm_locks: FastMap<VmId, VmLock>,
    /// Parked tasks keyed by arrival sequence; ascending key order is the
    /// FIFO offer order. Each entry remembers the blocker it waits on.
    pending: BTreeMap<u64, (TaskId, Scope, Blocker)>,
    /// Reverse index: blocker -> arrival sequences of the tasks parked on it.
    blocked_on: BTreeMap<Blocker, BTreeSet<u64>>,
    /// Resources released since the last drain (dirty set).
    freed: BTreeSet<Blocker>,
    next_seq: u64,
    parked_total: u64,
    peak_pending: usize,
}

impl AdmissionControl {
    /// Creates admission control with the given limits.
    pub fn new(limits: AdmissionLimits) -> Self {
        AdmissionControl {
            limits,
            global: SlotPool::new(limits.global),
            per_host: FastMap::default(),
            per_ds: FastMap::default(),
            vm_locks: FastMap::default(),
            pending: BTreeMap::new(),
            blocked_on: BTreeMap::new(),
            freed: BTreeSet::new(),
            next_seq: 0,
            parked_total: 0,
            peak_pending: 0,
        }
    }

    /// Attempts to acquire everything in `scope` atomically (all or
    /// nothing). On failure the caller should [`park`](Self::park).
    pub fn try_acquire(&mut self, scope: &Scope) -> bool {
        if self.first_blocker(scope).is_some() {
            return false;
        }
        assert!(self.global.try_acquire(), "first_blocker said yes");
        for host in scope.host.iter().chain(scope.host2.iter()) {
            let ok = self
                .per_host
                .entry(*host)
                .or_insert_with(|| SlotPool::new(self.limits.per_host))
                .try_acquire();
            assert!(ok, "first_blocker said yes");
        }
        if let Some(ds) = scope.datastore {
            let ok = self
                .per_ds
                .entry(ds)
                .or_insert_with(|| SlotPool::new(self.limits.per_datastore))
                .try_acquire();
            assert!(ok, "first_blocker said yes");
        }
        for vm in &scope.vms {
            let prev = self.vm_locks.insert(*vm, VmLock::Exclusive);
            assert!(prev.is_none(), "first_blocker said yes");
        }
        for vm in &scope.vms_shared {
            let lock = self.vm_locks.entry(*vm).or_insert(VmLock::Shared(0));
            assert!(!matches!(lock, VmLock::Exclusive), "first_blocker said yes");
            if let VmLock::Shared(n) = lock {
                *n += 1;
            }
        }
        true
    }

    /// Parks a task whose scope could not be acquired; it will be offered
    /// again by [`release`](Self::release) once its blocker frees up.
    pub fn park(&mut self, task: TaskId, scope: Scope) {
        let blocker = match self.first_blocker(&scope) {
            Some(b) => b,
            None => {
                // Defensive: a task parked while admissible must still be
                // offered at the next drain, so mark its blocker dirty.
                self.freed.insert(Blocker::Global);
                Blocker::Global
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.blocked_on.entry(blocker).or_default().insert(seq);
        self.pending.insert(seq, (task, scope, blocker));
        self.parked_total += 1;
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Releases `scope` and re-offers parked tasks in FIFO order,
    /// returning those whose scopes were acquired now (with the scope each
    /// now holds).
    pub fn release(&mut self, scope: &Scope) -> Vec<(TaskId, Scope)> {
        self.release_only(scope);
        self.drain_pending()
    }

    /// Releases `scope` without draining (used when the releasing task
    /// immediately acquires a new scope). The freed resources stay marked
    /// dirty until the next drain.
    pub fn release_only(&mut self, scope: &Scope) {
        self.global.release();
        self.freed.insert(Blocker::Global);
        for host in scope.host.iter().chain(scope.host2.iter()) {
            self.per_host
                .get_mut(host)
                .expect("releasing unheld host slot")
                .release();
            self.freed.insert(Blocker::Host(*host));
        }
        if let Some(ds) = scope.datastore {
            self.per_ds
                .get_mut(&ds)
                .expect("releasing unheld datastore slot")
                .release();
            self.freed.insert(Blocker::Datastore(ds));
        }
        for vm in &scope.vms {
            let removed = self.vm_locks.remove(vm);
            assert_eq!(
                removed,
                Some(VmLock::Exclusive),
                "releasing unheld exclusive vm lock"
            );
            self.freed.insert(Blocker::Vm(*vm));
        }
        for vm in &scope.vms_shared {
            match self.vm_locks.get_mut(vm) {
                Some(VmLock::Shared(n)) if *n > 1 => *n -= 1,
                Some(VmLock::Shared(_)) => {
                    self.vm_locks.remove(vm);
                }
                // cpsim-lint: allow(panic-reachability): a double-release means the lock table is already corrupt; aborting beats silently leaking capacity
                other => panic!("releasing unheld shared vm lock: {other:?}"),
            }
            self.freed.insert(Blocker::Vm(*vm));
        }
    }

    /// Re-offers the parked tasks whose recorded blocker was freed since
    /// the last drain, in FIFO order; returns the admitted ones with the
    /// scope each now holds. Tasks whose blocker was not freed cannot be
    /// admitted (acquisitions only consume capacity) and are not touched.
    ///
    /// The freed buckets are consumed through a lazy k-way merge in arrival
    /// order (cross-blocker FIFO matters: admissions consume shared
    /// resources). The moment a freed resource is exhausted again — usually
    /// after the first admission takes it back — every remaining waiter in
    /// its bucket must fail, so the whole bucket is skipped untouched. The
    /// drain therefore costs O(admitted + re-recorded), not O(bucket).
    pub fn drain_pending(&mut self) -> Vec<(TaskId, Scope)> {
        let mut admitted = Vec::new();
        if self.pending.is_empty() {
            self.freed.clear();
            return admitted;
        }
        if self.freed.is_empty() {
            return admitted;
        }
        let freed = std::mem::take(&mut self.freed);
        // One cursor per freed blocker with waiters: the arrival sequence of
        // the next waiter to offer from that bucket. Each pending task lives
        // in exactly one bucket, so the merge visits no task twice.
        let mut cursors: Vec<(u64, Blocker)> = Vec::with_capacity(freed.len());
        for b in freed {
            if let Some(&seq) = self.blocked_on.get(&b).and_then(|s| s.iter().next()) {
                cursors.push((seq, b));
            }
        }
        while let Some(i) = cursors
            .iter()
            .enumerate()
            .min_by_key(|(_, &(seq, _))| seq)
            .map(|(i, _)| i)
        {
            let (seq, blocker) = cursors[i];
            if !self.blocker_available(blocker) {
                // Zero free capacity: every waiter in this bucket needs at
                // least one unit, so none can be admitted. They keep their
                // recorded blocker and will be re-offered when it frees.
                cursors.swap_remove(i);
                continue;
            }
            let (_, scope, _) = self.pending.get(&seq).expect("blocked_on out of sync");
            match self.first_blocker(scope) {
                None => {
                    let (task, scope, _) = self.pending.remove(&seq).expect("just looked up");
                    Self::unindex(&mut self.blocked_on, blocker, seq);
                    let ok = self.try_acquire(&scope);
                    debug_assert!(ok, "first_blocker said admissible");
                    admitted.push((task, scope));
                }
                Some(new_blocker) => {
                    if new_blocker != blocker {
                        // The freed resource has room but a deeper one is
                        // exhausted; wait on that one instead so its release
                        // (not this one's) re-offers the task.
                        self.move_blocker(seq, blocker, new_blocker);
                    }
                }
            }
            // Advance this cursor past the visited task (it was admitted,
            // re-recorded elsewhere, or legitimately left in place).
            match self
                .blocked_on
                .get(&blocker)
                .and_then(|s| s.range(seq + 1..).next())
            {
                Some(&next) => cursors[i].0 = next,
                None => {
                    cursors.swap_remove(i);
                }
            }
        }
        admitted
    }

    /// Number of tasks currently parked.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Largest pending-queue length observed.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Total park events (admission backpressure).
    pub fn parked_total(&self) -> u64 {
        self.parked_total
    }

    /// Operations currently holding the global limit.
    pub fn in_flight(&self) -> u32 {
        self.global.in_use()
    }

    /// Whether `vm` is currently locked by any operation.
    pub fn is_vm_locked(&self, vm: VmId) -> bool {
        self.vm_locks.contains_key(&vm)
    }

    /// Number of VMs currently holding any lock (exclusive or shared).
    /// Zero once all work has drained — locks must never leak, even
    /// through retry/abort/rollback paths.
    pub fn vm_locks_held(&self) -> usize {
        self.vm_locks.len()
    }

    fn unindex(blocked_on: &mut BTreeMap<Blocker, BTreeSet<u64>>, blocker: Blocker, seq: u64) {
        if let Some(set) = blocked_on.get_mut(&blocker) {
            set.remove(&seq);
            if set.is_empty() {
                blocked_on.remove(&blocker);
            }
        }
    }

    fn move_blocker(&mut self, seq: u64, from: Blocker, to: Blocker) {
        Self::unindex(&mut self.blocked_on, from, seq);
        self.blocked_on.entry(to).or_default().insert(seq);
        if let Some(entry) = self.pending.get_mut(&seq) {
            entry.2 = to;
        }
    }

    /// Whether `b` has any capacity at all — i.e. whether *some* waiter
    /// could conceivably pass it. A `false` answer lets the drain skip the
    /// blocker's whole bucket: every waiter there needs at least one unit.
    fn blocker_available(&self, b: Blocker) -> bool {
        match b {
            Blocker::Global => self.global.has_capacity(),
            Blocker::Host(h) => self
                .per_host
                .get(&h)
                .is_none_or(|p| p.in_use() < self.limits.per_host),
            Blocker::Datastore(d) => self
                .per_ds
                .get(&d)
                .is_none_or(|p| p.in_use() < self.limits.per_datastore),
            // A shared lock still admits shared waiters, so only an
            // exclusive lock makes the bucket hopeless.
            Blocker::Vm(v) => !matches!(self.vm_locks.get(&v), Some(VmLock::Exclusive)),
        }
    }

    fn host_has_room(&self, host: HostId, need: u32) -> bool {
        let used = self.per_host.get(&host).map_or(0, |p| p.in_use());
        used + need <= self.limits.per_host
    }

    /// The first exhausted resource `scope` needs, or `None` if the whole
    /// scope can be acquired right now. Checks the dimensions in the same
    /// order the acquisition path consumes them; any exhausted required
    /// resource is a sound blocker to wait on.
    fn first_blocker(&self, scope: &Scope) -> Option<Blocker> {
        if !self.global.has_capacity() {
            return Some(Blocker::Global);
        }
        // Two hosts in one scope need two distinct slots (or two from the
        // same pool when equal).
        match (scope.host, scope.host2) {
            (Some(a), Some(b)) if a == b => {
                if !self.host_has_room(a, 2) {
                    return Some(Blocker::Host(a));
                }
            }
            (a, b) => {
                for host in a.iter().chain(b.iter()) {
                    if !self.host_has_room(*host, 1) {
                        return Some(Blocker::Host(*host));
                    }
                }
            }
        }
        if let Some(ds) = scope.datastore {
            let used = self.per_ds.get(&ds).map_or(0, |p| p.in_use());
            if used + 1 > self.limits.per_datastore {
                return Some(Blocker::Datastore(ds));
            }
        }
        for vm in &scope.vms {
            if self.vm_locks.contains_key(vm) {
                return Some(Blocker::Vm(*vm));
            }
        }
        for vm in &scope.vms_shared {
            if matches!(self.vm_locks.get(vm), Some(VmLock::Exclusive)) || scope.vms.contains(vm) {
                return Some(Blocker::Vm(*vm));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_inventory::EntityId;

    fn ids() -> (HostId, DatastoreId, VmId, TaskId, TaskId) {
        (
            HostId::from_parts(0, 1),
            DatastoreId::from_parts(0, 1),
            VmId::from_parts(0, 1),
            TaskId::from_parts(0, 1),
            TaskId::from_parts(1, 1),
        )
    }

    fn small_limits() -> AdmissionLimits {
        AdmissionLimits {
            global: 4,
            per_host: 2,
            per_datastore: 1,
        }
    }

    #[test]
    fn acquires_and_releases_all_dimensions() {
        let (h, ds, vm, _t1, _t2) = ids();
        let mut ac = AdmissionControl::new(small_limits());
        let scope = Scope::global_only()
            .with_host(h)
            .with_datastore(ds)
            .with_vm(vm);
        assert!(ac.try_acquire(&scope));
        assert_eq!(ac.in_flight(), 1);
        assert!(ac.is_vm_locked(vm));
        assert_eq!(ac.vm_locks_held(), 1);
        ac.release(&scope);
        assert_eq!(ac.in_flight(), 0);
        assert!(!ac.is_vm_locked(vm));
        assert_eq!(ac.vm_locks_held(), 0);
    }

    #[test]
    fn per_datastore_limit_blocks_second_op() {
        let (h, ds, _vm, t1, _t2) = ids();
        let mut ac = AdmissionControl::new(small_limits());
        let scope = Scope::global_only().with_host(h).with_datastore(ds);
        assert!(ac.try_acquire(&scope));
        assert!(!ac.try_acquire(&scope), "per-datastore limit is 1");
        ac.park(t1, scope.clone());
        assert_eq!(ac.pending_len(), 1);
        let admitted = ac.release(&scope);
        assert_eq!(admitted, vec![(t1, scope.clone())]);
        assert_eq!(ac.pending_len(), 0);
        assert_eq!(ac.parked_total(), 1);
    }

    #[test]
    fn vm_lock_is_exclusive() {
        let (_h, _ds, vm, _t1, _t2) = ids();
        let mut ac = AdmissionControl::new(small_limits());
        let a = Scope::global_only().with_vm(vm);
        assert!(ac.try_acquire(&a));
        assert!(!ac.try_acquire(&a));
        ac.release(&a);
        assert!(ac.try_acquire(&a));
    }

    #[test]
    fn all_or_nothing_acquisition() {
        let (h, ds, vm, _t1, _t2) = ids();
        let mut ac = AdmissionControl::new(small_limits());
        // Lock the VM via a different scope.
        let lock = Scope::global_only().with_vm(vm);
        assert!(ac.try_acquire(&lock));
        // A compound scope that would fit except for the VM lock must not
        // consume host/ds slots.
        let compound = Scope::global_only()
            .with_host(h)
            .with_datastore(ds)
            .with_vm(vm);
        assert!(!ac.try_acquire(&compound));
        // Host and datastore are untouched: a sibling scope still fits.
        let sibling = Scope::global_only().with_host(h).with_datastore(ds);
        assert!(ac.try_acquire(&sibling));
    }

    #[test]
    fn migration_scope_needs_two_host_slots() {
        let (h, _ds, _vm, _t1, _t2) = ids();
        let mut ac = AdmissionControl::new(AdmissionLimits {
            global: 10,
            per_host: 1,
            per_datastore: 10,
        });
        // Same host twice (degenerate migration): needs 2 slots but limit 1.
        let degenerate = Scope::global_only().with_host(h).with_host2(h);
        assert!(!ac.try_acquire(&degenerate));
        // Distinct hosts each take one slot.
        let h2 = HostId::from_parts(1, 1);
        let scope = Scope::global_only().with_host(h).with_host2(h2);
        assert!(ac.try_acquire(&scope));
        ac.release(&scope);
    }

    #[test]
    fn drain_preserves_fifo_order() {
        let (h, ds, _vm, t1, t2) = ids();
        let mut ac = AdmissionControl::new(AdmissionLimits {
            global: 10,
            per_host: 10,
            per_datastore: 1,
        });
        let scope = Scope::global_only().with_host(h).with_datastore(ds);
        assert!(ac.try_acquire(&scope));
        ac.park(t1, scope.clone());
        ac.park(t2, scope.clone());
        // Releasing one slot admits exactly the first parked task.
        let admitted = ac.release(&scope);
        assert_eq!(admitted, vec![(t1, scope.clone())]);
        assert_eq!(ac.pending_len(), 1);
        assert_eq!(ac.peak_pending(), 2);
    }

    #[test]
    fn drain_merges_fifo_order_across_blockers() {
        // t1 (arrived first) parks on host B, t2 parks on host A, and both
        // also need the last slot of a shared datastore. Releasing both
        // hosts in one drain must admit t1, not t2 — even though host A
        // sorts before host B in blocker order, arrival order wins.
        let ha = HostId::from_parts(0, 1);
        let hb = HostId::from_parts(1, 1);
        let d = DatastoreId::from_parts(0, 1);
        let (t1, t2) = (TaskId::from_parts(0, 1), TaskId::from_parts(1, 1));
        let mut ac = AdmissionControl::new(AdmissionLimits {
            global: 10,
            per_host: 1,
            per_datastore: 2,
        });
        let holder_a = Scope::global_only().with_host(ha);
        let holder_b = Scope::global_only().with_host(hb);
        let ds_filler = Scope::global_only().with_datastore(d);
        assert!(ac.try_acquire(&holder_a));
        assert!(ac.try_acquire(&holder_b));
        assert!(ac.try_acquire(&ds_filler));
        let want_b = Scope::global_only().with_host(hb).with_datastore(d);
        let want_a = Scope::global_only().with_host(ha).with_datastore(d);
        ac.park(t1, want_b.clone()); // blocked on host B
        ac.park(t2, want_a.clone()); // blocked on host A
                                     // Free both hosts; only one datastore slot remains, so only one of
                                     // the two waiters can go — it must be t1.
        ac.release_only(&holder_a);
        let admitted = ac.release(&holder_b);
        assert_eq!(admitted, vec![(t1, want_b)]);
        assert_eq!(ac.pending_len(), 1);
    }

    #[test]
    fn parked_task_re_records_deeper_blocker() {
        // A task blocked on a host gets rechecked when the host frees but
        // then waits on the datastore; freeing the datastore admits it.
        let (h, ds, _vm, t1, _t2) = ids();
        let mut ac = AdmissionControl::new(AdmissionLimits {
            global: 10,
            per_host: 1,
            per_datastore: 1,
        });
        let host_holder = Scope::global_only().with_host(h);
        let ds_holder = Scope::global_only().with_datastore(ds);
        assert!(ac.try_acquire(&host_holder));
        assert!(ac.try_acquire(&ds_holder));
        let want = Scope::global_only().with_host(h).with_datastore(ds);
        assert!(!ac.try_acquire(&want));
        ac.park(t1, want.clone());
        // Freeing the host is not enough: the datastore still blocks.
        assert!(ac.release(&host_holder).is_empty());
        assert_eq!(ac.pending_len(), 1);
        // Freeing the datastore now admits the waiter.
        let admitted = ac.release(&ds_holder);
        assert_eq!(admitted, vec![(t1, want)]);
        assert_eq!(ac.pending_len(), 0);
    }

    #[test]
    fn global_exhaustion_reparks_waiters_on_global() {
        // While the global pool is exhausted, freed per-resource waiters
        // re-park on the global blocker and are admitted once a global
        // slot opens.
        let (h, _ds, _vm, t1, _t2) = ids();
        let mut ac = AdmissionControl::new(AdmissionLimits {
            global: 3,
            per_host: 1,
            per_datastore: 8,
        });
        let host_holder = Scope::global_only().with_host(h);
        let filler = Scope::global_only();
        assert!(ac.try_acquire(&host_holder));
        assert!(ac.try_acquire(&filler));
        // Global still has room, so the waiter records the host blocker.
        let want = Scope::global_only().with_host(h);
        ac.park(t1, want.clone());
        // Free the host while simultaneously exhausting the global pool:
        // release the host holder, then consume two global slots before
        // draining.
        ac.release_only(&host_holder);
        assert!(ac.try_acquire(&filler));
        assert!(ac.try_acquire(&filler));
        assert!(ac.drain_pending().is_empty(), "global pool is exhausted");
        // A plain global release now admits the waiter.
        let admitted = ac.release(&filler);
        assert_eq!(admitted, vec![(t1, want)]);
    }

    #[test]
    fn shared_locks_allow_concurrent_clones_but_block_exclusive() {
        let (_h, _ds, vm, _t1, _t2) = ids();
        let mut ac = AdmissionControl::new(AdmissionLimits {
            global: 10,
            per_host: 10,
            per_datastore: 10,
        });
        let reader = Scope::global_only().with_vm_shared(vm);
        // Many concurrent shared holders.
        assert!(ac.try_acquire(&reader));
        assert!(ac.try_acquire(&reader));
        assert!(ac.try_acquire(&reader));
        assert!(ac.is_vm_locked(vm));
        // An exclusive op must wait for all readers.
        let writer = Scope::global_only().with_vm(vm);
        assert!(!ac.try_acquire(&writer));
        ac.release_only(&reader);
        ac.release_only(&reader);
        assert!(!ac.try_acquire(&writer), "one reader still holds");
        ac.release_only(&reader);
        assert!(ac.try_acquire(&writer));
        // And readers must wait for the writer.
        assert!(!ac.try_acquire(&reader));
        ac.release_only(&writer);
        assert!(ac.try_acquire(&reader));
        ac.release_only(&reader);
        assert!(!ac.is_vm_locked(vm));
    }

    #[test]
    fn mixed_scope_cannot_hold_same_vm_shared_and_exclusive() {
        let (_h, _ds, vm, _t1, _t2) = ids();
        let mut ac = AdmissionControl::new(AdmissionLimits {
            global: 10,
            per_host: 10,
            per_datastore: 10,
        });
        let weird = Scope::global_only().with_vm(vm).with_vm_shared(vm);
        assert!(!ac.try_acquire(&weird), "self-conflicting scope rejected");
    }

    #[test]
    fn global_limit_applies_to_scopeless_ops() {
        let mut ac = AdmissionControl::new(AdmissionLimits {
            global: 1,
            per_host: 8,
            per_datastore: 8,
        });
        assert!(ac.try_acquire(&Scope::global_only()));
        assert!(!ac.try_acquire(&Scope::global_only()));
    }
}
