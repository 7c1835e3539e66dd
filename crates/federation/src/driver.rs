//! The [`FedSim`] driver: N control-plane shards, each on its own
//! discrete-event kernel, coordinating through the shared
//! [`PlacementStore`](crate::store::PlacementStore).
//!
//! Each shard is a full [`MgmtStack`] — plane, director, trace — the
//! same stack the single-plane driver runs, on a **private** event
//! queue. The canonical event order of a federated run is ascending
//! `(virtual time, shard index, per-shard sequence)`; a coordinator
//! pseudo-shard (index = shard count) carries the cross-shard migration
//! machinery and sorts after every real shard at equal time. Because the
//! order is defined per shard rather than by a global arrival sequence,
//! it is *independent of how the shards are executed*: the sequential
//! scan loop (the oracle) and the conservative parallel runner (the
//! private `runner` module) produce byte-identical results.
//!
//! The one thing the federation adds to each stack is its report hook,
//! the shard's ledger (`ShardLedger`). It sees every finished task after
//! the stack has traced it:
//!
//! - **Ledger settlement**: when a gated placement's task completes, its
//!   [`OpenCommit`] is settled — kept as a reservation on success,
//!   released back to the pool on failure or rollback. Destroying the VM
//!   later releases the reservation. Settlement only touches the store
//!   for placements on shared ids; home placements stay shard-private.
//! - **Migration diversion**: reports tagged at or above
//!   [`MIG_TAG_BASE`] go to the coordinator instead of the director.
//!
//! Around the stacks the federation drives two protocols:
//!
//! 1. **Sync ticks** ([`ShardEvent::StoreSync`]): every staleness
//!    window, each shard folds foreign commits on the shared pool into
//!    its local inventory mirror (and pays CPU/DB time for the refresh).
//! 2. **Cross-shard migration**: a two-phase evacuate → handoff → admit
//!    protocol driven by tagged raw operations. Runs with migrations
//!    scheduled execute sequentially: migration events hop between
//!    shards and would invalidate the lookahead the parallel runner
//!    relies on.

use std::sync::Arc;

use cpsim_cloud::{CloudDirector, CloudReport, CloudRequest};
use cpsim_des::{EventQueue, FastMap, Model, SimDuration, SimTime, Simulation};
use cpsim_inventory::{DatastoreId, HostId, OrgId, VappId, VmId};
use cpsim_mgmt::{CloneMode, ControlPlane, MgmtEvent, OpKind, Operation, TaskReport};
use cpsim_workload::{MgmtStack, ReportHook, StackEvent, TraceLog};

use crate::runner;
use crate::store::{OpenCommit, StoreStats};
use crate::turnstile::StoreCell;

/// Task tags at or above this value are reserved for migration
/// operations; the cloud director never sees their reports.
pub const MIG_TAG_BASE: u64 = 1 << 60;

/// Events on one shard's private queue.
#[derive(Debug)]
pub enum ShardEvent {
    /// A management-plane event.
    Mgmt(MgmtEvent),
    /// A vApp lease expired.
    Lease(VappId),
    /// An externally-scheduled cloud request.
    Request(CloudRequest),
    /// An externally-scheduled raw operation.
    Op(OpKind),
    /// The periodic placement-store refresh (self-rescheduling).
    StoreSync,
    /// Migration phase 1, injected by the coordinator: evacuate `vm`.
    MigrateEvacuate {
        /// Migration id.
        id: u64,
        /// The VM to destroy on this (source) shard.
        vm: VmId,
    },
    /// Migration phase 2, injected by the coordinator after the
    /// placement-store handoff: admit on this (destination) shard.
    MigrateAdmit(u64),
}

impl StackEvent for ShardEvent {
    fn mgmt(event: MgmtEvent) -> Self {
        ShardEvent::Mgmt(event)
    }

    fn lease(vapp: VappId) -> Self {
        ShardEvent::Lease(vapp)
    }
}

/// Events on the coordinator pseudo-shard's queue.
#[derive(Debug)]
enum CoordEvent {
    /// Phase 1 of a cross-shard migration: evacuate from the source.
    MigrateStart(u64),
    /// Phase 2: placement-store handoff, then admit on the destination.
    MigrateHandoff(u64),
}

/// The federation's report hook on one shard's stack: settles the
/// shared-pool ledger for every finished task and diverts
/// migration-tagged reports from the director to the coordinator.
pub(crate) struct ShardLedger {
    pub(crate) shard: usize,
    pub(crate) cell: Arc<StoreCell>,
    /// Local ids belonging to the shared pool: placements touching
    /// neither set never recorded an [`OpenCommit`], so settlement can
    /// skip the store (and the turnstile) entirely.
    pub(crate) shared_hosts: Vec<HostId>,
    pub(crate) shared_ds: Vec<DatastoreId>,
    /// Open ledger reservations held by completed placements, keyed by
    /// VM so a later destroy releases the shared capacity.
    // cpsim-lint: allow(no-unordered-iteration): keyed insert/remove only; never iterated
    pub(crate) reservations: FastMap<VmId, OpenCommit>,
    /// Completed migration-tagged task reports, drained by the
    /// coordinator after each sequential step (empty in threaded runs).
    pub(crate) mig_outbox: Vec<TaskReport>,
}

impl ShardLedger {
    /// Settles the shared-pool ledger for a finished task.
    fn settle_ledger(&mut self, now: SimTime, r: &TaskReport) {
        match r.kind {
            "create-vm" | "clone-full" | "clone-linked" => {
                let Some((host, ds)) = r.placement else {
                    return;
                };
                if !self.shared_hosts.contains(&host) && !self.shared_ds.contains(&ds) {
                    // Home placement: the gate never recorded an open
                    // commit, so there is nothing to settle — and no
                    // reason to serialize through the turnstile.
                    return;
                }
                let shard = self.shard;
                let succeeded = r.error.is_none() && !r.aborted;
                let keep = self.cell.with(shard, now.as_micros(), |st| {
                    let oc = st.take_open(shard, host, ds)?;
                    match (succeeded, r.produced_vm) {
                        (true, Some(vm)) => Some((vm, oc)),
                        _ => {
                            st.release(shard, &oc);
                            None
                        }
                    }
                });
                if let Some((vm, oc)) = keep {
                    self.reservations.insert(vm, oc);
                }
            }
            "destroy-vm" => {
                let Some(vm) = r.target_vm else { return };
                if r.error.is_none() && !r.aborted {
                    if let Some(oc) = self.reservations.remove(&vm) {
                        let shard = self.shard;
                        self.cell
                            .with(shard, now.as_micros(), |st| st.release(shard, &oc));
                    }
                }
            }
            _ => {}
        }
    }
}

impl ReportHook for ShardLedger {
    fn on_report(&mut self, now: SimTime, r: TaskReport) -> Option<TaskReport> {
        self.settle_ledger(now, &r);
        if r.tag >= MIG_TAG_BASE {
            self.mig_outbox.push(r);
            None
        } else {
            Some(r)
        }
    }
}

/// One shard: its management stack with the ledger as its hook, driven
/// by that shard's private simulation kernel.
pub(crate) struct ShardCore {
    pub(crate) stack: MgmtStack<ShardLedger>,
    pub(crate) staleness: SimDuration,
    pub(crate) initial_vms: Vec<VmId>,
}

/// Folds foreign shared-pool commits into the shard's mirror, charging
/// the plane for the refresh.
fn sync_gate(stack: &mut MgmtStack<ShardLedger>, now: SimTime, queue: &mut EventQueue<ShardEvent>) {
    stack.drive_plane(now, queue, |plane, out| plane.sync_placement_gate(now, out));
}

impl Model for ShardCore {
    type Event = ShardEvent;

    fn handle(&mut self, now: SimTime, event: ShardEvent, queue: &mut EventQueue<ShardEvent>) {
        let stack = &mut self.stack;
        match event {
            ShardEvent::Mgmt(ev) => stack.handle_mgmt(now, ev, queue),
            ShardEvent::Lease(vapp) => stack.expire_lease(now, vapp, queue),
            ShardEvent::Request(req) => stack.submit_cloud(now, req, queue),
            ShardEvent::Op(op) => stack.submit_op(now, op, queue),
            ShardEvent::StoreSync => {
                sync_gate(stack, now, queue);
                queue.schedule(now + self.staleness, ShardEvent::StoreSync);
            }
            ShardEvent::MigrateEvacuate { id, vm } => {
                let op = Operation::tagged(OpKind::DestroyVm { vm }, MIG_TAG_BASE + id);
                stack.submit_op(now, op, queue);
            }
            ShardEvent::MigrateAdmit(id) => {
                // The destination refreshes its shared-pool view first
                // (it is about to place into it), then admits the VM as
                // a linked clone of its local template.
                sync_gate(stack, now, queue);
                let op = Operation::tagged(
                    OpKind::CloneVm {
                        source: stack.templates[0],
                        mode: CloneMode::Linked,
                    },
                    MIG_TAG_BASE + id,
                );
                stack.submit_op(now, op, queue);
            }
        }
    }
}

/// One in-flight cross-shard migration.
#[derive(Clone, Copy, Debug)]
struct Migration {
    src: usize,
    dst: usize,
    vm: VmId,
    started: SimTime,
}

/// The outcome of one cross-shard migration.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationReport {
    /// Migration id as returned by `schedule_migration`.
    pub id: u64,
    /// Source shard.
    pub src: usize,
    /// Destination shard.
    pub dst: usize,
    /// The VM that was evacuated from the source shard.
    pub vm: VmId,
    /// When the evacuation started.
    pub started: SimTime,
    /// When the destination admit (or the failure) completed.
    pub completed: SimTime,
    /// Whether the VM was successfully re-admitted on the destination.
    pub success: bool,
}

/// The migration coordinator: a pseudo-shard (index = shard count) with
/// its own event queue, ordered after every real shard at equal time.
struct Coordinator {
    queue: EventQueue<CoordEvent>,
    handoff_delay: SimDuration,
    /// In-flight migrations by id. Accessed by key only (get / insert /
    /// remove / len); completion order is recorded in `reports`.
    // cpsim-lint: allow(no-unordered-iteration): keyed access only; never iterated
    migrations: FastMap<u64, Migration>,
    next_migration_id: u64,
    reports: Vec<MigrationReport>,
    /// Coordinator events processed (its queue has no kernel counting
    /// them).
    events: u64,
}

/// A runnable federated simulation.
///
/// Construct via [`FedScenario`](crate::FedScenario); drive with
/// [`run_until`](FedSim::run_until); inspect per shard through the
/// accessors. [`set_intra_jobs`](FedSim::set_intra_jobs) selects how many
/// worker threads simulate the shards concurrently — the results are
/// byte-identical at every setting.
pub struct FedSim {
    shard_sims: Vec<Simulation<ShardCore>>,
    coord: Coordinator,
    cell: Arc<StoreCell>,
    now: SimTime,
    intra_jobs: usize,
    /// Set once a migration is scheduled; forces the sequential runner
    /// for the rest of the run (migration events hop between shards).
    migrations_used: bool,
}

impl FedSim {
    /// Internal constructor used by [`FedScenario`](crate::FedScenario).
    pub(crate) fn assemble(
        shards: Vec<ShardCore>,
        cell: Arc<StoreCell>,
        handoff_delay: SimDuration,
    ) -> Self {
        let shard_count = shards.len();
        let mut shard_sims = Vec::with_capacity(shard_count);
        for (s, core) in shards.into_iter().enumerate() {
            let init = core.stack.initial_events();
            let staleness = core.staleness;
            let mut sim = Simulation::new(core);
            for (t, ev) in init {
                sim.schedule(t, ev);
            }
            if shard_count > 1 {
                // Stagger the first sync of each shard across one window
                // so refreshes don't stampede the same instant.
                let frac = (s + 1) as f64 / shard_count as f64;
                let at = SimTime::ZERO + SimDuration::from_secs_f64(staleness.as_secs_f64() * frac);
                sim.schedule(at, ShardEvent::StoreSync);
            }
            shard_sims.push(sim);
        }
        FedSim {
            shard_sims,
            coord: Coordinator {
                queue: EventQueue::new(),
                handoff_delay,
                migrations: FastMap::default(),
                next_migration_id: 0,
                reports: Vec::new(),
                events: 0,
            },
            cell,
            now: SimTime::ZERO,
            intra_jobs: 1,
            migrations_used: false,
        }
    }

    /// Sets the number of worker threads used to simulate shards
    /// concurrently *within* this run: `1` (the default) selects the
    /// sequential oracle loop, `0` means one per available core. Any
    /// setting produces byte-identical results; runs with cross-shard
    /// migrations always execute sequentially.
    pub fn set_intra_jobs(&mut self, n: usize) {
        self.intra_jobs = n;
    }

    fn effective_intra_jobs(&self) -> usize {
        let n = if self.intra_jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        } else {
            self.intra_jobs
        };
        n.min(self.shard_sims.len())
    }

    /// Runs until `horizon` inclusive (events strictly after it remain
    /// queued). Horizons compose like the kernel's:
    /// `run_until(a); run_until(b)` with `a <= b` ≡ `run_until(b)`.
    pub fn run_until(&mut self, horizon: SimTime) {
        let jobs = self.effective_intra_jobs();
        if jobs > 1 && !self.migrations_used {
            debug_assert!(self.coord.queue.is_empty());
            runner::run_threaded(&mut self.shard_sims, &self.cell, horizon, jobs);
        } else {
            self.run_sequential(horizon);
        }
        if horizon > self.now {
            self.now = horizon;
        }
    }

    /// The sequential oracle: one event at a time, globally ordered by
    /// `(time, shard index)` with the coordinator pseudo-shard last.
    fn run_sequential(&mut self, horizon: SimTime) {
        let coord_idx = self.shard_sims.len();
        loop {
            let mut best = runner::next_shard(&self.shard_sims, horizon);
            if let Some(t) = self.coord.queue.next_time() {
                if t <= horizon && best.is_none_or(|(bt, bs)| (t, coord_idx) < (bt, bs)) {
                    best = Some((t, coord_idx));
                }
            }
            let Some((t, s)) = best else { break };
            if s == coord_idx {
                self.step_coordinator(t, horizon);
            } else {
                self.shard_sims[s].step();
                self.drain_outbox(s);
            }
        }
        for sim in &mut self.shard_sims {
            // Advance the clock to the horizon and flush the per-shard
            // contribution to the process-wide event counter.
            sim.run_until(horizon);
        }
    }

    /// Processes the coordinator event at time `t`.
    fn step_coordinator(&mut self, t: SimTime, horizon: SimTime) {
        let Some((_, ev)) = self.coord.queue.pop_if_before(horizon) else {
            return;
        };
        self.coord.events += 1;
        match ev {
            CoordEvent::MigrateStart(id) => {
                let Some(m) = self.coord.migrations.get_mut(&id) else {
                    return;
                };
                m.started = t;
                let (src, vm) = (m.src, m.vm);
                self.shard_sims[src].schedule(t, ShardEvent::MigrateEvacuate { id, vm });
            }
            CoordEvent::MigrateHandoff(id) => {
                let Some(m) = self.coord.migrations.get(&id).copied() else {
                    return;
                };
                self.cell.locked(|st| st.on_handoff());
                self.shard_sims[m.dst].schedule(t, ShardEvent::MigrateAdmit(id));
            }
        }
    }

    /// Drains shard `s`'s migration-tagged task reports into the
    /// coordinator's state machine.
    fn drain_outbox(&mut self, s: usize) {
        if self.shard_sims[s].model().stack.hook.mig_outbox.is_empty() {
            return;
        }
        let now = self.shard_sims[s].now();
        let reports = std::mem::take(&mut self.shard_sims[s].model_mut().stack.hook.mig_outbox);
        for r in reports {
            self.on_migration_report(now, s, &r);
        }
    }

    /// Advances the migration state machine on a tagged report.
    fn on_migration_report(&mut self, now: SimTime, s: usize, r: &TaskReport) {
        let id = r.tag - MIG_TAG_BASE;
        let Some(m) = self.coord.migrations.get(&id).copied() else {
            return;
        };
        let succeeded = r.error.is_none() && !r.aborted;
        let evacuated = s == m.src && r.kind == "destroy-vm";
        if evacuated && succeeded {
            self.coord.queue.schedule(
                now + self.coord.handoff_delay,
                CoordEvent::MigrateHandoff(id),
            );
        } else if evacuated || s == m.dst {
            // A failed evacuation ends the migration, as does the admit.
            self.coord.migrations.remove(&id);
            self.coord.reports.push(MigrationReport {
                id,
                src: m.src,
                dst: m.dst,
                vm: m.vm,
                started: m.started,
                completed: now,
                success: succeeded && !evacuated,
            });
        }
    }

    /// Runs for `span` past the current time.
    pub fn run_for(&mut self, span: SimDuration) {
        let horizon = self.now() + span;
        self.run_until(horizon);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed so far, across every shard and the coordinator.
    pub fn events_processed(&self) -> u64 {
        let shard_events: u64 = self
            .shard_sims
            .iter()
            .map(Simulation::events_processed)
            .sum();
        shard_events + self.coord.events
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_sims.len()
    }

    /// Keep full task reports in memory on every shard (off by default).
    pub fn keep_task_reports(&mut self, on: bool) {
        for sim in &mut self.shard_sims {
            sim.model_mut().stack.keep_task_reports = on;
        }
    }

    /// Shard `s`'s control plane.
    pub fn plane(&self, s: usize) -> &ControlPlane {
        &self.shard_sims[s].model().stack.plane
    }

    /// Shard `s`'s cloud director.
    pub fn director(&self, s: usize) -> &CloudDirector {
        &self.shard_sims[s].model().stack.director
    }

    /// Shard `s`'s default org.
    pub fn org(&self, s: usize) -> OrgId {
        self.shard_sims[s].model().stack.org
    }

    /// Shard `s`'s hosts, in creation order (home first, then shared).
    pub fn hosts(&self, s: usize) -> &[HostId] {
        &self.shard_sims[s].model().stack.hosts
    }

    /// Shard `s`'s datastores, in creation order (home first, then shared).
    pub fn datastores(&self, s: usize) -> &[DatastoreId] {
        &self.shard_sims[s].model().stack.datastores
    }

    /// Shard `s`'s catalog templates.
    pub fn templates(&self, s: usize) -> &[VmId] {
        &self.shard_sims[s].model().stack.templates
    }

    /// Shard `s`'s pre-installed VMs, in creation order.
    pub fn initial_vms(&self, s: usize) -> &[VmId] {
        &self.shard_sims[s].model().initial_vms
    }

    /// Shard `s`'s operation trace.
    pub fn trace(&self, s: usize) -> &TraceLog {
        &self.shard_sims[s].model().stack.trace
    }

    /// Shard `s`'s completed cloud requests.
    pub fn cloud_reports(&self, s: usize) -> &[CloudReport] {
        &self.shard_sims[s].model().stack.cloud_reports
    }

    /// Shard `s`'s full task reports (only if `keep_task_reports` is on).
    pub fn task_reports(&self, s: usize) -> &[TaskReport] {
        &self.shard_sims[s].model().stack.task_reports
    }

    /// A load observation for routing: tasks in flight plus pending
    /// admissions on shard `s`.
    pub fn shard_load(&self, s: usize) -> usize {
        let plane = &self.shard_sims[s].model().stack.plane;
        plane.tasks_in_flight() + plane.admission().pending_len()
    }

    /// Load observations for every shard, in shard order.
    pub fn shard_loads(&self) -> Vec<usize> {
        (0..self.shard_count())
            .map(|s| self.shard_load(s))
            .collect()
    }

    /// Aggregated placement-store statistics.
    pub fn store_stats(&self) -> StoreStats {
        self.cell.locked(|st| st.stats())
    }

    /// Checks the shared ledger's conservation invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_store_invariants(&self) -> Result<(), String> {
        self.cell.locked(|st| st.check_invariants())
    }

    /// Completed cross-shard migrations, in completion order.
    pub fn migration_reports(&self) -> &[MigrationReport] {
        &self.coord.reports
    }

    /// Cross-shard migrations still in flight.
    pub fn migrations_in_flight(&self) -> usize {
        self.coord.migrations.len()
    }

    /// Schedules a cloud request on shard `s` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `s` is out of range.
    pub fn schedule_request(&mut self, at: SimTime, s: usize, req: CloudRequest) {
        assert!(s < self.shard_count(), "shard {s} out of range");
        self.shard_sims[s].schedule(at, ShardEvent::Request(req));
    }

    /// Schedules a raw management operation on shard `s` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `s` is out of range.
    pub fn schedule_op(&mut self, at: SimTime, s: usize, op: OpKind) {
        assert!(s < self.shard_count(), "shard {s} out of range");
        self.shard_sims[s].schedule(at, ShardEvent::Op(op));
    }

    /// Schedules a cross-shard migration of `vm` from shard `src` to
    /// shard `dst` at `at`, returning its migration id.
    ///
    /// The protocol is evacuate (destroy on `src`) → placement-store
    /// handoff (after the configured delay) → admit (linked clone of
    /// `dst`'s first template). The outcome lands in
    /// [`migration_reports`](FedSim::migration_reports). Scheduling a
    /// migration pins the rest of the run to the sequential executor.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or a shard index is out of range.
    pub fn schedule_migration(&mut self, at: SimTime, src: usize, dst: usize, vm: VmId) -> u64 {
        let n = self.shard_count();
        assert!(src < n && dst < n, "shard out of range");
        assert!(at >= self.now, "migration scheduled in the past");
        self.migrations_used = true;
        let id = self.coord.next_migration_id;
        self.coord.next_migration_id += 1;
        self.coord.migrations.insert(
            id,
            Migration {
                src,
                dst,
                vm,
                started: at,
            },
        );
        self.coord.queue.schedule(at, CoordEvent::MigrateStart(id));
        id
    }
}

impl std::fmt::Debug for FedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FedSim")
            .field("now", &self.now())
            .field("shards", &self.shard_count())
            .field("events", &self.events_processed())
            .field("store", &self.store_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FedScenario, FedTopology};

    /// A small contended federation: home datastores are tight (44 GiB
    /// free after the template base) while the shared pool is roomy, so
    /// the most-free-first placer steers clones onto shared capacity.
    fn contended(shards: usize) -> FedTopology {
        FedTopology {
            shards,
            home_hosts_per_shard: 2,
            home_ds_per_shard: 1,
            home_ds_capacity_gb: 64.0,
            shared_hosts: 2,
            shared_ds: 1,
            shared_ds_capacity_gb: 500.0,
            host_cpu_mhz: 48_000,
            host_mem_mb: 524_288,
            ds_bandwidth_mbps: 200.0,
            templates: vec![("fed-template".into(), 2, 2_048, 20.0)],
            initial_vms_per_shard: Vec::new(),
            initial_vm_disk_gb: 4.0,
        }
    }

    /// Every task a shard finished reached its trace and its kept
    /// reports exactly once, whether or not the director saw it.
    fn assert_routing_conserved(sim: &FedSim) {
        for s in 0..sim.shard_count() {
            let st = sim.plane(s).stats();
            let finished = st.completed() + st.failed();
            assert_eq!(finished, sim.trace(s).len() as u64, "shard {s} trace");
            assert_eq!(
                finished,
                sim.task_reports(s).len() as u64,
                "shard {s} kept reports"
            );
        }
    }

    fn burst(sim: &mut FedSim, s: usize, n: u64) {
        let org = sim.org(s);
        let template = sim.templates(s)[0];
        for i in 0..n {
            sim.schedule_request(
                SimTime::from_micros(1 + i),
                s,
                CloudRequest::InstantiateVapp {
                    org,
                    template,
                    count: 1,
                    mode: None,
                    lease: None,
                },
            );
        }
    }

    #[test]
    fn two_shards_share_the_pool_without_double_booking() {
        let mut sim = FedScenario::new(contended(2)).seed(42).build();
        burst(&mut sim, 0, 8);
        burst(&mut sim, 1, 8);
        sim.run_until(SimTime::from_hours(2));
        let stats = sim.store_stats();
        assert!(stats.commits > 0, "no gated placements: {stats:?}");
        assert!(stats.syncs > 0, "sync ticks never fired: {stats:?}");
        sim.check_store_invariants().unwrap();
        for s in 0..2 {
            assert!(sim.director(s).stats().vms_provisioned() > 0, "shard {s}");
            assert_eq!(sim.plane(s).tasks_in_flight(), 0, "shard {s} drained");
        }
    }

    #[test]
    fn federation_is_deterministic() {
        let run = |seed: u64| {
            let mut sim = FedScenario::new(contended(2)).seed(seed).build();
            burst(&mut sim, 0, 6);
            burst(&mut sim, 1, 6);
            sim.run_until(SimTime::from_hours(1));
            (
                sim.events_processed(),
                sim.trace(0).len(),
                sim.trace(1).len(),
                sim.store_stats(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// The parallel runner is an implementation detail: any intra-jobs
    /// setting replays the sequential oracle op-for-op.
    #[test]
    fn intra_jobs_do_not_change_results() {
        let run = |intra_jobs: usize| {
            let mut sim = FedScenario::new(contended(3)).seed(11).build();
            sim.set_intra_jobs(intra_jobs);
            sim.keep_task_reports(true);
            for s in 0..3 {
                burst(&mut sim, s, 8);
            }
            // Multiple slices: the turnstile is re-armed per run_until.
            for h in 1..=4 {
                sim.run_until(SimTime::from_secs(1_800 * h));
            }
            sim.check_store_invariants().unwrap();
            assert_routing_conserved(&sim);
            let per_shard: Vec<_> = (0..3)
                .map(|s| {
                    let st = sim.plane(s).stats();
                    (
                        sim.trace(s).records().to_vec(),
                        sim.task_reports(s).to_vec(),
                        sim.cloud_reports(s).to_vec(),
                        (st.submitted(), st.completed(), st.placement_conflicts()),
                    )
                })
                .collect();
            (per_shard, sim.store_stats(), sim.events_processed())
        };
        let oracle = run(1);
        assert_eq!(oracle, run(2));
        assert_eq!(oracle, run(3));
        assert_eq!(oracle, run(0));
    }

    #[test]
    fn conflicts_resolve_to_one_winner_and_retries_complete() {
        // Nearly-full shared pool: 2 shards racing for the last slots.
        let mut topo = contended(2);
        // 500 cap, 2×20 template bases leave 460 free; shrink so only a
        // handful of 20 GiB (create) / delta-sized clones fit and the
        // placer still prefers shared over the 44-free home datastore.
        topo.shared_ds_capacity_gb = 100.0;
        let mut sim = FedScenario::new(topo)
            .seed(13)
            .staleness(SimDuration::from_secs(30))
            .build();
        burst(&mut sim, 0, 12);
        burst(&mut sim, 1, 12);
        sim.run_until(SimTime::from_hours(3));
        sim.check_store_invariants().unwrap();
        let stats = sim.store_stats();
        let conflicts: u64 = (0..2)
            .map(|s| sim.plane(s).stats().placement_conflicts())
            .sum();
        assert_eq!(stats.conflicts, conflicts);
        // Both shards drain fully even when they lose races.
        for s in 0..2 {
            assert_eq!(sim.plane(s).tasks_in_flight(), 0, "shard {s} drained");
        }
    }

    #[test]
    fn cross_shard_migration_completes_end_to_end() {
        let mut topo = contended(2);
        topo.initial_vms_per_shard = vec![3, 0];
        let mut sim = FedScenario::new(topo).seed(5).build();
        sim.keep_task_reports(true);
        let vm = sim.initial_vms(0)[0];
        let id = sim.schedule_migration(SimTime::from_secs(1), 0, 1, vm);
        sim.run_until(SimTime::from_hours(1));
        // The ledger hook keeps the migration-tagged reports from the
        // director, but both shards still trace them.
        assert_routing_conserved(&sim);
        assert_eq!(sim.migrations_in_flight(), 0);
        let reports = sim.migration_reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!((r.id, r.src, r.dst, r.vm), (id, 0, 1, vm));
        assert!(r.success, "{r:?}");
        assert!(r.completed > r.started);
        // The evacuated VM is gone from the source inventory.
        assert!(sim.plane(0).inventory().vm(vm).is_none());
        sim.check_store_invariants().unwrap();
    }

    /// Scheduling a migration pins the run to the sequential executor
    /// even when intra-jobs asks for threads, and still completes.
    #[test]
    fn migrations_force_the_sequential_path() {
        let mut topo = contended(2);
        topo.initial_vms_per_shard = vec![2, 0];
        let mut sim = FedScenario::new(topo).seed(5).build();
        sim.set_intra_jobs(2);
        let vm = sim.initial_vms(0)[0];
        sim.schedule_migration(SimTime::from_secs(1), 0, 1, vm);
        sim.run_until(SimTime::from_hours(1));
        assert_eq!(sim.migrations_in_flight(), 0);
        assert_eq!(sim.migration_reports().len(), 1);
        assert!(sim.migration_reports()[0].success);
    }

    #[test]
    fn single_shard_federation_needs_no_coordination() {
        let mut sim = FedScenario::new(contended(1)).seed(3).build();
        burst(&mut sim, 0, 6);
        sim.run_until(SimTime::from_hours(1));
        let stats = sim.store_stats();
        assert_eq!(stats.commits, 0);
        assert_eq!(stats.syncs, 0);
        assert_eq!(stats.conflicts, 0);
        assert!(sim.director(0).stats().vms_provisioned() > 0);
    }
}
