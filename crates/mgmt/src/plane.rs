//! The [`ControlPlane`] orchestrator: executes management operations as
//! phase programs over shared control-plane resources.
//!
//! See the crate docs for the model. The plane is event-driven: callers
//! deliver [`MgmtEvent`]s with explicit timestamps via
//! [`ControlPlane::handle`] and route the returned [`Emit`]s.

use std::cell::RefCell;

use cpsim_des::FastMap;

use cpsim_des::{Arrival, FcfsStation, Sampler, SimDuration, SimRng, SimTime, Streams};
use cpsim_faults::{FaultKind, RecoveryPolicy};
use cpsim_hostagent::{AgentFleet, HeartbeatSpec, Primitive, ServiceMod};
use cpsim_inventory::{
    Arena, DatastoreId, DatastoreSpec, HostId, HostSpec, HostState, Inventory, PowerState, TaskId,
    VmId, VmSpec,
};
use cpsim_storage::{StoragePool, TemplateResidency, TransferEngine, TransferId, GIB};

use crate::admission::{AdmissionControl, Scope};
use crate::beats::{Beat, BeatTrain};
use crate::config::{ControlPlaneConfig, CostSamplers};
use crate::gate::{GateDecision, PlacementGate};
use crate::op::{CloneMode, OpKind, Operation};
use crate::placement::Placer;
use crate::recovery::FaultInjector;
use crate::stats::MgmtStats;
use crate::task::{PhaseClass, Task, TaskReport};

/// Who a CPU/DB job belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// A management task.
    Task(TaskId),
    /// Background management load: host heartbeats, placement syncs and
    /// host resyncs. It is charged to no task and gets no completion
    /// event of its own (see [`MgmtEvent::CpuDone`]).
    Background,
}

/// A unit of management-server CPU or database work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceJob {
    /// Whose work this is.
    pub owner: Owner,
    /// Phase label for cost breakdowns.
    pub label: &'static str,
    /// Sampled service time.
    pub service: SimDuration,
}

/// The payload of a hand-off [`MgmtEvent::CpuDone`]/[`MgmtEvent::DbDone`].
const HANDOFF: ServiceJob = ServiceJob {
    owner: Owner::Background,
    label: "handoff",
    service: SimDuration::ZERO,
};

/// Events the control plane reacts to.
#[derive(Clone, Debug)]
pub enum MgmtEvent {
    /// An operation arrives.
    Submit(Operation),
    /// A task's management-CPU job finished service. With an
    /// [`Owner::Background`] job it is instead a hand-off: background work
    /// that a task job waits behind ends now, and the task job starts.
    CpuDone(ServiceJob),
    /// A task's database job finished service, or a background hand-off
    /// (as for [`CpuDone`](Self::CpuDone)).
    DbDone(ServiceJob),
    /// A host-agent primitive finished.
    AgentDone {
        /// Host it ran on.
        host: HostId,
        /// Owning task.
        task: TaskId,
        /// The primitive that finished.
        primitive: Primitive,
        /// Its sampled service time.
        service: SimDuration,
        /// The host's crash epoch at scheduling time; a mismatch at
        /// delivery means the work was lost in a crash and the event is
        /// stale.
        epoch: u64,
    },
    /// A datastore bandwidth tick (possibly stale).
    TransferTick {
        /// The datastore.
        datastore: DatastoreId,
        /// Epoch guarding against staleness.
        epoch: u64,
    },
    /// A host heartbeat is due. Only planes with fault injection, where a
    /// beat also drives miss detection, schedule these: a fault-free plane
    /// keeps its beats off the queue (see
    /// [`ControlPlane::init_events`]). Delivering one still runs the beat.
    Heartbeat {
        /// Index into the plane's heartbeat slot table.
        slot: usize,
    },
    /// An injected fault (or its internally scheduled recovery) fires.
    Fault(FaultKind),
    /// A backed-off phase retry is due.
    Retry {
        /// The task replaying its failed stage.
        task: TaskId,
    },
}

/// Outputs of [`ControlPlane::handle`].
#[derive(Clone, Debug)]
pub enum Emit {
    /// Schedule `event` at the given time.
    At(SimTime, MgmtEvent),
    /// A task completed successfully.
    Done(TaskId, TaskReport),
    /// A task failed.
    Failed(TaskId, TaskReport),
}

/// What the phase program asks for next (internal).
enum Step {
    Cpu(&'static str, SimDuration),
    Db(&'static str, SimDuration),
    Agent(HostId, Primitive),
    Transfer {
        src: DatastoreId,
        dst: DatastoreId,
        bytes: f64,
        label: &'static str,
    },
    Acquire(Scope),
    Continue,
    Done,
    /// Transient failure: retried with backoff when fault injection is
    /// installed, terminal otherwise.
    FailRetryable(String),
    Fail(String),
}

struct TransferOwner {
    task: TaskId,
    label: &'static str,
}

/// The management server's CPU and database, and the beats they are owed.
struct Stations {
    cpu: FcfsStation<ServiceJob>,
    db: FcfsStation<ServiceJob>,
    beats: BeatTrain,
}

impl Stations {
    /// Replays every beat that comes before a call at `now` into the
    /// stations (see [`BeatTrain::replay_due`]). A replayed beat makes the
    /// lazy arrivals its event would have made, at the beat's own time.
    fn replay_beats(
        &mut self,
        now: SimTime,
        hosts: &[HostId],
        inv: &Inventory,
        hb: &HeartbeatSpec,
    ) {
        let (cpu, db) = (&mut self.cpu, &mut self.db);
        self.beats.replay_due(now, hb.interval, |at, slot| {
            if hosts.get(slot).is_none_or(|&h| inv.host(h).is_none()) {
                return false; // host removed: stop its beats
            }
            if !hb.mgmt_cpu.is_zero() {
                cpu.arrive_lazy(at, hb.mgmt_cpu);
            }
            if !hb.db_time.is_zero() {
                db.arrive_lazy(at, hb.db_time);
            }
            true
        });
    }
}

/// The management server and everything it orchestrates.
pub struct ControlPlane {
    cfg: ControlPlaneConfig,
    /// `cfg.cost`, prepared for sampling.
    costs: CostSamplers,
    inv: Inventory,
    storage: StoragePool,
    residency: TemplateResidency,
    /// Behind a `RefCell` so the `&self` utilization reads can replay the
    /// beats due by the time they read (see
    /// [`cpu_utilization`](Self::cpu_utilization)); every other access
    /// goes through `get_mut`, which costs nothing.
    stations: RefCell<Stations>,
    agents: AgentFleet<TaskId>,
    transfers: TransferEngine,
    /// Keyed lookups only (insert on start, remove on completion) — the
    /// map is never iterated, so hash ordering cannot leak into event
    /// order.
    // cpsim-lint: allow(no-unordered-iteration): keyed insert/remove only; iteration order is never observed
    transfer_owner: FastMap<TransferId, TransferOwner>,
    admission: AdmissionControl,
    tasks: Arena<TaskId, Task>,
    placer: Placer,
    stats: MgmtStats,
    rng: SimRng,
    heartbeat_hosts: Vec<HostId>,
    /// Datastores in creation order; fault plans address them by index.
    datastore_order: Vec<DatastoreId>,
    /// Fault-injection state; `None` (the default) leaves every fault
    /// branch untaken and draws no fault randomness.
    faults: Option<FaultInjector>,
    /// External placement gate; `None` (the default) skips every gate
    /// branch, so a single-plane simulation is unaffected.
    gate: Option<Box<dyn PlacementGate>>,
    name_seq: u64,
}

impl ControlPlane {
    /// Creates a plane with `cfg`, drawing randomness from `streams`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ControlPlaneConfig::validate`]).
    pub fn new(cfg: ControlPlaneConfig, streams: Streams) -> Self {
        cfg.validate().expect("invalid ControlPlaneConfig");
        let agents = AgentFleet::new(cfg.host_cost.clone(), streams.rng(Streams::SERVICE + 100));
        ControlPlane {
            stations: RefCell::new(Stations {
                cpu: FcfsStation::new(cfg.effective_cores()),
                db: FcfsStation::new(cfg.effective_db_connections()),
                beats: BeatTrain::default(),
            }),
            admission: AdmissionControl::new(cfg.limits),
            agents,
            transfers: TransferEngine::new(),
            transfer_owner: FastMap::default(),
            inv: Inventory::new(),
            storage: StoragePool::new(),
            residency: TemplateResidency::new(),
            tasks: Arena::new(),
            placer: Placer::default(),
            stats: MgmtStats::new(),
            rng: streams.rng(Streams::SERVICE),
            heartbeat_hosts: Vec::new(),
            datastore_order: Vec::new(),
            faults: None,
            gate: None,
            name_seq: 0,
            costs: CostSamplers::new(&cfg.cost),
            cfg,
        }
    }

    // ---- setup-time helpers (not charged to the simulation) -------------

    /// Adds a datastore to the inventory and registers its copy engine.
    pub fn add_datastore(&mut self, spec: DatastoreSpec) -> DatastoreId {
        let id = self.inv.add_datastore(spec);
        self.datastore_order.push(id);
        self.transfers
            .register_datastore(&self.inv, id)
            .expect("freshly added datastore");
        id
    }

    /// Adds a host, its agent, and its heartbeat slot.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = self.inv.add_host(spec);
        self.agents.add_host(id, self.cfg.agent_concurrency);
        self.heartbeat_hosts.push(id);
        id
    }

    /// Connects a host to a datastore.
    ///
    /// # Errors
    ///
    /// Fails if either id is stale.
    pub fn connect(
        &mut self,
        host: HostId,
        ds: DatastoreId,
    ) -> Result<(), cpsim_inventory::InventoryError> {
        self.inv.connect_host_datastore(host, ds)
    }

    /// Installs a template VM with a thick base disk on `(host, ds)` and
    /// seeds its residency there.
    ///
    /// # Errors
    ///
    /// Fails if the placement is invalid or the datastore lacks space.
    pub fn install_template(
        &mut self,
        name: &str,
        spec: VmSpec,
        host: HostId,
        ds: DatastoreId,
    ) -> Result<VmId, String> {
        let vm = self
            .inv
            .create_vm(name, spec, host, ds)
            .map_err(|e| e.to_string())?;
        let disk = self
            .storage
            .create_base(&mut self.inv, ds, spec.disk_gb)
            .map_err(|e| e.to_string())?;
        self.inv.vm_mut(vm).expect("just created").disks.push(disk);
        self.inv.mark_template(vm).map_err(|e| e.to_string())?;
        self.residency.seed(vm, ds, disk);
        Ok(vm)
    }

    /// Installs a plain VM with a thick base disk (setup-time helper for
    /// pre-populated datacenters), optionally powered on.
    ///
    /// # Errors
    ///
    /// Fails if the placement is invalid or capacity is lacking.
    pub fn install_vm(
        &mut self,
        name: &str,
        spec: VmSpec,
        host: HostId,
        ds: DatastoreId,
        powered_on: bool,
    ) -> Result<VmId, String> {
        let vm = self
            .inv
            .create_vm(name, spec, host, ds)
            .map_err(|e| e.to_string())?;
        let disk = self
            .storage
            .create_base(&mut self.inv, ds, spec.disk_gb)
            .map_err(|e| e.to_string())?;
        self.inv.vm_mut(vm).expect("just created").disks.push(disk);
        if powered_on {
            self.inv.power_on(vm).map_err(|e| e.to_string())?;
        }
        Ok(vm)
    }

    /// Instantly seeds `template` onto `ds` (setup-time helper modeling a
    /// cloud whose reconfiguration already ran).
    ///
    /// # Errors
    ///
    /// Fails if ids are stale, the datastore lacks space, or the template
    /// is already resident there.
    pub fn seed_template_now(&mut self, template: VmId, ds: DatastoreId) -> Result<(), String> {
        if self.residency.is_resident(template, ds) {
            return Err(format!("template {template} already resident on {ds}"));
        }
        let gb = self
            .inv
            .vm_checked(template)
            .map_err(|e| e.to_string())?
            .spec
            .disk_gb;
        let disk = self
            .storage
            .create_base(&mut self.inv, ds, gb)
            .map_err(|e| e.to_string())?;
        self.residency.seed(template, ds, disk);
        Ok(())
    }

    /// Installs fault injection. `policy` governs phase timeouts, retry
    /// budgets, backoff, and heartbeat-miss detection; `timeout_prob` is
    /// the per-primitive hang probability; `rng` must come from a
    /// dedicated stream so fault draws never perturb service-time
    /// sampling. Call it before [`init_events`](Self::init_events), which
    /// keeps the beats of a fault-free plane off the event queue.
    pub fn enable_faults(&mut self, policy: RecoveryPolicy, timeout_prob: f64, rng: SimRng) {
        self.faults = Some(FaultInjector::new(policy, timeout_prob, rng));
    }

    /// Whether fault injection is installed.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Installs an external placement gate: every provisioning placement
    /// is committed against it before admission, and conflicts retry via
    /// the fault-recovery machinery (install that too, via
    /// [`enable_faults`](Self::enable_faults), or conflicts abort the
    /// task on the spot).
    pub fn set_placement_gate(&mut self, gate: Box<dyn PlacementGate>) {
        self.gate = Some(gate);
    }

    /// Whether an external placement gate is installed.
    pub fn placement_gate_enabled(&self) -> bool {
        self.gate.is_some()
    }

    /// Refreshes the mirrored free-capacity view from the gate's
    /// authoritative store and charges the refresh as background
    /// management load (one CPU slice + one DB statement), mirroring how
    /// heartbeats and resyncs are charged. No-op without a gate.
    pub fn sync_placement_gate(&mut self, now: SimTime, out: &mut Vec<Emit>) {
        self.replay_beats(now);
        let Some(g) = self.gate.as_mut() else {
            return;
        };
        g.sync(now, &mut self.inv);
        self.stats.on_placement_sync();
        let cpu = Self::sample_cost(&self.costs.result_processing, &mut self.rng);
        self.enqueue_cpu(now, Owner::Background, "placement-sync", cpu, out);
        let db = Self::sample_cost(&self.costs.db_update, &mut self.rng);
        self.enqueue_db(now, Owner::Background, "placement-sync", db, out);
    }

    /// Refreshes the mirrored view without charging any cost: the
    /// setup-time initial sync, run once after the federation seeds the
    /// shared pool (not part of the simulated run).
    pub fn sync_placement_gate_quiet(&mut self) {
        if let Some(g) = self.gate.as_mut() {
            g.sync(SimTime::ZERO, &mut self.inv);
        }
    }

    /// Starts the hosts' heartbeats, staggered across the interval. Call
    /// after setup (and after [`enable_faults`](Self::enable_faults)),
    /// before running.
    ///
    /// With fault injection a beat also drives miss detection, host state
    /// and resync draws, so each beat is a kernel event: this returns one
    /// [`MgmtEvent::Heartbeat`] per host to schedule. Without it a beat
    /// only charges background CPU and DB work, and the plane keeps the
    /// beats as a train of its own instead: this arms the train, returns
    /// nothing, and is idempotent. Every call that touches the CPU or DB
    /// first replays the beats that come before it in the kernel's
    /// `(time, seq)` order ([`cpsim_des::dispatch_pos`]), so the stations
    /// see the same arrivals in the same order as with evented beats.
    /// With the beats off the queue, an idle simulation can drain its
    /// queue before a horizon.
    pub fn init_events(&mut self) -> Vec<Emit> {
        let hb = self.cfg.heartbeat;
        if hb.is_disabled() {
            return Vec::new();
        }
        let slots = 0..self.heartbeat_hosts.len();
        if self.faults.is_some() {
            return slots
                .map(|slot| Emit::At(hb.first_beat(slot), MgmtEvent::Heartbeat { slot }))
                .collect();
        }
        let beats = &mut self.stations.get_mut().beats;
        beats.arm(slots.map(|slot| (slot, hb.first_beat(slot))));
        Vec::new()
    }

    /// Replays the beats due before a call at `now` (see
    /// [`init_events`](Self::init_events)).
    #[inline]
    fn replay_beats(&mut self, now: SimTime) {
        self.stations.get_mut().replay_beats(
            now,
            &self.heartbeat_hosts,
            &self.inv,
            &self.cfg.heartbeat,
        );
    }

    /// [`replay_beats`](Self::replay_beats) for the `&self` reads: the
    /// beats due by `now` are replayed for good, as the next call at `now`
    /// would replay them, so a pair of reads replays them once.
    fn stations_at(&self, now: SimTime) -> std::cell::RefMut<'_, Stations> {
        let mut st = self.stations.borrow_mut();
        st.replay_beats(now, &self.heartbeat_hosts, &self.inv, &self.cfg.heartbeat);
        st
    }

    // ---- accessors -------------------------------------------------------

    /// The shared inventory.
    pub fn inventory(&self) -> &Inventory {
        &self.inv
    }

    /// The storage pool.
    pub fn storage(&self) -> &StoragePool {
        &self.storage
    }

    /// Template residency.
    pub fn residency(&self) -> &TemplateResidency {
        &self.residency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MgmtStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &ControlPlaneConfig {
        &self.cfg
    }

    /// Admission-control state (pending queue, in-flight count).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// Management-CPU utilization through `now` (0..=1), heartbeats due
    /// by `now` included.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.stations_at(now).cpu.utilization(now)
    }

    /// Database utilization through `now` (0..=1), heartbeats due by
    /// `now` included.
    pub fn db_utilization(&self, now: SimTime) -> f64 {
        self.stations_at(now).db.utilization(now)
    }

    /// Datastore copy-bandwidth busy fraction through `now`.
    pub fn datastore_busy(&self, ds: DatastoreId, now: SimTime) -> f64 {
        self.transfers.busy_fraction(ds, now)
    }

    /// Mean host-agent utilization across hosts through `now`.
    pub fn mean_agent_utilization(&self, now: SimTime) -> f64 {
        let hosts: Vec<HostId> = self.inv.hosts().map(|(id, _)| id).collect();
        if hosts.is_empty() {
            return 0.0;
        }
        hosts
            .iter()
            .map(|h| self.agents.utilization(*h, now))
            .sum::<f64>()
            / hosts.len() as f64
    }

    /// Tasks currently in flight (submitted, not yet finished).
    pub fn tasks_in_flight(&self) -> usize {
        self.tasks.len()
    }

    // ---- event handling --------------------------------------------------

    /// Submits an operation at `now`, appending follow-up emissions to
    /// `out`. Equivalent to handling [`MgmtEvent::Submit`].
    ///
    /// `out` is caller-owned so the driver can reuse one scratch buffer
    /// across every event instead of allocating per dispatch.
    pub fn submit(&mut self, now: SimTime, kind: impl Into<Operation>, out: &mut Vec<Emit>) {
        self.handle(now, MgmtEvent::Submit(kind.into()), out);
    }

    /// [`submit`](Self::submit) into a freshly allocated buffer
    /// (convenience for tests and examples; the hot path reuses one).
    pub fn submit_collect(&mut self, now: SimTime, kind: impl Into<Operation>) -> Vec<Emit> {
        let mut out = Vec::new();
        self.submit(now, kind, &mut out);
        out
    }

    /// [`handle`](Self::handle) into a freshly allocated buffer
    /// (convenience for tests and examples; the hot path reuses one).
    pub fn handle_collect(&mut self, now: SimTime, event: MgmtEvent) -> Vec<Emit> {
        let mut out = Vec::new();
        self.handle(now, event, &mut out);
        out
    }

    /// Processes one event, appending follow-up emissions to `out`.
    pub fn handle(&mut self, now: SimTime, event: MgmtEvent, out: &mut Vec<Emit>) {
        self.replay_beats(now);
        match event {
            MgmtEvent::Submit(op) => {
                self.stats.on_submitted(op.kind.name());
                let target_vm = match &op.kind {
                    OpKind::PowerOn { vm }
                    | OpKind::PowerOff { vm }
                    | OpKind::Reconfigure { vm }
                    | OpKind::Snapshot { vm }
                    | OpKind::RemoveSnapshot { vm }
                    | OpKind::DestroyVm { vm }
                    | OpKind::MigrateVm { vm }
                    | OpKind::RelocateVm { vm, .. } => Some(*vm),
                    OpKind::CloneVm { source, .. } => Some(*source),
                    _ => None,
                };
                let mut task = Task::new(op, now);
                task.target_vm = target_vm;
                let tid = self.tasks.insert(task);
                self.advance(now, tid, out);
            }
            MgmtEvent::CpuDone(job) => {
                if let Owner::Task(tid) = job.owner {
                    if let Some(task) = self.tasks.get_mut(tid) {
                        task.charge(PhaseClass::Cpu, job.label, job.service.as_secs_f64());
                    }
                }
                if let Some(next) = self.stations.get_mut().cpu.complete(now) {
                    self.charge_queue_wait(next.job.owner, next.waited);
                    out.push(Emit::At(
                        now + next.job.service,
                        MgmtEvent::CpuDone(next.job),
                    ));
                }
                if let Owner::Task(tid) = job.owner {
                    self.advance(now, tid, out);
                }
            }
            MgmtEvent::DbDone(job) => {
                if let Owner::Task(tid) = job.owner {
                    if let Some(task) = self.tasks.get_mut(tid) {
                        task.charge(PhaseClass::Db, job.label, job.service.as_secs_f64());
                    }
                }
                if let Some(next) = self.stations.get_mut().db.complete(now) {
                    self.charge_queue_wait(next.job.owner, next.waited);
                    out.push(Emit::At(
                        now + next.job.service,
                        MgmtEvent::DbDone(next.job),
                    ));
                }
                if let Owner::Task(tid) = job.owner {
                    self.advance(now, tid, out);
                }
            }
            MgmtEvent::AgentDone {
                host,
                task,
                primitive,
                service,
                epoch,
            } => {
                if epoch != self.agents.epoch(host) {
                    // Scheduled before the host crashed: the primitive was
                    // lost and the task already took the failure path.
                    return;
                }
                if let Some(t) = self.tasks.get_mut(task) {
                    t.charge(
                        PhaseClass::HostAgent,
                        primitive.name(),
                        service.as_secs_f64(),
                    );
                }
                match self.agents.complete(now, host, task) {
                    Ok(Some(next)) => {
                        self.charge_queue_wait(Owner::Task(next.job), next.waited);
                        out.push(Emit::At(
                            now + next.service,
                            MgmtEvent::AgentDone {
                                host,
                                task: next.job,
                                primitive: next.primitive,
                                service: next.service,
                                epoch,
                            },
                        ));
                    }
                    Ok(None) => {}
                    Err(_) => {} // host removed mid-flight; nothing to start
                }
                let timed_out = self.tasks.get(task).is_some_and(|t| t.pending_timeout);
                if timed_out {
                    self.on_phase_failure(
                        now,
                        task,
                        format!("host agent timed out during {}", primitive.name()),
                        out,
                    );
                } else {
                    self.advance(now, task, out);
                }
            }
            MgmtEvent::TransferTick { datastore, epoch } => {
                if let Some((finished, next)) = self.transfers.on_tick(now, datastore, epoch) {
                    if let Some(ev) = next {
                        out.push(Emit::At(
                            ev.at,
                            MgmtEvent::TransferTick {
                                datastore: ev.datastore,
                                epoch: ev.epoch,
                            },
                        ));
                    }
                    for xid in finished {
                        if let Some(owner) = self.transfer_owner.remove(&xid) {
                            if let Some(t) = self.tasks.get_mut(owner.task) {
                                let started = t.transfer_started.take().unwrap_or(now);
                                t.charge(
                                    PhaseClass::DataTransfer,
                                    owner.label,
                                    now.since(started).as_secs_f64(),
                                );
                            }
                            self.advance(now, owner.task, out);
                        }
                    }
                }
            }
            MgmtEvent::Heartbeat { slot } => {
                self.on_heartbeat(now, slot, out);
            }
            MgmtEvent::Fault(kind) => {
                self.on_fault(now, kind, out);
            }
            MgmtEvent::Retry { task } => {
                self.advance(now, task, out);
            }
        }
    }

    fn on_heartbeat(&mut self, now: SimTime, slot: usize, out: &mut Vec<Emit>) {
        let Some(&host) = self.heartbeat_hosts.get(slot) else {
            return;
        };
        if self.inv.host(host).is_none() {
            return; // host removed: stop its beats
        }
        let hb = self.cfg.heartbeat;
        let missed = self
            .faults
            .as_ref()
            .is_some_and(|inj| inj.host_down(host) || inj.hb_dropped(host));
        if missed {
            // No beat arrives (and nothing is charged): consecutive misses
            // eventually make the plane declare the host down, triggering
            // an inventory resync the control plane pays for.
            let threshold = self
                .faults
                .as_ref()
                .expect("missed implies injector")
                .policy()
                .heartbeat_miss_threshold;
            let misses = self
                .faults
                .as_mut()
                .expect("gated on faults.is_some() by this match arm")
                .record_miss(host);
            let connected = self
                .inv
                .host(host)
                .is_some_and(|h| h.state == HostState::Connected);
            if misses >= threshold && connected {
                let _ = self.inv.set_host_state(host, HostState::Disconnected);
                self.faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .declare_down(host);
                self.stats.on_host_declared_down();
                self.charge_resync(now, out);
            }
        } else {
            if let Some(inj) = self.faults.as_mut() {
                inj.reset_misses(host);
                if inj.is_declared_down(host) {
                    // The host answered again: reconnect it and resync.
                    inj.clear_declared(host);
                    let _ = self.inv.set_host_state(host, HostState::Connected);
                    self.charge_resync(now, out);
                }
            }
            if !hb.mgmt_cpu.is_zero() {
                self.enqueue_cpu(now, Owner::Background, "heartbeat", hb.mgmt_cpu, out);
            }
            if !hb.db_time.is_zero() {
                self.enqueue_db(now, Owner::Background, "heartbeat", hb.db_time, out);
            }
        }
        out.push(Emit::At(now + hb.interval, MgmtEvent::Heartbeat { slot }));
    }

    /// Charges the CPU + DB cost of a host-state resync as background
    /// management load (host declared down, or reconnected after one).
    fn charge_resync(&mut self, now: SimTime, out: &mut Vec<Emit>) {
        self.stats.on_resync();
        let cpu = Self::sample_cost(&self.costs.host_sync, &mut self.rng);
        self.enqueue_cpu(now, Owner::Background, "host-resync", cpu, out);
        let db = Self::sample_cost(&self.costs.db_update, &mut self.rng);
        self.enqueue_db(now, Owner::Background, "host-resync", db, out);
    }

    fn charge_queue_wait(&mut self, owner: Owner, waited: SimDuration) {
        if let Owner::Task(tid) = owner {
            if let Some(t) = self.tasks.get_mut(tid) {
                t.queue_secs += waited.as_secs_f64();
            }
        }
    }

    fn enqueue_cpu(
        &mut self,
        now: SimTime,
        owner: Owner,
        label: &'static str,
        service: SimDuration,
        out: &mut Vec<Emit>,
    ) {
        let job = ServiceJob {
            owner,
            label,
            service,
        };
        if let Some((at, job)) = Self::offer(&mut self.stations.get_mut().cpu, now, job) {
            out.push(Emit::At(at, MgmtEvent::CpuDone(job)));
        }
    }

    fn enqueue_db(
        &mut self,
        now: SimTime,
        owner: Owner,
        label: &'static str,
        service: SimDuration,
        out: &mut Vec<Emit>,
    ) {
        // Degraded-DB windows stretch every statement while active.
        let service = match &self.faults {
            Some(inj) if inj.db_scale() != 1.0 => {
                SimDuration::from_secs_f64(service.as_secs_f64() * inj.db_scale())
            }
            _ => service,
        };
        let job = ServiceJob {
            owner,
            label,
            service,
        };
        if let Some((at, job)) = Self::offer(&mut self.stations.get_mut().db, now, job) {
            out.push(Emit::At(at, MgmtEvent::DbDone(job)));
        }
    }

    /// Offers `job` to a CPU or DB station and returns the completion
    /// event to schedule, if any. Background work needs none. A task job
    /// gets its own when it starts now, and a hand-off when it waits
    /// behind background work.
    fn offer(
        station: &mut FcfsStation<ServiceJob>,
        now: SimTime,
        job: ServiceJob,
    ) -> Option<(SimTime, ServiceJob)> {
        if job.owner == Owner::Background {
            station.arrive_lazy(now, job.service);
            return None;
        }
        match station.arrive(now, job.service, job) {
            Arrival::Started(job) => Some((now + job.service, job)),
            Arrival::Queued => None,
            Arrival::Handoff(at) => Some((at, HANDOFF)),
        }
    }

    /// Drives `tid` forward until it blocks on a resource or finishes.
    fn advance(&mut self, now: SimTime, tid: TaskId, out: &mut Vec<Emit>) {
        loop {
            if self.tasks.get(tid).is_none() {
                return; // already finished (defensive)
            }
            let step = self.plan_step(now, tid, out);
            match step {
                Step::Cpu(label, dur) => {
                    self.enqueue_cpu(now, Owner::Task(tid), label, dur, out);
                    return;
                }
                Step::Db(label, dur) => {
                    self.enqueue_db(now, Owner::Task(tid), label, dur, out);
                    return;
                }
                Step::Agent(host, primitive) => {
                    if self.faults.as_ref().is_some_and(|inj| inj.host_down(host)) {
                        self.on_phase_failure(
                            now,
                            tid,
                            format!("host not responding during {}", primitive.name()),
                            out,
                        );
                        return;
                    }
                    let mut service_mod = ServiceMod::default();
                    let mut hangs = false;
                    if let Some(inj) = self.faults.as_mut() {
                        let scale = inj.agent_scale();
                        if scale != 1.0 {
                            service_mod.scale = scale;
                        }
                        if inj.draw_timeout() {
                            // The primitive hangs: it occupies the agent
                            // until the phase timeout, then fails.
                            service_mod.force = Some(inj.policy().agent_timeout);
                            hangs = true;
                        }
                    }
                    if hangs {
                        self.stats.on_agent_timeout();
                        self.tasks
                            .get_mut(tid)
                            .expect("task entry outlives its in-flight events")
                            .pending_timeout = true;
                    }
                    match self
                        .agents
                        .submit_with(now, host, primitive, tid, service_mod)
                    {
                        Ok(Some(start)) => {
                            out.push(Emit::At(
                                now + start.service,
                                MgmtEvent::AgentDone {
                                    host,
                                    task: tid,
                                    primitive: start.primitive,
                                    service: start.service,
                                    epoch: self.agents.epoch(host),
                                },
                            ));
                        }
                        Ok(None) => {} // queued at the host
                        Err(e) => {
                            self.finish(now, tid, Some(e.to_string()), out);
                        }
                    }
                    return;
                }
                Step::Transfer {
                    src,
                    dst,
                    bytes,
                    label,
                } => {
                    let (xid, events) = self.transfers.start(now, src, dst, bytes);
                    self.transfer_owner
                        .insert(xid, TransferOwner { task: tid, label });
                    if let Some(t) = self.tasks.get_mut(tid) {
                        t.transfer_started = Some(now);
                    }
                    for ev in events {
                        out.push(Emit::At(
                            ev.at,
                            MgmtEvent::TransferTick {
                                datastore: ev.datastore,
                                epoch: ev.epoch,
                            },
                        ));
                    }
                    return;
                }
                Step::Acquire(scope) => {
                    if self.admission.try_acquire(&scope) {
                        self.tasks
                            .get_mut(tid)
                            .expect("task entry outlives its in-flight events")
                            .scope = Some(scope);
                        continue;
                    }
                    let t = self
                        .tasks
                        .get_mut(tid)
                        .expect("task entry outlives its in-flight events");
                    t.parked_at = Some(now);
                    self.admission.park(tid, scope);
                    return;
                }
                Step::Continue => continue,
                Step::Done => {
                    self.finish(now, tid, None, out);
                    return;
                }
                Step::FailRetryable(err) => {
                    self.on_phase_failure(now, tid, err, out);
                    return;
                }
                Step::Fail(err) => {
                    self.finish(now, tid, Some(err), out);
                    return;
                }
            }
        }
    }

    /// Completes `tid`, releases its scope, resumes parked tasks, and
    /// emits the report.
    fn finish(&mut self, now: SimTime, tid: TaskId, error: Option<String>, out: &mut Vec<Emit>) {
        let mut task = self.tasks.remove(tid).expect("finishing a live task");
        if error.is_some() && self.rollback_partial(&mut task) {
            task.rolled_back = true;
            self.stats.on_rollback();
        }
        let failed = error.is_some();
        let report = TaskReport {
            kind: task.op.kind.name(),
            tag: task.op.tag,
            submitted_at: task.submitted_at,
            completed_at: now,
            latency: now.since(task.submitted_at),
            cpu_secs: task.cpu_secs,
            db_secs: task.db_secs,
            agent_secs: task.agent_secs,
            data_secs: task.data_secs,
            queue_secs: task.queue_secs,
            admission_secs: task.admission_secs,
            produced_vm: task.produced_vm,
            target_vm: task.target_vm,
            placement: task.placement,
            error,
            retries: task.retries,
            aborted: task.aborted,
            rolled_back: task.rolled_back,
            breakdown: std::mem::take(&mut task.breakdown),
        };
        self.stats.on_finished(&report);
        let kind = report.kind;
        out.push(if failed {
            Emit::Failed(tid, report)
        } else {
            Emit::Done(tid, report)
        });
        if let Some(scope) = task.scope {
            let resumed = self.admission.release(&scope);
            for (rtid, rscope) in resumed {
                if let Some(t) = self.tasks.get_mut(rtid) {
                    t.scope = Some(rscope);
                    if let Some(parked) = t.parked_at.take() {
                        t.admission_secs += now.since(parked).as_secs_f64();
                    }
                }
                self.advance(now, rtid, out);
            }
        }
        debug_assert!(
            self.inv.check_invariants().is_ok(),
            "inventory invariants violated after {kind:?}"
        );
    }

    /// Tears down partial state left by a failed task: a produced VM (and
    /// its disks) and any scratch disk whose copy never finished. Returns
    /// whether anything was released. Runs on every failure path so a
    /// half-provisioned VM never outlives its failed task.
    fn rollback_partial(&mut self, task: &mut Task) -> bool {
        let mut any = false;
        if let Some(vm) = task.produced_vm.take() {
            if self.inv.vm(vm).is_some() {
                // Mirror plan_destroy: power off, detach disks, destroy.
                // Each step tolerates absence (the task may have failed at
                // any point in the provisioning program).
                let _ = self.inv.power_off(vm);
                let disks = self.inv.vm(vm).map(|v| v.disks.clone()).unwrap_or_default();
                for d in disks {
                    let _ = self.storage.detach(&mut self.inv, d);
                }
                let _ = self.inv.destroy_vm(vm);
                any = true;
            }
        }
        if let Some(d) = task.work_disk.take() {
            // Still set only while the disk is dangling: attach points
            // clear `work_disk`, so this cannot double-free.
            if self.storage.disk(d).is_some() {
                let _ = self.storage.detach(&mut self.inv, d);
                any = true;
            }
        }
        any
    }

    /// A phase failed for a (possibly transient) fault-related reason.
    /// With fault injection installed the stage is retried after an
    /// exponential backoff until the retry budget runs out; without it the
    /// failure is terminal.
    fn on_phase_failure(&mut self, now: SimTime, tid: TaskId, err: String, out: &mut Vec<Emit>) {
        let Some(max_retries) = self.faults.as_ref().map(|inj| inj.policy().max_retries) else {
            self.finish(now, tid, Some(err), out);
            return;
        };
        let Some(t) = self.tasks.get_mut(tid) else {
            return; // already finished (a crash raced with another failure)
        };
        t.pending_timeout = false;
        if t.retries >= max_retries {
            t.aborted = true;
            self.stats.on_abort();
            self.finish(now, tid, Some(err), out);
            return;
        }
        t.retries += 1;
        // plan_step pre-increments the stage counter, so stepping it back
        // makes the retry replay the failed stage — with freshly sampled
        // costs, which is the retry amplification of control-plane load
        // the availability experiment measures.
        t.stage -= 1;
        let attempt = t.retries;
        self.stats.on_retry();
        let backoff = self
            .faults
            .as_mut()
            .expect("checked above")
            .backoff(attempt);
        out.push(Emit::At(now + backoff, MgmtEvent::Retry { task: tid }));
    }

    /// Applies one injected fault at `now`. Host/datastore indices in the
    /// plan are resolved modulo the current topology; recovery events are
    /// scheduled here so every fault window closes itself.
    fn on_fault(&mut self, now: SimTime, kind: FaultKind, out: &mut Vec<Emit>) {
        if self.faults.is_none() {
            return;
        }
        match kind {
            FaultKind::HostCrash { host, down_for } => {
                if self.heartbeat_hosts.is_empty() {
                    return;
                }
                let hid = self.heartbeat_hosts[host % self.heartbeat_hosts.len()];
                if self.inv.host(hid).is_none()
                    || self
                        .faults
                        .as_ref()
                        .expect("gated on faults.is_some() by this match arm")
                        .host_down(hid)
                {
                    return; // removed or already down: nothing new fails
                }
                self.faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .mark_host_down(host, hid);
                self.stats.on_host_crash();
                out.push(Emit::At(
                    now + down_for,
                    MgmtEvent::Fault(FaultKind::HostRecover { host }),
                ));
                let report = self.agents.crash_host(now, hid).expect("registered agent");
                for (prim, tid) in report.interrupted.into_iter().chain(report.dropped) {
                    self.on_phase_failure(
                        now,
                        tid,
                        format!("host crashed during {}", prim.name()),
                        out,
                    );
                }
                // Inventory state is deliberately NOT flipped here: the
                // plane only learns of the crash through missed
                // heartbeats, so detection latency is emergent.
            }
            FaultKind::HostRecover { host } => {
                // Clear the down flag; reconnection happens when healthy
                // heartbeats resume.
                let _ = self
                    .faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .recover_host(host);
            }
            FaultKind::AgentSlowdown { factor, duration } => {
                self.faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .push_agent_slow(factor);
                out.push(Emit::At(
                    now + duration,
                    MgmtEvent::Fault(FaultKind::AgentSpeedRestore { factor }),
                ));
            }
            FaultKind::AgentSpeedRestore { factor } => {
                self.faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .pop_agent_slow(factor);
            }
            FaultKind::DbDegraded { factor, duration } => {
                self.faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .push_db_slow(factor);
                out.push(Emit::At(
                    now + duration,
                    MgmtEvent::Fault(FaultKind::DbRestore { factor }),
                ));
            }
            FaultKind::DbRestore { factor } => {
                self.faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .pop_db_slow(factor);
            }
            FaultKind::DatastoreOutage { ds, duration } => {
                if self.datastore_order.is_empty() {
                    return;
                }
                let did = self.datastore_order[ds % self.datastore_order.len()];
                if self
                    .faults
                    .as_ref()
                    .expect("gated on faults.is_some() by this match arm")
                    .ds_down(did)
                {
                    return;
                }
                self.faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .mark_ds_down(ds, did);
                out.push(Emit::At(
                    now + duration,
                    MgmtEvent::Fault(FaultKind::DatastoreRestore { ds }),
                ));
            }
            FaultKind::DatastoreRestore { ds } => {
                let _ = self
                    .faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .restore_ds(ds);
            }
            FaultKind::HeartbeatDrops { host, duration } => {
                if self.heartbeat_hosts.is_empty() {
                    return;
                }
                let hid = self.heartbeat_hosts[host % self.heartbeat_hosts.len()];
                if self
                    .faults
                    .as_ref()
                    .expect("gated on faults.is_some() by this match arm")
                    .hb_dropped(hid)
                {
                    return;
                }
                self.faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .mark_hb_dropped(host, hid);
                out.push(Emit::At(
                    now + duration,
                    MgmtEvent::Fault(FaultKind::HeartbeatRestore { host }),
                ));
            }
            FaultKind::HeartbeatRestore { host } => {
                let _ = self
                    .faults
                    .as_mut()
                    .expect("gated on faults.is_some() by this match arm")
                    .restore_hb(host);
            }
        }
    }

    /// Samples a cost distribution. An associated function (not a method)
    /// so call sites can borrow the sampler out of `self.costs` while
    /// handing the rng out of `self.rng`.
    fn sample_cost(dist: &Sampler, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(dist.sample(rng))
    }

    fn next_clone_name(&mut self) -> String {
        self.name_seq += 1;
        format!("vm-{:06}", self.name_seq)
    }

    /// The per-operation phase program. Called with the task's stage
    /// counter already advanced to the stage to plan.
    #[allow(clippy::too_many_lines)]
    fn plan_step(&mut self, now: SimTime, tid: TaskId, out: &mut Vec<Emit>) -> Step {
        let (kind, stage) = {
            let t = self.tasks.get_mut(tid).expect("live task");
            t.stage += 1;
            (t.op.kind.clone(), t.stage)
        };

        // Shared prelude for every operation.
        if stage == 1 {
            let d = Self::sample_cost(&self.costs.api_ingress, &mut self.rng);
            return Step::Cpu("api-ingress", d);
        }
        if stage == 2 {
            if self.cfg.db_batching {
                // Batching folds the task record into the first real write.
                return Step::Continue;
            }
            let d = Self::sample_cost(&self.costs.db_task_record, &mut self.rng);
            return Step::Db("task-record", d);
        }

        match kind {
            OpKind::CreateVm { spec } => self.plan_create(now, tid, stage, spec),
            OpKind::CloneVm { source, mode } => self.plan_clone(now, tid, stage, source, mode),
            OpKind::PowerOn { vm } => self.plan_power(tid, stage, vm, true),
            OpKind::PowerOff { vm } => self.plan_power(tid, stage, vm, false),
            OpKind::Reconfigure { vm } => {
                self.plan_simple_vm_op(tid, stage, vm, Primitive::ReconfigureVm)
            }
            OpKind::Snapshot { vm } => self.plan_snapshot(tid, stage, vm),
            OpKind::RemoveSnapshot { vm } => self.plan_remove_snapshot(tid, stage, vm),
            OpKind::DestroyVm { vm } => self.plan_destroy(tid, stage, vm),
            OpKind::MigrateVm { vm } => self.plan_migrate(tid, stage, vm),
            OpKind::RelocateVm { vm, dst } => self.plan_relocate(tid, stage, vm, dst),
            OpKind::SeedTemplate { template, dst } => self.plan_seed(tid, stage, template, dst),
            OpKind::AddHost(params) => {
                let crate::op::AddHostParams { spec, datastores } = *params;
                self.plan_add_host(now, tid, stage, spec, datastores, out)
            }
            OpKind::RescanDatastores { host } => self.plan_rescan(tid, stage, host),
        }
    }

    // ---- per-op programs --------------------------------------------------

    /// Commits a freshly-picked placement against the external gate, if
    /// one is installed. Returns `None` when the task may proceed and the
    /// retryable failure step when the authoritative store rejected the
    /// reservation (the gate refreshes the contended datastore's mirror
    /// before returning, so the retried placement scan picks elsewhere).
    fn gate_commit(
        &mut self,
        now: SimTime,
        host: HostId,
        ds: DatastoreId,
        mem_mb: u64,
        disk_gb: f64,
    ) -> Option<Step> {
        let g = self.gate.as_mut()?;
        match g.commit(now, &mut self.inv, host, ds, mem_mb, disk_gb) {
            GateDecision::Commit => {
                self.stats.on_placement_commit();
                None
            }
            GateDecision::Conflict(reason) => {
                self.stats.on_placement_conflict();
                Some(Step::FailRetryable(reason))
            }
        }
    }

    fn placement_step(&mut self) -> Step {
        let hosts = self.inv.counts().hosts;
        let base = Self::sample_cost(&self.costs.placement_base, &mut self.rng);
        let per_host =
            SimDuration::from_secs_f64(self.cfg.cost.placement_per_host_us * 1e-6 * hosts as f64);
        Step::Cpu("placement", base + per_host)
    }

    fn plan_create(&mut self, now: SimTime, tid: TaskId, stage: u32, spec: VmSpec) -> Step {
        match stage {
            3 => self.placement_step(),
            4 => {
                let Some((host, ds)) =
                    self.placer
                        .place(&self.inv, &self.residency, spec.disk_gb, spec.mem_mb, None)
                else {
                    return Step::Fail("placement failed: no capacity".into());
                };
                if let Some(step) = self.gate_commit(now, host, ds, spec.mem_mb, spec.disk_gb) {
                    return step;
                }
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((host, ds));
                Step::Acquire(Scope::global_only().with_host(host).with_datastore(ds))
            }
            5 => {
                let d = Self::sample_cost(&self.costs.db_insert, &mut self.rng);
                Step::Db("insert-vm", d)
            }
            6 => {
                let (host, ds) = self
                    .tasks
                    .get(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement
                    .expect("placement recorded by an earlier stage");
                if self.faults.as_ref().is_some_and(|i| i.ds_down(ds)) {
                    return Step::FailRetryable(format!("datastore {ds} unavailable"));
                }
                let name = self.next_clone_name();
                let vm = match self.inv.create_vm(name, spec, host, ds) {
                    Ok(vm) => vm,
                    Err(e) => return Step::Fail(e.to_string()),
                };
                let disk = match self.storage.create_base(&mut self.inv, ds, spec.disk_gb) {
                    Ok(d) => d,
                    Err(e) => {
                        let _ = self.inv.destroy_vm(vm);
                        return Step::Fail(e.to_string());
                    }
                };
                self.inv.vm_mut(vm).expect("just created").disks.push(disk);
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .produced_vm = Some(vm);
                Step::Continue
            }
            7 => Step::Agent(self.placed_host(tid), Primitive::CreateVmFiles),
            8 => Step::Agent(self.placed_host(tid), Primitive::RegisterVm),
            9 => {
                let d = Self::sample_cost(&self.costs.result_processing, &mut self.rng);
                Step::Cpu("result-processing", d)
            }
            10 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("finalize-records", d)
            }
            11 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_clone(
        &mut self,
        now: SimTime,
        tid: TaskId,
        stage: u32,
        source: VmId,
        mode: CloneMode,
    ) -> Step {
        match stage {
            3 => {
                if mode == CloneMode::Instant {
                    // No placement scan: the fork lands on the parent's
                    // host and datastore by construction.
                    let d = Self::sample_cost(&self.costs.placement_base, &mut self.rng);
                    return Step::Cpu("placement", d);
                }
                self.placement_step()
            }
            4 => {
                let src = match self.inv.vm(source) {
                    Some(v) => v,
                    None => return Step::Fail(format!("clone source {source} no longer exists")),
                };
                if mode == CloneMode::Instant {
                    let (host, ds) = (src.host, src.datastore);
                    self.tasks
                        .get_mut(tid)
                        .expect("task entry outlives its in-flight events")
                        .placement = Some((host, ds));
                    return Step::Acquire(
                        Scope::global_only()
                            .with_host(host)
                            .with_datastore(ds)
                            .with_vm_shared(source),
                    );
                }
                let spec = src.spec;
                let prefer = (mode == CloneMode::Linked && self.cfg.placement_prefers_resident)
                    .then_some(source);
                let disk_need = match mode {
                    CloneMode::Full => spec.disk_gb,
                    CloneMode::Linked => self.cfg.linked_delta_gb,
                    // cpsim-lint: allow(no-panic-hot-path, panic-reachability): the Instant arm returns at the top of this stage, so this match sees only Full/Linked
                    CloneMode::Instant => unreachable!("instant handled above"),
                };
                let mut placement =
                    self.placer
                        .place(&self.inv, &self.residency, disk_need, spec.mem_mb, prefer);
                if mode == CloneMode::Linked {
                    // If we landed on a non-resident datastore the shadow
                    // copy needs space for a full base as well.
                    if let Some((_, ds)) = placement {
                        if !self.residency.is_resident(source, ds) {
                            placement = self.placer.place(
                                &self.inv,
                                &self.residency,
                                spec.disk_gb + self.cfg.linked_delta_gb,
                                spec.mem_mb,
                                prefer,
                            );
                        }
                    }
                }
                let Some((host, ds)) = placement else {
                    return Step::Fail("placement failed: no capacity".into());
                };
                // What the commit reserves on `ds`: the full base for a
                // full clone, the delta for a resident linked clone, and
                // base + delta when a shadow copy must land first.
                let commit_gb = if mode == CloneMode::Full {
                    spec.disk_gb
                } else if self.residency.is_resident(source, ds) {
                    self.cfg.linked_delta_gb
                } else {
                    spec.disk_gb + self.cfg.linked_delta_gb
                };
                if let Some(step) = self.gate_commit(now, host, ds, spec.mem_mb, commit_gb) {
                    return step;
                }
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((host, ds));
                Step::Acquire(
                    Scope::global_only()
                        .with_host(host)
                        .with_datastore(ds)
                        .with_vm_shared(source),
                )
            }
            5 => {
                let src_host = match self.inv.vm(source) {
                    Some(v) => v.host,
                    None => return Step::Fail("clone source vanished".into()),
                };
                let prim = if mode == CloneMode::Instant {
                    Primitive::InstantFork
                } else {
                    Primitive::PrepareClone
                };
                Step::Agent(src_host, prim)
            }
            6 => {
                let d = Self::sample_cost(&self.costs.db_insert, &mut self.rng);
                Step::Db("insert-vm", d)
            }
            7 => {
                // Create the VM record and kick off data materialization.
                let (host, ds) = self
                    .tasks
                    .get(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement
                    .expect("placement recorded by an earlier stage");
                if self.faults.as_ref().is_some_and(|i| i.ds_down(ds)) {
                    return Step::FailRetryable(format!("datastore {ds} unavailable"));
                }
                let (spec, src_ds) = match self.inv.vm(source) {
                    Some(v) => (v.spec, v.datastore),
                    None => return Step::Fail("clone source vanished".into()),
                };
                let name = self.next_clone_name();
                let vm = match self.inv.create_vm(name, spec, host, ds) {
                    Ok(vm) => vm,
                    Err(e) => return Step::Fail(e.to_string()),
                };
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .produced_vm = Some(vm);
                match mode {
                    CloneMode::Instant => {
                        let parent = match self.inv.vm(source).and_then(|v| v.disks.last().copied())
                        {
                            Some(d) => d,
                            None => return Step::Fail("instant-clone source has no disks".into()),
                        };
                        let delta = match self.storage.create_delta(
                            &mut self.inv,
                            parent,
                            self.cfg.linked_delta_gb,
                        ) {
                            Ok(d) => d,
                            Err(e) => return Step::Fail(e.to_string()),
                        };
                        self.inv
                            .vm_mut(vm)
                            .expect("vm stays in inventory while its task runs")
                            .disks
                            .push(delta);
                        Step::Continue
                    }
                    CloneMode::Full => {
                        let disk = match self.storage.create_base(&mut self.inv, ds, spec.disk_gb) {
                            Ok(d) => d,
                            Err(e) => return Step::Fail(e.to_string()),
                        };
                        self.tasks
                            .get_mut(tid)
                            .expect("task entry outlives its in-flight events")
                            .work_disk = Some(disk);
                        Step::Transfer {
                            src: src_ds,
                            dst: ds,
                            bytes: spec.disk_gb * GIB,
                            label: "clone-copy",
                        }
                    }
                    CloneMode::Linked => {
                        if self.residency.resident_disk(source, ds).is_some() {
                            Step::Transfer {
                                src: ds,
                                dst: ds,
                                bytes: self.cfg.linked_metadata_bytes,
                                label: "clone-metadata",
                            }
                        } else {
                            // Shadow copy: materialize a full base first.
                            let disk =
                                match self.storage.create_base(&mut self.inv, ds, spec.disk_gb) {
                                    Ok(d) => d,
                                    Err(e) => return Step::Fail(e.to_string()),
                                };
                            let t = self
                                .tasks
                                .get_mut(tid)
                                .expect("task entry outlives its in-flight events");
                            t.work_disk = Some(disk);
                            t.shadow_copy = true;
                            Step::Transfer {
                                src: src_ds,
                                dst: ds,
                                bytes: spec.disk_gb * GIB,
                                label: "shadow-copy",
                            }
                        }
                    }
                }
            }
            8 => {
                // Wire up disks now that data movement is done.
                let (_, ds) = self
                    .tasks
                    .get(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement
                    .expect("placement recorded by an earlier stage");
                let vm = self
                    .tasks
                    .get(tid)
                    .expect("task entry outlives its in-flight events")
                    .produced_vm
                    .expect("produced by an earlier stage of this task");
                match mode {
                    CloneMode::Instant => return Step::Continue,
                    CloneMode::Full => {
                        let disk = self
                            .tasks
                            .get_mut(tid)
                            .expect("task entry outlives its in-flight events")
                            .work_disk
                            .take()
                            .expect("produced by an earlier stage of this task");
                        self.inv
                            .vm_mut(vm)
                            .expect("vm stays in inventory while its task runs")
                            .disks
                            .push(disk);
                    }
                    CloneMode::Linked => {
                        let (shadow, shadow_disk) = {
                            let t = self
                                .tasks
                                .get(tid)
                                .expect("task entry outlives its in-flight events");
                            (t.shadow_copy, t.work_disk)
                        };
                        let parent = if shadow {
                            shadow_disk.expect("shadow created")
                        } else {
                            self.residency
                                .resident_disk(source, ds)
                                .expect("checked resident at stage 7")
                        };
                        let delta = match self.storage.create_delta(
                            &mut self.inv,
                            parent,
                            self.cfg.linked_delta_gb,
                        ) {
                            Ok(d) => d,
                            Err(e) => return Step::Fail(e.to_string()),
                        };
                        self.inv
                            .vm_mut(vm)
                            .expect("vm stays in inventory while its task runs")
                            .disks
                            .push(delta);
                        if shadow {
                            // Several clones may have raced to make the
                            // first copy on this datastore (the shadow-VM
                            // stampede of the real stack). The winner's
                            // copy becomes the resident replica; a loser's
                            // copy backs only its own clone and is
                            // collected when that clone dies.
                            if self.residency.resident_disk(source, ds).is_none() {
                                self.residency.seed(source, ds, parent);
                            } else if let Err(e) = self.storage.detach(&mut self.inv, parent) {
                                return Step::Fail(e.to_string());
                            }
                            self.tasks
                                .get_mut(tid)
                                .expect("task entry outlives its in-flight events")
                                .work_disk = None;
                        }
                    }
                }
                Step::Continue
            }
            9 => {
                if mode == CloneMode::Instant {
                    // The fork is complete at creation; no destination-side
                    // customization pass.
                    return Step::Continue;
                }
                Step::Agent(self.placed_host(tid), Primitive::FinalizeClone)
            }
            10 => Step::Agent(self.placed_host(tid), Primitive::RegisterVm),
            11 => {
                let d = Self::sample_cost(&self.costs.result_processing, &mut self.rng);
                Step::Cpu("result-processing", d)
            }
            12 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("finalize-records", d)
            }
            13 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_power(&mut self, tid: TaskId, stage: u32, vm: VmId, on: bool) -> Step {
        match stage {
            3 => {
                let host = match self.inv.vm(vm) {
                    Some(v) => v.host,
                    None => return Step::Fail(format!("vm {vm} no longer exists")),
                };
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((
                    host,
                    self.inv
                        .vm(vm)
                        .expect("vm stays in inventory while its task runs")
                        .datastore,
                ));
                Step::Acquire(Scope::global_only().with_host(host).with_vm(vm))
            }
            4 => Step::Agent(
                self.placed_host(tid),
                if on {
                    Primitive::PowerOnVm
                } else {
                    Primitive::PowerOffVm
                },
            ),
            5 => {
                let res = if on {
                    self.inv.power_on(vm)
                } else {
                    self.inv.power_off(vm)
                };
                match res {
                    Ok(()) => Step::Continue,
                    Err(e) => Step::Fail(e.to_string()),
                }
            }
            6 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("update-power-state", d)
            }
            7 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_simple_vm_op(
        &mut self,
        tid: TaskId,
        stage: u32,
        vm: VmId,
        primitive: Primitive,
    ) -> Step {
        match stage {
            3 => {
                let host = match self.inv.vm(vm) {
                    Some(v) => v.host,
                    None => return Step::Fail(format!("vm {vm} no longer exists")),
                };
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((
                    host,
                    self.inv
                        .vm(vm)
                        .expect("vm stays in inventory while its task runs")
                        .datastore,
                ));
                Step::Acquire(Scope::global_only().with_host(host).with_vm(vm))
            }
            4 => Step::Agent(self.placed_host(tid), primitive),
            5 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("update-config", d)
            }
            6 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_snapshot(&mut self, tid: TaskId, stage: u32, vm: VmId) -> Step {
        match stage {
            3 => {
                let host = match self.inv.vm(vm) {
                    Some(v) => v.host,
                    None => return Step::Fail(format!("vm {vm} no longer exists")),
                };
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((
                    host,
                    self.inv
                        .vm(vm)
                        .expect("vm stays in inventory while its task runs")
                        .datastore,
                ));
                Step::Acquire(Scope::global_only().with_host(host).with_vm(vm))
            }
            4 => Step::Agent(self.placed_host(tid), Primitive::CreateSnapshot),
            5 => {
                let disk = match self.inv.vm(vm).and_then(|v| v.disks.last().copied()) {
                    Some(d) => d,
                    None => return Step::Fail(format!("vm {vm} has no disks to snapshot")),
                };
                match self
                    .storage
                    .snapshot(&mut self.inv, disk, self.cfg.snapshot_delta_gb)
                {
                    Ok(new_top) => {
                        let v = self
                            .inv
                            .vm_mut(vm)
                            .expect("vm stays in inventory while its task runs");
                        *v.disks.last_mut().expect("non-empty") = new_top;
                        Step::Continue
                    }
                    Err(e) => Step::Fail(e.to_string()),
                }
            }
            6 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("update-snapshot", d)
            }
            7 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_remove_snapshot(&mut self, tid: TaskId, stage: u32, vm: VmId) -> Step {
        match stage {
            3 => {
                let host = match self.inv.vm(vm) {
                    Some(v) => v.host,
                    None => return Step::Fail(format!("vm {vm} no longer exists")),
                };
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((
                    host,
                    self.inv
                        .vm(vm)
                        .expect("vm stays in inventory while its task runs")
                        .datastore,
                ));
                Step::Acquire(Scope::global_only().with_host(host).with_vm(vm))
            }
            4 => Step::Agent(self.placed_host(tid), Primitive::RemoveSnapshot),
            5 => {
                let (disk, ds) = match self.inv.vm(vm) {
                    Some(v) => match v.disks.last().copied() {
                        Some(d) => (d, v.datastore),
                        None => return Step::Fail(format!("vm {vm} has no disks")),
                    },
                    None => return Step::Fail(format!("vm {vm} no longer exists")),
                };
                match self.storage.consolidate(&mut self.inv, disk) {
                    Ok((merged_into, bytes)) => {
                        let v = self
                            .inv
                            .vm_mut(vm)
                            .expect("vm stays in inventory while its task runs");
                        *v.disks.last_mut().expect("non-empty") = merged_into;
                        Step::Transfer {
                            src: ds,
                            dst: ds,
                            bytes,
                            label: "snapshot-merge",
                        }
                    }
                    Err(e) => Step::Fail(e.to_string()),
                }
            }
            6 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("update-snapshot", d)
            }
            7 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_destroy(&mut self, tid: TaskId, stage: u32, vm: VmId) -> Step {
        match stage {
            3 => {
                let v = match self.inv.vm(vm) {
                    Some(v) => v,
                    None => return Step::Fail(format!("vm {vm} no longer exists")),
                };
                if v.power == PowerState::On {
                    return Step::Fail(format!("vm {vm} is powered on"));
                }
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((v.host, v.datastore));
                Step::Acquire(Scope::global_only().with_host(v.host).with_vm(vm))
            }
            4 => Step::Agent(self.placed_host(tid), Primitive::UnregisterVm),
            5 => Step::Agent(self.placed_host(tid), Primitive::DeleteVmFiles),
            6 => {
                let disks = match self.inv.vm(vm) {
                    Some(v) => v.disks.clone(),
                    None => return Step::Fail(format!("vm {vm} vanished mid-destroy")),
                };
                for d in disks {
                    if let Err(e) = self.storage.detach(&mut self.inv, d) {
                        return Step::Fail(e.to_string());
                    }
                }
                if let Err(e) = self.inv.destroy_vm(vm) {
                    return Step::Fail(e.to_string());
                }
                Step::Continue
            }
            7 => {
                let d = Self::sample_cost(&self.costs.result_processing, &mut self.rng);
                Step::Cpu("result-processing", d)
            }
            8 => {
                let d = Self::sample_cost(&self.costs.db_delete, &mut self.rng);
                Step::Db("delete-records", d)
            }
            9 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_migrate(&mut self, tid: TaskId, stage: u32, vm: VmId) -> Step {
        match stage {
            3 => self.placement_step(),
            4 => {
                let (src_host, ds, mem) = match self.inv.vm(vm) {
                    Some(v) => (v.host, v.datastore, v.spec.mem_mb),
                    None => return Step::Fail(format!("vm {vm} no longer exists")),
                };
                let Some(dst_host) = self.placer.pick_host(&self.inv, ds, mem, Some(src_host))
                else {
                    return Step::Fail("migration placement failed: no destination host".into());
                };
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((dst_host, ds));
                Step::Acquire(
                    Scope::global_only()
                        .with_host(src_host)
                        .with_host2(dst_host)
                        .with_vm(vm),
                )
            }
            5 => {
                let src_host = match self.inv.vm(vm) {
                    Some(v) => v.host,
                    None => return Step::Fail("vm vanished".into()),
                };
                Step::Agent(src_host, Primitive::MigrateSource)
            }
            6 => Step::Agent(self.placed_host(tid), Primitive::MigrateDest),
            7 => {
                let dst = self.placed_host(tid);
                match self.inv.relocate_vm(vm, dst) {
                    Ok(()) => Step::Continue,
                    Err(e) => Step::Fail(e.to_string()),
                }
            }
            8 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("update-placement", d)
            }
            9 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_relocate(&mut self, tid: TaskId, stage: u32, vm: VmId, dst: DatastoreId) -> Step {
        match stage {
            3 => {
                let v = match self.inv.vm(vm) {
                    Some(v) => v,
                    None => return Step::Fail(format!("vm {vm} no longer exists")),
                };
                if v.datastore == dst {
                    return Step::Fail("relocate source and destination are the same".into());
                }
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = Some((v.host, dst));
                Step::Acquire(
                    Scope::global_only()
                        .with_host(v.host)
                        .with_datastore(dst)
                        .with_vm(vm),
                )
            }
            4 => {
                let (src_ds, total_gb) = match self.inv.vm(vm) {
                    Some(v) => {
                        let total: f64 = v
                            .disks
                            .iter()
                            .filter_map(|d| self.storage.disk(*d))
                            .map(|d| d.allocated_gb)
                            .sum();
                        (v.datastore, total)
                    }
                    None => return Step::Fail("vm vanished".into()),
                };
                if self.faults.as_ref().is_some_and(|i| i.ds_down(dst)) {
                    return Step::FailRetryable(format!("datastore {dst} unavailable"));
                }
                let new_disk = match self.storage.create_base(&mut self.inv, dst, total_gb) {
                    Ok(d) => d,
                    Err(e) => return Step::Fail(e.to_string()),
                };
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .work_disk = Some(new_disk);
                Step::Transfer {
                    src: src_ds,
                    dst,
                    bytes: total_gb * GIB,
                    label: "relocate-copy",
                }
            }
            5 => {
                let new_disk = self
                    .tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .work_disk
                    .take()
                    .expect("produced by an earlier stage of this task");
                let old_disks = match self.inv.vm(vm) {
                    Some(v) => v.disks.clone(),
                    None => return Step::Fail("vm vanished".into()),
                };
                for d in old_disks {
                    if let Err(e) = self.storage.detach(&mut self.inv, d) {
                        return Step::Fail(e.to_string());
                    }
                }
                let v = self
                    .inv
                    .vm_mut(vm)
                    .expect("vm stays in inventory while its task runs");
                v.disks = vec![new_disk];
                v.datastore = dst;
                Step::Continue
            }
            6 => Step::Agent(self.placed_host(tid), Primitive::ReconfigureVm),
            7 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("update-placement", d)
            }
            8 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_seed(&mut self, tid: TaskId, stage: u32, template: VmId, dst: DatastoreId) -> Step {
        match stage {
            3 => {
                if self.residency.is_resident(template, dst) {
                    return Step::Fail(format!("template {template} already resident on {dst}"));
                }
                Step::Acquire(Scope::global_only().with_datastore(dst))
            }
            4 => {
                let (src_ds, gb) = match self.inv.vm(template) {
                    Some(v) => (v.datastore, v.spec.disk_gb),
                    None => return Step::Fail(format!("template {template} no longer exists")),
                };
                if self.faults.as_ref().is_some_and(|i| i.ds_down(dst)) {
                    return Step::FailRetryable(format!("datastore {dst} unavailable"));
                }
                let disk = match self.storage.create_base(&mut self.inv, dst, gb) {
                    Ok(d) => d,
                    Err(e) => return Step::Fail(e.to_string()),
                };
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .work_disk = Some(disk);
                Step::Transfer {
                    src: src_ds,
                    dst,
                    bytes: gb * GIB,
                    label: "seed-copy",
                }
            }
            5 => {
                let disk = self
                    .tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .work_disk
                    .take()
                    .expect("produced by an earlier stage of this task");
                self.residency.seed(template, dst, disk);
                Step::Continue
            }
            6 => {
                let d = Self::sample_cost(&self.costs.db_insert, &mut self.rng);
                Step::Db("insert-replica", d)
            }
            7 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_add_host(
        &mut self,
        now: SimTime,
        tid: TaskId,
        stage: u32,
        spec: HostSpec,
        datastores: Vec<DatastoreId>,
        out: &mut Vec<Emit>,
    ) -> Step {
        match stage {
            3 => {
                let d = Self::sample_cost(&self.costs.host_sync, &mut self.rng);
                Step::Cpu("host-sync", d)
            }
            4 => {
                let d = Self::sample_cost(&self.costs.db_insert, &mut self.rng);
                Step::Db("insert-host", d)
            }
            5 => {
                let host = self.inv.add_host(spec);
                for ds in &datastores {
                    if let Err(e) = self.inv.connect_host_datastore(host, *ds) {
                        return Step::Fail(e.to_string());
                    }
                }
                self.agents.add_host(host, self.cfg.agent_concurrency);
                let slot = self.heartbeat_hosts.len();
                self.heartbeat_hosts.push(host);
                let hb = self.cfg.heartbeat;
                let beats = &mut self.stations.get_mut().beats;
                if beats.is_armed() {
                    // Its event would have been scheduled by this call,
                    // behind the timers already emitted.
                    let ahead = out.iter().filter(|e| matches!(e, Emit::At(..))).count();
                    beats.push(Beat {
                        at: now + hb.interval,
                        seq: cpsim_des::dispatch_pos().next_seq + ahead as u64,
                        slot,
                    });
                } else if !hb.is_disabled() {
                    out.push(Emit::At(now + hb.interval, MgmtEvent::Heartbeat { slot }));
                }
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = datastores.first().map(|ds| (host, *ds));
                Step::Continue
            }
            6 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn plan_rescan(&mut self, tid: TaskId, stage: u32, host: HostId) -> Step {
        match stage {
            3 => {
                if self.inv.host(host).is_none() {
                    return Step::Fail(format!("host {host} no longer exists"));
                }
                let ds = self
                    .inv
                    .host(host)
                    .expect("host records persist for the whole run")
                    .datastores
                    .first()
                    .copied();
                self.tasks
                    .get_mut(tid)
                    .expect("task entry outlives its in-flight events")
                    .placement = ds.map(|d| (host, d));
                Step::Acquire(Scope::global_only().with_host(host))
            }
            4 => Step::Agent(host, Primitive::MountDatastore),
            5 => {
                let d = Self::sample_cost(&self.costs.db_update, &mut self.rng);
                Step::Db("update-storage", d)
            }
            6 => {
                let d = Self::sample_cost(&self.costs.finalize, &mut self.rng);
                Step::Cpu("finalize", d)
            }
            _ => Step::Done,
        }
    }

    fn placed_host(&self, tid: TaskId) -> HostId {
        self.tasks
            .get(tid)
            .expect("task entry outlives its in-flight events")
            .placement
            .expect("placement made before agent phases")
            .0
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("tasks_in_flight", &self.tasks.len())
            .field("inventory", &self.inv.counts())
            .finish()
    }
}
