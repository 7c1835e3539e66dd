//! The [`ControlPlane`] orchestrator: executes management operations as
//! phase programs over shared control-plane resources.
//!
//! See the crate docs for the model. The plane is event-driven: callers
//! deliver [`MgmtEvent`]s with explicit timestamps via
//! [`ControlPlane::handle`] and route the returned [`Emit`]s.

use std::cell::RefCell;
use std::collections::BTreeSet;

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
use crate::op::{AddHostParams, CloneMode, OpKind, Operation};
use crate::placement::Placer;
use crate::recovery::{BeatOutcome, FaultInjector};
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

/// One of the management server's two stations.
#[derive(Clone, Copy)]
enum Station {
    Cpu,
    Db,
}

impl Station {
    fn class(self) -> PhaseClass {
        match self {
            Station::Cpu => PhaseClass::Cpu,
            Station::Db => PhaseClass::Db,
        }
    }

    /// The event that ends `job`'s service here.
    fn done(self, job: ServiceJob) -> MgmtEvent {
        match self {
            Station::Cpu => MgmtEvent::CpuDone(job),
            Station::Db => MgmtEvent::DbDone(job),
        }
    }
}

/// The management server's CPU and database, and the beats they are owed.
struct Stations {
    cpu: FcfsStation<ServiceJob>,
    db: FcfsStation<ServiceJob>,
    beats: BeatTrain,
}

impl Stations {
    fn get(&mut self, s: Station) -> &mut FcfsStation<ServiceJob> {
        match s {
            Station::Cpu => &mut self.cpu,
            Station::Db => &mut self.db,
        }
    }

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
    /// heartbeats and resyncs are charged. Background work schedules no
    /// event. No-op without a gate.
    pub fn sync_placement_gate(&mut self, now: SimTime) {
        self.replay_beats(now);
        let Some(g) = self.gate.as_mut() else {
            return;
        };
        g.sync(&mut self.inv);
        self.stats.on_placement_sync();
        let cpu = Self::sample_cost(&self.costs.result_processing, &mut self.rng);
        self.charge_background(now, Station::Cpu, cpu);
        let db = Self::sample_cost(&self.costs.db_update, &mut self.rng);
        self.charge_background(now, Station::Db, db);
    }

    /// Refreshes the mirrored view without charging any cost: the
    /// setup-time initial sync, run once after the federation seeds the
    /// shared pool (not part of the simulated run).
    pub fn sync_placement_gate_quiet(&mut self) {
        if let Some(g) = self.gate.as_mut() {
            g.sync(&mut self.inv);
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

    /// The VMs in-flight tasks are working on: each task's target and
    /// the VM it has produced so far. End-of-run audits use this to tell a
    /// VM a task is still creating or destroying from a leaked one.
    pub fn vms_in_flight(&self) -> impl Iterator<Item = VmId> + '_ {
        self.tasks
            .iter()
            .flat_map(|(_, t)| [t.report.target_vm, t.report.produced_vm])
            .flatten()
    }

    /// Checks admission conservation: the global slots in use are the
    /// live tasks holding a scope, and the VM locks held are the distinct
    /// VMs those scopes name. A scope dropped without release, or taken
    /// twice, leaks a slot or a lock and fails this.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn check_admission(&self) -> Result<(), String> {
        let scopes: Vec<&Scope> = self
            .tasks
            .iter()
            .filter_map(|(_, t)| t.scope.as_deref())
            .collect();
        let slots = self.admission.in_flight() as usize;
        if slots != scopes.len() {
            return Err(format!(
                "{slots} global slots in use, {} tasks hold a scope",
                scopes.len()
            ));
        }
        let vms: BTreeSet<VmId> = scopes
            .iter()
            .flat_map(|s| s.vms.iter().chain(&s.vms_shared))
            .copied()
            .collect();
        let locks = self.admission.vm_locks_held();
        if locks != vms.len() {
            return Err(format!(
                "{locks} VM locks held, held scopes name {} VMs",
                vms.len()
            ));
        }
        Ok(())
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
                self.stats.on_submitted();
                let tid = self.tasks.insert(Task::new(op, now));
                self.advance(now, tid, out);
            }
            MgmtEvent::CpuDone(job) => self.station_done(now, Station::Cpu, job, out),
            MgmtEvent::DbDone(job) => self.station_done(now, Station::Db, job, out),
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

    /// A job left station `s`: charges it to its task, starts the next
    /// queued job, and advances the task.
    fn station_done(&mut self, now: SimTime, s: Station, job: ServiceJob, out: &mut Vec<Emit>) {
        if let Owner::Task(tid) = job.owner {
            if let Some(task) = self.tasks.get_mut(tid) {
                task.charge(s.class(), job.label, job.service.as_secs_f64());
            }
        }
        if let Some(next) = self.stations.get_mut().get(s).complete(now) {
            self.charge_queue_wait(next.job.owner, next.waited);
            out.push(Emit::At(now + next.job.service, s.done(next.job)));
        }
        if let Owner::Task(tid) = job.owner {
            self.advance(now, tid, out);
        }
    }

    fn on_heartbeat(&mut self, now: SimTime, slot: usize, out: &mut Vec<Emit>) {
        let Some(&host) = self.heartbeat_hosts.get(slot) else {
            return;
        };
        let Some(h) = self.inv.host(host) else {
            return; // host removed: stop its beats
        };
        let connected = h.state == HostState::Connected;
        let hb = self.cfg.heartbeat;
        let outcome = self
            .faults
            .as_mut()
            .map_or(BeatOutcome::Answered, |inj| inj.heartbeat(host, connected));
        match outcome {
            // No beat arrives, and nothing is charged: consecutive misses
            // eventually make the plane declare the host down, triggering
            // an inventory resync the control plane pays for.
            BeatOutcome::Missed => {}
            BeatOutcome::DeclareDown => {
                let _ = self.inv.set_host_state(host, HostState::Disconnected);
                self.stats.on_host_declared_down();
                self.charge_resync(now);
            }
            BeatOutcome::Reconnect | BeatOutcome::Answered => {
                if outcome == BeatOutcome::Reconnect {
                    // The host answered again: reconnect it and resync.
                    let _ = self.inv.set_host_state(host, HostState::Connected);
                    self.charge_resync(now);
                }
                if !hb.mgmt_cpu.is_zero() {
                    self.charge_background(now, Station::Cpu, hb.mgmt_cpu);
                }
                if !hb.db_time.is_zero() {
                    self.charge_background(now, Station::Db, hb.db_time);
                }
            }
        }
        out.push(Emit::At(now + hb.interval, MgmtEvent::Heartbeat { slot }));
    }

    /// Charges the CPU + DB cost of a host-state resync as background
    /// management load (host declared down, or reconnected after one).
    fn charge_resync(&mut self, now: SimTime) {
        self.stats.on_resync();
        let cpu = Self::sample_cost(&self.costs.host_sync, &mut self.rng);
        self.charge_background(now, Station::Cpu, cpu);
        let db = Self::sample_cost(&self.costs.db_update, &mut self.rng);
        self.charge_background(now, Station::Db, db);
    }

    fn charge_queue_wait(&mut self, owner: Owner, waited: SimDuration) {
        if let Owner::Task(tid) = owner {
            if let Some(t) = self.tasks.get_mut(tid) {
                t.report.queue_secs += waited.as_secs_f64();
            }
        }
    }

    /// `service` as station `s` serves it: degraded-DB windows stretch
    /// every statement while open.
    fn scaled(&self, s: Station, service: SimDuration) -> SimDuration {
        match (&self.faults, s) {
            (Some(inj), Station::Db) if inj.db_scale() != 1.0 => {
                SimDuration::from_secs_f64(service.as_secs_f64() * inj.db_scale())
            }
            _ => service,
        }
    }

    /// Charges background work to station `s`. No task owns it and no
    /// event ends it.
    fn charge_background(&mut self, now: SimTime, s: Station, service: SimDuration) {
        let service = self.scaled(s, service);
        self.stations.get_mut().get(s).arrive_lazy(now, service);
    }

    /// Offers task `tid`'s job to station `s`. It gets its completion
    /// event when it starts now, and a hand-off when it waits behind
    /// background work.
    fn enqueue(
        &mut self,
        now: SimTime,
        s: Station,
        tid: TaskId,
        label: &'static str,
        service: SimDuration,
        out: &mut Vec<Emit>,
    ) {
        let service = self.scaled(s, service);
        let job = ServiceJob {
            owner: Owner::Task(tid),
            label,
            service,
        };
        let (at, job) = match self.stations.get_mut().get(s).arrive(now, service, job) {
            Arrival::Started(job) => (now + job.service, job),
            Arrival::Queued => return,
            Arrival::Handoff(at) => (at, HANDOFF),
        };
        out.push(Emit::At(at, s.done(job)));
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
                    self.enqueue(now, Station::Cpu, tid, label, dur, out);
                    return;
                }
                Step::Db(label, dur) => {
                    self.enqueue(now, Station::Db, tid, label, dur, out);
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
                    let service_mod = self
                        .faults
                        .as_mut()
                        .map_or_else(ServiceMod::default, FaultInjector::agent_service);
                    if service_mod.force.is_some() {
                        // The primitive hangs: it occupies the agent until
                        // the phase timeout, then fails.
                        self.stats.on_agent_timeout();
                        self.task_mut(tid).pending_timeout = true;
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
                        self.task_mut(tid).scope = Some(Box::new(scope));
                        continue;
                    }
                    self.task_mut(tid).parked_at = Some(now);
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
            task.report.rolled_back = true;
            self.stats.on_rollback();
        }
        let failed = error.is_some();
        let mut report = task.report;
        if let Some(g) = self.gate.as_mut() {
            // Settled in the kernel event that finishes the task. No gate
            // commit can come between a task's commit and this: placement
            // precedes the task's only `Acquire`.
            g.settle(tid, report.produced_vm.filter(|_| !failed));
            if let (false, OpKind::DestroyVm { vm }) = (failed, &task.op) {
                g.release(*vm);
            }
        }
        report.completed_at = now;
        report.latency = now.since(report.submitted_at);
        report.error = error;
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
                    t.scope = Some(Box::new(rscope));
                    if let Some(parked) = t.parked_at.take() {
                        t.report.admission_secs += now.since(parked).as_secs_f64();
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
        if let Some(vm) = task.report.produced_vm.take() {
            if self.inv.vm(vm).is_some() {
                // Mirror the destroy program: power off, detach disks, destroy.
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
        let Some(inj) = self.faults.as_mut() else {
            self.finish(now, tid, Some(err), out);
            return;
        };
        let Some(t) = self.tasks.get_mut(tid) else {
            return; // already finished (a crash raced with another failure)
        };
        t.pending_timeout = false;
        if t.report.retries >= inj.policy().max_retries {
            t.report.aborted = true;
            self.stats.on_abort();
            self.finish(now, tid, Some(err), out);
            return;
        }
        t.report.retries += 1;
        // plan_step pre-increments the stage counter, so stepping it back
        // makes the retry replay the failed stage — with freshly sampled
        // costs, which is the retry amplification of control-plane load
        // the availability experiment measures.
        t.stage -= 1;
        let attempt = t.report.retries;
        self.stats.on_retry();
        let backoff = inj.backoff(attempt);
        out.push(Emit::At(now + backoff, MgmtEvent::Retry { task: tid }));
    }

    /// Applies one injected fault at `now` through the injector, which
    /// resolves plan indices modulo the current topology and opens or
    /// closes the window; the close of every window it opens is scheduled
    /// here. A crash also takes the host's agent down.
    fn on_fault(&mut self, now: SimTime, kind: FaultKind, out: &mut Vec<Emit>) {
        let Some(inj) = self.faults.as_mut() else {
            return;
        };
        let (hosts, inv) = (&self.heartbeat_hosts, &self.inv);
        let host = |i| nth(hosts, i).filter(|&h| inv.host(h).is_some());
        let Some((delay, close)) = inj.apply(now, kind, host, |i| nth(&self.datastore_order, i))
        else {
            return;
        };
        out.push(Emit::At(now + delay, MgmtEvent::Fault(close)));
        let FaultKind::HostCrash { host, .. } = kind else {
            return;
        };
        // The crash opened, so the index resolved to a live host.
        let hid = self.heartbeat_hosts[host % self.heartbeat_hosts.len()];
        self.stats.on_host_crash();
        let report = self.agents.crash_host(now, hid).expect("registered agent");
        for (prim, tid) in report.interrupted.into_iter().chain(report.dropped) {
            self.on_phase_failure(
                now,
                tid,
                format!("host crashed during {}", prim.name()),
                out,
            );
        }
        // Inventory state is deliberately NOT flipped here: the plane only
        // learns of the crash through missed heartbeats, so detection
        // latency is emergent.
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

    /// The phase-program interpreter: advances `tid`'s stage counter and
    /// plans that stage. Stages 1 and 2 are the prelude every operation
    /// shares; the rest come from the operation's [`program`].
    fn plan_step(&mut self, now: SimTime, tid: TaskId, out: &mut Vec<Emit>) -> Step {
        let t = self.tasks.get_mut(tid).expect("live task");
        t.stage += 1;
        let stage = match t.stage {
            1 => {
                let d = Self::sample_cost(&self.costs.api_ingress, &mut self.rng);
                return Step::Cpu("api-ingress", d);
            }
            // Batching folds the task record into the first real write.
            2 if self.cfg.db_batching => return Step::Continue,
            2 => {
                let d = Self::sample_cost(&self.costs.db_task_record, &mut self.rng);
                return Step::Db("task-record", d);
            }
            n => program(&t.op).get(n as usize - 3).copied(),
        };
        let planned = match stage {
            None => Ok(Step::Done),
            Some(Stage::Cpu(label, cost)) => Ok(Step::Cpu(
                label,
                Self::sample_cost(cost(&self.costs), &mut self.rng),
            )),
            Some(Stage::Db(label, cost)) => Ok(Step::Db(
                label,
                Self::sample_cost(cost(&self.costs), &mut self.rng),
            )),
            Some(Stage::Placement) => Ok(self.placement_step()),
            Some(Stage::Agent(on, primitive)) => self
                .agent_host(tid, on)
                .map(|host| Step::Agent(host, primitive)),
            Some(Stage::LockVm) => self.lock_vm(tid),
            Some(Stage::Act(action)) => action(self, Cx { now, tid, out }),
        };
        match planned {
            Ok(step) | Err(step) => step,
        }
    }

    // ---- stage helpers -----------------------------------------------------

    fn task(&self, tid: TaskId) -> &Task {
        self.tasks
            .get(tid)
            .expect("task entry outlives its in-flight events")
    }

    fn task_mut(&mut self, tid: TaskId) -> &mut Task {
        self.tasks
            .get_mut(tid)
            .expect("task entry outlives its in-flight events")
    }

    /// The VM a task works on (a clone's source), recorded at submit.
    fn target(&self, tid: TaskId) -> VmId {
        self.task(tid)
            .report
            .target_vm
            .expect("VM operations record their target at submit")
    }

    fn placement(&self, tid: TaskId) -> (HostId, DatastoreId) {
        self.task(tid)
            .report
            .placement
            .expect("placement recorded by an earlier stage")
    }

    /// The host an agent stage runs on, or the failure if its VM is gone.
    fn agent_host(&self, tid: TaskId, on: On) -> Result<HostId, Step> {
        match (on, &self.task(tid).op) {
            (On::Placed, _) => Ok(self.placement(tid).0),
            (On::Named, &OpKind::RescanDatastores { host }) => Ok(host),
            (On::Named, _) => Err(wrong_op()),
            (On::Source, op) => {
                let what = match op {
                    OpKind::CloneVm { .. } => "clone source",
                    _ => "vm",
                };
                let vm = self.inv.vm(self.target(tid));
                vm.map(|v| v.host)
                    .ok_or_else(|| Step::Fail(format!("{what} vanished")))
            }
        }
    }

    /// Fails a stage retryably while its datastore is down.
    fn ds_up(&self, ds: DatastoreId) -> Result<(), Step> {
        match &self.faults {
            Some(inj) if inj.ds_down(ds) => {
                Err(Step::FailRetryable(format!("datastore {ds} unavailable")))
            }
            _ => Ok(()),
        }
    }

    /// Commits `tid`'s freshly-picked placement against the external
    /// gate, if one is installed. Fails retryably when the authoritative
    /// store rejected the reservation; the retried placement scan runs on
    /// whatever view the next sync leaves.
    fn gate_commit(
        &mut self,
        tid: TaskId,
        host: HostId,
        ds: DatastoreId,
        mem_mb: u64,
        disk_gb: f64,
    ) -> Result<(), Step> {
        let Some(g) = self.gate.as_mut() else {
            return Ok(());
        };
        match g.commit(tid, host, ds, mem_mb, disk_gb) {
            GateDecision::Commit => {
                self.stats.on_placement_commit();
                Ok(())
            }
            GateDecision::Conflict(reason) => {
                self.stats.on_placement_conflict();
                Err(Step::FailRetryable(reason))
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

    /// The shared VM-lock stage: takes the target VM's host and datastore
    /// as the task's placement and locks the VM on its host.
    fn lock_vm(&mut self, tid: TaskId) -> Result<Step, Step> {
        let vm = self.target(tid);
        let v = self.inv.vm(vm).ok_or_else(|| gone(vm))?;
        let (host, ds) = (v.host, v.datastore);
        self.task_mut(tid).report.placement = Some((host, ds));
        Ok(Step::Acquire(
            Scope::global_only().with_host(host).with_vm(vm),
        ))
    }

    // ---- action stages -----------------------------------------------------

    fn place_new_vm(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::CreateVm { spec } = self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        let (host, ds) = self
            .placer
            .place(&self.inv, &self.residency, spec.disk_gb, spec.mem_mb, None)
            .ok_or_else(no_capacity)?;
        self.gate_commit(cx.tid, host, ds, spec.mem_mb, spec.disk_gb)?;
        self.task_mut(cx.tid).report.placement = Some((host, ds));
        Ok(Step::Acquire(
            Scope::global_only().with_host(host).with_datastore(ds),
        ))
    }

    fn create_vm_record(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::CreateVm { spec } = self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        let (host, ds) = self.placement(cx.tid);
        self.ds_up(ds)?;
        let name = self.next_clone_name();
        let vm = self.inv.create_vm(name, spec, host, ds).map_err(fail)?;
        let disk = match self.storage.create_base(&mut self.inv, ds, spec.disk_gb) {
            Ok(d) => d,
            Err(e) => {
                let _ = self.inv.destroy_vm(vm);
                return Err(fail(e));
            }
        };
        self.inv.vm_mut(vm).expect("just created").disks.push(disk);
        self.task_mut(cx.tid).report.produced_vm = Some(vm);
        Ok(Step::Continue)
    }

    /// Places a clone and locks its source shared. An instant clone has no
    /// placement freedom: it forks on the source's own host and datastore.
    fn place_clone(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::CloneVm { source, mode } = self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        let src = self
            .inv
            .vm(source)
            .ok_or_else(|| Step::Fail(format!("clone source {source} no longer exists")))?;
        let (host, ds) = if mode == CloneMode::Instant {
            let (host, ds, mem_mb) = (src.host, src.datastore, src.spec.mem_mb);
            let delta = self.cfg.linked_delta_gb;
            self.gate_commit(cx.tid, host, ds, mem_mb, delta)?;
            (host, ds)
        } else {
            let spec = src.spec;
            let linked = mode == CloneMode::Linked;
            let prefer = (linked && self.cfg.placement_prefers_resident).then_some(source);
            let delta = self.cfg.linked_delta_gb;
            let disk_need = if linked { delta } else { spec.disk_gb };
            let mut place = |gb| {
                self.placer
                    .place(&self.inv, &self.residency, gb, spec.mem_mb, prefer)
            };
            let mut placement = place(disk_need);
            // A linked clone landing where its source is not resident
            // needs room for the shadow copy's full base as well.
            if let Some((_, ds)) = placement.filter(|_| linked) {
                if !self.residency.is_resident(source, ds) {
                    placement = place(spec.disk_gb + delta);
                }
            }
            let (host, ds) = placement.ok_or_else(no_capacity)?;
            // What the commit reserves on `ds`: the full base for a full
            // clone, the delta for a resident linked clone, and base +
            // delta when a shadow copy must land first.
            let commit_gb = if !linked {
                spec.disk_gb
            } else if self.residency.is_resident(source, ds) {
                delta
            } else {
                spec.disk_gb + delta
            };
            self.gate_commit(cx.tid, host, ds, spec.mem_mb, commit_gb)?;
            (host, ds)
        };
        self.task_mut(cx.tid).report.placement = Some((host, ds));
        Ok(Step::Acquire(
            Scope::global_only()
                .with_host(host)
                .with_datastore(ds)
                .with_vm_shared(source),
        ))
    }

    /// Creates a clone's VM record on its placement, the first half of
    /// every clone mode's materialization stage. Returns the new VM, its
    /// spec, and the source and destination datastores.
    fn create_clone_record(
        &mut self,
        tid: TaskId,
    ) -> Result<(VmId, VmSpec, DatastoreId, DatastoreId), Step> {
        let (host, ds) = self.placement(tid);
        self.ds_up(ds)?;
        let source = self.target(tid);
        let v = self
            .inv
            .vm(source)
            .ok_or_else(|| Step::Fail("clone source vanished".into()))?;
        let (spec, src_ds) = (v.spec, v.datastore);
        let name = self.next_clone_name();
        let vm = self.inv.create_vm(name, spec, host, ds).map_err(fail)?;
        self.task_mut(tid).report.produced_vm = Some(vm);
        Ok((vm, spec, src_ds, ds))
    }

    fn fork_instant_clone(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let (vm, ..) = self.create_clone_record(cx.tid)?;
        let source = self.target(cx.tid);
        let parent = self
            .inv
            .vm(source)
            .and_then(|v| v.disks.last().copied())
            .ok_or_else(|| Step::Fail("instant-clone source has no disks".into()))?;
        let delta = self
            .storage
            .create_delta(&mut self.inv, parent, self.cfg.linked_delta_gb)
            .map_err(fail)?;
        self.vm_mut(vm).disks.push(delta);
        Ok(Step::Continue)
    }

    fn start_full_copy(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let (_, spec, src_ds, ds) = self.create_clone_record(cx.tid)?;
        let disk = self
            .storage
            .create_base(&mut self.inv, ds, spec.disk_gb)
            .map_err(fail)?;
        self.task_mut(cx.tid).work_disk = Some(disk);
        Ok(Step::Transfer {
            src: src_ds,
            dst: ds,
            bytes: spec.disk_gb * GIB,
            label: "clone-copy",
        })
    }

    /// Starts a linked clone's data movement: metadata only where the
    /// source is resident, else a shadow copy of its full base first.
    fn start_linked_copy(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let (_, spec, src_ds, ds) = self.create_clone_record(cx.tid)?;
        if self
            .residency
            .resident_disk(self.target(cx.tid), ds)
            .is_some()
        {
            return Ok(Step::Transfer {
                src: ds,
                dst: ds,
                bytes: self.cfg.linked_metadata_bytes,
                label: "clone-metadata",
            });
        }
        let disk = self
            .storage
            .create_base(&mut self.inv, ds, spec.disk_gb)
            .map_err(fail)?;
        let t = self.task_mut(cx.tid);
        t.work_disk = Some(disk);
        t.shadow_copy = true;
        Ok(Step::Transfer {
            src: src_ds,
            dst: ds,
            bytes: spec.disk_gb * GIB,
            label: "shadow-copy",
        })
    }

    fn attach_full_copy(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let t = self.task_mut(cx.tid);
        let vm = t.report.produced_vm.expect(PRODUCED);
        let disk = t.work_disk.take().expect(PRODUCED);
        self.vm_mut(vm).disks.push(disk);
        Ok(Step::Continue)
    }

    fn attach_linked_delta(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let (source, (_, ds)) = (self.target(cx.tid), self.placement(cx.tid));
        let t = self.task(cx.tid);
        let vm = t.report.produced_vm.expect(PRODUCED);
        let shadow = t.shadow_copy;
        let parent = if shadow {
            t.work_disk.expect("shadow created")
        } else {
            self.residency
                .resident_disk(source, ds)
                .expect("checked resident when the copy started")
        };
        let delta = self
            .storage
            .create_delta(&mut self.inv, parent, self.cfg.linked_delta_gb)
            .map_err(fail)?;
        self.vm_mut(vm).disks.push(delta);
        if shadow {
            // Several clones may have raced to make the first copy on this
            // datastore (the shadow-VM stampede of the real stack). The
            // winner's copy becomes the resident replica; a loser's copy
            // backs only its own clone and is collected when that clone
            // dies.
            if self.residency.resident_disk(source, ds).is_none() {
                self.residency.seed(source, ds, parent);
            } else {
                self.storage.detach(&mut self.inv, parent).map_err(fail)?;
            }
            self.task_mut(cx.tid).work_disk = None;
        }
        Ok(Step::Continue)
    }

    fn power_on(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let vm = self.target(cx.tid);
        self.inv.power_on(vm).map_err(fail)?;
        Ok(Step::Continue)
    }

    fn power_off(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let vm = self.target(cx.tid);
        self.inv.power_off(vm).map_err(fail)?;
        Ok(Step::Continue)
    }

    fn take_snapshot(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let vm = self.target(cx.tid);
        let disk = self
            .inv
            .vm(vm)
            .and_then(|v| v.disks.last().copied())
            .ok_or_else(|| Step::Fail(format!("vm {vm} has no disks to snapshot")))?;
        let top = self
            .storage
            .snapshot(&mut self.inv, disk, self.cfg.snapshot_delta_gb)
            .map_err(fail)?;
        *self.vm_mut(vm).disks.last_mut().expect("non-empty") = top;
        Ok(Step::Continue)
    }

    fn consolidate_snapshot(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let vm = self.target(cx.tid);
        let v = self.inv.vm(vm).ok_or_else(|| gone(vm))?;
        let ds = v.datastore;
        let disk = v
            .disks
            .last()
            .copied()
            .ok_or_else(|| Step::Fail(format!("vm {vm} has no disks")))?;
        let (merged_into, bytes) = self
            .storage
            .consolidate(&mut self.inv, disk)
            .map_err(fail)?;
        *self.vm_mut(vm).disks.last_mut().expect("non-empty") = merged_into;
        Ok(Step::Transfer {
            src: ds,
            dst: ds,
            bytes,
            label: "snapshot-merge",
        })
    }

    fn require_powered_off(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let vm = self.target(cx.tid);
        if self.inv.vm(vm).ok_or_else(|| gone(vm))?.power == PowerState::On {
            return Err(Step::Fail(format!("vm {vm} is powered on")));
        }
        Ok(Step::Continue)
    }

    fn destroy_vm_records(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let vm = self.target(cx.tid);
        let disks = self
            .inv
            .vm(vm)
            .map(|v| v.disks.clone())
            .ok_or_else(|| Step::Fail(format!("vm {vm} vanished mid-destroy")))?;
        for d in disks {
            self.storage.detach(&mut self.inv, d).map_err(fail)?;
        }
        self.inv.destroy_vm(vm).map_err(fail)?;
        Ok(Step::Continue)
    }

    /// Picks a migration's destination host and locks the VM on both.
    fn place_migration(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let vm = self.target(cx.tid);
        let v = self.inv.vm(vm).ok_or_else(|| gone(vm))?;
        let (src_host, ds) = (v.host, v.datastore);
        let dst_host = self
            .placer
            .pick_host(&self.inv, ds, v.spec.mem_mb, Some(src_host))
            .ok_or_else(|| Step::Fail("migration placement failed: no destination host".into()))?;
        self.task_mut(cx.tid).report.placement = Some((dst_host, ds));
        Ok(Step::Acquire(
            Scope::global_only()
                .with_host(src_host)
                .with_host2(dst_host)
                .with_vm(vm),
        ))
    }

    fn move_to_placed_host(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let (vm, (host, _)) = (self.target(cx.tid), self.placement(cx.tid));
        self.inv.relocate_vm(vm, host).map_err(fail)?;
        Ok(Step::Continue)
    }

    /// Locks a relocating VM and its destination datastore, which becomes
    /// the task's placement.
    fn lock_relocation(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::RelocateVm { vm, dst } = self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        let v = self.inv.vm(vm).ok_or_else(|| gone(vm))?;
        if v.datastore == dst {
            return Err(Step::Fail(
                "relocate source and destination are the same".into(),
            ));
        }
        let host = v.host;
        self.task_mut(cx.tid).report.placement = Some((host, dst));
        Ok(Step::Acquire(
            Scope::global_only()
                .with_host(host)
                .with_datastore(dst)
                .with_vm(vm),
        ))
    }

    fn start_relocate_copy(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let (vm, (_, dst)) = (self.target(cx.tid), self.placement(cx.tid));
        let v = self
            .inv
            .vm(vm)
            .ok_or_else(|| Step::Fail("vm vanished".into()))?;
        let total_gb: f64 = v
            .disks
            .iter()
            .filter_map(|d| self.storage.disk(*d))
            .map(|d| d.allocated_gb)
            .sum();
        let src_ds = v.datastore;
        self.ds_up(dst)?;
        let disk = self
            .storage
            .create_base(&mut self.inv, dst, total_gb)
            .map_err(fail)?;
        self.task_mut(cx.tid).work_disk = Some(disk);
        Ok(Step::Transfer {
            src: src_ds,
            dst,
            bytes: total_gb * GIB,
            label: "relocate-copy",
        })
    }

    fn swap_relocated_disks(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let (vm, (_, dst)) = (self.target(cx.tid), self.placement(cx.tid));
        let disk = self.task_mut(cx.tid).work_disk.take().expect(PRODUCED);
        let old = self
            .inv
            .vm(vm)
            .map(|v| v.disks.clone())
            .ok_or_else(|| Step::Fail("vm vanished".into()))?;
        for d in old {
            self.storage.detach(&mut self.inv, d).map_err(fail)?;
        }
        let v = self.vm_mut(vm);
        v.disks = vec![disk];
        v.datastore = dst;
        Ok(Step::Continue)
    }

    fn lock_seed_target(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::SeedTemplate { template, dst } = self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        if self.residency.is_resident(template, dst) {
            return Err(Step::Fail(format!(
                "template {template} already resident on {dst}"
            )));
        }
        Ok(Step::Acquire(Scope::global_only().with_datastore(dst)))
    }

    fn start_seed_copy(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::SeedTemplate { template, dst } = self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        let v = self
            .inv
            .vm(template)
            .ok_or_else(|| Step::Fail(format!("template {template} no longer exists")))?;
        let (src_ds, gb) = (v.datastore, v.spec.disk_gb);
        self.ds_up(dst)?;
        let disk = self
            .storage
            .create_base(&mut self.inv, dst, gb)
            .map_err(fail)?;
        self.task_mut(cx.tid).work_disk = Some(disk);
        Ok(Step::Transfer {
            src: src_ds,
            dst,
            bytes: gb * GIB,
            label: "seed-copy",
        })
    }

    fn record_replica(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::SeedTemplate { template, dst } = self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        let disk = self.task_mut(cx.tid).work_disk.take().expect(PRODUCED);
        self.residency.seed(template, dst, disk);
        Ok(Step::Continue)
    }

    /// Registers the new host with its agent and heartbeat, connected to
    /// its datastores.
    fn add_host_now(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::AddHost(params) = &self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        let AddHostParams { spec, datastores } = (**params).clone();
        let host = self.inv.add_host(spec);
        for ds in &datastores {
            self.inv.connect_host_datastore(host, *ds).map_err(fail)?;
        }
        self.agents.add_host(host, self.cfg.agent_concurrency);
        let slot = self.heartbeat_hosts.len();
        self.heartbeat_hosts.push(host);
        let hb = self.cfg.heartbeat;
        let beats = &mut self.stations.get_mut().beats;
        if beats.is_armed() {
            // Its event would have been scheduled by this call, behind the
            // timers already emitted.
            let ahead = cx.out.iter().filter(|e| matches!(e, Emit::At(..))).count();
            beats.push(Beat {
                at: cx.now + hb.interval,
                seq: cpsim_des::dispatch_pos().next_seq + ahead as u64,
                slot,
            });
        } else if !hb.is_disabled() {
            let beat = MgmtEvent::Heartbeat { slot };
            cx.out.push(Emit::At(cx.now + hb.interval, beat));
        }
        self.task_mut(cx.tid).report.placement = datastores.first().map(|ds| (host, *ds));
        Ok(Step::Continue)
    }

    /// Locks the rescanned host, placing the task on its first datastore.
    fn lock_rescan_host(&mut self, cx: Cx<'_>) -> Result<Step, Step> {
        let OpKind::RescanDatastores { host } = self.task(cx.tid).op else {
            return Err(wrong_op());
        };
        let h = self
            .inv
            .host(host)
            .ok_or_else(|| Step::Fail(format!("host {host} no longer exists")))?;
        let ds = h.datastores.first().copied();
        self.task_mut(cx.tid).report.placement = ds.map(|d| (host, d));
        Ok(Step::Acquire(Scope::global_only().with_host(host)))
    }

    fn vm_mut(&mut self, vm: VmId) -> &mut cpsim_inventory::Vm {
        self.inv
            .vm_mut(vm)
            .expect("vm stays in inventory while its task runs")
    }
}

// ---- phase programs ------------------------------------------------------

/// What an action stage works with.
struct Cx<'a> {
    now: SimTime,
    tid: TaskId,
    out: &'a mut Vec<Emit>,
}

/// An operation-specific action: the inventory and storage work of one
/// stage. `Err` carries the step that fails the task.
type Action = fn(&mut ControlPlane, Cx<'_>) -> Result<Step, Step>;

/// Picks one of the plane's cost samplers.
type Cost = fn(&CostSamplers) -> &Sampler;

/// Where an agent stage runs its primitive.
#[derive(Clone, Copy)]
enum On {
    /// The host in the task's placement.
    Placed,
    /// The host of the task's target VM: a clone's source or a migrating
    /// VM.
    Source,
    /// The host the operation names.
    Named,
}

/// One stage of an operation's phase program, after the shared prelude.
///
/// Stages run in order, one per [`ControlPlane::plan_step`]. Cost stages
/// draw from the plane's shared rng when planned, so a program's order is
/// its draw order. A failed stage that is retried replays with fresh
/// draws.
#[derive(Clone, Copy)]
enum Stage {
    /// Management-server CPU work with a sampled cost.
    Cpu(&'static str, Cost),
    /// A database statement with a sampled cost.
    Db(&'static str, Cost),
    /// The placement scan: a sampled base plus a per-host term.
    Placement,
    /// A host-agent primitive.
    Agent(On, Primitive),
    /// Locks the target VM on its host, which becomes the placement.
    LockVm,
    /// Operation-specific inventory and storage work.
    Act(Action),
}

/// The phase program of `op`, after the shared prelude.
fn program(op: &OpKind) -> &'static [Stage] {
    use Stage::{Act, Agent, LockVm, Placement};

    const INSERT_VM: Stage = Stage::Db("insert-vm", |c| &c.db_insert);
    const RESULT: Stage = Stage::Cpu("result-processing", |c| &c.result_processing);
    const FINALIZE_RECORDS: Stage = Stage::Db("finalize-records", |c| &c.db_update);
    const FINALIZE: Stage = Stage::Cpu("finalize", |c| &c.finalize);

    const CREATE: &[Stage] = &[
        Placement,
        Act(ControlPlane::place_new_vm),
        INSERT_VM,
        Act(ControlPlane::create_vm_record),
        Agent(On::Placed, Primitive::CreateVmFiles),
        Agent(On::Placed, Primitive::RegisterVm),
        RESULT,
        FINALIZE_RECORDS,
        FINALIZE,
    ];
    const CLONE_FULL: &[Stage] = &[
        Placement,
        Act(ControlPlane::place_clone),
        Agent(On::Source, Primitive::PrepareClone),
        INSERT_VM,
        Act(ControlPlane::start_full_copy),
        Act(ControlPlane::attach_full_copy),
        Agent(On::Placed, Primitive::FinalizeClone),
        Agent(On::Placed, Primitive::RegisterVm),
        RESULT,
        FINALIZE_RECORDS,
        FINALIZE,
    ];
    const CLONE_LINKED: &[Stage] = &[
        Placement,
        Act(ControlPlane::place_clone),
        Agent(On::Source, Primitive::PrepareClone),
        INSERT_VM,
        Act(ControlPlane::start_linked_copy),
        Act(ControlPlane::attach_linked_delta),
        Agent(On::Placed, Primitive::FinalizeClone),
        Agent(On::Placed, Primitive::RegisterVm),
        RESULT,
        FINALIZE_RECORDS,
        FINALIZE,
    ];
    /// No placement scan (the fork lands on its parent), no data movement and
    /// no destination-side customization pass.
    const CLONE_INSTANT: &[Stage] = &[
        Stage::Cpu("placement", |c| &c.placement_base),
        Act(ControlPlane::place_clone),
        Agent(On::Source, Primitive::InstantFork),
        INSERT_VM,
        Act(ControlPlane::fork_instant_clone),
        Agent(On::Placed, Primitive::RegisterVm),
        RESULT,
        FINALIZE_RECORDS,
        FINALIZE,
    ];
    const POWER_ON: &[Stage] = &[
        LockVm,
        Agent(On::Placed, Primitive::PowerOnVm),
        Act(ControlPlane::power_on),
        Stage::Db("update-power-state", |c| &c.db_update),
        FINALIZE,
    ];
    const POWER_OFF: &[Stage] = &[
        LockVm,
        Agent(On::Placed, Primitive::PowerOffVm),
        Act(ControlPlane::power_off),
        Stage::Db("update-power-state", |c| &c.db_update),
        FINALIZE,
    ];
    const RECONFIGURE: &[Stage] = &[
        LockVm,
        Agent(On::Placed, Primitive::ReconfigureVm),
        Stage::Db("update-config", |c| &c.db_update),
        FINALIZE,
    ];
    const SNAPSHOT: &[Stage] = &[
        LockVm,
        Agent(On::Placed, Primitive::CreateSnapshot),
        Act(ControlPlane::take_snapshot),
        Stage::Db("update-snapshot", |c| &c.db_update),
        FINALIZE,
    ];
    const REMOVE_SNAPSHOT: &[Stage] = &[
        LockVm,
        Agent(On::Placed, Primitive::RemoveSnapshot),
        Act(ControlPlane::consolidate_snapshot),
        Stage::Db("update-snapshot", |c| &c.db_update),
        FINALIZE,
    ];
    const DESTROY: &[Stage] = &[
        Act(ControlPlane::require_powered_off),
        LockVm,
        Agent(On::Placed, Primitive::UnregisterVm),
        Agent(On::Placed, Primitive::DeleteVmFiles),
        Act(ControlPlane::destroy_vm_records),
        RESULT,
        Stage::Db("delete-records", |c| &c.db_delete),
        FINALIZE,
    ];
    const MIGRATE: &[Stage] = &[
        Placement,
        Act(ControlPlane::place_migration),
        Agent(On::Source, Primitive::MigrateSource),
        Agent(On::Placed, Primitive::MigrateDest),
        Act(ControlPlane::move_to_placed_host),
        Stage::Db("update-placement", |c| &c.db_update),
        FINALIZE,
    ];
    const RELOCATE: &[Stage] = &[
        Act(ControlPlane::lock_relocation),
        Act(ControlPlane::start_relocate_copy),
        Act(ControlPlane::swap_relocated_disks),
        Agent(On::Placed, Primitive::ReconfigureVm),
        Stage::Db("update-placement", |c| &c.db_update),
        FINALIZE,
    ];
    const SEED: &[Stage] = &[
        Act(ControlPlane::lock_seed_target),
        Act(ControlPlane::start_seed_copy),
        Act(ControlPlane::record_replica),
        Stage::Db("insert-replica", |c| &c.db_insert),
        FINALIZE,
    ];
    const ADD_HOST: &[Stage] = &[
        Stage::Cpu("host-sync", |c| &c.host_sync),
        Stage::Db("insert-host", |c| &c.db_insert),
        Act(ControlPlane::add_host_now),
        FINALIZE,
    ];
    const RESCAN: &[Stage] = &[
        Act(ControlPlane::lock_rescan_host),
        Agent(On::Named, Primitive::MountDatastore),
        Stage::Db("update-storage", |c| &c.db_update),
        FINALIZE,
    ];

    match op {
        OpKind::CreateVm { .. } => CREATE,
        OpKind::CloneVm { mode, .. } => match mode {
            CloneMode::Full => CLONE_FULL,
            CloneMode::Linked => CLONE_LINKED,
            CloneMode::Instant => CLONE_INSTANT,
        },
        OpKind::PowerOn { .. } => POWER_ON,
        OpKind::PowerOff { .. } => POWER_OFF,
        OpKind::Reconfigure { .. } => RECONFIGURE,
        OpKind::Snapshot { .. } => SNAPSHOT,
        OpKind::RemoveSnapshot { .. } => REMOVE_SNAPSHOT,
        OpKind::DestroyVm { .. } => DESTROY,
        OpKind::MigrateVm { .. } => MIGRATE,
        OpKind::RelocateVm { .. } => RELOCATE,
        OpKind::SeedTemplate { .. } => SEED,
        OpKind::AddHost(_) => ADD_HOST,
        OpKind::RescanDatastores { .. } => RESCAN,
    }
}

const PRODUCED: &str = "produced by an earlier stage of this task";

/// The entity a fault plan's index names: plans address hosts and
/// datastores by creation index, modulo the live count.
fn nth<T: Copy>(order: &[T], index: usize) -> Option<T> {
    order.get(index.checked_rem(order.len())?).copied()
}

fn fail(e: impl std::fmt::Display) -> Step {
    Step::Fail(e.to_string())
}

fn gone(vm: VmId) -> Step {
    Step::Fail(format!("vm {vm} no longer exists"))
}

fn no_capacity() -> Step {
    Step::Fail("placement failed: no capacity".into())
}

/// An action ran in another operation's program (a program-table bug).
fn wrong_op() -> Step {
    Step::Fail("phase program does not match its operation".into())
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("tasks_in_flight", &self.tasks.len())
            .field("inventory", &self.inv.counts())
            .finish()
    }
}
