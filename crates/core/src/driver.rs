//! The [`CloudSim`] driver: one [`MgmtStack`] plus the workload
//! generator, on the discrete-event kernel.

use cpsim_cloud::{CloudDirector, CloudReport, CloudRequest};
use cpsim_des::{EventQueue, Model, SimDuration, SimTime, Simulation};
use cpsim_faults::FaultEvent;
use cpsim_inventory::{DatastoreId, HostId, OrgId, VappId, VmId};
use cpsim_mgmt::{ControlPlane, MgmtEvent, OpKind, TaskReport};
use cpsim_workload::{
    GeneratedRequest, MgmtStack, ReplayPlan, RequestGenerator, StackEvent, TraceAnalysis, TraceLog,
};

/// Top-level simulation events.
#[derive(Debug)]
pub enum CoreEvent {
    /// A management-plane event.
    Mgmt(MgmtEvent),
    /// A vApp lease expired.
    Lease(VappId),
    /// The workload generator fires.
    Arrival,
    /// An externally-scheduled cloud request.
    Request(CloudRequest),
    /// An externally-scheduled raw management operation.
    Op(OpKind),
}

impl StackEvent for CoreEvent {
    fn mgmt(event: MgmtEvent) -> Self {
        CoreEvent::Mgmt(event)
    }

    fn lease(vapp: VappId) -> Self {
        CoreEvent::Lease(vapp)
    }
}

/// The simulation state driven by the kernel.
pub struct CloudModel {
    stack: MgmtStack,
    generator: Option<RequestGenerator>,
    arrivals_enabled: bool,
}

impl Model for CloudModel {
    type Event = CoreEvent;

    fn handle(&mut self, now: SimTime, event: CoreEvent, queue: &mut EventQueue<CoreEvent>) {
        let stack = &mut self.stack;
        match event {
            CoreEvent::Mgmt(ev) => stack.handle_mgmt(now, ev, queue),
            CoreEvent::Lease(vapp) => stack.expire_lease(now, vapp, queue),
            CoreEvent::Arrival => {
                if !self.arrivals_enabled {
                    return;
                }
                let request = self.generator.as_mut().and_then(|g| {
                    let req = g.generate(now, &stack.director, &stack.plane);
                    let next = g.next_arrival(now);
                    if next < SimTime::MAX {
                        queue.schedule(next, CoreEvent::Arrival);
                    }
                    req
                });
                match request {
                    Some(GeneratedRequest::Cloud(req)) => stack.submit_cloud(now, req, queue),
                    Some(GeneratedRequest::Op(op)) => stack.submit_op(now, op, queue),
                    None => {}
                }
            }
            CoreEvent::Request(req) => stack.submit_cloud(now, req, queue),
            CoreEvent::Op(op) => stack.submit_op(now, op, queue),
        }
    }
}

/// A runnable cloud simulation.
///
/// Construct via [`Scenario`](crate::Scenario); drive with
/// [`run_until`](CloudSim::run_until); inspect through the accessors.
pub struct CloudSim {
    sim: Simulation<CloudModel>,
}

impl CloudSim {
    /// Internal constructor used by [`Scenario`](crate::Scenario).
    pub(crate) fn assemble(
        mut stack: MgmtStack,
        mut generator: Option<RequestGenerator>,
        fault_events: Vec<FaultEvent>,
    ) -> Self {
        let init = stack.initial_events();
        let first = generator
            .as_mut()
            .map_or(SimTime::MAX, |g| g.next_arrival(SimTime::ZERO));
        let mut sim = Simulation::new(CloudModel {
            stack,
            generator,
            arrivals_enabled: true,
        });
        for (t, ev) in init {
            sim.schedule(t, ev);
        }
        for e in fault_events {
            sim.schedule(e.at, CoreEvent::Mgmt(MgmtEvent::Fault(e.kind)));
        }
        if first < SimTime::MAX {
            sim.schedule(first, CoreEvent::Arrival);
        }
        CloudSim { sim }
    }

    /// Runs until `horizon` (events after it remain queued).
    pub fn run_until(&mut self, horizon: SimTime) {
        self.sim.run_until(horizon);
    }

    /// Runs for `span` past the current time.
    pub fn run_for(&mut self, span: SimDuration) {
        let horizon = self.now() + span;
        self.run_until(horizon);
    }

    /// Stops generating new workload arrivals (in-flight work continues).
    pub fn stop_arrivals(&mut self) {
        self.sim.model_mut().arrivals_enabled = false;
    }

    /// Keep a full [`TaskReport`] of every finished task (off by default).
    ///
    /// Every finished task is already traced unless the scenario turned
    /// the trace off, and its [`TraceRecord`](cpsim_workload::TraceRecord)
    /// holds every field the experiments read. A kept report is a second
    /// copy per task, with its per-phase breakdown. Turn this on only to
    /// compare full reports (placements, retries, breakdowns), as the
    /// federation-equivalence and jobs-determinism tests do.
    pub fn keep_task_reports(&mut self, on: bool) {
        self.sim.model_mut().stack.keep_task_reports = on;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Schedules a cloud request at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_request(&mut self, at: SimTime, req: CloudRequest) {
        self.sim.schedule(at, CoreEvent::Request(req));
    }

    /// Schedules a raw management operation at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_op(&mut self, at: SimTime, op: OpKind) {
        self.sim.schedule(at, CoreEvent::Op(op));
    }

    /// The control plane.
    pub fn plane(&self) -> &ControlPlane {
        &self.sim.model().stack.plane
    }

    /// The cloud director.
    pub fn director(&self) -> &CloudDirector {
        &self.sim.model().stack.director
    }

    /// Whether a workload generator is attached.
    pub fn has_generator(&self) -> bool {
        self.sim.model().generator.is_some()
    }

    /// The workload generator, if any.
    pub fn generator(&self) -> Option<&RequestGenerator> {
        self.sim.model().generator.as_ref()
    }

    /// The operation trace collected so far.
    pub fn trace(&self) -> &TraceLog {
        &self.sim.model().stack.trace
    }

    /// Full task reports, in completion order (empty unless
    /// [`keep_task_reports`](Self::keep_task_reports) was enabled).
    pub fn task_reports(&self) -> &[TaskReport] {
        &self.sim.model().stack.task_reports
    }

    /// Completed cloud requests.
    pub fn cloud_reports(&self) -> &[CloudReport] {
        &self.sim.model().stack.cloud_reports
    }

    /// Hosts created by the scenario, in creation order.
    pub fn hosts(&self) -> &[HostId] {
        &self.sim.model().stack.hosts
    }

    /// Datastores created by the scenario, in creation order.
    pub fn datastores(&self) -> &[DatastoreId] {
        &self.sim.model().stack.datastores
    }

    /// Catalog templates, in creation order.
    pub fn templates(&self) -> &[VmId] {
        &self.sim.model().stack.templates
    }

    /// The default org requests are attributed to.
    pub fn org(&self) -> OrgId {
        self.sim.model().stack.org
    }

    /// Setup-time helper exposed for experiments: installs a powered-off
    /// VM with a thick base disk at an exact location (no simulated cost).
    ///
    /// # Errors
    ///
    /// Fails if the placement is invalid or capacity is lacking.
    pub fn install_vm_for_experiments(
        &mut self,
        name: &str,
        spec: cpsim_inventory::VmSpec,
        host: HostId,
        ds: DatastoreId,
    ) -> Result<VmId, String> {
        self.sim
            .model_mut()
            .stack
            .plane
            .install_vm(name, spec, host, ds, false)
    }

    /// Runs the characterization pass over the collected trace.
    pub fn analyze_trace(&self) -> TraceAnalysis {
        TraceAnalysis::from_log(self.trace())
    }

    /// Schedules every provisioning event of `plan` as a single-VM
    /// instantiate request from `template`, using each event's recorded
    /// lifetime as the lease. Events already in the past are skipped;
    /// returns the number scheduled.
    pub fn schedule_replay(&mut self, plan: &ReplayPlan, template: VmId) -> usize {
        let org = self.org();
        let now = self.now();
        let mut scheduled = 0;
        for e in plan.events() {
            if e.at < now {
                continue;
            }
            self.schedule_request(
                e.at,
                CloudRequest::InstantiateVapp {
                    org,
                    template,
                    count: 1,
                    mode: Some(e.mode),
                    lease: e.lifetime,
                },
            );
            scheduled += 1;
        }
        scheduled
    }
}

impl std::fmt::Debug for CloudSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudSim")
            .field("now", &self.now())
            .field("events", &self.events_processed())
            .field("trace_len", &self.trace().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use cpsim_workload::{cloud_a, cloud_b, enterprise};

    #[test]
    fn cloud_a_runs_and_provisions() {
        let mut sim = Scenario::from_profile(&cloud_a()).seed(7).build();
        sim.run_until(SimTime::from_hours(8));
        let stats = sim.director().stats();
        assert!(stats.vms_provisioned() > 20, "{}", stats.vms_provisioned());
        assert!(sim.trace().len() > 100);
        // Lease expiries should already be recycling short-lived vApps.
        assert!(stats.lease_expiries() > 0);
        assert!(stats.vms_destroyed() > 0);
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let run = |seed| {
            let mut sim = Scenario::from_profile(&cloud_a()).seed(seed).build();
            sim.run_until(SimTime::from_hours(4));
            (
                sim.events_processed(),
                sim.trace().len(),
                sim.director().stats().vms_provisioned(),
            )
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn stop_arrivals_quiesces() {
        let mut sim = Scenario::from_profile(&cloud_a()).seed(5).build();
        sim.run_until(SimTime::from_hours(2));
        sim.stop_arrivals();
        let provisioned_before = sim.director().stats().submitted();
        sim.run_until(SimTime::from_hours(12));
        // A lease-driven delete may still fire, but no *new* instantiates
        // arrive after stopping: submissions grow only via leases.
        let after = sim.director().stats().submitted();
        assert!(after >= provisioned_before);
        assert_eq!(sim.plane().tasks_in_flight(), 0, "work drained");
    }

    #[test]
    fn enterprise_mix_is_power_dominated() {
        let mut sim = Scenario::from_profile(&enterprise()).seed(9).build();
        sim.run_until(SimTime::from_hours(12));
        let a = sim.analyze_trace();
        let power = a.mix_fraction("power-on") + a.mix_fraction("power-off");
        assert!(
            power > a.provisioning_fraction(),
            "power {power:.2} vs provisioning {:.2}",
            a.provisioning_fraction()
        );
    }

    #[test]
    fn cloud_b_sees_shadow_copies() {
        let mut sim = Scenario::from_profile(&cloud_b()).seed(11).build();
        sim.keep_task_reports(true);
        sim.run_until(SimTime::from_hours(10));
        // Templates start resident on one datastore only; clones landing
        // elsewhere pay shadow copies, visible as data-heavy linked clones.
        let reports = sim.task_reports();
        let shadowed = reports
            .iter()
            .filter(|r| r.kind == "clone-linked" && r.data_secs > 30.0)
            .count();
        assert!(shadowed > 0, "expected at least one shadow copy");
    }

    #[test]
    fn scheduled_requests_and_ops_run() {
        let mut sim = Scenario::bare(cloud_a().topology).seed(2).build();
        let template = sim.templates()[0];
        let org = sim.org();
        sim.schedule_request(
            SimTime::from_secs(10),
            CloudRequest::InstantiateVapp {
                org,
                template,
                count: 2,
                mode: None,
                lease: None,
            },
        );
        sim.schedule_op(SimTime::from_secs(10), OpKind::Snapshot { vm: template });
        sim.run_until(SimTime::from_hours(2));
        assert_eq!(sim.cloud_reports().len(), 1);
        assert!(sim.cloud_reports()[0].is_clean());
        // The snapshot on a template is legal (templates have disks).
        let a = sim.analyze_trace();
        assert_eq!(a.op_mix["snapshot"], 1);
        assert_eq!(a.op_mix["clone-linked"], 2);
    }
}
