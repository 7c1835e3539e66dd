// cpsim-lint: profile(harness): traced replica of the single-plane CloudModel; wraps layer calls in wall-clock spans
//! [`TracedCloud`]: a replica of the simulator's single-plane model,
//! `CloudModel`, that times every call it makes into a layer.
//!
//! It is built only from public calls and routes events exactly as the
//! real model does, so a traced run must process the same events and
//! produce the same trace and statistics as the untraced `CloudSim` run
//! of the same [`Shape`]; the probes check that after every run. Each
//! call into a layer is wrapped in an [`Instant`] span. The spans never
//! nest inside each other, only inside `Model::handle`, so a layer's self
//! time is its span total and the model's own routing time is what is
//! left of `handle`.

use std::time::Instant;

use cpsim::cloud::{CloudDirector, CloudOut, CloudReport, CloudRequest, ProvisioningPolicy};
use cpsim::des::{EventQueue, Model, SimTime, Simulation, Streams};
use cpsim::faults::FaultPlan;
use cpsim::inventory::{DatastoreSpec, HostSpec, OrgId, VmId, VmSpec};
use cpsim::mgmt::{ControlPlane, ControlPlaneConfig, Emit, MgmtEvent, OpKind, Operation};
use cpsim::workload::{Profile, RequestGenerator, Topology, TraceLog, WorkloadSpec};
use cpsim::{CloudSim, CoreEvent, Scenario};

/// Calls into one layer and their total wall time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Total wall seconds inside them.
    pub secs: f64,
}

impl Span {
    /// Closes a span opened at `opened` and returns the closing instant,
    /// which a span that follows at once can take as its own opening.
    fn close(&mut self, opened: Instant) -> Instant {
        let now = Instant::now();
        self.calls += 1;
        self.secs += (now - opened).as_secs_f64();
        now
    }

    fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.secs += other.secs;
    }
}

/// Control-plane event kinds, in the order of [`Spans::mgmt`]. `submit`
/// counts only the operations submitted to the plane directly; the director
/// submits its own operations inside the `cloud` spans.
pub const MGMT_KINDS: [&str; 8] = [
    "submit",
    "cpu_done",
    "db_done",
    "agent_done",
    "transfer_tick",
    "heartbeat",
    "fault",
    "retry",
];

fn mgmt_kind(ev: &MgmtEvent) -> usize {
    match ev {
        MgmtEvent::Submit(_) => 0,
        MgmtEvent::CpuDone(_) => 1,
        MgmtEvent::DbDone(_) => 2,
        MgmtEvent::AgentDone { .. } => 3,
        MgmtEvent::TransferTick { .. } => 4,
        MgmtEvent::Heartbeat { .. } => 5,
        MgmtEvent::Fault(_) => 6,
        MgmtEvent::Retry { .. } => 7,
    }
}

/// Every span a traced run records.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// `Simulation::run_until` calls made by the probe harness.
    pub run: Span,
    /// `Model::handle`: one per event.
    pub handle: Span,
    /// `EventQueue::schedule` calls made while handling events.
    pub schedule: Span,
    /// `TraceLog::push_task`.
    pub trace_push: Span,
    /// `RequestGenerator::{generate, next_arrival}`, one span per arrival.
    pub generate: Span,
    /// `CloudDirector::submit`.
    pub cloud_submit: Span,
    /// `CloudDirector::on_task_report`.
    pub cloud_report: Span,
    /// `CloudDirector::on_lease_expiry`.
    pub cloud_lease: Span,
    /// `ControlPlane::{submit, handle}`, by [`MGMT_KINDS`].
    pub mgmt: [Span; 8],
    /// Most entries ever pending in the event queue after an event.
    pub peak_pending: usize,
}

impl Spans {
    /// Adds `other`'s spans to these.
    pub fn merge(&mut self, other: &Spans) {
        for (a, b) in [
            (&mut self.run, other.run),
            (&mut self.handle, other.handle),
            (&mut self.schedule, other.schedule),
            (&mut self.trace_push, other.trace_push),
            (&mut self.generate, other.generate),
            (&mut self.cloud_submit, other.cloud_submit),
            (&mut self.cloud_report, other.cloud_report),
            (&mut self.cloud_lease, other.cloud_lease),
        ] {
            a.merge(b);
        }
        for (a, b) in self.mgmt.iter_mut().zip(other.mgmt) {
            a.merge(b);
        }
        self.peak_pending = self.peak_pending.max(other.peak_pending);
    }

    /// Kernel self time: the run spans outside `handle`, plus the
    /// schedule calls made from inside it.
    pub fn des_self_s(&self) -> f64 {
        self.run.secs - self.handle.secs + self.schedule.secs
    }

    /// Routing self time: `handle` minus every layer span inside it.
    pub fn route_self_s(&self) -> f64 {
        let children = [
            self.schedule,
            self.trace_push,
            self.generate,
            self.cloud_submit,
            self.cloud_report,
            self.cloud_lease,
        ]
        .iter()
        .chain(&self.mgmt)
        .map(|s| s.secs)
        .sum::<f64>();
        self.handle.secs - children
    }
}

/// The traced model. Field for field the simulator's `CloudModel`, minus
/// the options no probe uses (stopping arrivals, keeping task reports).
pub struct TracedCloud {
    plane: ControlPlane,
    director: CloudDirector,
    generator: Option<RequestGenerator>,
    trace: TraceLog,
    cloud_reports: Vec<CloudReport>,
    templates: Vec<VmId>,
    org: OrgId,
    scratch: Vec<Emit>,
    route_buf: Vec<CloudOut>,
    spans: Spans,
}

impl TracedCloud {
    fn schedule(&mut self, queue: &mut EventQueue<CoreEvent>, at: SimTime, ev: CoreEvent) {
        let t = Instant::now();
        queue.schedule(at, ev);
        self.spans.schedule.close(t);
    }

    fn consume_emit(
        &mut self,
        now: SimTime,
        e: Emit,
        queue: &mut EventQueue<CoreEvent>,
    ) -> Option<CloudOut> {
        match e {
            Emit::At(at, ev) => {
                self.schedule(queue, at, CoreEvent::Mgmt(ev));
                None
            }
            Emit::Done(_, r) | Emit::Failed(_, r) => {
                let t = Instant::now();
                self.trace.push_task(&r);
                let t = self.spans.trace_push.close(t);
                let out = self.director.on_task_report(now, &r, &mut self.plane);
                self.spans.cloud_report.close(t);
                Some(out)
            }
        }
    }

    fn route_stack(
        &mut self,
        now: SimTime,
        stack: &mut Vec<CloudOut>,
        queue: &mut EventQueue<CoreEvent>,
    ) {
        while let Some(o) = stack.pop() {
            self.cloud_reports.extend(o.reports);
            for (at, vapp) in o.leases {
                self.schedule(queue, at, CoreEvent::Lease(vapp));
            }
            for e in o.mgmt {
                if let Some(child) = self.consume_emit(now, e, queue) {
                    stack.push(child);
                }
            }
        }
    }

    fn route(&mut self, now: SimTime, out: CloudOut, queue: &mut EventQueue<CoreEvent>) {
        let mut stack = std::mem::take(&mut self.route_buf);
        stack.push(out);
        self.route_stack(now, &mut stack, queue);
        self.route_buf = stack;
    }

    fn route_scratch(&mut self, now: SimTime, queue: &mut EventQueue<CoreEvent>) {
        let mut emits = std::mem::take(&mut self.scratch);
        let mut stack = std::mem::take(&mut self.route_buf);
        for e in emits.drain(..) {
            if let Some(child) = self.consume_emit(now, e, queue) {
                stack.push(child);
            }
        }
        self.scratch = emits;
        self.route_stack(now, &mut stack, queue);
        self.route_buf = stack;
    }

    fn submit_cloud(&mut self, now: SimTime, req: CloudRequest, queue: &mut EventQueue<CoreEvent>) {
        let t = Instant::now();
        let (_, out) = self.director.submit(now, req, &mut self.plane);
        self.spans.cloud_submit.close(t);
        self.route(now, out, queue);
    }

    fn submit_op(&mut self, now: SimTime, op: OpKind, queue: &mut EventQueue<CoreEvent>) {
        let mut emits = std::mem::take(&mut self.scratch);
        let t = Instant::now();
        self.plane.submit(now, Operation::new(op), &mut emits);
        self.spans.mgmt[0].close(t);
        self.scratch = emits;
        self.route_scratch(now, queue);
    }
}

impl Model for TracedCloud {
    type Event = CoreEvent;

    fn handle(&mut self, now: SimTime, event: CoreEvent, queue: &mut EventQueue<CoreEvent>) {
        let opened = Instant::now();
        match event {
            CoreEvent::Mgmt(ev) => {
                // The plane's span opens with `handle`'s: the few steps
                // between them are not worth a clock read per event.
                let kind = mgmt_kind(&ev);
                let mut emits = std::mem::take(&mut self.scratch);
                self.plane.handle(now, ev, &mut emits);
                self.spans.mgmt[kind].close(opened);
                self.scratch = emits;
                self.route_scratch(now, queue);
            }
            CoreEvent::Lease(vapp) => {
                let t = Instant::now();
                let out = self.director.on_lease_expiry(now, vapp, &mut self.plane);
                self.spans.cloud_lease.close(t);
                self.route(now, out, queue);
            }
            CoreEvent::Arrival => {
                if let Some(g) = self.generator.as_mut() {
                    let t = Instant::now();
                    let request = g.generate(now, &self.director, &self.plane);
                    let next = g.next_arrival(now);
                    self.spans.generate.close(t);
                    // The next arrival is queued before this one is
                    // submitted, as in `CloudModel`.
                    if next < SimTime::MAX {
                        self.schedule(queue, next, CoreEvent::Arrival);
                    }
                    match request {
                        Some(cpsim::workload::GeneratedRequest::Cloud(req)) => {
                            self.submit_cloud(now, req, queue)
                        }
                        Some(cpsim::workload::GeneratedRequest::Op(op)) => {
                            self.submit_op(now, op, queue)
                        }
                        None => {}
                    }
                }
            }
            CoreEvent::Request(req) => self.submit_cloud(now, req, queue),
            CoreEvent::Op(op) => self.submit_op(now, op, queue),
        }
        self.spans.handle.close(opened);
        self.spans.peak_pending = self.spans.peak_pending.max(queue.len());
    }
}

/// A single-plane simulation set-up, buildable both as the simulator's
/// own [`CloudSim`] and as the traced replica.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Master seed.
    pub seed: u64,
    /// Datacenter.
    pub topology: Topology,
    /// Workload generator, if any.
    pub workload: Option<WorkloadSpec>,
    /// Control-plane configuration.
    pub config: ControlPlaneConfig,
    /// Director provisioning policy.
    pub policy: ProvisioningPolicy,
    /// Injected faults, if any.
    pub fault_plan: Option<FaultPlan>,
}

impl Shape {
    /// A bare topology: requests come from the probe harness.
    pub fn bare(topology: Topology, seed: u64) -> Self {
        Shape {
            seed,
            topology,
            workload: None,
            config: ControlPlaneConfig::default(),
            policy: ProvisioningPolicy::default(),
            fault_plan: None,
        }
    }

    /// A calibrated profile with its own workload generator.
    pub fn profile(p: &Profile, seed: u64) -> Self {
        Shape {
            workload: Some(p.workload.clone()),
            ..Shape::bare(p.topology.clone(), seed)
        }
    }

    /// Builds the simulator's own, untraced simulation.
    pub fn untraced(&self) -> CloudSim {
        let mut s = Scenario::bare(self.topology.clone())
            .seed(self.seed)
            .config(self.config.clone())
            .policy(self.policy)
            .workload(self.workload.clone());
        if let Some(plan) = &self.fault_plan {
            s = s.with_fault_plan(plan.clone());
        }
        s.build()
    }

    /// Builds the traced replica, step for step as `Scenario::build` and
    /// `CloudSim` assemble the untraced one.
    pub fn traced(&self) -> Simulation<TracedCloud> {
        let streams = Streams::new(self.seed);
        let mut plane = ControlPlane::new(self.config.clone(), streams.substreams(1));
        let mut director = CloudDirector::new(self.policy);
        let templates = materialize(&self.topology, &mut plane, &mut director);
        let org = director.create_org("default-org");
        let generator = self.workload.clone().map(|spec| {
            RequestGenerator::new(spec, &streams.substreams(2), org, templates.clone())
        });
        let fault_events = match &self.fault_plan {
            Some(plan) if !plan.is_empty() => {
                let fstreams = streams.substreams(3);
                plane.enable_faults(plan.recovery, plan.agent_timeout_prob, fstreams.rng(0));
                plan.materialize(&fstreams)
            }
            _ => Vec::new(),
        };
        let init = plane.init_events();
        let mut sim = Simulation::new(TracedCloud {
            plane,
            director,
            generator,
            trace: TraceLog::new(),
            cloud_reports: Vec::new(),
            templates,
            org,
            scratch: Vec::new(),
            route_buf: Vec::new(),
            spans: Spans::default(),
        });
        for e in init {
            if let Emit::At(at, ev) = e {
                sim.schedule(at, CoreEvent::Mgmt(ev));
            }
        }
        for e in fault_events {
            sim.schedule(e.at, CoreEvent::Mgmt(MgmtEvent::Fault(e.kind)));
        }
        let first = sim
            .model_mut()
            .generator
            .as_mut()
            .map_or(SimTime::MAX, |g| g.next_arrival(SimTime::ZERO));
        if first < SimTime::MAX {
            sim.schedule(first, CoreEvent::Arrival);
        }
        sim
    }
}

/// Creates the topology's datastores, hosts, templates and initial
/// population in the order `Scenario::build` does; returns the templates.
fn materialize(t: &Topology, plane: &mut ControlPlane, director: &mut CloudDirector) -> Vec<VmId> {
    let datastores: Vec<_> = (0..t.datastores)
        .map(|i| {
            plane.add_datastore(DatastoreSpec::new(
                format!("ds-{i:02}"),
                t.ds_capacity_gb,
                t.ds_bandwidth_mbps,
            ))
        })
        .collect();
    let hosts: Vec<_> = (0..t.hosts)
        .map(|i| {
            plane.add_host(HostSpec::new(
                format!("host-{i:03}"),
                t.host_cpu_mhz,
                t.host_mem_mb,
            ))
        })
        .collect();
    for &h in &hosts {
        for &d in &datastores {
            plane.connect(h, d).expect("fresh ids");
        }
    }
    let mut templates = Vec::new();
    for (i, (name, vcpus, mem_mb, disk_gb)) in t.templates.iter().enumerate() {
        let home = datastores[i % datastores.len()];
        let spec = VmSpec::new(*vcpus, *mem_mb, *disk_gb);
        let template = plane
            .install_template(name, spec, hosts[i % hosts.len()], home)
            .expect("template fits its home datastore");
        if t.seed_templates_everywhere {
            for &ds in datastores.iter().filter(|&&ds| ds != home) {
                plane
                    .seed_template_now(template, ds)
                    .expect("template fits every datastore");
            }
        }
        director.register_template(template);
        templates.push(template);
    }
    if t.initial_vapps > 0 {
        let org = director.create_org("baseline-org");
        let mut cursor = 0usize;
        for v in 0..t.initial_vapps {
            let mut members = Vec::new();
            for m in 0..t.initial_vapp_size {
                let (_, vcpus, mem_mb, disk_gb) = &t.templates[cursor % t.templates.len()];
                let (host, ds) = (
                    hosts[cursor % hosts.len()],
                    datastores[cursor % datastores.len()],
                );
                cursor += 1;
                let vm = plane
                    .install_vm(
                        &format!("baseline-{v:03}-{m:02}"),
                        VmSpec::new(*vcpus, *mem_mb, *disk_gb),
                        host,
                        ds,
                        true,
                    )
                    .expect("baseline population fits the declared topology");
                members.push(vm);
            }
            director.adopt_vapp(org, format!("baseline-{v:03}"), members, SimTime::ZERO);
        }
    }
    templates
}

/// What must match exactly between a traced run and its untraced twin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events processed.
    pub events: u64,
    /// Trace records.
    pub trace_len: usize,
    /// Plane operations submitted.
    pub submitted: u64,
    /// Plane operations completed.
    pub completed: u64,
    /// Plane operations failed.
    pub failed: u64,
    /// Completed cloud requests.
    pub cloud_reports: usize,
}

/// The calls a probe harness makes on a simulation, so one harness
/// drives both the traced replica and the simulator's own `CloudSim`.
/// `run_until` is timed by the implementations.
pub trait Driven {
    /// Queues a cloud request at `at`.
    fn schedule_request(&mut self, at: SimTime, req: CloudRequest);
    /// Runs until `horizon`.
    fn run_until(&mut self, horizon: SimTime);
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// Completed cloud requests so far.
    fn cloud_reports(&self) -> &[CloudReport];
    /// The first catalog template.
    fn template(&self) -> VmId;
    /// The default org.
    fn org(&self) -> OrgId;
    /// The control plane.
    fn plane(&self) -> &ControlPlane;
    /// Wall seconds spent in `run_until` so far.
    fn run_s(&self) -> f64;
    /// The run's fingerprint.
    fn fingerprint(&self) -> Fingerprint {
        let stats = self.plane().stats();
        Fingerprint {
            events: self.events(),
            trace_len: self.trace_len(),
            submitted: stats.submitted(),
            completed: stats.completed(),
            failed: stats.failed(),
            cloud_reports: self.cloud_reports().len(),
        }
    }
    /// Events processed so far.
    fn events(&self) -> u64;
    /// Trace records so far.
    fn trace_len(&self) -> usize;
}

/// The simulator's own `CloudSim`, with its `run_until` calls timed.
pub struct Untraced {
    sim: CloudSim,
    run_s: f64,
}

impl Untraced {
    /// Wraps a freshly built simulation.
    pub fn new(sim: CloudSim) -> Self {
        Untraced { sim, run_s: 0.0 }
    }
}

impl Driven for Untraced {
    fn schedule_request(&mut self, at: SimTime, req: CloudRequest) {
        self.sim.schedule_request(at, req);
    }
    fn run_until(&mut self, horizon: SimTime) {
        let t = Instant::now();
        self.sim.run_until(horizon);
        self.run_s += t.elapsed().as_secs_f64();
    }
    fn now(&self) -> SimTime {
        self.sim.now()
    }
    fn cloud_reports(&self) -> &[CloudReport] {
        self.sim.cloud_reports()
    }
    fn template(&self) -> VmId {
        self.sim.templates()[0]
    }
    fn org(&self) -> OrgId {
        self.sim.org()
    }
    fn plane(&self) -> &ControlPlane {
        self.sim.plane()
    }
    fn run_s(&self) -> f64 {
        self.run_s
    }
    fn events(&self) -> u64 {
        self.sim.events_processed()
    }
    fn trace_len(&self) -> usize {
        self.sim.trace().len()
    }
}

impl Driven for Simulation<TracedCloud> {
    fn schedule_request(&mut self, at: SimTime, req: CloudRequest) {
        self.schedule(at, CoreEvent::Request(req));
    }
    fn run_until(&mut self, horizon: SimTime) {
        let t = Instant::now();
        Simulation::run_until(self, horizon);
        self.model_mut().spans.run.close(t);
    }
    fn now(&self) -> SimTime {
        Simulation::now(self)
    }
    fn cloud_reports(&self) -> &[CloudReport] {
        &self.model().cloud_reports
    }
    fn template(&self) -> VmId {
        self.model().templates[0]
    }
    fn org(&self) -> OrgId {
        self.model().org
    }
    fn plane(&self) -> &ControlPlane {
        &self.model().plane
    }
    fn run_s(&self) -> f64 {
        self.model().spans.run.secs
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    fn trace_len(&self) -> usize {
        self.model().trace.len()
    }
}

/// The spans a traced run recorded.
pub fn spans(sim: &Simulation<TracedCloud>) -> &Spans {
    &sim.model().spans
}
