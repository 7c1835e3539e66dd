//! The [`MgmtStack`]: control plane, cloud director and what they
//! record, plus the only code that routes events between them. The
//! single-plane driver embeds one with the [`Forward`] hook; each shard
//! of a federation embeds one with its ledger as the [`ReportHook`].
//! Routing is generic over the caller's event enum ([`StackEvent`]) and
//! the hook, so the per-event path stays monomorphized.

use cpsim_cloud::{CloudDirector, CloudOut, CloudReport, CloudRequest};
use cpsim_des::{EventQueue, SimTime};
use cpsim_inventory::{DatastoreId, HostId, OrgId, VappId, VmId, VmSpec};
use cpsim_mgmt::{ControlPlane, Emit, MgmtEvent, Operation, TaskReport};

use crate::trace::TraceLog;

/// A caller's event enum, as far as the stack needs to build it.
pub trait StackEvent {
    /// Wraps a management-plane event.
    fn mgmt(event: MgmtEvent) -> Self;
    /// Wraps a vApp lease expiry.
    fn lease(vapp: VappId) -> Self;
}

/// Sees every finished task's report after it has been traced and kept.
pub trait ReportHook {
    /// Returns the report when the director should see it, or `None`
    /// when the hook has taken it over.
    fn on_report(&mut self, now: SimTime, report: TaskReport) -> Option<TaskReport>;
}

/// The hook of a stack with nothing above it: every report reaches the
/// director.
#[derive(Debug)]
pub struct Forward;

impl ReportHook for Forward {
    #[inline]
    fn on_report(&mut self, _now: SimTime, report: TaskReport) -> Option<TaskReport> {
        Some(report)
    }
}

/// One management stack: the plane and director, the inventory the
/// scenario created for them, what the run records, and the report hook.
pub struct MgmtStack<H = Forward> {
    /// The control plane.
    pub plane: ControlPlane,
    /// The cloud director on top of it.
    pub director: CloudDirector,
    /// The default org requests are attributed to.
    pub org: OrgId,
    /// Hosts, in creation order.
    pub hosts: Vec<HostId>,
    /// Datastores, in creation order.
    pub datastores: Vec<DatastoreId>,
    /// Catalog templates, in creation order.
    pub templates: Vec<VmId>,
    /// Whether finished tasks are appended to `trace` (default on).
    pub collect_trace: bool,
    /// The operation trace collected so far.
    pub trace: TraceLog,
    /// Whether full task reports are kept in `task_reports` (default off).
    pub keep_task_reports: bool,
    /// Full task reports, in completion order.
    pub task_reports: Vec<TaskReport>,
    /// Completed cloud requests.
    pub cloud_reports: Vec<CloudReport>,
    /// Sees each finished task's report before the director does.
    pub hook: H,
    /// Reused emission buffer: the plane appends into this on every
    /// dispatched event instead of allocating a fresh `Vec` per event.
    scratch: Vec<Emit>,
    /// Pooled routing stack reused across events (see `route_stack`).
    route_buf: Vec<CloudOut>,
}

impl<H: ReportHook> MgmtStack<H> {
    /// A stack over a materialized plane and director, collecting a
    /// trace and keeping no task reports.
    pub fn new(
        plane: ControlPlane,
        director: CloudDirector,
        org: OrgId,
        hosts: Vec<HostId>,
        datastores: Vec<DatastoreId>,
        templates: Vec<VmId>,
        hook: H,
    ) -> Self {
        MgmtStack {
            plane,
            director,
            org,
            hosts,
            datastores,
            templates,
            collect_trace: true,
            trace: TraceLog::new(),
            keep_task_reports: false,
            task_reports: Vec::new(),
            cloud_reports: Vec::new(),
            hook,
            scratch: Vec::new(),
            route_buf: Vec::new(),
        }
    }

    /// The plane's initial timers, to schedule once before the run.
    pub fn initial_events<E: StackEvent>(&self) -> impl Iterator<Item = (SimTime, E)> {
        let init = self.plane.init_events().into_iter();
        init.filter_map(|e| match e {
            Emit::At(t, ev) => Some((t, E::mgmt(ev))),
            Emit::Done(..) | Emit::Failed(..) => None,
        })
    }

    /// Routes one emission: timers go onto the caller's queue; task
    /// reports are traced, kept, passed to the hook and then to the
    /// director, whose output the caller must route in turn.
    fn consume_emit<E: StackEvent>(
        &mut self,
        now: SimTime,
        e: Emit,
        queue: &mut EventQueue<E>,
    ) -> Option<CloudOut> {
        match e {
            Emit::At(t, ev) => {
                queue.schedule(t, E::mgmt(ev));
                None
            }
            Emit::Done(_, r) | Emit::Failed(_, r) => {
                if self.collect_trace {
                    self.trace.push_task(&r);
                }
                if self.keep_task_reports {
                    self.task_reports.push(r.clone());
                }
                let r = self.hook.on_report(now, r)?;
                Some(self.director.on_task_report(now, &r, &mut self.plane))
            }
        }
    }

    fn route_stack<E: StackEvent>(
        &mut self,
        now: SimTime,
        stack: &mut Vec<CloudOut>,
        queue: &mut EventQueue<E>,
    ) {
        while let Some(o) = stack.pop() {
            self.cloud_reports.extend(o.reports);
            for (t, vapp) in o.leases {
                queue.schedule(t, E::lease(vapp));
            }
            for e in o.mgmt {
                if let Some(child) = self.consume_emit(now, e, queue) {
                    stack.push(child);
                }
            }
        }
    }

    fn route<E: StackEvent>(&mut self, now: SimTime, out: CloudOut, queue: &mut EventQueue<E>) {
        let mut stack = std::mem::take(&mut self.route_buf);
        stack.push(out);
        self.route_stack(now, &mut stack, queue);
        self.route_buf = stack;
    }

    /// Routes the plane emissions accumulated in `self.scratch`, leaving
    /// the (emptied) buffer in place for the next event.
    fn route_scratch<E: StackEvent>(&mut self, now: SimTime, queue: &mut EventQueue<E>) {
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

    /// Calls the plane with the scratch emission buffer, then routes
    /// whatever it emitted.
    pub fn drive_plane<E: StackEvent>(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<E>,
        call: impl FnOnce(&mut ControlPlane, &mut Vec<Emit>),
    ) {
        debug_assert!(self.scratch.is_empty());
        call(&mut self.plane, &mut self.scratch);
        self.route_scratch(now, queue);
    }

    /// Handles a management-plane event.
    pub fn handle_mgmt<E: StackEvent>(
        &mut self,
        now: SimTime,
        ev: MgmtEvent,
        queue: &mut EventQueue<E>,
    ) {
        self.drive_plane(now, queue, |plane, out| plane.handle(now, ev, out));
    }

    /// Handles the expiry of `vapp`'s lease.
    pub fn expire_lease<E: StackEvent>(
        &mut self,
        now: SimTime,
        vapp: VappId,
        queue: &mut EventQueue<E>,
    ) {
        let out = self.director.on_lease_expiry(now, vapp, &mut self.plane);
        self.route(now, out, queue);
    }

    /// Submits a cloud request to the director.
    pub fn submit_cloud<E: StackEvent>(
        &mut self,
        now: SimTime,
        req: CloudRequest,
        queue: &mut EventQueue<E>,
    ) {
        let (_, out) = self.director.submit(now, req, &mut self.plane);
        self.route(now, out, queue);
    }

    /// Submits a raw management operation to the plane.
    pub fn submit_op<E: StackEvent>(
        &mut self,
        now: SimTime,
        op: impl Into<Operation>,
        queue: &mut EventQueue<E>,
    ) {
        self.drive_plane(now, queue, |plane, out| plane.submit(now, op, out));
    }
}

/// Installs each `(name, vcpus, mem_mb, disk_gb)` template on host and
/// datastore `i` (modulo their counts), seeds it on every other datastore
/// if `seed_everywhere`, and registers it with the director.
///
/// # Panics
///
/// Panics if a template does not fit where it is installed or seeded.
pub fn install_templates(
    plane: &mut ControlPlane,
    director: &mut CloudDirector,
    hosts: &[HostId],
    datastores: &[DatastoreId],
    templates: &[(String, u32, u64, f64)],
    seed_everywhere: bool,
) -> Vec<VmId> {
    let mut installed = Vec::with_capacity(templates.len());
    for (i, (name, vcpus, mem_mb, disk_gb)) in templates.iter().enumerate() {
        let host = hosts[i % hosts.len()];
        let home_ds = datastores[i % datastores.len()];
        let spec = VmSpec::new(*vcpus, *mem_mb, *disk_gb);
        let template = plane
            .install_template(name, spec, host, home_ds)
            .unwrap_or_else(|e| panic!("installing template {name}: {e}"));
        if seed_everywhere {
            for &ds in datastores {
                if ds != home_ds {
                    plane
                        .seed_template_now(template, ds)
                        .unwrap_or_else(|e| panic!("seeding template {name}: {e}"));
                }
            }
        }
        director.register_template(template);
        installed.push(template);
    }
    installed
}
