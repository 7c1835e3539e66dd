//! The [`CloudDirector`]: translates cloud requests into chains of
//! management operations and tracks workflow completion.

use cpsim_des::{FastMap, SimTime};
use cpsim_inventory::{Arena, OrgId, PowerState, VappId, VmId};
use cpsim_mgmt::{CloneMode, ControlPlane, Emit, OpKind, Operation, TaskReport};

use crate::request::{CloudReport, CloudRequest, CloudStats};
use crate::vapp::{Org, Vapp, VappState};

/// What the director does when a provisioning member fails terminally
/// (after the control plane's own retry budget is spent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Record the failure and let the workflow finish degraded.
    #[default]
    Fail,
    /// Re-submit the failed clone — a fresh submission re-runs admission
    /// and placement, steering around declared-down hosts — up to
    /// `max_attempts` total attempts.
    Retry {
        /// Total attempts per member, including the first.
        max_attempts: u32,
    },
    /// Tear the whole vApp down when any member fails: all-or-nothing
    /// instantiation.
    Rollback,
}

/// How the director provisions vApp members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProvisioningPolicy {
    /// Clone mode used when a request does not override it.
    pub mode: CloneMode,
    /// Whether each clone gets a fencing reconfigure (per-vApp network
    /// isolation — standard in self-service clouds).
    pub fencing: bool,
    /// Whether members are powered on after provisioning.
    pub power_on: bool,
    /// What to do when a member fails terminally.
    pub on_failure: FailurePolicy,
}

impl Default for ProvisioningPolicy {
    fn default() -> Self {
        ProvisioningPolicy {
            mode: CloneMode::Linked,
            fencing: true,
            power_on: true,
            on_failure: FailurePolicy::Fail,
        }
    }
}

/// Everything a director call wants routed by the simulation driver.
#[derive(Debug, Default)]
pub struct CloudOut {
    /// Management-plane emissions to schedule/route.
    pub mgmt: Vec<Emit>,
    /// Cloud requests that completed.
    pub reports: Vec<CloudReport>,
    /// Lease expiries to schedule: at the given time, call
    /// [`CloudDirector::on_lease_expiry`].
    pub leases: Vec<(SimTime, VappId)>,
}

/// Per-operation continuation state.
#[derive(Clone, Copy, Debug)]
enum OpCtx {
    Clone {
        wf: u64,
        vapp: VappId,
        source: VmId,
        mode: CloneMode,
        attempt: u32,
    },
    Fence {
        wf: u64,
        vm: VmId,
    },
    PowerOnStep {
        wf: u64,
    },
    PowerOffOnly {
        wf: u64,
    },
    PowerOffThenDestroy {
        wf: u64,
        vapp: VappId,
        vm: VmId,
    },
    Destroy {
        wf: u64,
        vapp: Option<VappId>,
        vm: VmId,
    },
    Seed {
        wf: u64,
    },
    Rescan {
        wf: u64,
    },
    HostAdd {
        wf: u64,
    },
    Relocate {
        wf: u64,
    },
}

impl OpCtx {
    fn workflow(self) -> u64 {
        match self {
            OpCtx::Clone { wf, .. }
            | OpCtx::Fence { wf, .. }
            | OpCtx::PowerOnStep { wf }
            | OpCtx::PowerOffOnly { wf }
            | OpCtx::PowerOffThenDestroy { wf, .. }
            | OpCtx::Destroy { wf, .. }
            | OpCtx::Seed { wf }
            | OpCtx::Rescan { wf }
            | OpCtx::HostAdd { wf }
            | OpCtx::Relocate { wf } => wf,
        }
    }
}

#[derive(Debug)]
struct Workflow {
    kind: &'static str,
    started_at: SimTime,
    vapp: Option<VappId>,
    outstanding: u32,
    issued: u32,
    failed: u32,
    lease: Option<cpsim_des::SimDuration>,
}

/// The cloud director.
#[derive(Debug)]
pub struct CloudDirector {
    orgs: Arena<OrgId, Org>,
    vapps: Arena<VappId, Vapp>,
    templates: Vec<VmId>,
    policy: ProvisioningPolicy,
    /// In-flight workflows and per-task contexts, by tag. Accessed by
    /// key only (insert / get / remove / len); never iterated.
    // cpsim-lint: allow(no-unordered-iteration): keyed access only; never iterated
    workflows: FastMap<u64, Workflow>,
    // cpsim-lint: allow(no-unordered-iteration): keyed access only; never iterated
    ctx: FastMap<u64, OpCtx>,
    next_wf: u64,
    next_tag: u64,
    stats: CloudStats,
    name_seq: u64,
}

impl CloudDirector {
    /// Creates a director with `policy`.
    pub fn new(policy: ProvisioningPolicy) -> Self {
        CloudDirector {
            orgs: Arena::new(),
            vapps: Arena::new(),
            templates: Vec::new(),
            policy,
            workflows: FastMap::default(),
            ctx: FastMap::default(),
            next_wf: 1,
            // Tag 0 is reserved for untracked (directly submitted) ops.
            next_tag: 1,
            stats: CloudStats::new(),
            name_seq: 0,
        }
    }

    /// Creates a tenant org.
    pub fn create_org(&mut self, name: impl Into<String>) -> OrgId {
        self.orgs.insert(Org::new(name))
    }

    /// Registers `template` in the catalog (used by add-datastore seeding).
    pub fn register_template(&mut self, template: VmId) {
        if !self.templates.contains(&template) {
            self.templates.push(template);
        }
    }

    /// Catalog templates.
    pub fn templates(&self) -> &[VmId] {
        &self.templates
    }

    /// Adopts an externally-provisioned set of VMs as a deployed vApp
    /// (setup-time helper for pre-populated datacenters).
    pub fn adopt_vapp(
        &mut self,
        org: OrgId,
        name: impl Into<String>,
        vms: Vec<VmId>,
        now: SimTime,
    ) -> VappId {
        let mut vapp = Vapp::new(name, org, now);
        vapp.vms = vms;
        vapp.state = VappState::Deployed;
        let id = self.vapps.insert(vapp);
        if let Some(o) = self.orgs.get_mut(org) {
            o.vapp_count += 1;
        }
        id
    }

    /// Looks up a vApp.
    pub fn vapp(&self, id: VappId) -> Option<&Vapp> {
        self.vapps.get(id)
    }

    /// Iterates vApps deterministically.
    pub fn vapps(&self) -> impl Iterator<Item = (VappId, &Vapp)> {
        self.vapps.iter()
    }

    /// Cloud statistics.
    pub fn stats(&self) -> &CloudStats {
        &self.stats
    }

    /// The provisioning policy.
    pub fn policy(&self) -> ProvisioningPolicy {
        self.policy
    }

    /// Workflows still in flight.
    pub fn workflows_in_flight(&self) -> usize {
        self.workflows.len()
    }

    /// Submits a cloud request at `now`, translating it into management
    /// operations. Returns the workflow id and the emissions to route.
    pub fn submit(
        &mut self,
        now: SimTime,
        request: CloudRequest,
        plane: &mut ControlPlane,
    ) -> (u64, CloudOut) {
        self.stats.on_submitted();
        let kind = request.name();
        let wf_id = self.next_wf;
        self.next_wf += 1;
        let mut out = CloudOut::default();
        let mut wf = Workflow {
            kind,
            started_at: now,
            vapp: None,
            outstanding: 0,
            issued: 0,
            failed: 0,
            lease: None,
        };

        match request {
            CloudRequest::InstantiateVapp {
                org,
                template,
                count,
                mode,
                lease,
            } => {
                self.name_seq += 1;
                let vapp =
                    self.vapps
                        .insert(Vapp::new(format!("vapp-{:05}", self.name_seq), org, now));
                if let Some(o) = self.orgs.get_mut(org) {
                    o.vapp_count += 1;
                }
                wf.vapp = Some(vapp);
                wf.lease = lease;
                let mode = mode.unwrap_or(self.policy.mode);
                for _ in 0..count {
                    self.issue(
                        now,
                        &mut wf,
                        OpCtx::Clone {
                            wf: wf_id,
                            vapp,
                            source: template,
                            mode,
                            attempt: 1,
                        },
                        OpKind::CloneVm {
                            source: template,
                            mode,
                        },
                        plane,
                        &mut out,
                    );
                }
            }
            CloudRequest::StartVapp { vapp } => {
                wf.vapp = Some(vapp);
                let members = self.members_in_state(vapp, plane, PowerState::Off);
                for vm in members {
                    self.issue(
                        now,
                        &mut wf,
                        OpCtx::PowerOnStep { wf: wf_id },
                        OpKind::PowerOn { vm },
                        plane,
                        &mut out,
                    );
                }
            }
            CloudRequest::StopVapp { vapp } => {
                wf.vapp = Some(vapp);
                let members = self.members_in_state(vapp, plane, PowerState::On);
                for vm in members {
                    self.issue(
                        now,
                        &mut wf,
                        OpCtx::PowerOffOnly { wf: wf_id },
                        OpKind::PowerOff { vm },
                        plane,
                        &mut out,
                    );
                }
            }
            CloudRequest::DeleteVapp { vapp } => {
                wf.vapp = Some(vapp);
                if let Some(v) = self.vapps.get_mut(vapp) {
                    v.state = VappState::Deleting;
                }
                let members: Vec<VmId> = self
                    .vapps
                    .get(vapp)
                    .map(|v| v.vms.clone())
                    .unwrap_or_default();
                for vm in members {
                    let powered_on = plane
                        .inventory()
                        .vm(vm)
                        .map(|v| v.power == PowerState::On)
                        .unwrap_or(false);
                    if powered_on {
                        self.issue(
                            now,
                            &mut wf,
                            OpCtx::PowerOffThenDestroy {
                                wf: wf_id,
                                vapp,
                                vm,
                            },
                            OpKind::PowerOff { vm },
                            plane,
                            &mut out,
                        );
                    } else {
                        self.issue(
                            now,
                            &mut wf,
                            OpCtx::Destroy {
                                wf: wf_id,
                                vapp: Some(vapp),
                                vm,
                            },
                            OpKind::DestroyVm { vm },
                            plane,
                            &mut out,
                        );
                    }
                }
            }
            CloudRequest::RecomposeVapp {
                vapp,
                add,
                template,
            } => {
                wf.vapp = Some(vapp);
                for _ in 0..add {
                    self.issue(
                        now,
                        &mut wf,
                        OpCtx::Clone {
                            wf: wf_id,
                            vapp,
                            source: template,
                            mode: self.policy.mode,
                            attempt: 1,
                        },
                        OpKind::CloneVm {
                            source: template,
                            mode: self.policy.mode,
                        },
                        plane,
                        &mut out,
                    );
                }
            }
            CloudRequest::RedistributeTemplate { template } => {
                let all: Vec<_> = plane.inventory().datastores().map(|(id, _)| id).collect();
                let missing: Vec<_> = plane.residency().missing_from(template, &all).collect();
                for ds in missing {
                    self.issue(
                        now,
                        &mut wf,
                        OpCtx::Seed { wf: wf_id },
                        OpKind::SeedTemplate { template, dst: ds },
                        plane,
                        &mut out,
                    );
                }
            }
            CloudRequest::AddDatastore {
                spec,
                seed_templates,
            } => {
                let ds = plane.add_datastore(spec);
                let hosts: Vec<_> = plane.inventory().hosts().map(|(id, _)| id).collect();
                for h in &hosts {
                    plane.connect(*h, ds).expect("fresh datastore");
                }
                for h in hosts {
                    self.issue(
                        now,
                        &mut wf,
                        OpCtx::Rescan { wf: wf_id },
                        OpKind::RescanDatastores { host: h },
                        plane,
                        &mut out,
                    );
                }
                if seed_templates {
                    for template in self.templates.clone() {
                        self.issue(
                            now,
                            &mut wf,
                            OpCtx::Seed { wf: wf_id },
                            OpKind::SeedTemplate { template, dst: ds },
                            plane,
                            &mut out,
                        );
                    }
                }
            }
            CloudRequest::RebalanceDatastores { target_utilization } => {
                let target = target_utilization.clamp(0.0, 1.0);
                // Plan moves against a projected usage tally so one pass
                // does not over- or under-shoot.
                let mut usage: Vec<(cpsim_inventory::DatastoreId, f64, f64)> = plane
                    .inventory()
                    .datastores()
                    .map(|(id, d)| (id, d.used_gb, d.spec.capacity_gb))
                    .collect();
                let over: Vec<cpsim_inventory::DatastoreId> = usage
                    .iter()
                    .filter(|(_, used, cap)| *cap > 0.0 && used / cap > target)
                    .map(|(id, _, _)| *id)
                    .collect();
                for ds in over {
                    // Candidate movers: non-template VMs homed on `ds`,
                    // smallest first (cheapest moves first).
                    let mut movers: Vec<(VmId, f64)> = plane
                        .inventory()
                        .vms()
                        .filter(|(_, v)| !v.is_template && v.datastore == ds)
                        .map(|(id, v)| {
                            let gb: f64 = v
                                .disks
                                .iter()
                                .filter_map(|d| plane.storage().disk(*d))
                                .map(|d| d.allocated_gb)
                                .sum();
                            (id, gb)
                        })
                        .collect();
                    movers.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                    for (vm, gb) in movers {
                        let (src_used, src_cap) = usage
                            .iter()
                            .find(|(id, _, _)| *id == ds)
                            .map(|(_, u, c)| (*u, *c))
                            .expect("usage covers every datastore; ds came from it");
                        if src_cap <= 0.0 || src_used / src_cap <= target {
                            break;
                        }
                        // Destination: emptiest other datastore with room.
                        let dst = usage
                            .iter()
                            .filter(|(id, used, cap)| {
                                *id != ds && cap - used >= gb && (used + gb) / cap <= target
                            })
                            .min_by(|a, b| {
                                (a.1 / a.2)
                                    .total_cmp(&(b.1 / b.2))
                                    .then_with(|| a.0.cmp(&b.0))
                            })
                            .map(|(id, _, _)| *id);
                        let Some(dst) = dst else { break };
                        for entry in usage.iter_mut() {
                            if entry.0 == ds {
                                entry.1 -= gb;
                            } else if entry.0 == dst {
                                entry.1 += gb;
                            }
                        }
                        self.issue(
                            now,
                            &mut wf,
                            OpCtx::Relocate { wf: wf_id },
                            OpKind::RelocateVm { vm, dst },
                            plane,
                            &mut out,
                        );
                    }
                }
            }
            CloudRequest::AddHost { spec } => {
                let datastores: Vec<_> = plane.inventory().datastores().map(|(id, _)| id).collect();
                self.issue(
                    now,
                    &mut wf,
                    OpCtx::HostAdd { wf: wf_id },
                    OpKind::add_host(spec, datastores),
                    plane,
                    &mut out,
                );
            }
        }

        if wf.outstanding == 0 {
            // Nothing to do: complete immediately.
            let report = Self::report_of(wf_id, &wf, now);
            self.stats.on_completed();
            self.finalize_vapp(&wf, now, &mut out);
            out.reports.push(report);
        } else {
            self.workflows.insert(wf_id, wf);
        }
        (wf_id, out)
    }

    /// Routes a finished management task back into its workflow chain.
    /// Reports with unknown tags (directly submitted ops) are ignored.
    pub fn on_task_report(
        &mut self,
        now: SimTime,
        report: &TaskReport,
        plane: &mut ControlPlane,
    ) -> CloudOut {
        let mut out = CloudOut::default();
        let Some(ctx) = self.ctx.remove(&report.tag) else {
            return out;
        };
        let wf_id = ctx.workflow();
        let ok = report.is_success();
        let mut chain_ended = true;
        let mut failed_step = !ok;

        match ctx {
            OpCtx::Clone {
                wf,
                vapp,
                source,
                mode,
                attempt,
            } => {
                if !ok {
                    if let FailurePolicy::Retry { max_attempts } = self.policy.on_failure {
                        if attempt < max_attempts {
                            // Re-place and retry: the fresh submission
                            // re-runs admission and placement, so the
                            // member can land on a healthy host.
                            failed_step = false;
                            self.issue_continuation(
                                now,
                                wf,
                                OpCtx::Clone {
                                    wf,
                                    vapp,
                                    source,
                                    mode,
                                    attempt: attempt + 1,
                                },
                                OpKind::CloneVm { source, mode },
                                plane,
                                &mut out,
                            );
                            chain_ended = false;
                        }
                    }
                }
                if ok {
                    if let Some(vm) = report.produced_vm {
                        if let Some(v) = self.vapps.get_mut(vapp) {
                            v.vms.push(vm);
                        }
                        self.stats.on_vm_provisioned();
                        if self.policy.fencing {
                            self.issue_continuation(
                                now,
                                wf,
                                OpCtx::Fence { wf, vm },
                                OpKind::Reconfigure { vm },
                                plane,
                                &mut out,
                            );
                            chain_ended = false;
                        } else if self.policy.power_on {
                            self.issue_continuation(
                                now,
                                wf,
                                OpCtx::PowerOnStep { wf },
                                OpKind::PowerOn { vm },
                                plane,
                                &mut out,
                            );
                            chain_ended = false;
                        }
                    }
                }
            }
            OpCtx::Fence { wf, vm } => {
                if ok && self.policy.power_on {
                    self.issue_continuation(
                        now,
                        wf,
                        OpCtx::PowerOnStep { wf },
                        OpKind::PowerOn { vm },
                        plane,
                        &mut out,
                    );
                    chain_ended = false;
                }
            }
            OpCtx::PowerOnStep { .. } | OpCtx::PowerOffOnly { .. } => {}
            OpCtx::PowerOffThenDestroy { wf, vapp, vm } => {
                // Destroy regardless: a power-off failure usually means the
                // VM was already off.
                failed_step = false;
                self.issue_continuation(
                    now,
                    wf,
                    OpCtx::Destroy {
                        wf,
                        vapp: Some(vapp),
                        vm,
                    },
                    OpKind::DestroyVm { vm },
                    plane,
                    &mut out,
                );
                chain_ended = false;
            }
            OpCtx::Destroy { vapp, vm, .. } => {
                if ok {
                    self.stats.on_vm_destroyed();
                    if let Some(vapp) = vapp {
                        if let Some(v) = self.vapps.get_mut(vapp) {
                            v.vms.retain(|m| *m != vm);
                        }
                    }
                }
            }
            OpCtx::Seed { .. }
            | OpCtx::Rescan { .. }
            | OpCtx::HostAdd { .. }
            | OpCtx::Relocate { .. } => {}
        }

        // Bookkeeping on the workflow.
        let complete = {
            let wf = self
                .workflows
                .get_mut(&wf_id)
                .expect("report for unknown workflow");
            if failed_step {
                wf.failed += 1;
            }
            if chain_ended {
                wf.outstanding -= 1;
            }
            wf.outstanding == 0
        };
        if complete {
            let wf = self
                .workflows
                .remove(&wf_id)
                .expect("the `complete` closure just read this entry");
            let report = Self::report_of(wf_id, &wf, now);
            self.stats.on_completed();
            self.finalize_vapp(&wf, now, &mut out);
            if self.policy.on_failure == FailurePolicy::Rollback
                && report.ops_failed > 0
                && wf.kind == "instantiate-vapp"
            {
                // All-or-nothing: a degraded vApp is torn down rather
                // than handed to the tenant.
                if let Some(vapp) = wf.vapp {
                    if self.vapps.get(vapp).is_some() {
                        let (_, rb) = self.submit(now, CloudRequest::DeleteVapp { vapp }, plane);
                        out.mgmt.extend(rb.mgmt);
                        out.reports.extend(rb.reports);
                        out.leases.extend(rb.leases);
                    }
                }
            }
            out.reports.push(report);
        }
        out
    }

    /// Handles a lease expiry scheduled via [`CloudOut::leases`]: tears the
    /// vApp down if it still exists.
    pub fn on_lease_expiry(
        &mut self,
        now: SimTime,
        vapp: VappId,
        plane: &mut ControlPlane,
    ) -> CloudOut {
        self.stats.on_lease_expiry();
        match self.vapps.get(vapp) {
            Some(v) if v.state != VappState::Deleting => {
                let (_, out) = self.submit(now, CloudRequest::DeleteVapp { vapp }, plane);
                out
            }
            _ => CloudOut::default(),
        }
    }

    // ---- internals -------------------------------------------------------

    fn issue(
        &mut self,
        now: SimTime,
        wf: &mut Workflow,
        ctx: OpCtx,
        op: OpKind,
        plane: &mut ControlPlane,
        out: &mut CloudOut,
    ) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.ctx.insert(tag, ctx);
        wf.outstanding += 1;
        wf.issued += 1;
        plane.submit(now, Operation::tagged(op, tag), &mut out.mgmt);
    }

    /// Like [`issue`], but for a continuation inside an already-registered
    /// workflow (outstanding stays balanced: the ended step is replaced by
    /// the new one).
    fn issue_continuation(
        &mut self,
        now: SimTime,
        wf_id: u64,
        ctx: OpCtx,
        op: OpKind,
        plane: &mut ControlPlane,
        out: &mut CloudOut,
    ) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.ctx.insert(tag, ctx);
        if let Some(wf) = self.workflows.get_mut(&wf_id) {
            wf.issued += 1;
        }
        plane.submit(now, Operation::tagged(op, tag), &mut out.mgmt);
    }

    fn members_in_state(&self, vapp: VappId, plane: &ControlPlane, state: PowerState) -> Vec<VmId> {
        self.vapps
            .get(vapp)
            .map(|v| {
                v.vms
                    .iter()
                    .copied()
                    .filter(|vm| {
                        plane
                            .inventory()
                            .vm(*vm)
                            .map(|v| v.power == state)
                            .unwrap_or(false)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn report_of(wf_id: u64, wf: &Workflow, now: SimTime) -> CloudReport {
        CloudReport {
            kind: wf.kind,
            workflow: wf_id,
            submitted_at: wf.started_at,
            completed_at: now,
            latency: now.since(wf.started_at),
            ops_issued: wf.issued,
            ops_failed: wf.failed,
            vapp: wf.vapp,
        }
    }

    /// Applies end-of-workflow vApp state transitions and lease scheduling.
    fn finalize_vapp(&mut self, wf: &Workflow, now: SimTime, out: &mut CloudOut) {
        let Some(vapp) = wf.vapp else { return };
        match wf.kind {
            "instantiate-vapp" | "recompose-vapp" => {
                if let Some(v) = self.vapps.get_mut(vapp) {
                    v.state = VappState::Deployed;
                    if let Some(lease) = wf.lease {
                        let expires = now + lease;
                        v.lease_expires = Some(expires);
                        out.leases.push((expires, vapp));
                    }
                }
            }
            "delete-vapp" => {
                if let Some(v) = self.vapps.remove(vapp) {
                    if let Some(o) = self.orgs.get_mut(v.org) {
                        o.vapp_count = o.vapp_count.saturating_sub(1);
                    }
                }
            }
            _ => {}
        }
    }
}

impl Default for CloudDirector {
    fn default() -> Self {
        CloudDirector::new(ProvisioningPolicy::default())
    }
}
