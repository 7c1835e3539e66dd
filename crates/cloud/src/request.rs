//! Cloud-level requests, reports, and statistics.

use cpsim_des::{SimDuration, SimTime};
use cpsim_inventory::{DatastoreSpec, HostSpec, OrgId, VappId, VmId};
use cpsim_mgmt::CloneMode;

/// A tenant- or operator-level request to the cloud.
#[derive(Clone, Debug, PartialEq)]
pub enum CloudRequest {
    /// Deploy a vApp of `count` VMs cloned from `template`.
    InstantiateVapp {
        /// Owning org.
        org: OrgId,
        /// Catalog template to clone.
        template: VmId,
        /// Number of member VMs.
        count: u32,
        /// Clone mode override (None = director policy).
        mode: Option<CloneMode>,
        /// Auto-delete after this long (None = no lease).
        lease: Option<SimDuration>,
    },
    /// Power on every member of a vApp.
    StartVapp {
        /// Target vApp.
        vapp: VappId,
    },
    /// Power off every running member of a vApp.
    StopVapp {
        /// Target vApp.
        vapp: VappId,
    },
    /// Tear down a vApp (power off + destroy every member).
    DeleteVapp {
        /// Target vApp.
        vapp: VappId,
    },
    /// Grow an existing vApp by `add` more clones.
    RecomposeVapp {
        /// Target vApp.
        vapp: VappId,
        /// VMs to add.
        add: u32,
        /// Template to clone from.
        template: VmId,
    },
    /// Seed `template` onto every cloud datastore missing it
    /// (reconfiguration: template redistribution).
    RedistributeTemplate {
        /// The template.
        template: VmId,
    },
    /// Add a datastore to the cloud: connect all hosts, rescan them, and
    /// optionally seed all registered templates onto it.
    AddDatastore {
        /// The new datastore.
        spec: DatastoreSpec,
        /// Whether to seed catalog templates onto it immediately.
        seed_templates: bool,
    },
    /// Add a host to the cloud (management add-host workflow).
    AddHost {
        /// The new host.
        spec: HostSpec,
    },
    /// Rebalance storage: relocate VMs off datastores whose space
    /// utilization exceeds `target_utilization` (0..1) onto the emptiest
    /// datastores (cloud reconfiguration: storage-DRS-style pass).
    RebalanceDatastores {
        /// Utilization ceiling the pass tries to restore.
        target_utilization: f64,
    },
}

impl CloudRequest {
    /// Stable lowercase name for stats and traces.
    pub fn name(&self) -> &'static str {
        match self {
            CloudRequest::InstantiateVapp { .. } => "instantiate-vapp",
            CloudRequest::StartVapp { .. } => "start-vapp",
            CloudRequest::StopVapp { .. } => "stop-vapp",
            CloudRequest::DeleteVapp { .. } => "delete-vapp",
            CloudRequest::RecomposeVapp { .. } => "recompose-vapp",
            CloudRequest::RedistributeTemplate { .. } => "redistribute-template",
            CloudRequest::AddDatastore { .. } => "add-datastore",
            CloudRequest::AddHost { .. } => "add-host-cloud",
            CloudRequest::RebalanceDatastores { .. } => "rebalance-datastores",
        }
    }
}

/// Completion report of one cloud request.
#[derive(Clone, Debug, PartialEq)]
pub struct CloudReport {
    /// Request name.
    pub kind: &'static str,
    /// Workflow id.
    pub workflow: u64,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Management operations issued on behalf of this request.
    pub ops_issued: u32,
    /// Of those, how many failed.
    pub ops_failed: u32,
    /// The vApp concerned, if any.
    pub vapp: Option<VappId>,
}

impl CloudReport {
    /// Whether every underlying operation succeeded.
    pub fn is_clean(&self) -> bool {
        self.ops_failed == 0
    }
}

/// Cloud-level statistics.
#[derive(Clone, Debug, Default)]
pub struct CloudStats {
    submitted: u64,
    completed: u64,
    vms_provisioned: u64,
    vms_destroyed: u64,
    lease_expiries: u64,
}

impl CloudStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        CloudStats::default()
    }

    /// Notes a request submission.
    pub fn on_submitted(&mut self) {
        self.submitted += 1;
    }

    /// Notes a completed request.
    pub fn on_completed(&mut self) {
        self.completed += 1;
    }

    /// Notes a VM successfully provisioned.
    pub fn on_vm_provisioned(&mut self) {
        self.vms_provisioned += 1;
    }

    /// Notes a VM destroyed.
    pub fn on_vm_destroyed(&mut self) {
        self.vms_destroyed += 1;
    }

    /// Notes a lease firing.
    pub fn on_lease_expiry(&mut self) {
        self.lease_expiries += 1;
    }

    /// Requests submitted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Requests completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// VMs provisioned.
    pub fn vms_provisioned(&self) -> u64 {
        self.vms_provisioned
    }

    /// VMs destroyed.
    pub fn vms_destroyed(&self) -> u64 {
        self.vms_destroyed
    }

    /// Lease expiries fired.
    pub fn lease_expiries(&self) -> u64 {
        self.lease_expiries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_inventory::EntityId;

    #[test]
    fn request_names() {
        let r = CloudRequest::StartVapp {
            vapp: VappId::from_parts(0, 1),
        };
        assert_eq!(r.name(), "start-vapp");
    }

    #[test]
    fn stats_accumulate() {
        let mut s = CloudStats::new();
        s.on_submitted();
        let report = CloudReport {
            kind: "instantiate-vapp",
            workflow: 1,
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(30),
            latency: SimDuration::from_secs(30),
            ops_issued: 24,
            ops_failed: 0,
            vapp: None,
        };
        assert!(report.is_clean());
        s.on_completed();
        s.on_vm_provisioned();
        assert_eq!(s.submitted(), 1);
        assert_eq!(s.completed(), 1);
        assert_eq!(s.vms_provisioned(), 1);
    }

    #[test]
    fn dirty_report_flags() {
        let report = CloudReport {
            kind: "delete-vapp",
            workflow: 2,
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(1),
            latency: SimDuration::from_secs(1),
            ops_issued: 4,
            ops_failed: 1,
            vapp: None,
        };
        assert!(!report.is_clean());
    }
}
