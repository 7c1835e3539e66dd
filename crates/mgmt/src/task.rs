//! Task records: the lifecycle state and final report of one management
//! operation.

use cpsim_des::{SimDuration, SimTime};
use cpsim_inventory::{DatastoreId, DiskId, HostId, VmId};

use crate::admission::Scope;
use crate::op::{OpKind, Operation};

/// Which plane a phase's time belongs to, for the latency-split analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseClass {
    /// Management-server CPU work.
    Cpu,
    /// Inventory-database service.
    Db,
    /// Host-agent primitive execution.
    HostAgent,
    /// Bulk data movement.
    DataTransfer,
}

impl PhaseClass {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PhaseClass::Cpu => "cpu",
            PhaseClass::Db => "db",
            PhaseClass::HostAgent => "host-agent",
            PhaseClass::DataTransfer => "data-transfer",
        }
    }
}

/// A management operation in flight: the report it fills, next to the
/// state only a running task needs.
#[derive(Clone, Debug)]
pub struct Task {
    /// The operation being executed.
    pub op: OpKind,
    /// Current stage counter of the per-op phase program.
    pub stage: u32,
    /// Admission scope currently held (empty until acquired). Boxed: a
    /// parked task holds none, and an inline `Scope` would add 80 bytes
    /// to each of the tens of thousands of tasks an overloaded plane
    /// parks.
    pub scope: Option<Box<Scope>>,
    /// When the task was parked by admission control, if waiting.
    pub parked_at: Option<SimTime>,
    /// Scratch: disk being produced by a copy in flight.
    pub work_disk: Option<DiskId>,
    /// Whether a linked clone had to make a shadow copy first.
    pub shadow_copy: bool,
    /// When the current data transfer started (for data-plane accounting).
    pub transfer_started: Option<SimTime>,
    /// The in-flight host-agent primitive was injected to hang; its
    /// completion at the phase timeout must be treated as a failure.
    pub pending_timeout: bool,
    /// The report, filled as the task runs. Its completion time, latency
    /// and error are set when the task finishes.
    pub report: TaskReport,
}

impl Task {
    /// Creates a fresh task for `op` submitted at `now`.
    pub fn new(op: Operation, now: SimTime) -> Self {
        let target_vm = match op.kind {
            OpKind::PowerOn { vm }
            | OpKind::PowerOff { vm }
            | OpKind::Reconfigure { vm }
            | OpKind::Snapshot { vm }
            | OpKind::RemoveSnapshot { vm }
            | OpKind::DestroyVm { vm }
            | OpKind::MigrateVm { vm }
            | OpKind::RelocateVm { vm, .. }
            | OpKind::CloneVm { source: vm, .. } => Some(vm),
            _ => None,
        };
        Task {
            stage: 0,
            scope: None,
            parked_at: None,
            work_disk: None,
            shadow_copy: false,
            transfer_started: None,
            pending_timeout: false,
            report: TaskReport {
                kind: op.kind.name(),
                tag: op.tag,
                submitted_at: now,
                completed_at: now,
                latency: SimDuration::ZERO,
                cpu_secs: 0.0,
                db_secs: 0.0,
                agent_secs: 0.0,
                data_secs: 0.0,
                queue_secs: 0.0,
                admission_secs: 0.0,
                produced_vm: None,
                target_vm,
                placement: None,
                error: None,
                retries: 0,
                aborted: false,
                rolled_back: false,
                breakdown: Vec::new(),
            },
            op: op.kind,
        }
    }

    /// Records `secs` of service under `class`/`label`.
    pub fn charge(&mut self, class: PhaseClass, label: &'static str, secs: f64) {
        let r = &mut self.report;
        match class {
            PhaseClass::Cpu => r.cpu_secs += secs,
            PhaseClass::Db => r.db_secs += secs,
            PhaseClass::HostAgent => r.agent_secs += secs,
            PhaseClass::DataTransfer => r.data_secs += secs,
        }
        r.breakdown.push((class, label, secs));
    }
}

/// Final report of a completed (or failed) task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskReport {
    /// Operation name (`OpKind::name`).
    pub kind: &'static str,
    /// Submitter's correlation tag.
    pub tag: u64,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Management CPU seconds.
    pub cpu_secs: f64,
    /// Database seconds.
    pub db_secs: f64,
    /// Host-agent seconds.
    pub agent_secs: f64,
    /// Data-transfer wall seconds.
    pub data_secs: f64,
    /// Resource-queue wait seconds.
    pub queue_secs: f64,
    /// Admission-wait seconds.
    pub admission_secs: f64,
    /// VM produced, if any.
    pub produced_vm: Option<VmId>,
    /// VM targeted, if any.
    pub target_vm: Option<VmId>,
    /// Placement chosen, if any.
    pub placement: Option<(HostId, DatastoreId)>,
    /// Error message if the task failed.
    pub error: Option<String>,
    /// Times a failed phase was retried before the task finished.
    pub retries: u32,
    /// The task failed by exhausting its retry budget.
    pub aborted: bool,
    /// Partial state was rolled back when the task failed.
    pub rolled_back: bool,
    /// Per-(class, label) breakdown.
    pub breakdown: Vec<(PhaseClass, &'static str, f64)>,
}

impl TaskReport {
    /// Whether the task succeeded.
    pub fn is_success(&self) -> bool {
        self.error.is_none()
    }

    /// Control-plane seconds: CPU + DB + host-agent service.
    ///
    /// Host-agent time counts as control plane because it is serialized
    /// orchestration work, not bulk data movement — the split the paper's
    /// analysis uses.
    pub fn control_secs(&self) -> f64 {
        self.cpu_secs + self.db_secs + self.agent_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_inventory::{EntityId, VmSpec};

    #[test]
    fn charge_accumulates_by_class() {
        let op = Operation::new(OpKind::CreateVm {
            spec: VmSpec::new(1, 1024, 10.0),
        });
        let mut t = Task::new(op, SimTime::ZERO);
        t.charge(PhaseClass::Cpu, "api-ingress", 0.02);
        t.charge(PhaseClass::Db, "insert", 0.06);
        t.charge(PhaseClass::HostAgent, "power-on", 2.8);
        t.charge(PhaseClass::DataTransfer, "copy", 100.0);
        let r = &t.report;
        assert_eq!(r.cpu_secs, 0.02);
        assert_eq!(r.db_secs, 0.06);
        assert_eq!(r.agent_secs, 2.8);
        assert_eq!(r.data_secs, 100.0);
        assert!((r.control_secs() - 2.88).abs() < 1e-12);
        assert_eq!(r.breakdown.len(), 4);
    }

    #[test]
    fn phase_class_names() {
        assert_eq!(PhaseClass::Cpu.name(), "cpu");
        assert_eq!(PhaseClass::DataTransfer.name(), "data-transfer");
    }

    #[test]
    fn report_success_flag() {
        let vm = VmId::from_parts(0, 1);
        let r = TaskReport {
            kind: "power-on",
            tag: 0,
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(3),
            latency: SimDuration::from_secs(3),
            cpu_secs: 0.1,
            db_secs: 0.2,
            agent_secs: 2.0,
            data_secs: 0.0,
            queue_secs: 0.0,
            admission_secs: 0.0,
            produced_vm: Some(vm),
            target_vm: None,
            placement: None,
            error: None,
            retries: 0,
            aborted: false,
            rolled_back: false,
            breakdown: Vec::new(),
        };
        assert!(r.is_success());
        assert!((r.control_secs() - 2.3).abs() < 1e-12);
    }
}
