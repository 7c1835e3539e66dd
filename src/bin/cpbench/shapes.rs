// cpsim-lint: profile(harness): benchmark harness; copies of the experiments' starting topologies
//! The starting topologies the experiments build.
//!
//! The experiment modules keep these private, so they are copied here
//! for the set-up measurement and the traced probes. A change to an
//! experiment's topology must be copied here in a benchmark change.

use cpsim::cloud::{FailurePolicy, ProvisioningPolicy};
use cpsim::des::SimDuration;
use cpsim::faults::{FaultKind, FaultPlan};
use cpsim::mgmt::{AdmissionLimits, CloneMode, ControlPlaneConfig};
use cpsim::workload::Topology;
use cpsim_federation::FedTopology;

fn topology(
    template: &str,
    hosts: u32,
    host_mem_mb: u64,
    datastores: u32,
    ds_capacity_gb: f64,
) -> Topology {
    Topology {
        hosts,
        host_cpu_mhz: 48_000,
        host_mem_mb,
        datastores,
        ds_capacity_gb,
        ds_bandwidth_mbps: 200.0,
        templates: vec![(template.into(), 2, 2_048, 20.0)],
        seed_templates_everywhere: true,
        initial_vapps: 0,
        initial_vapp_size: 0,
    }
}

/// The load experiments' rack (f4, f5, f7, f9, f10, f12, t3).
pub fn load_topology() -> Topology {
    topology("load-template", 16, 524_288, 8, 16_384.0)
}

/// Linked clones with fencing and no power-on (f4, f5, f9, f10, f12, t3).
pub fn load_policy() -> ProvisioningPolicy {
    ProvisioningPolicy {
        mode: CloneMode::Linked,
        fencing: true,
        power_on: false,
        ..Default::default()
    }
}

/// The load policy with re-place-and-retry on failure (f12, t3).
pub fn retry_policy() -> ProvisioningPolicy {
    ProvisioningPolicy {
        on_failure: FailurePolicy::Retry { max_attempts: 3 },
        ..load_policy()
    }
}

/// The low-load probe rack of f3 and t2.
pub fn probe_topology() -> Topology {
    let mut t = topology("probe-template", 4, 262_144, 4, 4_096.0);
    t.templates[0].2 = 4_096;
    t
}

/// f7's admission-limit variants.
pub fn f7_configs() -> [ControlPlaneConfig; 4] {
    let limits = [
        AdmissionLimits::default(),
        AdmissionLimits {
            per_host: 32,
            ..AdmissionLimits::default()
        },
        AdmissionLimits {
            per_datastore: 2,
            ..AdmissionLimits::default()
        },
        AdmissionLimits::unlimited(),
    ];
    limits.map(|limits| ControlPlaneConfig {
        limits,
        ..Default::default()
    })
}

/// f8's reconfiguration rack: the template starts on one datastore.
pub fn reconfig_topology(datastores: u32) -> Topology {
    let mut t = topology("gold-template", 8, 524_288, datastores, 8_192.0);
    t.seed_templates_everywhere = false;
    t
}

/// f11's idle cloud of `hosts` hosts.
pub fn heartbeat_topology(hosts: u32) -> Topology {
    topology("probe", hosts, 262_144, 4, 8_192.0)
}

/// f12's crash storm at `rate_per_hour` over `horizon`.
pub fn crash_plan(rate_per_hour: f64, horizon: SimDuration) -> FaultPlan {
    FaultPlan::host_crashes(rate_per_hour, SimDuration::from_mins(4), horizon)
        .with_agent_timeout_prob((rate_per_hour * 0.003).min(0.25))
}

/// t3's mixed fault plan over `horizon`.
pub fn mixed_plan(horizon: SimDuration) -> FaultPlan {
    FaultPlan::new(horizon)
        .with_process(
            6.0,
            FaultKind::HostCrash {
                host: 0,
                down_for: SimDuration::from_mins(4),
            },
        )
        .with_process(
            2.0,
            FaultKind::DatastoreOutage {
                ds: 0,
                duration: SimDuration::from_mins(3),
            },
        )
        .with_process(
            2.0,
            FaultKind::DbDegraded {
                factor: 3.0,
                duration: SimDuration::from_mins(5),
            },
        )
        .with_process(
            3.0,
            FaultKind::HeartbeatDrops {
                host: 0,
                duration: SimDuration::from_mins(2),
            },
        )
        .with_agent_timeout_prob(0.03)
}

fn fed_topology(
    shards: usize,
    hosts: u32,
    datastores: u32,
    home_ds_capacity_gb: f64,
) -> FedTopology {
    FedTopology {
        shards,
        home_hosts_per_shard: hosts,
        home_ds_per_shard: datastores,
        home_ds_capacity_gb,
        shared_hosts: 2,
        shared_ds: 1,
        shared_ds_capacity_gb: 16_384.0,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("fed-template".into(), 2, 2_048, 20.0)],
        initial_vms_per_shard: Vec::new(),
        initial_vm_disk_gb: 4.0,
    }
}

/// f10's per-shard rack slice.
pub fn scaleout_topology(shards: usize) -> FedTopology {
    fed_topology(shards, 8, 4, 16_384.0)
}

/// f10's federated plane configuration.
pub fn scaleout_config() -> ControlPlaneConfig {
    let mut config = ControlPlaneConfig::default();
    config.limits.per_host = 32;
    config
}

/// f13's contended topology: constant inventory, a small shared pool.
pub fn contended_topology(shards: usize, pool_free_gb: f64) -> FedTopology {
    let per = (8 / shards).max(1) as u32;
    FedTopology {
        shared_hosts: 4,
        shared_ds: 2,
        shared_ds_capacity_gb: pool_free_gb / 2.0 + 20.0 * shards as f64,
        ..fed_topology(shards, per, per, 24.0)
    }
}

/// f13's shard configuration: coarse clone deltas.
pub fn contended_config() -> ControlPlaneConfig {
    ControlPlaneConfig {
        linked_delta_gb: 4.0,
        ..Default::default()
    }
}

/// f13's dense bounded backoff.
pub fn contended_recovery() -> cpsim::faults::RecoveryPolicy {
    cpsim::faults::RecoveryPolicy {
        max_retries: 6,
        backoff_base: SimDuration::from_secs(3),
        backoff_factor: 1.5,
        backoff_max: SimDuration::from_secs(10),
        ..Default::default()
    }
}

/// f14's roomy four-shard topology with `skew` of the 48 initial VMs
/// concentrated on shard 0.
pub fn rebalance_topology(skew: f64) -> FedTopology {
    const SHARDS: u32 = 4;
    const BALANCED: u32 = 12;
    const TOTAL: u32 = BALANCED * SHARDS;
    let extra = (skew * f64::from(TOTAL - BALANCED)).round() as u32;
    let shard0 = BALANCED + extra.min(TOTAL - BALANCED);
    let rest = TOTAL - shard0;
    let peers = SHARDS - 1;
    let mut initial = vec![shard0];
    initial.extend((1..SHARDS).map(|s| rest / peers + u32::from(s - 1 < rest % peers)));
    FedTopology {
        shared_ds_capacity_gb: 512.0,
        initial_vms_per_shard: initial,
        ..fed_topology(SHARDS as usize, 4, 2, 512.0)
    }
}
