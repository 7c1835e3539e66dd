//! Control-plane configuration: resource sizes, admission limits, and the
//! control-cost model.

use cpsim_des::{Dist, Sampler};
use cpsim_hostagent::{HeartbeatSpec, HostCostModel};
use serde::{Deserialize, Serialize};

/// Concurrency caps enforced by admission control.
///
/// Defaults follow the published limits of the vCenter-era stack: 8
/// concurrent provisioning operations per host agent, 128 per datastore,
/// and 640 operations in flight at the management server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionLimits {
    /// Maximum operations in flight across the whole plane.
    pub global: u32,
    /// Maximum operations in flight touching one host.
    pub per_host: u32,
    /// Maximum operations in flight touching one datastore.
    pub per_datastore: u32,
}

impl AdmissionLimits {
    /// Effectively-unlimited admission (ablation configuration).
    pub fn unlimited() -> Self {
        AdmissionLimits {
            global: u32::MAX,
            per_host: u32::MAX,
            per_datastore: u32::MAX,
        }
    }
}

impl Default for AdmissionLimits {
    fn default() -> Self {
        AdmissionLimits {
            global: 640,
            per_host: 8,
            per_datastore: 128,
        }
    }
}

/// Service-time distributions (seconds) for control-plane phases.
///
/// Calibrated so that, with the default resource sizes, one linked-clone
/// deployment chain (clone + fencing reconfigure) consumes ~120 ms of
/// management CPU and ~300 ms of database time. With a 4-connection pool
/// that puts the database ceiling at roughly 10 deployments/second — the
/// management plane saturates while the storage arrays sit idle, exactly
/// the regime the paper reports for bandwidth-conserving provisioning.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControlCostModel {
    /// API ingress: session validation, request parsing (CPU).
    pub api_ingress: Dist,
    /// Base placement computation (CPU); see `placement_per_host_us`.
    pub placement_base: Dist,
    /// Additional placement CPU per candidate host, microseconds.
    pub placement_per_host_us: f64,
    /// Task-record insert (DB).
    pub db_task_record: Dist,
    /// Entity insert, e.g. new VM record (DB).
    pub db_insert: Dist,
    /// Entity update (DB).
    pub db_update: Dist,
    /// Entity delete (DB).
    pub db_delete: Dist,
    /// Per-host-primitive result processing (CPU).
    pub result_processing: Dist,
    /// Task finalization: permissions, events, alarms (CPU).
    pub finalize: Dist,
    /// One-time host synchronization during add-host (CPU).
    pub host_sync: Dist,
}

impl Default for ControlCostModel {
    fn default() -> Self {
        let ln = |median: f64, sigma: f64| Dist::log_normal(median, sigma).expect("valid params");
        ControlCostModel {
            api_ingress: ln(0.020, 0.40),
            placement_base: ln(0.010, 0.30),
            placement_per_host_us: 200.0,
            db_task_record: ln(0.020, 0.30),
            db_insert: ln(0.150, 0.35),
            db_update: ln(0.060, 0.35),
            db_delete: ln(0.080, 0.35),
            result_processing: ln(0.012, 0.30),
            finalize: ln(0.015, 0.30),
            host_sync: ln(25.0, 0.30),
        }
    }
}

/// A [`ControlCostModel`]'s distributions prepared for sampling (see
/// [`Dist::sampler`]). The plane builds one at construction and draws
/// every control-phase cost from it.
pub(crate) struct CostSamplers {
    pub api_ingress: Sampler,
    pub placement_base: Sampler,
    pub db_task_record: Sampler,
    pub db_insert: Sampler,
    pub db_update: Sampler,
    pub db_delete: Sampler,
    pub result_processing: Sampler,
    pub finalize: Sampler,
    pub host_sync: Sampler,
}

impl CostSamplers {
    pub(crate) fn new(m: &ControlCostModel) -> Self {
        CostSamplers {
            api_ingress: m.api_ingress.sampler(),
            placement_base: m.placement_base.sampler(),
            db_task_record: m.db_task_record.sampler(),
            db_insert: m.db_insert.sampler(),
            db_update: m.db_update.sampler(),
            db_delete: m.db_delete.sampler(),
            result_processing: m.result_processing.sampler(),
            finalize: m.finalize.sampler(),
            host_sync: m.host_sync.sampler(),
        }
    }
}

/// Full control-plane configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControlPlaneConfig {
    /// Management-server CPU cores available for orchestration work.
    pub cpu_cores: u32,
    /// Inventory-database connection pool size.
    pub db_connections: u32,
    /// Admission limits.
    pub limits: AdmissionLimits,
    /// Control-phase cost model.
    pub cost: ControlCostModel,
    /// Host-primitive cost model.
    pub host_cost: HostCostModel,
    /// Heartbeat cadence and costs.
    pub heartbeat: HeartbeatSpec,
    /// Host-agent concurrency (simultaneous primitives per host).
    pub agent_concurrency: u32,
    /// Initial physical allocation of a linked-clone delta, GiB.
    pub linked_delta_gb: f64,
    /// Metadata bytes moved when creating a linked clone (near-zero data
    /// plane — the paper's "bandwidth-conserving" mechanism).
    pub linked_metadata_bytes: f64,
    /// Initial allocation of a snapshot delta, GiB.
    pub snapshot_delta_gb: f64,
    /// Number of management-server shards; operations are spread across
    /// shards, multiplying CPU and DB capacity (scale-out ablation,
    /// modeled as `shards`× larger resource pools).
    pub shards: u32,
    /// Whether DB writes of one task are batched into fewer, larger
    /// statements (ablation; reduces DB statements per op).
    pub db_batching: bool,
    /// Whether placement prefers datastores where the clone source is
    /// already resident. The era-accurate default is `false`: placement
    /// spreads by free space and linked clones shadow-copy on first use of
    /// a datastore — the behavior that makes proactive template seeding
    /// (cloud reconfiguration) valuable. Set `true` for the
    /// residency-aware placement ablation.
    pub placement_prefers_resident: bool,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            cpu_cores: 4,
            db_connections: 4,
            limits: AdmissionLimits::default(),
            cost: ControlCostModel::default(),
            host_cost: HostCostModel::default(),
            heartbeat: HeartbeatSpec::default(),
            agent_concurrency: 8,
            linked_delta_gb: 1.0,
            linked_metadata_bytes: 16.0 * 1024.0 * 1024.0,
            snapshot_delta_gb: 0.5,
            shards: 1,
            db_batching: false,
            placement_prefers_resident: false,
        }
    }
}

impl ControlPlaneConfig {
    /// Effective CPU servers after scale-out.
    pub fn effective_cores(&self) -> u32 {
        self.cpu_cores.saturating_mul(self.shards.max(1))
    }

    /// Effective DB connections after scale-out.
    pub fn effective_db_connections(&self) -> u32 {
        self.db_connections.saturating_mul(self.shards.max(1))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.cpu_cores == 0 {
            return Err("cpu_cores must be positive".into());
        }
        if self.db_connections == 0 {
            return Err("db_connections must be positive".into());
        }
        if self.agent_concurrency == 0 {
            return Err("agent_concurrency must be positive".into());
        }
        if self.shards == 0 {
            return Err("shards must be positive".into());
        }
        if !(self.linked_delta_gb.is_finite() && self.linked_delta_gb >= 0.0) {
            return Err("linked_delta_gb must be finite and >= 0".into());
        }
        if !(self.linked_metadata_bytes.is_finite() && self.linked_metadata_bytes >= 0.0) {
            return Err("linked_metadata_bytes must be finite and >= 0".into());
        }
        if !(self.snapshot_delta_gb.is_finite() && self.snapshot_delta_gb >= 0.0) {
            return Err("snapshot_delta_gb must be finite and >= 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ControlPlaneConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_caught() {
        let c = ControlPlaneConfig {
            cpu_cores: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ControlPlaneConfig {
            linked_delta_gb: f64::NAN,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ControlPlaneConfig {
            shards: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn scale_out_multiplies_resources() {
        let c = ControlPlaneConfig {
            shards: 4,
            ..Default::default()
        };
        assert_eq!(c.effective_cores(), 16);
        assert_eq!(c.effective_db_connections(), 16);
    }

    #[test]
    fn unlimited_limits() {
        let l = AdmissionLimits::unlimited();
        assert_eq!(l.global, u32::MAX);
    }

    #[test]
    fn serde_round_trip() {
        let c = ControlPlaneConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: ControlPlaneConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn db_insert_dominates_update() {
        let c = ControlCostModel::default();
        assert!(c.db_insert.mean().unwrap() > c.db_update.mean().unwrap());
    }
}
