//! # cpsim — a management control-plane simulator for virtualized clouds
//!
//! `cpsim` reproduces the system studied in *"Revisiting the management
//! control plane in virtualized cloud computing infrastructure"*
//! (Soundararajan & Spracklen, IISWC 2013): a centralized management
//! server orchestrating a virtualized datacenter underneath a self-service
//! cloud, with a workload generator calibrated to the two production
//! clouds the paper profiled.
//!
//! The headline phenomenon the simulator reproduces: with
//! bandwidth-conserving provisioning (linked clones), the bytes-heavy data
//! plane almost vanishes from the provisioning path, and the **management
//! control plane** — management-server CPU, the inventory database,
//! admission limits, host agents — becomes the factor that limits cloud
//! deployment rates.
//!
//! ## Layering
//!
//! ```text
//!   cpsim (this crate)         Scenario builder, CloudSim driver, experiments
//!   ├─ cpsim-workload          arrivals, op mixes, profiles, traces, analysis,
//!   │                          the management stack every driver runs
//!   ├─ cpsim-cloud             orgs/vApps/leases, request → op-DAG translation
//!   ├─ cpsim-mgmt              the control plane: orchestration, DB, admission
//!   ├─ cpsim-hostagent         per-host agents, heartbeats
//!   ├─ cpsim-storage           VMDK chains, linked clones, copy engine
//!   ├─ cpsim-inventory         hosts / VMs / datastores, capacity accounting
//!   ├─ cpsim-metrics           histograms, summaries, tables
//!   └─ cpsim-des               deterministic event kernel
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use cpsim::{CloudSim, Scenario};
//! use cpsim_des::{SimDuration, SimTime};
//! use cpsim_workload::cloud_a;
//!
//! // Simulate 6 hours of the "Cloud A" profile.
//! let mut sim: CloudSim = Scenario::from_profile(&cloud_a()).seed(42).build();
//! sim.run_until(SimTime::from_hours(6));
//!
//! let analysis = sim.analyze_trace();
//! assert!(analysis.total_ops > 0);
//! // Self-service clouds are provisioning-dominated.
//! assert!(analysis.provisioning_fraction() > 0.2);
//! ```

pub mod driver;
pub mod exec;
pub mod experiments;
pub mod scenario;

pub use driver::{CloudSim, CoreEvent};
pub use scenario::Scenario;

// Re-export the workspace layers under stable names so downstream users
// need only depend on `cpsim`.
pub use cpsim_cloud as cloud;
pub use cpsim_des as des;
pub use cpsim_faults as faults;
pub use cpsim_hostagent as hostagent;
pub use cpsim_inventory as inventory;
pub use cpsim_metrics as metrics;
pub use cpsim_mgmt as mgmt;
pub use cpsim_storage as storage;
pub use cpsim_workload as workload;
