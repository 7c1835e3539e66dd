//! The management control plane — the subject of the reproduced paper.
//!
//! [`ControlPlane`] models a centralized management server (vCenter-style)
//! orchestrating a fleet of hosts and datastores:
//!
//! - every management [`Operation`] runs as a *phase program* that
//!   alternates between management-server CPU work, inventory-database
//!   statements, host-agent primitives, and bulk data transfers. Each
//!   operation kind (and clone mode) declares its program as a list of
//!   stages (cost draws, agent primitives, the VM lock, and named
//!   actions for its inventory and storage work), run by one
//!   interpreter after a shared ingress/task-record prelude;
//! - CPU and DB are bounded multi-server queues, host agents have per-host
//!   concurrency caps, and datastores share copy bandwidth — so saturation
//!   emerges from the same resources that bound the real system;
//! - admission control enforces global / per-host / per-datastore
//!   concurrency limits and per-VM operation locks, parking excess tasks in
//!   a FIFO pending queue;
//! - host heartbeats impose background CPU + DB load that scales with
//!   inventory size. Without fault injection the plane keeps the beats off
//!   the event queue and replays them in kernel order (see
//!   [`ControlPlane::init_events`]).
//!
//! The plane is a deterministic state machine: callers feed it
//! [`MgmtEvent`]s with explicit timestamps and route the returned
//! [`Emit`]s — either follow-up events to schedule or task completions.
//! The `cpsim` facade crate wires it onto the DES kernel.
//!
//! # Example: one linked clone, end to end
//!
//! ```
//! use cpsim_des::{SimTime, Streams};
//! use cpsim_inventory::{DatastoreSpec, HostSpec, VmSpec};
//! use cpsim_mgmt::{CloneMode, ControlPlane, ControlPlaneConfig, Emit, MgmtEvent, OpKind};
//!
//! let mut plane = ControlPlane::new(ControlPlaneConfig::default(), Streams::new(7));
//! let ds = plane.add_datastore(DatastoreSpec::new("ds0", 4096.0, 200.0));
//! let host = plane.add_host(HostSpec::new("esx0", 24_000, 131_072));
//! plane.connect(host, ds).unwrap();
//! let template = plane
//!     .install_template("tmpl", VmSpec::new(2, 4096, 40.0), host, ds)
//!     .unwrap();
//!
//! // Drive to completion by hand (the cpsim crate does this on the DES).
//! let mut pending: Vec<Emit> = Vec::new();
//! plane.submit(
//!     SimTime::ZERO,
//!     OpKind::CloneVm { source: template, mode: CloneMode::Linked },
//!     &mut pending,
//! );
//! let mut done = 0;
//! while let Some(emit) = pending.pop() {
//!     match emit {
//!         Emit::At(t, ev) => pending.extend(plane.handle_collect(t, ev)),
//!         Emit::Done(_, report) => {
//!             done += 1;
//!             assert!(report.latency.as_secs_f64() > 0.0);
//!         }
//!         Emit::Failed(_, r) => panic!("unexpected failure: {:?}", r.error),
//!     }
//! }
//! assert_eq!(done, 1);
//! assert_eq!(plane.inventory().counts().vms, 2); // template + clone
//! ```

pub mod admission;
mod beats;
pub mod config;
pub mod gate;
pub mod op;
pub mod placement;
pub mod plane;
pub mod recovery;
pub mod stats;
pub mod task;

pub use admission::{AdmissionControl, Scope};
pub use config::{AdmissionLimits, ControlCostModel, ControlPlaneConfig};
pub use cpsim_faults::{FaultKind, RecoveryPolicy};
pub use gate::{GateDecision, PlacementGate};
pub use op::{AddHostParams, CloneMode, OpKind, Operation};
pub use placement::{PlacementPolicy, Placer};
pub use plane::{ControlPlane, Emit, MgmtEvent};
pub use recovery::FaultInjector;
pub use stats::MgmtStats;
pub use task::{PhaseClass, Task, TaskReport};
