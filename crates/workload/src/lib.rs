//! Workload generation and characterization for the cpsim experiments.
//!
//! The reproduced paper profiled two real-world self-service clouds; those
//! traces are proprietary, so this crate supplies the substitution
//! documented in `DESIGN.md`: **calibrated synthetic profiles** plus the
//! characterization pipeline that the paper ran over its logs.
//!
//! - [`ArrivalProcess`]: Poisson, diurnally-modulated, and bursty (MMPP)
//!   request arrivals;
//! - [`WorkloadSpec`] / [`RequestTemplate`]: how arrivals materialize into
//!   cloud requests (instantiate / start / stop / recompose / ...) against
//!   the live cloud state;
//! - [`profiles`]: `cloud_a` (training-lab cloud: heavy bursts, short
//!   lifetimes), `cloud_b` (dev/test cloud: steadier churn, longer
//!   lifetimes), and `enterprise` (classic datacenter baseline dominated
//!   by power/migration operations on a static VM population);
//! - [`TraceRecord`] / [`TraceLog`]: JSONL-serializable per-operation
//!   records emitted by the simulator;
//! - [`TraceAnalysis`]: the characterization pass — operation mix, hourly
//!   arrival series, burstiness, latency splits, VM lifetimes;
//! - [`MgmtStack`]: the management stack the single-plane and federated
//!   drivers both embed — plane, director and the routing between them,
//!   feeding the trace above.

pub mod analyze;
pub mod arrival;
pub mod generate;
pub mod profiles;
pub mod replay;
pub mod spec;
pub mod stack;
pub mod trace;

pub use analyze::TraceAnalysis;
pub use arrival::ArrivalProcess;
pub use generate::{GeneratedRequest, RequestGenerator};
pub use profiles::{cloud_a, cloud_b, enterprise, Profile, Topology};
pub use replay::{ReplayEvent, ReplayPlan};
pub use spec::{RequestTemplate, WorkloadSpec};
pub use stack::{install_templates, Forward, MgmtStack, ReportHook, StackEvent};
pub use trace::{Outcome, TraceLog, TraceRecord};
