//! # cpsim-federation
//!
//! Federated management for cpsim: N independent control-plane shards,
//! each owning a partition of the inventory, coordinating through a
//! deterministic shared **placement store** — the authoritative ledger of
//! commitments against the spillover pool of hosts and datastores that
//! every shard can place onto.
//!
//! The design models the scale-out story of the paper's management-plane
//! study: one control plane saturates on CPU/DB contention long before
//! the managed capacity runs out, so real deployments shard the
//! inventory across planes. Sharding is easy until two planes want the
//! same spare capacity; then the coordination mechanism — how fresh each
//! plane's view is, and what a plane does when it loses a race — sets
//! the achievable goodput.
//!
//! ## Architecture
//!
//! - [`PlacementStore`]: the shared ledger, and the one owner of every
//!   shared-pool reservation. Shards commit capacity claims
//!   synchronously (commit-time conflict detection), keyed by task; a
//!   finished task's claim is settled onto the VM it produced, which
//!   holds it until destroyed. Shards *read* the ledger through a mirror
//!   refreshed only every staleness window, so placement decisions run
//!   against a stale view and can collide.
//! - [`StoreGate`]: the per-shard `(shard, store)` handle installed into
//!   the control plane. Home placements commit trivially; shared-pool
//!   placements either commit or come back as a retryable conflict,
//!   handled by the plane's existing fault-recovery machinery (bounded
//!   backoff, then abort + rollback).
//! - [`FedScenario`] / [`FedSim`]: builder and driver. One event kernel
//!   per shard, stepped in one global `(time, shard, seq)` order,
//!   periodic [`StoreSync`](ShardEvent::StoreSync) ticks that charge
//!   CPU/DB time for each refresh, and a two-phase cross-shard migration
//!   protocol (evacuate → handoff → admit) run by a coordinator
//!   pseudo-shard.
//! - [`Router`]: deterministic front-door policies (hash, least-loaded,
//!   locality) for spreading requests over shards.
//!
//! A federation with a single shard installs no gate, no sync ticks and
//! no fault machinery: it is op-for-op identical to the single-plane
//! model, which the integration tests assert trace-for-trace.

pub mod driver;
pub mod gate;
pub mod router;
pub mod scenario;
pub mod store;

pub use driver::{FedSim, MigrationReport, ShardEvent, MIG_TAG_BASE};
pub use gate::StoreGate;
pub use router::{Router, RouterPolicy};
pub use scenario::{FedScenario, FedTopology};
pub use store::{PlacementStore, StoreStats};
