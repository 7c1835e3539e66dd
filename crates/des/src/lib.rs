//! Deterministic discrete-event simulation kernel.
//!
//! `cpsim-des` provides the small set of primitives the rest of the
//! workspace builds on:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution virtual time;
//! - [`EventQueue`] and [`Simulation`]: a binary-heap event set and the
//!   loop that drains it in `(time, seq)` order, a deterministic
//!   tie-break, so a fixed seed always yields the same run;
//! - [`rng`]: reproducible, independently-seeded random streams derived from
//!   one master seed;
//! - [`Dist`]: a serializable distribution vocabulary used by workload and
//!   cost models;
//! - [`dispatch_pos`]: where this thread's kernel stands in `(time, seq)`
//!   order, for models that replay periodic work instead of scheduling it;
//! - [`resource`]: queueing building blocks — a multi-server FIFO queue, an
//!   FCFS station that times work by per-server clocks instead of
//!   completion events, a counting slot pool for admission limits, and a
//!   processor-sharing shared-bandwidth engine for bulk data transfers.
//!
//! # Example
//!
//! ```
//! use cpsim_des::{EventQueue, Model, SimDuration, SimTime, Simulation};
//!
//! struct Ping {
//!     remaining: u32,
//!     fired_at: Vec<SimTime>,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl Model for Ping {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, queue: &mut EventQueue<Ev>) {
//!         self.fired_at.push(now);
//!         if self.remaining > 0 {
//!             self.remaining -= 1;
//!             queue.schedule(now + SimDuration::from_secs(1), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping { remaining: 2, fired_at: Vec::new() });
//! sim.schedule(SimTime::ZERO, Ev::Tick);
//! sim.run_to_completion();
//! assert_eq!(sim.model().fired_at.len(), 3);
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! ```

pub mod dispatch;
pub mod dist;
pub mod engine;
pub mod hash;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod time;

pub use dispatch::{dispatch_pos, DispatchPos};
pub use dist::{Dist, DistError, Sampler};
pub use engine::{global_events_processed, Model, RunOutcome, Simulation, MAX_EVENT_BYTES};
pub use hash::{FastMap, FastSet, FxHasher};
pub use queue::EventQueue;
pub use resource::bandwidth::{SharedBandwidth, TransferDone, TransferPlan};
pub use resource::fifo::FifoQueue;
pub use resource::slots::SlotPool;
pub use resource::station::{Arrival, FcfsStation};
pub use resource::timeweighted::TimeWeighted;
pub use rng::{derive_seed, SimRng, Streams};
pub use time::{SimDuration, SimTime};
