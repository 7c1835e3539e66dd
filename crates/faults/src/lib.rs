//! Deterministic fault-injection plans for the control plane.
//!
//! The paper's management stack ran against real datacenters where hosts
//! crash, agents hang, the inventory database slows down under pressure,
//! and datastores drop offline. This crate describes those disturbances as
//! **typed, seed-reproducible schedules** that the simulator replays:
//!
//! - a [`FaultPlan`] combines *fixed events* (a specific fault at a
//!   specific time) with *rate-driven processes* (Poisson streams of a
//!   fault template over the plan horizon);
//! - [`FaultPlan::materialize`] expands the processes into concrete
//!   [`FaultEvent`]s using the workspace's dedicated fault RNG stream
//!   ([`Streams::FAULTS`]), so the same master seed always produces the
//!   same fault timeline — and faults never perturb the draws of any other
//!   stochastic component;
//! - a [`RecoveryPolicy`] describes how the management plane reacts:
//!   per-phase timeouts, bounded retries with exponential backoff and
//!   deterministic jitter, and heartbeat-miss host-down detection.
//!
//! An empty plan injects nothing and draws nothing: simulations built with
//! [`FaultPlan::empty`] are bit-identical to simulations built without a
//! plan at all.

use cpsim_des::{SimDuration, SimRng, SimTime, Streams};
use rand::Rng;

/// One kind of injected fault (or its paired recovery).
///
/// Hosts and datastores are addressed by **creation index** (the order the
/// scenario created them), not by entity id: plans are written before the
/// topology is materialized. The control plane resolves indices modulo the
/// live entity count, so a plan is portable across topology sizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The host dies: its agent queue is lost, in-flight primitives are
    /// interrupted, and heartbeats stop until recovery.
    HostCrash {
        /// Host creation index.
        host: usize,
        /// How long the host stays down.
        down_for: SimDuration,
    },
    /// The host comes back (scheduled internally by the plane when it
    /// processes the matching [`FaultKind::HostCrash`]).
    HostRecover {
        /// Host creation index.
        host: usize,
    },
    /// All host agents run slow: sampled primitive service times are
    /// multiplied by `factor` while the window is active.
    AgentSlowdown {
        /// Service-time multiplier (> 1 slows agents down).
        factor: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// Ends one matching [`FaultKind::AgentSlowdown`] window (internal).
    AgentSpeedRestore {
        /// The factor of the window being closed.
        factor: f64,
    },
    /// Degraded database service: statement service times are multiplied
    /// by `factor` while the window is active (a stalled or overloaded
    /// inventory DB).
    DbDegraded {
        /// Service-time multiplier (> 1 slows the DB down).
        factor: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// Ends one matching [`FaultKind::DbDegraded`] window (internal).
    DbRestore {
        /// The factor of the window being closed.
        factor: f64,
    },
    /// The datastore rejects new work (provisioning phases that would
    /// touch it fail and are retried) for the window.
    DatastoreOutage {
        /// Datastore creation index.
        ds: usize,
        /// Outage length.
        duration: SimDuration,
    },
    /// Ends a [`FaultKind::DatastoreOutage`] (internal).
    DatastoreRestore {
        /// Datastore creation index.
        ds: usize,
    },
    /// The host is up but its heartbeats are lost (a management-network
    /// partition): the plane may falsely declare the host down.
    HeartbeatDrops {
        /// Host creation index.
        host: usize,
        /// Window length.
        duration: SimDuration,
    },
    /// Ends a [`FaultKind::HeartbeatDrops`] window (internal).
    HeartbeatRestore {
        /// Host creation index.
        host: usize,
    },
}

impl FaultKind {
    /// Short stable name, for counters and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::HostCrash { .. } => "host-crash",
            FaultKind::HostRecover { .. } => "host-recover",
            FaultKind::AgentSlowdown { .. } => "agent-slowdown",
            FaultKind::AgentSpeedRestore { .. } => "agent-speed-restore",
            FaultKind::DbDegraded { .. } => "db-degraded",
            FaultKind::DbRestore { .. } => "db-restore",
            FaultKind::DatastoreOutage { .. } => "datastore-outage",
            FaultKind::DatastoreRestore { .. } => "datastore-restore",
            FaultKind::HeartbeatDrops { .. } => "heartbeat-drops",
            FaultKind::HeartbeatRestore { .. } => "heartbeat-restore",
        }
    }

    /// The window this kind opens, as the delay until its close and the
    /// closing event (`HostCrash { host, down_for }` closes with
    /// `HostRecover { host }` after `down_for`). `None` for a closing kind.
    pub fn closing(&self) -> Option<(SimDuration, FaultKind)> {
        match *self {
            FaultKind::HostCrash { host, down_for } => {
                Some((down_for, FaultKind::HostRecover { host }))
            }
            FaultKind::AgentSlowdown { factor, duration } => {
                Some((duration, FaultKind::AgentSpeedRestore { factor }))
            }
            FaultKind::DbDegraded { factor, duration } => {
                Some((duration, FaultKind::DbRestore { factor }))
            }
            FaultKind::DatastoreOutage { ds, duration } => {
                Some((duration, FaultKind::DatastoreRestore { ds }))
            }
            FaultKind::HeartbeatDrops { host, duration } => {
                Some((duration, FaultKind::HeartbeatRestore { host }))
            }
            _ => None,
        }
    }
}

/// A concrete fault scheduled at a point in simulated time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A Poisson stream of one fault template over the plan horizon.
///
/// Host-targeted templates rotate their target: the `i`-th arrival hits
/// creation index `host + i`, spreading a crash storm across the fleet
/// instead of hammering one machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProcess {
    /// Mean arrivals per simulated hour.
    pub rate_per_hour: f64,
    /// The fault injected at each arrival.
    pub template: FaultKind,
}

/// How the control plane recovers from injected faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// How long the plane waits on an unresponsive host-agent primitive
    /// before declaring a phase timeout.
    pub agent_timeout: SimDuration,
    /// Retry budget per task: after this many retries the task aborts and
    /// rolls back.
    pub max_retries: u32,
    /// First retry backoff.
    pub backoff_base: SimDuration,
    /// Multiplier applied per additional retry.
    pub backoff_factor: f64,
    /// Backoff ceiling (before jitter).
    pub backoff_max: SimDuration,
    /// Uniform jitter added on top of the backoff, as a fraction of it
    /// (drawn from the deterministic fault RNG stream).
    pub jitter_frac: f64,
    /// Consecutive heartbeat misses before the plane declares a host down
    /// and starts an inventory resync.
    pub heartbeat_miss_threshold: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            agent_timeout: SimDuration::from_secs(120),
            max_retries: 3,
            backoff_base: SimDuration::from_secs(2),
            backoff_factor: 2.0,
            backoff_max: SimDuration::from_secs(60),
            jitter_frac: 0.1,
            heartbeat_miss_threshold: 3,
        }
    }
}

impl RecoveryPolicy {
    /// The backoff before retry number `attempt` (1-based): exponential
    /// growth capped at [`backoff_max`](Self::backoff_max), plus
    /// deterministic jitter drawn from `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let n = attempt.max(1) - 1;
        let raw = self.backoff_base.as_secs_f64() * self.backoff_factor.powi(n as i32);
        let capped = raw.min(self.backoff_max.as_secs_f64());
        let jitter = if self.jitter_frac > 0.0 {
            capped * self.jitter_frac * rng.gen::<f64>()
        } else {
            0.0
        };
        SimDuration::from_secs_f64(capped + jitter)
    }
}

/// A complete, reproducible fault schedule plus the recovery policy the
/// plane should apply.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Horizon over which rate-driven processes are materialized.
    pub horizon: SimDuration,
    /// Fixed events (injected verbatim).
    pub events: Vec<FaultEvent>,
    /// Rate-driven processes (expanded by [`materialize`](Self::materialize)).
    pub processes: Vec<FaultProcess>,
    /// Probability that any one host-agent primitive hangs until the
    /// phase timeout (drawn per submission from the fault RNG stream).
    pub agent_timeout_prob: f64,
    /// Recovery behavior.
    pub recovery: RecoveryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::empty()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (and draws nothing): bit-identical to
    /// running without a plan.
    pub fn empty() -> Self {
        FaultPlan {
            horizon: SimDuration::ZERO,
            events: Vec::new(),
            processes: Vec::new(),
            agent_timeout_prob: 0.0,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// An empty plan with a materialization horizon.
    pub fn new(horizon: SimDuration) -> Self {
        FaultPlan {
            horizon,
            ..FaultPlan::empty()
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.processes.is_empty() && self.agent_timeout_prob == 0.0
    }

    /// Adds a fixed event.
    pub fn with_event(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Adds a rate-driven process.
    pub fn with_process(mut self, rate_per_hour: f64, template: FaultKind) -> Self {
        self.processes.push(FaultProcess {
            rate_per_hour,
            template,
        });
        self
    }

    /// Sets the per-primitive agent hang probability.
    pub fn with_agent_timeout_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.agent_timeout_prob = p;
        self
    }

    /// Replaces the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Convenience: a host-crash storm at `rate_per_hour` (each crash
    /// keeps its host down for `down_for`, targets rotate across hosts)
    /// over `horizon`.
    pub fn host_crashes(rate_per_hour: f64, down_for: SimDuration, horizon: SimDuration) -> Self {
        FaultPlan::new(horizon)
            .with_process(rate_per_hour, FaultKind::HostCrash { host: 0, down_for })
    }

    /// Expands the plan into a concrete, time-sorted event list.
    ///
    /// Each process draws its Poisson arrivals from its own substream of
    /// the [`Streams::FAULTS`] family, so plans compose: adding a process
    /// never changes the timeline of the others, and the same `streams`
    /// always yields the same schedule. Empty plans draw nothing.
    pub fn materialize(&self, streams: &Streams) -> Vec<FaultEvent> {
        let mut out: Vec<FaultEvent> = self.events.clone();
        for (pi, proc_) in self.processes.iter().enumerate() {
            if proc_.rate_per_hour <= 0.0 || self.horizon.is_zero() {
                continue;
            }
            let mut rng = streams.rng(Streams::FAULTS + pi as u64);
            let rate_per_sec = proc_.rate_per_hour / 3_600.0;
            let mut t = 0.0_f64;
            let end = self.horizon.as_secs_f64();
            let mut arrival = 0usize;
            loop {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / rate_per_sec;
                if t >= end {
                    break;
                }
                out.push(FaultEvent {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(t),
                    kind: rotate_target(proc_.template, arrival),
                });
                arrival += 1;
            }
        }
        out.sort_by_key(|e| e.at);
        out
    }
}

/// Rotates host-targeted templates across arrivals so a storm spreads
/// over the fleet.
fn rotate_target(template: FaultKind, arrival: usize) -> FaultKind {
    match template {
        FaultKind::HostCrash { host, down_for } => FaultKind::HostCrash {
            host: host + arrival,
            down_for,
        },
        FaultKind::HeartbeatDrops { host, duration } => FaultKind::HeartbeatDrops {
            host: host + arrival,
            duration,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_materializes_to_nothing() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert!(plan.materialize(&Streams::new(7)).is_empty());
    }

    #[test]
    fn materialization_is_seed_deterministic() {
        let plan =
            FaultPlan::host_crashes(4.0, SimDuration::from_mins(10), SimDuration::from_hours(6))
                .with_process(
                    2.0,
                    FaultKind::DbDegraded {
                        factor: 3.0,
                        duration: SimDuration::from_mins(5),
                    },
                );
        let a = plan.materialize(&Streams::new(42));
        let b = plan.materialize(&Streams::new(42));
        let c = plan.materialize(&Streams::new(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        assert!(a.iter().all(|e| e.at < SimTime::ZERO + plan.horizon));
    }

    #[test]
    fn adding_a_process_does_not_shift_existing_ones() {
        let base =
            FaultPlan::host_crashes(3.0, SimDuration::from_mins(10), SimDuration::from_hours(4));
        let extended = base.clone().with_process(
            5.0,
            FaultKind::AgentSlowdown {
                factor: 2.0,
                duration: SimDuration::from_mins(2),
            },
        );
        let streams = Streams::new(9);
        let crashes_alone: Vec<FaultEvent> = base.materialize(&streams);
        let crashes_in_extended: Vec<FaultEvent> = extended
            .materialize(&streams)
            .into_iter()
            .filter(|e| matches!(e.kind, FaultKind::HostCrash { .. }))
            .collect();
        assert_eq!(crashes_alone, crashes_in_extended);
    }

    #[test]
    fn crash_storm_rotates_hosts() {
        let plan =
            FaultPlan::host_crashes(30.0, SimDuration::from_mins(5), SimDuration::from_hours(2));
        let events = plan.materialize(&Streams::new(1));
        let hosts: Vec<usize> = events
            .iter()
            .map(|e| match e.kind {
                FaultKind::HostCrash { host, .. } => host,
                _ => unreachable!(),
            })
            .collect();
        assert!(hosts.len() > 5);
        assert_eq!(hosts, (0..hosts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RecoveryPolicy {
            jitter_frac: 0.0,
            ..RecoveryPolicy::default()
        };
        let mut rng = Streams::new(0).rng(Streams::FAULTS);
        let b1 = p.backoff(1, &mut rng);
        let b2 = p.backoff(2, &mut rng);
        let b3 = p.backoff(3, &mut rng);
        let b9 = p.backoff(9, &mut rng);
        assert_eq!(b1, SimDuration::from_secs(2));
        assert_eq!(b2, SimDuration::from_secs(4));
        assert_eq!(b3, SimDuration::from_secs(8));
        assert_eq!(b9, p.backoff_max, "capped");
    }

    #[test]
    fn backoff_jitter_is_deterministic() {
        let p = RecoveryPolicy::default();
        let streams = Streams::new(5);
        let mut r1 = streams.rng(Streams::FAULTS);
        let mut r2 = streams.rng(Streams::FAULTS);
        assert_eq!(p.backoff(2, &mut r1), p.backoff(2, &mut r2));
        let base = RecoveryPolicy {
            jitter_frac: 0.0,
            ..p
        }
        .backoff(2, &mut r1);
        let jittered = p.backoff(2, &mut r2);
        assert!(jittered >= base, "jitter only adds");
    }

    #[test]
    fn every_opening_kind_names_its_close() {
        let d = SimDuration::from_secs(30);
        let pairs = [
            (
                FaultKind::HostCrash {
                    host: 3,
                    down_for: d,
                },
                FaultKind::HostRecover { host: 3 },
            ),
            (
                FaultKind::AgentSlowdown {
                    factor: 1.5,
                    duration: d,
                },
                FaultKind::AgentSpeedRestore { factor: 1.5 },
            ),
            (
                FaultKind::DbDegraded {
                    factor: 2.0,
                    duration: d,
                },
                FaultKind::DbRestore { factor: 2.0 },
            ),
            (
                FaultKind::DatastoreOutage { ds: 1, duration: d },
                FaultKind::DatastoreRestore { ds: 1 },
            ),
            (
                FaultKind::HeartbeatDrops {
                    host: 2,
                    duration: d,
                },
                FaultKind::HeartbeatRestore { host: 2 },
            ),
        ];
        for (open, close) in pairs {
            assert_eq!(open.closing(), Some((d, close)));
            assert_eq!(close.closing(), None);
        }
    }

    #[test]
    fn fault_kind_names_are_stable() {
        assert_eq!(
            FaultKind::HostCrash {
                host: 0,
                down_for: SimDuration::ZERO
            }
            .name(),
            "host-crash"
        );
        assert_eq!(
            FaultKind::DbDegraded {
                factor: 2.0,
                duration: SimDuration::ZERO
            }
            .name(),
            "db-degraded"
        );
    }
}
