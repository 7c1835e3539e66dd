//! The [`AgentFleet`]: one bounded-concurrency agent per host.

use cpsim_des::FastMap;
use std::fmt;

use cpsim_des::{FifoQueue, SimDuration, SimRng, SimTime};
use cpsim_inventory::HostId;

use crate::cost::{HostCostModel, Primitive, ServiceSamplers};

/// Errors raised by the agent fleet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostAgentError {
    /// No agent registered for this host.
    UnknownHost(HostId),
    /// The host still has queued or running primitives.
    HostBusy(HostId),
}

impl fmt::Display for HostAgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostAgentError::UnknownHost(id) => write!(f, "no agent for host {id}"),
            HostAgentError::HostBusy(id) => write!(f, "host {id} has outstanding primitives"),
        }
    }
}

impl std::error::Error for HostAgentError {}

/// Fault-injection adjustments applied to one submitted primitive.
///
/// The default (`scale == 1.0`, no forced time) reproduces the fault-free
/// behavior exactly: the sampled service time is used untouched, with no
/// extra arithmetic or RNG draws.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceMod {
    /// Multiplier on the sampled service time (agent-slowdown windows).
    pub scale: f64,
    /// If set, the primitive takes exactly this long instead of a sampled
    /// time — used to model a hung agent that runs into the management
    /// plane's phase timeout.
    pub force: Option<SimDuration>,
}

impl Default for ServiceMod {
    fn default() -> Self {
        ServiceMod {
            scale: 1.0,
            force: None,
        }
    }
}

/// A primitive that just entered service on some host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgentStart<J> {
    /// The caller's job token.
    pub job: J,
    /// The primitive now in service.
    pub primitive: Primitive,
    /// Sampled service time; the caller schedules the completion event
    /// this far in the future.
    pub service: SimDuration,
    /// Time spent queued at the host before starting.
    pub waited: SimDuration,
}

/// What was lost when a host crashed: see [`AgentFleet::crash_host`].
#[derive(Clone, Debug, PartialEq)]
pub struct CrashReport<J> {
    /// Primitives that were in service when the host died.
    pub interrupted: Vec<(Primitive, J)>,
    /// Primitives still waiting in the agent queue.
    pub dropped: Vec<(Primitive, J)>,
}

/// One host's agent: its bounded-concurrency queue plus the jobs
/// currently in service (the FIFO queue hands payloads back to the
/// caller at service start and does not retain them, so crashes need
/// this list to know what they interrupt).
struct HostAgent<J> {
    queue: FifoQueue<(Primitive, J, ServiceMod)>,
    in_service: Vec<(Primitive, J)>,
}

/// Per-host agents with bounded concurrency and FIFO overflow queues.
///
/// Both maps are keyed lookups on the submit/complete hot path; the only
/// iteration ([`served`](Self::served)) sums an integer counter, so hash
/// ordering cannot leak into event order.
// cpsim-lint: allow(no-unordered-iteration): served() sums u64 counters; order never observed
pub struct AgentFleet<J> {
    agents: FastMap<HostId, HostAgent<J>>,
    /// Crash generation per host. Bumped on every crash so the control
    /// plane can discard completion events scheduled before the crash.
    /// Kept outside [`HostAgent`]: an epoch outlives host removal, so a
    /// re-added host keeps counting from its last crash.
    epochs: FastMap<HostId, u64>,
    cost: HostCostModel,
    /// `cost`, prepared for sampling.
    samplers: ServiceSamplers,
    rng: SimRng,
}

impl<J: Copy + PartialEq> AgentFleet<J> {
    /// Creates a fleet with the given cost model and service-time RNG.
    pub fn new(cost: HostCostModel, rng: SimRng) -> Self {
        AgentFleet {
            agents: FastMap::default(),
            epochs: FastMap::default(),
            samplers: ServiceSamplers::new(&cost),
            cost,
            rng,
        }
    }

    /// Registers an agent for `host` executing at most `concurrency`
    /// primitives at once. Replaces any prior agent for the host.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency` is zero.
    pub fn add_host(&mut self, host: HostId, concurrency: u32) {
        self.agents.insert(
            host,
            HostAgent {
                queue: FifoQueue::new(concurrency),
                in_service: Vec::new(),
            },
        );
    }

    /// Deregisters `host`'s agent.
    ///
    /// # Errors
    ///
    /// Fails if the host is unknown or still has work outstanding.
    pub fn remove_host(&mut self, host: HostId) -> Result<(), HostAgentError> {
        let agent = self
            .agents
            .get(&host)
            .ok_or(HostAgentError::UnknownHost(host))?;
        if agent.queue.in_service() > 0 || agent.queue.queue_len() > 0 {
            return Err(HostAgentError::HostBusy(host));
        }
        self.agents.remove(&host);
        Ok(())
    }

    /// Whether `host` has an agent.
    pub fn has_host(&self, host: HostId) -> bool {
        self.agents.contains_key(&host)
    }

    /// Submits `primitive` to `host`'s agent. Returns `Ok(Some)` if it
    /// starts service immediately, `Ok(None)` if it queued.
    pub fn submit(
        &mut self,
        now: SimTime,
        host: HostId,
        primitive: Primitive,
        job: J,
    ) -> Result<Option<AgentStart<J>>, HostAgentError> {
        self.submit_with(now, host, primitive, job, ServiceMod::default())
    }

    /// [`submit`](Self::submit) with fault-injection adjustments attached
    /// to the primitive.
    pub fn submit_with(
        &mut self,
        now: SimTime,
        host: HostId,
        primitive: Primitive,
        job: J,
        service_mod: ServiceMod,
    ) -> Result<Option<AgentStart<J>>, HostAgentError> {
        let agent = self
            .agents
            .get_mut(&host)
            .ok_or(HostAgentError::UnknownHost(host))?;
        let started = agent
            .queue
            .arrive(now, (primitive, job, service_mod))
            .map(|adm| Self::to_start(adm, &self.samplers, &mut self.rng));
        if let Some(s) = &started {
            agent.in_service.push((s.primitive, s.job));
        }
        Ok(started)
    }

    /// Reports that `finished` completed its primitive on `host`; returns
    /// the next queued primitive entering service, if any.
    ///
    /// # Errors
    ///
    /// Fails if the host is unknown.
    ///
    /// # Panics
    ///
    /// Panics if `finished` was not in service on the host (an
    /// orchestration bug — or a completion event that survived a crash,
    /// which the caller must filter out via [`epoch`](Self::epoch)).
    pub fn complete(
        &mut self,
        now: SimTime,
        host: HostId,
        finished: J,
    ) -> Result<Option<AgentStart<J>>, HostAgentError> {
        let agent = self
            .agents
            .get_mut(&host)
            .ok_or(HostAgentError::UnknownHost(host))?;
        let pos = agent
            .in_service
            .iter()
            .position(|(_, j)| *j == finished)
            .expect("complete() for a job not in service");
        agent.in_service.swap_remove(pos);
        let started = agent
            .queue
            .complete(now)
            .map(|adm| Self::to_start(adm, &self.samplers, &mut self.rng));
        if let Some(s) = &started {
            agent.in_service.push((s.primitive, s.job));
        }
        Ok(started)
    }

    /// Kills `host`'s agent mid-flight: in-service primitives are
    /// interrupted, queued primitives are dropped, and the host's crash
    /// epoch is bumped so stale completion events can be recognized. The
    /// agent itself stays registered (the host will reboot).
    ///
    /// # Errors
    ///
    /// Fails if the host is unknown.
    pub fn crash_host(
        &mut self,
        now: SimTime,
        host: HostId,
    ) -> Result<CrashReport<J>, HostAgentError> {
        let agent = self
            .agents
            .get_mut(&host)
            .ok_or(HostAgentError::UnknownHost(host))?;
        let dropped = agent
            .queue
            .fail_all(now)
            .into_iter()
            .map(|(p, j, _)| (p, j))
            .collect();
        let interrupted = std::mem::take(&mut agent.in_service);
        *self.epochs.entry(host).or_insert(0) += 1;
        Ok(CrashReport {
            interrupted,
            dropped,
        })
    }

    /// The crash epoch of `host` (0 if it has never crashed). Completion
    /// events carrying an older epoch refer to work lost in a crash.
    pub fn epoch(&self, host: HostId) -> u64 {
        self.epochs.get(&host).copied().unwrap_or(0)
    }

    /// Primitives currently in service on `host`.
    pub fn in_service(&self, host: HostId) -> u32 {
        self.agents.get(&host).map_or(0, |a| a.queue.in_service())
    }

    /// Primitives queued at `host`.
    pub fn queue_len(&self, host: HostId) -> usize {
        self.agents.get(&host).map_or(0, |a| a.queue.queue_len())
    }

    /// Mean busy fraction of `host`'s agent through `now`.
    pub fn utilization(&self, host: HostId, now: SimTime) -> f64 {
        self.agents
            .get(&host)
            .map_or(0.0, |a| a.queue.utilization(now))
    }

    /// Total primitives that have entered service across all hosts.
    pub fn served(&self) -> u64 {
        self.agents.values().map(|a| a.queue.served()).sum()
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &HostCostModel {
        &self.cost
    }

    fn to_start(
        adm: cpsim_des::resource::fifo::Admitted<(Primitive, J, ServiceMod)>,
        samplers: &ServiceSamplers,
        rng: &mut SimRng,
    ) -> AgentStart<J> {
        let (primitive, job, service_mod) = adm.job;
        let service = match service_mod.force {
            Some(forced) => forced,
            None => {
                let sampled = samplers.sample(primitive, rng);
                if service_mod.scale != 1.0 {
                    SimDuration::from_secs_f64(sampled * service_mod.scale)
                } else {
                    SimDuration::from_secs_f64(sampled)
                }
            }
        };
        AgentStart {
            job,
            primitive,
            service,
            waited: adm.waited,
        }
    }
}

impl<J> fmt::Debug for AgentFleet<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgentFleet")
            .field("hosts", &self.agents.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_des::{Dist, Streams};
    use cpsim_inventory::EntityId;

    fn fleet() -> (AgentFleet<u32>, HostId) {
        let mut cost = HostCostModel::default();
        // Deterministic costs for exact assertions.
        cost.set(Primitive::PowerOnVm, Dist::constant(2.0).unwrap());
        cost.set(Primitive::RegisterVm, Dist::constant(1.0).unwrap());
        let mut f = AgentFleet::new(cost, Streams::new(5).rng(0));
        let h = HostId::from_parts(0, 1);
        f.add_host(h, 2);
        (f, h)
    }

    #[test]
    fn starts_immediately_until_concurrency_cap() {
        let (mut f, h) = fleet();
        let s1 = f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 1).unwrap();
        let s2 = f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 2).unwrap();
        let s3 = f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 3).unwrap();
        assert!(s1.is_some() && s2.is_some());
        assert!(s3.is_none(), "third op queues behind concurrency 2");
        assert_eq!(f.in_service(h), 2);
        assert_eq!(f.queue_len(h), 1);
        assert_eq!(s1.unwrap().service, SimDuration::from_secs(2));
    }

    #[test]
    fn completion_starts_next_queued() {
        let (mut f, h) = fleet();
        f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 1).unwrap();
        f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 2).unwrap();
        f.submit(SimTime::ZERO, h, Primitive::RegisterVm, 3)
            .unwrap();
        let next = f.complete(SimTime::from_secs(2), h, 1).unwrap().unwrap();
        assert_eq!(next.job, 3);
        assert_eq!(next.primitive, Primitive::RegisterVm);
        assert_eq!(next.waited, SimDuration::from_secs(2));
        assert_eq!(next.service, SimDuration::from_secs(1));
    }

    #[test]
    fn hosts_are_independent() {
        let (mut f, h1) = fleet();
        let h2 = HostId::from_parts(1, 1);
        f.add_host(h2, 1);
        f.submit(SimTime::ZERO, h1, Primitive::PowerOnVm, 1)
            .unwrap();
        let s = f
            .submit(SimTime::ZERO, h2, Primitive::PowerOnVm, 2)
            .unwrap();
        assert!(s.is_some(), "h2 idle even though h1 busy");
        assert_eq!(f.served(), 2);
    }

    #[test]
    fn unknown_host_errors() {
        let (mut f, _) = fleet();
        let ghost = HostId::from_parts(9, 1);
        assert_eq!(
            f.submit(SimTime::ZERO, ghost, Primitive::PowerOnVm, 1),
            Err(HostAgentError::UnknownHost(ghost))
        );
        assert_eq!(
            f.complete(SimTime::ZERO, ghost, 1),
            Err(HostAgentError::UnknownHost(ghost))
        );
        assert_eq!(
            f.crash_host(SimTime::ZERO, ghost),
            Err(HostAgentError::UnknownHost(ghost))
        );
    }

    #[test]
    fn remove_host_requires_idle() {
        let (mut f, h) = fleet();
        f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 1).unwrap();
        assert_eq!(f.remove_host(h), Err(HostAgentError::HostBusy(h)));
        f.complete(SimTime::from_secs(2), h, 1).unwrap();
        f.remove_host(h).unwrap();
        assert!(!f.has_host(h));
    }

    #[test]
    fn utilization_reflects_busy_time() {
        let (mut f, h) = fleet();
        f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 1).unwrap();
        f.complete(SimTime::from_secs(2), h, 1).unwrap();
        // one of two slots busy for 2 s out of 4 s => 0.25
        assert!((f.utilization(h, SimTime::from_secs(4)) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn service_mod_scales_and_forces() {
        let (mut f, h) = fleet();
        let slow = f
            .submit_with(
                SimTime::ZERO,
                h,
                Primitive::PowerOnVm,
                1,
                ServiceMod {
                    scale: 3.0,
                    force: None,
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(slow.service, SimDuration::from_secs(6), "2 s × 3");
        let hung = f
            .submit_with(
                SimTime::ZERO,
                h,
                Primitive::PowerOnVm,
                2,
                ServiceMod {
                    scale: 1.0,
                    force: Some(SimDuration::from_secs(120)),
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(hung.service, SimDuration::from_secs(120));
    }

    #[test]
    fn crash_reports_interrupted_and_dropped_and_bumps_epoch() {
        let (mut f, h) = fleet();
        f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 1).unwrap();
        f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 2).unwrap();
        f.submit(SimTime::ZERO, h, Primitive::RegisterVm, 3)
            .unwrap();
        assert_eq!(f.epoch(h), 0);
        let report = f.crash_host(SimTime::from_secs(1), h).unwrap();
        assert_eq!(
            report.interrupted,
            vec![(Primitive::PowerOnVm, 1), (Primitive::PowerOnVm, 2)]
        );
        assert_eq!(report.dropped, vec![(Primitive::RegisterVm, 3)]);
        assert_eq!(f.epoch(h), 1);
        assert_eq!(f.in_service(h), 0);
        assert_eq!(f.queue_len(h), 0);
        // Rebooted host accepts new work immediately.
        let s = f
            .submit(SimTime::from_secs(2), h, Primitive::PowerOnVm, 4)
            .unwrap();
        assert!(s.is_some());
    }

    #[test]
    #[should_panic(expected = "not in service")]
    fn stale_completion_panics() {
        let (mut f, h) = fleet();
        f.submit(SimTime::ZERO, h, Primitive::PowerOnVm, 1).unwrap();
        f.crash_host(SimTime::ZERO, h).unwrap();
        // Completion event from before the crash: job 1 is gone.
        let _ = f.complete(SimTime::from_secs(2), h, 1);
    }
}
