//! Fault-injection state tracked by the control plane: the open fault
//! windows, heartbeat miss counters, and the deterministic RNG used for
//! timeout draws and retry-backoff jitter.
//!
//! The [`FaultInjector`] owns every fault window's lifecycle: it resolves
//! a fault event's plan index, opens the window (or refuses one on an
//! entity whose window is already open), names the close to schedule,
//! and closes it. The [`ControlPlane`] applies each fault event through
//! [`FaultInjector::apply`] and consults the open windows at its decision
//! points (agent submission, heartbeat, datastore-touching phases). When
//! no injector is installed the plane takes none of those branches and
//! draws none of this randomness, which is what makes fault-free runs
//! bit-identical to builds without a fault plan.
//!
//! [`ControlPlane`]: crate::plane::ControlPlane

use std::collections::{BTreeMap, BTreeSet};

use cpsim_des::{SimDuration, SimRng, SimTime};
use cpsim_faults::{FaultKind, RecoveryPolicy};
use cpsim_hostagent::ServiceMod;
use cpsim_inventory::{DatastoreId, HostId};
use rand::Rng;

/// Windows that impair one entity each: hosts crashed, hosts whose
/// heartbeats are dropped, datastores out.
#[derive(Debug)]
struct Keyed<T> {
    /// Entities with an open window.
    open: BTreeSet<T>,
    /// Fault-plan index -> the close time and entity of each open window
    /// it bound, in open order. Close events carry the plan index, not
    /// the entity id, so the binding made at open time must be remembered
    /// (the index<->id mapping shifts when hosts or datastores are added
    /// mid-run).
    bindings: BTreeMap<usize, Vec<(SimTime, T)>>,
}

impl<T: Copy + Ord> Keyed<T> {
    fn new() -> Self {
        Keyed {
            open: BTreeSet::new(),
            bindings: BTreeMap::new(),
        }
    }

    fn contains(&self, id: T) -> bool {
        self.open.contains(&id)
    }

    /// Opens a window on `id` for plan index `idx`, due to close at
    /// `closes_at`. `None`, binding nothing, when `id` already has one
    /// open.
    fn open(&mut self, idx: usize, id: T, closes_at: SimTime) -> Option<()> {
        self.open.insert(id).then(|| {
            self.bindings.entry(idx).or_default().push((closes_at, id));
        })
    }

    /// Closes the window bound to plan index `idx` that is due first (the
    /// oldest among equal close times), if any. A close scheduled at open
    /// time fires at its own window's close time, so it ends that window,
    /// even when one index has bound two entities.
    fn close(&mut self, idx: usize) {
        let Some(list) = self.bindings.get_mut(&idx) else {
            return;
        };
        let Some(due) = (0..list.len()).min_by_key(|&i| list[i].0) else {
            return;
        };
        let (_, id) = list.remove(due);
        if list.is_empty() {
            self.bindings.remove(&idx);
        }
        self.open.remove(&id);
    }
}

/// Overlapping service-time multiplier windows: agent slowdowns or DB
/// degradations.
#[derive(Debug, Default)]
struct Factors(Vec<f64>);

impl Factors {
    fn open(&mut self, factor: f64) {
        self.0.push(factor);
    }

    /// Closes the first open window with this factor, if any.
    fn close(&mut self, factor: f64) {
        if let Some(pos) = self.0.iter().position(|f| *f == factor) {
            self.0.swap_remove(pos);
        }
    }

    /// The effective multiplier: the product of the open factors, in
    /// stack order (1.0 when none is open).
    fn scale(&self) -> f64 {
        self.0.iter().product()
    }
}

/// What one due heartbeat means to the plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BeatOutcome {
    /// Nothing arrived, and nothing is charged.
    Missed,
    /// Nothing arrived, for the threshold-th time in a row on a connected
    /// host: the plane declares the host down and resyncs.
    DeclareDown,
    /// The beat arrived from a host declared down: the plane reconnects
    /// it, resyncs, and charges the beat.
    Reconnect,
    /// The beat arrived: the plane charges it.
    Answered,
}

/// Live fault state plus the recovery policy the plane applies.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    policy: RecoveryPolicy,
    timeout_prob: f64,
    rng: SimRng,
    /// Hosts crashed (agent dead, heartbeats silent).
    crashed: Keyed<HostId>,
    /// Hosts whose heartbeats the network drops (host itself up).
    hb_dropped: Keyed<HostId>,
    /// Datastores refusing new work.
    ds_down: Keyed<DatastoreId>,
    agent_slow: Factors,
    db_slow: Factors,
    /// Consecutive heartbeat misses per host.
    hb_misses: BTreeMap<HostId, u32>,
    /// Hosts the plane has declared down (inventory marked Disconnected).
    declared_down: BTreeSet<HostId>,
}

impl FaultInjector {
    /// Creates an injector with no open windows.
    pub(crate) fn new(policy: RecoveryPolicy, timeout_prob: f64, rng: SimRng) -> Self {
        FaultInjector {
            policy,
            timeout_prob,
            rng,
            crashed: Keyed::new(),
            hb_dropped: Keyed::new(),
            ds_down: Keyed::new(),
            agent_slow: Factors::default(),
            db_slow: Factors::default(),
            hb_misses: BTreeMap::new(),
            declared_down: BTreeSet::new(),
        }
    }

    /// The recovery policy in force.
    pub(crate) fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Applies one fault event at `now` and returns the close to
    /// schedule: the delay and closing event of the window it opened.
    ///
    /// An opening kind opens its window on the entity its plan index
    /// resolves to through `host` or `ds`. It opens nothing, and returns
    /// `None`, when the index resolves to nothing or that entity's window
    /// is already open. A closing kind closes the window bound to its
    /// plan index that is due first, or the first open window with its
    /// factor, and returns `None`.
    pub(crate) fn apply(
        &mut self,
        now: SimTime,
        kind: FaultKind,
        host: impl Fn(usize) -> Option<HostId>,
        ds: impl Fn(usize) -> Option<DatastoreId>,
    ) -> Option<(SimDuration, FaultKind)> {
        let closing = kind.closing();
        let at = now + closing.map_or(SimDuration::ZERO, |(delay, _)| delay);
        match kind {
            FaultKind::HostCrash { host: i, .. } => {
                host(i).and_then(|h| self.crashed.open(i, h, at))?
            }
            FaultKind::HeartbeatDrops { host: i, .. } => {
                host(i).and_then(|h| self.hb_dropped.open(i, h, at))?
            }
            FaultKind::DatastoreOutage { ds: i, .. } => {
                ds(i).and_then(|d| self.ds_down.open(i, d, at))?
            }
            FaultKind::AgentSlowdown { factor, .. } => self.agent_slow.open(factor),
            FaultKind::DbDegraded { factor, .. } => self.db_slow.open(factor),
            FaultKind::HostRecover { host: i } => self.crashed.close(i),
            FaultKind::HeartbeatRestore { host: i } => self.hb_dropped.close(i),
            FaultKind::DatastoreRestore { ds: i } => self.ds_down.close(i),
            FaultKind::AgentSpeedRestore { factor } => self.agent_slow.close(factor),
            FaultKind::DbRestore { factor } => self.db_slow.close(factor),
        }
        closing
    }

    /// Whether `host` is crashed.
    pub(crate) fn host_down(&self, host: HostId) -> bool {
        self.crashed.contains(host)
    }

    /// Whether `ds` is refusing new work.
    pub(crate) fn ds_down(&self, ds: DatastoreId) -> bool {
        self.ds_down.contains(ds)
    }

    /// Effective DB service-time multiplier (1.0 when no window is open).
    pub(crate) fn db_scale(&self) -> f64 {
        self.db_slow.scale()
    }

    /// The service modifier for the next host-agent primitive: the agent
    /// slowdown scale, and the phase timeout as its forced service time
    /// when the timeout draw says the primitive hangs.
    pub(crate) fn agent_service(&mut self) -> ServiceMod {
        let hangs = self.timeout_prob > 0.0 && self.rng.gen::<f64>() < self.timeout_prob;
        ServiceMod {
            scale: self.agent_slow.scale(),
            force: hangs.then_some(self.policy.agent_timeout),
        }
    }

    /// Decides what a due heartbeat from `host` means, counting misses.
    /// `connected` is the host's inventory state.
    pub(crate) fn heartbeat(&mut self, host: HostId, connected: bool) -> BeatOutcome {
        if self.crashed.contains(host) || self.hb_dropped.contains(host) {
            let misses = self.hb_misses.entry(host).or_insert(0);
            *misses += 1;
            if *misses >= self.policy.heartbeat_miss_threshold && connected {
                self.declared_down.insert(host);
                return BeatOutcome::DeclareDown;
            }
            return BeatOutcome::Missed;
        }
        self.hb_misses.remove(&host);
        if self.declared_down.remove(&host) {
            BeatOutcome::Reconnect
        } else {
            BeatOutcome::Answered
        }
    }

    /// The backoff before retry number `attempt` (policy + jitter draw).
    pub(crate) fn backoff(&mut self, attempt: u32) -> SimDuration {
        self.policy.backoff(attempt, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_des::Streams;
    use cpsim_inventory::EntityId;

    fn injector(timeout_prob: f64) -> FaultInjector {
        FaultInjector::new(
            RecoveryPolicy::default(),
            timeout_prob,
            Streams::new(11).rng(Streams::FAULTS),
        )
    }

    fn host(n: u32) -> HostId {
        HostId::from_parts(n, 1)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn keyed_closes_the_window_due_first() {
        let mut w = Keyed::new();
        assert_eq!(w.open(3, host(1), at(90)), Some(()));
        assert_eq!(w.open(3, host(2), at(60)), Some(()));
        assert_eq!(w.open(3, host(4), at(90)), Some(()));
        assert!(w.contains(host(1)) && w.contains(host(2)));
        w.close(3);
        assert!(!w.contains(host(2)), "the window due first closes first");
        assert!(w.contains(host(1)) && w.contains(host(4)));
        w.close(3);
        assert!(!w.contains(host(1)), "equal close times: the oldest");
        assert!(w.contains(host(4)));
        w.close(3);
        assert!(!w.contains(host(4)));
        assert!(w.bindings.is_empty());
    }

    /// Index 7 names host 3 among four hosts and host 2 once a fifth is
    /// added. The crash at 20 s holds host 3 until 170 s; the one at
    /// 120 s holds host 2 until 150 s. Each close ends its own window.
    #[test]
    fn a_shorter_later_window_on_one_index_ends_its_own_entity() {
        let mut inj = injector(0.0);
        let four: Vec<HostId> = (0..4).map(host).collect();
        let five: Vec<HostId> = (0..5).map(host).collect();
        let on = |hosts: &[HostId]| {
            let hosts = hosts.to_vec();
            move |i: usize| hosts.get(i % hosts.len()).copied()
        };
        let crash = |secs| FaultKind::HostCrash {
            host: 7,
            down_for: SimDuration::from_secs(secs),
        };
        let recover = FaultKind::HostRecover { host: 7 };
        assert!(inj.apply(at(20), crash(150), on(&four), |_| None).is_some());
        assert!(inj.apply(at(120), crash(30), on(&five), |_| None).is_some());
        assert!(inj.host_down(host(3)) && inj.host_down(host(2)));
        inj.apply(at(150), recover, on(&five), |_| None);
        assert!(!inj.host_down(host(2)), "host 2's window is due at 150 s");
        assert!(inj.host_down(host(3)), "host 3 stays down until 170 s");
        inj.apply(at(170), recover, on(&five), |_| None);
        assert!(!inj.host_down(host(3)));
    }

    #[test]
    fn keyed_refuses_a_second_window_and_binds_nothing() {
        let mut w = Keyed::new();
        assert_eq!(w.open(1, host(1), at(10)), Some(()));
        assert_eq!(w.open(5, host(1), at(20)), None, "already open");
        assert!(!w.bindings.contains_key(&5));
        // A close for an index that was never bound changes nothing.
        w.close(5);
        w.close(99);
        assert!(w.contains(host(1)));
        w.close(1);
        assert!(!w.contains(host(1)));
        // Closed, the entity can open again.
        assert_eq!(w.open(5, host(1), at(30)), Some(()));
    }

    #[test]
    fn factor_closes_keep_the_left_to_right_product() {
        let mut f = Factors::default();
        assert_eq!(f.scale(), 1.0);
        for x in [1.1, 1.3, 1.1, 1.7] {
            f.open(x);
        }
        // The first 1.1 goes, and 1.7 is swapped into its place.
        f.close(1.1);
        assert_eq!(f.0, [1.7, 1.3, 1.1]);
        assert_eq!(f.scale().to_bits(), (1.7_f64 * 1.3 * 1.1).to_bits());
        f.close(1.3);
        assert_eq!(f.0, [1.7, 1.1]);
        // Closing a factor that is not open is a no-op.
        f.close(9.0);
        assert_eq!(f.0, [1.7, 1.1]);
        f.close(1.7);
        f.close(1.1);
        assert_eq!(f.scale(), 1.0);
    }

    #[test]
    fn factor_product_order_is_observable() {
        // Floating-point products do not associate: the stack order
        // swap_remove leaves decides the scale's last bits.
        let mut f = Factors::default();
        for x in [0.1, 0.7, 0.1, 0.3] {
            f.open(x);
        }
        f.close(0.1);
        assert_eq!(f.0, [0.3, 0.7, 0.1]);
        let kept = f.scale();
        assert_eq!(kept.to_bits(), (0.3_f64 * 0.7 * 0.1).to_bits());
        assert_ne!(kept.to_bits(), (0.7_f64 * 0.1 * 0.3).to_bits());
    }

    #[test]
    fn apply_names_the_close_of_each_window_it_opens() {
        let mut inj = injector(0.0);
        let hosts = [host(0), host(1)];
        let on = |i: usize| hosts.get(i % hosts.len()).copied();
        let no_ds = |_| None;
        let crash = FaultKind::HostCrash {
            host: 3,
            down_for: SimDuration::from_secs(9),
        };
        let close = inj.apply(at(0), crash, on, no_ds);
        assert_eq!(
            close,
            Some((
                SimDuration::from_secs(9),
                FaultKind::HostRecover { host: 3 }
            ))
        );
        assert!(inj.host_down(host(1)));
        assert_eq!(inj.apply(at(0), crash, on, no_ds), None, "already down");
        let outage = FaultKind::DatastoreOutage {
            ds: 0,
            duration: SimDuration::from_secs(5),
        };
        assert_eq!(
            inj.apply(at(0), outage, on, no_ds),
            None,
            "no datastore to resolve"
        );
        assert_eq!(
            inj.apply(at(0), FaultKind::HostRecover { host: 3 }, on, no_ds),
            None
        );
        assert!(!inj.host_down(host(1)));
        let slow = FaultKind::DbDegraded {
            factor: 2.0,
            duration: SimDuration::from_secs(1),
        };
        assert!(inj.apply(at(0), slow, on, no_ds).is_some());
        assert_eq!(inj.db_scale(), 2.0);
        inj.apply(at(0), FaultKind::DbRestore { factor: 2.0 }, on, no_ds);
        assert_eq!(inj.db_scale(), 1.0);
    }

    #[test]
    fn heartbeat_misses_declare_down_then_reconnect() {
        let mut inj = injector(0.0);
        let h = host(0);
        let on = |_| Some(h);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::Answered);
        let drops = FaultKind::HeartbeatDrops {
            host: 0,
            duration: SimDuration::from_secs(60),
        };
        inj.apply(at(0), drops, on, |_| None);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::Missed);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::Missed);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::DeclareDown);
        // Disconnected, further misses declare nothing.
        assert_eq!(inj.heartbeat(h, false), BeatOutcome::Missed);
        inj.apply(at(0), FaultKind::HeartbeatRestore { host: 0 }, on, |_| None);
        assert_eq!(inj.heartbeat(h, false), BeatOutcome::Reconnect);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::Answered);
        // The miss counter restarted with the answered beat.
        inj.apply(at(0), drops, on, |_| None);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::Missed);
    }

    #[test]
    fn timeout_draws_respect_probability_bounds() {
        let mut never = injector(0.0);
        assert!((0..100).all(|_| never.agent_service().force.is_none()));
        let mut always = injector(1.0);
        let timeout = always.policy().agent_timeout;
        assert!((0..100).all(|_| always.agent_service().force == Some(timeout)));
    }
}
