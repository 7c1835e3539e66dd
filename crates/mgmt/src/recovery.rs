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

use cpsim_des::{SimDuration, SimRng};
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
    /// Fault-plan index -> entities its open windows bound, in open order.
    /// Close events carry the plan index, not the entity id, so the
    /// binding made at open time must be remembered (the index<->id
    /// mapping shifts when hosts or datastores are added mid-run).
    bindings: BTreeMap<usize, Vec<T>>,
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

    /// Opens a window on `id` for plan index `idx`. `None`, binding
    /// nothing, when `id` already has one open.
    fn open(&mut self, idx: usize, id: T) -> Option<()> {
        self.open.insert(id).then(|| {
            self.bindings.entry(idx).or_default().push(id);
        })
    }

    /// Closes the oldest window bound to plan index `idx`, if any.
    fn close(&mut self, idx: usize) {
        let Some(list) = self.bindings.get_mut(&idx) else {
            return;
        };
        let id = list.remove(0);
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

    /// Applies one fault event and returns the close to schedule: the
    /// delay and closing event of the window it opened.
    ///
    /// An opening kind opens its window on the entity its plan index
    /// resolves to through `host` or `ds`. It opens nothing, and returns
    /// `None`, when the index resolves to nothing or that entity's window
    /// is already open. A closing kind closes the oldest window bound to
    /// its plan index, or the first open window with its factor, and
    /// returns `None`.
    pub(crate) fn apply(
        &mut self,
        kind: FaultKind,
        host: impl Fn(usize) -> Option<HostId>,
        ds: impl Fn(usize) -> Option<DatastoreId>,
    ) -> Option<(SimDuration, FaultKind)> {
        match kind {
            FaultKind::HostCrash { host: i, .. } => {
                host(i).and_then(|h| self.crashed.open(i, h))?
            }
            FaultKind::HeartbeatDrops { host: i, .. } => {
                host(i).and_then(|h| self.hb_dropped.open(i, h))?
            }
            FaultKind::DatastoreOutage { ds: i, .. } => {
                ds(i).and_then(|d| self.ds_down.open(i, d))?
            }
            FaultKind::AgentSlowdown { factor, .. } => self.agent_slow.open(factor),
            FaultKind::DbDegraded { factor, .. } => self.db_slow.open(factor),
            FaultKind::HostRecover { host: i } => self.crashed.close(i),
            FaultKind::HeartbeatRestore { host: i } => self.hb_dropped.close(i),
            FaultKind::DatastoreRestore { ds: i } => self.ds_down.close(i),
            FaultKind::AgentSpeedRestore { factor } => self.agent_slow.close(factor),
            FaultKind::DbRestore { factor } => self.db_slow.close(factor),
        }
        kind.closing()
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

    #[test]
    fn keyed_closes_resolve_first_in_first_out() {
        let mut w = Keyed::new();
        assert_eq!(w.open(3, host(1)), Some(()));
        assert_eq!(w.open(3, host(2)), Some(()));
        assert!(w.contains(host(1)) && w.contains(host(2)));
        w.close(3);
        assert!(!w.contains(host(1)), "the oldest binding closes first");
        assert!(w.contains(host(2)));
        w.close(3);
        assert!(!w.contains(host(2)));
        assert!(w.bindings.is_empty());
    }

    #[test]
    fn keyed_refuses_a_second_window_and_binds_nothing() {
        let mut w = Keyed::new();
        assert_eq!(w.open(1, host(1)), Some(()));
        assert_eq!(w.open(5, host(1)), None, "already open");
        assert!(!w.bindings.contains_key(&5));
        // A close for an index that was never bound changes nothing.
        w.close(5);
        w.close(99);
        assert!(w.contains(host(1)));
        w.close(1);
        assert!(!w.contains(host(1)));
        // Closed, the entity can open again.
        assert_eq!(w.open(5, host(1)), Some(()));
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
        let close = inj.apply(crash, on, no_ds);
        assert_eq!(
            close,
            Some((
                SimDuration::from_secs(9),
                FaultKind::HostRecover { host: 3 }
            ))
        );
        assert!(inj.host_down(host(1)));
        assert_eq!(inj.apply(crash, on, no_ds), None, "already down");
        let outage = FaultKind::DatastoreOutage {
            ds: 0,
            duration: SimDuration::from_secs(5),
        };
        assert_eq!(
            inj.apply(outage, on, no_ds),
            None,
            "no datastore to resolve"
        );
        assert_eq!(
            inj.apply(FaultKind::HostRecover { host: 3 }, on, no_ds),
            None
        );
        assert!(!inj.host_down(host(1)));
        let slow = FaultKind::DbDegraded {
            factor: 2.0,
            duration: SimDuration::from_secs(1),
        };
        assert!(inj.apply(slow, on, no_ds).is_some());
        assert_eq!(inj.db_scale(), 2.0);
        inj.apply(FaultKind::DbRestore { factor: 2.0 }, on, no_ds);
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
        inj.apply(drops, on, |_| None);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::Missed);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::Missed);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::DeclareDown);
        // Disconnected, further misses declare nothing.
        assert_eq!(inj.heartbeat(h, false), BeatOutcome::Missed);
        inj.apply(FaultKind::HeartbeatRestore { host: 0 }, on, |_| None);
        assert_eq!(inj.heartbeat(h, false), BeatOutcome::Reconnect);
        assert_eq!(inj.heartbeat(h, true), BeatOutcome::Answered);
        // The miss counter restarted with the answered beat.
        inj.apply(drops, on, |_| None);
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
