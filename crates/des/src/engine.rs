//! The simulation driver: pops events in `(time, seq)` order and hands them
//! to a [`Model`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::queue::EventQueue;
use crate::time::SimTime;

/// Process-wide tally of events handled by every [`Simulation`], flushed at
/// the end of each `run_*` call (so the per-event hot path never touches
/// shared state). Consumers snapshot it around an experiment: `repro`
/// prints the delta with each experiment's wall time, and the tier-1 test
/// `tests/experiments_smoke.rs` asserts it exactly per experiment. With
/// parallel sweeps the workers have all joined by then, so the delta is
/// exact. Only [`Simulation`] queues feed it: a federated run's
/// migration-coordinator events (`FedSim`'s `coord.events`, counted in
/// `FedSim::events_processed`) are not in it.
static GLOBAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Total events processed by all simulations in this process so far.
///
/// Monotonic; take a snapshot before and after a region to attribute a
/// delta to it. Only updated when a `run_*` call returns (single
/// [`Simulation::step`] calls are flushed on the next `run_*`).
pub fn global_events_processed() -> u64 {
    GLOBAL_EVENTS.load(Ordering::Relaxed)
}

/// A simulated system: owns the state and reacts to events.
///
/// Handlers receive the event queue so they can schedule follow-up events;
/// they must never schedule into the past (enforced by [`Simulation`]).
pub trait Model {
    /// The event vocabulary of this model.
    type Event;

    /// Reacts to `event` occurring at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Why a call to [`Simulation::run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (see [`Simulation::set_event_limit`]).
    EventLimit,
}

/// Ceiling on `size_of::<M::Event>()`, enforced at compile time by
/// [`Simulation::new`].
///
/// Every schedule and pop copies the payload through the event queue's
/// slab, so event size is pure memcpy weight on the kernel hot path. The
/// profile showed outsized enum variants (a 64-byte `OpKind::AddHost`
/// dragging whole event unions along) dominating that cost; boxing the
/// rare fat variants keeps the common events under this cap. If a new
/// variant trips the assert, box its payload rather than raising the cap.
pub const MAX_EVENT_BYTES: usize = 64;

/// A running simulation: a [`Model`] plus its event queue and clock.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
    /// Portion of `processed` already flushed to [`GLOBAL_EVENTS`].
    flushed: u64,
    event_limit: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with an empty event queue. Forgets
    /// this thread's [`dispatch_pos`](crate::dispatch_pos), so a position
    /// left by an earlier simulation cannot leak into this one.
    pub fn new(model: M) -> Self {
        const {
            assert!(
                std::mem::size_of::<M::Event>() <= MAX_EVENT_BYTES,
                "event payload exceeds MAX_EVENT_BYTES: box the outsized variant"
            );
        }
        crate::dispatch::reset();
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            flushed: 0,
            event_limit: u64::MAX,
        }
    }

    /// Schedules an initial event. Usable before and between runs.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current simulation time.
    pub fn schedule(&mut self, time: SimTime, event: M::Event) {
        assert!(time >= self.now, "cannot schedule into the past");
        self.queue.schedule(time, event);
    }

    /// Caps the total number of events processed over the simulation's
    /// lifetime; `run_*` returns [`RunOutcome::EventLimit`] when exceeded.
    ///
    /// This is a safety net against accidental event storms in tests.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Current simulation time (the timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The model state.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model state (for injecting external changes
    /// between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation and returns the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// The timestamp of the next pending event, if any. A driver that
    /// steps several simulations in one global time order picks the
    /// next one by it (see `cpsim-federation`).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Processes a single event, returning `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                self.processed += 1;
                self.model.handle(time, event, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains, the event budget is exhausted, or the
    /// next event would fire strictly after `horizon`.
    ///
    /// On return the clock is `max(now, horizon)` unless the event budget
    /// stopped the run, so consecutive horizons compose:
    /// `run_until(a); run_until(b)` with `a <= b` is equivalent to
    /// `run_until(b)`. Unless the budget stopped it, the run then records
    /// that it dispatched everything up to the clock (see
    /// [`DispatchPos::settled`](crate::DispatchPos::settled)).
    ///
    /// The hot path is a single fused
    /// [`pop_if_before`](EventQueue::pop_if_before) per event instead of
    /// the peek-compare-pop sequence a naive loop would issue.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let outcome = loop {
            if self.processed >= self.event_limit {
                match self.queue.next_time() {
                    Some(t) if t <= horizon => break RunOutcome::EventLimit,
                    Some(_) => {
                        self.now = horizon;
                        break RunOutcome::HorizonReached;
                    }
                    None => {
                        if self.now < horizon {
                            self.now = horizon;
                        }
                        break RunOutcome::Drained;
                    }
                }
            }
            match self.queue.pop_if_before(horizon) {
                Some((time, event)) => {
                    debug_assert!(time >= self.now, "event queue went backwards");
                    self.now = time;
                    self.processed += 1;
                    self.model.handle(time, event, &mut self.queue);
                }
                None if self.queue.is_empty() => {
                    if self.now < horizon {
                        self.now = horizon;
                    }
                    break RunOutcome::Drained;
                }
                None => {
                    self.now = horizon;
                    break RunOutcome::HorizonReached;
                }
            }
        };
        if outcome != RunOutcome::EventLimit {
            crate::dispatch::record_settled(self.now, self.queue.next_seq());
        }
        self.flush_events();
        outcome
    }

    /// Runs until the event queue is empty (or the event budget is hit).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        let outcome = loop {
            if self.queue.is_empty() {
                crate::dispatch::record_settled(self.now, self.queue.next_seq());
                break RunOutcome::Drained;
            }
            if self.processed >= self.event_limit {
                break RunOutcome::EventLimit;
            }
            self.step();
        };
        self.flush_events();
        outcome
    }

    /// Adds events processed since the last flush to the process-wide
    /// counter (see [`global_events_processed`]).
    fn flush_events(&mut self) {
        let delta = self.processed - self.flushed;
        if delta > 0 {
            GLOBAL_EVENTS.fetch_add(delta, Ordering::Relaxed);
            self.flushed = self.processed;
        }
    }
}

impl<M: Model + std::fmt::Debug> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("pending", &self.queue.len())
            .field("model", &self.model)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Default)]
    struct Counter {
        seen: Vec<(SimTime, u32)>,
        respawn: bool,
    }

    enum Ev {
        N(u32),
    }

    impl Model for Counter {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, Ev::N(n): Ev, queue: &mut EventQueue<Ev>) {
            self.seen.push((now, n));
            if self.respawn && n < 10 {
                queue.schedule(now + SimDuration::from_secs(1), Ev::N(n + 1));
            }
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(Counter {
            respawn: true,
            ..Default::default()
        });
        sim.schedule(SimTime::ZERO, Ev::N(0));
        let outcome = sim.run_until(SimTime::from_secs(4));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.model().seen.len(), 5); // events at t = 0..=4
        assert_eq!(sim.now(), SimTime::from_secs(4));

        // Continuing to a later horizon picks up where we left off.
        let outcome = sim.run_until(SimTime::from_secs(100));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.model().seen.len(), 11);
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    fn drained_advances_clock_to_horizon() {
        let mut sim = Simulation::new(Counter::default());
        assert_eq!(sim.run_until(SimTime::from_secs(9)), RunOutcome::Drained);
        assert_eq!(sim.now(), SimTime::from_secs(9));
    }

    #[test]
    fn event_limit_stops_runaway() {
        let mut sim = Simulation::new(Counter {
            respawn: true,
            ..Default::default()
        });
        sim.set_event_limit(3);
        sim.schedule(SimTime::ZERO, Ev::N(0));
        assert_eq!(sim.run_to_completion(), RunOutcome::EventLimit);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn event_limit_stops_run_until_and_resumes() {
        let mut sim = Simulation::new(Counter {
            respawn: true,
            ..Default::default()
        });
        sim.set_event_limit(2);
        sim.schedule(SimTime::ZERO, Ev::N(0));
        assert_eq!(
            sim.run_until(SimTime::from_secs(100)),
            RunOutcome::EventLimit
        );
        assert_eq!(sim.events_processed(), 2);
        // The clock stays at the last processed event, not the horizon.
        assert_eq!(sim.now(), SimTime::from_secs(1));
        // Raising the budget resumes cleanly.
        sim.set_event_limit(u64::MAX);
        assert_eq!(sim.run_until(SimTime::from_secs(100)), RunOutcome::Drained);
        assert_eq!(sim.model().seen.len(), 11);
    }

    #[test]
    fn global_counter_accumulates_processed_events() {
        let before = global_events_processed();
        let mut sim = Simulation::new(Counter {
            respawn: true,
            ..Default::default()
        });
        sim.schedule(SimTime::ZERO, Ev::N(0));
        sim.run_to_completion();
        // Other tests on sibling threads may also bump the counter, so
        // only a lower bound is assertable.
        assert!(global_events_processed() - before >= 11);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(Counter::default());
        sim.schedule(SimTime::from_secs(1), Ev::N(1));
        sim.run_to_completion();
        sim.schedule(SimTime::ZERO, Ev::N(0));
    }

    #[test]
    fn next_event_time_tracks_the_queue_head() {
        let mut sim = Simulation::new(Counter::default());
        assert_eq!(sim.next_event_time(), None);
        sim.schedule(SimTime::from_secs(5), Ev::N(1));
        sim.schedule(SimTime::from_secs(2), Ev::N(0));
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(2)));
        sim.step();
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(5)));
        sim.step();
        assert_eq!(sim.next_event_time(), None);
    }

    #[test]
    fn step_returns_false_on_empty() {
        let mut sim = Simulation::new(Counter::default());
        assert!(!sim.step());
        sim.schedule(SimTime::ZERO, Ev::N(7));
        assert!(sim.step());
        assert_eq!(sim.into_model().seen, vec![(SimTime::ZERO, 7)]);
    }
}
