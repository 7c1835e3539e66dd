//! Where this thread's kernel stands in `(time, seq)` order.
//!
//! A model can keep periodic work off the event queue and replay it when
//! an event next touches the state that work feeds (the control plane's
//! host heartbeats are the user). To replay it in exactly the order its
//! events would have fired, the model needs the position of the event
//! being dispatched: the queue records it on every pop, and
//! [`Simulation`](crate::Simulation) records where a run stopped. Both
//! live in thread-locals, so a model reads them without a handle on the
//! queue: [`dispatch_pos`].
//!
//! An occurrence that was never scheduled takes a *virtual* seq: the seq
//! its event would have been given, which is the queue's next seq at the
//! moment the event would have been scheduled. It then orders against
//! real events exactly as `(time, seq)` does ([`DispatchPos::precedes`]).

use std::cell::Cell;

use crate::time::SimTime;

thread_local! {
    /// `(time, seq, next_seq)` of the last pop, or of the last run's end.
    static DISPATCH: Cell<(SimTime, u64, u64)> = const { Cell::new(NONE) };
    /// `(horizon, next_seq)` of the last run that dispatched everything
    /// up to its horizon.
    static SETTLED: Cell<Option<(SimTime, u64)>> = const { Cell::new(None) };
}

/// The record before any pop: its time matches no call, so every model
/// call reads as outside a dispatch.
const NONE: (SimTime, u64, u64) = (SimTime::MAX, 0, 0);

/// A snapshot of this thread's dispatch position (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchPos {
    /// Time of the event being dispatched, or the horizon the last run
    /// reached.
    pub time: SimTime,
    /// Seq of the event being dispatched; `u64::MAX` at a run's end,
    /// when every event at `time` has been dispatched.
    pub seq: u64,
    /// The queue's next seq at that point: the seq of the first event
    /// scheduled after it.
    pub next_seq: u64,
    /// `(horizon, next_seq)` of the last run that dispatched every event
    /// up to its horizon, if one has finished since the simulation was
    /// created.
    pub settled: Option<(SimTime, u64)>,
}

impl DispatchPos {
    /// Whether an occurrence at `(time, seq)` comes before a model call
    /// at `now`. Inside a dispatch (the recorded time is `now`) that is
    /// `(time, seq) <= (now, event seq)`: an occurrence whose virtual seq
    /// equals the event's would have been scheduled first. Outside one,
    /// every occurrence at or before `now` comes first.
    #[inline]
    pub fn precedes(&self, now: SimTime, time: SimTime, seq: u64) -> bool {
        time < now || (time == now && (self.time != now || seq <= self.seq))
    }

    /// The virtual seq of an event that an occurrence at `time`, replayed
    /// now, would have scheduled when it fired. An occurrence at or
    /// before the last run's horizon fired before that run ended, so it
    /// takes the run's final next seq; a later one fired just before the
    /// event being dispatched and takes the next seq recorded at its pop.
    #[inline]
    pub fn successor_seq(&self, time: SimTime) -> u64 {
        match self.settled {
            Some((horizon, next_seq)) if time <= horizon => next_seq,
            _ => self.next_seq,
        }
    }
}

/// This thread's dispatch position.
#[inline]
pub fn dispatch_pos() -> DispatchPos {
    let (time, seq, next_seq) = DISPATCH.get();
    DispatchPos {
        time,
        seq,
        next_seq,
        settled: SETTLED.get(),
    }
}

/// Records the pop of the event at `(time, seq)` from a queue whose next
/// seq is `next_seq`.
#[inline]
pub(crate) fn record_pop(time: SimTime, seq: u64, next_seq: u64) {
    DISPATCH.set((time, seq, next_seq));
}

/// Records that a run dispatched every event up to `horizon`, leaving the
/// queue's next seq at `next_seq`.
pub(crate) fn record_settled(horizon: SimTime, next_seq: u64) {
    DISPATCH.set((horizon, u64::MAX, next_seq));
    SETTLED.set(Some((horizon, next_seq)));
}

/// Forgets the position: a new simulation starts outside any dispatch.
pub(crate) fn reset() {
    DISPATCH.set(NONE);
    SETTLED.set(None);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(time: u64, seq: u64, next_seq: u64) -> DispatchPos {
        DispatchPos {
            time: SimTime::from_secs(time),
            seq,
            next_seq,
            settled: None,
        }
    }

    #[test]
    fn ties_inside_a_dispatch_go_by_seq() {
        let p = pos(5, 10, 12);
        let now = SimTime::from_secs(5);
        assert!(p.precedes(now, SimTime::from_secs(4), u64::MAX));
        assert!(p.precedes(now, now, 10));
        assert!(!p.precedes(now, now, 11));
        assert!(!p.precedes(now, SimTime::from_secs(6), 0));
    }

    #[test]
    fn outside_a_dispatch_everything_due_comes_first() {
        let p = pos(3, 10, 12);
        let now = SimTime::from_secs(5);
        assert!(p.precedes(now, now, u64::MAX));
        assert!(!p.precedes(now, SimTime::from_secs(6), 0));
    }

    #[test]
    fn successors_of_settled_occurrences_take_the_run_end_seq() {
        let mut p = pos(9, 40, 45);
        p.settled = Some((SimTime::from_secs(6), 30));
        assert_eq!(p.successor_seq(SimTime::from_secs(6)), 30);
        assert_eq!(p.successor_seq(SimTime::from_secs(7)), 45);
    }

    #[test]
    fn records_round_trip_and_reset() {
        reset();
        record_pop(SimTime::from_secs(2), 7, 9);
        assert_eq!(dispatch_pos(), pos(2, 7, 9));
        record_settled(SimTime::from_secs(4), 11);
        let p = dispatch_pos();
        assert_eq!(
            (p.time, p.seq, p.next_seq),
            (SimTime::from_secs(4), u64::MAX, 11)
        );
        assert_eq!(p.settled, Some((SimTime::from_secs(4), 11)));
        record_pop(SimTime::from_secs(5), 11, 12);
        assert_eq!(dispatch_pos().settled, Some((SimTime::from_secs(4), 11)));
        reset();
        let p = dispatch_pos();
        assert_eq!((p.time, p.settled), (SimTime::MAX, None));
    }
}
