//! A multi-server first-come-first-served station kept as per-server
//! clocks instead of a waiting line.
//!
//! Every job's service time is known when it arrives, so an arrival takes
//! the server that frees first and its start time is known at once. Jobs
//! come in two kinds:
//!
//! - *Lazy* jobs ([`FcfsStation::arrive_lazy`]) get no completion event at
//!   all. Their server's drop to idle is written to the occupancy signal
//!   the next time the station is touched or read, in time order.
//! - *Evented* jobs ([`FcfsStation::arrive`]) keep a completion event,
//!   which the caller schedules. A job that finds a server free starts at
//!   arrival. A job that must wait is handed over by the completion of the
//!   job ahead of it ([`FcfsStation::complete`]), where a
//!   [`FifoQueue`](crate::FifoQueue) would have started it. When the job
//!   ahead is lazy, the arrival asks the caller for one hand-off
//!   completion at that job's end.
//!
//! Start times, waits and utilization match a `FifoQueue` fed the same
//! jobs. Utilization can differ in the last bit when an arrival and a
//! completion share a microsecond, because the occupancy interval is then
//! split at a different call.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::resource::fifo::Admitted;
use crate::resource::timeweighted::TimeWeighted;
use crate::time::{SimDuration, SimTime};

/// What the caller must schedule after an evented [`FcfsStation::arrive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival<J> {
    /// A server was free: the job starts now, so schedule its completion
    /// at `now + service`.
    Started(J),
    /// The job waits behind an evented job, whose completion hands it over.
    Queued,
    /// The job waits behind a lazy job that ends at the given time:
    /// schedule one completion event there to hand the server over.
    Handoff(SimTime),
}

/// A busy server's clock: when its last assigned job ends, and whether
/// that end is lazy (no completion event fires there). Packed into one
/// integer, `free_at << 1 | lazy`, so clocks order by `free_at` and then
/// evented before lazy: on a tie the station picks a server whose
/// completion is already evented and needs no hand-off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Clock(u64);

impl Clock {
    fn new(free_at: SimTime, lazy: bool) -> Self {
        assert!(
            free_at.as_micros() >> 63 == 0,
            "clock past the packable range"
        );
        Clock(free_at.as_micros() << 1 | u64::from(lazy))
    }

    fn free_at(self) -> SimTime {
        SimTime::from_micros(self.0 >> 1)
    }

    fn lazy(self) -> bool {
        self.0 & 1 == 1
    }
}

/// An evented job that has not started yet.
#[derive(Debug)]
struct Waiter<J> {
    arrived: SimTime,
    start: SimTime,
    job: J,
}

/// `c`-server FCFS station with per-server clocks and lazy completions.
///
/// ```
/// use cpsim_des::{Arrival, FcfsStation, SimDuration, SimTime};
/// let secs = SimDuration::from_secs;
/// let mut st: FcfsStation<&str> = FcfsStation::new(1);
/// st.arrive_lazy(SimTime::ZERO, secs(3)); // no event: busy until 3 s
/// // "a" waits behind lazy work: ask for a hand-off completion at 3 s.
/// let handoff = st.arrive(SimTime::from_secs(1), secs(2), "a");
/// assert_eq!(handoff, Arrival::Handoff(SimTime::from_secs(3)));
/// let next = st.complete(SimTime::from_secs(3)).unwrap();
/// assert_eq!((next.job, next.waited), ("a", secs(2)));
/// assert!(st.complete(SimTime::from_secs(5)).is_none()); // "a" ends
/// assert_eq!(st.utilization(SimTime::from_secs(10)), 0.5);
/// ```
#[derive(Debug)]
pub struct FcfsStation<J> {
    servers: u32,
    /// The clocks of the servers `occupancy` counts busy (their drop to
    /// idle is not yet recorded), earliest first. Idle servers need no
    /// clock: any of them serves an arrival at once.
    busy: BinaryHeap<Reverse<Clock>>,
    /// Evented jobs not yet started, in arrival order (and so in start
    /// order).
    waiting: VecDeque<Waiter<J>>,
    occupancy: TimeWeighted,
    /// The latest time the station was offered a job or a completion.
    /// Touches must come in time order: a late one would rewrite
    /// occupancy the station has already recorded.
    touched: SimTime,
}

impl<J> FcfsStation<J> {
    /// Creates a station with `servers` identical servers. Allocates
    /// nothing: clocks fill on the first arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "an FcfsStation needs at least one server");
        FcfsStation {
            servers,
            busy: BinaryHeap::new(),
            waiting: VecDeque::new(),
            occupancy: TimeWeighted::new(SimTime::ZERO, 0.0),
            touched: SimTime::ZERO,
        }
    }

    /// Offers a job that needs no completion event at `now`.
    pub fn arrive_lazy(&mut self, now: SimTime, service: SimDuration) {
        self.settle(now);
        self.assign(now, service, true);
    }

    /// Offers `job`, whose completion the caller schedules, at `now`. See
    /// [`Arrival`] for what the caller must schedule.
    pub fn arrive(&mut self, now: SimTime, service: SimDuration, job: J) -> Arrival<J> {
        self.settle(now);
        let Some(ahead) = self.assign(now, service, false) else {
            return Arrival::Started(job);
        };
        self.waiting.push_back(Waiter {
            arrived: now,
            start: ahead.free_at(),
            job,
        });
        if ahead.lazy() {
            Arrival::Handoff(ahead.free_at())
        } else {
            Arrival::Queued
        }
    }

    /// Reports a completion event at `now`, either an evented job's or a
    /// requested hand-off. Returns the evented job that starts now, if
    /// one is waiting for this instant.
    pub fn complete(&mut self, now: SimTime) -> Option<Admitted<J>> {
        self.settle(now);
        if self.waiting.front()?.start != now {
            return None;
        }
        let w = self.waiting.pop_front()?;
        Some(Admitted {
            job: w.job,
            waited: now.since(w.arrived),
        })
    }

    /// Mean fraction of server capacity in use through `now` (0..=1).
    pub fn utilization(&self, now: SimTime) -> f64 {
        let mut due: Vec<SimTime> = self
            .busy
            .iter()
            .map(|c| c.0.free_at())
            .filter(|&t| t <= now)
            .collect();
        due.sort_unstable();
        let mut occupancy = self.occupancy;
        for (dropped, t) in due.into_iter().enumerate() {
            occupancy.set(t, (self.busy.len() - dropped - 1) as f64);
        }
        occupancy.mean(now) / f64::from(self.servers)
    }

    /// Assigns a job to the server that frees first. Returns `None` when
    /// it starts now, else the clock of the job ahead of it.
    fn assign(&mut self, now: SimTime, service: SimDuration, lazy: bool) -> Option<Clock> {
        if self.busy.len() < self.servers as usize {
            if self.busy.capacity() == 0 {
                self.busy.reserve_exact(self.servers as usize);
            }
            self.busy.push(Reverse(Clock::new(now + service, lazy)));
            self.occupancy.set(now, self.busy.len() as f64);
            return None;
        }
        // Every server is busy past `now` (settled): queue behind the first
        // to free, which stays busy.
        let mut first = self
            .busy
            .peek_mut()
            .expect("every server is busy here, and there is at least one");
        let ahead = first.0;
        first.0 = Clock::new(ahead.free_at() + service, lazy);
        Some(ahead)
    }

    /// Records every drop to idle due by `now`, in time order. O(1) when
    /// none is due.
    fn settle(&mut self, now: SimTime) {
        debug_assert!(
            self.waiting.front().is_none_or(|w| w.start >= now),
            "an evented job was left waiting past its start time"
        );
        debug_assert!(
            now >= self.touched,
            "station touched at {now} after a touch at {}",
            self.touched
        );
        self.touched = now;
        while let Some(&Reverse(c)) = self.busy.peek() {
            if c.free_at() > now {
                break;
            }
            self.busy.pop();
            self.occupancy.set(c.free_at(), self.busy.len() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lazy_work_is_timed_without_events() {
        let mut st: FcfsStation<()> = FcfsStation::new(1);
        st.arrive_lazy(at(0), secs(2));
        st.arrive_lazy(at(1), secs(2)); // starts at 2, ends at 4
        assert_eq!(st.utilization(at(4)), 1.0);
        assert_eq!(st.utilization(at(8)), 0.5);
    }

    #[test]
    fn evented_job_behind_evented_job_is_queued() {
        let mut st = FcfsStation::new(1);
        assert_eq!(st.arrive(at(0), secs(2), 'a'), Arrival::Started('a'));
        assert_eq!(st.arrive(at(1), secs(2), 'b'), Arrival::Queued);
        let next = st.complete(at(2)).unwrap();
        assert_eq!((next.job, next.waited), ('b', secs(1)));
        assert!(st.complete(at(4)).is_none());
    }

    #[test]
    fn arrivals_take_the_server_that_frees_first() {
        let mut st = FcfsStation::new(2);
        st.arrive_lazy(at(0), secs(5));
        st.arrive_lazy(at(0), secs(3));
        // Both busy: the 3 s server frees first.
        assert_eq!(st.arrive(at(1), secs(1), 'a'), Arrival::Handoff(at(3)));
        assert_eq!(st.complete(at(3)).unwrap().waited, secs(2));
    }

    #[test]
    fn a_tie_prefers_the_evented_server() {
        let mut st = FcfsStation::new(2);
        st.arrive_lazy(at(0), secs(3));
        assert_eq!(st.arrive(at(0), secs(3), 'a'), Arrival::Started('a'));
        assert_eq!(st.arrive(at(1), secs(1), 'b'), Arrival::Queued);
        assert_eq!(st.complete(at(3)).unwrap().job, 'b');
    }

    #[test]
    fn zero_service_jobs_leave_no_occupancy() {
        let mut st = FcfsStation::new(1);
        st.arrive_lazy(at(1), SimDuration::ZERO);
        assert_eq!(
            st.arrive(at(1), SimDuration::ZERO, 'a'),
            Arrival::Started('a')
        );
        assert!(st.complete(at(1)).is_none());
        assert_eq!(st.utilization(at(2)), 0.0);
    }

    #[test]
    fn reads_do_not_disturb_later_settling() {
        let mut st: FcfsStation<()> = FcfsStation::new(2);
        st.arrive_lazy(at(0), secs(4));
        st.arrive_lazy(at(2), secs(4));
        let peek = st.utilization(at(5));
        st.arrive_lazy(at(5), secs(1));
        assert!((peek - 7.0 / 10.0).abs() < 1e-12);
        // 0-2: 1 busy, 2-4: 2, 4-5: 1, 5-6: 2 => 9 server-seconds of 12.
        assert!((st.utilization(at(6)) - 9.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "station touched at")]
    fn touches_out_of_time_order_are_caught() {
        let mut st: FcfsStation<()> = FcfsStation::new(1);
        st.arrive_lazy(at(5), secs(1));
        st.arrive_lazy(at(4), secs(1));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _: FcfsStation<()> = FcfsStation::new(0);
    }
}
