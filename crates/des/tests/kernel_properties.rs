//! Property-based tests of the simulation kernel.

use cpsim_des::{
    Arrival, EventQueue, FcfsStation, FifoQueue, SharedBandwidth, SimDuration, SimTime,
};
use proptest::prelude::*;

proptest! {
    /// Events always pop in nondecreasing time order, with insertion
    /// order breaking ties.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(i > li, "tie not broken by insertion order");
                }
            }
            last = Some((t, i));
        }
    }

    /// The shared-bandwidth engine conserves work: total bytes moved
    /// equals total bytes offered, and all flows complete.
    #[test]
    fn shared_bandwidth_conserves_work(
        sizes in proptest::collection::vec(1.0f64..1e7, 1..40),
        starts in proptest::collection::vec(0u64..10_000_000, 1..40),
        rate in 1e3f64..1e9,
    ) {
        let n = sizes.len().min(starts.len());
        let mut offers: Vec<(u64, f64)> = starts[..n]
            .iter()
            .copied()
            .zip(sizes[..n].iter().copied())
            .collect();
        offers.sort_by_key(|(t, _)| *t);

        let mut bw: SharedBandwidth<usize> = SharedBandwidth::new(rate);
        let mut plan = None;
        let mut finished = 0usize;
        let mut pending: Vec<(u64, f64)> = offers.clone();
        pending.reverse();

        // Interleave starts and ticks in time order.
        loop {
            let next_start = pending.last().map(|(t, _)| SimTime::from_micros(*t));
            let next_tick = plan.map(|p: cpsim_des::TransferPlan| p.next_completion);
            match (next_start, next_tick) {
                (None, None) => break,
                (Some(ts), tick) if tick.is_none() || ts <= tick.unwrap() => {
                    let (t, bytes) = pending.pop().unwrap();
                    let key = offers.len() - pending.len() - 1;
                    plan = bw.start(SimTime::from_micros(t), key, bytes);
                }
                (_, Some(tt)) => {
                    let p = plan.take().unwrap();
                    if let Some(done) = bw.on_tick(tt, p.epoch) {
                        finished += done.finished.len();
                        plan = done.plan;
                    }
                }
                (Some(_), None) => unreachable!("guarded arm above covers this"),
            }
        }
        prop_assert_eq!(finished, offers.len());
        prop_assert_eq!(bw.active(), 0);
        let total: f64 = offers.iter().map(|(_, b)| b).sum();
        let moved = bw.bytes_moved(SimTime::MAX);
        prop_assert!((moved - total).abs() < 1.0 + total * 1e-9,
            "moved {moved} vs offered {total}");
    }

    /// FIFO queues conserve jobs and never exceed their server count.
    #[test]
    fn fifo_conserves_jobs(ops in proptest::collection::vec(any::<bool>(), 1..200), servers in 1u32..5) {
        let mut q: FifoQueue<u32> = FifoQueue::new(servers);
        let mut t = 0u64;
        let mut submitted = 0u64;
        let mut completed = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_micros(t);
            if op {
                q.arrive(now, submitted as u32);
                submitted += 1;
            } else if q.in_service() > 0 {
                q.complete(now);
                completed += 1;
            }
            prop_assert!(q.in_service() <= servers);
            // Conservation: submitted = completed + in_service + waiting.
            prop_assert_eq!(
                submitted,
                completed + u64::from(q.in_service()) + q.queue_len() as u64
            );
        }
    }

    /// The clock-based FCFS station replays an event-driven `FifoQueue`:
    /// every evented job starts at the same time and waits as long, and
    /// utilization agrees to rounding, while lazy jobs cost no event.
    /// Arrivals may share a microsecond, with each other and with
    /// completions, and services may be zero. A chained arrival is
    /// scheduled by the arrival before it, so it can fall on either side
    /// of a same-instant completion in event order.
    #[test]
    fn fcfs_station_matches_event_driven_fifo(
        jobs in proptest::collection::vec((0u64..3, 0u64..8, any::<bool>(), any::<bool>()), 1..200),
        servers in 1u32..6,
    ) {
        #[derive(Clone, Copy)]
        enum Ev {
            Arrive(usize),
            Done,
        }
        let mut t = 0;
        let arrivals: Vec<SimTime> = jobs
            .iter()
            .map(|&(gap, ..)| {
                t += gap;
                SimTime::from_micros(t)
            })
            .collect();
        let service = |i: usize| SimDuration::from_micros(jobs[i].1);
        let lazy = |i: usize| jobs[i].2;
        let chained = |i: usize| i > 0 && jobs[i].3;
        let seeded = || {
            let mut q = EventQueue::new();
            for (i, &at) in arrivals.iter().enumerate().filter(|&(i, _)| !chained(i)) {
                q.schedule(at, Ev::Arrive(i));
            }
            q
        };
        let chain = |q: &mut EventQueue<Ev>, i: usize| {
            if i + 1 < jobs.len() && chained(i + 1) {
                q.schedule(arrivals[i + 1], Ev::Arrive(i + 1));
            }
        };

        // Oracle: every job gets a completion event.
        let mut fifo: FifoQueue<usize> = FifoQueue::new(servers);
        let mut fifo_start = vec![None; jobs.len()];
        let mut fifo_waited = vec![SimDuration::ZERO; jobs.len()];
        let mut fifo_events = 0;
        let mut q = seeded();
        let mut end = SimTime::ZERO;
        while let Some((now, ev)) = q.pop() {
            end = now;
            let started = match ev {
                Ev::Arrive(i) => {
                    chain(&mut q, i);
                    fifo.arrive(now, i)
                }
                Ev::Done => {
                    fifo_events += 1;
                    fifo.complete(now)
                }
            };
            if let Some(adm) = started {
                fifo_start[adm.job] = Some(now);
                fifo_waited[adm.job] = adm.waited;
                q.schedule(now + service(adm.job), Ev::Done);
            }
        }

        let mut st: FcfsStation<usize> = FcfsStation::new(servers);
        let mut st_start = vec![None; jobs.len()];
        let mut st_events = 0;
        let mut q = seeded();
        while let Some((now, ev)) = q.pop() {
            if let Ev::Arrive(i) = ev {
                chain(&mut q, i);
            }
            match ev {
                Ev::Arrive(i) if lazy(i) => st.arrive_lazy(now, service(i)),
                Ev::Arrive(i) => match st.arrive(now, service(i), i) {
                    Arrival::Started(i) => {
                        st_start[i] = Some(now);
                        q.schedule(now + service(i), Ev::Done);
                    }
                    Arrival::Queued => {}
                    Arrival::Handoff(at) => q.schedule(at, Ev::Done),
                },
                Ev::Done => {
                    st_events += 1;
                    if let Some(adm) = st.complete(now) {
                        prop_assert_eq!(adm.waited, fifo_waited[adm.job]);
                        st_start[adm.job] = Some(now);
                        q.schedule(now + service(adm.job), Ev::Done);
                    }
                }
            }
        }

        for i in (0..jobs.len()).filter(|&i| !lazy(i)) {
            prop_assert!(st_start[i].is_some(), "evented job {} never started", i);
            prop_assert_eq!(st_start[i], fifo_start[i], "job {}", i);
        }
        prop_assert!(st_events <= fifo_events);
        let horizon = end + SimDuration::from_micros(1);
        let (a, b) = (fifo.utilization(horizon), st.utilization(horizon));
        prop_assert!((a - b).abs() <= 1e-12 * a.abs().max(b.abs()), "utilization {} vs {}", a, b);
    }
}
