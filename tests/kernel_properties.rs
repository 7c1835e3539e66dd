//! Kernel event-queue properties: [`EventQueue`] must pop exactly what a
//! sorted `(time, insertion index)` model pops, under any interleaving of
//! schedules, pops and horizon-bounded pops, at time scales from 1 µs to
//! past 2^42 µs and with same-instant ties, and every pop must record its
//! `(time, seq, next_seq)` as this thread's [`dispatch_pos`].

use cpsim_des::{dispatch_pos, EventQueue, SimTime};
use proptest::prelude::*;

/// One scripted queue operation, applied to the queue and the model.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `SCALES[scale] * mult + off` µs.
    Schedule { scale: u8, mult: u64, off: u64 },
    /// Schedule `n` more events at the last scheduled instant.
    Tie { n: usize },
    /// Pop up to `n` events.
    Pop { n: usize },
    /// Pop every event at or before `SCALES[scale] * mult + off` µs.
    PopIfBefore { scale: u8, mult: u64, off: u64 },
}

/// Time scales from within one microsecond-wide step up to and past
/// 2^42 µs (~51 simulated days), the far-future range.
const SCALES: &[u64] = &[
    1,
    64,
    4096,
    262_144,
    1 << 24,
    1 << 36,
    (1 << 42) - 64,
    1 << 42,
];

fn micros(scale: u8, mult: u64, off: u64) -> u64 {
    SCALES[scale as usize].saturating_mul(mult) + off
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let time = (0u8..SCALES.len() as u8, 0u64..6, 0u64..130);
    let schedule = time
        .clone()
        .prop_map(|(scale, mult, off)| Op::Schedule { scale, mult, off });
    // The schedule arm appears twice: biasing toward schedules keeps the
    // queue populated so pops have entries to chew on.
    prop_oneof![
        schedule.clone(),
        schedule,
        (1usize..4).prop_map(|n| Op::Tie { n }),
        (1usize..40).prop_map(|n| Op::Pop { n }),
        time.prop_map(|(scale, mult, off)| Op::PopIfBefore { scale, mult, off }),
    ]
}

/// The queue under test next to its model, which holds the pending
/// `(time µs, insertion index)` pairs in ascending order.
struct Pair {
    queue: EventQueue<usize>,
    model: Vec<(u64, usize)>,
    scheduled: usize,
}

impl Pair {
    fn schedule(&mut self, t: u64) {
        let i = self.scheduled;
        self.queue.schedule(SimTime::from_micros(t), i);
        let at = self.model.partition_point(|&(mt, _)| mt <= t);
        self.model.insert(at, (t, i));
        self.scheduled += 1;
    }

    /// Pops from both: with `pop` when `horizon` is `None`, else with
    /// `pop_if_before(horizon)`. Checks the queue agreed with the model
    /// and recorded the pop as its dispatch position; returns whether an
    /// event was popped.
    fn pop(&mut self, horizon: Option<u64>) -> bool {
        assert_eq!(self.queue.len(), self.model.len());
        assert_eq!(
            self.queue.next_time(),
            self.model.first().map(|&(t, _)| SimTime::from_micros(t))
        );
        let got = match horizon {
            None => self.queue.pop(),
            Some(h) => self.queue.pop_if_before(SimTime::from_micros(h)),
        };
        let want = match self.model.first() {
            Some(&(t, _)) if t <= horizon.unwrap_or(u64::MAX) => Some(self.model.remove(0)),
            _ => None,
        };
        assert_eq!(got.map(|(t, i)| (t.as_micros(), i)), want);
        if let Some((t, i)) = want {
            let pos = dispatch_pos();
            assert_eq!(
                (pos.time, pos.seq, pos.next_seq),
                (SimTime::from_micros(t), i as u64, self.scheduled as u64),
                "pop did not record its dispatch position"
            );
        }
        want.is_some()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn event_queue_matches_sorted_model_under_schedule_pop_churn(
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let mut pair = Pair { queue: EventQueue::new(), model: Vec::new(), scheduled: 0 };
        let mut last = 0;
        for op in &ops {
            match *op {
                Op::Schedule { scale, mult, off } => {
                    last = micros(scale, mult, off);
                    pair.schedule(last);
                }
                Op::Tie { n } => {
                    for _ in 0..n {
                        pair.schedule(last);
                    }
                }
                Op::Pop { n } => {
                    for _ in 0..n {
                        if !pair.pop(None) {
                            break;
                        }
                    }
                }
                Op::PopIfBefore { scale, mult, off } => {
                    let horizon = micros(scale, mult, off);
                    while pair.pop(Some(horizon)) {}
                    if let Some(&(t, _)) = pair.model.first() {
                        prop_assert!(t > horizon, "left an in-horizon event unpopped");
                    }
                }
            }
            prop_assert_eq!(pair.queue.is_empty(), pair.model.is_empty());
        }
        // Drain to the end: every remaining event must agree.
        while pair.pop(None) {}
        prop_assert!(pair.queue.is_empty());
    }
}
