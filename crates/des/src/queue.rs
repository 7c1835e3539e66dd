//! The pending-event set: a binary min-heap of `(time, seq, slot)` keys
//! over a payload slab.
//!
//! The sequence number breaks ties between events scheduled for the same
//! instant in insertion order, which makes runs fully deterministic: the
//! pop order is exactly ascending `(time, seq)`, and `slot` never decides
//! a comparison because seqs are unique.
//!
//! Payloads live in a slab (`Vec<Option<E>>` plus a free list) so heap
//! sifts move only the 24-byte key; a steady-state simulation reuses slab
//! slots and performs no per-event allocation. Storing payloads inline in
//! the heap entries measured slower on the saturate workload and larger
//! at peak (DESIGN.md §Performance, "Event queue").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A future-event set holding events of type `E`.
///
/// ```
/// use cpsim_des::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Pending `(time, seq, slot)` keys, earliest first; `slot` indexes
    /// `slab`.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Payloads by slot. Invariant: the slot of every pending key holds
    /// `Some`, and `free` lists exactly the `None` slots.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pending events the heap and slab have room for on creation. Every
/// cpbench probe's pending set passes this (115–569 at peak), so a run
/// skips the first four doublings of both vectors. Starting from empty
/// made cpbench's `characterize` `peak_rss_mb` swing by 12–14% with the
/// length of the executable's path (DESIGN.md §Performance, "Event
/// queue").
const INITIAL_CAPACITY: usize = 64;

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(INITIAL_CAPACITY),
            slab: Vec::with_capacity(INITIAL_CAPACITY),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events at the same instant fire in the order they were scheduled.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((time, self.next_seq, slot)));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event, if any, and records its
    /// position as this thread's [`dispatch_pos`](crate::dispatch_pos).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((time, seq, slot)) = self.heap.pop()?;
        crate::dispatch::record_pop(time, seq, self.next_seq);
        self.free.push(slot);
        // Always `Some` by the slab invariant.
        self.slab[slot as usize].take().map(|event| (time, event))
    }

    /// Removes and returns the earliest event **if it fires at or before
    /// `horizon`**; otherwise leaves the queue untouched.
    #[inline]
    pub fn pop_if_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.next_time()? > horizon {
            return None;
        }
        self.pop()
    }

    /// The seq the next scheduled event will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_time", &self.next_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 5);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_fifo_survives_interleaved_pops_and_heavy_mixing() {
        // FIFO-at-same-instant must hold even when the same-instant batch
        // is interleaved with earlier/later events and partial pops —
        // the case a queue restructure could silently break.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(10);
        for i in 0..10 {
            q.schedule(t, ("tied", i));
            q.schedule(SimTime::from_secs(20 + i as u64), ("late", i));
        }
        q.schedule(SimTime::from_secs(1), ("early", 0));
        assert_eq!(q.pop().unwrap().1, ("early", 0));
        for i in 10..50 {
            q.schedule(t, ("tied", i));
        }
        let mut tied = Vec::new();
        while let Some((time, e)) = q.pop() {
            if time == t {
                tied.push(e.1);
            }
        }
        assert_eq!(tied, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn next_time_peeks_without_removal() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.next_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_if_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "a");
        q.schedule(SimTime::from_secs(9), "b");
        assert_eq!(q.pop_if_before(SimTime::from_secs(4)), None);
        assert_eq!(q.len(), 2, "a miss must not disturb the queue");
        assert_eq!(
            q.pop_if_before(SimTime::from_secs(5)),
            Some((SimTime::from_secs(5), "a"))
        );
        assert_eq!(q.pop_if_before(SimTime::from_secs(5)), None);
        assert_eq!(
            q.pop_if_before(SimTime::MAX),
            Some((SimTime::from_secs(9), "b"))
        );
        assert_eq!(q.pop_if_before(SimTime::MAX), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_secs(1), "c"); // earlier than "b", fine to add
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn far_future_events_round_trip() {
        // Times far apart (multiples of 2^42 µs, ~51 days) and a same-time
        // tie among them still pop in (time, seq) order.
        let mut q = EventQueue::new();
        let span = 1u64 << 42;
        q.schedule(SimTime::from_micros(3 * span + 17), "far-c");
        q.schedule(SimTime::from_micros(span + 5), "far-a");
        q.schedule(SimTime::from_micros(42), "near");
        q.schedule(SimTime::from_micros(span + 5), "far-b");
        assert_eq!(q.next_time(), Some(SimTime::from_micros(42)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far-a");
        assert_eq!(q.pop().unwrap().1, "far-b");
        assert_eq!(q.pop().unwrap().1, "far-c");
        assert!(q.is_empty());
    }

    #[test]
    fn random_workout_matches_sorted_reference() {
        // Deterministic pseudo-random schedule/pop storm against a sorted
        // reference: the queue must agree with a stable sort by (time, seq).
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u64)> = Vec::new(); // (time_us, payload)
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for round in 0..50u64 {
            for _ in 0..40 {
                let t = next(10_000);
                let payload = next(u64::MAX);
                q.schedule(SimTime::from_micros(t), payload);
                expected.push((t, payload));
            }
            // Pop a prefix bounded by a horizon.
            let horizon = round * 200;
            expected.sort_by_key(|&(t, _)| t); // stable: preserves insertion order per t
            while let Some((t, got)) = q.pop_if_before(SimTime::from_micros(horizon)) {
                let (et, ep) = expected.remove(0);
                assert_eq!((et, ep), (t.as_micros(), got));
            }
            if let Some(&(et, _)) = expected.first() {
                assert!(et > horizon);
            }
        }
        expected.sort_by_key(|&(t, _)| t);
        while let Some((t, got)) = q.pop() {
            let (et, ep) = expected.remove(0);
            assert_eq!((et, ep), (t.as_micros(), got));
        }
        assert!(expected.is_empty());
    }

    #[test]
    fn steady_state_timer_churn_reuses_slab_capacity() {
        // A heartbeat-like workload (schedule on pop) must not grow the
        // payload slab beyond its steady-state live count.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule(SimTime::from_micros(i * 13), i);
        }
        for _ in 0..10_000 {
            let (t, i) = q.pop().expect("queue is kept at 64 live entries");
            q.schedule(t + crate::SimDuration::from_micros(997), i);
        }
        assert_eq!(q.len(), 64);
        assert!(
            q.slab.len() <= 65,
            "slab should stay at steady-state size, got {}",
            q.slab.len()
        );
    }
}
