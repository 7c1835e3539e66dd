//! The pending-event set: a hybrid **hierarchical timer wheel** ordered by
//! `(time, sequence)`.
//!
//! The sequence number breaks ties between events scheduled for the same
//! instant in insertion order, which makes runs fully deterministic.
//!
//! # Structure
//!
//! Scheduling in this workspace is dominated by near-horizon periodic
//! traffic (heartbeats, service completions, transfer ticks, sync timers)
//! plus a long tail of pre-scheduled arrivals. A comparison heap pays
//! O(log n) cache-missing levels per operation for that mix; a timer wheel
//! pays O(1) amortized. The queue therefore routes every entry to one of
//! three structures, by its time `t` relative to a monotone `cursor` (the
//! time the queue has popped up to):
//!
//! - **wheel** (`t >= cursor`, within `WHEEL_BITS` bits of it): a
//!   hierarchical timer wheel of `LEVELS` levels x `SLOTS` slots with a
//!   1 µs tick. Level `L` buckets are `64^L` µs wide; an entry lives at the
//!   *highest* level where its time digit differs from the cursor's
//!   (base-64 digits of the µs timestamp), so each entry cascades at most
//!   `LEVELS - 1` times before it is popped from a level-0 bucket.
//!   Per-level occupancy bitmaps make find-min a handful of word scans.
//! - **early heap** (`t < cursor`): a small four-ary min-heap. The cursor
//!   may run ahead of the last popped event (it advances to bucket
//!   *bases* while cascading), so an entry scheduled between the last pop
//!   and the next pending event lands here, pops first, and keeps the
//!   wheel's alignment invariants intact. It holds at most the handful of
//!   imminent events a handler emits between two pops.
//! - **overflow heap** (`t` beyond the wheel span): a four-ary min-heap
//!   for the far future (> ~51 simulated days ahead). Drained a
//!   top-level block at a time when the wheel runs dry.
//!
//! # Determinism
//!
//! The pop order is exactly ascending `(time, seq)`, matching the
//! reference heap ([`crate::reference::ReferenceQueue`], the previous
//! implementation, kept as a property-test oracle):
//!
//! - early-heap entries are strictly earlier than the cursor and wheel
//!   entries never earlier, so the three sources never tie across
//!   structures; within a heap the comparison key is `(time, seq)`.
//! - a level-0 bucket spans a single microsecond **of a single top-level
//!   block**, so all its entries share one timestamp; FIFO order within
//!   the bucket *is* seq order, because appends happen either at schedule
//!   time (the new entry carries the globally largest seq) or during a
//!   cascade/overflow drain, which moves entries in `(time, seq)` order
//!   and only into buckets at lower levels (same-time entries share every
//!   digit, hence travel together and stay ordered).
//!
//! # Payload pooling
//!
//! Payloads live in a slab (`Vec<Option<E>>` plus a free list); the wheel,
//! heaps, and cascades move only 24-byte `(time, seq, slot)` entries. A
//! steady-state simulation reuses slab slots and bucket capacity, so
//! scheduling performs no per-event allocation and large payload types are
//! written once and read once.
//!
//! # Cancellation
//!
//! Two mechanisms coexist, unchanged from the heap kernel:
//!
//! - the legacy *tombstone pattern*: components that need to reschedule a
//!   completion carry a [`TimerToken`](crate::TimerToken) in the event
//!   payload and ignore events whose token is stale on delivery (see
//!   [`TokenGen`](crate::TokenGen));
//! - queue-level cancellation: [`EventQueue::schedule_keyed`] returns an
//!   [`EventKey`] that [`EventQueue::cancel`] can later mark dead. Dead
//!   events are skipped as they surface (the queue *front* is never a
//!   tombstone), counted (see [`EventQueue::live_len`] /
//!   [`EventQueue::tombstoned_len`]), and **compacted away** automatically
//!   once they dominate, so a workload that cancels heavily cannot bloat
//!   the pending set.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Membership-only set of sequence numbers (cancellation bookkeeping).
///
/// Hash ordering cannot leak into event order: `cancelled` and `keyed` are
/// only probed (`contains`/`remove`/`insert`) and bulk-dropped
/// (`retain`/`clear`); nothing ever iterates them into an emit path, and the
/// O(1) probe sits on the pop hot path where a `BTreeSet` would pay an
/// extra O(log n) per event (and SipHash a measurable per-probe cost, hence
/// [`FastSet`](crate::hash::FastSet)).
// cpsim-lint: allow(no-unordered-iteration): membership-only probes on the pop hot path; iteration order is never observed
type SeqSet = crate::hash::FastSet<u64>;

/// Bits per wheel level: 64 slots each.
const SLOT_BITS: usize = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot-index mask within a level.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Wheel levels. Seven levels of 64 slots cover `2^42` µs (~51 simulated
/// days) from the cursor; anything further sits in the overflow heap.
const LEVELS: usize = 7;
/// Total bits of timestamp the wheel resolves.
const WHEEL_BITS: usize = SLOT_BITS * LEVELS;

/// Arity of the early/overflow heaps (see [`crate::reference`] for why
/// four-ary beats binary here).
const ARITY: usize = 4;

/// Compact when tombstones outnumber live events and there are at least
/// this many of them (small queues are not worth the rebuild).
const COMPACT_MIN_TOMBSTONES: usize = 64;

/// One pending occurrence: when, in what order, and where its payload is.
///
/// `Copy` and 24 bytes, so heap sifts and wheel cascades never touch the
/// payload slab.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Identifies one scheduled event for cancellation (see
/// [`EventQueue::schedule_keyed`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey(pub(crate) u64);

/// Where the cached front entry physically lives, so `take_front` can
/// remove it without re-running [`EventQueue::position`].
///
/// Only meaningful while `front` is `Some`; a stale value is never read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FrontLoc {
    /// Root of the early heap.
    Early,
    /// Front of level-0 bucket `slot`. Valid because the front is the
    /// global minimum: every other physical entry (tombstones included)
    /// has a larger `(time, seq)` key, and same-bucket entries share one
    /// timestamp, so nothing can sit ahead of it in the deque.
    Bucket(u32),
    /// Overflow heap or a level > 0 bucket: `take_front` positions first.
    Deep,
}

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
    /// Wheel buckets, `buckets[level * SLOTS + slot]`. A bucket holds its
    /// entries in seq order (see the module docs for why appends preserve
    /// this).
    buckets: Vec<VecDeque<Entry>>,
    /// Per-level occupancy bitmaps: bit `s` set iff `buckets[l*SLOTS+s]`
    /// is non-empty.
    occ: [u64; LEVELS],
    /// Entries earlier than the cursor (four-ary min-heap by `(time, seq)`).
    early: Vec<Entry>,
    /// Entries beyond the wheel span (four-ary min-heap by `(time, seq)`).
    overflow: Vec<Entry>,
    /// The µs timestamp the queue has resolved up to. Invariants: every
    /// wheel/overflow entry has `time >= cursor`; every early entry has
    /// `time < cursor`; the cursor never decreases.
    cursor: u64,
    /// The exact `(time, seq)` of the earliest pending entry, `None` iff
    /// the queue holds no entries at all. Invariant: the front is never a
    /// tombstone (cancelled entries are discarded as they surface), so
    /// peeks need no mutation and `is_empty` is `front.is_none()`.
    front: Option<(SimTime, u64)>,
    /// Physical location of the front entry (see [`FrontLoc`]).
    front_loc: FrontLoc,
    /// Total pending entries, **including** tombstones.
    count: usize,
    next_seq: u64,
    /// Payload slab: `entries` point into it by index; `free` recycles
    /// vacated slots so steady-state scheduling allocates nothing.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// Sequence numbers cancelled while still pending (never the front).
    cancelled: SeqSet,
    /// Sequence numbers scheduled via [`schedule_keyed`](Self::schedule_keyed)
    /// and still pending: lets `cancel` decide pendingness exactly in O(1).
    /// Plain [`schedule`](Self::schedule) never touches it, so the common
    /// (uncancellable) path pays only an is-empty branch per pop.
    keyed: SeqSet,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occ: [0; LEVELS],
            early: Vec::new(),
            overflow: Vec::new(),
            cursor: 0,
            front: None,
            front_loc: FrontLoc::Deep,
            count: 0,
            next_seq: 0,
            slab: Vec::new(),
            free: Vec::new(),
            cancelled: SeqSet::default(),
            keyed: SeqSet::default(),
        }
    }

    // ---- slab ------------------------------------------------------------

    #[inline]
    fn alloc_slot(&mut self, event: E) -> u32 {
        if let Some(s) = self.free.pop() {
            self.slab[s as usize] = Some(event);
            s
        } else {
            let s = self.slab.len() as u32;
            self.slab.push(Some(event));
            s
        }
    }

    /// Vacates `slot` and returns its payload.
    #[inline]
    fn take_slot(&mut self, slot: u32) -> Option<E> {
        let e = self.slab[slot as usize].take();
        self.free.push(slot);
        e
    }

    /// Vacates `slot`, dropping its payload (tombstone discard).
    #[inline]
    fn drop_slot(&mut self, slot: u32) {
        self.slab[slot as usize] = None;
        self.free.push(slot);
    }

    // ---- scheduling ------------------------------------------------------

    /// Files `e` into the structure its time calls for and reports where
    /// it landed. Preserves every placement invariant; does not touch
    /// `count` or `front`.
    #[inline]
    fn insert(&mut self, e: Entry) -> FrontLoc {
        let t = e.time.as_micros();
        if t < self.cursor {
            heap_push(&mut self.early, e);
            return FrontLoc::Early;
        }
        let x = t ^ self.cursor;
        if x >> WHEEL_BITS != 0 {
            heap_push(&mut self.overflow, e);
            return FrontLoc::Deep;
        }
        // Highest base-64 digit where `t` differs from the cursor; equal
        // times live in the cursor's own level-0 slot.
        let level = if x == 0 {
            0
        } else {
            (63 - x.leading_zeros() as usize) / SLOT_BITS
        };
        let slot = ((t >> (SLOT_BITS * level)) & SLOT_MASK) as usize;
        self.buckets[level * SLOTS + slot].push_back(e);
        self.occ[level] |= 1u64 << slot;
        if level == 0 {
            FrontLoc::Bucket(slot as u32)
        } else {
            FrontLoc::Deep
        }
    }

    #[inline]
    fn push_entry(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot(event);
        let loc = self.insert(Entry { time, seq, slot });
        self.count += 1;
        // A new entry carries the largest seq ever issued, so it improves
        // the front only on strictly earlier time.
        match self.front {
            Some((ft, _)) if ft <= time => {}
            _ => {
                self.front = Some((time, seq));
                self.front_loc = loc;
            }
        }
        seq
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events at the same instant fire in the order they were scheduled.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.push_entry(time, event);
    }

    /// Schedules `event` at `time` and returns a key that can later
    /// [`cancel`](Self::cancel) it.
    pub fn schedule_keyed(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.push_entry(time, event);
        self.keyed.insert(seq);
        EventKey(seq)
    }

    // ---- wheel positioning -----------------------------------------------

    /// Drains one top-level block of the overflow heap into the wheel.
    /// Caller guarantees the wheel is empty and the overflow is not; both
    /// together make the cursor jump (to the block base) safe.
    fn migrate_overflow(&mut self) {
        let Some(root) = self.overflow.first() else {
            return;
        };
        let block = root.time.as_micros() >> WHEEL_BITS;
        self.cursor = block << WHEEL_BITS;
        while let Some(e) = heap_pop_if(&mut self.overflow, |r| {
            r.time.as_micros() >> WHEEL_BITS == block
        }) {
            self.insert(e);
        }
    }

    /// Cascades until the wheel minimum (if any) sits in a level-0
    /// bucket; returns that slot index. Advances the cursor to bucket
    /// bases as it narrows, which is what keeps cascade work amortized
    /// O(1): each entry re-files at a strictly lower level every time.
    fn position(&mut self) -> Option<usize> {
        loop {
            let mut level = LEVELS;
            for (l, &occ) in self.occ.iter().enumerate() {
                if occ != 0 {
                    level = l;
                    break;
                }
            }
            if level == LEVELS {
                if self.overflow.is_empty() {
                    return None;
                }
                self.migrate_overflow();
                continue;
            }
            let slot = self.occ[level].trailing_zeros() as usize;
            if level == 0 {
                return Some(slot);
            }
            // Step the cursor into this bucket's sub-span: digits above
            // `level` are already shared, digit `level` becomes `slot`,
            // lower digits reset to zero. All remaining wheel entries are
            // in this bucket or later ones, so the cursor still trails
            // every pending wheel entry.
            let width = SLOT_BITS * level;
            self.cursor =
                (self.cursor & !((1u64 << (width + SLOT_BITS)) - 1)) | ((slot as u64) << width);
            self.occ[level] &= !(1u64 << slot);
            let idx = level * SLOTS + slot;
            let mut bucket = std::mem::take(&mut self.buckets[idx]);
            for e in bucket.drain(..) {
                self.insert(e);
            }
            // Hand the allocation back so steady-state cascades reuse it.
            self.buckets[idx] = bucket;
        }
    }

    /// Pops the earliest wheel entry (positioning first). Caller
    /// guarantees the early heap is empty, so this entry is the front.
    #[inline]
    fn pop_wheel(&mut self) -> Option<Entry> {
        let slot = self.position()?;
        let bucket = &mut self.buckets[slot];
        let e = bucket.pop_front()?;
        self.cursor = e.time.as_micros();
        if bucket.is_empty() {
            self.occ[0] &= !(1u64 << slot);
        }
        Some(e)
    }

    /// Removes and returns the front entry (live by invariant), without
    /// touching the slab or recomputing the front. Uses the cached
    /// [`FrontLoc`] to skip re-positioning in the common cases.
    #[inline]
    fn take_front(&mut self) -> Option<Entry> {
        self.front?;
        let e = match self.front_loc {
            FrontLoc::Early => heap_pop(&mut self.early),
            FrontLoc::Bucket(slot) => {
                let s = slot as usize;
                let e = self.buckets[s].pop_front();
                if let Some(en) = e {
                    // Same jump `pop_wheel` would make: the front is the
                    // global minimum, so no pending entry precedes it.
                    self.cursor = en.time.as_micros();
                    if self.buckets[s].is_empty() {
                        self.occ[0] &= !(1u64 << s);
                    }
                }
                e
            }
            FrontLoc::Deep => {
                if self.early.is_empty() {
                    self.pop_wheel()
                } else {
                    heap_pop(&mut self.early)
                }
            }
        }?;
        self.count -= 1;
        Some(e)
    }

    /// Recomputes `front` from the structures. Early entries are strictly
    /// earlier than anything in the wheel, so the early root wins outright
    /// when present.
    #[inline]
    fn recompute_front(&mut self) {
        if let Some(r) = self.early.first() {
            self.front = Some((r.time, r.seq));
            self.front_loc = FrontLoc::Early;
            return;
        }
        self.front = match self.position() {
            Some(slot) => {
                self.front_loc = FrontLoc::Bucket(slot as u32);
                self.buckets[slot].front().map(|e| (e.time, e.seq))
            }
            None => None,
        };
    }

    /// Restores the front-is-live invariant: recomputes the front and
    /// physically discards any tombstones that surface there.
    fn settle_front(&mut self) {
        loop {
            self.recompute_front();
            let Some((_, seq)) = self.front else { return };
            if self.cancelled.is_empty() || !self.cancelled.remove(&seq) {
                return;
            }
            let Some(e) = self.take_front() else { return };
            self.drop_slot(e.slot);
        }
    }

    // ---- public queue operations ----------------------------------------

    /// Cancels a pending event by key; returns whether the key was live.
    ///
    /// Cancellation is O(1): the entry is tombstoned in place and skipped
    /// when it surfaces at the queue front. Tombstones are compacted away
    /// in bulk (O(n)) once they outnumber live events, so heavy
    /// cancellation cannot bloat the pending set. Cancelling an
    /// already-fired or already-cancelled key returns `false` and does
    /// nothing.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if !self.keyed.remove(&key.0) {
            return false;
        }
        // Fast path: cancelling the front removes it immediately, keeping
        // the "front is live" invariant without a set lookup on every peek.
        if let Some((_, seq)) = self.front {
            if seq == key.0 {
                if let Some(e) = self.take_front() {
                    self.drop_slot(e.slot);
                }
                self.settle_front();
                return true;
            }
        }
        self.cancelled.insert(key.0);
        if self.cancelled.len() >= COMPACT_MIN_TOMBSTONES && self.cancelled.len() * 2 > self.count {
            self.compact();
        }
        true
    }

    /// Physically removes every tombstoned entry from all three
    /// structures and frees their slab slots.
    ///
    /// Pop order is unaffected: surviving entries keep their `(time, seq)`
    /// keys, bucket retention preserves in-bucket order, and the heaps are
    /// re-heapified under the same comparison. The front is live by
    /// invariant, so it always survives.
    fn compact(&mut self) {
        let cancelled = &mut self.cancelled;
        let slab = &mut self.slab;
        let free = &mut self.free;
        let mut removed = 0usize;
        let mut keep = |e: &Entry| {
            if cancelled.remove(&e.seq) {
                slab[e.slot as usize] = None;
                free.push(e.slot);
                removed += 1;
                false
            } else {
                true
            }
        };
        self.early.retain(|e| keep(e));
        self.overflow.retain(|e| keep(e));
        for level in 0..LEVELS {
            let mut occ = self.occ[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let idx = level * SLOTS + slot;
                self.buckets[idx].retain(|e| keep(e));
                if self.buckets[idx].is_empty() {
                    self.occ[level] &= !(1u64 << slot);
                }
            }
        }
        heapify(&mut self.early);
        heapify(&mut self.overflow);
        self.count -= removed;
        // Anything left in the set referred to entries no longer pending;
        // drop it so misuse cannot leak.
        cancelled.clear();
    }

    /// Removes and returns the earliest live event, if any, and records
    /// its position as this thread's [`dispatch_pos`](crate::dispatch_pos).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.take_front()?;
        crate::dispatch::record_pop(e.time, e.seq, self.next_seq);
        if !self.keyed.is_empty() {
            self.keyed.remove(&e.seq);
        }
        let event = self
            .take_slot(e.slot)
            .expect("slab slot stays filled while its entry is pending");
        self.settle_front();
        Some((e.time, event))
    }

    /// Removes and returns the earliest live event **if it fires at or
    /// before `horizon`**; otherwise leaves the queue untouched.
    ///
    /// This fuses the peek-compare-pop sequence of an event loop bounded
    /// by a time horizon into one cached-front comparison.
    #[inline]
    pub fn pop_if_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        // The front is never tombstoned, so its time is authoritative.
        let (t, _) = self.front?;
        if t > horizon {
            return None;
        }
        self.pop()
    }

    /// The seq the next scheduled event will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The timestamp of the earliest pending live event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.front.map(|(t, _)| t)
    }

    /// Number of pending entries, **including** tombstoned ones.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Number of pending events that will actually fire (excludes
    /// tombstoned entries awaiting compaction).
    pub fn live_len(&self) -> usize {
        self.count - self.cancelled.len()
    }

    /// Number of cancelled entries still occupying queue slots.
    pub fn tombstoned_len(&self) -> usize {
        self.cancelled.len()
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        // Tombstones are discarded as they surface at the front and
        // compaction keeps them a minority, so the queue cannot consist
        // solely of tombstones: no front means no entries at all.
        self.front.is_none()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live_len())
            .field("tombstoned", &self.tombstoned_len())
            .field("next_time", &self.next_time())
            .finish()
    }
}

// ---- four-ary heap helpers (early/overflow) ------------------------------

#[inline]
fn heap_push(h: &mut Vec<Entry>, e: Entry) {
    h.push(e);
    let mut i = h.len() - 1;
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if h[i].key() < h[parent].key() {
            h.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

#[inline]
fn heap_pop(h: &mut Vec<Entry>) -> Option<Entry> {
    let len = h.len();
    if len == 0 {
        return None;
    }
    h.swap(0, len - 1);
    let e = h.pop();
    if !h.is_empty() {
        sift_down(h, 0);
    }
    e
}

/// Pops the root only when `pred` accepts it (overflow block drains).
#[inline]
fn heap_pop_if(h: &mut Vec<Entry>, pred: impl Fn(&Entry) -> bool) -> Option<Entry> {
    if pred(h.first()?) {
        heap_pop(h)
    } else {
        None
    }
}

#[inline]
fn sift_down(h: &mut [Entry], mut i: usize) {
    let len = h.len();
    loop {
        let first = ARITY * i + 1;
        if first >= len {
            break;
        }
        let mut min = first;
        let end = (first + ARITY).min(len);
        for c in first + 1..end {
            if h[c].key() < h[min].key() {
                min = c;
            }
        }
        if h[min].key() < h[i].key() {
            h.swap(min, i);
            i = min;
        } else {
            break;
        }
    }
}

/// Floyd heapify: sift down from the last parent to the root.
fn heapify(h: &mut [Entry]) {
    if h.len() > 1 {
        let last_parent = (h.len() - 2) / ARITY;
        for i in (0..=last_parent).rev() {
            sift_down(h, i);
        }
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
    fn cancel_skips_event_and_tracks_counts() {
        let mut q = EventQueue::new();
        let _a = q.schedule_keyed(SimTime::from_secs(1), "a");
        let b = q.schedule_keyed(SimTime::from_secs(2), "b");
        let _c = q.schedule_keyed(SimTime::from_secs(3), "c");
        assert!(q.cancel(b));
        assert_eq!(q.len(), 3);
        assert_eq!(q.live_len(), 2);
        assert_eq!(q.tombstoned_len(), 1);
        assert!(!q.cancel(b), "double-cancel is a no-op");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "c"]);
        assert_eq!(q.tombstoned_len(), 0);
    }

    #[test]
    fn cancel_front_keeps_next_time_accurate() {
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(SimTime::from_secs(1), "a");
        let _b = q.schedule_keyed(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        // The cancelled front must not leak into peeks.
        assert_eq!(q.next_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop_if_before(SimTime::from_secs(1)), None);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn popping_never_leaves_a_tombstone_at_the_front() {
        // Regression: cancel a non-front entry, then pop the front. The
        // tombstone surfaces, and every peek-based API must behave as if
        // it were gone.
        let mut q = EventQueue::new();
        let _a = q.schedule_keyed(SimTime::from_secs(1), "a");
        let b = q.schedule_keyed(SimTime::from_secs(2), "b");
        let _c = q.schedule_keyed(SimTime::from_secs(3), "c");
        assert!(q.cancel(b));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.next_time(), Some(SimTime::from_secs(3)));
        assert_eq!(
            q.pop_if_before(SimTime::from_secs(2)),
            None,
            "cancelled front must not admit a past-horizon event"
        );
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.tombstoned_len(), 0, "tombstone discarded on surfacing");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_fast_path_skips_surfacing_tombstones() {
        // Regression: cancelling the front removes it; the entry that
        // surfaces in its place may itself be tombstoned and must be
        // discarded too.
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(SimTime::from_secs(1), "a");
        let b = q.schedule_keyed(SimTime::from_secs(2), "b");
        let _c = q.schedule_keyed(SimTime::from_secs(3), "c");
        assert!(q.cancel(b));
        assert!(q.cancel(a));
        assert_eq!(q.next_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.tombstoned_len(), 0);
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn is_empty_true_when_all_remaining_entries_are_cancelled() {
        let mut q = EventQueue::new();
        let _a = q.schedule_keyed(SimTime::from_secs(1), "a");
        let b = q.schedule_keyed(SimTime::from_secs(2), "b");
        assert!(q.cancel(b));
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(q.is_empty(), "only a tombstone remained");
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.next_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a));
        assert_eq!(q.tombstoned_len(), 0, "no phantom tombstone");
    }

    #[test]
    fn tombstones_are_compacted_when_they_dominate() {
        let mut q = EventQueue::new();
        let keys: Vec<EventKey> = (0..1000)
            .map(|i| q.schedule_keyed(SimTime::from_secs(1 + i), i))
            .collect();
        // Cancel all but every 10th event; compaction must kick in well
        // before the end and keep the queue from filling with tombstones.
        for (i, k) in keys.iter().enumerate() {
            if i % 10 != 0 {
                q.cancel(*k);
            }
        }
        assert_eq!(q.live_len(), 100);
        assert!(
            q.len() < 300,
            "tombstones should have been compacted: len={}",
            q.len()
        );
        // Survivors still pop in order.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..1000).step_by(10).collect::<Vec<_>>());
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
    fn debug_shows_live_and_tombstoned() {
        let mut q = EventQueue::new();
        let _a = q.schedule_keyed(SimTime::from_secs(1), 1);
        let b = q.schedule_keyed(SimTime::from_secs(2), 2);
        q.cancel(b);
        let dbg = format!("{q:?}");
        assert!(dbg.contains("live: 1"), "{dbg}");
        assert!(dbg.contains("tombstoned: 1"), "{dbg}");
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        // Events beyond the wheel span (2^42 µs ≈ 51 days) sit in the
        // overflow heap and drain back through the wheel in order.
        let mut q = EventQueue::new();
        let span = 1u64 << 42;
        q.schedule(SimTime::from_micros(3 * span + 17), "far-c");
        q.schedule(SimTime::from_micros(span + 5), "far-a");
        q.schedule(SimTime::from_micros(42), "near");
        q.schedule(SimTime::from_micros(span + 5), "far-b"); // same-time tie across blocks
        assert_eq!(q.next_time(), Some(SimTime::from_micros(42)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far-a");
        assert_eq!(q.pop().unwrap().1, "far-b");
        assert_eq!(q.pop().unwrap().1, "far-c");
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_before_cursor_lands_in_early_heap_and_pops_first() {
        // Popping advances the cursor to bucket bases ahead of the popped
        // time; a subsequent schedule in that gap must still pop before
        // everything later.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), "a");
        q.schedule(SimTime::from_micros(1_000_000), "z");
        assert_eq!(q.pop().unwrap().1, "a");
        // Cursor has advanced toward "z"; 200 µs is now behind it.
        q.schedule(SimTime::from_micros(200), "b");
        q.schedule(SimTime::from_micros(150), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "z");
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
        assert_eq!(q.live_len(), 64);
        assert!(
            q.slab.len() <= 65,
            "slab should stay at steady-state size, got {}",
            q.slab.len()
        );
    }
}
