//! The beat train: host heartbeats kept as plane state instead of kernel
//! events.
//!
//! On a plane without fault injection a beat only charges fixed CPU and DB
//! work as background load, which needs no completion event (see
//! [`Owner::Background`](crate::plane::Owner::Background)). So the beat
//! needs no event either: the plane keeps every host's next beat here and
//! replays the due ones into its CPU/DB stations whenever a call is about
//! to touch them (see
//! [`ControlPlane::init_events`](crate::ControlPlane::init_events)).
//!
//! Each beat carries a *virtual seq*, the seq its kernel event would have
//! had, so that due beats are replayed in the kernel's exact
//! `(time, seq)` order ([`cpsim_des::DispatchPos`]).

use std::collections::VecDeque;

use cpsim_des::{DispatchPos, SimDuration, SimTime};

/// One host's next beat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Beat {
    /// When it is due.
    pub at: SimTime,
    /// The seq its event would have had.
    pub seq: u64,
    /// The host's heartbeat slot.
    pub slot: usize,
}

impl Beat {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Pending beats in `(time, virtual seq)` order, ties in insertion order
/// (the order their events would have been scheduled in).
#[derive(Debug, Default)]
pub(crate) struct BeatTrain {
    /// Whether [`arm`](Self::arm) has run: beats of hosts added later
    /// join the train instead of the event queue.
    armed: bool,
    beats: VecDeque<Beat>,
}

impl BeatTrain {
    /// Whether the plane keeps its beats here.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Arms the train with each slot's first beat, at virtual seq 0: the
    /// initial beats are scheduled before anything else. No-op if armed.
    pub fn arm(&mut self, first_beats: impl Iterator<Item = (usize, SimTime)>) {
        if self.armed {
            return;
        }
        self.armed = true;
        let mut beats: Vec<Beat> = first_beats
            .map(|(slot, at)| Beat { at, seq: 0, slot })
            .collect();
        // Stable: slots beating at the same instant keep slot order.
        beats.sort_by_key(Beat::key);
        self.beats.extend(beats);
    }

    /// Adds `beat`. A host's next beat lands one interval after its last
    /// one, so it is never earlier than any pending beat and the push is
    /// O(1); the sorted insert covers the general case.
    pub fn push(&mut self, beat: Beat) {
        match self.beats.back() {
            Some(last) if last.key() > beat.key() => {
                let at = self.beats.partition_point(|b| b.key() <= beat.key());
                self.beats.insert(at, beat);
            }
            _ => self.beats.push_back(beat),
        }
    }

    /// Fires every beat that comes before a call at `now`, in order, and
    /// queues each host's next beat `interval` later. `fire(at, slot)`
    /// does the beat's work and returns whether the host still beats.
    ///
    /// The next beat's virtual seq is the one its event would have been
    /// given when this beat's event fired
    /// ([`DispatchPos::successor_seq`]). The time check runs first, so a
    /// call with nothing due does not read the dispatch position.
    #[inline]
    pub fn replay_due(
        &mut self,
        now: SimTime,
        interval: SimDuration,
        mut fire: impl FnMut(SimTime, usize) -> bool,
    ) {
        let mut pos: Option<DispatchPos> = None;
        while let Some(&front) = self.beats.front() {
            if front.at > now {
                return;
            }
            let p = *pos.get_or_insert_with(cpsim_des::dispatch_pos);
            if !p.precedes(now, front.at, front.seq) {
                return;
            }
            self.beats.pop_front();
            if fire(front.at, front.slot) {
                self.push(Beat {
                    at: front.at + interval,
                    seq: p.successor_seq(front.at),
                    slot: front.slot,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn beat(at: u64, seq: u64, slot: usize) -> Beat {
        Beat {
            at: secs(at),
            seq,
            slot,
        }
    }

    /// Slots fired by a call at `now` outside any dispatch (no simulation
    /// runs on a unit-test thread); no successors.
    fn fire_all(t: &mut BeatTrain, now: u64) -> Vec<usize> {
        let mut fired = Vec::new();
        t.replay_due(secs(now), SimDuration::from_secs(1_000), |_, slot| {
            fired.push(slot);
            false
        });
        fired
    }

    #[test]
    fn arming_orders_by_time_then_slot_and_is_idempotent() {
        let mut t = BeatTrain::default();
        let firsts = [(0, 5), (1, 2), (2, 5)].map(|(s, at)| (s, secs(at)));
        t.arm(firsts.into_iter());
        t.arm(firsts.into_iter());
        assert!(t.is_armed());
        assert_eq!(fire_all(&mut t, 9), [1, 0, 2]);
    }

    #[test]
    fn out_of_order_pushes_are_sorted_in() {
        let mut t = BeatTrain::default();
        t.push(beat(4, 7, 0));
        t.push(beat(4, 3, 1));
        t.push(beat(2, 9, 2));
        t.push(beat(4, 3, 3));
        assert_eq!(fire_all(&mut t, 9), [2, 1, 3, 0]);
    }

    #[test]
    fn replay_stops_at_the_first_beat_not_yet_due() {
        let mut t = BeatTrain::default();
        t.push(beat(1, 0, 0));
        t.push(beat(5, 0, 1));
        assert_eq!(fire_all(&mut t, 4), [0]);
        assert_eq!(fire_all(&mut t, 5), [1]);
    }
}
