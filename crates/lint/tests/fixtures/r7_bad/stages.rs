//! R7 fixture (violating): `EventQueue::pop_if_before` is a declared hot
//! entry point that never calls `EventQueue::drain` by name. It runs its
//! steps out of the module-level `STAGES` table, so `drain`'s `.unwrap()`
//! is reachable only through the table and must still be flagged.

pub struct EventQueue {
    stage: usize,
    len: u64,
}

impl EventQueue {
    pub fn pop_if_before(&mut self) -> u64 {
        match STAGES.get(self.stage) {
            Some(step) => step(self),
            None => 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.len
    }

    fn drain(&mut self) -> u64 {
        self.len.checked_sub(1).unwrap()
    }
}

const STAGES: &[fn(&mut EventQueue) -> u64] = &[EventQueue::tick, EventQueue::drain];
