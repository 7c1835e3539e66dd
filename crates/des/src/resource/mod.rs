//! Queueing building blocks shared by all simulated resources.
//!
//! These are *passive* state machines: they track occupancy and waiting
//! work, and tell the caller what to start next; the caller owns scheduling
//! (drawing service times and posting the completion events a resource
//! asks for). This keeps the resources independently testable and the
//! kernel free of callbacks. Not every job needs an event: the
//! [`station::FcfsStation`] times jobs whose completion nobody waits on
//! by per-server clocks, and asks for an event only when a waiting job
//! must be handed the server.

pub mod bandwidth;
pub mod fifo;
pub mod slots;
pub mod station;
pub mod timeweighted;
