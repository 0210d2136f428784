//! Scoped threads: `std::thread` re-exports in normal builds,
//! scheduler-controlled threads under `--cfg psb_model`.
//!
//! Modeled threads are real OS threads, but only one runs at a time:
//! every synchronization point hands a baton to the thread the current
//! schedule names next. Spawning is itself a scheduling point, so the
//! checker explores "child runs immediately" as well as "parent races
//! ahead" interleavings.

#[cfg(not(psb_model))]
pub use std::thread::{available_parallelism, scope, Scope, ScopedJoinHandle};

#[cfg(psb_model)]
pub use crate::sched::thread_impl::{available_parallelism, scope, Scope, ScopedJoinHandle};
