//! Synchronization primitives: `std::sync` re-exports in normal builds,
//! model-checked shims under `--cfg psb_model`.
//!
//! The module mirrors the `std::sync` paths used by the workspace so
//! that swapping `use std::sync::X` for `use psb_model::sync::X` is the
//! whole migration:
//!
//! * [`Mutex`] / [`MutexGuard`] (poisoning included)
//! * [`OnceLock`]
//! * [`atomic`] — `AtomicUsize`, `Ordering`
//! * [`mpsc`] — `channel`, `Sender`, `Receiver` and their error types
//!
//! `Arc` is deliberately **not** shimmed: reference counting is not a
//! scheduling-visible synchronization point for the properties this
//! checker verifies (orderings, exactly-once initialization, deadlock
//! freedom), so modeled code keeps using `std::sync::Arc`.

#[cfg(not(psb_model))]
pub use std::sync::{Mutex, MutexGuard, OnceLock};

#[cfg(psb_model)]
pub use crate::sched::sync_impl::{Mutex, MutexGuard, OnceLock};

/// Atomic types routed through the model scheduler under `psb_model`.
pub mod atomic {
    #[cfg(not(psb_model))]
    pub use std::sync::atomic::AtomicUsize;

    #[cfg(psb_model)]
    pub use crate::sched::sync_impl::AtomicUsize;

    // Orderings are accepted and recorded but the model executes every
    // atomic access sequentially-consistently: the checker explores
    // interleavings, not weak-memory reorderings.
    pub use std::sync::atomic::Ordering;
}

/// Multi-producer single-consumer channels.
pub mod mpsc {
    #[cfg(not(psb_model))]
    pub use std::sync::mpsc::{channel, IntoIter, Receiver, Sender};

    #[cfg(psb_model)]
    pub use crate::sched::sync_impl::{channel, IntoIter, Receiver, Sender};

    // The error types are shared with std in both modes, so match arms
    // and `?` conversions written against std keep compiling unchanged.
    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};
}
