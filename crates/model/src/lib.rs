//! `psb-model` — concurrency shims with a built-in model checker.
//!
//! Concurrent code in this workspace (the sweep worker pool, the shared
//! trace cache) imports its synchronization primitives from this crate
//! instead of `std::sync`:
//!
//! ```
//! use psb_model::sync::atomic::{AtomicUsize, Ordering};
//! use psb_model::sync::{Mutex, OnceLock};
//! use psb_model::thread;
//! ```
//!
//! In a **normal build** every one of those names is a transparent
//! re-export of the `std` type: zero wrappers, zero overhead, identical
//! semantics.
//!
//! Under **`--cfg psb_model`** (set by `cargo xtask model`) the same
//! names resolve to modeled primitives that route every synchronization
//! point — atomic access, mutex acquire/release, channel send/receive,
//! `OnceLock` initialization, thread spawn/join — through a controlled
//! scheduler ([`sched`]). The scheduler runs a test body thousands of
//! times, each time forcing a different thread interleaving:
//!
//! * **DFS with a bounded preemption budget** — systematically explores
//!   every schedule that preempts a running thread at most N times
//!   (N = 2 by default, the CHESS heuristic: almost all real
//!   concurrency bugs need very few preemptions).
//! * **Seeded random walk** — after the DFS phase, a configurable
//!   number of uniformly random schedules driven by a deterministic
//!   SplitMix64 stream, to sample beyond the preemption bound.
//!
//! Deadlocks (including lost wakeups — a sleeper nobody will ever wake
//! is indistinguishable from deadlock under exhaustive scheduling),
//! livelocks (an operation budget per execution) and panics escaping a
//! modeled thread are all reported as violations, together with a
//! **replayable schedule string**: re-run the same body under
//! [`sched::replay`] (or with `PSB_MODEL_REPLAY=<schedule>` in the
//! environment) to deterministically reproduce the failing
//! interleaving.
//!
//! Only one model exploration may run at a time per process; the model
//! test suites run with `--test-threads=1` (enforced by
//! `cargo xtask model`).
//!
//! [`keyed::KeyedOnce`] — the keyed exactly-once initialization map
//! backing the workloads trace cache — lives here too, built on the
//! shims, so the exact code that runs in production is the code the
//! model checker explores.

#![warn(missing_docs)]
// The scheduler needs `UnsafeCell` + a scoped-spawn lifetime transmute
// (sound for the same reason `std::thread::scope` is: every spawned
// thread is joined before the borrowed frame dies). Normal builds
// compile none of it.
#![cfg_attr(not(psb_model), forbid(unsafe_code))]

/// Keyed exactly-once initialization (the trace-cache backing store).
pub mod keyed;
/// The controlled scheduler: exploration, replay, violation reporting.
#[cfg(psb_model)]
pub mod sched;
/// `std::sync` shims: `Mutex`, `OnceLock`, atomics, mpsc channels.
pub mod sync;
/// `std::thread` shims: scoped threads and the parallelism probe.
pub mod thread;
