//! Synthetic benchmark trace generators for the PSB reproduction.
//!
//! The paper evaluates on six Alpha binaries (Table 1): `health`, `burg`,
//! `deltablue`, `gs`, `sis` and `turb3d`. Running those binaries requires
//! DEC compilers and SimpleScalar's functional Alpha engine, so this crate
//! substitutes *models*: each generator executes a simplified version of
//! the program's data structures (a real simulated heap, real pointer
//! links, real branch outcomes) and emits the correct-path dynamic
//! instruction stream with true register dependences.
//!
//! What is preserved — and what the paper's experiments actually measure —
//! is the *L1 miss address stream* of each program class:
//!
//! * repeatable pointer chases (health, burg, deltablue) that only a
//!   Markov predictor can follow,
//! * mixed stride + pointer behaviour (gs),
//! * allocation-thrashing miss floods (sis), and
//! * pure strides (turb3d).
//!
//! See `DESIGN.md` §4–5 for the substitution argument.
//!
//! # Example
//!
//! ```
//! use psb_workloads::Benchmark;
//!
//! let trace = Benchmark::Health.trace(1);
//! assert!(trace.len() >= 300_000);
//! // Traces are deterministic: same call, same instructions.
//! assert_eq!(trace[0], Benchmark::Health.trace(1)[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmark;
mod burg;
mod cache;
mod deltablue;
mod gs;
mod health;
mod heap;
mod serial;
mod sis;
mod trace;
mod turb3d;

pub use benchmark::{Benchmark, ParseBenchmarkError};
pub use cache::{clear_trace_cache, trace_cache_len, SharedTrace};
pub use heap::SyntheticHeap;
pub use serial::{read_trace, write_trace};
pub use trace::{validate_trace, TraceBuilder, TraceMix};
