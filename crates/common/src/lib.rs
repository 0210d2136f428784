//! Shared primitives for the Predictor-Directed Stream Buffer simulator.
//!
//! This crate collects the small, dependency-free building blocks used by
//! every other crate in the workspace:
//!
//! * [`Addr`] / [`Cycle`] — newtypes for byte addresses and simulation time,
//!   so that the two most commonly confused `u64` quantities in a
//!   cycle-level simulator cannot be mixed up silently.
//! * [`SatCounter`] — saturating up/down counters, the workhorse of every
//!   confidence and priority mechanism in the paper.
//! * [`SplitMix64`] — a tiny deterministic PRNG so that workload traces are
//!   reproducible bit-for-bit across platforms and toolchain versions.
//! * [`stats`] — running means and histograms used by the experiment
//!   harness.
//!
//! # Example
//!
//! ```
//! use psb_common::{Addr, SatCounter};
//!
//! let a = Addr::new(0x1040);
//! assert_eq!(a.block(32).0, 0x1040 / 32);
//!
//! let mut conf = SatCounter::new(7);
//! conf.inc();
//! conf.inc();
//! assert_eq!(conf.get(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod counter;
mod cycle;
/// The prefetch event stream: the plain-data `Event` and its sink trait.
pub mod event;
/// Metric handles (counters, histograms, gauges) shared with `psb-obs`.
pub mod metrics;
mod rng;
/// Streaming statistics: counters, running means, histograms.
pub mod stats;

pub use addr::{Addr, BlockAddr, PageAddr};
pub use counter::SatCounter;
pub use cycle::Cycle;
pub use rng::SplitMix64;
