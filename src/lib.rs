//! Umbrella crate re-exporting the PSB reproduction workspace.
//!
//! See the workspace `README.md` for the project overview. The individual
//! crates are:
//!
//! * [`common`] — addresses, cycles, counters, PRNG, statistics.
//! * [`mem`] — caches, MSHRs, buses, DRAM, TLB.
//! * [`cpu`] — the out-of-order superscalar core model.
//! * [`core`] — the paper's contribution: address predictors and
//!   predictor-directed stream buffers.
//! * [`workloads`] — the synthetic benchmark suite.
//! * [`sim`] — the full-system simulator and experiment harness.
//! * [`obs`] — observability: metrics registry, prefetch-lifecycle
//!   tracing, interval time series and JSON artifacts.
//!
//! # Quickstart
//!
//! ```no_run
//! use psb::sim::{MachineConfig, PrefetcherKind, Simulation};
//! use psb::workloads::Benchmark;
//!
//! let config = MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority);
//! let stats = Simulation::new(config, Benchmark::Health.trace(1), 200_000).run();
//! assert!(stats.ipc() > 0.0);
//! ```

pub use psb_common as common;
pub use psb_core as core;
pub use psb_cpu as cpu;
pub use psb_mem as mem;
pub use psb_obs as obs;
pub use psb_sim as sim;
pub use psb_workloads as workloads;
