//! Memory-hierarchy substrate for the PSB simulator.
//!
//! The paper evaluates Predictor-Directed Stream Buffers on a rewritten
//! SimpleScalar memory system that models "bus occupancy, bandwidth, and
//! pipelining of the second level cache and main memory". This crate
//! provides those pieces:
//!
//! * [`Cache`] — a set-associative tag array with true-LRU replacement.
//! * [`Mshr`] — miss status holding registers, so that in-flight blocks can
//!   be merged and counted the way the paper counts them ("accesses to
//!   in-flight data count as cache misses"). It is the one in-flight
//!   table: the L1s use it with a register limit, and [`LowerMemory`]
//!   uses it with none to merge DRAM fetches of one L2 block.
//! * [`Bus`] — a single-occupancy, bandwidth-limited bus (8 B/cycle between
//!   L1 and L2; 4 B/cycle between L2 and memory).
//! * [`ThroughputPipe`] — the pipelined L2 access port (12-cycle latency,
//!   three accesses deep).
//! * [`Tlb`] — a data TLB that models translation timing only, so that
//!   prefetches of *virtual* predicted addresses pay for translation
//!   (the paper's "TLB prefetching"). Caches are indexed by virtual
//!   address.
//! * [`L1Cache`] — a tag array, its MSHRs and, optionally, a
//!   [`VictimCache`] that receives every block the L1 evicts.
//! * [`LowerMemory`] — the composed L2 + memory system behind the L1,
//!   through which both demand misses and stream-buffer prefetches travel.
//!
//! All components are driven by the caller's clock: methods take the
//! current [`Cycle`](psb_common::Cycle) and return completion times; there
//! is no hidden event loop.
//!
//! # Example
//!
//! ```
//! use psb_common::{Addr, Cycle};
//! use psb_mem::{LowerMemory, MemConfig};
//!
//! let mut lower = LowerMemory::new(&MemConfig::baseline());
//! let c = lower.fetch_block(Cycle::ZERO, Addr::new(0x4000), 32);
//! assert!(!c.l2_hit);                  // cold: first touch goes to DRAM
//! assert!(c.ready > Cycle::new(100));  // ... and pays the memory latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod cache;
mod config;
mod l1;
mod lower;
mod mshr;
mod pipe;
mod tlb;
mod victim;

pub use bus::Bus;
pub use cache::{Cache, CacheStats};
pub use config::{CacheConfig, MemConfig};
pub use l1::{L1Access, L1Cache};
pub use lower::{Completion, LowerMemory, LowerStats};
pub use mshr::{Mshr, MshrError};
pub use pipe::ThroughputPipe;
pub use tlb::{Tlb, TlbStats};
pub use victim::{VictimCache, VictimStats};
