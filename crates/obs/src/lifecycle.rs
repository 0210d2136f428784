//! Prefetch-lifecycle accounting: where prefetches go to die.
//!
//! Every prefetched block moves through the stages the paper's Figures
//! 6–9 argue about:
//!
//! ```text
//! predicted → issued → filled → used            (a demand access consumed it)
//!     │         │        └────→ evicted unused  (its buffer was reallocated first)
//!     │         ├────→ used late                (demanded while still in flight)
//!     │         └────→ evicted unused           (reallocated while in flight)
//!     └────→ demand raced                       (a demand miss reached it first)
//! ```
//!
//! A predicted entry still waiting to issue when its buffer is
//! reallocated ends in no counted stage.
//!
//! [`LifecycleStats`] holds the aggregate counts the hub accumulates from
//! the event stream ([`psb_common::event::Event`]).

use crate::json::Json;
use psb_common::stats::RunningMean;

/// Aggregate counts over every prefetch lifecycle stage.
#[derive(Clone, Debug, Default)]
pub struct LifecycleStats {
    /// Stream buffers (re)allocated to a new stream.
    pub streams_allocated: u64,
    /// Predictions accepted into a stream-buffer entry.
    pub predicted: u64,
    /// Prefetches issued to the memory system.
    pub issued: u64,
    /// Prefetched blocks that arrived and became demand-hittable.
    pub filled: u64,
    /// Prefetched blocks consumed by a demand access (includes late uses).
    pub used: u64,
    /// Uses that arrived late: the demand access hit a block still in
    /// flight and stalled for the remainder of its fill.
    pub used_late: u64,
    /// Cycles of residual latency paid by late uses.
    pub late_cycles: RunningMean,
    /// Entries holding a fetched block (in flight or arrived) that were
    /// discarded when their buffer was reallocated to a new stream.
    pub evicted_unused: u64,
    /// Predicted (not yet issued) entries freed because a demand miss
    /// reached them before the prefetch port did.
    pub demand_raced: u64,
}

impl LifecycleStats {
    /// Serializes the counts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("streams_allocated", Json::u64(self.streams_allocated)),
            ("predicted", Json::u64(self.predicted)),
            ("issued", Json::u64(self.issued)),
            ("filled", Json::u64(self.filled)),
            ("used", Json::u64(self.used)),
            ("used_late", Json::u64(self.used_late)),
            ("late_cycles_mean", Json::f64(self.late_cycles.mean())),
            ("evicted_unused", Json::u64(self.evicted_unused)),
            ("demand_raced", Json::u64(self.demand_raced)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_serialize_every_stage() {
        let mut s = LifecycleStats {
            predicted: 10,
            issued: 8,
            filled: 7,
            used: 5,
            used_late: 2,
            evicted_unused: 3,
            ..Default::default()
        };
        s.late_cycles.add(12);
        s.late_cycles.add(4);
        let j = s.to_json();
        assert_eq!(j.get("predicted").and_then(Json::as_u64), Some(10));
        assert_eq!(j.get("used").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("used_late").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("evicted_unused").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("late_cycles_mean").and_then(Json::as_f64), Some(8.0));
    }
}
