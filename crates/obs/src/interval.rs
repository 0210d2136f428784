//! Interval time series: per-epoch IPC, miss rate, prefetch accuracy
//! and L1↔L2 bus utilization.
//!
//! The simulator feeds the sampler *cumulative* totals at each epoch
//! boundary; the sampler differences consecutive snapshots so phase
//! behavior (e.g. health's pointer-chase phases) becomes visible without
//! the components having to keep per-epoch counters themselves.
//!
//! # Example
//!
//! ```
//! use psb_obs::interval::{IntervalSampler, IntervalSample};
//!
//! let mut s = IntervalSampler::new(1000);
//! s.record(IntervalSample { cycle: 1000, committed: 800, ..Default::default() });
//! s.record(IntervalSample { cycle: 2000, committed: 1400, ..Default::default() });
//! assert_eq!(s.epochs().len(), 2);
//! assert_eq!(s.epochs()[1].ipc, 0.6);
//! ```

use crate::json::Json;

/// Cumulative totals at a moment in the run. The sampler differences
/// consecutive samples, so every field must be monotonic.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalSample {
    /// Current cycle.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// L1D accesses so far.
    pub l1d_accesses: u64,
    /// L1D misses so far.
    pub l1d_misses: u64,
    /// Prefetches issued so far.
    pub pf_issued: u64,
    /// Prefetched blocks used so far.
    pub pf_used: u64,
    /// L1↔L2 bus busy cycles so far.
    pub l1_l2_busy: u64,
}

/// One closed epoch's rates, computed from two cumulative samples.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Epoch {
    /// First cycle of the epoch.
    pub start_cycle: u64,
    /// Last cycle of the epoch (exclusive).
    pub end_cycle: u64,
    /// Instructions committed within the epoch.
    pub committed: u64,
    /// Instructions per cycle within the epoch.
    pub ipc: f64,
    /// L1D miss rate within the epoch, in `[0, 1]`.
    pub l1d_miss_rate: f64,
    /// Fraction of epoch-issued prefetches that were used, in `[0, 1]`.
    ///
    /// Computed from per-epoch deltas, so a use in epoch *n* of a block
    /// issued in epoch *n−1* can push this above 1.0 transiently.
    pub pf_accuracy: f64,
    /// L1↔L2 bus busy percentage within the epoch. Serialized under the
    /// JSON key `bus_util_pct`: that key is part of the psb-run-v1 bytes
    /// the benchmark's `observed` workload digests, so renaming it (or
    /// adding the L2↔memory series beside it) waits for a benchmark
    /// change.
    pub l1_l2_bus_util_pct: f64,
}

impl Epoch {
    /// Serializes the epoch.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("start", Json::u64(self.start_cycle)),
            ("end", Json::u64(self.end_cycle)),
            ("committed", Json::u64(self.committed)),
            ("ipc", Json::f64(self.ipc)),
            ("l1d_miss_rate", Json::f64(self.l1d_miss_rate)),
            ("pf_accuracy", Json::f64(self.pf_accuracy)),
            ("bus_util_pct", Json::f64(self.l1_l2_bus_util_pct)),
        ])
    }
}

/// Converts cumulative samples into per-epoch rate series.
#[derive(Clone, Debug)]
pub struct IntervalSampler {
    every: u64,
    last: IntervalSample,
    epochs: Vec<Epoch>,
}

impl IntervalSampler {
    /// Creates a sampler with epoch length `every` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    pub fn new(every: u64) -> IntervalSampler {
        assert!(every > 0, "epoch length must be positive");
        IntervalSampler { every, last: IntervalSample::default(), epochs: Vec::new() }
    }

    /// Configured epoch length in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Closes the epoch between the previous sample and `cum`.
    ///
    /// A call that does not advance the cycle is ignored, so the final
    /// flush at run end is safe even when it lands exactly on a
    /// boundary that was already recorded.
    pub fn record(&mut self, cum: IntervalSample) {
        let cycles = cum.cycle.saturating_sub(self.last.cycle);
        if cycles == 0 {
            return;
        }
        let committed = cum.committed - self.last.committed;
        let accesses = cum.l1d_accesses - self.last.l1d_accesses;
        let misses = cum.l1d_misses - self.last.l1d_misses;
        let issued = cum.pf_issued - self.last.pf_issued;
        let used = cum.pf_used - self.last.pf_used;
        let busy = cum.l1_l2_busy - self.last.l1_l2_busy;
        self.epochs.push(Epoch {
            start_cycle: self.last.cycle,
            end_cycle: cum.cycle,
            committed,
            ipc: committed as f64 / cycles as f64,
            l1d_miss_rate: if accesses == 0 { 0.0 } else { misses as f64 / accesses as f64 },
            pf_accuracy: if issued == 0 { 0.0 } else { used as f64 / issued as f64 },
            l1_l2_bus_util_pct: 100.0 * busy as f64 / cycles as f64,
        });
        self.last = cum;
    }

    /// All closed epochs, in time order.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// Serializes the series as an array of epoch objects.
    pub fn to_json(&self) -> Json {
        Json::arr(self.epochs.iter().map(Epoch::to_json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64, committed: u64) -> IntervalSample {
        IntervalSample { cycle, committed, ..Default::default() }
    }

    #[test]
    fn epoch_deltas_not_cumulative_rates() {
        let mut s = IntervalSampler::new(100);
        s.record(IntervalSample {
            cycle: 100,
            committed: 50,
            l1d_accesses: 40,
            l1d_misses: 10,
            pf_issued: 8,
            pf_used: 2,
            l1_l2_busy: 25,
        });
        s.record(IntervalSample {
            cycle: 200,
            committed: 150,
            l1d_accesses: 60,
            l1d_misses: 12,
            pf_issued: 12,
            pf_used: 5,
            l1_l2_busy: 75,
        });
        let e = s.epochs();
        assert_eq!(e.len(), 2);
        // First epoch covers [0, 100).
        assert_eq!((e[0].start_cycle, e[0].end_cycle), (0, 100));
        assert_eq!(e[0].ipc, 0.5);
        assert_eq!(e[0].l1d_miss_rate, 0.25);
        assert_eq!(e[0].pf_accuracy, 0.25);
        assert_eq!(e[0].l1_l2_bus_util_pct, 25.0);
        // Second epoch must report the delta, not the running total:
        // 100 commits over 100 cycles, 2 misses over 20 accesses.
        assert_eq!((e[1].start_cycle, e[1].end_cycle), (100, 200));
        assert_eq!(e[1].ipc, 1.0);
        assert_eq!(e[1].l1d_miss_rate, 0.1);
        assert_eq!(e[1].pf_accuracy, 0.75);
        assert_eq!(e[1].l1_l2_bus_util_pct, 50.0);
    }

    #[test]
    fn zero_width_record_is_ignored() {
        let mut s = IntervalSampler::new(10);
        s.record(sample(10, 5));
        s.record(sample(10, 5)); // final flush landing on a recorded boundary
        assert_eq!(s.epochs().len(), 1);
    }

    #[test]
    fn partial_final_epoch_keeps_true_width() {
        let mut s = IntervalSampler::new(100);
        s.record(sample(100, 100));
        s.record(sample(137, 137)); // run ended mid-epoch
        let e = s.epochs();
        assert_eq!(e.len(), 2);
        assert_eq!((e[1].start_cycle, e[1].end_cycle), (100, 137));
        assert_eq!(e[1].ipc, 1.0);
    }

    #[test]
    fn empty_denominators_are_zero_not_nan() {
        let mut s = IntervalSampler::new(10);
        s.record(sample(10, 0));
        let e = &s.epochs()[0];
        assert_eq!(e.l1d_miss_rate, 0.0);
        assert_eq!(e.pf_accuracy, 0.0);
        assert!(e.to_json().to_string().contains("\"ipc\":0.0"));
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn zero_epoch_length_rejected() {
        let _ = IntervalSampler::new(0);
    }
}
