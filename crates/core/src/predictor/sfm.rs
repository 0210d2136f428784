//! The Stride-Filtered Markov (SFM) predictor — the predictor the paper
//! uses to direct its stream buffers.

use crate::predictor::{AllocInfo, MarkovTable, StreamPredictor, StreamState, StrideTable};
use crate::StreamObs;
use psb_common::metrics::Counter;
use psb_common::Addr;

/// A two-delta stride table in front of a differential Markov table
/// (Figure 3 of the paper).
///
/// **Training** (write-back stage, missing loads only): the load PC
/// indexes the stride table. "If the stride calculated by (current miss
/// address − last address) does not match the last stride or 2-delta
/// stride, then the Markov table is updated noting the transition from
/// last address to current address." The per-PC accuracy confidence is
/// "incremented every time the load's update address matches the
/// prediction of the stride or Markov table, and decremented when it does
/// not match."
///
/// **Prediction** (one per cycle, shared among stream buffers): "the last
/// address is (1) looked up in the Markov table, and (2) used to calculate
/// a next stride address. If the Markov table hits, then the Markov
/// address is used, otherwise the next stride address is used." The
/// stream's own `last_addr` advances; the tables are untouched.
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// use psb_core::{SfmPredictor, StreamPredictor, StreamState};
///
/// let mut p = SfmPredictor::paper_baseline();
/// let pc = Addr::new(0x1000);
/// // A repeating pointer-chase miss pattern (non-strided):
/// for _ in 0..2 {
///     for a in [0x8000u64, 0x13040, 0xb020, 0x22060] {
///         p.train(pc, Addr::new(a));
///     }
/// }
/// // The stream now follows the chain through the Markov table:
/// let mut s = StreamState::new(pc, Addr::new(0x8000), 32);
/// assert_eq!(p.predict(&mut s), Some(Addr::new(0x13040)));
/// assert_eq!(p.predict(&mut s), Some(Addr::new(0xb020)));
/// ```
#[derive(Clone, Debug)]
pub struct SfmPredictor {
    stride: StrideTable,
    markov: MarkovTable,
    block: u64,
    /// Training updates the stride filter absorbed (kept out of Markov).
    obs_stride_filtered: Option<Counter>,
    /// Training updates that landed in the Markov table.
    obs_markov_trained: Option<Counter>,
}

impl SfmPredictor {
    /// The paper's configuration: 256-entry 4-way stride table filtering a
    /// 2K-entry 16-bit differential Markov table, over 32-byte blocks.
    pub fn paper_baseline() -> Self {
        SfmPredictor::new(StrideTable::paper_baseline(), MarkovTable::paper_baseline(), 32)
    }

    /// Composes a predictor from its parts. `block` is the cache block
    /// size in bytes (predictions are made at block granularity).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two.
    pub fn new(stride: StrideTable, markov: MarkovTable, block: u64) -> Self {
        assert!(block.is_power_of_two(), "block size must be a power of two");
        SfmPredictor { stride, markov, block, obs_stride_filtered: None, obs_markov_trained: None }
    }

    /// Read-only access to the stride stage.
    pub fn stride_table(&self) -> &StrideTable {
        &self.stride
    }

    /// Read-only access to the Markov stage.
    pub fn markov_table(&self) -> &MarkovTable {
        &self.markov
    }

    /// Block size in bytes.
    pub fn block(&self) -> u64 {
        self.block
    }
}

impl StreamPredictor for SfmPredictor {
    fn train(&mut self, pc: Addr, addr: Addr) {
        let out = self.stride.train(pc, addr);
        let Some(prev) = out.prev_addr else {
            return; // first sighting of this PC: nothing to correlate yet
        };
        let prev_block = prev.block(self.block);
        let addr_block = addr.block(self.block);
        let markov_correct = self.markov.predict(prev_block) == Some(addr_block);
        if out.stride_correct || out.repeat_stride {
            if let Some(c) = &self.obs_stride_filtered {
                c.inc();
            }
        } else {
            self.markov.update(prev_block, addr_block);
            if let Some(c) = &self.obs_markov_trained {
                c.inc();
            }
        }
        self.stride.confirm(pc, out.stride_correct || markov_correct);
    }

    fn alloc_info(&self, pc: Addr, addr: Addr) -> Option<AllocInfo> {
        self.stride.info(pc, addr).map(|i| AllocInfo {
            stride: i.stride,
            confidence: i.confidence,
            // The paper's generalized two-miss filter: "two cache misses
            // in a row, and both times the load would have been correctly
            // predicted using the stride predictor or the Markov
            // predictor".
            two_miss_ok: i.predicted_streak >= 2,
            history: 0,
        })
    }

    fn predict(&self, state: &mut StreamState) -> Option<Addr> {
        let cur_block = state.last_addr.block(self.block);
        let next = match self.markov.predict(cur_block) {
            Some(b) => b.base(self.block),
            None => state.last_addr.offset(state.stride),
        };
        state.history = state.last_addr.raw();
        state.last_addr = next;
        Some(next)
    }

    fn attach_obs(&mut self, obs: &dyn StreamObs) {
        self.obs_stride_filtered = Some(obs.counter("sfm.train.stride_filtered"));
        self.obs_markov_trained = Some(obs.counter("sfm.train.markov_updates"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_common::BlockAddr;

    fn train_seq(p: &mut SfmPredictor, pc: u64, addrs: &[u64]) {
        for &a in addrs {
            p.train(Addr::new(pc), Addr::new(a));
        }
    }

    #[test]
    fn strided_loads_stay_out_of_markov() {
        let mut p = SfmPredictor::paper_baseline();
        train_seq(&mut p, 0x1000, &[0x8000, 0x8040, 0x8080, 0x80c0, 0x8100]);
        // Strides matched: at most the first (cold->second) transition may
        // have landed in the Markov table.
        assert!(p.markov_table().updates() <= 1, "updates = {}", p.markov_table().updates());
        // Predictions fall through to the stride path.
        let mut s = StreamState::new(Addr::new(0x1000), Addr::new(0x8100), 64);
        assert_eq!(p.predict(&mut s), Some(Addr::new(0x8140)));
    }

    #[test]
    fn pointer_chase_lands_in_markov_and_replays() {
        let mut p = SfmPredictor::paper_baseline();
        let chain = [0x10000u64, 0x2a040, 0x17080, 0x330c0, 0x10000];
        train_seq(&mut p, 0x2000, &chain);
        train_seq(&mut p, 0x2000, &chain[1..]); // revisit to stabilize
        let mut s = StreamState::new(Addr::new(0x2000), Addr::new(0x10000), 32);
        let walked: Vec<u64> = (0..4).map(|_| p.predict(&mut s).unwrap().raw()).collect();
        assert_eq!(walked, vec![0x2a040, 0x17080, 0x330c0, 0x10000]);
    }

    #[test]
    fn markov_hit_overrides_stride() {
        let mut p = SfmPredictor::paper_baseline();
        // Record a transition from block A to an unrelated block B.
        let a = Addr::new(0x50000);
        let b = Addr::new(0x91000);
        train_seq(&mut p, 0x3000, &[a.raw(), b.raw(), a.raw(), b.raw()]);
        let mut s = StreamState::new(Addr::new(0x3000), a, 32);
        assert_eq!(p.predict(&mut s), Some(b.block_base(32)));
    }

    #[test]
    fn stride_fallback_when_markov_cold() {
        let p = SfmPredictor::paper_baseline();
        let mut s = StreamState::new(Addr::new(0x4000), Addr::new(0x1000), 96);
        assert_eq!(p.predict(&mut s), Some(Addr::new(0x1060)));
        assert_eq!(p.predict(&mut s), Some(Addr::new(0x10c0)));
    }

    #[test]
    fn confidence_rises_for_markov_predictable_loads() {
        let mut p = SfmPredictor::paper_baseline();
        let chain = [0x10000u64, 0x2a040, 0x17080, 0x330c0];
        // Repeat the chase several times: after the first lap the Markov
        // table predicts every step, so confidence must climb even though
        // strides never repeat.
        for _ in 0..5 {
            train_seq(&mut p, 0x5000, &chain);
        }
        let info = p.alloc_info(Addr::new(0x5000), Addr::new(0x330c0)).unwrap();
        assert!(info.confidence >= 4, "confidence = {}", info.confidence);
        assert!(info.two_miss_ok);
    }

    #[test]
    fn confidence_stays_low_for_random_loads() {
        let mut p = SfmPredictor::paper_baseline();
        let mut x = 0x12345u64;
        for _ in 0..30 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.train(Addr::new(0x6000), Addr::new((x >> 16) & 0xffff_ffe0));
        }
        let info = p.alloc_info(Addr::new(0x6000), Addr::new(0)).unwrap();
        assert!(info.confidence <= 1, "confidence = {}", info.confidence);
        assert!(!info.two_miss_ok);
    }

    #[test]
    fn predictions_do_not_mutate_tables() {
        let mut p = SfmPredictor::paper_baseline();
        train_seq(&mut p, 0x7000, &[0x1000, 0x9000, 0x1000, 0x9000]);
        let updates_before = p.markov_table().updates();
        let mut s = StreamState::new(Addr::new(0x7000), Addr::new(0x1000), 32);
        for _ in 0..10 {
            p.predict(&mut s);
        }
        assert_eq!(p.markov_table().updates(), updates_before);
    }

    #[test]
    fn block_granularity_prediction() {
        let mut p = SfmPredictor::paper_baseline();
        // Addresses in the middle of blocks; predictions come back
        // block-aligned.
        train_seq(&mut p, 0x8000, &[0x1010, 0x5028, 0x1010, 0x5028]);
        let mut s = StreamState::new(Addr::new(0x8000), Addr::new(0x1010), 32);
        let next = p.predict(&mut s).unwrap();
        assert_eq!(next, Addr::new(0x5020), "markov target is the block base");
        assert_eq!(next.block(32), BlockAddr(0x5028 / 32));
    }
}
