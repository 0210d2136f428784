//! A second-order Stride-Filtered Markov predictor — the extension the
//! paper evaluated and found unnecessary.
//!
//! "We examined using higher order Markov predictors as in [Joseph &
//! Grunwald], but found that it provided little improvement, confirming
//! their results." This module implements an order-2 variant so that
//! claim can be re-verified (the `ablate_order` view).

use crate::predictor::{AllocInfo, MarkovTable, StreamPredictor, StreamState, StrideTable};
use psb_common::{Addr, BlockAddr};
use std::collections::HashMap;

/// Folds a two-block history into a single index key for the underlying
/// delta table.
fn fold(prev2: BlockAddr, prev1: BlockAddr) -> BlockAddr {
    // Shift-xor mixing keeps both addresses' bits in play while remaining
    // a pure function (the hardware analog: concatenating partial
    // addresses into the index hash).
    BlockAddr(prev1.0 ^ (prev2.0.rotate_left(21)))
}

/// An order-2 Stride-Filtered Markov predictor.
///
/// Identical to [`crate::SfmPredictor`] except that the Markov stage is
/// indexed by the last *two* miss addresses. The per-PC history needed
/// for training lives beside the stride table (hardware would widen each
/// stride-table entry by one address); the per-stream history rides in
/// [`StreamState::history`].
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// use psb_core::{Sfm2Predictor, StreamPredictor, StreamState};
///
/// let mut p = Sfm2Predictor::paper_baseline();
/// let pc = Addr::new(0x1000);
/// for _ in 0..3 {
///     for a in [0x10_0000u64, 0x12_a040, 0x11_7080] {
///         p.train(pc, Addr::new(a));
///     }
/// }
/// let mut s = StreamState::new(pc, Addr::new(0x12_a040), 32);
/// s.history = 0x10_0000;
/// assert_eq!(p.predict(&mut s), Some(Addr::new(0x11_7080)));
/// ```
#[derive(Clone, Debug)]
pub struct Sfm2Predictor {
    stride: StrideTable,
    markov: MarkovTable,
    /// Per-PC address-before-last (the widened stride-table field).
    prev2: HashMap<u64, Addr>,
    block: u64,
}

impl Sfm2Predictor {
    /// The paper-equivalent geometry: 256-entry stride table, 2K-entry
    /// 16-bit delta table, 32-byte blocks — but order-2 indexing.
    pub fn paper_baseline() -> Self {
        Sfm2Predictor::new(StrideTable::paper_baseline(), MarkovTable::paper_baseline(), 32)
    }

    /// Composes a predictor from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two.
    pub fn new(stride: StrideTable, markov: MarkovTable, block: u64) -> Self {
        assert!(block.is_power_of_two(), "block size must be a power of two");
        Sfm2Predictor { stride, markov, prev2: HashMap::new(), block }
    }

    /// Read-only access to the Markov stage.
    pub fn markov_table(&self) -> &MarkovTable {
        &self.markov
    }
}

impl StreamPredictor for Sfm2Predictor {
    fn train(&mut self, pc: Addr, addr: Addr) {
        let out = self.stride.train(pc, addr);
        let Some(prev1) = out.prev_addr else {
            self.prev2.insert(pc.raw(), addr);
            return;
        };
        let prev2 = self.prev2.insert(pc.raw(), prev1);

        if let Some(prev2) = prev2 {
            let key = fold(prev2.block(self.block), prev1.block(self.block));
            // The delta is stored relative to prev1 (the most recent
            // address), exactly as the order-1 table stores it relative
            // to its index address.
            let markov_correct = self.markov.predict(key).map(|b| b.delta(key))
                == Some(addr.block(self.block).delta(prev1.block(self.block)));
            if !(out.stride_correct || out.repeat_stride) {
                let delta = addr.block(self.block).delta(prev1.block(self.block));
                self.markov.update(key, key.offset(delta));
            }
            self.stride.confirm(pc, out.stride_correct || markov_correct);
        } else {
            self.stride.confirm(pc, out.stride_correct);
        }
    }

    fn alloc_info(&self, pc: Addr, addr: Addr) -> Option<AllocInfo> {
        self.stride.info(pc, addr).map(|i| AllocInfo {
            stride: i.stride,
            confidence: i.confidence,
            two_miss_ok: i.predicted_streak >= 2,
            history: self.prev2.get(&pc.raw()).map_or(0, |a| a.raw()),
        })
    }

    fn predict(&self, state: &mut StreamState) -> Option<Addr> {
        let prev1 = state.last_addr.block(self.block);
        let next = if state.history != 0 {
            let key = fold(Addr::new(state.history).block(self.block), prev1);
            match self.markov.predict(key) {
                Some(b) => prev1.offset(b.delta(key)).base(self.block),
                None => state.last_addr.offset(state.stride),
            }
        } else {
            state.last_addr.offset(state.stride)
        };
        state.history = state.last_addr.raw();
        state.last_addr = next;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order2_disambiguates_shared_successor_states() {
        // Two interleaved chains pass through the same block X but
        // continue differently: A -> X -> B and C -> X -> D. Order-1
        // Markov can only remember one successor of X; order-2 keeps
        // both.
        let (a, x, b) = (0x10_0000u64, 0x12_0040, 0x11_3080);
        let (c, d) = (0x13_00c0u64, 0x14_2100);
        let mut p2 = Sfm2Predictor::paper_baseline();
        let pc = Addr::new(0x1000);
        for _ in 0..3 {
            for v in [a, x, b] {
                p2.train(pc, Addr::new(v));
            }
            for v in [c, x, d] {
                p2.train(pc, Addr::new(v));
            }
        }
        let mut s = StreamState::new(pc, Addr::new(x), 32);
        s.history = a;
        assert_eq!(p2.predict(&mut s), Some(Addr::new(b)), "A,X -> B");
        let mut s = StreamState::new(pc, Addr::new(x), 32);
        s.history = c;
        assert_eq!(p2.predict(&mut s), Some(Addr::new(d)), "C,X -> D");
    }

    #[test]
    fn falls_back_to_stride_without_history() {
        let p = Sfm2Predictor::paper_baseline();
        let mut s = StreamState::new(Addr::new(0x1000), Addr::new(0x8000), 64);
        assert_eq!(p.predict(&mut s), Some(Addr::new(0x8040)));
        // History now primed with the previous address.
        assert_eq!(s.history, 0x8000);
    }

    #[test]
    fn strided_loads_stay_out_of_markov() {
        let mut p = Sfm2Predictor::paper_baseline();
        let pc = Addr::new(0x2000);
        for i in 0..8u64 {
            p.train(pc, Addr::new(0x10_0000 + 128 * i));
        }
        assert!(p.markov_table().updates() <= 1);
    }

    #[test]
    fn alloc_info_carries_history() {
        let mut p = Sfm2Predictor::paper_baseline();
        let pc = Addr::new(0x3000);
        p.train(pc, Addr::new(0x10_0000));
        p.train(pc, Addr::new(0x15_0040));
        p.train(pc, Addr::new(0x11_2080));
        let info = p.alloc_info(pc, Addr::new(0x11_2080)).unwrap();
        assert_eq!(info.history, 0x15_0040, "the address before last");
    }
}
