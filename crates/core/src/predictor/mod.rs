//! Address predictors that direct stream-buffer prefetching.
//!
//! A stream buffer carries a small *per-stream state* ([`StreamState`]);
//! a shared, *stateless-at-prediction-time* predictor maps that state to
//! the next address in the stream. The predictor's tables are updated only
//! in the write-back stage of missing loads ([`StreamPredictor::train`]),
//! never by predictions — Section 4 of the paper.
//!
//! This module also hosts the self-contained modern engines that plug
//! into the registry as whole [`crate::Prefetcher`]s rather than as
//! stream-buffer predictors: [`PanglossPrefetcher`] and
//! [`DspatchPrefetcher`]. A new engine is one file here plus one
//! registry row (see `crate::registry`).

mod markov;
mod pc_stride;
mod sequential;
mod sfm;
mod sfm2;
mod stride;

pub(crate) mod dspatch;
pub(crate) mod pangloss;

pub use dspatch::DspatchPrefetcher;
pub use markov::MarkovTable;
pub use pangloss::PanglossPrefetcher;
pub use pc_stride::PcStridePredictor;
pub use sequential::SequentialPredictor;
pub use sfm::SfmPredictor;
pub use sfm2::Sfm2Predictor;
pub use stride::{StrideInfo, StrideTable, StrideTrainOutcome};

use psb_common::Addr;

/// The per-stream speculative state stored inside each stream buffer.
///
/// "There are two major parts to PSBs, a per-stream history which is
/// stored with each stream buffer, and a stateless address predictor which
/// is shared between stream buffers."
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StreamState {
    /// PC of the load that allocated the stream.
    pub pc: Addr,
    /// The last (speculatively) predicted address; the next prediction is
    /// generated from it, and it is updated after every prediction.
    pub last_addr: Addr,
    /// The stride assigned at allocation time, in bytes.
    pub stride: i64,
    /// Raw byte address of the stream's step *before* `last_addr`
    /// (0 when unknown). Only history-based predictors (e.g. the order-2
    /// Markov extension) read it; every predictor that advances the
    /// stream keeps it up to date.
    pub history: u64,
}

impl StreamState {
    /// Creates a fresh stream state with no history.
    pub fn new(pc: Addr, last_addr: Addr, stride: i64) -> Self {
        StreamState { pc, last_addr, stride, history: 0 }
    }
}

/// Allocation-time information about a missing load, read from the
/// predictor's tables to drive the allocation filters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AllocInfo {
    /// The stride to seed the stream with, in bytes.
    pub stride: i64,
    /// The load's accuracy confidence counter value.
    pub confidence: u32,
    /// Whether the two-miss filter condition holds (two consecutive
    /// misses that the predictor handled — identical strides for the
    /// stride predictor, correct predictions for SFM).
    pub two_miss_ok: bool,
    /// The miss address recorded before the current one, seeding the
    /// stream's history for history-based predictors (0 when the
    /// predictor keeps none).
    pub history: u64,
}

/// An address predictor that can direct a stream buffer.
///
/// Implementations: [`StrideTable`]-backed PC-stride (the Farkas et al.
/// baseline), [`SfmPredictor`] (the paper's Stride-Filtered Markov), and
/// [`SequentialPredictor`] (Jouppi's next-block streams).
pub trait StreamPredictor {
    /// Trains the predictor on a load that missed in the L1 data cache
    /// (called from the write-back stage). Store-forwarded loads must not
    /// be passed here.
    fn train(&mut self, pc: Addr, addr: Addr);

    /// Reads allocation-time information for a missing load. Returns
    /// `None` when the predictor has no entry for the load (a cold PC).
    fn alloc_info(&self, pc: Addr, addr: Addr) -> Option<AllocInfo>;

    /// Generates the next address of the stream described by `state` and
    /// advances the state. The predictor's own tables are *not* modified.
    ///
    /// At most one call per cycle is made across all stream buffers (the
    /// shared single-ported predictor).
    fn predict(&self, state: &mut StreamState) -> Option<Addr>;

    /// Attaches an observability sink: predictors with internal stages
    /// worth watching (e.g. the SFM's stride filter in front of its
    /// Markov table) register counters here. The default is a no-op.
    fn attach_obs(&mut self, obs: &dyn crate::StreamObs) {
        let _ = obs;
    }
}

/// Clamps a trained stride to something streamable: strides smaller than
/// a cache block become one signed block (Palacharla & Kessler's
/// minimum-delta rule), and zero strides default to the next sequential
/// block.
pub fn normalize_stride(stride: i64, block: u64) -> i64 {
    let block = block as i64;
    if stride == 0 {
        block
    } else if stride.abs() < block {
        block * stride.signum()
    } else {
        stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_stride_rules() {
        assert_eq!(normalize_stride(0, 32), 32);
        assert_eq!(normalize_stride(8, 32), 32);
        assert_eq!(normalize_stride(-8, 32), -32);
        assert_eq!(normalize_stride(32, 32), 32);
        assert_eq!(normalize_stride(-64, 32), -64);
        assert_eq!(normalize_stride(100, 32), 100);
    }
}
