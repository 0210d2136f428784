//! Branch prediction: gshare + BTB + return address stack.
//!
//! The paper "use[s] a McFarling gshare predictor to drive our fetch unit.
//! Two predictions can be made per cycle with up to 8 instructions
//! fetched." This module implements the predictor; the per-cycle limits
//! live in the fetch stage.
//!
//! Because the pipeline replays a correct-path trace (no wrong-path
//! execution), the predictor is trained at fetch time with the actual
//! outcome. This keeps global history consistent without modeling
//! checkpoint/repair, a standard trace-driven simplification that affects
//! all configurations identically (see DESIGN.md §4).

use crate::inst::{BranchInfo, BranchKind};
use psb_common::{Addr, SatCounter};

/// Configuration for [`BranchPredictor`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BpredConfig {
    /// log2 of the gshare pattern-history-table size.
    pub gshare_bits: u32,
    /// Number of BTB entries (direct-mapped, tagged).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
}

impl Default for BpredConfig {
    fn default() -> Self {
        BpredConfig { gshare_bits: 12, btb_entries: 2048, ras_depth: 8 }
    }
}

/// What the front end does with a fetched branch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target, if the structure produced one.
    pub target: Option<Addr>,
    /// True if direction and (when taken) target both match the actual
    /// outcome — i.e. fetch may continue down the right path.
    pub correct: bool,
}

/// Aggregate accuracy counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BpredStats {
    /// Branches predicted.
    pub predictions: u64,
    /// Mispredictions (direction or target).
    pub mispredictions: u64,
}

impl BpredStats {
    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct BtbEntry {
    tag: u64,
    target: Addr,
    valid: bool,
}

/// A gshare direction predictor with a direct-mapped BTB and an RAS.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    pht: Vec<SatCounter>,
    history: u64,
    history_mask: u64,
    btb: Vec<BtbEntry>,
    ras: Vec<Addr>,
    ras_depth: usize,
    stats: BpredStats,
}

impl BranchPredictor {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the BTB has no entries.
    pub fn new(config: BpredConfig) -> Self {
        assert!(config.btb_entries > 0, "the BTB needs at least one entry");
        let pht_size = 1usize << config.gshare_bits;
        BranchPredictor {
            pht: vec![SatCounter::with_value(3, 2); pht_size],
            history: 0,
            history_mask: (pht_size - 1) as u64,
            btb: vec![BtbEntry { tag: 0, target: Addr::new(0), valid: false }; config.btb_entries],
            ras: Vec::with_capacity(config.ras_depth),
            ras_depth: config.ras_depth,
            stats: BpredStats::default(),
        }
    }

    fn pht_index(&self, pc: Addr) -> usize {
        (((pc.raw() >> 2) ^ self.history) & self.history_mask) as usize
    }

    fn btb_index(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) as usize) % self.btb.len()
    }

    /// Predicts the branch at `pc` with actual outcome `actual`, trains
    /// the structures, and reports whether fetch stays on the correct
    /// path.
    pub fn predict_and_train(&mut self, pc: Addr, actual: BranchInfo) -> Prediction {
        self.stats.predictions += 1;

        let (pred_taken, pred_target) = match actual.kind {
            BranchKind::Conditional => {
                let idx = self.pht_index(pc);
                let taken = self.pht[idx].is_high();
                let target = taken.then(|| self.btb_lookup(pc)).flatten();
                (taken, target)
            }
            BranchKind::Jump | BranchKind::Call => {
                // Direct targets are decoded in the fetch stage; model as
                // always-taken with a BTB-or-decode target (always right).
                (true, Some(actual.target))
            }
            BranchKind::Return => (true, self.ras.last().copied()),
            BranchKind::Indirect => (true, self.btb_lookup(pc)),
        };

        // A prediction is correct when the direction matches and, if the
        // branch is taken, the target is known and matches.
        let correct =
            pred_taken == actual.taken && (!actual.taken || pred_target == Some(actual.target));

        // --- train ---
        if actual.kind == BranchKind::Conditional {
            let idx = self.pht_index(pc);
            if actual.taken {
                self.pht[idx].inc();
            } else {
                self.pht[idx].dec();
            }
            self.history = ((self.history << 1) | actual.taken as u64) & self.history_mask;
        }
        if actual.taken {
            let idx = self.btb_index(pc);
            self.btb[idx] = BtbEntry { tag: pc.raw(), target: actual.target, valid: true };
        }
        match actual.kind {
            BranchKind::Call => {
                if self.ras.len() == self.ras_depth {
                    self.ras.remove(0);
                }
                self.ras.push(pc.offset(4));
            }
            BranchKind::Return => {
                self.ras.pop();
            }
            _ => {}
        }

        if !correct {
            self.stats.mispredictions += 1;
        }
        Prediction { taken: pred_taken, target: pred_target, correct }
    }

    fn btb_lookup(&self, pc: Addr) -> Option<Addr> {
        let e = &self.btb[self.btb_index(pc)];
        (e.valid && e.tag == pc.raw()).then_some(e.target)
    }

    /// Accuracy counters.
    pub fn stats(&self) -> BpredStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(taken: bool) -> BranchInfo {
        BranchInfo { kind: BranchKind::Conditional, taken, target: Addr::new(0x4000) }
    }

    #[test]
    fn learns_always_taken_branch() {
        let mut bp = BranchPredictor::new(BpredConfig::default());
        let pc = Addr::new(0x100);
        // Warm up: counters start weakly-taken but the BTB is cold, so the
        // first taken prediction lacks a target.
        bp.predict_and_train(pc, cond(true));
        let mut correct = 0;
        for _ in 0..100 {
            if bp.predict_and_train(pc, cond(true)).correct {
                correct += 1;
            }
        }
        assert!(correct >= 99, "only {correct}/100 correct");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut bp = BranchPredictor::new(BpredConfig::default());
        let pc = Addr::new(0x200);
        let mut outcome = false;
        // Train through the warmup, then measure.
        for _ in 0..64 {
            bp.predict_and_train(pc, cond(outcome));
            outcome = !outcome;
        }
        let mut correct = 0;
        for _ in 0..100 {
            if bp.predict_and_train(pc, cond(outcome)).correct {
                correct += 1;
            }
            outcome = !outcome;
        }
        assert!(correct >= 95, "gshare should capture T/NT alternation, got {correct}");
    }

    #[test]
    fn returns_use_ras() {
        let mut bp = BranchPredictor::new(BpredConfig::default());
        let call_pc = Addr::new(0x100);
        let ret_pc = Addr::new(0x900);
        bp.predict_and_train(
            call_pc,
            BranchInfo { kind: BranchKind::Call, taken: true, target: Addr::new(0x800) },
        );
        let p = bp.predict_and_train(
            ret_pc,
            BranchInfo { kind: BranchKind::Return, taken: true, target: call_pc.offset(4) },
        );
        assert!(p.correct, "RAS must predict the pushed return address");
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut bp = BranchPredictor::new(BpredConfig { ras_depth: 2, ..Default::default() });
        for i in 0..3u64 {
            bp.predict_and_train(
                Addr::new(0x100 + 16 * i),
                BranchInfo { kind: BranchKind::Call, taken: true, target: Addr::new(0x800) },
            );
        }
        // Pop back: innermost two are fine...
        for i in (1..3u64).rev() {
            let p = bp.predict_and_train(
                Addr::new(0x900),
                BranchInfo {
                    kind: BranchKind::Return,
                    taken: true,
                    target: Addr::new(0x100 + 16 * i + 4),
                },
            );
            assert!(p.correct, "return {i}");
        }
        // ...the third was dropped by the overflow.
        let p = bp.predict_and_train(
            Addr::new(0x900),
            BranchInfo { kind: BranchKind::Return, taken: true, target: Addr::new(0x104) },
        );
        assert!(!p.correct);
    }

    #[test]
    fn indirect_needs_btb_warmup() {
        let mut bp = BranchPredictor::new(BpredConfig::default());
        let pc = Addr::new(0x300);
        let b = BranchInfo { kind: BranchKind::Indirect, taken: true, target: Addr::new(0x7000) };
        assert!(!bp.predict_and_train(pc, b).correct, "cold BTB must miss");
        assert!(bp.predict_and_train(pc, b).correct, "trained BTB must hit");
        // Target change forces a mispredict once.
        let b2 = BranchInfo { kind: BranchKind::Indirect, taken: true, target: Addr::new(0x9000) };
        assert!(!bp.predict_and_train(pc, b2).correct);
        assert!(bp.predict_and_train(pc, b2).correct);
    }

    #[test]
    fn direct_jumps_always_correct() {
        let mut bp = BranchPredictor::new(BpredConfig::default());
        let b = BranchInfo { kind: BranchKind::Jump, taken: true, target: Addr::new(0x5000) };
        assert!(bp.predict_and_train(Addr::new(0x400), b).correct);
    }

    #[test]
    fn stats_accumulate() {
        let mut bp = BranchPredictor::new(BpredConfig::default());
        let pc = Addr::new(0x500);
        for _ in 0..10 {
            bp.predict_and_train(pc, cond(true));
        }
        let s = bp.stats();
        assert_eq!(s.predictions, 10);
        assert!(s.accuracy() > 0.5);
    }

    #[test]
    #[should_panic(expected = "the BTB needs at least one entry")]
    fn an_empty_btb_is_rejected() {
        BranchPredictor::new(BpredConfig { btb_entries: 0, ..BpredConfig::default() });
    }
}
