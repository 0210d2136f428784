//! The stream-buffer prefetch engine.

use crate::predictor::{
    normalize_stride, PcStridePredictor, SequentialPredictor, SfmPredictor, StreamPredictor,
};
use crate::prefetcher::{PrefetchSink, PrefetchStats, Prefetcher, SbLookup};
use crate::stream::{AllocFilter, SbConfig, SbEntry, Scheduler, StreamBuffer};
use crate::SharedStreamObs;
use psb_common::event::{Emitter, Event, EventKind};
use psb_common::{Addr, Cycle};

/// Which shared resource a buffer is competing for this cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Port {
    Predict,
    Prefetch,
}

/// Mirrors an [`SbEntry`] into the auditor's neutral entry type.
#[cfg(feature = "check")]
fn entry_kind(e: &SbEntry) -> psb_check::EntryKind {
    match *e {
        SbEntry::Empty => psb_check::EntryKind::Empty,
        SbEntry::Allocated { block } => psb_check::EntryKind::Allocated(block),
        SbEntry::InFlight { block, .. } => psb_check::EntryKind::InFlight(block),
        SbEntry::Ready { block } => psb_check::EntryKind::Ready(block),
    }
}

/// A file of stream buffers directed by an address predictor.
///
/// This single engine expresses the whole design space of Section 4:
///
/// * with an [`SfmPredictor`] it is the paper's **Predictor-Directed
///   Stream Buffer** ([`PsbPrefetcher`]);
/// * with a [`PcStridePredictor`] and the two-miss filter it is the
///   PC-stride baseline of Farkas et al. ([`StrideStreamBuffers`]);
/// * with a [`SequentialPredictor`] and no filter it is Jouppi's original
///   sequential stream buffer ([`SequentialStreamBuffers`]).
///
/// Per-cycle behaviour ([`Prefetcher::tick`]): at most **one** prediction
/// is generated (the predictor is single-ported and shared), and at most
/// **one** prefetch is issued, only "if the L1-L2 bus is free at the
/// start of \[the\] cycle". Which buffer wins each port is decided by the
/// configured [`Scheduler`]. Predictions already covered by any stream
/// buffer are suppressed (streams stay non-overlapping), but the stream's
/// history still advances.
#[derive(Clone, Debug)]
pub struct StreamEngine<P> {
    config: SbConfig,
    predictor: P,
    buffers: Vec<StreamBuffer>,
    stats: PrefetchStats,
    stamp: u64,
    alloc_requests: u64,
    rr_predict: usize,
    rr_prefetch: usize,
    name: String,
    /// Where lifecycle events go; detached, each emission is one branch.
    events: Emitter,
}

/// The paper's Predictor-Directed Stream Buffer: a [`StreamEngine`]
/// directed by the Stride-Filtered Markov predictor.
pub type PsbPrefetcher = StreamEngine<SfmPredictor>;

/// The PC-stride stream buffers of Farkas et al. (the paper's baseline).
pub type StrideStreamBuffers = StreamEngine<PcStridePredictor>;

/// Jouppi's sequential stream buffers.
pub type SequentialStreamBuffers = StreamEngine<SequentialPredictor>;

impl PsbPrefetcher {
    /// Builds a PSB with the paper's SFM predictor (256-entry stride
    /// table, 2K-entry differential Markov table) under `config`.
    pub fn psb(config: SbConfig) -> Self {
        let name = format!(
            "psb-{}-{}",
            match config.filter {
                AllocFilter::None => "nofilter",
                AllocFilter::TwoMiss => "2miss",
                AllocFilter::Confidence { .. } => "confalloc",
            },
            match config.scheduler {
                Scheduler::RoundRobin => "rr",
                Scheduler::Priority => "priority",
            }
        );
        StreamEngine::new(config, SfmPredictor::paper_baseline(), name)
    }
}

impl StrideStreamBuffers {
    /// Builds the PC-stride baseline (two-miss filter, round-robin).
    pub fn pc_stride() -> Self {
        StreamEngine::new(
            SbConfig::stride_baseline(),
            PcStridePredictor::paper_baseline(),
            "pc-stride".to_owned(),
        )
    }
}

impl SequentialStreamBuffers {
    /// Builds Jouppi-style sequential stream buffers.
    ///
    /// The predictor's blanket confidence and the buffers' priority
    /// ceiling both derive from `config.priority_max`, so a confidence
    /// allocation filter (were one configured) could never see a load
    /// outrank the cap the buffers themselves saturate at.
    pub fn sequential() -> Self {
        let config = SbConfig::sequential_baseline();
        StreamEngine::new(
            config,
            SequentialPredictor::new(config.block, config.priority_max),
            "sequential".to_owned(),
        )
    }
}

impl<P: StreamPredictor> StreamEngine<P> {
    /// Creates an engine from a configuration, a predictor and a report
    /// name.
    pub fn new(config: SbConfig, predictor: P, name: String) -> Self {
        assert!(config.buffers > 0, "need at least one stream buffer");
        StreamEngine {
            buffers: (0..config.buffers)
                .map(|_| StreamBuffer::new(config.entries_per_buffer, config.priority_max))
                .collect(),
            config,
            predictor,
            stats: PrefetchStats::default(),
            stamp: 1,
            alloc_requests: 0,
            rr_predict: 0,
            rr_prefetch: 0,
            name,
            events: Emitter::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SbConfig {
        &self.config
    }

    /// Read-only access to the directing predictor (e.g. to extract the
    /// Markov delta histogram for Figure 4).
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// The stream buffers, for inspection.
    pub fn buffers(&self) -> &[StreamBuffer] {
        &self.buffers
    }

    fn bump(&mut self) -> u64 {
        let s = self.stamp;
        self.stamp += 1;
        s
    }

    fn promote_all(&mut self, now: Cycle) {
        for (i, b) in self.buffers.iter_mut().enumerate() {
            // Idle buffers (nothing in flight) take the early exit before
            // any per-entry work.
            if !b.has_in_flight() {
                continue;
            }
            if self.events.wants(EventKind::Filled) {
                // Fill events name the blocks about to be promoted; only
                // scanned when a subscriber wants them.
                for idx in 0..b.len() {
                    if b.is_in_flight(idx) && b.fill_ready_at(idx) <= now {
                        let block = b.block_at(idx).base(self.config.block);
                        self.events.emit(Event::Filled { cycle: now, buffer: i, block });
                    }
                }
            }
            b.promote_arrived(now);
        }
    }

    /// Samples `buffer`'s occupancy after a state change (a no-op unless
    /// a subscriber wants occupancy events).
    fn emit_occupancy(&self, now: Cycle, buffer: usize) {
        if !self.events.wants(EventKind::Occupancy) {
            return;
        }
        let b = &self.buffers[buffer];
        let count = |state: fn(&StreamBuffer, usize) -> bool| {
            (0..b.len()).filter(|&i| state(b, i)).count() as u64
        };
        let (ready, in_flight) = (count(StreamBuffer::is_ready), count(StreamBuffer::is_in_flight));
        let priority = b.priority() as u64;
        self.events.emit(Event::Occupancy { cycle: now, buffer, ready, in_flight, priority });
    }

    /// Publishes the whole stream file to the invariant auditor
    /// (non-overlap and priority-counter range checks).
    #[cfg(feature = "check")]
    fn audit_streams(&self, now: Cycle) {
        let buffers = self
            .buffers
            .iter()
            .map(|b| psb_check::BufferSnapshot {
                active: b.is_active(),
                priority: b.priority(),
                priority_max: self.config.priority_max,
                entries: b.entries().iter().map(entry_kind).collect(),
            })
            .collect();
        psb_check::audit(&psb_check::Snapshot::Streams { now, buffers });
    }

    /// Picks the buffer that wins `port` this cycle among those
    /// satisfying `eligible`, per the configured scheduler.
    #[cfg_attr(not(feature = "check"), allow(unused_variables))]
    fn pick(
        &mut self,
        now: Cycle,
        port: Port,
        eligible: impl Fn(&StreamBuffer) -> bool,
    ) -> Option<usize> {
        let n = self.buffers.len();
        let winner = match self.config.scheduler {
            Scheduler::RoundRobin => {
                let start = match port {
                    Port::Predict => self.rr_predict,
                    Port::Prefetch => self.rr_prefetch,
                };
                (1..=n).map(|k| (start + k) % n).find(|&i| eligible(&self.buffers[i]))
            }
            Scheduler::Priority => self
                .buffers
                .iter()
                .enumerate()
                .filter(|(_, b)| eligible(b))
                // Highest priority wins; among equals, least recently
                // serviced (LRU).
                .max_by_key(|(_, b)| (b.priority(), std::cmp::Reverse(b.last_service())))
                .map(|(i, _)| i),
        }?;
        #[cfg(feature = "check")]
        if self.config.scheduler == Scheduler::Priority {
            let contender =
                |i: usize| psb_check::Contender { index: i, priority: self.buffers[i].priority() };
            psb_check::audit(&psb_check::Snapshot::Grant {
                now,
                winner: contender(winner),
                eligible: (0..n).filter(|&i| eligible(&self.buffers[i])).map(contender).collect(),
            });
        }
        match port {
            Port::Predict => self.rr_predict = winner,
            Port::Prefetch => self.rr_prefetch = winner,
        }
        let stamp = self.bump();
        self.buffers[winner].serviced(stamp);
        Some(winner)
    }

    /// True if any buffer already tracks `block` (in any non-empty entry).
    fn covered(&self, block: psb_common::BlockAddr) -> bool {
        self.buffers.iter().any(|b| b.find(block).is_some())
    }

    /// Chooses the reallocation victim under the current filter, given
    /// the requesting load's confidence. Returns `None` when no buffer
    /// may be displaced.
    ///
    /// A load that already owns a stream re-steers its own buffer rather
    /// than claiming a second one: two buffers walking the same load's
    /// stream would only fight the non-overlap check and burn the shared
    /// predictor port (the "streams being followed by multiple stream
    /// buffers [must] be non-overlapping" rule of Farkas et al.).
    fn pick_victim(&self, pc: Addr, confidence: u32) -> Option<usize> {
        if let Some(own) = self.buffers.iter().position(|b| b.is_active() && b.state().pc == pc) {
            return Some(own);
        }
        match self.config.filter {
            AllocFilter::Confidence { .. } => {
                // "a load is only allocated a stream buffer if there is at
                // least one stream buffer whose priority confidence
                // counter is less or equal to the accuracy confidence
                // counter of the load."
                self.buffers
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| !b.is_active() || b.priority() <= confidence)
                    .min_by_key(|(_, b)| (b.is_active(), b.priority(), b.last_touch()))
                    .map(|(i, _)| i)
            }
            _ => {
                // Oldest-allocation victim, preferring inactive buffers —
                // allocations rotate through the file regardless of how
                // useful a stream has been, which is precisely what lets
                // many-stream programs thrash (Section 4.3's motivation
                // for confidence allocation).
                self.buffers
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, b)| (b.is_active(), b.last_alloc()))
                    .map(|(i, _)| i)
            }
        }
    }
}

impl<P: StreamPredictor> Prefetcher for StreamEngine<P> {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        self.stats.lookups += 1;
        self.promote_all(now);
        let block = addr.block(self.config.block);
        for i in 0..self.buffers.len() {
            let Some(idx) = self.buffers[i].find(block) else {
                continue;
            };
            if self.buffers[i].is_allocated(idx) {
                // Predicted but never prefetched: the demand access
                // wins the race; free the entry and treat as a miss.
                self.buffers[i].set_entry(idx, SbEntry::Empty);
                let block = block.base(self.config.block);
                self.events.emit(Event::Raced { cycle: now, buffer: i, block });
                return SbLookup::Miss;
            }
            // In flight or ready (find() never returns empty slots):
            // the buffer hit; in-flight data arrives at its fill time.
            let ready = if self.buffers[i].is_in_flight(idx) {
                self.buffers[i].fill_ready_at(idx)
            } else {
                now
            };
            self.stats.hits += 1;
            self.stats.used += 1;
            let bonus = self.config.hit_bonus;
            let stamp = self.bump();
            self.buffers[i].set_entry(idx, SbEntry::Empty);
            self.buffers[i].reward(bonus);
            self.buffers[i].touch(stamp);
            let (block, late_by) =
                (block.base(self.config.block), ready.raw().saturating_sub(now.raw()));
            self.events.emit(Event::Used { cycle: now, buffer: i, block, late_by });
            self.emit_occupancy(now, i);
            return SbLookup::Hit { ready };
        }
        SbLookup::Miss
    }

    fn train(&mut self, _now: Cycle, pc: Addr, addr: Addr) {
        self.predictor.train(pc, addr);
    }

    fn allocate(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        // Aging: "after several allocation requests (i.e. data cache
        // misses that also miss in stream buffers) we decrement each
        // stream buffer's priority counter".
        self.alloc_requests += 1;
        if self.alloc_requests.is_multiple_of(self.config.aging_period) {
            for b in &mut self.buffers {
                b.age();
            }
        }

        let info = self.predictor.alloc_info(pc, addr);
        let admitted =
            match self.config.filter {
                AllocFilter::None => Some(info.map_or((self.config.block as i64, 0, 0), |i| {
                    (i.stride, i.confidence, i.history)
                })),
                AllocFilter::TwoMiss => {
                    info.filter(|i| i.two_miss_ok).map(|i| (i.stride, i.confidence, i.history))
                }
                AllocFilter::Confidence { threshold } => info
                    .filter(|i| i.confidence >= threshold)
                    .map(|i| (i.stride, i.confidence, i.history)),
            };

        let Some((stride, confidence, history)) = admitted else {
            self.stats.alloc_rejected += 1;
            return;
        };
        let Some(victim) = self.pick_victim(pc, confidence) else {
            self.stats.alloc_rejected += 1;
            return;
        };
        let stride = normalize_stride(stride, self.config.block);
        let stamp = self.bump();
        // Entries holding fetched-but-unused data die here: the paper's
        // "evicted unused" lifecycle terminus.
        if self.events.wants(EventKind::Evicted) {
            for e in self.buffers[victim].entries() {
                if let SbEntry::InFlight { block, .. } | SbEntry::Ready { block } = e {
                    let block = block.base(self.config.block);
                    self.events.emit(Event::Evicted { cycle: now, buffer: victim, block });
                }
            }
        }
        self.events.emit(Event::Allocated {
            cycle: now,
            buffer: victim,
            pc,
            confidence: confidence as u64,
            displaced: self.buffers[victim].fetched_unused() as u64,
        });
        self.buffers[victim].reallocate(pc, addr, stride, confidence, stamp);
        // History-based predictors seed the stream's one-deep history
        // from the predictor's tables ("it copies its PC, current
        // address, and any additional prediction information to the
        // stream buffer from the address predictor").
        self.buffers[victim].state_mut().history = history;
        self.stats.allocations += 1;
    }

    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
        self.promote_all(now);

        // Prediction port: one buffer per cycle queries the shared
        // predictor.
        if let Some(i) = self.pick(now, Port::Predict, StreamBuffer::can_predict) {
            self.stats.predictions += 1;
            if let Some(addr) = self.predictor.predict(self.buffers[i].state_mut()) {
                let block = addr.block(self.config.block);
                if self.covered(block) {
                    // Overlapping streams are not followed; the history
                    // has still advanced.
                    self.stats.suppressed += 1;
                } else {
                    let idx = self.buffers[i]
                        .first_empty()
                        .expect("invariant: can_predict verified a free entry");
                    self.buffers[i].set_entry(idx, SbEntry::Allocated { block });
                    let block = block.base(self.config.block);
                    self.events.emit(Event::Predicted { cycle: now, buffer: i, block });
                }
            }
        }

        // Prefetch port: one prefetch if the L1<->L2 bus is idle.
        if sink.bus_free(now) {
            if let Some(i) = self.pick(now, Port::Prefetch, StreamBuffer::can_prefetch) {
                let idx = self.buffers[i]
                    .first_allocated()
                    .expect("invariant: can_prefetch verified an allocated entry");
                let block = self.buffers[i].block_at(idx);
                #[cfg(feature = "check")]
                psb_check::audit(&psb_check::Snapshot::PrefetchIssue {
                    now,
                    entries: self.buffers[i].entries().iter().map(entry_kind).collect(),
                    issued: idx,
                });
                let ready = sink.fetch(now, block.base(self.config.block));
                self.buffers[i].set_entry(idx, SbEntry::InFlight { block, ready });
                self.stats.issued += 1;
                let block = block.base(self.config.block);
                self.events.emit(Event::Issued { cycle: now, buffer: i, block, ready });
                self.emit_occupancy(now, i);
            }
        }

        #[cfg(feature = "check")]
        self.audit_streams(now);
    }

    /// The engine's [`Prefetcher::tick`] is externally a no-op exactly
    /// when neither per-cycle port has work: no buffer can accept a
    /// prediction and none holds a pending prefetch. Promotion of
    /// in-flight fills may be deferred safely — it never changes port
    /// eligibility, and [`Prefetcher::lookup`] promotes on its own before
    /// probing — so in-flight entries do not block quiescence. With an
    /// observer attached the fast path is disabled: fill events must be
    /// emitted on the exact promotion cycle. (Under the `check` feature
    /// quiescence is also disabled so the per-cycle invariant audits keep
    /// their full coverage.)
    fn quiescent(&self) -> bool {
        #[cfg(feature = "check")]
        return false;
        #[cfg(not(feature = "check"))]
        {
            !self.events.is_attached() && self.buffers.iter().all(StreamBuffer::is_quiescent)
        }
    }

    fn attach_obs(&mut self, obs: &SharedStreamObs) {
        self.events = Emitter::new(obs.clone());
        for buffer in 0..self.buffers.len() {
            self.events.emit(Event::Buffer { buffer });
        }
        self.predictor.attach_obs(obs.as_ref());
    }

    fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::TestSink;
    use crate::StreamObs;
    use psb_obs::Obs;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn shared(obs: &Obs) -> SharedStreamObs {
        Rc::new(obs.clone())
    }

    /// Forwards every event to the hub and keeps a copy.
    struct Tape(Obs, RefCell<Vec<Event>>);

    impl StreamObs for Tape {
        fn emit(&self, event: &Event) {
            self.0.emit(event);
            self.1.borrow_mut().push(*event);
        }
    }

    /// Trains a strided PC enough to open every filter, then allocates.
    fn engine_with_stream(config: SbConfig) -> StrideStreamBuffers {
        let mut e =
            StreamEngine::new(config, PcStridePredictor::paper_baseline(), "test".to_owned());
        let pc = Addr::new(0x1000);
        for i in 0..5u64 {
            e.train(Cycle::ZERO, pc, Addr::new(0x10_0000 + 0x40 * i));
        }
        e.allocate(Cycle::ZERO, pc, Addr::new(0x10_0100));
        assert_eq!(e.stats().allocations, 1);
        e
    }

    #[test]
    fn stream_predicts_prefetches_and_hits() {
        let mut e = engine_with_stream(SbConfig::stride_baseline());
        let mut sink = TestSink::new(10);
        // Tick a few cycles: predictions fill entries, prefetches issue.
        for c in 0..8 {
            e.tick(Cycle::new(c), &mut sink);
        }
        assert!(e.stats().issued >= 3, "issued = {}", e.stats().issued);
        // The stream (stride 0x40 from 0x10_0100) predicted 0x10_0140...
        assert_eq!(sink.fetched[0], Addr::new(0x10_0140));
        assert_eq!(sink.fetched[1], Addr::new(0x10_0180));
        // A demand miss on the prefetched block hits the stream buffer.
        let r = e.lookup(Cycle::new(50), Addr::new(0x10_0148));
        assert_eq!(r, SbLookup::Hit { ready: Cycle::new(50) });
        assert_eq!(e.stats().used, 1);
        assert_eq!(e.stats().hits, 1);
    }

    #[test]
    fn inflight_hit_reports_fill_time() {
        let mut e = engine_with_stream(SbConfig::stride_baseline());
        let mut sink = TestSink::new(100);
        // The tick both predicts and issues the prefetch at cycle 0.
        e.tick(Cycle::new(0), &mut sink);
        let r = e.lookup(Cycle::new(2), Addr::new(0x10_0140));
        assert_eq!(r, SbLookup::Hit { ready: Cycle::new(100) });
    }

    #[test]
    fn bus_gating_blocks_prefetch_but_not_prediction() {
        let mut e = engine_with_stream(SbConfig::stride_baseline());
        let mut sink = TestSink::new(10);
        sink.bus_is_free = false;
        for c in 0..10 {
            e.tick(Cycle::new(c), &mut sink);
        }
        assert_eq!(e.stats().issued, 0);
        assert!(e.stats().predictions > 0);
        // Entries sit in Allocated state awaiting the bus.
        sink.bus_is_free = true;
        e.tick(Cycle::new(10), &mut sink);
        assert_eq!(e.stats().issued, 1);
    }

    #[test]
    fn buffer_stops_after_entries_filled() {
        let mut e = engine_with_stream(SbConfig::stride_baseline());
        let mut sink = TestSink::new(1);
        for c in 0..40 {
            e.tick(Cycle::new(c), &mut sink);
        }
        // 4 entries per buffer: exactly 4 outstanding prefetches, then the
        // stream stalls until a hit frees an entry.
        assert_eq!(e.stats().issued, 4);
        let r = e.lookup(Cycle::new(41), Addr::new(0x10_0140));
        assert!(matches!(r, SbLookup::Hit { .. }));
        e.tick(Cycle::new(42), &mut sink);
        e.tick(Cycle::new(43), &mut sink);
        assert_eq!(e.stats().issued, 5, "freed entry lets the stream run on");
    }

    #[test]
    fn two_miss_filter_rejects_untrained_loads() {
        let mut e = StreamEngine::new(
            SbConfig::stride_baseline(),
            PcStridePredictor::paper_baseline(),
            "t".to_owned(),
        );
        // One training update: streak too short.
        e.train(Cycle::ZERO, Addr::new(0x2000), Addr::new(0x100));
        e.allocate(Cycle::ZERO, Addr::new(0x2000), Addr::new(0x100));
        assert_eq!(e.stats().allocations, 0);
        assert_eq!(e.stats().alloc_rejected, 1);
    }

    #[test]
    fn no_filter_allocates_cold_loads() {
        let mut e = StreamEngine::new(
            SbConfig::sequential_baseline(),
            PcStridePredictor::paper_baseline(),
            "t".to_owned(),
        );
        e.allocate(Cycle::ZERO, Addr::new(0x9999), Addr::new(0x5000));
        assert_eq!(e.stats().allocations, 1);
    }

    #[test]
    fn confidence_filter_gates_on_threshold_and_priorities() {
        let config = SbConfig::psb_conf_priority();
        let mut e = StreamEngine::new(config, PcStridePredictor::paper_baseline(), "t".to_owned());
        let pc = Addr::new(0x3000);
        // Unpredictable load: confidence stays 0 < threshold 1.
        let mut x = 1u64;
        for _ in 0..6 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            e.train(Cycle::ZERO, pc, Addr::new((x >> 20) & 0xffff_ffe0));
        }
        e.allocate(Cycle::ZERO, pc, Addr::new(0x100));
        assert_eq!(e.stats().allocations, 0, "low confidence must be rejected");

        // Predictable load passes.
        let pc2 = Addr::new(0x4000);
        for i in 0..6u64 {
            e.train(Cycle::ZERO, pc2, Addr::new(0x20_0000 + 0x40 * i));
        }
        e.allocate(Cycle::ZERO, pc2, Addr::new(0x20_0140));
        assert_eq!(e.stats().allocations, 1);
    }

    #[test]
    fn confidence_filter_protects_hot_buffers() {
        // One buffer, priority pumped high by hits: a low-confidence load
        // must not displace it.
        let mut config = SbConfig::psb_conf_priority();
        config.buffers = 1;
        let mut e = StreamEngine::new(config, PcStridePredictor::paper_baseline(), "t".to_owned());
        let pc = Addr::new(0x1000);
        for i in 0..8u64 {
            e.train(Cycle::ZERO, pc, Addr::new(0x10_0000 + 0x40 * i));
        }
        e.allocate(Cycle::ZERO, pc, Addr::new(0x10_01c0));
        assert_eq!(e.stats().allocations, 1);
        let mut sink = TestSink::new(1);
        // Generate hits to pump priority to saturation.
        for c in 0..30u64 {
            e.tick(Cycle::new(c), &mut sink);
            let next = Addr::new(0x10_0200 + 0x40 * (c / 3));
            e.lookup(Cycle::new(c), next);
        }
        assert!(e.buffers()[0].priority() > 7, "priority = {}", e.buffers()[0].priority());

        // A moderately-confident competitor (confidence < priority) loses.
        let pc2 = Addr::new(0x2000);
        for i in 0..3u64 {
            e.train(Cycle::ZERO, pc2, Addr::new(0x30_0000 + 0x20 * i));
        }
        let before = e.stats().allocations;
        e.allocate(Cycle::ZERO, pc2, Addr::new(0x30_0060));
        assert_eq!(e.stats().allocations, before, "hot buffer must survive");
    }

    #[test]
    fn aging_eventually_frees_stale_buffers() {
        let mut config = SbConfig::psb_conf_priority();
        config.buffers = 1;
        let mut e = StreamEngine::new(config, PcStridePredictor::paper_baseline(), "t".to_owned());
        let pc = Addr::new(0x1000);
        for i in 0..10u64 {
            e.train(Cycle::ZERO, pc, Addr::new(0x10_0000 + 0x40 * i));
        }
        e.allocate(Cycle::ZERO, pc, Addr::new(0x10_0240));
        let initial_priority = e.buffers()[0].priority();
        assert!(initial_priority >= 1);

        // 10 allocation requests per aging step; competitor has conf >= 1.
        let pc2 = Addr::new(0x2000);
        for i in 0..6u64 {
            e.train(Cycle::ZERO, pc2, Addr::new(0x30_0000 + 0x40 * i));
        }
        let mut allocated = false;
        for _ in 0..(initial_priority as u64 + 1) * 10 {
            e.allocate(Cycle::ZERO, pc2, Addr::new(0x30_0140));
            if e.stats().allocations >= 2 {
                allocated = true;
                break;
            }
        }
        assert!(allocated, "aging must eventually let the competitor in");
    }

    #[test]
    fn overlapping_predictions_are_suppressed() {
        // Two buffers forced onto the same strided region must not track
        // duplicate blocks.
        let mut e = StreamEngine::new(
            SbConfig::sequential_baseline(),
            SequentialPredictor::new(32, 7),
            "t".to_owned(),
        );
        e.allocate(Cycle::ZERO, Addr::new(0x1000), Addr::new(0x8000));
        e.allocate(Cycle::ZERO, Addr::new(0x2000), Addr::new(0x8000));
        let mut sink = TestSink::new(1);
        for c in 0..32 {
            e.tick(Cycle::new(c), &mut sink);
        }
        assert!(e.stats().suppressed > 0, "second stream must collide and be suppressed");
        // No block fetched twice.
        let mut blocks: Vec<u64> = sink.fetched.iter().map(|a| a.raw() / 32).collect();
        let n = blocks.len();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(blocks.len(), n, "duplicate prefetches issued");
    }

    #[test]
    fn round_robin_shares_the_ports() {
        let mut e = StreamEngine::new(
            SbConfig::sequential_baseline(),
            SequentialPredictor::new(32, 7),
            "t".to_owned(),
        );
        // Two streams in disjoint regions.
        e.allocate(Cycle::ZERO, Addr::new(0x1000), Addr::new(0x10_0000));
        e.allocate(Cycle::ZERO, Addr::new(0x2000), Addr::new(0x50_0000));
        let mut sink = TestSink::new(1);
        for c in 0..8 {
            e.tick(Cycle::new(c), &mut sink);
        }
        let regions: Vec<bool> = sink.fetched.iter().map(|a| a.raw() > 0x30_0000).collect();
        assert!(regions.contains(&true) && regions.contains(&false), "{regions:?}");
        // Alternating service.
        assert_ne!(regions[0], regions[1]);
    }

    #[test]
    fn priority_scheduler_prefers_hot_streams() {
        let config = SbConfig::sequential_baseline().with_scheduler(Scheduler::Priority);
        let mut e = StreamEngine::new(config, SequentialPredictor::new(32, 0), "t".to_owned());
        // Stream A (cold) and stream B; B gets hits -> priority rises.
        e.allocate(Cycle::ZERO, Addr::new(0x1000), Addr::new(0x10_0000));
        e.allocate(Cycle::ZERO, Addr::new(0x2000), Addr::new(0x50_0000));
        let mut sink = TestSink::new(1);
        for c in 0..6 {
            e.tick(Cycle::new(c), &mut sink);
        }
        // Hit stream B twice.
        e.lookup(Cycle::new(7), Addr::new(0x50_0020));
        e.lookup(Cycle::new(8), Addr::new(0x50_0040));
        let fetched_before = sink.fetched.len();
        for c in 9..13 {
            e.tick(Cycle::new(c), &mut sink);
        }
        // The hot stream is served first; the cold stream only gets the
        // bus once the hot stream has no work left.
        let new = &sink.fetched[fetched_before..];
        assert!(new.len() >= 2);
        assert!(
            new[0].raw() > 0x30_0000 && new[1].raw() > 0x30_0000,
            "hot stream must be served first: {new:?}"
        );
    }

    #[test]
    fn accuracy_counts_used_over_issued() {
        let mut e = engine_with_stream(SbConfig::stride_baseline());
        let mut sink = TestSink::new(1);
        for c in 0..20 {
            e.tick(Cycle::new(c), &mut sink);
        }
        // Use two of the four prefetched blocks.
        e.lookup(Cycle::new(30), Addr::new(0x10_0140));
        e.lookup(Cycle::new(31), Addr::new(0x10_0180));
        let s = e.stats();
        assert!(s.issued >= 4);
        assert_eq!(s.used, 2);
        assert!(s.accuracy() <= 0.5);
    }

    #[test]
    fn lookup_miss_on_unknown_block() {
        let mut e = engine_with_stream(SbConfig::stride_baseline());
        assert_eq!(e.lookup(Cycle::ZERO, Addr::new(0xdead_0000)), SbLookup::Miss);
    }

    #[test]
    fn psb_follows_markov_chain_end_to_end() {
        // The flagship behaviour: a repeating pointer chase that no stride
        // predictor can follow is prefetched by the PSB.
        let mut e = PsbPrefetcher::psb(SbConfig::psb_conf_priority());
        let pc = Addr::new(0x7000);
        // Chain links within ~1 MB of each other so the block deltas fit
        // the 16-bit Markov entries (as in real heaps, Figure 4).
        let chain = [0x10_0000u64, 0x12_a040, 0x11_7080, 0x13_30c0, 0x12_1100];
        // Two laps to train the Markov chain + confidence.
        for _ in 0..3 {
            for &a in &chain {
                e.train(Cycle::ZERO, pc, Addr::new(a));
            }
        }
        // Allocate at the chain head.
        e.allocate(Cycle::ZERO, pc, Addr::new(chain[0]));
        assert_eq!(e.stats().allocations, 1, "confident chase must allocate");
        let mut sink = TestSink::new(1);
        for c in 0..16 {
            e.tick(Cycle::new(c), &mut sink);
        }
        // The prefetch stream must walk the chain in order.
        let want: Vec<Addr> = chain[1..].iter().map(|&a| Addr::new(a)).collect();
        assert_eq!(&sink.fetched[..4.min(sink.fetched.len())], &want[..], "{:?}", sink.fetched);
    }

    #[test]
    fn obs_hooks_follow_the_lifecycle() {
        let mut e = engine_with_stream(SbConfig::stride_baseline());
        let obs = Obs::new();
        obs.enable_trace(1024);
        let tape = Rc::new(Tape(obs.clone(), RefCell::new(Vec::new())));
        e.attach_obs(&(tape.clone() as SharedStreamObs));
        let mut sink = TestSink::new(5);
        for c in 0..20 {
            e.tick(Cycle::new(c), &mut sink);
        }
        // One on-time use, then a late use of a freshly issued block.
        e.lookup(Cycle::new(30), Addr::new(0x10_0140));
        e.tick(Cycle::new(31), &mut sink);
        e.lookup(Cycle::new(32), Addr::new(0x10_0240));
        let s = obs.lifecycle_stats();
        assert!(s.predicted >= 4, "predicted = {}", s.predicted);
        assert!(s.issued >= 4);
        assert!(s.filled >= 4);
        assert_eq!(s.used, 2);
        assert_eq!(s.used_late, 1);
        assert!(s.late_cycles.mean() > 0.0);
        // Per-block events reach a subscriber that asks for every kind.
        let events = tape.1.borrow();
        assert!(events.iter().any(|ev| matches!(ev, Event::Filled { .. })));
        assert!(events.iter().any(|ev| matches!(ev, Event::Used { late_by: 1.., .. })));
        // The trace carries the buffer track plus lifecycle events.
        let t = obs.trace_json().unwrap();
        let events = t.get("traceEvents").and_then(psb_obs::Json::as_arr).unwrap();
        assert!(events.len() > 8, "events = {}", events.len());
    }

    #[test]
    fn obs_counts_evictions_at_reallocation() {
        let mut config = SbConfig::stride_baseline();
        config.buffers = 1;
        let mut e =
            StreamEngine::new(config, PcStridePredictor::paper_baseline(), "test".to_owned());
        let obs = Obs::new();
        e.attach_obs(&shared(&obs));
        let pc = Addr::new(0x1000);
        for i in 0..5u64 {
            e.train(Cycle::ZERO, pc, Addr::new(0x10_0000 + 0x40 * i));
        }
        e.allocate(Cycle::ZERO, pc, Addr::new(0x10_0100));
        let mut sink = TestSink::new(1);
        for c in 0..10 {
            e.tick(Cycle::new(c), &mut sink);
        }
        assert!(obs.lifecycle_stats().issued >= 1);
        // A second trained PC steals the only buffer: everything fetched
        // but never used dies as evicted-unused.
        let pc2 = Addr::new(0x2000);
        for i in 0..5u64 {
            e.train(Cycle::ZERO, pc2, Addr::new(0x50_0000 + 0x40 * i));
        }
        e.allocate(Cycle::new(20), pc2, Addr::new(0x50_0100));
        let s = obs.lifecycle_stats();
        assert!(s.streams_allocated >= 2);
        assert!(s.evicted_unused >= 1, "evicted_unused = {}", s.evicted_unused);
    }

    #[test]
    fn sequential_engine_derives_one_priority_cap() {
        // Regression: the predictor's blanket confidence used to be
        // clamped to 7 while the buffers saturated at priority_max (12),
        // so freshly allocated sequential streams could never reach the
        // cap their own counters advertised.
        let e = SequentialStreamBuffers::sequential();
        let cap = e.config().priority_max;
        assert_eq!(e.predictor().confidence(), cap);
        let info = e.predictor().alloc_info(Addr::new(0x1000), Addr::new(0x8000)).unwrap();
        assert_eq!(info.confidence, cap, "alloc_info must report the shared cap");
        // And the seeded priority actually lands on the cap.
        let mut e = e;
        e.allocate(Cycle::ZERO, Addr::new(0x1000), Addr::new(0x8000));
        assert_eq!(e.buffers()[0].priority(), cap);
    }

    #[test]
    fn round_robin_rotates_ports_independently() {
        let mut config = SbConfig::sequential_baseline();
        config.buffers = 4;
        let cap = config.priority_max;
        let mut e = StreamEngine::new(config, SequentialPredictor::new(32, cap), "t".to_owned());
        for (i, base) in [0x10_0000u64, 0x20_0000, 0x30_0000, 0x40_0000].into_iter().enumerate() {
            e.allocate(Cycle::ZERO, Addr::new(0x1000 + i as u64 * 8), Addr::new(base));
        }
        let mut sink = TestSink::new(1);
        // Phase 1: bus blocked, so only the predict port arbitrates. The
        // cursor must visit every buffer once per lap, and the prefetch
        // cursor must not move.
        sink.bus_is_free = false;
        let mut predict_winners = Vec::new();
        for c in 0u64..16 {
            e.tick(Cycle::new(c), &mut sink);
            if c < 4 {
                predict_winners.push(e.rr_predict);
            }
            assert_eq!(e.rr_prefetch, 0, "prefetch cursor must not move on a blocked bus");
        }
        assert_eq!(predict_winners, vec![1, 2, 3, 0], "predict port must rotate fairly");
        // 16 predictions filled all 4x4 entries: the predict port idles.
        let predict_cursor = e.rr_predict;
        // Phase 2: bus free — the prefetch port now rotates on its own
        // cursor while the starved predict port stays put.
        sink.bus_is_free = true;
        let mut prefetch_winners = Vec::new();
        for c in 16u64..20 {
            e.tick(Cycle::new(c), &mut sink);
            prefetch_winners.push(e.rr_prefetch);
            assert_eq!(e.rr_predict, predict_cursor, "idle predict port must not advance");
        }
        assert_eq!(prefetch_winners, vec![1, 2, 3, 0], "prefetch port must rotate fairly");
    }

    #[test]
    fn priority_scheduler_breaks_ties_least_recently_serviced() {
        let mut config = SbConfig::sequential_baseline().with_scheduler(Scheduler::Priority);
        config.buffers = 3;
        let mut e = StreamEngine::new(config, SequentialPredictor::new(32, 3), "t".to_owned());
        for (i, base) in [0x10_0000u64, 0x20_0000, 0x30_0000].into_iter().enumerate() {
            e.allocate(Cycle::ZERO, Addr::new(0x1000 + i as u64 * 8), Addr::new(base));
        }
        let mut sink = TestSink::new(1);
        sink.bus_is_free = false;
        // All three buffers sit at priority 3: the tie-break must hand the
        // predictor to whichever was serviced longest ago, producing a
        // fair rotation rather than starving the low-index buffers.
        let mut winners = Vec::new();
        for c in 0u64..6 {
            e.tick(Cycle::new(c), &mut sink);
            winners.push(e.rr_predict);
        }
        assert_eq!(winners, vec![2, 1, 0, 2, 1, 0], "equal priorities must rotate LRU");
        // A priority edge overrides recency: the freshly rewarded buffer
        // wins even though it was serviced most recently.
        e.buffers[0].reward(2);
        e.tick(Cycle::new(6), &mut sink);
        e.tick(Cycle::new(7), &mut sink);
        assert_eq!(e.rr_predict, 0, "higher priority must beat the LRU tie-break");
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(
            PsbPrefetcher::psb(SbConfig::psb_conf_priority()).name(),
            "psb-confalloc-priority"
        );
        assert_eq!(PsbPrefetcher::psb(SbConfig::psb_two_miss_rr()).name(), "psb-2miss-rr");
        assert_eq!(StrideStreamBuffers::pc_stride().name(), "pc-stride");
        assert_eq!(SequentialStreamBuffers::sequential().name(), "sequential");
    }
}
