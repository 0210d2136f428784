//! Differential suites for the arena-flattened cache tag array and the
//! vector-backed MSHR file.
//!
//! [`psb_mem::Cache`] packs validity into per-line LRU stamps (stamp 0 =
//! invalid) over two flat arrays and indexes sets by mask/shift when the
//! set count is a power of two. This file re-implements the tag array
//! the obvious way — per-way structs with explicit `valid` flags, a
//! prefer-first-invalid victim scan, `%` / `/` indexing — and drives
//! both through identical SplitMix64 workloads, comparing every
//! externally visible output after every operation.
//!
//! [`psb_mem::Mshr`] keeps its registers in a small vector with a cached
//! earliest-ready cycle. Its reference model is the earlier `HashMap`
//! file (its logic verbatim, without the observability handles), driven
//! the same way at a 16-register capacity and with no register limit.
//!
//! The `teeth_*` tests prove the comparators bite: a tag array whose set
//! mask is off by one (`num_sets - 2`, folding odd sets onto even ones),
//! and an MSHR file whose drain forgets to refresh its earliest-ready
//! cycle, must each be flagged as divergent.

use psb_common::{Addr, BlockAddr, Cycle, SplitMix64};
use psb_mem::{Cache, CacheConfig, Mshr, MshrError};
use std::collections::HashMap;

const CASES: u64 = 30;

#[derive(Copy, Clone)]
struct ModelWay {
    tag: u64,
    lru: u64,
    valid: bool,
}

/// The pre-arena tag array: explicit validity, branchy victim choice.
struct ModelCache {
    ways: Vec<ModelWay>,
    num_sets: u64,
    assoc: usize,
    block: u64,
    stamp: u64,
    mask_bug: bool,
}

impl ModelCache {
    fn new(config: &CacheConfig, mask_bug: bool) -> Self {
        let num_sets = config.num_sets();
        ModelCache {
            ways: vec![ModelWay { tag: 0, lru: 0, valid: false }; num_sets as usize * config.assoc],
            num_sets,
            assoc: config.assoc,
            block: config.block,
            stamp: 0,
            mask_bug,
        }
    }

    fn set_and_tag(&self, block: BlockAddr) -> (usize, u64) {
        if self.mask_bug {
            // Deliberately broken: mask one short of the set count.
            ((block.0 & (self.num_sets - 2)) as usize, block.0 / self.num_sets)
        } else {
            ((block.0 % self.num_sets) as usize, block.0 / self.num_sets)
        }
    }

    fn ways(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.assoc;
        base..base + self.assoc
    }

    fn probe_block(&self, block: BlockAddr) -> bool {
        let (set, tag) = self.set_and_tag(block);
        self.ways(set).any(|i| self.ways[i].valid && self.ways[i].tag == tag)
    }

    fn access_block(&mut self, block: BlockAddr) -> bool {
        let (set, tag) = self.set_and_tag(block);
        self.stamp += 1;
        for i in self.ways(set) {
            if self.ways[i].valid && self.ways[i].tag == tag {
                self.ways[i].lru = self.stamp;
                return true;
            }
        }
        false
    }

    fn insert_block(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let (set, tag) = self.set_and_tag(block);
        self.stamp += 1;
        for i in self.ways(set) {
            if self.ways[i].valid && self.ways[i].tag == tag {
                self.ways[i].lru = self.stamp;
                return None;
            }
        }
        // Victim: the first invalid way, else the least recently used.
        let slot = self.ways(set).find(|&i| !self.ways[i].valid).unwrap_or_else(|| {
            self.ways(set)
                .min_by_key(|&i| self.ways[i].lru)
                .expect("assoc >= 1 gives every set at least one way")
        });
        let evicted = self.ways[slot]
            .valid
            .then(|| BlockAddr(self.ways[slot].tag * self.num_sets + set as u64));
        self.ways[slot] = ModelWay { tag, lru: self.stamp, valid: true };
        evicted
    }

    fn invalidate(&mut self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr.block(self.block));
        for i in self.ways(set) {
            if self.ways[i].valid && self.ways[i].tag == tag {
                self.ways[i].valid = false;
                return true;
            }
        }
        false
    }

    fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

/// Drives the arena cache and the model through one identical random
/// workload, comparing every return value. Returns the first divergence
/// as an error so the teeth test can assert on detection.
fn cache_differential(config: CacheConfig, seed: u64, mask_bug: bool) -> Result<(), String> {
    let mut arena = Cache::new(config);
    let mut model = ModelCache::new(arena.config(), mask_bug);
    let mut rng = SplitMix64::new(seed);
    // A block space a few times the cache capacity: plenty of conflict
    // misses, evictions and re-references.
    let space = (arena.capacity_lines() as u64) * 4;
    for op in 0..600 {
        let block = BlockAddr(rng.below(space));
        match rng.below(5) {
            0 => {
                if arena.probe_block(block) != model.probe_block(block) {
                    return Err(format!("op {op}: probe({block:?}) diverged"));
                }
            }
            1 | 2 => {
                if arena.access_block(block) != model.access_block(block) {
                    return Err(format!("op {op}: access({block:?}) diverged"));
                }
            }
            3 => {
                let ea = arena.insert_block(block);
                let em = model.insert_block(block);
                if ea != em {
                    return Err(format!("op {op}: insert({block:?}) evicted {ea:?} vs {em:?}"));
                }
            }
            _ => {
                let addr = Addr::new(block.0 * arena.block_size());
                if arena.invalidate(addr) != model.invalidate(addr) {
                    return Err(format!("op {op}: invalidate({block:?}) diverged"));
                }
            }
        }
        if arena.occupancy() != model.occupancy() {
            return Err(format!(
                "op {op}: occupancy diverged: arena {}, model {}",
                arena.occupancy(),
                model.occupancy()
            ));
        }
    }
    Ok(())
}

#[test]
fn cache_arena_matches_reference_model() {
    // Several set counts down to the single-set (fully associative)
    // edge case, where the whole index is tag.
    let geometries =
        [CacheConfig::new(1024, 2, 32), CacheConfig::new(512, 4, 32), CacheConfig::new(256, 8, 32)];
    for config in geometries {
        for seed in 0..CASES {
            cache_differential(config, 0xCAC4E + seed, false)
                .expect("arena cache must track the reference model");
        }
    }
}

#[test]
fn teeth_cache_off_by_one_set_mask_is_caught() {
    let config = CacheConfig::new(1024, 2, 32); // 16 sets
    let caught = (0..CASES).any(|seed| cache_differential(config, 0xCAC4E + seed, true).is_err());
    assert!(caught, "an off-by-one set mask must diverge from the correct tag array");
}

/// The earlier MSHR file as the reference model, its logic verbatim: a
/// `HashMap` scanned, collected and sorted on every drain. With
/// `stale_gate` set it also keeps an earliest-ready cycle that a drain
/// forgets to refresh from the surviving entries (the bug the teeth test
/// plants).
struct ModelMshr {
    capacity: usize,
    pending: HashMap<BlockAddr, Cycle>,
    stale_gate: Option<Cycle>,
}

impl ModelMshr {
    fn new(capacity: usize, stale_gate: bool) -> Self {
        ModelMshr {
            capacity,
            pending: HashMap::new(),
            stale_gate: stale_gate.then_some(Cycle::new(u64::MAX)),
        }
    }

    fn lookup(&self, block: BlockAddr) -> Option<Cycle> {
        self.pending.get(&block).copied()
    }

    fn contains(&self, block: BlockAddr) -> bool {
        self.pending.contains_key(&block)
    }

    fn allocate(&mut self, block: BlockAddr, ready: Cycle) -> Result<(), MshrError> {
        if let Some(gate) = &mut self.stale_gate {
            *gate = (*gate).min(ready);
        }
        if let Some(existing) = self.pending.get_mut(&block) {
            if ready < *existing {
                *existing = ready;
            }
            return Ok(());
        }
        if self.pending.len() >= self.capacity {
            return Err(MshrError::Full);
        }
        self.pending.insert(block, ready);
        Ok(())
    }

    fn drain_ready(&mut self, now: Cycle) -> Vec<BlockAddr> {
        if let Some(gate) = &mut self.stale_gate {
            if now < *gate {
                return Vec::new();
            }
            // The bug: reset instead of recomputing from the survivors.
            *gate = Cycle::new(u64::MAX);
        }
        let mut done: Vec<(Cycle, BlockAddr)> = self
            .pending
            .iter()
            .filter(|(_, &ready)| ready <= now)
            .map(|(&b, &ready)| (ready, b))
            .collect();
        done.sort_unstable();
        for (_, b) in &done {
            self.pending.remove(b);
        }
        done.into_iter().map(|(_, b)| b).collect()
    }

    fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn is_full(&self) -> bool {
        self.pending.len() >= self.capacity
    }
}

/// Drives the vector MSHR file and the model through one random
/// workload, comparing every output. `now` wanders backwards by up to 30
/// cycles, as the D-TLB penalty makes the L1's clock do; blocks come from
/// a space a little larger than 16 registers, so merges, full rejects and
/// drains of several fills at once all occur.
fn mshr_differential(capacity: usize, seed: u64, stale_gate: bool) -> Result<(), String> {
    let mut real = Mshr::new(capacity);
    let mut model = ModelMshr::new(capacity, stale_gate);
    let mut rng = SplitMix64::new(seed);
    let mut clock = 100u64;
    for op in 0..800 {
        clock += rng.below(8);
        let now = Cycle::new(clock - rng.below(31));
        let block = BlockAddr(rng.below(24));
        match rng.below(6) {
            0 | 1 => {
                let ready = now + rng.below(200);
                let (r, m) = (real.allocate(block, ready), model.allocate(block, ready));
                if r != m {
                    return Err(format!("op {op}: allocate({block:?}, {ready:?}) {r:?} vs {m:?}"));
                }
            }
            2 => {
                if real.lookup(block) != model.lookup(block) {
                    return Err(format!("op {op}: lookup({block:?}) diverged"));
                }
            }
            3 => {
                if real.contains(block) != model.contains(block) {
                    return Err(format!("op {op}: contains({block:?}) diverged"));
                }
            }
            _ => {
                let (r, m) = (real.drain_ready(now), model.drain_ready(now));
                if r != m {
                    return Err(format!("op {op}: drain_ready({now:?}) {r:?} vs {m:?}"));
                }
            }
        }
        if real.in_flight() != model.in_flight() || real.is_full() != model.is_full() {
            return Err(format!(
                "op {op}: occupancy diverged: real {} (full {}), model {} (full {})",
                real.in_flight(),
                real.is_full(),
                model.in_flight(),
                model.is_full()
            ));
        }
    }
    Ok(())
}

#[test]
fn mshr_matches_reference_model() {
    for capacity in [16, usize::MAX] {
        for seed in 0..CASES {
            mshr_differential(capacity, 0x5A5A + seed, false)
                .expect("the vector MSHR file must track the HashMap model");
        }
    }
}

#[test]
fn teeth_mshr_stale_earliest_ready_is_caught() {
    let caught = (0..CASES).any(|seed| mshr_differential(16, 0x5A5A + seed, true).is_err());
    assert!(caught, "a drain that forgets to refresh the earliest-ready cycle must diverge");
}
