//! Observability artifacts end to end: the psb-run-v1 report and the
//! Chrome trace of an instrumented run are pinned byte for byte, so a
//! change to how events reach the hub cannot silently move either, and
//! the memory event log reports each prefetch's fate in the order it
//! happened.
//!
//! The pinned setup matches the benchmark's `observed` workload (Chrome
//! trace, 10k-cycle interval sampler and a 1000-entry event ring, all
//! attached at once) on a 40k-commit window. A deliberate change to
//! either artifact must update the digests below and say why.

use psb::cpu::Pipeline;
use psb::obs::Obs;
use psb::sim::{
    json_report, MachineConfig, MemEvent, MemEventKind, MemLog, PrefetcherKind, SimMemory,
    Simulation,
};
use psb::workloads::Benchmark;
use std::collections::HashSet;

const WINDOW: u64 = 40_000;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Runs `bench` under conf-priority with the full observability stack
/// and returns the digests of the rendered report and trace.
fn observed_digests(bench: Benchmark) -> (u64, u64) {
    let obs = Obs::new();
    obs.enable_trace(1 << 20);
    obs.enable_interval(10_000);
    let kind = PrefetcherKind::PsbConfPriority;
    let stats = Simulation::new_shared(
        MachineConfig::baseline().with_prefetcher(kind),
        bench.shared_trace(1),
        WINDOW,
    )
    .with_obs(obs.clone())
    .with_event_log(MemLog::shared_ring(1000))
    .run();
    let report = json_report(bench.name(), kind.label(), &stats, Some(&obs)).to_string();
    let trace = obs.trace_json().expect("tracing is enabled").to_string();
    (fnv1a(&report), fnv1a(&trace))
}

#[test]
fn health_observed_artifacts_are_pinned() {
    let (report, trace) = observed_digests(Benchmark::Health);
    assert_eq!(report, 0x6155_e720_4c4b_007e, "health psb-run-v1 report moved");
    assert_eq!(trace, 0xa21a_ce30_7b44_3d49, "health Chrome trace moved");
}

#[test]
fn turb3d_observed_artifacts_are_pinned() {
    let (report, trace) = observed_digests(Benchmark::Turb3d);
    assert_eq!(report, 0xf987_9098_dd10_ba1c, "turb3d psb-run-v1 report moved");
    assert_eq!(trace, 0x6042_ece2_5c40_3e9e, "turb3d Chrome trace moved");
}

fn conf_priority() -> MachineConfig {
    MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority)
}

/// The whole event log of a health window with the hub and the log
/// attached in the given order.
fn health_log(obs_first: bool) -> Vec<MemEvent> {
    let config = conf_priority();
    let (obs, log) = (Obs::new(), MemLog::shared(1 << 20));
    let mut mem = SimMemory::new(&config);
    if obs_first {
        mem.attach_obs(&obs);
        mem.attach_log(log.clone());
    } else {
        mem.attach_log(log.clone());
        mem.attach_obs(&obs);
    }
    let trace = Benchmark::Health.shared_trace(1);
    Pipeline::new(config.cpu).run(trace.iter().copied(), &mut mem, WINDOW);
    let events = log.borrow().events().to_vec();
    events
}

#[test]
fn log_reports_each_prefetch_fate_in_true_order() {
    let log = health_log(false);
    let block_size = conf_priority().mem.l1d.block;
    let block = |e: &MemEvent| (e.cycle, e.addr.raw() / block_size);
    // A late use is reported right after the access that consumed the
    // block still in flight.
    let mut late = 0;
    for (i, e) in log.iter().enumerate().filter(|(_, e)| e.kind == MemEventKind::PrefetchLate) {
        late += 1;
        let access = i.checked_sub(1).map(|j| log[j]);
        assert!(
            access.is_some_and(|a| a.kind == MemEventKind::SbHitInFlight && block(&a) == block(e)),
            "line {i}: `{e}` does not directly follow its sb-inflight access"
        );
    }
    assert!(late > 100, "the window must exercise late prefetches ({late})");
    // A block arrives before a same-cycle stream-buffer hit consumes it.
    let mut consumed = HashSet::new();
    for e in &log {
        match e.kind {
            MemEventKind::SbHitReady => {
                consumed.insert(block(e));
            }
            MemEventKind::PrefetchFilled => {
                assert!(!consumed.contains(&block(e)), "`{e}` logged after the hit that used it");
            }
            _ => {}
        }
    }
}

#[test]
fn log_does_not_depend_on_attach_order() {
    assert_eq!(health_log(false), health_log(true));
}
