//! Model-checked tests for the sweep worker pool
//! (`psb_sim::pool::run_ordered_tracked` — the engine under `run_sweep`).
//!
//! This file only compiles under `--cfg psb_model` (run it through
//! `cargo xtask model`); in normal builds it is an empty test crate.
//! Work payloads are cheap integers, not simulations: the concurrency
//! skeleton being explored is exactly the one production sweeps run,
//! because `run_ordered_tracked` is the shared implementation.

#![cfg(psb_model)]

use psb_model::sched::{explore, ModelConfig, EXPECTED_PANIC_MARKER};
use psb_model::sync::atomic::{AtomicUsize, Ordering};
use psb_sim::run_ordered_tracked;
use std::sync::Arc;

fn cfg(max_dfs: usize, random: usize) -> ModelConfig {
    ModelConfig { max_dfs, random, ..ModelConfig::default() }.from_env()
}

/// Every interleaving of a pool run must fill every result slot exactly
/// once, in submission order, with each work item executed exactly once.
fn assert_pool_exact(workers: usize, items: usize, max_dfs: usize, random: usize) {
    let report = explore(&format!("pool_{workers}w_{items}i"), &cfg(max_dfs, random), move || {
        let items_vec: Vec<usize> = (0..items).collect();
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..items).map(|_| AtomicUsize::new(0)).collect());
        let runs_in = runs.clone();
        let mut done_indices = Vec::new();
        let out = run_ordered_tracked(
            &items_vec,
            workers,
            move |_, i, &v| {
                assert_eq!(i, v, "claimed index must match the item");
                runs_in[i].fetch_add(1, Ordering::SeqCst);
                v * 10
            },
            |i, &v| {
                assert_eq!(v, i * 10);
                done_indices.push(i);
            },
        )
        .expect("no cell panics in this body");

        // Results drain in submission order regardless of completion order.
        let expect: Vec<usize> = (0..items).map(|v| v * 10).collect();
        assert_eq!(out, expect, "slots must be filled in submission order");
        // Each item ran exactly once.
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::SeqCst), 1, "item {i} must run exactly once");
        }
        // Progress fired once per item.
        done_indices.sort_unstable();
        assert_eq!(done_indices, (0..items).collect::<Vec<_>>());
    });
    assert!(report.executions > 1, "a multi-worker pool must branch");
}

#[test]
fn pool_two_workers_four_items_exact_once_in_order() {
    assert_pool_exact(2, 4, 4000, 400);
}

#[test]
fn pool_three_workers_six_items_exact_once_in_order() {
    assert_pool_exact(3, 6, 3000, 300);
}

/// A panicking work item must leave the pool joinable: the run returns
/// an error naming the item instead of hanging or tearing the process
/// down, under every explored interleaving.
#[test]
fn pool_survives_a_panicking_item_and_names_it() {
    explore("pool_panic_joinable", &cfg(2500, 300), || {
        let items: Vec<usize> = (0..4).collect();
        let err = run_ordered_tracked(
            &items,
            2,
            |_, _, &v| {
                if v == 1 {
                    panic!("{EXPECTED_PANIC_MARKER} injected item failure");
                }
                v
            },
            |i, _| assert_ne!(i, 1, "the panicked item must not report success"),
        )
        .expect_err("item 1 panics in every interleaving");
        // Reaching here at all proves every worker joined (a hang would
        // surface as a deadlock violation).
        assert_eq!(err.index, 1, "the error must name the failing item");
        assert!(err.message.contains("injected item failure"));
    });
}
