//! Generic ordered worker pool: the concurrency core of the sweep
//! harness, factored out so `cargo xtask model` can exhaustively
//! explore its interleavings with cheap payloads instead of full
//! simulations.
//!
//! The shape is claim-by-cursor fan-out with submission-order results:
//! workers claim item indices from a shared atomic cursor, send
//! `(index, result)` pairs over a channel, and the coordinator (the
//! calling thread) files each result into the slot its *submission*
//! index names — completion order decides nothing but progress
//! callbacks. A panicking item is caught on the worker, reported with
//! its index, and never takes the pool down: remaining items still run,
//! every worker joins, and the caller gets a typed error naming the
//! first failing item.
//!
//! All synchronization goes through the [`psb_model`] shims, so the
//! code model-checked by `crates/sim/tests/model.rs` is exactly the
//! code production sweeps run.

use psb_model::sync::atomic::{AtomicUsize, Ordering};
use psb_model::sync::mpsc;
use psb_model::thread;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A panic captured from a pool worker while it ran one item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolPanic {
    /// Submission index of the item whose work function panicked.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for PoolPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PoolPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `work` over every item on `workers` threads and returns the
/// results in submission order.
///
/// `work` receives `(worker, index, item)`, where `worker` is a stable
/// `0..workers` id of the thread running the item (a host-time ledger
/// can draw one lane per worker from it; the sweep ignores it).
///
/// `on_done` fires once per successful item, in completion order, on
/// the calling thread — callers hang progress display and other
/// single-threaded aggregation (e.g. `Obs` counters) there.
///
/// A panic inside `work` does not poison the pool: the worker catches
/// it, reports it, and keeps draining items. When any item panicked the
/// call returns the [`PoolPanic`] with the smallest index (a
/// deterministic choice — completion order never picks the error).
pub fn run_ordered_tracked<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    work: impl Fn(usize, usize, &I) -> T + Sync,
    mut on_done: impl FnMut(usize, &T),
) -> Result<Vec<T>, PoolPanic> {
    let total = items.len();
    if total == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.clamp(1, total);

    // Submission-order slots: worker completion order decides nothing
    // but the progress callbacks.
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let mut first_panic: Option<PoolPanic> = None;
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<T, String>)>();
    let work = &work;

    thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = catch_unwind(AssertUnwindSafe(|| work(w, i, item)))
                    .map_err(|p| panic_message(p.as_ref()));
                if tx.send((i, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        // The coordinator aggregates on the caller's thread; the scope
        // joins every worker before this block exits, panic or not.
        for (index, out) in rx {
            match out {
                Ok(value) => {
                    on_done(index, &value);
                    slots[index] = Some(value);
                }
                Err(message) => {
                    if first_panic.as_ref().is_none_or(|p| index < p.index) {
                        first_panic = Some(PoolPanic { index, message });
                    }
                }
            }
        }
    });

    if let Some(p) = first_panic {
        return Err(p);
    }
    Ok(slots
        .into_iter()
        .map(|s| {
            // Invariant: the scope joined every worker, and a worker
            // either sends each claimed index or reports its panic (in
            // which case we returned Err above), so every slot is full.
            s.expect("invariant: every submitted item reported a result")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_submission_order() {
        let items: Vec<usize> = (0..16).collect();
        let out =
            run_ordered_tracked(&items, 4, |_, i, &v| (i, v * 2), |_, _| {}).expect("no panics");
        assert_eq!(out.len(), 16);
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(doubled, i * 2);
        }
    }

    #[test]
    fn on_done_fires_once_per_item_on_the_calling_thread() {
        let items: Vec<u32> = (0..9).collect();
        let mut seen = Vec::new();
        run_ordered_tracked(&items, 3, |_, _, &v| v, |i, &v| seen.push((i, v))).expect("no panics");
        seen.sort_unstable();
        assert_eq!(seen, (0..9).map(|v| (v as usize, v)).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_item_reports_its_index_and_pool_joins() {
        let items: Vec<usize> = (0..8).collect();
        let err = run_ordered_tracked(
            &items,
            3,
            |_, _, &v| {
                if v == 5 {
                    panic!("item five exploded");
                }
                v
            },
            |_, _| {},
        )
        .expect_err("item 5 must fail the pool");
        assert_eq!(err.index, 5);
        assert!(err.message.contains("item five exploded"), "got: {}", err.message);
        // Reaching this line at all proves every worker joined.
    }

    #[test]
    fn smallest_failing_index_wins_deterministically() {
        let items: Vec<usize> = (0..12).collect();
        for workers in [1, 2, 4] {
            let err = run_ordered_tracked(
                &items,
                workers,
                |_, _, &v| {
                    if v % 3 == 2 {
                        panic!("boom at {v}");
                    }
                    v
                },
                |_, _| {},
            )
            .expect_err("several items fail");
            assert_eq!(err.index, 2, "workers={workers} must report the smallest index");
        }
    }

    #[test]
    fn tracked_work_sees_in_range_worker_ids_and_matching_indices() {
        let items: Vec<usize> = (0..32).collect();
        let out = run_ordered_tracked(
            &items,
            4,
            |w, i, &v| {
                assert!(w < 4, "worker id out of range: {w}");
                assert_eq!(i, v, "claimed index must match the item");
                (w, v * 3)
            },
            |_, _| {},
        )
        .expect("no panics");
        for (i, &(w, tripled)) in out.iter().enumerate() {
            assert!(w < 4);
            assert_eq!(tripled, i * 3);
        }
    }

    #[test]
    fn empty_input_is_a_noop() {
        let out: Vec<u8> =
            run_ordered_tracked(&[], 4, |_, _, _: &u8| unreachable!(), |_, _| {}).expect("no work");
        assert!(out.is_empty());
    }
}
