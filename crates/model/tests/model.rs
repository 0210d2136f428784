//! Model-checked tests for the psb-model scheduler and shims.
//!
//! This file only compiles under `--cfg psb_model` (run it through
//! `cargo xtask model`); in normal builds it is an empty test crate.

#![cfg(psb_model)]

use psb_model::sched::{explore, replay, try_explore, ModelConfig, EXPECTED_PANIC_MARKER};
use psb_model::sync::atomic::{AtomicUsize, Ordering};
use psb_model::sync::{mpsc, Mutex, OnceLock};
use psb_model::thread;
use std::sync::Arc;

fn small() -> ModelConfig {
    ModelConfig { max_dfs: 2000, random: 200, ..ModelConfig::default() }.from_env()
}

/// The canonical seeded bug: a non-atomic read-modify-write. Two
/// threads each load the counter and store back `+1`; under at least
/// one interleaving an increment is lost. The checker must find it and
/// the printed schedule must reproduce it deterministically.
#[test]
fn detects_lost_update_and_replays_it() {
    fn racy_body() {
        let n = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..2 {
                let n = n.clone();
                s.spawn(move || {
                    let seen = n.load(Ordering::SeqCst);
                    n.store(seen + 1, Ordering::SeqCst);
                });
            }
        });
        let total = n.load(Ordering::SeqCst);
        assert!(total == 2, "{EXPECTED_PANIC_MARKER} lost update: counter is {total}, not 2");
    }

    let violation =
        try_explore(&small(), racy_body).expect_err("the lost-update bug must be found");
    assert!(
        violation.message.contains("lost update"),
        "unexpected violation: {}",
        violation.message
    );
    assert_ne!(violation.schedule, "-", "a race needs at least one branching decision");

    // The schedule string must reproduce the same failure, twice.
    for _ in 0..2 {
        let again = replay(&violation.schedule, racy_body)
            .expect_err("replaying the failing schedule must fail again");
        assert!(again.message.contains("lost update"), "replay diverged: {}", again.message);
    }
}

/// The same shape with an atomic `fetch_add` has no lost update: the
/// exploration must complete without a violation.
#[test]
fn fetch_add_has_no_lost_update() {
    let report = explore("fetch_add", &small(), || {
        let n = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..2 {
                let n = n.clone();
                s.spawn(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(n.load(Ordering::SeqCst), 2);
    });
    assert!(report.executions > 1, "two racing threads imply multiple interleavings");
}

/// Classic AB-BA lock ordering: the checker must drive the two threads
/// into the deadlocked interleaving and report it.
#[test]
fn detects_ab_ba_deadlock() {
    let violation = try_explore(&small(), || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        thread::scope(|s| {
            {
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    let _ga = a.lock().unwrap();
                    let _gb = b.lock().unwrap();
                });
            }
            {
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    let _gb = b.lock().unwrap();
                    let _ga = a.lock().unwrap();
                });
            }
        });
    })
    .expect_err("the AB-BA deadlock must be found");
    assert!(violation.message.contains("deadlock"), "got: {}", violation.message);
}

/// Mutual exclusion actually holds: a mutex-protected read-modify-write
/// never loses updates, across every explored interleaving.
#[test]
fn mutex_serializes_critical_sections() {
    explore("mutex_rmw", &small(), || {
        let n = Arc::new(Mutex::new(0usize));
        thread::scope(|s| {
            for _ in 0..2 {
                let n = n.clone();
                s.spawn(move || {
                    let mut g = n.lock().unwrap();
                    *g += 1;
                });
            }
        });
        assert_eq!(*n.lock().unwrap(), 2);
    });
}

/// OnceLock initializes exactly once no matter how callers race, and
/// every caller observes the winner's value.
#[test]
fn oncelock_initializes_exactly_once() {
    explore("oncelock_once", &small(), || {
        let cell = Arc::new(OnceLock::new());
        let inits = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for t in 0..2usize {
                let cell = cell.clone();
                let inits = inits.clone();
                s.spawn(move || {
                    let v = *cell.get_or_init(|| {
                        inits.fetch_add(1, Ordering::SeqCst);
                        t
                    });
                    assert!(v < 2);
                });
            }
        });
        assert_eq!(inits.load(Ordering::SeqCst), 1, "initializer must run exactly once");
        assert!(cell.get().is_some());
    });
}

/// Channel semantics: per-sender FIFO order is preserved, nothing is
/// lost or duplicated, and the receiver terminates once all senders
/// hang up.
#[test]
fn channel_preserves_per_sender_fifo() {
    explore("channel_fifo", &small(), || {
        let (tx, rx) = mpsc::channel::<usize>();
        thread::scope(|s| {
            for t in 0..2usize {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..2 {
                        tx.send(t * 10 + i).expect("receiver alive");
                    }
                });
            }
            drop(tx);
            let got: Vec<usize> = rx.into_iter().collect();
            assert_eq!(got.len(), 4, "all sends arrive exactly once");
            for t in 0..2 {
                let mine: Vec<usize> = got.iter().copied().filter(|v| v / 10 == t).collect();
                assert_eq!(mine, vec![t * 10, t * 10 + 1], "per-sender order holds");
            }
        });
    });
}

/// A panic on a model thread is reported as a violation with a
/// schedule, not swallowed and not a hang.
#[test]
fn thread_panic_is_a_violation() {
    let violation = try_explore(&small(), || {
        thread::scope(|s| {
            s.spawn(|| {
                panic!("{EXPECTED_PANIC_MARKER} deliberate child panic");
            });
        });
    })
    .expect_err("the child panic must surface as a violation");
    assert!(violation.message.contains("deliberate child panic"), "got: {}", violation.message);
}
