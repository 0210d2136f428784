//! Modeled threads (`--cfg psb_model` builds only): scoped spawn and
//! join, mirroring the `std::thread` subset the workspace uses.
//!
//! Model threads are real OS threads under the controller's baton.
//! Spawning registers the child as runnable and is itself a scheduling
//! point, so "child runs before the parent's next step" is explored.
//! Scoped threads are OS-joined by a drop guard before the borrowed
//! frame can die — on panic/abort unwinds too — which is what makes the
//! `'scope` lifetime transmute in [`Scope::spawn`] sound.

use super::{current_ctx, run_model_thread, Blocker, Controller};
use std::any::Any;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex as OsMutex, PoisonError};

/// Deterministic stand-in for `std::thread::available_parallelism`:
/// model executions always see two hardware threads, so thread-count
/// heuristics behave identically on every host.
pub fn available_parallelism() -> std::io::Result<NonZeroUsize> {
    Ok(NonZeroUsize::new(2).expect("2 is nonzero"))
}

/// Parks the calling model thread until `tid` finishes.
fn model_join(tid: usize) {
    let ctx = current_ctx();
    loop {
        ctx.ctl.sched_point(ctx.tid);
        if ctx.ctl.is_done(tid) {
            return;
        }
        ctx.ctl.block_on(ctx.tid, Blocker::Join(tid));
    }
}

fn take_result<T>(tid: usize, cell: &OsMutex<Option<T>>) -> std::thread::Result<T> {
    match cell.lock().unwrap_or_else(PoisonError::into_inner).take() {
        Some(v) => Ok(v),
        // A missing result means the thread panicked. The payload
        // already reached the controller, which reports the panic as a
        // model violation; this Err is only observed transiently while
        // the execution tears down.
        None => Err(Box::new(format!("model thread {tid} panicked")) as Box<dyn Any + Send>),
    }
}

/// Scope for spawning threads that borrow from the caller's frame,
/// analogous to `std::thread::Scope`.
pub struct Scope<'scope, 'env: 'scope> {
    ctl: Arc<Controller>,
    /// Children not yet explicitly joined; the scope end joins them.
    pending: RefCell<Vec<usize>>,
    /// OS handles for every child; the drop guard joins them before the
    /// borrowed frame dies.
    os: RefCell<Vec<std::thread::JoinHandle<()>>>,
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

/// Handle to a scoped model thread, analogous to
/// `std::thread::ScopedJoinHandle`.
pub struct ScopedJoinHandle<'scope, T> {
    tid: usize,
    cell: Arc<OsMutex<Option<T>>>,
    pending: &'scope RefCell<Vec<usize>>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits (in model time) for the thread to finish and returns its
    /// result.
    pub fn join(self) -> std::thread::Result<T> {
        self.pending.borrow_mut().retain(|&t| t != self.tid);
        model_join(self.tid);
        take_result(self.tid, &self.cell)
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a thread that may borrow non-`'static` data from the
    /// enclosing frame, analogous to `std::thread::Scope::spawn`.
    pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let ctx = current_ctx();
        let tid = self.ctl.register_thread();
        let cell: Arc<OsMutex<Option<T>>> = Arc::new(OsMutex::new(None));
        let out = cell.clone();
        let body: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let v = f();
            *out.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
        });
        // SAFETY: the closure (and everything it borrows) outlives the
        // child thread because ScopeGuard OS-joins every child before
        // `scope` returns or unwinds — the same contract that makes
        // std::thread::scope sound.
        let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
        let ctl = self.ctl.clone();
        let h = std::thread::Builder::new()
            .name(format!("psb-model-{tid}"))
            .spawn(move || run_model_thread(ctl, tid, body))
            .expect("spawning a scoped model thread");
        self.os.borrow_mut().push(h);
        self.pending.borrow_mut().push(tid);
        // The child is runnable from here on.
        ctx.ctl.sched_point(ctx.tid);
        ScopedJoinHandle { tid, cell, pending: &self.pending }
    }
}

/// OS-joins every scoped child when the scope frame dies, normally or
/// by unwind. On unwind it first forces an execution abort so children
/// parked on the scheduler wake, raise the abort sentinel and exit —
/// otherwise the OS-level join below would wait on a thread that never
/// gets the baton again.
struct ScopeGuard<'a> {
    ctl: Arc<Controller>,
    os: &'a RefCell<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.ctl.force_abort();
        }
        for h in self.os.borrow_mut().drain(..) {
            let _ = h.join();
        }
    }
}

/// Creates a scope for spawning borrowing threads, analogous to
/// `std::thread::scope`: every spawned child is joined (in model time
/// and at the OS level) before this returns.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let ctx = current_ctx();
    let sc = Scope {
        ctl: ctx.ctl.clone(),
        pending: RefCell::new(Vec::new()),
        os: RefCell::new(Vec::new()),
        scope_marker: PhantomData,
        env_marker: PhantomData,
    };
    let guard = ScopeGuard { ctl: ctx.ctl.clone(), os: &sc.os };
    let out = f(&sc);
    // Normal exit: children the body did not join explicitly are joined
    // here, in model time, so their effects are complete.
    let pending: Vec<usize> = std::mem::take(&mut *sc.pending.borrow_mut());
    for tid in pending {
        model_join(tid);
    }
    drop(guard);
    out
}
