//! Modeled synchronization primitives (`--cfg psb_model` builds only).
//!
//! Each type keeps its *data* inline in an `UnsafeCell` and its
//! *scheduling state* (ownership, queue length, waiters) in the
//! execution's [`Controller`](super::Controller). The `UnsafeCell`
//! accesses are sound because the controller's baton guarantees at most
//! one model thread executes between scheduling points — data races are
//! converted into explicitly explored interleavings.

use super::{current_ctx, Blocker, Ctx, OnceState, RegCell, Resource};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{RecvError, SendError};
use std::sync::{Arc, LockResult, PoisonError};

/// A scheduling point at the start of a shim operation; returns the
/// calling thread's context.
fn point() -> Ctx {
    let ctx = current_ctx();
    ctx.ctl.sched_point(ctx.tid);
    ctx
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// Modeled `std::sync::Mutex`: acquisition is a scheduling point,
/// contention parks the thread in the scheduler, and a panic while
/// holding the guard poisons the lock exactly like std.
pub struct Mutex<T: ?Sized> {
    reg: RegCell,
    data: UnsafeCell<T>,
}

// SAFETY: the scheduler baton serializes every access to `data`; the
// bounds mirror std's.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a mutex holding `t`.
    pub const fn new(t: T) -> Mutex<T> {
        Mutex { reg: RegCell::new(), data: UnsafeCell::new(t) }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn res_id(&self, ctx: &Ctx, st: &mut super::SchedState) -> usize {
        self.reg.id(ctx.ctl.epoch, st, || Resource::Mutex { owner: None, poisoned: false })
    }

    /// Acquires the mutex, blocking (in model time) until it is free.
    /// Returns `Err(PoisonError)` carrying the guard when a previous
    /// owner panicked, matching std.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let ctx = point();
        loop {
            let acquired = ctx.ctl.with_state(|st| {
                let id = self.res_id(&ctx, st);
                match st.resource_mut(id) {
                    Resource::Mutex { owner, poisoned } => {
                        if owner.is_none() {
                            *owner = Some(ctx.tid);
                            Some(*poisoned)
                        } else {
                            None
                        }
                    }
                    _ => unreachable!("mutex registered as a non-mutex resource"),
                }
            });
            match acquired {
                Some(poisoned) => {
                    let guard = MutexGuard { lock: self, ctx: ctx.clone() };
                    return if poisoned { Err(PoisonError::new(guard)) } else { Ok(guard) };
                }
                None => {
                    let id = ctx.ctl.with_state(|st| self.res_id(&ctx, st));
                    ctx.ctl.block_on(ctx.tid, Blocker::Mutex(id));
                }
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

/// Guard for a locked [`Mutex`]; releasing (dropping) wakes contenders
/// and poisons the lock when dropped during a panic.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    ctx: Ctx,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this thread owns the lock and holds the baton.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let panicking = std::thread::panicking();
        // Quiet state access: this runs on unwind paths where raising
        // the abort sentinel again would double-panic.
        self.ctx.ctl.with_state_quiet(|st| {
            let id = self.lock.res_id(&self.ctx, st);
            if let Resource::Mutex { owner, poisoned } = st.resource_mut(id) {
                *owner = None;
                if panicking {
                    *poisoned = true;
                }
            }
            st.wake_where(Blocker::Mutex(id));
        });
    }
}

// ---------------------------------------------------------------------
// OnceLock
// ---------------------------------------------------------------------

/// Modeled `std::sync::OnceLock` (the `get` / `get_or_init` subset the
/// workspace uses). Racing initializers are serialized: one runs, the
/// rest park until it finishes; a panicking initializer resets the cell
/// so the next caller retries, matching std.
pub struct OnceLock<T> {
    reg: RegCell,
    value: UnsafeCell<Option<T>>,
}

// SAFETY: baton-serialized access; bounds mirror std's OnceLock.
unsafe impl<T: Send> Send for OnceLock<T> {}
unsafe impl<T: Send + Sync> Sync for OnceLock<T> {}

impl<T> OnceLock<T> {
    /// Creates an empty cell.
    pub const fn new() -> OnceLock<T> {
        OnceLock { reg: RegCell::new(), value: UnsafeCell::new(None) }
    }

    fn res_id(&self, ctx: &Ctx, st: &mut super::SchedState) -> usize {
        self.reg.id(ctx.ctl.epoch, st, || {
            // A static cell can outlive an execution: re-register with
            // the state its data actually holds.
            // SAFETY: caller holds the baton (state lock held).
            let ready = unsafe { (*self.value.get()).is_some() };
            Resource::Once { state: if ready { OnceState::Ready } else { OnceState::Empty } }
        })
    }

    /// The value, if initialization has completed (an in-flight
    /// initializer counts as "not yet").
    pub fn get(&self) -> Option<&T> {
        let ctx = point();
        let ready = ctx.ctl.with_state(|st| {
            let id = self.res_id(&ctx, st);
            matches!(st.resource_mut(id), Resource::Once { state: OnceState::Ready })
        });
        if ready {
            // SAFETY: Ready means the value is set and never mutated
            // again (only `explore` teardown drops it).
            unsafe { (*self.value.get()).as_ref() }
        } else {
            None
        }
    }

    /// Returns the value, running `f` to initialize it if no other
    /// thread has (or is about to — racing callers park until the
    /// winner finishes).
    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        let ctx = current_ctx();
        enum Act {
            Ret,
            Init,
            Wait(usize),
        }
        let id = loop {
            ctx.ctl.sched_point(ctx.tid);
            let act = ctx.ctl.with_state(|st| {
                let id = self.res_id(&ctx, st);
                match st.resource_mut(id) {
                    Resource::Once { state } => match state {
                        OnceState::Ready => Act::Ret,
                        OnceState::Empty => {
                            *state = OnceState::Busy;
                            Act::Init
                        }
                        OnceState::Busy => Act::Wait(id),
                    },
                    _ => unreachable!("oncelock registered as a non-once resource"),
                }
            });
            match act {
                // SAFETY: as for `get`.
                Act::Ret => {
                    return unsafe { (*self.value.get()).as_ref() }
                        .expect("invariant: Ready implies a stored value")
                }
                Act::Wait(id) => ctx.ctl.block_on(ctx.tid, Blocker::Once(id)),
                Act::Init => {
                    let id = ctx.ctl.with_state(|st| self.res_id(&ctx, st));
                    break id;
                }
            }
        };
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => {
                // SAFETY: Busy state means this thread owns the slot.
                unsafe { *self.value.get() = Some(v) };
                ctx.ctl.with_state_quiet(|st| {
                    if let Resource::Once { state } = st.resource_mut(id) {
                        *state = OnceState::Ready;
                    }
                    st.wake_where(Blocker::Once(id));
                });
                // SAFETY: as for `get`.
                unsafe { (*self.value.get()).as_ref() }.expect("invariant: value was just stored")
            }
            Err(p) => {
                // Reset so the next caller retries (std semantics);
                // quiet because `p` may be the abort sentinel.
                ctx.ctl.with_state_quiet(|st| {
                    if let Resource::Once { state } = st.resource_mut(id) {
                        *state = OnceState::Empty;
                    }
                    st.wake_where(Blocker::Once(id));
                });
                resume_unwind(p)
            }
        }
    }
}

impl<T> Default for OnceLock<T> {
    fn default() -> OnceLock<T> {
        OnceLock::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OnceLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnceLock").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

/// Modeled `AtomicUsize`: every access is a scheduling point. The
/// passed `Ordering` is accepted for signature compatibility but the
/// model executes sequentially-consistently.
#[derive(Debug, Default)]
pub struct AtomicUsize {
    inner: std::sync::atomic::AtomicUsize,
}

impl AtomicUsize {
    /// Creates a new atomic holding `v`.
    pub const fn new(v: usize) -> AtomicUsize {
        AtomicUsize { inner: std::sync::atomic::AtomicUsize::new(v) }
    }

    /// Loads the value (scheduling point).
    pub fn load(&self, _order: std::sync::atomic::Ordering) -> usize {
        point();
        self.inner.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Stores `v` (scheduling point).
    pub fn store(&self, v: usize, _order: std::sync::atomic::Ordering) {
        point();
        self.inner.store(v, std::sync::atomic::Ordering::SeqCst);
    }

    /// Adds `v`, returning the previous value (scheduling point).
    pub fn fetch_add(&self, v: usize, _order: std::sync::atomic::Ordering) -> usize {
        point();
        self.inner.fetch_add(v, std::sync::atomic::Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// mpsc channel
// ---------------------------------------------------------------------

struct Chan<T> {
    reg: RegCell,
    q: UnsafeCell<VecDeque<T>>,
}

// SAFETY: baton-serialized access to `q`; endpoint liveness is tracked
// in the controller under its lock.
unsafe impl<T: Send> Send for Chan<T> {}
unsafe impl<T: Send> Sync for Chan<T> {}

impl<T> Chan<T> {
    fn res_id(&self, ctx: &Ctx, st: &mut super::SchedState) -> usize {
        self.reg.id(ctx.ctl.epoch, st, || {
            // Channels are created inside an execution, so this runs in
            // the creating epoch with one sender and a live receiver.
            Resource::Chan { len: 0, senders: 1, recv_alive: true }
        })
    }
}

/// Creates a modeled mpsc channel; the unbounded-queue, asynchronous
/// analogue of `std::sync::mpsc::channel`.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let ctx = current_ctx();
    let chan = Arc::new(Chan { reg: RegCell::new(), q: UnsafeCell::new(VecDeque::new()) });
    // Register eagerly so the initial sender/receiver counts are
    // recorded before any clone or drop needs them.
    ctx.ctl.with_state(|st| {
        chan.res_id(&ctx, st);
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

/// Sending half of a modeled channel.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Sender<T> {
    /// Queues `v` (scheduling point); `Err(SendError)` when the
    /// receiver is gone, matching std.
    pub fn send(&self, v: T) -> Result<(), SendError<T>> {
        let ctx = point();
        let alive = ctx.ctl.with_state(|st| {
            let id = self.chan.res_id(&ctx, st);
            match st.resource_mut(id) {
                Resource::Chan { recv_alive, .. } => *recv_alive,
                _ => unreachable!("channel registered as a non-channel resource"),
            }
        });
        if !alive {
            return Err(SendError(v));
        }
        // SAFETY: baton held between scheduling points.
        unsafe { (*self.chan.q.get()).push_back(v) };
        ctx.ctl.with_state(|st| {
            let id = self.chan.res_id(&ctx, st);
            if let Resource::Chan { len, .. } = st.resource_mut(id) {
                *len += 1;
            }
            st.wake_where(Blocker::Recv(id));
        });
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        let ctx = current_ctx();
        ctx.ctl.with_state_quiet(|st| {
            let id = self.chan.res_id(&ctx, st);
            if let Resource::Chan { senders, .. } = st.resource_mut(id) {
                *senders += 1;
            }
        });
        Sender { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let ctx = current_ctx();
        ctx.ctl.with_state_quiet(|st| {
            let id = self.chan.res_id(&ctx, st);
            let disconnected = match st.resource_mut(id) {
                Resource::Chan { senders, .. } => {
                    *senders -= 1;
                    *senders == 0
                }
                _ => false,
            };
            if disconnected {
                // A receiver parked on an empty queue must observe the
                // disconnect and return Err(RecvError).
                st.wake_where(Blocker::Recv(id));
            }
        });
    }
}

/// Receiving half of a modeled channel.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Pops the next message, parking (in model time) while the queue
    /// is empty; `Err(RecvError)` once every sender is gone and the
    /// queue is drained, matching std.
    pub fn recv(&self) -> Result<T, RecvError> {
        let ctx = current_ctx();
        enum Act {
            Pop,
            Disconnected,
            Park(usize),
        }
        loop {
            ctx.ctl.sched_point(ctx.tid);
            let act = ctx.ctl.with_state(|st| {
                let id = self.chan.res_id(&ctx, st);
                match st.resource_mut(id) {
                    Resource::Chan { len, senders, .. } => {
                        if *len > 0 {
                            *len -= 1;
                            Act::Pop
                        } else if *senders == 0 {
                            Act::Disconnected
                        } else {
                            Act::Park(id)
                        }
                    }
                    _ => unreachable!("channel registered as a non-channel resource"),
                }
            });
            match act {
                Act::Pop => {
                    // SAFETY: baton held between scheduling points.
                    let v = unsafe { (*self.chan.q.get()).pop_front() };
                    return Ok(v.expect("invariant: len > 0 implies a queued message"));
                }
                Act::Disconnected => return Err(RecvError),
                Act::Park(id) => ctx.ctl.block_on(ctx.tid, Blocker::Recv(id)),
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let ctx = current_ctx();
        ctx.ctl.with_state_quiet(|st| {
            let id = self.chan.res_id(&ctx, st);
            if let Resource::Chan { recv_alive, .. } = st.resource_mut(id) {
                *recv_alive = false;
            }
        });
    }
}

/// Owning iterator over received messages; ends when every sender is
/// dropped.
pub struct IntoIter<T> {
    rx: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter { rx: self }
    }
}
