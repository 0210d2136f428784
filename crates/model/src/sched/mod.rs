//! The controlled scheduler behind `--cfg psb_model`.
//!
//! # How an exploration works
//!
//! [`explore`] runs a test body many times. Each run ("execution")
//! spawns the body on a fresh **model thread**; model threads are real
//! OS threads, but a baton in the [`Controller`] ensures exactly one
//! runs at a time. Every shim operation (atomic access, mutex
//! acquire/release, channel send/receive, `OnceLock` transition, spawn,
//! join) is a **scheduling point**: the running thread consults the
//! controller, which picks who runs next.
//!
//! Whenever more than one thread could run, the choice is a **decision**
//! recorded in the execution's schedule. The explorer enumerates
//! schedules two ways:
//!
//! * **DFS** over the decision tree, bounded by a preemption budget
//!   (switching away from a thread that could have continued costs one
//!   preemption; budget-exhausted states may only continue the current
//!   thread). This systematically covers every few-preemption
//!   interleaving — the regime where real concurrency bugs live.
//! * **Random walk**: seeded SplitMix64 choices under a looser
//!   preemption budget, sampling schedules the DFS bound excludes.
//!
//! # Violations
//!
//! A panic escaping any model thread, a state where every live thread
//! is blocked (deadlock / lost wakeup), or an execution exceeding its
//! operation budget (livelock) aborts the exploration and reports a
//! [`Violation`] carrying a **schedule string** — the dot-separated
//! decision sequence. [`replay`] (or `PSB_MODEL_REPLAY=<schedule>`)
//! re-runs the body pinned to that schedule, reproducing the failure
//! deterministically.

/// Modeled `Mutex`/`OnceLock`/atomics/mpsc implementations.
pub mod sync_impl;
/// Modeled scoped threads.
pub mod thread_impl;

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize as OsAtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex as OsMutex, MutexGuard as OsMutexGuard, Once};

/// A panic payload with this marker substring is treated as *expected*
/// by the installed panic hook and not printed: model tests that
/// deliberately panic thousands of times (one per explored
/// interleaving) use it to keep output readable.
pub const EXPECTED_PANIC_MARKER: &str = "[model-expected]";

pub(crate) type Payload = Box<dyn Any + Send + 'static>;

/// Sentinel unwound through model threads when an exploration aborts
/// (a violation was found on some thread, or the execution is being
/// torn down). Raised via `resume_unwind`, so it never hits the panic
/// hook.
pub(crate) struct ModelAbort;

pub(crate) fn raise_abort() -> ! {
    resume_unwind(Box::new(ModelAbort))
}

// ---------------------------------------------------------------------
// Configuration, reports, violations
// ---------------------------------------------------------------------

/// Exploration budgets and seeds. `Default` matches the CHESS-style
/// setup: exhaustive DFS under 2 preemptions, then a seeded random
/// walk under 8.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Preemption budget for the DFS phase.
    pub preemption_bound: u32,
    /// Preemption budget for the random-walk phase.
    pub random_preemption_bound: u32,
    /// Maximum DFS executions before the walk is cut off (the DFS may
    /// also complete — exhaust its bounded space — earlier).
    pub max_dfs: usize,
    /// Number of random-walk executions after the DFS phase.
    pub random: usize,
    /// Seed for the random walk (execution i uses `seed + i`).
    pub seed: u64,
    /// Per-execution operation budget; exceeding it is reported as a
    /// livelock violation.
    pub max_ops: u64,
}

impl Default for ModelConfig {
    fn default() -> ModelConfig {
        ModelConfig {
            preemption_bound: 2,
            random_preemption_bound: 8,
            max_dfs: 4096,
            random: 512,
            seed: 0x9E37_79B9_7F4A_7C15,
            max_ops: 50_000,
        }
    }
}

impl ModelConfig {
    /// Applies `PSB_MODEL_PREEMPTIONS` / `PSB_MODEL_DFS` /
    /// `PSB_MODEL_RANDOM` / `PSB_MODEL_SEED` environment overrides, so
    /// CI can widen or narrow every suite's budget in one place.
    pub fn from_env(mut self) -> ModelConfig {
        fn env<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        }
        if let Some(v) = env("PSB_MODEL_PREEMPTIONS") {
            self.preemption_bound = v;
        }
        if let Some(v) = env("PSB_MODEL_DFS") {
            self.max_dfs = v;
        }
        if let Some(v) = env("PSB_MODEL_RANDOM") {
            self.random = v;
        }
        if let Some(v) = env("PSB_MODEL_SEED") {
            self.seed = v;
        }
        self
    }
}

/// Summary of a completed (violation-free) exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Total executions (interleavings) explored.
    pub executions: usize,
    /// Executions explored by the DFS phase.
    pub dfs_executions: usize,
    /// Executions explored by the random-walk phase.
    pub random_executions: usize,
    /// True when the DFS exhausted its bounded schedule space (rather
    /// than hitting `max_dfs`).
    pub complete: bool,
}

/// A failing interleaving: what went wrong and the schedule string that
/// reproduces it under [`replay`].
#[derive(Clone, Debug)]
pub struct Violation {
    /// Human-readable description of the failure.
    pub message: String,
    /// Dot-separated decision sequence (`"-"` when the failure needs no
    /// branching decisions). Feed to [`replay`] or `PSB_MODEL_REPLAY`.
    pub schedule: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}\n  replayable schedule: {}\n  reproduce: PSB_MODEL_REPLAY={} cargo xtask model",
            self.message, self.schedule, self.schedule
        )
    }
}

// ---------------------------------------------------------------------
// Deterministic RNG (random-walk phase)
// ---------------------------------------------------------------------

/// SplitMix64: tiny, seedable, good enough to diversify schedules.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// ---------------------------------------------------------------------
// Controller state
// ---------------------------------------------------------------------

/// Why a thread is parked.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Blocker {
    /// Waiting to acquire a mutex.
    Mutex(usize),
    /// Waiting for a `OnceLock` initialization to finish.
    Once(usize),
    /// Waiting for a channel to become non-empty (or disconnected).
    Recv(usize),
    /// Waiting for a thread to finish.
    Join(usize),
}

impl std::fmt::Display for Blocker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Blocker::Mutex(id) => write!(f, "mutex#{id}"),
            Blocker::Once(id) => write!(f, "oncelock#{id}"),
            Blocker::Recv(id) => write!(f, "recv#{id}"),
            Blocker::Join(t) => write!(f, "join(thread {t})"),
        }
    }
}

#[derive(Copy, Clone, Debug)]
enum Status {
    Runnable,
    Blocked(Blocker),
    Done,
}

/// `OnceLock` lifecycle as the scheduler sees it.
#[derive(Copy, Clone, Debug)]
pub(crate) enum OnceState {
    /// No value, nobody initializing.
    Empty,
    /// A thread is running the initializer.
    Busy,
    /// Value present.
    Ready,
}

/// Scheduler-side metadata for one shim object. The object's *data*
/// stays in the object (an `UnsafeCell` only the baton holder touches);
/// the controller tracks just what blocking and waking need.
#[derive(Debug)]
pub(crate) enum Resource {
    /// Mutex ownership.
    Mutex {
        /// Owning thread, if locked.
        owner: Option<usize>,
        /// A previous owner panicked while holding the lock.
        poisoned: bool,
    },
    /// `OnceLock` initialization state.
    Once {
        /// Current lifecycle state.
        state: OnceState,
    },
    /// mpsc channel occupancy and endpoint liveness.
    Chan {
        /// Messages queued.
        len: usize,
        /// Live `Sender` clones.
        senders: usize,
        /// Receiver still alive.
        recv_alive: bool,
    },
}

/// One branching decision: the threads that could have run and which
/// was chosen (an index into `candidates`).
#[derive(Clone, Debug)]
struct Decision {
    candidates: Vec<usize>,
    chosen: usize,
}

struct FailureRec {
    message: String,
}

pub(crate) struct SchedState {
    threads: Vec<Status>,
    os_handles: Vec<Option<std::thread::JoinHandle<()>>>,
    resources: Vec<Resource>,
    current: usize,
    abort: bool,
    failure: Option<FailureRec>,
    prefix: Vec<usize>,
    schedule: Vec<usize>,
    decisions: Vec<Decision>,
    preemptions: u32,
    bound: u32,
    rng: Option<SplitMix64>,
    ops: u64,
    max_ops: u64,
}

impl SchedState {
    /// Registers a new scheduler-side resource, returning its id.
    pub(crate) fn register_resource(&mut self, r: Resource) -> usize {
        self.resources.push(r);
        self.resources.len() - 1
    }

    /// The resource with id `id`.
    pub(crate) fn resource_mut(&mut self, id: usize) -> &mut Resource {
        &mut self.resources[id]
    }

    /// Marks every thread parked on `blocker` runnable again. Woken
    /// threads re-check their wait condition once scheduled, so waking
    /// more threads than can make progress is safe.
    pub(crate) fn wake_where(&mut self, blocker: Blocker) {
        for s in &mut self.threads {
            if matches!(s, Status::Blocked(b) if *b == blocker) {
                *s = Status::Runnable;
            }
        }
    }

    fn record_failure(&mut self, message: String) {
        if self.failure.is_none() {
            self.failure = Some(FailureRec { message });
        }
        self.abort = true;
    }

    fn render_schedule(&self) -> String {
        if self.schedule.is_empty() {
            "-".to_string()
        } else {
            self.schedule.iter().map(usize::to_string).collect::<Vec<_>>().join(".")
        }
    }
}

fn payload_str(p: &Payload) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------
// The controller
// ---------------------------------------------------------------------

/// Per-execution scheduler: owns thread statuses, resource metadata and
/// the schedule being replayed/recorded, and passes the run baton.
pub(crate) struct Controller {
    /// Execution number, global across the process; lets shim objects
    /// (including statics that outlive one execution) detect stale
    /// resource registrations.
    pub(crate) epoch: usize,
    state: OsMutex<SchedState>,
    cv: Condvar,
}

static EPOCH: OsAtomicUsize = OsAtomicUsize::new(1);

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The current model thread's identity: its controller and thread id.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) ctl: Arc<Controller>,
    pub(crate) tid: usize,
}

/// The calling thread's model context.
///
/// # Panics
///
/// Panics when called outside an active exploration: a `psb_model`
/// build routes shim operations here, and using them without a running
/// [`explore`] is a test-harness bug worth failing loudly on.
pub(crate) fn current_ctx() -> Ctx {
    CTX.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        panic!(
            "psb-model shim used outside an exploration \
             (this build has --cfg psb_model; wrap the test body in psb_model::sched::explore)"
        )
    })
}

impl Controller {
    fn new(
        epoch: usize,
        bound: u32,
        max_ops: u64,
        prefix: Vec<usize>,
        rng: Option<SplitMix64>,
    ) -> Controller {
        Controller {
            epoch,
            state: OsMutex::new(SchedState {
                threads: Vec::new(),
                os_handles: Vec::new(),
                resources: Vec::new(),
                current: 0,
                abort: false,
                failure: None,
                prefix,
                schedule: Vec::new(),
                decisions: Vec::new(),
                preemptions: 0,
                bound,
                rng,
                ops: 0,
                max_ops,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> OsMutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` under the state lock. Raises the abort sentinel first
    /// when the execution is tearing down.
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&mut SchedState) -> R) -> R {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            raise_abort();
        }
        f(&mut st)
    }

    /// [`Controller::with_state`] without the abort check — for unwind
    /// paths (guard drops) where raising again would double-panic.
    pub(crate) fn with_state_quiet<R>(&self, f: impl FnOnce(&mut SchedState) -> R) -> R {
        f(&mut self.lock())
    }

    /// Picks the next thread to run. Call with the lock held whenever
    /// the current thread stops running or reaches a decision point.
    fn choose_next(&self, st: &mut SchedState) {
        let cur = st.current;
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::Runnable))
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if !st.threads.iter().all(|s| matches!(s, Status::Done)) {
                let stuck: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        Status::Blocked(b) => Some(format!("thread {i} blocked on {b}")),
                        _ => None,
                    })
                    .collect();
                st.record_failure(format!("deadlock: no runnable thread ({})", stuck.join(", ")));
            }
            self.cv.notify_all();
            return;
        }

        let cur_runnable = runnable.contains(&cur);
        let mut allowed = if cur_runnable {
            let mut v = vec![cur];
            v.extend(runnable.iter().copied().filter(|&t| t != cur));
            if st.preemptions >= st.bound {
                // Budget spent: the running thread must continue.
                v.truncate(1);
            }
            v
        } else {
            runnable
        };

        let choice = if allowed.len() == 1 {
            allowed[0]
        } else if st.schedule.len() < st.prefix.len() {
            let want = st.prefix[st.schedule.len()];
            // A diverging replay (schedule from a different body) falls
            // back to the first candidate rather than wedging.
            if allowed.contains(&want) {
                want
            } else {
                allowed[0]
            }
        } else if let Some(rng) = &mut st.rng {
            allowed[(rng.next() % allowed.len() as u64) as usize]
        } else {
            allowed[0]
        };

        if allowed.len() > 1 {
            let chosen = allowed
                .iter()
                .position(|&t| t == choice)
                .expect("invariant: choice is drawn from `allowed`");
            st.decisions.push(Decision { candidates: std::mem::take(&mut allowed), chosen });
            st.schedule.push(choice);
        }
        if cur_runnable && choice != cur {
            st.preemptions += 1;
        }
        st.current = choice;
        self.cv.notify_all();
    }

    fn wait_for_baton(&self, mut st: OsMutexGuard<'_, SchedState>, tid: usize) {
        loop {
            if st.abort {
                drop(st);
                raise_abort();
            }
            if st.current == tid && matches!(st.threads[tid], Status::Runnable) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn charge_op(&self, st: &mut SchedState) {
        st.ops += 1;
        if st.ops > st.max_ops && !st.abort {
            let max = st.max_ops;
            st.record_failure(format!(
                "operation budget exceeded ({max} scheduling points in one execution) — livelock?"
            ));
            self.cv.notify_all();
        }
    }

    /// A scheduling point: lets the scheduler hand the baton to any
    /// runnable thread, then waits until this thread is picked again.
    pub(crate) fn sched_point(&self, tid: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            raise_abort();
        }
        self.charge_op(&mut st);
        if st.abort {
            drop(st);
            raise_abort();
        }
        self.choose_next(&mut st);
        self.wait_for_baton(st, tid);
    }

    /// Parks this thread on `blocker` and schedules someone else. On
    /// return the thread has been woken *and* re-scheduled; callers
    /// re-check their wait condition and may block again.
    pub(crate) fn block_on(&self, tid: usize, blocker: Blocker) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            raise_abort();
        }
        self.charge_op(&mut st);
        if st.abort {
            drop(st);
            raise_abort();
        }
        st.threads[tid] = Status::Blocked(blocker);
        self.choose_next(&mut st);
        self.wait_for_baton(st, tid);
    }

    /// Registers a new model thread (runnable, no OS handle yet).
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock();
        st.threads.push(Status::Runnable);
        st.os_handles.push(None);
        st.threads.len() - 1
    }

    pub(crate) fn set_os_handle(&self, tid: usize, h: std::thread::JoinHandle<()>) {
        self.lock().os_handles[tid] = Some(h);
    }

    /// True when `tid` has finished.
    pub(crate) fn is_done(&self, tid: usize) -> bool {
        matches!(self.lock().threads[tid], Status::Done)
    }

    /// Marks `tid` finished, wakes its joiners and passes the baton.
    /// A non-sentinel panic payload becomes a violation.
    pub(crate) fn finish_thread(&self, tid: usize, panic: Option<Payload>) {
        let mut st = self.lock();
        st.threads[tid] = Status::Done;
        st.wake_where(Blocker::Join(tid));
        if let Some(p) = panic {
            if !p.is::<ModelAbort>() {
                let msg = format!("thread {tid} panicked: {}", payload_str(&p));
                st.record_failure(msg);
            }
        }
        if st.abort {
            self.cv.notify_all();
            return;
        }
        self.choose_next(&mut st);
    }

    /// Aborts the execution without recording a failure: teardown paths
    /// (scope guards unwinding a real panic) use this to get parked
    /// threads to wake, raise the abort sentinel and exit.
    pub(crate) fn force_abort(&self) {
        let mut st = self.lock();
        st.abort = true;
        self.cv.notify_all();
    }

    /// Main-thread side: waits for every model thread to finish, then
    /// joins the OS threads.
    fn wait_all_done(&self) {
        let mut st = self.lock();
        while !st.threads.iter().all(|s| matches!(s, Status::Done)) {
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let handles: Vec<_> = st.os_handles.iter_mut().filter_map(Option::take).collect();
        drop(st);
        for h in handles {
            // The payload already reached finish_thread; the OS-level
            // result is always the unit wrapper.
            let _ = h.join();
        }
    }
}

/// Registration cell embedded in every shim object: maps the object to
/// its per-execution controller resource, re-registering lazily when a
/// new execution (epoch) starts. Statics that survive across
/// executions re-register with state derived from their actual data.
pub(crate) struct RegCell {
    epoch: OsAtomicUsize,
    id: OsAtomicUsize,
}

impl RegCell {
    pub(crate) const fn new() -> RegCell {
        RegCell { epoch: OsAtomicUsize::new(0), id: OsAtomicUsize::new(0) }
    }

    /// The object's resource id in `ctx`'s execution, registering via
    /// `make` on first use per epoch. Call with the state lock held.
    pub(crate) fn id(
        &self,
        epoch: usize,
        st: &mut SchedState,
        make: impl FnOnce() -> Resource,
    ) -> usize {
        if self.epoch.load(SeqCst) == epoch {
            return self.id.load(SeqCst);
        }
        let id = st.register_resource(make());
        self.id.store(id, SeqCst);
        self.epoch.store(epoch, SeqCst);
        id
    }
}

// ---------------------------------------------------------------------
// Running executions and exploring
// ---------------------------------------------------------------------

/// Wraps a model thread body: sets the context, waits for the first
/// baton, runs, reports the outcome.
pub(crate) fn run_model_thread(ctl: Arc<Controller>, tid: usize, f: impl FnOnce()) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { ctl: ctl.clone(), tid }));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // First baton: the thread is registered runnable but only runs
        // once the schedule picks it.
        let st = ctl.lock();
        ctl.wait_for_baton(st, tid);
        f()
    }));
    ctl.finish_thread(tid, outcome.err());
    CTX.with(|c| *c.borrow_mut() = None);
}

struct ExecOut {
    schedule: Vec<usize>,
    decisions: Vec<Decision>,
    violation: Option<Violation>,
}

fn run_once(
    bound: u32,
    max_ops: u64,
    prefix: Vec<usize>,
    rng: Option<SplitMix64>,
    body: Arc<dyn Fn() + Send + Sync>,
) -> ExecOut {
    let epoch = EPOCH.fetch_add(1, SeqCst);
    let ctl = Arc::new(Controller::new(epoch, bound, max_ops, prefix, rng));
    let root = ctl.register_thread();
    debug_assert_eq!(root, 0);
    let ctl2 = ctl.clone();
    let h = std::thread::Builder::new()
        .name("psb-model-0".to_string())
        .spawn(move || run_model_thread(ctl2.clone(), 0, move || body()))
        .expect("spawning the root model thread");
    ctl.set_os_handle(0, h);
    ctl.wait_all_done();

    let st = ctl.lock();
    ExecOut {
        schedule: st.schedule.clone(),
        decisions: st.decisions.clone(),
        violation: st
            .failure
            .as_ref()
            .map(|f| Violation { message: f.message.clone(), schedule: st.render_schedule() }),
    }
}

/// The deepest not-yet-exhausted decision's next alternative, as a new
/// replay prefix; `None` when the bounded schedule space is exhausted.
fn next_prefix(schedule: &[usize], decisions: &[Decision]) -> Option<Vec<usize>> {
    for i in (0..decisions.len()).rev() {
        let d = &decisions[i];
        if d.chosen + 1 < d.candidates.len() {
            let mut p = schedule[..i].to_vec();
            p.push(d.candidates[d.chosen + 1]);
            return Some(p);
        }
    }
    None
}

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains(EXPECTED_PANIC_MARKER))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains(EXPECTED_PANIC_MARKER))
                })
                .unwrap_or(false);
            if !expected {
                prev(info);
            }
        }));
    });
}

fn parse_schedule(s: &str) -> Result<Vec<usize>, Violation> {
    let s = s.trim();
    if s.is_empty() || s == "-" {
        return Ok(Vec::new());
    }
    s.split('.')
        .map(|tok| {
            tok.parse::<usize>().map_err(|_| Violation {
                message: format!("unparseable schedule token `{tok}`"),
                schedule: s.to_string(),
            })
        })
        .collect()
}

/// Explores interleavings of `body` and returns the exploration
/// [`Report`], or the first [`Violation`] found.
///
/// When `PSB_MODEL_REPLAY` is set in the environment, runs exactly that
/// schedule once instead of exploring.
pub fn try_explore<F>(cfg: &ModelConfig, body: F) -> Result<Report, Violation>
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);

    if let Ok(replay_schedule) = std::env::var("PSB_MODEL_REPLAY") {
        let prefix = parse_schedule(&replay_schedule)?;
        let out = run_once(cfg.random_preemption_bound, cfg.max_ops, prefix, None, body);
        return match out.violation {
            Some(v) => Err(v),
            None => Ok(Report {
                executions: 1,
                dfs_executions: 1,
                random_executions: 0,
                complete: false,
            }),
        };
    }

    let mut dfs_executions = 0;
    let mut complete = false;
    let mut prefix = Vec::new();
    loop {
        let out = run_once(cfg.preemption_bound, cfg.max_ops, prefix.clone(), None, body.clone());
        dfs_executions += 1;
        if let Some(v) = out.violation {
            return Err(v);
        }
        match next_prefix(&out.schedule, &out.decisions) {
            Some(p) => prefix = p,
            None => {
                complete = true;
                break;
            }
        }
        if dfs_executions >= cfg.max_dfs {
            break;
        }
    }

    let mut random_executions = 0;
    for i in 0..cfg.random {
        let rng = SplitMix64::new(cfg.seed.wrapping_add(i as u64));
        let out =
            run_once(cfg.random_preemption_bound, cfg.max_ops, Vec::new(), Some(rng), body.clone());
        random_executions += 1;
        if let Some(v) = out.violation {
            return Err(v);
        }
    }

    Ok(Report {
        executions: dfs_executions + random_executions,
        dfs_executions,
        random_executions,
        complete,
    })
}

/// [`try_explore`], panicking with the formatted [`Violation`] (schedule
/// string and replay instructions included) on failure. `name` labels
/// the exploration in the panic message.
pub fn explore<F>(name: &str, cfg: &ModelConfig, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    match try_explore(cfg, body) {
        Ok(report) => report,
        Err(v) => panic!("model[{name}] violation: {v}"),
    }
}

/// Re-runs `body` pinned to `schedule` (a [`Violation::schedule`]
/// string). Returns the violation it reproduces, or `Ok(())` when the
/// schedule passes — e.g. after the bug it demonstrated is fixed.
pub fn replay<F>(schedule: &str, body: F) -> Result<(), Violation>
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let prefix = parse_schedule(schedule)?;
    let cfg = ModelConfig::default();
    let out = run_once(cfg.random_preemption_bound, cfg.max_ops, prefix, None, Arc::new(body));
    match out.violation {
        Some(v) => Err(v),
        None => Ok(()),
    }
}
