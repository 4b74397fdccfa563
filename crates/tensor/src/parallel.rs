//! Workspace-wide parallel execution layer for the training/inference hot
//! path.
//!
//! This module mirrors, in software, the structure of the paper's tiled
//! accelerator (Algorithm 2): work is cut into contiguous, disjoint
//! chunks, each chunk runs on its own worker, and reductions happen in a
//! **fixed, deterministic order** afterwards — so results are bitwise
//! identical regardless of thread count.
//!
//! # The persistent worker pool
//!
//! Parallel regions execute on a process-wide pool of **persistent,
//! parked workers** (`p3d-worker-N` threads). Workers are spawned lazily
//! the first time a region needs them and then *parked* between regions,
//! so the steady-state cost of a region is one atomic handshake and an
//! unpark per worker instead of an OS thread spawn + stack allocation per
//! call — the software analogue of the paper's persistent PE array, which
//! amortises schedule setup across tiles instead of rebuilding it per
//! tile. The submitting thread participates too: it runs the first chunk
//! itself (and any chunk no idle worker could take), then waits on a
//! latch until every worker finished, which is what makes handing workers
//! borrowed data sound — a region never outlives its borrows, exactly as
//! with the scoped threads this pool replaced.
//!
//! Work assignment is **chunked and static**: task `w` of a region owns
//! the `w`-th contiguous range of chunks, computed in closed form from
//! the logical worker count alone. Outputs therefore depend only on chunk
//! indices — never on which OS thread ran a chunk, how many pool workers
//! were awake, or how regions interleave — preserving bitwise
//! reproducibility at any `P3D_THREADS`.
//!
//! Steady-state dispatch performs **zero heap allocations**: tasks are
//! handed over through preallocated per-worker slots, the completion
//! latch lives on the submitter's stack, and parking/unparking allocate
//! nothing. (Growing the pool allocates, once, when a region first asks
//! for more workers than have ever been live.)
//!
//! # Panic containment
//!
//! A panic inside a region closure is contained to its task: the worker
//! records the payload, the region still waits for every other task, and
//! the submitting call re-raises the first payload — callers see the same
//! panic they would have seen from a scoped thread. The panicking
//! worker's thread is retired and **replaced** on the next dispatch, so a
//! contained panic can never leave the pool smaller, serial, or wedged;
//! [`pool_stats`] exposes the replacement count.
//!
//! # Thread count
//!
//! The effective worker count is, in priority order:
//!
//! 1. a process-wide programmatic override ([`set_thread_override`]),
//!    used by benches and determinism tests,
//! 2. the `P3D_THREADS` environment variable — parsed **once** per
//!    process and clamped to `[1, host cores]`; invalid or zero values
//!    log one warning line and fall back to the host default,
//! 3. [`std::thread::available_parallelism`].
//!
//! With one worker (or one chunk) everything runs inline on the caller's
//! thread — the serial path is the degenerate case, not a separate code
//! path, and it touches neither the pool nor the heap.
//!
//! # Nesting
//!
//! Calls from inside a worker run serially (a thread-local guard detects
//! nesting), so `Conv3d::forward` can batch-parallelise over clips while
//! its inner `matmul` — which parallelises over output rows for the
//! batch=1 inference case — degrades gracefully instead of
//! oversubscribing cores. Pool workers are marked *permanently*; the
//! submitting thread is marked for exactly the span of the chunks it runs
//! itself, via an RAII guard that restores the flag even if the closure
//! panics — a contained panic cannot leave a thread wrongly serial.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;

/// `0` means "no override"; any other value is the forced worker count.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_PARALLEL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard that marks the current thread as executing inside a
/// parallel region and restores the previous marking on drop.
///
/// Dropping (not an explicit reset) is what makes the nesting flag
/// panic-safe: if the region closure panics, unwinding still runs the
/// drop, so a thread that outlives the panic — the submitting thread, or
/// a pooled worker being reused — can never be left permanently serial.
struct NestingGuard {
    prev: bool,
}

impl NestingGuard {
    fn enter() -> Self {
        NestingGuard {
            prev: IN_PARALLEL_WORKER.with(|f| f.replace(true)),
        }
    }
}

impl Drop for NestingGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_PARALLEL_WORKER.with(|f| f.set(prev));
    }
}

/// Forces the worker count process-wide (`None` restores the
/// `P3D_THREADS` / `available_parallelism` default).
///
/// Intended for benches and determinism tests; prefer the `P3D_THREADS`
/// environment variable for deployment configuration.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The host's physical parallelism (`1` when it cannot be queried).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Interprets one `P3D_THREADS` value against the host's core count.
///
/// * `Ok(n)` — a usable worker count, already clamped to `[1, host]`.
///   `None` of the outer `Option` never occurs here; clamped values are
///   reported through the warning string of `resolve_env_threads`.
/// * `Err(reason)` — unusable (empty, non-numeric, or zero); callers
///   must fall back to the host default.
///
/// Pure so the policy is unit-testable without touching the real
/// environment (the real lookup is parsed once per process).
pub fn parse_thread_setting(raw: &str, host: usize) -> Result<usize, String> {
    let host = host.max(1);
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "invalid P3D_THREADS='{}' (zero workers cannot run anything)",
            raw.trim()
        )),
        Ok(n) => Ok(n.min(host)),
        Err(_) => Err(format!(
            "invalid P3D_THREADS='{}' (expected an integer in 1..={host})",
            raw.trim()
        )),
    }
}

/// Resolves `P3D_THREADS` once: `(effective_count, optional_warning)`.
/// `None` means the variable is unset — use the host default.
fn resolve_env_threads() -> (Option<usize>, Option<String>) {
    match std::env::var("P3D_THREADS") {
        Err(_) => (None, None),
        Ok(raw) => {
            let host = host_parallelism();
            match parse_thread_setting(&raw, host) {
                Ok(n) => {
                    let warn = raw
                        .trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|&asked| asked > n)
                        .map(|asked| {
                            format!(
                                "warning: P3D_THREADS={asked} exceeds host parallelism; \
                                 clamped to {n}"
                            )
                        });
                    (Some(n), warn)
                }
                Err(reason) => (
                    None,
                    Some(format!(
                        "warning: {reason}; using host parallelism ({host})"
                    )),
                ),
            }
        }
    }
}

/// The cached `P3D_THREADS` setting. Parsed exactly once per process
/// (changing the variable after the first parallel call has no effect —
/// use [`set_thread_override`] for runtime control); an invalid or zero
/// value logs one warning line and falls back to the host default
/// instead of silently misbehaving, and oversubscribed values clamp to
/// `[1, host cores]`.
fn env_threads() -> Option<usize> {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        let (n, warning) = resolve_env_threads();
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        n
    })
}

/// The number of workers parallel helpers may use right now.
///
/// Returns `1` (serial) when called from inside a parallel worker — see
/// the module docs on nesting.
pub fn max_threads() -> usize {
    if IN_PARALLEL_WORKER.with(|f| f.get()) {
        return 1;
    }
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    host_parallelism()
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// Slot is free: any dispatcher may claim it.
const SLOT_IDLE: usize = 0;
/// A dispatcher owns the slot and is writing its task.
const SLOT_CLAIMED: usize = 1;
/// A task is armed; the worker should (or is about to) run it.
const SLOT_ARMED: usize = 2;
/// The worker thread exited after a task panic; respawn before reuse.
const SLOT_DEAD: usize = 3;

/// One dispatched unit of region work, handed to a parked worker.
///
/// `ctx` points at the submitting frame's region closure and `latch` at
/// its stack-allocated completion latch; both stay valid because the
/// submitter cannot return until the latch reaches zero.
#[derive(Clone, Copy)]
struct PoolTask {
    /// Monomorphised trampoline invoking the region closure.
    call: unsafe fn(*const (), usize),
    /// The region closure (`&F`), lifetime-erased.
    ctx: *const (),
    /// Which logical task of the region this worker runs.
    index: usize,
    /// The region's completion latch, lifetime-erased.
    latch: *const Latch,
}

/// Stack-allocated completion latch for one region.
struct Latch {
    /// Tasks not yet finished (dispatched ones plus the dispatch
    /// shortfall the submitter subtracts in bulk).
    remaining: AtomicUsize,
    /// The submitting thread, unparked by the last finisher.
    waiter: Thread,
    /// First panic payload caught by any worker of this region.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new(remaining: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(remaining),
            waiter: std::thread::current(),
            panic: Mutex::new(None),
        }
    }

    /// Records the first panic payload of the region (later ones are
    /// dropped; one payload is all a re-raise can carry).
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Parks until every counted task has finished.
    fn wait(&self) {
        while self.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
    }
}

/// One pool worker's mailbox: a state machine plus the armed task.
struct WorkerSlot {
    /// `SLOT_IDLE` / `SLOT_CLAIMED` / `SLOT_ARMED` / `SLOT_DEAD`.
    state: AtomicUsize,
    /// The armed task. Written only by the dispatcher that owns the
    /// `SLOT_CLAIMED` transition, read only by the worker after an
    /// `Acquire` load observes `SLOT_ARMED` (stored with `Release` after
    /// the write) — never concurrently.
    task: UnsafeCell<Option<PoolTask>>,
    /// Unpark handle of the current worker thread; replaced on respawn
    /// (only ever mutated with the pool lock held).
    thread: Mutex<Option<Thread>>,
}

// SAFETY: see the `task` field docs — the state machine serialises all
// access to the one non-Sync field, and the raw pointers inside
// `PoolTask` are only dereferenced while the submitting frame is pinned
// waiting on the latch.
unsafe impl Send for WorkerSlot {}
unsafe impl Sync for WorkerSlot {}

/// The process-wide pool: worker slots plus lifetime telemetry.
struct Pool {
    /// All worker slots ever created (slots are never removed; a dead
    /// slot is revived by spawning a fresh thread onto it).
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    /// Worker threads spawned over the process lifetime.
    spawned: AtomicUsize,
    /// Spawns that replaced a worker retired by a task panic.
    respawned: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        slots: Mutex::new(Vec::new()),
        spawned: AtomicUsize::new(0),
        respawned: AtomicUsize::new(0),
    })
}

/// Arms a slot the caller owns (`SLOT_CLAIMED`) and wakes its worker.
fn arm(slot: &WorkerSlot, task: PoolTask) {
    debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_CLAIMED);
    // SAFETY: the CLAIMED state excludes every other writer, and the
    // worker only reads after observing the ARMED store below.
    unsafe { *slot.task.get() = Some(task) };
    slot.state.store(SLOT_ARMED, Ordering::Release);
    if let Some(t) = slot
        .thread
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
    {
        t.unpark();
    }
}

impl Pool {
    /// Hands tasks `1..=claimed` of a region to parked workers: claims
    /// idle slots, revives dead ones, and grows the pool when every
    /// existing slot is busy. Returns how many tasks found a worker —
    /// the submitter runs the rest itself, so dispatch can never block
    /// on another region and a failed spawn degrades to inline
    /// execution instead of an error.
    fn dispatch(
        &self,
        call: unsafe fn(*const (), usize),
        ctx: *const (),
        latch: &Latch,
        n_tasks: usize,
    ) -> usize {
        let want = n_tasks.saturating_sub(1);
        if want == 0 {
            return 0;
        }
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut claimed = 0;
        for slot in slots.iter() {
            if claimed == want {
                break;
            }
            let ready = match slot.state.load(Ordering::Acquire) {
                SLOT_IDLE => slot
                    .state
                    .compare_exchange(SLOT_IDLE, SLOT_CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok(),
                SLOT_DEAD => self.respawn(slot),
                // Armed by a concurrent region, or still in its few
                // instructions of post-task bookkeeping — skip it.
                _ => false,
            };
            if ready {
                claimed += 1;
                arm(
                    slot,
                    PoolTask {
                        call,
                        ctx,
                        index: claimed,
                        latch,
                    },
                );
            }
        }
        while claimed < want {
            match self.spawn_slot() {
                Some(slot) => {
                    claimed += 1;
                    arm(
                        &slot,
                        PoolTask {
                            call,
                            ctx,
                            index: claimed,
                            latch,
                        },
                    );
                    slots.push(slot);
                }
                None => break, // spawn failed; the caller runs the rest
            }
        }
        claimed
    }

    /// Spawns a fresh worker on a fresh slot, born `SLOT_CLAIMED` so the
    /// caller can arm it immediately.
    fn spawn_slot(&self) -> Option<Arc<WorkerSlot>> {
        let slot = Arc::new(WorkerSlot {
            state: AtomicUsize::new(SLOT_CLAIMED),
            task: UnsafeCell::new(None),
            thread: Mutex::new(None),
        });
        self.spawn_onto(&slot).then(|| Arc::clone(&slot))
    }

    /// Revives a `SLOT_DEAD` slot with a fresh thread; `true` when the
    /// slot ends up `SLOT_CLAIMED` and ready to arm.
    fn respawn(&self, slot: &Arc<WorkerSlot>) -> bool {
        // The retired worker stored DEAD as its final slot access, so
        // this store cannot race with it.
        slot.state.store(SLOT_CLAIMED, Ordering::Release);
        if self.spawn_onto(slot) {
            self.respawned.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            slot.state.store(SLOT_DEAD, Ordering::Release);
            false
        }
    }

    /// Spawns a worker thread bound to `slot`, recording its unpark
    /// handle. `false` if the OS refused the thread.
    fn spawn_onto(&self, slot: &Arc<WorkerSlot>) -> bool {
        let id = self.spawned.load(Ordering::Relaxed);
        let for_worker = Arc::clone(slot);
        match std::thread::Builder::new()
            .name(format!("p3d-worker-{id}"))
            .spawn(move || worker_main(&for_worker))
        {
            Ok(handle) => {
                *slot.thread.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some(handle.thread().clone());
                self.spawned.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }
}

/// A pool worker's life: park until armed, run the task, report to the
/// region's latch, repeat — or retire after containing a panic.
fn worker_main(slot: &WorkerSlot) {
    // A pool worker only ever runs region tasks, so it is *permanently*
    // marked as inside a parallel region: nested helper calls degrade to
    // the serial inline path, and there is no reset to forget.
    IN_PARALLEL_WORKER.with(|f| f.set(true));
    loop {
        while slot.state.load(Ordering::Acquire) != SLOT_ARMED {
            std::thread::park();
        }
        // SAFETY: ARMED (acquired above) means the dispatcher finished
        // writing the task and will not touch the cell again until this
        // worker publishes IDLE.
        let task = unsafe { (*slot.task.get()).take() }.expect("armed slot without a task");
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `ctx` is the region closure, pinned on the
            // submitter's stack until the latch below reaches zero.
            unsafe { (task.call)(task.ctx, task.index) }
        }));
        // SAFETY: same pinning argument; this worker's final latch
        // access is the decrement below, which is exactly what releases
        // the submitter.
        let latch = unsafe { &*task.latch };
        let died = result.is_err();
        if let Err(payload) = result {
            // DEAD is published *before* the latch decrement, so no
            // dispatcher can arm a slot whose worker is exiting.
            slot.state.store(SLOT_DEAD, Ordering::Release);
            latch.record_panic(payload);
        } else {
            slot.state.store(SLOT_IDLE, Ordering::Release);
        }
        // Clone the waiter handle *before* the decrement: once
        // `remaining` hits zero the submitter may free the latch, so the
        // unpark must go through an owned handle.
        let waiter = latch.waiter.clone();
        if latch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            waiter.unpark();
        }
        if died {
            return; // retire; the next dispatch revives the slot
        }
    }
}

/// Point-in-time pool telemetry (tests, diagnostics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned over the process lifetime, replacements
    /// included.
    pub spawned: usize,
    /// Workers replaced after a contained task panic retired their
    /// thread.
    pub respawned: usize,
    /// Worker slots currently backed by a live thread.
    pub live: usize,
}

/// Snapshots the persistent pool's counters.
pub fn pool_stats() -> PoolStats {
    let p = pool();
    let slots = p.slots.lock().unwrap_or_else(|e| e.into_inner());
    PoolStats {
        spawned: p.spawned.load(Ordering::Relaxed),
        respawned: p.respawned.load(Ordering::Relaxed),
        live: slots
            .iter()
            .filter(|s| s.state.load(Ordering::Acquire) != SLOT_DEAD)
            .count(),
    }
}

/// Executes `f(0) .. f(n_tasks - 1)` across the pool and returns only
/// after every task finished — the pool equivalent of a `thread::scope`
/// block. Tasks `1..` go to parked workers; the caller runs task `0`
/// (and any task no idle worker could take) inline under the nesting
/// guard. A panic in any task is contained and re-raised here with its
/// original payload after the region fully drains.
fn run_tasks<F: Fn(usize) + Sync>(n_tasks: usize, f: &F) {
    /// Monomorphised trampoline: `ctx` is `&F`.
    ///
    /// # Safety
    /// `ctx` must point at a live `F`.
    unsafe fn call<F: Fn(usize) + Sync>(ctx: *const (), index: usize) {
        (*(ctx as *const F))(index);
    }
    debug_assert!(n_tasks >= 2, "serial regions must not reach the pool");
    let latch = Latch::new(n_tasks - 1);
    let claimed = pool().dispatch(call::<F>, f as *const F as *const (), &latch, n_tasks);
    let caller = catch_unwind(AssertUnwindSafe(|| {
        let _guard = NestingGuard::enter();
        f(0);
        for index in claimed + 1..n_tasks {
            f(index);
        }
    }));
    // Account in bulk for the tasks that never reached a worker.
    let shortfall = n_tasks - 1 - claimed;
    if shortfall > 0 {
        latch.remaining.fetch_sub(shortfall, Ordering::AcqRel);
    }
    latch.wait();
    if let Err(payload) = caller {
        resume_unwind(payload);
    }
    let worker_panic = latch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Chunked static assignment
// ---------------------------------------------------------------------------

/// The `w`-th of `workers` contiguous near-equal ranges over
/// `0..n_items` (the first `n_items % workers` ranges get one extra
/// item) — closed form, so the hot dispatch path computes per-task
/// ownership without allocating a range table.
fn task_range(n_items: usize, workers: usize, w: usize) -> Range<usize> {
    let base = n_items / workers;
    let rem = n_items % workers;
    let start = w * base + w.min(rem);
    start..start + base + usize::from(w < rem)
}

/// Splits `0..n_items` into at most `threads` contiguous ranges of
/// near-equal length (first `rem` ranges get one extra item). Test
/// surface for [`task_range`]'s partition property.
#[cfg(test)]
fn split_ranges(n_items: usize, threads: usize) -> Vec<Range<usize>> {
    let workers = threads.min(n_items).max(1);
    (0..workers)
        .map(|w| task_range(n_items, workers, w))
        .collect()
}

/// A `Send + Sync` base-pointer wrapper for handing one buffer to pool
/// tasks that each slice out a *disjoint* sub-range.
struct SlicePtr<T>(*mut T);

impl<T> Clone for SlicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlicePtr<T> {}

// SAFETY: tasks only materialise non-overlapping ranges (each derived
// from its task index via `task_range`), and `run_tasks` keeps the
// underlying exclusive borrow alive until every task completed.
unsafe impl<T: Send> Send for SlicePtr<T> {}
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T> SlicePtr<T> {
    fn new(data: &mut [T]) -> Self {
        SlicePtr(data.as_mut_ptr())
    }

    /// Materialises `range` of the wrapped buffer.
    ///
    /// # Safety
    /// `range` must be in bounds of the wrapped buffer and disjoint from
    /// every range any other live task materialises, and the buffer's
    /// exclusive borrow must still be pinned by the submitting frame.
    unsafe fn slice<'a>(self, range: Range<usize>) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(range.start), range.len())
    }
}

// ---------------------------------------------------------------------------
// The six parallel helpers
// ---------------------------------------------------------------------------

/// Runs `f` on contiguous index ranges covering `0..n_items`, in
/// parallel. `f` receives the range it owns.
///
/// Serial (inline) when `n_items <= 1`, when only one worker is
/// available, or when already inside a parallel worker.
pub fn parallel_for<F>(n_items: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n_items == 0 {
        return;
    }
    let tasks = max_threads().min(n_items);
    if tasks <= 1 {
        f(0..n_items);
        return;
    }
    run_tasks(tasks, &|w| f(task_range(n_items, tasks, w)));
}

/// Maps `f` over `0..n_items` in parallel, returning results **in index
/// order** (the deterministic-reduction building block: reduce the
/// returned `Vec` serially in its natural order).
pub fn parallel_map<R, F>(n_items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n_items);
    slots.resize_with(n_items, || None);
    // Reuse the chunked primitive: each worker fills its own disjoint
    // slots, so no synchronisation is needed and order is preserved.
    parallel_chunk_map(&mut slots, 1, |i, slot| {
        slot[0] = Some(f(i));
    });
    slots
        .into_iter()
        .map(|s| s.expect("parallel_map worker skipped a slot"))
        .collect()
}

/// Cuts `data` into consecutive chunks of `chunk_len` items (the final
/// chunk may be shorter) and runs `f(chunk_index, chunk)` on each, in
/// parallel. Chunks are disjoint `&mut` slices, so workers can write
/// without synchronisation; chunk indices are global and stable.
///
/// # Panics
///
/// Panics if `chunk_len == 0` while `data` is non-empty.
pub fn parallel_chunk_map<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let tasks = max_threads().min(n_chunks);
    if tasks <= 1 {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, chunk);
        }
        return;
    }
    // Hand each task a contiguous run of whole chunks.
    let len = data.len();
    let base = SlicePtr::new(data);
    run_tasks(tasks, &|w| {
        let chunks = task_range(n_chunks, tasks, w);
        let items = chunks.start * chunk_len..(chunks.end * chunk_len).min(len);
        // SAFETY: whole-chunk item ranges are disjoint across tasks and
        // within bounds; the borrow is pinned by `run_tasks`.
        let mine = unsafe { base.slice(items) };
        for (k, chunk) in mine.chunks_mut(chunk_len).enumerate() {
            f(chunks.start + k, chunk);
        }
    });
}

/// Like [`parallel_chunk_map`] but each chunk also *returns* a value;
/// results come back **in chunk order** for deterministic reduction.
pub fn parallel_chunk_map_collect<T, R, F>(data: &mut [T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    if data.is_empty() {
        return Vec::new();
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    results.resize_with(n_chunks, || None);
    let tasks = max_threads().min(n_chunks);
    if tasks <= 1 {
        for ((ci, chunk), slot) in data.chunks_mut(chunk_len).enumerate().zip(&mut results) {
            *slot = Some(f(ci, chunk));
        }
    } else {
        let len = data.len();
        let base = SlicePtr::new(data);
        let slots = SlicePtr::new(&mut results);
        run_tasks(tasks, &|w| {
            let chunks = task_range(n_chunks, tasks, w);
            let items = chunks.start * chunk_len..(chunks.end * chunk_len).min(len);
            // SAFETY: both the data item range and the result slot range
            // are disjoint across tasks and within bounds.
            let mine = unsafe { base.slice(items) };
            let my_slots = unsafe { slots.slice(chunks.clone()) };
            for ((k, chunk), slot) in mine.chunks_mut(chunk_len).enumerate().zip(my_slots) {
                *slot = Some(f(chunks.start + k, chunk));
            }
        });
    }
    results
        .into_iter()
        .map(|s| s.expect("parallel_chunk_map_collect worker skipped a slot"))
        .collect()
}

/// Runs `f(chunk_index, a_chunk, b_chunk)` over two equally-chunked
/// buffers in lockstep, in parallel — for kernels that fill two outputs
/// per region (e.g. max-pool value + argmax, batch-norm normalized +
/// output).
///
/// # Panics
///
/// Panics unless `a.len() / chunk_a == b.len() / chunk_b` (same chunk
/// count, exact division).
#[allow(clippy::manual_is_multiple_of)] // MSRV 1.75: `is_multiple_of` is 1.87+
pub fn parallel_zip_chunk_map<A, B, F>(
    a: &mut [A],
    chunk_a: usize,
    b: &mut [B],
    chunk_b: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    if a.is_empty() && b.is_empty() {
        return;
    }
    assert!(chunk_a > 0 && chunk_b > 0, "chunk lengths must be positive");
    assert!(
        // `% == 0` rather than `is_multiple_of` (stable only since 1.87;
        // the workspace declares rust-version 1.75).
        a.len() % chunk_a == 0 && b.len() % chunk_b == 0,
        "buffers must divide evenly into chunks"
    );
    let n_chunks = a.len() / chunk_a;
    assert_eq!(n_chunks, b.len() / chunk_b, "chunk count mismatch");
    let tasks = max_threads().min(n_chunks);
    if tasks <= 1 {
        for (ci, (ca, cb)) in a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate() {
            f(ci, ca, cb);
        }
        return;
    }
    let base_a = SlicePtr::new(a);
    let base_b = SlicePtr::new(b);
    run_tasks(tasks, &|w| {
        let chunks = task_range(n_chunks, tasks, w);
        // SAFETY: chunk counts divide exactly (asserted above), so both
        // item ranges are disjoint across tasks and within bounds.
        let mine_a = unsafe { base_a.slice(chunks.start * chunk_a..chunks.end * chunk_a) };
        let mine_b = unsafe { base_b.slice(chunks.start * chunk_b..chunks.end * chunk_b) };
        for (k, (ca, cb)) in mine_a
            .chunks_mut(chunk_a)
            .zip(mine_b.chunks_mut(chunk_b))
            .enumerate()
        {
            f(chunks.start + k, ca, cb);
        }
    });
}

/// Like [`parallel_chunk_map`] but each worker additionally owns one
/// element of `states` — mutable per-worker scratch (e.g. an inference
/// engine's network replica + buffer arena) that persists across the
/// chunks that worker processes.
///
/// The effective worker count is `min(max_threads(), states.len(),
/// n_chunks)`; chunk indices are global and stable, and each worker owns
/// a contiguous run of chunks, exactly as in `parallel_chunk_map`.
///
/// **Determinism contract:** callers must ensure `f`'s effect on a chunk
/// is independent of *which* state instance processes it (replica
/// states). Under that contract, outputs are bitwise identical for any
/// thread count, because the chunk→output mapping is fixed.
///
/// The serial path (one worker) runs inline on the caller's thread and
/// performs **zero heap allocations** — as does pooled dispatch once the
/// pool's workers exist — this is the steady-state hot path of the
/// batched inference engine.
///
/// # Panics
///
/// Panics if `chunk_len == 0` while `data` is non-empty, or if `states`
/// is empty.
pub fn parallel_worker_chunks<T, S, F>(data: &mut [T], chunk_len: usize, states: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    assert!(!states.is_empty(), "need at least one worker state");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = max_threads().min(states.len()).min(n_chunks);
    if workers <= 1 {
        let state = &mut states[0];
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(state, ci, chunk);
        }
        return;
    }
    let len = data.len();
    let base = SlicePtr::new(data);
    let state_base = SlicePtr::new(states);
    run_tasks(workers, &|w| {
        let chunks = task_range(n_chunks, workers, w);
        let items = chunks.start * chunk_len..(chunks.end * chunk_len).min(len);
        // SAFETY: chunk item ranges are disjoint across tasks, and task
        // `w` is the only task touching `states[w]`.
        let mine = unsafe { base.slice(items) };
        let state = &mut unsafe { state_base.slice(w..w + 1) }[0];
        for (k, chunk) in mine.chunks_mut(chunk_len).enumerate() {
            f(state, chunks.start + k, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that touch the process-wide override.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn split_ranges_partitions() {
        for n in 0..40 {
            for t in 1..9 {
                let ranges = split_ranges(n, t);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
                if n > 0 {
                    assert!(ranges.len() <= t);
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(mx - mn <= 1, "unbalanced split {lens:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_map_is_ordered() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1, 2, 8] {
            set_thread_override(Some(threads));
            let out = parallel_map(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        set_thread_override(None);
    }

    #[test]
    fn chunk_map_fills_disjoint_chunks() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1, 3, 8] {
            set_thread_override(Some(threads));
            let mut data = vec![0usize; 17];
            parallel_chunk_map(&mut data, 5, |ci, chunk| {
                for x in chunk.iter_mut() {
                    *x = ci + 1;
                }
            });
            let expect: Vec<usize> = (0..17).map(|i| i / 5 + 1).collect();
            assert_eq!(data, expect);
        }
        set_thread_override(None);
    }

    #[test]
    fn chunk_map_collect_in_order() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1, 4] {
            set_thread_override(Some(threads));
            let mut data: Vec<u64> = (0..12).collect();
            let sums = parallel_chunk_map_collect(&mut data, 4, |ci, chunk| {
                (ci, chunk.iter().sum::<u64>())
            });
            assert_eq!(sums, vec![(0, 6), (1, 22), (2, 38)]);
        }
        set_thread_override(None);
    }

    #[test]
    fn zip_chunk_map_lockstep() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1, 4] {
            set_thread_override(Some(threads));
            let mut a = vec![0usize; 12];
            let mut b = vec![0usize; 6];
            parallel_zip_chunk_map(&mut a, 4, &mut b, 2, |ci, ca, cb| {
                for x in ca.iter_mut() {
                    *x = ci;
                }
                for x in cb.iter_mut() {
                    *x = ci * 10;
                }
            });
            assert_eq!(a, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
            assert_eq!(b, vec![0, 0, 10, 10, 20, 20]);
        }
        set_thread_override(None);
    }

    #[test]
    fn worker_chunks_deterministic_and_state_scoped() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let mut reference: Option<Vec<usize>> = None;
        for threads in [1, 2, 8] {
            set_thread_override(Some(threads));
            // Each state counts how many chunks its worker processed;
            // outputs depend only on the chunk index, not the state.
            let mut states = vec![0usize; 3];
            let mut data = vec![0usize; 11];
            parallel_worker_chunks(&mut data, 2, &mut states, |s, ci, chunk| {
                *s += 1;
                for x in chunk.iter_mut() {
                    *x = ci * 10;
                }
            });
            // Every chunk processed exactly once.
            assert_eq!(states.iter().sum::<usize>(), 6);
            match &reference {
                None => reference = Some(data),
                Some(r) => assert_eq!(&data, r, "threads={threads} diverged"),
            }
        }
        set_thread_override(None);
    }

    #[test]
    fn worker_chunks_serial_uses_first_state() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(1));
        let mut states = vec![0usize; 4];
        let mut data = vec![0u8; 5];
        parallel_worker_chunks(&mut data, 1, &mut states, |s, _ci, _chunk| *s += 1);
        assert_eq!(states, vec![5, 0, 0, 0]);
        set_thread_override(None);
    }

    #[test]
    fn nested_calls_run_serial() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let mut outer = vec![0usize; 4];
        parallel_chunk_map(&mut outer, 1, |_ci, chunk| {
            // Inside a worker the helpers must report a single thread.
            if max_threads() == 1 {
                chunk[0] = parallel_map(3, |i| i).iter().sum::<usize>();
            }
        });
        // With >1 outer chunks every worker saw the nesting guard.
        assert_eq!(outer, vec![3, 3, 3, 3]);
        set_thread_override(None);
    }

    #[test]
    fn pool_contains_panics_and_replaces_workers() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        // A panic in one task must surface with its payload after the
        // region drains, and must not poison later regions.
        let err = std::panic::catch_unwind(|| {
            parallel_for(4, |range| {
                if range.contains(&2) {
                    panic!("task-level boom");
                }
            })
        })
        .expect_err("panic must propagate to the submitter");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task-level boom"), "payload lost: {msg}");
        // The pool keeps serving correct parallel regions afterwards.
        let mut data = vec![0usize; 16];
        parallel_chunk_map(&mut data, 1, |ci, chunk| chunk[0] = ci * 3);
        assert_eq!(data, (0..16).map(|i| i * 3).collect::<Vec<_>>());
        set_thread_override(None);
    }

    #[test]
    fn nesting_guard_is_panic_safe() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(2));
        // Panic inside a region the *caller* helps execute: the caller's
        // nesting flag must be restored by the RAII guard during unwind.
        let _ = std::panic::catch_unwind(|| {
            parallel_for(2, |range| {
                if range.start == 0 {
                    panic!("caller-side boom");
                }
            })
        });
        assert!(
            !IN_PARALLEL_WORKER.with(|f| f.get()),
            "caller left marked as a worker after a contained panic"
        );
        assert!(max_threads() > 1, "caller stuck serial after a panic");
        set_thread_override(None);
    }

    #[test]
    fn thread_setting_parses_clamps_and_rejects() {
        // Valid values pass through, clamped to the host core count.
        assert_eq!(parse_thread_setting("4", 8), Ok(4));
        assert_eq!(parse_thread_setting(" 4 ", 8), Ok(4)); // whitespace ok
        assert_eq!(parse_thread_setting("16", 8), Ok(8)); // clamp high
        assert_eq!(parse_thread_setting("1", 1), Ok(1));
        assert_eq!(parse_thread_setting("3", 0), Ok(1)); // host floor is 1
                                                         // Zero and garbage are defined failures, never a silent fallback.
        assert!(parse_thread_setting("0", 8).is_err());
        assert!(parse_thread_setting("", 8).is_err());
        assert!(parse_thread_setting("eight", 8).is_err());
        assert!(parse_thread_setting("-2", 8).is_err());
        assert!(parse_thread_setting("2.5", 8).is_err());
        // The failure text names the variable for the one-line warning.
        let msg = parse_thread_setting("0", 8).unwrap_err();
        assert!(msg.contains("P3D_THREADS"), "{msg}");
    }

    #[test]
    fn override_and_env_priority() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(3));
        assert_eq!(max_threads(), 3);
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }
}
