//! Counts heap allocations in the steady-state f32 inference hot path.
//!
//! After a warm-up batch has sized every arena buffer, running further
//! batches through [`F32Engine::infer_batch_into`] must perform **zero**
//! heap allocations: activations, GEMM pack scratch, and result logits all
//! come from preallocated, reused storage.
//!
//! The same contract extends to *pooled* parallel execution: once the
//! persistent worker pool has spawned its workers (warm-up), dispatching
//! a `parallel_worker_chunks` region — task hand-off through preallocated
//! slots, stack latch, park/unpark — must not allocate either, so the
//! multi-worker steady state is checked at 2 forced workers as well.
//!
//! The counting allocator is process-global, so this file runs without
//! the libtest harness (`harness = false`): the harness's main thread
//! keeps allocating for its own bookkeeping after it spawns a test, and
//! on a loaded host that landed inside the first armed window.

use p3d_infer::{F32Engine, InferenceEngine};
use p3d_models::{build_network, r2plus1d_micro};
use p3d_nn::{Layer, Mode};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::TensorRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Forwards to the system allocator, counting allocations while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Steady-state f32 batches, serial and pooled, are allocation-free.
fn main() {
    // Serial execution: thread spawning would allocate stacks, and the
    // zero-alloc contract is about the per-clip compute path.
    set_thread_override(Some(1));
    let spec = r2plus1d_micro(4);
    let mut engine = F32Engine::new(1, || build_network(&spec, 33));
    let mut rng = TensorRng::seed(5);
    let clips: Vec<_> = (0..3)
        .map(|_| rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0))
        .collect();

    // Warm-up: sizes arena buffers, scratch, and result capacity.
    let mut out = engine.infer_batch(&clips);
    engine.infer_batch_into(&clips, &mut out);
    let baseline = out.clone();
    let grow_before = engine.arena_grow_events();

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..4 {
        engine.infer_batch_into(&clips, &mut out);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "steady-state batched inference performed {allocs} heap allocations"
    );
    assert_eq!(engine.arena_grow_events(), grow_before);
    // The allocation-free path still computes the right answers.
    assert_eq!(out, baseline);

    // Contrast: the same stream through the plain per-clip `forward`
    // path allocates fresh per-layer activation tensors for every
    // clip. The count documents what the arena saves.
    let mut seq_net = build_network(&spec, 33);
    let reshaped: Vec<_> = clips.iter().map(|c| c.reshape([1, 1, 6, 16, 16])).collect();
    let _ = seq_net.forward(&reshaped[0], Mode::Eval); // warm-up, like the engine's
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..4 {
        for c in &reshaped {
            std::hint::black_box(seq_net.forward(c, Mode::Eval));
        }
    }
    ARMED.store(false, Ordering::SeqCst);
    let forward_allocs = ALLOCS.load(Ordering::SeqCst);
    println!(
        "heap allocations over 12 steady-state clips: per-clip forward {forward_allocs}, \
         batched arena engine {allocs}"
    );
    assert!(
        forward_allocs > 100,
        "expected the per-clip forward loop to allocate (got {forward_allocs}); \
         if it stopped allocating, update the docs table in EXPERIMENTS.md"
    );

    // Pooled steady state: the same contract at 2 forced workers. The
    // engine's batch region is a `parallel_worker_chunks` over the pool;
    // warm-up spawns the persistent worker (which allocates, unarmed),
    // after which dispatch must be hand-off-only.
    set_thread_override(Some(2));
    let mut engine2 = F32Engine::new(2, || build_network(&spec, 33));
    let mut out2 = engine2.infer_batch(&clips); // sizes arenas + spawns pool worker
    engine2.infer_batch_into(&clips, &mut out2);
    let grow_before2 = engine2.arena_grow_events();

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..4 {
        engine2.infer_batch_into(&clips, &mut out2);
    }
    ARMED.store(false, Ordering::SeqCst);
    let pooled_allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        pooled_allocs, 0,
        "steady-state pooled (2-worker) inference performed {pooled_allocs} heap allocations"
    );
    assert_eq!(engine2.arena_grow_events(), grow_before2);
    // Pooled output bitwise-matches the serial engine's.
    assert_eq!(out2, baseline);
    set_thread_override(None);
}
