//! Counts heap allocations in the steady-state streaming-ingest path.
//!
//! Once the [`Prefetcher`]'s decode workers are running and the
//! [`ClipArena`] has grown to its working set, streaming further clips
//! — frame reads off the file, CRC verification, the fused
//! resize/crop/normalize into an arena buffer, the hand-off through
//! the bounded reorder ring, and the buffer's return on release — must
//! perform **zero** heap allocations on any thread. The counting
//! allocator is process-global, so decode-worker allocations count
//! exactly like consumer-side ones.
//!
//! This file intentionally holds a single `#[test]`: a concurrent test
//! allocating on another thread would produce false positives.

use p3d_tensor::TensorRng;
use p3d_video_data::io::{
    save_video, ClipArena, PrefetchConfig, Prefetcher, PreprocessConfig, VidHeader,
};
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

#[test]
fn steady_state_streaming_ingest_is_allocation_free() {
    const SRC_W: u32 = 24;
    const SRC_H: u32 = 20;
    const FRAMES: u32 = 128; // 32 clips of 4 frames
    const CLIP_DEPTH: usize = 4;

    let path = std::env::temp_dir().join(format!(
        "p3d-zero-alloc-ingest-{}.p3dvid",
        std::process::id()
    ));
    let header = VidHeader::gray8(SRC_W, SRC_H, FRAMES, 30_000);
    let mut rng = TensorRng::seed(9);
    let frames: Vec<Vec<u8>> = (0..FRAMES)
        .map(|_| {
            (0..header.frame_bytes())
                .map(|_| rng.below(256) as u8)
                .collect()
        })
        .collect();
    save_video(&path, header, frames.iter().map(|f| f.as_slice())).unwrap();

    let preprocess = PreprocessConfig {
        resize_h: 12,
        resize_w: 14,
        crop_h: 8,
        crop_w: 8,
    };
    let cfg = PrefetchConfig {
        depth: 3,
        workers: 2,
        clip_depth: CLIP_DEPTH,
        preprocess,
        fault_clip: None,
    };
    // The prefetcher's working set: `depth` queued clips, one in each
    // worker's hands, and the one the consumer holds.
    let arena = ClipArena::new(cfg.clip_shape(), cfg.depth + cfg.workers + 1);
    let mut pipe = Prefetcher::open(&path, cfg, arena).unwrap();
    let total = pipe.total_clips() as usize;
    assert_eq!(total, 32);

    // Warm-up: the first clips spawn nothing new (workers started at
    // `open`) but let every worker size its frame buffer and let the
    // arena settle at its working set.
    let mut consumed = 0usize;
    let mut checksum = 0.0f64;
    while consumed < 8 {
        let clip = pipe.next_clip().unwrap().expect("warm-up clip");
        checksum += clip.data()[0] as f64;
        consumed += 1;
    }
    let grow_before = pipe.arena().stats().grow_events;

    // Armed window: a long mid-stream stretch must not allocate, on
    // the consumer thread or inside the decode workers.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    while consumed < 28 {
        let clip = pipe.next_clip().unwrap().expect("steady-state clip");
        checksum += clip.data()[0] as f64;
        consumed += 1;
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    // Drain the tail and the end-of-stream marker unarmed.
    while pipe.next_clip().unwrap().is_some() {
        consumed += 1;
    }
    assert_eq!(consumed, total);
    assert!(checksum.is_finite());

    assert_eq!(
        allocs, 0,
        "steady-state streaming ingest performed {allocs} heap allocations"
    );
    assert_eq!(
        pipe.arena().stats().grow_events,
        grow_before,
        "the arena grew mid-stream"
    );

    drop(pipe);
    let _ = std::fs::remove_file(&path);
}
