//! Persistent-pool acceptance suite for `p3d_tensor::parallel`.
//!
//! Pins the three contracts the pool must honour process-wide, in a
//! dedicated integration binary so the pool under test starts cold and
//! its lifetime counters ([`pool_stats`]) are not perturbed by unrelated
//! unit tests:
//!
//! 1. **Bitwise determinism** — every one of the six helpers produces
//!    bit-identical output at 1, 2, 4, and 8 forced workers, because
//!    outputs depend only on global chunk indices, never on scheduling.
//! 2. **Panic containment + worker replacement** — a panic in a region
//!    closure reaches the submitter with its original payload, the
//!    retired worker is replaced, and later regions still run parallel.
//! 3. **Nesting degrades to serial** — helper calls from inside a worker
//!    see `max_threads() == 1`, and the caller-side nesting mark is
//!    unwound correctly on panic.
//!
//! Tests share one process (the pool is process-global), so every test
//! serialises on a lock before touching the thread override.

use p3d_tensor::parallel::{
    max_threads, parallel_chunk_map, parallel_chunk_map_collect, parallel_for, parallel_map,
    parallel_worker_chunks, parallel_zip_chunk_map, pool_stats, set_thread_override,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serialises tests: the thread override and the pool are process-wide.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs `run` at every worker count and asserts all outputs are
/// *identical* (the first count's output is the reference).
fn assert_bitwise_across_counts<T: PartialEq + std::fmt::Debug>(
    mut run: impl FnMut() -> T,
    what: &str,
) {
    let mut reference: Option<T> = None;
    for &t in &WORKER_COUNTS {
        set_thread_override(Some(t));
        let out = run();
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "{what}: {t} workers diverged from 1"),
        }
    }
    set_thread_override(None);
}

/// A deterministic non-associative-float workload: any change in chunk
/// partitioning or reduction order flips low-order mantissa bits, so
/// `==` on bit patterns is a real scheduling-independence check.
fn wiggle(i: usize) -> f32 {
    let x = (i as f32) * 0.731 + 0.172;
    (x * x + 1.0) / (x + 3.0)
}

#[test]
fn all_six_helpers_bitwise_identical_across_worker_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    const N: usize = 103; // prime: uneven tails at every worker count

    assert_bitwise_across_counts(
        || {
            let mut out = vec![0u32; N];
            let base = out.as_mut_ptr() as usize;
            parallel_for(N, |range| {
                for i in range {
                    // Disjoint ranges: writes race-free by construction.
                    unsafe { *(base as *mut u32).add(i) = wiggle(i).to_bits() };
                }
            });
            out
        },
        "parallel_for",
    );

    assert_bitwise_across_counts(|| parallel_map(N, |i| wiggle(i).to_bits()), "parallel_map");

    assert_bitwise_across_counts(
        || {
            let mut data: Vec<f32> = (0..N).map(wiggle).collect();
            parallel_chunk_map(&mut data, 7, |ci, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = *x * wiggle(ci) + j as f32;
                }
            });
            data.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        },
        "parallel_chunk_map",
    );

    assert_bitwise_across_counts(
        || {
            let mut data: Vec<f32> = (0..N).map(wiggle).collect();
            let sums = parallel_chunk_map_collect(&mut data, 7, |ci, chunk| {
                // Serial in-chunk sum: order fixed by the chunk itself.
                chunk.iter().fold(wiggle(ci), |a, &x| a + x).to_bits()
            });
            // Fixed-order reduction over the in-order partials.
            let folded = sums
                .iter()
                .fold(0.0f32, |a, &b| a + f32::from_bits(b))
                .to_bits();
            (sums, folded)
        },
        "parallel_chunk_map_collect",
    );

    assert_bitwise_across_counts(
        || {
            let mut a: Vec<f32> = (0..96).map(wiggle).collect();
            let mut b: Vec<f32> = (0..48).map(|i| wiggle(i + 7)).collect();
            parallel_zip_chunk_map(&mut a, 8, &mut b, 4, |ci, ca, cb| {
                for (x, y) in ca.chunks(2).zip(cb.iter_mut()) {
                    *y += x[0] * x[1] + wiggle(ci);
                }
            });
            b.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        },
        "parallel_zip_chunk_map",
    );

    assert_bitwise_across_counts(
        || {
            // Replica states (same value), as the inference engine uses:
            // outputs must not depend on which replica ran a chunk.
            let mut states = vec![1.5f32; 8];
            let mut data: Vec<f32> = (0..N).map(wiggle).collect();
            parallel_worker_chunks(&mut data, 9, &mut states, |s, ci, chunk| {
                for x in chunk.iter_mut() {
                    *x = *x * *s + wiggle(ci);
                }
            });
            data.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        },
        "parallel_worker_chunks",
    );
}

#[test]
fn worker_panic_is_contained_replaced_and_pool_stays_parallel() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_thread_override(Some(4));

    // Establish a live pool and count its workers.
    parallel_for(64, |r| {
        std::hint::black_box(r.len());
    });
    let before = pool_stats();
    assert!(
        before.live >= 1,
        "warm-up region should have spawned workers"
    );

    // Panic in a worker-side task (task index > 0 so a pool worker, not
    // the submitting thread, hits it).
    let err = std::panic::catch_unwind(|| {
        parallel_map(4, |i| {
            if i == 3 {
                panic!("pool-suite boom {i}");
            }
            i
        })
    })
    .expect_err("worker panic must reach the submitter");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("pool-suite boom"), "payload lost: {msg:?}");

    // Subsequent regions must still run genuinely parallel: observe more
    // than one distinct OS thread participating.
    let distinct = {
        let ids: Vec<u64> = parallel_map(8, |_i| {
            // Hash the thread id via its Debug formatting; ThreadId has
            // no stable accessor on MSRV 1.75.
            let s = format!("{:?}", std::thread::current().id());
            let mut h = 0u64;
            for b in s.bytes() {
                h = h.wrapping_mul(31).wrapping_add(b as u64);
            }
            std::thread::yield_now(); // encourage worker interleaving
            h
        });
        let mut ids2 = ids.clone();
        ids2.sort_unstable();
        ids2.dedup();
        ids2.len()
    };
    assert!(
        distinct >= 2,
        "pool went serial after a contained panic ({distinct} distinct threads)"
    );

    // The retired worker was replaced, and replacement is visible in the
    // lifetime counters.
    let after = pool_stats();
    assert!(
        after.respawned > before.respawned,
        "no worker replacement recorded: {before:?} -> {after:?}"
    );
    assert!(
        after.live >= before.live,
        "pool shrank after a contained panic: {before:?} -> {after:?}"
    );
    set_thread_override(None);
}

#[test]
fn nested_regions_degrade_to_serial_inside_workers() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_thread_override(Some(4));
    let nested_parallel = AtomicUsize::new(0);
    let mut data = vec![0usize; 8];
    parallel_chunk_map(&mut data, 1, |_ci, chunk| {
        if max_threads() != 1 {
            nested_parallel.fetch_add(1, Ordering::Relaxed);
        }
        // A nested helper call must still be correct (and serial).
        chunk[0] = parallel_map(5, |i| i + 1).iter().sum::<usize>();
    });
    assert_eq!(
        nested_parallel.load(Ordering::Relaxed),
        0,
        "a region closure observed a multi-thread budget while nested"
    );
    assert_eq!(data, vec![15; 8]);
    set_thread_override(None);
}
