//! Acceptance check: at 8 forced threads the batched engine must beat a
//! sequential per-clip `forward` loop on the micro model by a clear
//! margin, while remaining bitwise identical to it.
//!
//! Kept in its own integration binary so the wall-clock measurement is
//! not perturbed by concurrently running unit tests.
//!
//! The margin is calibrated against the *persistent-pool* parallel
//! layer. Under the old spawn-per-call layer this gate demanded 2x, but
//! most of that headroom was an artifact: the sequential baseline runs
//! each clip at batch 1, whose inner matmuls each spawned (then) ~8
//! scoped threads, so the baseline was paying thread-spawn costs the
//! batched engine (one region per batch, serial inside each worker)
//! never saw. With parked workers the baseline no longer pays them, and
//! the batched engine's remaining — real — advantage is arena/buffer
//! reuse plus one region per batch: measured 1.23–1.29x on the 1-CPU CI
//! host. The gate sits at 1.1x, below that band by more than its spread,
//! and would still have caught the pre-arena engine (which sat below
//! parity).

use p3d_bench::infer::{run_inference_throughput, InferBenchConfig};

#[test]
fn batched_engine_beats_sequential_at_8_threads() {
    let cfg = InferBenchConfig {
        clips: 24,
        batch: 8,
        reps: 3,
        threads: vec![1, 8],
        num_classes: 4,
        seed: 2020,
    };
    let report = run_inference_throughput(&cfg);
    let row = report
        .results
        .iter()
        .find(|r| r.backend == "f32" && r.threads == 8)
        .expect("f32 @ 8 threads row");
    // `run_inference_throughput` already asserts bitwise equality; the
    // report records it.
    assert!(row.bitwise_equal);
    assert!(
        row.batched_speedup >= 1.1,
        "batched f32 engine at 8 threads only {:.2}x sequential ({:.1} vs {:.1} clips/s)",
        row.batched_speedup,
        row.clips_per_s,
        row.sequential_clips_per_s
    );
}

/// The sim backend must never be *slower* batched than sequential, at
/// any forced thread count. Two past regressions inform this gate.
/// First, before the per-worker scratch reuse and the physical-core
/// worker cap, forcing more sim workers than host cores oversubscribed
/// the CPU and pushed `batched_speedup` below 1.0 (0.94–0.98 at 2–4
/// forced threads on a 1-core host) while the sequential baseline,
/// being internally serial, was immune. Second, a residual ~0.997-at-2t
/// wobble traced to dispatch granularity plus a measurement asymmetry:
/// the engines dispatched one pool chunk *per clip* (per-clip closure
/// dispatch, and adjacent workers interleaving writes to neighboring
/// `ClipResult` slots — false sharing on the results array), and
/// the paired timing's sequential side read long-lived warm tensors while
/// the batched side read per-rep clones, letting allocator layout luck
/// bias whole runs. The engines now dispatch one contiguous slab per
/// worker and both sides of a pair read per-rep clones.
///
/// `batched_speedup` is the best *paired* ratio over `reps` interleaved
/// head-to-head measurements, so external interference can only lower
/// it; eight pairs keep the false-failure probability negligible while a
/// systematic regression (every pair slow) still fails.
#[test]
fn sim_batched_never_slower_than_sequential() {
    let cfg = InferBenchConfig {
        clips: 24,
        batch: 8,
        reps: 8,
        threads: vec![1, 2, 4],
        num_classes: 4,
        seed: 2020,
    };
    let report = run_inference_throughput(&cfg);
    for row in report.results.iter().filter(|r| r.backend == "sim") {
        assert!(row.bitwise_equal);
        assert!(
            row.batched_speedup >= 1.0,
            "sim backend at {} forced threads regressed to {:.3}x sequential ({:.1} vs {:.1} clips/s)",
            row.threads,
            row.batched_speedup,
            row.clips_per_s,
            row.sequential_clips_per_s
        );
    }
}
