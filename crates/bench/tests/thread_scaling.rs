//! Release-mode thread-scaling gates for the persistent-pool parallel
//! layer, run on the conv3d training-step benchmark.
//!
//! Two regressions this file exists to catch:
//!
//! 1. **Pool overhead at one thread.** The 1-thread configuration must
//!    remain the zero-cost serial inline path: parallel helpers with a
//!    one-worker budget may not touch the pool at all (checked
//!    structurally — no worker spawns — which is stronger than any
//!    timing bound and completely noise-free, so it runs in both
//!    profiles).
//! 2. **Negative scaling.** Before the pool, spawn-per-call overhead
//!    made the training step *slower* as threads grew (35.4 ms @1t →
//!    46.5 ms @4t, 0.76x). On the 1-CPU CI host extra workers cannot
//!    help, but they must never hurt beyond measurement noise: the
//!    paired speedup at 2 and 4 threads must stay ≥ 0.85x
//!    (`NOISE_FLOOR`) of the 1-thread step. Timing asserts are release-only (`gemm_perf`
//!    precedent: debug timings measure the optimiser, not the layer);
//!    the bitwise checks run in both profiles.
//!
//! The speedup numbers are best *paired* ratios (each rep times the
//! serial and threaded step back-to-back), so co-tenant interference can
//! only lower them — a failure means systematic overhead, not a noisy
//! neighbour.

use p3d_bench::throughput::{run_conv3d_throughput, Conv3dBenchConfig};
use p3d_tensor::parallel::pool_stats;
use std::sync::Mutex;

/// Serialises the two tests: the pool and its counters are process-wide,
/// and the structural no-spawn check needs exclusive use of them.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Measurement-noise floor for the multi-thread gate on the 1-CPU host:
/// extra workers can't speed the step up there, so sustained readings
/// below this are systematic pool overhead. 0.85 leaves room for the
/// worst pair-contaminating burst observed when the gate runs right
/// after the full suite has heated the shared container (0.89 at 4
/// threads); the spawn-per-call regression this gate exists to block
/// measured 0.76 — comfortably below the floor.
#[cfg(not(debug_assertions))]
const NOISE_FLOOR: f64 = 0.85;

#[test]
fn one_thread_step_never_touches_the_pool() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = pool_stats();
    let cfg = Conv3dBenchConfig {
        threads: vec![1],
        ..Conv3dBenchConfig::smoke()
    };
    let report = run_conv3d_throughput(&cfg);
    assert_eq!(report.results.len(), 1);
    let after = pool_stats();
    assert_eq!(
        after.spawned, before.spawned,
        "a 1-thread training step spawned pool workers — the serial \
         inline path must bypass the pool entirely"
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn multi_thread_step_never_slower_than_one_thread() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // More pairs than the headline bench: the best-pair estimator only
    // converges once at least one rep lands in a quiet window, and this
    // gate often runs right after the rest of the suite loaded the host.
    let cfg = Conv3dBenchConfig {
        reps: 9,
        ..Conv3dBenchConfig::standard()
    };
    let report = run_conv3d_throughput(&cfg);
    for r in report.results.iter().filter(|r| r.threads > 1) {
        // Bitwise determinism rides along: chunked static assignment
        // means thread count must not perturb a single output bit.
        assert_eq!(
            r.max_abs_diff_vs_serial, 0.0,
            "{}-thread step diverged from serial",
            r.threads
        );
        assert!(
            r.speedup_vs_serial >= NOISE_FLOOR,
            "{} threads ran at {:.3}x the 1-thread step (floor {NOISE_FLOOR}): \
             the pool is adding systematic per-region overhead",
            r.threads,
            r.speedup_vs_serial
        );
    }
}
