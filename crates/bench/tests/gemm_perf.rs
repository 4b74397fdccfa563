//! Perf smoke gate: the packed register-tiled microkernel must beat the
//! seeded naive kernel by a generous margin on a fixed single-threaded
//! GEMM shape.
//!
//! The real measurement only runs in release builds (`scripts/check.sh`
//! invokes this suite with `--release`); under `cargo test` in debug
//! mode the timing would measure the optimiser, not the kernel, so the
//! gate reduces to a correctness smoke check. Timings come from the
//! paired harness in `p3d_bench::measure`.

use p3d_tensor::gemm::{gemm_naive_into, gemm_packed_into};
use p3d_tensor::parallel::set_thread_override;
use std::sync::{Mutex, MutexGuard};

/// libtest runs the two tests on parallel threads, and the AVX2 test
/// flips the process-wide `simd::force_scalar` and thread override while
/// the other one times. Each test holds this lock for its whole body.
static TIMING_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`TIMING_LOCK`], surviving a poisoning by the other test's
/// failed assertion.
fn serialise() -> MutexGuard<'static, ()> {
    TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A shape representative of the deeper conv-as-GEMM layers:
/// `[M, K] x [K, N]` with K = in_channels * kernel volume and N = output
/// positions. The right operand (~4 MB) deliberately exceeds a typical
/// L2 so the structural difference shows: the naive kernel re-streams
/// all of B once per output row, while the packed kernel streams it
/// exactly once and reuses each L1-resident panel across every row
/// tile.
const M: usize = 64;
const K: usize = 432; // 16 channels x 27 taps
const N: usize = 2304; // 12 x 12 x 16

fn operands() -> (Vec<f32>, Vec<f32>) {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    };
    let a = (0..M * K).map(|_| next()).collect();
    let b = (0..K * N).map(|_| next()).collect();
    (a, b)
}

#[test]
fn packed_kernel_at_least_1_5x_naive_single_thread() {
    let _serial = serialise();
    let (a, b) = operands();
    let mut out_naive = vec![0.0f32; M * N];
    let mut out_packed = vec![0.0f32; M * N];
    set_thread_override(Some(1));
    // Correctness either way; the bitwise identity is the load-bearing
    // contract and holds in debug and release alike.
    gemm_naive_into(&a, M, K, &b, N, &mut out_naive);
    gemm_packed_into(&a, M, K, &b, N, &mut out_packed);
    let nb: Vec<u32> = out_naive.iter().map(|x| x.to_bits()).collect();
    let pb: Vec<u32> = out_packed.iter().map(|x| x.to_bits()).collect();
    assert_eq!(nb, pb, "packed kernel diverged from naive");

    #[cfg(not(debug_assertions))]
    {
        // Warm once, then the ratio of per-side bests over seven pairs to
        // shrug off co-tenant noise.
        let t = p3d_bench::measure::paired(
            7,
            &mut (),
            |_| gemm_naive_into(&a, M, K, &b, N, &mut out_naive),
            |_| gemm_packed_into(&a, M, K, &b, N, &mut out_packed),
        );
        let (t_naive, t_packed) = (t.a.min, t.b.min);
        let speedup = t_naive / t_packed.max(1e-12);
        assert!(
            speedup >= 1.5,
            "packed microkernel only {speedup:.2}x naive \
             ({:.3} ms vs {:.3} ms on {M}x{K}x{N})",
            t_packed * 1e3,
            t_naive * 1e3,
        );
    }
    set_thread_override(None);
}

/// Release perf gate for the explicit AVX2 microkernel: on an AVX2 host
/// the packed kernel must beat its own forced-scalar fallback by ≥ 1.3x
/// on the same shape, measured with the paired interleaved estimator
/// (best per-rep back-to-back ratio, which cancels co-tenant noise).
/// Skips (trivially passes) when the host lacks AVX2. Debug builds only
/// check the bitwise identity of the two paths.
#[test]
fn avx2_kernel_at_least_1_3x_forced_scalar() {
    use p3d_tensor::simd;

    let _serial = serialise();
    let (a, b) = operands();
    let mut out_simd = vec![0.0f32; M * N];
    let mut out_scalar = vec![0.0f32; M * N];
    set_thread_override(Some(1));

    // Bitwise identity in every build profile.
    gemm_packed_into(&a, M, K, &b, N, &mut out_simd);
    simd::force_scalar(true);
    gemm_packed_into(&a, M, K, &b, N, &mut out_scalar);
    simd::force_scalar(false);
    let sb: Vec<u32> = out_simd.iter().map(|x| x.to_bits()).collect();
    let cb: Vec<u32> = out_scalar.iter().map(|x| x.to_bits()).collect();
    assert_eq!(sb, cb, "AVX2 path diverged from forced scalar");

    #[cfg(not(debug_assertions))]
    if simd::detected() == simd::SimdLevel::Avx2 {
        // Paired interleaved: per rep, time scalar then AVX2 back to
        // back and take the best ratio across reps.
        let best = p3d_bench::measure::paired(
            7,
            &mut (),
            |_| {
                simd::force_scalar(true);
                gemm_packed_into(&a, M, K, &b, N, &mut out_scalar);
            },
            |_| {
                simd::force_scalar(false);
                gemm_packed_into(&a, M, K, &b, N, &mut out_simd);
            },
        )
        .ratio
        .max;
        assert!(
            best >= 1.3,
            "AVX2 microkernel only {best:.2}x forced scalar on {M}x{K}x{N} \
             (features: {})",
            simd::cpu_features(),
        );
    }
    set_thread_override(None);
}
