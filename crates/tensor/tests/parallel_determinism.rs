//! Determinism and correctness of the parallel GEMM kernel.
//!
//! Two guarantees are checked here:
//!
//! 1. **Bitwise determinism**: the same product computed with 1, 2, and 8
//!    workers is *identical* (not merely close) — row ownership never
//!    changes the arithmetic, only who executes it.
//! 2. **Correctness**: the blocked, zero-skipping kernel agrees with a
//!    naive triple-loop reference to 1e-5 on random inputs.

use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{Tensor, TensorRng};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises tests that mutate the process-wide thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec([m, n], out)
}

#[test]
fn matmul_bitwise_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = TensorRng::seed(42);
    for (m, k, n) in [(17, 33, 29), (1, 64, 5), (64, 1, 64), (9, 9, 257)] {
        let a = rng.uniform_tensor([m, k], -1.0, 1.0);
        let b = rng.uniform_tensor([k, n], -1.0, 1.0);
        set_thread_override(Some(1));
        let r1 = a.matmul(&b);
        let nt1 = a.matmul_nt(&b.transpose2());
        let tn1 = a.transpose2().matmul_tn(&b);
        for threads in [2, 8] {
            set_thread_override(Some(threads));
            assert_eq!(r1, a.matmul(&b), "matmul differs at {threads} threads");
            assert_eq!(
                nt1,
                a.matmul_nt(&b.transpose2()),
                "matmul_nt differs at {threads} threads"
            );
            assert_eq!(
                tn1,
                a.transpose2().matmul_tn(&b),
                "matmul_tn differs at {threads} threads"
            );
        }
    }
    set_thread_override(None);
}

#[test]
fn sparse_matmul_bitwise_identical_across_thread_counts() {
    // Same check with pruned (mostly-zero) left operands — the zero-skip
    // branch must not interact with row distribution.
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = TensorRng::seed(7);
    let dense = rng.uniform_tensor([24, 32], -1.0, 1.0);
    let mut sparse_data = dense.data().to_vec();
    for (i, x) in sparse_data.iter_mut().enumerate() {
        if i % 3 != 0 {
            *x = 0.0;
        }
    }
    let a = Tensor::from_vec([24, 32], sparse_data);
    let b = rng.uniform_tensor([32, 40], -1.0, 1.0);
    set_thread_override(Some(1));
    let r1 = a.matmul(&b);
    for threads in [2, 8] {
        set_thread_override(Some(threads));
        assert_eq!(
            r1,
            a.matmul(&b),
            "sparse matmul differs at {threads} threads"
        );
    }
    set_thread_override(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocked_kernel_matches_naive_reference(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000
    ) {
        let mut rng = TensorRng::seed(seed);
        let a = rng.uniform_tensor([m, k], -2.0, 2.0);
        let b = rng.uniform_tensor([k, n], -2.0, 2.0);
        let reference = naive_matmul(&a, &b);
        prop_assert!(a.matmul(&b).allclose(&reference, 1e-5));
        prop_assert!(a.matmul_nt(&b.transpose2()).allclose(&reference, 1e-5));
        prop_assert!(a.transpose2().matmul_tn(&b).allclose(&reference, 1e-5));
    }

    #[test]
    fn wide_products_cross_column_blocks(seed in 0u64..50) {
        // n > GEMM column block width: block boundaries must be seamless.
        let mut rng = TensorRng::seed(seed);
        let a = rng.uniform_tensor([3, 5], -1.0, 1.0);
        let b = rng.uniform_tensor([5, 300], -1.0, 1.0);
        prop_assert!(a.matmul(&b).allclose(&naive_matmul(&a, &b), 1e-5));
    }
}
