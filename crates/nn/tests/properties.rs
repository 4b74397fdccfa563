//! Property-based tests for the neural-network stack: linearity of the
//! convolution, shape algebra, and optimizer behaviour.

use p3d_nn::{Conv3d, Layer, Linear, Mode, Relu, Sequential};
use p3d_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

fn conv_case() -> impl Strategy<Value = (usize, usize, (usize, usize, usize), u64)> {
    (
        1usize..5,
        1usize..5,
        prop::sample::select(vec![
            (1usize, 3usize, 3usize),
            (3, 1, 1),
            (2, 2, 2),
            (1, 1, 1),
        ]),
        0u64..1000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_is_linear_in_input((m, n, kernel, seed) in conv_case()) {
        let mut rng = TensorRng::seed(seed);
        let pad = (kernel.0 / 2, kernel.1 / 2, kernel.2 / 2);
        let mut conv = Conv3d::new("l", m, n, kernel, (1, 1, 1), pad, false, &mut rng);
        let x = rng.uniform_tensor([1, n, 3, 5, 5], -1.0, 1.0);
        let y = rng.uniform_tensor([1, n, 3, 5, 5], -1.0, 1.0);
        let (a, b) = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
        let lhs = conv.forward(&(&(&x * a) + &(&y * b)), Mode::Eval);
        let fx = conv.forward(&x, Mode::Eval);
        let fy = conv.forward(&y, Mode::Eval);
        let rhs = &(&fx * a) + &(&fy * b);
        prop_assert!(lhs.allclose(&rhs, 1e-3), "conv violates linearity");
    }

    #[test]
    fn conv_translation_equivariance_spatial(seed in 0u64..500) {
        // Shifting the input (away from borders) shifts the output.
        let mut rng = TensorRng::seed(seed);
        let mut conv = Conv3d::new("t", 2, 1, (1, 3, 3), (1, 1, 1), (0, 1, 1), false, &mut rng);
        let mut x = Tensor::zeros([1, 1, 1, 9, 9]);
        // A blob well inside the interior.
        for dy in 0..2 {
            for dx in 0..2 {
                x.set(&[0, 0, 0, 3 + dy, 3 + dx], 1.0);
            }
        }
        let y = conv.forward(&x, Mode::Eval);
        let mut xs = Tensor::zeros([1, 1, 1, 9, 9]);
        for dy in 0..2 {
            for dx in 0..2 {
                xs.set(&[0, 0, 0, 4 + dy, 4 + dx], 1.0);
            }
        }
        let ys = conv.forward(&xs, Mode::Eval);
        // Compare shifted interiors.
        for m in 0..2 {
            for r in 2..6 {
                for c in 2..6 {
                    let a = y.get(&[0, m, 0, r, c]);
                    let b = ys.get(&[0, m, 0, r + 1, c + 1]);
                    prop_assert!((a - b).abs() < 1e-4, "equivariance broken at {m},{r},{c}");
                }
            }
        }
    }

    #[test]
    fn backward_input_grad_matches_linearity((m, n, kernel, seed) in conv_case()) {
        // For a linear layer, <grad_in, dx> == <grad_out, f(dx)>.
        let mut rng = TensorRng::seed(seed.wrapping_add(7));
        let pad = (kernel.0 / 2, kernel.1 / 2, kernel.2 / 2);
        let mut conv = Conv3d::new("g", m, n, kernel, (1, 1, 1), pad, false, &mut rng);
        let x = rng.uniform_tensor([1, n, 2, 4, 4], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Train);
        let g = rng.uniform_tensor(y.shape(), -1.0, 1.0);
        let grad_in = conv.backward(&g);
        let dx = rng.uniform_tensor(x.shape(), -1.0, 1.0);
        let f_dx = conv.forward(&dx, Mode::Eval);
        let lhs = grad_in.dot(&dx);
        let rhs = g.dot(&f_dx);
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn relu_is_idempotent_and_nonexpansive(xs in prop::collection::vec(-5.0f32..5.0, 1..64)) {
        let mut relu = Relu::new();
        let x = Tensor::from_vec([xs.len()], xs);
        let once = relu.forward(&x, Mode::Eval);
        let twice = relu.forward(&once, Mode::Eval);
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.frobenius_norm() <= x.frobenius_norm() + 1e-6);
        prop_assert!(once.min() >= 0.0);
    }

    #[test]
    fn linear_composition_is_matrix_product(seed in 0u64..500) {
        let mut rng = TensorRng::seed(seed);
        let mut a = Linear::new("a", 3, 4, false, &mut rng);
        let mut b = Linear::new("b", 2, 3, false, &mut rng);
        let x = rng.uniform_tensor([2, 4], -1.0, 1.0);
        let via_layers = b.forward(&a.forward(&x, Mode::Eval), Mode::Eval);
        // W_b (W_a x^T) == x (W_a^T W_b^T)
        let combined = b.weight.value.matmul(&a.weight.value); // [2, 4]
        let direct = x.matmul_nt(&combined);
        prop_assert!(via_layers.allclose(&direct, 1e-4));
    }

    #[test]
    fn sequential_forward_equals_manual_chain(seed in 0u64..500) {
        let mut rng = TensorRng::seed(seed);
        let mut c1 = Conv3d::new("c1", 2, 1, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng);
        let mut rng2 = TensorRng::seed(seed);
        let mut seq = Sequential::new()
            .push(Conv3d::new("c1", 2, 1, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng2))
            .push(Relu::new());
        let x = rng.uniform_tensor([1, 1, 2, 5, 5], -1.0, 1.0);
        let manual = c1.forward(&x, Mode::Eval).map(|v| v.max(0.0));
        let chained = seq.forward(&x, Mode::Eval);
        prop_assert!(manual.allclose(&chained, 1e-6));
    }
}
