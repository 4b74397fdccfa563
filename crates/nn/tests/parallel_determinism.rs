//! Determinism of the batch-parallel convolution path and the
//! im2col/col2im adjoint identity under parallel execution.

use p3d_nn::im2col::{col2im, im2col, ConvGeometry};
use p3d_nn::{BatchNorm3d, Conv3d, Layer, MaxPool3d, Mode};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{Tensor, TensorRng};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises tests that mutate the process-wide thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn mk_conv(seed: u64) -> Conv3d {
    let mut rng = TensorRng::seed(seed);
    Conv3d::new("d", 4, 3, (2, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng)
}

/// Runs one train step (forward + backward) at a given thread count and
/// returns `(output, grad_in, grad_w, grad_bias)`.
fn conv_step(threads: usize, x: &Tensor, g: &Tensor) -> (Tensor, Tensor, Tensor, Tensor) {
    set_thread_override(Some(threads));
    let mut conv = mk_conv(123);
    let y = conv.forward(x, Mode::Train);
    let gi = conv.backward(g);
    (
        y,
        gi,
        conv.weight.grad.clone(),
        conv.bias.as_ref().unwrap().grad.clone(),
    )
}

#[test]
fn conv3d_train_step_bitwise_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = TensorRng::seed(55);
    let x = rng.uniform_tensor([4, 3, 3, 6, 6], -1.0, 1.0);
    let g = rng.uniform_tensor([4, 4, 2, 6, 6], -1.0, 1.0);

    let (y1, gi1, gw1, gb1) = conv_step(1, &x, &g);
    for threads in [2, 8] {
        let (y, gi, gw, gb) = conv_step(threads, &x, &g);
        assert_eq!(y1, y, "forward differs at {threads} threads");
        assert_eq!(gi1, gi, "grad_in differs at {threads} threads");
        assert_eq!(gw1, gw, "grad_w differs at {threads} threads");
        assert_eq!(gb1, gb, "grad_bias differs at {threads} threads");
    }
    set_thread_override(None);
}

#[test]
fn batchnorm_and_maxpool_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = TensorRng::seed(56);
    let x = rng.uniform_tensor([4, 3, 2, 6, 6], -2.0, 2.0);
    let gp = rng.uniform_tensor([4, 3, 2, 3, 3], -1.0, 1.0);
    let gb = rng.uniform_tensor([4, 3, 2, 6, 6], -1.0, 1.0);

    let run = |threads: usize| {
        set_thread_override(Some(threads));
        let mut bn = BatchNorm3d::new("bn", 3);
        let bn_y = bn.forward(&x, Mode::Train);
        let bn_g = bn.backward(&gb);
        let mut mp = MaxPool3d::new((1, 2, 2), (1, 2, 2));
        let mp_y = mp.forward(&x, Mode::Train);
        let mp_g = mp.backward(&gp);
        (bn_y, bn_g, mp_y, mp_g)
    };
    let base = run(1);
    for threads in [2, 8] {
        let got = run(threads);
        assert_eq!(base.0, got.0, "bn forward differs at {threads} threads");
        assert_eq!(base.1, got.1, "bn backward differs at {threads} threads");
        assert_eq!(
            base.2, got.2,
            "maxpool forward differs at {threads} threads"
        );
        assert_eq!(
            base.3, got.3,
            "maxpool backward differs at {threads} threads"
        );
    }
    set_thread_override(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn im2col_col2im_adjoint(seed in 0u64..500) {
        // col2im is the adjoint of im2col: <col2im(G), X> == <G, im2col(X)>
        // for any X and any column-space G. This must survive the parallel
        // matmul inside conv backward, so it is checked through the same
        // geometry conv uses.
        let mut rng = TensorRng::seed(seed);
        let geom = ConvGeometry {
            channels: 2,
            input: (3, 5, 5),
            kernel: (2, 3, 3),
            stride: (1, 1, 1),
            pad: (0, 1, 1),
        };
        let x: Vec<f32> = (0..2 * 3 * 5 * 5).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let g = rng.uniform_tensor([geom.col_rows(), geom.col_cols()], -1.0, 1.0);

        let cols = im2col(&x, &geom);
        let mut back = vec![0.0f32; x.len()];
        col2im(&g, &geom, &mut back);

        let lhs: f32 = back.iter().zip(&x).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = g.data().iter().zip(cols.data()).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_adjoint_through_parallel_path(seed in 0u64..200) {
        // <grad_in, dx> == <grad_out, conv(dx)> — the layer-level adjoint
        // identity, exercised with a batch big enough to take the
        // batch-parallel path.
        let mut rng = TensorRng::seed(seed);
        let mut conv = mk_conv(seed.wrapping_add(9));
        let x = rng.uniform_tensor([3, 3, 3, 5, 5], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Train);
        let g = rng.uniform_tensor(y.shape(), -1.0, 1.0);
        let grad_in = conv.backward(&g);
        let dx = rng.uniform_tensor(x.shape(), -1.0, 1.0);
        let f_dx = conv.forward(&dx, Mode::Eval);
        // Remove the bias contribution: conv(dx) includes the bias, which
        // the adjoint identity excludes. conv(0) == bias pattern.
        let f_zero = conv.forward(&Tensor::zeros(x.shape()), Mode::Eval);
        let f_dx_linear = &f_dx - &f_zero;
        let lhs = grad_in.dot(&dx);
        let rhs = g.dot(&f_dx_linear);
        prop_assert!((lhs - rhs).abs() <= 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }
}
