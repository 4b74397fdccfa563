//! Finite-difference gradient checking for layers.
//!
//! Used by the test suites of every parametric layer: the analytic
//! backward pass is compared against central finite differences of a
//! scalarised output. Exported (rather than test-only) so downstream
//! crates can gradient-check their composed networks too.

use crate::layer::{Layer, Mode};
use p3d_tensor::{Tensor, TensorRng};

/// Result of a gradient check: the worst relative error observed.
#[derive(Clone, Copy, Debug)]
pub struct GradCheckReport {
    /// Maximum relative error over all checked parameter coordinates.
    pub max_param_err: f32,
    /// Maximum relative error over all checked input coordinates.
    pub max_input_err: f32,
}

fn rel_err(a: f32, b: f32) -> f32 {
    let denom = a.abs().max(b.abs()).max(1e-2);
    (a - b).abs() / denom
}

/// Checks analytic gradients of `layer` against central finite
/// differences.
///
/// The layer output is scalarised as `L = <output, P>` for a fixed random
/// projection `P`, whose gradient w.r.t. the output is exactly `P`. Up to
/// `samples` coordinates of every parameter and of the input are probed.
///
/// Returns the worst relative errors; callers assert on them.
///
/// # Panics
///
/// Panics if the layer mutates its parameter shapes between calls.
pub fn check_layer(
    layer: &mut dyn Layer,
    input: &Tensor,
    samples: usize,
    seed: u64,
) -> GradCheckReport {
    let mut rng = TensorRng::seed(seed);
    let out = layer.forward(input, Mode::Train);
    let projection = rng.uniform_tensor(out.shape(), -1.0, 1.0);

    layer.zero_grads_internal();
    let _ = layer.forward(input, Mode::Train);
    let grad_in = layer.backward(&projection);

    // Collect analytic parameter gradients.
    let mut analytic: Vec<(String, Tensor)> = Vec::new();
    layer.visit_params(&mut |p| analytic.push((p.name.clone(), p.grad.clone())));

    // ReLU and max-pool are piecewise linear; a finite-difference step
    // across a kink produces a bogus estimate that says nothing about the
    // analytic gradient. Two central differences at step h and h/2 agree
    // on smooth coordinates and disagree across kinks, so coordinates
    // where they disagree are skipped.
    let h = 2e-3f32;
    let consistent = |fd1: f32, fd2: f32| (fd1 - fd2).abs() <= 0.02 * fd1.abs().max(0.02);

    let mut max_param_err = 0.0f32;
    for (name, grads) in &analytic {
        let len = grads.len();
        let picks: Vec<usize> = if len <= samples {
            (0..len).collect()
        } else {
            (0..samples).map(|_| rng.below(len)).collect()
        };
        for &i in &picks {
            let loss_at = |layer: &mut dyn Layer, delta: f32| -> f32 {
                layer.visit_params(&mut |p| {
                    if &p.name == name {
                        p.value.data_mut()[i] += delta;
                    }
                });
                let out = layer.forward(input, Mode::Train);
                layer.visit_params(&mut |p| {
                    if &p.name == name {
                        p.value.data_mut()[i] -= delta;
                    }
                });
                out.dot(&projection)
            };
            let fd1 = (loss_at(layer, h) - loss_at(layer, -h)) / (2.0 * h);
            let fd2 = (loss_at(layer, h / 2.0) - loss_at(layer, -h / 2.0)) / h;
            if !consistent(fd1, fd2) {
                continue;
            }
            max_param_err = max_param_err.max(rel_err(fd2, grads.data()[i]));
        }
    }

    // Input gradient check.
    let mut max_input_err = 0.0f32;
    let len = input.len();
    let picks: Vec<usize> = if len <= samples {
        (0..len).collect()
    } else {
        (0..samples).map(|_| rng.below(len)).collect()
    };
    for &i in &picks {
        let loss_at = |layer: &mut dyn Layer, delta: f32| -> f32 {
            let mut x = input.clone();
            x.data_mut()[i] += delta;
            layer.forward(&x, Mode::Train).dot(&projection)
        };
        let fd1 = (loss_at(layer, h) - loss_at(layer, -h)) / (2.0 * h);
        let fd2 = (loss_at(layer, h / 2.0) - loss_at(layer, -h / 2.0)) / h;
        if !consistent(fd1, fd2) {
            continue;
        }
        max_input_err = max_input_err.max(rel_err(fd2, grad_in.data()[i]));
    }

    GradCheckReport {
        max_param_err,
        max_input_err,
    }
}

trait ZeroGrads {
    fn zero_grads_internal(&mut self);
}

impl ZeroGrads for dyn Layer + '_ {
    fn zero_grads_internal(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::batchnorm::BatchNorm3d;
    use crate::container::{ResidualBlock, Sequential};
    use crate::conv3d::Conv3d;
    use crate::linear::Linear;
    use crate::pool::{GlobalAvgPool, MaxPool3d};

    const TOL: f32 = 5e-2;

    #[test]
    fn conv3d_gradients() {
        let mut rng = TensorRng::seed(10);
        let mut conv = Conv3d::new("gc", 3, 2, (2, 3, 3), (1, 2, 2), (1, 1, 1), true, &mut rng);
        let x = rng.uniform_tensor([2, 2, 3, 5, 5], -1.0, 1.0);
        let rep = check_layer(&mut conv, &x, 40, 99);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn conv3d_temporal_kernel_gradients() {
        // R(2+1)D temporal convolution: 3x1x1.
        let mut rng = TensorRng::seed(11);
        let mut conv = Conv3d::new("gt", 2, 3, (3, 1, 1), (1, 1, 1), (1, 0, 0), false, &mut rng);
        let x = rng.uniform_tensor([1, 3, 4, 3, 3], -1.0, 1.0);
        let rep = check_layer(&mut conv, &x, 40, 98);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn linear_gradients() {
        let mut rng = TensorRng::seed(12);
        let mut lin = Linear::new("gl", 4, 6, true, &mut rng);
        let x = rng.uniform_tensor([3, 6], -1.0, 1.0);
        let rep = check_layer(&mut lin, &x, 40, 97);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn batchnorm_gradients() {
        let mut bn = BatchNorm3d::new("gb", 3);
        let mut rng = TensorRng::seed(13);
        // Scale/offset the input so statistics are non-trivial.
        let x = rng.normal_tensor([4, 3, 2, 3, 3], 2.0).map(|v| v + 1.0);
        let rep = check_layer(&mut bn, &x, 30, 96);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn maxpool_gradients() {
        let mut pool = MaxPool3d::new((1, 2, 2), (1, 2, 2));
        let mut rng = TensorRng::seed(14);
        let x = rng.uniform_tensor([2, 2, 2, 4, 4], -1.0, 1.0);
        let rep = check_layer(&mut pool, &x, 40, 95);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn global_pool_and_relu_gradients() {
        let mut seq = Sequential::new()
            .push(Relu::new())
            .push(GlobalAvgPool::new());
        let mut rng = TensorRng::seed(15);
        let x = rng.uniform_tensor([2, 3, 2, 3, 3], -1.0, 1.0);
        let rep = check_layer(&mut seq, &x, 40, 94);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn residual_block_gradients() {
        let mut rng = TensorRng::seed(16);
        let main = Sequential::new()
            .push(Conv3d::new(
                "rm",
                2,
                2,
                (1, 3, 3),
                (1, 1, 1),
                (0, 1, 1),
                false,
                &mut rng,
            ))
            .push(Relu::new())
            .push(Conv3d::new(
                "rm2",
                2,
                2,
                (3, 1, 1),
                (1, 1, 1),
                (1, 0, 0),
                false,
                &mut rng,
            ));
        let mut block = ResidualBlock::identity(main);
        let x = rng.uniform_tensor([1, 2, 3, 4, 4], -1.0, 1.0);
        let rep = check_layer(&mut block, &x, 40, 93);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn projected_residual_gradients() {
        let mut rng = TensorRng::seed(17);
        let main = Sequential::new().push(Conv3d::new(
            "pm",
            3,
            2,
            (1, 3, 3),
            (1, 2, 2),
            (0, 1, 1),
            false,
            &mut rng,
        ));
        let shortcut = Sequential::new().push(Conv3d::new(
            "ps",
            3,
            2,
            (1, 1, 1),
            (1, 2, 2),
            (0, 0, 0),
            false,
            &mut rng,
        ));
        let mut block = ResidualBlock::projected(main, shortcut);
        let x = rng.uniform_tensor([1, 2, 2, 4, 4], -1.0, 1.0);
        let rep = check_layer(&mut block, &x, 40, 92);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }

    #[test]
    fn small_cnn_end_to_end_gradients() {
        let mut rng = TensorRng::seed(18);
        let mut net = Sequential::new()
            .push(Conv3d::new(
                "e1",
                2,
                1,
                (1, 3, 3),
                (1, 1, 1),
                (0, 1, 1),
                true,
                &mut rng,
            ))
            .push(BatchNorm3d::new("e2", 2))
            .push(Relu::new())
            .push(GlobalAvgPool::new())
            .push(Linear::new("e3", 2, 2, true, &mut rng));
        let x = rng.uniform_tensor([3, 1, 2, 4, 4], -1.0, 1.0);
        let rep = check_layer(&mut net, &x, 30, 91);
        assert!(rep.max_param_err < TOL, "param err {}", rep.max_param_err);
        assert!(rep.max_input_err < TOL, "input err {}", rep.max_input_err);
    }
}
