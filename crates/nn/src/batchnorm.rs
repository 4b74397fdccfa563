//! Batch normalisation over 3D feature volumes.

use crate::arena::{BufId, EvalArena};
use crate::layer::{Layer, Mode, Param, ParamKind};
use p3d_tensor::parallel::{parallel_chunk_map, parallel_zip_chunk_map};
use p3d_tensor::Tensor;

/// Batch normalisation for `[B, C, D, H, W]` activations, normalising per
/// channel over the `(B, D, H, W)` axes.
///
/// Training mode uses batch statistics and updates exponential running
/// averages; evaluation mode uses the running averages — the statistics
/// the FPGA post-processing unit folds into a per-channel scale and shift.
pub struct BatchNorm3d {
    /// Per-channel scale `gamma`.
    pub gamma: Param,
    /// Per-channel shift `beta`.
    pub beta: Param,
    /// Running mean, updated in training mode.
    pub running_mean: Tensor,
    /// Running variance, updated in training mode.
    pub running_var: Tensor,
    name: String,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

struct BnCache {
    normalized: Tensor,
    inv_std: Vec<f32>,
    input_shape: p3d_tensor::Shape,
}

impl BatchNorm3d {
    /// Creates a batch-norm layer for `channels` feature channels with
    /// standard defaults (`momentum = 0.1`, `eps = 1e-5`).
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm3d {
            gamma: Param::new(
                format!("{name}.gamma"),
                ParamKind::BnGamma,
                Tensor::ones([channels]),
            ),
            beta: Param::new(
                format!("{name}.beta"),
                ParamKind::BnBeta,
                Tensor::zeros([channels]),
            ),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            name: name.to_string(),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// The per-channel `(scale, shift)` pair the FPGA post-processing unit
    /// applies at inference: `y = scale * x + shift`, where
    /// `scale = gamma / sqrt(var + eps)` and
    /// `shift = beta - scale * mean` (using running statistics).
    pub fn folded_scale_shift(&self) -> (Vec<f32>, Vec<f32>) {
        let c = self.channels();
        let mut scale = Vec::with_capacity(c);
        let mut shift = Vec::with_capacity(c);
        for ch in 0..c {
            let s = self.gamma.value.data()[ch] / (self.running_var.data()[ch] + self.eps).sqrt();
            scale.push(s);
            shift.push(self.beta.value.data()[ch] - s * self.running_mean.data()[ch]);
        }
        (scale, shift)
    }

    fn stats_shape(input: &Tensor) -> (usize, usize, usize) {
        Self::stats_shape_of(input.shape())
    }

    fn stats_shape_of(s: p3d_tensor::Shape) -> (usize, usize, usize) {
        assert_eq!(s.rank(), 5, "batchnorm expects [B, C, D, H, W], got {s}");
        let (b, c) = (s.dim(0), s.dim(1));
        let spatial = s.dim(2) * s.dim(3) * s.dim(4);
        (b, c, spatial)
    }
}

impl Layer for BatchNorm3d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (b, c, spatial) = Self::stats_shape(input);
        assert_eq!(c, self.channels(), "batchnorm channel mismatch");
        let count = (b * spatial) as f32;
        let data = input.data();

        let (mean, var) = match mode {
            Mode::Train => {
                let mut mean = vec![0.0f32; c];
                let mut var = vec![0.0f32; c];
                for bi in 0..b {
                    for ch in 0..c {
                        let base = (bi * c + ch) * spatial;
                        let slice = &data[base..base + spatial];
                        mean[ch] += slice.iter().sum::<f32>();
                    }
                }
                for m in &mut mean {
                    *m /= count;
                }
                for bi in 0..b {
                    for ch in 0..c {
                        let base = (bi * c + ch) * spatial;
                        let m = mean[ch];
                        var[ch] += data[base..base + spatial]
                            .iter()
                            .map(|&x| (x - m) * (x - m))
                            .sum::<f32>();
                    }
                }
                for v in &mut var {
                    *v /= count;
                }
                for ch in 0..c {
                    let rm = &mut self.running_mean.data_mut()[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * mean[ch];
                    let rv = &mut self.running_var.data_mut()[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * var[ch];
                }
                (mean, var)
            }
            Mode::Eval => (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            ),
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut normalized = Tensor::zeros(input.shape());
        let mut out = Tensor::zeros(input.shape());
        {
            let gamma = self.gamma.value.data();
            let beta = self.beta.value.data();
            // Parallel over [batch x channel] planes; `normalized` and
            // `out` planes advance in lockstep under one worker each.
            parallel_zip_chunk_map(
                normalized.data_mut(),
                spatial.max(1),
                out.data_mut(),
                spatial.max(1),
                |plane, nd, od| {
                    let ch = plane % c;
                    let base = plane * spatial;
                    let (m, is) = (mean[ch], inv_std[ch]);
                    let (g, be) = (gamma[ch], beta[ch]);
                    for (i, (n_out, o_out)) in nd.iter_mut().zip(od.iter_mut()).enumerate() {
                        let n = (data[base + i] - m) * is;
                        *n_out = n;
                        *o_out = g * n + be;
                    }
                },
            );
        }
        if mode == Mode::Train {
            self.cache = Some(BnCache {
                normalized,
                inv_std,
                input_shape: input.shape(),
            });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("batchnorm backward called before forward(Train)");
        let s = cache.input_shape;
        assert_eq!(grad_out.shape(), s, "batchnorm grad shape mismatch");
        let (b, c) = (s.dim(0), s.dim(1));
        let spatial = s.dim(2) * s.dim(3) * s.dim(4);
        let count = (b * spatial) as f32;
        let g_out = grad_out.data();
        let norm = cache.normalized.data();

        // Per-channel reductions: sum(g) and sum(g * xhat).
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gx = vec![0.0f32; c];
        for bi in 0..b {
            for ch in 0..c {
                let base = (bi * c + ch) * spatial;
                for i in base..base + spatial {
                    sum_g[ch] += g_out[i];
                    sum_gx[ch] += g_out[i] * norm[i];
                }
            }
        }
        for ch in 0..c {
            self.gamma.grad.data_mut()[ch] += sum_gx[ch];
            self.beta.grad.data_mut()[ch] += sum_g[ch];
        }

        // dL/dx = gamma * inv_std * (g - mean(g) - xhat * mean(g*xhat))
        let mut grad_in = Tensor::zeros(s);
        let gamma = self.gamma.value.data();
        parallel_chunk_map(grad_in.data_mut(), spatial.max(1), |plane, gi| {
            let ch = plane % c;
            let base = plane * spatial;
            let g = gamma[ch];
            let is = cache.inv_std[ch];
            let mg = sum_g[ch] / count;
            let mgx = sum_gx[ch] / count;
            for (i, x) in gi.iter_mut().enumerate() {
                *x = g * is * (g_out[base + i] - mg - norm[base + i] * mgx);
            }
        });
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        // In place, per channel, with running statistics — the same
        // scalar expressions as the Eval branch of `forward`
        // (`n = (x - mean) * inv_std; y = gamma * n + beta`), so outputs
        // are bitwise identical while touching no heap.
        let shape = arena.shape(input);
        let (b, c, spatial) = Self::stats_shape_of(shape);
        assert_eq!(c, self.channels(), "batchnorm channel mismatch");
        let rm = self.running_mean.data();
        let rv = self.running_var.data();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        let eps = self.eps;
        let data = arena.buf_mut(input);
        for plane in 0..b * c {
            let ch = plane % c;
            let m = rm[ch];
            let is = 1.0 / (rv[ch] + eps).sqrt();
            let (g, be) = (gamma[ch], beta[ch]);
            for x in &mut data[plane * spatial..(plane + 1) * spatial] {
                let n = (*x - m) * is;
                *x = g * n + be;
            }
        }
        input
    }

    fn export_state(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f(&format!("{}.running_mean", self.name), &self.running_mean);
        f(&format!("{}.running_var", self.name), &self.running_var);
    }

    fn import_state(&mut self, get: &mut dyn FnMut(&str, &p3d_tensor::Shape) -> Option<Tensor>) {
        if let Some(rm) = get(
            &format!("{}.running_mean", self.name),
            &self.running_mean.shape(),
        ) {
            self.running_mean = rm;
        }
        if let Some(rv) = get(
            &format!("{}.running_var", self.name),
            &self.running_var.shape(),
        ) {
            self.running_var = rv;
        }
    }

    fn describe(&self) -> String {
        format!("batchnorm3d({})", self.channels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_tensor::TensorRng;

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm3d::new("bn", 2);
        let mut rng = TensorRng::seed(1);
        let x = rng.normal_tensor([4, 2, 2, 3, 3], 3.0).map(|v| v + 5.0);
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean ~0 and var ~1 after normalisation (gamma=1, beta=0).
        let spatial = 2 * 3 * 3;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for b in 0..4 {
                let base = (b * 2 + ch) * spatial;
                vals.extend_from_slice(&y.data()[base..base + spatial]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm3d::new("bn", 1);
        bn.running_mean = Tensor::from_vec([1], vec![2.0]);
        bn.running_var = Tensor::from_vec([1], vec![4.0]);
        let x = Tensor::full([1, 1, 1, 1, 2], 4.0);
        let y = bn.forward(&x, Mode::Eval);
        // (4 - 2) / sqrt(4) = 1.
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn running_stats_update_toward_batch() {
        let mut bn = BatchNorm3d::new("bn", 1);
        let x = Tensor::full([2, 1, 1, 1, 4], 10.0);
        let _ = bn.forward(&x, Mode::Train);
        // momentum 0.1: running mean moves from 0 toward 10 by 1.0.
        assert!((bn.running_mean.data()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn folded_scale_shift_matches_eval() {
        let mut bn = BatchNorm3d::new("bn", 2);
        bn.running_mean = Tensor::from_vec([2], vec![1.0, -1.0]);
        bn.running_var = Tensor::from_vec([2], vec![0.25, 4.0]);
        bn.gamma.value = Tensor::from_vec([2], vec![2.0, 0.5]);
        bn.beta.value = Tensor::from_vec([2], vec![0.1, -0.2]);
        let (scale, shift) = bn.folded_scale_shift();
        let mut x = Tensor::zeros([1, 2, 1, 1, 1]);
        x.set(&[0, 0, 0, 0, 0], 3.0);
        x.set(&[0, 1, 0, 0, 0], -2.0);
        let y = bn.forward(&x, Mode::Eval);
        assert!((y.get(&[0, 0, 0, 0, 0]) - (scale[0] * 3.0 + shift[0])).abs() < 1e-4);
        assert!((y.get(&[0, 1, 0, 0, 0]) - (scale[1] * -2.0 + shift[1])).abs() < 1e-4);
    }

    #[test]
    fn gamma_beta_visited() {
        let mut bn = BatchNorm3d::new("bn", 3);
        let mut names = Vec::new();
        bn.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["bn.gamma", "bn.beta"]);
    }
}
