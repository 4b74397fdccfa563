//! 3D convolution layer: conv-as-GEMM forward and backward passes.
//!
//! Forward and arena evaluation share one per-clip body
//! (`Conv3d::conv_clip`): the clip is lowered straight into the packed
//! panel image the GEMM kernels read — on the block-sparse path only the
//! rows some enabled block reads — so no im2col matrix is built. The
//! backward pass still unfolds the cached input with [`im2col`], which
//! `dL/dW` needs as a matrix.

use crate::arena::{BufId, EvalArena};
use crate::im2col::{col2im, im2col, im2col_panels, ConvGeometry};
use crate::layer::{Layer, Mode, Param, ParamKind};
use p3d_tensor::parallel::{parallel_chunk_map, parallel_chunk_map_collect};
use p3d_tensor::{
    gemm_bs_with_packer, gemm_with_packer, BlockPattern, BlockSparseWeights, Shape, Tensor,
    TensorRng,
};

/// A 3D convolution: weights `[M, N, Kd, Kr, Kc]`, optional bias `[M]`.
///
/// This single layer type covers every convolution in the workspace:
/// standard 3D kernels (C3D, `3x3x3`), the spatial half of an R(2+1)D unit
/// (`1xKxK`), the temporal half (`Kx1x1`), and `1x1x1` shortcut
/// projections.
///
/// # Example
///
/// ```
/// use p3d_nn::{Conv3d, Layer, Mode};
/// use p3d_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed(0);
/// let mut conv = Conv3d::new("c", 4, 2, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng);
/// let x = rng.uniform_tensor([1, 2, 2, 8, 8], -1.0, 1.0);
/// let y = conv.forward(&x, Mode::Train);
/// assert_eq!(y.shape().dims(), &[1, 4, 2, 8, 8]);
/// ```
pub struct Conv3d {
    /// Convolution weights, `[M, N, Kd, Kr, Kc]`.
    pub weight: Param,
    /// Optional bias, `[M]`.
    pub bias: Option<Param>,
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
    cached_input: Option<Tensor>,
    /// Block-CSR compiled weights, present only after
    /// [`Layer::install_block_patterns`] handed this layer a pattern.
    /// Refreshed from the (masked) dense weights at the top of every
    /// forward, so retraining updates are always reflected.
    sparse: Option<BlockSparseWeights>,
}

impl Conv3d {
    /// Creates a Kaiming-initialised convolution.
    ///
    /// `name` prefixes the parameter names (`{name}.weight`,
    /// `{name}.bias`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        out_channels: usize,
        in_channels: usize,
        kernel: (usize, usize, usize),
        stride: (usize, usize, usize),
        pad: (usize, usize, usize),
        bias: bool,
        rng: &mut TensorRng,
    ) -> Self {
        let fan_in = in_channels * kernel.0 * kernel.1 * kernel.2;
        let w = rng.kaiming_normal(
            Shape::d5(out_channels, in_channels, kernel.0, kernel.1, kernel.2),
            fan_in,
        );
        Conv3d {
            weight: Param::new(format!("{name}.weight"), ParamKind::ConvWeight, w),
            bias: bias.then(|| {
                Param::new(
                    format!("{name}.bias"),
                    ParamKind::Bias,
                    Tensor::zeros([out_channels]),
                )
            }),
            kernel,
            stride,
            pad,
            cached_input: None,
            sparse: None,
        }
    }

    /// The compiled block-sparse weights, if a pattern is installed.
    pub fn block_sparse(&self) -> Option<&BlockSparseWeights> {
        self.sparse.as_ref()
    }

    /// Repacks the block-CSR values from the current (masked) weights so
    /// the sparse kernel sees this step's weights. `O(m k)` against the
    /// `O(m k n)` product — negligible, so it runs every forward.
    fn refresh_sparse(&mut self) {
        if let Some(bs) = &mut self.sparse {
            bs.refresh(self.weight.value.data());
        }
    }

    /// Output channels `M`.
    pub fn out_channels(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Input channels `N`.
    pub fn in_channels(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Kernel extents `(Kd, Kr, Kc)`.
    pub fn kernel(&self) -> (usize, usize, usize) {
        self.kernel
    }

    /// Strides `(Sd, Sr, Sc)`.
    pub fn stride(&self) -> (usize, usize, usize) {
        self.stride
    }

    /// Padding `(Pd, Pr, Pc)`.
    pub fn pad(&self) -> (usize, usize, usize) {
        self.pad
    }

    fn geometry(&self, input_shape: Shape) -> ConvGeometry {
        assert_eq!(
            input_shape.rank(),
            5,
            "conv3d expects [B, N, D, H, W], got {input_shape}"
        );
        assert_eq!(
            input_shape.dim(1),
            self.in_channels(),
            "conv3d {} expects {} input channels, got {}",
            self.weight.name,
            self.in_channels(),
            input_shape.dim(1)
        );
        ConvGeometry {
            channels: self.in_channels(),
            input: (input_shape.dim(2), input_shape.dim(3), input_shape.dim(4)),
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// The per-clip conv body behind both `forward` and `eval_into`:
    /// `dst [M, Do*Ho*Wo] = W x lowered(src) + bias` for one clip `src`
    /// (`[N, Di, Hi, Wi]`).
    ///
    /// The clip is lowered by [`im2col_panels`] directly into the GEMM's
    /// packed panel image. The dense kernel asks for every row; the
    /// block-sparse kernel asks only for the rows some enabled block
    /// reads, so a pruned block column's input channels are neither
    /// lowered nor loaded. The weight tensor is row-major
    /// `[M, N, Kd, Kr, Kc]`, i.e. already the `[M, rows]` matrix. Both
    /// kernels accumulate in the canonical order (see `p3d_tensor::gemm`),
    /// so the two paths are bitwise identical on the masked weights.
    fn conv_clip(&self, geom: &ConvGeometry, src: &[f32], dst: &mut [f32]) {
        let cols_n = geom.col_cols();
        let lower = |ranges: &[(usize, usize)], packed: &mut [f32]| {
            im2col_panels(src, geom, ranges, packed)
        };
        match &self.sparse {
            Some(bs) => gemm_bs_with_packer(bs, cols_n, dst, lower),
            None => gemm_with_packer(
                self.weight.value.data(),
                self.out_channels(),
                geom.col_rows(),
                cols_n,
                dst,
                lower,
            ),
        }
        if let Some(bias) = &self.bias {
            for (ch, &bv) in bias.value.data().iter().enumerate() {
                for x in &mut dst[ch * cols_n..(ch + 1) * cols_n] {
                    *x += bv;
                }
            }
        }
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.refresh_sparse();
        let geom = self.geometry(input.shape());
        let batch = input.shape().dim(0);
        let (od, oh, ow) = geom.output();
        let per_in = input.len() / batch;
        let mut out = Tensor::zeros(Shape::d5(batch, self.out_channels(), od, oh, ow));
        let per_out = self.out_channels() * geom.col_cols();
        // Batch-parallel: each worker owns one clip's output slice. The
        // inner GEMM detects the nesting and runs serially, so this
        // never oversubscribes (see `p3d_tensor::parallel`).
        parallel_chunk_map(out.data_mut(), per_out, |b, dst| {
            self.conv_clip(&geom, &input.data()[b * per_in..(b + 1) * per_in], dst);
        });
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("conv3d backward called before forward(Train)");
        let geom = self.geometry(input.shape());
        let batch = input.shape().dim(0);
        let m = self.out_channels();
        let cols_n = geom.col_cols();
        let rows = geom.col_rows();
        assert_eq!(
            grad_out.len(),
            batch * m * cols_n,
            "grad_out shape mismatch"
        );

        let per_in = input.len() / batch;
        let per_out = m * cols_n;
        // Transpose the weight matrix once, outside the per-clip loop —
        // `matmul_tn` would have re-materialised it per clip. Same
        // arithmetic, so per-clip results are unchanged bit for bit.
        let w_t = self.weight.value.reshape(Shape::d2(m, rows)).transpose2();
        let mut grad_in = Tensor::zeros(input.shape());
        let want_bias = self.bias.is_some();

        // Batch-parallel: each worker owns one clip's grad_in slice and
        // returns its *local* weight/bias gradient contribution. The
        // per-clip results come back in clip order and are reduced
        // serially below, so the accumulated gradients are bitwise
        // identical for any thread count.
        let locals: Vec<(Tensor, Vec<f32>)> =
            parallel_chunk_map_collect(grad_in.data_mut(), per_in, |b, gin| {
                let cols = im2col(&input.data()[b * per_in..(b + 1) * per_in], &geom);
                let g_mat = Tensor::from_vec(
                    Shape::d2(m, cols_n),
                    grad_out.data()[b * per_out..(b + 1) * per_out].to_vec(),
                );
                // dL/dW (this clip) = gOut x cols^T — the packed `nt`
                // kernel folds the transpose into its B-panel packing.
                let gw = g_mat.matmul_nt(&cols);
                // dL/dIn = W^T x gOut, scattered back through col2im.
                let grad_cols = w_t.matmul(&g_mat);
                col2im(&grad_cols, &geom, gin);
                let gb = if want_bias {
                    (0..m)
                        .map(|ch| g_mat.data()[ch * cols_n..(ch + 1) * cols_n].iter().sum())
                        .collect()
                } else {
                    Vec::new()
                };
                (gw, gb)
            });

        // Deterministic reduction: fixed clip order, independent of how
        // clips were distributed across workers.
        let mut grad_w = Tensor::zeros(Shape::d2(m, rows));
        for (gw, _) in &locals {
            grad_w += gw;
        }
        self.weight
            .grad
            .axpy(1.0, &grad_w.reshape(self.weight.value.shape()));

        if let Some(bias) = &mut self.bias {
            let bg = bias.grad.data_mut();
            for (_, gb) in &locals {
                for (ch, &g) in gb.iter().enumerate() {
                    bg[ch] += g;
                }
            }
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn install_block_patterns(&mut self, get: &mut dyn FnMut(&str) -> Option<BlockPattern>) {
        self.sparse = get(&self.weight.name).and_then(|pat| {
            let rows = self.in_channels() * self.kernel.0 * self.kernel.1 * self.kernel.2;
            assert_eq!(
                (pat.m, pat.k),
                (self.out_channels(), rows),
                "block pattern shape mismatch for {}: pattern {}x{}, weight {}x{}",
                self.weight.name,
                pat.m,
                pat.k,
                self.out_channels(),
                rows
            );
            // A (nearly) fully-enabled pattern skips too little work to
            // pay for one `k` range per block — keep the dense form, one
            // range per block row, on the masked weights instead
            // (bitwise identical; see `BlockPattern::prefers_dense`).
            if pat.prefers_dense() {
                return None;
            }
            Some(BlockSparseWeights::compile(self.weight.value.data(), &pat))
        });
    }

    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        self.refresh_sparse();
        let in_shape = arena.shape(input);
        let geom = self.geometry(in_shape);
        let batch = in_shape.dim(0);
        let (od, oh, ow) = geom.output();
        let per_in = in_shape.len() / batch;
        let per_out = self.out_channels() * geom.col_cols();

        let out = arena.acquire(Shape::d5(batch, self.out_channels(), od, oh, ow));
        let (src, dst) = arena.pair(input, out);
        // Serial over clips: the batched engine parallelises over clips
        // one level up (one worker per clip), and each clip runs the
        // same `conv_clip` body as `forward`, so outputs are bitwise
        // equal to the allocating path.
        for b in 0..batch {
            self.conv_clip(
                &geom,
                &src[b * per_in..(b + 1) * per_in],
                &mut dst[b * per_out..(b + 1) * per_out],
            );
        }
        arena.release(input);
        out
    }

    fn describe(&self) -> String {
        format!(
            "conv3d({}->{}, {}x{}x{}, stride {:?}, pad {:?})",
            self.in_channels(),
            self.out_channels(),
            self.kernel.0,
            self.kernel.1,
            self.kernel.2,
            self.stride,
            self.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rngseed: u64) -> (Conv3d, TensorRng) {
        let mut rng = TensorRng::seed(rngseed);
        let conv = Conv3d::new("t", 3, 2, (2, 2, 2), (1, 1, 1), (0, 0, 0), true, &mut rng);
        (conv, rng)
    }

    #[test]
    fn forward_shape() {
        let (mut conv, mut rng) = mk(1);
        let x = rng.uniform_tensor([2, 2, 3, 4, 4], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 3, 2, 3, 3]);
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut rng = TensorRng::seed(2);
        let mut conv = Conv3d::new("id", 1, 1, (1, 1, 1), (1, 1, 1), (0, 0, 0), false, &mut rng);
        conv.weight.value.fill(1.0);
        let x = rng.uniform_tensor([1, 1, 2, 3, 3], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Eval);
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn known_sum_kernel() {
        // All-ones 2x2x2 kernel over an all-ones input sums 8 elements.
        let mut rng = TensorRng::seed(3);
        let mut conv = Conv3d::new("s", 1, 1, (2, 2, 2), (1, 1, 1), (0, 0, 0), false, &mut rng);
        conv.weight.value.fill(1.0);
        let x = Tensor::ones([1, 1, 2, 2, 2]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1, 1]);
        assert!((y.data()[0] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn bias_added_per_channel() {
        let (mut conv, mut rng) = mk(4);
        conv.weight.value.fill(0.0);
        conv.bias.as_mut().unwrap().value = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let x = rng.uniform_tensor([1, 2, 3, 4, 4], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Eval);
        assert!((y.get(&[0, 0, 0, 0, 0]) - 1.0).abs() < 1e-6);
        assert!((y.get(&[0, 1, 1, 1, 1]) - 2.0).abs() < 1e-6);
        assert!((y.get(&[0, 2, 0, 2, 2]) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn stride_and_padding_shapes() {
        let mut rng = TensorRng::seed(5);
        // R(2+1)D conv1 spatial: 1x7x7, stride (1,2,2), pad (0,3,3).
        let mut conv = Conv3d::new("c1", 4, 3, (1, 7, 7), (1, 2, 2), (0, 3, 3), false, &mut rng);
        let x = rng.uniform_tensor([1, 3, 4, 16, 16], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 4, 4, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let (mut conv, _) = mk(6);
        let _ = conv.backward(&Tensor::zeros([1, 3, 1, 1, 1]));
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        let (mut conv, mut rng) = mk(7);
        let x = rng.uniform_tensor([1, 5, 3, 4, 4], -1.0, 1.0);
        let _ = conv.forward(&x, Mode::Eval);
    }
}
