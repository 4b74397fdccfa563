//! The post-processing unit of Fig. 2.
//!
//! "The results from the convolution computations in the processing unit
//! are further handled by the post processing unit, when there is a
//! subsequent batch normalization, bias addition, a shortcut layer from
//! the last residual block, an activation (ReLU) operation, or a pooling
//! layer." All operations run in Q7.8 fixed point and are overlapped with
//! the convolution engine, so they contribute no cycles in the
//! performance model.
//!
//! [`PostProcessor`] is the reference for these operations, one walk over
//! the whole map each, and the cycle engine's path. The functional
//! engine instead applies a conv's [`Epilogue`] (bias, folded batch norm,
//! ReLU) to each strip in the finish that rounds it, as the hardware
//! overlaps the unit with the convolution; it uses the same saturating
//! `Fixed16` operations in the same order, so both paths are bitwise
//! equal.

use p3d_tensor::{div_round_nearest, Fixed16, FixedTensor, Shape};

/// The per-output-channel post-processing fused onto one conv: bias, then
/// folded batch norm, then ReLU, each optional. The default is the
/// identity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Epilogue {
    /// Per-channel conv bias.
    pub bias: Option<Vec<Fixed16>>,
    /// Folded batch norm `(scale, shift)` per channel.
    pub batch_norm: Option<(Vec<Fixed16>, Vec<Fixed16>)>,
    /// ReLU after the rest.
    pub relu: bool,
}

/// Stateless fixed-point post-processing operations.
pub struct PostProcessor;

impl PostProcessor {
    /// Applies `ep` to a `[M, D, H, W]` conv output: [`PostProcessor::bias`],
    /// then [`PostProcessor::batch_norm`], then [`PostProcessor::relu`],
    /// each only when present.
    pub fn epilogue(t: &mut FixedTensor, ep: &Epilogue) {
        if let Some(bias) = &ep.bias {
            PostProcessor::bias(t, bias);
        }
        if let Some((scale, shift)) = &ep.batch_norm {
            PostProcessor::batch_norm(t, scale, shift);
        }
        if ep.relu {
            PostProcessor::relu(t);
        }
    }

    /// Per-channel bias addition on a `[M, D, H, W]` map.
    pub fn bias(t: &mut FixedTensor, bias: &[Fixed16]) {
        let s = t.shape();
        assert_eq!(s.rank(), 4, "expected [M, D, H, W]");
        let (m, vol) = (s.dim(0), s.len() / s.dim(0));
        assert_eq!(bias.len(), m, "bias length mismatch");
        for ch in 0..m {
            let b = bias[ch];
            for x in &mut t.data_mut()[ch * vol..(ch + 1) * vol] {
                *x = *x + b;
            }
        }
    }

    /// Folded batch normalisation `y = scale * x + shift` per channel.
    pub fn batch_norm(t: &mut FixedTensor, scale: &[Fixed16], shift: &[Fixed16]) {
        let s = t.shape();
        assert_eq!(s.rank(), 4, "expected [M, D, H, W]");
        let (m, vol) = (s.dim(0), s.len() / s.dim(0));
        assert_eq!(scale.len(), m, "scale length mismatch");
        assert_eq!(shift.len(), m, "shift length mismatch");
        for ch in 0..m {
            let (sc, sh) = (scale[ch], shift[ch]);
            for x in &mut t.data_mut()[ch * vol..(ch + 1) * vol] {
                *x = *x * sc + sh;
            }
        }
    }

    /// Elementwise shortcut addition (residual connection).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn shortcut_add(t: &mut FixedTensor, shortcut: &FixedTensor) {
        assert_eq!(t.shape(), shortcut.shape(), "shortcut shape mismatch");
        for (a, &b) in t.data_mut().iter_mut().zip(shortcut.data()) {
            *a = *a + b;
        }
    }

    /// ReLU.
    pub fn relu(t: &mut FixedTensor) {
        for x in t.data_mut() {
            *x = x.relu();
        }
    }

    /// Max pooling on `[M, D, H, W]` (no padding, as used by the lite
    /// networks).
    pub fn max_pool(
        t: &FixedTensor,
        kernel: (usize, usize, usize),
        stride: (usize, usize, usize),
    ) -> FixedTensor {
        let s = t.shape();
        assert_eq!(s.rank(), 4, "expected [M, D, H, W]");
        let (m, d, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let od = (d - kernel.0) / stride.0 + 1;
        let oh = (h - kernel.1) / stride.1 + 1;
        let ow = (w - kernel.2) / stride.2 + 1;
        let mut out = FixedTensor::zeros(Shape::d4(m, od, oh, ow));
        for ch in 0..m {
            for odi in 0..od {
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut best = Fixed16::MIN;
                        for kd in 0..kernel.0 {
                            for kr in 0..kernel.1 {
                                for kc in 0..kernel.2 {
                                    let v = t.get(&[
                                        ch,
                                        odi * stride.0 + kd,
                                        ohi * stride.1 + kr,
                                        owi * stride.2 + kc,
                                    ]);
                                    best = best.max(v);
                                }
                            }
                        }
                        out.set(&[ch, odi, ohi, owi], best);
                    }
                }
            }
        }
        out
    }

    /// Global spatio-temporal average pooling `[M, D, H, W] -> [M]`,
    /// accumulating at full precision before the final division.
    ///
    /// The division rounds to nearest with [`div_round_nearest`] — the
    /// same add-half-then-floor rule as `MacAccumulator::finish` — not
    /// Rust's `/`, which truncates toward zero and would bias every
    /// negative pooled activation low by up to one ULP (e.g. a channel
    /// summing to `-3` over 4 positions must pool to `-1/256`, not `0`).
    pub fn global_avg_pool(t: &FixedTensor) -> Vec<Fixed16> {
        let s = t.shape();
        assert_eq!(s.rank(), 4, "expected [M, D, H, W]");
        let (m, vol) = (s.dim(0), s.len() / s.dim(0));
        (0..m)
            .map(|ch| {
                let sum: i64 = t.data()[ch * vol..(ch + 1) * vol]
                    .iter()
                    .map(|x| x.to_bits() as i64)
                    .sum();
                let avg = div_round_nearest(sum, vol as i64);
                Fixed16::from_bits(avg.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
            })
            .collect()
    }

    /// Fully-connected layer `logits = W x + b` with wide accumulation.
    pub fn linear(
        x: &[Fixed16],
        weight: &FixedTensor, // [out, in]
        bias: &[Fixed16],
    ) -> Vec<Fixed16> {
        let s = weight.shape();
        assert_eq!(s.rank(), 2, "expected [out, in] weight");
        let (out_f, in_f) = (s.dim(0), s.dim(1));
        assert_eq!(x.len(), in_f, "input length mismatch");
        assert_eq!(bias.len(), out_f, "bias length mismatch");
        (0..out_f)
            .map(|o| {
                let mut acc = p3d_tensor::fixed::MacAccumulator::from_fixed(bias[o]);
                for i in 0..in_f {
                    acc.mac(weight.data()[o * in_f + i], x[i]);
                }
                acc.finish()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_tensor::{Tensor, TensorRng};

    fn fx(v: f32) -> Fixed16 {
        Fixed16::from_f32(v)
    }

    #[test]
    fn bias_per_channel() {
        let mut t = FixedTensor::quantize(&Tensor::zeros([2, 1, 1, 2]));
        PostProcessor::bias(&mut t, &[fx(1.0), fx(-0.5)]);
        assert_eq!(t.get(&[0, 0, 0, 1]), fx(1.0));
        assert_eq!(t.get(&[1, 0, 0, 0]), fx(-0.5));
    }

    #[test]
    fn batch_norm_scale_shift() {
        let mut t = FixedTensor::quantize(&Tensor::full([1, 1, 1, 2], 2.0));
        PostProcessor::batch_norm(&mut t, &[fx(0.5)], &[fx(0.25)]);
        assert_eq!(t.get(&[0, 0, 0, 0]), fx(1.25));
    }

    #[test]
    fn shortcut_and_relu() {
        let mut t = FixedTensor::quantize(&Tensor::from_vec([1, 1, 1, 2], vec![-2.0, 1.0]));
        let sc = FixedTensor::quantize(&Tensor::from_vec([1, 1, 1, 2], vec![0.5, 0.5]));
        PostProcessor::shortcut_add(&mut t, &sc);
        PostProcessor::relu(&mut t);
        assert_eq!(t.get(&[0, 0, 0, 0]), fx(0.0));
        assert_eq!(t.get(&[0, 0, 0, 1]), fx(1.5));
    }

    #[test]
    fn max_pool_matches_reference() {
        let t = FixedTensor::quantize(&Tensor::from_vec(
            [1, 1, 2, 4],
            vec![1., 5., 2., 3., 4., 0., -1., 7.],
        ));
        let out = PostProcessor::max_pool(&t, (1, 2, 2), (1, 2, 2));
        assert_eq!(out.shape().dims(), &[1, 1, 1, 2]);
        assert_eq!(out.get(&[0, 0, 0, 0]), fx(5.0));
        assert_eq!(out.get(&[0, 0, 0, 1]), fx(7.0));
    }

    #[test]
    fn global_avg_pool_full_precision() {
        // 256 values of 1/256 average exactly to 1/256 despite each being
        // one ULP.
        let t = FixedTensor::quantize(&Tensor::full([1, 4, 8, 8], 1.0 / 256.0));
        let avg = PostProcessor::global_avg_pool(&t);
        assert_eq!(avg[0], fx(1.0 / 256.0));
    }

    #[test]
    fn global_avg_pool_rounds_to_nearest_not_toward_zero() {
        // A negative channel summing to -3 raw ULPs over 4 positions:
        // exact average -0.75 ULP. Truncation toward zero (the old bug)
        // gave 0; round-to-nearest must give -1 ULP.
        let mut t = FixedTensor::zeros([1, 1, 2, 2]);
        t.data_mut()[0] = Fixed16::from_bits(-3);
        let avg = PostProcessor::global_avg_pool(&t);
        assert_eq!(
            avg[0].to_bits(),
            -1,
            "negative average truncated toward zero"
        );

        // Positive mirror: +3/4 ULP rounds up to 1 ULP (unchanged by the
        // fix — truncation only biased the negative side).
        let mut t = FixedTensor::zeros([1, 1, 2, 2]);
        t.data_mut()[0] = Fixed16::from_bits(3);
        assert_eq!(PostProcessor::global_avg_pool(&t)[0].to_bits(), 1);

        // Ties use finish()'s rule: round toward +infinity on both signs.
        let mut t = FixedTensor::zeros([2, 1, 2, 1]);
        t.data_mut()[0] = Fixed16::from_bits(1); // +1/2 -> 1
        t.data_mut()[2] = Fixed16::from_bits(-1); // -1/2 -> 0
        let avg = PostProcessor::global_avg_pool(&t);
        assert_eq!((avg[0].to_bits(), avg[1].to_bits()), (1, 0));
    }

    #[test]
    fn global_avg_pool_matches_exact_i64_reference() {
        // Random channels against an exact i64 reference: the pooled
        // value must be the representable Q7.8 number nearest the true
        // rational average (ties toward +inf), for every sign pattern.
        let mut rng = TensorRng::seed(31);
        let t = FixedTensor::quantize(&rng.uniform_tensor([8, 3, 5, 7], -2.0, 2.0));
        let s = t.shape();
        let vol = (s.len() / s.dim(0)) as i64;
        let avg = PostProcessor::global_avg_pool(&t);
        for (ch, &got) in avg.iter().enumerate() {
            let sum: i64 = t.data()[ch * vol as usize..(ch + 1) * vol as usize]
                .iter()
                .map(|x| x.to_bits() as i64)
                .sum();
            // Exact nearest integer to sum/vol with ties toward +inf:
            // floor((2*sum + vol) / (2*vol)) evaluated in i64.
            let expect = (2 * sum + vol).div_euclid(2 * vol);
            assert_eq!(
                got.to_bits() as i64,
                expect,
                "channel {ch}: sum {sum} over {vol}"
            );
            // And the defect bound: |vol*got - sum| <= vol/2.
            let err2 = (2 * (vol * got.to_bits() as i64 - sum)).abs();
            assert!(err2 <= vol, "channel {ch} not nearest");
        }
    }

    #[test]
    fn linear_known_values() {
        let w = FixedTensor::quantize(&Tensor::from_vec([2, 3], vec![1., 0., -1., 2., 1., 0.]));
        let x = [fx(1.0), fx(2.0), fx(3.0)];
        let out = PostProcessor::linear(&x, &w, &[fx(0.5), fx(-0.5)]);
        assert_eq!(out[0], fx(-1.5));
        assert_eq!(out[1], fx(3.5));
    }

    #[test]
    fn linear_matches_f32_within_quantization() {
        let mut rng = TensorRng::seed(9);
        let w = rng.uniform_tensor([4, 16], -0.5, 0.5);
        let x = rng.uniform_tensor([16], -1.0, 1.0);
        let qw = FixedTensor::quantize(&w);
        let qx: Vec<Fixed16> = x.data().iter().map(|&v| Fixed16::from_f32(v)).collect();
        let out = PostProcessor::linear(&qx, &qw, &[fx(0.0); 4]);
        for o in 0..4 {
            let reference: f32 = (0..16).map(|i| w.get(&[o, i]) * x.data()[i]).sum();
            assert!((out[o].to_f32() - reference).abs() < 0.05);
        }
    }
}
