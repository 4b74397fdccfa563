//! Winograd fast convolution, `F(2x2, 3x3)`.
//!
//! The strongest FPGA baselines the paper compares against in Table IV
//! (VC709/VUS440, Shen et al. \[18\]) are Winograd designs: they spend
//! 36 multiplications of a direct `3x3` convolution as 16, a 2.25x
//! arithmetic reduction, which is how they reach 430–785 GOPS where the
//! paper's direct MAC array reaches 47–112. This module implements the
//! transform functionally (validating correctness against direct
//! convolution) and extends the latency model so the trade-off against
//! blockwise pruning can be quantified (`ablation_winograd`).
//!
//! Only the `1x3x3`, stride-1 spatial convolutions are eligible —
//! exactly the restriction the paper's related-work section points out
//! for R(2+1)D's irregular kernels.

use crate::config::AcceleratorConfig;
use crate::latency::{conv_latency, DoubleBuffering, LayerLatency, NetworkLatency};
use p3d_core::PrunedModel;
use p3d_models::{ConvInstance, NetworkSpec};
use p3d_tensor::{Shape, Tensor};

/// Filter transform `U = G g G^T` for one `3x3` kernel.
///
/// `G` is the `4x3` Winograd filter-transform matrix of `F(2, 3)`.
pub fn transform_filter(g: &[f32; 9]) -> [f32; 16] {
    // G = [1, 0, 0; 1/2, 1/2, 1/2; 1/2, -1/2, 1/2; 0, 0, 1]
    let mut tmp = [0f32; 12]; // G g : 4x3
    for col in 0..3 {
        let (g0, g1, g2) = (g[col], g[3 + col], g[6 + col]);
        tmp[col] = g0;
        tmp[3 + col] = 0.5 * (g0 + g1 + g2);
        tmp[6 + col] = 0.5 * (g0 - g1 + g2);
        tmp[9 + col] = g2;
    }
    let mut out = [0f32; 16]; // (G g) G^T : 4x4
    for row in 0..4 {
        let (t0, t1, t2) = (tmp[row * 3], tmp[row * 3 + 1], tmp[row * 3 + 2]);
        out[row * 4] = t0;
        out[row * 4 + 1] = 0.5 * (t0 + t1 + t2);
        out[row * 4 + 2] = 0.5 * (t0 - t1 + t2);
        out[row * 4 + 3] = t2;
    }
    out
}

/// Input transform `V = B^T d B` for one `4x4` tile.
pub fn transform_input(d: &[f32; 16]) -> [f32; 16] {
    // B^T = [1,0,-1,0; 0,1,1,0; 0,-1,1,0; 0,1,0,-1]
    let mut tmp = [0f32; 16]; // B^T d
    for col in 0..4 {
        let (d0, d1, d2, d3) = (d[col], d[4 + col], d[8 + col], d[12 + col]);
        tmp[col] = d0 - d2;
        tmp[4 + col] = d1 + d2;
        tmp[8 + col] = d2 - d1;
        tmp[12 + col] = d1 - d3;
    }
    let mut out = [0f32; 16]; // (B^T d) B
    for row in 0..4 {
        let (t0, t1, t2, t3) = (
            tmp[row * 4],
            tmp[row * 4 + 1],
            tmp[row * 4 + 2],
            tmp[row * 4 + 3],
        );
        out[row * 4] = t0 - t2;
        out[row * 4 + 1] = t1 + t2;
        out[row * 4 + 2] = t2 - t1;
        out[row * 4 + 3] = t1 - t3;
    }
    out
}

/// Output transform `Y = A^T m A`: `4x4` element products to the `2x2`
/// output tile.
pub fn transform_output(m: &[f32; 16]) -> [f32; 4] {
    // A^T = [1,1,1,0; 0,1,-1,-1]
    let mut tmp = [0f32; 8]; // A^T m : 2x4
    for col in 0..4 {
        let (m0, m1, m2, m3) = (m[col], m[4 + col], m[8 + col], m[12 + col]);
        tmp[col] = m0 + m1 + m2;
        tmp[4 + col] = m1 - m2 - m3;
    }
    [
        tmp[0] + tmp[1] + tmp[2],
        tmp[1] - tmp[2] - tmp[3],
        tmp[4] + tmp[5] + tmp[6],
        tmp[5] - tmp[6] - tmp[7],
    ]
}

/// 2D Winograd convolution of a `[N, H, W]` volume with `[M, N, 3, 3]`
/// filters, stride 1, padding 1 (same-size output `[M, H, W]`).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn winograd_conv2d(input: &Tensor, weights: &Tensor) -> Tensor {
    let si = input.shape();
    let sw = weights.shape();
    assert_eq!(si.rank(), 3, "input must be [N, H, W]");
    assert_eq!(sw.rank(), 4, "weights must be [M, N, 3, 3]");
    assert_eq!(sw.dim(2), 3, "kernel must be 3x3");
    assert_eq!(sw.dim(3), 3, "kernel must be 3x3");
    let (n, h, w) = (si.dim(0), si.dim(1), si.dim(2));
    let m = sw.dim(0);
    assert_eq!(sw.dim(1), n, "channel mismatch");

    // Pre-transform all filters: U[m][n] 4x4.
    let mut u = vec![[0f32; 16]; m * n];
    for mi in 0..m {
        for ni in 0..n {
            let base = (mi * n + ni) * 9;
            let mut g = [0f32; 9];
            g.copy_from_slice(&weights.data()[base..base + 9]);
            u[mi * n + ni] = transform_filter(&g);
        }
    }

    let tiles_h = h.div_ceil(2);
    let tiles_w = w.div_ceil(2);
    let mut out = Tensor::zeros(Shape::d3(m, h, w));
    let read = |ni: usize, y: isize, x: isize| -> f32 {
        if y < 0 || x < 0 || y as usize >= h || x as usize >= w {
            0.0
        } else {
            input.data()[ni * h * w + y as usize * w + x as usize]
        }
    };

    for th in 0..tiles_h {
        for tw in 0..tiles_w {
            let y0 = th as isize * 2 - 1; // pad 1
            let x0 = tw as isize * 2 - 1;
            // Per-channel input transforms for this tile.
            let mut v = vec![[0f32; 16]; n];
            for (ni, vt) in v.iter_mut().enumerate() {
                let mut d = [0f32; 16];
                for dy in 0..4 {
                    for dx in 0..4 {
                        d[dy * 4 + dx] = read(ni, y0 + dy as isize, x0 + dx as isize);
                    }
                }
                *vt = transform_input(&d);
            }
            for mi in 0..m {
                // Elementwise multiply-accumulate in the Winograd domain.
                let mut acc = [0f32; 16];
                for (ni, vt) in v.iter().enumerate() {
                    let uf = &u[mi * n + ni];
                    for k in 0..16 {
                        acc[k] += uf[k] * vt[k];
                    }
                }
                let y = transform_output(&acc);
                for dy in 0..2 {
                    for dx in 0..2 {
                        let oy = th * 2 + dy;
                        let ox = tw * 2 + dx;
                        if oy < h && ox < w {
                            out.data_mut()[mi * h * w + oy * w + ox] = y[dy * 2 + dx];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Whether a layer can run on the Winograd engine: `1x3x3` kernel,
/// unit stride.
pub fn winograd_eligible(inst: &ConvInstance) -> bool {
    inst.spec.kernel == (1, 3, 3) && inst.spec.stride == (1, 1, 1)
}

/// The multiplication-reduction factor of `F(2x2, 3x3)`: 16 generic
/// multiplies replace 36.
pub const WINOGRAD_MUL_RATIO: f64 = 16.0 / 36.0;

/// Network latency on a hypothetical Winograd-enhanced variant of the
/// accelerator: eligible layers' compute terms shrink by
/// [`WINOGRAD_MUL_RATIO`] (the same MAC array evaluates the Winograd-
/// domain products); ineligible layers run on the direct engine.
///
/// Transforms are assumed overlapped with the products (as in \[18\]); the
/// result is therefore an *optimistic* bound for the Winograd variant,
/// which only strengthens the comparison when pruning still wins.
pub fn winograd_network_latency(
    spec: &NetworkSpec,
    config: &AcceleratorConfig,
    pruned: &PrunedModel,
) -> NetworkLatency {
    let mut base = crate::latency::network_latency(spec, config, pruned, DoubleBuffering::On);
    let instances = spec.conv_instances().expect("spec must shape-check");
    let mut total: u64 = base.fc_cycles;
    let new_layers: Vec<LayerLatency> = instances
        .iter()
        .zip(base.layers.iter())
        .map(|(inst, layer)| {
            let mut l = layer.clone();
            if winograd_eligible(inst) {
                // Recompute with t_comp scaled: approximate by scaling the
                // whole compute-bound layer when compute dominates.
                let scaled = conv_latency(inst, config, pruned.mask(&inst.spec.name), DoubleBuffering::On);
                let (t_wgt, t_in, t_comp, _) = scaled.terms;
                let t_comp_w = (t_comp as f64 * WINOGRAD_MUL_RATIO).ceil() as u64;
                // New bottleneck per iteration.
                let old_l3 = t_wgt.max(t_in).max(t_comp);
                let new_l3 = t_wgt.max(t_in).max(t_comp_w);
                // Scale the layer's cycles by the L3 ratio (compute terms
                // dominate eligible layers; transfer-bound rows are
                // unchanged by construction of the max).
                l.cycles = (l.cycles as f64 * new_l3 as f64 / old_l3.max(1) as f64) as u64;
            }
            total += l.cycles;
            l
        })
        .collect();
    base.layers = new_layers;
    base.total_cycles = total;
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_tensor::TensorRng;

    /// Direct 3x3 convolution reference, stride 1, pad 1.
    fn direct(input: &Tensor, weights: &Tensor) -> Tensor {
        let (n, h, w) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
        );
        let m = weights.shape().dim(0);
        let mut out = Tensor::zeros([m, h, w]);
        for mi in 0..m {
            for y in 0..h as isize {
                for x in 0..w as isize {
                    let mut acc = 0f32;
                    for ni in 0..n {
                        for ky in -1..=1isize {
                            for kx in -1..=1isize {
                                let (sy, sx) = (y + ky, x + kx);
                                if sy < 0 || sx < 0 || sy >= h as isize || sx >= w as isize {
                                    continue;
                                }
                                acc += input.get(&[ni, sy as usize, sx as usize])
                                    * weights.get(&[
                                        mi,
                                        ni,
                                        (ky + 1) as usize,
                                        (kx + 1) as usize,
                                    ]);
                            }
                        }
                    }
                    out.set(&[mi, y as usize, x as usize], acc);
                }
            }
        }
        out
    }

    #[test]
    fn transforms_are_linear() {
        let mut rng = TensorRng::seed(16);
        let mut g1 = [0f32; 9];
        let mut g2 = [0f32; 9];
        for i in 0..9 {
            g1[i] = rng.uniform(-1.0, 1.0);
            g2[i] = rng.uniform(-1.0, 1.0);
        }
        let mut sum = [0f32; 9];
        for i in 0..9 {
            sum[i] = 2.0 * g1[i] - 3.0 * g2[i];
        }
        let (u1, u2, us) = (transform_filter(&g1), transform_filter(&g2), transform_filter(&sum));
        for i in 0..16 {
            assert!((us[i] - (2.0 * u1[i] - 3.0 * u2[i])).abs() < 1e-5);
        }
    }

    #[test]
    fn matches_direct_convolution() {
        let mut rng = TensorRng::seed(17);
        let input = rng.uniform_tensor([3, 8, 8], -1.0, 1.0);
        let weights = rng.uniform_tensor([4, 3, 3, 3], -0.5, 0.5);
        let fast = winograd_conv2d(&input, &weights);
        let slow = direct(&input, &weights);
        assert!(
            fast.allclose(&slow, 1e-4),
            "winograd diverges from direct conv"
        );
    }

    #[test]
    fn matches_direct_on_odd_sizes() {
        // Odd spatial extent exercises the partial final tiles.
        let mut rng = TensorRng::seed(18);
        let input = rng.uniform_tensor([2, 7, 9], -1.0, 1.0);
        let weights = rng.uniform_tensor([3, 2, 3, 3], -0.5, 0.5);
        let fast = winograd_conv2d(&input, &weights);
        let slow = direct(&input, &weights);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn delta_kernel_is_identity() {
        let mut rng = TensorRng::seed(19);
        let input = rng.uniform_tensor([1, 6, 6], -1.0, 1.0);
        let mut weights = Tensor::zeros([1, 1, 3, 3]);
        weights.set(&[0, 0, 1, 1], 1.0);
        let out = winograd_conv2d(&input, &weights);
        assert!(out.allclose(&input, 1e-5));
    }

    #[test]
    fn eligibility_rules() {
        let spec = p3d_models::r2plus1d::r2plus1d_18(101);
        let insts = spec.conv_instances().unwrap();
        let spatial = insts.iter().find(|i| i.spec.name == "conv2_1a.spatial").unwrap();
        let temporal = insts.iter().find(|i| i.spec.name == "conv2_1a.temporal").unwrap();
        let stem = insts.iter().find(|i| i.spec.name == "conv1.spatial").unwrap();
        let strided = insts.iter().find(|i| i.spec.name == "conv3_1a.spatial").unwrap();
        assert!(winograd_eligible(spatial));
        assert!(!winograd_eligible(temporal), "Kx1x1 is not Winograd-able");
        assert!(!winograd_eligible(stem), "7x7 stride-2 stem is not eligible");
        assert!(!winograd_eligible(strided), "strided spatial conv not eligible");
    }

    #[test]
    fn winograd_latency_helps_dense_more_than_pruned() {
        // Winograd cuts compute on eligible layers; pruning already
        // removed most of that compute, so the relative gain shrinks —
        // the complementarity argument of the ablation.
        let spec = p3d_models::r2plus1d::r2plus1d_18(101);
        let cfg = AcceleratorConfig::paper_tn8();
        let dense = PrunedModel::dense();
        let base = crate::latency::network_latency(&spec, &cfg, &dense, DoubleBuffering::On);
        let wino = winograd_network_latency(&spec, &cfg, &dense);
        assert!(wino.total_cycles < base.total_cycles);
        let gain_dense = base.total_cycles as f64 / wino.total_cycles as f64;
        assert!(gain_dense > 1.2, "gain {gain_dense}");
    }
}
