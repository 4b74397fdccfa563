//! The **cycle-approximate** tiled convolution engine (Algorithm 2)
//! with block-enable skipping.
//!
//! This engine walks the exact tile loop nest of the hardware — volume
//! tiles, output-channel blocks, input-channel blocks — accumulating
//! per-tile cycle terms alongside the arithmetic, which makes it the
//! reference for latency-model validation (`sim_cycles_match_latency_model`).
//! Serving goes through [`crate::sim::functional`] instead: the same
//! Q7.8 arithmetic with the tile walk stripped out and the inner loops
//! vectorized, proven **bitwise identical** to this engine (both paths
//! accumulate every contribution of an output element exactly in a wide
//! integer register before a single round-and-saturate, and exact
//! integer addition is order-independent).

use crate::config::AcceleratorConfig;
use crate::latency::tile_terms;
use p3d_core::LayerBlockMask;
use p3d_models::ConvInstance;
use p3d_tensor::fixed::MacAccumulator;
use p3d_tensor::{FixedTensor, Shape};
use serde::{Deserialize, Serialize};

/// Execution statistics of one simulated convolution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvStats {
    /// Cycles charged by Eqs. 23–25. The cycle engine accumulates them
    /// from the loop structure it executes (an independent
    /// reconstruction of the model); the compiled functional engine
    /// reads them from the latency model's analytic walk.
    pub cycles: u64,
    /// MACs actually executed (skipped blocks execute none).
    pub macs: u64,
    /// Weight blocks skipped by the block-enable signal.
    pub blocks_skipped: u64,
    /// Words loaded into the weight buffer.
    pub weight_words: u64,
    /// Words loaded into the input buffer.
    pub input_words: u64,
    /// Words stored from the output buffer.
    pub output_words: u64,
    /// Output words whose wide accumulator clipped at a Q7.8 rail
    /// (`Fixed16::MAX`/`MIN`) when quantised back — the accelerator's
    /// saturation-anomaly signal. A healthy clip rails (almost) nowhere;
    /// a rate above a few percent means the fixed-point datapath is
    /// destroying information and the serving layer should degrade to
    /// the f32 backend for that clip.
    pub saturated_words: u64,
}

impl ConvStats {
    /// Fraction of stored output words that saturated (`0.0` when no
    /// words were stored).
    pub fn saturation_rate(&self) -> f64 {
        if self.output_words == 0 {
            0.0
        } else {
            self.saturated_words as f64 / self.output_words as f64
        }
    }
}

/// Runs one convolution layer through the tiled engine.
///
/// * `weights` — `[M, N, Kd, Kr, Kc]` in Q7.8,
/// * `input` — `[N, Di, Hi, Wi]` in Q7.8 (one clip; the engine is
///   batch-less like the hardware),
/// * `mask` — optional block-enable map; disabled blocks are neither
///   loaded nor computed (Fig. 2),
/// * returns the `[M, Do, Ho, Wo]` output **accumulators quantised to
///   Q7.8** plus statistics.
///
/// Allocates a fresh tile-accumulator scratch; batch loops that run many
/// clips should use [`run_conv_with_scratch`] to reuse one.
///
/// # Panics
///
/// Panics on any shape mismatch between `inst`, `weights` and `input`.
pub fn run_conv(
    inst: &ConvInstance,
    weights: &FixedTensor,
    input: &FixedTensor,
    mask: Option<&LayerBlockMask>,
    config: &AcceleratorConfig,
) -> (FixedTensor, ConvStats) {
    let mut scratch = Vec::new();
    run_conv_with_scratch(inst, weights, input, mask, config, &mut scratch)
}

/// [`run_conv`] with a caller-owned tile-accumulator scratch.
///
/// The engine previously allocated one `Vec<MacAccumulator>` per (volume
/// tile x output-channel block) — for a whole-network forward that is
/// thousands of short-lived heap allocations per clip, and the dominant
/// allocator churn of the batched sim backend. Passing `scratch` lets
/// every tile of every layer of every clip reuse one buffer: the vector
/// is cleared and refilled with `MacAccumulator::new()` per tile, so the
/// arithmetic (and therefore the output) is bitwise identical to the
/// allocating path.
pub fn run_conv_with_scratch(
    inst: &ConvInstance,
    weights: &FixedTensor,
    input: &FixedTensor,
    mask: Option<&LayerBlockMask>,
    config: &AcceleratorConfig,
    scratch: &mut Vec<MacAccumulator>,
) -> (FixedTensor, ConvStats) {
    let (n_ch, di, hi, wi) = inst.input;
    let (m_ch, od, oh, ow) = inst.output;
    let (kd, kr, kc) = inst.spec.kernel;
    let (sd, sr, sc) = inst.spec.stride;
    let (pd, pr, pc) = inst.spec.pad;
    assert_eq!(
        weights.shape().dims(),
        &[m_ch, n_ch, kd, kr, kc],
        "weight shape mismatch for {}",
        inst.spec.name
    );
    assert_eq!(
        input.shape().dims(),
        &[n_ch, di, hi, wi],
        "input shape mismatch for {}",
        inst.spec.name
    );

    let t = &config.tiling;
    let rows = m_ch.div_ceil(t.tm);
    let cols = n_ch.div_ceil(t.tn);
    if let Some(mask) = mask {
        assert_eq!(
            (mask.grid.rows(), mask.grid.cols()),
            (rows, cols),
            "mask grid mismatch for {}",
            inst.spec.name
        );
    }

    let w_data = weights.data();
    let i_data = input.data();
    let mut out = FixedTensor::zeros(Shape::d4(m_ch, od, oh, ow));
    let mut stats = ConvStats::default();
    let mut last_t_out = 0u64;

    // Loop nest of Algorithm 2: output-volume tiles, then output-channel
    // blocks, then input-channel blocks.
    for d0 in (0..od).step_by(t.td) {
        for r0 in (0..oh).step_by(t.tr) {
            for c0 in (0..ow).step_by(t.tc) {
                let d1 = (d0 + t.td).min(od);
                let r1 = (r0 + t.tr).min(oh);
                let c1 = (c0 + t.tc).min(ow);
                let (t_wgt, t_in, t_comp, t_out) =
                    tile_terms(inst, t, &config.ports, (d1 - d0, r1 - r0, c1 - c0));
                for bi in 0..rows {
                    let m0 = bi * t.tm;
                    let m1 = (m0 + t.tm).min(m_ch);
                    // One wide accumulator per output element of the tile
                    // (the DSP accumulation register + adder tree).
                    let tile_len = (m1 - m0) * (d1 - d0) * (r1 - r0) * (c1 - c0);
                    scratch.clear();
                    scratch.resize(tile_len, MacAccumulator::new());
                    let acc = &mut *scratch;
                    let mut enabled_blocks = 0u64;

                    for bj in 0..cols {
                        let enabled = mask.map(|m| m.is_enabled(bi, bj)).unwrap_or(true);
                        if !enabled {
                            stats.blocks_skipped += 1;
                            continue; // skip load AND compute (Fig. 2)
                        }
                        enabled_blocks += 1;
                        let n0 = bj * t.tn;
                        let n1 = (n0 + t.tn).min(n_ch);
                        stats.weight_words += ((m1 - m0) * (n1 - n0) * kd * kr * kc) as u64;
                        // The MAC array executes every kernel tap for
                        // every output position (padding taps multiply
                        // zeros); count them all, like t_comp does.
                        stats.macs += ((m1 - m0)
                            * (n1 - n0)
                            * kd
                            * kr
                            * kc
                            * (d1 - d0)
                            * (r1 - r0)
                            * (c1 - c0)) as u64;
                        // Input tile covers the receptive field of the
                        // output tile.
                        stats.input_words += ((n1 - n0)
                            * ((d1 - d0 - 1) * sd + kd)
                            * ((r1 - r0 - 1) * sr + kr)
                            * ((c1 - c0 - 1) * sc + kc))
                            as u64;

                        // Compute(): the MAC array.
                        let mut ai = 0usize;
                        for m in m0..m1 {
                            let w_m = m * n_ch;
                            for d in d0..d1 {
                                for r in r0..r1 {
                                    for c in c0..c1 {
                                        let a = &mut acc[ai];
                                        ai += 1;
                                        for n in n0..n1 {
                                            let w_base = (w_m + n) * kd * kr * kc;
                                            let i_base = n * di * hi * wi;
                                            for kdi in 0..kd {
                                                let dz = (d * sd + kdi) as isize - pd as isize;
                                                if dz < 0 || dz as usize >= di {
                                                    continue;
                                                }
                                                for kri in 0..kr {
                                                    let hz = (r * sr + kri) as isize - pr as isize;
                                                    if hz < 0 || hz as usize >= hi {
                                                        continue;
                                                    }
                                                    let i_row = i_base
                                                        + dz as usize * hi * wi
                                                        + hz as usize * wi;
                                                    let w_row = w_base + (kdi * kr + kri) * kc;
                                                    for kci in 0..kc {
                                                        let wz =
                                                            (c * sc + kci) as isize - pc as isize;
                                                        if wz < 0 || wz as usize >= wi {
                                                            continue;
                                                        }
                                                        a.mac(
                                                            w_data[w_row + kci],
                                                            i_data[i_row + wz as usize],
                                                        );
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }

                    // Store O_buf (post-processing happens downstream).
                    let mut ai = 0usize;
                    for m in m0..m1 {
                        for d in d0..d1 {
                            for r in r0..r1 {
                                for c in c0..c1 {
                                    let a = acc[ai];
                                    if a.saturates() {
                                        stats.saturated_words += 1;
                                    }
                                    out.set(&[m, d, r, c], a.finish());
                                    ai += 1;
                                }
                            }
                        }
                    }
                    stats.output_words += tile_len as u64;

                    // Cycle accounting mirroring Eq. 24 from the observed
                    // enabled-block count.
                    let t_l3 = t_wgt.max(t_in).max(t_comp);
                    stats.cycles += if enabled_blocks == 0 {
                        t_out
                    } else {
                        (t_l3 * enabled_blocks + t_comp).max(t_out)
                    };
                    last_t_out = t_out;
                }
            }
        }
    }
    stats.cycles += last_t_out; // Eq. 25: final non-overlapped store.
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{conv_latency, DoubleBuffering};
    use p3d_core::{BlockGrid, BlockShape, LayerBlockMask};
    use p3d_models::{Conv3dSpec, ConvInstance};
    use p3d_tensor::{Fixed16, Tensor, TensorRng};

    fn small_inst() -> ConvInstance {
        ConvInstance {
            spec: Conv3dSpec {
                name: "t".into(),
                stage: "s".into(),
                out_channels: 4,
                in_channels: 6,
                kernel: (1, 3, 3),
                stride: (1, 1, 1),
                pad: (0, 1, 1),
                bias: false,
            },
            input: (6, 2, 8, 8),
            output: (4, 2, 8, 8),
        }
    }

    fn small_cfg() -> AcceleratorConfig {
        AcceleratorConfig {
            tiling: crate::config::Tiling::new(2, 2, 2, 4, 4),
            ports: crate::config::Ports::new(2, 2, 2),
            freq_mhz: 150.0,
            data_bits: 16,
        }
    }

    /// f32 reference convolution for the same geometry.
    fn reference(inst: &ConvInstance, w: &Tensor, x: &Tensor) -> Tensor {
        let (n_ch, di, hi, wi) = inst.input;
        let (m_ch, od, oh, ow) = inst.output;
        let (kd, kr, kc) = inst.spec.kernel;
        let (sd, sr, sc) = inst.spec.stride;
        let (pd, pr, pc) = inst.spec.pad;
        let mut out = Tensor::zeros([m_ch, od, oh, ow]);
        for m in 0..m_ch {
            for d in 0..od {
                for r in 0..oh {
                    for c in 0..ow {
                        let mut acc = 0.0f32;
                        for n in 0..n_ch {
                            for kdi in 0..kd {
                                let dz = (d * sd + kdi) as isize - pd as isize;
                                if dz < 0 || dz as usize >= di {
                                    continue;
                                }
                                for kri in 0..kr {
                                    let hz = (r * sr + kri) as isize - pr as isize;
                                    if hz < 0 || hz as usize >= hi {
                                        continue;
                                    }
                                    for kci in 0..kc {
                                        let wz = (c * sc + kci) as isize - pc as isize;
                                        if wz < 0 || wz as usize >= wi {
                                            continue;
                                        }
                                        acc += w.get(&[m, n, kdi, kri, kci])
                                            * x.get(&[n, dz as usize, hz as usize, wz as usize]);
                                    }
                                }
                            }
                        }
                        out.set(&[m, d, r, c], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn matches_f32_reference_within_quantization() {
        let inst = small_inst();
        let mut rng = TensorRng::seed(1);
        let w = rng.uniform_tensor([4, 6, 1, 3, 3], -0.3, 0.3);
        let x = rng.uniform_tensor([6, 2, 8, 8], 0.0, 1.0);
        let (out, stats) = run_conv(
            &inst,
            &FixedTensor::quantize(&w),
            &FixedTensor::quantize(&x),
            None,
            &small_cfg(),
        );
        let reference = reference(&inst, &w, &x);
        // Error budget: input+weight quantisation propagates through
        // n*k^2 = 54 MACs; each operand error <= 1/512.
        let out_f = out.dequantize();
        let max_err = out_f
            .data()
            .iter()
            .zip(reference.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.06, "max error {max_err}");
        assert_eq!(stats.macs, inst.macs() as u64);
        assert_eq!(stats.blocks_skipped, 0);
    }

    #[test]
    fn block_skipping_is_lossless_on_pruned_weights() {
        // Zero an entire weight block, then simulate (a) densely and
        // (b) with the block disabled: identical outputs, fewer MACs.
        let inst = small_inst();
        let mut rng = TensorRng::seed(2);
        let mut w = rng.uniform_tensor([4, 6, 1, 3, 3], -0.3, 0.3);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(2, 2));
        grid.zero_block(&mut w, 0, 1);
        grid.zero_block(&mut w, 1, 2);
        let mut keep = vec![true; grid.num_blocks()];
        keep[grid.block_index(0, 1)] = false;
        keep[grid.block_index(1, 2)] = false;
        let mask = LayerBlockMask::new(grid, keep);

        let x = rng.uniform_tensor([6, 2, 8, 8], 0.0, 1.0);
        let qw = FixedTensor::quantize(&w);
        let qx = FixedTensor::quantize(&x);
        let (dense, s_dense) = run_conv(&inst, &qw, &qx, None, &small_cfg());
        let (sparse, s_sparse) = run_conv(&inst, &qw, &qx, Some(&mask), &small_cfg());
        assert_eq!(dense, sparse, "skipping zero blocks changed the output");
        assert!(s_sparse.macs < s_dense.macs);
        assert!(s_sparse.cycles < s_dense.cycles);
        assert!(s_sparse.weight_words < s_dense.weight_words);
        assert_eq!(s_sparse.blocks_skipped, 2 * 4); // 2 blocks x 4 volume tiles... spatial tiles
    }

    #[test]
    fn sim_cycles_match_latency_model() {
        let inst = small_inst();
        let mut rng = TensorRng::seed(3);
        let w = rng.uniform_tensor([4, 6, 1, 3, 3], -0.3, 0.3);
        let x = rng.uniform_tensor([6, 2, 8, 8], 0.0, 1.0);
        let cfg = small_cfg();
        let (_, stats) = run_conv(
            &inst,
            &FixedTensor::quantize(&w),
            &FixedTensor::quantize(&x),
            None,
            &cfg,
        );
        let model = conv_latency(&inst, &cfg, None, DoubleBuffering::On);
        assert_eq!(stats.cycles, model.cycles);
    }

    #[test]
    fn sim_cycles_match_latency_model_with_mask() {
        let inst = small_inst();
        let grid = BlockGrid::new(4, 6, 9, BlockShape::new(2, 2));
        let keep: Vec<bool> = (0..grid.num_blocks()).map(|i| i % 2 == 0).collect();
        let mask = LayerBlockMask::new(grid, keep);
        let mut rng = TensorRng::seed(4);
        let w = rng.uniform_tensor([4, 6, 1, 3, 3], -0.3, 0.3);
        let x = rng.uniform_tensor([6, 2, 8, 8], 0.0, 1.0);
        let cfg = small_cfg();
        let (_, stats) = run_conv(
            &inst,
            &FixedTensor::quantize(&w),
            &FixedTensor::quantize(&x),
            Some(&mask),
            &cfg,
        );
        let model = conv_latency(&inst, &cfg, Some(&mask), DoubleBuffering::On);
        assert_eq!(stats.cycles, model.cycles);
        assert_eq!(stats.blocks_skipped, model.blocks_skipped);
    }

    #[test]
    fn saturation_counter_flags_railed_outputs_only() {
        let inst = small_inst();
        let mut rng = TensorRng::seed(6);
        // Healthy magnitudes: nothing rails, the counter stays at zero.
        let w = rng.uniform_tensor([4, 6, 1, 3, 3], -0.3, 0.3);
        let x = rng.uniform_tensor([6, 2, 8, 8], 0.0, 1.0);
        let (_, calm) = run_conv(
            &inst,
            &FixedTensor::quantize(&w),
            &FixedTensor::quantize(&x),
            None,
            &small_cfg(),
        );
        assert_eq!(calm.saturated_words, 0);
        assert_eq!(calm.saturation_rate(), 0.0);

        // Storm magnitudes: every interior output accumulates tens of
        // products near 127*127 — far outside Q7.8 — and must be
        // counted at the rail.
        let w_big = Tensor::full([4, 6, 1, 3, 3], 100.0);
        let x_big = Tensor::full([6, 2, 8, 8], 100.0);
        let (out, storm) = run_conv(
            &inst,
            &FixedTensor::quantize(&w_big),
            &FixedTensor::quantize(&x_big),
            None,
            &small_cfg(),
        );
        assert_eq!(
            storm.saturated_words, storm.output_words,
            "every output word should rail under the storm"
        );
        assert!((storm.saturation_rate() - 1.0).abs() < 1e-12);
        assert!(out
            .data()
            .iter()
            .all(|&v| v == Fixed16::MAX || v == Fixed16::MIN));
    }

    #[test]
    fn identity_conv_in_fixed_point() {
        let inst = ConvInstance {
            spec: Conv3dSpec {
                name: "id".into(),
                stage: "s".into(),
                out_channels: 1,
                in_channels: 1,
                kernel: (1, 1, 1),
                stride: (1, 1, 1),
                pad: (0, 0, 0),
                bias: false,
            },
            input: (1, 2, 3, 3),
            output: (1, 2, 3, 3),
        };
        let mut w = FixedTensor::zeros([1, 1, 1, 1, 1]);
        w.data_mut()[0] = Fixed16::ONE;
        let mut rng = TensorRng::seed(5);
        let x = FixedTensor::quantize(&rng.uniform_tensor([1, 2, 3, 3], -1.0, 1.0));
        let (out, _) = run_conv(&inst, &w, &x, None, &small_cfg());
        assert_eq!(out.data(), x.data());
    }
}
