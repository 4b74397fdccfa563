//! The performance model of Section IV-B (Eqs. 19–25), extended with
//! block-enable awareness: pruned blocks skip their entire
//! load-and-compute iteration of loop L3, which is exactly how the
//! paper's hardware converts blockwise sparsity into wall-clock speedup.
//!
//! [`tile_walk`] is the one analytic walk of Algorithm 2's schedule.
//! Layer latency ([`conv_latency`]), off-chip traffic
//! ([`crate::bandwidth`]) and the compiled simulator's statistics
//! ([`crate::sim::CompiledConv`]) are all read from it, so they agree by
//! construction; the cycle engine, which counts what it executes, is
//! the check on it.

use crate::config::{AcceleratorConfig, Ports, Tiling};
use crate::sim::ConvStats;
use p3d_core::{LayerBlockMask, PrunedModel};
use p3d_models::{ConvInstance, NetworkSpec, Stage};
use serde::{Deserialize, Serialize};

/// Whether the design overlaps transfers with compute (Section IV-A:
/// "the double buffering technique is utilized to reduce the latency").
/// `Off` exists for the ablation bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DoubleBuffering {
    /// Transfers overlap compute: `t_L3 = max(t_wgt, t_in, t_comp)`.
    On,
    /// Fully serial: `t_L3 = t_wgt + t_in + t_comp`.
    Off,
}

/// Which term dominates `t_L3` for a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// Weight loading dominates.
    WeightLoad,
    /// Input-feature loading dominates.
    InputLoad,
    /// The MAC array dominates (the desired regime).
    Compute,
}

/// Latency breakdown of one convolution layer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerLatency {
    /// Layer name.
    pub name: String,
    /// Stage label.
    pub stage: String,
    /// Total cycles (Eq. 25, block-enable aware).
    pub cycles: u64,
    /// The `t_L3` bottleneck.
    pub bottleneck: Bottleneck,
    /// `(t_wgt, t_in, t_comp, t_out)` per-iteration cycle counts.
    pub terms: (u64, u64, u64, u64),
    /// Output-volume tiles `ceil(D/Td) * ceil(R/Tr) * ceil(C/Tc)`.
    pub spatial_tiles: u64,
    /// Weight blocks skipped thanks to pruning.
    pub blocks_skipped: u64,
    /// Weight blocks total (`ceil(M/Tm) * ceil(N/Tn)`).
    pub blocks_total: u64,
}

/// Latency of a whole network.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkLatency {
    /// Per-conv-layer breakdown in execution order.
    pub layers: Vec<LayerLatency>,
    /// Cycles spent streaming fully-connected weights (memory-bound).
    pub fc_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
}

impl NetworkLatency {
    /// Milliseconds at the configuration's clock.
    pub fn ms(&self, config: &AcceleratorConfig) -> f64 {
        config.cycles_to_ms(self.total_cycles)
    }

    /// Throughput in GOPS for a given total operation count.
    pub fn gops(&self, total_ops: f64, config: &AcceleratorConfig) -> f64 {
        total_ops / (self.ms(config) * 1e6)
    }
}

/// Words in the input tile that feeds an output tile of extents
/// `(td, tr, tc)`: the tile's receptive field, per input channel.
fn input_tile(inst: &ConvInstance, (td, tr, tc): (usize, usize, usize)) -> usize {
    let (kd, kr, kc) = inst.spec.kernel;
    let (sd, sr, sc) = inst.spec.stride;
    ((td - 1) * sd + kd) * ((tr - 1) * sr + kr) * ((tc - 1) * sc + kc)
}

/// Per-iteration cycle terms `(t_wgt, t_in, t_comp, t_out)` (Eqs. 19–22)
/// for a tile of *actual* extents `(td, tr, tc)` (edge tiles are smaller
/// than the tiling: the HLS loop bounds are runtime values, so partial
/// tiles cost partial cycles). Weight loads are tile-independent.
pub fn tile_terms(
    inst: &ConvInstance,
    tiling: &Tiling,
    ports: &Ports,
    actual: (usize, usize, usize),
) -> (u64, u64, u64, u64) {
    let (kd, kr, kc) = inst.spec.kernel;
    let (td, tr, tc) = actual;
    let t_wgt = (tiling.tm * tiling.tn * kd * kr * kc).div_ceil(ports.wgt) as u64;
    let t_in = (tiling.tn * input_tile(inst, actual)).div_ceil(ports.input) as u64;
    let t_comp = (kd * kr * kc * td * tr * tc) as u64;
    let t_out = (tiling.tm * td * tr * tc).div_ceil(ports.output) as u64;
    (t_wgt, t_in, t_comp, t_out)
}

/// The one analytic walk of Algorithm 2's schedule: output-volume tiles
/// outermost, then output-channel block rows, then the row's enabled
/// input-channel blocks. Each enabled block loads its weights and its
/// input tile and runs its MACs; a disabled block does neither; each
/// block row stores its outputs once. Cycles are charged per block row
/// by Eq. 24 under [`DoubleBuffering::On`] (plus Eq. 25's final store),
/// serially under `Off`. `saturated_words` is zero: it depends on data.
///
/// [`conv_latency`], [`crate::bandwidth::conv_traffic`] and the compiled
/// functional simulator all read their numbers from here; the cycle
/// engine ([`crate::sim::run_conv`]) counts what it executes and is the
/// independent check on this walk.
///
/// # Panics
///
/// Panics if the mask's grid does not match the layer dimensions.
pub fn tile_walk(
    inst: &ConvInstance,
    config: &AcceleratorConfig,
    mask: Option<&LayerBlockMask>,
    buffering: DoubleBuffering,
) -> ConvStats {
    let t = &config.tiling;
    let (m, n) = (inst.output.0, inst.input.0);
    let (d, r, c) = (inst.output.1, inst.output.2, inst.output.3);
    let (kd, kr, kc) = inst.spec.kernel;
    let kv = kd * kr * kc;
    let rows = m.div_ceil(t.tm);
    let cols = n.div_ceil(t.tn);
    if let Some(mask) = mask {
        assert_eq!(
            (mask.grid.rows(), mask.grid.cols()),
            (rows, cols),
            "mask grid mismatch for {}",
            inst.spec.name
        );
    }

    // Per block row: its enabled blocks and the input channels they
    // span. Every output-volume tile visits the same blocks.
    let row_blocks: Vec<(u64, usize)> = (0..rows)
        .map(|bi| {
            (0..cols)
                .filter(|&bj| mask.is_none_or(|k| k.is_enabled(bi, bj)))
                .fold((0, 0), |(blocks, chans), bj| {
                    (blocks + 1, chans + t.tn.min(n - bj * t.tn))
                })
        })
        .collect();

    let mut stats = ConvStats::default();
    let mut last_t_out = 0;
    for d0 in (0..d).step_by(t.td) {
        for r0 in (0..r).step_by(t.tr) {
            for c0 in (0..c).step_by(t.tc) {
                let actual = (t.td.min(d - d0), t.tr.min(r - r0), t.tc.min(c - c0));
                let vol = actual.0 * actual.1 * actual.2;
                let in_tile = input_tile(inst, actual);
                let (t_wgt, t_in, t_comp, t_out) = tile_terms(inst, t, &config.ports, actual);
                last_t_out = t_out;
                let t_l3 = match buffering {
                    DoubleBuffering::On => t_wgt.max(t_in).max(t_comp),
                    DoubleBuffering::Off => t_wgt + t_in + t_comp,
                };
                for (bi, &(enabled, n_on)) in row_blocks.iter().enumerate() {
                    let m_len = t.tm.min(m - bi * t.tm);
                    // Each enabled block loads its weights and its input
                    // tile and runs its MACs.
                    stats.weight_words += (m_len * n_on * kv) as u64;
                    stats.input_words += (n_on * in_tile) as u64;
                    stats.macs += (m_len * n_on * kv * vol) as u64;
                    stats.blocks_skipped += cols as u64 - enabled;
                    stats.output_words += (m_len * vol) as u64;
                    stats.cycles += match buffering {
                        DoubleBuffering::On if enabled == 0 => t_out,
                        // Eq. 24: the pipeline drains one extra t_comp,
                        // and the store must fit under the next row's work.
                        DoubleBuffering::On => (t_l3 * enabled + t_comp).max(t_out),
                        DoubleBuffering::Off => t_l3 * enabled + t_out,
                    };
                }
            }
        }
    }
    // Eq. 25: the final store is not overlapped under double buffering.
    if buffering == DoubleBuffering::On {
        stats.cycles += last_t_out;
    }
    stats
}

/// Latency of one convolution layer (Eqs. 23–25), with optional
/// block-enable mask: [`tile_walk`]'s cycles and skipped blocks, plus the
/// full-tile terms and the bottleneck they imply.
///
/// # Panics
///
/// Panics if the mask's grid does not match the layer dimensions.
pub fn conv_latency(
    inst: &ConvInstance,
    config: &AcceleratorConfig,
    mask: Option<&LayerBlockMask>,
    buffering: DoubleBuffering,
) -> LayerLatency {
    let t = &config.tiling;
    let (m, n) = (inst.output.0, inst.input.0);
    let (d, r, c) = (inst.output.1, inst.output.2, inst.output.3);
    let walk = tile_walk(inst, config, mask, buffering);
    let terms = tile_terms(inst, t, &config.ports, (t.td, t.tr, t.tc));
    let (t_wgt, t_in, t_comp, _) = terms;
    let bottleneck = if t_comp >= t_wgt && t_comp >= t_in {
        Bottleneck::Compute
    } else if t_wgt >= t_in {
        Bottleneck::WeightLoad
    } else {
        Bottleneck::InputLoad
    };
    let spatial_tiles = (d.div_ceil(t.td) * r.div_ceil(t.tr) * c.div_ceil(t.tc)) as u64;
    LayerLatency {
        name: inst.spec.name.clone(),
        stage: inst.spec.stage.clone(),
        cycles: walk.cycles,
        bottleneck,
        terms,
        spatial_tiles,
        blocks_skipped: walk.blocks_skipped,
        blocks_total: (m.div_ceil(t.tm) * n.div_ceil(t.tn)) as u64 * spatial_tiles,
    }
}

/// Cycles to stream one fully-connected layer of `weights` words. FC
/// layers are memory-bound: each weight is used once, so the layer costs
/// its weight load unless the MAC array is slower still.
pub fn fc_cycles(weights: usize, config: &AcceleratorConfig) -> u64 {
    let load = weights.div_ceil(config.ports.wgt) as u64;
    let compute = weights.div_ceil(config.tiling.macs_per_cycle()) as u64;
    load.max(compute)
}

/// End-to-end network latency: every conv layer through the tiled engine
/// plus FC weight streaming ([`fc_cycles`]).
pub fn network_latency(
    spec: &NetworkSpec,
    config: &AcceleratorConfig,
    pruned: &PrunedModel,
    buffering: DoubleBuffering,
) -> NetworkLatency {
    let plan = spec.plan().expect("spec must shape-check");
    let layers: Vec<LayerLatency> = plan
        .convs()
        .map(|inst| conv_latency(inst, config, pruned.mask(&inst.spec.name), buffering))
        .collect();
    let fc = plan
        .iter()
        .map(|stage| match stage {
            Stage::Linear(l) => fc_cycles(l.out_features * l.in_features, config),
            _ => 0,
        })
        .sum();

    let total_cycles = layers.iter().map(|l| l.cycles).sum::<u64>() + fc;
    NetworkLatency {
        layers,
        fc_cycles: fc,
        total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_core::{BlockGrid, BlockShape};
    use p3d_models::c3d::c3d;
    use p3d_models::r2plus1d::r2plus1d_18;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_tn8()
    }

    fn c3d_conv2a() -> ConvInstance {
        c3d(101)
            .conv_instances()
            .unwrap()
            .into_iter()
            .find(|i| i.spec.name == "conv2a")
            .unwrap()
    }

    #[test]
    fn full_tile_terms_conv2a() {
        // conv2a: 3x3x3 stride 1. t_comp = 27*4*14*14 = 21168.
        // t_wgt = 64*8*27/4 = 3456. t_in = 8*6*16*16/4 = 3072.
        let inst = c3d_conv2a();
        let (t_wgt, t_in, t_comp, t_out) =
            conv_latency(&inst, &cfg(), None, DoubleBuffering::On).terms;
        assert_eq!(t_comp, 21168);
        assert_eq!(t_wgt, 3456);
        assert_eq!(t_in, 3072);
        assert_eq!(t_out, (64 * 784) / 4);
    }

    #[test]
    fn conv2a_is_compute_bound_and_latency_matches_hand_calc() {
        let inst = c3d_conv2a();
        let lat = conv_latency(&inst, &cfg(), None, DoubleBuffering::On);
        assert_eq!(lat.bottleneck, Bottleneck::Compute);
        // Hand calculation: t_L2 = 21168*8 + 21168 = 190512 per block row;
        // rows = ceil(128/64) = 2; spatial tiles = 4*4*4 = 64.
        // total = 64 * 2 * 190512 + t_out.
        let expected = 64u64 * 2 * 190_512 + 12_544;
        assert_eq!(lat.cycles, expected);
        assert_eq!(lat.spatial_tiles, 64);
        assert_eq!(lat.blocks_skipped, 0);
    }

    #[test]
    fn pruned_rows_skip_l3_iterations() {
        let inst = c3d_conv2a();
        // Mask: keep 2 of 8 column blocks in row 0, all in row 1.
        let grid = BlockGrid::new(128, 64, 27, BlockShape::new(64, 8));
        let mut keep = vec![true; grid.num_blocks()];
        for bj in 2..8 {
            keep[grid.block_index(0, bj)] = false;
        }
        let mask = LayerBlockMask::new(grid, keep);
        let lat = conv_latency(&inst, &cfg(), Some(&mask), DoubleBuffering::On);
        let dense = conv_latency(&inst, &cfg(), None, DoubleBuffering::On);
        // Row 0: 2 iterations instead of 8.
        let expected = 64u64 * ((21_168 * 2 + 21_168) + (21_168 * 8 + 21_168)) + 12_544;
        assert_eq!(lat.cycles, expected);
        assert!(lat.cycles < dense.cycles);
        assert_eq!(lat.blocks_skipped, 6 * 64);
    }

    #[test]
    fn fully_pruned_row_still_stores() {
        let inst = c3d_conv2a();
        let grid = BlockGrid::new(128, 64, 27, BlockShape::new(64, 8));
        let mut keep = vec![true; grid.num_blocks()];
        for bj in 0..8 {
            keep[grid.block_index(0, bj)] = false;
        }
        let mask = LayerBlockMask::new(grid, keep);
        let lat = conv_latency(&inst, &cfg(), Some(&mask), DoubleBuffering::On);
        let expected = 64u64 * (12_544 + (21_168 * 8 + 21_168)) + 12_544;
        assert_eq!(lat.cycles, expected);
    }

    #[test]
    fn double_buffering_always_helps() {
        let spec = r2plus1d_18(101);
        let on = network_latency(&spec, &cfg(), &PrunedModel::dense(), DoubleBuffering::On);
        let off = network_latency(&spec, &cfg(), &PrunedModel::dense(), DoubleBuffering::Off);
        assert!(off.total_cycles > on.total_cycles);
        // The paper's whole point of overlapping: meaningful gain.
        assert!(off.total_cycles as f64 > 1.1 * on.total_cycles as f64);
    }

    #[test]
    fn c3d_latency_in_paper_regime() {
        // Paper Table IV: unpruned C3D on our accelerator, Tn=8: 826 ms.
        // The analytic model should land in the high-hundreds of ms.
        let spec = c3d(101);
        let lat = network_latency(&spec, &cfg(), &PrunedModel::dense(), DoubleBuffering::On);
        let ms = lat.ms(&cfg());
        assert!(
            (500.0..1100.0).contains(&ms),
            "C3D latency {ms} ms out of regime"
        );
    }

    #[test]
    fn r2plus1d_unpruned_slower_than_c3d() {
        // Paper: unpruned R(2+1)D 1044 ms vs C3D 826 ms at Tn=8 (R(2+1)D
        // has more ops: 83 G vs 77 G, and less regular kernels).
        let r = network_latency(
            &r2plus1d_18(101),
            &cfg(),
            &PrunedModel::dense(),
            DoubleBuffering::On,
        );
        let c = network_latency(
            &c3d(101),
            &cfg(),
            &PrunedModel::dense(),
            DoubleBuffering::On,
        );
        assert!(r.total_cycles > c.total_cycles);
    }

    #[test]
    fn tn16_faster_than_tn8() {
        // Table IV: 487 vs 826 ms (C3D), 234 vs 386 (pruned R(2+1)D).
        let spec = c3d(101);
        let l8 = network_latency(&spec, &cfg(), &PrunedModel::dense(), DoubleBuffering::On);
        let cfg16 = AcceleratorConfig::paper_tn16();
        let l16 = network_latency(&spec, &cfg16, &PrunedModel::dense(), DoubleBuffering::On);
        let ratio = l8.total_cycles as f64 / l16.total_cycles as f64;
        assert!(
            (1.4..2.1).contains(&ratio),
            "Tn=16 speedup {ratio} out of expected range"
        );
    }

    #[test]
    fn fc_cycles_counted() {
        let spec = c3d(101);
        let lat = network_latency(&spec, &cfg(), &PrunedModel::dense(), DoubleBuffering::On);
        // fc6 alone has 8192*4096 weights at 4 words/cycle.
        assert!(lat.fc_cycles >= (8192 * 4096 / 4) as u64);
    }
}
