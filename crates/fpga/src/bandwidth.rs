//! Off-chip traffic and roofline analysis.
//!
//! The latency model says how long each layer takes; this module says
//! *why*: how many words cross the DRAM boundary per layer (weights are
//! re-loaded once per output-volume tile, inputs once per output-channel
//! block row — the cost of the paper's tiling order), the arithmetic
//! intensity that results, and the bandwidth the accelerator must
//! sustain to hit the modelled latency. The words, MACs and cycles come
//! from the same walk as the latency model ([`crate::latency::tile_walk`]).

use crate::config::AcceleratorConfig;
use crate::latency::{tile_walk, DoubleBuffering};
use p3d_core::{LayerBlockMask, PrunedModel};
use p3d_models::{ConvInstance, NetworkSpec};
use serde::{Deserialize, Serialize};

/// Off-chip traffic of one layer, in 16-bit words.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Traffic {
    /// Weight words loaded (skipped blocks load nothing).
    pub weight_words: u64,
    /// Input-feature words loaded.
    pub input_words: u64,
    /// Output-feature words stored.
    pub output_words: u64,
}

impl Traffic {
    /// Total words moved.
    pub fn total_words(&self) -> u64 {
        self.weight_words + self.input_words + self.output_words
    }

    /// Total bytes moved for a given word width.
    pub fn total_bytes(&self, data_bits: usize) -> u64 {
        self.total_words() * (data_bits as u64 / 8)
    }
}

/// Traffic + derived roofline quantities for one layer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerTraffic {
    /// Layer name.
    pub name: String,
    /// Stage label.
    pub stage: String,
    /// Word counts.
    pub traffic: Traffic,
    /// MACs executed (after block skipping).
    pub macs: u64,
    /// Modelled cycles (double-buffered).
    pub cycles: u64,
}

impl LayerTraffic {
    /// Arithmetic intensity in MACs per byte moved.
    pub fn intensity(&self, data_bits: usize) -> f64 {
        self.macs as f64 / self.traffic.total_bytes(data_bits).max(1) as f64
    }

    /// Average bandwidth (bytes/s) needed to sustain the modelled
    /// latency at `freq_mhz`.
    pub fn required_bandwidth(&self, config: &AcceleratorConfig) -> f64 {
        let seconds = self.cycles as f64 / (config.freq_mhz * 1e6);
        self.traffic.total_bytes(config.data_bits) as f64 / seconds.max(1e-12)
    }
}

/// Traffic of one convolution under the tiled schedule, from one
/// [`tile_walk`].
///
/// Loop order (Algorithm 2): output-volume tiles outermost, then output
/// blocks, then input blocks. Consequences:
///
/// * every *enabled* weight block is loaded once per output-volume tile,
/// * the input tile is re-loaded for every enabled `(m, n)` block,
/// * each output element is stored exactly once.
///
/// # Panics
///
/// Panics if the mask's grid does not match the layer dimensions.
pub fn conv_traffic(
    inst: &ConvInstance,
    config: &AcceleratorConfig,
    mask: Option<&LayerBlockMask>,
) -> LayerTraffic {
    let walk = tile_walk(inst, config, mask, DoubleBuffering::On);
    LayerTraffic {
        name: inst.spec.name.clone(),
        stage: inst.spec.stage.clone(),
        traffic: Traffic {
            weight_words: walk.weight_words,
            input_words: walk.input_words,
            output_words: walk.output_words,
        },
        macs: walk.macs,
        cycles: walk.cycles,
    }
}

/// Traffic of every conv layer of a network.
pub fn network_traffic(
    spec: &NetworkSpec,
    config: &AcceleratorConfig,
    pruned: &PrunedModel,
) -> Vec<LayerTraffic> {
    spec.conv_instances()
        .expect("spec must shape-check")
        .iter()
        .map(|inst| conv_traffic(inst, config, pruned.mask(&inst.spec.name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use p3d_core::{BlockGrid, BlockShape};
    use p3d_models::r2plus1d::r2plus1d_18;

    fn conv2a() -> ConvInstance {
        p3d_models::c3d::c3d(101)
            .conv_instances()
            .unwrap()
            .into_iter()
            .find(|i| i.spec.name == "conv2a")
            .unwrap()
    }

    #[test]
    fn weights_reloaded_per_volume_tile() {
        let inst = conv2a();
        let cfg = AcceleratorConfig::paper_tn8();
        let t = conv_traffic(&inst, &cfg, None);
        // conv2a: 64 volume tiles, weights 128*64*27.
        let weight_count = 128 * 64 * 27u64;
        assert_eq!(t.traffic.weight_words, 64 * weight_count);
        // Each output element stored once.
        assert_eq!(t.traffic.output_words, (128 * 16 * 56 * 56) as u64);
        assert_eq!(t.macs, inst.macs() as u64);
    }

    #[test]
    fn input_reuse_scales_with_output_blocks() {
        let inst = conv2a();
        let cfg = AcceleratorConfig::paper_tn8();
        let t = conv_traffic(&inst, &cfg, None);
        // Input tile loaded once per (m-row, n-block) pair: rows = 2.
        // Total input words = tiles * rows * Tn_total * in_tile where
        // in_tile = 6*16*16 for the 3^3 stride-1 kernel at (4,14,14).
        let expected = 64u64 * 2 * 64 * (6 * 16 * 16) as u64;
        assert_eq!(t.traffic.input_words, expected);
    }

    #[test]
    fn pruning_cuts_weight_and_input_traffic_not_output() {
        let inst = conv2a();
        let cfg = AcceleratorConfig::paper_tn8();
        let grid = BlockGrid::new(128, 64, 27, BlockShape::new(64, 8));
        let keep: Vec<bool> = (0..grid.num_blocks()).map(|i| i % 2 == 0).collect();
        let mask = p3d_core::LayerBlockMask::new(grid, keep);
        let dense = conv_traffic(&inst, &cfg, None);
        let sparse = conv_traffic(&inst, &cfg, Some(&mask));
        assert_eq!(sparse.traffic.weight_words * 2, dense.traffic.weight_words);
        assert_eq!(sparse.traffic.input_words * 2, dense.traffic.input_words);
        assert_eq!(sparse.traffic.output_words, dense.traffic.output_words);
        assert!(sparse.macs < dense.macs);
    }

    #[test]
    fn temporal_layers_have_lower_intensity() {
        // The Kx1x1 temporal convolutions do fewer MACs per byte than the
        // 1xKxK spatial ones — the reason they are transfer-bound.
        let spec = r2plus1d_18(101);
        let cfg = AcceleratorConfig::paper_tn8();
        let all = network_traffic(&spec, &cfg, &p3d_core::PrunedModel::dense());
        let spatial = all
            .iter()
            .find(|l| l.name == "conv2_1a.spatial")
            .unwrap()
            .intensity(16);
        let temporal = all
            .iter()
            .find(|l| l.name == "conv2_1a.temporal")
            .unwrap()
            .intensity(16);
        assert!(
            spatial > temporal,
            "spatial {spatial} should out-reuse temporal {temporal}"
        );
    }

    #[test]
    fn required_bandwidth_is_finite_and_positive() {
        let spec = r2plus1d_18(101);
        let cfg = AcceleratorConfig::paper_tn8();
        let all = network_traffic(&spec, &cfg, &p3d_core::PrunedModel::dense());
        for l in &all {
            let bw = l.required_bandwidth(&cfg);
            assert!(bw.is_finite() && bw > 0.0, "{}: {bw}", l.name);
            // Sanity: nothing requires more than ~10 GB/s at 150 MHz with
            // these port widths (4+4+4 words/cycle x 2 B x 150 MHz = 3.6 GB/s
            // peak; overlap can't exceed the sum of port rates).
            assert!(bw < 10e9, "{}: {bw}", l.name);
        }
    }
}
