//! Whole-network fixed-point inference on the simulated accelerator.
//!
//! [`QuantizedNetwork`] extracts the parameters of a trained `p3d-nn`
//! network, quantises them to Q7.8 (folding batch-norm running statistics
//! into per-channel scale/shift pairs, as the real post-processing unit
//! does), and executes the network spec layer by layer through the tiled
//! convolution engine with block-enable maps.

use crate::config::AcceleratorConfig;
use crate::sim::cycle::{run_conv_with_scratch, ConvStats};
use crate::sim::functional::run_conv_functional_with_scratch;
use crate::sim::post::PostProcessor;
use p3d_core::PrunedModel;
use p3d_models::{build::bn_names, ConvInstance, NetworkSpec, Node};
use p3d_nn::Layer;
use p3d_tensor::fixed::MacAccumulator;
use p3d_tensor::{Fixed16, FixedTensor, Tensor};
use std::collections::BTreeMap;

/// Which convolution engine a simulated forward runs on.
///
/// The two engines are **bitwise identical** in both outputs and
/// statistics (pinned by the `conv_differential` and determinism
/// suites); the choice only trades speed for loop-level fidelity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimPath {
    /// The fast functional Q7.8 path (lowered input tiles, one
    /// register-tiled exact integer kernel per block row, analytic
    /// statistics) — the serving default.
    #[default]
    Functional,
    /// The cycle-approximate tile-loop engine that executes Algorithm
    /// 2's exact loop nest; kept for latency-model validation.
    CycleApproximate,
}

/// Reusable per-worker scratch for repeated simulated forwards.
///
/// Holds the tile-accumulator buffer the cycle engine fills per (volume
/// tile x channel block) and the functional engine's packed weight
/// panel, one `i64` per weight of an enabled block. (The functional
/// engine's lowered `i16` input tile and tile-row lists are per-thread
/// buffers of their own, and its sums live in registers.) Every
/// contribution is summed exactly in `i64` and rounded once, so the
/// chunk boundaries cannot change a bit. One `SimScratch` per serving
/// worker turns per-layer allocations into buffer reuse across every
/// layer of every clip; outputs are bitwise identical to the
/// scratch-free path.
#[derive(Default)]
pub struct SimScratch {
    acc: Vec<MacAccumulator>,
    panel: Vec<i64>,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        SimScratch::default()
    }
}

/// Result of one simulated forward pass.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Classifier logits (dequantised).
    pub logits: Vec<f32>,
    /// Predicted class.
    pub prediction: usize,
    /// Aggregate convolution-engine statistics.
    pub stats: ConvStats,
    /// Cycles spent streaming FC weights.
    pub fc_cycles: u64,
}

impl SimOutput {
    /// Total cycles (conv engine + FC streaming).
    pub fn total_cycles(&self) -> u64 {
        self.stats.cycles + self.fc_cycles
    }

    /// Fraction of conv-output words that clipped at a Q7.8 rail over
    /// the whole forward — the clip-level saturation-anomaly signal the
    /// serving layer's degradation ladder keys on.
    pub fn saturation_rate(&self) -> f64 {
        self.stats.saturation_rate()
    }
}

/// A network quantised for the simulated accelerator.
pub struct QuantizedNetwork {
    spec: NetworkSpec,
    instances: Vec<ConvInstance>,
    conv_weights: BTreeMap<String, FixedTensor>,
    conv_bias: BTreeMap<String, Vec<Fixed16>>,
    /// Folded `(scale, shift)` per batch-norm node, in document order.
    bn_folded: Vec<(Vec<Fixed16>, Vec<Fixed16>)>,
    linears: BTreeMap<String, (FixedTensor, Vec<Fixed16>)>,
    config: AcceleratorConfig,
}

enum Feat {
    Map(FixedTensor),
    Vector(Vec<Fixed16>),
}

impl QuantizedNetwork {
    /// Extracts and quantises all parameters of `net` (built from `spec`
    /// by `p3d_models::build_network`).
    ///
    /// # Panics
    ///
    /// Panics if a spec layer's parameters cannot be found in the
    /// network — i.e. `net` was not built from `spec`.
    pub fn from_network(
        spec: &NetworkSpec,
        net: &mut dyn Layer,
        config: AcceleratorConfig,
    ) -> Self {
        let mut params: BTreeMap<String, Tensor> = BTreeMap::new();
        net.visit_params(&mut |p| {
            params.insert(p.name.clone(), p.value.clone());
        });
        let mut state: BTreeMap<String, Tensor> = BTreeMap::new();
        net.export_state(&mut |name, t| {
            state.insert(name.to_string(), t.clone());
        });

        let instances = spec.conv_instances().expect("spec must shape-check");
        let mut conv_weights = BTreeMap::new();
        let mut conv_bias = BTreeMap::new();
        for inst in &instances {
            let name = &inst.spec.name;
            let w = params
                .get(&format!("{name}.weight"))
                .unwrap_or_else(|| panic!("missing weights for {name}"));
            conv_weights.insert(name.clone(), FixedTensor::quantize(w));
            if inst.spec.bias {
                let b = params
                    .get(&format!("{name}.bias"))
                    .unwrap_or_else(|| panic!("missing bias for {name}"));
                conv_bias.insert(
                    name.clone(),
                    b.data().iter().map(|&v| Fixed16::from_f32(v)).collect(),
                );
            }
        }

        let eps = 1e-5f32;
        let mut bn_folded = Vec::new();
        for (bn_name, channels) in bn_names(spec) {
            let gamma = params
                .get(&format!("{bn_name}.gamma"))
                .unwrap_or_else(|| panic!("missing {bn_name}.gamma"));
            let beta = &params[&format!("{bn_name}.beta")];
            let rm = &state[&format!("{bn_name}.running_mean")];
            let rv = &state[&format!("{bn_name}.running_var")];
            assert_eq!(gamma.len(), channels, "bn channel mismatch");
            let mut scale = Vec::with_capacity(channels);
            let mut shift = Vec::with_capacity(channels);
            for c in 0..channels {
                let s = gamma.data()[c] / (rv.data()[c] + eps).sqrt();
                scale.push(Fixed16::from_f32(s));
                shift.push(Fixed16::from_f32(beta.data()[c] - s * rm.data()[c]));
            }
            bn_folded.push((scale, shift));
        }

        let mut linears = BTreeMap::new();
        collect_linears(&spec.nodes, &mut |name, out_f, in_f| {
            let w = params
                .get(&format!("{name}.weight"))
                .unwrap_or_else(|| panic!("missing weights for {name}"));
            assert_eq!(w.shape().dims(), &[out_f, in_f], "linear shape mismatch");
            let b = params
                .get(&format!("{name}.bias"))
                .map(|b| b.data().iter().map(|&v| Fixed16::from_f32(v)).collect())
                .unwrap_or_else(|| vec![Fixed16::ZERO; out_f]);
            linears.insert(name.to_string(), (FixedTensor::quantize(w), b));
        });

        QuantizedNetwork {
            spec: spec.clone(),
            instances,
            conv_weights,
            conv_bias,
            bn_folded,
            linears,
            config,
        }
    }

    /// The accelerator configuration in use.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Runs one clip `[C, D, H, W]` (f32, quantised on the way in) with
    /// block-enable maps from `pruned`, on the **cycle-approximate**
    /// engine.
    pub fn forward(&self, clip: &Tensor, pruned: &PrunedModel) -> SimOutput {
        self.forward_with_scratch(clip, pruned, &mut SimScratch::new())
    }

    /// Runs one clip on the **fast functional** engine — the serving
    /// path. Bitwise identical to [`QuantizedNetwork::forward`] in both
    /// logits and statistics.
    pub fn forward_functional(&self, clip: &Tensor, pruned: &PrunedModel) -> SimOutput {
        self.forward_functional_with_scratch(clip, pruned, &mut SimScratch::new())
    }

    /// [`QuantizedNetwork::forward`] reusing `scratch` across calls.
    /// Bitwise identical to `forward`.
    pub fn forward_with_scratch(
        &self,
        clip: &Tensor,
        pruned: &PrunedModel,
        scratch: &mut SimScratch,
    ) -> SimOutput {
        self.forward_on_path(clip, pruned, scratch, SimPath::CycleApproximate)
    }

    /// [`QuantizedNetwork::forward_functional`] reusing `scratch` across
    /// calls — the batched-serving hot path.
    pub fn forward_functional_with_scratch(
        &self,
        clip: &Tensor,
        pruned: &PrunedModel,
        scratch: &mut SimScratch,
    ) -> SimOutput {
        self.forward_on_path(clip, pruned, scratch, SimPath::Functional)
    }

    /// The shared walk, parameterised by convolution engine.
    pub fn forward_on_path(
        &self,
        clip: &Tensor,
        pruned: &PrunedModel,
        scratch: &mut SimScratch,
        path: SimPath,
    ) -> SimOutput {
        assert_eq!(clip.shape().rank(), 4, "expected [C, D, H, W] clip");
        let mut ctx = WalkCtx {
            net: self,
            pruned,
            scratch,
            path,
            conv_idx: 0,
            bn_idx: 0,
            stats: ConvStats::default(),
            fc_cycles: 0,
        };
        let out = ctx.walk(&self.spec.nodes, Feat::Map(FixedTensor::quantize(clip)));
        let logits = match out {
            Feat::Vector(v) => v,
            Feat::Map(_) => panic!("network did not end in a classifier vector"),
        };
        let prediction = logits
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| v.to_bits())
            .map(|(i, _)| i)
            .unwrap_or(0);
        SimOutput {
            logits: logits.iter().map(|v| v.to_f32()).collect(),
            prediction,
            stats: ctx.stats,
            fc_cycles: ctx.fc_cycles,
        }
    }
}

fn collect_linears(nodes: &[Node], f: &mut impl FnMut(&str, usize, usize)) {
    for node in nodes {
        match node {
            Node::Linear {
                name,
                out_features,
                in_features,
            } => f(name, *out_features, *in_features),
            Node::Residual { main, shortcut } => {
                collect_linears(main, f);
                if let Some(s) = shortcut {
                    collect_linears(s, f);
                }
            }
            _ => {}
        }
    }
}

struct WalkCtx<'a> {
    net: &'a QuantizedNetwork,
    pruned: &'a PrunedModel,
    scratch: &'a mut SimScratch,
    path: SimPath,
    conv_idx: usize,
    bn_idx: usize,
    stats: ConvStats,
    fc_cycles: u64,
}

impl WalkCtx<'_> {
    fn walk(&mut self, nodes: &[Node], mut feat: Feat) -> Feat {
        for node in nodes {
            feat = self.step(node, feat);
        }
        feat
    }

    fn step(&mut self, node: &Node, feat: Feat) -> Feat {
        match node {
            Node::Conv(spec) => {
                let Feat::Map(map) = feat else {
                    panic!("conv after flatten")
                };
                let inst = &self.net.instances[self.conv_idx];
                assert_eq!(inst.spec.name, spec.name, "conv walk order mismatch");
                self.conv_idx += 1;
                let weights = &self.net.conv_weights[&spec.name];
                let mask = self.pruned.mask(&spec.name);
                let (mut out, stats) = match self.path {
                    SimPath::Functional => run_conv_functional_with_scratch(
                        inst,
                        weights,
                        &map,
                        mask,
                        &self.net.config,
                        &mut self.scratch.panel,
                    ),
                    SimPath::CycleApproximate => run_conv_with_scratch(
                        inst,
                        weights,
                        &map,
                        mask,
                        &self.net.config,
                        &mut self.scratch.acc,
                    ),
                };
                self.accumulate(stats);
                if let Some(bias) = self.net.conv_bias.get(&spec.name) {
                    PostProcessor::bias(&mut out, bias);
                }
                Feat::Map(out)
            }
            Node::BatchNorm { .. } => {
                let Feat::Map(mut map) = feat else {
                    panic!("batchnorm after flatten")
                };
                let (scale, shift) = &self.net.bn_folded[self.bn_idx];
                self.bn_idx += 1;
                PostProcessor::batch_norm(&mut map, scale, shift);
                Feat::Map(map)
            }
            Node::Relu => match feat {
                Feat::Map(mut map) => {
                    PostProcessor::relu(&mut map);
                    Feat::Map(map)
                }
                Feat::Vector(mut v) => {
                    for x in &mut v {
                        *x = x.relu();
                    }
                    Feat::Vector(v)
                }
            },
            Node::MaxPool { kernel, stride, pad } => {
                assert_eq!(*pad, (0, 0, 0), "simulator does not support padded pooling");
                let Feat::Map(map) = feat else {
                    panic!("pool after flatten")
                };
                Feat::Map(PostProcessor::max_pool(&map, *kernel, *stride))
            }
            Node::GlobalAvgPool => {
                let Feat::Map(map) = feat else {
                    panic!("pool after flatten")
                };
                Feat::Vector(PostProcessor::global_avg_pool(&map))
            }
            Node::Linear { name, .. } => {
                let x = match feat {
                    Feat::Vector(v) => v,
                    Feat::Map(map) => map.data().to_vec(), // flatten
                };
                let (w, b) = &self.net.linears[name];
                let weights = w.len();
                let load = weights.div_ceil(self.net.config.ports.wgt) as u64;
                let compute = weights.div_ceil(self.net.config.tiling.macs_per_cycle()) as u64;
                self.fc_cycles += load.max(compute);
                Feat::Vector(PostProcessor::linear(&x, w, b))
            }
            Node::Residual { main, shortcut } => {
                let Feat::Map(entry) = feat else {
                    panic!("residual after flatten")
                };
                let main_out = self.walk(main, Feat::Map(entry.clone()));
                let short_out = match shortcut {
                    Some(s) => self.walk(s, Feat::Map(entry)),
                    None => Feat::Map(entry),
                };
                let (Feat::Map(mut m), Feat::Map(s)) = (main_out, short_out) else {
                    panic!("residual paths must stay feature maps")
                };
                PostProcessor::shortcut_add(&mut m, &s);
                PostProcessor::relu(&mut m);
                Feat::Map(m)
            }
        }
    }

    fn accumulate(&mut self, s: ConvStats) {
        self.stats.cycles += s.cycles;
        self.stats.macs += s.macs;
        self.stats.blocks_skipped += s.blocks_skipped;
        self.stats.weight_words += s.weight_words;
        self.stats.input_words += s.input_words;
        self.stats.output_words += s.output_words;
        self.stats.saturated_words += s.saturated_words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ports, Tiling};
    use p3d_models::{build_network, r2plus1d_micro};
    use p3d_nn::{Layer, Mode};
    use p3d_tensor::TensorRng;

    fn micro_cfg() -> AcceleratorConfig {
        AcceleratorConfig {
            tiling: Tiling::new(4, 4, 2, 4, 4),
            ports: Ports::new(2, 2, 2),
            freq_mhz: 150.0,
            data_bits: 16,
        }
    }

    #[test]
    fn quantized_network_matches_f32_reference() {
        let spec = r2plus1d_micro(4);
        let mut net = build_network(&spec, 33);
        let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        let mut rng = TensorRng::seed(7);
        let mut agree = 0usize;
        let trials = 6;
        for _ in 0..trials {
            let clip = rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0);
            let sim = q.forward(&clip, &PrunedModel::dense());
            let batch = clip.reshape([1, 1, 6, 16, 16]);
            let logits = net.forward(&batch, Mode::Eval);
            // Compare logits within fixed-point error and predictions.
            let reference: Vec<f32> = logits.data().to_vec();
            let max_err = sim
                .logits
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_err < 0.25, "logit error {max_err} too large");
            let ref_pred = logits.argmax();
            if ref_pred == sim.prediction {
                agree += 1;
            }
        }
        assert!(agree >= trials - 1, "predictions agree only {agree}/{trials}");
    }

    #[test]
    fn conv_and_bn_counts_walked_fully() {
        let spec = r2plus1d_micro(4);
        let mut net = build_network(&spec, 34);
        let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        let mut rng = TensorRng::seed(8);
        let clip = rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0);
        let out = q.forward(&clip, &PrunedModel::dense());
        // Every conv executed: total MACs equal the spec's MAC count.
        let expected: u64 = spec.conv_macs().unwrap() as u64;
        assert_eq!(out.stats.macs, expected);
        assert!(out.fc_cycles > 0);
        assert!(out.total_cycles() > out.stats.cycles);
    }

    #[test]
    fn pruned_network_runs_fewer_macs() {
        use p3d_core::{magnitude_block_prune, BlockShape, KeepRule, PruneTarget};
        let spec = r2plus1d_micro(4);
        let mut net = build_network(&spec, 35);
        let targets = vec![PruneTarget {
            layer: "conv2_1a.spatial".into(),
            eta: 0.5,
        }];
        let pruned = magnitude_block_prune(&mut net, BlockShape::new(4, 4), &targets, KeepRule::Round);
        let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        let mut rng = TensorRng::seed(9);
        let clip = rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0);
        let dense_out = q.forward(&clip, &PrunedModel::dense());
        let sparse_out = q.forward(&clip, &pruned);
        assert!(sparse_out.stats.macs < dense_out.stats.macs);
        assert!(sparse_out.stats.cycles < dense_out.stats.cycles);
        assert!(sparse_out.stats.blocks_skipped > 0);
        // Pruned weights are zero, so outputs agree exactly.
        assert_eq!(dense_out.logits, sparse_out.logits);
    }
}
