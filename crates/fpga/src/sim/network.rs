//! Whole-network fixed-point inference on the simulated accelerator.
//!
//! [`QuantizedNetwork`] quantises a trained `p3d-nn` network to Q7.8 on
//! a mirror of the spec's stage plan ([`p3d_models::plan`]). A conv stage
//! holds its weights and its [`Epilogue`]: its bias, then the batch norm
//! (folded to a per-channel scale and shift, as the real post-processing
//! unit does) and the ReLU that the plan grouped with it. A standalone
//! batch norm holds its folded pair; a linear layer, its weights, bias
//! and FC streaming cycles.
//!
//! One walk over that tree runs both engines. The cycle engine runs each
//! conv tile by tile, then applies its epilogue with [`PostProcessor`];
//! [`QuantizedNetwork::compile`] maps the conv stages to
//! [`CompiledConv`]s, whose finish applies it, for the functional engine.

use crate::config::AcceleratorConfig;
use crate::latency::fc_cycles;
use crate::sim::cycle::{run_conv_with_scratch, ConvStats};
use crate::sim::functional::CompiledConv;
use crate::sim::post::{Epilogue, PostProcessor};
use p3d_core::PrunedModel;
use p3d_models::{plan, Bn, ConvInstance, ConvStage, LinearStage, NetworkSpec};
use p3d_nn::Layer;
use p3d_tensor::fixed::MacAccumulator;
use p3d_tensor::{Fixed16, FixedTensor, Tensor};
use std::collections::BTreeMap;

/// Reusable per-worker scratch for the cycle engine's forwards.
///
/// Holds the tile-accumulator buffer the cycle engine fills per (volume
/// tile x channel block), so one `SimScratch` per worker turns the cycle
/// engine's per-layer allocations into buffer reuse across every layer
/// of every clip. The functional engine needs none of it: a
/// [`CompiledNetwork`] is shared read-only, and its lowered input tile
/// is per-thread. Outputs are bitwise identical to the scratch-free path.
#[derive(Default)]
pub struct SimScratch {
    acc: Vec<MacAccumulator>,
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

/// A batch norm's running statistics folded into a per-channel
/// `(scale, shift)`.
type Folded = (Vec<Fixed16>, Vec<Fixed16>);

/// A linear layer as quantised.
#[derive(Clone)]
struct QuantizedLinear {
    weights: FixedTensor,
    bias: Vec<Fixed16>,
    /// FC streaming cycles ([`fc_cycles`]).
    cycles: u64,
}

/// A stage of the plan with quantised payloads; `C` is a conv stage's.
type Stage<C> = plan::Stage<C, Folded, QuantizedLinear>;

/// A conv stage as quantised: the conv, its weights and its epilogue.
struct QuantizedConv {
    inst: ConvInstance,
    weights: FixedTensor,
    epilogue: Epilogue,
}

/// A network quantised for the simulated accelerator: the spec's stage
/// plan with Q7.8 payloads.
pub struct QuantizedNetwork {
    stages: Vec<Stage<QuantizedConv>>,
    config: AcceleratorConfig,
}

/// A [`QuantizedNetwork`] with every conv compiled under one pruned
/// model's block-enable maps ([`QuantizedNetwork::compile`]): what the
/// functional engine runs, shared read-only by every serving worker.
pub struct CompiledNetwork {
    stages: Vec<Stage<CompiledConv>>,
}

/// The trained parameters and running statistics of a network, by name.
struct Params(BTreeMap<String, Tensor>);

fn quantize_vec(t: &Tensor) -> Vec<Fixed16> {
    t.data().iter().map(|&v| Fixed16::from_f32(v)).collect()
}

impl Params {
    fn get(&self, name: &str) -> &Tensor {
        self.0
            .get(name)
            .unwrap_or_else(|| panic!("missing parameter {name}"))
    }

    fn conv(&self, stage: &ConvStage) -> QuantizedConv {
        let name = &stage.inst.spec.name;
        let bias = stage.inst.spec.bias;
        QuantizedConv {
            inst: stage.inst.clone(),
            weights: FixedTensor::quantize(self.get(&format!("{name}.weight"))),
            epilogue: Epilogue {
                bias: bias.then(|| quantize_vec(self.get(&format!("{name}.bias")))),
                batch_norm: stage.batch_norm.as_ref().map(|bn| self.fold(bn)),
                relu: stage.relu,
            },
        }
    }

    fn fold(&self, bn: &Bn) -> Folded {
        let name = &bn.name;
        let gamma = self.get(&format!("{name}.gamma")).data();
        let beta = self.get(&format!("{name}.beta")).data();
        let rm = self.get(&format!("{name}.running_mean")).data();
        let rv = self.get(&format!("{name}.running_var")).data();
        assert_eq!(gamma.len(), bn.channels, "bn channel mismatch");
        let eps = 1e-5f32;
        (0..bn.channels)
            .map(|c| {
                let s = gamma[c] / (rv[c] + eps).sqrt();
                let shift = beta[c] - s * rm[c];
                (Fixed16::from_f32(s), Fixed16::from_f32(shift))
            })
            .unzip()
    }

    fn linear(&self, l: &LinearStage, config: &AcceleratorConfig) -> QuantizedLinear {
        let w = self.get(&format!("{}.weight", l.name));
        let dims = [l.out_features, l.in_features];
        assert_eq!(w.shape().dims(), dims, "linear shape mismatch");
        let bias = self.0.get(&format!("{}.bias", l.name));
        QuantizedLinear {
            weights: FixedTensor::quantize(w),
            bias: bias.map_or_else(|| vec![Fixed16::ZERO; l.out_features], quantize_vec),
            cycles: fc_cycles(w.len(), config),
        }
    }
}

impl QuantizedNetwork {
    /// Extracts and quantises all parameters of `net` (built from `spec`
    /// by `p3d_models::build_network`).
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not shape-check, or if a stage's parameters
    /// cannot be found in the network — i.e. `net` was not built from
    /// `spec`.
    pub fn from_network(
        spec: &NetworkSpec,
        net: &mut dyn Layer,
        config: AcceleratorConfig,
    ) -> Self {
        let mut params = Params(BTreeMap::new());
        net.visit_params(&mut |p| {
            params.0.insert(p.name.clone(), p.value.clone());
        });
        net.export_state(&mut |name, t| {
            params.0.insert(name.to_string(), t.clone());
        });
        let plan = spec.plan().expect("spec must shape-check");
        let stages = plan.stages.iter().map(|stage| {
            stage.map(
                &mut |conv| params.conv(conv),
                &mut |bn| params.fold(bn),
                &mut |linear| params.linear(linear, &config),
            )
        });
        QuantizedNetwork {
            stages: stages.collect(),
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
        self.compile(pruned).forward(clip)
    }

    /// [`QuantizedNetwork::forward`] reusing `scratch` across calls.
    /// Bitwise identical to `forward`.
    pub fn forward_with_scratch(
        &self,
        clip: &Tensor,
        pruned: &PrunedModel,
        scratch: &mut SimScratch,
    ) -> SimOutput {
        run(&self.stages, clip, &mut |conv: &QuantizedConv, map| {
            let name = &conv.inst.spec.name;
            let (mut out, stats) = run_conv_with_scratch(
                &conv.inst,
                &conv.weights,
                map,
                pruned.mask(name),
                &self.config,
                &mut scratch.acc,
            );
            PostProcessor::epilogue(&mut out, &conv.epilogue);
            (out, stats)
        })
    }

    /// [`QuantizedNetwork::forward_functional`]: compiles every layer,
    /// then runs the [`CompiledNetwork`]. `_scratch` is not read;
    /// callers that run more than one clip should compile once, as
    /// `SimEngine` does.
    pub fn forward_functional_with_scratch(
        &self,
        clip: &Tensor,
        pruned: &PrunedModel,
        _scratch: &mut SimScratch,
    ) -> SimOutput {
        self.forward_functional(clip, pruned)
    }

    /// Compiles every conv stage under `pruned`'s block-enable maps for
    /// the functional engine: runs, weight panels, 32-bit certificates,
    /// the data-independent statistics and each conv's fused
    /// [`Epilogue`], built once instead of per clip.
    pub fn compile(&self, pruned: &PrunedModel) -> CompiledNetwork {
        let mut compile = |conv: &QuantizedConv| {
            let name = &conv.inst.spec.name;
            CompiledConv::compile(&conv.inst, &conv.weights, pruned.mask(name), &self.config)
                .with_epilogue(&conv.epilogue)
        };
        let stages = self.stages.iter().map(|stage| {
            stage.map(
                &mut compile,
                &mut Folded::clone,
                &mut QuantizedLinear::clone,
            )
        });
        CompiledNetwork {
            stages: stages.collect(),
        }
    }

    /// [`CompiledNetwork::forward`] on `layers`, compiled from this
    /// network by [`QuantizedNetwork::compile`]. Bitwise identical to
    /// [`QuantizedNetwork::forward_functional`] under the same pruned
    /// model.
    pub fn forward_compiled(&self, clip: &Tensor, layers: &CompiledNetwork) -> SimOutput {
        layers.forward(clip)
    }
}

impl CompiledNetwork {
    /// Runs one clip `[C, D, H, W]` (f32, quantised on the way in) on the
    /// **fast functional** engine — the serving path. Bitwise identical
    /// to the cycle engine ([`QuantizedNetwork::forward`]) under the
    /// pruned model this network was compiled for, in logits and
    /// statistics.
    pub fn forward(&self, clip: &Tensor) -> SimOutput {
        run(&self.stages, clip, &mut |conv: &CompiledConv, map| {
            conv.run(map)
        })
    }
}

/// The features flowing between stages.
enum Feat {
    Map(FixedTensor),
    Vector(Vec<Fixed16>),
}

/// Runs `clip` through `stages`, each conv stage by `conv`.
fn run<C>(
    stages: &[Stage<C>],
    clip: &Tensor,
    conv: &mut impl FnMut(&C, &FixedTensor) -> (FixedTensor, ConvStats),
) -> SimOutput {
    assert_eq!(clip.shape().rank(), 4, "expected [C, D, H, W] clip");
    let mut out = SimOutput {
        logits: Vec::new(),
        prediction: 0,
        stats: ConvStats::default(),
        fc_cycles: 0,
    };
    let clip = Feat::Map(FixedTensor::quantize(clip));
    let Feat::Vector(logits) = walk(stages, clip, conv, &mut out) else {
        panic!("network did not end in a classifier vector")
    };
    out.prediction = logits
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| v.to_bits())
        .map(|(i, _)| i)
        .unwrap_or(0);
    out.logits = logits.iter().map(|v| v.to_f32()).collect();
    out
}

/// Runs `feat` through `stages`, adding each conv's statistics and each
/// linear layer's FC cycles to `out`.
fn walk<C>(
    stages: &[Stage<C>],
    mut feat: Feat,
    conv: &mut impl FnMut(&C, &FixedTensor) -> (FixedTensor, ConvStats),
    out: &mut SimOutput,
) -> Feat {
    for stage in stages {
        feat = match (stage, feat) {
            (Stage::Conv(c), Feat::Map(map)) => {
                let (map, s) = conv(c, &map);
                let t = &mut out.stats;
                t.cycles += s.cycles;
                t.macs += s.macs;
                t.blocks_skipped += s.blocks_skipped;
                t.weight_words += s.weight_words;
                t.input_words += s.input_words;
                t.output_words += s.output_words;
                t.saturated_words += s.saturated_words;
                Feat::Map(map)
            }
            (Stage::BatchNorm((scale, shift)), Feat::Map(mut map)) => {
                PostProcessor::batch_norm(&mut map, scale, shift);
                Feat::Map(map)
            }
            (Stage::Relu, Feat::Map(mut map)) => {
                PostProcessor::relu(&mut map);
                Feat::Map(map)
            }
            (Stage::Relu, Feat::Vector(mut v)) => {
                for x in &mut v {
                    *x = x.relu();
                }
                Feat::Vector(v)
            }
            (Stage::MaxPool(pool), Feat::Map(map)) => {
                assert_eq!(
                    pool.pad,
                    (0, 0, 0),
                    "simulator does not support padded pooling"
                );
                Feat::Map(PostProcessor::max_pool(&map, pool.kernel, pool.stride))
            }
            (Stage::GlobalAvgPool, Feat::Map(map)) => {
                Feat::Vector(PostProcessor::global_avg_pool(&map))
            }
            (Stage::Flatten, Feat::Map(map)) => Feat::Vector(map.data().to_vec()),
            (Stage::Linear(linear), Feat::Vector(x)) => {
                out.fc_cycles += linear.cycles;
                Feat::Vector(PostProcessor::linear(&x, &linear.weights, &linear.bias))
            }
            (Stage::Residual { main, shortcut }, Feat::Map(entry)) => {
                let main_out = walk(main, Feat::Map(entry.clone()), conv, out);
                let short_out = match shortcut {
                    Some(s) => walk(s, Feat::Map(entry), conv, out),
                    None => Feat::Map(entry),
                };
                let (Feat::Map(mut m), Feat::Map(s)) = (main_out, short_out) else {
                    unreachable!("the plan ends residual paths in maps")
                };
                PostProcessor::shortcut_add(&mut m, &s);
                PostProcessor::relu(&mut m);
                Feat::Map(m)
            }
            _ => unreachable!("the plan puts map stages on maps and linears on vectors"),
        };
    }
    feat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ports, Tiling};
    use p3d_models::{build_network, r2plus1d_micro, Conv3dSpec, Node};
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
        assert!(
            agree >= trials - 1,
            "predictions agree only {agree}/{trials}"
        );
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
        let pruned =
            magnitude_block_prune(&mut net, BlockShape::new(4, 4), &targets, KeepRule::Round);
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

    /// The sim streams FC weights at the latency model's cost.
    #[test]
    fn fc_cycles_equal_the_latency_model() {
        use crate::latency::{network_latency, DoubleBuffering};
        for spec in [r2plus1d_micro(4), p3d_models::c3d_lite(4)] {
            let mut net = build_network(&spec, 38);
            let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
            let (c, d, h, w) = spec.input;
            let clip = TensorRng::seed(12).uniform_tensor([c, d, h, w], 0.0, 1.0);
            let sim = q.forward_functional(&clip, &PrunedModel::dense());
            let dense = PrunedModel::dense();
            let model = network_latency(&spec, &micro_cfg(), &dense, DoubleBuffering::On);
            assert!(sim.fc_cycles > 0, "{}", spec.name);
            assert_eq!(sim.fc_cycles, model.fc_cycles, "{}", spec.name);
        }
    }

    /// A hand-built spec whose convs carry a bias and whose runs differ
    /// from lite-wide's `conv -> BatchNorm [-> ReLU]`: `conv -> ReLU`
    /// without batch norm, bias alone, ReLU alone, and a batch norm
    /// after a pool that no conv's epilogue can hold.
    fn biased_spec() -> NetworkSpec {
        let conv = |name: &str, m, n, kernel, pad, bias| {
            Node::Conv(Conv3dSpec {
                name: name.into(),
                stage: "s".into(),
                out_channels: m,
                in_channels: n,
                kernel,
                stride: (1, 1, 1),
                pad,
                bias,
            })
        };
        NetworkSpec {
            name: "biased".into(),
            input: (1, 4, 10, 10),
            nodes: vec![
                conv("c1", 6, 1, (1, 3, 3), (0, 1, 1), true),
                Node::Relu,
                conv("c2", 8, 6, (3, 1, 1), (1, 0, 0), true),
                Node::BatchNorm { channels: 8 },
                Node::Relu,
                conv("c3", 8, 8, (1, 3, 3), (0, 1, 1), true),
                Node::MaxPool {
                    kernel: (1, 2, 2),
                    stride: (1, 2, 2),
                    pad: (0, 0, 0),
                },
                Node::BatchNorm { channels: 8 },
                Node::Relu,
                conv("c4", 8, 8, (1, 1, 1), (0, 0, 0), false),
                Node::Relu,
                Node::GlobalAvgPool,
                Node::Linear {
                    name: "fc".into(),
                    out_features: 3,
                    in_features: 8,
                },
            ],
        }
    }

    /// The epilogue's bias branch, which lite-wide never takes: on
    /// [`biased_spec`] with random conv biases and batch-norm affine
    /// parameters, block-pruned, compiled layers equal the cycle engine
    /// in logits, `ConvStats` and FC cycles, on quiet and loud clips.
    #[test]
    fn compiled_forward_equals_cycle_with_bias_and_no_batch_norm() {
        use p3d_core::{magnitude_block_prune, BlockShape, KeepRule, PruneTarget};
        let spec = biased_spec();
        let mut net = build_network(&spec, 37);
        let mut rng = TensorRng::seed(11);
        net.visit_params(&mut |p| {
            if p.name.ends_with(".bias") || p.name.ends_with(".beta") {
                p.value = rng.uniform_tensor(p.value.shape().dims(), -0.5, 0.5);
            } else if p.name.ends_with(".gamma") {
                p.value = rng.uniform_tensor(p.value.shape().dims(), -1.5, 1.5);
            }
        });
        let targets = vec![PruneTarget {
            layer: "c3".into(),
            eta: 0.5,
        }];
        let pruned =
            magnitude_block_prune(&mut net, BlockShape::new(4, 4), &targets, KeepRule::Round);
        let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        let plan = spec.plan().unwrap();
        let fused: Vec<_> = plan
            .iter()
            .filter_map(|stage| match stage {
                plan::Stage::Conv(c) => Some((c.inst.spec.bias, c.batch_norm.is_some(), c.relu)),
                _ => None,
            })
            .collect();
        assert_eq!(
            fused,
            [
                (true, false, true),
                (true, true, true),
                (true, false, false),
                (false, false, true),
            ]
        );
        let standalone = plan
            .iter()
            .filter(|stage| matches!(stage, plan::Stage::BatchNorm(_)))
            .count();
        assert_eq!(standalone, 1, "the pooled batch norm stands alone");
        let layers = q.compile(&pruned);
        for loud in [1.0, 60.0] {
            let clip = rng.uniform_tensor([1, 4, 10, 10], -loud, loud);
            let compiled = q.forward_compiled(&clip, &layers);
            let cycle = q.forward(&clip, &pruned);
            assert_eq!(compiled.logits, cycle.logits, "loudness {loud}");
            assert_eq!(compiled.stats, cycle.stats, "loudness {loud}");
            assert_eq!(compiled.fc_cycles, cycle.fc_cycles, "loudness {loud}");
            assert!(compiled.stats.blocks_skipped > 0);
            assert_eq!(compiled.stats.saturated_words > 0, loud > 1.0);
        }
    }

    /// Compiled layers equal both engines, on the pruned micro model as
    /// built and with its first conv's weights scaled until its channel
    /// groups lose the 32-bit certificate. That layer reads the clip
    /// directly, so loud clips drive its sums past `i32`: only the exact
    /// scalar `i64` body, which uncertified groups run, gets them right.
    #[test]
    fn compiled_forward_equals_both_engines() {
        use p3d_core::{magnitude_block_prune, BlockShape, KeepRule, PruneTarget};
        let spec = r2plus1d_micro(4);
        for (scale, loud) in [(1.0, 4.0), (256.0, 120.0)] {
            let mut net = build_network(&spec, 36);
            let targets = vec![PruneTarget {
                layer: "conv2_1b.spatial".into(),
                eta: 0.5,
            }];
            let pruned =
                magnitude_block_prune(&mut net, BlockShape::new(4, 4), &targets, KeepRule::Round);
            net.visit_params(&mut |p| {
                if p.name == "conv1.spatial.weight" {
                    p.value.map_inplace(|w| w * scale);
                }
            });
            let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
            let layers = q.compile(&pruned);
            let Stage::Conv(first) = &layers.stages[0] else {
                panic!("micro starts with a conv")
            };
            let (certified, total) = first.certified_groups();
            assert_eq!(certified < total, scale > 1.0, "scale {scale}");
            let mut rng = TensorRng::seed(10);
            for _ in 0..2 {
                let clip = rng.uniform_tensor([1, 6, 16, 16], -loud, loud);
                let compiled = q.forward_compiled(&clip, &layers);
                for reference in [
                    q.forward(&clip, &pruned),
                    q.forward_functional(&clip, &pruned),
                ] {
                    assert_eq!(compiled.logits, reference.logits, "scale {scale}");
                    assert_eq!(compiled.stats, reference.stats, "scale {scale}");
                    assert_eq!(compiled.fc_cycles, reference.fc_cycles, "scale {scale}");
                }
                assert!(compiled.stats.blocks_skipped > 0);
            }
        }
    }
}
