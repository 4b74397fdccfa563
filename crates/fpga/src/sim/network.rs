//! Whole-network fixed-point inference on the simulated accelerator.
//!
//! [`QuantizedNetwork`] extracts the parameters of a trained `p3d-nn`
//! network, quantises them to Q7.8 (folding batch-norm running statistics
//! into per-channel scale/shift pairs, as the real post-processing unit
//! does), and executes the network spec layer by layer through the tiled
//! convolution engine with block-enable maps.
//!
//! Each conv, with the batch norm and the ReLU that directly follow it
//! in the spec (`conv -> [BatchNorm] -> [ReLU]`) and its bias, is one
//! stage of the walk: its [`Epilogue`] is derived once, when the network
//! is quantised. The cycle engine applies it with [`PostProcessor`]
//! after the conv; compiled layers apply it in the conv's own finish.

use crate::config::AcceleratorConfig;
use crate::sim::cycle::{run_conv_with_scratch, ConvStats};
use crate::sim::functional::CompiledConv;
use crate::sim::post::{Epilogue, PostProcessor};
use p3d_core::PrunedModel;
use p3d_models::{build::bn_names, Conv3dSpec, ConvInstance, NetworkSpec, Node};
use p3d_nn::Layer;
use p3d_tensor::fixed::MacAccumulator;
use p3d_tensor::{Fixed16, FixedTensor, Tensor};
use std::collections::BTreeMap;

/// Reusable per-worker scratch for the cycle engine's forwards.
///
/// Holds the tile-accumulator buffer the cycle engine fills per (volume
/// tile x channel block), so one `SimScratch` per worker turns the cycle
/// engine's per-layer allocations into buffer reuse across every layer
/// of every clip. The functional engine needs none of it: its compiled
/// layers ([`QuantizedNetwork::compile`]) are shared read-only, and its
/// lowered input tile is per-thread. Outputs are bitwise identical to
/// the scratch-free path.
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

/// A network quantised for the simulated accelerator.
pub struct QuantizedNetwork {
    spec: NetworkSpec,
    instances: Vec<ConvInstance>,
    conv_weights: BTreeMap<String, FixedTensor>,
    /// Per conv, in walk order: its bias and the batch norm and ReLU
    /// fused onto it.
    epilogues: Vec<Epilogue>,
    /// Folded `(scale, shift)` per batch-norm node that no conv's
    /// epilogue holds, in document order.
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
        let mut epilogues = Vec::new();
        let mut standalone_bn = Vec::new();
        fuse_epilogues(
            &spec.nodes,
            &mut conv_bias,
            &mut bn_folded.into_iter(),
            &mut epilogues,
            &mut standalone_bn,
        );
        assert_eq!(epilogues.len(), instances.len(), "conv count mismatch");

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
            epilogues,
            bn_folded: standalone_bn,
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
        self.forward_compiled(clip, &self.compile(pruned))
    }

    /// [`QuantizedNetwork::forward`] reusing `scratch` across calls.
    /// Bitwise identical to `forward`.
    pub fn forward_with_scratch(
        &self,
        clip: &Tensor,
        pruned: &PrunedModel,
        scratch: &mut SimScratch,
    ) -> SimOutput {
        self.walk_clip(clip, Convs::Cycle(pruned, &mut scratch.acc))
    }

    /// [`QuantizedNetwork::forward_functional`]: compiles every layer,
    /// then runs [`QuantizedNetwork::forward_compiled`]. `_scratch` is
    /// not read; callers that run more than one clip should compile once
    /// and call `forward_compiled`, as `SimEngine` does.
    pub fn forward_functional_with_scratch(
        &self,
        clip: &Tensor,
        pruned: &PrunedModel,
        _scratch: &mut SimScratch,
    ) -> SimOutput {
        self.forward_compiled(clip, &self.compile(pruned))
    }

    /// Compiles every conv layer under `pruned`'s block-enable maps, in
    /// walk order, for [`QuantizedNetwork::forward_compiled`]: runs,
    /// weight panels, 32-bit certificates, the data-independent
    /// statistics and each conv's fused [`Epilogue`], built once instead
    /// of per clip.
    pub fn compile(&self, pruned: &PrunedModel) -> Vec<CompiledConv> {
        self.instances
            .iter()
            .zip(&self.epilogues)
            .map(|(inst, epilogue)| {
                let name = &inst.spec.name;
                let weights = &self.conv_weights[name];
                CompiledConv::compile(inst, weights, pruned.mask(name), &self.config)
                    .with_epilogue(epilogue)
            })
            .collect()
    }

    /// [`QuantizedNetwork::forward_functional`] on layers from
    /// [`QuantizedNetwork::compile`] — the serving path. Bitwise
    /// identical to `forward_functional` under the same pruned model.
    ///
    /// # Panics
    ///
    /// Panics if `layers` was not compiled from this network.
    pub fn forward_compiled(&self, clip: &Tensor, layers: &[CompiledConv]) -> SimOutput {
        assert_eq!(
            layers.len(),
            self.instances.len(),
            "compiled layer count mismatch"
        );
        self.walk_clip(clip, Convs::Compiled(layers))
    }

    fn walk_clip(&self, clip: &Tensor, convs: Convs<'_>) -> SimOutput {
        assert_eq!(clip.shape().rank(), 4, "expected [C, D, H, W] clip");
        let mut ctx = WalkCtx {
            net: self,
            convs,
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

/// The spec nodes after a conv that its epilogue stands for: the batch
/// norm and the ReLU fused onto it.
fn fused_nodes(epilogue: &Epilogue) -> usize {
    usize::from(epilogue.batch_norm.is_some()) + usize::from(epilogue.relu)
}

/// Derives each conv's [`Epilogue`] in walk order into `epilogues`: its
/// bias from `conv_bias`, and the batch norm (the next of `bn`) and ReLU
/// nodes that directly follow it, `conv -> [BatchNorm] -> [ReLU]`. Every
/// other batch-norm node's folded pair goes to `standalone`, in order.
fn fuse_epilogues(
    nodes: &[Node],
    conv_bias: &mut BTreeMap<String, Vec<Fixed16>>,
    bn: &mut impl Iterator<Item = (Vec<Fixed16>, Vec<Fixed16>)>,
    epilogues: &mut Vec<Epilogue>,
    standalone: &mut Vec<(Vec<Fixed16>, Vec<Fixed16>)>,
) {
    const BN: &str = "one folded pair per batch-norm node";
    let mut i = 0;
    while i < nodes.len() {
        match &nodes[i] {
            Node::Conv(spec) => {
                let batch_norm = matches!(nodes.get(i + 1), Some(Node::BatchNorm { .. }))
                    .then(|| bn.next().expect(BN));
                let after = i + 1 + usize::from(batch_norm.is_some());
                let epilogue = Epilogue {
                    bias: conv_bias.remove(&spec.name),
                    batch_norm,
                    relu: matches!(nodes.get(after), Some(Node::Relu)),
                };
                i += fused_nodes(&epilogue);
                epilogues.push(epilogue);
            }
            Node::BatchNorm { .. } => standalone.push(bn.next().expect(BN)),
            Node::Residual { main, shortcut } => {
                fuse_epilogues(main, conv_bias, bn, epilogues, standalone);
                if let Some(s) = shortcut {
                    fuse_epilogues(s, conv_bias, bn, epilogues, standalone);
                }
            }
            _ => {}
        }
        i += 1;
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

/// The convolution engine of one walk, with what it reads.
enum Convs<'a> {
    /// The cycle engine under the pruned model's masks, with its
    /// accumulator scratch.
    Cycle(&'a PrunedModel, &'a mut Vec<MacAccumulator>),
    /// The functional engine on layers compiled in walk order.
    Compiled(&'a [CompiledConv]),
}

struct WalkCtx<'a> {
    net: &'a QuantizedNetwork,
    convs: Convs<'a>,
    conv_idx: usize,
    bn_idx: usize,
    stats: ConvStats,
    fc_cycles: u64,
}

impl WalkCtx<'_> {
    fn walk(&mut self, nodes: &[Node], mut feat: Feat) -> Feat {
        let mut i = 0;
        while i < nodes.len() {
            if let Node::Conv(spec) = &nodes[i] {
                let epilogue = &self.net.epilogues[self.conv_idx];
                feat = self.conv(spec, epilogue, feat);
                i += fused_nodes(epilogue);
            } else {
                feat = self.step(&nodes[i], feat);
            }
            i += 1;
        }
        feat
    }

    /// One conv stage: the conv, then its `epilogue`, which stands for
    /// the nodes fused onto it.
    fn conv(&mut self, spec: &Conv3dSpec, epilogue: &Epilogue, feat: Feat) -> Feat {
        let Feat::Map(map) = feat else {
            panic!("conv after flatten")
        };
        let inst = &self.net.instances[self.conv_idx];
        assert_eq!(inst.spec.name, spec.name, "conv walk order mismatch");
        let (out, stats) = match &mut self.convs {
            Convs::Cycle(pruned, acc) => {
                let (mut out, stats) = run_conv_with_scratch(
                    inst,
                    &self.net.conv_weights[&spec.name],
                    &map,
                    pruned.mask(&spec.name),
                    &self.net.config,
                    acc,
                );
                PostProcessor::epilogue(&mut out, epilogue);
                (out, stats)
            }
            Convs::Compiled(layers) => layers[self.conv_idx].run(&map),
        };
        self.conv_idx += 1;
        self.accumulate(stats);
        Feat::Map(out)
    }

    fn step(&mut self, node: &Node, feat: Feat) -> Feat {
        match node {
            Node::Conv(_) => unreachable!("convs run as stages in `walk`"),
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
            Node::MaxPool {
                kernel,
                stride,
                pad,
            } => {
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
        let fused: Vec<_> = q
            .epilogues
            .iter()
            .map(|e| (e.bias.is_some(), e.batch_norm.is_some(), e.relu))
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
        assert_eq!(q.bn_folded.len(), 1, "the pooled batch norm stands alone");
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
            let (certified, total) = layers[0].certified_groups();
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
