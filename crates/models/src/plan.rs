//! The stage plan: a [`NetworkSpec`] parsed once into a typed tree.
//!
//! [`NetworkSpec::plan`] is the one walk over a spec's [`Node`]s. It
//! resolves shapes, tracks whether features are a map or a vector, names
//! each batch norm, and groups each conv with the batch norm and ReLU
//! that directly follow it: the run the accelerator's post-processing
//! unit applies to a conv's output tile (Fig. 2). The trainable builder,
//! the simulator and the latency model all walk this tree, so they agree
//! on order and naming by construction.

use crate::spec::{ConvInstance, FeatShape, NetworkSpec, Node, SpecError};

/// A batch norm of the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bn {
    /// Parameter-name prefix: `bn{i}`, numbering the spec's batch-norm
    /// nodes in document order (depth-first, main path before shortcut).
    pub name: String,
    /// Feature channels.
    pub channels: usize,
}

/// A conv with the batch norm and the ReLU that directly follow it in
/// the spec (`conv -> [BatchNorm] -> [ReLU]`).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvStage {
    /// The conv with its resolved feature shapes.
    pub inst: ConvInstance,
    /// The batch norm right after the conv.
    pub batch_norm: Option<Bn>,
    /// A ReLU right after the conv, or after its batch norm.
    pub relu: bool,
}

/// Max pooling with `kernel`, `stride` and symmetric `pad`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    /// Pooling window.
    pub kernel: (usize, usize, usize),
    /// Stride.
    pub stride: (usize, usize, usize),
    /// Padding per side.
    pub pad: (usize, usize, usize),
}

/// A fully-connected layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinearStage {
    /// Layer name.
    pub name: String,
    /// Output features.
    pub out_features: usize,
    /// Input features.
    pub in_features: usize,
}

/// One stage of a [`Plan`]. A consumer mirrors the plan with payloads
/// of its own through [`Stage::map`], which swaps the conv payload `C`,
/// the batch-norm payload `B` and the linear payload `L`.
#[derive(Clone, Debug, PartialEq)]
pub enum Stage<C = ConvStage, B = Bn, L = LinearStage> {
    /// A conv stage.
    Conv(C),
    /// A batch norm that does not directly follow a conv.
    BatchNorm(B),
    /// A ReLU that no conv stage holds, on a map or a vector.
    Relu,
    /// Max pooling.
    MaxPool(Pool),
    /// Global spatio-temporal average pooling of a map to a vector.
    GlobalAvgPool,
    /// Flattening of a map to a vector, ahead of a linear layer that
    /// reads a map.
    Flatten,
    /// A fully-connected layer on a vector.
    Linear(L),
    /// `relu(main(x) + shortcut(x))`; `shortcut = None` is the identity.
    Residual {
        /// Main path.
        main: Vec<Stage<C, B, L>>,
        /// Projection shortcut.
        shortcut: Option<Vec<Stage<C, B, L>>>,
    },
}

impl<C, B, L> Stage<C, B, L> {
    /// This stage, residual paths included, with every conv, batch-norm
    /// and linear payload mapped through `conv`, `bn` and `linear`, in
    /// execution order.
    pub fn map<D, E, M>(
        &self,
        conv: &mut impl FnMut(&C) -> D,
        bn: &mut impl FnMut(&B) -> E,
        linear: &mut impl FnMut(&L) -> M,
    ) -> Stage<D, E, M> {
        match self {
            Stage::Conv(c) => Stage::Conv(conv(c)),
            Stage::BatchNorm(b) => Stage::BatchNorm(bn(b)),
            Stage::Relu => Stage::Relu,
            Stage::MaxPool(pool) => Stage::MaxPool(*pool),
            Stage::GlobalAvgPool => Stage::GlobalAvgPool,
            Stage::Flatten => Stage::Flatten,
            Stage::Linear(l) => Stage::Linear(linear(l)),
            Stage::Residual { main, shortcut } => {
                let mut path = |p: &[Self]| p.iter().map(|s| s.map(conv, bn, linear)).collect();
                Stage::Residual {
                    main: path(main),
                    shortcut: shortcut.as_deref().map(path),
                }
            }
        }
    }
}

/// A [`NetworkSpec`] parsed into stages ([`NetworkSpec::plan`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Top-level stages in execution order.
    pub stages: Vec<Stage>,
    /// The final feature shape; a vector of `n` features is
    /// `(n, 1, 1, 1)`.
    pub output: FeatShape,
}

impl Plan {
    /// Every stage, depth-first in execution order: a residual, then its
    /// main path, then its shortcut.
    pub fn iter(&self) -> impl Iterator<Item = &Stage> {
        fn push<'a>(stages: &'a [Stage], out: &mut Vec<&'a Stage>) {
            for stage in stages {
                out.push(stage);
                if let Stage::Residual { main, shortcut } = stage {
                    push(main, out);
                    push(shortcut.as_deref().unwrap_or_default(), out);
                }
            }
        }
        let mut out = Vec::new();
        push(&self.stages, &mut out);
        out.into_iter()
    }

    /// Every conv in execution order.
    pub fn convs(&self) -> impl Iterator<Item = &ConvInstance> {
        self.iter().filter_map(|stage| match stage {
            Stage::Conv(conv) => Some(&conv.inst),
            _ => None,
        })
    }
}

impl NetworkSpec {
    /// Parses the spec into its stage plan.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when a layer's input does not match what
    /// flows into it, when residual paths disagree, or when a layer that
    /// needs a feature map follows global pooling or a linear layer.
    pub fn plan(&self) -> Result<Plan, SpecError> {
        let mut bns = 0;
        let (stages, feat) = stages(&self.nodes, Feat::Map(self.input), &mut bns)?;
        let (Feat::Map(output) | Feat::Vector(output)) = feat;
        Ok(Plan { stages, output })
    }
}

/// The features flowing between stages; a vector of `n` is
/// `(n, 1, 1, 1)`.
#[derive(Clone, Copy)]
enum Feat {
    Map(FeatShape),
    Vector(FeatShape),
}

impl Feat {
    /// The map shape, or the error of `layer` reading a vector.
    fn map(self, layer: &str) -> Result<FeatShape, SpecError> {
        match self {
            Feat::Map(shape) => Ok(shape),
            Feat::Vector(_) => Err(SpecError::MapLayerOnVector {
                layer: layer.to_string(),
            }),
        }
    }
}

fn check_input(layer: &str, expected: usize, actual: usize) -> Result<(), SpecError> {
    if expected == actual {
        Ok(())
    } else {
        Err(SpecError::ChannelMismatch {
            layer: layer.to_string(),
            expected,
            actual,
        })
    }
}

fn conv_out3(
    input: (usize, usize, usize),
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
) -> (usize, usize, usize) {
    use p3d_tensor::shape::conv_out;
    (
        conv_out(input.0, kernel.0, stride.0, pad.0),
        conv_out(input.1, kernel.1, stride.1, pad.1),
        conv_out(input.2, kernel.2, stride.2, pad.2),
    )
}

/// The next batch norm on `feat`, named from the count `bns` of those
/// before it.
fn batch_norm(channels: usize, feat: Feat, bns: &mut usize) -> Result<Bn, SpecError> {
    let layer = format!("batchnorm({channels})");
    let (c, ..) = feat.map(&layer)?;
    check_input(&layer, channels, c)?;
    let bn = Bn {
        name: format!("bn{bns}"),
        channels,
    };
    *bns += 1;
    Ok(bn)
}

/// Plans `nodes` on the incoming `feat`, returning the stages and the
/// features they produce.
fn stages(
    nodes: &[Node],
    mut feat: Feat,
    bns: &mut usize,
) -> Result<(Vec<Stage>, Feat), SpecError> {
    let mut out = Vec::new();
    let mut nodes = nodes.iter().peekable();
    while let Some(node) = nodes.next() {
        let stage = match node {
            Node::Conv(spec) => {
                let (c, d, h, w) = feat.map(&spec.name)?;
                check_input(&spec.name, spec.in_channels, c)?;
                let (od, oh, ow) = conv_out3((d, h, w), spec.kernel, spec.stride, spec.pad);
                let output = (spec.out_channels, od, oh, ow);
                feat = Feat::Map(output);
                let batch_norm = match nodes.next_if(|n| matches!(n, Node::BatchNorm { .. })) {
                    Some(Node::BatchNorm { channels }) => Some(batch_norm(*channels, feat, bns)?),
                    _ => None,
                };
                Stage::Conv(ConvStage {
                    inst: ConvInstance {
                        spec: spec.clone(),
                        input: (c, d, h, w),
                        output,
                    },
                    batch_norm,
                    relu: nodes.next_if_eq(&&Node::Relu).is_some(),
                })
            }
            Node::BatchNorm { channels } => Stage::BatchNorm(batch_norm(*channels, feat, bns)?),
            Node::Relu => Stage::Relu,
            Node::MaxPool {
                kernel,
                stride,
                pad,
            } => {
                let (c, d, h, w) = feat.map("maxpool")?;
                let (od, oh, ow) = conv_out3((d, h, w), *kernel, *stride, *pad);
                feat = Feat::Map((c, od, oh, ow));
                Stage::MaxPool(Pool {
                    kernel: *kernel,
                    stride: *stride,
                    pad: *pad,
                })
            }
            Node::GlobalAvgPool => {
                let (c, ..) = feat.map("global_avg_pool")?;
                feat = Feat::Vector((c, 1, 1, 1));
                Stage::GlobalAvgPool
            }
            Node::Linear {
                name,
                out_features,
                in_features,
            } => {
                if let Feat::Map(_) = feat {
                    out.push(Stage::Flatten);
                }
                let (Feat::Map((c, d, h, w)) | Feat::Vector((c, d, h, w))) = feat;
                check_input(name, *in_features, c * d * h * w)?;
                feat = Feat::Vector((*out_features, 1, 1, 1));
                Stage::Linear(LinearStage {
                    name: name.clone(),
                    out_features: *out_features,
                    in_features: *in_features,
                })
            }
            Node::Residual { main, shortcut } => {
                let entry = Feat::Map(feat.map("residual")?);
                let (main, main_out) = stages(main, entry, bns)?;
                let (shortcut, short_out) = match shortcut {
                    Some(s) => {
                        let (s, out) = stages(s, entry, bns)?;
                        (Some(s), out)
                    }
                    None => (None, entry),
                };
                let (a, b) = (
                    main_out.map("residual add")?,
                    short_out.map("residual add")?,
                );
                if a != b {
                    return Err(SpecError::ResidualShapeMismatch {
                        main: a,
                        shortcut: b,
                    });
                }
                feat = Feat::Map(a);
                Stage::Residual { main, shortcut }
            }
        };
        out.push(stage);
    }
    Ok((out, feat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Conv3dSpec;

    fn conv(name: &str, m: usize, n: usize) -> Node {
        Node::Conv(Conv3dSpec {
            name: name.into(),
            stage: "s".into(),
            out_channels: m,
            in_channels: n,
            kernel: (1, 1, 1),
            stride: (1, 1, 1),
            pad: (0, 0, 0),
            bias: false,
        })
    }

    fn bn(i: usize, channels: usize) -> Bn {
        Bn {
            name: format!("bn{i}"),
            channels,
        }
    }

    /// What each conv stage holds, in execution order: its name, batch
    /// norm and ReLU.
    fn conv_stages(plan: &Plan) -> Vec<(String, Option<Bn>, bool)> {
        plan.iter()
            .filter_map(|stage| match stage {
                Stage::Conv(c) => Some((c.inst.spec.name.clone(), c.batch_norm.clone(), c.relu)),
                _ => None,
            })
            .collect()
    }

    /// Each conv absorbs only the batch norm and ReLU that directly
    /// follow it: not a batch norm after a pool, not the ReLU after a
    /// residual, and nothing inside a residual from outside it. The
    /// shortcut is planned after the main path, so its batch norm is
    /// named after the main path's.
    #[test]
    fn convs_absorb_only_their_direct_run() {
        let spec = NetworkSpec {
            name: "runs".into(),
            input: (2, 2, 4, 4),
            nodes: vec![
                conv("c1", 4, 2),
                Node::MaxPool {
                    kernel: (1, 2, 2),
                    stride: (1, 2, 2),
                    pad: (0, 0, 0),
                },
                Node::BatchNorm { channels: 4 },
                Node::Relu,
                Node::Residual {
                    main: vec![
                        conv("m1", 8, 4),
                        Node::Relu,
                        conv("m2", 8, 8),
                        Node::BatchNorm { channels: 8 },
                    ],
                    shortcut: Some(vec![conv("sc", 8, 4), Node::BatchNorm { channels: 8 }]),
                },
                Node::Relu,
                conv("c2", 8, 8),
                Node::Relu,
                Node::BatchNorm { channels: 8 },
                Node::GlobalAvgPool,
                Node::Linear {
                    name: "fc".into(),
                    out_features: 3,
                    in_features: 8,
                },
            ],
        };
        let plan = spec.plan().unwrap();
        assert_eq!(
            conv_stages(&plan),
            [
                ("c1".into(), None, false),
                ("m1".into(), None, true),
                ("m2".into(), Some(bn(1, 8)), false),
                ("sc".into(), Some(bn(2, 8)), false),
                ("c2".into(), None, true),
            ]
        );
        let top: Vec<_> = plan
            .stages
            .iter()
            .map(|stage| match stage {
                Stage::Conv { .. } => "conv",
                Stage::BatchNorm(_) => "bn",
                Stage::Relu => "relu",
                Stage::MaxPool(_) => "pool",
                Stage::GlobalAvgPool => "gap",
                Stage::Flatten => "flatten",
                Stage::Linear(_) => "linear",
                Stage::Residual { .. } => "residual",
            })
            .collect();
        assert_eq!(
            top,
            ["conv", "pool", "bn", "relu", "residual", "relu", "conv", "bn", "gap", "linear"]
        );
        assert_eq!(plan.stages[2], Stage::BatchNorm(bn(0, 4)));
        assert_eq!(plan.stages[7], Stage::BatchNorm(bn(3, 8)));
        assert_eq!(plan.output, (3, 1, 1, 1));
    }

    #[test]
    fn linear_on_a_map_is_flattened() {
        let spec = NetworkSpec {
            name: "flat".into(),
            input: (2, 1, 2, 2),
            nodes: vec![
                Node::Linear {
                    name: "fc".into(),
                    out_features: 3,
                    in_features: 8,
                },
                Node::Relu,
            ],
        };
        let plan = spec.plan().unwrap();
        assert!(matches!(
            plan.stages[..],
            [Stage::Flatten, Stage::Linear(_), Stage::Relu]
        ));
        assert_eq!(plan.output, (3, 1, 1, 1));
    }

    /// A conv, batch norm, pool or residual after pooling to a vector is
    /// rejected by name, where it used to shape-check and then panic in
    /// the builder and the simulator.
    #[test]
    fn map_layer_on_a_vector_is_rejected() {
        let pool = Node::MaxPool {
            kernel: (1, 1, 1),
            stride: (1, 1, 1),
            pad: (0, 0, 0),
        };
        let residual = Node::Residual {
            main: vec![],
            shortcut: None,
        };
        for (tail, layer) in [
            (conv("late", 2, 2), "late"),
            (Node::BatchNorm { channels: 2 }, "batchnorm(2)"),
            (pool, "maxpool"),
            (Node::GlobalAvgPool, "global_avg_pool"),
            (residual, "residual"),
        ] {
            for head in [
                vec![Node::GlobalAvgPool],
                vec![Node::Linear {
                    name: "fc".into(),
                    out_features: 2,
                    in_features: 64,
                }],
            ] {
                let spec = NetworkSpec {
                    name: "late".into(),
                    input: (2, 2, 4, 4),
                    nodes: head.into_iter().chain([tail.clone()]).collect(),
                };
                assert_eq!(
                    spec.plan(),
                    Err(SpecError::MapLayerOnVector {
                        layer: layer.into()
                    })
                );
            }
        }
    }

    #[test]
    fn residual_ending_in_a_vector_is_rejected() {
        let spec = NetworkSpec {
            name: "pooled residual".into(),
            input: (2, 2, 4, 4),
            nodes: vec![Node::Residual {
                main: vec![Node::GlobalAvgPool],
                shortcut: None,
            }],
        };
        assert_eq!(
            spec.plan(),
            Err(SpecError::MapLayerOnVector {
                layer: "residual add".into()
            })
        );
    }
}
