//! Network specifications: a declarative description of a 3D CNN from
//! which everything else is derived — trainable networks (`build`),
//! parameter/operation counts (`summary`), and FPGA latency/resource
//! models (the `p3d-fpga` crate).

use serde::{Deserialize, Serialize};

/// Specification of one 3D convolution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv3dSpec {
    /// Unique layer name, e.g. `"conv3_1.spatial"`.
    pub name: String,
    /// Stage label used for per-block reporting, e.g. `"conv3_x"`.
    pub stage: String,
    /// Output channels `M`.
    pub out_channels: usize,
    /// Input channels `N`.
    pub in_channels: usize,
    /// Kernel `(Kd, Kr, Kc)`.
    pub kernel: (usize, usize, usize),
    /// Stride `(Sd, Sr, Sc)`.
    pub stride: (usize, usize, usize),
    /// Padding `(Pd, Pr, Pc)`.
    pub pad: (usize, usize, usize),
    /// Whether the layer has a bias (convs followed by BN do not).
    pub bias: bool,
}

impl Conv3dSpec {
    /// Weight parameter count `M * N * Kd * Kr * Kc` (+ bias).
    pub fn params(&self) -> usize {
        let w =
            self.out_channels * self.in_channels * self.kernel.0 * self.kernel.1 * self.kernel.2;
        w + if self.bias { self.out_channels } else { 0 }
    }

    /// Multiply-accumulate count for the given output volume.
    pub fn macs(&self, out_volume: usize) -> usize {
        self.out_channels
            * self.in_channels
            * self.kernel.0
            * self.kernel.1
            * self.kernel.2
            * out_volume
    }
}

/// One node of a network graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// A 3D convolution.
    Conv(Conv3dSpec),
    /// Batch normalisation over `channels`.
    BatchNorm {
        /// Feature channels.
        channels: usize,
    },
    /// ReLU activation.
    Relu,
    /// Max pooling with `kernel`, `stride` and symmetric `pad`.
    MaxPool {
        /// Pooling window.
        kernel: (usize, usize, usize),
        /// Stride.
        stride: (usize, usize, usize),
        /// Padding per side (analytic only; the trainable builder
        /// rejects padded pooling).
        pad: (usize, usize, usize),
    },
    /// Global spatio-temporal average pooling to `[B, C]`.
    GlobalAvgPool,
    /// Fully-connected layer.
    Linear {
        /// Layer name.
        name: String,
        /// Output features.
        out_features: usize,
        /// Input features.
        in_features: usize,
    },
    /// Residual block: `relu(main(x) + shortcut(x))`; `shortcut = None`
    /// is the identity.
    Residual {
        /// Main path.
        main: Vec<Node>,
        /// Optional projection shortcut (the paper's "shortcut with 2
        /// layers": strided 1x1x1 conv + BN).
        shortcut: Option<Vec<Node>>,
    },
}

/// A complete network specification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Network name, e.g. `"R(2+1)D-18"`.
    pub name: String,
    /// Input clip shape `(C, D, H, W)` (no batch dimension).
    pub input: (usize, usize, usize, usize),
    /// Top-level nodes.
    pub nodes: Vec<Node>,
}

/// A feature-map shape `(C, D, H, W)` flowing between nodes.
pub type FeatShape = (usize, usize, usize, usize);

/// A convolution *instance*: its spec plus the resolved input/output
/// feature-map shapes. This is the unit the FPGA models consume.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConvInstance {
    /// The convolution specification.
    pub spec: Conv3dSpec,
    /// Input feature map `(N, Di, Hi, Wi)`.
    pub input: FeatShape,
    /// Output feature map `(M, Do, Ho, Wo)`.
    pub output: FeatShape,
}

impl ConvInstance {
    /// Output volume `Do * Ho * Wo`.
    pub fn out_volume(&self) -> usize {
        self.output.1 * self.output.2 * self.output.3
    }

    /// MAC count of this instance.
    pub fn macs(&self) -> usize {
        self.spec.macs(self.out_volume())
    }

    /// Operation count, 2 ops per MAC (multiply + add), the convention of
    /// the paper's Table II.
    pub fn ops(&self) -> usize {
        2 * self.macs()
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

/// Errors produced by shape inference over a [`NetworkSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A conv/linear input did not match the incoming feature map.
    ChannelMismatch {
        /// Offending layer name.
        layer: String,
        /// Channels the layer expects.
        expected: usize,
        /// Channels actually flowing in.
        actual: usize,
    },
    /// Residual main/shortcut output shapes disagree.
    ResidualShapeMismatch {
        /// Main-path output.
        main: FeatShape,
        /// Shortcut output.
        shortcut: FeatShape,
    },
    /// A linear layer appeared before pooling to a vector.
    LinearBeforeFlatten,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ChannelMismatch {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer}: expected {expected} input channels, got {actual}"
            ),
            SpecError::ResidualShapeMismatch { main, shortcut } => write!(
                f,
                "residual paths disagree: main {main:?} vs shortcut {shortcut:?}"
            ),
            SpecError::LinearBeforeFlatten => {
                write!(f, "linear layer before global pooling/flatten")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Walks `nodes` starting from `shape`, appending every conv instance to
/// `out`, and returns the final feature shape (or `None` once the map has
/// been pooled to a vector).
fn walk(
    nodes: &[Node],
    mut shape: Option<FeatShape>,
    out: &mut Vec<ConvInstance>,
) -> Result<Option<FeatShape>, SpecError> {
    for node in nodes {
        match node {
            Node::Conv(spec) => {
                let (c, d, h, w) = shape.ok_or(SpecError::LinearBeforeFlatten)?;
                if c != spec.in_channels {
                    return Err(SpecError::ChannelMismatch {
                        layer: spec.name.clone(),
                        expected: spec.in_channels,
                        actual: c,
                    });
                }
                let (od, oh, ow) = conv_out3((d, h, w), spec.kernel, spec.stride, spec.pad);
                out.push(ConvInstance {
                    spec: spec.clone(),
                    input: (c, d, h, w),
                    output: (spec.out_channels, od, oh, ow),
                });
                shape = Some((spec.out_channels, od, oh, ow));
            }
            Node::BatchNorm { channels } => {
                let (c, ..) = shape.ok_or(SpecError::LinearBeforeFlatten)?;
                if c != *channels {
                    return Err(SpecError::ChannelMismatch {
                        layer: format!("batchnorm({channels})"),
                        expected: *channels,
                        actual: c,
                    });
                }
            }
            Node::Relu => {}
            Node::MaxPool {
                kernel,
                stride,
                pad,
            } => {
                let (c, d, h, w) = shape.ok_or(SpecError::LinearBeforeFlatten)?;
                let (od, oh, ow) = conv_out3((d, h, w), *kernel, *stride, *pad);
                shape = Some((c, od, oh, ow));
            }
            Node::GlobalAvgPool => {
                let (c, ..) = shape.ok_or(SpecError::LinearBeforeFlatten)?;
                // The pooled vector is recorded as a (c, 1, 1, 1) shape so
                // the following linear layer can check its input width.
                shape = Some((c, 1, 1, 1));
            }
            Node::Linear {
                name,
                out_features,
                in_features,
            } => {
                if let Some((c, d, h, w)) = shape {
                    let flat = c * d * h * w;
                    if flat != *in_features {
                        return Err(SpecError::ChannelMismatch {
                            layer: name.clone(),
                            expected: *in_features,
                            actual: flat,
                        });
                    }
                }
                shape = Some((*out_features, 1, 1, 1));
            }
            Node::Residual { main, shortcut } => {
                let entry = shape;
                let main_out = walk(main, entry, out)?;
                let short_out = match shortcut {
                    Some(s) => walk(s, entry, out)?,
                    None => entry,
                };
                match (main_out, short_out) {
                    (Some(a), Some(b)) if a == b => shape = Some(a),
                    (Some(a), Some(b)) => {
                        return Err(SpecError::ResidualShapeMismatch {
                            main: a,
                            shortcut: b,
                        })
                    }
                    _ => return Err(SpecError::LinearBeforeFlatten),
                }
            }
        }
    }
    Ok(shape)
}

impl NetworkSpec {
    /// Resolves every convolution in execution order with its
    /// input/output feature-map shapes.
    pub fn conv_instances(&self) -> Result<Vec<ConvInstance>, SpecError> {
        let mut out = Vec::new();
        let (c, d, h, w) = self.input;
        walk(&self.nodes, Some((c, d, h, w)), &mut out)?;
        Ok(out)
    }

    /// The final feature shape (e.g. `(num_classes, 1, 1, 1)` for a
    /// classifier).
    pub fn output_shape(&self) -> Result<Option<FeatShape>, SpecError> {
        let mut scratch = Vec::new();
        let (c, d, h, w) = self.input;
        walk(&self.nodes, Some((c, d, h, w)), &mut scratch)
    }

    /// Total trainable parameters in convolution layers.
    pub fn conv_params(&self) -> Result<usize, SpecError> {
        Ok(self.conv_instances()?.iter().map(|c| c.spec.params()).sum())
    }

    /// Total MACs over all convolution layers.
    pub fn conv_macs(&self) -> Result<usize, SpecError> {
        Ok(self.conv_instances()?.iter().map(|c| c.macs()).sum())
    }

    /// Total conv operations (2 per MAC).
    pub fn conv_ops(&self) -> Result<usize, SpecError> {
        Ok(2 * self.conv_macs()?)
    }

    /// All distinct stage labels in first-appearance order.
    pub fn stages(&self) -> Result<Vec<String>, SpecError> {
        let mut stages = Vec::new();
        for inst in self.conv_instances()? {
            if !stages.contains(&inst.spec.stage) {
                stages.push(inst.spec.stage.clone());
            }
        }
        Ok(stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(name: &str, stage: &str, m: usize, n: usize, k: (usize, usize, usize)) -> Conv3dSpec {
        Conv3dSpec {
            name: name.into(),
            stage: stage.into(),
            out_channels: m,
            in_channels: n,
            kernel: k,
            stride: (1, 1, 1),
            pad: (k.0 / 2, k.1 / 2, k.2 / 2),
            bias: false,
        }
    }

    fn tiny_spec() -> NetworkSpec {
        NetworkSpec {
            name: "tiny".into(),
            input: (1, 4, 8, 8),
            nodes: vec![
                Node::Conv(conv("c1", "s1", 4, 1, (3, 3, 3))),
                Node::BatchNorm { channels: 4 },
                Node::Relu,
                Node::Residual {
                    main: vec![
                        Node::Conv(conv("c2", "s2", 4, 4, (1, 3, 3))),
                        Node::BatchNorm { channels: 4 },
                    ],
                    shortcut: None,
                },
                Node::GlobalAvgPool,
                Node::Linear {
                    name: "fc".into(),
                    out_features: 3,
                    in_features: 4,
                },
            ],
        }
    }

    #[test]
    fn conv_instances_resolved() {
        let spec = tiny_spec();
        let insts = spec.conv_instances().unwrap();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].output, (4, 4, 8, 8));
        assert_eq!(insts[1].input, (4, 4, 8, 8));
    }

    #[test]
    fn params_and_macs() {
        let spec = tiny_spec();
        // c1: 4*1*27 = 108; c2: 4*4*9 = 144.
        assert_eq!(spec.conv_params().unwrap(), 252);
        // volume 4*8*8 = 256 for both convs.
        assert_eq!(spec.conv_macs().unwrap(), 108 * 256 + 144 * 256);
        assert_eq!(spec.conv_ops().unwrap(), 2 * spec.conv_macs().unwrap());
    }

    #[test]
    fn output_is_classifier_vector() {
        let spec = tiny_spec();
        assert_eq!(spec.output_shape().unwrap(), Some((3, 1, 1, 1)));
    }

    #[test]
    fn stages_in_order() {
        assert_eq!(tiny_spec().stages().unwrap(), vec!["s1", "s2"]);
    }

    #[test]
    fn channel_mismatch_detected() {
        let mut spec = tiny_spec();
        if let Node::Conv(c) = &mut spec.nodes[0] {
            c.in_channels = 2;
        }
        match spec.conv_instances() {
            Err(SpecError::ChannelMismatch {
                expected, actual, ..
            }) => {
                assert_eq!((expected, actual), (2, 1));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn residual_mismatch_detected() {
        let spec = NetworkSpec {
            name: "bad".into(),
            input: (2, 2, 4, 4),
            nodes: vec![Node::Residual {
                main: vec![Node::Conv(conv("m", "s", 4, 2, (1, 1, 1)))],
                shortcut: None,
            }],
        };
        assert!(matches!(
            spec.conv_instances(),
            Err(SpecError::ResidualShapeMismatch { .. })
        ));
    }

    #[test]
    fn strided_pooling_shapes() {
        let spec = NetworkSpec {
            name: "pool".into(),
            input: (1, 16, 112, 112),
            nodes: vec![Node::MaxPool {
                kernel: (2, 2, 2),
                stride: (2, 2, 2),
                pad: (0, 1, 1),
            }],
        };
        // C3D pool5-style: (7+2-2)/2+1 = 4 when input is 7.
        let spec7 = NetworkSpec {
            input: (1, 2, 7, 7),
            ..spec.clone()
        };
        let mut v = Vec::new();
        let end = walk(&spec7.nodes, Some((1, 2, 7, 7)), &mut v).unwrap();
        assert_eq!(end, Some((1, 1, 4, 4)));
    }
}
