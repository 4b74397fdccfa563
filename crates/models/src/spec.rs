//! Network specifications: a declarative description of a 3D CNN from
//! which everything else is derived, through its stage plan (`plan`) —
//! trainable networks (`build`), parameter/operation counts (`summary`),
//! and FPGA latency/resource models and the simulator (the `p3d-fpga`
//! crate).

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
    /// A layer that needs a feature map (a conv, batch norm, pool or
    /// residual) reads a vector: it follows global pooling or a linear
    /// layer.
    MapLayerOnVector {
        /// Offending layer name.
        layer: String,
    },
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
            SpecError::MapLayerOnVector { layer } => {
                write!(f, "layer {layer} needs a feature map but reads a vector")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl NetworkSpec {
    /// Resolves every convolution in execution order with its
    /// input/output feature-map shapes.
    pub fn conv_instances(&self) -> Result<Vec<ConvInstance>, SpecError> {
        Ok(self.plan()?.convs().cloned().collect())
    }

    /// The final feature shape (e.g. `(num_classes, 1, 1, 1)` for a
    /// classifier).
    pub fn output_shape(&self) -> Result<FeatShape, SpecError> {
        Ok(self.plan()?.output)
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
        assert_eq!(spec.output_shape().unwrap(), (3, 1, 1, 1));
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
        assert_eq!(spec7.output_shape().unwrap(), (1, 1, 4, 4));
    }
}
