//! Scaled-down, trainable variants of R(2+1)D and C3D.
//!
//! The full networks (33 M / 78 M parameters, 40+ GMACs per clip) are far
//! beyond what a from-scratch CPU training stack can train in reasonable
//! time; they are used analytically (Tables I–IV). These "lite" variants
//! keep every architectural ingredient — (2+1)D factorisation with the
//! midplane formula, residual units, projected shortcuts with combined
//! spatio-temporal downsampling, batch norm, global average pooling — at
//! a width and resolution that trains in minutes on the synthetic motion
//! dataset. The accuracy experiments (paper §V: pruned vs unpruned
//! accuracy) run on these.

use crate::r2plus1d::midplanes;
use crate::spec::{Conv3dSpec, NetworkSpec, Node};

fn conv(
    name: String,
    stage: &str,
    m: usize,
    n: usize,
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
) -> Node {
    Node::Conv(Conv3dSpec {
        name,
        stage: stage.to_string(),
        out_channels: m,
        in_channels: n,
        kernel,
        stride,
        pad,
        bias: false,
    })
}

fn conv2plus1d(
    name: &str,
    stage: &str,
    m: usize,
    n: usize,
    stride: (usize, usize, usize),
    nodes: &mut Vec<Node>,
) {
    let mid = midplanes(n, m, 3, 3).max(1);
    nodes.push(conv(
        format!("{name}.spatial"),
        stage,
        mid,
        n,
        (1, 3, 3),
        (1, stride.1, stride.2),
        (0, 1, 1),
    ));
    nodes.push(Node::BatchNorm { channels: mid });
    nodes.push(Node::Relu);
    nodes.push(conv(
        format!("{name}.temporal"),
        stage,
        m,
        mid,
        (3, 1, 1),
        (stride.0, 1, 1),
        (1, 0, 0),
    ));
}

fn residual_unit(stage_idx: usize, in_ch: usize, out_ch: usize, downsample: bool) -> Node {
    let stage = format!("conv{stage_idx}_x");
    let stride = if downsample { (2, 2, 2) } else { (1, 1, 1) };
    let mut main = Vec::new();
    conv2plus1d(
        &format!("conv{stage_idx}_1a"),
        &stage,
        out_ch,
        in_ch,
        stride,
        &mut main,
    );
    main.push(Node::BatchNorm { channels: out_ch });
    main.push(Node::Relu);
    conv2plus1d(
        &format!("conv{stage_idx}_1b"),
        &stage,
        out_ch,
        out_ch,
        (1, 1, 1),
        &mut main,
    );
    main.push(Node::BatchNorm { channels: out_ch });
    let shortcut = if downsample || in_ch != out_ch {
        Some(vec![
            conv(
                format!("conv{stage_idx}_sc"),
                &stage,
                out_ch,
                in_ch,
                (1, 1, 1),
                stride,
                (0, 0, 0),
            ),
            Node::BatchNorm { channels: out_ch },
        ])
    } else {
        None
    };
    Node::Residual { main, shortcut }
}

/// A small R(2+1)D for `(1, 8, 24, 24)` clips: a (2+1)D stem, one
/// identity residual unit at width 12 (`conv2_x`) and one downsampling
/// residual unit to width 24 (`conv3_x`), then global pooling and an FC
/// classifier. ~25 k conv parameters.
pub fn r2plus1d_lite(num_classes: usize) -> NetworkSpec {
    let mut nodes = Vec::new();
    // Stem: spatial 1x5x5 stride (1,2,2) then temporal 3x1x1 (mirrors
    // conv1 of the full model, narrower).
    nodes.push(conv(
        "conv1.spatial".into(),
        "conv1",
        8,
        1,
        (1, 5, 5),
        (1, 2, 2),
        (0, 2, 2),
    ));
    nodes.push(Node::BatchNorm { channels: 8 });
    nodes.push(Node::Relu);
    nodes.push(conv(
        "conv1.temporal".into(),
        "conv1",
        12,
        8,
        (3, 1, 1),
        (1, 1, 1),
        (1, 0, 0),
    ));
    nodes.push(Node::BatchNorm { channels: 12 });
    nodes.push(Node::Relu);

    nodes.push(residual_unit(2, 12, 12, false));
    nodes.push(residual_unit(3, 12, 24, true));

    nodes.push(Node::GlobalAvgPool);
    nodes.push(Node::Linear {
        name: "fc".into(),
        out_features: num_classes,
        in_features: 24,
    });
    NetworkSpec {
        name: "R(2+1)D-lite".into(),
        input: (1, 8, 24, 24),
        nodes,
    }
}

/// A wider trainable R(2+1)D (widths 16/32, ~55 k conv parameters) for
/// the accuracy experiments: at the paper's 90%/80% stage pruning
/// ratios, the pruned capacity still comfortably covers the synthetic
/// task — mirroring how heavily overparameterised R(2+1)D-18 is for
/// UCF101, which is what makes the paper's accuracy deltas negligible.
pub fn r2plus1d_lite_wide(num_classes: usize) -> NetworkSpec {
    let mut nodes = Vec::new();
    nodes.push(conv(
        "conv1.spatial".into(),
        "conv1",
        10,
        1,
        (1, 5, 5),
        (1, 2, 2),
        (0, 2, 2),
    ));
    nodes.push(Node::BatchNorm { channels: 10 });
    nodes.push(Node::Relu);
    nodes.push(conv(
        "conv1.temporal".into(),
        "conv1",
        16,
        10,
        (3, 1, 1),
        (1, 1, 1),
        (1, 0, 0),
    ));
    nodes.push(Node::BatchNorm { channels: 16 });
    nodes.push(Node::Relu);
    nodes.push(residual_unit(2, 16, 16, false));
    nodes.push(residual_unit(3, 16, 32, true));
    nodes.push(Node::GlobalAvgPool);
    nodes.push(Node::Linear {
        name: "fc".into(),
        out_features: num_classes,
        in_features: 32,
    });
    NetworkSpec {
        name: "R(2+1)D-lite-wide".into(),
        input: (1, 8, 24, 24),
        nodes,
    }
}

/// An even smaller R(2+1)D for fast unit tests: stem + one residual unit
/// on `(1, 6, 16, 16)` clips.
pub fn r2plus1d_micro(num_classes: usize) -> NetworkSpec {
    let mut nodes = Vec::new();
    nodes.push(conv(
        "conv1.spatial".into(),
        "conv1",
        6,
        1,
        (1, 3, 3),
        (1, 2, 2),
        (0, 1, 1),
    ));
    nodes.push(Node::BatchNorm { channels: 6 });
    nodes.push(Node::Relu);
    nodes.push(conv(
        "conv1.temporal".into(),
        "conv1",
        8,
        6,
        (3, 1, 1),
        (1, 1, 1),
        (1, 0, 0),
    ));
    nodes.push(Node::BatchNorm { channels: 8 });
    nodes.push(Node::Relu);
    nodes.push(residual_unit(2, 8, 8, false));
    nodes.push(Node::GlobalAvgPool);
    nodes.push(Node::Linear {
        name: "fc".into(),
        out_features: num_classes,
        in_features: 8,
    });
    NetworkSpec {
        name: "R(2+1)D-micro".into(),
        input: (1, 6, 16, 16),
        nodes,
    }
}

/// A small C3D analogue for `(1, 8, 24, 24)` clips: three `3x3x3`
/// convolutions with interleaved pooling, global pooling, FC.
pub fn c3d_lite(num_classes: usize) -> NetworkSpec {
    let conv3 = |name: &str, stage: &str, m: usize, n: usize| {
        conv(
            name.to_string(),
            stage,
            m,
            n,
            (3, 3, 3),
            (1, 1, 1),
            (1, 1, 1),
        )
    };
    let nodes = vec![
        conv3("conv1a", "conv1", 8, 1),
        Node::BatchNorm { channels: 8 },
        Node::Relu,
        Node::MaxPool {
            kernel: (1, 2, 2),
            stride: (1, 2, 2),
            pad: (0, 0, 0),
        },
        conv3("conv2a", "conv2", 16, 8),
        Node::BatchNorm { channels: 16 },
        Node::Relu,
        Node::MaxPool {
            kernel: (2, 2, 2),
            stride: (2, 2, 2),
            pad: (0, 0, 0),
        },
        conv3("conv3a", "conv3", 24, 16),
        Node::BatchNorm { channels: 24 },
        Node::Relu,
        Node::GlobalAvgPool,
        Node::Linear {
            name: "fc".into(),
            out_features: num_classes,
            in_features: 24,
        },
    ];
    NetworkSpec {
        name: "C3D-lite".into(),
        input: (1, 8, 24, 24),
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lite_shape_checks() {
        for (spec, classes) in [
            (r2plus1d_lite(10), 10),
            (r2plus1d_micro(4), 4),
            (c3d_lite(10), 10),
        ] {
            assert_eq!(
                spec.output_shape().unwrap(),
                (classes, 1, 1, 1),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn lite_uses_midplane_formula() {
        let spec = r2plus1d_lite(10);
        let insts = spec.conv_instances().unwrap();
        let sp = insts
            .iter()
            .find(|i| i.spec.name == "conv2_1a.spatial")
            .unwrap();
        assert_eq!(sp.spec.out_channels, midplanes(12, 12, 3, 3));
    }

    #[test]
    fn lite_has_prunable_stages() {
        let spec = r2plus1d_lite(10);
        let stages = spec.stages().unwrap();
        assert!(stages.contains(&"conv2_x".to_string()));
        assert!(stages.contains(&"conv3_x".to_string()));
    }

    #[test]
    fn lite_is_actually_small() {
        let spec = r2plus1d_lite(10);
        let params = spec.conv_params().unwrap();
        assert!(params < 60_000, "lite model too big: {params}");
        let macs = spec.conv_macs().unwrap();
        assert!(macs < 30_000_000, "lite model too slow: {macs} MACs");
    }

    #[test]
    fn lite_wide_shape_and_size() {
        let spec = r2plus1d_lite_wide(10);
        assert_eq!(spec.output_shape().unwrap(), (10, 1, 1, 1));
        let params = spec.conv_params().unwrap();
        assert!((30_000..90_000).contains(&params), "{params}");
        // Wider than lite, as intended.
        assert!(params > r2plus1d_lite(10).conv_params().unwrap());
    }

    #[test]
    fn micro_is_tiny() {
        let spec = r2plus1d_micro(4);
        assert!(spec.conv_params().unwrap() < 5_000);
    }

    #[test]
    fn downsampling_halves_everything() {
        let spec = r2plus1d_lite(10);
        let insts = spec.conv_instances().unwrap();
        let last = insts
            .iter()
            .find(|i| i.spec.name == "conv3_1b.temporal")
            .unwrap();
        // (1,8,24,24) -> stem spatial /2 -> 12x12; conv3 halves all dims.
        assert_eq!(last.output, (24, 4, 6, 6));
    }
}
