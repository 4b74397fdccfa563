//! The R(2+1)D-18 network of Tran et al. (CVPR 2018), as described in
//! Table I of the paper.
//!
//! Every 3D convolution is factorised into a `1xKxK` **spatial**
//! convolution followed by a `Kx1x1` **temporal** convolution with an
//! intermediate channel count `Mi` chosen so the factorised pair has
//! (approximately) the same parameter budget as the full 3D kernel:
//!
//! ```text
//! Mi = floor( t*d*d*N*M / (d*d*N + t*M) )      (t = d = 3)
//! ```
//!
//! This reproduces the parenthesised mid-channel values of Table I
//! (230, 460, 921) for the stage-entry units whose input width differs
//! from their output width, and 144/288/576/1152 elsewhere.

use crate::spec::{Conv3dSpec, NetworkSpec, Node};

/// Mid-channel count of an R(2+1)D factorisation of a `t x d x d` kernel
/// from `n` to `m` channels.
pub fn midplanes(n: usize, m: usize, t: usize, d: usize) -> usize {
    (t * d * d * n * m) / (d * d * n + t * m)
}

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

/// One (2+1)D convolution: spatial `1xdxd` (+BN+ReLU) then temporal
/// `tx1x1`. `stride` applies its spatial part to the spatial conv and its
/// temporal part to the temporal conv, as in the reference
/// implementation.
#[allow(clippy::too_many_arguments)]
fn conv2plus1d(
    name: &str,
    stage: &str,
    m: usize,
    n: usize,
    stride: (usize, usize, usize),
    t: usize,
    d: usize,
    nodes: &mut Vec<Node>,
) {
    let mid = midplanes(n, m, t, d);
    nodes.push(conv(
        format!("{name}.spatial"),
        stage,
        mid,
        n,
        (1, d, d),
        (1, stride.1, stride.2),
        (0, d / 2, d / 2),
    ));
    nodes.push(Node::BatchNorm { channels: mid });
    nodes.push(Node::Relu);
    nodes.push(conv(
        format!("{name}.temporal"),
        stage,
        m,
        mid,
        (t, 1, 1),
        (stride.0, 1, 1),
        (t / 2, 0, 0),
    ));
}

fn residual_unit(
    stage_idx: usize,
    unit_idx: usize,
    in_ch: usize,
    out_ch: usize,
    downsample: bool,
) -> Node {
    let stage = format!("conv{stage_idx}_x");
    let name = |suffix: &str| format!("conv{stage_idx}_{unit_idx}{suffix}");
    let stride = if downsample { (2, 2, 2) } else { (1, 1, 1) };

    let mut main = Vec::new();
    conv2plus1d(&name("a"), &stage, out_ch, in_ch, stride, 3, 3, &mut main);
    main.push(Node::BatchNorm { channels: out_ch });
    main.push(Node::Relu);
    conv2plus1d(
        &name("b"),
        &stage,
        out_ch,
        out_ch,
        (1, 1, 1),
        3,
        3,
        &mut main,
    );
    main.push(Node::BatchNorm { channels: out_ch });

    let shortcut = if downsample || in_ch != out_ch {
        // The paper's "shortcut with 2 layers": strided 1x1x1 conv + BN.
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

/// Builds the full R(2+1)D-18 specification for clips of
/// `(3, 16, 112, 112)` — the configuration of Table I.
pub fn r2plus1d_18(num_classes: usize) -> NetworkSpec {
    r2plus1d_18_for_input(num_classes, (3, 16, 112, 112))
}

/// R(2+1)D-18 for an arbitrary input shape (used by tests with smaller
/// clips; the architecture is unchanged).
pub fn r2plus1d_18_for_input(
    num_classes: usize,
    input: (usize, usize, usize, usize),
) -> NetworkSpec {
    let mut nodes = Vec::new();
    // conv1 / "stem": [1x7x7, 45] then [3x1x1, 64] (Table I).
    nodes.push(conv(
        "conv1.spatial".into(),
        "conv1",
        45,
        input.0,
        (1, 7, 7),
        (1, 2, 2),
        (0, 3, 3),
    ));
    nodes.push(Node::BatchNorm { channels: 45 });
    nodes.push(Node::Relu);
    nodes.push(conv(
        "conv1.temporal".into(),
        "conv1",
        64,
        45,
        (3, 1, 1),
        (1, 1, 1),
        (1, 0, 0),
    ));
    nodes.push(Node::BatchNorm { channels: 64 });
    nodes.push(Node::Relu);

    let widths = [64usize, 128, 256, 512];
    let mut in_ch = 64usize;
    for (i, &w) in widths.iter().enumerate() {
        let stage_idx = i + 2;
        let downsample = stage_idx > 2;
        nodes.push(residual_unit(stage_idx, 1, in_ch, w, downsample));
        nodes.push(residual_unit(stage_idx, 2, w, w, false));
        in_ch = w;
    }

    nodes.push(Node::GlobalAvgPool);
    nodes.push(Node::Linear {
        name: "fc".into(),
        out_features: num_classes,
        in_features: 512,
    });

    NetworkSpec {
        name: "R(2+1)D-18".into(),
        input,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midplanes_match_table1() {
        assert_eq!(midplanes(64, 64, 3, 3), 144);
        assert_eq!(midplanes(64, 128, 3, 3), 230);
        assert_eq!(midplanes(128, 128, 3, 3), 288);
        assert_eq!(midplanes(128, 256, 3, 3), 460);
        assert_eq!(midplanes(256, 256, 3, 3), 576);
        assert_eq!(midplanes(256, 512, 3, 3), 921);
        assert_eq!(midplanes(512, 512, 3, 3), 1152);
    }

    #[test]
    fn table1_output_sizes() {
        // Table I: conv1 and conv2_x keep 16x56x56; conv3_x 8x28x28;
        // conv4_x 4x14x14; conv5_x 2x7x7.
        let spec = r2plus1d_18(101);
        let insts = spec.conv_instances().unwrap();
        let out_of = |name: &str| {
            insts
                .iter()
                .find(|i| i.spec.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .output
        };
        assert_eq!(out_of("conv1.temporal"), (64, 16, 56, 56));
        assert_eq!(out_of("conv2_2b.temporal"), (64, 16, 56, 56));
        assert_eq!(out_of("conv3_2b.temporal"), (128, 8, 28, 28));
        assert_eq!(out_of("conv4_2b.temporal"), (256, 4, 14, 14));
        assert_eq!(out_of("conv5_2b.temporal"), (512, 2, 7, 7));
        assert_eq!(spec.output_shape().unwrap(), (101, 1, 1, 1));
    }

    #[test]
    fn table2_per_stage_parameters() {
        // Table II "Number of Parameters (M)" before pruning, by stage.
        let spec = r2plus1d_18(101);
        let insts = spec.conv_instances().unwrap();
        let params_of = |stage: &str| -> usize {
            insts
                .iter()
                .filter(|i| i.spec.stage == stage)
                .map(|i| i.spec.params())
                .sum()
        };
        assert_eq!(params_of("conv1"), 15_255); // 0.015 M
        assert_eq!(params_of("conv2_x"), 442_368); // 0.444 M
        assert_eq!(params_of("conv3_x"), 1_556_096); // 1.56 M
        assert_eq!(params_of("conv4_x"), 6_224_384); // 6.23 M
        assert_eq!(params_of("conv5_x"), 24_901_376); // 24.92 M
        let total: usize = spec.conv_params().unwrap();
        // Paper: 33.22 M (includes BN); conv-only is 33.14 M.
        assert!((total as f64 / 1e6 - 33.14).abs() < 0.01, "total {total}");
    }

    #[test]
    fn table2_per_stage_operations() {
        // Table II "Operations (giga)" before pruning, by stage
        // (ops = 2 x MACs at 16x112x112 input).
        let spec = r2plus1d_18(101);
        let insts = spec.conv_instances().unwrap();
        let gops_of = |stage: &str| -> f64 {
            insts
                .iter()
                .filter(|i| i.spec.stage == stage)
                .map(|i| i.ops() as f64)
                .sum::<f64>()
                / 1e9
        };
        assert!(
            (gops_of("conv1") - 1.53).abs() < 0.01,
            "{}",
            gops_of("conv1")
        );
        assert!(
            (gops_of("conv2_x") - 44.39).abs() < 0.05,
            "{}",
            gops_of("conv2_x")
        );
        assert!(
            (gops_of("conv3_x") - 21.21).abs() < 0.05,
            "{}",
            gops_of("conv3_x")
        );
        assert!(
            (gops_of("conv4_x") - 10.61).abs() < 0.05,
            "{}",
            gops_of("conv4_x")
        );
        assert!(
            (gops_of("conv5_x") - 5.31).abs() < 0.05,
            "{}",
            gops_of("conv5_x")
        );
        let total = spec.conv_ops().unwrap() as f64 / 1e9;
        assert!((total - 83.05).abs() < 0.1, "total {total}");
    }

    #[test]
    fn layer_count_matches_paper() {
        // Paper: 40 CONV layers = 2 (stem) + 4 stages x 8 primary + 3
        // shortcuts x 2 (counting conv+BN); we count conv tensors:
        // 2 + 32 + 3 = 37 distinct conv weight tensors.
        let spec = r2plus1d_18(101);
        assert_eq!(spec.conv_instances().unwrap().len(), 37);
    }

    #[test]
    fn stages_ordered() {
        let spec = r2plus1d_18(101);
        assert_eq!(
            spec.stages().unwrap(),
            vec!["conv1", "conv2_x", "conv3_x", "conv4_x", "conv5_x"]
        );
    }
}
