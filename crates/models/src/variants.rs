//! Sibling 18-layer 3D ResNet variants from Tran et al. (CVPR 2018):
//! R3D (full 3D kernels throughout) and MC3 ("mixed convolution": 3D in
//! the first residual stage, 2D after). The paper's related-work section
//! positions R(2+1)D against exactly these; having them as specs lets
//! the harness compare parameter/ops/latency across the family on the
//! same accelerator (`bench --bin architectures`).

use crate::spec::{Conv3dSpec, NetworkSpec, Node};

fn conv(
    name: String,
    stage: &str,
    m: usize,
    n: usize,
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
) -> Node {
    Node::Conv(Conv3dSpec {
        name,
        stage: stage.to_string(),
        out_channels: m,
        in_channels: n,
        pad: (kernel.0 / 2, kernel.1 / 2, kernel.2 / 2),
        kernel,
        stride,
        bias: false,
    })
}

/// Kernel selector per stage: R3D uses `3x3x3` everywhere; MC3 uses
/// `3x3x3` in conv2_x and `1x3x3` afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavor {
    R3d,
    Mc3,
}

impl Flavor {
    fn kernel(&self, stage_idx: usize) -> (usize, usize, usize) {
        match self {
            Flavor::R3d => (3, 3, 3),
            Flavor::Mc3 => {
                if stage_idx <= 2 {
                    (3, 3, 3)
                } else {
                    (1, 3, 3)
                }
            }
        }
    }

    /// MC3's 2D stages do not downsample time (their kernels cannot see
    /// across frames anyway, but the reference design still strides
    /// spatially only after the 3D stages... Tran et al. keep temporal
    /// striding in MCx; we follow the reference and stride (2,2,2)).
    fn stride(&self, downsample: bool) -> (usize, usize, usize) {
        if downsample {
            (2, 2, 2)
        } else {
            (1, 1, 1)
        }
    }
}

fn residual_unit(
    flavor: Flavor,
    stage_idx: usize,
    unit: usize,
    in_ch: usize,
    out_ch: usize,
    downsample: bool,
) -> Node {
    let stage = format!("conv{stage_idx}_x");
    let kernel = flavor.kernel(stage_idx);
    let stride = flavor.stride(downsample);
    let mut main = vec![
        conv(
            format!("conv{stage_idx}_{unit}a"),
            &stage,
            out_ch,
            in_ch,
            kernel,
            stride,
        ),
        Node::BatchNorm { channels: out_ch },
        Node::Relu,
        conv(
            format!("conv{stage_idx}_{unit}b"),
            &stage,
            out_ch,
            out_ch,
            kernel,
            (1, 1, 1),
        ),
        Node::BatchNorm { channels: out_ch },
    ];
    let shortcut = if downsample || in_ch != out_ch {
        Some(vec![
            conv(
                format!("conv{stage_idx}_sc"),
                &stage,
                out_ch,
                in_ch,
                (1, 1, 1),
                stride,
            ),
            Node::BatchNorm { channels: out_ch },
        ])
    } else {
        None
    };
    // `main` is moved; rebuild as Residual.
    let main_nodes = std::mem::take(&mut main);
    Node::Residual {
        main: main_nodes,
        shortcut,
    }
}

fn build_18(name: &str, flavor: Flavor, num_classes: usize) -> NetworkSpec {
    let mut nodes = vec![
        // The R3D/MC3 stem: a single 3x7x7 stride (1,2,2) convolution.
        conv("conv1".into(), "conv1", 64, 3, (3, 7, 7), (1, 2, 2)),
        Node::BatchNorm { channels: 64 },
        Node::Relu,
    ];
    let widths = [64usize, 128, 256, 512];
    let mut in_ch = 64;
    for (i, &w) in widths.iter().enumerate() {
        let stage_idx = i + 2;
        let ds = stage_idx > 2;
        nodes.push(residual_unit(flavor, stage_idx, 1, in_ch, w, ds));
        nodes.push(residual_unit(flavor, stage_idx, 2, w, w, false));
        in_ch = w;
    }
    nodes.push(Node::GlobalAvgPool);
    nodes.push(Node::Linear {
        name: "fc".into(),
        out_features: num_classes,
        in_features: 512,
    });
    NetworkSpec {
        name: name.into(),
        input: (3, 16, 112, 112),
        nodes,
    }
}

/// R3D-18: the all-3D 18-layer ResNet baseline.
pub fn r3d_18(num_classes: usize) -> NetworkSpec {
    build_18("R3D-18", Flavor::R3d, num_classes)
}

/// MC3-18: 3D convolutions in `conv2_x`, 2D (`1x3x3`) afterwards.
pub fn mc3_18(num_classes: usize) -> NetworkSpec {
    build_18("MC3-18", Flavor::Mc3, num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r2plus1d::r2plus1d_18;

    #[test]
    fn r3d_shape_checks_and_is_heavier_than_r2plus1d() {
        let r3d = r3d_18(101);
        assert_eq!(r3d.output_shape().unwrap(), (101, 1, 1, 1));
        // R3D-18 is ~33.2 M conv params — nearly identical to R(2+1)D by
        // construction of the midplane formula.
        let p_r3d = r3d.conv_params().unwrap();
        let p_r21 = r2plus1d_18(101).conv_params().unwrap();
        assert!(
            (p_r3d as f64 / p_r21 as f64 - 1.0).abs() < 0.02,
            "{p_r3d} vs {p_r21}"
        );
    }

    #[test]
    fn mc3_lighter_than_r3d() {
        let mc3 = mc3_18(101);
        assert_eq!(mc3.output_shape().unwrap(), (101, 1, 1, 1));
        let p_mc3 = mc3.conv_params().unwrap();
        let p_r3d = r3d_18(101).conv_params().unwrap();
        assert!(
            p_mc3 < p_r3d,
            "MC3 should drop the temporal taps of the top stages"
        );
        // Dropping Kd=3 -> 1 in conv3..conv5 removes roughly 2/3 of
        // their weights; whole-model reduction lands near 2.9x.
        let ratio = p_r3d as f64 / p_mc3 as f64;
        assert!((2.0..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn stage_structure_matches_family() {
        for spec in [r3d_18(101), mc3_18(101)] {
            assert_eq!(
                spec.stages().unwrap(),
                vec!["conv1", "conv2_x", "conv3_x", "conv4_x", "conv5_x"],
                "{}",
                spec.name
            );
            // 1 stem + 4 stages x 4 convs + 3 shortcuts = 20 conv tensors.
            assert_eq!(spec.conv_instances().unwrap().len(), 20, "{}", spec.name);
        }
    }

    #[test]
    fn feature_maps_match_r2plus1d_grid() {
        // Same downsampling points: 16x56x56 after conv2, 2x7x7 at conv5.
        let spec = r3d_18(101);
        let insts = spec.conv_instances().unwrap();
        let last = insts
            .iter()
            .rev()
            .find(|i| i.spec.stage == "conv5_x")
            .unwrap();
        assert_eq!((last.output.1, last.output.2, last.output.3), (2, 7, 7));
    }
}
