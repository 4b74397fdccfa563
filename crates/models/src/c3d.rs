//! The standard C3D network (Tran et al., ICCV 2015) — the baseline the
//! paper compares against (its Table IV reimplements unpruned C3D on the
//! same board as \[13\]).

use crate::spec::{Conv3dSpec, NetworkSpec, Node};

fn conv(name: &str, m: usize, n: usize) -> Node {
    Node::Conv(Conv3dSpec {
        name: name.to_string(),
        stage: name
            .split(|c: char| c.is_ascii_digit())
            .next()
            .unwrap_or("conv")
            .to_string()
            + &name
                .chars()
                .filter(|c| c.is_ascii_digit())
                .take(1)
                .collect::<String>(),
        out_channels: m,
        in_channels: n,
        kernel: (3, 3, 3),
        stride: (1, 1, 1),
        pad: (1, 1, 1),
        bias: true,
    })
}

fn pool(kernel: (usize, usize, usize), pad: (usize, usize, usize)) -> Node {
    Node::MaxPool {
        kernel,
        stride: kernel,
        pad,
    }
}

/// Builds the full C3D specification for `(3, 16, 112, 112)` clips.
///
/// Architecture: 8 convolutions (all `3x3x3`, stride 1, pad 1), 5 max
/// pools, and 3 fully-connected layers (4096, 4096, classes). `pool1` is
/// `(1,2,2)` to preserve early temporal resolution; `pool5` pads
/// spatially so the `7x7` maps pool to `4x4`, giving the classic
/// `512*1*4*4 = 8192` flattened features.
pub fn c3d(num_classes: usize) -> NetworkSpec {
    c3d_for_input(num_classes, (3, 16, 112, 112))
}

/// C3D for an arbitrary input shape (the FC sizes adapt).
pub fn c3d_for_input(num_classes: usize, input: (usize, usize, usize, usize)) -> NetworkSpec {
    let nodes = vec![
        conv("conv1a", 64, input.0),
        Node::Relu,
        pool((1, 2, 2), (0, 0, 0)),
        conv("conv2a", 128, 64),
        Node::Relu,
        pool((2, 2, 2), (0, 0, 0)),
        conv("conv3a", 256, 128),
        Node::Relu,
        conv("conv3b", 256, 256),
        Node::Relu,
        pool((2, 2, 2), (0, 0, 0)),
        conv("conv4a", 512, 256),
        Node::Relu,
        conv("conv4b", 512, 512),
        Node::Relu,
        pool((2, 2, 2), (0, 0, 0)),
        conv("conv5a", 512, 512),
        Node::Relu,
        conv("conv5b", 512, 512),
        Node::Relu,
        pool((2, 2, 2), (0, 1, 1)),
    ];
    let mut spec = NetworkSpec {
        name: "C3D".into(),
        input,
        nodes,
    };
    // Resolve the flattened width after pool5, then append the FCs.
    let feat = spec.output_shape().expect("C3D trunk must shape-check");
    let flat = feat.0 * feat.1 * feat.2 * feat.3;
    spec.nodes.push(Node::Linear {
        name: "fc6".into(),
        out_features: 4096,
        in_features: flat,
    });
    spec.nodes.push(Node::Relu);
    spec.nodes.push(Node::Linear {
        name: "fc7".into(),
        out_features: 4096,
        in_features: 4096,
    });
    spec.nodes.push(Node::Relu);
    spec.nodes.push(Node::Linear {
        name: "fc8".into(),
        out_features: num_classes,
        in_features: 4096,
    });
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_convs_all_3x3x3() {
        let spec = c3d(101);
        let insts = spec.conv_instances().unwrap();
        assert_eq!(insts.len(), 8);
        assert!(insts.iter().all(|i| i.spec.kernel == (3, 3, 3)));
    }

    #[test]
    fn feature_map_progression() {
        let spec = c3d(101);
        let insts = spec.conv_instances().unwrap();
        let by_name = |n: &str| insts.iter().find(|i| i.spec.name == n).unwrap();
        assert_eq!(by_name("conv1a").output, (64, 16, 112, 112));
        assert_eq!(by_name("conv2a").input, (64, 16, 56, 56));
        assert_eq!(by_name("conv3a").input, (128, 8, 28, 28));
        assert_eq!(by_name("conv4a").input, (256, 4, 14, 14));
        assert_eq!(by_name("conv5a").input, (512, 2, 7, 7));
    }

    #[test]
    fn classifier_head_is_8192_wide() {
        let spec = c3d(101);
        let fc6 = spec.nodes.iter().find_map(|n| match n {
            Node::Linear {
                name, in_features, ..
            } if name == "fc6" => Some(*in_features),
            _ => None,
        });
        assert_eq!(fc6, Some(8192));
        assert_eq!(spec.output_shape().unwrap(), (101, 1, 1, 1));
    }

    #[test]
    fn macs_match_literature() {
        // C3D at 16x112x112 is ~38.5 GMACs (what [13] and Table IV call
        // 38.5 "GOP" under the 1-op-per-MAC convention).
        let spec = c3d(101);
        let gmacs = spec.conv_macs().unwrap() as f64 / 1e9;
        assert!((gmacs - 38.5).abs() < 0.3, "gmacs = {gmacs}");
    }

    #[test]
    fn conv_params_about_27m() {
        // C3D conv parameters are ~27.7 M (FCs add ~50 M more).
        let spec = c3d(101);
        let m = spec.conv_params().unwrap() as f64 / 1e6;
        assert!((m - 27.7).abs() < 0.5, "conv params = {m} M");
    }
}
