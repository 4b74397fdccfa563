//! Property-based cross-checks between the three consumers of
//! `NetworkSpec`: the analytic shape inference, the trainable builder,
//! and the parameter counters must all agree on randomly generated
//! architectures.

use p3d_models::{build_network, Conv3dSpec, NetworkSpec, Node};
use p3d_nn::{Layer, LayerExt, Mode, ParamKind};
use p3d_tensor::TensorRng;
use proptest::prelude::*;

/// A random but valid small spec: stem conv, optional residual unit,
/// optional pool, classifier head.
fn arb_spec() -> impl Strategy<Value = NetworkSpec> {
    (
        1usize..4, // input channels
        2usize..5, // frames
        prop::sample::select(vec![8usize, 10, 12]),
        2usize..6, // stem width
        prop::sample::select(vec![(1usize, 3usize, 3usize), (3, 1, 1), (3, 3, 3)]),
        any::<bool>(), // residual unit?
        any::<bool>(), // with projection (wider)?
        2usize..5,     // classes
    )
        .prop_map(|(cin, d, hw, width, kernel, residual, project, classes)| {
            let mut nodes = vec![
                Node::Conv(Conv3dSpec {
                    name: "stem".into(),
                    stage: "conv1".into(),
                    out_channels: width,
                    in_channels: cin,
                    pad: (kernel.0 / 2, kernel.1 / 2, kernel.2 / 2),
                    kernel,
                    stride: (1, 1, 1),
                    bias: false,
                }),
                Node::BatchNorm { channels: width },
                Node::Relu,
            ];
            let mut out_width = width;
            if residual {
                let target = if project { width + 2 } else { width };
                let conv = |name: &str, m: usize, n: usize| {
                    Node::Conv(Conv3dSpec {
                        name: name.into(),
                        stage: "conv2_x".into(),
                        out_channels: m,
                        in_channels: n,
                        kernel: (1, 3, 3),
                        stride: (1, 1, 1),
                        pad: (0, 1, 1),
                        bias: false,
                    })
                };
                let main = vec![
                    conv("u1a", target, width),
                    Node::BatchNorm { channels: target },
                    Node::Relu,
                    conv("u1b", target, target),
                    Node::BatchNorm { channels: target },
                ];
                let shortcut = if project {
                    Some(vec![
                        Node::Conv(Conv3dSpec {
                            name: "sc".into(),
                            stage: "conv2_x".into(),
                            out_channels: target,
                            in_channels: width,
                            kernel: (1, 1, 1),
                            stride: (1, 1, 1),
                            pad: (0, 0, 0),
                            bias: false,
                        }),
                        Node::BatchNorm { channels: target },
                    ])
                } else {
                    None
                };
                nodes.push(Node::Residual { main, shortcut });
                out_width = target;
            }
            nodes.push(Node::GlobalAvgPool);
            nodes.push(Node::Linear {
                name: "fc".into(),
                out_features: classes,
                in_features: out_width,
            });
            NetworkSpec {
                name: "arb".into(),
                input: (cin, d, hw, hw),
                nodes,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn built_network_matches_spec_shape(spec in arb_spec(), seed in 0u64..100) {
        let expected = spec.output_shape().unwrap();
        let mut net = build_network(&spec, seed);
        let (c, d, h, w) = spec.input;
        let mut rng = TensorRng::seed(seed + 1);
        let x = rng.uniform_tensor([2, c, d, h, w], -1.0, 1.0);
        let y = net.forward(&x, Mode::Eval);
        let shape = y.shape();
        prop_assert_eq!(shape.dims(), &[2, expected.0]);
    }

    #[test]
    fn built_conv_params_match_counters(spec in arb_spec(), seed in 0u64..100) {
        let mut net = build_network(&spec, seed);
        let mut built = 0usize;
        net.visit_params(&mut |p| {
            if p.kind == ParamKind::ConvWeight {
                built += p.len();
            }
        });
        prop_assert_eq!(built, spec.conv_params().unwrap());
    }

    #[test]
    fn training_mode_backward_runs(spec in arb_spec(), seed in 0u64..50) {
        // Forward(Train) then backward must succeed and touch every param.
        let mut net = build_network(&spec, seed);
        let (c, d, h, w) = spec.input;
        let mut rng = TensorRng::seed(seed + 2);
        let x = rng.uniform_tensor([1, c, d, h, w], -1.0, 1.0);
        let y = net.forward(&x, Mode::Train);
        let g = rng.uniform_tensor(y.shape(), -1.0, 1.0);
        let _ = net.backward(&g);
        let mut any_nonzero = false;
        net.visit_params(&mut |p| {
            if p.grad.frobenius_norm() > 0.0 {
                any_nonzero = true;
            }
        });
        prop_assert!(any_nonzero, "backward produced no gradients");
        net.zero_grads();
    }

    #[test]
    fn conv_instances_count_matches_built_conv_tensors(spec in arb_spec(), seed in 0u64..50) {
        let mut net = build_network(&spec, seed);
        let mut conv_tensors = 0usize;
        net.visit_params(&mut |p| {
            if p.kind == ParamKind::ConvWeight {
                conv_tensors += 1;
            }
        });
        prop_assert_eq!(conv_tensors, spec.conv_instances().unwrap().len());
    }
}
