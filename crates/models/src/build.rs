//! Builds trainable `p3d-nn` networks from [`NetworkSpec`]s.

use crate::spec::{NetworkSpec, Node};
use p3d_nn::{
    BatchNorm3d, Conv3d, Flatten, GlobalAvgPool, Linear, MaxPool3d, Relu, ResidualBlock, Sequential,
};
use p3d_tensor::TensorRng;

fn build_nodes(
    nodes: &[Node],
    rng: &mut TensorRng,
    flat: &mut bool,
    bn_counter: &mut usize,
) -> Sequential {
    let mut seq = Sequential::new();
    for node in nodes {
        match node {
            Node::Conv(c) => {
                seq.add(Box::new(Conv3d::new(
                    &c.name,
                    c.out_channels,
                    c.in_channels,
                    c.kernel,
                    c.stride,
                    c.pad,
                    c.bias,
                    rng,
                )));
            }
            Node::BatchNorm { channels } => {
                // Names are indexed in document order (depth-first, main
                // before shortcut) so external consumers — notably the
                // FPGA simulator's parameter extraction — can re-derive
                // them by walking the spec the same way.
                seq.add(Box::new(BatchNorm3d::new(
                    &format!("bn{bn_counter}"),
                    *channels,
                )));
                *bn_counter += 1;
            }
            Node::Relu => seq.add(Box::new(Relu::new())),
            Node::MaxPool {
                kernel,
                stride,
                pad,
            } => {
                assert_eq!(
                    *pad,
                    (0, 0, 0),
                    "the trainable builder does not support padded pooling; \
                     padded pools exist only in analytic specs"
                );
                seq.add(Box::new(MaxPool3d::new(*kernel, *stride)));
            }
            Node::GlobalAvgPool => {
                seq.add(Box::new(GlobalAvgPool::new()));
                *flat = true;
            }
            Node::Linear {
                name,
                out_features,
                in_features,
            } => {
                if !*flat {
                    seq.add(Box::new(Flatten::new()));
                    *flat = true;
                }
                seq.add(Box::new(Linear::new(
                    name,
                    *out_features,
                    *in_features,
                    true,
                    rng,
                )));
            }
            Node::Residual { main, shortcut } => {
                let main_seq = build_nodes(main, rng, flat, bn_counter);
                let block = match shortcut {
                    Some(s) => {
                        ResidualBlock::projected(main_seq, build_nodes(s, rng, flat, bn_counter))
                    }
                    None => ResidualBlock::identity(main_seq),
                };
                seq.add(Box::new(block));
            }
        }
    }
    seq
}

/// Instantiates a trainable network from a specification, with
/// deterministic Kaiming initialisation from `seed`.
///
/// Batch-norm parameter names are derived from channel counts and layer
/// position; convolution and linear parameters keep their spec names, so
/// the ADMM pruner can target spec layers by name.
pub fn build_network(spec: &NetworkSpec, seed: u64) -> Sequential {
    let mut rng = TensorRng::seed(seed);
    let mut flat = false;
    let mut bn_counter = 0usize;
    build_nodes(&spec.nodes, &mut rng, &mut flat, &mut bn_counter)
}

/// Enumerates the batch-norm node names (`bn0`, `bn1`, ...) in the same
/// document order [`build_network`] assigns them, paired with each node's
/// channel count. Used to re-associate exported running statistics with
/// spec nodes.
pub fn bn_names(spec: &NetworkSpec) -> Vec<(String, usize)> {
    fn walk(nodes: &[Node], counter: &mut usize, out: &mut Vec<(String, usize)>) {
        for node in nodes {
            match node {
                Node::BatchNorm { channels } => {
                    out.push((format!("bn{counter}"), *channels));
                    *counter += 1;
                }
                Node::Residual { main, shortcut } => {
                    walk(main, counter, out);
                    if let Some(s) = shortcut {
                        walk(s, counter, out);
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    let mut counter = 0;
    walk(&spec.nodes, &mut counter, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lite::r2plus1d_lite;
    use p3d_nn::{Layer, LayerExt, Mode};
    use p3d_tensor::TensorRng;

    #[test]
    fn lite_network_forward_shape() {
        let spec = r2plus1d_lite(4);
        let mut net = build_network(&spec, 7);
        let mut rng = TensorRng::seed(1);
        let (c, d, h, w) = spec.input;
        let x = rng.uniform_tensor([2, c, d, h, w], 0.0, 1.0);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 4]);
    }

    #[test]
    fn built_param_count_matches_spec() {
        let spec = r2plus1d_lite(4);
        let mut net = build_network(&spec, 7);
        let conv_params: usize = spec.conv_params().unwrap();
        let mut built_conv = 0usize;
        net.visit_params(&mut |p| {
            if p.kind == p3d_nn::ParamKind::ConvWeight {
                built_conv += p.len();
            }
        });
        assert_eq!(built_conv, conv_params);
    }

    #[test]
    fn deterministic_build() {
        let spec = r2plus1d_lite(4);
        let mut a = build_network(&spec, 3);
        let mut b = build_network(&spec, 3);
        let pa = a.snapshot_params();
        let pb = b.snapshot_params();
        assert_eq!(pa.len(), pb.len());
        for ((na, ta), (nb, tb)) in pa.iter().zip(&pb) {
            assert_eq!(na, nb);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    #[should_panic(expected = "padded pooling")]
    fn padded_pool_rejected() {
        let spec = crate::c3d::c3d(4);
        let _ = build_network(&spec, 0);
    }
}
