//! Builds trainable `p3d-nn` networks from [`NetworkSpec`]s.

use crate::plan::{Bn, Stage};
use crate::spec::NetworkSpec;
use p3d_nn::{
    BatchNorm3d, Conv3d, Flatten, GlobalAvgPool, Layer, Linear, MaxPool3d, Relu, ResidualBlock,
    Sequential,
};
use p3d_tensor::TensorRng;

fn batch_norm(bn: &Bn) -> Box<dyn Layer> {
    Box::new(BatchNorm3d::new(&bn.name, bn.channels))
}

fn build_stages(stages: &[Stage], rng: &mut TensorRng) -> Sequential {
    let mut seq = Sequential::new();
    for stage in stages {
        match stage {
            Stage::Conv(conv) => {
                let c = &conv.inst.spec;
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
                if let Some(bn) = &conv.batch_norm {
                    seq.add(batch_norm(bn));
                }
                if conv.relu {
                    seq.add(Box::new(Relu::new()));
                }
            }
            Stage::BatchNorm(bn) => seq.add(batch_norm(bn)),
            Stage::Relu => seq.add(Box::new(Relu::new())),
            Stage::MaxPool(pool) => {
                assert_eq!(
                    pool.pad,
                    (0, 0, 0),
                    "the trainable builder does not support padded pooling; \
                     padded pools exist only in analytic specs"
                );
                seq.add(Box::new(MaxPool3d::new(pool.kernel, pool.stride)));
            }
            Stage::GlobalAvgPool => seq.add(Box::new(GlobalAvgPool::new())),
            Stage::Flatten => seq.add(Box::new(Flatten::new())),
            Stage::Linear(l) => {
                let (m, n) = (l.out_features, l.in_features);
                seq.add(Box::new(Linear::new(&l.name, m, n, true, rng)));
            }
            Stage::Residual { main, shortcut } => {
                let main = build_stages(main, rng);
                let block = match shortcut {
                    Some(s) => ResidualBlock::projected(main, build_stages(s, rng)),
                    None => ResidualBlock::identity(main),
                };
                seq.add(Box::new(block));
            }
        }
    }
    seq
}

/// Instantiates a trainable network from a specification's stage plan,
/// with deterministic Kaiming initialisation from `seed`. A conv stage
/// expands back to its conv, batch norm and ReLU layers.
///
/// Batch-norm parameters take the plan's names (`bn0`, `bn1`, ...);
/// convolution and linear parameters keep their spec names, so the ADMM
/// pruner can target spec layers by name.
///
/// # Panics
///
/// Panics if the spec does not shape-check, or if it pools with padding.
pub fn build_network(spec: &NetworkSpec, seed: u64) -> Sequential {
    let plan = spec.plan().expect("spec must shape-check");
    build_stages(&plan.stages, &mut TensorRng::seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lite::{c3d_lite, r2plus1d_lite, r2plus1d_lite_wide, r2plus1d_micro};
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

    /// Checkpoints name batch-norm parameters `bn{i}`. On every
    /// trainable shipped spec, the built network visits them in the
    /// plan's order under the plan's names, and those count up in that
    /// order.
    #[test]
    fn batch_norm_params_follow_the_plan() {
        for spec in [
            r2plus1d_micro(4),
            r2plus1d_lite(4),
            r2plus1d_lite_wide(4),
            c3d_lite(4),
        ] {
            let planned: Vec<String> = spec
                .plan()
                .unwrap()
                .iter()
                .filter_map(|stage| match stage {
                    Stage::Conv(conv) => conv.batch_norm.as_ref(),
                    Stage::BatchNorm(bn) => Some(bn),
                    _ => None,
                })
                .map(|bn| bn.name.clone())
                .collect();
            let mut built = Vec::new();
            build_network(&spec, 0).visit_params(&mut |p| {
                if let Some(name) = p.name.strip_suffix(".gamma") {
                    built.push(name.to_string());
                }
            });
            assert!(!planned.is_empty(), "{}", spec.name);
            assert_eq!(built, planned, "{}", spec.name);
            let counted: Vec<String> = (0..planned.len()).map(|i| format!("bn{i}")).collect();
            assert_eq!(planned, counted, "{}", spec.name);
        }
    }

    #[test]
    #[should_panic(expected = "padded pooling")]
    fn padded_pool_rejected() {
        let spec = crate::c3d::c3d(4);
        let _ = build_network(&spec, 0);
    }
}
