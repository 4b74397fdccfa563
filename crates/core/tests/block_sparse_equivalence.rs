//! Block-sparse execution must be invisible except for speed.
//!
//! After pruning installs block-enable maps, `Conv3d` runs its forward
//! through the block-CSR kernel (`gemm_bs_into`), which skips pruned
//! `Tm x Tn` blocks outright. Because the skipped blocks are exactly
//! zero in the masked weights and the enabled `k` ranges are visited in
//! the dense kernel's canonical order, every activation — and therefore
//! every gradient, every optimizer step, and every logit — must be
//! **bitwise identical** to a network that kept the dense path.
//!
//! These tests build two networks from the same seed, prune both with
//! the same deterministic scheme, strip the sparse patterns from one,
//! and drive both through forward/backward/update lockstep.

use p3d_core::{magnitude_block_prune, BlockShape, KeepRule, PruneTarget};
use p3d_models::{build_network, r2plus1d_micro};
use p3d_nn::{Layer, LayerExt, Mode, Sequential};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{Tensor, TensorRng};

fn targets() -> Vec<PruneTarget> {
    vec![
        PruneTarget {
            layer: "conv2_1a.spatial".into(),
            eta: 0.7,
        },
        PruneTarget {
            layer: "conv2_1b.spatial".into(),
            eta: 0.5,
        },
    ]
}

/// Builds a pruned network; `sparse` controls whether the block-sparse
/// execution patterns stay installed.
fn pruned_net(seed: u64, sparse: bool) -> Sequential {
    let spec = r2plus1d_micro(4);
    let mut net = build_network(&spec, seed);
    let pm = magnitude_block_prune(&mut net, BlockShape::new(4, 4), &targets(), KeepRule::Round);
    assert!(
        pm.kept_fraction() < 0.9,
        "pruning did not bite; test would be vacuous"
    );
    if !sparse {
        // Strip the patterns installed by the pruner: dense reference.
        net.install_block_patterns(&mut |_| None);
    }
    net
}

fn snapshot(net: &mut Sequential) -> Vec<(String, Tensor)> {
    net.snapshot_params()
}

#[test]
fn forward_bitwise_identical_to_dense() {
    let mut dense = pruned_net(77, false);
    let mut sparse = pruned_net(77, true);
    let mut rng = TensorRng::seed(5);
    for threads in [1, 3] {
        set_thread_override(Some(threads));
        let x = rng.uniform_tensor([2, 1, 6, 16, 16], -1.0, 1.0);
        let yd = dense.forward(&x, Mode::Eval);
        let ys = sparse.forward(&x, Mode::Eval);
        assert_eq!(
            yd.data(),
            ys.data(),
            "eval forward diverged at {threads} threads"
        );
    }
    set_thread_override(None);
}

#[test]
fn train_step_bitwise_identical_to_dense() {
    let mut dense = pruned_net(123, false);
    let mut sparse = pruned_net(123, true);
    let mut rng = TensorRng::seed(9);
    set_thread_override(Some(2));
    for step in 0..3 {
        let x = rng.uniform_tensor([2, 1, 6, 16, 16], -1.0, 1.0);
        let yd = dense.forward(&x, Mode::Train);
        let ys = sparse.forward(&x, Mode::Train);
        assert_eq!(
            yd.data(),
            ys.data(),
            "train forward diverged at step {step}"
        );

        let g = rng.uniform_tensor(yd.shape(), -0.1, 0.1);
        let gd = dense.backward(&g);
        let gs = sparse.backward(&g);
        assert_eq!(gd.data(), gs.data(), "input grads diverged at step {step}");

        // SGD-style update + mask re-application, applied identically.
        for net in [&mut dense, &mut sparse] {
            net.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.05, &g);
                p.apply_mask();
                p.zero_grad();
            });
        }
        let sd = snapshot(&mut dense);
        let ss = snapshot(&mut sparse);
        for ((nd, vd), (ns, vs)) in sd.iter().zip(&ss) {
            assert_eq!(nd, ns);
            assert_eq!(
                vd.data(),
                vs.data(),
                "param {nd} diverged after update {step}"
            );
        }
    }
    set_thread_override(None);
}

#[test]
fn reinstalling_none_restores_dense_path() {
    // install(None) then install(map) round-trips: still bitwise equal.
    let mut net = pruned_net(31, true);
    let mut rng = TensorRng::seed(2);
    let x = rng.uniform_tensor([1, 1, 6, 16, 16], -1.0, 1.0);
    let with_sparse = net.forward(&x, Mode::Eval);
    net.install_block_patterns(&mut |_| None);
    let without = net.forward(&x, Mode::Eval);
    assert_eq!(with_sparse.data(), without.data());
}
