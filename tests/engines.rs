//! The CLI's checkpoint loader serves what was pruned.
//!
//! A block-pruned micro checkpoint, loaded through
//! [`p3d::engines::ModelCheckpoint`], must run both backends
//! block-sparse, and bitwise equal to the same checkpoint with its
//! `.mask` tensors removed (its pruned weights are still zero, so the
//! loader serves it dense).

use p3d::engines::{accel_config, ModelCheckpoint};
use p3d::infer::InferenceEngine;
use p3d::models::{build_network, c3d_lite, r2plus1d_micro};
use p3d::nn::{Checkpoint, RestoreError};
use p3d::pruning::{magnitude_block_prune, targets_for_stages, KeepRule};
use p3d::tensor::parallel::set_thread_override;
use p3d::tensor::{Tensor, TensorRng};

const SEED: u64 = 21;

fn logit_bits(engine: &mut dyn InferenceEngine, clips: &[Tensor]) -> Vec<Vec<u32>> {
    let results = engine.infer_batch(clips);
    let bits = |r: &p3d::infer::ClipResult| r.logits.iter().map(|x| x.to_bits()).collect();
    results.iter().map(bits).collect()
}

#[test]
fn masked_checkpoint_is_served_block_sparse_and_bitwise_dense() {
    let spec = r2plus1d_micro(10);
    let accel = accel_config(8, 4).unwrap();
    let mut net = build_network(&spec, SEED);
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.8)]);
    magnitude_block_prune(
        &mut net,
        accel.tiling.block_shape(),
        &targets,
        KeepRule::Round,
    );
    let masked = Checkpoint::capture(&mut net);
    let mut stripped = masked.clone();
    stripped.tensors.retain(|name, _| !name.ends_with(".mask"));
    assert!(stripped.tensors.len() < masked.tensors.len());

    let masked = ModelCheckpoint::new(&spec, masked, SEED).unwrap();
    let stripped = ModelCheckpoint::new(&spec, stripped, SEED).unwrap();
    let (c, d, h, w) = spec.input;
    let mut rng = TensorRng::seed(5);
    let clips: Vec<Tensor> = (0..5)
        .map(|_| rng.uniform_tensor([c, d, h, w], 0.0, 1.0))
        .collect();

    for replicas in [1, 2] {
        // The sim engine takes its worker count from the thread count.
        set_thread_override(Some(replicas));
        let f32 = logit_bits(&mut masked.f32(replicas, 8, 4).unwrap(), &clips);
        assert_eq!(
            f32,
            logit_bits(&mut stripped.f32(replicas, 8, 4).unwrap(), &clips)
        );
        let sim = logit_bits(&mut masked.sim(8, 4).unwrap(), &clips);
        assert_eq!(sim, logit_bits(&mut stripped.sim(8, 4).unwrap(), &clips));
        set_thread_override(None);
    }

    let (sparse, _) = masked.compiled(8, 4).unwrap();
    let (dense, _) = stripped.compiled(8, 4).unwrap();
    for clip in &clips {
        let (s, d) = (sparse.forward(clip), dense.forward(clip));
        assert_eq!(s.logits, d.logits);
        assert!(s.stats.blocks_skipped > 0, "masks were not recovered");
        assert_eq!(d.stats.blocks_skipped, 0);
        assert!(s.total_cycles() < d.total_cycles());
    }
}

#[test]
fn loader_rejects_misfits_and_empty_tiles() {
    let micro = Checkpoint::capture(&mut build_network(&r2plus1d_micro(10), SEED));
    let err = ModelCheckpoint::new(&c3d_lite(10), micro.clone(), SEED).err();
    assert!(
        matches!(
            err,
            Some(RestoreError::NothingRestored | RestoreError::ShapeMismatch(_))
        ),
        "{:?}",
        err
    );
    let unrelated = Checkpoint {
        tensors: [("stray".to_string(), Tensor::zeros([1]))].into(),
    };
    let err = ModelCheckpoint::new(&r2plus1d_micro(10), unrelated, SEED).err();
    assert_eq!(err, Some(RestoreError::NothingRestored));
    let model = ModelCheckpoint::new(&r2plus1d_micro(10), micro, SEED).unwrap();
    for (tm, tn) in [(0, 4), (8, 0)] {
        assert!(accel_config(tm, tn).is_err(), "({tm},{tn})");
        assert!(model.f32(1, tm, tn).is_err(), "({tm},{tn})");
        assert!(model.sim(tm, tn).is_err(), "({tm},{tn})");
    }
}
