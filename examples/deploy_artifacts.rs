//! Producing the deployment artifacts an FPGA host runtime needs:
//!
//! 1. train + prune a model,
//! 2. checkpoint it (portable binary format),
//! 3. reload it as the `p3d` CLI does, recovering the block-enable maps
//!    from the stored masks,
//! 4. export the per-layer block-enable bitmaps (Fig. 2's "pre-stored
//!    array"),
//! 5. verify the reloaded model's compiled Q7.8 network matches the
//!    original on the cycle engine.
//!
//! ```text
//! cargo run --release --example deploy_artifacts
//! ```

use p3d::engines::{accel_config, ModelCheckpoint};
use p3d::fpga::QuantizedNetwork;
use p3d::models::{build_network, r2plus1d_micro};
use p3d::nn::{Checkpoint, CrossEntropyLoss, Sgd, Trainer};
use p3d::pruning::{magnitude_block_prune, targets_for_stages, KeepRule, PrunedModel};
use p3d::video_data::{GeneratorConfig, SyntheticVideo};

fn main() {
    let mut cfg = GeneratorConfig::small();
    cfg.frames = 6;
    cfg.height = 16;
    cfg.width = 16;
    let (train, test) = SyntheticVideo::train_test(&cfg, 60, 20, 3);

    // 1. Train and prune at the accelerator's 4x4 blocks.
    let accel = accel_config(4, 4).expect("positive tiling");
    let spec = r2plus1d_micro(cfg.num_classes);
    let mut net = build_network(&spec, 8);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 12, 4);
    for _ in 0..8 {
        trainer.train_epoch(&mut net, &train, None);
    }
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.5)]);
    let shape = accel.tiling.block_shape();
    let pruned = magnitude_block_prune(&mut net, shape, &targets, KeepRule::Round);
    println!(
        "trained + pruned; accuracy {:.3}",
        trainer.evaluate(&mut net, &test)
    );

    // 2. Checkpoint to disk.
    let dir = std::env::temp_dir().join("p3d_deploy_example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt_path = dir.join("model.ckpt");
    let ckpt = Checkpoint::capture(&mut net);
    ckpt.save(&ckpt_path).expect("save checkpoint");
    println!(
        "checkpoint: {} tensors / {} scalars -> {}",
        ckpt.tensors.len(),
        ckpt.num_scalars(),
        ckpt_path.display()
    );

    // 3. Reload into a fresh network (another seed, then restore); the
    //    masks carry the block-enable maps.
    let path = ckpt_path.to_str().expect("UTF-8 temp path");
    let reloaded = ModelCheckpoint::load(&spec, path, 999).expect("load checkpoint");
    let recovered = PrunedModel::from_masks(&mut reloaded.network(), shape);
    assert_eq!(recovered, pruned, "the stored masks must carry the maps");

    // 4. Export hardware artifacts: block-enable bitmaps per layer.
    println!("\nblock-enable bitmaps (the accelerator's pre-stored arrays):");
    for (layer, mask) in &recovered.layers {
        let bitmap = mask.to_bitmap();
        println!(
            "  {layer}: {} blocks, {} enabled, {} bytes",
            mask.grid.num_blocks(),
            mask.enabled_blocks(),
            bitmap.len()
        );
    }

    // 5. The reloaded model's compiled Q7.8 network (what `p3d simulate`
    //    and `p3d serve` run) against the original on the cycle engine.
    let q_orig = QuantizedNetwork::from_network(&spec, &mut net, accel.clone());
    let (compiled, _) = reloaded.compiled(4, 4).expect("positive tiling");
    let mut identical = true;
    for (clip, _) in test.clips().iter().take(10) {
        let a = q_orig.forward(clip, &pruned);
        let b = compiled.forward(clip);
        identical &= a.logits == b.logits && a.stats == b.stats;
    }
    println!("\nreloaded model is bit-identical on the simulated accelerator: {identical}");
    assert!(identical, "deployment roundtrip must be exact");
    let _ = std::fs::remove_file(&ckpt_path);
}
