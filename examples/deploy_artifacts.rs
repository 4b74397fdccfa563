//! Producing the deployment artifacts an FPGA host runtime needs:
//!
//! 1. train + prune a model,
//! 2. checkpoint it (portable binary format),
//! 3. reload into a fresh process/network,
//! 4. export the per-layer block-enable bitmaps (Fig. 2's "pre-stored
//!    array") and the Q7.8 quantised inference pipeline,
//! 5. verify the reloaded, quantised model matches the original.
//!
//! ```text
//! cargo run --release --example deploy_artifacts
//! ```

use p3d::fpga::{AcceleratorConfig, Ports, QuantizedNetwork, Tiling};
use p3d::models::{build_network, r2plus1d_micro};
use p3d::nn::{Checkpoint, CrossEntropyLoss, Sgd, Trainer};
use p3d::pruning::{magnitude_block_prune, targets_for_stages, BlockShape, KeepRule};
use p3d::video_data::{GeneratorConfig, SyntheticVideo};

fn main() {
    let mut cfg = GeneratorConfig::small();
    cfg.frames = 6;
    cfg.height = 16;
    cfg.width = 16;
    let (train, test) = SyntheticVideo::train_test(&cfg, 60, 20, 3);

    // 1. Train and prune.
    let spec = r2plus1d_micro(cfg.num_classes);
    let mut net = build_network(&spec, 8);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 12, 4);
    for _ in 0..8 {
        trainer.train_epoch(&mut net, &train, None);
    }
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.5)]);
    let pruned = magnitude_block_prune(&mut net, BlockShape::new(4, 4), &targets, KeepRule::Round);
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

    // 3. Reload into a fresh network (fresh random init, then restore).
    let mut fresh = build_network(&spec, 999);
    let reloaded = Checkpoint::load(&ckpt_path).expect("load checkpoint");
    let report = reloaded.restore(&mut fresh);
    println!(
        "restored {} tensors into a fresh network",
        report.num_restored()
    );

    // 4. Export hardware artifacts: block-enable bitmaps per layer.
    println!("\nblock-enable bitmaps (the accelerator's pre-stored arrays):");
    for (layer, mask) in &pruned.layers {
        let bitmap = mask.to_bitmap();
        println!(
            "  {layer}: {} blocks, {} enabled, {} bytes",
            mask.grid.num_blocks(),
            mask.enabled_blocks(),
            bitmap.len()
        );
    }

    // 5. Quantise both and verify identical fixed-point behaviour.
    let accel = AcceleratorConfig {
        tiling: Tiling::new(4, 4, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    };
    let q_orig = QuantizedNetwork::from_network(&spec, &mut net, accel.clone());
    let q_reload = QuantizedNetwork::from_network(&spec, &mut fresh, accel);
    let mut identical = true;
    for (clip, _) in test.clips().iter().take(10) {
        let a = q_orig.forward(clip, &pruned);
        let b = q_reload.forward(clip, &pruned);
        identical &= a.logits == b.logits;
    }
    println!("\nreloaded model is bit-identical on the simulated accelerator: {identical}");
    assert!(identical, "deployment roundtrip must be exact");
    let _ = std::fs::remove_file(&ckpt_path);
}
