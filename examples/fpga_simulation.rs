//! Runs a trained network through the functional accelerator simulator:
//! Q7.8 fixed point, tiled convolution with double-buffer cycle
//! accounting, block-enable skipping, and the post-processing unit.
//!
//! Shows (a) fixed-point inference agrees with the f32 reference,
//! (b) pruning cuts simulated cycles without changing outputs.
//!
//! ```text
//! cargo run --release --example fpga_simulation
//! ```

use p3d::fpga::{AcceleratorConfig, Ports, QuantizedNetwork, Tiling};
use p3d::models::{build_network, r2plus1d_micro};
use p3d::nn::{CrossEntropyLoss, Layer, Mode, Sgd, Trainer};
use p3d::pruning::{magnitude_block_prune, targets_for_stages, BlockShape, KeepRule, PrunedModel};
use p3d::video_data::{GeneratorConfig, SyntheticVideo};

fn main() {
    let mut config = GeneratorConfig::small();
    config.frames = 6;
    config.height = 16;
    config.width = 16;
    let (train, test) = SyntheticVideo::train_test(&config, 60, 24, 9);

    // Train a micro R(2+1)D briefly so BN statistics and weights are real.
    let spec = r2plus1d_micro(config.num_classes);
    let mut net = build_network(&spec, 5);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 12, 3);
    for _ in 0..10 {
        trainer.train_epoch(&mut net, &train, None);
    }

    // Prune one stage so the simulator has blocks to skip.
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.5)]);
    let pruned = magnitude_block_prune(&mut net, BlockShape::new(4, 4), &targets, KeepRule::Round);

    // Quantise for the accelerator: weights -> Q7.8, BN folded into
    // per-channel scale/shift for the post-processing unit.
    let accel = AcceleratorConfig {
        tiling: Tiling::new(4, 4, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    };
    let q = QuantizedNetwork::from_network(&spec, &mut net, accel.clone());

    let mut agree = 0usize;
    let mut cycles_dense = 0u64;
    let mut cycles_pruned = 0u64;
    let n = test.clips().len();
    for (clip, _) in test.clips() {
        let sim_dense = q.forward(clip, &PrunedModel::dense());
        let sim_pruned = q.forward(clip, &pruned);
        assert_eq!(
            sim_dense.logits, sim_pruned.logits,
            "skipping zero blocks must not change outputs"
        );
        cycles_dense += sim_dense.total_cycles();
        cycles_pruned += sim_pruned.total_cycles();

        let batch = clip.reshape([
            1,
            clip.shape().dim(0),
            clip.shape().dim(1),
            clip.shape().dim(2),
            clip.shape().dim(3),
        ]);
        let reference = net.forward(&batch, Mode::Eval);
        if reference.argmax() == sim_pruned.prediction {
            agree += 1;
        }
    }
    println!("fixed-point simulator vs f32 reference: {agree}/{n} predictions agree");
    println!(
        "simulated cycles/clip: {} dense -> {} pruned ({:.2}x fewer)",
        cycles_dense / n as u64,
        cycles_pruned / n as u64,
        cycles_dense as f64 / cycles_pruned as f64
    );
    let one = q.forward(&test.clips()[0].0, &pruned);
    println!(
        "per-clip stats (pruned): {} MACs executed, {} blocks skipped, {} weight words loaded",
        one.stats.macs, one.stats.blocks_skipped, one.stats.weight_words
    );
    println!(
        "latency at {} MHz: {:.3} ms/clip",
        accel.freq_mhz,
        accel.cycles_to_ms(one.total_cycles())
    );
}
