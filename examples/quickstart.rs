//! Quickstart: the whole pipeline in two minutes.
//!
//! 1. Generate a synthetic motion dataset.
//! 2. Train a small R(2+1)D.
//! 3. Prune its middle stages blockwise with ADMM.
//! 4. Retrain with masks.
//! 5. Estimate the FPGA speedup the pruning buys.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use p3d::engines::accel_config;
use p3d::fpga::{network_latency, DoubleBuffering};
use p3d::models::{build_network, r2plus1d_micro};
use p3d::nn::{CrossEntropyLoss, LrSchedule, Sgd, Trainer};
use p3d::pruning::{targets_for_stages, AdmmConfig, AdmmPruner, BlockShape, KeepRule, PrunedModel};
use p3d::video_data::{GeneratorConfig, SyntheticVideo};

fn main() {
    // 1. Data: clips whose class is a motion pattern, not an appearance.
    let mut config = GeneratorConfig::small();
    config.frames = 6;
    config.height = 16;
    config.width = 16;
    let (train, test) = SyntheticVideo::train_test(&config, 80, 40, 42);
    println!(
        "dataset: {} train / {} test clips, {} classes",
        80, 40, config.num_classes
    );

    // 2. A small R(2+1)D: factorised (2+1)D convolutions, residual unit,
    //    batch norm — the same ingredients as the paper's 33M-param model.
    let spec = r2plus1d_micro(config.num_classes);
    let mut net = build_network(&spec, 7);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 16, 3);
    for epoch in 0..12 {
        let stats = trainer.train_epoch(&mut net, &train, None);
        if epoch % 4 == 3 {
            println!("epoch {epoch:>2}: loss {:.3}", stats.loss);
        }
    }
    let acc = trainer.evaluate(&mut net, &test);
    println!("trained accuracy: {acc:.3}");

    // 3. Blockwise ADMM pruning of the conv2_x stage at 50% block sparsity.
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.5)]);
    let block_shape = BlockShape::new(4, 4);
    let mut pruner = AdmmPruner::new(
        &mut net,
        block_shape,
        &targets,
        AdmmConfig {
            rho_schedule: vec![5e-2, 2e-1, 5e-1],
            epochs_per_round: 4,
            epochs_per_admm_update: 2,
            keep_rule: KeepRule::Round,
            epsilon: 0.1,
        },
    );
    pruner.admm_train(&mut net, &mut trainer, &train);
    let pruned = pruner.hard_prune(&mut net);
    println!(
        "pruned: kept {:.0}% of targeted weights",
        pruned.kept_fraction() * 100.0
    );

    // 4. Masked retraining with warmup + cosine.
    let schedule = LrSchedule::WarmupCosine {
        base_lr: 5e-3,
        warmup_epochs: 1,
        total_epochs: 10,
        min_lr: 1e-5,
    };
    AdmmPruner::retrain(&mut net, &mut trainer, &train, &schedule, 10);
    let acc_pruned = trainer.evaluate(&mut net, &test);
    println!("pruned accuracy after retraining: {acc_pruned:.3} (unpruned was {acc:.3})");

    // 5. What does the hardware gain? The block shape matches the FPGA
    //    tiling, so every pruned block skips one tile iteration.
    let accel = accel_config(block_shape.tm, block_shape.tn).expect("positive tiling");
    let dense = network_latency(&spec, &accel, &PrunedModel::dense(), DoubleBuffering::On);
    let sparse = network_latency(&spec, &accel, &pruned, DoubleBuffering::On);
    println!(
        "modelled FPGA latency: {:.3} ms dense -> {:.3} ms pruned ({:.2}x speedup)",
        dense.ms(&accel),
        sparse.ms(&accel),
        dense.total_cycles as f64 / sparse.total_cycles as f64
    );
}
