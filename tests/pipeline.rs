//! End-to-end integration test: the full paper pipeline on micro scale —
//! train, ADMM-prune, hard-prune, masked-retrain, then run the pruned
//! network on the simulated accelerator and check the co-design payoff.

use p3d::fpga::{
    network_latency, AcceleratorConfig, DoubleBuffering, Ports, QuantizedNetwork, Tiling,
};
use p3d::models::{build_network, r2plus1d_micro};
use p3d::nn::{CrossEntropyLoss, Layer, LrSchedule, Mode, Sgd, Trainer};
use p3d::pruning::{targets_for_stages, AdmmConfig, AdmmPruner, BlockShape, KeepRule, PrunedModel};
use p3d::video_data::{GeneratorConfig, SyntheticVideo};

fn micro_dataset() -> (SyntheticVideo, SyntheticVideo) {
    let mut cfg = GeneratorConfig::small();
    cfg.frames = 6;
    cfg.height = 16;
    cfg.width = 16;
    cfg.num_classes = 3;
    SyntheticVideo::train_test(&cfg, 48, 24, 77)
}

#[test]
fn full_pipeline_prunes_and_accelerates() {
    let (train, test) = micro_dataset();
    let spec = r2plus1d_micro(3);
    let mut net = build_network(&spec, 21);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 12, 5);

    // Train the baseline enough to beat chance solidly.
    for _ in 0..10 {
        trainer.train_epoch(&mut net, &train, None);
    }
    let acc_before = trainer.evaluate(&mut net, &test);
    assert!(acc_before > 0.5, "baseline failed to learn: {acc_before}");

    // ADMM prune conv2_x at 50% block sparsity.
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.5)]);
    let shape = BlockShape::new(4, 4);
    let config = AdmmConfig {
        rho_schedule: vec![5e-2, 2e-1],
        epochs_per_round: 4,
        epochs_per_admm_update: 2,
        keep_rule: KeepRule::Round,
        epsilon: 0.2,
    };
    let mut pruner = AdmmPruner::new(&mut net, shape, &targets, config);
    pruner.admm_train(&mut net, &mut trainer, &train);
    let pruned = pruner.hard_prune(&mut net);
    assert!(pruner.verify_sparsity(&mut net));

    // Masked retraining restores accuracy near the baseline.
    let schedule = LrSchedule::WarmupCosine {
        base_lr: 5e-3,
        warmup_epochs: 1,
        total_epochs: 8,
        min_lr: 1e-5,
    };
    AdmmPruner::retrain(&mut net, &mut trainer, &train, &schedule, 8);
    let acc_after = trainer.evaluate(&mut net, &test);
    assert!(
        pruner.verify_sparsity(&mut net),
        "retraining broke sparsity"
    );
    assert!(
        acc_after >= acc_before - 0.25,
        "pruning cost too much accuracy: {acc_before} -> {acc_after}"
    );

    // The pruned model must be faster on the modelled accelerator whose
    // tiling matches the pruning blocks.
    let accel = AcceleratorConfig {
        tiling: Tiling::new(shape.tm, shape.tn, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    };
    let dense_lat = network_latency(&spec, &accel, &PrunedModel::dense(), DoubleBuffering::On);
    let pruned_lat = network_latency(&spec, &accel, &pruned, DoubleBuffering::On);
    assert!(
        pruned_lat.total_cycles < dense_lat.total_cycles,
        "pruning bought no modelled speedup"
    );

    // And the functional simulator agrees with the f32 network and skips
    // exactly the pruned blocks.
    let q = QuantizedNetwork::from_network(&spec, &mut net, accel);
    let mut agree = 0;
    for (clip, _) in test.clips().iter().take(8) {
        let sim = q.forward(clip, &pruned);
        let sim_dense = q.forward(clip, &PrunedModel::dense());
        assert_eq!(
            sim.logits, sim_dense.logits,
            "block skipping changed the output"
        );
        assert!(sim.stats.cycles < sim_dense.stats.cycles);
        let batch = clip.reshape([1, 1, 6, 16, 16]);
        if net.forward(&batch, Mode::Eval).argmax() == sim.prediction {
            agree += 1;
        }
    }
    assert!(
        agree >= 6,
        "fixed-point sim disagrees with reference: {agree}/8"
    );
}

/// Fraction of a layer's weight mass sitting in the blocks that the
/// projection would prune (the bottom `eta` by block norm).
fn doomed_mass_fraction(net: &mut dyn Layer, layer: &str, eta: f64) -> f64 {
    let mut fraction = None;
    net.visit_params(&mut |p| {
        if p.name == format!("{layer}.weight") {
            let grid = p3d::pruning::BlockGrid::for_weight(&p.value, BlockShape::new(4, 4));
            let mut norms = grid.block_norms_sq(&p.value);
            let total: f64 = norms.iter().sum();
            norms.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let pruned_count = grid.num_blocks() - KeepRule::Round.kept(grid.num_blocks(), eta);
            let doomed: f64 = norms.iter().take(pruned_count).sum();
            fraction = Some(doomed / total.max(1e-12));
        }
    });
    fraction.expect("layer present")
}

#[test]
fn admm_training_moves_mass_out_of_doomed_blocks() {
    // The mechanism behind the paper's "negligible accuracy loss": the
    // W-step's quadratic pull drains the blocks that the Z-projection
    // keeps zeroing, so hard pruning removes less information than
    // one-shot magnitude pruning would.
    let (train, _) = micro_dataset();
    let spec = r2plus1d_micro(3);
    let mut net = build_network(&spec, 4);
    let mut trainer = Trainer::new(
        CrossEntropyLoss::with_smoothing(0.1),
        Sgd::new(1e-2, 0.9, 0.0),
        12,
        9,
    );
    for _ in 0..6 {
        trainer.train_epoch(&mut net, &train, None);
    }
    let layer = "conv2_1a.spatial";
    let eta = 0.5;
    let before = doomed_mass_fraction(&mut net, layer, eta);

    let targets = targets_for_stages(&spec, &[("conv2_x", eta)]);
    let config = AdmmConfig {
        rho_schedule: vec![5e-2, 2e-1, 5e-1],
        epochs_per_round: 6,
        epochs_per_admm_update: 2,
        keep_rule: KeepRule::Round,
        epsilon: 0.2,
    };
    let mut pruner = AdmmPruner::new(&mut net, BlockShape::new(4, 4), &targets, config);
    pruner.admm_train(&mut net, &mut trainer, &train);
    let after = doomed_mass_fraction(&mut net, layer, eta);

    assert!(
        after < before * 0.7,
        "ADMM did not concentrate mass into surviving blocks: {before:.4} -> {after:.4}"
    );
}
