//! **Ablation: ADMM vs one-shot magnitude pruning.** The paper's
//! framework trains *toward* the sparse set before pruning; the obvious
//! cheaper alternative is to hard-prune the trained model by block
//! magnitude and retrain. This binary runs both on the same trained
//! baseline at equal sparsity and compares accuracy before and after
//! masked retraining.
//!
//! Set `P3D_QUICK=1` for a fast smoke run. `--save-every N` plus
//! `--resume` checkpoint/restore the baseline and ADMM training phases
//! crash-safely (see the `accuracy` binary for the full flag set).

use p3d_bench::resume_cli::{run_baseline_phase, ResumeOpts};
use p3d_core::{
    capture_admm_train_state, magnitude_block_prune, restore_admm_train_state, targets_for_stages,
    AdmmConfig, AdmmProgress, AdmmPruner, BlockShape, KeepRule,
};
use p3d_models::{build_network, r2plus1d_lite};
use p3d_nn::{CrossEntropyLoss, Layer, LrSchedule, Sgd, Trainer};
use p3d_video_data::{GeneratorConfig, SyntheticVideo};
use std::collections::BTreeMap;

fn main() {
    let opts = ResumeOpts::from_args();
    let quick = std::env::var("P3D_QUICK").is_ok();
    let (clips, base_epochs, retrain_epochs) = if quick { (60, 5, 3) } else { (300, 30, 10) };
    let admm_cfg = if quick {
        AdmmConfig {
            rho_schedule: vec![1e-1],
            epochs_per_round: 2,
            epochs_per_admm_update: 1,
            keep_rule: KeepRule::Round,
            epsilon: 0.1,
        }
    } else {
        AdmmConfig {
            rho_schedule: vec![1e-2, 5e-2, 2e-1],
            epochs_per_round: 5,
            epochs_per_admm_update: 2,
            keep_rule: KeepRule::Round,
            epsilon: 0.05,
        }
    };

    let spec = r2plus1d_lite(10);
    let mut cfg = GeneratorConfig::standard();
    cfg.height = 24;
    cfg.width = 24;
    let (train, test) = SyntheticVideo::train_test(&cfg, clips, clips / 2, 42);

    // Shared trained baseline.
    let mut baseline = build_network(&spec, 1);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 16, 7);
    run_baseline_phase(
        &opts,
        "ablation_admm_baseline",
        &mut baseline,
        &mut trainer,
        &train,
        base_epochs,
        |_, _| {},
    );
    let acc_base = trainer.evaluate(&mut baseline, &test);
    println!("baseline accuracy: {acc_base:.4}\n");

    let mut snapshot: BTreeMap<String, p3d_tensor::Tensor> = BTreeMap::new();
    baseline.visit_params(&mut |p| {
        snapshot.insert(p.name.clone(), p.value.clone());
    });
    let restore = |net: &mut p3d_nn::Sequential| {
        net.visit_params(&mut |p| {
            if let Some(w) = snapshot.get(&p.name) {
                p.value = w.clone();
                p.clear_mask();
            }
        });
    };

    let shape = BlockShape::new(8, 4);
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.9), ("conv3_x", 0.8)]);
    let schedule = LrSchedule::WarmupCosine {
        base_lr: 2e-3,
        warmup_epochs: 1,
        total_epochs: retrain_epochs,
        min_lr: 1e-5,
    };

    // --- One-shot magnitude baseline ---------------------------------
    let mut mag_net = build_network(&spec, 1);
    restore(&mut mag_net);
    let _ = magnitude_block_prune(&mut mag_net, shape, &targets, KeepRule::Round);
    let mag_hard = p3d_nn::evaluate(&mut mag_net, &test, 16);
    let mut retrainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(2e-3, 0.9, 1e-4), 16, 13);
    AdmmPruner::retrain(
        &mut mag_net,
        &mut retrainer,
        &train,
        &schedule,
        retrain_epochs,
    );
    let mag_final = p3d_nn::evaluate(&mut mag_net, &test, 16);

    // --- ADMM pipeline -------------------------------------------------
    let mut admm_net = build_network(&spec, 1);
    restore(&mut admm_net);
    let mut admm_trainer = Trainer::new(
        CrossEntropyLoss::with_smoothing(0.1),
        Sgd::new(2e-3, 0.9, 1e-4),
        16,
        11,
    );
    let mut pruner = AdmmPruner::new(&mut admm_net, shape, &targets, admm_cfg);
    let mut start = AdmmProgress::start();
    if let Some(st) = opts.load("ablation_admm_admm") {
        start = restore_admm_train_state(&st, &mut admm_net, &mut admm_trainer, &mut pruner)
            .expect("cannot resume ADMM phase");
        eprintln!(
            "[resume] ADMM at round {}, epoch {}",
            start.round, start.epoch
        );
    }
    pruner.admm_train_from(&mut admm_net, &mut admm_trainer, &train, start, &mut |t| {
        if opts.save_every > 0 && t.progress.epoch % opts.save_every == 0 {
            let st = capture_admm_train_state(t.network, t.trainer, t.pruner, t.progress);
            if let Err(e) = opts.save_now("ablation_admm_admm", &st) {
                eprintln!("warning: cannot save ADMM state: {e}");
            }
        }
        true
    });
    opts.clear("ablation_admm_admm");
    let _ = pruner.hard_prune(&mut admm_net);
    let admm_hard = p3d_nn::evaluate(&mut admm_net, &test, 16);
    let mut retrainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(2e-3, 0.9, 1e-4), 16, 13);
    AdmmPruner::retrain(
        &mut admm_net,
        &mut retrainer,
        &train,
        &schedule,
        retrain_epochs,
    );
    let admm_final = p3d_nn::evaluate(&mut admm_net, &test, 16);

    println!("==== ADMM vs one-shot magnitude (equal block sparsity) ====");
    println!("                         after hard prune   after retrain");
    println!("one-shot magnitude:           {mag_hard:.4}          {mag_final:.4}");
    println!("ADMM (ours):                  {admm_hard:.4}          {admm_final:.4}");
    println!("\nClaim under test: ADMM training moves the information out of the");
    println!("doomed blocks before they are cut, so the post-prune collapse is");
    println!("smaller and retraining recovers more.");
}
