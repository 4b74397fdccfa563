//! Regenerates the **accuracy experiment** of Section V: unpruned
//! accuracy vs blockwise-ADMM-pruned accuracy at two block shapes.
//!
//! The paper: R(2+1)D on UCF101, 89.0% unpruned, 88.66% pruned at
//! `(Tm,Tn) = (64,8)`, 88.40% at `(64,16)` — i.e. *negligible loss at
//! ~10x/5x stage pruning rates*. The reproduction runs the identical
//! pipeline (baseline training, multi-rho ADMM with label smoothing,
//! hard pruning, masked retraining with warmup+cosine) on R(2+1)D-lite
//! and the synthetic motion dataset (see DESIGN.md for the
//! substitution); the *shape* under test is the accuracy delta.
//!
//! Set `P3D_QUICK=1` for a fast smoke run.
//!
//! Crash-safety: `--save-every N` checkpoints the full training state
//! (weights, optimiser velocity, RNG streams, ADMM duals, LR-schedule
//! position) every `N` epochs into `--state-dir` (default `p3d-state/`),
//! and `--resume` continues a killed run bitwise-identically.

use p3d_bench::resume_cli::{run_baseline_phase, ResumeOpts};
use p3d_core::{
    capture_admm_train_state, capture_retrain_state, restore_admm_train_state,
    restore_retrain_state, targets_for_stages, AdmmConfig, AdmmProgress, AdmmPruner, BlockShape,
    KeepRule, PrunedModel,
};
use p3d_models::{build_network, r2plus1d_lite_wide};
use p3d_nn::{CrossEntropyLoss, Layer, LrSchedule, Sgd, Trainer};
use p3d_video_data::{GeneratorConfig, SyntheticVideo};
use std::time::Instant;

struct Scale {
    train_clips: usize,
    test_clips: usize,
    baseline_epochs: usize,
    admm: AdmmConfig,
    retrain_epochs: usize,
}

fn scale() -> Scale {
    if std::env::var("P3D_QUICK").is_ok() {
        Scale {
            train_clips: 60,
            test_clips: 40,
            baseline_epochs: 6,
            admm: AdmmConfig {
                rho_schedule: vec![5e-2, 2e-1],
                epochs_per_round: 2,
                epochs_per_admm_update: 1,
                keep_rule: KeepRule::Round,
                epsilon: 0.1,
            },
            retrain_epochs: 4,
        }
    } else {
        Scale {
            train_clips: 300,
            test_clips: 150,
            baseline_epochs: 30,
            admm: AdmmConfig {
                // Scaled-down analogue of the paper's 4-round multi-rho
                // schedule (1e-4..1e-1 over 200 epochs): three decades of
                // rho over 24 epochs, Z/V updates every 3 epochs (the
                // W-step needs several epochs to track Z at this scale).
                rho_schedule: vec![2e-2, 1e-1, 4e-1],
                epochs_per_round: 8,
                epochs_per_admm_update: 3,
                keep_rule: KeepRule::Round,
                epsilon: 0.05,
            },
            retrain_epochs: 25,
        }
    }
}

fn main() {
    let s = scale();
    let opts = ResumeOpts::from_args();
    let t0 = Instant::now();
    let spec = r2plus1d_lite_wide(10);
    let mut cfg = GeneratorConfig::standard();
    cfg.height = 24;
    cfg.width = 24;
    let (train, test) = SyntheticVideo::train_test(&cfg, s.train_clips, s.test_clips, 42);

    // ---- Baseline (unpruned) training --------------------------------
    let mut net = build_network(&spec, 1);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 16, 7);
    run_baseline_phase(
        &opts,
        "accuracy_baseline",
        &mut net,
        &mut trainer,
        &train,
        s.baseline_epochs,
        |e, st| {
            if (e + 1) % 5 == 0 || e + 1 == s.baseline_epochs {
                println!(
                    "[{:>4.0}s] baseline epoch {:>2}: loss {:.3}, train acc {:.3}",
                    t0.elapsed().as_secs_f32(),
                    e + 1,
                    st.loss,
                    st.accuracy
                );
            }
        },
    );
    let acc_unpruned = trainer.evaluate(&mut net, &test);
    println!("\nunpruned test accuracy: {:.4}\n", acc_unpruned);

    // ---- ADMM pruning + masked retraining at two block shapes --------
    let mut results = Vec::new();
    for shape in [BlockShape::new(4, 4), BlockShape::new(8, 4)] {
        let mut pruned_net = build_network(&spec, 1);
        // Restore the trained baseline weights.
        let mut weights = std::collections::BTreeMap::new();
        net.visit_params(&mut |p| {
            weights.insert(p.name.clone(), p.value.clone());
        });
        pruned_net.visit_params(&mut |p| {
            if let Some(w) = weights.get(&p.name) {
                p.value = w.clone();
            }
        });
        // BN running stats travel too.
        let mut state = std::collections::BTreeMap::new();
        net.export_state(&mut |n, t| {
            state.insert(n.to_string(), t.clone());
        });
        // (running stats are re-estimated during ADMM training; the first
        // epochs of ADMM training refresh them.)

        let targets = targets_for_stages(&spec, &[("conv2_x", 0.9), ("conv3_x", 0.8)]);
        let mut admm_trainer = Trainer::new(
            // Label smoothing during ADMM training, as in the paper.
            CrossEntropyLoss::with_smoothing(0.1),
            Sgd::new(5e-3, 0.9, 1e-4),
            16,
            11,
        );
        let mut pruner = AdmmPruner::new(&mut pruned_net, shape, &targets, s.admm.clone());

        let tag_admm = format!("accuracy_admm_{}x{}", shape.tm, shape.tn);
        let tag_retrain = format!("accuracy_retrain_{}x{}", shape.tm, shape.tn);
        let schedule = LrSchedule::WarmupCosine {
            base_lr: 5e-3,
            warmup_epochs: 2,
            total_epochs: s.retrain_epochs,
            min_lr: 1e-5,
        };
        let mut retrainer =
            Trainer::new(CrossEntropyLoss::new(), Sgd::new(5e-3, 0.9, 1e-4), 16, 13);

        // A saved retrain-phase state means ADMM + hard pruning already
        // happened; jump straight back into masked retraining.
        let (pruned_model, acc_hard, start_epoch) = if let Some(st) = opts.load(&tag_retrain) {
            let (_saved_sched, done) = restore_retrain_state(&st, &mut pruned_net, &mut retrainer)
                .expect("cannot resume retraining phase");
            let acc_hard = st
                .get("progress.acc_hard")
                .map(|t| t.data()[0])
                .unwrap_or(f32::NAN);
            eprintln!(
                "[resume] ({},{}) masked retraining after epoch {done}",
                shape.tm, shape.tn
            );
            (
                pruner.pruned_model_from_masks(&mut pruned_net),
                acc_hard,
                done,
            )
        } else {
            let mut start = AdmmProgress::start();
            if let Some(st) = opts.load(&tag_admm) {
                start =
                    restore_admm_train_state(&st, &mut pruned_net, &mut admm_trainer, &mut pruner)
                        .expect("cannot resume ADMM phase");
                eprintln!(
                    "[resume] ({},{}) ADMM at round {}, epoch {}",
                    shape.tm, shape.tn, start.round, start.epoch
                );
            }
            let log = pruner.admm_train_from(
                &mut pruned_net,
                &mut admm_trainer,
                &train,
                start,
                &mut |t| {
                    if opts.save_every > 0 && t.progress.epoch % opts.save_every == 0 {
                        let st =
                            capture_admm_train_state(t.network, t.trainer, t.pruner, t.progress);
                        if let Err(e) = opts.save_now(&tag_admm, &st) {
                            eprintln!("warning: cannot save ADMM state: {e}");
                        }
                    }
                    true
                },
            );
            for r in &log.rounds {
                println!(
                    "[{:>4.0}s] (Tm,Tn)=({},{}) ADMM rho={:.0e}: last loss {:.3}, residual {:.3}",
                    t0.elapsed().as_secs_f32(),
                    shape.tm,
                    shape.tn,
                    r.rho,
                    r.losses.last().unwrap_or(&f32::NAN),
                    r.max_primal_residual
                );
            }
            let pruned_model: PrunedModel = pruner.hard_prune(&mut pruned_net);
            let acc_hard = p3d_nn::evaluate(&mut pruned_net, &test, 16);
            (pruned_model, acc_hard, 0usize)
        };

        AdmmPruner::retrain_from(
            &mut pruned_net,
            &mut retrainer,
            &train,
            &schedule,
            s.retrain_epochs,
            start_epoch,
            &mut |t| {
                if opts.save_every > 0 && (t.epoch + 1) % opts.save_every == 0 {
                    let mut st =
                        capture_retrain_state(t.network, t.trainer, &schedule, t.epoch + 1);
                    st.insert(
                        "progress.acc_hard",
                        p3d_tensor::Tensor::from_vec([1], vec![acc_hard]),
                    );
                    if let Err(e) = opts.save_now(&tag_retrain, &st) {
                        eprintln!("warning: cannot save retrain state: {e}");
                    }
                }
                true
            },
        );
        let acc_final = p3d_nn::evaluate(&mut pruned_net, &test, 16);
        // This shape is done: leave a final retrain state behind (so a
        // crash in a later shape resumes past this one instantly) and
        // drop the now-redundant ADMM state.
        if opts.save_every > 0 {
            let mut st =
                capture_retrain_state(&mut pruned_net, &retrainer, &schedule, s.retrain_epochs);
            st.insert(
                "progress.acc_hard",
                p3d_tensor::Tensor::from_vec([1], vec![acc_hard]),
            );
            if let Err(e) = opts.save_now(&tag_retrain, &st) {
                eprintln!("warning: cannot save final state: {e}");
            }
        }
        opts.clear(&tag_admm);
        assert!(
            pruner.verify_sparsity(&mut pruned_net),
            "sparsity constraint violated after retraining"
        );
        println!(
            "[{:>4.0}s] (Tm,Tn)=({},{}): after hard prune {:.4}, after retrain {:.4}, kept fraction {:.3}\n",
            t0.elapsed().as_secs_f32(),
            shape.tm,
            shape.tn,
            acc_hard,
            acc_final,
            pruned_model.kept_fraction()
        );
        results.push((shape, acc_hard, acc_final));
    }

    println!("==== Accuracy summary (paper Section V) ====");
    println!(
        "unpruned:              ours {:.4}   paper 0.890 (UCF101; ours is the synthetic motion task)",
        acc_unpruned
    );
    for (shape, _, acc) in &results {
        println!(
            "pruned (Tm,Tn)=({},{}): ours {:.4}   delta {:+.4}   (paper deltas: -0.0034 / -0.0060)",
            shape.tm,
            shape.tn,
            acc,
            acc - acc_unpruned
        );
    }
    println!("\nClaim under test: blockwise ADMM pruning at ~10x/5x stage rates");
    println!("loses little accuracy after masked retraining.");
}
