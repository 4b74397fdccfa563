//! Kill-and-resume equivalence for the ADMM pipeline.
//!
//! The invariant under test — the whole point of the `TrainState`
//! checkpoints — is *bitwise* equivalence: a run killed at any epoch and
//! resumed from its saved state (through a real file on disk, so the
//! atomic-save + checksummed-read path is exercised too) must produce
//! exactly the weights, duals, and losses of the run that was never
//! killed. "Close" is not good enough; a resume that drifts by one ULP
//! silently changes which blocks survive pruning.
//!
//! Kill points cover the interesting positions of the ADMM double loop:
//! mid-round (the restored dual must NOT be rescaled again), the last
//! epoch of a round (the rollover must apply the next round's rescale
//! exactly once), and mid-second-round (after a rescale already
//! happened). A separate test covers the masked-retraining phase, where
//! the pruning masks and the LR-schedule position must travel too.

use p3d_core::{
    capture_admm_train_state, capture_retrain_state, restore_admm_train_state,
    restore_retrain_state, AdmmConfig, AdmmProgress, AdmmPruner, BlockShape, KeepRule, PruneTarget,
};
use p3d_nn::{Checkpoint, CrossEntropyLoss, Layer, LrSchedule, Sgd, TrainState, Trainer};
use p3d_video_data::{GeneratorConfig, SyntheticVideo};
use std::path::PathBuf;

fn micro_data() -> SyntheticVideo {
    let cfg = GeneratorConfig {
        frames: 6,
        height: 16,
        width: 16,
        num_classes: 3,
        noise_std: 0.02,
        speed: (1.0, 2.0),
        radius: (2.0, 3.0),
        distractors: 0,
    };
    SyntheticVideo::generate(&cfg, 24, 5)
}

fn micro_net(seed: u64) -> p3d_nn::Sequential {
    p3d_models::build_network(&p3d_models::r2plus1d_micro(3), seed)
}

fn micro_trainer(seed: u64) -> Trainer {
    Trainer::new(
        CrossEntropyLoss::with_smoothing(0.1),
        Sgd::new(0.02, 0.9, 1e-4),
        8,
        seed,
    )
}

fn micro_targets() -> Vec<PruneTarget> {
    vec![
        PruneTarget {
            layer: "conv2_1a.spatial".into(),
            eta: 0.5,
        },
        PruneTarget {
            layer: "conv2_1b.temporal".into(),
            eta: 0.5,
        },
    ]
}

fn micro_config() -> AdmmConfig {
    AdmmConfig {
        rho_schedule: vec![1.0, 5.0],
        epochs_per_round: 3,
        epochs_per_admm_update: 1,
        keep_rule: KeepRule::Round,
        epsilon: 0.2,
    }
}

fn tmp_state_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "p3d-resume-test-{}-{tag}.state",
        std::process::id()
    ))
}

/// Bitwise network equality via captured checkpoints (float `==` would
/// miss mask tensors and choke on any NaN lanes).
fn assert_nets_bits_eq(a: &mut dyn Layer, b: &mut dyn Layer, what: &str) {
    let ca = Checkpoint::capture(a);
    let cb = Checkpoint::capture(b);
    assert_eq!(
        ca.tensors.keys().collect::<Vec<_>>(),
        cb.tensors.keys().collect::<Vec<_>>(),
        "{what}: tensor sets differ"
    );
    for (name, ta) in &ca.tensors {
        let tb = &cb.tensors[name];
        assert_eq!(ta.shape(), tb.shape(), "{what}: shape of {name}");
        let same = ta
            .data()
            .iter()
            .zip(tb.data())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: data bits of {name} differ");
    }
}

fn assert_pruners_bits_eq(a: &AdmmPruner, b: &AdmmPruner, what: &str) {
    let mut ta = std::collections::BTreeMap::new();
    let mut tb = std::collections::BTreeMap::new();
    a.export_state(&mut ta);
    b.export_state(&mut tb);
    assert_eq!(
        ta.keys().collect::<Vec<_>>(),
        tb.keys().collect::<Vec<_>>(),
        "{what}: ADMM state keys differ"
    );
    for (name, x) in &ta {
        let y = &tb[name];
        assert_eq!(x.shape(), y.shape(), "{what}: shape of {name}");
        let same = x
            .data()
            .iter()
            .zip(y.data())
            .all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same, "{what}: ADMM tensor {name} differs");
    }
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Runs ADMM training to completion twice — once uninterrupted, once
/// killed after `(kill_round, kill_epoch)` and resumed through a state
/// file into *differently seeded* fresh objects — and demands bitwise
/// identity of weights, duals, and the loss trace.
fn check_admm_kill_point(kill_round: usize, kill_epoch: usize, data: &SyntheticVideo) {
    let what = format!("kill at round {kill_round}, epoch {kill_epoch}");

    // Reference: never interrupted.
    let mut ref_net = micro_net(11);
    let mut ref_trainer = micro_trainer(3);
    let mut ref_pruner = AdmmPruner::new(
        &mut ref_net,
        BlockShape::new(4, 4),
        &micro_targets(),
        micro_config(),
    );
    let ref_log = ref_pruner.admm_train(&mut ref_net, &mut ref_trainer, data);
    let ref_losses: Vec<f32> = ref_log
        .rounds
        .iter()
        .flat_map(|r| r.losses.clone())
        .collect();

    // Interrupted: identical seeds, killed at the chosen epoch. The tick
    // fires after the epoch's dual update, i.e. at the exact state a
    // `--save-every` checkpoint of a real driver would capture.
    let path = tmp_state_path(&format!("admm-{kill_round}-{kill_epoch}"));
    let mut net1 = micro_net(11);
    let mut trainer1 = micro_trainer(3);
    let mut pruner1 = AdmmPruner::new(
        &mut net1,
        BlockShape::new(4, 4),
        &micro_targets(),
        micro_config(),
    );
    let mut part1_losses = Vec::new();
    let log1 = pruner1.admm_train_from(
        &mut net1,
        &mut trainer1,
        data,
        AdmmProgress::start(),
        &mut |t| {
            part1_losses.push(t.stats.loss);
            if t.progress.round == kill_round && t.progress.epoch == kill_epoch {
                let st = capture_admm_train_state(t.network, t.trainer, t.pruner, t.progress);
                st.save(&path).expect("save state file");
                return false; // simulated crash
            }
            true
        },
    );
    assert!(
        !log1.rounds.is_empty() && path.exists(),
        "{what}: kill point never reached"
    );

    // Resume into freshly built, differently seeded objects: every bit
    // must come from the state file, none from the fresh initialisation.
    let loaded = TrainState::load(&path).expect("load state file");
    let mut net2 = micro_net(77);
    let mut trainer2 = micro_trainer(99);
    let mut pruner2 = AdmmPruner::new(
        &mut net2,
        BlockShape::new(4, 4),
        &micro_targets(),
        micro_config(),
    );
    let start = restore_admm_train_state(&loaded, &mut net2, &mut trainer2, &mut pruner2)
        .expect("restore state");
    assert_eq!(
        (start.round, start.epoch),
        (kill_round, kill_epoch),
        "{what}"
    );
    let log2 = pruner2.admm_train_from(&mut net2, &mut trainer2, data, start, &mut |t| {
        part1_losses.push(t.stats.loss);
        true
    });

    // Bitwise identity of everything observable.
    assert_nets_bits_eq(&mut ref_net, &mut net2, &what);
    assert_pruners_bits_eq(&ref_pruner, &pruner2, &what);
    assert_eq!(bits(&ref_losses), bits(&part1_losses), "{what}: loss trace");
    // The continuation's own log must also match the reference tail.
    let cont_losses: Vec<f32> = log2.rounds.iter().flat_map(|r| r.losses.clone()).collect();
    let done = ref_losses.len() - cont_losses.len();
    assert_eq!(
        bits(&ref_losses[done..]),
        bits(&cont_losses),
        "{what}: continuation log"
    );

    // Pruning decisions downstream must agree too.
    let ref_model = ref_pruner.hard_prune(&mut ref_net);
    let res_model = pruner2.hard_prune(&mut net2);
    assert_eq!(
        ref_model.kept_fraction().to_bits(),
        res_model.kept_fraction().to_bits(),
        "{what}: kept fraction"
    );
    assert_nets_bits_eq(
        &mut ref_net,
        &mut net2,
        &format!("{what}, after hard prune"),
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn admm_resume_is_bitwise_identical_at_every_interesting_kill_point() {
    let data = micro_data();
    // Mid-round, end-of-round (rollover must rescale duals exactly
    // once), and mid-second-round (post-rescale state must round-trip).
    check_admm_kill_point(0, 2, &data);
    check_admm_kill_point(0, 3, &data);
    check_admm_kill_point(1, 1, &data);
}

#[test]
fn retrain_resume_is_bitwise_identical_and_keeps_masks() {
    let data = micro_data();
    let schedule = LrSchedule::WarmupCosine {
        base_lr: 0.02,
        warmup_epochs: 1,
        total_epochs: 4,
        min_lr: 1e-5,
    };

    // Shared setup: a briefly trained, hard-pruned network.
    let prepare = || {
        let mut net = micro_net(11);
        let mut trainer = micro_trainer(3);
        trainer.train_epoch(&mut net, &data, None);
        let mut pruner = AdmmPruner::new(
            &mut net,
            BlockShape::new(4, 4),
            &micro_targets(),
            micro_config(),
        );
        let _ = pruner.hard_prune(&mut net);
        (net, trainer, pruner)
    };

    // Reference: 4 uninterrupted masked-retraining epochs.
    let (mut ref_net, mut ref_trainer, ref_pruner) = prepare();
    let ref_losses = AdmmPruner::retrain(&mut ref_net, &mut ref_trainer, &data, &schedule, 4);

    // Interrupted after 2 epochs; state goes through a real file.
    let path = tmp_state_path("retrain");
    let (mut net1, mut trainer1, _) = prepare();
    let mut losses = Vec::new();
    AdmmPruner::retrain_from(&mut net1, &mut trainer1, &data, &schedule, 4, 0, &mut |t| {
        losses.push(t.stats.loss);
        if t.epoch == 1 {
            capture_retrain_state(t.network, t.trainer, &schedule, t.epoch + 1)
                .save(&path)
                .expect("save retrain state");
            return false;
        }
        true
    });

    // Fresh, differently seeded, *unpruned* objects: the masks must be
    // reinstalled purely from the `{param}.mask` tensors in the file.
    let loaded = TrainState::load(&path).expect("load retrain state");
    let mut net2 = micro_net(77);
    let mut trainer2 = micro_trainer(99);
    let (restored_schedule, done) =
        restore_retrain_state(&loaded, &mut net2, &mut trainer2).expect("restore retrain state");
    assert_eq!(done, 2);
    assert_eq!(
        restored_schedule.lr_at(3).to_bits(),
        schedule.lr_at(3).to_bits()
    );
    let cont = AdmmPruner::retrain_from(
        &mut net2,
        &mut trainer2,
        &data,
        &restored_schedule,
        4,
        done,
        &mut |t| {
            losses.push(t.stats.loss);
            true
        },
    );
    assert_eq!(cont.len(), 2);

    assert_nets_bits_eq(&mut ref_net, &mut net2, "retrain resume");
    assert_eq!(bits(&ref_losses), bits(&losses), "retrain loss trace");
    // The masks survived the file round-trip: sparsity still holds.
    assert!(
        ref_pruner.verify_sparsity(&mut net2),
        "restored network violates the pruning constraint"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn restore_into_wrong_architecture_is_rejected() {
    let data = micro_data();
    let mut net = micro_net(11);
    let mut trainer = micro_trainer(3);
    let mut pruner = AdmmPruner::new(
        &mut net,
        BlockShape::new(4, 4),
        &micro_targets(),
        micro_config(),
    );
    let mut state = None;
    pruner.admm_train_from(
        &mut net,
        &mut trainer,
        &data,
        AdmmProgress::start(),
        &mut |t| {
            state = Some(capture_admm_train_state(
                t.network, t.trainer, t.pruner, t.progress,
            ));
            false
        },
    );
    let state = state.expect("one tick");

    // Wrong model: different class count changes the head shape.
    let mut other = p3d_models::build_network(&p3d_models::r2plus1d_micro(5), 1);
    let mut other_trainer = micro_trainer(3);
    let mut other_pruner = AdmmPruner::new(
        &mut other,
        BlockShape::new(4, 4),
        &micro_targets(),
        micro_config(),
    );
    let err = restore_admm_train_state(&state, &mut other, &mut other_trainer, &mut other_pruner);
    assert!(err.is_err(), "architecture mismatch must be rejected");

    // Wrong trainer: different batch size changes the data order.
    let mut same = micro_net(11);
    let mut fat_trainer = Trainer::new(
        CrossEntropyLoss::with_smoothing(0.1),
        Sgd::new(0.02, 0.9, 1e-4),
        16, // batch size differs from the captured 8
        3,
    );
    let mut same_pruner = AdmmPruner::new(
        &mut same,
        BlockShape::new(4, 4),
        &micro_targets(),
        micro_config(),
    );
    let err = restore_admm_train_state(&state, &mut same, &mut fat_trainer, &mut same_pruner);
    assert!(err.is_err(), "batch-size mismatch must be rejected");

    // Wrong pruner: different block shape cannot adopt the saved grids.
    let mut same2 = micro_net(11);
    let mut same2_trainer = micro_trainer(3);
    let mut wide_pruner = AdmmPruner::new(
        &mut same2,
        BlockShape::new(8, 4),
        &micro_targets(),
        micro_config(),
    );
    let err = restore_admm_train_state(&state, &mut same2, &mut same2_trainer, &mut wide_pruner);
    assert!(err.is_err(), "block-shape mismatch must be rejected");
}
