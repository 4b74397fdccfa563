//! The end-to-end ADMM pruning pipeline (Algorithm 1).
//!
//! ```text
//! Initialize rho, Z = Pi(W), V = 0
//! for each rho in the multi-rho schedule:
//!     for epoch in 1..=epoch_rho:
//!         train W with loss + rho/2 ||W - Z + V||^2   (Eq. 11, via a grad hook)
//!         every epoch_admm epochs: Z <- Pi(W + V); V <- V + W - Z
//! hard prune: W <- Pi(W), install 0/1 masks
//! masked retraining with warmup + cosine learning rate
//! ```

use crate::admm::{AdmmConfig, AdmmLayerState};
use crate::blocks::{BlockGrid, BlockShape};
use crate::mask_export::{LayerBlockMask, PrunedModel};
use crate::projection::select_blocks;
use p3d_models::NetworkSpec;
use p3d_nn::{Dataset, EpochStats, Layer, LrSchedule, Trainer};
use p3d_tensor::Tensor;
use std::collections::BTreeMap;
use std::io;

/// One layer to prune: the *spec* layer name (without `.weight`) and its
/// pruning ratio `eta`.
#[derive(Clone, Debug, PartialEq)]
pub struct PruneTarget {
    /// Spec layer name, e.g. `"conv2_1a.spatial"`.
    pub layer: String,
    /// Fraction of blocks to prune, in `[0, 1)`.
    pub eta: f64,
}

/// Builds prune targets for whole stages, as the paper does: "`eta_i` is
/// 90% for the second residual block and 80% for the third".
pub fn targets_for_stages(spec: &NetworkSpec, stage_etas: &[(&str, f64)]) -> Vec<PruneTarget> {
    let insts = spec.conv_instances().expect("spec must shape-check");
    let mut out = Vec::new();
    for inst in insts {
        if let Some((_, eta)) = stage_etas.iter().find(|(s, _)| *s == inst.spec.stage) {
            out.push(PruneTarget {
                layer: inst.spec.name.clone(),
                eta: *eta,
            });
        }
    }
    out
}

/// Progress of one ADMM round.
#[derive(Clone, Debug)]
pub struct RoundLog {
    /// The penalty parameter of the round.
    pub rho: f32,
    /// Task loss after each epoch.
    pub losses: Vec<f32>,
    /// Worst per-layer relative primal residual at the end of the round.
    pub max_primal_residual: f32,
}

/// Full log of an ADMM pruning run.
#[derive(Clone, Debug, Default)]
pub struct PruneLog {
    /// One entry per rho round.
    pub rounds: Vec<RoundLog>,
    /// Accuracy after ADMM training, before hard pruning.
    pub accuracy_after_admm: Option<f32>,
    /// Accuracy right after hard pruning (before retraining).
    pub accuracy_after_hard_prune: Option<f32>,
    /// Accuracy after masked retraining.
    pub accuracy_after_retrain: Option<f32>,
}

/// Position within the ADMM double loop of Algorithm 1, counted in
/// *completed* work: `round` is the 0-based index into the rho schedule
/// and `epoch` the number of finished epochs inside that round. The
/// default (`round = 0, epoch = 0`) means "nothing done yet".
///
/// A checkpoint taken at progress `p` resumes at epoch `p.epoch + 1` of
/// round `p.round`; when `p.epoch` equals `epochs_per_round` the resumed
/// run rolls over into the next round (applying the dual rescale exactly
/// as the uninterrupted run would have).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmmProgress {
    /// 0-based index into the rho schedule.
    pub round: usize,
    /// Completed epochs within that round (0 = round not started).
    pub epoch: usize,
}

impl AdmmProgress {
    /// The beginning of the schedule (nothing completed).
    pub fn start() -> Self {
        AdmmProgress::default()
    }
}

/// Everything a checkpointing callback needs after one ADMM epoch:
/// the position just completed, the epoch statistics, and mutable access
/// to the network and trainer (for state capture). Returned `false`
/// from the callback stops the run after this epoch — the mechanism the
/// resume tests use to simulate a crash at an arbitrary point.
pub struct AdmmTick<'a> {
    /// The position *just completed* (1-based epoch within the round).
    pub progress: AdmmProgress,
    /// The penalty parameter of the current round.
    pub rho: f32,
    /// Statistics of the epoch just finished.
    pub stats: EpochStats,
    /// The network being pruned.
    pub network: &'a mut dyn Layer,
    /// The trainer driving the W-step.
    pub trainer: &'a mut Trainer,
    /// The pruner (read-only; its Z/V state is current as of this tick).
    pub pruner: &'a AdmmPruner,
}

/// The per-epoch callback snapshot of masked retraining; mirrors
/// [`AdmmTick`] for the retraining phase.
pub struct RetrainTick<'a> {
    /// The 0-based epoch just completed.
    pub epoch: usize,
    /// Statistics of the epoch just finished.
    pub stats: EpochStats,
    /// The network being retrained.
    pub network: &'a mut dyn Layer,
    /// The trainer.
    pub trainer: &'a mut Trainer,
}

/// The ADMM blockwise pruner.
pub struct AdmmPruner {
    config: AdmmConfig,
    block_shape: BlockShape,
    states: BTreeMap<String, AdmmLayerState>,
}

fn param_name(layer: &str) -> String {
    format!("{layer}.weight")
}

fn collect_weights(network: &mut dyn Layer, layers: &[String]) -> BTreeMap<String, Tensor> {
    let wanted: Vec<String> = layers.iter().map(|l| param_name(l)).collect();
    let mut out = BTreeMap::new();
    network.visit_params(&mut |p| {
        if let Some(pos) = wanted.iter().position(|w| w == &p.name) {
            out.insert(layers[pos].clone(), p.value.clone());
        }
    });
    out
}

impl AdmmPruner {
    /// Initialises ADMM state from the network's current weights.
    ///
    /// # Panics
    ///
    /// Panics if a target layer's weight parameter is not found in the
    /// network, or the configuration is invalid.
    pub fn new(
        network: &mut dyn Layer,
        block_shape: BlockShape,
        targets: &[PruneTarget],
        config: AdmmConfig,
    ) -> Self {
        config.validate();
        assert!(!targets.is_empty(), "no prune targets given");
        let layers: Vec<String> = targets.iter().map(|t| t.layer.clone()).collect();
        let weights = collect_weights(network, &layers);
        let mut states = BTreeMap::new();
        for t in targets {
            let w = weights
                .get(&t.layer)
                .unwrap_or_else(|| panic!("prune target {} not found in network", t.layer));
            assert!(
                (0.0..1.0).contains(&t.eta),
                "eta out of range for {}",
                t.layer
            );
            let grid = BlockGrid::for_weight(w, block_shape);
            states.insert(
                t.layer.clone(),
                AdmmLayerState::init(w, grid, t.eta, config.keep_rule),
            );
        }
        AdmmPruner {
            config,
            block_shape,
            states,
        }
    }

    /// The block shape used for pruning.
    pub fn block_shape(&self) -> BlockShape {
        self.block_shape
    }

    /// Immutable access to per-layer ADMM state.
    pub fn states(&self) -> &BTreeMap<String, AdmmLayerState> {
        &self.states
    }

    /// Runs the ADMM training phase (the double loop of Algorithm 1).
    pub fn admm_train(
        &mut self,
        network: &mut dyn Layer,
        trainer: &mut Trainer,
        data: &dyn Dataset,
    ) -> PruneLog {
        self.admm_train_from(network, trainer, data, AdmmProgress::start(), &mut |_| true)
    }

    /// Runs (or resumes) the ADMM training phase from `start`, invoking
    /// `on_tick` after every completed epoch (after the epoch's optional
    /// Z/V update, i.e. at a consistent checkpointable state).
    ///
    /// Semantics chosen for bitwise-exact resume:
    ///
    /// * completed rounds (`ri < start.round`) are skipped entirely;
    /// * a mid-round start resumes at `start.epoch + 1` **without**
    ///   re-applying the dual rescale (the restored `V` already has it);
    /// * a round entered fresh (epoch 0) applies the rescale from the
    ///   previous round's rho, exactly as the uninterrupted run does;
    /// * `start.epoch == epochs_per_round` rolls over to the next round.
    ///
    /// When `on_tick` returns `false` the run stops after the current
    /// epoch; the partial round is still pushed onto the returned log.
    /// A resumed run's log covers only the epochs it executed itself.
    pub fn admm_train_from(
        &mut self,
        network: &mut dyn Layer,
        trainer: &mut Trainer,
        data: &dyn Dataset,
        start: AdmmProgress,
        on_tick: &mut dyn FnMut(AdmmTick<'_>) -> bool,
    ) -> PruneLog {
        let mut log = PruneLog::default();
        let rho_schedule = self.config.rho_schedule.clone();
        let epochs_per_round = self.config.epochs_per_round;
        let mut start = start;
        if start.epoch >= epochs_per_round {
            // The checkpoint closed out its round; continue with the next.
            start.round += 1;
            start.epoch = 0;
        }
        for (ri, &rho) in rho_schedule.iter().enumerate() {
            if ri < start.round {
                continue;
            }
            let first_epoch = if ri == start.round {
                start.epoch + 1
            } else {
                1
            };
            if ri > 0 && first_epoch == 1 {
                // "Expand rho": preserve the unscaled dual across the
                // penalty change (see AdmmLayerState::rescale_dual).
                // Skipped on a mid-round resume — the restored dual was
                // saved after this rescale already happened.
                let prev = rho_schedule[ri - 1];
                for st in self.states.values_mut() {
                    st.rescale_dual(prev, rho);
                }
            }
            let mut losses = Vec::new();
            for epoch in first_epoch..=epochs_per_round {
                let states = &self.states;
                let mut hook = |p: &mut p3d_nn::Param| {
                    // Param names are "<layer>.weight"; state keys are "<layer>".
                    if let Some(layer) = p.name.strip_suffix(".weight") {
                        if let Some(st) = states.get(layer) {
                            let g = st.penalty_grad(&p.value, rho);
                            p.grad.axpy(1.0, &g);
                        }
                    }
                };
                let stats = trainer.train_epoch(&mut *network, data, Some(&mut hook));
                losses.push(stats.loss);
                if epoch % self.config.epochs_per_admm_update == 0 {
                    self.update_duals(&mut *network);
                }
                let keep_going = on_tick(AdmmTick {
                    progress: AdmmProgress { round: ri, epoch },
                    rho,
                    stats,
                    network: &mut *network,
                    trainer: &mut *trainer,
                    pruner: self,
                });
                if !keep_going {
                    let residual = self.max_primal_residual(&mut *network);
                    log.rounds.push(RoundLog {
                        rho,
                        losses,
                        max_primal_residual: residual,
                    });
                    return log;
                }
            }
            let residual = self.max_primal_residual(&mut *network);
            log.rounds.push(RoundLog {
                rho,
                losses,
                max_primal_residual: residual,
            });
        }
        log
    }

    /// Exports the per-layer ADMM state (`Z`, `V`, grids, projections)
    /// into `out` under `admm.{layer}.*` keys for inclusion in a
    /// training-state checkpoint.
    pub fn export_state(&self, out: &mut BTreeMap<String, Tensor>) {
        for (layer, st) in &self.states {
            st.to_tensors(&format!("admm.{layer}"), out);
        }
    }

    /// Imports state exported by [`AdmmPruner::export_state`], replacing
    /// the freshly-initialised per-layer state, and returns the number of
    /// layers restored.
    ///
    /// # Errors
    ///
    /// `InvalidData` when any targeted layer's records are missing or
    /// malformed, or when the stored grid/eta disagree with this
    /// pruner's configuration (resuming with a different block shape or
    /// pruning ratio would silently change the trajectory).
    pub fn import_state(&mut self, tensors: &BTreeMap<String, Tensor>) -> io::Result<usize> {
        let mut restored = BTreeMap::new();
        for (layer, current) in &self.states {
            let prefix = format!("admm.{layer}");
            let st = AdmmLayerState::from_tensors(&prefix, tensors).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("ADMM state for layer {layer} missing or malformed"),
                )
            })?;
            if st.grid != current.grid || st.eta.to_bits() != current.eta.to_bits() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "ADMM state mismatch for layer {layer}: checkpoint grid/eta \
                         disagree with the pruner's configuration"
                    ),
                ));
            }
            restored.insert(layer.clone(), st);
        }
        let n = restored.len();
        self.states = restored;
        Ok(n)
    }

    /// Z-minimisation + dual update for every targeted layer (Eqs. 13, 9).
    pub fn update_duals(&mut self, network: &mut dyn Layer) {
        let layers: Vec<String> = self.states.keys().cloned().collect();
        let weights = collect_weights(network, &layers);
        for (layer, st) in self.states.iter_mut() {
            let w = &weights[layer];
            st.update(w, self.config.keep_rule);
        }
    }

    /// Worst relative primal residual `||W - Z|| / ||W||` over all layers.
    pub fn max_primal_residual(&self, network: &mut dyn Layer) -> f32 {
        let layers: Vec<String> = self.states.keys().cloned().collect();
        let weights = collect_weights(network, &layers);
        self.states
            .iter()
            .map(|(layer, st)| st.primal_residual(&weights[layer]))
            .fold(0.0, f32::max)
    }

    /// Hard pruning: project every targeted weight onto its sparsity set,
    /// install 0/1 retraining masks, and return the block-enable maps.
    pub fn hard_prune(&mut self, network: &mut dyn Layer) -> PrunedModel {
        let mut pruned = PrunedModel {
            block_shape: Some(self.block_shape),
            layers: BTreeMap::new(),
        };
        let states = &self.states;
        let config = &self.config;
        network.visit_params(&mut |p| {
            let Some(layer) = p.name.strip_suffix(".weight").map(str::to_string) else {
                return;
            };
            let Some(st) = states.get(&layer) else { return };
            let norms = st.grid.block_norms_sq(&p.value);
            let kept = config.keep_rule.kept(st.grid.num_blocks(), st.eta);
            let selection = select_blocks(&norms, kept);
            let mask5 = st.grid.mask_from_blocks(&selection.keep);
            // The elementwise mask tensor must match the weight shape.
            p.set_mask(mask5.reshape(p.value.shape()));
            pruned.insert(layer, LayerBlockMask::new(st.grid, selection.keep));
        });
        // From here on the masked retraining forward skips pruned blocks
        // outright (bitwise identical to the dense path on the masked
        // weights — the blocks it skips are exactly zero).
        pruned.install_block_sparse(network);
        pruned
    }

    /// Rebuilds the block-enable maps from the 0/1 masks currently
    /// installed on `network` — used when resuming a *retraining-phase*
    /// checkpoint, where hard pruning already happened before the
    /// interruption (re-running [`AdmmPruner::hard_prune`] would
    /// re-project the weights and could select different blocks).
    ///
    /// Layers whose parameter carries no mask are skipped.
    pub fn pruned_model_from_masks(&self, network: &mut dyn Layer) -> PrunedModel {
        let mut pruned = PrunedModel {
            block_shape: Some(self.block_shape),
            layers: BTreeMap::new(),
        };
        let states = &self.states;
        network.visit_params(&mut |p| {
            let Some(layer) = p.name.strip_suffix(".weight").map(str::to_string) else {
                return;
            };
            let Some(st) = states.get(&layer) else { return };
            if let Some(mask) = &p.mask {
                pruned.insert(
                    layer,
                    crate::magnitude::block_enable_from_mask(mask, &st.grid),
                );
            }
        });
        // Match `hard_prune`: the resumed retraining forward also runs
        // block-sparse. Both paths are bitwise identical to dense, so a
        // resumed run still reproduces an uninterrupted one exactly.
        pruned.install_block_sparse(network);
        pruned
    }

    /// Masked retraining with the paper's warmup + cosine schedule. The
    /// masks installed by [`AdmmPruner::hard_prune`] keep pruned weights
    /// at zero.
    pub fn retrain(
        network: &mut dyn Layer,
        trainer: &mut Trainer,
        data: &dyn Dataset,
        schedule: &LrSchedule,
        epochs: usize,
    ) -> Vec<f32> {
        Self::retrain_from(network, trainer, data, schedule, epochs, 0, &mut |_| true)
    }

    /// Masked retraining resumed at `start_epoch` (the number of epochs
    /// already completed), invoking `on_tick` after every epoch. The
    /// learning rate is always taken from `schedule.lr_at(epoch)`, so a
    /// resumed run lands on the same point of the warmup+cosine curve as
    /// the uninterrupted run. Returning `false` from the callback stops
    /// the run after the current epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn retrain_from(
        network: &mut dyn Layer,
        trainer: &mut Trainer,
        data: &dyn Dataset,
        schedule: &LrSchedule,
        epochs: usize,
        start_epoch: usize,
        on_tick: &mut dyn FnMut(RetrainTick<'_>) -> bool,
    ) -> Vec<f32> {
        let mut losses = Vec::with_capacity(epochs.saturating_sub(start_epoch));
        for epoch in start_epoch..epochs {
            trainer.optimizer.set_lr(schedule.lr_at(epoch).max(1e-8));
            let stats = trainer.train_epoch(&mut *network, data, None);
            losses.push(stats.loss);
            let keep_going = on_tick(RetrainTick {
                epoch,
                stats,
                network: &mut *network,
                trainer: &mut *trainer,
            });
            if !keep_going {
                break;
            }
        }
        losses
    }

    /// Verifies that every targeted weight in `network` satisfies its
    /// sparsity constraint (used by tests and the bench harness).
    pub fn verify_sparsity(&self, network: &mut dyn Layer) -> bool {
        let layers: Vec<String> = self.states.keys().cloned().collect();
        let weights = collect_weights(network, &layers);
        self.states.iter().all(|(layer, st)| {
            let max_blocks = self.config.keep_rule.kept(st.grid.num_blocks(), st.eta);
            crate::projection::satisfies_sparsity(&weights[layer], &st.grid, max_blocks)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::KeepRule;
    use p3d_models::{build_network, r2plus1d_micro};
    use p3d_nn::{CrossEntropyLoss, Sgd};
    use p3d_video_data::{GeneratorConfig, SyntheticVideo};

    fn micro_setup() -> (p3d_nn::Sequential, SyntheticVideo, Trainer) {
        let spec = r2plus1d_micro(3);
        let net = build_network(&spec, 11);
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
        let data = SyntheticVideo::generate(&cfg, 24, 5);
        let trainer = Trainer::new(
            CrossEntropyLoss::with_smoothing(0.1),
            Sgd::new(0.02, 0.9, 1e-4),
            8,
            3,
        );
        (net, data, trainer)
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
        // The micro test dataset is tiny (3 batches/epoch), so the rho
        // schedule is much more aggressive than the paper's to exert a
        // comparable pull within a few epochs.
        AdmmConfig {
            rho_schedule: vec![1.0, 5.0],
            epochs_per_round: 4,
            epochs_per_admm_update: 2,
            keep_rule: KeepRule::Round,
            epsilon: 0.2,
        }
    }

    #[test]
    fn targets_for_stages_selects_stage_layers() {
        let spec = r2plus1d_micro(3);
        let targets = targets_for_stages(&spec, &[("conv2_x", 0.5)]);
        assert!(!targets.is_empty());
        assert!(targets.iter().all(|t| t.layer.starts_with("conv2_")));
        assert!(targets.iter().all(|t| t.eta == 0.5));
    }

    #[test]
    #[should_panic(expected = "not found in network")]
    fn missing_target_panics() {
        let (mut net, _, _) = micro_setup();
        let _ = AdmmPruner::new(
            &mut net,
            BlockShape::new(4, 4),
            &[PruneTarget {
                layer: "nonexistent".into(),
                eta: 0.5,
            }],
            micro_config(),
        );
    }

    #[test]
    fn admm_train_reduces_primal_residual() {
        let (mut net, data, mut trainer) = micro_setup();
        let mut pruner = AdmmPruner::new(
            &mut net,
            BlockShape::new(4, 4),
            &micro_targets(),
            micro_config(),
        );
        let before = pruner.max_primal_residual(&mut net);
        let log = pruner.admm_train(&mut net, &mut trainer, &data);
        let after = pruner.max_primal_residual(&mut net);
        assert_eq!(log.rounds.len(), 2);
        assert!(
            after < before,
            "ADMM did not pull W toward the sparse set: {before} -> {after}"
        );
    }

    #[test]
    fn hard_prune_installs_masks_and_satisfies_sparsity() {
        let (mut net, data, mut trainer) = micro_setup();
        let mut pruner = AdmmPruner::new(
            &mut net,
            BlockShape::new(4, 4),
            &micro_targets(),
            micro_config(),
        );
        pruner.admm_train(&mut net, &mut trainer, &data);
        let pruned = pruner.hard_prune(&mut net);
        assert!(pruner.verify_sparsity(&mut net));
        assert_eq!(pruned.layers.len(), 2);
        for mask in pruned.layers.values() {
            assert!(mask.enabled_fraction() <= 0.51);
        }
    }

    #[test]
    fn retraining_preserves_sparsity() {
        let (mut net, data, mut trainer) = micro_setup();
        let mut pruner = AdmmPruner::new(
            &mut net,
            BlockShape::new(4, 4),
            &micro_targets(),
            micro_config(),
        );
        pruner.admm_train(&mut net, &mut trainer, &data);
        let _ = pruner.hard_prune(&mut net);
        let schedule = LrSchedule::WarmupCosine {
            base_lr: 0.02,
            warmup_epochs: 1,
            total_epochs: 3,
            min_lr: 1e-4,
        };
        AdmmPruner::retrain(&mut net, &mut trainer, &data, &schedule, 3);
        assert!(
            pruner.verify_sparsity(&mut net),
            "retraining resurrected pruned blocks"
        );
    }
}
