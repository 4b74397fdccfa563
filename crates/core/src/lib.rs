#![warn(missing_docs)]
//! Hardware-aware blockwise ADMM weight pruning for 3D CNNs — the
//! primary contribution of *"3D CNN Acceleration on FPGA using
//! Hardware-Aware Pruning"* (DAC 2020).
//!
//! The pruning unit is a block of `Tm x Tn` 3D kernels, chosen to match
//! the loop-tiling buffers of the FPGA accelerator, so every pruned block
//! eliminates one load+compute iteration of the tiled convolution.
//! Sparsity is reached with ADMM: SGD training with a quadratic penalty
//! (W-step), Euclidean projection onto the block-sparse set (Z-step), a
//! dual update, a multi-rho schedule, and final masked retraining.
//!
//! # Pipeline
//!
//! ```no_run
//! use p3d_core::{AdmmConfig, AdmmPruner, BlockShape, targets_for_stages};
//! use p3d_models::{build_network, r2plus1d_lite};
//! use p3d_nn::{CrossEntropyLoss, LrSchedule, Sgd, Trainer};
//! use p3d_video_data::{GeneratorConfig, SyntheticVideo};
//!
//! let spec = r2plus1d_lite(10);
//! let mut net = build_network(&spec, 0);
//! let data = SyntheticVideo::generate(&GeneratorConfig::standard(), 200, 1);
//! let mut trainer = Trainer::new(
//!     CrossEntropyLoss::with_smoothing(0.1),
//!     Sgd::new(5e-3, 0.9, 1e-4),
//!     32,
//!     7,
//! );
//! // Prune the second and third residual blocks, as in the paper.
//! let targets = targets_for_stages(&spec, &[("conv2_x", 0.9), ("conv3_x", 0.8)]);
//! let mut pruner = AdmmPruner::new(&mut net, BlockShape::new(4, 4), &targets, AdmmConfig::fast());
//! pruner.admm_train(&mut net, &mut trainer, &data);
//! let pruned = pruner.hard_prune(&mut net);
//! let schedule = LrSchedule::WarmupCosine {
//!     base_lr: 5e-4, warmup_epochs: 2, total_epochs: 10, min_lr: 1e-5,
//! };
//! AdmmPruner::retrain(&mut net, &mut trainer, &data, &schedule, 10);
//! assert!(pruned.kept_fraction() < 0.3);
//! ```

pub mod admm;
pub mod blocks;
pub mod magnitude;
pub mod mask_export;
pub mod projection;
pub mod pruner;
pub mod report;
pub mod resume;

pub use admm::{AdmmConfig, AdmmLayerState};
pub use blocks::{BlockGrid, BlockShape};
pub use magnitude::{
    block_enable_from_mask, channel_prune, magnitude_block_prune, unstructured_prune,
};
pub use mask_export::{LayerBlockMask, PrunedModel};
pub use projection::{
    project, project_inplace, satisfies_sparsity, select_blocks, KeepRule, ProjectionResult,
};
pub use pruner::{
    targets_for_stages, AdmmProgress, AdmmPruner, AdmmTick, PruneLog, PruneTarget, RetrainTick,
    RoundLog,
};
pub use report::{PruningReport, StageRow};
pub use resume::{
    capture_admm_train_state, capture_retrain_state, restore_admm_train_state,
    restore_retrain_state, ADMM_PROGRESS_KEY, RETRAIN_PROGRESS_KEY,
};
