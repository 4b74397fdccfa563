#![warn(missing_docs)]
//! # p3d — hardware-aware blockwise pruning and FPGA acceleration of 3D CNNs
//!
//! A from-scratch Rust reproduction of *"3D CNN Acceleration on FPGA
//! using Hardware-Aware Pruning"* (Sun, Zhao, et al., DAC 2020).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`tensor`] — dense tensors, seeded RNG, Q7.8 fixed point,
//! * [`nn`] — layers, backprop, SGD, LR schedules, the training loop,
//! * [`video_data`] — the synthetic motion-classification dataset
//!   (UCF101 stand-in),
//! * [`models`] — R(2+1)D and C3D specs, builders, and counters,
//! * [`pruning`] — the paper's contribution: blockwise ADMM pruning,
//! * [`fpga`] — the accelerator models and functional simulator,
//! * [`infer`] — the batched inference serving layer over both the f32
//!   network and the Q7.8 simulator,
//! * [`engines`] — the `p3d` CLI's one loader from a checkpoint to
//!   engines that skip its pruned blocks.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, and the
//! `p3d-bench` binaries (`table1`..`table4`, `accuracy`, `dse`,
//! `ablation_*`) for the paper's tables and figures.

pub mod engines;

pub use p3d_core as pruning;
pub use p3d_fpga as fpga;
pub use p3d_infer as infer;
pub use p3d_models as models;
pub use p3d_nn as nn;
pub use p3d_tensor as tensor;
pub use p3d_video_data as video_data;
