#![warn(missing_docs)]
// Numeric kernels index multiple parallel buffers; explicit indices read
// better than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]
//! A from-scratch neural-network stack for 3D CNNs.
//!
//! This crate supplies the DNN training substrate that the paper
//! (*"3D CNN Acceleration on FPGA using Hardware-Aware Pruning"*, DAC
//! 2020) obtained from a mainstream framework: layers with manual
//! backprop, SGD with momentum, learning-rate schedules including the
//! warmup+cosine schedule used for masked retraining, cross entropy with
//! label smoothing, and a mini-batch training loop with a gradient hook
//! through which the ADMM W-minimisation step injects its quadratic
//! penalty.
//!
//! # Layers
//!
//! * [`Conv3d`] — all convolution flavours used by C3D and R(2+1)D
//!   (`3x3x3`, `1xKxK` spatial, `Kx1x1` temporal, `1x1x1` projections),
//! * [`BatchNorm3d`], [`Relu`], [`MaxPool3d`], [`GlobalAvgPool`],
//!   [`Linear`], [`Flatten`],
//! * containers [`Sequential`] and [`ResidualBlock`].
//!
//! # Example
//!
//! ```
//! use p3d_nn::{Conv3d, GlobalAvgPool, Layer, Linear, Mode, Relu, Sequential};
//! use p3d_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed(0);
//! let mut net = Sequential::new()
//!     .push(Conv3d::new("c1", 8, 1, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng))
//!     .push(Relu::new())
//!     .push(GlobalAvgPool::new())
//!     .push(Linear::new("fc", 4, 8, true, &mut rng));
//! let clip = rng.uniform_tensor([2, 1, 4, 8, 8], -1.0, 1.0);
//! let logits = net.forward(&clip, Mode::Eval);
//! assert_eq!(logits.shape().dims(), &[2, 4]);
//! ```

pub mod activation;
pub mod arena;
pub mod batchnorm;
pub mod checkpoint;
pub mod container;
pub mod conv3d;
pub mod gradcheck;
pub mod im2col;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod pool;
pub mod schedule;
pub mod sentinel;
pub mod train_state;
pub mod trainer;

pub use activation::Relu;
pub use arena::{ArenaStats, BufId, EvalArena};
pub use batchnorm::BatchNorm3d;
pub use checkpoint::{Checkpoint, RestoreError, RestoreReport};
pub use container::{ResidualBlock, Sequential};
pub use conv3d::Conv3d;
pub use layer::{Layer, LayerExt, Mode, Param, ParamKind};
pub use linear::{Flatten, Linear};
pub use loss::CrossEntropyLoss;
pub use optim::Sgd;
pub use pool::{GlobalAvgPool, MaxPool3d};
pub use schedule::LrSchedule;
pub use sentinel::{activation_sentinels_enabled, set_activation_sentinels};
pub use train_state::{pack_u64s, unpack_u64s, TrainState};
pub use trainer::{evaluate, stack_clips, Dataset, EpochStats, ToyDataset, Trainer};
