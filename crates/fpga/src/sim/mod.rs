//! A functional simulator of the accelerator of Fig. 2: the tiled
//! convolution engine (Algorithm 2) with double buffering, the
//! `Tm x Tn` MAC array with wide accumulation, the block enable signal
//! that skips pruned weight blocks, and the post-processing unit
//! (bias / batch norm / shortcut / ReLU / pooling).
//!
//! The simulator has two convolution engines producing bitwise-equal
//! results:
//!
//! * [`cycle`] — the **cycle-approximate** tile-loop engine that walks
//!   Algorithm 2's exact loop nest and accounts cycles alongside the
//!   arithmetic; kept for latency-model validation,
//! * [`functional`] — the **fast functional** path serving goes
//!   through: the input lowered once per bounded tile of output rows,
//!   one register-tiled exact integer kernel over each block row's
//!   enabled tile rows for every stride and tap (AVX2, with a
//!   bitwise-identical scalar body), and statistics reproduced
//!   analytically from the same tile walk.
//!
//! The simulator computes real outputs in the paper's Q7.8 fixed point,
//! so it validates three things the analytic models cannot:
//!
//! 1. skipping pruned blocks is *functionally* lossless (pruned weights
//!    are zero, so the skipped MACs contribute nothing),
//! 2. 16-bit fixed point reproduces the f32 reference within
//!    quantisation error,
//! 3. the cycle counts of the latency equations correspond to the loop
//!    structure actually executed.

pub mod cycle;
pub mod functional;
pub mod network;
pub mod post;

pub use cycle::{run_conv, run_conv_with_scratch, ConvStats};
pub use functional::{run_conv_functional, run_conv_functional_with_scratch};
pub use network::{QuantizedNetwork, SimOutput, SimPath, SimScratch};
pub use post::PostProcessor;
