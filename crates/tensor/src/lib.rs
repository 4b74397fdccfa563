#![warn(missing_docs)]
//! Dense n-dimensional tensors and fixed-point arithmetic for 3D CNN
//! workloads.
//!
//! This crate is the numeric substrate of the `p3d` workspace, which
//! reproduces *"3D CNN Acceleration on FPGA using Hardware-Aware Pruning"*
//! (DAC 2020). It provides:
//!
//! * [`Shape`] — shape/stride algebra for up to 5-D tensors (the weight
//!   tensors of 3D convolutions are 5-D: `[M, N, Kd, Kr, Kc]`),
//! * [`Tensor`] — a dense, row-major, `f32` tensor with the elementwise,
//!   reduction, and indexing operations needed by a from-scratch neural
//!   network stack,
//! * [`Fixed16`] — the paper's 16-bit fixed-point format (1 sign bit,
//!   7 integer bits, 8 fractional bits) with saturating arithmetic and the
//!   wide-accumulator MAC semantics of an FPGA DSP slice,
//! * [`gemm`] — the packed, register-tiled GEMM kernel behind every
//!   `matmul` in the workspace, dense and block-sparse (`Tm x Tn`
//!   block-enable) alike,
//! * [`rng`] — seeded random initialisation (uniform, normal, Kaiming),
//! * [`crc`] — the CRC-32 of both container formats (P3DCKPT2
//!   checkpoints, P3DVID1 video), with a carry-less-multiply fold,
//! * [`parallel`] — the persistent-worker-pool parallel-for layer behind
//!   the multi-threaded GEMM and convolution kernels (`P3D_THREADS`).
//!
//! # Example
//!
//! ```
//! use p3d_tensor::{Shape, Tensor};
//!
//! // A weight tensor for a 1x3x3 spatial convolution with 8 output and
//! // 4 input channels.
//! let w = Tensor::zeros(Shape::new(&[8, 4, 1, 3, 3]));
//! assert_eq!(w.len(), 8 * 4 * 9);
//! assert_eq!(w.shape().dims(), &[8, 4, 1, 3, 3]);
//! ```

pub mod crc;
pub mod fixed;
pub mod gemm;
pub mod parallel;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use fixed::{div_round_nearest, Fixed16, FixedTensor};
pub use gemm::{
    gemm_bs_into, gemm_bs_with_packer, gemm_into, gemm_nt_into, gemm_with_packer, BlockPattern,
    BlockSparseWeights,
};
pub use rng::TensorRng;
pub use shape::Shape;
pub use tensor::Tensor;
