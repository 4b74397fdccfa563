#![warn(missing_docs)]
// Numeric kernels index multiple parallel buffers; explicit indices read
// better than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]
//! FPGA accelerator model for tiled 3D convolution — the hardware side
//! of *"3D CNN Acceleration on FPGA using Hardware-Aware Pruning"*
//! (DAC 2020).
//!
//! The paper's accelerator cannot be synthesised here (no Vivado, no
//! ZCU102), so this crate implements the two artefacts the paper's
//! hardware numbers actually derive from, plus a functional simulator to
//! validate them:
//!
//! * [`resources`] — the BRAM/DSP models of Eqs. 14–18 with
//!   partition-aware BRAM counting calibrated against Table III,
//! * [`latency`] — the cycle model of Eqs. 19–25, extended with the
//!   block-enable signal so pruned weight blocks skip whole loop-L3
//!   iterations,
//! * [`sim`] — a cycle-approximate functional simulator executing
//!   Algorithm 2 in Q7.8 fixed point, bit-faithful to the MAC-array
//!   semantics, used to verify that block skipping is lossless and that
//!   the analytic cycle counts match the executed loop structure,
//! * [`dse`] — design-space exploration over `(Tm, Tn, Td, Tr, Tc)`
//!   under board resource constraints.
//!
//! # Example: the paper's two design points
//!
//! ```
//! use p3d_fpga::config::AcceleratorConfig;
//! use p3d_fpga::latency::{network_latency, DoubleBuffering};
//! use p3d_core::PrunedModel;
//! use p3d_models::r2plus1d::r2plus1d_18;
//!
//! let spec = r2plus1d_18(101);
//! let cfg = AcceleratorConfig::paper_tn8();
//! let lat = network_latency(&spec, &cfg, &PrunedModel::dense(), DoubleBuffering::On);
//! // Unpruned R(2+1)D at (Tm, Tn) = (64, 8): paper reports 1044 ms.
//! let ms = lat.ms(&cfg);
//! assert!(ms > 500.0 && ms < 1500.0);
//! ```

pub mod bandwidth;
pub mod config;
pub mod dse;
pub mod latency;
pub mod power;
pub mod resources;
pub mod sim;
pub mod winograd;

pub use bandwidth::{conv_traffic, network_traffic, LayerTraffic, Traffic};
pub use config::{AcceleratorConfig, Board, Ports, Tiling};
pub use dse::{explore, DesignPoint, SearchSpace};
pub use latency::{
    conv_latency, network_latency, Bottleneck, DoubleBuffering, LayerLatency, NetworkLatency,
};
pub use power::PowerModel;
pub use resources::{estimate_resources, fits, utilization, BufferWords, ResourceEstimate};
pub use sim::{run_conv, ConvStats, PostProcessor, QuantizedNetwork, SimOutput};
pub use winograd::{winograd_conv2d, winograd_eligible, winograd_network_latency};
