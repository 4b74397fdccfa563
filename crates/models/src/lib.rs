#![warn(missing_docs)]
// Spec builders accumulate nodes imperatively; `vec![...]` literals would
// obscure the conditional stage construction.
#![allow(clippy::vec_init_then_push)]
//! Network specifications and builders for the 3D CNNs of the paper:
//! R(2+1)D-18 (Table I) and the C3D baseline, plus scaled-down trainable
//! variants.
//!
//! The crate is organised around [`NetworkSpec`], a declarative network
//! description, parsed once into a typed [`plan::Plan`] from which three
//! consumers derive everything they need:
//!
//! * [`build::build_network`] instantiates a trainable `p3d-nn` network,
//! * [`summary`] produces the per-stage parameter/operation tables
//!   (Tables I and II of the paper),
//! * the `p3d-fpga` crate models per-layer accelerator latency and
//!   resources, and runs the quantised simulator, from the plan.
//!
//! # Example
//!
//! ```
//! use p3d_models::r2plus1d::r2plus1d_18;
//!
//! let spec = r2plus1d_18(101);
//! // Table II, "before pruning": 83.05 G ops on a 16x112x112 clip.
//! let gops = spec.conv_ops().unwrap() as f64 / 1e9;
//! assert!((gops - 83.05).abs() < 0.1);
//! ```

pub mod build;
pub mod c3d;
pub mod lite;
pub mod plan;
pub mod r2plus1d;
pub mod spec;
pub mod summary;
pub mod variants;

pub use build::build_network;
pub use c3d::c3d;
pub use lite::{c3d_lite, r2plus1d_lite, r2plus1d_lite_wide, r2plus1d_micro};
pub use plan::{Bn, ConvStage, LinearStage, Plan, Pool, Stage};
pub use r2plus1d::r2plus1d_18;
pub use spec::{Conv3dSpec, ConvInstance, FeatShape, NetworkSpec, Node, SpecError};
pub use summary::{architecture_rows, summarize, ModelSummary, StageCounts};
pub use variants::{mc3_18, r3d_18};
