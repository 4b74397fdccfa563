#![warn(missing_docs)]
//! Batched, high-throughput inference serving for the 3D-CNN stack.
//!
//! The paper's deployment story ends at the accelerator, but measuring
//! it honestly needs a host-side serving layer: this crate batches clip
//! requests, fans them out clip-parallel across worker replicas, and
//! reuses every per-layer activation and GEMM pack buffer across
//! forwards so the steady-state hot path performs no heap allocation.
//!
//! Two backends sit behind one [`InferenceEngine`] trait:
//!
//! * [`F32Engine`] — the float reference network from `p3d-nn`, run
//!   through the arena evaluation path ([`p3d_nn::EvalArena`]); one
//!   network replica + arena per worker.
//! * [`SimEngine`] — the Q7.8 accelerator simulator from `p3d-fpga`,
//!   with block-enable maps from a pruned-model artifact.
//!
//! Both are deterministic: outputs are bitwise identical across
//! `P3D_THREADS` settings and identical to a per-clip sequential
//! forward, because each clip is computed in full by exactly one worker
//! with a fixed expression order and results are collected by index.
//!
//! On top of the plain [`BatchScheduler`] fast path sits a hardened
//! serving layer: [`ResilientServer`] adds input validation, bounded
//! admission with load shedding, per-request deadlines, supervised
//! workers (`catch_unwind` + restart), retry with seeded backoff,
//! poison-request quarantine, and automatic Q7.8→f32 degradation on
//! saturation anomalies — all exercised by the deterministic
//! fault-injection harness in [`chaos`]. Each request is counted once
//! in the run's [`ErrorBudget`], where its response is emitted:
//! [`ErrorBudget::resolve`] is the only code that counts a request
//! into the budget's partition, so the partition balances by
//! construction. `p3d infer`
//! serves both its batch and resilient modes through
//! [`ResilientServer`]; [`BatchScheduler`] remains for the benches.
//!
//! The network front door is [`HttpServer`] ([`http`]): a std-only,
//! thread-per-connection HTTP/1.1 server whose request framing
//! ([`wire`]) validates every length against a cap before allocating,
//! with per-client token-bucket fairness shedding excess load as
//! HTTP 429. All report serialization — CLI `--json`, wire responses,
//! `GET /stats` — shares one schema ([`json`]).
//!
//! # Example
//!
//! ```
//! use p3d_infer::{BatchScheduler, F32Engine, InferenceEngine};
//! use p3d_nn::{Conv3d, GlobalAvgPool, Linear, Relu, Sequential};
//! use p3d_tensor::TensorRng;
//!
//! let build = || {
//!     let mut rng = TensorRng::seed(7); // same seed => identical replicas
//!     Sequential::new()
//!         .push(Conv3d::new("c", 4, 1, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng))
//!         .push(Relu::new())
//!         .push(GlobalAvgPool::new())
//!         .push(Linear::new("fc", 3, 4, true, &mut rng))
//! };
//! let mut engine = F32Engine::new(2, build);
//! let mut sched = BatchScheduler::new(8);
//! let mut rng = TensorRng::seed(1);
//! for _ in 0..5 {
//!     sched.submit(rng.uniform_tensor([1, 4, 8, 8], -1.0, 1.0)); // [C, D, H, W]
//! }
//! let run = sched.drain(&mut engine);
//! assert_eq!(run.results.len(), 5);
//! assert!(run.results.iter().all(|r| r.logits.len() == 3));
//! ```

pub mod chaos;
pub mod engine;
pub mod http;
pub mod json;
pub mod registry;
pub mod resilience;
pub mod respcache;
pub mod scheduler;
pub mod stats;
pub mod swap;
pub mod wire;

pub use chaos::{install_quiet_panic_hook, swap_storm, Fault, FaultMix, FaultPlan, SwapAction};
pub use engine::{
    argmax, ClipResult, F32Engine, InferenceEngine, SimEngine, SlotCtx, SupervisedSlot,
    SupervisionReport, WorkerFault,
};
pub use http::{HttpServer, ModelPushConfig, ServeConfig, ServeSnapshot, TokenBucket};
pub use registry::{
    content_hash, hash_hex, ModelEntry, ModelRegistry, Published, RegistryError, RejectedEntry,
};
pub use resilience::{
    validate_clip, InferError, Request, ResilientRun, ResilientServer, Response, ServerConfig,
};
pub use respcache::{clip_hash, model_key, ResponseCache};
pub use scheduler::{BatchScheduler, StreamRun};
pub use stats::{percentile, ErrorBudget, LatencyStats, Resolution};
pub use swap::{canary_verdict, smoke_test, CanaryPolicy, CanaryVerdict, SwapStats};
pub use wire::{HttpRequest, WireError, WireLimits};
