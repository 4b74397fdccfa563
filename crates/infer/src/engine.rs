//! Inference backends behind a common trait.
//!
//! Both backends accept rank-4 `[C, D, H, W]` clips and fill a
//! caller-provided `&mut [ClipResult]` slice indexed by submission order,
//! so result collection is fixed-order by construction: the output for
//! clip `i` always lands in slot `i` no matter which worker computed it.
//!
//! # Supervision
//!
//! The fast path ([`InferenceEngine::infer_batch_into`]) assumes every
//! clip computes cleanly. The *supervised* path
//! ([`InferenceEngine::infer_batch_supervised`]) runs each clip under
//! [`std::panic::catch_unwind`], so a worker panic (a numeric sentinel
//! trip, an injected chaos fault, a genuine bug) marks **one slot** as
//! faulted instead of tearing down the batch, and crashed workers are
//! restarted (fresh arena / scratch) before the call returns. This is
//! the substrate [`crate::ResilientServer`] builds retry, quarantine and
//! degradation on.

use crate::chaos::{FaultPlan, CHAOS_PANIC_MESSAGE};
use p3d_core::PrunedModel;
use p3d_fpga::sim::{QuantizedNetwork, SimScratch};
use p3d_nn::{EvalArena, Layer, Sequential};
use p3d_tensor::parallel::{max_threads, parallel_worker_chunks};
use p3d_tensor::{Shape, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The classifier output for one clip.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClipResult {
    /// Raw (f32 or dequantised) logits.
    pub logits: Vec<f32>,
    /// Predicted class index.
    pub prediction: usize,
}

/// Index of the largest logit, breaking ties toward the **last** maximum
/// — the same convention as `Tensor::argmax` and `p3d_nn::evaluate`.
pub fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Per-slot serving context for a supervised batch: which *request*
/// (not batch position) the slot carries, and which delivery attempt
/// this is. Chaos plans key off both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotCtx {
    /// Request index in submission order (stable across retries).
    pub index: usize,
    /// Zero-based delivery attempt for this request.
    pub attempt: u32,
}

/// A caught worker failure for one slot of a supervised batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerFault {
    /// The panic message (payload downcast to a string when possible).
    pub message: String,
}

impl WorkerFault {
    /// `true` when this fault came from a numeric activation sentinel
    /// (NaN/Inf mid-network) rather than a crash — such requests are
    /// candidates for degradation, not retry.
    pub fn is_sentinel(&self) -> bool {
        p3d_nn::sentinel::is_sentinel_message(&self.message)
    }

    /// `true` when this fault was injected by a chaos plan.
    pub fn is_injected(&self) -> bool {
        self.message.starts_with("chaos:")
    }
}

/// Renders a caught panic payload as a message string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "worker panicked (non-string payload)".to_string())
}

/// One slot of a supervised batch: either the clip's result plus its
/// observed Q7.8 saturation rate (always `0.0` on f32 backends), or the
/// fault that killed the worker serving it.
pub type SupervisedSlot = Result<(ClipResult, f64), WorkerFault>;

/// What the supervisor observed while running one batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Workers that crashed during the batch and were replaced (fresh
    /// arena / scratch) before this call returned.
    pub worker_restarts: usize,
}

/// Runs one slot's chaos injections (delay, then panic) and the compute
/// closure under `catch_unwind`, translating a panic into a fault.
fn supervise_slot(
    ctx: SlotCtx,
    chaos: Option<&FaultPlan>,
    compute: impl FnOnce() -> (ClipResult, f64),
) -> SupervisedSlot {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = chaos {
            if let Some(stall) = plan.delay_for(ctx.index) {
                std::thread::sleep(stall);
            }
            if plan.should_panic(ctx.index, ctx.attempt) {
                panic!("{CHAOS_PANIC_MESSAGE}");
            }
        }
        compute()
    }))
    .map_err(|payload| WorkerFault {
        message: panic_message(payload.as_ref()),
    })
}

/// A batched inference backend.
///
/// Implementations must be deterministic: for a fixed model, the results
/// for a given clip are bitwise identical no matter the batch
/// composition, the thread count, or which internal worker ran the clip.
pub trait InferenceEngine {
    /// Short backend name for reports (`"f32"`, `"sim"`).
    fn name(&self) -> &str;

    /// Runs `clips` and writes results into `out` (same length, matched
    /// by index). Reusing `out` across calls lets warm `logits` vectors
    /// absorb the writes without reallocating.
    fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]);

    /// Convenience wrapper allocating fresh results.
    fn infer_batch(&mut self, clips: &[Tensor]) -> Vec<ClipResult> {
        let mut out = vec![ClipResult::default(); clips.len()];
        self.infer_batch_into(clips, &mut out);
        out
    }

    /// Supervised batch: every clip runs under `catch_unwind`, chaos
    /// faults from `plan` fire inside the worker, and a panic marks its
    /// own slot faulted instead of poisoning the batch. `ctx[i]` names
    /// the request and attempt carried by slot `i`.
    ///
    /// The default implementation serves clips one at a time through
    /// [`InferenceEngine::infer_batch_into`] — correct for any engine,
    /// but single-worker and without restart accounting. [`F32Engine`]
    /// and [`SimEngine`] override it with clip-parallel supervision and
    /// crashed-worker replacement.
    fn infer_batch_supervised(
        &mut self,
        clips: &[Tensor],
        ctx: &[SlotCtx],
        chaos: Option<&FaultPlan>,
        out: &mut [SupervisedSlot],
    ) -> SupervisionReport {
        assert_eq!(clips.len(), out.len(), "clips/results length mismatch");
        assert_eq!(clips.len(), ctx.len(), "clips/ctx length mismatch");
        for i in 0..clips.len() {
            let mut tmp = [ClipResult::default()];
            out[i] = supervise_slot(ctx[i], chaos, || {
                self.infer_batch_into(&clips[i..i + 1], &mut tmp);
                (std::mem::take(&mut tmp[0]), 0.0)
            });
        }
        SupervisionReport::default()
    }
}

/// One f32 worker: a network replica plus its private activation arena.
///
/// Replicas never share mutable state, so a batch can fan out clip-
/// parallel with each worker running the allocation-free arena path.
struct Replica {
    net: Sequential,
    arena: EvalArena,
    /// Panics caught on this worker during the current supervised batch;
    /// non-zero marks the replica for restart (fresh arena) afterwards.
    crashes: usize,
}

impl Replica {
    /// Runs one `[C, D, H, W]` clip through the arena evaluation path.
    fn run(&mut self, clip: &Tensor, out: &mut ClipResult) {
        let s = clip.shape();
        assert_eq!(s.rank(), 4, "engine expects [C, D, H, W] clips, got {s}");
        self.arena.reset();
        let id = self.arena.load_clip(clip);
        // Relabel as a batch of one; pure metadata, no copy.
        self.arena
            .set_shape(id, Shape::d5(1, s.dim(0), s.dim(1), s.dim(2), s.dim(3)));
        let out_id = self.net.eval_into(&mut self.arena, id);
        out.logits.clear();
        out.logits.extend_from_slice(self.arena.buf(out_id));
        out.prediction = argmax(&out.logits);
    }
}

/// Batched f32 inference over replicated `p3d-nn` networks.
///
/// Each worker owns a replica of the network and an [`EvalArena`], so the
/// steady-state forward is allocation-free (buffers are acquired once on
/// the first clip and reused thereafter) and clips fan out in parallel
/// without locking. All replicas carry identical parameters, which makes
/// the batch output independent of the clip-to-worker assignment.
pub struct F32Engine {
    replicas: Vec<Replica>,
}

impl F32Engine {
    /// Builds an engine with `replicas` identical copies of the network
    /// produced by `build` (e.g. `build_network` + checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize, mut build: impl FnMut() -> Sequential) -> Self {
        assert!(replicas > 0, "need at least one replica");
        F32Engine {
            replicas: (0..replicas)
                .map(|_| Replica {
                    net: build(),
                    arena: EvalArena::new(),
                    crashes: 0,
                })
                .collect(),
        }
    }

    /// Builds an engine whose replicas execute block-sparsely under
    /// `pruned`'s block-enable maps — the pruned-model serving path.
    ///
    /// Every replica compiles its conv weights to block-CSR once, so the
    /// steady-state forward skips pruned `Tm x Tn` blocks outright.
    /// Because skipped blocks are exactly zero in a pruned checkpoint,
    /// results are **bitwise identical** to [`F32Engine::new`] on the
    /// same weights — only faster, proportionally to the pruning ratio.
    pub fn new_pruned(
        replicas: usize,
        build: impl FnMut() -> Sequential,
        pruned: &p3d_core::PrunedModel,
    ) -> Self {
        let mut engine = F32Engine::new(replicas, build);
        for rep in &mut engine.replicas {
            pruned.install_block_sparse(&mut rep.net);
        }
        engine
    }

    /// Number of worker replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Total grow/fallback events summed over all replica arenas; a
    /// steady-state batch must leave these untouched.
    pub fn arena_grow_events(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.arena.stats().grow_events + r.arena.stats().fallback_events)
            .sum()
    }

    /// Replaces the arena of every replica that caught a panic this
    /// batch. Network parameters are immutable under eval and the arena
    /// path's results are independent of buffer identity, so a fresh
    /// arena fully restores the worker — including its zero-allocation
    /// steady state once the new buffers warm up.
    fn restart_crashed(&mut self) -> usize {
        let mut restarts = 0;
        for rep in &mut self.replicas {
            if rep.crashes > 0 {
                rep.arena = EvalArena::new();
                rep.crashes = 0;
                restarts += 1;
            }
        }
        restarts
    }
}

impl InferenceEngine for F32Engine {
    fn name(&self) -> &str {
        "f32"
    }

    fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
        assert_eq!(clips.len(), out.len(), "clips/results length mismatch");
        // One contiguous slab per replica (not one chunk per clip):
        // a single dispatch per worker, and each worker writes a
        // contiguous result range, so cache lines are shared only at
        // slab boundaries. The clip→slot mapping stays fixed, so
        // results are bitwise independent of the worker count.
        let slab = out.len().div_ceil(self.replicas.len().max(1));
        parallel_worker_chunks(out, slab, &mut self.replicas, |rep, ci, slots| {
            for (k, slot) in slots.iter_mut().enumerate() {
                rep.run(&clips[ci * slab + k], slot);
            }
        });
    }

    fn infer_batch_supervised(
        &mut self,
        clips: &[Tensor],
        ctx: &[SlotCtx],
        chaos: Option<&FaultPlan>,
        out: &mut [SupervisedSlot],
    ) -> SupervisionReport {
        assert_eq!(clips.len(), out.len(), "clips/results length mismatch");
        assert_eq!(clips.len(), ctx.len(), "clips/ctx length mismatch");
        let slab = out.len().div_ceil(self.replicas.len().max(1));
        parallel_worker_chunks(out, slab, &mut self.replicas, |rep, ci, slots| {
            for (k, slot) in slots.iter_mut().enumerate() {
                let idx = ci * slab + k;
                *slot = supervise_slot(ctx[idx], chaos, || {
                    // A panic mid-eval cannot corrupt later clips: `run`
                    // starts with `arena.reset()` and every acquire re-sets
                    // shape and length, so the same worker keeps producing
                    // bitwise-correct results until the post-batch restart
                    // swaps its arena anyway.
                    let mut res = ClipResult::default();
                    rep.run(&clips[idx], &mut res);
                    (res, 0.0)
                });
                if slot.is_err() {
                    rep.crashes += 1;
                }
            }
        });
        SupervisionReport {
            worker_restarts: self.restart_crashed(),
        }
    }
}

/// Batched Q7.8 inference over the simulated accelerator.
///
/// [`QuantizedNetwork::forward`] takes `&self`, so one quantised model is
/// shared read-only across workers; the block-enable maps from the
/// pruned-model artifact gate computation exactly as in `p3d simulate`.
///
/// Serving runs the **fast functional** Q7.8 path
/// ([`QuantizedNetwork::forward_functional_with_scratch`]): each conv
/// lowers its input into bounded tiles of output rows and adds every
/// non-zero weight's tile row into exact `i64` accumulators with one
/// AVX2 integer kernel, rounding once per output. Integer sums do not
/// depend on order, so it is bitwise identical in logits and statistics
/// to the cycle-approximate engine that `p3d simulate` uses for latency
/// validation.
///
/// Each worker owns a [`SimScratch`] so the conv engine's accumulator
/// buffers are reused across clips instead of reallocated,
/// and the worker count is capped at the host's physical parallelism:
/// the simulator is pure compute, so running more workers than cores
/// (e.g. a forced `P3D_THREADS` above `available_parallelism`) only adds
/// contention without adding throughput. Results are bitwise independent
/// of both the cap and the scratch reuse.
pub struct SimEngine {
    net: QuantizedNetwork,
    pruned: PrunedModel,
    workers: Vec<SimWorker>,
}

/// One simulator worker: a scratch plus its crash count for supervision.
struct SimWorker {
    scratch: SimScratch,
    crashes: usize,
}

impl SimEngine {
    /// Wraps a quantised network and a pruning artifact (use
    /// [`PrunedModel::dense`] for an unpruned run).
    pub fn new(net: QuantizedNetwork, pruned: PrunedModel) -> Self {
        SimEngine {
            net,
            pruned,
            workers: Vec::new(),
        }
    }

    /// The wrapped quantised network.
    pub fn network(&self) -> &QuantizedNetwork {
        &self.net
    }

    /// Effective worker cap: the forced thread count, but never more
    /// than the host can actually run in parallel.
    fn worker_cap() -> usize {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        max_threads().min(host).max(1)
    }

    /// Keeps existing scratches warm; only grows when the cap does.
    fn ensure_workers(&mut self, cap: usize) {
        if self.workers.len() < cap {
            self.workers.resize_with(cap, || SimWorker {
                scratch: SimScratch::new(),
                crashes: 0,
            });
        }
    }

    /// Replaces the scratch of every worker that caught a panic this
    /// batch; the simulator rebuilds all per-tile state from scratch
    /// buffers each forward, so a fresh scratch is a full restart.
    fn restart_crashed(&mut self) -> usize {
        let mut restarts = 0;
        for w in &mut self.workers {
            if w.crashes > 0 {
                w.scratch = SimScratch::new();
                w.crashes = 0;
                restarts += 1;
            }
        }
        restarts
    }
}

impl InferenceEngine for SimEngine {
    fn name(&self) -> &str {
        "sim"
    }

    fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
        assert_eq!(clips.len(), out.len(), "clips/results length mismatch");
        let cap = Self::worker_cap();
        self.ensure_workers(cap);
        let net = &self.net;
        let pruned = &self.pruned;
        // Slab dispatch, as in F32Engine: one contiguous result range
        // per worker instead of a chunk per clip.
        let slab = out.len().div_ceil(cap);
        parallel_worker_chunks(out, slab, &mut self.workers[..cap], |w, ci, slots| {
            for (k, slot) in slots.iter_mut().enumerate() {
                let r = net.forward_functional_with_scratch(
                    &clips[ci * slab + k],
                    pruned,
                    &mut w.scratch,
                );
                slot.logits.clear();
                slot.logits.extend_from_slice(&r.logits);
                slot.prediction = r.prediction;
            }
        });
    }

    fn infer_batch_supervised(
        &mut self,
        clips: &[Tensor],
        ctx: &[SlotCtx],
        chaos: Option<&FaultPlan>,
        out: &mut [SupervisedSlot],
    ) -> SupervisionReport {
        assert_eq!(clips.len(), out.len(), "clips/results length mismatch");
        assert_eq!(clips.len(), ctx.len(), "clips/ctx length mismatch");
        let cap = Self::worker_cap();
        self.ensure_workers(cap);
        let net = &self.net;
        let pruned = &self.pruned;
        let slab = out.len().div_ceil(cap);
        parallel_worker_chunks(out, slab, &mut self.workers[..cap], |w, ci, slots| {
            for (k, slot) in slots.iter_mut().enumerate() {
                let idx = ci * slab + k;
                *slot = supervise_slot(ctx[idx], chaos, || {
                    let r =
                        net.forward_functional_with_scratch(&clips[idx], pruned, &mut w.scratch);
                    let saturation = r.saturation_rate();
                    (
                        ClipResult {
                            prediction: r.prediction,
                            logits: r.logits,
                        },
                        saturation,
                    )
                });
                if slot.is_err() {
                    w.crashes += 1;
                }
            }
        });
        SupervisionReport {
            worker_restarts: self.restart_crashed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;
    use p3d_nn::{Conv3d, GlobalAvgPool, Linear, Relu};
    use p3d_tensor::TensorRng;

    #[test]
    fn argmax_matches_tensor_convention() {
        // Ties break toward the last maximum, like Tensor::argmax.
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), 2);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
        assert_eq!(argmax(&[]), 0);
        let t = Tensor::from_vec([4], vec![1.0, 3.0, 3.0, 0.0]);
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), t.argmax());
    }

    fn tiny_net() -> Sequential {
        let mut rng = TensorRng::seed(7);
        Sequential::new()
            .push(Conv3d::new("c", 4, 1, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng))
            .push(Relu::new())
            .push(GlobalAvgPool::new())
            .push(Linear::new("fc", 3, 4, true, &mut rng))
    }

    fn tiny_clips(n: usize) -> Vec<Tensor> {
        let mut rng = TensorRng::seed(11);
        (0..n)
            .map(|_| rng.uniform_tensor([1, 4, 8, 8], -1.0, 1.0))
            .collect()
    }

    #[test]
    fn supervised_matches_fast_path_without_chaos() {
        let clips = tiny_clips(6);
        let mut engine = F32Engine::new(2, tiny_net);
        let baseline = engine.infer_batch(&clips);
        let ctx: Vec<SlotCtx> = (0..clips.len())
            .map(|i| SlotCtx { index: i, attempt: 0 })
            .collect();
        let mut out: Vec<SupervisedSlot> = vec![Ok((ClipResult::default(), 0.0)); clips.len()];
        let report = engine.infer_batch_supervised(&clips, &ctx, None, &mut out);
        assert_eq!(report.worker_restarts, 0);
        for (slot, base) in out.iter().zip(&baseline) {
            let (res, sat) = slot.as_ref().expect("no faults injected");
            assert_eq!(*sat, 0.0);
            assert_eq!(res.prediction, base.prediction);
            let a: Vec<u32> = res.logits.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = base.logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "supervised path must be bitwise identical");
        }
    }

    #[test]
    fn injected_panic_faults_one_slot_and_restarts_worker() {
        crate::chaos::install_quiet_panic_hook();
        let clips = tiny_clips(5);
        let mut engine = F32Engine::new(2, tiny_net);
        let baseline = engine.infer_batch(&clips);
        let plan = FaultPlan::new().inject(2, Fault::Panic { times: u32::MAX });
        let ctx: Vec<SlotCtx> = (0..clips.len())
            .map(|i| SlotCtx { index: i, attempt: 0 })
            .collect();
        let mut out: Vec<SupervisedSlot> = vec![Ok((ClipResult::default(), 0.0)); clips.len()];
        let report = engine.infer_batch_supervised(&clips, &ctx, Some(&plan), &mut out);
        assert_eq!(report.worker_restarts, 1, "the killed worker must restart");
        for (i, slot) in out.iter().enumerate() {
            if i == 2 {
                let fault = slot.as_ref().expect_err("slot 2 must be faulted");
                assert!(fault.is_injected(), "unexpected fault: {}", fault.message);
                assert!(!fault.is_sentinel());
            } else {
                let (res, _) = slot.as_ref().expect("other slots must survive");
                let a: Vec<u32> = res.logits.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = baseline[i].logits.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "clip {i} changed after a neighbour's crash");
            }
        }
        // The restarted worker keeps serving correctly.
        let again = engine.infer_batch(&clips);
        for (x, y) in again.iter().zip(&baseline) {
            assert_eq!(x.prediction, y.prediction);
        }
    }

    #[test]
    fn default_supervised_impl_catches_panics() {
        // A minimal engine that panics on demand, relying on the
        // trait's default one-clip-at-a-time supervision.
        struct Flaky;
        impl InferenceEngine for Flaky {
            fn name(&self) -> &str {
                "flaky"
            }
            fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
                for (clip, slot) in clips.iter().zip(out.iter_mut()) {
                    assert!(
                        clip.data()[0] >= 0.0,
                        "chaos: negative lead element"
                    );
                    slot.prediction = 1;
                    slot.logits = vec![0.0, 1.0];
                }
            }
        }
        crate::chaos::install_quiet_panic_hook();
        let good = Tensor::from_vec([1, 1, 1, 2], vec![0.5, 0.5]);
        let bad = Tensor::from_vec([1, 1, 1, 2], vec![-1.0, 0.5]);
        let clips = vec![good.clone(), bad, good];
        let ctx: Vec<SlotCtx> = (0..3)
            .map(|i| SlotCtx { index: i, attempt: 0 })
            .collect();
        let mut out: Vec<SupervisedSlot> = vec![Ok((ClipResult::default(), 0.0)); 3];
        Flaky.infer_batch_supervised(&clips, &ctx, None, &mut out);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok(), "a fault must not poison later slots");
    }
}
