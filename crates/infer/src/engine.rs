//! Inference backends behind a common trait.
//!
//! Both backends are one replicated engine: a fixed set of workers,
//! built with the engine and never resized, plus state every worker
//! reads and none writes. Only the per-clip body differs. An
//! [`F32Engine`] worker is a network replica with its own [`EvalArena`];
//! a [`SimEngine`] worker holds nothing of its own and runs one shared
//! [`CompiledNetwork`], compiled once. Dispatch,
//! supervision and worker restart are written once for both.
//!
//! Clips are rank-4 `[C, D, H, W]` tensors, and results fill a
//! caller-provided `&mut [ClipResult]` slice indexed by submission order.
//! Each worker serves one contiguous slab of slots, so the output for
//! clip `i` always lands in slot `i` no matter which worker computed it,
//! and results are bitwise independent of the worker count.
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
use p3d_fpga::sim::{CompiledNetwork, QuantizedNetwork};
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
    /// but single-worker and without restart accounting. The replicated
    /// engine behind both built-in backends supervises its workers'
    /// slabs in parallel instead, and replaces every worker that crashed
    /// before the call returns.
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

/// One worker of the replicated engine: the per-clip body of a backend.
trait Worker: Send {
    /// Backend name for reports.
    const NAME: &'static str;
    /// State every worker reads and none writes.
    type Shared: Sync;

    /// Runs one `[C, D, H, W]` clip into `out` and returns its Q7.8
    /// saturation rate (always `0.0` on f32).
    fn run(&mut self, shared: &Self::Shared, clip: &Tensor, out: &mut ClipResult) -> f64;

    /// Replaces the worker's arena or scratch after a crash.
    fn restart(&mut self);
}

/// Workers, each with the crash flag its supervised slots raise, and the
/// state they share. The worker set is fixed at construction.
struct Replicated<W: Worker> {
    workers: Vec<(W, bool)>,
    shared: W::Shared,
}

impl<W: Worker> Replicated<W> {
    fn new(workers: impl Iterator<Item = W>, shared: W::Shared) -> Self {
        Replicated {
            workers: workers.map(|w| (w, false)).collect(),
            shared,
        }
    }

    /// Serves every slot of `out` with `body(worker, shared, index,
    /// slot)`, which returns `true` when the slot crashed its worker.
    ///
    /// Each worker takes one contiguous slab (not one chunk per clip): a
    /// single dispatch per worker, and each writes a contiguous result
    /// range, so cache lines are shared only at slab boundaries. The
    /// clip→slot mapping stays fixed, so results are bitwise independent
    /// of the worker count.
    fn dispatch<S: Send>(
        &mut self,
        out: &mut [S],
        body: impl Fn(&mut W, &W::Shared, usize, &mut S) -> bool + Sync,
    ) {
        let slab = out.len().div_ceil(self.workers.len());
        let shared = &self.shared;
        parallel_worker_chunks(out, slab, &mut self.workers, |(w, crashed), ci, slots| {
            for (k, slot) in slots.iter_mut().enumerate() {
                *crashed |= body(w, shared, ci * slab + k, slot);
            }
        });
    }
}

impl<W: Worker> InferenceEngine for Replicated<W> {
    fn name(&self) -> &str {
        W::NAME
    }

    fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
        assert_eq!(clips.len(), out.len(), "clips/results length mismatch");
        self.dispatch(out, |w, shared, i, slot| {
            w.run(shared, &clips[i], slot);
            false
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
        self.dispatch(out, |w, shared, i, slot| {
            *slot = supervise_slot(ctx[i], chaos, || {
                // A panic mid-clip cannot corrupt the worker's later
                // clips: `run` rebuilds all per-clip state from its
                // buffers, so the worker keeps producing bitwise-correct
                // results until the restart below replaces them anyway.
                let mut res = ClipResult::default();
                let saturation = w.run(shared, &clips[i], &mut res);
                (res, saturation)
            });
            slot.is_err()
        });
        let mut worker_restarts = 0;
        for (w, crashed) in &mut self.workers {
            if std::mem::take(crashed) {
                w.restart();
                worker_restarts += 1;
            }
        }
        SupervisionReport { worker_restarts }
    }
}

/// Implements [`InferenceEngine`] for a named engine by delegating to
/// the [`Replicated`] engine it wraps.
macro_rules! replicated_engine {
    ($engine:ty) => {
        impl InferenceEngine for $engine {
            fn name(&self) -> &str {
                self.0.name()
            }

            fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
                self.0.infer_batch_into(clips, out);
            }

            fn infer_batch_supervised(
                &mut self,
                clips: &[Tensor],
                ctx: &[SlotCtx],
                chaos: Option<&FaultPlan>,
                out: &mut [SupervisedSlot],
            ) -> SupervisionReport {
                self.0.infer_batch_supervised(clips, ctx, chaos, out)
            }
        }
    };
}

/// One f32 worker: a network replica plus its private activation arena.
struct Replica {
    net: Sequential,
    arena: EvalArena,
}

impl Worker for Replica {
    const NAME: &'static str = "f32";
    type Shared = ();

    fn run(&mut self, _: &(), clip: &Tensor, out: &mut ClipResult) -> f64 {
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
        0.0
    }

    /// Network parameters are immutable under eval and the arena path's
    /// results are independent of buffer identity, so a fresh arena
    /// fully restores the worker, including its zero-allocation steady
    /// state once the new buffers warm up.
    fn restart(&mut self) {
        self.arena = EvalArena::new();
    }
}

/// Batched f32 inference over replicated `p3d-nn` networks.
///
/// Each worker owns a replica of the network and an [`EvalArena`], so the
/// steady-state forward is allocation-free (buffers are acquired once on
/// the first clip and reused thereafter) and clips fan out in parallel
/// without locking. All replicas carry identical parameters, which makes
/// the batch output independent of the clip-to-worker assignment.
pub struct F32Engine(Replicated<Replica>);

impl F32Engine {
    /// Builds an engine with `replicas` identical copies of the network
    /// produced by `build` (e.g. `build_network` + checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize, mut build: impl FnMut() -> Sequential) -> Self {
        assert!(replicas > 0, "need at least one replica");
        let replicas = (0..replicas).map(|_| Replica {
            net: build(),
            arena: EvalArena::new(),
        });
        F32Engine(Replicated::new(replicas, ()))
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
        pruned: &PrunedModel,
    ) -> Self {
        // Build every replica before compiling any. Compiling each one
        // right after building it interleaves their heap blocks, and
        // perfbench's pruned_f32 then served 5-10% fewer clips per second
        // on a 2-vCPU VM (cause not isolated).
        let mut engine = F32Engine::new(replicas, build);
        for (rep, _) in &mut engine.0.workers {
            pruned.install_block_sparse(&mut rep.net);
        }
        engine
    }

    /// Number of worker replicas.
    pub fn replicas(&self) -> usize {
        self.0.workers.len()
    }

    /// Total grow/fallback events summed over all replica arenas; a
    /// steady-state batch must leave these untouched.
    pub fn arena_grow_events(&self) -> usize {
        self.0
            .workers
            .iter()
            .map(|(r, _)| r.arena.stats().grow_events + r.arena.stats().fallback_events)
            .sum()
    }
}

replicated_engine!(F32Engine);

/// A [`SimEngine`] worker. The compiled network is shared and
/// read-only, and the kernel's lowered tile is per-thread scratch that
/// every layer rebuilds, so a worker has no state of its own.
struct SimWorker;

impl Worker for SimWorker {
    const NAME: &'static str = "sim";
    type Shared = CompiledNetwork;

    fn run(&mut self, net: &Self::Shared, clip: &Tensor, out: &mut ClipResult) -> f64 {
        let r = net.forward(clip);
        out.logits.clear();
        out.logits.extend_from_slice(&r.logits);
        out.prediction = r.prediction;
        r.saturation_rate()
    }

    /// Nothing to replace: see [`SimWorker`].
    fn restart(&mut self) {}
}

/// Batched Q7.8 inference over the simulated accelerator.
///
/// The engine holds one [`CompiledNetwork`], shared read-only across
/// workers: the quantised network's stage tree (the spec's stage plan)
/// with every conv stage compiled once, when the engine is built
/// ([`QuantizedNetwork::compile`]), under the block-enable maps of the
/// pruned-model artifact, as `p3d simulate` runs it. A compiled conv
/// stage holds its tile-row runs, weight panel, statistics, 32-bit
/// certificates and the bias, batch norm and ReLU the plan grouped with
/// it; the other stages hold their folded batch norm or FC weights.
/// Serving then runs the **fast functional** Q7.8 path over the tree
/// ([`CompiledNetwork::forward`]): each conv lowers its input into
/// bounded tiles of output rows and sums every enabled weight's tile
/// row with one AVX2 integer kernel, in `i32` for channel groups whose
/// certificate proves it exact and in `i64` otherwise, rounding once
/// per output and applying the conv's bias, folded batch norm and ReLU
/// in the same finish. Integer sums do not depend on order, and the
/// finish uses the post-processor's saturating operations in its order,
/// so it is bitwise identical in logits and statistics to the
/// cycle-approximate engine that validates it.
///
/// The worker count is fixed when the engine is built: the thread count
/// in force then, but never more than the host can run in parallel. The
/// simulator is pure compute, so workers beyond the cores (e.g. a forced
/// `P3D_THREADS` above `available_parallelism`) would only add
/// contention. Results are bitwise independent of the worker count.
pub struct SimEngine(Replicated<SimWorker>);

impl SimEngine {
    /// Compiles a quantised network under a pruning artifact's
    /// block-enable maps (use [`PrunedModel::dense`] for an unpruned
    /// run).
    pub fn new(net: QuantizedNetwork, pruned: PrunedModel) -> Self {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = max_threads().min(host).max(1);
        SimEngine(Replicated::new(
            (0..workers).map(|_| SimWorker),
            net.compile(&pruned),
        ))
    }
}

replicated_engine!(SimEngine);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;
    use p3d_fpga::config::{AcceleratorConfig, Ports, Tiling};
    use p3d_models::{build_network, r2plus1d_micro};
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

    const SEED: u64 = 33;

    /// Clips for the micro model, loud enough that some Q7.8 outputs
    /// saturate.
    fn micro_clips(n: usize) -> Vec<Tensor> {
        let mut rng = TensorRng::seed(11);
        (0..n)
            .map(|_| rng.uniform_tensor([1, 6, 16, 16], -40.0, 40.0))
            .collect()
    }

    /// Both backends on the micro model, each with the saturation rate
    /// its supervised path must report per clip: `0.0` on f32, the
    /// functional forward's own rate on the sim.
    fn backends(clips: &[Tensor]) -> Vec<(Box<dyn InferenceEngine>, Vec<f64>)> {
        let spec = r2plus1d_micro(4);
        let f32 = F32Engine::new(2, || build_network(&spec, SEED));
        let cfg = AcceleratorConfig {
            tiling: Tiling::new(4, 4, 2, 4, 4),
            ports: Ports::new(2, 2, 2),
            freq_mhz: 150.0,
            data_bits: 16,
        };
        let q = QuantizedNetwork::from_network(&spec, &mut build_network(&spec, SEED), cfg);
        let layers = q.compile(&PrunedModel::dense());
        let saturation = clips
            .iter()
            .map(|c| layers.forward(c).saturation_rate())
            .collect();
        let sim = SimEngine::new(q, PrunedModel::dense());
        vec![
            (Box::new(f32), vec![0.0; clips.len()]),
            (Box::new(sim), saturation),
        ]
    }

    fn ctx(n: usize) -> Vec<SlotCtx> {
        (0..n).map(|index| SlotCtx { index, attempt: 0 }).collect()
    }

    fn bits(logits: &[f32]) -> Vec<u32> {
        logits.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn supervised_matches_fast_path_without_chaos() {
        let clips = micro_clips(6);
        let mut saturated = false;
        for (mut engine, saturation) in backends(&clips) {
            let name = engine.name().to_string();
            let baseline = engine.infer_batch(&clips);
            let mut out: Vec<SupervisedSlot> = vec![Ok((ClipResult::default(), 0.0)); clips.len()];
            let report = engine.infer_batch_supervised(&clips, &ctx(clips.len()), None, &mut out);
            assert_eq!(report.worker_restarts, 0, "{name}");
            for ((slot, base), want) in out.iter().zip(&baseline).zip(&saturation) {
                let (res, sat) = slot.as_ref().expect("no faults injected");
                assert_eq!(sat.to_bits(), want.to_bits(), "{name} saturation");
                saturated |= *sat > 0.0;
                assert_eq!(res.prediction, base.prediction, "{name}");
                assert_eq!(bits(&res.logits), bits(&base.logits), "{name} bitwise");
            }
        }
        assert!(saturated, "the sim clips must exercise saturation");
    }

    #[test]
    fn injected_panic_faults_one_slot_and_restarts_worker() {
        crate::chaos::install_quiet_panic_hook();
        let clips = micro_clips(5);
        let plan = FaultPlan::new().inject(2, Fault::Panic { times: u32::MAX });
        for (mut engine, _) in backends(&clips) {
            let name = engine.name().to_string();
            let baseline = engine.infer_batch(&clips);
            let mut out: Vec<SupervisedSlot> = vec![Ok((ClipResult::default(), 0.0)); clips.len()];
            let report =
                engine.infer_batch_supervised(&clips, &ctx(clips.len()), Some(&plan), &mut out);
            assert_eq!(
                report.worker_restarts, 1,
                "{name}: the killed worker must restart"
            );
            for (i, slot) in out.iter().enumerate() {
                if i == 2 {
                    let fault = slot.as_ref().expect_err("slot 2 must be faulted");
                    assert!(fault.is_injected(), "unexpected fault: {}", fault.message);
                    assert!(!fault.is_sentinel());
                } else {
                    let (res, _) = slot.as_ref().expect("other slots must survive");
                    assert_eq!(
                        bits(&res.logits),
                        bits(&baseline[i].logits),
                        "{name}: clip {i} changed after a neighbour's crash"
                    );
                }
            }
            // The restarted worker keeps serving correctly.
            let again = engine.infer_batch(&clips);
            for (x, y) in again.iter().zip(&baseline) {
                assert_eq!(bits(&x.logits), bits(&y.logits), "{name} after restart");
            }
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
                    assert!(clip.data()[0] >= 0.0, "chaos: negative lead element");
                    slot.prediction = 1;
                    slot.logits = vec![0.0, 1.0];
                }
            }
        }
        crate::chaos::install_quiet_panic_hook();
        let good = Tensor::from_vec([1, 1, 1, 2], vec![0.5, 0.5]);
        let bad = Tensor::from_vec([1, 1, 1, 2], vec![-1.0, 0.5]);
        let clips = vec![good.clone(), bad, good];
        let mut out: Vec<SupervisedSlot> = vec![Ok((ClipResult::default(), 0.0)); 3];
        Flaky.infer_batch_supervised(&clips, &ctx(3), None, &mut out);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok(), "a fault must not poison later slots");
    }
}
