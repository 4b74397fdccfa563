//! Batched-inference throughput/latency benchmark over both backends.
//!
//! Streams synthetic clips through the [`p3d_infer`] serving layer —
//! the arena-backed f32 engine and the Q7.8 accelerator simulator —
//! at several thread counts, compares every batched run bitwise against
//! a per-clip sequential loop, and renders the result as a hand-rolled
//! JSON document (`BENCH_inference.json`), mirroring `BENCH_conv3d.json`
//! from the training-step benchmark.
//!
//! The sim backend serves through the fast **functional** Q7.8 engine
//! (lowered input tiles + an exact AVX2 integer row kernel when the
//! host has it); its sequential baseline runs the same engine so the paired
//! batched-vs-sequential ratio isolates batching, not the engine split.
//! The report records the active kernel path and the host's CPU
//! features so numbers carry their provenance.
//!
//! Run the full benchmark with:
//!
//! ```text
//! cargo run --release -p p3d-bench --bin inference_throughput
//! ```

use p3d_core::PrunedModel;
use p3d_fpga::sim::SimScratch;
use p3d_fpga::{AcceleratorConfig, Ports, QuantizedNetwork, Tiling};
use p3d_infer::{BatchScheduler, F32Engine, InferenceEngine, LatencyStats, SimEngine};
use p3d_models::{build_network, r2plus1d_micro, NetworkSpec};
use p3d_nn::{Layer, Mode, Sequential};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{simd, Tensor, TensorRng};
use std::time::Instant;

/// Stream and repetition parameters for one benchmark run.
#[derive(Clone, Debug)]
pub struct InferBenchConfig {
    /// Clips in the request stream.
    pub clips: usize,
    /// Maximum batch size the scheduler forms.
    pub batch: usize,
    /// Timed stream repetitions (best run reported, after one untimed
    /// warm-up that also sizes the arenas).
    pub reps: usize,
    /// Thread counts to measure; must start with `1`.
    pub threads: Vec<usize>,
    /// Classifier width of the micro model.
    pub num_classes: usize,
    /// Weight/clip RNG seed.
    pub seed: u64,
}

impl InferBenchConfig {
    /// The headline configuration: a 48-clip stream in batches of 8.
    /// Eight paired reps so the best-paired-ratio estimator has enough
    /// interleaved head-to-heads to shrug off co-tenant noise on the
    /// slow sim backend, where batched and sequential run within a few
    /// percent of each other by design on small hosts.
    pub fn standard() -> Self {
        InferBenchConfig {
            clips: 48,
            batch: 8,
            reps: 8,
            threads: vec![1, 2, 4],
            num_classes: 4,
            seed: 2020,
        }
    }

    /// A sub-second smoke configuration for `cargo test`.
    pub fn smoke() -> Self {
        InferBenchConfig {
            clips: 6,
            batch: 2,
            reps: 1,
            threads: vec![1, 2],
            num_classes: 4,
            seed: 2020,
        }
    }

    fn spec(&self) -> NetworkSpec {
        r2plus1d_micro(self.num_classes)
    }

    fn clips(&self) -> Vec<Tensor> {
        let mut rng = TensorRng::seed(self.seed ^ 0x5eed);
        (0..self.clips)
            .map(|_| rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0))
            .collect()
    }
}

/// Measured numbers for one backend at one thread count.
#[derive(Clone, Debug)]
pub struct BackendResult {
    /// `"f32"` or `"sim"`.
    pub backend: String,
    /// Forced worker count.
    pub threads: usize,
    /// Batched-stream throughput (best rep).
    pub clips_per_s: f64,
    /// Per-request latency percentiles for the best rep.
    pub latency: LatencyStats,
    /// Per-clip sequential `forward` loop throughput at the same thread
    /// count (best rep).
    pub sequential_clips_per_s: f64,
    /// Best *paired* batched/sequential throughput ratio: each rep times
    /// one batched drain and one sequential loop back-to-back, and the
    /// best rep's ratio is reported. On a quiet host this converges to
    /// the true ratio; co-tenant interference can only lower it.
    pub batched_speedup: f64,
    /// `true` when every batched logit bit-matched the sequential loop.
    pub bitwise_equal: bool,
    /// Compute engine behind the backend: `"arena"` for the f32 rows,
    /// `"functional"` for the Q7.8 simulator rows (the serving path).
    pub engine: String,
    /// SIMD kernel path active during the run (`"avx2"` or `"scalar"`).
    pub kernel_path: String,
}

/// A complete benchmark report.
#[derive(Clone, Debug)]
pub struct InferBenchReport {
    /// The configuration that was run.
    pub config: InferBenchConfig,
    /// One row per (backend, thread count).
    pub results: Vec<BackendResult>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One backend's timing over interleaved batched/sequential pairs.
struct PairedTiming {
    /// Best batched-drain throughput across reps.
    batched_cps: f64,
    /// Latency stats of the best batched rep.
    latency: LatencyStats,
    /// Batched logits bits (bitwise identical across reps by
    /// construction; taken from the best rep).
    batched_logits: Vec<Vec<u32>>,
    /// Best sequential-loop throughput across reps.
    sequential_cps: f64,
    /// Sequential logits bits.
    sequential_logits: Vec<Vec<u32>>,
    /// Best *paired* ratio: max over reps of (batched / sequential
    /// throughput measured back-to-back within the same rep).
    best_paired_ratio: f64,
}

/// Times `reps` interleaved pairs of (batched drain, sequential per-clip
/// loop) and returns per-side bests plus the best paired ratio.
///
/// Interleaving matters on small shared hosts: timing all batched reps
/// and then all sequential reps puts the two sides in different
/// interference windows, so frequency drift or a co-tenant burst shows
/// up as a phantom speedup or slowdown. A *paired* rep times both sides
/// back-to-back under the same conditions; the best pair is the cleanest
/// head-to-head the host allowed, and external noise can only lower it.
fn time_paired(
    engine: &mut dyn InferenceEngine,
    mut seq_step: impl FnMut(&Tensor, &mut Vec<Vec<u32>>),
    clips: &[Tensor],
    batch: usize,
    reps: usize,
) -> PairedTiming {
    let mut out = PairedTiming {
        batched_cps: 0.0,
        latency: LatencyStats::from_latencies_ms(&[]),
        batched_logits: Vec::new(),
        sequential_cps: 0.0,
        sequential_logits: Vec::new(),
        best_paired_ratio: 0.0,
    };
    for _ in 0..reps.max(1) {
        // Both sides read freshly cloned tensors: the batched drain
        // consumes per-rep clones via `submit`, so the sequential loop
        // gets a per-rep clone set too. Without the symmetry, one side
        // reads warm long-lived buffers while the other reads fresh
        // allocations, and allocator layout luck becomes a systematic
        // per-run bias in the ratio.
        let seq_clips: Vec<Tensor> = clips.to_vec();
        // Batched side.
        let mut sched = BatchScheduler::new(batch);
        for c in clips {
            sched.submit(c.clone());
        }
        let run = sched.drain(engine);
        let bcps = run.clips_per_s();
        if bcps > out.batched_cps {
            out.batched_cps = bcps;
            out.latency = run.latency_stats();
            out.batched_logits = run.results.iter().map(|r| bits(&r.logits)).collect();
        }
        // Sequential side, immediately after, same conditions.
        let mut seq = Vec::with_capacity(clips.len());
        let t0 = Instant::now();
        for c in &seq_clips {
            seq_step(c, &mut seq);
        }
        let scps = clips.len() as f64 / t0.elapsed().as_secs_f64().max(1e-12);
        if scps > out.sequential_cps {
            out.sequential_cps = scps;
            out.sequential_logits = seq;
        }
        out.best_paired_ratio = out.best_paired_ratio.max(bcps / scps.max(1e-12));
    }
    out
}

fn micro_cfg() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(4, 4, 2, 4, 4),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

/// Runs both backends across every thread count in `cfg.threads`.
///
/// # Panics
///
/// Panics if `cfg.threads` does not start with `1`, or if any batched
/// run is not bitwise identical to its sequential per-clip baseline.
pub fn run_inference_throughput(cfg: &InferBenchConfig) -> InferBenchReport {
    assert_eq!(
        cfg.threads.first(),
        Some(&1),
        "thread list must start with the serial baseline"
    );
    let spec = cfg.spec();
    let clips = cfg.clips();
    let mut results = Vec::new();

    for &t in &cfg.threads {
        set_thread_override(Some(t));

        // f32 backend: arena engine vs plain per-clip forward.
        let mut engine = F32Engine::new(t.min(cfg.batch).max(1), || build_network(&spec, cfg.seed));
        let _ = engine.infer_batch(&clips[..cfg.batch.min(clips.len())]); // warm arenas
        let mut seq_net: Sequential = build_network(&spec, cfg.seed);
        let pt = time_paired(
            &mut engine,
            |c, out| {
                let batch = c.reshape([1, 1, 6, 16, 16]);
                out.push(bits(seq_net.forward(&batch, Mode::Eval).data()));
            },
            &clips,
            cfg.batch,
            cfg.reps,
        );
        let equal = pt.batched_logits == pt.sequential_logits;
        assert!(equal, "f32 batched run diverged from sequential at {t} threads");
        results.push(BackendResult {
            backend: "f32".into(),
            threads: t,
            clips_per_s: pt.batched_cps,
            latency: pt.latency,
            sequential_clips_per_s: pt.sequential_cps,
            batched_speedup: pt.best_paired_ratio,
            bitwise_equal: equal,
            engine: "arena".into(),
            kernel_path: simd::active().name().into(),
        });

        // Q7.8 simulator backend. The sequential baseline runs the same
        // fast functional engine serving uses (with a reused scratch),
        // so the paired ratio measures batching alone; the functional
        // engine itself is pinned bitwise to the cycle-approximate one
        // by the conv_differential and sim_fast_speedup suites.
        let mut net = build_network(&spec, cfg.seed);
        let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        let q_seq = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        let mut engine = SimEngine::new(q, PrunedModel::dense());
        let _ = engine.infer_batch(&clips[..cfg.batch.min(clips.len())]); // warm scratches
        let dense = PrunedModel::dense();
        let mut seq_scratch = SimScratch::new();
        let pt = time_paired(
            &mut engine,
            |c, out| {
                out.push(bits(
                    &q_seq
                        .forward_functional_with_scratch(c, &dense, &mut seq_scratch)
                        .logits,
                ));
            },
            &clips,
            cfg.batch,
            cfg.reps,
        );
        let equal = pt.batched_logits == pt.sequential_logits;
        assert!(equal, "sim batched run diverged from sequential at {t} threads");
        results.push(BackendResult {
            backend: "sim".into(),
            threads: t,
            clips_per_s: pt.batched_cps,
            latency: pt.latency,
            sequential_clips_per_s: pt.sequential_cps,
            batched_speedup: pt.best_paired_ratio,
            bitwise_equal: equal,
            engine: "functional".into(),
            kernel_path: simd::active().name().into(),
        });
    }
    set_thread_override(None);
    InferBenchReport {
        config: cfg.clone(),
        results,
    }
}

impl InferBenchReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let host_cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut s = String::new();
        let feats = simd::cpu_features();
        let feats = if feats.is_empty() { "none" } else { feats };
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"batched_inference\",\n");
        s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
        s.push_str(&format!("  \"cpu_features\": \"{feats}\",\n"));
        s.push_str("  \"config\": {\n");
        s.push_str("    \"model\": \"r2plus1d_micro\",\n");
        s.push_str(&format!("    \"clips\": {},\n", c.clips));
        s.push_str(&format!("    \"batch\": {},\n", c.batch));
        s.push_str(&format!("    \"num_classes\": {},\n", c.num_classes));
        s.push_str(&format!("    \"reps\": {}\n", c.reps));
        s.push_str("  },\n");
        s.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"backend\": \"{}\", \"engine\": \"{}\", \"kernel_path\": \"{}\", \"threads\": {}, \"clips_per_s\": {:.2}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \"sequential_clips_per_s\": {:.2}, \"batched_speedup\": {:.3}, \"bitwise_equal\": {}}}{}\n",
                r.backend,
                r.engine,
                r.kernel_path,
                r.threads,
                r.clips_per_s,
                r.latency.p50_ms,
                r.latency.p95_ms,
                r.latency.p99_ms,
                r.latency.mean_ms,
                r.sequential_clips_per_s,
                r.batched_speedup,
                r.bitwise_equal,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_valid_report() {
        let report = run_inference_throughput(&InferBenchConfig::smoke());
        // Two backends at each of two thread counts.
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert!(r.clips_per_s.is_finite() && r.clips_per_s > 0.0);
            assert!(r.latency.p99_ms >= r.latency.p50_ms);
            assert!(r.bitwise_equal);
        }
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"batched_inference\""));
        assert!(json.contains("\"backend\": \"f32\""));
        assert!(json.contains("\"backend\": \"sim\""));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"cpu_features\""));
        assert!(json.contains("\"engine\": \"functional\""));
        let path = p3d_tensor::simd::active().name();
        assert!(json.contains(&format!("\"kernel_path\": \"{path}\"")));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "serial baseline")]
    fn thread_list_must_start_serial() {
        let mut cfg = InferBenchConfig::smoke();
        cfg.threads = vec![2];
        let _ = run_inference_throughput(&cfg);
    }
}
