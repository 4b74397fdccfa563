//! Batched-inference throughput/latency benchmark over both backends.
//!
//! Streams synthetic clips through the [`p3d_infer`] serving layer —
//! the arena-backed f32 engine and the Q7.8 accelerator simulator —
//! at several thread counts, compares every batched run bitwise against
//! a per-clip sequential loop, and renders the result as JSON
//! (`BENCH_inference.json`), mirroring `BENCH_conv3d.json` from the
//! training-step benchmark.
//!
//! Each backend is timed with the paired harness in [`crate::measure`]:
//! every rep runs the sequential loop and then a batched drain, and the
//! row reports the best per-rep ratio plus the spread of all of them.
//!
//! The sim backend serves through the fast **functional** Q7.8 engine
//! (lowered input tiles + a register-tiled exact integer kernel, AVX2
//! when the host has it); its sequential baseline runs the same engine so the paired
//! batched-vs-sequential ratio isolates batching, not the engine split.
//! The report records the active kernel path and the host's CPU
//! features so numbers carry their provenance.
//!
//! Run the full benchmark with:
//!
//! ```text
//! cargo run --release -p p3d-bench --bin inference_throughput
//! ```

use crate::measure::{paired, Spread};
use crate::{bench_header, json_rows};
use p3d_core::PrunedModel;
use p3d_fpga::{AcceleratorConfig, Ports, QuantizedNetwork, Tiling};
use p3d_infer::json::Obj;
use p3d_infer::{BatchScheduler, F32Engine, InferenceEngine, LatencyStats, SimEngine};
use p3d_models::{build_network, r2plus1d_micro, NetworkSpec};
use p3d_nn::{Layer, Mode, Sequential};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{simd, Tensor, TensorRng};

/// Stream and repetition parameters for one benchmark run.
#[derive(Clone, Debug)]
pub struct InferBenchConfig {
    /// Clips in the request stream.
    pub clips: usize,
    /// Maximum batch size the scheduler forms.
    pub batch: usize,
    /// Timed sequential/batched stream pairs (after one untimed warm-up
    /// that also sizes the arenas).
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
    /// one sequential loop and one batched drain back-to-back, and the
    /// best rep's ratio is reported. On a quiet host this converges to
    /// the true ratio; co-tenant interference can only lower it.
    pub batched_speedup: f64,
    /// Spread of the per-rep batched/sequential ratios.
    pub speedup_spread: Spread,
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

/// Times `cfg.reps` pairs of (sequential per-clip loop, batched drain)
/// on one backend and returns its row.
///
/// Both sides read freshly cloned tensors inside their timed region:
/// the batched drain consumes per-rep clones via `submit`, so the
/// sequential loop clones its clip set too. Without the symmetry, one
/// side reads warm long-lived buffers while the other reads fresh
/// allocations, and allocator layout luck becomes a systematic per-run
/// bias in the ratio.
///
/// # Panics
///
/// Panics if the fastest batched rep's logits are not bitwise equal to
/// the fastest sequential rep's.
fn measure_backend(
    backend: &str,
    engine_name: &str,
    threads: usize,
    cfg: &InferBenchConfig,
    clips: &[Tensor],
    engine: &mut dyn InferenceEngine,
    mut seq_step: impl FnMut(&Tensor) -> Vec<u32>,
) -> BackendResult {
    let mut seq_logits: Vec<Vec<Vec<u32>>> = Vec::with_capacity(cfg.reps);
    let mut batched: Vec<(LatencyStats, Vec<Vec<u32>>)> = Vec::with_capacity(cfg.reps);
    let t = paired(
        cfg.reps,
        &mut (),
        |_| {
            let seq_clips = clips.to_vec();
            seq_logits.push(seq_clips.iter().map(&mut seq_step).collect());
        },
        |_| {
            let mut sched = BatchScheduler::new(cfg.batch);
            for c in clips {
                sched.submit(c.clone());
            }
            let run = sched.drain(engine);
            let logits = run.results.iter().map(|r| bits(&r.logits)).collect();
            batched.push((run.latency_stats(), logits));
        },
    );
    let (latency, batched_logits) = batched.swap_remove(t.fastest_b());
    let bitwise_equal = batched_logits == seq_logits[t.fastest_a()];
    assert!(
        bitwise_equal,
        "{backend} batched run diverged from sequential at {threads} threads"
    );
    let n = clips.len() as f64;
    BackendResult {
        backend: backend.into(),
        threads,
        clips_per_s: n / t.b.min.max(1e-12),
        latency,
        sequential_clips_per_s: n / t.a.min.max(1e-12),
        batched_speedup: t.ratio.max,
        speedup_spread: t.ratio,
        bitwise_equal,
        engine: engine_name.into(),
        kernel_path: simd::active().name().into(),
    }
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
        results.push(measure_backend(
            "f32",
            "arena",
            t,
            cfg,
            &clips,
            &mut engine,
            |c| {
                let batch = c.reshape([1, 1, 6, 16, 16]);
                bits(seq_net.forward(&batch, Mode::Eval).data())
            },
        ));

        // Q7.8 simulator backend. The sequential baseline runs the same
        // fast functional engine serving uses (each layer compiled once,
        // as `SimEngine` does), so the paired ratio measures batching
        // alone; the functional engine itself is pinned bitwise to the
        // cycle-approximate one by the conv_differential and
        // sim_fast_speedup suites.
        let mut net = build_network(&spec, cfg.seed);
        let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        let q_seq = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        let mut engine = SimEngine::new(q, PrunedModel::dense());
        let _ = engine.infer_batch(&clips[..cfg.batch.min(clips.len())]); // warm scratches
        let seq_layers = q_seq.compile(&PrunedModel::dense());
        results.push(measure_backend(
            "sim",
            "functional",
            t,
            cfg,
            &clips,
            &mut engine,
            |c| bits(&seq_layers.forward(c).logits),
        ));
    }
    set_thread_override(None);
    InferBenchReport {
        config: cfg.clone(),
        results,
    }
}

impl InferBenchReport {
    /// Renders `BENCH_inference.json`.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let config = Obj::new()
            .str("model", "r2plus1d_micro")
            .u64("clips", c.clips as u64)
            .u64("batch", c.batch as u64)
            .u64("num_classes", c.num_classes as u64)
            .u64("reps", c.reps as u64)
            .build();
        let rows = self.results.iter().map(|r| {
            Obj::new()
                .str("backend", &r.backend)
                .str("engine", &r.engine)
                .str("kernel_path", &r.kernel_path)
                .u64("threads", r.threads as u64)
                .f64("clips_per_s", r.clips_per_s, 2)
                .f64("p50_ms", r.latency.p50_ms, 3)
                .f64("p95_ms", r.latency.p95_ms, 3)
                .f64("p99_ms", r.latency.p99_ms, 3)
                .f64("mean_ms", r.latency.mean_ms, 3)
                .f64("sequential_clips_per_s", r.sequential_clips_per_s, 2)
                .f64("batched_speedup", r.batched_speedup, 3)
                .raw("speedup_spread", &r.speedup_spread.json(3))
                .bool("bitwise_equal", r.bitwise_equal)
                .build()
        });
        bench_header("batched_inference")
            .raw("config", &config)
            .raw("results", &json_rows(rows))
            .build()
            + "\n"
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
            let s = r.speedup_spread;
            assert!(
                s.reps >= 1 && s.min <= s.median && s.median <= s.max,
                "{s:?}"
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"batched_inference\""));
        assert!(json.contains("\"backend\": \"f32\""));
        assert!(json.contains("\"backend\": \"sim\""));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"cpu_features\""));
        assert!(json.contains("\"engine\": \"functional\""));
        assert_eq!(json.matches("\"speedup_spread\": {\"reps\": ").count(), 4);
        for key in ["\"min\": ", "\"median\": ", "\"max\": "] {
            assert_eq!(json.matches(key).count(), 4, "{key}");
        }
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
