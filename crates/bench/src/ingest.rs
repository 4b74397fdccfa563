//! Streaming-ingest throughput benchmark: pipelined decode + inference
//! against the serial decode-then-infer baseline.
//!
//! The pipelined side streams a P3DVID1 container through the
//! [`Prefetcher`] (folded carry-less-multiply CRC, fused precomputed-tap
//! resize/crop/normalize, arena-recycled clip buffers, N-deep decode
//! overlap) and feeds each batch to the arena-backed [`F32Engine`].
//! The serial baseline decodes the *whole* file up front with the
//! reference path ([`read_video_clips`]: byte-at-a-time CRC, per-pixel
//! tap recomputation, fresh allocations per clip) and then runs a
//! plain per-clip `forward` loop — the way a decode-then-infer script
//! would. Both sides produce bitwise identical logits, so the measured
//! ratio is pure data-plane engineering, not numerics drift.
//!
//! Timing uses the paired harness in [`crate::measure`]: each rep times
//! one serial run and then one pipelined run back to back, and the row
//! reports the best per-rep ratio plus the spread of all of them.
//!
//! Run the full benchmark with:
//!
//! ```text
//! cargo run --release -p p3d-bench --bin ingest_throughput
//! ```

use crate::measure::{paired, Spread};
use crate::{bench_header, json_rows};
use p3d_infer::json::Obj;
use p3d_infer::{ClipResult, F32Engine, InferenceEngine};
use p3d_models::{build_network, r2plus1d_micro, NetworkSpec};
use p3d_nn::{Layer, Mode, Sequential};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{simd, Tensor, TensorRng};
use p3d_video_data::io::{
    read_video_clips, save_video, ClipArena, IngestStats, PrefetchConfig, Prefetcher,
    PreprocessConfig, VidHeader,
};
use std::path::Path;

/// Source-container and pipeline parameters for one benchmark run.
#[derive(Clone, Debug)]
pub struct IngestBenchConfig {
    /// Clips in the container (`clips * clip_depth` frames).
    pub clips: usize,
    /// Frames per clip (the model's temporal extent D).
    pub clip_depth: usize,
    /// Source frame width, pixels.
    pub src_w: u32,
    /// Source frame height, pixels.
    pub src_h: u32,
    /// Resize/crop geometry (crop must land on the model's H x W).
    pub preprocess: PreprocessConfig,
    /// Batch size fed to the engine by the pipelined consumer.
    pub batch: usize,
    /// Prefetch ready-ring depth N.
    pub depth: usize,
    /// Decode worker threads.
    pub workers: usize,
    /// Timed serial/pipelined pairs (best paired ratio reported).
    pub reps: usize,
    /// Forced engine thread counts to measure.
    pub threads: Vec<usize>,
    /// Classifier width of the micro model.
    pub num_classes: usize,
    /// Weight/frame RNG seed.
    pub seed: u64,
}

impl IngestBenchConfig {
    /// The headline configuration: 24 clips of 6 frames at a realistic
    /// camera geometry (256x256 GRAY8, so frame CRC + resize dominate
    /// decode the way they do on real footage), preprocessed down to
    /// the micro model's 16x16 input.
    pub fn standard() -> Self {
        IngestBenchConfig {
            clips: 24,
            clip_depth: 6,
            src_w: 256,
            src_h: 256,
            preprocess: PreprocessConfig {
                resize_h: 20,
                resize_w: 20,
                crop_h: 16,
                crop_w: 16,
            },
            batch: 8,
            depth: 4,
            workers: 2,
            reps: 5,
            threads: vec![1, 2, 4],
            num_classes: 4,
            seed: 2020,
        }
    }

    /// A sub-second smoke configuration for `cargo test`.
    pub fn smoke() -> Self {
        IngestBenchConfig {
            clips: 4,
            src_w: 32,
            src_h: 32,
            reps: 1,
            threads: vec![1, 2],
            ..IngestBenchConfig::standard()
        }
    }

    fn spec(&self) -> NetworkSpec {
        r2plus1d_micro(self.num_classes)
    }

    /// The clip tensor shape this pipeline produces.
    fn clip_shape(&self) -> [usize; 4] {
        [
            1,
            self.clip_depth,
            self.preprocess.crop_h,
            self.preprocess.crop_w,
        ]
    }

    /// Writes the synthetic source container and returns its header.
    pub fn write_container(&self, path: &Path) -> std::io::Result<VidHeader> {
        let frames = (self.clips * self.clip_depth) as u32;
        let header = VidHeader::gray8(self.src_w, self.src_h, frames, 30_000);
        let mut rng = TensorRng::seed(self.seed ^ 0x51d);
        let data: Vec<Vec<u8>> = (0..frames)
            .map(|_| {
                (0..header.frame_bytes())
                    .map(|_| rng.below(256) as u8)
                    .collect()
            })
            .collect();
        save_video(path, header, data.iter().map(|f| f.as_slice()))?;
        Ok(header)
    }
}

/// Measured numbers for one engine thread count.
#[derive(Clone, Debug)]
pub struct IngestResult {
    /// Forced engine worker count.
    pub threads: usize,
    /// End-to-end pipelined throughput: container bytes to logits.
    pub pipelined_clips_per_s: f64,
    /// Serial decode-everything-then-infer throughput.
    pub serial_clips_per_s: f64,
    /// Best *paired* pipelined/serial throughput ratio.
    pub ingest_speedup: f64,
    /// Spread of the per-rep pipelined/serial ratios.
    pub speedup_spread: Spread,
    /// Fraction of decode-busy time hidden behind inference in the
    /// best pipelined rep (0 on a single hardware thread, honestly).
    pub overlap_efficiency: f64,
    /// Arena grow events across the timed reps (0 = steady state).
    pub grow_events: u64,
    /// `true` when pipelined logits bit-matched the serial baseline.
    pub bitwise_equal: bool,
    /// SIMD kernel path active during the run.
    pub kernel_path: String,
}

/// A complete ingest benchmark report.
#[derive(Clone, Debug)]
pub struct IngestBenchReport {
    /// The configuration that was run.
    pub config: IngestBenchConfig,
    /// Bytes in the source container (decoded per rep, both sides).
    pub container_bytes: u64,
    /// One row per engine thread count.
    pub results: Vec<IngestResult>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One pipelined pass over the container: stream clips through the
/// prefetcher into batched engine calls, recycling every buffer back
/// into the shared arena.
fn run_pipelined(
    path: &Path,
    cfg: &IngestBenchConfig,
    engine: &mut F32Engine,
    arena: &ClipArena,
) -> std::io::Result<(Vec<Vec<u32>>, IngestStats)> {
    let pcfg = PrefetchConfig {
        depth: cfg.depth,
        workers: cfg.workers,
        clip_depth: cfg.clip_depth,
        preprocess: cfg.preprocess,
        fault_clip: None,
    };
    let mut pipe = Prefetcher::open(path, pcfg, arena.clone())?;
    let mut logits = Vec::with_capacity(cfg.clips);
    let mut batch: Vec<Tensor> = Vec::with_capacity(cfg.batch);
    let mut results = vec![ClipResult::default(); cfg.batch];
    while let Some(clip) = pipe.next_clip()? {
        batch.push(clip.into_tensor());
        if batch.len() == cfg.batch {
            engine.infer_batch_into(&batch, &mut results);
            logits.extend(results.iter().map(|r| bits(&r.logits)));
            for t in batch.drain(..) {
                arena.release_tensor(t);
            }
        }
    }
    if !batch.is_empty() {
        // Tail batch shorter than `cfg.batch`.
        for r in engine.infer_batch(&batch) {
            logits.push(bits(&r.logits));
        }
        for t in batch.drain(..) {
            arena.release_tensor(t);
        }
    }
    let stats = pipe.stats();
    Ok((logits, stats))
}

/// The serial baseline: reference-decode the whole container into
/// fresh tensors, then run a plain per-clip batch-1 `forward` loop.
fn run_serial(
    path: &Path,
    cfg: &IngestBenchConfig,
    net: &mut Sequential,
) -> std::io::Result<Vec<Vec<u32>>> {
    let clips = read_video_clips(path, cfg.clip_depth, &cfg.preprocess)?;
    let [c, d, h, w] = cfg.clip_shape();
    let mut logits = Vec::with_capacity(clips.len());
    for clip in &clips {
        let batch1 = clip.reshape([1, c, d, h, w]);
        logits.push(bits(net.forward(&batch1, Mode::Eval).data()));
    }
    Ok(logits)
}

/// Runs the benchmark across every thread count in `cfg.threads`.
///
/// # Panics
///
/// Panics if any pipelined run is not bitwise identical to the serial
/// decode-then-infer baseline, or on container I/O failure.
pub fn run_ingest_throughput(cfg: &IngestBenchConfig) -> IngestBenchReport {
    let path = std::env::temp_dir().join(format!(
        "p3d-ingest-bench-{}-{}.p3dvid",
        std::process::id(),
        cfg.seed
    ));
    let header = cfg.write_container(&path).expect("write source container");
    let container_bytes = header.stream_len();
    let spec = cfg.spec();
    let mut results = Vec::new();

    for &t in &cfg.threads {
        set_thread_override(Some(t));
        let mut engine = F32Engine::new(t.min(cfg.batch).max(1), {
            let spec = spec.clone();
            let seed = cfg.seed;
            move || build_network(&spec, seed)
        });
        let mut seq_net: Sequential = build_network(&spec, cfg.seed);
        // The arena persists across reps: its buffers are the steady
        // state whose absence of growth the report pins.
        let arena = ClipArena::new(cfg.clip_shape(), cfg.depth + cfg.workers + cfg.batch);

        // Warm-up: sizes engine arenas, spawns pool workers, faults in
        // the container's pages, and settles the clip arena.
        let (pipe_logits, _) =
            run_pipelined(&path, cfg, &mut engine, &arena).expect("warm-up pipelined run");
        let serial_logits = run_serial(&path, cfg, &mut seq_net).expect("warm-up serial run");
        let equal = pipe_logits == serial_logits;
        assert!(
            equal,
            "pipelined ingest diverged from serial decode-then-infer at {t} threads"
        );
        let grow_baseline = arena.stats().grow_events;

        let mut overlaps = Vec::with_capacity(cfg.reps);
        let timing = paired(
            cfg.reps,
            &mut (),
            |_| {
                let logits = run_serial(&path, cfg, &mut seq_net).expect("serial run");
                assert_eq!(logits, serial_logits, "serial rep diverged");
            },
            |_| {
                let (logits, stats) =
                    run_pipelined(&path, cfg, &mut engine, &arena).expect("pipelined run");
                assert_eq!(logits, serial_logits, "pipelined rep diverged");
                overlaps.push(stats.overlap_efficiency());
            },
        );

        let n = cfg.clips as f64;
        results.push(IngestResult {
            threads: t,
            pipelined_clips_per_s: n / timing.b.min.max(1e-12),
            serial_clips_per_s: n / timing.a.min.max(1e-12),
            ingest_speedup: timing.ratio.max,
            speedup_spread: timing.ratio,
            overlap_efficiency: overlaps[timing.fastest_b()],
            grow_events: (arena.stats().grow_events - grow_baseline) as u64,
            bitwise_equal: equal,
            kernel_path: simd::active().name().into(),
        });
    }
    set_thread_override(None);
    let _ = std::fs::remove_file(&path);
    IngestBenchReport {
        config: cfg.clone(),
        container_bytes,
        results,
    }
}

impl IngestBenchReport {
    /// Renders `BENCH_ingest.json`.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let p = &c.preprocess;
        let config = Obj::new()
            .str("model", "r2plus1d_micro")
            .u64("clips", c.clips as u64)
            .u64("clip_depth", c.clip_depth as u64)
            .str("source", &format!("{}x{} gray8", c.src_w, c.src_h))
            .str(
                "preprocess",
                &format!(
                    "resize {}x{}, crop {}x{}",
                    p.resize_h, p.resize_w, p.crop_h, p.crop_w
                ),
            )
            .u64("container_bytes", self.container_bytes)
            .u64("batch", c.batch as u64)
            .u64("prefetch_depth", c.depth as u64)
            .u64("decode_workers", c.workers as u64)
            .u64("reps", c.reps as u64)
            .build();
        let rows = self.results.iter().map(|r| {
            Obj::new()
                .u64("threads", r.threads as u64)
                .str("kernel_path", &r.kernel_path)
                .f64("pipelined_clips_per_s", r.pipelined_clips_per_s, 2)
                .f64("serial_clips_per_s", r.serial_clips_per_s, 2)
                .f64("ingest_speedup", r.ingest_speedup, 3)
                .raw("speedup_spread", &r.speedup_spread.json(3))
                .f64("overlap_efficiency", r.overlap_efficiency, 3)
                .u64("grow_events", r.grow_events)
                .bool("bitwise_equal", r.bitwise_equal)
                .build()
        });
        bench_header("streaming_ingest")
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
        let report = run_ingest_throughput(&IngestBenchConfig::smoke());
        assert_eq!(report.results.len(), 2);
        for r in &report.results {
            assert!(r.pipelined_clips_per_s.is_finite() && r.pipelined_clips_per_s > 0.0);
            assert!(r.serial_clips_per_s.is_finite() && r.serial_clips_per_s > 0.0);
            assert!(r.bitwise_equal);
            assert_eq!(r.grow_events, 0, "arena grew after warm-up");
            assert!((0.0..=1.0).contains(&r.overlap_efficiency));
            let s = r.speedup_spread;
            assert!(
                s.reps >= 1 && s.min <= s.median && s.median <= s.max,
                "{s:?}"
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"streaming_ingest\""));
        assert!(json.contains("\"ingest_speedup\""));
        assert!(json.contains("\"overlap_efficiency\""));
        assert_eq!(json.matches("\"speedup_spread\": {\"reps\": ").count(), 2);
        for key in ["\"min\": ", "\"median\": ", "\"max\": "] {
            assert_eq!(json.matches(key).count(), 2, "{key}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
