//! Request batching: queue clips, drain them through an engine in
//! fixed-size batches, and account per-request latency.

use crate::engine::{ClipResult, InferenceEngine};
use crate::stats::LatencyStats;
use p3d_tensor::Tensor;
use std::collections::VecDeque;
use std::time::Instant;

/// The outcome of draining one request stream.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// Per-clip results, in submission order.
    pub results: Vec<ClipResult>,
    /// Per-clip latency (submission to batch completion), milliseconds,
    /// in submission order.
    pub latencies_ms: Vec<f64>,
    /// Wall-clock time of the drain.
    pub wall_s: f64,
    /// Number of batches executed.
    pub batches: usize,
}

impl StreamRun {
    /// Sustained throughput over the drain.
    pub fn clips_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.results.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Latency percentiles for the stream.
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats::from_latencies_ms(&self.latencies_ms)
    }
}

/// A FIFO clip queue drained in batches of at most `max_batch`.
///
/// Latency for a request spans submission ([`submit`](Self::submit)) to
/// the completion of the batch that carried it, so queueing delay behind
/// earlier batches is part of the measurement — the p99 of a deep queue
/// reflects the last batch, not just single-batch service time.
pub struct BatchScheduler {
    max_batch: usize,
    queue: VecDeque<(Tensor, Instant)>,
}

impl BatchScheduler {
    /// Creates a scheduler with the given maximum batch size.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        BatchScheduler {
            max_batch,
            queue: VecDeque::new(),
        }
    }

    /// Enqueues a `[C, D, H, W]` clip, timestamping its arrival.
    pub fn submit(&mut self, clip: Tensor) {
        self.queue.push_back((clip, Instant::now()));
    }

    /// Number of queued, not-yet-drained requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Maximum batch size.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Runs every queued request through `engine`, batching FIFO, and
    /// returns results in submission order.
    pub fn drain(&mut self, engine: &mut dyn InferenceEngine) -> StreamRun {
        let n = self.queue.len();
        let mut results = vec![ClipResult::default(); n];
        let mut latencies_ms = vec![0.0f64; n];
        let mut batch: Vec<Tensor> = Vec::with_capacity(self.max_batch);
        let mut arrivals: Vec<Instant> = Vec::with_capacity(self.max_batch);
        let start = Instant::now();
        let mut done = 0usize;
        let mut batches = 0usize;
        while !self.queue.is_empty() {
            batch.clear();
            arrivals.clear();
            while batch.len() < self.max_batch {
                let Some((clip, at)) = self.queue.pop_front() else {
                    break;
                };
                batch.push(clip);
                arrivals.push(at);
            }
            let end = done + batch.len();
            // Results land directly in the stream-ordered slice.
            engine.infer_batch_into(&batch, &mut results[done..end]);
            let completed = Instant::now();
            for (i, at) in arrivals.iter().enumerate() {
                latencies_ms[done + i] = completed.duration_since(*at).as_secs_f64() * 1e3;
            }
            done = end;
            batches += 1;
        }
        StreamRun {
            results,
            latencies_ms,
            wall_s: start.elapsed().as_secs_f64(),
            batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine that records batch sizes and echoes the clip's first
    /// element as its single logit.
    struct Probe {
        batch_sizes: Vec<usize>,
    }

    impl InferenceEngine for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
            self.batch_sizes.push(clips.len());
            for (clip, slot) in clips.iter().zip(out.iter_mut()) {
                slot.logits.clear();
                slot.logits.push(clip.data()[0]);
                slot.prediction = 0;
            }
        }
    }

    #[test]
    fn drains_fifo_in_capped_batches() {
        let mut sched = BatchScheduler::new(4);
        for i in 0..10 {
            sched.submit(Tensor::full([1, 1, 1, 1], i as f32));
        }
        assert_eq!(sched.pending(), 10);
        let mut probe = Probe {
            batch_sizes: vec![],
        };
        let run = sched.drain(&mut probe);
        assert_eq!(sched.pending(), 0);
        assert_eq!(probe.batch_sizes, vec![4, 4, 2]);
        assert_eq!(run.batches, 3);
        assert_eq!(run.results.len(), 10);
        assert_eq!(run.latencies_ms.len(), 10);
        // Submission order is preserved in the results.
        for (i, r) in run.results.iter().enumerate() {
            assert_eq!(r.logits, vec![i as f32]);
        }
        assert!(run.latencies_ms.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn empty_drain_is_harmless() {
        let mut sched = BatchScheduler::new(2);
        let mut probe = Probe {
            batch_sizes: vec![],
        };
        let run = sched.drain(&mut probe);
        assert!(run.results.is_empty());
        assert_eq!(run.batches, 0);
        assert_eq!(run.clips_per_s(), 0.0);
    }
}
