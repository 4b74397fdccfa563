//! Conv3d training-step throughput benchmark with thread scaling.
//!
//! Measures forward+backward wall time of a batch of clips through one
//! `Conv3d` layer at several `P3D_THREADS` settings (forced via
//! [`p3d_tensor::parallel::set_thread_override`]), checks every parallel
//! result against the serial baseline, and renders the result as a small
//! hand-rolled JSON document (the workspace's serde stand-in is
//! derive-only, so no JSON backend exists to lean on).
//!
//! Speedups use the **paired interleaved estimator** of the inference
//! bench (`infer::time_paired`): each rep times the two sides under
//! comparison back-to-back — serial vs `t`-thread for the scaling rows,
//! dense vs block-sparse for the sparsity sweep — and the best per-rep
//! ratio is reported. Timing the sides in separate phases put them in
//! different interference windows on a small shared host, which showed
//! up as ~25% phantom variance in identical-work measurements; a paired
//! rep cancels drift, and co-tenant noise can only make the best pair
//! look *worse*, never better.
//!
//! Run the full benchmark with:
//!
//! ```text
//! cargo run --release -p p3d-bench --bin conv3d_throughput
//! ```
//!
//! which writes `BENCH_conv3d.json` into the current directory.

use p3d_nn::{Conv3d, Layer, Mode};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{BlockPattern, Tensor, TensorRng};
use std::time::Instant;

/// Shape and repetition parameters for one benchmark run.
#[derive(Clone, Debug)]
pub struct Conv3dBenchConfig {
    /// Clips per batch.
    pub batch: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel extents `(Kd, Kr, Kc)`.
    pub kernel: (usize, usize, usize),
    /// Input volume `(D, H, W)`.
    pub input: (usize, usize, usize),
    /// Timed forward+backward repetitions per thread count (the best of
    /// these is reported, after one untimed warm-up).
    pub reps: usize,
    /// Thread counts to measure; must start with `1` (the serial
    /// baseline all other rows are validated against).
    pub threads: Vec<usize>,
}

impl Conv3dBenchConfig {
    /// The headline configuration: batch-4 training step of a mid-network
    /// `3x3x3` convolution.
    pub fn standard() -> Self {
        Conv3dBenchConfig {
            batch: 4,
            in_channels: 16,
            out_channels: 16,
            kernel: (3, 3, 3),
            input: (8, 14, 14),
            reps: 5,
            threads: vec![1, 2, 4],
        }
    }

    /// A seconds-scale smoke configuration for `cargo test`.
    pub fn smoke() -> Self {
        Conv3dBenchConfig {
            batch: 2,
            in_channels: 2,
            out_channels: 2,
            kernel: (2, 2, 2),
            input: (2, 4, 4),
            reps: 1,
            threads: vec![1, 2],
        }
    }
}

/// Measured numbers for one thread count.
#[derive(Clone, Debug)]
pub struct ThreadResult {
    /// Forced worker count.
    pub threads: usize,
    /// Best forward+backward wall time, milliseconds.
    pub step_ms: f64,
    /// Speed-up vs serial (`>1` is faster): the best *paired* ratio over
    /// reps that each time a 1-thread and a `threads`-thread step
    /// back-to-back (`1.0` by definition on the serial row).
    pub speedup_vs_serial: f64,
    /// Largest absolute output/gradient deviation from the serial run
    /// (forward output, input gradient, and weight gradient).
    pub max_abs_diff_vs_serial: f64,
}

/// A complete benchmark report.
#[derive(Clone, Debug)]
pub struct Conv3dBenchReport {
    /// The configuration that was run.
    pub config: Conv3dBenchConfig,
    /// One row per thread count, in `config.threads` order.
    pub results: Vec<ThreadResult>,
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x - y).abs() as f64)
        .fold(0.0, f64::max)
}

/// One prepared benchmark layer with its fixed input and output-grad:
/// the unit both sides of a paired measurement share, so that serial and
/// `t`-thread reps time the exact same work on the exact same memory.
struct StepBench {
    conv: Conv3d,
    x: Tensor,
    g: Tensor,
}

impl StepBench {
    fn new(cfg: &Conv3dBenchConfig) -> Self {
        let mut rng = TensorRng::seed(2020);
        let (kd, kr, kc) = cfg.kernel;
        let pad = (kd / 2, kr / 2, kc / 2);
        let mut conv = Conv3d::new(
            "bench",
            cfg.out_channels,
            cfg.in_channels,
            cfg.kernel,
            (1, 1, 1),
            pad,
            true,
            &mut rng,
        );
        let (d, h, w) = cfg.input;
        let x = rng.uniform_tensor([cfg.batch, cfg.in_channels, d, h, w], -1.0, 1.0);
        // The forward here doubles as the warm-up the first timed rep
        // would otherwise absorb.
        let y = conv.forward(&x, Mode::Train);
        let g = rng.uniform_tensor(y.shape(), -1.0, 1.0);
        StepBench { conv, x, g }
    }

    /// One full training step, returning the tensors the determinism
    /// check compares: `(forward, grad_in, grad_w)`.
    fn outputs(&mut self) -> (Tensor, Tensor, Tensor) {
        self.zero_grads();
        let y = self.conv.forward(&self.x, Mode::Train);
        let grad_in = self.conv.backward(&self.g);
        (y, grad_in, self.conv.weight.grad.clone())
    }

    /// One timed forward+backward step, milliseconds.
    fn time_step(&mut self) -> f64 {
        self.zero_grads();
        let t0 = Instant::now();
        let y = self.conv.forward(&self.x, Mode::Train);
        let gi = self.conv.backward(&self.g);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box((y, gi));
        ms
    }

    fn zero_grads(&mut self) {
        self.conv.weight.grad.fill(0.0);
        if let Some(b) = &mut self.conv.bias {
            b.grad.fill(0.0);
        }
    }
}

struct StepOutput {
    forward: Tensor,
    grad_in: Tensor,
    grad_w: Tensor,
    best_ms: f64,
    /// Best paired serial/threaded ratio (`1.0` for the serial row,
    /// whose pairs are degenerate).
    paired_speedup: f64,
}

/// Measures one thread count with paired interleaved reps: every rep
/// times a 1-thread step and a `threads`-thread step back-to-back on
/// the same prepared layer, and the speedup is the best per-rep ratio
/// (see the module docs for why pairing beats separate phases).
fn run_at(cfg: &Conv3dBenchConfig, threads: usize) -> StepOutput {
    let mut bench = StepBench::new(cfg);
    set_thread_override(Some(threads));
    let (forward, grad_in, grad_w) = bench.outputs();
    let mut best_ms = f64::INFINITY;
    let mut paired_speedup: f64 = if threads == 1 { 1.0 } else { 0.0 };
    for _ in 0..cfg.reps.max(1) {
        let serial_ms = if threads == 1 {
            f64::INFINITY // the threaded side below *is* the serial side
        } else {
            set_thread_override(Some(1));
            let ms = bench.time_step();
            set_thread_override(Some(threads));
            ms
        };
        let ms = bench.time_step();
        best_ms = best_ms.min(ms);
        if threads > 1 {
            paired_speedup = paired_speedup.max(serial_ms / ms.max(1e-12));
        }
    }
    set_thread_override(None);
    StepOutput {
        forward,
        grad_in,
        grad_w,
        best_ms,
        paired_speedup,
    }
}

/// Runs the benchmark across every thread count in `cfg.threads`.
///
/// # Panics
///
/// Panics if `cfg.threads` does not start with `1`, or if any parallel
/// run deviates from the serial baseline by more than `1e-5`.
pub fn run_conv3d_throughput(cfg: &Conv3dBenchConfig) -> Conv3dBenchReport {
    assert_eq!(
        cfg.threads.first(),
        Some(&1),
        "thread list must start with the serial baseline"
    );
    let mut results = Vec::with_capacity(cfg.threads.len());
    let mut serial: Option<StepOutput> = None;
    for &t in &cfg.threads {
        let out = run_at(cfg, t);
        let diff = match &serial {
            None => 0.0,
            Some(base) => {
                let d = max_abs_diff(&base.forward, &out.forward)
                    .max(max_abs_diff(&base.grad_in, &out.grad_in))
                    .max(max_abs_diff(&base.grad_w, &out.grad_w));
                assert!(
                    d <= 1e-5,
                    "{t}-thread run deviates from serial by {d} (> 1e-5)"
                );
                d
            }
        };
        results.push(ThreadResult {
            threads: t,
            step_ms: out.best_ms,
            speedup_vs_serial: out.paired_speedup,
            max_abs_diff_vs_serial: diff,
        });
        if serial.is_none() {
            serial = Some(out);
        }
    }
    Conv3dBenchReport {
        config: cfg.clone(),
        results,
    }
}

impl Conv3dBenchReport {
    /// Renders the report as pretty-printed JSON, embedding the
    /// block-sparsity sweep (when provided) under `"sparsity_sweep"`.
    pub fn to_json_with_sweep(&self, sweep: Option<&SparsitySweepReport>) -> String {
        let mut s = self.to_json();
        if let Some(sw) = sweep {
            let tail = "  ]\n}\n";
            debug_assert!(s.ends_with(tail));
            s.truncate(s.len() - tail.len());
            s.push_str("  ],\n");
            s.push_str(&format!("  \"sparsity_sweep\": {}\n}}\n", sw.to_json_fragment()));
        }
        s
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let host_cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"conv3d_train_step\",\n");
        s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
        s.push_str("  \"config\": {\n");
        s.push_str(&format!("    \"batch\": {},\n", c.batch));
        s.push_str(&format!("    \"in_channels\": {},\n", c.in_channels));
        s.push_str(&format!("    \"out_channels\": {},\n", c.out_channels));
        s.push_str(&format!(
            "    \"kernel\": [{}, {}, {}],\n",
            c.kernel.0, c.kernel.1, c.kernel.2
        ));
        s.push_str(&format!(
            "    \"input\": [{}, {}, {}],\n",
            c.input.0, c.input.1, c.input.2
        ));
        s.push_str(&format!("    \"reps\": {}\n", c.reps));
        s.push_str("  },\n");
        s.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"threads\": {}, \"step_ms\": {:.4}, \"speedup_vs_serial\": {:.3}, \"max_abs_diff_vs_serial\": {:.3e}}}{}\n",
                r.threads,
                r.step_ms,
                r.speedup_vs_serial,
                r.max_abs_diff_vs_serial,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Block-sparsity forward sweep
// ---------------------------------------------------------------------------

/// Configuration for the single-thread block-sparsity forward sweep:
/// the same conv shape as the training-step benchmark, forwarded with
/// an increasing fraction of `Tm x Tn` weight blocks magnitude-pruned.
#[derive(Clone, Debug)]
pub struct SparsitySweepConfig {
    /// Conv shape and rep count (the `threads` field is ignored — the
    /// sweep is a single-thread measurement by design, matching the
    /// paper's per-engine block-skip accounting).
    pub conv: Conv3dBenchConfig,
    /// Block tile `(Tm, Tk)` over the flattened `[M, N*Kd*Kr*Kc]`
    /// weight matrix.
    pub tile: (usize, usize),
    /// Fractions of blocks to prune, e.g. `[0.0, 0.5, 0.7, 0.9]`.
    pub pruned_fractions: Vec<f64>,
}

impl SparsitySweepConfig {
    /// The headline sweep: a deeper-layer conv shape (`16 -> 64`
    /// channels — the paper's later C3D stages are the wide, heavily
    /// pruned ones, and a wider `M` amortises the input lowering, which
    /// every output row shares, over more skippable GEMM rows), `4x4`
    /// blocks, 0/50/70/90 % of blocks pruned.
    pub fn standard() -> Self {
        SparsitySweepConfig {
            conv: Conv3dBenchConfig {
                out_channels: 64,
                reps: 15,
                ..Conv3dBenchConfig::standard()
            },
            tile: (4, 4),
            pruned_fractions: vec![0.0, 0.5, 0.7, 0.9],
        }
    }

    /// A fast configuration for `cargo test`.
    pub fn smoke() -> Self {
        SparsitySweepConfig {
            conv: Conv3dBenchConfig::smoke(),
            tile: (2, 2),
            pruned_fractions: vec![0.0, 0.5],
        }
    }
}

/// Measured numbers for one pruned fraction.
#[derive(Clone, Debug)]
pub struct SparsityResult {
    /// Requested fraction of blocks pruned.
    pub pruned_fraction: f64,
    /// Blocks actually kept after rounding.
    pub enabled_blocks: usize,
    /// Total blocks in the grid.
    pub total_blocks: usize,
    /// Best dense forward wall time, milliseconds (masked weights, no
    /// pattern installed).
    pub dense_ms: f64,
    /// Best block-sparse forward wall time, milliseconds (same masked
    /// weights, block-CSR path).
    pub sparse_ms: f64,
    /// `>1` means block skipping pays: the best *paired* dense/sparse
    /// ratio over reps (each rep times both sides back-to-back, so the
    /// ratio is immune to the cross-rep drift that whipsawed the
    /// per-side minima this field used to be derived from).
    pub speedup_vs_dense: f64,
    /// Dense-equivalent throughput of the sparse forward: the full
    /// (unpruned) MAC count divided by the sparse wall time. This is the
    /// paper's "effective GFLOP/s" — it rises with sparsity because
    /// skipped blocks still count as delivered work.
    pub effective_gflops: f64,
    /// Whether the sparse forward matched the dense forward bit-for-bit.
    pub bitwise_equal: bool,
}

/// A complete sweep report.
#[derive(Clone, Debug)]
pub struct SparsitySweepReport {
    /// The configuration that was run.
    pub config: SparsitySweepConfig,
    /// One row per pruned fraction, in `config.pruned_fractions` order.
    pub results: Vec<SparsityResult>,
}

/// Runs the block-sparsity forward sweep at one forced thread.
///
/// For each requested fraction the weight's `Tm x Tk` blocks are ranked
/// by squared Frobenius norm, the smallest are zeroed (the block-prune
/// precondition under which skipping is exact), and the same masked
/// layer is forwarded through both compute paths — dense GEMM on the
/// zero-laden weights vs the block-CSR kernel that visits only enabled
/// blocks. Dense and sparse reps are interleaved so drift hits both
/// alike, and the reported speedup is the best paired per-rep ratio.
///
/// The 0%-pruned row now exercises the dense-fallback policy: a
/// fully-enabled pattern makes `install_block_patterns` keep the dense
/// kernel (see `BlockPattern::prefers_dense`), so both timed sides run
/// identical code and the row documents fallback parity instead of the
/// old ~0.87x block-CSR overhead.
///
/// # Panics
///
/// Panics if any sparse forward deviates bitwise from its dense
/// counterpart.
pub fn run_sparsity_sweep(cfg: &SparsitySweepConfig) -> SparsitySweepReport {
    set_thread_override(Some(1));
    let c = &cfg.conv;
    let (kd, kr, kc) = c.kernel;
    let pad = (kd / 2, kr / 2, kc / 2);
    let m = c.out_channels;
    let rows = c.in_channels * kd * kr * kc;
    let (tm, tk) = cfg.tile;
    let bcols = rows.div_ceil(tk);
    let total = m.div_ceil(tm) * bcols;

    let mut results = Vec::with_capacity(cfg.pruned_fractions.len());
    for &frac in &cfg.pruned_fractions {
        // Fresh identically-seeded layer per fraction: every row prunes
        // the same underlying weights, so rows differ only in sparsity.
        let mut rng = TensorRng::seed(2020);
        let mut conv = Conv3d::new("sweep", m, c.in_channels, c.kernel, (1, 1, 1), pad, true, &mut rng);
        let (d, h, w) = c.input;
        let x = rng.uniform_tensor([c.batch, c.in_channels, d, h, w], -1.0, 1.0);

        // Rank blocks by squared Frobenius norm; keep the largest.
        let wdata = conv.weight.value.data();
        let mut norms = vec![0.0f64; total];
        for r in 0..m {
            for col in 0..rows {
                norms[(r / tm) * bcols + col / tk] += (wdata[r * rows + col] as f64).powi(2);
            }
        }
        let kept = (((1.0 - frac) * total as f64).round() as usize).clamp(1, total);
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap().then(i.cmp(&j)));
        let mut keep = vec![false; total];
        for &i in order.iter().take(kept) {
            keep[i] = true;
        }
        // Zero the pruned blocks — dense and sparse paths then agree
        // bitwise (the canonical-order zero-skip argument).
        let wmut = conv.weight.value.data_mut();
        for r in 0..m {
            for col in 0..rows {
                if !keep[(r / tm) * bcols + col / tk] {
                    wmut[r * rows + col] = 0.0;
                }
            }
        }
        let pattern = BlockPattern {
            m,
            k: rows,
            tm,
            tk,
            keep: keep.clone(),
        };

        // Warm both paths once (and capture outputs for the bitwise
        // check), then interleave timed reps.
        conv.install_block_patterns(&mut |_| None);
        let y_dense = conv.forward(&x, Mode::Eval);
        conv.install_block_patterns(&mut |_| Some(pattern.clone()));
        let y_sparse = conv.forward(&x, Mode::Eval);
        let bitwise_equal = y_dense
            .data()
            .iter()
            .zip(y_sparse.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            bitwise_equal,
            "sparse forward diverged from dense at pruned fraction {frac}"
        );

        let mut dense_ms = f64::INFINITY;
        let mut sparse_ms = f64::INFINITY;
        let mut speedup = 0.0f64;
        for _ in 0..c.reps.max(1) {
            conv.install_block_patterns(&mut |_| None);
            let t0 = Instant::now();
            std::hint::black_box(conv.forward(&x, Mode::Eval));
            let d_ms = t0.elapsed().as_secs_f64() * 1e3;

            conv.install_block_patterns(&mut |_| Some(pattern.clone()));
            let t0 = Instant::now();
            std::hint::black_box(conv.forward(&x, Mode::Eval));
            let s_ms = t0.elapsed().as_secs_f64() * 1e3;

            dense_ms = dense_ms.min(d_ms);
            sparse_ms = sparse_ms.min(s_ms);
            // Paired ratio: both sides of one rep saw the same host
            // conditions, so the best pair is drift-free.
            speedup = speedup.max(d_ms / s_ms.max(1e-12));
        }

        let cols_n = d * h * w; // stride 1, same-padding: output == input volume
        let dense_flops = 2.0 * c.batch as f64 * m as f64 * rows as f64 * cols_n as f64;
        results.push(SparsityResult {
            pruned_fraction: frac,
            enabled_blocks: kept,
            total_blocks: total,
            dense_ms,
            sparse_ms,
            speedup_vs_dense: speedup,
            effective_gflops: dense_flops / (sparse_ms * 1e-3) / 1e9,
            bitwise_equal,
        });
    }
    set_thread_override(None);
    SparsitySweepReport {
        config: cfg.clone(),
        results,
    }
}

impl SparsitySweepReport {
    /// Renders the sweep as a JSON fragment (an object, no trailing
    /// newline) for embedding under `"sparsity_sweep"` in
    /// `BENCH_conv3d.json`.
    pub fn to_json_fragment(&self) -> String {
        let (tm, tk) = self.config.tile;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("    \"tile\": [{tm}, {tk}],\n"));
        s.push_str("    \"threads\": 1,\n");
        s.push_str("    \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"pruned_fraction\": {:.2}, \"enabled_blocks\": {}, \"total_blocks\": {}, \"dense_ms\": {:.4}, \"sparse_ms\": {:.4}, \"speedup_vs_dense\": {:.3}, \"effective_gflops\": {:.3}, \"bitwise_equal\": {}}}{}\n",
                r.pruned_fraction,
                r.enabled_blocks,
                r.total_blocks,
                r.dense_ms,
                r.sparse_ms,
                r.speedup_vs_dense,
                r.effective_gflops,
                r.bitwise_equal,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        s.push_str("    ]\n  }");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_valid_report() {
        let report = run_conv3d_throughput(&Conv3dBenchConfig::smoke());
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.results[0].threads, 1);
        for r in &report.results {
            assert!(r.step_ms.is_finite() && r.step_ms > 0.0);
            assert!(r.max_abs_diff_vs_serial <= 1e-5);
        }
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"conv3d_train_step\""));
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"threads\": 2"));
        // Balanced braces / brackets — cheap structural sanity.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sparsity_sweep_smoke_is_bitwise_and_embeds_in_json() {
        let sweep = run_sparsity_sweep(&SparsitySweepConfig::smoke());
        assert_eq!(sweep.results.len(), 2);
        for r in &sweep.results {
            assert!(r.bitwise_equal);
            assert!(r.dense_ms.is_finite() && r.sparse_ms.is_finite());
            assert!(r.enabled_blocks >= 1 && r.enabled_blocks <= r.total_blocks);
        }
        // The 0.0 row keeps every block.
        assert_eq!(sweep.results[0].enabled_blocks, sweep.results[0].total_blocks);
        let report = run_conv3d_throughput(&Conv3dBenchConfig::smoke());
        let json = report.to_json_with_sweep(Some(&sweep));
        assert!(json.contains("\"sparsity_sweep\""));
        assert!(json.contains("\"pruned_fraction\": 0.50"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "serial baseline")]
    fn thread_list_must_start_serial() {
        let mut cfg = Conv3dBenchConfig::smoke();
        cfg.threads = vec![2, 4];
        let _ = run_conv3d_throughput(&cfg);
    }
}
