//! Conv3d training-step throughput benchmark with thread scaling.
//!
//! Measures forward+backward wall time of a batch of clips through one
//! `Conv3d` layer at several `P3D_THREADS` settings (forced via
//! [`p3d_tensor::parallel::set_thread_override`]), checks every parallel
//! result against the serial baseline, and renders the result as JSON.
//!
//! Speedups come from the paired harness in [`crate::measure`]: each
//! rep times the two sides under comparison back-to-back — serial vs
//! `t`-thread for the scaling rows, dense vs block-sparse for the
//! sparsity sweep — and each row reports the best per-rep ratio plus
//! the spread of all of them.
//!
//! Run the full benchmark with:
//!
//! ```text
//! cargo run --release -p p3d-bench --bin conv3d_throughput
//! ```
//!
//! which writes `BENCH_conv3d.json` into the current directory.

use crate::measure::{paired, Paired, Spread};
use crate::{bench_header, json_rows};
use p3d_infer::json::Obj;
use p3d_nn::{Conv3d, Layer, Mode};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{BlockPattern, Tensor, TensorRng};

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
    /// Timed serial/threaded pairs per thread count (after one untimed
    /// warm-up).
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
    /// Spread of the per-rep serial/threaded ratios. On the serial row
    /// both sides run one thread, so it shows the estimator's noise.
    pub speedup_spread: Spread,
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

    /// One forward+backward step at the current thread count.
    fn step(&mut self) {
        self.zero_grads();
        let y = self.conv.forward(&self.x, Mode::Train);
        let gi = self.conv.backward(&self.g);
        std::hint::black_box((y, gi));
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
    timing: Paired,
}

/// Measures one thread count with paired reps: every rep times a
/// 1-thread step and then a `threads`-thread step on the same prepared
/// layer.
fn run_at(cfg: &Conv3dBenchConfig, threads: usize) -> StepOutput {
    // Force the worker count before `StepBench::new` runs its warm-up
    // forward, so a 1-thread run never reaches the pool.
    set_thread_override(Some(threads));
    let mut bench = StepBench::new(cfg);
    let (forward, grad_in, grad_w) = bench.outputs();
    let t = paired(
        cfg.reps,
        &mut bench,
        |b| {
            set_thread_override(Some(1));
            b.step();
        },
        |b| {
            set_thread_override(Some(threads));
            b.step();
        },
    );
    set_thread_override(None);
    StepOutput {
        forward,
        grad_in,
        grad_w,
        timing: t,
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
            step_ms: out.timing.b.min * 1e3,
            speedup_vs_serial: if t == 1 { 1.0 } else { out.timing.ratio.max },
            speedup_spread: out.timing.ratio,
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
    /// Renders `BENCH_conv3d.json`, embedding the block-sparsity sweep
    /// (when provided) under `"sparsity_sweep"`.
    pub fn to_json(&self, sweep: Option<&SparsitySweepReport>) -> String {
        let c = &self.config;
        let config = Obj::new()
            .u64("batch", c.batch as u64)
            .u64("in_channels", c.in_channels as u64)
            .u64("out_channels", c.out_channels as u64)
            .raw(
                "kernel",
                &format!("[{}, {}, {}]", c.kernel.0, c.kernel.1, c.kernel.2),
            )
            .raw(
                "input",
                &format!("[{}, {}, {}]", c.input.0, c.input.1, c.input.2),
            )
            .u64("reps", c.reps as u64)
            .build();
        let rows = self.results.iter().map(|r| {
            Obj::new()
                .u64("threads", r.threads as u64)
                .f64("step_ms", r.step_ms, 4)
                .f64("speedup_vs_serial", r.speedup_vs_serial, 3)
                .raw("speedup_spread", &r.speedup_spread.json(3))
                .raw(
                    "max_abs_diff_vs_serial",
                    &format!("{:.3e}", r.max_abs_diff_vs_serial),
                )
                .build()
        });
        let mut doc = bench_header("conv3d_train_step")
            .raw("config", &config)
            .raw("results", &json_rows(rows));
        if let Some(sw) = sweep {
            doc = doc.raw("sparsity_sweep", &sw.to_json());
        }
        doc.build() + "\n"
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
    /// Spread of the per-rep dense/sparse ratios.
    pub speedup_spread: Spread,
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
/// weights are forwarded through both forms of the one GEMM kernel — the
/// dense form on the zero-laden weights (one `(0, k)` range per
/// `MR`-row block row, so every zero is still walked) vs the compiled
/// block-CSR form, whose ranges cover only enabled blocks — each on its
/// own identically built layer so no timed rep recompiles a pattern.
/// Dense and sparse reps are paired, and the reported speedup is the
/// best per-rep ratio.
///
/// The 0%-pruned row exercises the dense-fallback policy: a
/// fully-enabled pattern makes `install_block_patterns` keep the dense
/// form (see `BlockPattern::prefers_dense`), so both timed sides run
/// identical code and the row reads parity by construction.
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

    let (d, h, w) = c.input;
    let build = || {
        let mut rng = TensorRng::seed(2020);
        let conv = Conv3d::new(
            "sweep",
            m,
            c.in_channels,
            c.kernel,
            (1, 1, 1),
            pad,
            true,
            &mut rng,
        );
        let x = rng.uniform_tensor([c.batch, c.in_channels, d, h, w], -1.0, 1.0);
        (conv, x)
    };

    let mut results = Vec::with_capacity(cfg.pruned_fractions.len());
    for &frac in &cfg.pruned_fractions {
        // Fresh identically-seeded layers per fraction: every row prunes
        // the same underlying weights, so rows differ only in sparsity.
        let (mut dense, x) = build();
        let (mut sparse, _) = build();

        // Rank blocks by squared Frobenius norm; keep the largest.
        let wdata = dense.weight.value.data();
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
        // Zero the pruned blocks in both layers — dense and sparse paths
        // then agree bitwise (the canonical-order zero-skip argument).
        for conv in [&mut dense, &mut sparse] {
            let wmut = conv.weight.value.data_mut();
            for r in 0..m {
                for col in 0..rows {
                    if !keep[(r / tm) * bcols + col / tk] {
                        wmut[r * rows + col] = 0.0;
                    }
                }
            }
        }
        let pattern = BlockPattern {
            m,
            k: rows,
            tm,
            tk,
            keep,
        };
        sparse.install_block_patterns(&mut |_| Some(pattern.clone()));

        // Warm both paths once (and capture outputs for the bitwise
        // check), then time paired reps.
        let y_dense = dense.forward(&x, Mode::Eval);
        let y_sparse = sparse.forward(&x, Mode::Eval);
        let bitwise_equal = y_dense
            .data()
            .iter()
            .zip(y_sparse.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            bitwise_equal,
            "sparse forward diverged from dense at pruned fraction {frac}"
        );
        let t = paired(
            c.reps,
            &mut (),
            |_| {
                std::hint::black_box(dense.forward(&x, Mode::Eval));
            },
            |_| {
                std::hint::black_box(sparse.forward(&x, Mode::Eval));
            },
        );

        let sparse_ms = t.b.min * 1e3;
        let cols_n = d * h * w; // stride 1, same-padding: output == input volume
        let dense_flops = 2.0 * c.batch as f64 * m as f64 * rows as f64 * cols_n as f64;
        results.push(SparsityResult {
            pruned_fraction: frac,
            enabled_blocks: kept,
            total_blocks: total,
            dense_ms: t.a.min * 1e3,
            sparse_ms,
            speedup_vs_dense: t.ratio.max,
            speedup_spread: t.ratio,
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
    /// Renders the sweep as the JSON object `BENCH_conv3d.json` embeds
    /// under `"sparsity_sweep"`.
    pub fn to_json(&self) -> String {
        let (tm, tk) = self.config.tile;
        let rows = self.results.iter().map(|r| {
            Obj::new()
                .f64("pruned_fraction", r.pruned_fraction, 2)
                .u64("enabled_blocks", r.enabled_blocks as u64)
                .u64("total_blocks", r.total_blocks as u64)
                .f64("dense_ms", r.dense_ms, 4)
                .f64("sparse_ms", r.sparse_ms, 4)
                .f64("speedup_vs_dense", r.speedup_vs_dense, 3)
                .raw("speedup_spread", &r.speedup_spread.json(3))
                .f64("effective_gflops", r.effective_gflops, 3)
                .bool("bitwise_equal", r.bitwise_equal)
                .build()
        });
        Obj::new()
            .raw("tile", &format!("[{tm}, {tk}]"))
            .u64("threads", 1)
            .raw("results", &json_rows(rows))
            .build()
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
            let s = r.speedup_spread;
            assert!(
                s.reps >= 1 && s.min <= s.median && s.median <= s.max,
                "{s:?}"
            );
        }
        let json = report.to_json(None);
        assert!(json.contains("\"benchmark\": \"conv3d_train_step\""));
        assert_eq!(json.matches("\"speedup_spread\": {\"reps\": ").count(), 2);
        for key in ["\"min\": ", "\"median\": ", "\"max\": "] {
            assert_eq!(json.matches(key).count(), 2, "{key}");
        }
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
            let s = r.speedup_spread;
            assert!(s.min <= s.median && s.median <= s.max, "{s:?}");
        }
        // The 0.0 row keeps every block.
        assert_eq!(
            sweep.results[0].enabled_blocks,
            sweep.results[0].total_blocks
        );
        let report = run_conv3d_throughput(&Conv3dBenchConfig::smoke());
        let json = report.to_json(Some(&sweep));
        assert!(json.contains("\"sparsity_sweep\""));
        assert_eq!(json.matches("\"speedup_spread\": {\"reps\": ").count(), 4);
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
