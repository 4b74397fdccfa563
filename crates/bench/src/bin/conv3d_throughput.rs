//! Conv3d training-step throughput at 1/2/4 threads, plus the
//! single-thread block-sparsity forward sweep.
//!
//! Forces the worker count via the programmatic override (equivalent to
//! setting `P3D_THREADS`), validates every parallel run against the
//! serial baseline to 1e-5, sweeps 0/50/70/90 % of `Tm x Tk` weight
//! blocks pruned through the block-CSR forward (bitwise-checked against
//! dense), prints both tables, and writes `BENCH_conv3d.json` into the
//! current directory.

use p3d_bench::throughput::{
    run_conv3d_throughput, run_sparsity_sweep, Conv3dBenchConfig, SparsitySweepConfig,
};
use p3d_bench::{spread_cell, TableWriter};

fn main() {
    let cfg = Conv3dBenchConfig::standard();
    println!(
        "conv3d train step: batch {}, {}->{} channels, kernel {:?}, input {:?}, {} paired reps\n",
        cfg.batch, cfg.in_channels, cfg.out_channels, cfg.kernel, cfg.input, cfg.reps
    );
    let report = run_conv3d_throughput(&cfg);

    let mut t = TableWriter::new(&[
        "Threads",
        "Step (ms)",
        "Speedup",
        "Median [min-max]",
        "Max |diff| vs serial",
    ]);
    for r in &report.results {
        t.row(&[
            r.threads.to_string(),
            format!("{:.2}", r.step_ms),
            format!("{:.2}x", r.speedup_vs_serial),
            spread_cell(&r.speedup_spread),
            format!("{:.1e}", r.max_abs_diff_vs_serial),
        ]);
    }
    println!("{}", t.render());

    let sweep_cfg = SparsitySweepConfig::standard();
    println!(
        "\nblock-sparse forward sweep: tile {:?}, 1 thread, {} paired reps\n",
        sweep_cfg.tile, sweep_cfg.conv.reps
    );
    let sweep = run_sparsity_sweep(&sweep_cfg);
    let mut t = TableWriter::new(&[
        "Pruned",
        "Blocks",
        "Dense (ms)",
        "Sparse (ms)",
        "Speedup",
        "Median [min-max]",
        "Eff. GFLOP/s",
        "Bitwise",
    ]);
    for r in &sweep.results {
        t.row(&[
            format!("{:.0}%", r.pruned_fraction * 100.0),
            format!("{}/{}", r.enabled_blocks, r.total_blocks),
            format!("{:.2}", r.dense_ms),
            format!("{:.2}", r.sparse_ms),
            format!("{:.2}x", r.speedup_vs_dense),
            spread_cell(&r.speedup_spread),
            format!("{:.2}", r.effective_gflops),
            r.bitwise_equal.to_string(),
        ]);
    }
    println!("{}", t.render());

    let json = report.to_json(Some(&sweep));
    let path = "BENCH_conv3d.json";
    std::fs::write(path, &json).expect("failed to write BENCH_conv3d.json");
    println!("\nwrote {path}");
}
