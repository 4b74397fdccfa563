//! Batched-inference throughput and latency at 1/2/4 threads.
//!
//! Streams clips through the f32 arena engine and the Q7.8 accelerator
//! simulator, validates every batched run bitwise against a per-clip
//! sequential loop, prints a table, and writes `BENCH_inference.json`
//! into the current directory (next to `BENCH_conv3d.json`).

use p3d_bench::infer::{run_inference_throughput, InferBenchConfig};
use p3d_bench::{spread_cell, TableWriter};

fn main() {
    let cfg = InferBenchConfig::standard();
    println!(
        "batched inference: {} clips of r2plus1d_micro in batches of {}, {} paired reps\n",
        cfg.clips, cfg.batch, cfg.reps
    );
    let report = run_inference_throughput(&cfg);

    let mut t = TableWriter::new(&[
        "Backend",
        "Threads",
        "Clips/s",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "Seq clips/s",
        "Speedup",
        "Median [min-max]",
    ]);
    for r in &report.results {
        t.row(&[
            r.backend.clone(),
            r.threads.to_string(),
            format!("{:.1}", r.clips_per_s),
            format!("{:.3}", r.latency.p50_ms),
            format!("{:.3}", r.latency.p95_ms),
            format!("{:.3}", r.latency.p99_ms),
            format!("{:.1}", r.sequential_clips_per_s),
            format!("{:.2}x", r.batched_speedup),
            spread_cell(&r.speedup_spread),
        ]);
    }
    println!("{}", t.render());

    let json = report.to_json();
    let path = "BENCH_inference.json";
    std::fs::write(path, &json).expect("failed to write BENCH_inference.json");
    println!("\nwrote {path}");
}
