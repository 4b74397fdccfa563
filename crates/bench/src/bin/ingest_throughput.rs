//! Streaming-ingest throughput: pipelined decode+infer vs the serial
//! decode-then-infer baseline at 1/2/4 engine threads.
//!
//! Streams a synthetic 256x256 GRAY8 P3DVID1 container through the
//! prefetch pipeline into the f32 arena engine, validates every run
//! bitwise against the reference serial path, prints a table, and
//! writes `BENCH_ingest.json` into the current directory (next to
//! `BENCH_inference.json`).

use p3d_bench::ingest::{run_ingest_throughput, IngestBenchConfig};
use p3d_bench::{spread_cell, TableWriter};

fn main() {
    let cfg = IngestBenchConfig::standard();
    println!(
        "streaming ingest: {} clips of {} frames at {}x{} gray8, batches of {}, \
         {} decode workers, prefetch depth {}, {} paired reps\n",
        cfg.clips,
        cfg.clip_depth,
        cfg.src_w,
        cfg.src_h,
        cfg.batch,
        cfg.workers,
        cfg.depth,
        cfg.reps
    );
    let report = run_ingest_throughput(&cfg);

    let mut t = TableWriter::new(&[
        "Threads",
        "Pipelined clips/s",
        "Serial clips/s",
        "Speedup",
        "Median [min-max]",
        "Overlap eff.",
        "Grow events",
    ]);
    for r in &report.results {
        t.row(&[
            r.threads.to_string(),
            format!("{:.1}", r.pipelined_clips_per_s),
            format!("{:.1}", r.serial_clips_per_s),
            format!("{:.2}x", r.ingest_speedup),
            spread_cell(&r.speedup_spread),
            format!("{:.2}", r.overlap_efficiency),
            r.grow_events.to_string(),
        ]);
    }
    println!("{}", t.render());

    let json = report.to_json();
    let path = "BENCH_ingest.json";
    std::fs::write(path, &json).expect("failed to write BENCH_ingest.json");
    println!("\nwrote {path}");
}
