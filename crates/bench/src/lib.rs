#![warn(missing_docs)]
//! The benchmark harness: everything shared by the table/figure
//! regeneration binaries (`table1`–`table4`, `accuracy`, `dse`, and the
//! ablation studies) plus the published reference numbers they compare
//! against.
//!
//! Run the binaries with, e.g.:
//!
//! ```text
//! cargo run --release -p p3d-bench --bin table2
//! ```

pub mod infer;
pub mod ingest;
pub mod masks;
pub mod measure;
pub mod published;
pub mod resume_cli;
pub mod table;
pub mod throughput;

pub use infer::{run_inference_throughput, InferBenchConfig, InferBenchReport};
pub use ingest::{run_ingest_throughput, IngestBenchConfig, IngestBenchReport};
pub use masks::{paper_pruned_model, uniform_mask};
pub use published::{PublishedRow, TABLE4_ROWS};
pub use resume_cli::{
    capture_baseline, restore_baseline, run_baseline_phase, ResumeOpts, BASELINE_PROGRESS_KEY,
};
pub use table::TableWriter;
pub use throughput::{run_conv3d_throughput, Conv3dBenchConfig, Conv3dBenchReport};

use p3d_infer::json::Obj;

/// The provenance fields every `BENCH_*.json` file opens with.
fn bench_header(benchmark: &str) -> Obj {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let feats = p3d_tensor::simd::cpu_features();
    Obj::new()
        .str("benchmark", benchmark)
        .u64("host_cpus", host_cpus as u64)
        .str(
            "cpu_features",
            if feats.is_empty() { "none" } else { feats },
        )
}

/// A paired ratio's spread for the bench tables: `median [min-max]`.
pub fn spread_cell(s: &measure::Spread) -> String {
    format!("{:.2}x [{:.2}-{:.2}]", s.median, s.min, s.max)
}

/// Renders already-serialized rows as a JSON array, one row per line so
/// the checked-in BENCH files diff row by row.
fn json_rows(rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().collect();
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}
