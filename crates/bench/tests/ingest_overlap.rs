//! Release perf gate for the streaming ingest data plane: pipelined
//! decode+infer must beat the serial decode-then-infer baseline by at
//! least **1.5x** at 2 and 4 engine threads, with logits bitwise
//! identical to the pre-built-tensor path and zero arena growth after
//! warm-up.
//!
//! The margin is calibrated on the 1-CPU CI host, where the ratio is
//! carried by the data plane's algorithmic gaps rather than by true
//! overlap: the folded CRC vs the byte-at-a-time reference,
//! precomputed fused resize taps vs per-pixel recomputation, and
//! arena-recycled clip buffers vs fresh allocations per clip. Measured
//! 2.3-2.9x across 1-4 threads; the gate sits at 1.5x, below that band
//! by more than its spread. The ratio is the best *paired interleaved*
//! estimate per rep, so co-tenant noise can only lower it — a failure
//! means the data plane actually regressed.
//!
//! Debug builds skip the timing (`gemm_perf` precedent) but still pin
//! the bitwise identity and the zero-growth steady state, which is the
//! contract that makes streaming ingestion safe to serve from at all.

use p3d_bench::ingest::{run_ingest_throughput, IngestBenchConfig};

#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 1.5;

#[test]
fn pipelined_ingest_beats_serial_decode_then_infer() {
    let cfg = IngestBenchConfig {
        threads: vec![2, 4],
        ..if cfg!(debug_assertions) {
            IngestBenchConfig::smoke()
        } else {
            IngestBenchConfig::standard()
        }
    };
    let report = run_ingest_throughput(&cfg);
    assert_eq!(report.results.len(), 2);
    for row in &report.results {
        // The correctness half of the gate runs in every profile:
        // streamed clips produce the exact logits of the serial
        // reference path, from recycled buffers only.
        assert!(row.bitwise_equal);
        assert_eq!(
            row.grow_events, 0,
            "arena grew after warm-up at {} threads",
            row.threads
        );
        #[cfg(not(debug_assertions))]
        assert!(
            row.ingest_speedup >= MIN_SPEEDUP,
            "pipelined ingest at {} threads only {:.2}x serial ({:.1} vs {:.1} clips/s)",
            row.threads,
            row.ingest_speedup,
            row.pipelined_clips_per_s,
            row.serial_clips_per_s
        );
    }
}
