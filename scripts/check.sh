#!/usr/bin/env sh
# Local CI gate: everything a merge must pass, in the order that fails
# fastest. Run from the repository root:
#
#   sh scripts/check.sh
#
# The workspace test run covers every suite once, under the dev
# profile (debug assertions, overflow checks and the NaN/Inf activation
# sentinels on). Timing gates then run again in release, where they
# measure the kernels rather than the optimiser, and the two soaks run
# in release because they are ignored by default.
set -eu

# Every suite listed here is a merge requirement. A rename or deletion
# would silently drop it from the workspace run, so assert each file
# still exists before running anything.
missing=0
while read -r suite _reason; do
    if [ ! -f "$suite" ]; then
        echo "missing required suite: $suite"
        missing=1
    fi
done <<'EOF'
crates/nn/tests/checkpoint_fuzz.rs                # truncated / bit-flipped / garbage checkpoints error, never panic or over-allocate
crates/core/tests/resume.rs                       # kill-and-resume training is bitwise equivalent to an uninterrupted run
crates/tensor/tests/fixed_properties.rs           # Q7.8 datapath properties and round-to-nearest contracts
crates/fpga/tests/conv_differential.rs            # Q7.8 vs f32, functional vs cycle engine, AVX2 vs scalar at the i16 rails
crates/fpga/tests/zero_alloc_conv.rs              # steady-state CompiledConv::run allocates only its output tensor
crates/infer/tests/determinism.rs                 # inference bitwise identical across thread counts under load
crates/infer/tests/zero_alloc.rs                  # zero heap allocations per clip in steady-state serving
crates/tensor/tests/gemm_properties.rs            # packed and block-CSR GEMM bitwise equal to the naive kernel
crates/nn/tests/lowering_properties.rs            # lower_row, im2col_panels and col2im bitwise equal to the im2col definition
crates/tensor/tests/crc_properties.rs             # folded and table CRC-32 bitwise equal to the byte-at-a-time reference
crates/core/tests/block_sparse_equivalence.rs     # block-sparse forward/backward/serving equal dense through the network
crates/infer/tests/pruned_serving.rs              # pruned-model serving equals dense serving on masked weights
crates/bench/tests/inference_speedup.rs           # batched f32 >= 1.1x sequential at 8 threads; sim batched never below 1x
crates/bench/tests/gemm_perf.rs                   # release: packed >= 1.5x naive, AVX2 >= 1.3x forced scalar
crates/bench/tests/sim_fast_speedup.rs            # functional sim bitwise equal to the cycle engine, AVX2 to scalar; release: >= 3x cycle, AVX2 >= 3x forced scalar
crates/tensor/tests/parallel_pool.rs              # pool: bitwise across worker counts, panic containment, nested calls
crates/bench/tests/thread_scaling.rs              # 1-thread step never spawns; release: 2/4 threads >= 0.85x serial
crates/infer/tests/chaos.rs                       # seeded fault injection: exactly-once, balanced budget, bitwise survivors
crates/infer/tests/http_fuzz.rs                   # malformed HTTP answers 4xx/5xx or closes, never panics or over-allocates
crates/infer/tests/http_e2e.rs                    # wire logits bitwise equal to in-process; chaos behind the wire; fairness
crates/infer/tests/http_soak.rs                   # release soak: mixed load, zero leaked threads, balanced budget
crates/video-data/tests/vid_format_fuzz.rs        # hostile P3DVID1 containers error typed, never panic
crates/video-data/tests/ingest_pipeline.rs        # prefetcher bitwise equal to the serial reader; faults; arena recycling
crates/video-data/tests/zero_alloc_ingest.rs      # streaming ingest allocates nothing in steady state
crates/bench/tests/ingest_overlap.rs              # pipelined ingest bitwise, zero growth; release: >= 1.5x serial
crates/infer/tests/registry_fuzz.rs               # corrupt registry pushes are rejected typed and quarantined
crates/infer/tests/registry_crash.rs              # SIGKILL mid-publish / mid-hot-swap leaves the registry loadable
crates/infer/tests/http_guard.rs                  # stalled readers reaped; healthz reports ok / degraded / draining
crates/infer/tests/swap_under_load.rs             # hot-swap under load: exactly-once, bitwise provenance
crates/infer/tests/canary_rollback.rs             # poisoned candidates roll back, healthy ones promote
crates/infer/tests/respcache_e2e.rs               # response-cache hits bitwise equal, keyed by model hash
crates/infer/tests/chaos_swap.rs                  # rapid swaps and corrupt pushes raced against worker faults
crates/infer/tests/swap_soak.rs                   # release soak: three hot-swaps, no drops or duplicates, no thread leak
tests/cli.rs                                      # every p3d command end to end; refusals exit nonzero without a panic
tests/engines.rs                                  # the CLI's loader serves a masked checkpoint block-sparse, bitwise dense
EOF
[ "$missing" -eq 0 ] || exit 1

# Formatting is gated on every first-party package; the vendored crates
# under third_party/ keep their upstream layout.
echo "==> cargo fmt --check -p p3d-tensor -p p3d-infer -p p3d-fpga -p p3d-bench -p p3d-models -p p3d-video-data -p p3d-core -p p3d-nn -p p3d"
cargo fmt --check -p p3d-tensor -p p3d-infer -p p3d-fpga -p p3d-bench -p p3d-models -p p3d-video-data -p p3d-core -p p3d-nn -p p3d

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Broken intra-doc links and public docs naming private items fail the
# gate. The vendored proptest crate is not ours to edit, so it is left out.
echo "==> cargo doc --workspace --no-deps (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> release timing gates"
cargo test -q --release -p p3d-bench \
    --test gemm_perf --test sim_fast_speedup --test thread_scaling --test ingest_overlap

# Named suites only: `--include-ignored` across the workspace would also
# run registry_crash's ignored helper bodies, which expect to be killed.
echo "==> release soaks (HTTP, hot-swap)"
cargo test -q --release -p p3d-infer --test http_soak --test swap_soak -- --ignored

echo "All checks passed."
