//! Release perf gate for the fast functional Q7.8 sim path: per-clip,
//! single-threaded, the functional engine must serve at least **3x**
//! the cycle-approximate engine on the standard micro network.
//!
//! The functional side is timed as serving runs it: the layers are
//! compiled once, outside the timed closure
//! ([`QuantizedNetwork::compile`]), and each rep times one
//! `CompiledNetwork::forward`, whose convs finish with their
//! fused bias, batch norm and ReLU. The cycle side walks the same
//! network with its post-processing as separate passes.
//!
//! The ratio is the best *paired interleaved* estimate from
//! `p3d_bench::measure`: each rep times one cycle-engine forward and one
//! compiled forward back to back and the gate takes the best per-rep
//! ratio, so co-tenant noise can only lower the measured speedup — a
//! failure means the fast path actually regressed, not that a neighbour
//! was busy.
//!
//! A second gate sees a silent scalar fallback, which no bitwise suite
//! can: on an AVX2 host, the compiled forward of block-pruned lite-wide
//! must run at least **3x** its own forced-scalar run (paired the same
//! way). Certified channel groups run the AVX2 body; if they fell back to
//! the scalar one, this ratio would drop to about 1x.
//!
//! Debug builds skip the timing (`gemm_perf` precedent) but still pin
//! the bitwise identity of the two engines end to end — logits,
//! prediction and the full `ConvStats` — on dense micro and on
//! block-pruned lite-wide, which is the contract that makes routing
//! serving to the fast path safe at all, and of the AVX2 and scalar
//! kernels on the pruned network.

use p3d_core::{magnitude_block_prune, targets_for_stages, BlockShape, KeepRule, PrunedModel};
use p3d_fpga::config::{AcceleratorConfig, Ports, Tiling};
use p3d_fpga::sim::{QuantizedNetwork, SimScratch};
use p3d_models::{build_network, r2plus1d_lite_wide, r2plus1d_micro};
use p3d_tensor::{simd, Tensor, TensorRng};
use std::sync::{Mutex, MutexGuard};

/// libtest runs the tests on parallel threads, and the scalar gate flips
/// the process-wide `simd::force_scalar` while the others time or
/// compare. Each test holds this lock for its whole body.
static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`SIMD_LOCK`], surviving a poisoning by another test's failed
/// assertion.
fn serialise() -> MutexGuard<'static, ()> {
    SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn micro_cfg() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(4, 4, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 3.0;

#[test]
fn functional_sim_path_at_least_3x_cycle_engine() {
    let _serial = serialise();
    let spec = r2plus1d_micro(4);
    let mut net = build_network(&spec, 33);
    let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
    let mut rng = TensorRng::seed(77);
    let clip = rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0);
    let dense = PrunedModel::dense();
    let layers = q.compile(&dense);
    let mut scratch = SimScratch::new();

    // Bitwise identity in every profile: same logits, same prediction,
    // same statistics (cycles included — the functional path reproduces
    // the tile walk's accounting analytically).
    let cycle = q.forward_with_scratch(&clip, &dense, &mut scratch);
    let fast = layers.forward(&clip);
    assert_eq!(cycle.logits, fast.logits, "functional logits diverged");
    assert_eq!(cycle.prediction, fast.prediction);
    assert_eq!(cycle.stats, fast.stats, "functional stats diverged");
    assert_eq!(cycle.fc_cycles, fast.fc_cycles);

    #[cfg(not(debug_assertions))]
    {
        let t = p3d_bench::measure::paired(
            7,
            &mut scratch,
            |s| {
                std::hint::black_box(q.forward_with_scratch(&clip, &dense, s));
            },
            |_| {
                std::hint::black_box(layers.forward(&clip));
            },
        );
        let best = t.ratio.max;
        assert!(
            best >= MIN_SPEEDUP,
            "functional sim path only {best:.2}x the cycle engine \
             ({:.3} ms vs {:.3} ms per clip, kernel path {})",
            t.b.min * 1e3,
            t.a.min * 1e3,
            p3d_tensor::simd::active().name(),
        );
    }
}

/// Lite-wide pruned at the paper's ratios (eta 0.9 on `conv2_x`, 0.8 on
/// `conv3_x`, 8x4 blocks), quantised on an accelerator tiled to match
/// the blocks, and one clip.
fn pruned_lite_wide() -> (QuantizedNetwork, PrunedModel, Tensor) {
    let spec = r2plus1d_lite_wide(4);
    let mut net = build_network(&spec, 41);
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.9), ("conv3_x", 0.8)]);
    let pruned = magnitude_block_prune(&mut net, BlockShape::new(8, 4), &targets, KeepRule::Round);
    let cfg = AcceleratorConfig {
        tiling: Tiling::new(8, 4, 2, 8, 8),
        ..micro_cfg()
    };
    let q = QuantizedNetwork::from_network(&spec, &mut net, cfg);
    let (c, d, h, w) = spec.input;
    let clip = TensorRng::seed(78).uniform_tensor([c, d, h, w], 0.0, 1.0);
    (q, pruned, clip)
}

/// Whole-network identity on block-pruned lite-wide, in every profile:
/// the functional engine reproduces the cycle engine's logits,
/// prediction, `ConvStats` and FC cycles bit for bit — every lite-wide
/// stride, tap and skip pattern at once, where the micro check above is
/// dense.
#[test]
fn functional_equals_cycle_engine_on_pruned_lite_wide() {
    let _serial = serialise();
    let (q, pruned, clip) = pruned_lite_wide();
    let mut scratch = SimScratch::new();

    let cycle = q.forward_with_scratch(&clip, &pruned, &mut scratch);
    let fast = q.compile(&pruned).forward(&clip);
    assert!(cycle.stats.blocks_skipped > 0, "pruning skipped no block");
    assert_eq!(cycle.logits, fast.logits, "functional logits diverged");
    assert_eq!(cycle.prediction, fast.prediction);
    assert_eq!(cycle.stats, fast.stats, "functional stats diverged");
    assert_eq!(cycle.fc_cycles, fast.fc_cycles);
}

/// The compiled pruned lite-wide forward is bitwise the same under
/// forced scalar in every profile, and in release, on an AVX2 host, at
/// least 3x faster than it: the certified groups run the AVX2 body, not
/// the scalar fallback. Each rep times one forced-scalar forward, then
/// one forward on the detected level, and the gate takes the best
/// per-rep ratio.
#[test]
fn compiled_pruned_forward_at_least_3x_forced_scalar() {
    let _serial = serialise();
    let (q, pruned, clip) = pruned_lite_wide();
    let layers = q.compile(&pruned);
    let fast = layers.forward(&clip);
    simd::force_scalar(true);
    let scalar = layers.forward(&clip);
    simd::force_scalar(false);
    assert_eq!(fast.logits, scalar.logits, "AVX2 logits diverged");
    assert_eq!(fast.stats, scalar.stats, "AVX2 stats diverged");

    #[cfg(not(debug_assertions))]
    if simd::detected() == simd::SimdLevel::Avx2 {
        let t = p3d_bench::measure::paired(
            7,
            &mut (),
            |_| {
                simd::force_scalar(true);
                std::hint::black_box(layers.forward(&clip));
            },
            |_| {
                simd::force_scalar(false);
                std::hint::black_box(layers.forward(&clip));
            },
        );
        let best = t.ratio.max;
        assert!(
            best >= MIN_SPEEDUP,
            "compiled pruned forward only {best:.2}x forced scalar \
             ({:.3} ms vs {:.3} ms per clip)",
            t.b.min * 1e3,
            t.a.min * 1e3,
        );
    }
}
