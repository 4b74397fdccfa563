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
//! Debug builds skip the timing (`gemm_perf` precedent) but still pin
//! the bitwise identity of the two engines end to end — logits,
//! prediction and the full `ConvStats` — on dense micro and on
//! block-pruned lite-wide, which is the contract that makes routing
//! serving to the fast path safe at all.

use p3d_core::{magnitude_block_prune, targets_for_stages, BlockShape, KeepRule, PrunedModel};
use p3d_fpga::config::{AcceleratorConfig, Ports, Tiling};
use p3d_fpga::sim::{QuantizedNetwork, SimScratch};
use p3d_models::{build_network, r2plus1d_lite_wide, r2plus1d_micro};
use p3d_tensor::TensorRng;

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

/// Whole-network identity on block-pruned lite-wide, in every profile:
/// pruned at the paper's ratios (eta 0.9 on `conv2_x`, 0.8 on
/// `conv3_x`, 8x4 blocks) and tiled to match the blocks, the functional
/// engine reproduces the cycle engine's logits, prediction, `ConvStats`
/// and FC cycles bit for bit — every lite-wide stride, tap and skip
/// pattern at once, where the micro check above is dense.
#[test]
fn functional_equals_cycle_engine_on_pruned_lite_wide() {
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
    let mut scratch = SimScratch::new();

    let cycle = q.forward_with_scratch(&clip, &pruned, &mut scratch);
    let fast = q.compile(&pruned).forward(&clip);
    assert!(cycle.stats.blocks_skipped > 0, "pruning skipped no block");
    assert_eq!(cycle.logits, fast.logits, "functional logits diverged");
    assert_eq!(cycle.prediction, fast.prediction);
    assert_eq!(cycle.stats, fast.stats, "functional stats diverged");
    assert_eq!(cycle.fc_cycles, fast.fc_cycles);
}
