//! Property-based tests for the FPGA models: latency monotonicity,
//! resource monotonicity, and simulator/model agreement on random
//! configurations.

use p3d_core::{BlockGrid, BlockShape, LayerBlockMask};
use p3d_fpga::{
    conv_latency, conv_traffic, estimate_resources, run_conv, AcceleratorConfig, DoubleBuffering,
    Ports, Tiling,
};
use p3d_models::{Conv3dSpec, ConvInstance};
use p3d_tensor::{FixedTensor, TensorRng};
use proptest::prelude::*;

fn small_instance() -> impl Strategy<Value = ConvInstance> {
    (
        1usize..12, // M
        1usize..12, // N
        prop::sample::select(vec![
            (1usize, 3usize, 3usize),
            (3, 1, 1),
            (3, 3, 3),
            (1, 1, 1),
        ]),
        1usize..3,  // stride (same all axes)
        2usize..7,  // D
        4usize..12, // H (=W)
    )
        .prop_map(|(m, n, kernel, stride, d, hw)| {
            let pad = (kernel.0 / 2, kernel.1 / 2, kernel.2 / 2);
            let spec = Conv3dSpec {
                name: "p".into(),
                stage: "s".into(),
                out_channels: m,
                in_channels: n,
                kernel,
                stride: (stride, stride, stride),
                pad,
                bias: false,
            };
            let out = |i: usize, k: usize, p: usize| (i + 2 * p - k) / stride + 1;
            ConvInstance {
                input: (n, d, hw, hw),
                output: (
                    m,
                    out(d, kernel.0, pad.0),
                    out(hw, kernel.1, pad.1),
                    out(hw, kernel.2, pad.2),
                ),
                spec,
            }
        })
}

fn small_config() -> impl Strategy<Value = AcceleratorConfig> {
    (1usize..6, 1usize..6, 1usize..4, 2usize..8, 1usize..5).prop_map(|(tm, tn, td, tr, ports)| {
        AcceleratorConfig {
            tiling: Tiling::new(tm, tn, td, tr, tr),
            ports: Ports::new(ports, ports, ports),
            freq_mhz: 150.0,
            data_bits: 16,
        }
    })
}

fn random_mask(inst: &ConvInstance, t: &Tiling, seed: u64) -> LayerBlockMask {
    let grid = BlockGrid::new(
        inst.output.0,
        inst.input.0,
        inst.spec.kernel.0 * inst.spec.kernel.1 * inst.spec.kernel.2,
        BlockShape::new(t.tm, t.tn),
    );
    let mut rng = TensorRng::seed(seed);
    let keep: Vec<bool> = (0..grid.num_blocks()).map(|_| rng.below(2) == 1).collect();
    LayerBlockMask::new(grid, keep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruning_never_increases_latency(inst in small_instance(), cfg in small_config(), seed in 0u64..100) {
        let mask = random_mask(&inst, &cfg.tiling, seed);
        let dense = conv_latency(&inst, &cfg, None, DoubleBuffering::On);
        let pruned = conv_latency(&inst, &cfg, Some(&mask), DoubleBuffering::On);
        prop_assert!(pruned.cycles <= dense.cycles);
        prop_assert!(pruned.blocks_skipped <= pruned.blocks_total);
    }

    #[test]
    fn double_buffering_helps_up_to_drain_approximation(inst in small_instance(), cfg in small_config()) {
        // Eq. 24 charges a full pipeline-drain `t_comp` per block row; for
        // rows with a single enabled block this overcharges by up to
        // (t_L3 - t_load) relative to a serial schedule. The paper's
        // published equation is kept verbatim, so the property is bounded
        // by that drain term rather than strict.
        let on = conv_latency(&inst, &cfg, None, DoubleBuffering::On);
        let off = conv_latency(&inst, &cfg, None, DoubleBuffering::Off);
        let rows = inst.output.0.div_ceil(cfg.tiling.tm) as u64;
        let t_comp = on.terms.2;
        let slack = t_comp * rows * on.spatial_tiles + on.terms.3;
        prop_assert!(
            on.cycles <= off.cycles + slack,
            "on {} > off {} + slack {}",
            on.cycles,
            off.cycles,
            slack
        );
        // And when transfers dominate compute, overlapping wins strictly
        // (this is the regime double buffering exists for).
        let (t_wgt, t_in, t_comp2, _) = on.terms;
        if t_wgt + t_in > 2 * t_comp2 {
            prop_assert!(on.cycles <= off.cycles);
        }
    }

    #[test]
    fn wider_ports_never_hurt(inst in small_instance(), cfg in small_config()) {
        let mut wide = cfg.clone();
        wide.ports = Ports::new(cfg.ports.wgt * 2, cfg.ports.input * 2, cfg.ports.output * 2);
        let base = conv_latency(&inst, &cfg, None, DoubleBuffering::On);
        let fast = conv_latency(&inst, &wide, None, DoubleBuffering::On);
        prop_assert!(fast.cycles <= base.cycles);
    }

    #[test]
    fn simulator_cycles_equal_model(inst in small_instance(), cfg in small_config(), seed in 0u64..100) {
        let mask = random_mask(&inst, &cfg.tiling, seed);
        let mut rng = TensorRng::seed(seed + 1);
        let (m, n) = (inst.output.0, inst.input.0);
        let (kd, kr, kc) = inst.spec.kernel;
        let w = FixedTensor::quantize(&rng.uniform_tensor([m, n, kd, kr, kc], -0.2, 0.2));
        let x = FixedTensor::quantize(&rng.uniform_tensor(
            [n, inst.input.1, inst.input.2, inst.input.3],
            0.0,
            1.0,
        ));
        let (_, stats) = run_conv(&inst, &w, &x, Some(&mask), &cfg);
        let model = conv_latency(&inst, &cfg, Some(&mask), DoubleBuffering::On);
        prop_assert_eq!(stats.cycles, model.cycles);
        prop_assert_eq!(stats.blocks_skipped, model.blocks_skipped);
        // The traffic model walks the same schedule the engine executes.
        let traffic = conv_traffic(&inst, &cfg, Some(&mask));
        prop_assert_eq!(stats.macs, traffic.macs);
        prop_assert_eq!(stats.weight_words, traffic.traffic.weight_words);
        prop_assert_eq!(stats.input_words, traffic.traffic.input_words);
        prop_assert_eq!(stats.output_words, traffic.traffic.output_words);
        prop_assert_eq!(stats.cycles, traffic.cycles);
    }

    #[test]
    fn skipping_zero_blocks_is_lossless(inst in small_instance(), cfg in small_config(), seed in 0u64..100) {
        let mask = random_mask(&inst, &cfg.tiling, seed);
        let mut rng = TensorRng::seed(seed + 2);
        let (m, n) = (inst.output.0, inst.input.0);
        let (kd, kr, kc) = inst.spec.kernel;
        let mut w = rng.uniform_tensor([m, n, kd, kr, kc], -0.2, 0.2);
        // Zero the weights of every disabled block so skipping is exact.
        for bi in 0..mask.grid.rows() {
            for bj in 0..mask.grid.cols() {
                if !mask.is_enabled(bi, bj) {
                    mask.grid.zero_block(&mut w, bi, bj);
                }
            }
        }
        let qw = FixedTensor::quantize(&w);
        let x = FixedTensor::quantize(&rng.uniform_tensor(
            [n, inst.input.1, inst.input.2, inst.input.3],
            0.0,
            1.0,
        ));
        let (dense_out, _) = run_conv(&inst, &qw, &x, None, &cfg);
        let (masked_out, _) = run_conv(&inst, &qw, &x, Some(&mask), &cfg);
        prop_assert_eq!(dense_out, masked_out);
    }

    #[test]
    fn resources_monotone_in_tiling(cfg in small_config()) {
        let spec = p3d_models::r2plus1d::r2plus1d_18(101);
        let insts = spec.conv_instances().unwrap();
        let base = estimate_resources(&insts, &cfg);
        let mut bigger = cfg.clone();
        bigger.tiling = Tiling::new(
            cfg.tiling.tm * 2,
            cfg.tiling.tn,
            cfg.tiling.td,
            cfg.tiling.tr,
            cfg.tiling.tc,
        );
        let grown = estimate_resources(&insts, &bigger);
        prop_assert!(grown.dsps > base.dsps);
        prop_assert!(grown.bram36_partitioned >= base.bram36_partitioned);
        prop_assert!(grown.buffers.total() >= base.buffers.total());
    }
}
