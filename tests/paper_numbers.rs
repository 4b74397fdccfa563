//! Integration tests pinning the reproduction to the paper's published
//! numbers (the "shape" checks of EXPERIMENTS.md, enforced in CI).

use p3d::fpga::{estimate_resources, network_latency, AcceleratorConfig, Board, DoubleBuffering};
use p3d::models::{c3d, r2plus1d_18, summarize};
use p3d::pruning::{BlockGrid, KeepRule, LayerBlockMask, PrunedModel, PruningReport};

/// The analytic pruned model used by the hardware tables (kept blocks
/// uniform across rows; see `p3d-bench`'s `masks` module — re-derived
/// here so the integration test does not depend on the bench crate).
fn paper_pruned(tiling: &p3d::fpga::Tiling) -> PrunedModel {
    let spec = r2plus1d_18(101);
    let mut pm = PrunedModel {
        block_shape: Some(tiling.block_shape()),
        layers: Default::default(),
    };
    for inst in spec.conv_instances().unwrap() {
        let eta = match inst.spec.stage.as_str() {
            "conv2_x" => 0.9,
            "conv3_x" => 0.8,
            _ => continue,
        };
        let grid = BlockGrid::new(
            inst.spec.out_channels,
            inst.spec.in_channels,
            inst.spec.kernel.0 * inst.spec.kernel.1 * inst.spec.kernel.2,
            tiling.block_shape(),
        );
        let kept = KeepRule::Round.kept(grid.num_blocks(), eta);
        let (rows, cols) = (grid.rows(), grid.cols());
        let mut keep = vec![false; grid.num_blocks()];
        let (base, extra) = (kept / rows, kept % rows);
        for bi in 0..rows {
            for bj in 0..(base + usize::from(bi < extra)).min(cols) {
                keep[grid.block_index(bi, bj)] = true;
            }
        }
        pm.insert(inst.spec.name.clone(), LayerBlockMask::new(grid, keep));
    }
    pm
}

#[test]
fn table1_parameter_budget() {
    // Paper: R(2+1)D has 33.22 M parameters and 83.05 G ops per clip.
    let s = summarize(&r2plus1d_18(101)).unwrap();
    assert!((s.total_params as f64 / 1e6 - 33.14).abs() < 0.05);
    assert!((s.total_ops as f64 / 1e9 - 83.05).abs() < 0.2);
}

#[test]
fn table2_pruning_rates() {
    let spec = r2plus1d_18(101);
    let tiling = p3d::fpga::Tiling::paper_tn8();
    let report = PruningReport::build(&spec, &paper_pruned(&tiling)).unwrap();
    // Paper: conv2_x 9.85x, conv3_x 4.85x, total ops 3.18x, params 1.05x.
    let conv2 = report.stages.iter().find(|r| r.stage == "conv2_x").unwrap();
    let conv3 = report.stages.iter().find(|r| r.stage == "conv3_x").unwrap();
    assert!(
        (conv2.param_rate() - 9.85).abs() < 1.5,
        "{}",
        conv2.param_rate()
    );
    assert!(
        (conv3.param_rate() - 4.85).abs() < 0.8,
        "{}",
        conv3.param_rate()
    );
    assert!((report.total_ops_rate() - 3.18).abs() < 0.25);
    assert!((report.total_param_rate() - 1.05).abs() < 0.02);
}

#[test]
fn table3_resources() {
    let spec = r2plus1d_18(101);
    let insts = spec.conv_instances().unwrap();
    let board = Board::zcu102();
    // Paper: 695 DSP / 710.5 BRAM / 74K LUT / 51K FF at (64,8);
    //        1215 / 912 / 148K / 76K at (64,16).
    let e8 = estimate_resources(&insts, &AcceleratorConfig::paper_tn8());
    assert!((e8.dsps as f64 - 695.0).abs() < 15.0);
    assert!((e8.bram36_partitioned - 710.5).abs() < 120.0);
    assert!((e8.luts as f64 - 74_000.0).abs() < 4_000.0);
    assert!((e8.ffs as f64 - 51_000.0).abs() < 3_000.0);
    let e16 = estimate_resources(&insts, &AcceleratorConfig::paper_tn16());
    assert!((e16.dsps as f64 - 1215.0).abs() < 15.0);
    assert!(e16.bram36_partitioned >= board.bram36 as f64 * 0.95);
}

#[test]
fn table4_latency_shape() {
    // The decisive "shape" checks: who wins and by roughly what factor.
    let r2 = r2plus1d_18(101);
    let c3 = c3d(101);
    let cfg8 = AcceleratorConfig::paper_tn8();
    let cfg16 = AcceleratorConfig::paper_tn16();

    let c3d_8 = network_latency(&c3, &cfg8, &PrunedModel::dense(), DoubleBuffering::On).ms(&cfg8);
    let c3d_16 =
        network_latency(&c3, &cfg16, &PrunedModel::dense(), DoubleBuffering::On).ms(&cfg16);
    let r_dense_8 =
        network_latency(&r2, &cfg8, &PrunedModel::dense(), DoubleBuffering::On).ms(&cfg8);
    let r_pruned_8 =
        network_latency(&r2, &cfg8, &paper_pruned(&cfg8.tiling), DoubleBuffering::On).ms(&cfg8);
    let r_pruned_16 = network_latency(
        &r2,
        &cfg16,
        &paper_pruned(&cfg16.tiling),
        DoubleBuffering::On,
    )
    .ms(&cfg16);

    // Absolute latencies within ~25% of the paper's measurements.
    assert!((c3d_8 - 826.0).abs() / 826.0 < 0.25, "C3D Tn8 {c3d_8}");
    assert!((c3d_16 - 487.0).abs() / 487.0 < 0.25, "C3D Tn16 {c3d_16}");
    assert!(
        (r_dense_8 - 1044.0).abs() / 1044.0 < 0.35,
        "R dense {r_dense_8}"
    );
    assert!(
        (r_pruned_8 - 386.0).abs() / 386.0 < 0.35,
        "R pruned {r_pruned_8}"
    );
    assert!(
        (r_pruned_16 - 234.0).abs() / 234.0 < 0.35,
        "R pruned16 {r_pruned_16}"
    );

    // Headline claim 1: pruning buys ~2.6x end-to-end.
    let speedup = r_dense_8 / r_pruned_8;
    assert!((2.2..3.0).contains(&speedup), "pruned speedup {speedup}");

    // Headline claim 2: pruned R(2+1)D (Tn=16) beats F-C3D [13] by ~2.3x.
    let vs_fc3d = 542.5 / r_pruned_16;
    assert!((1.9..2.7).contains(&vs_fc3d), "vs [13]: {vs_fc3d}");

    // Ordering: Tn=16 beats Tn=8 on both networks.
    assert!(c3d_16 < c3d_8);
    assert!(r_pruned_16 < r_pruned_8);
}
