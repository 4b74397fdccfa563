//! **Ablation: pruning granularity.** The paper's central design claim is
//! that only *tiling-aligned blockwise* sparsity converts into FPGA
//! speedup: unstructured sparsity leaves every block partially occupied
//! (nothing can be skipped), and channel pruning skips tiles only when
//! entire `Tm`-channel block rows die.
//!
//! This binary prunes R(2+1)D's conv2_x/conv3_x stages to the *same
//! weight sparsity* under the three granularities and reports the
//! modelled accelerator latency of each.

use p3d_bench::{uniform_mask, TableWriter};
use p3d_core::{block_enable_from_mask, BlockGrid, KeepRule, LayerBlockMask, PrunedModel};
use p3d_fpga::{network_latency, AcceleratorConfig, DoubleBuffering};
use p3d_models::r2plus1d_18;
use p3d_tensor::{Tensor, TensorRng};

fn stage_eta(stage: &str) -> Option<f64> {
    match stage {
        "conv2_x" => Some(0.9),
        "conv3_x" => Some(0.8),
        _ => None,
    }
}

/// Unstructured pruning of a synthetic weight tensor at element sparsity
/// `eta`, reported as the block-enable map it induces.
fn unstructured(grid: BlockGrid, eta: f64, rng: &mut TensorRng) -> LayerBlockMask {
    let n = grid.total_params();
    let w = rng.uniform_tensor([grid.m, grid.n, grid.kernel_volume, 1, 1], -1.0, 1.0);
    let mut order: Vec<usize> = (0..n).collect();
    let vals: Vec<f32> = w.data().to_vec();
    order.sort_by(|&a, &b| vals[a].abs().total_cmp(&vals[b].abs()));
    let mut mask = Tensor::ones(w.shape());
    for &i in order.iter().take((eta * n as f64) as usize) {
        mask.data_mut()[i] = 0.0;
    }
    block_enable_from_mask(&mask, &grid)
}

/// Channel pruning at channel sparsity `eta`: whole output channels die;
/// a block row disables only when all its channels die.
fn channel(grid: BlockGrid, eta: f64) -> LayerBlockMask {
    let dead_channels = (eta * grid.m as f64).round() as usize;
    let mut keep = vec![true; grid.num_blocks()];
    for bi in 0..grid.rows() {
        let (m0, m1) = grid.row_range(bi);
        // Channels are pruned from the top index down (which channels die
        // does not matter for latency, only how many rows empty out).
        let row_dead = m0 >= grid.m - dead_channels;
        if row_dead {
            for bj in 0..grid.cols() {
                keep[grid.block_index(bi, bj)] = false;
            }
        }
        let _ = m1;
    }
    LayerBlockMask::new(grid, keep)
}

fn main() {
    let spec = r2plus1d_18(101);
    let cfg = AcceleratorConfig::paper_tn8();
    let shape = cfg.tiling.block_shape();
    let mut rng = TensorRng::seed(99);

    let mut blockwise = PrunedModel {
        block_shape: Some(shape),
        layers: Default::default(),
    };
    let mut unstruct = blockwise.clone();
    let mut chan = blockwise.clone();

    for inst in spec.conv_instances().unwrap() {
        let Some(eta) = stage_eta(&inst.spec.stage) else {
            continue;
        };
        let grid = BlockGrid::new(
            inst.spec.out_channels,
            inst.spec.in_channels,
            inst.spec.kernel.0 * inst.spec.kernel.1 * inst.spec.kernel.2,
            shape,
        );
        blockwise.insert(
            inst.spec.name.clone(),
            uniform_mask(grid, eta, KeepRule::Round),
        );
        unstruct.insert(inst.spec.name.clone(), unstructured(grid, eta, &mut rng));
        chan.insert(inst.spec.name.clone(), channel(grid, eta));
    }

    let dense_lat = network_latency(&spec, &cfg, &PrunedModel::dense(), DoubleBuffering::On);
    let dense_ms = dense_lat.ms(&cfg);

    println!("Ablation: pruning granularity vs accelerator latency");
    println!("(equal target sparsity: 90% on conv2_x, 80% on conv3_x; (Tm,Tn)=(64,8))\n");
    let mut t = TableWriter::new(&[
        "Scheme",
        "Blocks skippable",
        "Latency (ms)",
        "Speedup vs dense",
    ]);
    t.row(&[
        "unpruned".into(),
        "0%".into(),
        format!("{dense_ms:.0}"),
        "1.00x".into(),
    ]);
    for (name, pm) in [
        ("blockwise (ours)", &blockwise),
        ("unstructured", &unstruct),
        ("channel", &chan),
    ] {
        let lat = network_latency(&spec, &cfg, pm, DoubleBuffering::On);
        let ms = lat.ms(&cfg);
        let skippable = 1.0
            - pm.layers
                .values()
                .map(|m| m.enabled_blocks())
                .sum::<usize>() as f64
                / pm.layers
                    .values()
                    .map(|m| m.grid.num_blocks())
                    .sum::<usize>() as f64;
        t.row(&[
            name.into(),
            format!("{:.0}%", skippable * 100.0),
            format!("{ms:.0}"),
            format!("{:.2}x", dense_ms / ms),
        ]);
    }
    println!("{}", t.render());
    println!("Reading: unstructured sparsity leaves ~0% of blocks skippable, so it");
    println!("buys no latency; channel pruning only converts when whole Tm-channel");
    println!("rows die; tiling-aligned blockwise pruning converts ~1:1.");
}
