//! **Sweep: block-shape granularity.** The block shape `(Tm, Tn)` is the
//! co-design pivot: larger blocks mean cheaper hardware bookkeeping but a
//! coarser pruning unit (fewer blocks to choose from, worse rounding of
//! the kept count, less selection freedom for the optimiser). This sweep
//! quantifies the granularity side: achievable sparsity precision and
//! block counts of the pruned stages across block shapes.

use p3d_bench::TableWriter;
use p3d_core::{BlockGrid, BlockShape, KeepRule};
use p3d_models::r2plus1d_18;

fn main() {
    let spec = r2plus1d_18(101);
    let insts: Vec<_> = spec
        .conv_instances()
        .unwrap()
        .into_iter()
        .filter(|i| i.spec.stage == "conv2_x" || i.spec.stage == "conv3_x")
        .collect();

    println!("Block-shape granularity over the pruned stages (target eta: 90%/80%)\n");
    let mut t = TableWriter::new(&[
        "(Tm, Tn)",
        "Blocks total",
        "Median blocks/layer",
        "Achieved sparsity",
        "Error vs target",
    ]);
    for (tm, tn) in [(16, 4), (32, 8), (64, 8), (64, 16), (128, 16), (128, 32)] {
        let shape = BlockShape::new(tm, tn);
        let mut total_blocks = 0usize;
        let mut per_layer = Vec::new();
        let mut kept_w = 0usize;
        let mut total_w = 0usize;
        let mut target_kept_w = 0.0f64;
        for inst in &insts {
            let eta = if inst.spec.stage == "conv2_x" {
                0.9
            } else {
                0.8
            };
            let grid = BlockGrid::new(
                inst.spec.out_channels,
                inst.spec.in_channels,
                inst.spec.kernel.0 * inst.spec.kernel.1 * inst.spec.kernel.2,
                shape,
            );
            let b = grid.num_blocks();
            total_blocks += b;
            per_layer.push(b);
            let kept = KeepRule::Round.kept(b, eta);
            // Kept parameters assuming full blocks survive first (upper
            // bound on kept weight; edge blocks refine this slightly).
            let keep: Vec<bool> = (0..b).map(|i| i < kept).collect();
            kept_w += grid.kept_params(&keep);
            total_w += grid.total_params();
            target_kept_w += (1.0 - eta) * grid.total_params() as f64;
        }
        per_layer.sort_unstable();
        let median = per_layer[per_layer.len() / 2];
        let achieved = 1.0 - kept_w as f64 / total_w as f64;
        let target = 1.0 - target_kept_w / total_w as f64;
        t.row(&[
            format!("({tm},{tn})"),
            total_blocks.to_string(),
            median.to_string(),
            format!("{:.1}%", achieved * 100.0),
            format!("{:+.1} pt", (achieved - target) * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("Reading: at (128,32) some layers collapse to a handful of blocks and");
    println!("the rounding of the kept count distorts the target sparsity by");
    println!("several points; the paper's (64,8)/(64,16) keep per-layer block");
    println!("counts high enough that the achieved ratios track the targets.");
}
