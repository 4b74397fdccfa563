//! Figure 1, live: a weight tensor divided into `Tm x Tn` blocks of 3D
//! kernels and pruned blockwise by the Euclidean projection.
//!
//! Renders the block grid of a real layer shape before and after the
//! projection (each cell is one block; `#` = kept, `.` = pruned), plus
//! the induced block-enable bitmap the FPGA consumes.
//!
//! ```text
//! cargo run --example blockwise_pruning
//! ```

use p3d::pruning::{project, BlockGrid, BlockShape, KeepRule, LayerBlockMask};
use p3d::tensor::TensorRng;

fn render(grid: &BlockGrid, keep: &[bool]) -> String {
    let mut out = String::new();
    for bi in 0..grid.rows() {
        out.push_str("    ");
        for bj in 0..grid.cols() {
            out.push(if keep[grid.block_index(bi, bj)] {
                '#'
            } else {
                '.'
            });
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

fn main() {
    // The first spatial conv of conv2_x: weights [144, 64, 1, 3, 3],
    // blocks of (Tm, Tn) = (64, 8) -> a 3 x 8 block grid (Section III-A).
    let mut rng = TensorRng::seed(2020);
    let w = rng.normal_tensor([144, 64, 1, 3, 3], 0.05);
    let grid = BlockGrid::for_weight(&w, BlockShape::new(64, 8));

    println!(
        "weight tensor [M=144, N=64, 1x3x3] as a {}x{} grid of (64x8)-kernel blocks",
        grid.rows(),
        grid.cols()
    );
    println!(
        "({} blocks; edge row covers output channels 128..144)\n",
        grid.num_blocks()
    );

    let dense = vec![true; grid.num_blocks()];
    println!("before pruning (every block enabled):");
    println!("{}", render(&grid, &dense));

    for eta in [0.5, 0.9] {
        let (projected, result) = project(&w, &grid, eta, KeepRule::Round);
        println!(
            "after projection onto S_i with eta = {:.0}% (threshold zeta^2 = {:.4}):",
            eta * 100.0,
            result.threshold_sq
        );
        println!("{}", render(&grid, &result.keep));
        println!(
            "    {} of {} blocks survive; {} of {} weights are now exactly zero",
            result.kept_blocks,
            grid.num_blocks(),
            projected.count_zeros(),
            projected.len()
        );
        let mask = LayerBlockMask::new(grid, result.keep.clone());
        let bitmap = mask.to_bitmap();
        let bytes: Vec<String> = bitmap.iter().map(|b| format!("{b:08b}")).collect();
        println!(
            "    block-enable bitmap for the FPGA: {}\n",
            bytes.join(" ")
        );
    }

    println!("Every '.' above removes one full load-and-compute iteration of the");
    println!("accelerator's L3 loop — that is the paper's entire co-design story.");
}
