//! Analytic pruned-model construction for the hardware tables.
//!
//! Tables II and IV are *analytic* in the paper: they follow from the
//! pruning ratios and the latency equations, not from which particular
//! blocks the training run happened to keep. This module builds
//! block-enable maps with the target per-layer sparsity and kept blocks
//! spread uniformly across block rows — the average case for latency,
//! since Eq. 24's trip count is the per-row enabled count.

use p3d_core::{BlockGrid, KeepRule, LayerBlockMask, PrunedModel};
use p3d_fpga::Tiling;
use p3d_models::NetworkSpec;

/// A mask for `grid` with pruning ratio `eta` whose kept blocks are
/// distributed as evenly as possible across block rows.
pub fn uniform_mask(grid: BlockGrid, eta: f64, rule: KeepRule) -> LayerBlockMask {
    let total = grid.num_blocks();
    let kept = rule.kept(total, eta);
    let rows = grid.rows();
    let cols = grid.cols();
    let mut keep = vec![false; total];
    // Round-robin assignment: row i gets ceil/floor(kept/rows).
    let base = kept / rows;
    let extra = kept % rows;
    for bi in 0..rows {
        let in_row = (base + usize::from(bi < extra)).min(cols);
        for bj in 0..in_row {
            keep[grid.block_index(bi, bj)] = true;
        }
    }
    LayerBlockMask::new(grid, keep)
}

/// The paper's pruned model for a network spec: `eta = 0.9` on
/// `conv2_x`, `eta = 0.8` on `conv3_x` (Section V), with blocks of the
/// given tiling.
pub fn paper_pruned_model(spec: &NetworkSpec, tiling: &Tiling, rule: KeepRule) -> PrunedModel {
    let mut pm = PrunedModel {
        block_shape: Some(tiling.block_shape()),
        layers: Default::default(),
    };
    for inst in spec.conv_instances().expect("spec must shape-check") {
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
        pm.insert(inst.spec.name.clone(), uniform_mask(grid, eta, rule));
    }
    pm
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_core::BlockShape;
    use p3d_models::r2plus1d::r2plus1d_18;

    #[test]
    fn uniform_mask_has_exact_kept_count() {
        let grid = BlockGrid::new(144, 64, 9, BlockShape::new(64, 8));
        let m = uniform_mask(grid, 0.9, KeepRule::Round);
        assert_eq!(m.enabled_blocks(), KeepRule::Round.kept(24, 0.9));
        // Rows differ by at most one enabled block.
        let counts: Vec<usize> = (0..grid.rows()).map(|bi| m.enabled_in_row(bi)).collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "{counts:?}");
    }

    #[test]
    fn paper_model_prunes_only_stages_2_and_3() {
        let spec = r2plus1d_18(101);
        let pm = paper_pruned_model(&spec, &Tiling::paper_tn8(), KeepRule::Round);
        assert!(pm
            .layers
            .keys()
            .all(|k| k.starts_with("conv2_") || k.starts_with("conv3_")));
        assert!(!pm.layers.is_empty());
        // 8 primary + shortcut convs per stage: 8 + 8 + 1 = 17 layers.
        assert_eq!(pm.layers.len(), 17);
    }

    #[test]
    fn paper_model_kept_fraction_near_targets() {
        let spec = r2plus1d_18(101);
        let pm = paper_pruned_model(&spec, &Tiling::paper_tn8(), KeepRule::Round);
        // conv2 at 10% kept and conv3 at 20% kept -> overall well under 30%.
        assert!(pm.kept_fraction() < 0.30, "{}", pm.kept_fraction());
    }
}
