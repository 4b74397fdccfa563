//! Euclidean projection onto the blockwise sparsity set (Eq. 13).
//!
//! The projection of a tensor onto `S_i` (at most `E_i` non-zero blocks,
//! Eq. 1) keeps the `E_i` blocks with the largest L2 norm and zeroes the
//! rest — exactly the paper's Z-minimisation step: sort block norms,
//! take the percentile threshold `zeta_i`, zero everything below it.

use crate::blocks::BlockGrid;
use p3d_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// How the kept-block count `E_i` is derived from `(1 - eta) * B`.
///
/// Equation (1) is an inequality (`E_i <= (1-eta) * B`), which leaves the
/// rounding open; the choice affects the achieved pruning rate on layers
/// whose block count is small. [`KeepRule::Round`] is the default and
/// lands closest to the paper's reported 9.85x / 4.85x stage rates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeepRule {
    /// `E = floor((1-eta) * B)` — strictly satisfies Eq. 1.
    Floor,
    /// `E = round((1-eta) * B)` — closest to the paper's reported rates.
    #[default]
    Round,
    /// `E = ceil((1-eta) * B)` — most conservative.
    Ceil,
}

impl KeepRule {
    /// The number of blocks kept for `total` blocks at pruning ratio
    /// `eta`. Always at least 1 (a layer is never pruned away entirely)
    /// and at most `total`.
    pub fn kept(&self, total: usize, eta: f64) -> usize {
        assert!((0.0..=1.0).contains(&eta), "eta must be in [0, 1]");
        let raw = (1.0 - eta) * total as f64;
        let k = match self {
            KeepRule::Floor => raw.floor(),
            KeepRule::Round => raw.round(),
            KeepRule::Ceil => raw.ceil(),
        } as usize;
        k.clamp(1, total)
    }
}

/// The outcome of a projection: which blocks survived.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProjectionResult {
    /// Keep flags in flat block order (`true` = block survives).
    pub keep: Vec<bool>,
    /// The threshold `zeta` on squared block norms (norms `<` zeta are
    /// pruned). Zero when nothing is pruned.
    pub threshold_sq: f64,
    /// Number of kept blocks `E_i`.
    pub kept_blocks: usize,
}

/// Selects the blocks to keep: the `kept` largest by squared norm.
/// Deterministic under ties (lower block index wins).
pub fn select_blocks(norms_sq: &[f64], kept: usize) -> ProjectionResult {
    assert!(kept >= 1 && kept <= norms_sq.len(), "kept out of range");
    let mut order: Vec<usize> = (0..norms_sq.len()).collect();
    // Descending by norm, ascending by index on ties.
    order.sort_by(|&a, &b| {
        norms_sq[b]
            .partial_cmp(&norms_sq[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut keep = vec![false; norms_sq.len()];
    for &idx in order.iter().take(kept) {
        keep[idx] = true;
    }
    let threshold_sq = if kept == norms_sq.len() {
        0.0
    } else {
        norms_sq[order[kept - 1]]
    };
    ProjectionResult {
        keep,
        threshold_sq,
        kept_blocks: kept,
    }
}

/// Projects `tensor` onto the sparsity set in place, returning the
/// surviving blocks. This is Eq. 13 applied to `W + V`.
pub fn project_inplace(
    tensor: &mut Tensor,
    grid: &BlockGrid,
    eta: f64,
    rule: KeepRule,
) -> ProjectionResult {
    let norms = grid.block_norms_sq(tensor);
    let kept = rule.kept(grid.num_blocks(), eta);
    let result = select_blocks(&norms, kept);
    for (idx, &keep) in result.keep.iter().enumerate() {
        if !keep {
            let (bi, bj) = grid.block_coords(idx);
            grid.zero_block(tensor, bi, bj);
        }
    }
    result
}

/// Non-destructive variant of [`project_inplace`].
pub fn project(
    tensor: &Tensor,
    grid: &BlockGrid,
    eta: f64,
    rule: KeepRule,
) -> (Tensor, ProjectionResult) {
    let mut out = tensor.clone();
    let result = project_inplace(&mut out, grid, eta, rule);
    (out, result)
}

/// Verifies membership in the sparsity set `S_i` (Eq. 1): the number of
/// non-zero blocks is at most `max_blocks`.
pub fn satisfies_sparsity(tensor: &Tensor, grid: &BlockGrid, max_blocks: usize) -> bool {
    let norms = grid.block_norms_sq(tensor);
    norms.iter().filter(|&&n| n > 0.0).count() <= max_blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockShape;
    use p3d_tensor::TensorRng;

    #[test]
    fn keep_rules() {
        assert_eq!(KeepRule::Floor.kept(24, 0.9), 2);
        assert_eq!(KeepRule::Round.kept(24, 0.9), 2);
        assert_eq!(KeepRule::Ceil.kept(24, 0.9), 3);
        assert_eq!(KeepRule::Round.kept(18, 0.9), 2);
        // Never zero.
        assert_eq!(KeepRule::Floor.kept(2, 0.9), 1);
        // Never more than total.
        assert_eq!(KeepRule::Ceil.kept(4, 0.0), 4);
    }

    #[test]
    fn select_keeps_largest() {
        let norms = vec![1.0, 9.0, 4.0, 16.0];
        let r = select_blocks(&norms, 2);
        assert_eq!(r.keep, vec![false, true, false, true]);
        assert_eq!(r.threshold_sq, 9.0);
        assert_eq!(r.kept_blocks, 2);
    }

    #[test]
    fn select_ties_deterministic() {
        let norms = vec![5.0, 5.0, 5.0, 5.0];
        let r = select_blocks(&norms, 2);
        assert_eq!(r.keep, vec![true, true, false, false]);
    }

    #[test]
    fn projection_achieves_sparsity() {
        let mut rng = TensorRng::seed(3);
        let mut w = rng.uniform_tensor([8, 8, 1, 3, 3], -1.0, 1.0);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(4, 2));
        let r = project_inplace(&mut w, &grid, 0.75, KeepRule::Floor);
        assert_eq!(r.kept_blocks, 2); // floor(0.25 * 8) = 2
        assert!(satisfies_sparsity(&w, &grid, 2));
        // Pruned weights are exactly zero; kept blocks untouched.
        let zeros = w.count_zeros();
        assert_eq!(zeros, grid.total_params() - grid.kept_params(&r.keep));
    }

    #[test]
    fn projection_is_idempotent() {
        let mut rng = TensorRng::seed(4);
        let w = rng.uniform_tensor([4, 4, 1, 2, 2], -1.0, 1.0);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(2, 2));
        let (once, r1) = project(&w, &grid, 0.5, KeepRule::Round);
        let (twice, r2) = project(&once, &grid, 0.5, KeepRule::Round);
        assert_eq!(once, twice);
        assert_eq!(r1.keep, r2.keep);
    }

    #[test]
    fn projection_minimises_distance() {
        // Among all subsets of the right size, the projection must keep
        // the largest-norm blocks, i.e. minimise ||W - Z||_F.
        let w = Tensor::from_vec([2, 2, 1, 1, 1], vec![0.1, 2.0, -3.0, 0.5]);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(1, 1));
        let (z, r) = project(&w, &grid, 0.5, KeepRule::Round);
        // Keeps |2.0| and |-3.0| blocks.
        assert_eq!(r.keep, vec![false, true, true, false]);
        let dist = (&w - &z).frobenius_norm_sq();
        assert!((dist - (0.1f32 * 0.1 + 0.5 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn eta_zero_keeps_everything() {
        let mut rng = TensorRng::seed(5);
        let w = rng.uniform_tensor([4, 4, 1, 1, 1], -1.0, 1.0);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(2, 2));
        let (z, r) = project(&w, &grid, 0.0, KeepRule::Round);
        assert_eq!(z, w);
        assert!(r.keep.iter().all(|&k| k));
        assert_eq!(r.threshold_sq, 0.0);
    }
}
