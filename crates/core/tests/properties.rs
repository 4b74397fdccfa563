//! Property-based tests for the blockwise pruning machinery.

use p3d_core::{project, select_blocks, BlockGrid, BlockShape, KeepRule, LayerBlockMask};
use p3d_tensor::TensorRng;
use proptest::prelude::*;

fn grid_strategy() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    // (M, N, kernel_volume, Tm, Tn)
    (1usize..24, 1usize..24, 1usize..12, 1usize..9, 1usize..9)
}

proptest! {
    #[test]
    fn blocks_partition_the_tensor((m, n, kv, tm, tn) in grid_strategy()) {
        let grid = BlockGrid::new(m, n, kv, BlockShape::new(tm, tn));
        // Sum of block lengths equals total parameters.
        let mut sum = 0usize;
        for bi in 0..grid.rows() {
            for bj in 0..grid.cols() {
                sum += grid.block_len(bi, bj);
            }
        }
        prop_assert_eq!(sum, grid.total_params());
        prop_assert_eq!(grid.num_blocks(), grid.rows() * grid.cols());
    }

    #[test]
    fn block_norms_account_for_all_mass(
        (m, n, kv, tm, tn) in grid_strategy(),
        seed in 0u64..1000,
    ) {
        let grid = BlockGrid::new(m, n, kv, BlockShape::new(tm, tn));
        let mut rng = TensorRng::seed(seed);
        let w = rng.uniform_tensor([m, n, kv, 1, 1], -1.0, 1.0);
        let norms = grid.block_norms_sq(&w);
        let total: f64 = norms.iter().sum();
        prop_assert!((total - w.frobenius_norm_sq() as f64).abs() < 1e-2 * total.max(1.0));
    }

    #[test]
    fn keep_rules_ordered((total, eta_pct) in (1usize..200, 0usize..100)) {
        let eta = eta_pct as f64 / 100.0;
        let f = KeepRule::Floor.kept(total, eta);
        let r = KeepRule::Round.kept(total, eta);
        let c = KeepRule::Ceil.kept(total, eta);
        prop_assert!(f <= r && r <= c, "{f} {r} {c}");
        prop_assert!((1..=total).contains(&f));
        prop_assert!((1..=total).contains(&c));
        // Ceil never violates Eq.1 by more than one block.
        prop_assert!(c as f64 <= (1.0 - eta) * total as f64 + 1.0);
    }

    #[test]
    fn selection_keeps_exactly_k(norms in prop::collection::vec(0.0f64..100.0, 1..64), k_seed in 0usize..64) {
        let k = (k_seed % norms.len()) + 1;
        let r = select_blocks(&norms, k.min(norms.len()));
        prop_assert_eq!(r.keep.iter().filter(|&&x| x).count(), r.kept_blocks);
        // Every kept block's norm >= every pruned block's norm.
        let kept_min = r.keep.iter().zip(&norms).filter(|(k, _)| **k).map(|(_, &n)| n).fold(f64::INFINITY, f64::min);
        let pruned_max = r.keep.iter().zip(&norms).filter(|(k, _)| !**k).map(|(_, &n)| n).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(kept_min >= pruned_max || r.keep.iter().all(|&x| x));
    }

    #[test]
    fn projection_is_idempotent_and_feasible(
        (m, n, kv, tm, tn) in grid_strategy(),
        eta_pct in 0usize..95,
        seed in 0u64..500,
    ) {
        let eta = eta_pct as f64 / 100.0;
        let grid = BlockGrid::new(m, n, kv, BlockShape::new(tm, tn));
        let mut rng = TensorRng::seed(seed);
        let w = rng.uniform_tensor([m, n, kv, 1, 1], -1.0, 1.0);
        let (z1, r1) = project(&w, &grid, eta, KeepRule::Round);
        let (z2, r2) = project(&z1, &grid, eta, KeepRule::Round);
        prop_assert_eq!(&z1, &z2);
        prop_assert_eq!(r1.kept_blocks, r2.kept_blocks);
        // Projection never increases any entry's magnitude.
        for (a, b) in z1.data().iter().zip(w.data()) {
            prop_assert!(a.abs() <= b.abs() + 1e-7);
        }
        // Distance property: z is no farther than zeroing any other set
        // of the same size (spot-check against full zeroing).
        let dist = (&w - &z1).frobenius_norm_sq();
        prop_assert!(dist <= w.frobenius_norm_sq() + 1e-5);
    }

    #[test]
    fn bitmap_roundtrip_arbitrary(
        (m, n, kv, tm, tn) in grid_strategy(),
        seed in 0u64..500,
    ) {
        let grid = BlockGrid::new(m, n, kv, BlockShape::new(tm, tn));
        let mut rng = TensorRng::seed(seed);
        let keep: Vec<bool> = (0..grid.num_blocks()).map(|_| rng.below(2) == 1).collect();
        let mask = LayerBlockMask::new(grid, keep.clone());
        let back = LayerBlockMask::from_bitmap(grid, &mask.to_bitmap());
        prop_assert_eq!(back.keep, keep);
    }

    #[test]
    fn enabled_rows_sum_to_enabled_blocks(
        (m, n, kv, tm, tn) in grid_strategy(),
        seed in 0u64..500,
    ) {
        let grid = BlockGrid::new(m, n, kv, BlockShape::new(tm, tn));
        let mut rng = TensorRng::seed(seed);
        let keep: Vec<bool> = (0..grid.num_blocks()).map(|_| rng.below(3) > 0).collect();
        let mask = LayerBlockMask::new(grid, keep);
        let by_rows: usize = (0..grid.rows()).map(|bi| mask.enabled_in_row(bi)).sum();
        prop_assert_eq!(by_rows, mask.enabled_blocks());
    }

    #[test]
    fn mask_kept_params_matches_elementwise(
        (m, n, kv, tm, tn) in grid_strategy(),
        seed in 0u64..500,
    ) {
        let grid = BlockGrid::new(m, n, kv, BlockShape::new(tm, tn));
        let mut rng = TensorRng::seed(seed);
        let keep: Vec<bool> = (0..grid.num_blocks()).map(|_| rng.below(2) == 1).collect();
        let mask_tensor = grid.mask_from_blocks(&keep);
        let ones = mask_tensor.data().iter().filter(|&&x| x == 1.0).count();
        prop_assert_eq!(ones, grid.kept_params(&keep));
    }
}

/// Projection optimality on exhaustive small cases: the kept set found by
/// the projection minimises ||W - Z||_F over all sets of the same size.
#[test]
fn projection_is_optimal_exhaustively() {
    let mut rng = TensorRng::seed(9);
    for _ in 0..20 {
        let w = rng.uniform_tensor([4, 2, 3, 1, 1], -1.0, 1.0);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(2, 1));
        let (z, r) = project(&w, &grid, 0.5, KeepRule::Round);
        let dist = (&w - &z).frobenius_norm_sq();
        let norms = grid.block_norms_sq(&w);
        let b = grid.num_blocks();
        // Enumerate all subsets of size kept_blocks.
        for subset in 0u32..(1 << b) {
            if subset.count_ones() as usize != r.kept_blocks {
                continue;
            }
            let removed: f64 = (0..b)
                .filter(|&i| subset & (1 << i) == 0)
                .map(|i| norms[i])
                .sum();
            assert!(
                dist as f64 <= removed + 1e-4,
                "projection suboptimal: {dist} > {removed}"
            );
        }
    }
}
