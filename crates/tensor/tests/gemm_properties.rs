//! Property-based differential tests for the packed GEMM tile kernel, on
//! dense and block-sparse left operands.
//!
//! Every kernel in `p3d_tensor::gemm` promises the *canonical
//! accumulation order*: each output element sums its non-zero left-hand
//! terms in increasing `k`, left-associated, starting from `0.0`, with
//! exactly-zero left entries skipped. These tests pin that promise
//! differentially — packed vs naive, block-sparse vs dense-on-masked
//! weights — demanding **bitwise** equality on random shapes, including
//! the edge tiles (`m < MR`, `n < NR`, `k = 1`) the dispatcher would
//! normally route to the naive kernel.
//!
//! The tile kernel runs a sub-panel with no zero left entry (a zero-free
//! sub-panel) without its per-weight zero test, so the properties draw
//! both zero-free left operands (`values(.., 0)`) and ones with exact
//! zeros, and the NaN-poison cases put a single `0.0` or `-0.0` into an
//! otherwise non-zero sub-panel.

use p3d_tensor::gemm::{
    gemm_naive_into, gemm_naive_nt_into, gemm_packed_into, gemm_packed_nt_into, MR, NR,
};
use p3d_tensor::{gemm_bs_into, gemm_into, gemm_nt_into, BlockPattern, BlockSparseWeights};
use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Deterministic pseudo-random f32s in [-1, 1), with an exact zero at
/// every `zero_every`-th entry (none for `0`) to exercise the zero-skip
/// guard.
fn values(len: usize, seed: u64, zero_every: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            }
        })
        .collect()
}

/// Held by each test that flips the process-wide `simd::force_scalar`;
/// it guards no data, so a poisoned lock is simply taken over.
static FORCE_SCALAR_LOCK: Mutex<()> = Mutex::new(());

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Zeroes every weight outside an enabled block: the pruned-checkpoint
/// precondition under which skipping blocks is exact.
fn zero_disabled_blocks(a: &mut [f32], pattern: &BlockPattern) {
    let (k, tm, tk) = (pattern.k, pattern.tm, pattern.tk);
    for (i, v) in a.iter_mut().enumerate() {
        let (r, c) = (i / k, i % k);
        if !pattern.keep[(r / tm) * k.div_ceil(tk) + c / tk] {
            *v = 0.0;
        }
    }
}

/// A random block pattern over a ragged `[m, k]` grid of `tm x tk`
/// blocks, its keep bits drawn cyclically from `keep`.
fn ragged_pattern(
    (tm, tk, brows, bcols): (usize, usize, usize, usize),
    (ragged_m, ragged_k): (usize, usize),
    keep: &[bool],
) -> BlockPattern {
    let m = (brows * tm).saturating_sub(ragged_m).max(1);
    let k = (bcols * tk).saturating_sub(ragged_k).max(1);
    BlockPattern {
        m,
        k,
        tm,
        tk,
        keep: (0..m.div_ceil(tm) * k.div_ceil(tk))
            .map(|i| keep[i % keep.len()])
            .collect(),
    }
}

/// Fills the first `len` floats (or more) of this thread's GEMM pack
/// scratch with NaN by running a dense product against an all-NaN
/// right operand.
fn poison_pack_scratch(len: usize) {
    let (m, n) = (MR, NR);
    let k = len.div_ceil(n);
    let mut out = vec![0.0f32; m * n];
    gemm_into(&vec![1.0; m * k], m, k, &vec![f32::NAN; k * n], n, &mut out);
    assert!(out.iter().all(|v| v.is_nan()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed dense path is bitwise identical to the naive
    /// kernel on arbitrary shapes — including edge tiles smaller than
    /// one MR x NR register tile, forced through `gemm_packed_into`
    /// directly (the public `gemm_into` would dispatch those to the
    /// naive kernel and make the test vacuous).
    #[test]
    fn packed_bitwise_equals_naive(
        m in 1usize..3 * MR + 2,
        k in 1usize..24,
        n in 1usize..2 * NR + 3,
        seed in any::<u64>(),
        zero_every in 0usize..5,
    ) {
        // Each case runs a zero-free left operand too.
        for zero_every in [zero_every, 0] {
            let a = values(m * k, seed, zero_every);
            let b = values(k * n, seed ^ 0xb0b, 0);
            let mut naive = vec![f32::NAN; m * n];
            let mut packed = vec![f32::NAN; m * n];
            gemm_naive_into(&a, m, k, &b, n, &mut naive);
            gemm_packed_into(&a, m, k, &b, n, &mut packed);
            prop_assert_eq!(bits(&naive), bits(&packed));
            // And the public dispatcher agrees with both.
            let mut dispatched = vec![f32::NAN; m * n];
            gemm_into(&a, m, k, &b, n, &mut dispatched);
            prop_assert_eq!(bits(&naive), bits(&dispatched));
        }
    }

    /// Same for the transposed-B (`b` stored `[n, k]`) variant used by
    /// `matmul_nt` and the conv backward-weights path.
    #[test]
    fn packed_nt_bitwise_equals_naive_nt(
        m in 1usize..3 * MR + 2,
        k in 1usize..24,
        n in 1usize..2 * NR + 3,
        seed in any::<u64>(),
        zero_every in 0usize..5,
    ) {
        for zero_every in [zero_every, 0] {
            let a = values(m * k, seed, zero_every);
            let b_nk = values(n * k, seed ^ 0xcafe, 0);
            let mut naive = vec![f32::NAN; m * n];
            let mut packed = vec![f32::NAN; m * n];
            gemm_naive_nt_into(&a, m, k, &b_nk, n, &mut naive);
            gemm_packed_nt_into(&a, m, k, &b_nk, n, &mut packed);
            prop_assert_eq!(bits(&naive), bits(&packed));
            let mut dispatched = vec![f32::NAN; m * n];
            gemm_nt_into(&a, m, k, &b_nk, n, &mut dispatched);
            prop_assert_eq!(bits(&naive), bits(&dispatched));
        }
    }

    /// Exactly-zero left entries never touch the right operand: NaNs in
    /// B columns that only meet zero A entries cannot leak into the
    /// output of either kernel.
    #[test]
    fn zero_left_rows_never_read_b(
        m in 1usize..2 * MR + 1,
        k in 1usize..12,
        n in 1usize..NR + 5,
        seed in any::<u64>(),
        poisoned_p in 0usize..12,
    ) {
        let poisoned_p = poisoned_p % k;
        let mut a = values(m * k, seed, 3);
        // Zero the whole A column `poisoned_p` and poison the matching
        // B row: any read of it would surface as NaN.
        for r in 0..m {
            a[r * k + poisoned_p] = 0.0;
        }
        let mut b = values(k * n, seed ^ 0xdead, 0);
        for j in 0..n {
            b[poisoned_p * n + j] = f32::NAN;
        }
        for out in [
            {
                let mut o = vec![0.0f32; m * n];
                gemm_naive_into(&a, m, k, &b, n, &mut o);
                o
            },
            {
                let mut o = vec![0.0f32; m * n];
                gemm_packed_into(&a, m, k, &b, n, &mut o);
                o
            },
        ] {
            prop_assert!(
                out.iter().all(|x| !x.is_nan()),
                "a kernel read a B row guarded by exact zeros"
            );
        }
    }

    /// The block-sparse kernel is bitwise identical to the dense kernels
    /// on masked weights, over random grids, block shapes (including
    /// ragged edges where `tm`/`tk` do not divide `m`/`k`), and random
    /// keep bitmaps. Weights outside enabled blocks are zeroed first —
    /// the pruned-checkpoint precondition under which skipping is exact.
    /// Enabled blocks are drawn zero-free (every sub-panel certified) and
    /// with surviving exact zeros (some sub-panels guarded).
    #[test]
    fn block_sparse_bitwise_equals_dense_on_masked_weights(
        tm in 1usize..6,
        tk in 1usize..7,
        brows in 1usize..4,
        bcols in 1usize..4,
        ragged_m in 0usize..3,
        ragged_k in 0usize..4,
        n in 1usize..NR + 9,
        seed in any::<u64>(),
        zero_every in 0usize..5,
        keep in prop::collection::vec(any::<bool>(), 16),
    ) {
        let pattern = ragged_pattern((tm, tk, brows, bcols), (ragged_m, ragged_k), &keep);
        let (m, k) = (pattern.m, pattern.k);
        for zero_every in [0, zero_every] {
            let mut a = values(m * k, seed, zero_every);
            zero_disabled_blocks(&mut a, &pattern);
            let b = values(k * n, seed ^ 0xfeed, 0);
            let w = BlockSparseWeights::compile(&a, &pattern);
            let mut dense = vec![f32::NAN; m * n];
            let mut sparse = vec![f32::NAN; m * n];
            gemm_into(&a, m, k, &b, n, &mut dense);
            gemm_bs_into(&w, &b, n, &mut sparse);
            prop_assert_eq!(bits(&dense), bits(&sparse));
        }
    }

    /// `refresh` re-reads the weights without recompiling: after an
    /// in-place weight update (same sparsity pattern), the sparse kernel
    /// tracks the new values bitwise. Updates alternate between
    /// zero-free values and values with exact zeros, so the sub-panels'
    /// zero-free certificates must follow each refresh: a `b` row
    /// poisoned with NaN where every weight is zero must stay unread.
    #[test]
    fn refresh_tracks_updates_bitwise(
        n in 1usize..NR + 3,
        seed in any::<u64>(),
        zero_every in 2usize..5,
        keep in prop::collection::vec(any::<bool>(), 4),
    ) {
        let (m, k, tm, tk) = (6usize, 8usize, 3usize, 4usize);
        let pattern = BlockPattern { m, k, tm, tk, keep: keep.clone() };
        let zero_disabled = |a: &mut [f32]| {
            for bi in 0..2 {
                for bj in 0..2 {
                    if keep[bi * 2 + bj] {
                        continue;
                    }
                    for r in bi * tm..(bi + 1) * tm {
                        for c in bj * tk..(bj + 1) * tk {
                            a[r * k + c] = 0.0;
                        }
                    }
                }
            }
        };
        let mut a = values(m * k, seed, 0);
        zero_disabled(&mut a);
        let mut w = BlockSparseWeights::compile(&a, &pattern);
        // Simulate training steps: new values, same pattern. Column 0
        // of every update with zeros is all zero, so its `b` row is
        // poisoned.
        for (step, zero_every) in [zero_every, 0, zero_every].into_iter().enumerate() {
            let mut a2 = values(m * k, seed ^ (0x5eed + step as u64), zero_every);
            zero_disabled(&mut a2);
            let mut b = values(k * n, seed ^ 0xabc, 0);
            if zero_every > 0 {
                for r in 0..m {
                    a2[r * k] = 0.0;
                }
                b[..n].fill(f32::NAN);
            }
            w.refresh(&a2);
            let mut dense = vec![f32::NAN; m * n];
            let mut sparse = vec![f32::NAN; m * n];
            gemm_into(&a2, m, k, &b, n, &mut dense);
            gemm_bs_into(&w, &b, n, &mut sparse);
            prop_assert!(sparse.iter().all(|v| !v.is_nan()), "step {}: a zero read b", step);
            prop_assert_eq!(bits(&dense), bits(&sparse));
        }
    }

    /// `read_ranges` is exactly the set of `k` rows some enabled block
    /// covers, as ascending, merged (non-touching) half-open ranges.
    #[test]
    fn read_ranges_are_the_merged_ascending_union(
        tm in 1usize..6,
        tk in 1usize..7,
        brows in 1usize..4,
        bcols in 1usize..6,
        ragged_m in 0usize..3,
        ragged_k in 0usize..4,
        keep in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let pattern = ragged_pattern((tm, tk, brows, bcols), (ragged_m, ragged_k), &keep);
        let (k, bc) = (pattern.k, pattern.block_cols());
        let w = BlockSparseWeights::compile(&vec![0.0; pattern.m * k], &pattern);
        let ranges = w.read_ranges();
        for pair in ranges.windows(2) {
            prop_assert!(pair[0].1 < pair[1].0, "ranges not ascending and merged: {:?}", ranges);
        }
        for p in 0..k {
            let read = (0..pattern.block_rows()).any(|bi| pattern.keep[bi * bc + p / tk]);
            let listed = ranges.iter().any(|&(p0, p1)| (p0..p1).contains(&p));
            prop_assert_eq!(read, listed, "row {} of {:?}", p, ranges);
        }
        prop_assert!(ranges.iter().all(|&(p0, p1)| p0 < p1 && p1 <= k));
    }

    /// Rows of `b` outside `read_ranges` are never packed nor read: NaN
    /// placed there — and NaN left in this thread's pack scratch by an
    /// earlier product — never reaches the block-sparse output, which
    /// stays bitwise equal to the dense kernel on a clean operand.
    #[test]
    fn unread_rows_of_b_never_reach_the_output(
        tm in 1usize..6,
        tk in 1usize..7,
        brows in 1usize..4,
        bcols in 1usize..6,
        ragged_k in 0usize..4,
        n in 1usize..2 * NR + 3,
        seed in any::<u64>(),
        keep in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let pattern = ragged_pattern((tm, tk, brows, bcols), (0, ragged_k), &keep);
        let (m, k) = (pattern.m, pattern.k);
        let mut a = values(m * k, seed, 0);
        zero_disabled_blocks(&mut a, &pattern);
        let w = BlockSparseWeights::compile(&a, &pattern);
        let clean = values(k * n, seed ^ 0x0dd, 0);
        let mut poisoned = clean.clone();
        for p in 0..k {
            if !w.read_ranges().iter().any(|&(p0, p1)| (p0..p1).contains(&p)) {
                poisoned[p * n..(p + 1) * n].fill(f32::NAN);
            }
        }
        let mut dense = vec![f32::NAN; m * n];
        gemm_into(&a, m, k, &clean, n, &mut dense);
        poison_pack_scratch(n.div_ceil(NR) * k * NR);
        let mut sparse = vec![f32::NAN; m * n];
        gemm_bs_into(&w, &poisoned, n, &mut sparse);
        prop_assert!(sparse.iter().all(|v| v.is_finite()), "an unread row leaked");
        prop_assert_eq!(bits(&dense), bits(&sparse));
    }
}

/// AVX2-vs-scalar bitwise gate for the f32 kernels: runs the packed and
/// block-sparse kernels once on the detected SIMD level and once with
/// the scalar fallback explicitly forced, and demands bit-for-bit equal
/// outputs. On an AVX2 host this pins the explicit-intrinsics kernels
/// against the portable bodies; on a non-AVX2 host it degenerates to
/// scalar-vs-scalar (still a valid, if vacuous, run).
///
/// Flipping `force_scalar` is process-wide, but safe to do concurrently
/// with the other tests in this binary precisely because of the property
/// under test: both paths produce identical bits, so which one a
/// neighbouring test happens to take cannot change its result. The two
/// tests that flip it hold [`FORCE_SCALAR_LOCK`], so neither resets the
/// other's forced-scalar pass.
#[test]
fn avx2_and_forced_scalar_f32_kernels_bitwise_identical() {
    let _flip = FORCE_SCALAR_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // Exact zeros exercise the guarded body, a zero-free draw the
    // unguarded one; `m % MR != 0` gives a ragged last sub-panel.
    for zero_every in [4, 0] {
        avx2_and_forced_scalar_agree(3 * MR + 1, 37, 2 * NR + 5, zero_every);
    }
}

fn avx2_and_forced_scalar_agree(m: usize, k: usize, n: usize, zero_every: usize) {
    use p3d_tensor::simd;

    let a = values(m * k, 0xa2c5_0001, zero_every);
    let b = values(k * n, 0xa2c5_0002, 0);

    // Dense packed kernel, both paths.
    let mut out_simd = vec![f32::NAN; m * n];
    let mut out_scalar = vec![f32::NAN; m * n];
    gemm_packed_into(&a, m, k, &b, n, &mut out_simd);
    simd::force_scalar(true);
    let scalar_level = simd::active();
    gemm_packed_into(&a, m, k, &b, n, &mut out_scalar);
    simd::force_scalar(false);
    assert_eq!(scalar_level.name(), "scalar");
    assert_eq!(
        bits(&out_simd),
        bits(&out_scalar),
        "packed kernel, zero_every {zero_every}: {} path diverged from forced scalar",
        simd::detected().name()
    );

    // Block-sparse kernel, both paths (ragged grid, mixed keep bitmap).
    let (tm, tk) = (3usize, 5usize);
    let brows = m.div_ceil(tm);
    let bcols = k.div_ceil(tk);
    let pattern = BlockPattern {
        m,
        k,
        tm,
        tk,
        keep: (0..brows * bcols).map(|i| i % 3 != 1).collect(),
    };
    let mut am = a.clone();
    zero_disabled_blocks(&mut am, &pattern);
    let w = BlockSparseWeights::compile(&am, &pattern);
    let mut bs_simd = vec![f32::NAN; m * n];
    let mut bs_scalar = vec![f32::NAN; m * n];
    gemm_bs_into(&w, &b, n, &mut bs_simd);
    simd::force_scalar(true);
    gemm_bs_into(&w, &b, n, &mut bs_scalar);
    simd::force_scalar(false);
    assert_eq!(
        bits(&bs_simd),
        bits(&bs_scalar),
        "block-sparse kernel, zero_every {zero_every}: {} path diverged from forced scalar",
        simd::detected().name()
    );
}

/// One real row of an otherwise non-zero sub-panel holds `0.0` or `-0.0`
/// at `p`, and row `p` of `b` is NaN: that row's outputs must stay free
/// of NaN (it never reads the poisoned row) and equal the naive kernel's,
/// while every other row, whose weight at `p` is non-zero, reads it. The
/// sub-panel holding the zero must take the guarded body, on the dense
/// and the block-sparse kernel, under AVX2 and forced scalar. The rows
/// tried include the real rows of a ragged last sub-panel.
#[test]
fn a_single_zero_in_a_sub_panel_still_skips_its_nan() {
    use p3d_tensor::simd;

    let _flip = FORCE_SCALAR_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let (m, k, n) = (2 * MR + 2, 11, NR + 3);
    let (tm, tk) = (MR + 1, 3);
    for force_scalar in [false, true] {
        for zero in [0.0f32, -0.0] {
            for (r, p) in [(0, 0), (MR + 2, 5), (2 * MR, 10), (m - 1, 7)] {
                let mut a = values(m * k, 0x2e70_0000 + (r * k + p) as u64, 0);
                // Keep every block of column `p` and a checkerboard of
                // the rest.
                let bcols = k.div_ceil(tk);
                let pattern = BlockPattern {
                    m,
                    k,
                    tm,
                    tk,
                    keep: (0..m.div_ceil(tm) * bcols)
                        .map(|i| i % bcols == p / tk || (i / bcols + i % bcols) % 2 == 0)
                        .collect(),
                };
                zero_disabled_blocks(&mut a, &pattern);
                a[r * k + p] = zero;
                let mut b = values(k * n, 0x2e70_1000, 0);
                b[p * n..(p + 1) * n].fill(f32::NAN);
                let mut naive = vec![0.0f32; m * n];
                gemm_naive_into(&a, m, k, &b, n, &mut naive);
                let w = BlockSparseWeights::compile(&a, &pattern);
                let mut dense = vec![0.0f32; m * n];
                let mut sparse = vec![0.0f32; m * n];
                simd::force_scalar(force_scalar);
                gemm_packed_into(&a, m, k, &b, n, &mut dense);
                gemm_bs_into(&w, &b, n, &mut sparse);
                simd::force_scalar(false);
                for (kernel, out) in [("dense", &dense), ("block-sparse", &sparse)] {
                    let case =
                        format!("{kernel}, zero {zero:?} at ({r}, {p}), scalar {force_scalar}");
                    let row = &out[r * n..(r + 1) * n];
                    assert!(row.iter().all(|v| !v.is_nan()), "{case}: the zero read NaN");
                    assert_eq!(bits(row), bits(&naive[r * n..(r + 1) * n]), "{case}");
                    for i in (0..m).filter(|&i| i != r) {
                        assert!(
                            out[i * n..(i + 1) * n].iter().all(|v| v.is_nan()),
                            "{case}: row {i}"
                        );
                    }
                }
            }
        }
    }
}

/// The dense product packs its left operand into a thread-local scratch
/// that only grows, so a smaller product finds a larger one's values
/// there. Fill that scratch with NaN through a larger product, then
/// demand naive-equal bits from both packed entry points on shapes with
/// a ragged last row block (`m % MR != 0`) and a ragged last column
/// panel (`n % NR != 0`). Every real row must be copied into the
/// scratch (a stale NaN row would reach the output), and the padding
/// rows past `m` must be zeroed (the driver's debug assertion, on under
/// `cargo test`, rejects a ragged sub-panel with non-zero padding).
#[test]
fn stale_left_scratch_never_reaches_the_output() {
    let poison = |len: usize| {
        let (pm, pn) = (len.div_ceil(MR) * MR, NR);
        let mut out = vec![0.0f32; pm * pn];
        gemm_packed_into(&vec![f32::NAN; pm], pm, 1, &vec![1.0; pn], pn, &mut out);
        assert!(out.iter().all(|v| v.is_nan()));
    };
    for &(m, k, n) in &[
        (MR - 1, 16, NR - 3),
        (MR + 1, 7, NR + 3),
        (3 * MR + 2, 29, 2 * NR + 1),
        (5 * MR + 3, 1, 3 * NR + 7),
        (MR + 2, 0, NR + 1),
    ] {
        let scratch_len = m.div_ceil(MR) * MR * k;
        let a = values(m * k, 0x57a1_e000 + m as u64, 5);
        let b = values(k * n, 0x57a1_e100 + n as u64, 0);
        let mut naive = vec![0.0f32; m * n];
        let mut packed = vec![f32::NAN; m * n];
        gemm_naive_into(&a, m, k, &b, n, &mut naive);
        poison(scratch_len);
        gemm_packed_into(&a, m, k, &b, n, &mut packed);
        assert_eq!(bits(&naive), bits(&packed), "nn shape ({m},{k},{n})");

        let b_nk = values(n * k, 0x57a1_e200 + k as u64, 0);
        let mut naive_nt = vec![0.0f32; m * n];
        let mut packed_nt = vec![f32::NAN; m * n];
        gemm_naive_nt_into(&a, m, k, &b_nk, n, &mut naive_nt);
        poison(scratch_len);
        gemm_packed_nt_into(&a, m, k, &b_nk, n, &mut packed_nt);
        assert_eq!(bits(&naive_nt), bits(&packed_nt), "nt shape ({m},{k},{n})");
    }
}
