//! The packed, register-tiled f32 GEMM: one tile kernel and one band
//! driver for dense and block-sparse (`Tm x Tn` block-enable) products.
//!
//! # One kernel for dense and block-sparse products
//!
//! The paper's accelerator has one `Tm x Tn` MAC array; a dense layer
//! is the case where every bit of the block-enable bitmap is set. This
//! module mirrors that. Every packed product runs the same band driver
//! and the same `MR x NR` tile kernel over a left operand in **block-CSR
//! form**: per block row, an ascending list of enabled `k` ranges plus
//! their packed values. A compiled [`BlockSparseWeights`] lists one
//! range per enabled block; a dense `[m, k]` operand is packed per call
//! into block rows of `MR` rows with the single range `(0, k)`.
//!
//! # The canonical accumulation order
//!
//! Every kernel in this module — the naive reference and the packed
//! tile kernel — produces each output element by accumulating its
//! **non-zero left-operand terms in increasing `k` order,
//! left-associated, starting from `0.0`**, and skipping exactly-zero
//! left entries without touching the right operand. Floating-point
//! addition is not associative, so pinning this one order is what makes
//! every path here *bitwise identical* to every other (and to the
//! original scalar kernel this crate shipped with), at any
//! `P3D_THREADS` setting:
//!
//! * the naive kernel walks `p = 0..k` per output row,
//! * the tile kernel holds an `MR x NR` register tile and walks its
//!   block row's enabled `k` ranges in ascending order, over the full
//!   range (there is deliberately **no `Kc` blocking of the
//!   accumulation** — partial-sum re-association would change results);
//!   a dense operand's one range is all of `0..k`,
//! * on masked weights the ranges a pruned block would have covered are
//!   exactly zero, so the sequence of non-zero terms — and therefore the
//!   rounding — of a block-sparse product is identical to the dense
//!   one's.
//!
//! This is the CPU analogue of the paper's lossless block-skip
//! argument: the accelerator may skip a pruned `Tm x Tn` block because
//! the MAC array would have accumulated exact zeros for it; we may skip
//! it because IEEE-754 addition of the remaining terms in the same
//! order yields the same bits.
//!
//! # Zero-skip contract
//!
//! Shared with [`crate::Tensor::matmul`]: an exactly-zero entry of the
//! *left* operand contributes nothing and never reads the right
//! operand, so `NaN`/`Inf` sitting on the right of a pruned zero cannot
//! leak into the output. Right-operand zeros are *not* skipped.
//!
//! The tile kernel tests left entries against zero only where one can
//! occur. Each packed `MR`-row left sub-panel carries a **zero-free
//! certificate**: set when no real row of it holds a value `== 0.0`
//! (`-0.0` included). A certified sub-panel runs an unguarded body,
//! which is bitwise the guarded one because the guard could never skip
//! there; every other sub-panel (dense masked weights, training's
//! masked products) runs the guarded body, one scalar test per
//! `(p, row)`. Block-CSR weights keep only enabled blocks, so their
//! sub-panels are certified unless a surviving weight is exactly zero.
//! This is the accelerator's granularity: it skips whole pruned blocks
//! and streams every weight of an enabled one through the MAC array.
//!
//! # Packing scheme
//!
//! Both operands reach the tile kernel packed, so it streams each
//! contiguously.
//!
//! * **Left (A) panels**: `[MR-row sub-panel][ks][MR]`, where `ks` is
//!   the number of enabled `k` columns of the block row; the `MR` values
//!   of one `k` step are contiguous, and the rows past the block row's
//!   end are zero. A dense `[m, k]` operand has `ks = k`, so `(i, p)`
//!   lives at `(i / MR) * k * MR + p * MR + i % MR`. It is packed per
//!   call into a thread-local scratch; [`BlockSparseWeights`] keeps its
//!   values in this layout and repacks them only on
//!   [`BlockSparseWeights::refresh`]. `pack_block_row`, the one
//!   left-operand packer, also writes each sub-panel's zero-free
//!   certificate, so a certificate is never older than its values. A
//!   ragged last sub-panel runs through the full tile kernel: its zero
//!   padding rows cost a guarded body nothing and a certified body
//!   some wasted lanes, and their accumulators are never written out.
//! * **Right (B) panels**: column panels of [`NR`] columns laid out
//!   `packed[jp][p][j]` (`jp` = panel, `p` = inner dimension, `j` =
//!   column within panel), so element `(p, j)` lives at
//!   `(j / NR) * k * NR + p * NR + j % NR`, with the lanes past `n` of
//!   the last panel zeroed. Any `k` sub-range of a panel is contiguous,
//!   which is what lets the kernel visit only enabled `k` ranges.
//!
//! The kernel does not care where the right panel image comes from:
//! both [`gemm_with_packer`] and [`gemm_bs_with_packer`] take the right
//! operand as a pack callback `pack(ranges, packed)` that must write the
//! rows `ranges` of the image. The dense product asks for every row; the
//! block-sparse product asks only for [`BlockSparseWeights::read_ranges`],
//! the rows some enabled block reads. [`pack_rows`] is the one
//! range-aware helper behind every callback: it walks the requested
//! rows, has the caller write one row's values into a small reused row
//! buffer, and copies them `NR` at a time into the panels, zeroing the
//! padding lanes. A row-major matrix packs through it
//! ([`gemm_into`], [`gemm_bs_into`]); a 3D convolution lowers its input
//! window straight through it, so no im2col matrix is ever materialised.
//! Packing is pure data movement (no arithmetic), so it cannot affect
//! results. Both pack buffers are thread-local, growable scratches:
//! steady-state calls perform **zero heap allocations** once they have
//! grown to the largest shape seen on that thread.

use crate::parallel::{max_threads, parallel_chunk_map};
use std::cell::RefCell;
use std::thread::LocalKey;

/// Register-tile height: output rows held in accumulators at once.
///
/// `MR x NR = 32` f32 accumulators occupy 8 of the 16 XMM registers of
/// the 128-bit SSE baseline this crate targets, leaving the rest for
/// the two loaded right-operand vectors, the broadcast left-operand
/// scalars, and loop-carried state — so the whole accumulator tile
/// lives in registers for the full `k` traversal instead of bouncing
/// through L1 like the naive kernel's output row does.
pub const MR: usize = 4;

/// Register-tile width: output columns held in accumulators at once.
pub const NR: usize = 8;

/// Column-block width for the naive reference kernel. 256 f32 columns
/// of the output row plus the matching right-operand row segment fit
/// comfortably in L1, so the `p`-loop re-reads hot lines instead of
/// streaming DRAM.
const GEMM_COL_BLOCK: usize = 256;

/// Row count below which kernels stay serial: even waking parked pool
/// workers costs more than the multiply itself for tiny products.
const GEMM_PARALLEL_MIN_ROWS: usize = 8;

thread_local! {
    /// Growable right-operand pack scratch, one per thread. Taken (not
    /// borrowed) for the duration of a GEMM so re-entrant calls cannot
    /// conflict — a nested call simply starts from an empty buffer.
    static PACK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };

    /// Growable dense left-operand pack scratch (see
    /// [`gemm_with_packer`]), one per thread, taken like [`PACK_SCRATCH`].
    static A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };

    /// The zero-free certificates of the sub-panels in [`A_SCRATCH`],
    /// one per thread, taken like [`PACK_SCRATCH`].
    static ZERO_FREE_SCRATCH: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };

    /// One right-operand row on its way into the panels (see
    /// [`pack_rows`]), one per thread.
    static ROW_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a scratch slice of exactly `len` elements taken from
/// the thread-local buffer `key`, which grows (default-filled) but never
/// shrinks. The slice holds whatever an earlier call left in it.
fn with_scratch<T: Clone + Default, R>(
    key: &'static LocalKey<RefCell<Vec<T>>>,
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    key.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < len {
            buf.resize(len, T::default());
        }
        let r = f(&mut buf[..len]);
        cell.replace(buf);
        r
    })
}

// ---------------------------------------------------------------------------
// Naive reference kernels (the crate's original scalar GEMM, kept verbatim)
// ---------------------------------------------------------------------------

/// The original scalar row-loop kernel:
/// `[m, k] (row-major a) x [k, n] (row-major b) -> out [m, n]`.
///
/// Kept as the **reference implementation** the packed tile kernel is
/// differential-tested (and perf-gated) against, and as the dispatch
/// target for shapes too small to amortise panel packing. Loop order is
/// `i / jb / p / j`; the zero-skip branch hoists the left scalar out of
/// the innermost loop.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_naive_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_naive_into: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_naive_into: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_naive_into: out length mismatch");
    out.fill(0.0);
    if m == 0 || n == 0 {
        return;
    }

    let row_kernel = |i: usize, o_row: &mut [f32]| {
        let a_row = &a[i * k..(i + 1) * k];
        let mut jb = 0;
        while jb < n {
            let je = (jb + GEMM_COL_BLOCK).min(n);
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue; // zero-skip: pruned left entry, block never multiplied
                }
                let b_seg = &b[p * n + jb..p * n + je];
                for (o, &bv) in o_row[jb..je].iter_mut().zip(b_seg) {
                    *o += av * bv;
                }
            }
            jb = je;
        }
    };

    if m >= GEMM_PARALLEL_MIN_ROWS {
        parallel_chunk_map(out, n, row_kernel);
    } else {
        for (i, o_row) in out.chunks_mut(n).enumerate() {
            row_kernel(i, o_row);
        }
    }
}

/// The original scalar `A * B^T` kernel:
/// `[m, k] (row-major a) x [n, k] (row-major b_nk) -> out [m, n]`.
///
/// Reads `b_nk[j * k + p]` directly — a cache-hostile stride-`k` walk
/// in the innermost loop, which is exactly why the packed variant
/// exists. Kept as the differential-test reference for the packed
/// `nt` path.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_naive_nt_into(a: &[f32], m: usize, k: usize, b_nk: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_naive_nt_into: lhs length mismatch");
    assert_eq!(b_nk.len(), n * k, "gemm_naive_nt_into: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_naive_nt_into: out length mismatch");
    out.fill(0.0);
    if m == 0 || n == 0 {
        return;
    }

    let row_kernel = |i: usize, o_row: &mut [f32]| {
        let a_row = &a[i * k..(i + 1) * k];
        let mut jb = 0;
        while jb < n {
            let je = (jb + GEMM_COL_BLOCK).min(n);
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue; // zero-skip: pruned left entry, block never multiplied
                }
                for (j, o) in o_row[jb..je].iter_mut().enumerate() {
                    *o += av * b_nk[(jb + j) * k + p];
                }
            }
            jb = je;
        }
    };

    if m >= GEMM_PARALLEL_MIN_ROWS {
        parallel_chunk_map(out, n, row_kernel);
    } else {
        for (i, o_row) in out.chunks_mut(n).enumerate() {
            row_kernel(i, o_row);
        }
    }
}

// ---------------------------------------------------------------------------
// Panel packing
// ---------------------------------------------------------------------------

/// Number of `NR`-column panels covering `n` output columns.
fn panel_count(n: usize) -> usize {
    n.div_ceil(NR)
}

/// Writes the rows `ranges` of the packed panel image of a `[k, n]`
/// right operand into `packed` (`panel_count(n) * k * NR` floats):
/// `fill(p, row)` must write all `n` values of row `p` into `row` (a
/// reused buffer that still holds an earlier row), which are then
/// copied into their panels with the lanes past `n` zeroed. Rows
/// outside `ranges` are left untouched.
///
/// This is the one range-aware pack helper every right-operand kind
/// goes through, so the pack callbacks of [`gemm_with_packer`] and
/// [`gemm_bs_with_packer`] only say how to produce one row's values.
/// The row buffer is thread-local and only grows, so steady-state calls
/// do not allocate.
///
/// # Panics
///
/// Panics if `packed` has the wrong length or a range exceeds `k`.
pub fn pack_rows(
    k: usize,
    n: usize,
    ranges: &[(usize, usize)],
    packed: &mut [f32],
    mut fill: impl FnMut(usize, &mut [f32]),
) {
    assert_eq!(
        packed.len(),
        panel_count(n) * k * NR,
        "pack_rows: packed length mismatch"
    );
    ROW_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < n {
            buf.resize(n, 0.0);
        }
        let row = &mut buf[..n];
        for &(p0, p1) in ranges {
            assert!(
                p0 <= p1 && p1 <= k,
                "pack_rows: range ({p0}, {p1}) outside k = {k}"
            );
            for p in p0..p1 {
                fill(p, row);
                // Whole NR-wide chunks as fixed-size copies, then the
                // zero-padded last panel.
                let panels = packed.chunks_exact_mut(k * NR);
                let chunks = row.chunks(NR);
                for (panel, chunk) in panels.zip(chunks) {
                    let dst: &mut [f32; NR] = (&mut panel[p * NR..(p + 1) * NR])
                        .try_into()
                        .expect("NR lanes");
                    match <&[f32; NR]>::try_from(chunk) {
                        Ok(full) => *dst = *full,
                        Err(_) => {
                            dst[..chunk.len()].copy_from_slice(chunk);
                            dst[chunk.len()..].fill(0.0);
                        }
                    }
                }
            }
        }
        cell.replace(buf);
    });
}

/// Packs the rows `ranges` of row-major `b [k, n]` through [`pack_rows`].
fn pack_b_nn(b: &[f32], k: usize, n: usize, ranges: &[(usize, usize)], packed: &mut [f32]) {
    pack_rows(k, n, ranges, packed, |p, row| {
        row.copy_from_slice(&b[p * n..(p + 1) * n]);
    });
}

/// Packs `b_nk [n, k]` (the transposed operand of the `nt` product)
/// into the same `NR`-column panel layout as [`pack_b_nn`]. Source rows
/// are read contiguously; the stride-`k` walk that plagued the naive
/// `nt` kernel happens once here, during packing, instead of `m` times
/// in the inner loop.
fn pack_b_nt(b_nk: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    parallel_chunk_map(packed, k * NR, |jp, panel| {
        let j0 = jp * NR;
        let jw = NR.min(n - j0);
        for jj in 0..NR {
            if jj < jw {
                for (p, &v) in b_nk[(j0 + jj) * k..(j0 + jj) * k + k].iter().enumerate() {
                    panel[p * NR + jj] = v;
                }
            } else {
                for p in 0..k {
                    panel[p * NR + jj] = 0.0;
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Left-operand packing and dense products
// ---------------------------------------------------------------------------

/// Packs rows `i0 .. i0 + rows` of row-major `a [_, k]`, restricted to
/// the ascending `k` `ranges`, into `dst` as `MR`-row sub-panels
/// `[ks][MR]` (`ks` = the ranges' total length; layout in the module
/// docs), the rows past `rows` of the last sub-panel zeroed. Every float
/// of `dst` is written, so a stale scratch cannot leak into a product.
///
/// `zero_free[s]` receives sub-panel `s`'s certificate (module docs,
/// "Zero-skip contract"): whether none of its packed values in a real
/// row `== 0.0`. Values outside `ranges` and the padding rows do not
/// count, since the kernel never multiplies the former and drops the
/// latter's accumulators.
///
/// This is the one left-operand packer: [`BlockSparseWeights::refresh`]
/// runs it per block row, and [`gemm_with_packer`] over a whole dense
/// operand with the single range `(0, k)`.
fn pack_block_row(
    a: &[f32],
    k: usize,
    i0: usize,
    rows: usize,
    ranges: &[(usize, usize)],
    dst: &mut [f32],
    zero_free: &mut [bool],
) {
    let ks: usize = ranges.iter().map(|&(p0, p1)| p1 - p0).sum();
    debug_assert_eq!(dst.len(), rows.div_ceil(MR) * ks * MR);
    assert_eq!(
        zero_free.len(),
        rows.div_ceil(MR),
        "one certificate per sub-panel"
    );
    for (s, free) in zero_free.iter_mut().enumerate() {
        let sub = &mut dst[s * ks * MR..(s + 1) * ks * MR];
        let mut q = 0usize;
        for &(p0, p1) in ranges {
            for p in p0..p1 {
                for ir in 0..MR {
                    let r = s * MR + ir;
                    sub[q * MR + ir] = if r < rows {
                        a[(i0 + r) * k + p]
                    } else {
                        0.0 // row padding past the block row
                    };
                }
                q += 1;
            }
        }
        let real = MR.min(rows - s * MR);
        *free = sub
            .chunks_exact(MR)
            .all(|lanes| lanes[..real].iter().all(|&v| v != 0.0));
    }
}

/// Packed register-tiled GEMM whose right operand comes from a pack
/// callback: `[m, k] (row-major a) x [k, n] (packed by pack) -> out
/// [m, n]`.
///
/// `pack(ranges, packed)` must write the rows `ranges` (here always the
/// whole `[(0, k)]`) of the right operand's packed panel image (layout in
/// the module docs; [`pack_rows`] does the bookkeeping). `a` is packed
/// per call into `MR`-row block rows with the one enabled range
/// `(0, k)`, and the product runs the same band driver and tile kernel
/// as [`gemm_bs_with_packer`]. `out` is fully overwritten, and the
/// result is bitwise identical to [`gemm_naive_into`] on the same
/// operand.
///
/// # Panics
///
/// Panics if `a` or `out` disagree with the stated dimensions.
pub fn gemm_with_packer(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    pack: impl FnOnce(&[(usize, usize)], &mut [f32]),
) {
    assert_eq!(a.len(), m * k, "gemm_with_packer: lhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_with_packer: out length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let whole = [(0, k)];
    let sub_panels = m.div_ceil(MR);
    with_scratch(&A_SCRATCH, sub_panels * k * MR, |apack| {
        with_scratch(&ZERO_FREE_SCRATCH, sub_panels, |zero_free| {
            // One block row of all `m` rows packs the same sub-panels as
            // `MR`-row block rows would.
            pack_block_row(a, k, 0, m, &whole, apack, zero_free);
            let (apack, zero_free) = (&*apack, &*zero_free);
            with_scratch(&PACK_SCRATCH, panel_count(n) * k * NR, |packed| {
                pack(&whole, packed);
                run_block_rows(m, MR, k, n, packed, out, |bi| {
                    (
                        &whole[..],
                        &apack[bi * k * MR..(bi + 1) * k * MR],
                        &zero_free[bi..bi + 1],
                    )
                });
            });
        });
    });
}

/// Packed register-tiled GEMM:
/// `[m, k] (row-major a) x [k, n] (row-major b) -> out [m, n]`.
///
/// Always takes the packed path (no small-shape dispatch) — exposed so
/// differential tests can exercise edge tiles (`m < MR`, `n < NR`,
/// `k = 1`) directly. Bitwise identical to [`gemm_naive_into`] on every
/// input (see the module docs for why).
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_packed_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(b.len(), k * n, "gemm_packed_into: rhs length mismatch");
    gemm_with_packer(a, m, k, n, out, |ranges, packed| {
        pack_b_nn(b, k, n, ranges, packed)
    });
}

/// Packed register-tiled `A * B^T`:
/// `[m, k] (row-major a) x [n, k] (row-major b_nk) -> out [m, n]`.
///
/// The `B` panel is packed once (contiguous reads of `b_nk` rows), so
/// the tile kernel's inner loop is identical to [`gemm_packed_into`]'s
/// — no strided reads survive into the hot loop. Bitwise identical to
/// [`gemm_naive_nt_into`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_packed_nt_into(a: &[f32], m: usize, k: usize, b_nk: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(
        b_nk.len(),
        n * k,
        "gemm_packed_nt_into: rhs length mismatch"
    );
    // The dense product always asks for every row, which is all the
    // transposed packer knows how to write.
    gemm_with_packer(a, m, k, n, out, |_, packed| pack_b_nt(b_nk, k, n, packed));
}

/// `true` when panel packing pays for itself: enough output rows to
/// amortise the `O(k n)` pack over, and at least one full `NR` panel.
/// Both sides of the dispatch are bitwise identical, so this threshold
/// is purely a performance choice.
fn use_packed(m: usize, n: usize) -> bool {
    m >= MR && n >= NR
}

/// Allocation-free GEMM into a caller-provided buffer:
/// `[m, k] (row-major a) x [k, n] (row-major b) -> out [m, n]`.
///
/// This is the kernel behind [`crate::Tensor::matmul`]: it dispatches
/// to the packed register-tiled kernel ([`gemm_packed_into`]) for
/// shapes that amortise packing and to the scalar reference
/// ([`gemm_naive_into`]) otherwise. Both sides produce **bitwise
/// identical** results (canonical accumulation order, see module docs),
/// honour the left-operand zero-skip contract, and are reproducible at
/// any `P3D_THREADS`. `out` is fully overwritten. "Allocation-free"
/// holds in the steady state: the pack buffers are thread-local and
/// reused across calls.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if use_packed(m, n) {
        gemm_packed_into(a, m, k, b, n, out)
    } else {
        gemm_naive_into(a, m, k, b, n, out)
    }
}

/// Allocation-free `A * B^T` into a caller-provided buffer:
/// `[m, k] (row-major a) x [n, k] (row-major b_nk) -> out [m, n]`.
///
/// Dispatches like [`gemm_into`]; the packed side is
/// [`gemm_packed_nt_into`], which fixes the naive variant's stride-`k`
/// inner-loop reads by packing the `B` panel once. Bitwise identical to
/// [`crate::Tensor::matmul_nt`] on the same operands.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_nt_into(a: &[f32], m: usize, k: usize, b_nk: &[f32], n: usize, out: &mut [f32]) {
    if use_packed(m, n) {
        gemm_packed_nt_into(a, m, k, b_nk, n, out)
    } else {
        gemm_naive_nt_into(a, m, k, b_nk, n, out)
    }
}

// ---------------------------------------------------------------------------
// Block-sparse path
// ---------------------------------------------------------------------------

/// The `Tm x Tk` block-enable structure of a pruned weight matrix, in
/// matrix coordinates.
///
/// This is the layer-agnostic mirror of the accelerator's block-enable
/// bitmap (paper Fig. 2): the weight tensor, viewed as an `[m, k]`
/// matrix (for a conv layer `m = M` output channels and
/// `k = N * Kd*Kr*Kc`), is cut into `tm x tk` blocks, and `keep[bi *
/// block_cols + bj]` says whether block `(bi, bj)` survived pruning.
/// A `Tm x Tn` channel block of the paper maps to `tm = Tm`,
/// `tk = Tn * kernel_volume`, because the `Tn` input channels of a
/// block own a contiguous `k` range of the row-major im2col matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPattern {
    /// Rows of the weight matrix (output channels).
    pub m: usize,
    /// Columns of the weight matrix (input channels x kernel volume).
    pub k: usize,
    /// Block height in rows.
    pub tm: usize,
    /// Block width in columns.
    pub tk: usize,
    /// Row-major `[block_rows() * block_cols()]` enable bitmap.
    pub keep: Vec<bool>,
}

impl BlockPattern {
    /// Number of block rows (`ceil(m / tm)`).
    pub fn block_rows(&self) -> usize {
        self.m.div_ceil(self.tm)
    }

    /// Number of block columns (`ceil(k / tk)`).
    pub fn block_cols(&self) -> usize {
        self.k.div_ceil(self.tk)
    }

    /// Panics unless the pattern is internally consistent.
    fn validate(&self) {
        assert!(self.tm > 0 && self.tk > 0, "BlockPattern: zero block dims");
        assert_eq!(
            self.keep.len(),
            self.block_rows() * self.block_cols(),
            "BlockPattern: keep bitmap length mismatch"
        );
    }

    /// Fraction of blocks enabled (`1.0` for an empty grid).
    pub fn enabled_fraction(&self) -> f32 {
        if self.keep.is_empty() {
            return 1.0;
        }
        self.keep.iter().filter(|&&b| b).count() as f32 / self.keep.len() as f32
    }

    /// Whether a layer should keep its masked weights in the dense form —
    /// one enabled range `(0, k)` per `MR`-row block row — instead of
    /// compiling them to [`BlockSparseWeights`], one range per enabled
    /// block.
    ///
    /// Both forms run the same band driver and tile kernel, so this picks
    /// a range list, not a kernel. The per-block list skips pruned
    /// blocks but restarts the tile's inner loop at every block edge; at
    /// high enabled fractions it skips too little to pay for that. On a
    /// fully-enabled `4x4` pattern at the `conv3d_throughput` sweep's GEMM
    /// shape (`64 x 432 x 1568`, one thread) the per-block list took
    /// 1.06x the single range's time (median of 9 best-of-7 rounds,
    /// range 1.03–1.07x, on a 2-vCPU AVX2 VM).
    /// Because the masked dense weights and the compiled sparse form
    /// accumulate the same products in the same `k` order, the two forms
    /// are bitwise identical on such patterns, so the choice is purely a
    /// performance decision.
    pub fn prefers_dense(&self) -> bool {
        self.enabled_fraction() >= DENSE_FALLBACK_ENABLED_FRACTION
    }
}

/// Enabled-block fraction at or above which [`BlockPattern::prefers_dense`]
/// keeps a layer in the dense form. At 95%+ enabled, at most ~5% of
/// MACs can be skipped — no more than the cost of per-block ranges on a
/// fully-enabled pattern — while every workload the paper targets
/// prunes far below this (the sweep's lightest setting keeps 50%).
pub const DENSE_FALLBACK_ENABLED_FRACTION: f32 = 0.95;

/// A pruned weight matrix compiled to block-CSR: per block row, the
/// ascending list of enabled block columns plus their packed values.
///
/// `values` stores, for each block row, each `MR`-row sub-panel's
/// enabled entries as a compacted `[ks][MR]` panel (`ks` = enabled `k`
/// count of that block row, rows zero-padded to `MR`) — the left-operand
/// layout of the module docs — so the tile kernel streams both operands
/// contiguously, plus each sub-panel's zero-free certificate. Because
/// pruning leaves block *structure* fixed while retraining keeps
/// updating the surviving values, [`BlockSparseWeights::refresh`]
/// repacks values in place — `O(m k)` against the `O(m k n)` product —
/// without reallocating.
#[derive(Debug, Clone)]
pub struct BlockSparseWeights {
    m: usize,
    k: usize,
    tm: usize,
    /// CSR row pointer into `col_idx` / `col_ranges`.
    row_ptr: Vec<usize>,
    /// Enabled block-column indices per block row, ascending.
    col_idx: Vec<usize>,
    /// The `[p0, p1)` k-range of each enabled block, aligned with
    /// `col_idx`. Ascending within a row — this is what pins the
    /// canonical accumulation order.
    col_ranges: Vec<(usize, usize)>,
    /// The ascending, merged union of every enabled block's `k` range:
    /// the only right-operand rows the kernel ever reads.
    read_ranges: Vec<(usize, usize)>,
    /// Packed enabled values (see type docs for layout).
    values: Vec<f32>,
    /// Offset of each block row's packed values; `len = block_rows + 1`.
    row_values_ofs: Vec<usize>,
    /// Zero-free certificate of every `MR`-row sub-panel of `values`,
    /// block row by block row (see [`Self::sub_panels`]).
    zero_free: Vec<bool>,
    total_blocks: usize,
}

impl BlockSparseWeights {
    /// Compiles masked dense weights `a` (`[m, k]` row-major, entries
    /// outside enabled blocks **must already be zero**) against
    /// `pattern` into block-CSR form.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != pattern.m * pattern.k` or the pattern is
    /// inconsistent.
    pub fn compile(a: &[f32], pattern: &BlockPattern) -> Self {
        pattern.validate();
        assert_eq!(
            a.len(),
            pattern.m * pattern.k,
            "BlockSparseWeights::compile: weight length mismatch"
        );
        let (brows, bcols) = (pattern.block_rows(), pattern.block_cols());
        let mut row_ptr = Vec::with_capacity(brows + 1);
        let mut col_idx = Vec::new();
        let mut col_ranges = Vec::new();
        let mut row_values_ofs = Vec::with_capacity(brows + 1);
        let mut values_len = 0usize;
        let mut sub_panels = 0usize;
        row_ptr.push(0);
        row_values_ofs.push(0);
        for bi in 0..brows {
            let rows_in = pattern.tm.min(pattern.m - bi * pattern.tm);
            let mut ks = 0usize;
            for bj in 0..bcols {
                if pattern.keep[bi * bcols + bj] {
                    let p0 = bj * pattern.tk;
                    let p1 = (p0 + pattern.tk).min(pattern.k);
                    col_idx.push(bj);
                    col_ranges.push((p0, p1));
                    ks += p1 - p0;
                }
            }
            row_ptr.push(col_idx.len());
            values_len += rows_in.div_ceil(MR) * ks * MR;
            sub_panels += rows_in.div_ceil(MR);
            row_values_ofs.push(values_len);
        }
        let mut read_ranges: Vec<(usize, usize)> = Vec::new();
        for bj in 0..bcols {
            if !(0..brows).any(|bi| pattern.keep[bi * bcols + bj]) {
                continue;
            }
            let p0 = bj * pattern.tk;
            let p1 = (p0 + pattern.tk).min(pattern.k);
            match read_ranges.last_mut() {
                Some(last) if last.1 == p0 => last.1 = p1,
                _ => read_ranges.push((p0, p1)),
            }
        }
        let mut bs = BlockSparseWeights {
            m: pattern.m,
            k: pattern.k,
            tm: pattern.tm,
            row_ptr,
            col_idx,
            col_ranges,
            read_ranges,
            values: vec![0.0; values_len],
            row_values_ofs,
            zero_free: vec![false; sub_panels],
            total_blocks: brows * bcols,
        };
        bs.refresh(a);
        bs
    }

    /// Repacks the enabled-block values from `a` without changing the
    /// block structure or reallocating — the retraining-loop fast path
    /// (weights change every step; enabled blocks do not).
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` disagrees with the compiled shape.
    pub fn refresh(&mut self, a: &[f32]) {
        assert_eq!(
            a.len(),
            self.m * self.k,
            "BlockSparseWeights::refresh: weight length mismatch"
        );
        for bi in 0..self.block_rows() {
            let i0 = bi * self.tm;
            let subs = self.sub_panels(bi);
            pack_block_row(
                a,
                self.k,
                i0,
                self.tm.min(self.m - i0),
                &self.col_ranges[self.row_ptr[bi]..self.row_ptr[bi + 1]],
                &mut self.values[self.row_values_ofs[bi]..self.row_values_ofs[bi + 1]],
                &mut self.zero_free[subs],
            );
        }
    }

    /// The indices into `zero_free` of block row `bi`'s sub-panels. Every
    /// block row but the last holds `tm` rows, so they start at a fixed
    /// stride; the last one's count follows its real rows.
    fn sub_panels(&self, bi: usize) -> std::ops::Range<usize> {
        let start = bi * self.tm.div_ceil(MR);
        start..start + self.tm.min(self.m - bi * self.tm).div_ceil(MR)
    }

    /// Rows of the compiled weight matrix.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Columns (inner dimension) of the compiled weight matrix.
    pub fn cols(&self) -> usize {
        self.k
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// The right-operand rows the kernel reads: the ascending, merged
    /// union of every enabled block's `[p0, p1)` `k` range. A pack
    /// callback of [`gemm_bs_with_packer`] is asked for exactly these.
    pub fn read_ranges(&self) -> &[(usize, usize)] {
        &self.read_ranges
    }

    /// Number of enabled blocks (block-CSR entries).
    pub fn enabled_blocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Total blocks in the grid, enabled or not.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }
}

/// Block-sparse GEMM: `w (compiled [m, k]) x b [k, n] -> out [m, n]`,
/// visiting **only enabled blocks**.
///
/// [`gemm_bs_with_packer`] with a row-major matrix operand: only the
/// rows of `b` inside [`BlockSparseWeights::read_ranges`] are packed.
/// Bitwise identical to [`gemm_into`] on the masked dense weights.
///
/// # Panics
///
/// Panics if slice lengths disagree with the compiled dimensions.
pub fn gemm_bs_into(w: &BlockSparseWeights, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(b.len(), w.k * n, "gemm_bs_into: rhs length mismatch");
    gemm_bs_with_packer(w, n, out, |ranges, packed| {
        pack_b_nn(b, w.k, n, ranges, packed)
    });
}

/// `true` when `[p0, p1)` lies inside one of the merged `ranges`.
fn covered(ranges: &[(usize, usize)], (p0, p1): (usize, usize)) -> bool {
    ranges.iter().any(|&(r0, r1)| r0 <= p0 && p1 <= r1)
}

/// Block-sparse GEMM whose right operand comes from a pack callback:
/// `w (compiled [m, k]) x (packed by pack) [k, n] -> out [m, n]`,
/// visiting **only enabled blocks**.
///
/// `pack(ranges, packed)` is asked for the rows
/// [`BlockSparseWeights::read_ranges`] of the packed panel image (layout
/// in the module docs); rows a pruned block column would have read are
/// neither packed nor loaded, so a pruned block saves its load as well
/// as its compute, as on the accelerator. Each block row then
/// streams its compacted value panels against the enabled `k`
/// sub-ranges of the packed panels. Because disabled blocks of the
/// compiled weights are exactly zero and enabled ranges are visited in
/// ascending `k` order, the output is **bitwise identical** to
/// [`gemm_into`] on the masked dense weights — the CPU mirror of the
/// accelerator's lossless block skip. Work scales with the enabled
/// fraction, which is where the pruning speedup comes from.
///
/// # Panics
///
/// Panics if `out` disagrees with the compiled dimensions.
pub fn gemm_bs_with_packer(
    w: &BlockSparseWeights,
    n: usize,
    out: &mut [f32],
    pack: impl FnOnce(&[(usize, usize)], &mut [f32]),
) {
    assert_eq!(
        out.len(),
        w.m * n,
        "gemm_bs_with_packer: out length mismatch"
    );
    if w.m == 0 || n == 0 {
        return;
    }
    with_scratch(&PACK_SCRATCH, panel_count(n) * w.k * NR, |packed| {
        pack(&w.read_ranges, packed);
        // The scratch is reused across calls, so rows outside
        // `read_ranges` still hold whatever an earlier product on this
        // thread left there (NaN included). They are never read: the
        // kernel walks only each block row's enabled ranges, and every
        // one of those lies inside `read_ranges`.
        debug_assert!(w.col_ranges.iter().all(|&r| covered(&w.read_ranges, r)));
        run_block_rows(w.m, w.tm, w.k, n, packed, out, |bi| {
            (
                &w.col_ranges[w.row_ptr[bi]..w.row_ptr[bi + 1]],
                &w.values[w.row_values_ofs[bi]..w.row_values_ofs[bi + 1]],
                &w.zero_free[w.sub_panels(bi)],
            )
        });
    });
}

/// The band driver behind every packed product: `out [m, n]` from the
/// right panel image `packed` (`k` rows) and a left operand of block
/// rows of `tm` rows, where `block_row(bi)` gives block row `bi`'s
/// ascending enabled `k` ranges, their `[MR-row sub-panel][ks][MR]`
/// values (layout in the module docs) and one zero-free certificate per
/// sub-panel, which picks the tile's body. `out` is fully overwritten.
///
/// Each worker owns a contiguous band of whole block rows and walks
/// **panel-outer, block-row-inner**: one `k x NR` panel (a few KB)
/// stays L1-resident while every tile of the band consumes it, and the
/// packed image is streamed once per worker instead of once per tile.
/// The left operand is the re-read operand instead — on the
/// conv-as-GEMM shapes this crate cares about it is by far the smaller
/// one, so it stays in cache across panels. Every output element is
/// computed wholly inside one worker in the canonical order, so band
/// boundaries (and therefore `P3D_THREADS`) cannot affect results.
fn run_block_rows<'a>(
    m: usize,
    tm: usize,
    k: usize,
    n: usize,
    packed: &[f32],
    out: &mut [f32],
    block_row: impl Fn(usize) -> (&'a [(usize, usize)], &'a [f32], &'a [bool]) + Sync,
) {
    let brows = m.div_ceil(tm);
    // The tile kernel's AVX2 body indexes the panel unchecked, so every
    // range must lie inside its `k` rows. (Each sub-panel is sliced to
    // exactly `MR` values per range step below.)
    for bi in 0..brows {
        let ranges = block_row(bi).0;
        assert!(ranges.iter().all(|&(p0, p1)| p0 <= p1 && p1 <= k));
    }
    let workers = max_threads().clamp(1, brows);
    let band_brows = brows.div_ceil(workers);
    parallel_chunk_map(out, band_brows * tm * n, |ci, band| {
        for jp in 0..panel_count(n) {
            let j0 = jp * NR;
            let jw = NR.min(n - j0);
            let panel = &packed[jp * k * NR..(jp + 1) * k * NR];
            for (bl, o_block) in band.chunks_mut(tm * n).enumerate() {
                let (ranges, values, zero_free) = block_row(ci * band_brows + bl);
                let ks: usize = ranges.iter().map(|&(p0, p1)| p1 - p0).sum();
                for (s, o_rows) in o_block.chunks_mut(MR * n).enumerate() {
                    let sub = &values[s * ks * MR..(s + 1) * ks * MR];
                    // A ragged last sub-panel runs the full tile. Its
                    // padding rows must be zero, so the guarded body
                    // skips them and the certified one at worst turns a
                    // non-finite panel value into a NaN accumulator;
                    // either way their accumulators are dropped.
                    debug_assert!(sub
                        .chunks_exact(MR)
                        .all(|lanes| lanes[o_rows.len() / n..].iter().all(|&v| v == 0.0)));
                    let mut acc = [[0.0f32; NR]; MR];
                    if zero_free[s] {
                        tile::<false>(ranges, sub, panel, &mut acc);
                    } else {
                        tile::<true>(ranges, sub, panel, &mut acc);
                    }
                    for (o_row, acc_row) in o_rows.chunks_exact_mut(n).zip(&acc) {
                        o_row[j0..j0 + jw].copy_from_slice(&acc_row[..jw]);
                    }
                }
            }
        }
    });
}

/// The `MR x NR` register tile: one `MR`-row sub-panel against the
/// enabled `k` ranges of one packed panel, `acc[ir][j] = sum over the
/// ranges' p of sub[q(p)][ir] * panel[p][j]`. Four named `[f32; NR]`
/// accumulators live in SIMD registers across the whole traversal; the
/// inner loop touches memory only to read one `NR`-wide panel row and
/// `MR` contiguous left scalars per `p` step.
///
/// Dispatches between the explicit AVX2 body and the portable scalar
/// body via [`crate::simd::use_avx2`]; the two are **bitwise identical**
/// (see [`avx2`] module docs), so the choice is invisible to every
/// bitwise gate. `GUARD` keeps the per-weight zero test; only a
/// zero-free sub-panel (module docs, "Zero-skip contract") may run
/// without it.
#[inline]
fn tile<const GUARD: bool>(
    ranges: &[(usize, usize)],
    sub: &[f32],
    panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx2() {
        // SAFETY: use_avx2() is true only when runtime detection proved
        // AVX2 support, which is exactly the target_feature the kernel
        // requires; `run_block_rows`, the only caller, asserts the slice
        // invariants once per product.
        unsafe { avx2::tile::<GUARD>(ranges, sub, panel, acc) };
        return;
    }
    tile_scalar::<GUARD>(ranges, sub, panel, acc);
}

/// Portable body of [`tile`].
///
/// The `NR`-wide updates are branch-free with fixed trip counts, so
/// they autovectorize. With `GUARD`, the zero-skip guard sits *outside*
/// them, one scalar test per `(p, row)`, which honours the contract (a
/// zero left entry never loads the right operand) while skipping all
/// `NR` multiplies of a pruned weight at once. Without it every row is
/// updated: only sound on a zero-free sub-panel, where the guard would
/// never have skipped.
fn tile_scalar<const GUARD: bool>(
    ranges: &[(usize, usize)],
    sub: &[f32],
    panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    let mut c0 = [0.0f32; NR];
    let mut c1 = [0.0f32; NR];
    let mut c2 = [0.0f32; NR];
    let mut c3 = [0.0f32; NR];
    let mut q = 0usize;
    for &(p0, p1) in ranges {
        let len = p1 - p0;
        let bpart = panel[p0 * NR..p1 * NR].chunks_exact(NR);
        let apart = sub[q * MR..(q + len) * MR].chunks_exact(MR);
        for (avs, bvec) in apart.zip(bpart) {
            let a: &[f32; MR] = avs.try_into().expect("sub chunk is MR wide");
            let bv: &[f32; NR] = bvec.try_into().expect("panel chunk is NR wide");
            if !GUARD || a[0] != 0.0 {
                for j in 0..NR {
                    c0[j] += a[0] * bv[j];
                }
            }
            if !GUARD || a[1] != 0.0 {
                for j in 0..NR {
                    c1[j] += a[1] * bv[j];
                }
            }
            if !GUARD || a[2] != 0.0 {
                for j in 0..NR {
                    c2[j] += a[2] * bv[j];
                }
            }
            if !GUARD || a[3] != 0.0 {
                for j in 0..NR {
                    c3[j] += a[3] * bv[j];
                }
            }
        }
        q += len;
    }
    acc[0] = c0;
    acc[1] = c1;
    acc[2] = c2;
    acc[3] = c3;
}

/// Explicit AVX2 twin of the tile kernel's scalar body.
///
/// With `NR == 8`, one `[f32; NR]` accumulator row is exactly one
/// `__m256`, so the scalar update `c[j] += a * bv[j]` (independent
/// per-lane multiply, then per-lane add) maps 1:1 onto
/// `_mm256_add_ps(c, _mm256_mul_ps(broadcast(a), bv))` — the **same two
/// IEEE-754 roundings per lane in the same order**, which is why this
/// body is bitwise identical to the scalar one and every
/// existing bitwise gate keeps pinning them. `_mm256_fmadd_ps` is
/// deliberately **not** used: a fused multiply-add performs a single
/// rounding and would change low bits. The zero-skip guard (`GUARD`)
/// stays a scalar test per `(p, row)` outside the vector ops, preserving
/// the contract that a zero left entry contributes no arithmetic (the
/// NaN-poison tests in `gemm_properties` cover this on both paths); the
/// unguarded body serves zero-free sub-panels only.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MR, NR};
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    // One accumulator row == one 256-bit vector; the body below
    // assumes it.
    const _: () = assert!(NR == 8);
    const _: () = assert!(MR == 4);

    /// AVX2 body of [`super::tile`]: the scalar body's update, one
    /// `__m256` per accumulator row.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers gate on
    /// [`crate::simd::use_avx2`]). Slice invariants are the scalar
    /// body's: `sub` holds `MR` values per `p` of `ranges`, and `panel`
    /// holds `NR` values for every `p` of `ranges`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tile<const GUARD: bool>(
        ranges: &[(usize, usize)],
        sub: &[f32],
        panel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        let pb = panel.as_ptr();
        let sb = sub.as_ptr();
        let mut q = 0usize;
        for &(p0, p1) in ranges {
            for p in p0..p1 {
                debug_assert!((q + 1) * MR <= sub.len() && (p + 1) * NR <= panel.len());
                let bv = _mm256_loadu_ps(pb.add(p * NR));
                let av = sb.add(q * MR);
                let a0 = *av;
                let a1 = *av.add(1);
                let a2 = *av.add(2);
                let a3 = *av.add(3);
                if !GUARD || a0 != 0.0 {
                    c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(a0), bv));
                }
                if !GUARD || a1 != 0.0 {
                    c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(a1), bv));
                }
                if !GUARD || a2 != 0.0 {
                    c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(a2), bv));
                }
                if !GUARD || a3 != 0.0 {
                    c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(a3), bv));
                }
                q += 1;
            }
        }
        _mm256_storeu_ps(acc[0].as_mut_ptr(), c0);
        _mm256_storeu_ps(acc[1].as_mut_ptr(), c1);
        _mm256_storeu_ps(acc[2].as_mut_ptr(), c2);
        _mm256_storeu_ps(acc[3].as_mut_ptr(), c3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::set_thread_override;
    use crate::TensorRng;

    fn dense_masked(a: &[f32], pat: &BlockPattern) -> Vec<f32> {
        let bcols = pat.block_cols();
        let mut out = a.to_vec();
        for (i, v) in out.iter_mut().enumerate() {
            let (r, c) = (i / pat.k, i % pat.k);
            if !pat.keep[(r / pat.tm) * bcols + c / pat.tk] {
                *v = 0.0;
            }
        }
        out
    }

    #[test]
    fn packed_matches_naive_bitwise() {
        let mut rng = TensorRng::seed(11);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 1, 16),
            (5, 9, 17),
            (8, 32, 33),
            (16, 27, 40),
            (2, 13, 100),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut naive = vec![0.0f32; m * n];
            let mut packed = vec![1.0f32; m * n]; // poisoned: must be overwritten
            gemm_naive_into(&a, m, k, &b, n, &mut naive);
            gemm_packed_into(&a, m, k, &b, n, &mut packed);
            assert_eq!(naive, packed, "shape ({m},{k},{n})");

            let bt: Vec<f32> = (0..n * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut naive_nt = vec![0.0f32; m * n];
            let mut packed_nt = vec![1.0f32; m * n];
            gemm_naive_nt_into(&a, m, k, &bt, n, &mut naive_nt);
            gemm_packed_nt_into(&a, m, k, &bt, n, &mut packed_nt);
            assert_eq!(naive_nt, packed_nt, "nt shape ({m},{k},{n})");
        }
    }

    #[test]
    fn packed_bitwise_stable_across_threads() {
        let mut rng = TensorRng::seed(3);
        let (m, k, n) = (13, 21, 37);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut reference: Option<Vec<f32>> = None;
        for threads in [1, 2, 5] {
            set_thread_override(Some(threads));
            let mut out = vec![0.0f32; m * n];
            gemm_packed_into(&a, m, k, &b, n, &mut out);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads={threads}"),
            }
        }
        set_thread_override(None);
    }

    #[test]
    fn packed_zero_skip_contract() {
        // A zero left entry must not touch the right operand: poison the
        // corresponding B rows with NaN.
        let (m, k, n) = (5, 3, 20);
        let mut a = vec![0.0f32; m * k];
        for i in 0..m {
            a[i * k + 1] = (i + 1) as f32; // only p = 1 is non-zero
        }
        let mut b = vec![f32::NAN; k * n];
        for j in 0..n {
            b[n + j] = (j % 7) as f32; // row p = 1 is finite
        }
        let mut out = vec![0.0f32; m * n];
        gemm_packed_into(&a, m, k, &b, n, &mut out);
        assert!(out.iter().all(|v| v.is_finite()), "NaN leaked past a zero");
        // Right-operand zeros are NOT skipped: NaN on the left propagates.
        a[1] = f32::NAN;
        gemm_packed_into(&a, m, k, &b, n, &mut out);
        assert!(out[..n].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn block_sparse_matches_dense_bitwise() {
        let mut rng = TensorRng::seed(29);
        for &(m, k, tm, tk, n) in &[
            (16usize, 24usize, 4usize, 6usize, 33usize),
            (10, 20, 3, 7, 16), // ragged edge blocks
            (4, 8, 4, 8, 5),    // single block
            (7, 5, 2, 2, 1),
        ] {
            let pat = BlockPattern {
                m,
                k,
                tm,
                tk,
                keep: (0..m.div_ceil(tm) * k.div_ceil(tk))
                    .map(|i| i % 3 != 0)
                    .collect(),
            };
            let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let masked = dense_masked(&a, &pat);
            let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let bs = BlockSparseWeights::compile(&masked, &pat);
            let mut dense = vec![0.0f32; m * n];
            let mut sparse = vec![1.0f32; m * n];
            gemm_into(&masked, m, k, &b, n, &mut dense);
            gemm_bs_into(&bs, &b, n, &mut sparse);
            assert_eq!(dense, sparse, "shape ({m},{k},{tm},{tk},{n})");
        }
    }

    #[test]
    fn block_sparse_refresh_tracks_weight_updates() {
        let mut rng = TensorRng::seed(7);
        let pat = BlockPattern {
            m: 8,
            k: 12,
            tm: 4,
            tk: 4,
            keep: vec![true, false, true, false, true, true],
        };
        let a: Vec<f32> = (0..96).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let masked = dense_masked(&a, &pat);
        let mut bs = BlockSparseWeights::compile(&masked, &pat);
        assert_eq!(bs.enabled_blocks(), 4);
        assert_eq!(bs.total_blocks(), 6);
        // Update weights (as a retraining step would), refresh, recheck.
        let a2: Vec<f32> = (0..96).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let masked2 = dense_masked(&a2, &pat);
        bs.refresh(&masked2);
        let b: Vec<f32> = (0..12 * 9).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut dense = vec![0.0f32; 8 * 9];
        let mut sparse = vec![0.0f32; 8 * 9];
        gemm_into(&masked2, 8, 12, &b, 9, &mut dense);
        gemm_bs_into(&bs, &b, 9, &mut sparse);
        assert_eq!(dense, sparse);
    }

    #[test]
    fn pack_block_row_certifies_zero_free_sub_panels() {
        // Six rows: one full sub-panel, then two real rows and two
        // padding rows.
        let (k, rows) = (5usize, 6usize);
        let certify = |a: &[f32], ranges: &[(usize, usize)]| {
            let ks: usize = ranges.iter().map(|&(p0, p1)| p1 - p0).sum();
            let mut dst = vec![f32::NAN; rows.div_ceil(MR) * ks * MR];
            let mut zero_free = vec![false; rows.div_ceil(MR)];
            pack_block_row(a, k, 0, rows, ranges, &mut dst, &mut zero_free);
            zero_free
        };
        let whole = [(0, k)];
        let full: Vec<f32> = (0..rows * k).map(|i| i as f32 - 13.5).collect();
        // The ragged sub-panel's zero padding rows do not clear it.
        assert_eq!(certify(&full, &whole), [true, true]);
        for zero in [0.0f32, -0.0] {
            let mut a = full.clone();
            a[k + 3] = zero; // row 1, first sub-panel
            assert_eq!(certify(&a, &whole), [false, true], "{zero:?} in row 1");
            let mut a = full.clone();
            a[5 * k] = zero; // row 5, the ragged sub-panel's last real row
            assert_eq!(certify(&a, &whole), [true, false], "{zero:?} in row 5");
            // A zero outside the packed ranges is never multiplied.
            let mut a = full.clone();
            a[2 * k + 2] = zero;
            assert_eq!(certify(&a, &[(0, 2), (3, 5)]), [true, true]);
        }
    }

    #[test]
    fn block_sparse_certificates_follow_refresh() {
        // Block rows of 6 rows (sub-panels of 4 and 2 rows), the last
        // one 4 rows: three sub-panels in all.
        let pat = BlockPattern {
            m: 10,
            k: 4,
            tm: 6,
            tk: 2,
            keep: vec![true, false, false, true],
        };
        let a: Vec<f32> = (0..40).map(|i| i as f32 + 1.0).collect();
        let masked = dense_masked(&a, &pat);
        // The masked zeros all sit in pruned blocks.
        let mut bs = BlockSparseWeights::compile(&masked, &pat);
        assert_eq!(bs.zero_free, [true, true, true]);
        let mut update = masked.clone();
        update[5 * 4] = -0.0; // row 5: block row 0, second sub-panel
        bs.refresh(&update);
        assert_eq!(bs.zero_free, [true, false, true]);
        let mut update = masked.clone();
        update[7 * 4 + 3] = 0.0; // row 7: block row 1, its one sub-panel
        bs.refresh(&update);
        assert_eq!(bs.zero_free, [true, true, false]);
        bs.refresh(&masked);
        assert_eq!(bs.zero_free, [true, true, true]);
    }

    #[test]
    fn block_sparse_all_disabled_is_zero() {
        let pat = BlockPattern {
            m: 6,
            k: 6,
            tm: 3,
            tk: 3,
            keep: vec![false; 4],
        };
        let bs = BlockSparseWeights::compile(&[0.0; 36], &pat);
        let b = vec![f32::NAN; 6 * 4]; // never touched: all blocks skipped
        let mut out = vec![1.0f32; 6 * 4];
        gemm_bs_into(&bs, &b, 4, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
