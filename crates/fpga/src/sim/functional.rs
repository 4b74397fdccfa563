//! The **fast functional** Q7.8 convolution path used for serving.
//!
//! [`run_conv_functional`] computes exactly the same outputs and
//! statistics as the cycle-approximate engine in [`crate::sim::cycle`],
//! restructured like the hardware's input-tile loop (Algorithm 2,
//! Fig. 2) rather than its MAC array:
//!
//! * **Lowered input tiles** — the output volume is walked in chunks of
//!   whole output rows, sized so the chunk's input tile holds at most
//!   [`TILE_WORDS`] `i16` words. Each chunk lowers the input once into a
//!   per-thread tile with one row per `(input channel, kernel tap)`:
//!   that row of the im2col column matrix over the chunk's window of
//!   output lines, zero in the padding, written by the f32 engines' own
//!   walk ([`p3d_nn::im2col::lower_row`]). Stride and padding are
//!   resolved there, once per chunk, so the compute loop never sees them.
//! * **One register-tiled kernel per block row** — a `Tm x Tn` block
//!   grid means every output channel of block row `bi` reads the same
//!   input channels, so the row's enabled blocks reduce to one list of
//!   tile-row runs, and its weights are packed once per call into a
//!   panel in that order. The kernel walks the row's channels in groups
//!   of up to 4 and the chunk in strips of 8 positions, holding the
//!   4 x 8 exact `i64` sums in registers across the whole run list, then
//!   rounds and saturates each sum once. A block row's last group is
//!   padded in the panel to 4 channels with zero weights, so every group
//!   is a full one; only its real channels are written. Full 8-position
//!   strips go through an AVX2 body when [`p3d_tensor::simd::use_avx2`]
//!   allows; ragged strips, and non-AVX2 hosts, through a scalar body
//!   that is bitwise identical by construction. The same kernel serves
//!   every stride and every tap.
//! * **Block-enable skipping** — disabled `(bi, bj)` blocks contribute
//!   neither arithmetic nor, when no block row reads an input channel,
//!   lowering; a block row with no enabled block is never visited (its
//!   outputs are exact zeros).
//!
//! # Why the two engines are bitwise identical
//!
//! Both paths accumulate **every** contribution of an output element in
//! a wide integer register (`i64`) exactly, then round-and-saturate
//! once with the same `(acc + 128) >> 8` rule. Integer addition is
//! associative and commutative, so the loop order — tiled there,
//! lowered and chunked here, vectorized or not — cannot change a single
//! bit, and a lowered padding word or a zero weight adds nothing. The
//! `conv_differential` suite pins this on random geometries and on
//! every lite-wide layer; the statistics (cycles included) are
//! reproduced analytically from the same tile walk the cycle engine
//! executes, so the whole `(output, ConvStats)` pair is equal, not just
//! the tensor.

use crate::config::AcceleratorConfig;
use crate::latency::tile_terms;
use crate::sim::cycle::ConvStats;
use p3d_core::LayerBlockMask;
use p3d_models::ConvInstance;
use p3d_nn::im2col::{lower_row, ConvGeometry};
use p3d_tensor::fixed::{bits_of, FRAC_BITS};
use p3d_tensor::{simd, Fixed16, FixedTensor, Shape};
use std::cell::RefCell;
use std::ops::Range;

/// Upper bound, in `i16` words, on one lowered input tile (64 KiB, so
/// the tile stays cache-resident while every output channel of its
/// chunk streams over it). A chunk is at least one output row, so a
/// layer whose single row lowers to more than this uses one row.
pub const TILE_WORDS: usize = 32 * 1024;

/// Output channels per register tile.
const GROUP: usize = 4;
/// Output positions per register tile.
const STRIP: usize = 8;

/// Exact sums of one register tile: `[channel][position]`.
type TileSums = [[i64; STRIP]; GROUP];

/// The tile rows of one enabled block column: consecutive, as are
/// their weights within each output channel's `[N * Kd * Kr * Kc]`
/// weight row.
struct Run {
    /// First tile row.
    row: usize,
    /// Offset of its weight within an output channel's weight row.
    w: usize,
    /// Number of tile rows.
    len: usize,
}

/// Per-thread kernel scratch, grown on first use and reused by every
/// layer of every clip the thread simulates.
#[derive(Default)]
struct KernelScratch {
    /// The lowered input tile of one chunk.
    tile: Vec<i16>,
    /// Tile row of each input channel's first tap; `None` when no
    /// enabled block reads the channel, so it is never lowered.
    first_row: Vec<Option<usize>>,
    /// The tile-row runs of every block row, in block-row order.
    runs: Vec<Run>,
    /// `runs[row_runs[bi]]` are block row `bi`'s runs.
    row_runs: Vec<Range<usize>>,
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Runs `f` on this thread's kernel scratch.
fn with_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let r = f(&mut scratch);
        cell.replace(scratch);
        r
    })
}

/// Runs one convolution layer through the fast functional path,
/// allocating a fresh weight-panel buffer.
///
/// Same contract as [`crate::sim::run_conv`]; batch loops should use
/// [`run_conv_functional_with_scratch`] to reuse the buffer.
///
/// # Panics
///
/// Panics on any shape mismatch between `inst`, `weights` and `input`.
pub fn run_conv_functional(
    inst: &ConvInstance,
    weights: &FixedTensor,
    input: &FixedTensor,
    mask: Option<&LayerBlockMask>,
    config: &AcceleratorConfig,
) -> (FixedTensor, ConvStats) {
    let mut panel = Vec::new();
    run_conv_functional_with_scratch(inst, weights, input, mask, config, &mut panel)
}

/// [`run_conv_functional`] with a caller-owned `i64` buffer that holds
/// the packed weight panel of every block row (one entry per weight
/// of an enabled block, plus the zero weights that pad each block row's
/// last channel group to a full one; grown on first use). With it
/// reused, a call allocates only its output tensor once the per-thread
/// kernel scratch has grown to the largest layer.
pub fn run_conv_functional_with_scratch(
    inst: &ConvInstance,
    weights: &FixedTensor,
    input: &FixedTensor,
    mask: Option<&LayerBlockMask>,
    config: &AcceleratorConfig,
    panel: &mut Vec<i64>,
) -> (FixedTensor, ConvStats) {
    let (n_ch, di, hi, wi) = inst.input;
    let (m_ch, od, oh, ow) = inst.output;
    let (kd, kr, kc) = inst.spec.kernel;
    assert_eq!(
        weights.shape().dims(),
        &[m_ch, n_ch, kd, kr, kc],
        "weight shape mismatch for {}",
        inst.spec.name
    );
    assert_eq!(
        input.shape().dims(),
        &[n_ch, di, hi, wi],
        "input shape mismatch for {}",
        inst.spec.name
    );

    let t = &config.tiling;
    let rows = m_ch.div_ceil(t.tm);
    let cols = n_ch.div_ceil(t.tn);
    if let Some(mask) = mask {
        assert_eq!(
            (mask.grid.rows(), mask.grid.cols()),
            (rows, cols),
            "mask grid mismatch for {}",
            inst.spec.name
        );
    }
    let enabled = |bi: usize, bj: usize| mask.is_none_or(|m| m.is_enabled(bi, bj));

    let geom = ConvGeometry {
        channels: n_ch,
        input: (di, hi, wi),
        kernel: inst.spec.kernel,
        stride: inst.spec.stride,
        pad: inst.spec.pad,
    };

    let mut stats = stats_from_tile_walk(inst, mask, config);
    let mut out = FixedTensor::zeros(Shape::d4(m_ch, od, oh, ow));
    stats.saturated_words = with_scratch(|scratch| {
        let KernelScratch {
            tile,
            first_row,
            runs,
            row_runs,
        } = scratch;

        // Tile row of each input channel's first tap, in channel order.
        let ktaps = kd * kr * kc;
        let mut lowered_rows = 0;
        first_row.clear();
        first_row.extend((0..n_ch).map(|n| {
            let read = (0..rows).any(|bi| enabled(bi, n / t.tn));
            read.then(|| {
                lowered_rows += ktaps;
                lowered_rows - ktaps
            })
        }));
        let out_rows = od * oh;
        if lowered_rows == 0 || out_rows * ow == 0 {
            return 0; // every sum is zero: nothing to compute or rail
        }

        // Each block row's enabled blocks as runs of tile rows, and its
        // weights packed in run order, `[group][k][channel]`, a ragged
        // last group padded to `GROUP` channels with zero weights. The
        // tile rows of one enabled block column are one run: all of its
        // channels are lowered, in channel order.
        let w_bits = bits_of(weights.data());
        runs.clear();
        row_runs.clear();
        panel.clear();
        for bi in 0..rows {
            let first = runs.len();
            runs.extend((0..cols).filter(|&bj| enabled(bi, bj)).map(|bj| {
                let n0 = bj * t.tn;
                Run {
                    row: first_row[n0].expect("an enabled block's channels are lowered"),
                    w: n0 * ktaps,
                    len: (((bj + 1) * t.tn).min(n_ch) - n0) * ktaps,
                }
            }));
            row_runs.push(first..runs.len());
            let m_end = ((bi + 1) * t.tm).min(m_ch);
            for m0 in (bi * t.tm..m_end).step_by(GROUP) {
                for run in &runs[first..] {
                    for i in run.w..run.w + run.len {
                        panel.extend((m0..m0 + GROUP).map(|m| {
                            if m < m_end {
                                w_bits[m * n_ch * ktaps + i] as i64
                            } else {
                                0
                            }
                        }));
                    }
                }
            }
        }

        let chunk_rows = (TILE_WORDS / (lowered_rows * ow)).clamp(1, out_rows);
        if tile.len() < lowered_rows * chunk_rows * ow {
            tile.resize((lowered_rows * chunk_rows * ow).max(TILE_WORDS), 0);
        }
        let x_bits = bits_of(input.data());
        let vol = out_rows * ow;
        let out_data = out.data_mut();
        let use_avx2 = simd::use_avx2();
        let mut railed = 0;
        for row0 in (0..out_rows).step_by(chunk_rows) {
            let chunk = row0..(row0 + chunk_rows).min(out_rows);
            let len = chunk.len() * ow;
            let tile = &mut tile[..lowered_rows * len];
            // Column-matrix rows in tile order: `first_row`'s channels, every tap.
            let lowered = (0..n_ch)
                .filter(|&n| first_row[n].is_some())
                .flat_map(|n| n * ktaps..(n + 1) * ktaps);
            for (tap_row, p) in tile.chunks_exact_mut(len).zip(lowered) {
                lower_row(x_bits, &geom, p, chunk.clone(), tap_row);
            }
            let mut panel_rest = &panel[..];
            for (bi, row_runs) in row_runs.iter().enumerate() {
                let runs = &runs[row_runs.clone()];
                let k: usize = runs.iter().map(|run| run.len).sum();
                let m_end = ((bi + 1) * t.tm).min(m_ch);
                for m0 in (bi * t.tm..m_end).step_by(GROUP) {
                    let g = (m_end - m0).min(GROUP);
                    let (group_panel, rest) = panel_rest.split_at(GROUP * k);
                    panel_rest = rest;
                    if k > 0 {
                        let out = &mut out_data[m0 * vol + row0 * ow..];
                        railed += conv_group(out, vol, tile, len, runs, group_panel, g, use_avx2);
                    }
                }
            }
        }
        railed
    });
    (out, stats)
}

/// Computes output channels `0..g` (`g <= GROUP`, rows `vol` apart in
/// `out`) at the `len` positions of one lowered chunk, reading the
/// tile rows in `runs` against `panel` (`[k][channel]`, `GROUP` entries
/// per tile row, zero past channel `g`). All `GROUP` channels are
/// summed, but only the first `g` are written and counted: the rest
/// would land in the next block row or past the end of `out`. Returns
/// the number of railed output words.
#[allow(clippy::too_many_arguments)]
fn conv_group(
    out: &mut [Fixed16],
    vol: usize,
    tile: &[i16],
    len: usize,
    runs: &[Run],
    panel: &[i64],
    g: usize,
    use_avx2: bool,
) -> u64 {
    let k: usize = runs.iter().map(|run| run.len).sum();
    assert_eq!(panel.len(), GROUP * k, "the panel holds GROUP weights per tile row");
    assert!(
        runs.iter()
            .all(|run| (run.row + run.len) * len <= tile.len()),
        "every run lies inside the tile"
    );
    let mut j = 0;
    let mut railed = 0;
    #[cfg(target_arch = "x86_64")]
    if use_avx2 {
        // SAFETY: use_avx2 came from simd::use_avx2(), which is true only
        // when runtime detection proved AVX2 support; the asserts above
        // prove that `tile` holds `len` words for every tile row of
        // `runs` and that `panel` holds `GROUP` weights per tile row.
        (j, railed) = unsafe { avx2::full_tiles(out, vol, tile, len, runs, panel, g) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx2;
    while j < len {
        let w = (len - j).min(STRIP);
        let mut sums = [[0i64; STRIP]; GROUP];
        let mut weights = panel.chunks_exact(GROUP);
        for run in runs {
            for row in run.row..run.row + run.len {
                let x = &tile[row * len + j..][..w];
                let wk = weights.next().expect("panel holds GROUP weights per tile row");
                for (acc, &wv) in sums.iter_mut().zip(wk) {
                    for (a, &xv) in acc.iter_mut().zip(x) {
                        *a += wv * xv as i64;
                    }
                }
            }
        }
        railed += finish(out, vol, j, &sums, g, w);
        j += w;
    }
    railed
}

/// Rounds and saturates the first `g x w` sums of a register tile into
/// `out` at position `j` (channel rows `vol` apart): the same
/// `(acc + 128) >> 8` rule as `MacAccumulator::finish`, counting railed
/// words for the saturation-anomaly signal.
#[inline(always)]
fn finish(out: &mut [Fixed16], vol: usize, j: usize, sums: &TileSums, g: usize, w: usize) -> u64 {
    const LO: i64 = i16::MIN as i64;
    const HI: i64 = i16::MAX as i64;
    let mut railed = 0;
    for (c, acc) in sums[..g].iter().enumerate() {
        for (o, &a) in out[c * vol + j..][..w].iter_mut().zip(acc) {
            let rounded = (a + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
            let clamped = rounded.clamp(LO, HI);
            railed += u64::from(clamped != rounded);
            *o = Fixed16::from_bits(clamped as i16);
        }
    }
    railed
}

/// Reproduces the cycle engine's statistics — cycles, MACs, skipped
/// blocks, buffer traffic — from the same tile walk it executes, without
/// touching any data. `saturated_words` is left at zero for the compute
/// pass to fill in.
///
/// Keeping the counters identical (not merely equivalent) means the
/// functional path returns the *same* `ConvStats` as the cycle engine,
/// so the differential suite can assert equality of the whole result
/// pair and serving keeps exact latency estimates for free.
fn stats_from_tile_walk(
    inst: &ConvInstance,
    mask: Option<&LayerBlockMask>,
    config: &AcceleratorConfig,
) -> ConvStats {
    let (n_ch, _, _, _) = inst.input;
    let (m_ch, od, oh, ow) = inst.output;
    let (kd, kr, kc) = inst.spec.kernel;
    let (sd, sr, sc) = inst.spec.stride;
    let t = &config.tiling;
    let rows = m_ch.div_ceil(t.tm);
    let cols = n_ch.div_ceil(t.tn);
    let mut stats = ConvStats::default();
    let mut last_t_out = 0u64;
    for d0 in (0..od).step_by(t.td) {
        for r0 in (0..oh).step_by(t.tr) {
            for c0 in (0..ow).step_by(t.tc) {
                let dd = (d0 + t.td).min(od) - d0;
                let rr = (r0 + t.tr).min(oh) - r0;
                let cc = (c0 + t.tc).min(ow) - c0;
                let (t_wgt, t_in, t_comp, t_out) =
                    tile_terms(inst, t, &config.ports, (dd, rr, cc));
                for bi in 0..rows {
                    let msize = ((bi + 1) * t.tm).min(m_ch) - bi * t.tm;
                    let mut enabled_blocks = 0u64;
                    for bj in 0..cols {
                        let enabled = mask.map(|m| m.is_enabled(bi, bj)).unwrap_or(true);
                        if !enabled {
                            stats.blocks_skipped += 1;
                            continue;
                        }
                        enabled_blocks += 1;
                        let nsize = ((bj + 1) * t.tn).min(n_ch) - bj * t.tn;
                        stats.weight_words += (msize * nsize * kd * kr * kc) as u64;
                        stats.macs += (msize * nsize * kd * kr * kc * dd * rr * cc) as u64;
                        stats.input_words += (nsize
                            * ((dd - 1) * sd + kd)
                            * ((rr - 1) * sr + kr)
                            * ((cc - 1) * sc + kc)) as u64;
                    }
                    stats.output_words += (msize * dd * rr * cc) as u64;
                    let t_l3 = t_wgt.max(t_in).max(t_comp);
                    stats.cycles += if enabled_blocks == 0 {
                        t_out
                    } else {
                        (t_l3 * enabled_blocks + t_comp).max(t_out)
                    };
                    last_t_out = t_out;
                }
            }
        }
    }
    stats.cycles += last_t_out; // Eq. 25: final non-overlapped store.
    stats
}

/// AVX2 body of the register-tiled kernel.
///
/// Per tile row, eight `i16` inputs are sign-extended to two vectors of
/// four `i64` lanes and multiplied by each channel's weight, broadcast
/// from the low half of its `i64` panel entry, with
/// `_mm256_mul_epi32`: a signed 32 x 32 -> 64-bit product of the low
/// halves, exact for every `i16` pair including `(-2^15)^2`. The 4 x 8 sums stay in eight registers
/// for the whole run list and are added in `i64`, so no partial sum can
/// overflow. `_mm256_madd_epi16` is deliberately avoided — its
/// paired-product `i32` sums can overflow at the rails
/// (`(-32768)^2 * 2 > i32::MAX`), while this sequence is exact for
/// every input, which is what makes the scalar body bitwise identical.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{finish, Run, TileSums, GROUP, STRIP};
    use p3d_tensor::Fixed16;
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi64, _mm256_cvtepi16_epi64, _mm256_mul_epi32,
        _mm256_set1_epi32, _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadl_epi64,
    };

    /// Computes every full 8-position strip of a 4-channel group and
    /// writes its first `g` channels (the contract of
    /// `super::conv_group`), returning the first position left for the
    /// scalar body and the railed words.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers gate on
    /// [`p3d_tensor::simd::use_avx2`]). `tile` must hold `len` words for
    /// every tile row in `runs`, and `panel` `GROUP` weights per tile
    /// row of `runs`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn full_tiles(
        out: &mut [Fixed16],
        vol: usize,
        tile: &[i16],
        len: usize,
        runs: &[Run],
        panel: &[i64],
        g: usize,
    ) -> (usize, u64) {
        let mut railed = 0;
        let mut j = 0;
        while j + STRIP <= len {
            let mut acc = [_mm256_setzero_si256(); 2 * GROUP];
            let mut wp = panel.as_ptr();
            for run in runs {
                // SAFETY: `run.row * len + j + STRIP <= (run.row + 1) * len`,
                // inside `tile` by this function's contract.
                let mut xp = unsafe { tile.as_ptr().add(run.row * len + j) };
                for _ in 0..run.len {
                    // SAFETY: `xp` points at `STRIP` in-bounds words of
                    // the current tile row (8-byte unaligned loads), and
                    // `wp` at the row's `GROUP` panel weights; both
                    // advance one tile row per iteration, and the
                    // pointer step after the last row is only computed,
                    // never read.
                    unsafe {
                        let lo = _mm256_cvtepi16_epi64(_mm_loadl_epi64(xp as *const __m128i));
                        let hi =
                            _mm256_cvtepi16_epi64(_mm_loadl_epi64(xp.add(4) as *const __m128i));
                        for c in 0..GROUP {
                            // `mul_epi32` reads only each lane's low
                            // dword, so broadcasting the entry's low
                            // half (the whole `i16` weight) is one load.
                            let w = _mm256_set1_epi32(*wp.add(c) as i32);
                            acc[2 * c] = _mm256_add_epi64(acc[2 * c], _mm256_mul_epi32(lo, w));
                            acc[2 * c + 1] =
                                _mm256_add_epi64(acc[2 * c + 1], _mm256_mul_epi32(hi, w));
                        }
                        wp = wp.add(GROUP);
                        xp = xp.wrapping_add(len);
                    }
                }
            }
            let mut sums: TileSums = [[0; STRIP]; GROUP];
            for (c, s) in sums.iter_mut().enumerate() {
                // SAFETY: each `s` holds 8 `i64`s, two unaligned
                // 256-bit stores.
                unsafe {
                    _mm256_storeu_si256(s.as_mut_ptr() as *mut __m256i, acc[2 * c]);
                    _mm256_storeu_si256(s.as_mut_ptr().add(4) as *mut __m256i, acc[2 * c + 1]);
                }
            }
            railed += finish(out, vol, j, &sums, g, STRIP);
            j += STRIP;
        }
        (j, railed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ports, Tiling};
    use crate::sim::cycle::run_conv;
    use p3d_core::{BlockGrid, BlockShape, LayerBlockMask};
    use p3d_models::{Conv3dSpec, ConvInstance};
    use p3d_tensor::{TensorRng, Tensor};

    fn inst(stride: (usize, usize, usize), pad: (usize, usize, usize)) -> ConvInstance {
        let (kd, kr, kc) = (1, 3, 3);
        let (n_ch, di, hi, wi) = (6, 2, 8, 8);
        let od = (di + 2 * pad.0 - kd) / stride.0 + 1;
        let oh = (hi + 2 * pad.1 - kr) / stride.1 + 1;
        let ow = (wi + 2 * pad.2 - kc) / stride.2 + 1;
        ConvInstance {
            spec: Conv3dSpec {
                name: "t".into(),
                stage: "s".into(),
                out_channels: 4,
                in_channels: n_ch,
                kernel: (kd, kr, kc),
                stride,
                pad,
                bias: false,
            },
            input: (n_ch, di, hi, wi),
            output: (4, od, oh, ow),
        }
    }

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig {
            tiling: Tiling::new(2, 2, 2, 4, 4),
            ports: Ports::new(2, 2, 2),
            freq_mhz: 150.0,
            data_bits: 16,
        }
    }

    #[test]
    fn functional_equals_cycle_engine_dense() {
        for (stride, pad) in [
            ((1, 1, 1), (0, 1, 1)),
            ((1, 2, 2), (0, 0, 0)),
            ((1, 1, 1), (0, 0, 0)),
        ] {
            let inst = inst(stride, pad);
            let mut rng = TensorRng::seed(21);
            let w = FixedTensor::quantize(&rng.uniform_tensor([4, 6, 1, 3, 3], -0.4, 0.4));
            let x = FixedTensor::quantize(&rng.uniform_tensor([6, 2, 8, 8], -0.9, 0.9));
            let (a, sa) = run_conv(&inst, &w, &x, None, &cfg());
            let (b, sb) = run_conv_functional(&inst, &w, &x, None, &cfg());
            assert_eq!(a, b, "outputs diverged at stride {stride:?} pad {pad:?}");
            assert_eq!(sa, sb, "stats diverged at stride {stride:?} pad {pad:?}");
        }
    }

    #[test]
    fn functional_equals_cycle_engine_masked() {
        let inst = inst((1, 1, 1), (0, 1, 1));
        let mut rng = TensorRng::seed(22);
        let mut w = rng.uniform_tensor([4, 6, 1, 3, 3], -0.4, 0.4);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(2, 2));
        grid.zero_block(&mut w, 0, 1);
        grid.zero_block(&mut w, 1, 0);
        let mut keep = vec![true; grid.num_blocks()];
        keep[grid.block_index(0, 1)] = false;
        keep[grid.block_index(1, 0)] = false;
        let mask = LayerBlockMask::new(grid, keep);
        let qw = FixedTensor::quantize(&w);
        let qx = FixedTensor::quantize(&rng.uniform_tensor([6, 2, 8, 8], 0.0, 1.0));
        let (a, sa) = run_conv(&inst, &qw, &qx, Some(&mask), &cfg());
        let (b, sb) = run_conv_functional(&inst, &qw, &qx, Some(&mask), &cfg());
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sb.blocks_skipped > 0);
    }

    #[test]
    fn saturation_counted_identically() {
        let inst = inst((1, 1, 1), (0, 1, 1));
        let w = FixedTensor::quantize(&Tensor::full([4, 6, 1, 3, 3], 100.0));
        let x = FixedTensor::quantize(&Tensor::full([6, 2, 8, 8], 100.0));
        let (a, sa) = run_conv(&inst, &w, &x, None, &cfg());
        let (b, sb) = run_conv_functional(&inst, &w, &x, None, &cfg());
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sb.saturated_words, sb.output_words);
    }
}
