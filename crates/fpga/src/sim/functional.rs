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
//!   the word that tap reads for every output position of the chunk,
//!   zero in the padding. Stride and padding are resolved here, once
//!   per chunk, so the compute loop never sees them.
//! * **One long-row kernel** — every non-zero weight adds its tile row
//!   into the chunk's `i64` accumulator at the full chunk length,
//!   `acc[j] += w * tile[j]`, dispatched through [`p3d_tensor::simd`]
//!   to an AVX2 kernel (exact `i16 -> i32` products widened to `i64`)
//!   with a bitwise-identical scalar fallback. The same kernel serves
//!   every stride and every tap.
//! * **Block-enable skipping** — disabled `(bi, bj)` blocks contribute
//!   neither arithmetic nor, when no block row reads an input channel,
//!   lowering; zero weights inside enabled blocks skip their row update
//!   entirely (exact: a zero product contributes nothing to an integer
//!   sum).
//!
//! # Why the two engines are bitwise identical
//!
//! Both paths accumulate **every** contribution of an output element in
//! a wide integer register (`i64`) exactly, then round-and-saturate
//! once with the same `(acc + 128) >> 8` rule. Integer addition is
//! associative and commutative, so the loop order — tiled there,
//! lowered and chunked here, vectorized or not — cannot change a single
//! bit, and a lowered padding word is a zero that adds nothing. The
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
use p3d_tensor::fixed::{bits_of, FRAC_BITS};
use p3d_tensor::{simd, Fixed16, FixedTensor, Shape};
use std::cell::RefCell;
use std::ops::Range;

/// Upper bound, in `i16` words, on one lowered input tile (64 KiB, so
/// the tile stays cache-resident while every output channel of its
/// chunk streams over it). A chunk is at least one output row, so a
/// layer whose single row lowers to more than this uses one row.
pub const TILE_WORDS: usize = 32 * 1024;

thread_local! {
    /// Per-thread lowered input tile, grown on first use and reused by
    /// every layer of every clip the thread simulates.
    static TILE_SCRATCH: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a scratch slice of exactly `len` words, reusing the
/// thread-local tile buffer across calls. The buffer grows straight to
/// at least [`TILE_WORDS`], so later layers never reallocate it.
fn with_tile_scratch<R>(len: usize, f: impl FnOnce(&mut [i16]) -> R) -> R {
    TILE_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < len {
            buf.resize(len.max(TILE_WORDS), 0);
        }
        let r = f(&mut buf[..len]);
        cell.replace(buf);
        r
    })
}

/// Runs one convolution layer through the fast functional path,
/// allocating a fresh accumulator buffer.
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
    let mut acc64 = Vec::new();
    run_conv_functional_with_scratch(inst, weights, input, mask, config, &mut acc64)
}

/// [`run_conv_functional`] with a caller-owned `i64` accumulator buffer
/// (one entry per output position of a lowered chunk; grown on first
/// use).
pub fn run_conv_functional_with_scratch(
    inst: &ConvInstance,
    weights: &FixedTensor,
    input: &FixedTensor,
    mask: Option<&LayerBlockMask>,
    config: &AcceleratorConfig,
    acc64: &mut Vec<i64>,
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

    let mut stats = stats_from_tile_walk(inst, mask, config);
    let mut out = FixedTensor::zeros(Shape::d4(m_ch, od, oh, ow));

    // Tile row of each input channel's first tap, in channel order.
    // Channels that no enabled block reads are never lowered.
    let ktaps = kd * kr * kc;
    let mut lowered_rows = 0;
    let first_row: Vec<Option<usize>> = (0..n_ch)
        .map(|n| {
            let read = (0..rows).any(|bi| enabled(bi, n / t.tn));
            read.then(|| {
                lowered_rows += ktaps;
                lowered_rows - ktaps
            })
        })
        .collect();
    let out_rows = od * oh;
    if lowered_rows == 0 || out_rows * ow == 0 {
        return (out, stats); // every sum is zero: nothing to compute or rail
    }
    let chunk_rows = (TILE_WORDS / (lowered_rows * ow)).clamp(1, out_rows);

    let w_bits = bits_of(weights.data());
    let x_bits = bits_of(input.data());
    let vol = out_rows * ow;
    acc64.clear();
    acc64.resize(chunk_rows * ow, 0);
    let out_data = out.data_mut();
    let use_avx2 = simd::use_avx2();

    with_tile_scratch(lowered_rows * chunk_rows * ow, |tile| {
        for row0 in (0..out_rows).step_by(chunk_rows) {
            let chunk = row0..(row0 + chunk_rows).min(out_rows);
            let len = chunk.len() * ow;
            let tile = &mut tile[..lowered_rows * len];
            lower_chunk(tile, x_bits, inst, &first_row, chunk);
            let acc = &mut acc64[..len];
            for m in 0..m_ch {
                acc.fill(0);
                let bi = m / t.tm;
                for bj in (0..cols).filter(|&bj| enabled(bi, bj)) {
                    for n in bj * t.tn..((bj + 1) * t.tn).min(n_ch) {
                        let base = first_row[n].expect("an enabled block's channels are lowered");
                        let w = &w_bits[(m * n_ch + n) * ktaps..][..ktaps];
                        for (tap, &wv) in w.iter().enumerate() {
                            if wv != 0 {
                                axpy(acc, &tile[(base + tap) * len..][..len], wv, use_avx2);
                            }
                        }
                    }
                }
                // Quantise the chunk back to Q7.8: same `(acc + 128) >> 8`
                // round-and-saturate as `MacAccumulator::finish`, counting
                // railed words for the saturation-anomaly signal.
                let ch_out = &mut out_data[m * vol + row0 * ow..][..len];
                for (o, &a) in ch_out.iter_mut().zip(acc.iter()) {
                    let rounded = (a + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
                    if rounded > i16::MAX as i64 || rounded < i16::MIN as i64 {
                        stats.saturated_words += 1;
                    }
                    *o = Fixed16::from_bits(rounded.clamp(i16::MIN as i64, i16::MAX as i64) as i16);
                }
            }
        }
    });
    (out, stats)
}

/// Lowers output rows `chunk` (flattened `(d, r)` indices) of `x` into
/// `tile`: for each lowered channel in order, one row per kernel tap
/// holding, for every output position of the chunk, the input word the
/// tap reads there — zero where it reads padding.
fn lower_chunk(
    tile: &mut [i16],
    x: &[i16],
    inst: &ConvInstance,
    first_row: &[Option<usize>],
    chunk: Range<usize>,
) {
    let (_, di, hi, wi) = inst.input;
    let (_, od, oh, ow) = inst.output;
    let (kd, kr, kc) = inst.spec.kernel;
    let (sd, sr, sc) = inst.spec.stride;
    let (pd, pr, pc) = inst.spec.pad;
    let mut tap_rows = tile.chunks_exact_mut(chunk.len() * ow);
    for (n, _) in first_row.iter().enumerate().filter(|(_, row)| row.is_some()) {
        let x_n = &x[n * di * hi * wi..][..di * hi * wi];
        for kdi in 0..kd {
            let d_ok = valid_range(kdi, sd, pd, di, od);
            for kri in 0..kr {
                let r_ok = valid_range(kri, sr, pr, hi, oh);
                for kci in 0..kc {
                    let (c_lo, c_hi) = valid_range(kci, sc, pc, wi, ow);
                    let tap_row = tap_rows.next().expect("tile holds every lowered tap");
                    for (seg, o) in tap_row.chunks_exact_mut(ow).zip(chunk.clone()) {
                        let (d, r) = (o / oh, o % oh);
                        if !(d_ok.0..d_ok.1).contains(&d) || !(r_ok.0..r_ok.1).contains(&r) {
                            seg.fill(0);
                            continue;
                        }
                        let x_row =
                            &x_n[((d * sd + kdi - pd) * hi + r * sr + kri - pr) * wi..][..wi];
                        seg[..c_lo].fill(0);
                        seg[c_hi..].fill(0);
                        if c_lo == c_hi {
                            continue;
                        }
                        // x column for output c: c*sc + kci - pc.
                        let src = &x_row[c_lo * sc + kci - pc..];
                        let dst = &mut seg[c_lo..c_hi];
                        if sc == 1 {
                            dst.copy_from_slice(&src[..dst.len()]);
                        } else {
                            for (v, &xv) in dst.iter_mut().zip(src.iter().step_by(sc)) {
                                *v = xv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One row update `acc[j] += wv * x[j]`. Products of two i16-range
/// values are exact in `i64`, so the scalar and AVX2 bodies are bitwise
/// identical by construction.
#[inline]
fn axpy(acc: &mut [i64], x: &[i16], wv: i16, use_avx2: bool) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2 {
        // SAFETY: use_avx2 came from simd::use_avx2(), which is true
        // only when runtime detection proved AVX2 support; the caller
        // slices `x` to `acc.len()`.
        unsafe { avx2::axpy_i16_i64(acc, x, wv as i32) };
        return;
    }
    let _ = use_avx2;
    for (a, &xv) in acc.iter_mut().zip(x) {
        *a += wv as i64 * xv as i64;
    }
}

/// Valid output range `[lo, hi)` for one kernel tap: the `o` with
/// `0 <= o*stride + k - pad < limit`, clamped to `[0, out_dim)`.
fn valid_range(k: usize, stride: usize, pad: usize, limit: usize, out_dim: usize) -> (usize, usize) {
    let lo = if pad > k {
        (pad - k).div_ceil(stride)
    } else {
        0
    };
    // Largest o with o*stride <= limit - 1 + pad - k (none if negative).
    let hi = if limit + pad > k {
        ((limit - 1 + pad - k) / stride + 1).min(out_dim)
    } else {
        0
    };
    (lo.min(hi), hi)
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

/// AVX2 body of the unit-stride integer row update.
///
/// Eight `i16` inputs are sign-extended to `i32`, multiplied by the
/// broadcast weight with `_mm256_mullo_epi32` (exact: both operands are
/// in i16 range, so `|product| <= 2^30`), sign-extended to `i64` and
/// added into the accumulators. `_mm256_madd_epi16` is deliberately
/// avoided — its paired-product `i32` sums can overflow at the rails
/// (`(-32768)^2 * 2 > i32::MAX`), while this sequence is exact for every
/// input, which is what makes the scalar fallback bitwise identical.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi64, _mm256_castsi256_si128, _mm256_cvtepi16_epi32,
        _mm256_cvtepi32_epi64, _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_mullo_epi32,
        _mm256_set1_epi32, _mm256_storeu_si256, _mm_loadu_si128,
    };

    /// `acc[j] += wv * x[j]` over the full slice.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers gate on
    /// [`p3d_tensor::simd::use_avx2`]). `x.len() >= acc.len()` is
    /// enforced by the caller's slicing.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_i16_i64(acc: &mut [i64], x: &[i16], wv: i32) {
        debug_assert!(x.len() >= acc.len());
        let len = acc.len();
        let ap = acc.as_mut_ptr();
        let xp = x.as_ptr();
        let vw = _mm256_set1_epi32(wv);
        let mut j = 0usize;
        while j + 8 <= len {
            let xv = _mm_loadu_si128(xp.add(j) as *const __m128i);
            let x32 = _mm256_cvtepi16_epi32(xv);
            let prod = _mm256_mullo_epi32(x32, vw);
            let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod));
            let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(prod, 1));
            let a0 = _mm256_loadu_si256(ap.add(j) as *const __m256i);
            let a1 = _mm256_loadu_si256(ap.add(j + 4) as *const __m256i);
            _mm256_storeu_si256(ap.add(j) as *mut __m256i, _mm256_add_epi64(a0, lo));
            _mm256_storeu_si256(ap.add(j + 4) as *mut __m256i, _mm256_add_epi64(a1, hi));
            j += 8;
        }
        while j < len {
            *ap.add(j) += wv as i64 * *xp.add(j) as i64;
            j += 1;
        }
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

    #[test]
    fn valid_range_edges() {
        // stride 1, pad 1, kernel tap 0 on a length-8 axis with 8 outputs:
        // o + 0 - 1 >= 0 -> o >= 1.
        assert_eq!(valid_range(0, 1, 1, 8, 8), (1, 8));
        // tap 2: o + 2 - 1 < 8 -> o < 7.
        assert_eq!(valid_range(2, 1, 1, 8, 8), (0, 7));
        // stride 2, no pad, limit 8, 3 outputs: all valid for tap <= 1.
        assert_eq!(valid_range(1, 2, 0, 8, 3), (0, 3));
        // degenerate: tap beyond limit+pad.
        assert_eq!(valid_range(5, 1, 0, 3, 3), (0, 0));
    }
}
