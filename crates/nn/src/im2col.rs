//! im2col / col2im lowering for 3D convolution.
//!
//! A 3D convolution over a `[N, Di, Hi, Wi]` volume with kernel
//! `(Kd, Kr, Kc)` is lowered to a matrix multiply: the input is unfolded
//! into a `[N*Kd*Kr*Kc, Do*Ho*Wo]` column matrix, the weights are viewed
//! as `[M, N*Kd*Kr*Kc]`, and the product is the `[M, Do*Ho*Wo]` output.
//! `col2im` is the adjoint (scatter-add) used by the backward pass.
//!
//! The inference and forward paths never build that column matrix:
//! [`im2col_panels`] lowers the input straight into the packed panel
//! image the GEMM kernels read (`p3d_tensor::gemm`), and only the rows
//! the product needs. `im2col`, `im2col_panels` and `col2im` share one
//! walk over a column-matrix row, so they cannot disagree about which
//! input element feeds which `(row, column)`. The walk describes a row
//! as one span per depth plane (its valid lines, their width and the
//! source step between them), and [`lower_row`] copies a whole span at
//! once where its source lines are contiguous. The Q7.8 simulator fills
//! its `i16` input tiles with the same walk: [`lower_row`] is generic
//! and lowers any window of output lines.

use p3d_tensor::gemm::pack_rows;
use p3d_tensor::{Shape, Tensor};
use std::ops::Range;

/// Geometry of one 3D convolution, shared by forward and backward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub channels: usize,
    /// Input extents (depth, height, width).
    pub input: (usize, usize, usize),
    /// Kernel extents.
    pub kernel: (usize, usize, usize),
    /// Strides.
    pub stride: (usize, usize, usize),
    /// Symmetric zero padding per side.
    pub pad: (usize, usize, usize),
}

impl ConvGeometry {
    /// Output extents (depth, height, width).
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel in any axis.
    pub fn output(&self) -> (usize, usize, usize) {
        let o = |i: usize, k: usize, s: usize, p: usize| p3d_tensor::shape::conv_out(i, k, s, p);
        (
            o(self.input.0, self.kernel.0, self.stride.0, self.pad.0),
            o(self.input.1, self.kernel.1, self.stride.1, self.pad.1),
            o(self.input.2, self.kernel.2, self.stride.2, self.pad.2),
        )
    }

    /// Rows of the column matrix: `N * Kd * Kr * Kc`.
    pub fn col_rows(&self) -> usize {
        self.channels * self.kernel.0 * self.kernel.1 * self.kernel.2
    }

    /// Columns of the column matrix: `Do * Ho * Wo`.
    pub fn col_cols(&self) -> usize {
        let (d, h, w) = self.output();
        d * h * w
    }
}

/// The lines of one column-matrix row that read the input within one
/// depth plane, or across planes whose lines continue each other: line
/// `i < lines` covers columns `col + i Wo .. col + i Wo + len`, which read
/// `src + i step`, `src + i step + Sc`, `src + i step + 2 Sc`, ...
struct Span {
    col: usize,
    src: usize,
    lines: usize,
    len: usize,
    step: usize,
}

/// Output indices `lo..hi` (of `out`) whose tap `k` lands inside an
/// input extent `n`: `0 <= o * s + k - pad < n`.
fn valid(n: usize, k: usize, s: usize, pad: usize, out: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(k).div_ceil(s).min(out);
    (lo, (n + pad).saturating_sub(k).div_ceil(s).clamp(lo, out))
}

/// Walks the non-padding positions of row `p` (input channel
/// `p / taps`, kernel tap `p % taps`) of the column matrix over the
/// output lines `lines` (flattened `(od_i, oh_i)` indices) in ascending
/// column order, counted from column `lines.start * Wo`, indexing the
/// flat `[N, Di, Hi, Wi]` input. Every other position reads padding.
/// Each depth plane contributes one span, its valid lines clipped to the
/// window in closed form; a plane whose first line continues the
/// previous span in both the row and the input extends it, so a
/// stride-1 `3x1x1` temporal or `1x1x1` row is a single span.
fn walk_row(geom: &ConvGeometry, p: usize, lines: Range<usize>, mut f: impl FnMut(Span)) {
    let (in_d, in_h, in_w) = geom.input;
    let (kd, kr, kc) = geom.kernel;
    let (sd, sr, sc) = geom.stride;
    let (pd, pr, pc) = geom.pad;
    let (od, oh, ow) = geom.output();
    let taps = kd * kr * kc;
    let (ch, tap) = (p / taps, p % taps);
    let (kd_i, kr_i, kc_i) = (tap / (kr * kc), tap / kc % kr, tap % kc);
    let (lo, hi) = valid(in_w, kc_i, sc, pc, ow);
    let (h_lo, h_hi) = valid(in_h, kr_i, sr, pr, oh);
    let (d_lo, d_hi) = valid(in_d, kd_i, sd, pd, od);
    if lo == hi {
        return;
    }

    let step = sr * in_w;
    let mut pending: Option<Span> = None;
    for od_i in (lines.start / oh).max(d_lo)..lines.end.div_ceil(oh).min(d_hi) {
        let plane = od_i * oh;
        let first = h_lo.max(lines.start.saturating_sub(plane));
        let last = h_hi.min(lines.end - plane);
        if first >= last {
            continue;
        }
        let (d, h) = (od_i * sd + kd_i - pd, first * sr + kr_i - pr);
        let span = Span {
            col: (plane + first - lines.start) * ow + lo,
            src: ((ch * in_d + d) * in_h + h) * in_w + lo * sc + kc_i - pc,
            lines: last - first,
            len: hi - lo,
            step,
        };
        match &mut pending {
            Some(s) if s.col + s.lines * ow == span.col && s.src + s.lines * step == span.src => {
                s.lines += span.lines;
            }
            _ => {
                if let Some(s) = pending.replace(span) {
                    f(s);
                }
            }
        }
    }
    if let Some(s) = pending {
        f(s);
    }
}

/// Writes row `p` of the column matrix over the output lines `lines`
/// into `row` (`lines.len() * Wo` long), every position explicitly —
/// padding gets `T::default()`, zero for `f32` and for Q7.8 `i16` words.
///
/// At column stride 1, a span whose source lines sit `Wo` apart (every
/// stride-1 "same"-width layer, and every temporal one) is one copy, and
/// the gap columns between its lines are zeroed again; other spans copy
/// line by line. At a larger column stride each line is gathered element
/// by element, under a walk of its own: with one closure shared with the
/// copies, that gather measured slower than the per-line runs it replaced.
pub fn lower_row<T: Copy + Default>(
    input: &[T],
    geom: &ConvGeometry,
    p: usize,
    lines: Range<usize>,
    row: &mut [T],
) {
    let sc = geom.stride.2;
    let ow = geom.output().2;
    debug_assert_eq!(row.len(), lines.len() * ow);
    row.fill(T::default());
    if sc > 1 {
        walk_row(geom, p, lines, |s| {
            for i in 0..s.lines {
                let (col, src) = (s.col + i * ow, s.src + i * s.step);
                for (t, v) in row[col..col + s.len].iter_mut().enumerate() {
                    *v = input[src + t * sc];
                }
            }
        });
        return;
    }
    walk_row(geom, p, lines, |s| {
        if s.step == ow {
            let n = (s.lines - 1) * ow + s.len;
            row[s.col..s.col + n].copy_from_slice(&input[s.src..s.src + n]);
            // Temporal rows have no gap, and a loop of empty fills cost
            // them most of the single copy's gain.
            if s.len < ow {
                for i in 1..s.lines {
                    row[s.col + i * ow - (ow - s.len)..s.col + i * ow].fill(T::default());
                }
            }
        } else {
            for i in 0..s.lines {
                let (col, src) = (s.col + i * ow, s.src + i * s.step);
                row[col..col + s.len].copy_from_slice(&input[src..src + s.len]);
            }
        }
    });
}

/// Unfolds one `[N, Di, Hi, Wi]` volume (flat slice) into a column matrix
/// `[N*Kd*Kr*Kc, Do*Ho*Wo]`. Out-of-bounds (padding) positions read zero.
pub fn im2col(input: &[f32], geom: &ConvGeometry) -> Tensor {
    let rows = geom.col_rows();
    let cols = geom.col_cols();
    let (od, oh, _) = geom.output();
    debug_assert_eq!(
        input.len(),
        geom.channels * geom.input.0 * geom.input.1 * geom.input.2
    );
    let mut out = vec![0.0f32; rows * cols];
    for p in 0..rows {
        lower_row(
            input,
            geom,
            p,
            0..od * oh,
            &mut out[p * cols..(p + 1) * cols],
        );
    }
    Tensor::from_vec(Shape::d2(rows, cols), out)
}

/// Lowers the column-matrix rows `ranges` of one `[N, Di, Hi, Wi]`
/// volume straight into the packed panel image of a
/// `[col_rows(), col_cols()]` right operand (`packed` holds
/// `ceil(col_cols() / NR) * col_rows() * NR` floats; see
/// `p3d_tensor::gemm::pack_rows`). The values are exactly those
/// [`im2col`] puts in the same rows.
///
/// Every position of a requested row is written — padding positions
/// and the lanes past `col_cols()` get an **explicit** zero — so a
/// reused scratch needs no clearing. Rows outside `ranges` are left as
/// they were.
///
/// # Panics
///
/// Panics if `packed` has the wrong length or a range exceeds
/// `col_rows()`.
pub fn im2col_panels(
    input: &[f32],
    geom: &ConvGeometry,
    ranges: &[(usize, usize)],
    packed: &mut [f32],
) {
    debug_assert_eq!(
        input.len(),
        geom.channels * geom.input.0 * geom.input.1 * geom.input.2
    );
    let (od, oh, _) = geom.output();
    pack_rows(
        geom.col_rows(),
        geom.col_cols(),
        ranges,
        packed,
        |p, row| lower_row(input, geom, p, 0..od * oh, row),
    );
}

/// Adjoint of [`im2col`]: scatter-adds a column-matrix gradient back into
/// an input-shaped gradient buffer (flat `[N, Di, Hi, Wi]`).
pub fn col2im(cols_grad: &Tensor, geom: &ConvGeometry, input_grad: &mut [f32]) {
    let cols = geom.col_cols();
    let (od, oh, ow) = geom.output();
    let sc = geom.stride.2;
    debug_assert_eq!(cols_grad.shape().dims(), &[geom.col_rows(), cols]);
    debug_assert_eq!(
        input_grad.len(),
        geom.channels * geom.input.0 * geom.input.1 * geom.input.2
    );
    for p in 0..geom.col_rows() {
        let row = &cols_grad.data()[p * cols..(p + 1) * cols];
        walk_row(geom, p, 0..od * oh, |s| {
            for i in 0..s.lines {
                let (col, src) = (s.col + i * ow, s.src + i * s.step);
                for (t, &g) in row[col..col + s.len].iter().enumerate() {
                    input_grad[src + t * sc] += g;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_1ch() -> ConvGeometry {
        ConvGeometry {
            channels: 1,
            input: (1, 3, 3),
            kernel: (1, 2, 2),
            stride: (1, 1, 1),
            pad: (0, 0, 0),
        }
    }

    #[test]
    fn output_shape() {
        let g = ConvGeometry {
            channels: 3,
            input: (16, 112, 112),
            kernel: (1, 7, 7),
            stride: (1, 2, 2),
            pad: (0, 3, 3),
        };
        assert_eq!(g.output(), (16, 56, 56));
        assert_eq!(g.col_rows(), 3 * 49);
        assert_eq!(g.col_cols(), 16 * 56 * 56);
    }

    #[test]
    fn im2col_2x2_window() {
        // 3x3 single-channel image, 2x2 kernel, no pad: 4 output positions.
        let input: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        let cols = im2col(&input, &geom_1ch());
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // Row 0 is kernel offset (0,0,0): top-left of each window.
        assert_eq!(&cols.data()[0..4], &[1., 2., 4., 5.]);
        // Row 3 is offset (0,1,1): bottom-right of each window.
        assert_eq!(&cols.data()[12..16], &[5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let g = ConvGeometry {
            channels: 1,
            input: (1, 2, 2),
            kernel: (1, 3, 3),
            stride: (1, 1, 1),
            pad: (0, 1, 1),
        };
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape().dims(), &[9, 4]);
        // Kernel offset (0,0,0) with pad 1: only the bottom-right output
        // position (1,1) maps inside, to input (0,0).
        assert_eq!(&cols.data()[0..4], &[0., 0., 0., 1.]);
        // Centre tap (0,1,1) is the identity.
        let centre = 4 * 4;
        assert_eq!(&cols.data()[centre..centre + 4], &[1., 2., 3., 4.]);
    }

    #[test]
    fn im2col_temporal_axis() {
        // Two frames, 1x1 spatial, temporal kernel 2.
        let g = ConvGeometry {
            channels: 1,
            input: (3, 1, 1),
            kernel: (2, 1, 1),
            stride: (1, 1, 1),
            pad: (0, 0, 0),
        };
        let input = vec![10.0, 20.0, 30.0];
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape().dims(), &[2, 2]);
        assert_eq!(cols.data(), &[10., 20., 20., 30.]);
    }

    #[test]
    fn im2col_panels_matches_im2col_on_a_stale_buffer() {
        // Each requested row of the panel image holds exactly im2col's
        // values (padding and the lanes past the last column written as
        // explicit zeros over NaN); unrequested rows stay untouched.
        use p3d_tensor::gemm::NR;
        let g = ConvGeometry {
            channels: 2,
            input: (2, 3, 4),
            kernel: (2, 2, 2),
            stride: (1, 2, 1),
            pad: (1, 1, 1),
        };
        let input: Vec<f32> = (0..2 * 2 * 3 * 4).map(|x| x as f32 - 7.0).collect();
        let (rows, cols) = (g.col_rows(), g.col_cols());
        assert_ne!(cols % NR, 0, "the case must have padding lanes");
        let fresh = im2col(&input, &g);
        let mut packed = vec![f32::NAN; cols.div_ceil(NR) * rows * NR];
        let ranges = [(1, 4), (9, rows)];
        im2col_panels(&input, &g, &ranges, &mut packed);
        for p in 0..rows {
            let wanted = ranges.iter().any(|&(p0, p1)| (p0..p1).contains(&p));
            for j in 0..cols.div_ceil(NR) * NR {
                let v = packed[(j / NR) * rows * NR + p * NR + j % NR];
                match (wanted, j < cols) {
                    (false, _) => assert!(v.is_nan(), "row {p} was written"),
                    (true, true) => assert_eq!(v.to_bits(), fresh.data()[p * cols + j].to_bits()),
                    (true, false) => assert_eq!(v.to_bits(), 0.0f32.to_bits()),
                }
            }
        }
    }

    /// The input index row `p` of the column matrix reads at column
    /// `col`, straight from the definition; `None` where it reads padding.
    fn tap_source(g: &ConvGeometry, p: usize, col: usize) -> Option<usize> {
        let (_, oh, ow) = g.output();
        let (kd, kr, kc) = g.kernel;
        let tap = p % (kd * kr * kc);
        let k = [tap / (kr * kc), tap / kc % kr, tap % kc];
        let o = [col / ow / oh, col / ow % oh, col % ow];
        let s = [g.stride.0, g.stride.1, g.stride.2];
        let pad = [g.pad.0, g.pad.1, g.pad.2];
        let limit = [g.input.0, g.input.1, g.input.2];
        let mut index = p / (kd * kr * kc);
        for a in 0..3 {
            let i = (o[a] * s[a] + k[a])
                .checked_sub(pad[a])
                .filter(|&i| i < limit[a])?;
            index = index * limit[a] + i;
        }
        Some(index)
    }

    #[test]
    fn lower_row_windows_match_im2col_on_a_stale_buffer() {
        // Every window `a..b` of output lines, mid depth-plane starts and
        // ends included, holds exactly im2col's columns `a*Wo..b*Wo`, for
        // f32 and for i16 words written over NaN and i16::MIN.
        let geom = |channels, input, kernel, stride, pad| ConvGeometry {
            channels,
            input,
            kernel,
            stride,
            pad,
        };
        let cases = [
            // Pads larger than tap 0, and taps past the right edge.
            geom(2, (2, 4, 5), (2, 3, 3), (1, 1, 1), (1, 1, 1)),
            // Stride 2, no padding.
            geom(2, (5, 5, 8), (1, 3, 3), (2, 2, 2), (0, 0, 0)),
            // Kernel row 4 lands beyond `Hi + pad` for every output.
            geom(1, (2, 2, 3), (1, 5, 3), (1, 1, 1), (0, 2, 1)),
            // Stride-1 `3x1x1`: runs merge across lines and planes.
            geom(2, (4, 3, 4), (3, 1, 1), (1, 1, 1), (1, 0, 0)),
        ];
        for g in &cases {
            let (od, oh, ow) = g.output();
            let (rows, cols) = (g.col_rows(), g.col_cols());
            let len = g.channels * g.input.0 * g.input.1 * g.input.2;
            let x: Vec<i16> = (1..=len as i16).collect();
            let xf: Vec<f32> = x.iter().map(|&v| f32::from(v)).collect();
            let fresh = im2col(&xf, g);
            for p in 0..rows {
                let full = &fresh.data()[p * cols..(p + 1) * cols];
                for (j, v) in full.iter().enumerate() {
                    let want = tap_source(g, p, j).map_or(0.0, |i| xf[i]);
                    assert_eq!(
                        v.to_bits(),
                        want.to_bits(),
                        "{g:?}: im2col row {p} column {j}"
                    );
                }
                for a in 0..=od * oh {
                    for b in a..=od * oh {
                        let want = &full[a * ow..b * ow];
                        let mut row_f = vec![f32::NAN; want.len()];
                        lower_row(&xf, g, p, a..b, &mut row_f);
                        let mut row_i = vec![i16::MIN; want.len()];
                        lower_row(&x, g, p, a..b, &mut row_i);
                        for (j, ((f, &i), w)) in row_f.iter().zip(&row_i).zip(want).enumerate() {
                            let at = format!("{g:?}: row {p} lines {a}..{b} column {j}");
                            assert_eq!(f.to_bits(), w.to_bits(), "{at}");
                            assert_eq!(f32::from(i).to_bits(), w.to_bits(), "{at}");
                        }
                    }
                }
            }
        }
        // Each case keeps the edge it is named for.
        let sources = |g: &ConvGeometry, p| -> Vec<_> {
            (0..g.col_cols()).map(|j| tap_source(g, p, j)).collect()
        };
        assert_eq!(
            sources(&cases[0], 0)[0],
            None,
            "tap 0 starts in the padding"
        );
        assert_eq!(
            sources(&cases[0], 17).last(),
            Some(&None),
            "the last tap ends past the edge"
        );
        let row_4 = sources(&cases[2], 13);
        assert!(
            row_4.iter().all(Option::is_none),
            "kernel row 4 reads only padding"
        );
        let (od, oh, _) = cases[3].output();
        for p in 0..cases[3].col_rows() {
            let mut runs = 0;
            walk_row(&cases[3], p, 0..od * oh, |_| runs += 1);
            assert_eq!(runs, 1, "row {p} of the 3x1x1 case is one merged run");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, checked on a small random case.
        use p3d_tensor::TensorRng;
        let g = ConvGeometry {
            channels: 2,
            input: (3, 4, 4),
            kernel: (2, 2, 2),
            stride: (1, 2, 2),
            pad: (1, 0, 1),
        };
        let mut rng = TensorRng::seed(11);
        let x = rng.uniform_tensor([2 * 3 * 4 * 4], -1.0, 1.0);
        let y = rng.uniform_tensor([g.col_rows() * g.col_cols()], -1.0, 1.0);
        let cols = im2col(x.data(), &g);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let y_mat = y.reshape([g.col_rows(), g.col_cols()]);
        let mut back = vec![0.0f32; x.len()];
        col2im(&y_mat, &g, &mut back);
        let rhs: f32 = back.iter().zip(x.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
