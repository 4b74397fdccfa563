//! Property tests for the im2col lowering against the definition of the
//! column matrix.
//!
//! `lower_row`, `im2col_panels` and `col2im` share one walk over a
//! column-matrix row, so none of them can referee the others. The oracle
//! here is the definition: row `p` (input channel `c`, kernel tap
//! `(kd, kr, kc)`) at output column `(od, oh, ow)` reads input
//! `(c, od Sd + kd - Pd, oh Sr + kr - Pr, ow Sc + kc - Pc)` when every
//! coordinate lies inside the input, and padding (zero) otherwise. Every
//! check is bitwise, on random geometries and random windows of output
//! lines that start and end mid-plane, and the run asserts that it drew
//! each geometry class with a lowering path or an edge of its own.

use p3d_nn::im2col::{col2im, im2col_panels, lower_row, ConvGeometry};
use p3d_tensor::gemm::NR;
use p3d_tensor::{Shape, Tensor, TensorRng};
use proptest::prelude::*;
use std::cell::RefCell;
use std::ops::Range;

/// The classes every run must draw at least once.
const CLASSES: [&str; 7] = [
    "stride 1 with the source line step equal to Wo",
    "stride 1 with Wi != Wo",
    "stride 2-3 in one axis only",
    "pad >= kernel / 2 with a tap that reads only padding",
    "a kernel longer than the unpadded input",
    "Wo == 1",
    "a window that starts and ends mid-plane",
];

/// A random geometry shaped towards `class` (an index into [`CLASSES`]);
/// [`classify`] decides independently which classes it falls in.
fn draw_geometry(class: usize, rng: &mut TensorRng) -> ConvGeometry {
    let mut r = |lo: usize, hi: usize| lo + rng.below(hi - lo + 1);
    let channels = r(1, 2);
    let mut input = [r(1, 4), r(1, 6), r(1, 7)];
    let mut kernel = [r(1, 3), r(1, 4), r(1, 4)];
    let mut stride = [r(1, 2), r(1, 3), r(1, 3)];
    let mut pad = [r(0, 1), r(0, 2), r(0, 2)];
    match class {
        // "Same" width at stride 1: Wo == Wi.
        0 => {
            (stride[1], stride[2]) = (1, 1);
            kernel[2] = 2 * r(0, 2) + 1;
            pad[2] = kernel[2] / 2;
        }
        // Valid width at stride 1: Wo == Wi - Kc + 1 < Wi.
        1 => {
            (stride[1], stride[2], pad[2]) = (1, 1, 0);
            input[2] = input[2].max(2);
            kernel[2] = r(2, input[2]);
        }
        2 => {
            stride = [1, 1, 1];
            let a = r(0, 2);
            stride[a] = r(2, 3);
        }
        // The last tap lands past `input + pad` for every output.
        3 => {
            let a = r(0, 2);
            input[a] = r(1, 3);
            pad[a] = input[a] + r(1, 2);
            kernel[a] = r(input[a] + pad[a] + 1, 2 * pad[a]);
        }
        4 => {
            let a = r(0, 2);
            pad[a] = r(1, 2);
            kernel[a] = r(input[a] + 1, input[a] + 2 * pad[a]);
        }
        // `Wi + 2 Pc - Kc < Sc`.
        _ => {
            let padded = input[2] + 2 * pad[2];
            kernel[2] = padded - r(0, (stride[2] - 1).min(padded - 1));
        }
    }
    for a in 0..3 {
        kernel[a] = kernel[a].min(input[a] + 2 * pad[a]);
    }
    ConvGeometry {
        channels,
        input: (input[0], input[1], input[2]),
        kernel: (kernel[0], kernel[1], kernel[2]),
        stride: (stride[0], stride[1], stride[2]),
        pad: (pad[0], pad[1], pad[2]),
    }
}

/// Per axis (depth, height, width): input extent, kernel, stride, pad
/// and output extent.
fn axes(g: &ConvGeometry) -> [[usize; 5]; 3] {
    let (od, oh, ow) = g.output();
    [
        [g.input.0, g.kernel.0, g.stride.0, g.pad.0, od],
        [g.input.1, g.kernel.1, g.stride.1, g.pad.1, oh],
        [g.input.2, g.kernel.2, g.stride.2, g.pad.2, ow],
    ]
}

/// The input index row `p` reads at column `col`, from the definition;
/// `None` where it reads padding.
fn tap_source(g: &ConvGeometry, p: usize, col: usize) -> Option<usize> {
    let [d, h, w] = axes(g);
    let taps = d[1] * h[1] * w[1];
    let (tap, out) = (p % taps, [col / w[4] / h[4], col / w[4] % h[4], col % w[4]]);
    let k = [tap / (h[1] * w[1]), tap / w[1] % h[1], tap % w[1]];
    let mut index = p / taps;
    for (a, [n, _, s, pad, _]) in [d, h, w].into_iter().enumerate() {
        let i = (out[a] * s + k[a]).checked_sub(pad).filter(|&i| i < n)?;
        index = index * n + i;
    }
    Some(index)
}

/// Which of [`CLASSES`] `g` and its windows fall in.
fn classify(g: &ConvGeometry, windows: &[Range<usize>]) -> [bool; 7] {
    let (_, oh, ow) = g.output();
    let all = axes(g);
    let strided: Vec<usize> = all.iter().map(|a| a[2]).filter(|&s| s > 1).collect();
    let padding_only_tap = all.iter().any(|&[n, k, s, pad, out]| {
        2 * pad >= k && (0..k).any(|t| (0..out).all(|o| o * s + t < pad || o * s + t - pad >= n))
    });
    [
        g.stride.2 == 1 && g.stride.1 * g.input.2 == ow,
        g.stride.1 == 1 && g.stride.2 == 1 && g.input.2 != ow,
        strided.len() == 1 && strided[0] <= 3,
        padding_only_tap,
        all.iter().any(|&[n, k, ..]| k > n),
        ow == 1,
        windows
            .iter()
            .any(|w| w.start < w.end && w.start % oh != 0 && w.end % oh != 0),
    ]
}

#[test]
fn lowering_matches_the_definition() {
    let seen = RefCell::new([0usize; CLASSES.len()]);
    // The last class is a property of the windows, not a geometry shape.
    let shapes = 0..CLASSES.len() - 1;
    proptest::run_cases(
        &ProptestConfig::with_cases(384),
        "lowering_matches_the_definition",
        &(shapes, any::<u64>()),
        |(class, seed)| {
            let mut rng = TensorRng::seed(seed);
            let g = draw_geometry(class, &mut rng);
            let lines = g.output().0 * g.output().1;
            let windows: Vec<Range<usize>> = (0..4)
                .map(|_| {
                    let a = rng.below(lines + 1);
                    a..a + rng.below(lines - a + 1)
                })
                .chain(std::iter::once(0..lines))
                .collect();
            for (count, hit) in seen.borrow_mut().iter_mut().zip(classify(&g, &windows)) {
                *count += usize::from(hit);
            }
            check_lower_row(&g, &windows)?;
            check_panels(&g, &mut rng)?;
            check_col2im(&g, &mut rng)
        },
    );
    let seen = seen.into_inner();
    for (name, count) in CLASSES.iter().zip(seen) {
        assert!(count > 0, "no case drew {name}: {seen:?}");
    }
}

/// Distinct non-zero input words, and the same values as f32 with a
/// fractional part.
fn inputs(g: &ConvGeometry) -> (Vec<i16>, Vec<f32>) {
    let len = g.channels * g.input.0 * g.input.1 * g.input.2;
    let x: Vec<i16> = (1..=len as i16).collect();
    let xf = x.iter().map(|&v| f32::from(v) - 0.5).collect();
    (x, xf)
}

/// `lower_row` writes every column of every window, f32 over NaN and
/// `i16` over `i16::MIN`, exactly as the definition says.
fn check_lower_row(g: &ConvGeometry, windows: &[Range<usize>]) -> Result<(), TestCaseError> {
    let (x, xf) = inputs(g);
    let ow = g.output().2;
    for p in 0..g.col_rows() {
        for w in windows {
            let mut row_f = vec![f32::NAN; w.len() * ow];
            lower_row(&xf, g, p, w.clone(), &mut row_f);
            let mut row_i = vec![i16::MIN; w.len() * ow];
            lower_row(&x, g, p, w.clone(), &mut row_i);
            for (j, col) in (w.start * ow..w.end * ow).enumerate() {
                let src = tap_source(g, p, col);
                let want_f = src.map_or(0.0, |i| xf[i]);
                prop_assert_eq!(
                    row_f[j].to_bits(),
                    want_f.to_bits(),
                    "{g:?}: f32 row {p} lines {w:?} column {col}: {} vs {want_f}",
                    row_f[j]
                );
                prop_assert_eq!(
                    row_i[j],
                    src.map_or(0, |i| x[i]),
                    "{g:?}: i16 row {p} lines {w:?} column {col}"
                );
            }
        }
    }
    Ok(())
}

/// The requested rows of `im2col_panels`' packed image hold the
/// definition (and explicit zeros past the last column) over a NaN
/// buffer; the other rows stay NaN.
fn check_panels(g: &ConvGeometry, rng: &mut TensorRng) -> Result<(), TestCaseError> {
    let (_, xf) = inputs(g);
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let a = rng.below(rows + 1);
    let b = a + rng.below(rows - a + 1);
    let c = b + rng.below(rows - b + 1);
    let ranges = [(a, b), (c, rows)];
    let mut packed = vec![f32::NAN; cols.div_ceil(NR) * rows * NR];
    im2col_panels(&xf, g, &ranges, &mut packed);
    for p in 0..rows {
        let wanted = ranges.iter().any(|&(p0, p1)| (p0..p1).contains(&p));
        for j in 0..cols.div_ceil(NR) * NR {
            let v = packed[(j / NR) * rows * NR + p * NR + j % NR];
            let want = match (wanted, j < cols) {
                (false, _) => f32::NAN,
                (true, true) => tap_source(g, p, j).map_or(0.0, |i| xf[i]),
                (true, false) => 0.0,
            };
            prop_assert_eq!(
                v.to_bits(),
                want.to_bits(),
                "{g:?}: panel row {p} column {j} (ranges {ranges:?})"
            );
        }
    }
    Ok(())
}

/// `col2im` adds each gradient into its source in ascending
/// `(p, column)` order, bit for bit, on top of what the buffer held.
fn check_col2im(g: &ConvGeometry, rng: &mut TensorRng) -> Result<(), TestCaseError> {
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let len = g.channels * g.input.0 * g.input.1 * g.input.2;
    let grad: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let start: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let mut want = start.clone();
    for p in 0..rows {
        for col in 0..cols {
            if let Some(i) = tap_source(g, p, col) {
                want[i] += grad[p * cols + col];
            }
        }
    }
    let mut got = start;
    col2im(&Tensor::from_vec(Shape::d2(rows, cols), grad), g, &mut got);
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{g:?}: input_grad[{i}]: {a} vs {b}"
        );
    }
    Ok(())
}
