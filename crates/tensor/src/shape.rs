//! Shape and stride algebra for dense row-major tensors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of dimensions supported.
///
/// 3D CNN weights are 5-D (`[M, N, Kd, Kr, Kc]`) and activations are 5-D
/// with a batch dimension (`[B, C, D, H, W]`), so five suffices for the
/// whole workspace.
pub const MAX_RANK: usize = 5;

/// The shape of a dense, row-major tensor.
///
/// A `Shape` stores up to [`MAX_RANK`] dimension extents inline (no heap
/// allocation) together with the rank. Strides are derived on demand in
/// row-major (C) order: the last dimension is contiguous.
///
/// # Example
///
/// ```
/// use p3d_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.offset(&[1, 2, 3]), 23);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries or any extent
    /// is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "shape rank {} exceeds MAX_RANK {}",
            dims.len(),
            MAX_RANK
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimension in shape {dims:?}"
        );
        let mut buf = [1usize; MAX_RANK];
        buf[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: buf,
            rank: dims.len(),
        }
    }

    /// A rank-1 shape.
    pub fn d1(a: usize) -> Self {
        Shape::new(&[a])
    }

    /// A rank-2 shape.
    pub fn d2(a: usize, b: usize) -> Self {
        Shape::new(&[a, b])
    }

    /// A rank-3 shape.
    pub fn d3(a: usize, b: usize, c: usize) -> Self {
        Shape::new(&[a, b, c])
    }

    /// A rank-4 shape.
    pub fn d4(a: usize, b: usize, c: usize, d: usize) -> Self {
        Shape::new(&[a, b, c, d])
    }

    /// A rank-5 shape.
    pub fn d5(a: usize, b: usize, c: usize, d: usize, e: usize) -> Self {
        Shape::new(&[a, b, c, d, e])
    }

    /// The dimension extents as a slice of length [`Shape::rank`].
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        assert!(
            axis < self.rank,
            "axis {axis} out of range for rank {}",
            self.rank
        );
        self.dims[axis]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims[..self.rank].iter().product()
    }

    /// `true` when the shape holds zero elements. Since zero extents are
    /// rejected at construction this is only true for pathological cases
    /// and is provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides (in elements) for each dimension.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank];
        for axis in (0..self.rank.saturating_sub(1)).rev() {
            strides[axis] = strides[axis + 1] * self.dims[axis + 1];
        }
        strides
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank,
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank
        );
        let mut off = 0usize;
        let mut stride = 1usize;
        for axis in (0..self.rank).rev() {
            let i = index[axis];
            let d = self.dims[axis];
            assert!(
                i < d,
                "index {i} out of bounds for axis {axis} with extent {d}"
            );
            off += i * stride;
            stride *= d;
        }
        off
    }

    /// Inverse of [`Shape::offset`]: the multi-dimensional index of a
    /// linear offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= self.len()`.
    pub fn index_of(&self, offset: usize) -> Vec<usize> {
        assert!(
            offset < self.len(),
            "offset {offset} out of bounds for {self}"
        );
        let mut rem = offset;
        let mut idx = vec![0usize; self.rank];
        for axis in (0..self.rank).rev() {
            let d = self.dims[axis];
            idx[axis] = rem % d;
            rem /= d;
        }
        idx
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.dims().iter().map(|d| d.to_string()).collect();
        write!(f, "[{}]", parts.join("x"))
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

/// Output extent of a convolution/pooling along one axis.
///
/// `input` is the padded-free input extent, `kernel` the kernel extent,
/// `stride` the stride and `pad` the symmetric padding applied to *each*
/// side.
///
/// # Example
///
/// ```
/// use p3d_tensor::shape::conv_out;
/// // 112 input, kernel 7, stride 2, pad 3 -> 56 (conv1 of R(2+1)D).
/// assert_eq!(conv_out(112, 7, 2, 3), 56);
/// ```
///
/// # Panics
///
/// Panics if the padded input is smaller than the kernel or `stride == 0`.
pub fn conv_out(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "padded input {padded} smaller than kernel {kernel}"
    );
    (padded - kernel) / stride + 1
}

/// Ceiling division, used throughout the tiling and blocking math of the
/// paper (`⌈M/Tm⌉`, `⌈N/Tn⌉`, ...).
pub fn ceil_div(a: usize, b: usize) -> usize {
    assert!(b > 0, "division by zero");
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let s = Shape::new(&[4, 3, 2]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.len(), 24);
        assert_eq!(s.dims(), &[4, 3, 2]);
        assert_eq!(s.dim(0), 4);
        assert_eq!(s.dim(2), 2);
    }

    #[test]
    fn helpers_match_new() {
        assert_eq!(Shape::d1(7), Shape::new(&[7]));
        assert_eq!(Shape::d2(2, 3), Shape::new(&[2, 3]));
        assert_eq!(Shape::d3(2, 3, 4), Shape::new(&[2, 3, 4]));
        assert_eq!(Shape::d4(2, 3, 4, 5), Shape::new(&[2, 3, 4, 5]));
        assert_eq!(Shape::d5(2, 3, 4, 5, 6), Shape::new(&[2, 3, 4, 5, 6]));
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_rejected() {
        let _ = Shape::new(&[2, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn over_rank_rejected() {
        let _ = Shape::new(&[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let s1 = Shape::d1(5);
        assert_eq!(s1.strides(), vec![1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[3, 4, 5]);
        for off in 0..s.len() {
            let idx = s.index_of(off);
            assert_eq!(s.offset(&idx), off);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_bounds_checked() {
        let s = Shape::new(&[2, 2]);
        let _ = s.offset(&[2, 0]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[64, 8, 3, 3, 3]).to_string(), "[64x8x3x3x3]");
    }

    #[test]
    fn conv_out_basic() {
        assert_eq!(conv_out(112, 3, 1, 1), 112);
        assert_eq!(conv_out(112, 3, 2, 1), 56);
        assert_eq!(conv_out(16, 3, 1, 1), 16);
        assert_eq!(conv_out(16, 1, 1, 0), 16);
        // C3D pool1 (1,2,2) over 112 -> 56
        assert_eq!(conv_out(112, 2, 2, 0), 56);
    }

    #[test]
    fn ceil_div_basic() {
        assert_eq!(ceil_div(144, 64), 3);
        assert_eq!(ceil_div(64, 8), 8);
        assert_eq!(ceil_div(1, 8), 1);
        assert_eq!(ceil_div(8, 8), 1);
        assert_eq!(ceil_div(9, 8), 2);
    }
}
