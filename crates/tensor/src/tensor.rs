//! Dense, row-major `f32` tensors.

use crate::shape::Shape;
// Re-exported here for backwards compatibility: these kernels lived in
// this module before the packed/block-sparse rework moved them to
// [`crate::gemm`].
pub use crate::gemm::{gemm_into, gemm_nt_into};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense, row-major tensor of `f32` values.
///
/// This is the single numeric container used by the whole workspace: CNN
/// activations (`[B, C, D, H, W]`), convolution weights
/// (`[M, N, Kd, Kr, Kc]`), ADMM auxiliary variables, and gradients.
///
/// The representation is a flat `Vec<f32>` plus a [`Shape`]; all views are
/// materialised (no borrowed views), which keeps the API simple and is fast
/// enough for the model sizes trained in this reproduction.
///
/// # Example
///
/// ```
/// use p3d_tensor::{Shape, Tensor};
///
/// let mut t = Tensor::zeros(Shape::d2(2, 3));
/// t.set(&[1, 2], 5.0);
/// assert_eq!(t.get(&[1, 2]), 5.0);
/// assert_eq!(t.sum(), 5.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// Builds a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(
            Shape::d1(data.len().max(1)),
            if data.is_empty() {
                vec![0.0]
            } else {
                data.to_vec()
            },
        )
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: zero-sized shapes are rejected at construction.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at a multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the value at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Reinterprets the tensor with a new shape of identical length.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.len(),
            "cannot reshape {} elements into {}",
            self.len(),
            shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two equally-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place elementwise combination with another tensor of the same
    /// shape.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }

    /// `self += alpha * other` (AXPY), the workhorse of SGD and the ADMM
    /// W-step regulariser.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sets every element to zero.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for the (impossible)
    /// empty case.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in the flat buffer.
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Frobenius norm (`sqrt(sum(x^2))`), used for ADMM convergence checks
    /// and block-norm ranking.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>()
    }

    /// Number of elements with value exactly zero.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&x| x == 0.0).count()
    }

    /// Number of non-zero elements.
    pub fn count_nonzeros(&self) -> usize {
        self.len() - self.count_zeros()
    }

    /// Dot product of two equally-shaped tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        self.assert_same_shape(other);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// `true` if every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// All three GEMM variants (`matmul`, [`Tensor::matmul_nt`],
    /// [`Tensor::matmul_tn`]) funnel into one cache-blocked, row-parallel
    /// kernel and share the **zero-skip contract**: an exactly-zero entry
    /// of the *left* operand contributes nothing to the output, even when
    /// the corresponding right-operand values are `NaN` or `Inf`. This
    /// mirrors the accelerator's block-skip datapath (pruned weight
    /// blocks are never multiplied) and makes pruned rows proportionally
    /// cheaper on CPU too. Right-operand zeros are *not* skipped, so
    /// `NaN` in the left operand still propagates.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with compatible inner
    /// dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.shape.rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        gemm_zero_skip(&self.data, m, k, &other.data, n)
    }

    /// `A * B^T` for rank-2 tensors: `[m, k] x [n, k] -> [m, n]`.
    ///
    /// Used by convolution backward passes. Routes through
    /// [`gemm_nt_into`], whose packed side folds the transpose into the
    /// `B`-panel packing — no `B^T` buffer is materialised, and the
    /// accumulation order (and therefore the zero-skip contract, see
    /// [`Tensor::matmul`]) is byte-for-byte the same as `matmul`'s on
    /// the transposed operand.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul_nt lhs must be rank-2");
        assert_eq!(other.shape.rank(), 2, "matmul_nt rhs must be rank-2");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (n, k2) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "matmul_nt inner dimension mismatch: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        gemm_nt_into(&self.data, m, k, &other.data, n, &mut out);
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// `A^T * B` for rank-2 tensors: `[k, m] x [k, n] -> [m, n]`.
    ///
    /// `A^T` is materialised once so the inner kernel — and therefore the
    /// zero-skip contract, see [`Tensor::matmul`] — is byte-for-byte the
    /// same as `matmul`'s (the skipped zeros are still the *left*
    /// operand's entries).
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul_tn lhs must be rank-2");
        assert_eq!(other.shape.rank(), 2, "matmul_tn rhs must be rank-2");
        let (k, m) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "matmul_tn inner dimension mismatch: {k} vs {k2}");
        let at = self.transpose2();
        gemm_zero_skip(at.data(), m, k, &other.data, n)
    }

    /// Transpose of a rank-2 tensor.
    #[allow(clippy::needless_range_loop)]
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2 requires rank-2");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(Shape::d2(n, m), out)
    }
}

/// The kernel behind all three `matmul*` variants:
/// `[m, k] (row-major a) x [k, n] (row-major b) -> [m, n]`.
///
/// Routes through [`crate::gemm::gemm_into`] — the packed
/// register-tiled kernel for shapes that amortise panel packing,
/// the scalar reference otherwise. Both sides accumulate every output
/// element's non-zero terms in increasing-`k` order (the canonical
/// order, see the [`crate::gemm`] module docs), so results are bitwise
/// identical to each other, to the crate's original scalar kernel, and
/// across `P3D_THREADS` settings. The zero-skip branch on the *left*
/// operand means a pruned (exactly-zero) left entry never touches the
/// right operand — the CPU analogue of the FPGA's block-skip datapath.
fn gemm_zero_skip(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    gemm_into(a, m, k, b, n, &mut out);
    Tensor::from_vec(Shape::d2(m, n), out)
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.len() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, ..., {:.4}]; norm={:.4})",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.frobenius_norm()
            )
        }
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.zip_inplace(rhs, |a, b| a + b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones([4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full([2, 2], 2.5);
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros([2, 3, 4]);
        t.set(&[1, 2, 3], 7.0);
        assert_eq!(t.get(&[1, 2, 3]), 7.0);
        assert_eq!(t.data()[23], 7.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_checked() {
        let _ = Tensor::from_vec([2, 2], vec![1.0; 5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape([3, 2]);
        assert_eq!(r.get(&[2, 1]), 6.0);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]);
        let b = Tensor::from_vec([3], vec![10., 20., 30.]);
        assert_eq!((&a + &b).data(), &[11., 22., 33.]);
        assert_eq!((&b - &a).data(), &[9., 18., 27.]);
        assert_eq!((&a * 2.0).data(), &[2., 4., 6.]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.data(), &[6., 12., 18.]);
        assert_eq!(a.dot(&b), 140.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![-1., 3., 2., 0.]);
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.argmax(), 1);
        assert_eq!(t.count_zeros(), 1);
        assert_eq!(t.count_nonzeros(), 3);
    }

    #[test]
    fn frobenius() {
        let t = Tensor::from_vec([2], vec![3., 4.]);
        assert_eq!(t.frobenius_norm(), 5.0);
        assert_eq!(t.frobenius_norm_sq(), 25.0);
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec([2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose2();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]), 6.0);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn matmul_variants_agree() {
        let a = Tensor::from_vec([2, 3], vec![1., -2., 3., 0.5, 4., -1.]);
        let b = Tensor::from_vec([3, 4], (0..12).map(|x| x as f32 * 0.25 - 1.0).collect());
        let reference = a.matmul(&b);
        assert!(a.matmul_nt(&b.transpose2()).allclose(&reference, 1e-5));
        assert!(a.transpose2().matmul_tn(&b).allclose(&reference, 1e-5));
    }

    #[test]
    fn zero_skip_contract_agrees_across_variants() {
        // Regression: `matmul_nt` used to lack the zero-skip fast path,
        // so a NaN in the right operand opposite an exactly-zero left
        // entry poisoned `matmul_nt` outputs but not `matmul`'s. All
        // three variants now share one kernel; poison the right operand
        // everywhere the left operand is zero and demand agreement.
        let a = Tensor::from_vec(
            [3, 4],
            vec![0., 2., 0., -1., 5., 0., 0., 3., 0., 0., 0., 0.],
        );
        // b[p][j] = NaN wherever *every* row of `a` has a zero in column
        // p — those rows of b are provably never read.
        let mut b_rows = vec![vec![1.0f32, -2.0, 0.5]; 4];
        // a[:, 2] is all zero -> b row 2 can be fully poisoned.
        b_rows[2] = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let b = Tensor::from_vec([4, 3], b_rows.concat());

        let reference = Tensor::from_vec(
            [3, 3],
            vec![
                2. * 1. - 1. * 1.,
                2. * -2. - 1. * -2.,
                2. * 0.5 - 1. * 0.5,
                5. * 1. + 3. * 1.,
                5. * -2. + 3. * -2.,
                5. * 0.5 + 3. * 0.5,
                0.,
                0.,
                0.,
            ],
        );

        let via_nn = a.matmul(&b);
        let via_nt = a.matmul_nt(&b.transpose2());
        let via_tn = a.transpose2().matmul_tn(&b);
        for (name, out) in [("nn", &via_nn), ("nt", &via_nt), ("tn", &via_tn)] {
            assert!(
                out.data().iter().all(|x| x.is_finite()),
                "matmul_{name} leaked NaN/Inf past a left-operand zero: {out:?}"
            );
            assert!(
                out.allclose(&reference, 1e-5),
                "matmul_{name} disagrees with reference: {out:?}"
            );
        }
    }

    #[test]
    fn zero_skip_does_not_skip_right_zeros() {
        // The contract is asymmetric: a NaN in the *left* operand must
        // still propagate even when the right operand is zero.
        let a = Tensor::from_vec([1, 2], vec![f32::NAN, 1.0]);
        let b = Tensor::from_vec([2, 1], vec![0.0, 1.0]);
        assert!(a.matmul(&b).data()[0].is_nan());
    }

    #[test]
    fn gemm_into_bitwise_matches_matmul() {
        use crate::rng::TensorRng;
        let mut rng = TensorRng::seed(77);
        for (m, k, n) in [(1, 5, 3), (4, 7, 9), (12, 3, 300), (9, 16, 257)] {
            let a = rng.uniform_tensor([m, k], -1.0, 1.0);
            let b = rng.uniform_tensor([k, n], -1.0, 1.0);
            let reference = a.matmul(&b);
            let mut out = vec![f32::NAN; m * n]; // stale garbage must be overwritten
            gemm_into(a.data(), m, k, b.data(), n, &mut out);
            assert_eq!(out.as_slice(), reference.data(), "({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_nt_into_bitwise_matches_matmul_nt() {
        use crate::rng::TensorRng;
        let mut rng = TensorRng::seed(78);
        for (m, k, n) in [(1, 6, 4), (5, 11, 8), (10, 4, 300)] {
            let a = rng.uniform_tensor([m, k], -1.0, 1.0);
            let b = rng.uniform_tensor([n, k], -1.0, 1.0);
            let reference = a.matmul_nt(&b);
            let mut out = vec![f32::NAN; m * n];
            gemm_nt_into(a.data(), m, k, b.data(), n, &mut out);
            assert_eq!(out.as_slice(), reference.data(), "({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_into_zero_skip_contract() {
        // An exactly-zero left entry never touches the right operand.
        let a = [0.0f32, 2.0];
        let b = [f32::NAN, 1.0]; // row 0 of b is opposite the zero
        let mut out = [0.0f32];
        gemm_into(&a, 1, 2, &b, 1, &mut out);
        assert_eq!(out[0], 2.0);
        let b_nk = [f32::NAN, 1.0]; // b_nk[0*2+0] = NaN opposite zero
        gemm_nt_into(&a, 1, 2, &b_nk, 1, &mut out);
        assert_eq!(out[0], 2.0);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([2], vec![1.0005, 2.0]);
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-4));
    }
}
