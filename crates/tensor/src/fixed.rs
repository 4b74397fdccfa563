//! 16-bit fixed-point arithmetic matching the paper's FPGA datapath.
//!
//! The DAC 2020 design uses 16-bit fixed point with **1 sign bit,
//! 7 integer bits and 8 fractional bits** (here called *Q7.8*). Products
//! are formed at full precision and accumulated in a wide register — the
//! behaviour of a Xilinx DSP48 slice with its 48-bit accumulator — and only
//! the final sum is rounded and saturated back to Q7.8. [`MacAccumulator`]
//! models exactly that.

use crate::{Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Number of fractional bits in the Q7.8 format.
pub const FRAC_BITS: u32 = 8;
/// Scale factor `2^FRAC_BITS`.
pub const SCALE: f32 = (1 << FRAC_BITS) as f32;

/// A 16-bit fixed-point number: 1 sign bit, 7 integer bits, 8 fractional
/// bits (Q7.8). Representable range is `[-128.0, 127.99609375]` with a
/// resolution of `1/256`.
///
/// All arithmetic saturates instead of wrapping, matching hardware
/// behaviour with saturation logic enabled.
///
/// # Example
///
/// ```
/// use p3d_tensor::Fixed16;
///
/// let a = Fixed16::from_f32(1.5);
/// let b = Fixed16::from_f32(-0.25);
/// assert_eq!((a * b).to_f32(), -0.375);
/// assert_eq!(Fixed16::from_f32(500.0), Fixed16::MAX); // saturates
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Fixed16(i16);

/// Reinterprets a slice of [`Fixed16`] as its raw `i16` bits.
///
/// Sound because `Fixed16` is `#[repr(transparent)]` over `i16`. This is
/// the zero-copy view the SIMD kernels load vectors from.
pub fn bits_of(slice: &[Fixed16]) -> &[i16] {
    // SAFETY: Fixed16 is repr(transparent) over i16, so the layouts and
    // validity invariants are identical (every bit pattern is valid).
    unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const i16, slice.len()) }
}

/// Round-to-nearest signed integer division with the same tie rule as
/// [`MacAccumulator::finish`] (add half the divisor, then floor).
///
/// `finish` rounds a Q*.16 sum with `(acc + 2^(FRAC_BITS-1)) >> FRAC_BITS`
/// — add half an output ULP, then floor (arithmetic shift). This helper
/// generalises exactly that rule to an arbitrary positive divisor:
/// `floor((n + d/2) / d)`, computed as `(2n + d).div_euclid(2d)` so odd
/// divisors keep the exact half offset without a fractional intermediate
/// (callers pass Q-format sums far below `i64::MAX / 2`, so the doubling
/// cannot overflow).
/// For `d = 2^k` it is bit-for-bit `(n + 2^(k-1)) >> k`. Ties round
/// toward +infinity for both signs, matching `finish`/`saturating_mul`.
///
/// # Panics
///
/// Panics in debug builds if `d <= 0` (division by the resulting zero or
/// negative doubled divisor).
pub fn div_round_nearest(n: i64, d: i64) -> i64 {
    debug_assert!(d > 0, "div_round_nearest requires a positive divisor");
    (2 * n + d).div_euclid(2 * d)
}

impl Fixed16 {
    /// Zero.
    pub const ZERO: Fixed16 = Fixed16(0);
    /// One.
    pub const ONE: Fixed16 = Fixed16(1 << FRAC_BITS);
    /// Largest representable value, `127 + 255/256`.
    pub const MAX: Fixed16 = Fixed16(i16::MAX);
    /// Smallest representable value, `-128`.
    pub const MIN: Fixed16 = Fixed16(i16::MIN);

    /// Builds a value from its raw two's-complement bits.
    pub const fn from_bits(bits: i16) -> Self {
        Fixed16(bits)
    }

    /// The raw two's-complement bits.
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest and saturation.
    ///
    /// Non-finite inputs saturate (NaN maps to zero).
    pub fn from_f32(x: f32) -> Self {
        if x.is_nan() {
            return Fixed16::ZERO;
        }
        let scaled = (x * SCALE).round();
        if scaled >= i16::MAX as f32 {
            Fixed16::MAX
        } else if scaled <= i16::MIN as f32 {
            Fixed16::MIN
        } else {
            Fixed16(scaled as i16)
        }
    }

    /// Converts to `f32` exactly (every Q7.8 value is representable).
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / SCALE
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Fixed16) -> Fixed16 {
        Fixed16(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Fixed16) -> Fixed16 {
        Fixed16(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication with round-to-nearest-even-free truncation
    /// toward negative infinity after adding half an ULP (hardware-style
    /// rounding: add `1 << (FRAC_BITS-1)` then arithmetic shift).
    #[inline]
    pub fn saturating_mul(self, rhs: Fixed16) -> Fixed16 {
        let wide = self.0 as i32 * rhs.0 as i32; // Q14.16 in 32 bits
        let rounded = (wide + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        Fixed16(clamp_i32(rounded))
    }

    /// ReLU: `max(self, 0)`.
    #[inline]
    pub fn relu(self) -> Fixed16 {
        if self.0 < 0 {
            Fixed16::ZERO
        } else {
            self
        }
    }

    /// The maximum of two values.
    #[inline]
    pub fn max(self, other: Fixed16) -> Fixed16 {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

#[inline]
fn clamp_i32(x: i32) -> i16 {
    x.clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

impl Add for Fixed16 {
    type Output = Fixed16;
    #[inline]
    fn add(self, rhs: Fixed16) -> Fixed16 {
        self.saturating_add(rhs)
    }
}

impl Sub for Fixed16 {
    type Output = Fixed16;
    #[inline]
    fn sub(self, rhs: Fixed16) -> Fixed16 {
        self.saturating_sub(rhs)
    }
}

impl Mul for Fixed16 {
    type Output = Fixed16;
    #[inline]
    fn mul(self, rhs: Fixed16) -> Fixed16 {
        self.saturating_mul(rhs)
    }
}

impl Neg for Fixed16 {
    type Output = Fixed16;
    fn neg(self) -> Fixed16 {
        Fixed16(self.0.saturating_neg())
    }
}

impl fmt::Debug for Fixed16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed16({})", self.to_f32())
    }
}

impl fmt::Display for Fixed16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<Fixed16> for f32 {
    fn from(x: Fixed16) -> f32 {
        x.to_f32()
    }
}

/// A wide multiply-accumulate register modelling a DSP slice.
///
/// Products of two Q7.8 operands are Q14.16 values held exactly in an
/// `i64` accumulator (a DSP48 has a 48-bit accumulator; `i64` is a safe
/// superset). Only [`MacAccumulator::finish`] rounds and saturates back to
/// Q7.8, so intermediate sums never lose precision or overflow — the same
/// behaviour as the paper's adder-tree datapath.
///
/// # Example
///
/// ```
/// use p3d_tensor::fixed::MacAccumulator;
/// use p3d_tensor::Fixed16;
///
/// let mut acc = MacAccumulator::new();
/// for _ in 0..4 {
///     acc.mac(Fixed16::from_f32(0.5), Fixed16::from_f32(0.5));
/// }
/// assert_eq!(acc.finish().to_f32(), 1.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MacAccumulator {
    acc: i64, // Q*.16
}

impl MacAccumulator {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        MacAccumulator { acc: 0 }
    }

    /// Starts from an existing Q7.8 partial sum (e.g. the output-buffer
    /// value being accumulated across input-channel tiles).
    pub fn from_fixed(x: Fixed16) -> Self {
        MacAccumulator {
            acc: (x.to_bits() as i64) << FRAC_BITS,
        }
    }

    /// Accumulates `a * b` at full precision.
    pub fn mac(&mut self, a: Fixed16, b: Fixed16) {
        self.acc += a.to_bits() as i64 * b.to_bits() as i64;
    }

    /// Adds another accumulator (adder-tree combination).
    pub fn add(&mut self, other: MacAccumulator) {
        self.acc += other.acc;
    }

    /// Rounds and saturates the wide sum back to Q7.8.
    pub fn finish(self) -> Fixed16 {
        let rounded = (self.acc + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        Fixed16::from_bits(rounded.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
    }

    /// The raw Q*.16 accumulator value.
    pub fn raw(self) -> i64 {
        self.acc
    }

    /// `true` when [`MacAccumulator::finish`] will clip at a Q7.8 rail —
    /// i.e. the exact wide sum is outside the representable range and
    /// the quantised output loses information. This is the per-word
    /// saturation-anomaly signal the simulator's `ConvStats` aggregates.
    pub fn saturates(self) -> bool {
        let rounded = (self.acc + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        rounded > i16::MAX as i64 || rounded < i16::MIN as i64
    }
}

/// A dense tensor of [`Fixed16`] values: the on-chip representation used
/// by the FPGA functional simulator.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedTensor {
    shape: Shape,
    data: Vec<Fixed16>,
}

impl FixedTensor {
    /// A zero-filled fixed tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        FixedTensor {
            data: vec![Fixed16::ZERO; shape.len()],
            shape,
        }
    }

    /// Quantises an `f32` tensor to Q7.8 (round-to-nearest, saturating).
    pub fn quantize(t: &Tensor) -> Self {
        FixedTensor {
            shape: t.shape(),
            data: t.data().iter().map(|&x| Fixed16::from_f32(x)).collect(),
        }
    }

    /// Dequantises back to `f32`.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.shape,
            self.data.iter().map(|&x| x.to_f32()).collect(),
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

    /// Always false (zero-sized shapes are rejected at construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat data.
    pub fn data(&self) -> &[Fixed16] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [Fixed16] {
        &mut self.data
    }

    /// Value at a multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> Fixed16 {
        self.data[self.shape.offset(index)]
    }

    /// Sets a value at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: Fixed16) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// The worst-case absolute quantisation error this format introduces
    /// on a tensor whose values lie within range: half an ULP.
    pub fn half_ulp() -> f32 {
        0.5 / SCALE
    }
}

impl fmt::Debug for FixedTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedTensor({}, {} elems)", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_roundtrip_exact_values() {
        for raw in [-32768i16, -256, -1, 0, 1, 255, 256, 32767] {
            let x = Fixed16::from_bits(raw);
            assert_eq!(Fixed16::from_f32(x.to_f32()), x);
        }
    }

    #[test]
    fn conversion_saturates() {
        assert_eq!(Fixed16::from_f32(1e6), Fixed16::MAX);
        assert_eq!(Fixed16::from_f32(-1e6), Fixed16::MIN);
        assert_eq!(Fixed16::from_f32(f32::INFINITY), Fixed16::MAX);
        assert_eq!(Fixed16::from_f32(f32::NEG_INFINITY), Fixed16::MIN);
        assert_eq!(Fixed16::from_f32(f32::NAN), Fixed16::ZERO);
    }

    #[test]
    fn rounding_to_nearest() {
        // 1/512 is half an ULP below zero+ULP; rounds to 1/256.
        let x = Fixed16::from_f32(1.0 / 512.0);
        assert_eq!(x.to_bits(), 1);
        let y = Fixed16::from_f32(0.9 / 512.0);
        assert_eq!(y.to_bits(), 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Fixed16::from_f32(2.0);
        let b = Fixed16::from_f32(3.5);
        assert_eq!((a + b).to_f32(), 5.5);
        assert_eq!((a - b).to_f32(), -1.5);
        assert_eq!((a * b).to_f32(), 7.0);
        assert_eq!((-a).to_f32(), -2.0);
    }

    #[test]
    fn addition_saturates() {
        assert_eq!(Fixed16::MAX + Fixed16::ONE, Fixed16::MAX);
        assert_eq!(Fixed16::MIN - Fixed16::ONE, Fixed16::MIN);
        assert_eq!(Fixed16::from_f32(127.0) * Fixed16::from_f32(4.0), Fixed16::MAX);
    }

    #[test]
    fn relu_and_max() {
        assert_eq!(Fixed16::from_f32(-1.0).relu(), Fixed16::ZERO);
        assert_eq!(Fixed16::from_f32(1.0).relu(), Fixed16::ONE);
        assert_eq!(Fixed16::ONE.max(Fixed16::ZERO), Fixed16::ONE);
    }

    #[test]
    fn mac_accumulator_exact_intermediate() {
        // Sum of 1000 products of 0.125 * 0.125 = 15.625; each product is
        // below one ULP/2 * 8 but the accumulator holds it exactly.
        let mut acc = MacAccumulator::new();
        let x = Fixed16::from_f32(0.125);
        for _ in 0..1000 {
            acc.mac(x, x);
        }
        assert_eq!(acc.finish().to_f32(), 15.625);
    }

    #[test]
    fn mac_from_partial_sum() {
        let mut acc = MacAccumulator::from_fixed(Fixed16::from_f32(2.0));
        acc.mac(Fixed16::ONE, Fixed16::ONE);
        assert_eq!(acc.finish().to_f32(), 3.0);
    }

    #[test]
    fn mac_adder_tree_combination() {
        let mut left = MacAccumulator::new();
        let mut right = MacAccumulator::new();
        left.mac(Fixed16::from_f32(1.5), Fixed16::from_f32(2.0));
        right.mac(Fixed16::from_f32(-0.5), Fixed16::from_f32(2.0));
        left.add(right);
        assert_eq!(left.finish().to_f32(), 2.0);
    }

    #[test]
    fn fixed_tensor_quantize_roundtrip() {
        let t = Tensor::from_vec([4], vec![0.5, -1.25, 127.996, -128.0]);
        let q = FixedTensor::quantize(&t);
        let d = q.dequantize();
        assert!(d.allclose(&t, FixedTensor::half_ulp() + 1e-6));
    }

    #[test]
    fn div_round_nearest_matches_finish_for_power_of_two() {
        // For d = 2^FRAC_BITS the helper must reproduce finish()'s
        // add-half-then-shift rounding exactly, including negatives.
        for acc in [-100_000i64, -385, -384, -383, -129, -128, -127, -1, 0, 1, 127, 128, 129, 383, 384, 100_000] {
            let shifted = (acc + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
            assert_eq!(div_round_nearest(acc, 1 << FRAC_BITS), shifted, "acc={acc}");
        }
    }

    #[test]
    fn div_round_nearest_arbitrary_divisors() {
        // floor((n + d/2) / d) against an exact rational reference.
        for d in 1i64..=9 {
            for n in -50i64..=50 {
                let expect = (2 * n + d).div_euclid(2 * d);
                assert_eq!(div_round_nearest(n, d), expect);
                // Result is always the nearest integer (tie -> larger).
                let r = div_round_nearest(n, d);
                let err2 = (2 * (n - r * d)).abs(); // |remainder| * 2
                assert!(err2 <= d, "n={n} d={d} r={r}");
            }
        }
        // Spot checks: truncation would give 0 for -3/4; nearest gives -1.
        assert_eq!(div_round_nearest(-3, 4), -1);
        assert_eq!(div_round_nearest(3, 4), 1);
        assert_eq!(div_round_nearest(-2, 4), 0); // tie rounds toward +inf
        assert_eq!(div_round_nearest(2, 4), 1);
    }

    #[test]
    fn bits_view_is_transparent() {
        let v = [Fixed16::from_bits(-1), Fixed16::ZERO, Fixed16::MAX];
        assert_eq!(bits_of(&v), &[-1i16, 0, i16::MAX]);
    }

    #[test]
    fn fixed_tensor_get_set() {
        let mut q = FixedTensor::zeros([2, 2]);
        q.set(&[1, 1], Fixed16::ONE);
        assert_eq!(q.get(&[1, 1]), Fixed16::ONE);
        assert_eq!(q.get(&[0, 0]), Fixed16::ZERO);
    }
}
