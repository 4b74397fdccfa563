//! Label-preserving augmentations.
//!
//! Horizontal flips — a staple for natural video — are deliberately
//! **absent**: they would swap `TranslateLeft`/`TranslateRight` and the
//! orbit handedness classes. Only augmentations that commute with every
//! motion class are provided.

use p3d_tensor::{Tensor, TensorRng};

/// Adds iid Gaussian noise, clamped back to `[0, 1]`.
pub fn jitter_noise(clip: &Tensor, std: f32, rng: &mut TensorRng) -> Tensor {
    assert!(std >= 0.0, "noise std must be non-negative");
    clip.map(|x| x) // clone via map to keep shape
        .zip(
            &{
                let mut noise = Tensor::zeros(clip.shape());
                for v in noise.data_mut() {
                    *v = rng.normal_with(0.0, std);
                }
                noise
            },
            |a, b| (a + b).clamp(0.0, 1.0),
        )
}

/// Scales intensity by a random factor in `[lo, hi]` (brightness jitter).
pub fn jitter_brightness(clip: &Tensor, lo: f32, hi: f32, rng: &mut TensorRng) -> Tensor {
    assert!(0.0 < lo && lo <= hi, "bad brightness range");
    let k = rng.uniform(lo, hi);
    clip.map(|x| (x * k).clamp(0.0, 1.0))
}

/// Circularly shifts a `[C, D, H, W]` clip by an integer spatial offset.
/// All frames shift together, so relative motion — the class signal — is
/// untouched.
pub fn shift_spatial(clip: &Tensor, dy: isize, dx: isize) -> Tensor {
    let s = clip.shape();
    assert_eq!(s.rank(), 4, "expected [C, D, H, W]");
    let (c, d, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
    let mut out = Tensor::zeros(s);
    for ci in 0..c {
        for t in 0..d {
            let base = (ci * d + t) * h * w;
            for y in 0..h {
                let sy = (y as isize - dy).rem_euclid(h as isize) as usize;
                for x in 0..w {
                    let sx = (x as isize - dx).rem_euclid(w as isize) as usize;
                    out.data_mut()[base + y * w + x] = clip.data()[base + sy * w + sx];
                }
            }
        }
    }
    out
}

/// Reverses the temporal axis. **Not label-preserving** for most classes
/// (left becomes right); exposed for ablation experiments that need
/// "wrong" augmentations, and documented as such.
pub fn reverse_time(clip: &Tensor) -> Tensor {
    let s = clip.shape();
    assert_eq!(s.rank(), 4, "expected [C, D, H, W]");
    let (c, d, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
    let mut out = Tensor::zeros(s);
    let hw = h * w;
    for ci in 0..c {
        for t in 0..d {
            let src = (ci * d + t) * hw;
            let dst = (ci * d + (d - 1 - t)) * hw;
            out.data_mut()[dst..dst + hw].copy_from_slice(&clip.data()[src..src + hw]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_clip() -> Tensor {
        let mut t = Tensor::zeros([1, 2, 4, 4]);
        t.set(&[0, 0, 1, 2], 1.0);
        t.set(&[0, 1, 3, 0], 0.5);
        t
    }

    #[test]
    fn noise_stays_in_range() {
        let mut rng = TensorRng::seed(1);
        let clip = demo_clip();
        let out = jitter_noise(&clip, 0.5, &mut rng);
        assert!(out.min() >= 0.0 && out.max() <= 1.0);
        assert_eq!(out.shape(), clip.shape());
    }

    #[test]
    fn zero_noise_identity() {
        let mut rng = TensorRng::seed(2);
        let clip = demo_clip();
        assert!(jitter_noise(&clip, 0.0, &mut rng).allclose(&clip, 1e-7));
    }

    #[test]
    fn brightness_scales() {
        let mut rng = TensorRng::seed(3);
        let clip = demo_clip();
        let out = jitter_brightness(&clip, 0.5, 0.5, &mut rng);
        assert!((out.get(&[0, 0, 1, 2]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn shift_moves_content() {
        let clip = demo_clip();
        let out = shift_spatial(&clip, 1, 0);
        assert!((out.get(&[0, 0, 2, 2]) - 1.0).abs() < 1e-6);
        assert_eq!(out.get(&[0, 0, 1, 2]), 0.0);
    }

    #[test]
    fn shift_wraps_around() {
        let clip = demo_clip();
        let out = shift_spatial(&clip, 0, -3);
        // x=2 shifted left by 3 wraps to x=3.
        assert!((out.get(&[0, 0, 1, 3]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shift_zero_is_identity() {
        let clip = demo_clip();
        assert_eq!(shift_spatial(&clip, 0, 0), clip);
    }

    #[test]
    fn reverse_time_swaps_frames() {
        let clip = demo_clip();
        let out = reverse_time(&clip);
        assert!((out.get(&[0, 1, 1, 2]) - 1.0).abs() < 1e-6);
        assert!((out.get(&[0, 0, 3, 0]) - 0.5).abs() < 1e-6);
        assert_eq!(reverse_time(&out), clip);
    }
}
