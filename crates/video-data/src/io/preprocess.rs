//! Fixed-point-friendly frame preprocessing: integer bilinear resize,
//! center crop, and `u8 -> f32` normalization.
//!
//! Everything before the final normalize runs in integer arithmetic
//! with explicit rounding — the same discipline as the Q7.8 datapath —
//! so the output is a pure function of the input bytes: bitwise
//! identical at any thread count, any batching, any decode order.
//!
//! Two implementations of the same math live here:
//!
//! * [`decode_frame_reference`] — the obvious transliteration. It
//!   recomputes sample taps for every output pixel and allocates a
//!   fresh buffer per frame. This is the correctness reference and the
//!   deliberately naive serial-ingest baseline in the benchmarks.
//! * [`FrameResizer`] — the hot path. Taps are precomputed once per
//!   stream geometry, resize and crop are fused (only pixels inside
//!   the crop window are ever computed), and output lands in a
//!   caller-owned buffer, so steady-state decode allocates nothing.
//!
//! The two are bitwise identical by construction (they share
//! `tap_at` and the accumulate/round expressions) and pinned so by
//! property tests.

use std::io;

use super::format::MAX_FRAME_DIM;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Resize-then-center-crop geometry for one ingest stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreprocessConfig {
    /// Bilinear resize target height.
    pub resize_h: usize,
    /// Bilinear resize target width.
    pub resize_w: usize,
    /// Center-crop height (`<= resize_h`).
    pub crop_h: usize,
    /// Center-crop width (`<= resize_w`).
    pub crop_w: usize,
}

impl PreprocessConfig {
    /// Resize straight to the model input size, no crop margin.
    pub fn to_size(h: usize, w: usize) -> PreprocessConfig {
        PreprocessConfig {
            resize_h: h,
            resize_w: w,
            crop_h: h,
            crop_w: w,
        }
    }

    /// Checks dimensions are nonzero, capped, and crop fits resize.
    pub fn validate(&self) -> io::Result<()> {
        for (name, v) in [
            ("resize_h", self.resize_h),
            ("resize_w", self.resize_w),
            ("crop_h", self.crop_h),
            ("crop_w", self.crop_w),
        ] {
            if v == 0 || v > MAX_FRAME_DIM as usize {
                return Err(invalid(format!("{name} = {v} outside 1..={MAX_FRAME_DIM}")));
            }
        }
        if self.crop_h > self.resize_h || self.crop_w > self.resize_w {
            return Err(invalid(format!(
                "crop {}x{} exceeds resize {}x{}",
                self.crop_h, self.crop_w, self.resize_h, self.resize_w
            )));
        }
        Ok(())
    }

    /// Output pixels per frame after crop.
    pub fn output_len(&self) -> usize {
        self.crop_h * self.crop_w
    }

    /// Top offset of the centered crop window in resized coordinates.
    pub fn crop_top(&self) -> usize {
        (self.resize_h - self.crop_h) / 2
    }

    /// Left offset of the centered crop window in resized coordinates.
    pub fn crop_left(&self) -> usize {
        (self.resize_w - self.crop_w) / 2
    }
}

/// One bilinear sample along one axis: two source indices and a Q8
/// weight for the second (`w0 = 256 - w1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tap {
    i0: usize,
    i1: usize,
    w1: u32,
}

/// The tap for output coordinate `out_i` of `out_n` sampling a source
/// axis of `src_n`. Pixel-center convention in Q16 fixed point:
/// `pos = (out_i + 0.5) * src_n / out_n - 0.5`, clamped to the source
/// range, with the fractional part rounded to a Q8 blend weight.
fn tap_at(out_i: usize, out_n: usize, src_n: usize) -> Tap {
    debug_assert!(out_i < out_n && out_n > 0 && src_n > 0);
    let num = (((2 * out_i as i64 + 1) * src_n as i64) << 15) / out_n as i64 - (1 << 15);
    let pos = num.max(0) as u64; // Q16, >= 0
    let mut i0 = (pos >> 16) as usize;
    let mut frac = (pos & 0xFFFF) as u32;
    if i0 >= src_n - 1 {
        i0 = src_n - 1;
        frac = 0;
    }
    let i1 = (i0 + 1).min(src_n - 1);
    // Round the Q16 fraction to Q8. 65535 rounds to 256, i.e. full
    // weight on i1 — w0 becomes 0, still exact.
    let w1 = (frac + 128) >> 8;
    Tap { i0, i1, w1 }
}

/// Blends a 2x2 neighborhood with Q8 row/column weights and rounds to
/// the nearest u8. Max accumulator value is 256*256*255 < 2^31.
#[inline]
fn blend(p00: u32, p01: u32, p10: u32, p11: u32, wx1: u32, wy1: u32) -> u8 {
    let wx0 = 256 - wx1;
    let wy0 = 256 - wy1;
    let top = wx0 * p00 + wx1 * p01;
    let bot = wx0 * p10 + wx1 * p11;
    ((wy0 * top + wy1 * bot + (1 << 15)) >> 16) as u8
}

/// Normalizes one luma byte to `[0, 1]` f32 — the single definition
/// shared by every ingest path, so streamed clips are bitwise
/// identical to any other construction of the same pixels.
#[inline]
pub fn luma_to_f32(v: u8) -> f32 {
    v as f32 / 255.0
}

/// Reference decode of one GRAY8 frame: bilinear resize to
/// `cfg.resize_*`, center crop to `cfg.crop_*`, normalize to f32.
///
/// Allocates the output (and recomputes taps per pixel) by design —
/// this is the naive baseline the fused [`FrameResizer`] is measured
/// and differentially tested against.
pub fn decode_frame_reference(
    src: &[u8],
    src_w: usize,
    src_h: usize,
    cfg: &PreprocessConfig,
) -> Vec<f32> {
    assert_eq!(src.len(), src_w * src_h, "source frame size mismatch");
    cfg.validate().expect("invalid preprocess config");
    let (top, left) = (cfg.crop_top(), cfg.crop_left());
    let mut out = Vec::with_capacity(cfg.output_len());
    for oy in 0..cfg.crop_h {
        let ty = tap_at(oy + top, cfg.resize_h, src_h);
        for ox in 0..cfg.crop_w {
            let tx = tap_at(ox + left, cfg.resize_w, src_w);
            let row0 = ty.i0 * src_w;
            let row1 = ty.i1 * src_w;
            let v = blend(
                src[row0 + tx.i0] as u32,
                src[row0 + tx.i1] as u32,
                src[row1 + tx.i0] as u32,
                src[row1 + tx.i1] as u32,
                tx.w1,
                ty.w1,
            );
            out.push(luma_to_f32(v));
        }
    }
    out
}

/// Fused resize+crop+normalize with taps precomputed per geometry.
///
/// Construct once per stream; [`run`](Self::run) then decodes frames
/// into caller-owned buffers with zero allocations.
pub struct FrameResizer {
    src_w: usize,
    src_h: usize,
    cfg: PreprocessConfig,
    /// Row taps for the crop window only: `crop_h` entries.
    row_taps: Vec<Tap>,
    /// Column taps for the crop window only: `crop_w` entries.
    col_taps: Vec<Tap>,
}

impl FrameResizer {
    /// Precomputes taps for frames of `src_w` x `src_h` under `cfg`.
    pub fn new(src_w: usize, src_h: usize, cfg: PreprocessConfig) -> io::Result<FrameResizer> {
        cfg.validate()?;
        if src_w == 0 || src_h == 0 {
            return Err(invalid("source frame dimensions must be nonzero"));
        }
        let (top, left) = (cfg.crop_top(), cfg.crop_left());
        let row_taps = (0..cfg.crop_h)
            .map(|oy| tap_at(oy + top, cfg.resize_h, src_h))
            .collect();
        let col_taps = (0..cfg.crop_w)
            .map(|ox| tap_at(ox + left, cfg.resize_w, src_w))
            .collect();
        Ok(FrameResizer {
            src_w,
            src_h,
            cfg,
            row_taps,
            col_taps,
        })
    }

    /// The geometry this resizer was built for.
    pub fn config(&self) -> &PreprocessConfig {
        &self.cfg
    }

    /// Decodes one frame into `out` (`cfg.output_len()` floats).
    /// Bitwise identical to [`decode_frame_reference`]; allocates
    /// nothing.
    pub fn run(&self, src: &[u8], out: &mut [f32]) {
        assert_eq!(
            src.len(),
            self.src_w * self.src_h,
            "source frame size mismatch"
        );
        assert_eq!(
            out.len(),
            self.cfg.output_len(),
            "output buffer size mismatch"
        );
        let w = self.src_w;
        for (oy, ty) in self.row_taps.iter().enumerate() {
            let row0 = &src[ty.i0 * w..ty.i0 * w + w];
            let row1 = &src[ty.i1 * w..ty.i1 * w + w];
            let dst = &mut out[oy * self.cfg.crop_w..(oy + 1) * self.cfg.crop_w];
            for (d, tx) in dst.iter_mut().zip(self.col_taps.iter()) {
                let v = blend(
                    row0[tx.i0] as u32,
                    row0[tx.i1] as u32,
                    row1[tx.i0] as u32,
                    row1[tx.i1] as u32,
                    tx.w1,
                    ty.w1,
                );
                *d = luma_to_f32(v);
            }
        }
    }

    #[cfg(test)]
    fn src_dims(&self) -> (usize, usize) {
        (self.src_w, self.src_h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_tensor::TensorRng;

    fn random_frame(rng: &mut TensorRng, w: usize, h: usize) -> Vec<u8> {
        (0..w * h).map(|_| rng.below(256) as u8).collect()
    }

    #[test]
    fn identity_geometry_is_lossless() {
        let mut rng = TensorRng::seed(11);
        let (w, h) = (13, 9);
        let src = random_frame(&mut rng, w, h);
        let cfg = PreprocessConfig::to_size(h, w);
        let out = decode_frame_reference(&src, w, h, &cfg);
        let expect: Vec<f32> = src.iter().map(|&b| luma_to_f32(b)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fast_matches_reference_across_geometries() {
        let mut rng = TensorRng::seed(2020);
        let cases = [
            // (src_w, src_h, resize_h, resize_w, crop_h, crop_w)
            (32, 24, 16, 16, 16, 16),
            (17, 31, 16, 16, 12, 10),
            (8, 8, 16, 16, 16, 16), // upscale
            (64, 48, 20, 24, 16, 16),
            (5, 3, 7, 9, 4, 6),
            (1, 1, 4, 4, 2, 2), // degenerate single-pixel source
            (256, 256, 18, 18, 16, 16),
        ];
        for &(sw, sh, rh, rw, ch, cw) in &cases {
            let cfg = PreprocessConfig {
                resize_h: rh,
                resize_w: rw,
                crop_h: ch,
                crop_w: cw,
            };
            let resizer = FrameResizer::new(sw, sh, cfg).unwrap();
            assert_eq!(resizer.src_dims(), (sw, sh));
            for _ in 0..4 {
                let src = random_frame(&mut rng, sw, sh);
                let reference = decode_frame_reference(&src, sw, sh, &cfg);
                let mut fast = vec![0.0f32; cfg.output_len()];
                resizer.run(&src, &mut fast);
                assert!(
                    fast.iter()
                        .zip(reference.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "fast/reference mismatch at {sw}x{sh} -> {rh}x{rw} crop {ch}x{cw}"
                );
            }
        }
    }

    #[test]
    fn outputs_stay_in_unit_interval() {
        let mut rng = TensorRng::seed(7);
        let cfg = PreprocessConfig {
            resize_h: 10,
            resize_w: 14,
            crop_h: 8,
            crop_w: 12,
        };
        let resizer = FrameResizer::new(21, 15, cfg).unwrap();
        let src = random_frame(&mut rng, 21, 15);
        let mut out = vec![0.0f32; cfg.output_len()];
        resizer.run(&src, &mut out);
        assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(PreprocessConfig {
            resize_h: 4,
            resize_w: 4,
            crop_h: 5,
            crop_w: 4,
        }
        .validate()
        .is_err());
        assert!(PreprocessConfig::to_size(0, 4).validate().is_err());
        assert!(FrameResizer::new(0, 4, PreprocessConfig::to_size(4, 4)).is_err());
    }
}
