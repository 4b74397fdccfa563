//! Clip generation and the dataset container.

use crate::motion::{Motion, ShapeKind};
use p3d_nn::Dataset;
use p3d_tensor::{Shape, Tensor, TensorRng};

/// Configuration of the synthetic clip generator.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Frames per clip (the paper uses 16-frame clips).
    pub frames: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Number of action classes, `1..=10` (prefix of [`Motion::ALL`]).
    pub num_classes: usize,
    /// Standard deviation of additive Gaussian pixel noise.
    pub noise_std: f32,
    /// Range of per-clip speeds (pixels per frame).
    pub speed: (f32, f32),
    /// Range of base shape radii in pixels.
    pub radius: (f32, f32),
    /// Number of static distractor shapes per clip. Distractors are
    /// drawn identically in every frame, adding appearance clutter that
    /// carries no motion information — the class signal stays purely
    /// temporal.
    pub distractors: usize,
}

impl GeneratorConfig {
    /// A small configuration for fast unit tests: 8 frames of 24x24,
    /// 4 classes.
    pub fn small() -> Self {
        GeneratorConfig {
            frames: 8,
            height: 24,
            width: 24,
            num_classes: 4,
            noise_std: 0.02,
            speed: (1.0, 2.0),
            radius: (2.5, 4.0),
            distractors: 0,
        }
    }

    /// The configuration used by the accuracy experiments: 8 frames of
    /// 32x32 with all 10 motion classes.
    pub fn standard() -> Self {
        GeneratorConfig {
            frames: 8,
            height: 32,
            width: 32,
            num_classes: 10,
            noise_std: 0.03,
            speed: (1.0, 2.5),
            radius: (3.0, 5.0),
            distractors: 0,
        }
    }

    /// A harder variant of [`GeneratorConfig::standard`]: two static
    /// distractor shapes clutter every frame, so appearance statistics
    /// are dominated by objects that never move.
    pub fn standard_hard() -> Self {
        GeneratorConfig {
            distractors: 2,
            ..GeneratorConfig::standard()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an unusable configuration (zero frames, more than 10
    /// classes, non-positive speed...).
    pub fn validate(&self) {
        assert!(self.frames > 0, "frames must be positive");
        assert!(self.height >= 8 && self.width >= 8, "frames too small");
        assert!(
            (1..=Motion::ALL.len()).contains(&self.num_classes),
            "num_classes must be 1..=10"
        );
        assert!(self.noise_std >= 0.0, "noise_std must be non-negative");
        assert!(
            self.speed.0 > 0.0 && self.speed.1 >= self.speed.0,
            "bad speed range"
        );
        assert!(
            self.radius.0 > 0.0 && self.radius.1 >= self.radius.0,
            "bad radius range"
        );
    }
}

/// Renders one clip `[1, D, H, W]` for `motion`.
///
/// Start position, shape, speed and radius come from `rng`; none of them
/// depend on the class.
pub fn render_clip(config: &GeneratorConfig, motion: Motion, rng: &mut TensorRng) -> Tensor {
    config.validate();
    let (h, w, d) = (config.height, config.width, config.frames);
    let radius = rng.uniform(config.radius.0, config.radius.1);
    let speed = rng.uniform(config.speed.0, config.speed.1);
    let shape = ShapeKind::ALL[rng.below(ShapeKind::ALL.len())];
    // Keep the start away from the border so several frames stay visible.
    let margin = radius + 2.0;
    let start = (
        rng.uniform(margin, h as f32 - margin),
        rng.uniform(margin, w as f32 - margin),
    );
    // Static distractors: sampled once per clip, drawn in every frame.
    let distractors: Vec<(ShapeKind, (f32, f32), f32)> = (0..config.distractors)
        .map(|_| {
            let r = rng.uniform(config.radius.0, config.radius.1);
            let shape = ShapeKind::ALL[rng.below(ShapeKind::ALL.len())];
            let pos = (
                rng.uniform(r + 1.0, h as f32 - r - 1.0),
                rng.uniform(r + 1.0, w as f32 - r - 1.0),
            );
            (shape, pos, r)
        })
        .collect();

    let mut clip = Tensor::zeros(Shape::d4(1, d, h, w));
    for t in 0..d {
        let state = motion.state_at(t, start, speed, radius, (h, w));
        if state.visibility > 0.0 {
            let frame = &mut clip.data_mut()[t * h * w..(t + 1) * h * w];
            // Only rasterise near the shape for speed.
            let r = state.radius + 1.5;
            let y0 = (state.centre.0 - r).floor().max(0.0) as usize;
            let y1 = ((state.centre.0 + r).ceil() as usize + 1).min(h);
            let x0 = (state.centre.1 - r).floor().max(0.0) as usize;
            let x1 = ((state.centre.1 + r).ceil() as usize + 1).min(w);
            for y in y0..y1 {
                for x in x0..x1 {
                    let c = shape.coverage(
                        y as f32 - state.centre.0,
                        x as f32 - state.centre.1,
                        state.radius,
                    );
                    if c > 0.0 {
                        let v = c * state.visibility;
                        let px = &mut frame[y * w + x];
                        *px = px.max(v);
                    }
                }
            }
        }
        // Distractors: identical in every frame (max-blended so overlap
        // with the moving shape never exceeds 1).
        let frame = &mut clip.data_mut()[t * h * w..(t + 1) * h * w];
        for &(shape, pos, r) in &distractors {
            let y0 = (pos.0 - r - 1.5).floor().max(0.0) as usize;
            let y1 = ((pos.0 + r + 1.5).ceil() as usize + 1).min(h);
            let x0 = (pos.1 - r - 1.5).floor().max(0.0) as usize;
            let x1 = ((pos.1 + r + 1.5).ceil() as usize + 1).min(w);
            for y in y0..y1 {
                for x in x0..x1 {
                    let c = shape.coverage(y as f32 - pos.0, x as f32 - pos.1, r);
                    if c > 0.0 {
                        let px = &mut frame[y * w + x];
                        *px = px.max(c * 0.7); // dimmer than the actor
                    }
                }
            }
        }
    }
    if config.noise_std > 0.0 {
        for x in clip.data_mut() {
            *x = (*x + rng.normal_with(0.0, config.noise_std)).clamp(0.0, 1.0);
        }
    }
    clip
}

/// An in-memory synthetic video dataset implementing [`Dataset`].
pub struct SyntheticVideo {
    clips: Vec<(Tensor, usize)>,
    num_classes: usize,
}

impl SyntheticVideo {
    /// Generates `n` clips with balanced class counts, deterministically
    /// from `seed`.
    pub fn generate(config: &GeneratorConfig, n: usize, seed: u64) -> Self {
        config.validate();
        let mut rng = TensorRng::seed(seed);
        let mut clips = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % config.num_classes;
            let clip = render_clip(config, Motion::ALL[label], &mut rng);
            clips.push((clip, label));
        }
        SyntheticVideo {
            clips,
            num_classes: config.num_classes,
        }
    }

    /// Generates disjoint train/test splits (different derived seeds).
    pub fn train_test(
        config: &GeneratorConfig,
        n_train: usize,
        n_test: usize,
        seed: u64,
    ) -> (Self, Self) {
        (
            SyntheticVideo::generate(config, n_train, seed.wrapping_mul(2).wrapping_add(1)),
            SyntheticVideo::generate(config, n_test, seed.wrapping_mul(2).wrapping_add(2)),
        )
    }

    /// Immutable access to the raw clips.
    pub fn clips(&self) -> &[(Tensor, usize)] {
        &self.clips
    }
}

impl Dataset for SyntheticVideo {
    fn len(&self) -> usize {
        self.clips.len()
    }

    fn sample(&self, idx: usize) -> (Tensor, usize) {
        let (clip, label) = &self.clips[idx];
        (clip.clone(), *label)
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let cfg = GeneratorConfig::small();
        let a = SyntheticVideo::generate(&cfg, 8, 3);
        let b = SyntheticVideo::generate(&cfg, 8, 3);
        for i in 0..8 {
            assert_eq!(a.sample(i).0, b.sample(i).0);
            assert_eq!(a.sample(i).1, b.sample(i).1);
        }
    }

    #[test]
    fn balanced_labels() {
        let cfg = GeneratorConfig::small();
        let data = SyntheticVideo::generate(&cfg, 40, 1);
        let mut counts = vec![0usize; cfg.num_classes];
        for i in 0..data.len() {
            counts[data.sample(i).1] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn clip_values_in_unit_range() {
        let cfg = GeneratorConfig::small();
        let data = SyntheticVideo::generate(&cfg, 8, 9);
        for i in 0..data.len() {
            let (clip, _) = data.sample(i);
            assert!(clip.min() >= 0.0 && clip.max() <= 1.0);
            // The shape must actually be drawn somewhere.
            assert!(clip.max() > 0.5, "clip {i} is empty");
        }
    }

    #[test]
    fn motion_is_present_across_frames() {
        // For a translation clip, consecutive frames must differ.
        let mut cfg = GeneratorConfig::small();
        cfg.noise_std = 0.0;
        let mut rng = TensorRng::seed(5);
        let clip = render_clip(&cfg, Motion::TranslateRight, &mut rng);
        let hw = cfg.height * cfg.width;
        let f0 = &clip.data()[0..hw];
        let f4 = &clip.data()[4 * hw..5 * hw];
        let diff: f32 = f0.iter().zip(f4).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1.0, "frames identical: no motion rendered");
    }

    #[test]
    fn frame0_statistics_close_across_classes() {
        // Mean intensity of frame 0 must not leak the label: compare the
        // per-class average of frame-0 mass over many clips.
        let mut cfg = GeneratorConfig::small();
        cfg.noise_std = 0.0;
        cfg.num_classes = 4;
        let hw = cfg.height * cfg.width;
        let mut per_class = [0.0f32; 4];
        let n_per = 24;
        let mut rng = TensorRng::seed(77);
        for (label, mass) in per_class.iter_mut().enumerate() {
            for _ in 0..n_per {
                let clip = render_clip(&cfg, Motion::ALL[label], &mut rng);
                *mass += clip.data()[0..hw].iter().sum::<f32>() / n_per as f32;
            }
        }
        let mean: f32 = per_class.iter().sum::<f32>() / 4.0;
        for (label, &m) in per_class.iter().enumerate() {
            assert!(
                (m - mean).abs() / mean < 0.35,
                "class {label} frame-0 mass {m} deviates from {mean}"
            );
        }
    }

    #[test]
    fn train_test_disjoint_seeds() {
        let cfg = GeneratorConfig::small();
        let (train, test) = SyntheticVideo::train_test(&cfg, 8, 8, 42);
        // Same index, same label parity, but different clip content.
        assert_ne!(train.sample(0).0, test.sample(0).0);
    }

    #[test]
    fn distractors_are_static_and_present() {
        let mut cfg = GeneratorConfig::small();
        cfg.noise_std = 0.0;
        cfg.distractors = 2;
        let mut rng = TensorRng::seed(31);
        let clip = render_clip(&cfg, Motion::TranslateRight, &mut rng);
        // A no-distractor clip from the same seed differs (less mass).
        let mut rng2 = TensorRng::seed(31);
        let mut plain_cfg = cfg.clone();
        plain_cfg.distractors = 0;
        let plain = render_clip(&plain_cfg, Motion::TranslateRight, &mut rng2);
        assert!(clip.sum() > plain.sum(), "distractors add no mass");
        // Distractor pixels are identical across frames: the per-frame
        // difference of the cluttered clip equals that of the plain clip
        // wherever the actor is absent. Cheap proxy: total inter-frame
        // change should not grow much with distractors.
        let hw = cfg.height * cfg.width;
        let change = |t: &Tensor| -> f32 {
            (1..cfg.frames)
                .map(|f| {
                    t.data()[f * hw..(f + 1) * hw]
                        .iter()
                        .zip(&t.data()[(f - 1) * hw..f * hw])
                        .map(|(a, b)| (a - b).abs())
                        .sum::<f32>()
                })
                .sum()
        };
        let (c_change, p_change) = (change(&clip), change(&plain));
        assert!(
            c_change <= p_change + 1e-3,
            "distractors leaked motion: {c_change} vs {p_change}"
        );
    }

    #[test]
    fn standard_hard_has_distractors() {
        assert_eq!(GeneratorConfig::standard_hard().distractors, 2);
        GeneratorConfig::standard_hard().validate();
    }

    #[test]
    #[should_panic(expected = "num_classes")]
    fn too_many_classes_rejected() {
        let mut cfg = GeneratorConfig::small();
        cfg.num_classes = 11;
        let _ = SyntheticVideo::generate(&cfg, 4, 0);
    }
}
