//! Property-based tests for the synthetic video generator.

use p3d_nn::Dataset;
use p3d_tensor::TensorRng;
use p3d_video_data::{GeneratorConfig, Motion, SyntheticVideo};
use proptest::prelude::*;

fn any_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        2usize..10,  // frames
        12usize..33, // height
        12usize..33, // width
        1usize..=10, // classes
        0usize..3,   // distractors
        0u8..2,      // noise on/off
    )
        .prop_map(
            |(frames, height, width, num_classes, distractors, noise)| GeneratorConfig {
                frames,
                height,
                width,
                num_classes,
                noise_std: if noise == 1 { 0.02 } else { 0.0 },
                speed: (1.0, 2.0),
                radius: (2.0, 3.5),
                distractors,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clips_always_well_formed(cfg in any_config(), n in 1usize..12, seed in 0u64..1000) {
        let data = SyntheticVideo::generate(&cfg, n, seed);
        prop_assert_eq!(data.len(), n);
        prop_assert_eq!(Dataset::num_classes(&data), cfg.num_classes);
        for i in 0..n {
            let (clip, label) = data.sample(i);
            prop_assert!(label < cfg.num_classes);
            let shape = clip.shape();
            prop_assert_eq!(shape.dims(), &[1, cfg.frames, cfg.height, cfg.width]);
            prop_assert!(clip.min() >= 0.0 && clip.max() <= 1.0);
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_seed(cfg in any_config(), seed in 0u64..1000) {
        let a = SyntheticVideo::generate(&cfg, 4, seed);
        let b = SyntheticVideo::generate(&cfg, 4, seed);
        for i in 0..4 {
            prop_assert_eq!(a.sample(i).0, b.sample(i).0);
        }
    }

    #[test]
    fn labels_cycle_through_classes(cfg in any_config(), n in 1usize..24, seed in 0u64..100) {
        let data = SyntheticVideo::generate(&cfg, n, seed);
        for i in 0..n {
            prop_assert_eq!(data.sample(i).1, i % cfg.num_classes);
        }
    }

    #[test]
    fn every_motion_state_is_finite(
        label in 0usize..10,
        t in 0usize..32,
        sy in 4.0f32..28.0,
        sx in 4.0f32..28.0,
        speed in 0.5f32..3.0,
    ) {
        let m = Motion::ALL[label];
        let s = m.state_at(t, (sy, sx), speed, 3.0, (32, 32));
        prop_assert!(s.centre.0.is_finite() && s.centre.1.is_finite());
        prop_assert!(s.radius.is_finite() && s.radius > 0.0);
        prop_assert!((0.0..=1.0).contains(&s.visibility));
    }

    #[test]
    fn distractors_only_add_mass(seed in 0u64..300) {
        let mut base = GeneratorConfig::small();
        base.noise_std = 0.0;
        let mut cluttered = base.clone();
        cluttered.distractors = 2;
        // Same seed => identical actor; distractors can only raise pixels
        // (max blending).
        let mut r1 = TensorRng::seed(seed);
        let mut r2 = TensorRng::seed(seed);
        let plain = p3d_video_data::generator::render_clip(&base, Motion::TranslateRight, &mut r1);
        let rich = p3d_video_data::generator::render_clip(&cluttered, Motion::TranslateRight, &mut r2);
        for (a, b) in plain.data().iter().zip(rich.data()) {
            prop_assert!(b + 1e-6 >= *a, "distractor erased actor pixel");
        }
    }
}
