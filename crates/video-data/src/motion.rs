//! Motion patterns (the action classes) and drawable shapes.

/// The shape drawn in a clip. Shapes are sampled independently of the
/// class so appearance carries no label information.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShapeKind {
    /// A filled disc.
    Disc,
    /// A filled axis-aligned square.
    Square,
    /// A plus-shaped cross.
    Cross,
}

impl ShapeKind {
    /// All shapes, for uniform sampling.
    pub const ALL: [ShapeKind; 3] = [ShapeKind::Disc, ShapeKind::Square, ShapeKind::Cross];

    /// Signed coverage of the shape at offset `(dy, dx)` from its centre,
    /// in `[0, 1]`, with a half-pixel soft edge for antialiasing.
    pub fn coverage(&self, dy: f32, dx: f32, radius: f32) -> f32 {
        let soft = |d: f32| (0.5 - d).clamp(0.0, 1.0);
        match self {
            ShapeKind::Disc => {
                let d = (dy * dy + dx * dx).sqrt() - radius;
                soft(d)
            }
            ShapeKind::Square => {
                let d = dy.abs().max(dx.abs()) - radius;
                soft(d)
            }
            ShapeKind::Cross => {
                let arm = (radius * 0.4).max(1.0);
                let dv = dy.abs().max(dx.abs() / arm * radius) - radius;
                let dh = dx.abs().max(dy.abs() / arm * radius) - radius;
                soft(dv.min(dh))
            }
        }
    }
}

/// The ten motion classes. The discriminative signal of every class is
/// purely temporal: a static frame from any class is statistically
/// identical to one from any other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Motion {
    /// Constant velocity to the right.
    TranslateRight,
    /// Constant velocity to the left.
    TranslateLeft,
    /// Constant velocity upward.
    TranslateUp,
    /// Constant velocity downward.
    TranslateDown,
    /// Diagonal motion (down-right).
    TranslateDiagonal,
    /// Clockwise orbit around the clip centre.
    OrbitClockwise,
    /// Counter-clockwise orbit around the clip centre.
    OrbitCounterClockwise,
    /// Radius grows over time.
    Expand,
    /// Radius shrinks over time.
    Shrink,
    /// Shape toggles visibility periodically.
    Blink,
}

impl Motion {
    /// All motions in label order: `Motion::ALL[label]` is the class.
    pub const ALL: [Motion; 10] = [
        Motion::TranslateRight,
        Motion::TranslateLeft,
        Motion::TranslateUp,
        Motion::TranslateDown,
        Motion::TranslateDiagonal,
        Motion::OrbitClockwise,
        Motion::OrbitCounterClockwise,
        Motion::Expand,
        Motion::Shrink,
        Motion::Blink,
    ];

    /// The class label of this motion.
    pub fn label(&self) -> usize {
        Motion::ALL
            .iter()
            .position(|m| m == self)
            .expect("motion in ALL")
    }

    /// State of the shape at frame `t` of `frames`: centre `(y, x)`,
    /// radius, and visibility in `[0, 1]`.
    ///
    /// * `start` — initial centre (uniformly random, class-independent),
    /// * `speed` — pixels per frame (or radians per frame for orbits,
    ///   scale rate for expand/shrink),
    /// * `radius` — base radius,
    /// * `extent` — frame `(height, width)` used for orbit geometry.
    pub fn state_at(
        &self,
        t: usize,
        start: (f32, f32),
        speed: f32,
        radius: f32,
        extent: (usize, usize),
    ) -> MotionState {
        let tf = t as f32;
        let (sy, sx) = start;
        match self {
            Motion::TranslateRight => MotionState::visible((sy, sx + speed * tf), radius),
            Motion::TranslateLeft => MotionState::visible((sy, sx - speed * tf), radius),
            Motion::TranslateUp => MotionState::visible((sy - speed * tf, sx), radius),
            Motion::TranslateDown => MotionState::visible((sy + speed * tf, sx), radius),
            Motion::TranslateDiagonal => MotionState::visible(
                (
                    sy + speed * tf * std::f32::consts::FRAC_1_SQRT_2,
                    sx + speed * tf * std::f32::consts::FRAC_1_SQRT_2,
                ),
                radius,
            ),
            Motion::OrbitClockwise | Motion::OrbitCounterClockwise => {
                let (cy, cx) = (extent.0 as f32 / 2.0, extent.1 as f32 / 2.0);
                let r = ((sy - cy).powi(2) + (sx - cx).powi(2)).sqrt().max(2.0);
                let theta0 = (sy - cy).atan2(sx - cx);
                // Angular speed scaled so tangential speed ~= `speed` px/frame.
                let omega = speed / r;
                let theta = match self {
                    Motion::OrbitClockwise => theta0 + omega * tf,
                    _ => theta0 - omega * tf,
                };
                MotionState::visible((cy + r * theta.sin(), cx + r * theta.cos()), radius)
            }
            Motion::Expand => MotionState::visible((sy, sx), radius * (1.0 + 0.12 * speed * tf)),
            Motion::Shrink => {
                MotionState::visible((sy, sx), (radius * (1.0 - 0.08 * speed * tf)).max(0.8))
            }
            Motion::Blink => {
                // Period tied to speed; ~half duty cycle.
                let period = (6.0 / speed.max(0.25)).max(2.0);
                let phase = (tf / period).fract();
                let vis = if phase < 0.5 { 1.0 } else { 0.0 };
                MotionState {
                    centre: (sy, sx),
                    radius,
                    visibility: vis,
                }
            }
        }
    }
}

/// The instantaneous rendering state of a moving shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MotionState {
    /// Centre `(y, x)` in pixels.
    pub centre: (f32, f32),
    /// Current radius in pixels.
    pub radius: f32,
    /// Visibility in `[0, 1]`.
    pub visibility: f32,
}

impl MotionState {
    fn visible(centre: (f32, f32), radius: f32) -> Self {
        MotionState {
            centre,
            radius,
            visibility: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_dense_and_stable() {
        for (i, m) in Motion::ALL.iter().enumerate() {
            assert_eq!(m.label(), i);
        }
    }

    #[test]
    fn first_frame_is_class_independent() {
        // At t=0 every (non-blink) motion renders the identical state.
        let start = (10.0, 12.0);
        let reference = Motion::TranslateRight.state_at(0, start, 1.5, 3.0, (24, 24));
        for m in Motion::ALL {
            let s = m.state_at(0, start, 1.5, 3.0, (24, 24));
            assert!(
                (s.centre.0 - reference.centre.0).abs() < 1e-4
                    && (s.centre.1 - reference.centre.1).abs() < 1e-4,
                "motion {m:?} leaks class into frame 0 position"
            );
            assert!((s.radius - reference.radius).abs() < 1e-4);
            assert_eq!(s.visibility, 1.0, "motion {m:?} hidden at t=0");
        }
    }

    #[test]
    fn translations_move_in_their_direction() {
        let start = (12.0, 12.0);
        let t5 = |m: Motion| m.state_at(5, start, 1.0, 3.0, (24, 24)).centre;
        assert!(t5(Motion::TranslateRight).1 > 12.0);
        assert!(t5(Motion::TranslateLeft).1 < 12.0);
        assert!(t5(Motion::TranslateUp).0 < 12.0);
        assert!(t5(Motion::TranslateDown).0 > 12.0);
        let d = t5(Motion::TranslateDiagonal);
        assert!(d.0 > 12.0 && d.1 > 12.0);
    }

    #[test]
    fn orbits_preserve_radius_from_centre() {
        let start = (6.0, 12.0);
        let extent = (24, 24);
        let r0 = ((6.0f32 - 12.0).powi(2) + (12.0f32 - 12.0).powi(2)).sqrt();
        for t in 0..8 {
            let s = Motion::OrbitClockwise.state_at(t, start, 1.0, 3.0, extent);
            let r = ((s.centre.0 - 12.0).powi(2) + (s.centre.1 - 12.0).powi(2)).sqrt();
            assert!((r - r0).abs() < 1e-3, "orbit drifts at t={t}: {r} vs {r0}");
        }
    }

    #[test]
    fn orbit_handedness_differs() {
        let start = (6.0, 12.0);
        let cw = Motion::OrbitClockwise.state_at(3, start, 1.5, 3.0, (24, 24));
        let ccw = Motion::OrbitCounterClockwise.state_at(3, start, 1.5, 3.0, (24, 24));
        assert!(
            (cw.centre.1 - ccw.centre.1).abs() > 0.5,
            "handedness indistinguishable"
        );
    }

    #[test]
    fn expand_grows_shrink_shrinks() {
        let start = (12.0, 12.0);
        let e = Motion::Expand.state_at(6, start, 1.0, 3.0, (24, 24));
        let s = Motion::Shrink.state_at(6, start, 1.0, 3.0, (24, 24));
        assert!(e.radius > 3.0);
        assert!(s.radius < 3.0);
        assert!(s.radius >= 0.8, "shrink must not vanish entirely");
    }

    #[test]
    fn blink_toggles() {
        let start = (12.0, 12.0);
        let states: Vec<f32> = (0..12)
            .map(|t| {
                Motion::Blink
                    .state_at(t, start, 1.0, 3.0, (24, 24))
                    .visibility
            })
            .collect();
        assert!(states.contains(&1.0));
        assert!(states.contains(&0.0), "blink never hides: {states:?}");
    }

    #[test]
    fn shape_coverage_profiles() {
        // Full coverage at centre, zero far away, soft in between.
        for shape in ShapeKind::ALL {
            assert!(
                shape.coverage(0.0, 0.0, 3.0) >= 1.0 - 1e-6,
                "{shape:?} centre"
            );
            assert_eq!(shape.coverage(20.0, 20.0, 3.0), 0.0, "{shape:?} far");
        }
        // Disc edge is soft: halfway across the boundary pixel.
        let edge = ShapeKind::Disc.coverage(3.0, 0.0, 3.0);
        assert!(edge > 0.0 && edge < 1.0);
    }

    #[test]
    fn square_and_disc_differ_off_axis() {
        // Corner of the square is inside; same point outside the disc.
        let r = 3.0;
        let sq = ShapeKind::Square.coverage(2.6, 2.6, r);
        let di = ShapeKind::Disc.coverage(2.6, 2.6, r);
        assert!(sq > 0.5);
        assert!(di < 0.5);
    }
}
