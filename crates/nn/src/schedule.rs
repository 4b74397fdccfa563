//! Learning-rate schedules.
//!
//! The paper uses a constant (reduced) learning rate during ADMM training
//! and *warmup + cosine annealing* during masked retraining, following
//! "Bag of Tricks" (He et al., CVPR 2019).

/// A learning-rate schedule mapping an epoch index to a learning rate.
#[derive(Clone, Debug, PartialEq)]
pub enum LrSchedule {
    /// A fixed learning rate.
    Constant {
        /// The learning rate for every epoch.
        lr: f32,
    },
    /// Multiply the base rate by `gamma` every `step` epochs.
    Step {
        /// Initial rate.
        base_lr: f32,
        /// Epochs between decays.
        step: usize,
        /// Multiplicative decay factor.
        gamma: f32,
    },
    /// Linear warmup for `warmup_epochs`, then cosine annealing to
    /// `min_lr` at `total_epochs`.
    WarmupCosine {
        /// Peak rate reached at the end of warmup.
        base_lr: f32,
        /// Number of warmup epochs (0 disables warmup).
        warmup_epochs: usize,
        /// Total schedule length.
        total_epochs: usize,
        /// Final rate.
        min_lr: f32,
    },
}

impl LrSchedule {
    /// The learning rate for `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant { lr } => lr,
            LrSchedule::Step {
                base_lr,
                step,
                gamma,
            } => base_lr * gamma.powi((epoch / step.max(1)) as i32),
            LrSchedule::WarmupCosine {
                base_lr,
                warmup_epochs,
                total_epochs,
                min_lr,
            } => {
                if epoch < warmup_epochs {
                    // Linear ramp: epoch 0 starts at base_lr / warmup_epochs
                    // and epoch warmup_epochs-1 reaches base_lr exactly.
                    base_lr * (epoch + 1) as f32 / warmup_epochs as f32
                } else {
                    let t = (epoch - warmup_epochs) as f32
                        / (total_epochs.saturating_sub(warmup_epochs)).max(1) as f32;
                    let t = t.min(1.0);
                    min_lr + 0.5 * (base_lr - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
                }
            }
        }
    }
    /// Encodes the schedule as a 5-lane tensor `[kind, a, b, c, d]` for
    /// storage in a training-state checkpoint:
    ///
    /// * `Constant`     → `[0, lr, 0, 0, 0]`
    /// * `Step`         → `[1, base_lr, step, gamma, 0]`
    /// * `WarmupCosine` → `[2, base_lr, warmup_epochs, total_epochs, min_lr]`
    ///
    /// Epoch counts are exact for values below 2^24 (far beyond any
    /// schedule in this workspace).
    pub fn to_tensor(&self) -> p3d_tensor::Tensor {
        let lanes = match *self {
            LrSchedule::Constant { lr } => [0.0, lr, 0.0, 0.0, 0.0],
            LrSchedule::Step {
                base_lr,
                step,
                gamma,
            } => [1.0, base_lr, step as f32, gamma, 0.0],
            LrSchedule::WarmupCosine {
                base_lr,
                warmup_epochs,
                total_epochs,
                min_lr,
            } => [
                2.0,
                base_lr,
                warmup_epochs as f32,
                total_epochs as f32,
                min_lr,
            ],
        };
        p3d_tensor::Tensor::from_vec([5], lanes.to_vec())
    }

    /// Decodes a schedule stored by [`LrSchedule::to_tensor`]. Returns
    /// `None` for malformed tensors (wrong length, unknown kind, or
    /// non-integral epoch counts).
    pub fn from_tensor(t: &p3d_tensor::Tensor) -> Option<LrSchedule> {
        let d = t.data();
        if d.len() != 5 {
            return None;
        }
        let as_count = |x: f32| -> Option<usize> {
            (x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x < (1u32 << 24) as f32)
                .then_some(x as usize)
        };
        match as_count(d[0])? {
            0 => Some(LrSchedule::Constant { lr: d[1] }),
            1 => Some(LrSchedule::Step {
                base_lr: d[1],
                step: as_count(d[2])?,
                gamma: d[3],
            }),
            2 => Some(LrSchedule::WarmupCosine {
                base_lr: d[1],
                warmup_epochs: as_count(d[2])?,
                total_epochs: as_count(d[3])?,
                min_lr: d[4],
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_roundtrip_all_variants() {
        for s in [
            LrSchedule::Constant { lr: 5e-4 },
            LrSchedule::Step {
                base_lr: 0.1,
                step: 10,
                gamma: 0.1,
            },
            LrSchedule::WarmupCosine {
                base_lr: 0.02,
                warmup_epochs: 2,
                total_epochs: 25,
                min_lr: 1e-5,
            },
        ] {
            assert_eq!(LrSchedule::from_tensor(&s.to_tensor()), Some(s));
        }
        // Malformed inputs decode to None, never panic.
        let bad = p3d_tensor::Tensor::from_vec([5], vec![9.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(LrSchedule::from_tensor(&bad), None);
        let nan = p3d_tensor::Tensor::from_vec([5], vec![1.0, 0.1, f32::NAN, 0.5, 0.0]);
        assert_eq!(LrSchedule::from_tensor(&nan), None);
    }

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant { lr: 5e-4 };
        assert_eq!(s.lr_at(0), 5e-4);
        assert_eq!(s.lr_at(100), 5e-4);
    }

    #[test]
    fn step_decays() {
        let s = LrSchedule::Step {
            base_lr: 1.0,
            step: 10,
            gamma: 0.1,
        };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert!((s.lr_at(10) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(25) - 0.01).abs() < 1e-8);
    }

    #[test]
    fn warmup_ramps_linearly() {
        let s = LrSchedule::WarmupCosine {
            base_lr: 1.0,
            warmup_epochs: 4,
            total_epochs: 20,
            min_lr: 0.0,
        };
        assert!((s.lr_at(0) - 0.25).abs() < 1e-6);
        assert!((s.lr_at(1) - 0.5).abs() < 1e-6);
        assert!((s.lr_at(3) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_lands_on_min() {
        let s = LrSchedule::WarmupCosine {
            base_lr: 1.0,
            warmup_epochs: 0,
            total_epochs: 10,
            min_lr: 0.01,
        };
        assert!((s.lr_at(0) - 1.0).abs() < 1e-6);
        assert!((s.lr_at(10) - 0.01).abs() < 1e-6);
        // Midpoint is halfway between base and min.
        assert!((s.lr_at(5) - 0.505).abs() < 1e-3);
        // Beyond the horizon it stays at min.
        assert!((s.lr_at(50) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn cosine_monotone_after_warmup() {
        let s = LrSchedule::WarmupCosine {
            base_lr: 0.1,
            warmup_epochs: 2,
            total_epochs: 30,
            min_lr: 0.0,
        };
        let mut prev = s.lr_at(2);
        for e in 3..30 {
            let cur = s.lr_at(e);
            assert!(cur <= prev + 1e-9, "not monotone at epoch {e}");
            prev = cur;
        }
    }
}
