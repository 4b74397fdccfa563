//! Softmax cross-entropy loss with optional label smoothing.

use p3d_tensor::Tensor;

/// Softmax cross-entropy over logits `[B, num_classes]`.
///
/// Label smoothing (`epsilon > 0`) replaces the one-hot target with
/// `(1 - eps)` on the true class and `eps / K` elsewhere — the trick the
/// paper borrows from "Bag of Tricks" for ADMM training.
#[derive(Clone, Copy, Debug)]
pub struct CrossEntropyLoss {
    /// Label-smoothing factor in `[0, 1)`. Zero disables smoothing.
    pub label_smoothing: f32,
}

impl CrossEntropyLoss {
    /// Plain cross-entropy.
    pub fn new() -> Self {
        CrossEntropyLoss {
            label_smoothing: 0.0,
        }
    }

    /// Cross-entropy with label smoothing `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= epsilon < 1`.
    pub fn with_smoothing(epsilon: f32) -> Self {
        assert!((0.0..1.0).contains(&epsilon), "epsilon must be in [0, 1)");
        CrossEntropyLoss {
            label_smoothing: epsilon,
        }
    }

    /// Computes the mean loss and the gradient w.r.t. the logits.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is not `[B, K]` or any label is out of range.
    pub fn forward(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let s = logits.shape();
        assert_eq!(s.rank(), 2, "loss expects [B, K] logits, got {s}");
        let (b, k) = (s.dim(0), s.dim(1));
        assert_eq!(labels.len(), b, "label count mismatch");
        assert!(
            labels.iter().all(|&l| l < k),
            "label out of range for {k} classes"
        );

        let eps = self.label_smoothing;
        let off_target = eps / k as f32;
        let on_target = 1.0 - eps + off_target;

        let mut grad = Tensor::zeros(s);
        let mut total = 0.0f64;
        for bi in 0..b {
            let row = &logits.data()[bi * k..(bi + 1) * k];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
            let z: f32 = exps.iter().sum();
            let log_z = z.ln() + max;
            // loss = -sum_c target_c * log p_c
            let mut loss = 0.0f32;
            for c in 0..k {
                let target = if c == labels[bi] {
                    on_target
                } else {
                    off_target
                };
                let log_p = row[c] - log_z;
                loss -= target * log_p;
                grad.data_mut()[bi * k + c] = (exps[c] / z - target) / b as f32;
            }
            total += loss as f64;
        }
        ((total / b as f64) as f32, grad)
    }

    /// Softmax probabilities (inference helper).
    pub fn softmax(logits: &Tensor) -> Tensor {
        let s = logits.shape();
        assert_eq!(s.rank(), 2, "softmax expects [B, K]");
        let (b, k) = (s.dim(0), s.dim(1));
        let mut out = Tensor::zeros(s);
        for bi in 0..b {
            let row = &logits.data()[bi * k..(bi + 1) * k];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
            let z: f32 = exps.iter().sum();
            for c in 0..k {
                out.data_mut()[bi * k + c] = exps[c] / z;
            }
        }
        out
    }
}

impl Default for CrossEntropyLoss {
    fn default() -> Self {
        CrossEntropyLoss::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_loss_is_log_k() {
        let loss = CrossEntropyLoss::new();
        let logits = Tensor::zeros([2, 4]);
        let (l, _) = loss.forward(&logits, &[0, 3]);
        assert!((l - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_low_loss() {
        let loss = CrossEntropyLoss::new();
        let logits = Tensor::from_vec([1, 3], vec![10.0, 0.0, 0.0]);
        let (l, _) = loss.forward(&logits, &[0]);
        assert!(l < 1e-3);
        let (l_wrong, _) = loss.forward(&logits, &[1]);
        assert!(l_wrong > 5.0);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        // softmax grad rows sum to zero (p sums to 1, target sums to 1).
        let loss = CrossEntropyLoss::with_smoothing(0.1);
        let logits = Tensor::from_vec([2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let (_, g) = loss.forward(&logits, &[2, 0]);
        for bi in 0..2 {
            let s: f32 = g.data()[bi * 3..(bi + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let loss = CrossEntropyLoss::with_smoothing(0.05);
        let base = Tensor::from_vec([1, 4], vec![0.5, -0.2, 1.0, 0.1]);
        let (_, g) = loss.forward(&base, &[2]);
        let h = 1e-3;
        for i in 0..4 {
            let mut plus = base.clone();
            plus.data_mut()[i] += h;
            let mut minus = base.clone();
            minus.data_mut()[i] -= h;
            let (lp, _) = loss.forward(&plus, &[2]);
            let (lm, _) = loss.forward(&minus, &[2]);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - g.data()[i]).abs() < 1e-3,
                "logit {i}: fd {fd} vs analytic {}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn smoothing_raises_floor() {
        // With smoothing, even a perfect prediction keeps positive loss.
        let smooth = CrossEntropyLoss::with_smoothing(0.2);
        let logits = Tensor::from_vec([1, 2], vec![100.0, 0.0]);
        let (l, _) = smooth.forward(&logits, &[0]);
        assert!(l > 1.0); // eps/K * 100-ish contribution from the off term
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec([2, 3], vec![1., 2., 3., 0., 0., 0.]);
        let p = CrossEntropyLoss::softmax(&logits);
        for bi in 0..2 {
            let s: f32 = p.data()[bi * 3..(bi + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_range_checked() {
        let loss = CrossEntropyLoss::new();
        let _ = loss.forward(&Tensor::zeros([1, 3]), &[3]);
    }
}
