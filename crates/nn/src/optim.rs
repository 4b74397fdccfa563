//! Optimisers. The paper trains with SGD; this module provides SGD with
//! momentum and decoupled L2 weight decay.

use crate::layer::{Layer, Param};
use p3d_tensor::Tensor;
use std::collections::{BTreeMap, HashMap};
use std::io;

/// Stochastic gradient descent with momentum and L2 weight decay.
///
/// Velocity buffers are keyed by parameter name, so the optimiser survives
/// arbitrary visitation orders and freshly (re)built networks, as long as
/// parameter names are stable.
///
/// The update is the classic heavy-ball form:
///
/// ```text
/// v  <- momentum * v + grad + weight_decay * w
/// w  <- w - lr * v
/// ```
pub struct Sgd {
    /// Current learning rate; mutate via [`Sgd::set_lr`] each epoch when
    /// driven by a schedule.
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<String, Tensor>,
}

impl Sgd {
    /// Creates an SGD optimiser.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (called by schedules between epochs).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// The momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// The decoupled L2 weight-decay coefficient.
    pub fn weight_decay(&self) -> f32 {
        self.weight_decay
    }

    /// Read access to the velocity buffers (keyed by parameter name).
    pub fn velocity(&self) -> &HashMap<String, Tensor> {
        &self.velocity
    }

    /// Exports the optimiser's full state into a named-tensor map:
    /// `opt.hyper` (`[lr, momentum, weight_decay]`) plus one
    /// `opt.velocity.{param}` tensor per momentum buffer.
    ///
    /// Without the velocity buffers a resumed run takes a different first
    /// step than the uninterrupted run would have (heavy-ball momentum
    /// restarts from zero), so they are part of the training state.
    pub fn export_state(&self, out: &mut BTreeMap<String, Tensor>) {
        out.insert(
            "opt.hyper".to_string(),
            Tensor::from_vec([3], vec![self.lr, self.momentum, self.weight_decay]),
        );
        // BTreeMap keeps the file deterministic regardless of HashMap
        // iteration order.
        for (name, v) in &self.velocity {
            out.insert(format!("opt.velocity.{name}"), v.clone());
        }
    }

    /// Imports state exported by [`Sgd::export_state`], returning the
    /// number of tensors consumed.
    ///
    /// # Errors
    ///
    /// `InvalidData` when `opt.hyper` is present but malformed (wrong
    /// length, non-positive learning rate, momentum outside `[0, 1)`, or
    /// negative weight decay).
    pub fn import_state(&mut self, tensors: &BTreeMap<String, Tensor>) -> io::Result<usize> {
        let mut imported = 0usize;
        if let Some(h) = tensors.get("opt.hyper") {
            let d = h.data();
            let ok = d.len() == 3
                && d[0].is_finite()
                && d[0] > 0.0
                && (0.0..1.0).contains(&d[1])
                && d[2].is_finite()
                && d[2] >= 0.0;
            if !ok {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "malformed opt.hyper tensor",
                ));
            }
            self.lr = d[0];
            self.momentum = d[1];
            self.weight_decay = d[2];
            imported += 1;
        }
        for (name, t) in tensors {
            if let Some(param) = name.strip_prefix("opt.velocity.") {
                self.velocity.insert(param.to_string(), t.clone());
                imported += 1;
            }
        }
        Ok(imported)
    }

    /// Applies one update step to a single parameter.
    pub fn step_param(&mut self, param: &mut Param) {
        // Never decay biases or batch-norm parameters; standard practice
        // and important at these small model scales.
        let decay = match param.kind {
            crate::layer::ParamKind::ConvWeight | crate::layer::ParamKind::LinearWeight => {
                self.weight_decay
            }
            _ => 0.0,
        };
        let v = self
            .velocity
            .entry(param.name.clone())
            .or_insert_with(|| Tensor::zeros(param.value.shape()));
        for ((v, &g), &w) in v
            .data_mut()
            .iter_mut()
            .zip(param.grad.data())
            .zip(param.value.data())
        {
            *v = self.momentum * *v + g + decay * w;
        }
        param.value.axpy(-self.lr, v);
        // Respect a pruning mask if one is installed.
        param.apply_mask();
    }

    /// Applies one update step to every parameter of `layer`, then zeroes
    /// the gradients.
    pub fn step(&mut self, layer: &mut dyn Layer) {
        let mut params: Vec<*mut Param> = Vec::new();
        layer.visit_params(&mut |p| params.push(p as *mut Param));
        // SAFETY: visit_params yields disjoint &mut Param references; we
        // only materialise them one at a time below.
        for p in params {
            let param = unsafe { &mut *p };
            self.step_param(param);
            param.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ParamKind;

    fn param(val: &[f32], grad: &[f32]) -> Param {
        let mut p = Param::new(
            "w",
            ParamKind::ConvWeight,
            Tensor::from_vec([val.len()], val.to_vec()),
        );
        p.grad = Tensor::from_vec([grad.len()], grad.to_vec());
        p
    }

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut p = param(&[1.0, 2.0], &[10.0, -10.0]);
        opt.step_param(&mut p);
        assert_eq!(p.value.data(), &[0.0, 3.0]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(1.0, 0.5, 0.0);
        let mut p = param(&[0.0], &[1.0]);
        opt.step_param(&mut p); // v=1, w=-1
        p.grad = Tensor::from_vec([1], vec![1.0]);
        opt.step_param(&mut p); // v=1.5, w=-2.5
        assert!((p.value.data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        let mut p = param(&[2.0], &[0.0]);
        opt.step_param(&mut p);
        // w - lr * decay * w = 2 - 0.1*0.5*2 = 1.9
        assert!((p.value.data()[0] - 1.9).abs() < 1e-6);
    }

    #[test]
    fn bias_not_decayed() {
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        let mut p = Param::new("b", ParamKind::Bias, Tensor::from_vec([1], vec![2.0]));
        opt.step_param(&mut p);
        assert_eq!(p.value.data(), &[2.0]);
    }

    #[test]
    fn masked_weights_stay_zero() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut p = param(&[1.0, 1.0], &[1.0, 1.0]);
        p.set_mask(Tensor::from_vec([2], vec![0.0, 1.0]));
        p.grad = Tensor::from_vec([2], vec![1.0, 1.0]);
        opt.step_param(&mut p);
        assert_eq!(p.value.data()[0], 0.0);
        assert!((p.value.data()[1] - 0.9).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.9, 0.0);
    }

    #[test]
    fn state_roundtrip_preserves_velocity_and_lr() {
        let mut opt = Sgd::new(0.3, 0.9, 1e-4);
        let mut p = param(&[1.0, 2.0], &[0.5, -0.5]);
        opt.step_param(&mut p);
        opt.set_lr(0.07);

        let mut out = BTreeMap::new();
        opt.export_state(&mut out);
        assert!(out.contains_key("opt.hyper"));
        assert!(out.contains_key("opt.velocity.w"));

        let mut fresh = Sgd::new(1.0, 0.0, 0.0);
        let n = fresh.import_state(&out).unwrap();
        assert_eq!(n, 2);
        assert_eq!(fresh.lr(), 0.07);
        assert_eq!(fresh.momentum(), 0.9);
        assert_eq!(fresh.velocity()["w"], opt.velocity()["w"]);

        // Both take the same next step.
        let mut pa = param(&[1.0], &[1.0]);
        let mut pb = pa.clone();
        pa.grad = Tensor::from_vec([1], vec![1.0]);
        pb.grad = Tensor::from_vec([1], vec![1.0]);
        opt.velocity.remove("w");
        fresh.velocity.remove("w");
        opt.step_param(&mut pa);
        fresh.step_param(&mut pb);
        assert_eq!(pa.value.data()[0].to_bits(), pb.value.data()[0].to_bits());
    }

    #[test]
    fn import_rejects_malformed_hyper() {
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let mut bad = BTreeMap::new();
        bad.insert(
            "opt.hyper".to_string(),
            Tensor::from_vec([2], vec![0.1, 0.9]),
        );
        assert!(opt.import_state(&bad).is_err());
        bad.insert(
            "opt.hyper".to_string(),
            Tensor::from_vec([3], vec![-1.0, 0.9, 0.0]),
        );
        assert!(opt.import_state(&bad).is_err());
    }
}
