//! The layer abstraction: parameters, forward/backward, and parameter
//! visitation.

use crate::arena::{BufId, EvalArena};
use p3d_tensor::{BlockPattern, Tensor};
use serde::{Deserialize, Serialize};

/// Whether a forward pass is part of training or evaluation.
///
/// Batch normalisation uses batch statistics in [`Mode::Train`] and running
/// statistics in [`Mode::Eval`]; other layers ignore the mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: batch statistics, caches saved for backward.
    Train,
    /// Inference: running statistics, no gradient bookkeeping required.
    Eval,
}

/// The role a parameter tensor plays in its layer.
///
/// The ADMM pruner targets [`ParamKind::ConvWeight`] parameters only, as in
/// the paper ("our weight pruning focuses on the CONV layers").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamKind {
    /// A convolution weight tensor `[M, N, Kd, Kr, Kc]`.
    ConvWeight,
    /// A fully-connected weight matrix `[out, in]`.
    LinearWeight,
    /// A bias vector.
    Bias,
    /// Batch-norm scale.
    BnGamma,
    /// Batch-norm shift.
    BnBeta,
}

/// A trainable parameter: value, gradient accumulator, and an optional
/// binary retraining mask.
///
/// When a mask is installed (after hard pruning), [`Param::apply_mask`]
/// zeroes both the masked weights and their gradients so that masked
/// retraining — the paper's final step — never resurrects pruned weights.
#[derive(Clone, Debug)]
pub struct Param {
    /// Stable, human-readable identifier, e.g. `"conv2_1.spatial.weight"`.
    pub name: String,
    /// What the parameter is (conv weight, bias, ...).
    pub kind: ParamKind,
    /// Current value.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. `value`, accumulated by `backward`.
    pub grad: Tensor,
    /// Optional 0/1 mask; `Some` only during masked retraining.
    pub mask: Option<Tensor>,
}

impl Param {
    /// Creates a parameter with a zeroed gradient and no mask.
    pub fn new(name: impl Into<String>, kind: ParamKind, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: name.into(),
            kind,
            value,
            grad,
            mask: None,
        }
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Installs a 0/1 mask and immediately applies it to the value.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the value shape.
    pub fn set_mask(&mut self, mask: Tensor) {
        assert_eq!(
            mask.shape(),
            self.value.shape(),
            "mask shape {} does not match param {} shape {}",
            mask.shape(),
            self.name,
            self.value.shape()
        );
        self.value.zip_inplace(&mask, |v, m| v * m);
        self.mask = Some(mask);
    }

    /// Removes the mask (weights stay as they are).
    pub fn clear_mask(&mut self) {
        self.mask = None;
    }

    /// Re-applies the mask to value and gradient, if one is installed.
    pub fn apply_mask(&mut self) {
        if let Some(mask) = &self.mask {
            self.value.zip_inplace(mask, |v, m| v * m);
            self.grad.zip_inplace(mask, |g, m| g * m);
        }
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network component.
///
/// Layers own their parameters and activation caches. `forward` must be
/// called before `backward`; `backward` consumes the cached activations,
/// accumulates parameter gradients, and returns the gradient with respect
/// to the layer input.
///
/// `Send` is a supertrait so whole networks can move between (or be
/// replicated across) inference worker threads; layer state is plain
/// owned data, so every implementation satisfies it automatically.
pub trait Layer: Send {
    /// Computes the layer output for `input`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer's input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every parameter in a deterministic order.
    ///
    /// The default implementation visits nothing (parameter-free layers).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Exports non-parameter state needed to reproduce inference outside
    /// this stack (batch-norm running statistics). Keys must be unique
    /// across the network; the default exports nothing.
    fn export_state(&self, _f: &mut dyn FnMut(&str, &Tensor)) {}

    /// Imports non-parameter state previously produced by
    /// [`Layer::export_state`]: each stateful layer asks `get` for its
    /// keys — passing the shape it expects, so the provider can refuse
    /// (and report, rather than panic on) a mismatched tensor — and
    /// installs whatever is returned. The default imports nothing.
    fn import_state(&mut self, _get: &mut dyn FnMut(&str, &p3d_tensor::Shape) -> Option<Tensor>) {}

    /// Evaluation-mode forward through a preallocated buffer arena: reads
    /// the activation in `input`, writes the layer output into an arena
    /// buffer, and returns its id. The input buffer is released (or
    /// reused in place) — callers must not read it afterwards.
    ///
    /// **Contract:** outputs must be bitwise identical to
    /// `forward(input, Mode::Eval)` — same expressions, same evaluation
    /// order — so the batched inference engine can guarantee equality
    /// with the per-clip sequential path.
    ///
    /// The default implementation falls back to the allocating
    /// [`Layer::forward`] (and records the fact via
    /// [`EvalArena::note_fallback`]), so external `Layer` impls keep
    /// working unchanged; the built-in layers override it with
    /// allocation-free kernels.
    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        arena.note_fallback();
        let x = Tensor::from_vec(arena.shape(input), arena.buf(input).to_vec());
        arena.release(input);
        let y = self.forward(&x, Mode::Eval);
        let out = arena.acquire(y.shape());
        arena.buf_mut(out).copy_from_slice(y.data());
        out
    }

    /// Installs (or clears) block-sparse execution patterns.
    ///
    /// Layers that can execute block-sparsely (currently [`crate::Conv3d`],
    /// whose weight is the *left* GEMM operand) call `get` with each
    /// weight parameter's name; a returned [`BlockPattern`] is compiled
    /// to block-CSR ([`p3d_tensor::BlockSparseWeights`]) and used by
    /// `forward`/`eval_into` from then on, `None` restores the dense
    /// path. Containers forward the call to their children; the default
    /// does nothing.
    ///
    /// **Precondition for bitwise-identical results:** the weights
    /// outside enabled blocks must be exactly zero (true after
    /// [`Param::set_mask`] with a block-derived mask, and kept true by
    /// [`Param::apply_mask`] during masked retraining). The sparse path
    /// then skips exactly the terms the dense kernel's zero-skip would
    /// have skipped, in the same order — the CPU mirror of the
    /// accelerator's lossless block skip.
    fn install_block_patterns(&mut self, _get: &mut dyn FnMut(&str) -> Option<BlockPattern>) {}

    /// A short human-readable description, e.g. `"conv3d(16->32, 1x3x3)"`.
    fn describe(&self) -> String;
}

/// Extension helpers available on every `Layer`.
pub trait LayerExt: Layer {
    /// Collects clones of all parameter values (for checkpointing and
    /// tests).
    fn snapshot_params(&mut self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push((p.name.clone(), p.value.clone())));
        out
    }

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zeroes every parameter gradient.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

impl<L: Layer + ?Sized> LayerExt for L {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_has_zero_grad() {
        let p = Param::new("w", ParamKind::ConvWeight, Tensor::ones([2, 3]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 6);
        assert_eq!(p.name, "w");
    }

    #[test]
    fn set_mask_zeroes_weights() {
        let mut p = Param::new("w", ParamKind::ConvWeight, Tensor::ones([4]));
        p.set_mask(Tensor::from_vec([4], vec![1.0, 0.0, 1.0, 0.0]));
        assert_eq!(p.value.data(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn apply_mask_zeroes_grads_too() {
        let mut p = Param::new("w", ParamKind::ConvWeight, Tensor::ones([2]));
        p.set_mask(Tensor::from_vec([2], vec![0.0, 1.0]));
        p.grad = Tensor::from_vec([2], vec![5.0, 5.0]);
        p.apply_mask();
        assert_eq!(p.grad.data(), &[0.0, 5.0]);
        assert_eq!(p.value.data(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "mask shape")]
    fn mask_shape_checked() {
        let mut p = Param::new("w", ParamKind::ConvWeight, Tensor::ones([2]));
        p.set_mask(Tensor::ones([3]));
    }

    #[test]
    fn clear_mask_keeps_values() {
        let mut p = Param::new("w", ParamKind::ConvWeight, Tensor::ones([2]));
        p.set_mask(Tensor::from_vec([2], vec![0.0, 1.0]));
        p.clear_mask();
        assert!(p.mask.is_none());
        assert_eq!(p.value.data(), &[0.0, 1.0]);
    }
}
