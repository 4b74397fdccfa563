//! The training loop shared by baseline training, ADMM training and
//! masked retraining.

use crate::layer::{Layer, Mode, Param};
use crate::loss::CrossEntropyLoss;
use crate::metrics::{accuracy, AverageMeter};
use crate::optim::Sgd;
use p3d_tensor::{Shape, Tensor, TensorRng};

/// A supervised clip dataset: indexable `(clip, label)` pairs where each
/// clip is a `[C, D, H, W]` tensor.
pub trait Dataset {
    /// Number of samples.
    fn len(&self) -> usize;
    /// `true` when the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The `idx`-th sample.
    fn sample(&self, idx: usize) -> (Tensor, usize);
    /// Number of distinct labels.
    fn num_classes(&self) -> usize;
}

/// A tiny linearly separable dataset — class is the sign of the clip
/// mean — used by unit tests and checkpoint/resume smoke tests.
///
/// Deterministic: sample `idx` is always the same `[1, 1, 2, 2]` clip.
#[derive(Clone, Copy, Debug)]
pub struct ToyDataset {
    n: usize,
}

impl ToyDataset {
    /// A dataset with `n` samples (alternating labels).
    pub fn new(n: usize) -> Self {
        ToyDataset { n }
    }
}

impl Dataset for ToyDataset {
    fn len(&self) -> usize {
        self.n
    }
    fn sample(&self, idx: usize) -> (Tensor, usize) {
        let label = idx % 2;
        let value = if label == 0 { -1.0 } else { 1.0 };
        // Index-dependent, deterministic jitter.
        let jitter = (idx as f32 * 0.37).sin() * 0.1;
        (Tensor::full([1, 1, 2, 2], value + jitter), label)
    }
    fn num_classes(&self) -> usize {
        2
    }
}

/// Stacks `[C, D, H, W]` clips into a `[B, C, D, H, W]` batch.
///
/// # Panics
///
/// Panics if the clips disagree in shape or `clips` is empty.
pub fn stack_clips(clips: &[Tensor]) -> Tensor {
    assert!(!clips.is_empty(), "cannot stack an empty batch");
    let s = clips[0].shape();
    assert_eq!(s.rank(), 4, "clips must be [C, D, H, W], got {s}");
    let mut out = Tensor::zeros(Shape::d5(
        clips.len(),
        s.dim(0),
        s.dim(1),
        s.dim(2),
        s.dim(3),
    ));
    let per = s.len();
    for (i, clip) in clips.iter().enumerate() {
        assert_eq!(clip.shape(), s, "clip shape mismatch in batch");
        out.data_mut()[i * per..(i + 1) * per].copy_from_slice(clip.data());
    }
    out
}

/// Summary statistics of one training epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Mean task loss (cross entropy, without any ADMM penalty).
    pub loss: f32,
    /// Mean training top-1 accuracy.
    pub accuracy: f32,
    /// Number of samples processed.
    pub samples: usize,
}

/// A gradient hook invoked on every parameter after backward and before
/// the optimiser step. The ADMM W-minimisation installs
/// `grad += rho * (W - Z + V)` through this hook.
pub type GradHook<'h> = &'h mut dyn FnMut(&mut Param);

/// Drives mini-batch SGD over a [`Dataset`].
pub struct Trainer {
    /// Loss function (with label smoothing where the paper uses it).
    pub loss: CrossEntropyLoss,
    /// The optimiser.
    pub optimizer: Sgd,
    /// Mini-batch size.
    pub batch_size: usize,
    rng: TensorRng,
}

impl Trainer {
    /// Creates a trainer with a deterministic shuffling seed.
    pub fn new(loss: CrossEntropyLoss, optimizer: Sgd, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Trainer {
            loss,
            optimizer,
            batch_size,
            rng: TensorRng::seed(seed),
        }
    }

    /// Exports the shuffle-RNG state for checkpoint/resume.
    ///
    /// Restoring this state with [`Trainer::set_rng_state`] makes a
    /// rebuilt trainer draw the exact same epoch permutations as the
    /// original would have, which is required for bitwise-identical
    /// resumed runs.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.export_state()
    }

    /// Installs a shuffle-RNG state captured by [`Trainer::rng_state`].
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = TensorRng::from_state(state);
    }

    /// Runs one epoch of training, optionally applying a gradient hook
    /// (the ADMM penalty) before each optimiser step.
    pub fn train_epoch(
        &mut self,
        network: &mut dyn Layer,
        data: &dyn Dataset,
        mut hook: Option<GradHook<'_>>,
    ) -> EpochStats {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let order = self.rng.permutation(data.len());
        let mut loss_meter = AverageMeter::new();
        let mut acc_meter = AverageMeter::new();

        for chunk in order.chunks(self.batch_size) {
            let mut clips = Vec::with_capacity(chunk.len());
            let mut labels = Vec::with_capacity(chunk.len());
            for &idx in chunk {
                let (clip, label) = data.sample(idx);
                clips.push(clip);
                labels.push(label);
            }
            let batch = stack_clips(&clips);
            let logits = network.forward(&batch, Mode::Train);
            let (loss, grad) = self.loss.forward(&logits, &labels);
            loss_meter.update(loss, chunk.len());
            acc_meter.update(accuracy(&logits, &labels), chunk.len());
            network.backward(&grad);
            if let Some(h) = hook.as_deref_mut() {
                network.visit_params(h);
            }
            self.optimizer.step(network);
        }
        EpochStats {
            loss: loss_meter.mean(),
            accuracy: acc_meter.mean(),
            samples: data.len(),
        }
    }

    /// Evaluates top-1 accuracy in [`Mode::Eval`].
    pub fn evaluate(&mut self, network: &mut dyn Layer, data: &dyn Dataset) -> f32 {
        evaluate(network, data, self.batch_size)
    }
}

/// Evaluates top-1 accuracy of `network` on `data` in eval mode.
pub fn evaluate(network: &mut dyn Layer, data: &dyn Dataset, batch_size: usize) -> f32 {
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let mut correct = 0usize;
    let indices: Vec<usize> = (0..data.len()).collect();
    for chunk in indices.chunks(batch_size.max(1)) {
        let mut clips = Vec::with_capacity(chunk.len());
        let mut labels = Vec::with_capacity(chunk.len());
        for &idx in chunk {
            let (clip, label) = data.sample(idx);
            clips.push(clip);
            labels.push(label);
        }
        let batch = stack_clips(&clips);
        let logits = network.forward(&batch, Mode::Eval);
        let (b, k) = (logits.shape().dim(0), logits.shape().dim(1));
        for bi in 0..b {
            let row = &logits.data()[bi * k..(bi + 1) * k];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if pred == labels[bi] {
                correct += 1;
            }
        }
    }
    correct as f32 / data.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Sequential;
    use crate::linear::{Flatten, Linear};

    /// A linearly separable toy dataset: class = sign of the mean.
    type Toy = ToyDataset;

    fn toy_net(seed: u64) -> Sequential {
        let mut rng = TensorRng::seed(seed);
        Sequential::new()
            .push(Flatten::new())
            .push(Linear::new("fc", 2, 4, true, &mut rng))
    }

    #[test]
    fn trainer_learns_separable_toy() {
        let mut net = toy_net(1);
        let data = Toy::new(32);
        let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.1, 0.9, 0.0), 8, 42);
        for _ in 0..20 {
            trainer.train_epoch(&mut net, &data, None);
        }
        let after = trainer.evaluate(&mut net, &data);
        assert_eq!(after, 1.0, "toy problem should be solved exactly");
    }

    #[test]
    fn loss_decreases() {
        let mut net = toy_net(2);
        let data = Toy::new(32);
        let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.0, 0.0), 8, 7);
        let first = trainer.train_epoch(&mut net, &data, None).loss;
        for _ in 0..10 {
            trainer.train_epoch(&mut net, &data, None);
        }
        let last = trainer.train_epoch(&mut net, &data, None).loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn grad_hook_is_invoked() {
        let mut net = toy_net(3);
        let data = Toy::new(8);
        let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.01, 0.0, 0.0), 4, 1);
        let mut calls = 0usize;
        let mut hook = |_p: &mut Param| calls += 1;
        trainer.train_epoch(&mut net, &data, Some(&mut hook));
        // 8 samples / batch 4 = 2 steps, 2 params (weight + bias) each.
        assert_eq!(calls, 4);
    }

    #[test]
    fn stack_clips_layout() {
        let a = Tensor::full([1, 1, 1, 2], 1.0);
        let b = Tensor::full([1, 1, 1, 2], 2.0);
        let s = stack_clips(&[a, b]);
        assert_eq!(s.shape().dims(), &[2, 1, 1, 1, 2]);
        assert_eq!(s.data(), &[1., 1., 2., 2.]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn stack_empty_panics() {
        let _ = stack_clips(&[]);
    }
}
