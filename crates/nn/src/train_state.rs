//! Full-training-state checkpointing.
//!
//! A [`Checkpoint`] captures the *model* (parameters, masks, batch-norm
//! statistics); resuming an interrupted training run additionally needs
//! the *trainer* — SGD velocity buffers, the current learning rate, the
//! shuffling RNG, the LR-schedule position, and (for ADMM runs) the
//! per-layer dual state. [`TrainState`] routes all of those through the
//! same named-tensor container and the same crash-safe `P3DCKPT2` file
//! format, so one atomic file holds everything needed to reproduce the
//! uninterrupted trajectory bitwise.
//!
//! # Key namespace
//!
//! Model tensors keep their natural names (`conv2_1a.spatial.weight`,
//! `bn1.running_mean`, `{param}.mask`). Non-model state lives under
//! reserved prefixes:
//!
//! | prefix       | contents                                              |
//! |--------------|-------------------------------------------------------|
//! | `opt.`       | optimiser: `opt.hyper` (lr/momentum/wd), `opt.velocity.{param}` |
//! | `trainer.`   | `trainer.rng` (shuffle RNG), `trainer.batch`          |
//! | `sched.`     | `sched.params` (LR schedule), `sched.epoch`           |
//! | `admm.`      | per-layer ADMM state (`z`, `v`, `meta`, `keep`) and progress |
//! | `progress.`  | free-form phase counters                              |
//!
//! Exact integers and `f64`s are stored losslessly by bit-packing into
//! `f32` lanes ([`pack_u64s`] / [`unpack_u64s`]); the file format only
//! moves raw bytes, so the packing round-trips exactly.

use crate::checkpoint::{Checkpoint, RestoreReport};
use crate::layer::Layer;
use crate::schedule::LrSchedule;
use crate::trainer::Trainer;
use p3d_tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

/// Key prefixes reserved for non-model training state.
pub const RESERVED_PREFIXES: &[&str] = &["opt.", "trainer.", "sched.", "admm.", "progress."];

/// `true` when `name` belongs to the reserved (non-model) namespace.
pub fn is_reserved_key(name: &str) -> bool {
    RESERVED_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Packs `u64` values losslessly into an `f32` tensor (two 32-bit lanes
/// per value, low half first) for storage in a [`Checkpoint`].
///
/// # Panics
///
/// Panics on an empty slice (zero-length tensors are not representable).
pub fn pack_u64s(vals: &[u64]) -> Tensor {
    assert!(!vals.is_empty(), "cannot pack an empty u64 slice");
    let mut data = Vec::with_capacity(vals.len() * 2);
    for &v in vals {
        data.push(f32::from_bits((v & 0xFFFF_FFFF) as u32));
        data.push(f32::from_bits((v >> 32) as u32));
    }
    Tensor::from_vec([data.len()], data)
}

/// Reverses [`pack_u64s`]. Returns `None` when the tensor does not have
/// an even number of lanes.
pub fn unpack_u64s(t: &Tensor) -> Option<Vec<u64>> {
    let d = t.data();
    if d.is_empty() || !d.len().is_multiple_of(2) {
        return None;
    }
    Some(
        d.chunks_exact(2)
            .map(|c| (c[0].to_bits() as u64) | ((c[1].to_bits() as u64) << 32))
            .collect(),
    )
}

/// The complete state of an interrupted training run.
///
/// Thin wrapper over [`Checkpoint`] that adds the reserved-key
/// conventions and typed accessors for trainer/optimiser/schedule state.
/// Serialisation (atomic save, checksummed hardened load, v1 fallback)
/// is inherited from [`Checkpoint`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainState {
    /// The underlying named-tensor container.
    pub ckpt: Checkpoint,
}

impl TrainState {
    /// An empty training state.
    pub fn new() -> Self {
        TrainState::default()
    }

    /// Inserts (or replaces) a named tensor.
    pub fn insert(&mut self, name: impl Into<String>, t: Tensor) {
        self.ckpt.tensors.insert(name.into(), t);
    }

    /// Looks up a named tensor.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.ckpt.tensors.get(name)
    }

    /// Stores exact `u64` counters under `name`.
    pub fn set_u64s(&mut self, name: impl Into<String>, vals: &[u64]) {
        self.insert(name, pack_u64s(vals));
    }

    /// Reads exact `u64` counters stored by [`TrainState::set_u64s`].
    pub fn u64s(&self, name: &str) -> Option<Vec<u64>> {
        self.get(name).and_then(unpack_u64s)
    }

    // -- capture ------------------------------------------------------

    /// Captures the model: parameters, pruning masks, exported state.
    pub fn capture_model(&mut self, network: &mut dyn Layer) {
        let model = Checkpoint::capture(network);
        self.ckpt.tensors.extend(model.tensors);
    }

    /// Captures the trainer: shuffle-RNG state, batch size, and the
    /// optimiser (velocity buffers + hyper-parameters).
    pub fn capture_trainer(&mut self, trainer: &Trainer) {
        self.set_u64s("trainer.rng", &trainer.rng_state());
        self.set_u64s("trainer.batch", &[trainer.batch_size as u64]);
        trainer.optimizer.export_state(&mut self.ckpt.tensors);
    }

    /// Captures an LR schedule and the current 0-based epoch position.
    pub fn capture_schedule(&mut self, schedule: &LrSchedule, epoch: usize) {
        self.insert("sched.params", schedule.to_tensor());
        self.set_u64s("sched.epoch", &[epoch as u64]);
    }

    // -- restore ------------------------------------------------------

    /// Restores the model tensors, ignoring the reserved non-model keys.
    ///
    /// # Errors
    ///
    /// `InvalidData` unless the state covers the model: a resumed run
    /// needs every model tensor, at its shape.
    pub fn restore_model(&self, network: &mut dyn Layer) -> io::Result<RestoreReport> {
        let mut report = self.ckpt.try_restore(network);
        if !report.missing.is_empty() || !report.mismatched.is_empty() {
            return Err(bad_state(format!(
                "checkpoint does not cover the model: missing {:?}, mismatched {:?}",
                report.missing, report.mismatched
            )));
        }
        report.unused.retain(|n| !is_reserved_key(n));
        Ok(report)
    }

    /// Restores the trainer: RNG stream, batch size check, optimiser
    /// velocity and learning rate.
    ///
    /// # Errors
    ///
    /// `InvalidData` when trainer state is absent or malformed, or when
    /// the stored batch size disagrees with the live trainer (resuming
    /// with a different batch size silently changes the trajectory).
    pub fn restore_trainer(&self, trainer: &mut Trainer) -> io::Result<()> {
        let rng = self
            .u64s("trainer.rng")
            .filter(|v| v.len() == 4)
            .ok_or_else(|| bad_state("trainer.rng missing or malformed"))?;
        let batch = self
            .u64s("trainer.batch")
            .and_then(|v| v.first().copied())
            .ok_or_else(|| bad_state("trainer.batch missing or malformed"))?;
        if batch as usize != trainer.batch_size {
            return Err(bad_state(format!(
                "batch size mismatch: checkpoint {batch}, trainer {}",
                trainer.batch_size
            )));
        }
        trainer.optimizer.import_state(&self.ckpt.tensors)?;
        trainer.set_rng_state([rng[0], rng[1], rng[2], rng[3]]);
        Ok(())
    }

    /// Reads back the schedule and epoch stored by
    /// [`TrainState::capture_schedule`].
    pub fn schedule(&self) -> Option<(LrSchedule, usize)> {
        let sched = LrSchedule::from_tensor(self.get("sched.params")?)?;
        let epoch = self.u64s("sched.epoch")?.first().copied()? as usize;
        Some((sched, epoch))
    }

    // -- serialisation (delegated to Checkpoint) ----------------------

    /// Serialises to any writer (`P3DCKPT2`).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.ckpt.write_to(w)
    }

    /// Deserialises from any reader (hardened; accepts v1 and v2).
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        Ok(TrainState {
            ckpt: Checkpoint::read_from(r)?,
        })
    }

    /// Atomically saves to a file (write `*.tmp`, fsync, rename).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.ckpt.save(path)
    }

    /// Loads from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(TrainState {
            ckpt: Checkpoint::load(path)?,
        })
    }
}

fn bad_state(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Sequential;
    use crate::linear::{Flatten, Linear};
    use crate::loss::CrossEntropyLoss;
    use crate::optim::Sgd;
    use p3d_tensor::TensorRng;

    #[test]
    fn u64_packing_is_lossless() {
        let vals = [0u64, 1, 42, u64::MAX, 0x8000_0000_0000_0001, 7_777_777];
        let t = pack_u64s(&vals);
        // Round-trip through serialisation too: the lanes may be NaN or
        // denormal bit patterns and must survive the file format.
        let mut ck = Checkpoint::default();
        ck.tensors.insert("x".into(), t);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut &buf[..]).unwrap();
        assert_eq!(unpack_u64s(&back.tensors["x"]).unwrap(), vals);
    }

    #[test]
    fn f64_bits_roundtrip_through_packing() {
        for x in [0.9f64, 0.8, 1.0 / 3.0, f64::MIN_POSITIVE] {
            let t = pack_u64s(&[x.to_bits()]);
            let back = f64::from_bits(unpack_u64s(&t).unwrap()[0]);
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn trainer_roundtrip_resumes_rng_and_velocity() {
        let mut rng = TensorRng::seed(1);
        let mut net = Sequential::new()
            .push(Flatten::new())
            .push(Linear::new("fc", 2, 4, true, &mut rng));
        let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.9, 1e-4), 4, 3);
        // A few steps so velocity and RNG are warm.
        let data = crate::trainer::ToyDataset::new(16);
        for _ in 0..3 {
            trainer.train_epoch(&mut net, &data, None);
        }

        let mut state = TrainState::new();
        state.capture_model(&mut net);
        state.capture_trainer(&trainer);
        state.set_u64s("progress.epoch", &[3]);

        // Serialise through bytes.
        let mut buf = Vec::new();
        state.write_to(&mut buf).unwrap();
        let state = TrainState::read_from(&mut &buf[..]).unwrap();

        // Rebuild everything from scratch with *different* seeds.
        let mut rng2 = TensorRng::seed(99);
        let mut net2 = Sequential::new()
            .push(Flatten::new())
            .push(Linear::new("fc", 2, 4, true, &mut rng2));
        let mut trainer2 = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.9, 1e-4), 4, 777);
        state.restore_model(&mut net2).unwrap();
        state.restore_trainer(&mut trainer2).unwrap();
        assert_eq!(state.u64s("progress.epoch"), Some(vec![3]));

        // Both trainers now produce bitwise-identical epochs.
        let a = trainer.train_epoch(&mut net, &data, None);
        let b = trainer2.train_epoch(&mut net2, &data, None);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "loss diverged");
        let wa = Checkpoint::capture(&mut net);
        let wb = Checkpoint::capture(&mut net2);
        assert_eq!(wa, wb, "weights diverged after resume");
    }

    #[test]
    fn restore_trainer_rejects_batch_mismatch() {
        let trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.9, 0.0), 4, 3);
        let mut state = TrainState::new();
        state.capture_trainer(&trainer);
        let mut other = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.9, 0.0), 8, 3);
        assert!(state.restore_trainer(&mut other).is_err());
    }

    #[test]
    fn schedule_roundtrip() {
        let s = LrSchedule::WarmupCosine {
            base_lr: 0.1,
            warmup_epochs: 3,
            total_epochs: 30,
            min_lr: 1e-5,
        };
        let mut state = TrainState::new();
        state.capture_schedule(&s, 17);
        let mut buf = Vec::new();
        state.write_to(&mut buf).unwrap();
        let back = TrainState::read_from(&mut &buf[..]).unwrap();
        let (s2, epoch) = back.schedule().unwrap();
        assert_eq!(s2, s);
        assert_eq!(epoch, 17);
    }

    #[test]
    fn reserved_keys_do_not_pollute_unused() {
        let mut rng = TensorRng::seed(5);
        let mut net = Sequential::new()
            .push(Flatten::new())
            .push(Linear::new("fc", 2, 4, true, &mut rng));
        let trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.9, 0.0), 4, 3);
        let mut state = TrainState::new();
        state.capture_model(&mut net);
        state.capture_trainer(&trainer);
        let report = state.restore_model(&mut net).unwrap();
        assert!(report.unused.is_empty(), "unused: {:?}", report.unused);
    }
}
