//! One-file capture/restore of complete ADMM pruning runs.
//!
//! The ADMM pipeline has two interruptible phases — the ADMM training
//! double loop and masked retraining — and each needs a different state
//! set to resume bitwise-identically:
//!
//! * **ADMM training**: model parameters + BN statistics, SGD velocity
//!   and learning rate, the shuffle-RNG stream, per-layer `Z`/`V`/grid
//!   state, and the `(round, epoch)` position in the double loop.
//! * **Masked retraining**: model parameters + BN statistics + the 0/1
//!   pruning masks, trainer state, the LR schedule, and the epoch count.
//!
//! Both are packed into one [`TrainState`] (and therefore one atomic,
//! checksummed `P3DCKPT2` file). The helpers here are what the bench
//! drivers' `--save-every`/`--resume` flags and the kill-and-resume
//! integration tests use.

use crate::pruner::{AdmmProgress, AdmmPruner};
use p3d_nn::{Layer, LrSchedule, TrainState, Trainer};
use std::io;

/// Key holding the `(round, epoch)` position of the ADMM double loop.
pub const ADMM_PROGRESS_KEY: &str = "progress.admm";
/// Key holding the completed-epoch count of masked retraining.
pub const RETRAIN_PROGRESS_KEY: &str = "progress.retrain";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Captures everything needed to resume an interrupted ADMM training
/// run at `progress` (the position just completed).
pub fn capture_admm_train_state(
    network: &mut dyn Layer,
    trainer: &Trainer,
    pruner: &AdmmPruner,
    progress: AdmmProgress,
) -> TrainState {
    let mut state = TrainState::new();
    state.capture_model(network);
    state.capture_trainer(trainer);
    pruner.export_state(&mut state.ckpt.tensors);
    state.set_u64s(
        ADMM_PROGRESS_KEY,
        &[progress.round as u64, progress.epoch as u64],
    );
    state
}

/// Restores a state captured by [`capture_admm_train_state`] into a
/// freshly-built network, trainer and pruner, returning the position to
/// hand to [`AdmmPruner::admm_train_from`].
///
/// # Errors
///
/// `InvalidData` when the checkpoint does not exactly cover the model
/// (missing or shape-mismatched tensors), the trainer state is absent or
/// inconsistent (e.g. a different batch size), the ADMM state disagrees
/// with the pruner's configuration, or the progress record is missing.
pub fn restore_admm_train_state(
    state: &TrainState,
    network: &mut dyn Layer,
    trainer: &mut Trainer,
    pruner: &mut AdmmPruner,
) -> io::Result<AdmmProgress> {
    state.restore_model(network)?;
    state.restore_trainer(trainer)?;
    pruner.import_state(&state.ckpt.tensors)?;
    let p = state
        .u64s(ADMM_PROGRESS_KEY)
        .filter(|v| v.len() == 2)
        .ok_or_else(|| bad("progress.admm missing or malformed"))?;
    Ok(AdmmProgress {
        round: p[0] as usize,
        epoch: p[1] as usize,
    })
}

/// Captures everything needed to resume interrupted masked retraining
/// after `epochs_done` completed epochs (pruning masks included — they
/// travel as `{param}.mask` tensors and are reinstalled on restore).
pub fn capture_retrain_state(
    network: &mut dyn Layer,
    trainer: &Trainer,
    schedule: &LrSchedule,
    epochs_done: usize,
) -> TrainState {
    let mut state = TrainState::new();
    state.capture_model(network);
    state.capture_trainer(trainer);
    state.capture_schedule(schedule, epochs_done);
    state.set_u64s(RETRAIN_PROGRESS_KEY, &[epochs_done as u64]);
    state
}

/// Restores a state captured by [`capture_retrain_state`], returning the
/// schedule and the epoch to hand to [`AdmmPruner::retrain_from`] as
/// `start_epoch`.
///
/// # Errors
///
/// `InvalidData` under the same conditions as
/// [`restore_admm_train_state`], or when the schedule record is absent.
pub fn restore_retrain_state(
    state: &TrainState,
    network: &mut dyn Layer,
    trainer: &mut Trainer,
) -> io::Result<(LrSchedule, usize)> {
    state.restore_model(network)?;
    state.restore_trainer(trainer)?;
    let (schedule, _sched_epoch) = state
        .schedule()
        .ok_or_else(|| bad("sched.params / sched.epoch missing or malformed"))?;
    let done = state
        .u64s(RETRAIN_PROGRESS_KEY)
        .and_then(|v| v.first().copied())
        .ok_or_else(|| bad("progress.retrain missing or malformed"))?;
    Ok((schedule, done as usize))
}
