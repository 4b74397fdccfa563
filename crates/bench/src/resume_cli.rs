//! Shared `--save-every` / `--resume` plumbing for the *training*
//! benchmark binaries (`accuracy`, `ablation_admm`, `generality`).
//!
//! The long-running drivers are exactly the ones a crash hurts most, so
//! each of them accepts:
//!
//! ```text
//! --save-every N     checkpoint the full training state every N epochs
//! --resume           pick up from the last saved state, if present
//! --state-dir DIR    where the state files live (default: p3d-state)
//! ```
//!
//! Every phase of a driver (baseline training, ADMM per block shape,
//! retraining per block shape) uses its own tagged state file inside the
//! state directory; a phase's file is deleted when the phase completes,
//! so `--resume` always lands in the phase that was interrupted. All
//! files are atomic, checksummed `P3DCKPT2` checkpoints.

use p3d_nn::{Layer, TrainState, Trainer};
use std::io;
use std::path::PathBuf;

/// Key holding the completed-epoch count of plain (baseline) training.
pub const BASELINE_PROGRESS_KEY: &str = "progress.baseline";

/// Parsed `--save-every` / `--resume` / `--state-dir` options.
#[derive(Clone, Debug)]
pub struct ResumeOpts {
    /// Save the training state every this many epochs (0 = never).
    pub save_every: usize,
    /// Resume from existing state files instead of starting over.
    pub resume: bool,
    /// Directory holding the per-phase state files.
    pub state_dir: PathBuf,
}

impl Default for ResumeOpts {
    fn default() -> Self {
        ResumeOpts {
            save_every: 0,
            resume: false,
            state_dir: PathBuf::from("p3d-state"),
        }
    }
}

impl ResumeOpts {
    /// Parses the process arguments, ignoring flags it does not know.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) when `--save-every` or
    /// `--state-dir` is present without a value, or the value is not a
    /// number.
    pub fn from_args() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut opts = ResumeOpts::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--save-every" => {
                    let v = it.next().expect("--save-every requires a value");
                    opts.save_every = v
                        .parse()
                        .unwrap_or_else(|_| panic!("invalid --save-every value '{v}'"));
                }
                "--resume" => opts.resume = true,
                "--state-dir" => {
                    let v = it.next().expect("--state-dir requires a value");
                    opts.state_dir = PathBuf::from(v);
                }
                _ => {}
            }
        }
        opts
    }

    /// `true` when checkpointing or resuming is requested at all.
    pub fn enabled(&self) -> bool {
        self.save_every > 0 || self.resume
    }

    /// The state file for phase `tag` (e.g. `"baseline"`, `"admm_8x4"`).
    pub fn state_path(&self, tag: &str) -> PathBuf {
        self.state_dir.join(format!("{tag}.state"))
    }

    /// Loads the phase state when `--resume` was given and the file
    /// exists; `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics when the file exists but cannot be parsed — a corrupt
    /// state file should be surfaced, not silently restarted from
    /// scratch.
    pub fn load(&self, tag: &str) -> Option<TrainState> {
        if !self.resume {
            return None;
        }
        let path = self.state_path(tag);
        if !path.exists() {
            return None;
        }
        Some(
            TrainState::load(&path)
                .unwrap_or_else(|e| panic!("cannot load state file {}: {e}", path.display())),
        )
    }

    /// Saves `state` for phase `tag` when `epoch` (1-based, completed)
    /// hits the `--save-every` cadence. Errors are reported, not fatal —
    /// a failed checkpoint must not kill the training run.
    pub fn maybe_save(&self, tag: &str, epoch: usize, state: impl FnOnce() -> TrainState) {
        if self.save_every == 0 || !epoch.is_multiple_of(self.save_every) {
            return;
        }
        if let Err(e) = self.save_now(tag, &state()) {
            eprintln!("warning: cannot save state for {tag}: {e}");
        }
    }

    /// Unconditionally saves `state` for phase `tag`.
    pub fn save_now(&self, tag: &str, state: &TrainState) -> io::Result<()> {
        std::fs::create_dir_all(&self.state_dir)?;
        state.save(self.state_path(tag))
    }

    /// Removes the phase's state file (called when the phase completes).
    pub fn clear(&self, tag: &str) {
        let _ = std::fs::remove_file(self.state_path(tag));
    }
}

/// Captures a plain (no ADMM) training phase after `epochs_done` epochs.
pub fn capture_baseline(
    network: &mut dyn Layer,
    trainer: &Trainer,
    epochs_done: usize,
) -> TrainState {
    let mut state = TrainState::new();
    state.capture_model(network);
    state.capture_trainer(trainer);
    state.set_u64s(BASELINE_PROGRESS_KEY, &[epochs_done as u64]);
    state
}

/// Restores a state captured by [`capture_baseline`] and returns the
/// number of completed epochs.
///
/// # Errors
///
/// `InvalidData` when the checkpoint does not exactly cover the model or
/// the trainer/progress records are missing or inconsistent.
pub fn restore_baseline(
    state: &TrainState,
    network: &mut dyn Layer,
    trainer: &mut Trainer,
) -> io::Result<usize> {
    let report = state.restore_model(network);
    if !report.mismatched.is_empty() || !report.missing.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint does not cover the model: missing {:?}, mismatched {:?}",
                report.missing, report.mismatched
            ),
        ));
    }
    state.restore_trainer(trainer)?;
    state
        .u64s(BASELINE_PROGRESS_KEY)
        .and_then(|v| v.first().copied())
        .map(|e| e as usize)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "progress.baseline missing or malformed",
            )
        })
}

/// Runs (or resumes) a plain training phase of `epochs` epochs with
/// checkpointing, reporting progress through `on_epoch`. Returns the
/// number of epochs actually executed in this process.
pub fn run_baseline_phase(
    opts: &ResumeOpts,
    tag: &str,
    network: &mut dyn Layer,
    trainer: &mut Trainer,
    data: &dyn p3d_nn::Dataset,
    epochs: usize,
    mut on_epoch: impl FnMut(usize, p3d_nn::EpochStats),
) -> usize {
    let mut start = 0usize;
    if let Some(state) = opts.load(tag) {
        start = restore_baseline(&state, network, trainer)
            .unwrap_or_else(|e| panic!("cannot resume {tag}: {e}"));
        eprintln!("[resume] {tag}: continuing after epoch {start}");
    }
    let mut ran = 0usize;
    for e in start..epochs {
        let stats = trainer.train_epoch(network, data, None);
        ran += 1;
        on_epoch(e, stats);
        opts.maybe_save(tag, e + 1, || capture_baseline(network, trainer, e + 1));
    }
    if opts.save_every > 0 && ran > 0 {
        // A completed phase leaves its final state behind so that a
        // crash in a *later* phase of the driver does not force this
        // phase to re-run on resume.
        if let Err(e) = opts.save_now(tag, &capture_baseline(network, trainer, epochs)) {
            eprintln!("warning: cannot save final state for {tag}: {e}");
        }
    }
    ran
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_nn::{Checkpoint, CrossEntropyLoss, Sgd, ToyDataset};
    use p3d_tensor::TensorRng;

    fn toy_net(seed: u64) -> p3d_nn::Sequential {
        let mut rng = TensorRng::seed(seed);
        p3d_nn::Sequential::new()
            .push(p3d_nn::Flatten::new())
            .push(p3d_nn::Linear::new("fc", 2, 4, true, &mut rng))
    }

    #[test]
    fn baseline_phase_resumes_bitwise() {
        let data = ToyDataset::new(16);
        let dir = std::env::temp_dir().join(format!("p3d-resume-cli-{}", std::process::id()));
        let opts = ResumeOpts {
            save_every: 1,
            resume: true,
            state_dir: dir.clone(),
        };

        // Uninterrupted run.
        let mut net_a = toy_net(1);
        let mut tr_a = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.9, 0.0), 4, 9);
        for _ in 0..6 {
            tr_a.train_epoch(&mut net_a, &data, None);
        }

        // Interrupted: 3 epochs, saved, then resumed in fresh objects.
        let mut net_b = toy_net(1);
        let mut tr_b = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.9, 0.0), 4, 9);
        for _ in 0..3 {
            tr_b.train_epoch(&mut net_b, &data, None);
        }
        opts.save_now("t", &capture_baseline(&mut net_b, &tr_b, 3))
            .unwrap();

        let mut net_c = toy_net(77); // different init; must be overwritten
        let mut tr_c = Trainer::new(CrossEntropyLoss::new(), Sgd::new(0.05, 0.9, 0.0), 4, 1);
        let ran = run_baseline_phase(&opts, "t", &mut net_c, &mut tr_c, &data, 6, |_, _| {});
        assert_eq!(ran, 3);
        // A completed phase leaves its final state behind; resuming again
        // runs zero epochs.
        assert!(opts.state_path("t").exists());
        let ran_again = run_baseline_phase(&opts, "t", &mut net_c, &mut tr_c, &data, 6, |_, _| {});
        assert_eq!(ran_again, 0);

        assert_eq!(
            Checkpoint::capture(&mut net_a),
            Checkpoint::capture(&mut net_c),
            "resumed weights diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
