//! The one loader from a checkpoint to engines behind every `p3d` command.
//!
//! The engines recover the block-enable maps from the checkpoint's masks
//! at the accelerator's `Tm x Tn` ([`PrunedModel::from_masks`]) and skip
//! the pruned blocks, as the paper's accelerator does (Fig. 2). Skipped
//! blocks are zero, so results are bitwise the dense engines'; an
//! unmasked checkpoint runs dense.

use crate::fpga::sim::CompiledNetwork;
use crate::fpga::{AcceleratorConfig, Ports, QuantizedNetwork, Tiling};
use crate::infer::{F32Engine, SimEngine};
use crate::models::{build_network, NetworkSpec};
use crate::nn::{Checkpoint, RestoreError, Sequential};
use crate::pruning::PrunedModel;

/// The accelerator every command simulates: a `(tm, tn)` MAC array at
/// 150 MHz with 16-bit data, whose `Tm x Tn` blocks the engines skip.
pub fn accel_config(tm: usize, tn: usize) -> Result<AcceleratorConfig, String> {
    if tm == 0 || tn == 0 {
        return Err(format!("--tm/--tn must be positive, not {tm}x{tn}"));
    }
    Ok(AcceleratorConfig {
        tiling: Tiling::new(tm, tn, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    })
}

/// A model spec and a checkpoint that fits it.
pub struct ModelCheckpoint {
    spec: NetworkSpec,
    ckpt: Checkpoint,
    seed: u64,
}

impl ModelCheckpoint {
    /// Reads the checkpoint at `path` and checks that it fits `spec`.
    pub fn load(spec: &NetworkSpec, path: &str, seed: u64) -> Result<Self, String> {
        let ckpt = Checkpoint::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
        Self::new(spec, ckpt, seed).map_err(|e| format!("checkpoint {path} {e}"))
    }

    /// Checks that `ckpt` fits `spec`; `seed` initialises what it leaves out.
    pub fn new(spec: &NetworkSpec, ckpt: Checkpoint, seed: u64) -> Result<Self, RestoreError> {
        ckpt.restore_checked(&mut build_network(spec, seed))?;
        Ok(ModelCheckpoint {
            spec: spec.clone(),
            ckpt,
            seed,
        })
    }

    /// The spec's network with the checkpoint's weights and masks.
    pub fn network(&self) -> Sequential {
        let mut net = build_network(&self.spec, self.seed);
        // `new` checked the fit, so this restore cannot panic.
        self.ckpt.restore(&mut net);
        net
    }

    /// The f32 engine with `replicas` networks, skipping masked `tm x tn` blocks.
    pub fn f32(&self, replicas: usize, tm: usize, tn: usize) -> Result<F32Engine, String> {
        let shape = accel_config(tm, tn)?.tiling.block_shape();
        let pruned = PrunedModel::from_masks(&mut self.network(), shape);
        Ok(F32Engine::new_pruned(replicas, || self.network(), &pruned))
    }

    /// The Q7.8 serving engine on the [`accel_config`]`(tm, tn)` accelerator.
    pub fn sim(&self, tm: usize, tn: usize) -> Result<SimEngine, String> {
        let (q, pruned) = self.quantized(tm, tn)?;
        Ok(SimEngine::new(q, pruned))
    }

    /// The network [`ModelCheckpoint::sim`] serves, compiled, and its
    /// accelerator: bitwise the cycle engine, modelled cycles included.
    pub fn compiled(
        &self,
        tm: usize,
        tn: usize,
    ) -> Result<(CompiledNetwork, AcceleratorConfig), String> {
        let (q, pruned) = self.quantized(tm, tn)?;
        Ok((q.compile(&pruned), q.config().clone()))
    }

    fn quantized(&self, tm: usize, tn: usize) -> Result<(QuantizedNetwork, PrunedModel), String> {
        let accel = accel_config(tm, tn)?;
        let mut net = self.network();
        let pruned = PrunedModel::from_masks(&mut net, accel.tiling.block_shape());
        let q = QuantizedNetwork::from_network(&self.spec, &mut net, accel);
        Ok((q, pruned))
    }
}
