//! The ADMM state and iteration of Section III (Eqs. 4–13).
//!
//! Per targeted layer the algorithm maintains the auxiliary variable `Z`
//! (a projection of the weights onto the sparsity set) and the scaled
//! dual variable `V`. The W-minimisation step (Eq. 11) is ordinary SGD
//! training with an extra quadratic penalty whose gradient is
//! `rho * (W - Z + V)`; the Z-minimisation step (Eq. 13) is the
//! Euclidean projection; the dual update is `V <- V + W - Z` (Eq. 9).

use crate::blocks::{BlockGrid, BlockShape};
use crate::projection::{project_inplace, KeepRule, ProjectionResult};
use p3d_nn::train_state::{pack_u64s, unpack_u64s};
use p3d_tensor::Tensor;
use std::collections::BTreeMap;

/// Sentinel stored in the meta record when no projection has run yet.
const NO_PROJECTION: u64 = u64::MAX;

/// ADMM hyper-parameters (Algorithm 1).
#[derive(Clone, Debug)]
pub struct AdmmConfig {
    /// The multi-rho schedule: one ADMM *round* per entry. The paper uses
    /// `[1e-4, 1e-3, 1e-2, 1e-1]`.
    pub rho_schedule: Vec<f32>,
    /// Training epochs per round (`epoch_rho`; 50 in the paper).
    pub epochs_per_round: usize,
    /// Epochs between Z/V updates (`epoch_admm`; 10 in the paper).
    pub epochs_per_admm_update: usize,
    /// Rule for deriving the kept-block count from `eta`.
    pub keep_rule: KeepRule,
    /// Convergence threshold `epsilon` on the primal/dual residuals
    /// (Eq. 10), relative to the weight norm.
    pub epsilon: f32,
}

impl AdmmConfig {
    /// The paper's schedule: four rounds with rho = 1e-4..1e-1, 50 epochs
    /// per round, Z/V updates every 10 epochs.
    pub fn paper() -> Self {
        AdmmConfig {
            rho_schedule: vec![1e-4, 1e-3, 1e-2, 1e-1],
            epochs_per_round: 50,
            epochs_per_admm_update: 10,
            keep_rule: KeepRule::Round,
            epsilon: 0.02,
        }
    }

    /// A short schedule for the scaled-down experiments: the same
    /// four-decade rho ramp with fewer epochs.
    pub fn fast() -> Self {
        AdmmConfig {
            rho_schedule: vec![1e-3, 1e-2, 1e-1],
            epochs_per_round: 6,
            epochs_per_admm_update: 2,
            keep_rule: KeepRule::Round,
            epsilon: 0.05,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty rho schedule, zero epochs, or a non-positive
    /// epsilon.
    pub fn validate(&self) {
        assert!(!self.rho_schedule.is_empty(), "empty rho schedule");
        assert!(
            self.rho_schedule.iter().all(|&r| r > 0.0),
            "rho must be positive"
        );
        assert!(
            self.epochs_per_round > 0,
            "epochs_per_round must be positive"
        );
        assert!(
            self.epochs_per_admm_update > 0,
            "epochs_per_admm_update must be positive"
        );
        assert!(self.epsilon > 0.0, "epsilon must be positive");
    }
}

/// The ADMM state of one pruned layer.
#[derive(Clone, Debug)]
pub struct AdmmLayerState {
    /// The layer's block grid.
    pub grid: BlockGrid,
    /// Target pruning ratio `eta` (fraction of blocks to zero).
    pub eta: f64,
    /// Auxiliary variable `Z` (lives in the sparsity set).
    pub z: Tensor,
    /// Scaled dual variable `V`.
    pub v: Tensor,
    /// Blocks kept by the last projection.
    pub last_projection: Option<ProjectionResult>,
}

impl AdmmLayerState {
    /// Initialises the state from the current weights:
    /// `Z^0 = Pi_S(W^0)`, `V^0 = 0`.
    ///
    /// (The paper states `Z^0 = W^0`; projecting immediately is
    /// equivalent after the first Z-update and keeps `Z` feasible from
    /// the start.)
    pub fn init(weight: &Tensor, grid: BlockGrid, eta: f64, rule: KeepRule) -> Self {
        let mut z = weight.clone();
        let projection = project_inplace(&mut z, &grid, eta, rule);
        AdmmLayerState {
            grid,
            eta,
            z,
            v: Tensor::zeros(weight.shape()),
            last_projection: Some(projection),
        }
    }

    /// The gradient of the ADMM penalty w.r.t. the weights:
    /// `rho * (W - Z + V)` (Eq. 11). Added to the task gradient by the
    /// training hook.
    pub fn penalty_grad(&self, weight: &Tensor, rho: f32) -> Tensor {
        let mut g = weight - &self.z;
        g += &self.v;
        g.scale(rho);
        g
    }

    /// The penalty value `rho/2 * ||W - Z + V||_F^2` (for monitoring).
    pub fn penalty_value(&self, weight: &Tensor, rho: f32) -> f32 {
        let mut d = weight - &self.z;
        d += &self.v;
        0.5 * rho * d.frobenius_norm_sq()
    }

    /// Z-minimisation and dual update (Eqs. 13 and 9):
    /// `Z <- Pi_S(W + V)`, then `V <- V + W - Z`.
    pub fn update(&mut self, weight: &Tensor, rule: KeepRule) {
        let mut target = weight + &self.v;
        let projection = project_inplace(&mut target, &self.grid, self.eta, rule);
        self.z = target;
        self.last_projection = Some(projection);
        // V += W - Z
        self.v += &(weight - &self.z);
    }

    /// Rescales the dual variable when the penalty parameter changes.
    ///
    /// The scaled dual is `V = U / rho`; Algorithm 1's "Expand rho" step
    /// must preserve the *unscaled* dual `U`, so on a change from
    /// `rho_old` to `rho_new` the scaled dual becomes
    /// `V * rho_old / rho_new`. Without this, growing rho by 10x silently
    /// grows `U` by 10x and the iteration diverges.
    pub fn rescale_dual(&mut self, rho_old: f32, rho_new: f32) {
        assert!(rho_old > 0.0 && rho_new > 0.0, "rho must be positive");
        self.v.scale(rho_old / rho_new);
    }

    /// Exports the state into named tensors under `prefix` for storage in
    /// a training-state checkpoint:
    ///
    /// * `{prefix}.z` / `{prefix}.v` — the ADMM variables (weight-shaped),
    /// * `{prefix}.meta` — exact scalars bit-packed as `u64` lanes:
    ///   `[eta_bits, tm, tn, m, n, kernel_volume, kept_blocks,
    ///   threshold_sq_bits]` (`kept_blocks = u64::MAX` when no projection
    ///   has run),
    /// * `{prefix}.keep` — the last projection's 0/1 keep flags (only
    ///   when a projection has run).
    ///
    /// `eta` and `threshold_sq` are `f64`s stored via `to_bits`, so the
    /// round-trip is lossless.
    pub fn to_tensors(&self, prefix: &str, out: &mut BTreeMap<String, Tensor>) {
        out.insert(format!("{prefix}.z"), self.z.clone());
        out.insert(format!("{prefix}.v"), self.v.clone());
        let (kept, threshold_bits) = match &self.last_projection {
            Some(p) => (p.kept_blocks as u64, p.threshold_sq.to_bits()),
            None => (NO_PROJECTION, 0u64),
        };
        out.insert(
            format!("{prefix}.meta"),
            pack_u64s(&[
                self.eta.to_bits(),
                self.grid.shape.tm as u64,
                self.grid.shape.tn as u64,
                self.grid.m as u64,
                self.grid.n as u64,
                self.grid.kernel_volume as u64,
                kept,
                threshold_bits,
            ]),
        );
        if let Some(p) = &self.last_projection {
            let flags: Vec<f32> = p.keep.iter().map(|&k| if k { 1.0 } else { 0.0 }).collect();
            out.insert(
                format!("{prefix}.keep"),
                Tensor::from_vec([flags.len()], flags),
            );
        }
    }

    /// Reconstructs a state exported by [`AdmmLayerState::to_tensors`].
    ///
    /// Returns `None` when any record is missing or malformed (wrong
    /// lane count, degenerate grid, eta outside `[0, 1)`, `Z`/`V` shape
    /// disagreement, or keep flags of the wrong length) — never panics
    /// on untrusted input.
    pub fn from_tensors(
        prefix: &str,
        tensors: &BTreeMap<String, Tensor>,
    ) -> Option<AdmmLayerState> {
        let meta = unpack_u64s(tensors.get(&format!("{prefix}.meta"))?)?;
        if meta.len() != 8 {
            return None;
        }
        let eta = f64::from_bits(meta[0]);
        if !(eta.is_finite() && (0.0..1.0).contains(&eta)) {
            return None;
        }
        let as_dim =
            |x: u64| -> Option<usize> { (1..=(1u64 << 32)).contains(&x).then_some(x as usize) };
        let (tm, tn) = (as_dim(meta[1])?, as_dim(meta[2])?);
        let (m, n, kernel_volume) = (as_dim(meta[3])?, as_dim(meta[4])?, as_dim(meta[5])?);
        let grid = BlockGrid::new(m, n, kernel_volume, BlockShape::new(tm, tn));
        let z = tensors.get(&format!("{prefix}.z"))?;
        let v = tensors.get(&format!("{prefix}.v"))?;
        let zs = z.shape();
        let shape_ok = zs == v.shape()
            && zs.rank() == 5
            && zs.dim(0) == m
            && zs.dim(1) == n
            && zs.dim(2) * zs.dim(3) * zs.dim(4) == kernel_volume;
        if !shape_ok {
            return None;
        }
        let last_projection = if meta[6] == NO_PROJECTION {
            None
        } else {
            let flags = tensors.get(&format!("{prefix}.keep"))?;
            if flags.data().len() != grid.num_blocks() {
                return None;
            }
            let keep: Vec<bool> = flags.data().iter().map(|&f| f != 0.0).collect();
            let kept_blocks = as_dim(meta[6])?;
            if keep.iter().filter(|&&k| k).count() != kept_blocks {
                return None;
            }
            Some(ProjectionResult {
                keep,
                threshold_sq: f64::from_bits(meta[7]),
                kept_blocks,
            })
        };
        Some(AdmmLayerState {
            grid,
            eta,
            z: z.clone(),
            v: v.clone(),
            last_projection,
        })
    }

    /// Primal residual `||W - Z||_F` relative to `||W||_F` (Eq. 10).
    pub fn primal_residual(&self, weight: &Tensor) -> f32 {
        let num = (weight - &self.z).frobenius_norm();
        num / weight.frobenius_norm().max(1e-12)
    }

    /// Has the layer converged under threshold `epsilon`?
    pub fn converged(&self, weight: &Tensor, epsilon: f32) -> bool {
        self.primal_residual(weight) <= epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockShape;
    use p3d_tensor::TensorRng;

    fn demo_weight(seed: u64) -> (Tensor, BlockGrid) {
        let mut rng = TensorRng::seed(seed);
        let w = rng.uniform_tensor([4, 4, 1, 3, 3], -1.0, 1.0);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(2, 2));
        (w, grid)
    }

    #[test]
    fn init_projects_z_and_zeroes_v() {
        let (w, grid) = demo_weight(1);
        let st = AdmmLayerState::init(&w, grid, 0.5, KeepRule::Round);
        assert_eq!(st.v.frobenius_norm(), 0.0);
        let norms = grid.block_norms_sq(&st.z);
        assert_eq!(norms.iter().filter(|&&n| n > 0.0).count(), 2);
    }

    #[test]
    fn penalty_grad_is_rho_times_residual() {
        let (w, grid) = demo_weight(2);
        let st = AdmmLayerState::init(&w, grid, 0.5, KeepRule::Round);
        let g = st.penalty_grad(&w, 0.1);
        let manual = {
            let mut d = &w - &st.z;
            d.scale(0.1);
            d
        };
        assert!(g.allclose(&manual, 1e-6));
    }

    #[test]
    fn penalty_zero_when_w_equals_z_and_v_zero() {
        let (w, grid) = demo_weight(3);
        let mut st = AdmmLayerState::init(&w, grid, 0.5, KeepRule::Round);
        st.z = w.clone();
        assert_eq!(st.penalty_value(&w, 1.0), 0.0);
        assert!(st.penalty_grad(&w, 1.0).frobenius_norm() < 1e-7);
    }

    #[test]
    fn update_keeps_z_feasible_and_v_tracks_residual() {
        let (w, grid) = demo_weight(4);
        let mut st = AdmmLayerState::init(&w, grid, 0.75, KeepRule::Floor);
        st.update(&w, KeepRule::Floor);
        // Z has exactly 1 nonzero block (floor(0.25*4) = 1).
        let nz = grid
            .block_norms_sq(&st.z)
            .iter()
            .filter(|&&n| n > 0.0)
            .count();
        assert_eq!(nz, 1);
        // After the first update with V0=0: V = W - Z.
        assert!(st.v.allclose(&(&w - &st.z), 1e-6));
    }

    #[test]
    fn iteration_converges_when_w_tracks_z() {
        // Simulate the W-step perfectly minimising the penalty
        // (W <- Z - V): ADMM then converges in a few iterations.
        let (mut w, grid) = demo_weight(5);
        let mut st = AdmmLayerState::init(&w, grid, 0.5, KeepRule::Round);
        for _ in 0..20 {
            // "Training" drives W toward Z - V.
            let target = &st.z - &st.v;
            w.zip_inplace(&target, |cur, t| cur + 0.5 * (t - cur));
            st.update(&w, KeepRule::Round);
        }
        assert!(
            st.converged(&w, 0.05),
            "residual {} too large",
            st.primal_residual(&w)
        );
        // The converged W is (nearly) block-sparse.
        let norms = grid.block_norms_sq(&w);
        let mut sorted = norms.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(
            sorted[2] < sorted[1] * 0.01,
            "pruned blocks not vanishing: {norms:?}"
        );
    }

    #[test]
    fn rescale_dual_preserves_unscaled_dual() {
        let (w, grid) = demo_weight(6);
        let mut st = AdmmLayerState::init(&w, grid, 0.5, KeepRule::Round);
        st.update(&w, KeepRule::Round); // V = W - Z, nonzero
        let u_before = {
            let mut u = st.v.clone();
            u.scale(0.01); // U = rho * V at rho = 0.01
            u
        };
        st.rescale_dual(0.01, 0.1);
        let u_after = {
            let mut u = st.v.clone();
            u.scale(0.1);
            u
        };
        assert!(u_after.allclose(&u_before, 1e-6));
    }

    #[test]
    fn layer_state_tensor_roundtrip_is_exact() {
        let (w, grid) = demo_weight(7);
        let mut st = AdmmLayerState::init(&w, grid, 0.5, KeepRule::Round);
        st.update(&w, KeepRule::Round); // nonzero V, fresh projection
        let mut map = BTreeMap::new();
        st.to_tensors("admm.layer", &mut map);
        let back = AdmmLayerState::from_tensors("admm.layer", &map).expect("roundtrip");
        assert_eq!(back.grid, st.grid);
        assert_eq!(back.eta.to_bits(), st.eta.to_bits());
        assert_eq!(back.z.data(), st.z.data());
        assert_eq!(back.v.data(), st.v.data());
        let (a, b) = (
            back.last_projection.as_ref().unwrap(),
            st.last_projection.as_ref().unwrap(),
        );
        assert_eq!(a.keep, b.keep);
        assert_eq!(a.kept_blocks, b.kept_blocks);
        assert_eq!(a.threshold_sq.to_bits(), b.threshold_sq.to_bits());
    }

    #[test]
    fn layer_state_from_tensors_rejects_malformed() {
        let (w, grid) = demo_weight(8);
        let st = AdmmLayerState::init(&w, grid, 0.5, KeepRule::Round);
        let mut map = BTreeMap::new();
        st.to_tensors("a", &mut map);

        // Missing records.
        assert!(AdmmLayerState::from_tensors("other", &map).is_none());
        let mut no_z = map.clone();
        no_z.remove("a.z");
        assert!(AdmmLayerState::from_tensors("a", &no_z).is_none());

        // Shape disagreement between Z and V.
        let mut bad_v = map.clone();
        bad_v.insert("a.v".into(), Tensor::zeros([2, 2, 1, 3, 3]));
        assert!(AdmmLayerState::from_tensors("a", &bad_v).is_none());

        // Corrupt meta: zero grid dimension must not panic BlockGrid::new.
        let mut bad_meta = map.clone();
        bad_meta.insert(
            "a.meta".into(),
            pack_u64s(&[0.5f64.to_bits(), 0, 2, 4, 4, 9, 2, 0]),
        );
        assert!(AdmmLayerState::from_tensors("a", &bad_meta).is_none());

        // Keep flags inconsistent with the kept-block count.
        let mut bad_keep = map.clone();
        bad_keep.insert("a.keep".into(), Tensor::zeros([4]));
        assert!(AdmmLayerState::from_tensors("a", &bad_keep).is_none());
    }

    #[test]
    fn config_validation() {
        AdmmConfig::paper().validate();
        AdmmConfig::fast().validate();
        let mut bad = AdmmConfig::paper();
        bad.rho_schedule.clear();
        let result = std::panic::catch_unwind(move || bad.validate());
        assert!(result.is_err());
    }

    #[test]
    fn paper_config_matches_section5() {
        let c = AdmmConfig::paper();
        assert_eq!(c.rho_schedule, vec![1e-4, 1e-3, 1e-2, 1e-1]);
        assert_eq!(c.epochs_per_round, 50);
        assert_eq!(c.epochs_per_admm_update, 10);
    }
}
