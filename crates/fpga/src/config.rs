//! Accelerator and board configuration.

use p3d_core::BlockShape;
use serde::{Deserialize, Serialize};

/// The five-dimensional tiling `(Tm, Tn, Td, Tr, Tc)` of Section IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tiling {
    /// Output-channel tile `Tm`.
    pub tm: usize,
    /// Input-channel tile `Tn`.
    pub tn: usize,
    /// Temporal tile `Td`.
    pub td: usize,
    /// Height tile `Tr`.
    pub tr: usize,
    /// Width tile `Tc`.
    pub tc: usize,
}

impl Tiling {
    /// Creates a tiling.
    ///
    /// # Panics
    ///
    /// Panics if any factor is zero.
    pub fn new(tm: usize, tn: usize, td: usize, tr: usize, tc: usize) -> Self {
        assert!(
            tm > 0 && tn > 0 && td > 0 && tr > 0 && tc > 0,
            "tiling factors must be positive"
        );
        Tiling { tm, tn, td, tr, tc }
    }

    /// The paper's primary configuration: `(64, 8, 4, 14, 14)`.
    pub fn paper_tn8() -> Self {
        Tiling::new(64, 8, 4, 14, 14)
    }

    /// The paper's larger configuration: `(64, 16, 4, 14, 14)`.
    pub fn paper_tn16() -> Self {
        Tiling::new(64, 16, 4, 14, 14)
    }

    /// The weight-block shape this tiling induces — identical to the
    /// pruner's [`BlockShape`], the central co-design point of the paper.
    pub fn block_shape(&self) -> BlockShape {
        BlockShape::new(self.tm, self.tn)
    }

    /// Output-tile volume `Td * Tr * Tc`.
    pub fn out_tile_volume(&self) -> usize {
        self.td * self.tr * self.tc
    }

    /// Parallel MACs per cycle, `Tm * Tn` (one DSP each).
    pub fn macs_per_cycle(&self) -> usize {
        self.tm * self.tn
    }
}

/// Memory-port widths in 16-bit words per cycle for weights, input
/// features and output features (`p_wgt`, `p_in`, `p_out` in Eqs. 19–21).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ports {
    /// Weight-load words per cycle.
    pub wgt: usize,
    /// Input-feature words per cycle.
    pub input: usize,
    /// Output-store words per cycle.
    pub output: usize,
}

impl Ports {
    /// Creates a port configuration.
    ///
    /// # Panics
    ///
    /// Panics if any width is zero.
    pub fn new(wgt: usize, input: usize, output: usize) -> Self {
        assert!(
            wgt > 0 && input > 0 && output > 0,
            "port widths must be positive"
        );
        Ports { wgt, input, output }
    }

    /// The calibration used throughout the reproduction: 4 words/cycle on
    /// the weight and output streams (a 64-bit AXI beat of 16-bit words),
    /// and `Tn/2` words/cycle on the input stream — the input buffer is
    /// partitioned into `Tn` banks (Section IV-A), so its fill bandwidth
    /// scales with `Tn`. With these widths the compute/transfer balance
    /// reproduces the paper's compute-bound behaviour on `3x3` spatial
    /// layers, its transfer-bound behaviour on `Kx1x1` temporal layers,
    /// and the relative gain of the `(64,16)` over the `(64,8)` design.
    pub fn for_tiling(tiling: &Tiling) -> Self {
        Ports::new(4, (tiling.tn / 2).max(1), 4)
    }

    /// The port calibration of the paper's `(64, 8)` design.
    pub fn paper() -> Self {
        Ports::new(4, 4, 4)
    }
}

/// An FPGA board's resource budget.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Board {
    /// Board name.
    pub name: String,
    /// DSP slices.
    pub dsps: usize,
    /// 36 Kb BRAM blocks.
    pub bram36: usize,
    /// Look-up tables.
    pub luts: usize,
    /// Flip-flops.
    pub ffs: usize,
}

impl Board {
    /// Xilinx ZCU102 (Zynq UltraScale+): the paper's board
    /// (Table III "Available" row).
    pub fn zcu102() -> Self {
        Board {
            name: "ZCU102".into(),
            dsps: 2520,
            bram36: 912,
            luts: 274_000,
            ffs: 548_000,
        }
    }

    /// Xilinx ZC706, the board of the F-C3D baseline \[13\].
    pub fn zc706() -> Self {
        Board {
            name: "ZC706".into(),
            dsps: 900,
            bram36: 545,
            luts: 218_600,
            ffs: 437_200,
        }
    }
}

/// The full accelerator configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Loop tiling.
    pub tiling: Tiling,
    /// Memory port widths.
    pub ports: Ports,
    /// Clock frequency in MHz (the paper synthesises at 150 MHz).
    pub freq_mhz: f64,
    /// Data width in bits (16-bit fixed point).
    pub data_bits: usize,
}

impl AcceleratorConfig {
    /// The paper's `(Tm, Tn) = (64, 8)` design at 150 MHz.
    pub fn paper_tn8() -> Self {
        AcceleratorConfig {
            tiling: Tiling::paper_tn8(),
            ports: Ports::paper(),
            freq_mhz: 150.0,
            data_bits: 16,
        }
    }

    /// The paper's `(Tm, Tn) = (64, 16)` design at 150 MHz.
    pub fn paper_tn16() -> Self {
        let tiling = Tiling::paper_tn16();
        AcceleratorConfig {
            ports: Ports::for_tiling(&tiling),
            tiling,
            freq_mhz: 150.0,
            data_bits: 16,
        }
    }

    /// Converts cycles to milliseconds at the configured clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_mhz * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tilings() {
        let t8 = Tiling::paper_tn8();
        assert_eq!((t8.tm, t8.tn, t8.td, t8.tr, t8.tc), (64, 8, 4, 14, 14));
        assert_eq!(t8.macs_per_cycle(), 512);
        assert_eq!(t8.out_tile_volume(), 784);
        assert_eq!(Tiling::paper_tn16().macs_per_cycle(), 1024);
    }

    #[test]
    fn tiling_block_shape_matches_pruner() {
        let t = Tiling::paper_tn8();
        let b = t.block_shape();
        assert_eq!((b.tm, b.tn), (64, 8));
    }

    #[test]
    fn zcu102_budgets_match_table3() {
        let b = Board::zcu102();
        assert_eq!(b.dsps, 2520);
        assert_eq!(b.bram36, 912);
        assert_eq!(b.luts, 274_000);
        assert_eq!(b.ffs, 548_000);
    }

    #[test]
    fn cycles_to_ms_at_150mhz() {
        let cfg = AcceleratorConfig::paper_tn8();
        // 150e6 cycles = 1 second = 1000 ms.
        assert!((cfg.cycles_to_ms(150_000_000) - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tiling_rejected() {
        let _ = Tiling::new(0, 8, 4, 14, 14);
    }
}
