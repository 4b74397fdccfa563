//! The resource model of Section IV-B (Eqs. 14–18) plus the
//! partition-aware BRAM counting and DSP/LUT/FF estimates calibrated to
//! Table III.

use crate::config::{AcceleratorConfig, Board, Tiling};
use p3d_models::ConvInstance;
use serde::{Deserialize, Serialize};

/// `K_size`: the largest kernel volume over the network's conv layers
/// (Eq. 17, first line). Buffers are sized for the worst layer so one
/// bitstream serves the whole network.
pub fn k_size(instances: &[ConvInstance]) -> usize {
    instances
        .iter()
        .map(|i| i.spec.kernel.0 * i.spec.kernel.1 * i.spec.kernel.2)
        .max()
        .unwrap_or(1)
}

/// `I_size`: the largest input-tile volume over the network's conv
/// layers (Eq. 17, second line): `prod_x ((T_x - 1) * S_x + K_x)`.
pub fn i_size(instances: &[ConvInstance], tiling: &Tiling) -> usize {
    instances
        .iter()
        .map(|i| {
            let td = (tiling.td - 1) * i.spec.stride.0 + i.spec.kernel.0;
            let tr = (tiling.tr - 1) * i.spec.stride.1 + i.spec.kernel.1;
            let tc = (tiling.tc - 1) * i.spec.stride.2 + i.spec.kernel.2;
            td * tr * tc
        })
        .max()
        .unwrap_or(1)
}

/// Buffer sizes in 16-bit words (Eqs. 14–16, including double buffering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferWords {
    /// Output buffer `B_out = 2 * Tm * Td * Tr * Tc`.
    pub output: usize,
    /// Input buffer `B_in = 2 * Tn * I_size`.
    pub input: usize,
    /// Weight buffer `B_wgt = 2 * Tm * Tn * K_size`.
    pub weight: usize,
}

impl BufferWords {
    /// Computes the three buffer sizes for a network and tiling.
    pub fn for_network(instances: &[ConvInstance], tiling: &Tiling) -> Self {
        BufferWords {
            output: 2 * tiling.tm * tiling.out_tile_volume(),
            input: 2 * tiling.tn * i_size(instances, tiling),
            weight: 2 * tiling.tm * tiling.tn * k_size(instances),
        }
    }

    /// Total words.
    pub fn total(&self) -> usize {
        self.output + self.input + self.weight
    }
}

/// Estimated resource usage of one accelerator configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceEstimate {
    /// DSP slices: `Tm * Tn` MAC units plus a calibrated overhead for
    /// address generation and post-processing.
    pub dsps: usize,
    /// BRAM36 count under Eq. 18's aggregate-capacity model.
    pub bram36_aggregate: usize,
    /// BRAM36 count under the partition-aware model (see
    /// [`estimate_resources`]); this is the one comparable to Table III.
    pub bram36_partitioned: f64,
    /// Estimated LUTs (linear fit to Table III).
    pub luts: usize,
    /// Estimated flip-flops (linear fit to Table III).
    pub ffs: usize,
    /// The buffer words behind the BRAM numbers.
    pub buffers: BufferWords,
}

/// DSP overhead beyond the `Tm x Tn` MAC array, calibrated to Table III
/// (695 - 512 = 183 and 1215 - 1024 = 191 suggest ~187).
pub const DSP_OVERHEAD: usize = 187;

/// Half a BRAM36 (one BRAM18) in bits.
const BRAM18_BITS: usize = 18 * 1024;
/// A full BRAM36 in bits.
const BRAM36_BITS: usize = 36 * 1024;

fn banked_bram36(banks: usize, bits_per_bank: usize) -> f64 {
    // Vivado maps a bank of <= 18 Kb to half a BRAM36; larger banks take
    // ceil(bits / 36Kb) full BRAM36s (cascaded).
    if bits_per_bank <= BRAM18_BITS {
        banks as f64 * 0.5
    } else {
        (banks * bits_per_bank.div_ceil(BRAM36_BITS)) as f64
    }
}

/// Estimates the resources of `config` for the given network.
///
/// Two BRAM numbers are produced:
///
/// * **aggregate** — Eq. 18 verbatim: total bits over 36 Kb blocks. A
///   lower bound that ignores banking.
/// * **partitioned** — models the array partitioning the design needs
///   for parallel access (Section IV-A: "array partition is performed in
///   corresponding dimensions of the buffers"): the weight buffer is
///   split into `2 x Tm x Tn` banks (double buffering x full unroll),
///   the output buffer into `2 x Tm` banks, the input buffer into
///   `2 x Tn` banks, plus a single-buffered `Tm`-banked shortcut buffer
///   for the residual additions of R(2+1)D. Each bank occupies at least
///   half a BRAM36 — this granularity, not raw capacity, is what makes
///   Table III's BRAM count (710.5 of 912) so much larger than Eq. 18
///   suggests.
pub fn estimate_resources(
    instances: &[ConvInstance],
    config: &AcceleratorConfig,
) -> ResourceEstimate {
    let t = &config.tiling;
    let buffers = BufferWords::for_network(instances, t);
    let bits = config.data_bits;

    let bram_aggregate = (buffers.total() * bits).div_ceil(BRAM36_BITS);

    let ks = k_size(instances);
    let is = i_size(instances, t);
    let weight_banks = 2 * t.tm * t.tn;
    let output_banks = 2 * t.tm;
    let input_banks = 2 * t.tn;
    let shortcut_banks = t.tm;
    let partitioned = banked_bram36(weight_banks, ks * bits)
        + banked_bram36(output_banks, t.out_tile_volume() * bits)
        + banked_bram36(input_banks, is * bits)
        + banked_bram36(shortcut_banks, t.out_tile_volume() * bits);

    let macs = t.macs_per_cycle();
    ResourceEstimate {
        dsps: macs + DSP_OVERHEAD,
        bram36_aggregate: bram_aggregate,
        bram36_partitioned: partitioned,
        // Linear fits through Table III's two design points:
        // LUT: 74k @ 512 MACs, 148k @ 1024 -> ~144.5 LUT/MAC.
        luts: (144.5 * macs as f64) as usize,
        // FF: 51k @ 512, 76k @ 1024 -> 48.8 FF/MAC + 26k base.
        ffs: (48.8 * macs as f64 + 26_000.0) as usize,
        buffers,
    }
}

/// Whether the estimate fits a board. BRAM uses the partitioned number
/// with a 1.35x tolerance: Vivado maps small banks that exceed the BRAM
/// budget to distributed (LUT) RAM, which is exactly what the paper's
/// `(64,16)` design point does — it reports 100% BRAM (912/912) although
/// a pure-BRAM banking of its buffers needs ~1.3x that.
pub fn fits(est: &ResourceEstimate, board: &Board) -> bool {
    est.dsps <= board.dsps
        && est.bram36_partitioned <= board.bram36 as f64 * 1.35
        && est.luts <= board.luts
        && est.ffs <= board.ffs
}

/// Utilisation percentages against a board (DSP, BRAM, LUT, FF).
pub fn utilization(est: &ResourceEstimate, board: &Board) -> (f64, f64, f64, f64) {
    (
        est.dsps as f64 / board.dsps as f64 * 100.0,
        est.bram36_partitioned / board.bram36 as f64 * 100.0,
        est.luts as f64 / board.luts as f64 * 100.0,
        est.ffs as f64 / board.ffs as f64 * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use p3d_models::r2plus1d::r2plus1d_18;

    fn r2p1d_instances() -> Vec<ConvInstance> {
        r2plus1d_18(101).conv_instances().unwrap()
    }

    #[test]
    fn k_and_i_size_for_r2plus1d() {
        let insts = r2p1d_instances();
        // Largest kernel volume: the 1x7x7 stem -> 49.
        assert_eq!(k_size(&insts), 49);
        // Largest input tile: the 1x1x1 shortcut convs with stride
        // (2,2,2): ((4-1)*2+1) x ((14-1)*2+1)^2 = 7 x 27 x 27 = 5103
        // (the 1x7x7 stem needs 4 x 33 x 33 = 4356, slightly less).
        let t = Tiling::paper_tn8();
        assert_eq!(i_size(&insts, &t), 7 * 27 * 27);
    }

    #[test]
    fn buffer_words_equations() {
        let insts = r2p1d_instances();
        let t = Tiling::paper_tn8();
        let b = BufferWords::for_network(&insts, &t);
        assert_eq!(b.output, 2 * 64 * 784);
        assert_eq!(b.input, 2 * 8 * 5103);
        assert_eq!(b.weight, 2 * 64 * 8 * 49);
        assert_eq!(b.total(), b.output + b.input + b.weight);
    }

    #[test]
    fn dsp_estimate_matches_table3() {
        let insts = r2p1d_instances();
        let est8 = estimate_resources(&insts, &AcceleratorConfig::paper_tn8());
        let est16 = estimate_resources(&insts, &AcceleratorConfig::paper_tn16());
        // Paper: 695 and 1215.
        assert!((est8.dsps as i64 - 695).abs() <= 10, "dsp8 {}", est8.dsps);
        assert!(
            (est16.dsps as i64 - 1215).abs() <= 15,
            "dsp16 {}",
            est16.dsps
        );
    }

    #[test]
    fn bram_partitioned_near_table3() {
        let insts = r2p1d_instances();
        let est8 = estimate_resources(&insts, &AcceleratorConfig::paper_tn8());
        // Paper: 710.5 of 912. The partition-aware model must land in the
        // right regime (hundreds of BRAMs, dominated by banking).
        assert!(
            (550.0..850.0).contains(&est8.bram36_partitioned),
            "bram {}",
            est8.bram36_partitioned
        );
        // And hugely exceed the aggregate-capacity lower bound.
        assert!(est8.bram36_partitioned > 3.0 * est8.bram36_aggregate as f64);
    }

    #[test]
    fn tn16_saturates_bram() {
        let insts = r2p1d_instances();
        let est16 = estimate_resources(&insts, &AcceleratorConfig::paper_tn16());
        let board = Board::zcu102();
        // Paper reports 912/912 = 100%: the larger design saturates BRAM.
        assert!(
            est16.bram36_partitioned >= board.bram36 as f64 * 0.95,
            "bram16 {}",
            est16.bram36_partitioned
        );
    }

    #[test]
    fn both_paper_designs_fit_zcu102() {
        let insts = r2p1d_instances();
        let board = Board::zcu102();
        for cfg in [
            AcceleratorConfig::paper_tn8(),
            AcceleratorConfig::paper_tn16(),
        ] {
            let est = estimate_resources(&insts, &cfg);
            assert!(fits(&est, &board), "{:?} does not fit", cfg.tiling);
        }
    }

    #[test]
    fn utilization_percentages() {
        let insts = r2p1d_instances();
        let est = estimate_resources(&insts, &AcceleratorConfig::paper_tn8());
        let (dsp, _bram, lut, ff) = utilization(&est, &Board::zcu102());
        // Table III: 28% DSP, 27% LUT, 9% FF.
        assert!((dsp - 28.0).abs() < 2.0, "dsp% {dsp}");
        assert!((lut - 27.0).abs() < 3.0, "lut% {lut}");
        assert!((ff - 9.0).abs() < 2.0, "ff% {ff}");
    }

    #[test]
    fn bigger_tiling_needs_more_of_everything() {
        let insts = r2p1d_instances();
        let e8 = estimate_resources(&insts, &AcceleratorConfig::paper_tn8());
        let e16 = estimate_resources(&insts, &AcceleratorConfig::paper_tn16());
        assert!(e16.dsps > e8.dsps);
        assert!(e16.bram36_partitioned > e8.bram36_partitioned);
        assert!(e16.luts > e8.luts);
        assert!(e16.ffs > e8.ffs);
    }
}
