//! Golden differential tests: the Q7.8 tiled engine (`sim::run_conv`)
//! against the f32 `Conv3d` layer on randomized shapes, strides and
//! pads — dense and block-masked.
//!
//! The operand ranges are chosen so the bound is *analytic*, not
//! empirical. Both paths consume the **same dequantized Q7.8 values**:
//!
//! * weights `|w| <= 0.45` quantize to at most 116 counts (7 bits),
//!   inputs `|x| <= 0.95` to at most 244 counts (8 bits), so every
//!   product needs at most 15 bits — exact in f32;
//! * with at most `6 * 3^3 = 162` MACs per output, every partial sum is
//!   a multiple of `2^-16` below `256 = 2^24 * 2^-16` in magnitude —
//!   also exact in f32, in any summation order. The f32 `Conv3d` result
//!   is therefore the *exact* sum of products;
//! * the simulator accumulates the identical products exactly in its
//!   wide i64 register and rounds once at `finish`, so the two outputs
//!   can differ only by that final rounding: at most half a Q7.8 ULP,
//!   `1/512`. (The exact sum stays below `162 * 0.45 * 0.95 < 70`, so
//!   saturation never triggers and the bound is tight.)

use p3d_core::{BlockGrid, BlockShape, LayerBlockMask};
use p3d_fpga::sim::run_conv;
use p3d_fpga::{AcceleratorConfig, Ports, Tiling};
use p3d_models::{Conv3dSpec, ConvInstance};
use p3d_nn::{Conv3d, Layer, Mode};
use p3d_tensor::shape::conv_out;
use p3d_tensor::{FixedTensor, Shape, Tensor, TensorRng};
use proptest::prelude::*;

/// `Tm = Tn = 2` so channel blocks are 2x2 like the paper's Fig. 2
/// sketch; small volume tiles force multi-tile traversals even on the
/// tiny random geometries.
fn cfg() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(2, 2, 2, 4, 4),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

/// [`cfg`] with `Tm x Tn` channel blocks.
fn tiled_cfg(tm: usize, tn: usize) -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(tm, tn, 2, 4, 4),
        ..cfg()
    }
}

/// A bias-free conv instance with its output shape derived.
fn conv_inst(
    name: &str,
    (m, n): (usize, usize),
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
    (di, hi, wi): (usize, usize, usize),
) -> ConvInstance {
    ConvInstance {
        spec: Conv3dSpec {
            name: name.into(),
            stage: "test".into(),
            out_channels: m,
            in_channels: n,
            kernel,
            stride,
            pad,
            bias: false,
        },
        input: (n, di, hi, wi),
        output: (
            m,
            conv_out(di, kernel.0, stride.0, pad.0),
            conv_out(hi, kernel.1, stride.1, pad.1),
            conv_out(wi, kernel.2, stride.2, pad.2),
        ),
    }
}

struct Case {
    inst: ConvInstance,
    /// Dequantized Q7.8 weights `[M, N, Kd, Kr, Kc]` — fed to both paths.
    w: Tensor,
    /// Dequantized Q7.8 input `[N, Di, Hi, Wi]` — fed to both paths.
    x: Tensor,
}

impl Case {
    #[allow(clippy::too_many_arguments)]
    fn build(
        m: usize,
        n: usize,
        kernel: (usize, usize, usize),
        stride: (usize, usize, usize),
        pad: (usize, usize, usize),
        extra: (usize, usize, usize),
        seed: u64,
        zero_blocks: impl FnOnce(&Tensor) -> Option<LayerBlockMask>,
    ) -> (Self, Option<LayerBlockMask>) {
        let (di, hi, wi) = (kernel.0 + extra.0, kernel.1 + extra.1, kernel.2 + extra.2);
        let inst = conv_inst("diff", (m, n), kernel, stride, pad, (di, hi, wi));
        let mut rng = TensorRng::seed(seed ^ 0xd1ff);
        let mut w = rng.uniform_tensor([m, n, kernel.0, kernel.1, kernel.2], -0.45, 0.45);
        let mask = zero_blocks(&w);
        if let Some(mask) = &mask {
            for bi in 0..mask.grid.rows() {
                for bj in 0..mask.grid.cols() {
                    if !mask.is_enabled(bi, bj) {
                        mask.grid.zero_block(&mut w, bi, bj);
                    }
                }
            }
        }
        let x = rng.uniform_tensor([n, di, hi, wi], -0.95, 0.95);
        // Snap both operands to their Q7.8 grid once, so the f32 layer
        // and the simulator see bitwise-identical values.
        let w = FixedTensor::quantize(&w).dequantize();
        let x = FixedTensor::quantize(&x).dequantize();
        (Case { inst, w, x }, mask)
    }

    /// The f32 golden path: the real `Conv3d` layer (im2col + GEMM).
    fn f32_conv(&self) -> Tensor {
        let (n, di, hi, wi) = self.inst.input;
        let spec = &self.inst.spec;
        let mut rng = TensorRng::seed(0);
        let mut conv = Conv3d::new(
            "diff",
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.stride,
            spec.pad,
            false,
            &mut rng,
        );
        conv.weight.value = self.w.clone();
        let x5 = self.x.reshape(Shape::d5(1, n, di, hi, wi));
        conv.forward(&x5, Mode::Eval)
    }

    /// The Q7.8 path through the tiled engine.
    fn sim(&self, mask: Option<&LayerBlockMask>) -> (FixedTensor, p3d_fpga::ConvStats) {
        run_conv(
            &self.inst,
            &FixedTensor::quantize(&self.w),
            &FixedTensor::quantize(&self.x),
            mask,
            &cfg(),
        )
    }
}

/// Asserts the analytic half-ULP bound element by element.
fn assert_within_half_ulp(sim: &FixedTensor, golden: &Tensor, what: &str) {
    let sim_f = sim.dequantize();
    assert_eq!(sim_f.shape().len(), golden.shape().len(), "{what}: shape");
    for (i, (a, b)) in sim_f.data().iter().zip(golden.data()).enumerate() {
        let err = (a - b).abs();
        assert!(
            err <= FixedTensor::half_ulp(),
            "{what}: element {i} off by {err} ({a} vs {b}), above half ULP {}",
            FixedTensor::half_ulp()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense engine vs f32 `Conv3d` across random geometry: every
    /// element within the analytic half-ULP bound.
    #[test]
    fn dense_sim_matches_f32_conv_within_half_ulp(
        (m, n) in (1usize..=6, 1usize..=6),
        kernel in (1usize..=3, 1usize..=3, 1usize..=3),
        stride in (1usize..=2, 1usize..=2, 1usize..=2),
        pad in (0usize..=1, 0usize..=1, 0usize..=1),
        extra in (0usize..=3, 0usize..=3, 0usize..=3),
        seed in 0u64..1_000_000,
    ) {
        let (case, _) = Case::build(m, n, kernel, stride, pad, extra, seed, |_| None);
        let golden = case.f32_conv();
        let (sim_out, stats) = case.sim(None);
        assert_within_half_ulp(&sim_out, &golden, "dense");
        prop_assert_eq!(stats.blocks_skipped, 0);
        prop_assert_eq!(stats.macs, case.inst.macs() as u64);
    }

    /// Block-masked engine: skipping a zeroed block must reproduce the
    /// zero-weight dense result *bitwise*, and still track the f32
    /// golden output of the zeroed weights within half a ULP.
    #[test]
    fn masked_blocks_equal_zero_weight_outputs_exactly(
        (m, n) in (1usize..=6, 1usize..=6),
        kernel in (1usize..=3, 1usize..=3, 1usize..=3),
        stride in (1usize..=2, 1usize..=2, 1usize..=2),
        pad in (0usize..=1, 0usize..=1, 0usize..=1),
        extra in (0usize..=3, 0usize..=3, 0usize..=3),
        seed in 0u64..1_000_000,
        keep_pattern in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let (case, mask) = Case::build(m, n, kernel, stride, pad, extra, seed, |w| {
            let grid = BlockGrid::for_weight(w, BlockShape::new(2, 2));
            let keep: Vec<bool> = (0..grid.num_blocks())
                .map(|i| keep_pattern[i % keep_pattern.len()])
                .collect();
            Some(LayerBlockMask::new(grid, keep))
        });
        let mask = mask.expect("mask built above");
        let disabled = (0..mask.grid.rows())
            .flat_map(|bi| (0..mask.grid.cols()).map(move |bj| (bi, bj)))
            .filter(|&(bi, bj)| !mask.is_enabled(bi, bj))
            .count() as u64;

        let golden = case.f32_conv(); // zeroed weights, full compute
        let (dense, s_dense) = case.sim(None);
        let (sparse, s_sparse) = case.sim(Some(&mask));

        // Lossless skipping: bitwise identity with the dense run over
        // the same (zeroed) weights.
        prop_assert_eq!(&sparse, &dense, "block skipping changed the output");
        assert_within_half_ulp(&sparse, &golden, "masked");

        // Each disabled block is skipped once per output-volume tile.
        let (_, od, oh, ow) = case.inst.output;
        let t = cfg().tiling;
        let tiles = (od.div_ceil(t.td) * oh.div_ceil(t.tr) * ow.div_ceil(t.tc)) as u64;
        prop_assert_eq!(s_sparse.blocks_skipped, disabled * tiles);
        prop_assert!(s_sparse.macs <= s_dense.macs);
        if disabled > 0 {
            prop_assert!(s_sparse.macs < s_dense.macs);
            prop_assert!(s_sparse.weight_words < s_dense.weight_words);
        }
    }
}

// ---------------------------------------------------------------------------
// Functional-vs-cycle differential: the fast serving path must be
// value-identical — outputs AND statistics — to the cycle-approximate
// engine on random geometry, dense and block-masked, plus an explicit
// AVX2-vs-forced-scalar bitwise gate at full i16 range (both rails).
// ---------------------------------------------------------------------------

use p3d_fpga::sim::run_conv_functional;
use p3d_tensor::{simd, Fixed16};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fast functional path reproduces the cycle engine bit-for-bit
    /// on arbitrary shapes, strides and pads — the whole result pair,
    /// not just the tensor: cycles, MACs and buffer traffic too. The
    /// `Tm = 4` and `Tm = 8` tilings fill the kernel's 4-channel
    /// register tiles, with ragged groups beside them.
    #[test]
    fn functional_path_equals_cycle_engine(
        (m, n) in (1usize..=10, 1usize..=6),
        kernel in (1usize..=3, 1usize..=3, 1usize..=3),
        stride in (1usize..=2, 1usize..=2, 1usize..=2),
        pad in (0usize..=1, 0usize..=1, 0usize..=1),
        extra in (0usize..=3, 0usize..=3, 0usize..=3),
        seed in 0u64..1_000_000,
        (tm, tn) in prop::sample::select(vec![(2usize, 2usize), (4, 2), (8, 4)]),
    ) {
        let (case, _) = Case::build(m, n, kernel, stride, pad, extra, seed, |_| None);
        let qw = FixedTensor::quantize(&case.w);
        let qx = FixedTensor::quantize(&case.x);
        let cfg = tiled_cfg(tm, tn);
        let (a, sa) = run_conv(&case.inst, &qw, &qx, None, &cfg);
        let (b, sb) = run_conv_functional(&case.inst, &qw, &qx, None, &cfg);
        prop_assert_eq!(&a, &b, "functional output diverged from cycle engine");
        prop_assert_eq!(sa, sb, "functional stats diverged from cycle engine");
    }

    /// Same, with random block-skip patterns wired through both engines:
    /// skipping must be applied identically (including the skipped-block
    /// and cycle accounting).
    #[test]
    fn functional_path_equals_cycle_engine_masked(
        (m, n) in (1usize..=10, 1usize..=6),
        kernel in (1usize..=3, 1usize..=3, 1usize..=3),
        stride in (1usize..=2, 1usize..=2, 1usize..=2),
        pad in (0usize..=1, 0usize..=1, 0usize..=1),
        extra in (0usize..=3, 0usize..=3, 0usize..=3),
        seed in 0u64..1_000_000,
        keep_pattern in prop::collection::vec(any::<bool>(), 1..16),
        (tm, tn) in prop::sample::select(vec![(2usize, 2usize), (4, 2), (8, 4)]),
    ) {
        let (case, mask) = Case::build(m, n, kernel, stride, pad, extra, seed, |w| {
            let grid = BlockGrid::for_weight(w, BlockShape::new(tm, tn));
            let keep: Vec<bool> = (0..grid.num_blocks())
                .map(|i| keep_pattern[i % keep_pattern.len()])
                .collect();
            Some(LayerBlockMask::new(grid, keep))
        });
        let mask = mask.expect("mask built above");
        let qw = FixedTensor::quantize(&case.w);
        let qx = FixedTensor::quantize(&case.x);
        let cfg = tiled_cfg(tm, tn);
        let (a, sa) = run_conv(&case.inst, &qw, &qx, Some(&mask), &cfg);
        let (b, sb) = run_conv_functional(&case.inst, &qw, &qx, Some(&mask), &cfg);
        prop_assert_eq!(&a, &b, "masked functional output diverged");
        prop_assert_eq!(sa, sb, "masked functional stats diverged");
        prop_assert_eq!(sb.blocks_skipped, sa.blocks_skipped);
    }
}

/// Fills a fixed tensor with the full i16 range, rails included: the
/// AVX2 integer kernel must be exact where `i32` sums overflow (paired
/// products of `-32768 * -32768`). Full-range weights sum far past the
/// 32-bit certificate, so these cases run the `i64` bodies;
/// [`certificate_boundary_equals_cycle_at_the_rails`] covers the `i32`
/// one.
fn full_range_tensor(dims: &[usize], seed: u64) -> FixedTensor {
    let mut t = FixedTensor::zeros(Shape::from(dims));
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = match i % 7 {
            0 => Fixed16::MIN,  // -32768: the overflow rail
            1 => Fixed16::MAX,  // 32767
            2 => Fixed16::ZERO, // zero weights and inputs inside the sums
            _ => Fixed16::from_bits((state >> 48) as i16),
        };
    }
    t
}

/// Serialises the tests that flip the process-wide scalar override.
static SIMD_OVERRIDE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// AVX2-vs-scalar bitwise gate for the integer conv kernel, at full
/// operand range. Runs the functional path once on the detected SIMD
/// level and once with the scalar fallback explicitly forced; on a
/// non-AVX2 host this degenerates to scalar-vs-scalar. Also pins the
/// (saturation-heavy) result against the cycle engine, which never
/// dispatches to SIMD at all. Callers run it under [`cfg`] (`Tm = 2`:
/// every register tile is a ragged group) and [`paper_cfg`] (`Tm = 8`:
/// full 4-channel tiles).
fn assert_avx2_equals_forced_scalar_at_rails(inst: &ConvInstance, cfg: &AcceleratorConfig) {
    let ((m, ..), (n, di, hi, wi)) = (inst.output, inst.input);
    let (kd, kr, kc) = inst.spec.kernel;
    let qw = full_range_tensor(&[m, n, kd, kr, kc], 0xfeed);
    let qx = full_range_tensor(&[n, di, hi, wi], 0xbeef);

    let _guard = SIMD_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    let (simd_out, simd_stats) = run_conv_functional(inst, &qw, &qx, None, cfg);
    simd::force_scalar(true);
    let forced_level = simd::active();
    let (scalar_out, scalar_stats) = run_conv_functional(inst, &qw, &qx, None, cfg);
    simd::force_scalar(false);
    assert_eq!(forced_level.name(), "scalar");
    assert_eq!(
        simd_out,
        scalar_out,
        "{} integer kernel diverged from forced scalar at the rails",
        simd::detected().name()
    );
    assert_eq!(simd_stats, scalar_stats);

    // Cross-check against the never-vectorized cycle engine.
    let (cycle_out, cycle_stats) = run_conv(inst, &qw, &qx, None, cfg);
    assert_eq!(simd_out, cycle_out);
    assert_eq!(simd_stats, cycle_stats);
    // The rail-heavy operands must actually exercise saturation.
    assert!(simd_stats.saturated_words > 0, "rails did not saturate");
}

#[test]
fn functional_avx2_and_forced_scalar_bitwise_identical_at_rails() {
    // W=17: every chunk ends in a partial strip.
    let inst = conv_inst("rails", (4, 6), (2, 3, 3), (1, 1, 1), (1, 1, 1), (3, 9, 17));
    assert_eq!(inst.output, (4, 4, 9, 17));
    assert_avx2_equals_forced_scalar_at_rails(&inst, &cfg());
    assert_avx2_equals_forced_scalar_at_rails(&inst, &paper_cfg());
}

/// The same gate on a stride-2 padded geometry, so strided lowering
/// feeds the SIMD kernel too.
#[test]
fn functional_avx2_and_forced_scalar_bitwise_identical_at_rails_stride2() {
    // Ow=19: a full strip and a 3-position partial one per output row.
    let inst = conv_inst(
        "rails_s2",
        (4, 6),
        (1, 5, 5),
        (1, 2, 2),
        (0, 2, 2),
        (3, 11, 37),
    );
    assert_eq!(inst.output, (4, 3, 6, 19));
    assert_avx2_equals_forced_scalar_at_rails(&inst, &cfg());
    assert_avx2_equals_forced_scalar_at_rails(&inst, &paper_cfg());
}

/// The paper's tiling: 8x4 channel blocks, as the pruned workloads use.
fn paper_cfg() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(8, 4, 2, 8, 8),
        ..cfg()
    }
}

/// A block mask over `w` keeping `round(keep * blocks)` blocks (at least
/// one), scattered over the grid: `b -> (7919 * b + offset) mod blocks`
/// permutes the block indices (7919 is prime and exceeds every grid).
fn scattered_mask(w: &FixedTensor, shape: BlockShape, keep: f64, offset: usize) -> LayerBlockMask {
    let grid = BlockGrid::for_weight(&w.dequantize(), shape);
    let blocks = grid.num_blocks();
    let kept = ((keep * blocks as f64).round() as usize).clamp(1, blocks);
    let keep_flags = (0..blocks)
        .map(|b| (7919 * b + offset) % blocks < kept)
        .collect();
    LayerBlockMask::new(grid, keep_flags)
}

/// Every lite-wide conv geometry — stride-2 padded 1x5x5 and 1x3x3
/// spatial, Kx1x1 temporal, the 1x1x1 stride-2 shortcut — under 8x4
/// block masks at 100%, 50% and 10% kept: functional equals cycle,
/// output and statistics. The disabled blocks keep their (non-zero)
/// weights, so an engine that failed to skip one would diverge.
#[test]
fn functional_equals_cycle_on_every_lite_wide_layer() {
    let insts = p3d_models::r2plus1d_lite_wide(4)
        .conv_instances()
        .expect("lite-wide shape-checks");
    assert_eq!(insts.len(), 11);
    let cfg = paper_cfg();
    let shape = BlockShape::new(cfg.tiling.tm, cfg.tiling.tn);
    let mut rng = TensorRng::seed(0x11fe);
    for inst in &insts {
        let ((m, ..), (n, di, hi, wi)) = (inst.output, inst.input);
        let (kd, kr, kc) = inst.spec.kernel;
        let qw = FixedTensor::quantize(&rng.uniform_tensor([m, n, kd, kr, kc], -0.6, 0.6));
        let qx = FixedTensor::quantize(&rng.uniform_tensor([n, di, hi, wi], -1.5, 1.5));
        for (i, keep) in [1.0, 0.5, 0.1].into_iter().enumerate() {
            let mask = scattered_mask(&qw, shape, keep, i + 1);
            let (a, sa) = run_conv(inst, &qw, &qx, Some(&mask), &cfg);
            let (b, sb) = run_conv_functional(inst, &qw, &qx, Some(&mask), &cfg);
            let name = &inst.spec.name;
            assert_eq!(a, b, "{name} at {keep} kept: output diverged");
            assert_eq!(sa, sb, "{name} at {keep} kept: stats diverged");
        }
    }
}

/// An output volume spanning several lowered tiles with a partial last
/// one, dense and with a disabled block column (which shrinks the
/// lowered rows and so changes the chunking), at stride 1 and 2, and
/// for `3x1x1` and `1x1x1` kernels, whose lowering merges whole lines
/// and planes into one run. Every chunk length splits a depth plane.
#[test]
fn functional_equals_cycle_across_lowered_tiles() {
    use p3d_fpga::sim::functional::TILE_WORDS;
    let geometries = [
        conv_inst(
            "tiles_s1",
            (6, 8),
            (3, 3, 3),
            (1, 1, 1),
            (1, 1, 1),
            (4, 6, 20),
        ),
        conv_inst(
            "tiles_s2",
            (6, 8),
            (3, 3, 3),
            (1, 2, 2),
            (1, 1, 1),
            (4, 12, 40),
        ),
        conv_inst(
            "tiles_3x1x1",
            (6, 8),
            (3, 1, 1),
            (1, 1, 1),
            (1, 0, 0),
            (4, 25, 40),
        ),
        conv_inst(
            "tiles_1x1x1",
            (6, 8),
            (1, 1, 1),
            (1, 1, 1),
            (0, 0, 0),
            (4, 75, 40),
        ),
    ];
    let outputs = [(6, 4, 6, 20), (6, 4, 6, 20), (6, 4, 25, 40), (6, 4, 75, 40)];
    let mut rng = TensorRng::seed(0x7113);
    for (inst, output) in geometries.iter().zip(outputs) {
        assert_eq!(inst.output, output);
        let (kd, kr, kc) = inst.spec.kernel;
        let taps = kd * kr * kc;
        let qw = FixedTensor::quantize(&rng.uniform_tensor([6, 8, kd, kr, kc], -0.6, 0.6));
        let (_, di, hi, wi) = inst.input;
        let qx = FixedTensor::quantize(&rng.uniform_tensor([8, di, hi, wi], -1.5, 1.5));
        let grid = BlockGrid::for_weight(&qw.dequantize(), BlockShape::new(2, 2));
        // Block column 1 (input channels 2 and 3) is disabled in every row.
        let keep = (0..grid.num_blocks())
            .map(|b| b % grid.cols() != 1)
            .collect();
        let masked = LayerBlockMask::new(grid, keep);
        for (mask, live_channels) in [(None, 8), (Some(&masked), 6)] {
            let (_, od, oh, ow) = inst.output;
            let rows_per_tile = TILE_WORDS / (live_channels * taps * ow);
            assert!((od * oh).div_ceil(rows_per_tile) >= 3, "fewer than 3 tiles");
            assert_ne!((od * oh) % rows_per_tile, 0, "last tile is not partial");
            assert_ne!(rows_per_tile % oh, 0, "tiles do not split a depth plane");
            let (a, sa) = run_conv(inst, &qw, &qx, mask, &cfg());
            let (b, sb) = run_conv_functional(inst, &qw, &qx, mask, &cfg());
            let name = &inst.spec.name;
            assert_eq!(
                a, b,
                "{name} with {live_channels} live channels: output diverged"
            );
            assert_eq!(
                sa, sb,
                "{name} with {live_channels} live channels: stats diverged"
            );
        }
        // The same chunks under 8-channel block rows: one full register
        // tile and one ragged group of 2 per chunk.
        let (a, sa) = run_conv(inst, &qw, &qx, None, &paper_cfg());
        let (b, sb) = run_conv_functional(inst, &qw, &qx, None, &paper_cfg());
        assert_eq!(a, b, "{} at Tm = 8: output diverged", inst.spec.name);
        assert_eq!(sa, sb, "{} at Tm = 8: stats diverged", inst.spec.name);
    }
}

/// The register-tiled kernel's edges, functional against cycle under
/// 8x4 blocks: block rows whose last register tile holds 1, 2, 3 and 4
/// channels (`M` = 9..=12), chunk lengths with every `len % 16` (one
/// chunk of `3 * W` positions, `W` = 1..=16), and masks with an empty
/// block row, no enabled block at all, different block columns per
/// row, and two enabled columns around one that no row reads (their
/// tile rows are adjacent but their weights are not). Disabled blocks
/// keep their non-zero weights, so a block the kernel failed to skip
/// would show.
#[test]
fn functional_equals_cycle_at_register_tile_edges() {
    let cfg = paper_cfg();
    let n = 12; // three block columns
    let masks: [&[(usize, usize)]; 5] = [
        &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)],
        &[(1, 0), (1, 2)],
        &[],
        &[(0, 1), (1, 0)],
        &[(0, 0), (0, 2), (1, 2)],
    ];
    let mut rng = TensorRng::seed(0x7e6);
    for m in 9..=12 {
        let qw = FixedTensor::quantize(&rng.uniform_tensor([m, n, 1, 3, 3], -0.6, 0.6));
        let grid = BlockGrid::for_weight(&qw.dequantize(), BlockShape::new(8, 4));
        assert_eq!((grid.rows(), grid.cols()), (2, 3));
        for w in 1..=16 {
            let inst = conv_inst("edges", (m, n), (1, 3, 3), (1, 1, 1), (0, 1, 1), (1, 3, w));
            let qx = FixedTensor::quantize(&rng.uniform_tensor([n, 1, 3, w], -1.5, 1.5));
            for enabled in masks {
                let keep = (0..grid.num_blocks())
                    .map(|b| enabled.contains(&(b / grid.cols(), b % grid.cols())))
                    .collect();
                let mask = LayerBlockMask::new(grid, keep);
                let (a, sa) = run_conv(&inst, &qw, &qx, Some(&mask), &cfg);
                let (b, sb) = run_conv_functional(&inst, &qw, &qx, Some(&mask), &cfg);
                let what = format!("M={m} W={w} enabled {enabled:?}");
                assert_eq!(a, b, "{what}: output diverged");
                assert_eq!(sa, sb, "{what}: stats diverged");
                if enabled.is_empty() {
                    assert!(b.data().iter().all(|v| *v == Fixed16::ZERO), "{what}");
                }
            }
        }
    }
}

/// The 32-bit certificate at its boundary. Output channel 0 reads its
/// enabled block through the weights `w`; its disabled block holds
/// `-32768` everywhere, which must not count toward the certificate.
/// The enabled block is the ragged last column (one input channel,
/// three taps), so its run has odd length and its last row is paired
/// with a zero weight. Every input pattern sits at the `i16` rails:
/// alternating `MAX`/`MIN` along the width drives the taps `(w0, w1)`
/// to the largest sums of either sign, `+-(32767^2 + 2^30)` at
/// `|w0| + |w1| = 65535`, and all-`MIN` drives `(-32768, -32768)` to
/// `2^31`, one past `i32::MAX`. Each case runs with the detected SIMD
/// level and under forced scalar, against the cycle engine: outputs
/// and statistics, saturated words included.
#[test]
fn certificate_boundary_equals_cycle_at_the_rails() {
    use p3d_fpga::sim::CompiledConv;

    let cfg = paper_cfg();
    // Five input channels in 8x4 blocks: block 0 holds channels 0..4,
    // block 1 only channel 4. W = 20 gives 2 rows of 18 outputs, one
    // chunk of 36 positions: two full 16-position strips and a
    // 4-position partial one.
    let inst = conv_inst("cert", (2, 5), (1, 1, 3), (1, 1, 1), (0, 0, 0), (1, 2, 20));
    assert_eq!(inst.output, (2, 1, 2, 18));
    let mask = LayerBlockMask::new(
        BlockGrid::for_weight(&Tensor::zeros([2, 5, 1, 1, 3]), BlockShape::new(8, 4)),
        vec![false, true],
    );
    let rail = |i: usize| {
        if i.is_multiple_of(2) {
            i16::MAX
        } else {
            i16::MIN
        }
    };
    let patterns: [(&str, &dyn Fn(usize) -> i16); 4] = [
        ("all MIN", &|_| i16::MIN),
        ("all MAX", &|_| i16::MAX),
        ("MAX/MIN along W", &|w| rail(w)),
        ("MIN/MAX along W", &|w| rail(w + 1)),
    ];
    for (w, l1, certified) in [
        ([i16::MAX, i16::MIN, 0], 65535, true),
        ([i16::MIN, i16::MAX, 0], 65535, true),
        ([i16::MIN, i16::MIN, 0], 65536, false),
    ] {
        let mut qw = FixedTensor::zeros(Shape::from(&[2, 5, 1, 1, 3][..]));
        let data = qw.data_mut();
        data[..12].fill(Fixed16::MIN); // channel 0's disabled block
        for (t, &bits) in w.iter().enumerate() {
            data[12 + t] = Fixed16::from_bits(bits);
        }
        data[15..27].fill(Fixed16::MIN); // channel 1's disabled block
        data[27..30].copy_from_slice(&[3, -2, 1].map(Fixed16::from_bits));
        let layer = CompiledConv::compile(&inst, &qw, Some(&mask), &cfg);
        assert_eq!(layer.largest_channel_l1(), l1, "weights {w:?}");
        assert_eq!(layer.certified_groups(), (usize::from(certified), 1));
        let mut saturated = 0;
        for (name, pattern) in patterns {
            let mut qx = FixedTensor::zeros(Shape::from(&[5, 1, 2, 20][..]));
            for (i, v) in qx.data_mut().iter_mut().enumerate() {
                *v = Fixed16::from_bits(pattern(i % 20));
            }
            let what = format!("weights {w:?}, inputs {name}");
            let (a, sa) = run_conv(&inst, &qw, &qx, Some(&mask), &cfg);
            let _guard = SIMD_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
            for forced in [false, true] {
                simd::force_scalar(forced);
                let (b, sb) = run_conv_functional(&inst, &qw, &qx, Some(&mask), &cfg);
                simd::force_scalar(false);
                assert_eq!(a, b, "{what}, forced scalar {forced}: output diverged");
                assert_eq!(sa, sb, "{what}, forced scalar {forced}: stats diverged");
                assert_eq!(sa.saturated_words, sb.saturated_words, "{what}");
            }
            saturated += sa.saturated_words;
        }
        assert!(saturated > 0, "weights {w:?}: the rails must saturate");
    }
}

/// The fused epilogue at the rails. A compiled layer carrying bias,
/// folded batch norm and (or not) ReLU must equal the cycle conv
/// followed by `PostProcessor::bias`, `batch_norm` and `relu`, word for
/// word, with the same statistics: `saturated_words` counts only the
/// conv's own rails. Under the paper's 8x4 blocks the 18 output
/// channels form three block rows: channels 0..8 (a certified group and
/// one whose channel 5 sums `-32768` weights past the certificate),
/// 8..16 (every block disabled, so each channel holds its epilogue of
/// zero) and 16..18 (a ragged group of two). Each output row is 7 wide,
/// 21 positions per chunk: one full strip and a 5-position partial one. The
/// epilogue parameters rotate through every channel: scales
/// `{-32768, -1, 0, 1, 256, 32767}` (`1` is one ULP, `256` is 1.0),
/// biases and shifts at both rails, zero and in between. Inputs are a
/// rail-heavy pattern, whose conv outputs rail at both ends, and a
/// moderate one, whose outputs leave the epilogue's own saturation to
/// do the work. Each case runs with the detected SIMD level and under
/// forced scalar.
#[test]
fn fused_epilogue_equals_cycle_then_post_processor_at_the_rails() {
    use p3d_fpga::sim::{CompiledConv, Epilogue, PostProcessor};

    const SCALES: [i16; 6] = [-32768, -1, 0, 1, 256, 32767];
    const BIASES: [i16; 5] = [i16::MIN, i16::MAX, 0, -300, 450];
    const SHIFTS: [i16; 7] = [i16::MAX, 0, i16::MIN, 123, -77, 2000, -4000];
    let cfg = paper_cfg();
    let (m, n) = (18, 5);
    let inst = conv_inst("fused", (m, n), (1, 1, 3), (1, 1, 1), (0, 0, 0), (1, 3, 9));
    assert_eq!(inst.output, (m, 1, 3, 7));
    let mut rng = TensorRng::seed(0xe91);
    let mut qw = FixedTensor::quantize(&rng.uniform_tensor([m, n, 1, 1, 3], -2.0, 2.0));
    qw.data_mut()[5 * n * 3..6 * n * 3].fill(Fixed16::MIN);
    let grid = BlockGrid::for_weight(&qw.dequantize(), BlockShape::new(8, 4));
    assert_eq!((grid.rows(), grid.cols()), (3, 2));
    let mask = LayerBlockMask::new(grid, vec![true, true, false, false, true, false]);
    let layer = CompiledConv::compile(&inst, &qw, Some(&mask), &cfg);
    assert_eq!(layer.certified_groups(), (2, 3), "one uncertified group");

    let moderate = FixedTensor::quantize(&rng.uniform_tensor([n, 1, 3, 9], -1.0, 1.0));
    let inputs = [
        ("rails", full_range_tensor(&[n, 1, 3, 9], 0x5a7)),
        ("moderate", moderate),
    ];
    let _guard = SIMD_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    for (name, qx) in &inputs {
        let (conv, conv_stats) = run_conv(&inst, &qw, qx, Some(&mask), &cfg);
        if *name == "rails" {
            assert!(
                conv.data().contains(&Fixed16::MIN),
                "no output at the low rail"
            );
            assert!(
                conv.data().contains(&Fixed16::MAX),
                "no output at the high rail"
            );
            assert!(conv_stats.saturated_words > 0);
        }
        for rot in 0..SCALES.len() {
            let param =
                |table: &[i16], c: usize| Fixed16::from_bits(table[(c + rot) % table.len()]);
            let bias: Vec<_> = (0..m).map(|c| param(&BIASES, c)).collect();
            let scale: Vec<_> = (0..m).map(|c| param(&SCALES, c)).collect();
            let shift: Vec<_> = (0..m).map(|c| param(&SHIFTS, c)).collect();
            for relu in [false, true] {
                let mut want = conv.clone();
                PostProcessor::bias(&mut want, &bias);
                PostProcessor::batch_norm(&mut want, &scale, &shift);
                if relu {
                    PostProcessor::relu(&mut want);
                }
                let epilogue = Epilogue {
                    bias: Some(bias.clone()),
                    batch_norm: Some((scale.clone(), shift.clone())),
                    relu,
                };
                let fused =
                    CompiledConv::compile(&inst, &qw, Some(&mask), &cfg).with_epilogue(&epilogue);
                for forced in [false, true] {
                    simd::force_scalar(forced);
                    let (got, stats) = fused.run(qx);
                    simd::force_scalar(false);
                    let what = format!(
                        "{name} inputs, rotation {rot}, relu {relu}, forced scalar {forced}"
                    );
                    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                        assert_eq!(g, w, "{what}: word {i} (channel {}) diverged", i / 21);
                    }
                    assert_eq!(stats, conv_stats, "{what}: stats diverged");
                }
            }
        }
    }
}

/// Pad words of a partial strip never count. A rail-heavy certified
/// layer (64 positions of rail-heavy inputs through weights at half the
/// certificate) first fills the thread's lowered tile with large words;
/// a quiet certified layer with 18 positions (one full strip and a
/// 2-position partial one, the rest of its pitch overlapping the loud
/// layer's words) then runs on the same tile. Its output and
/// statistics, `saturated_words` included, must equal the cycle
/// engine's, with the detected SIMD level and under forced scalar.
#[test]
fn partial_strip_ignores_stale_tile_words() {
    use p3d_fpga::sim::CompiledConv;

    let cfg = paper_cfg();
    let (m, n) = (4, 2);
    let loud = conv_inst("loud", (m, n), (1, 1, 1), (1, 1, 1), (0, 0, 0), (1, 4, 16));
    let quiet = conv_inst("quiet", (m, n), (1, 1, 1), (1, 1, 1), (0, 0, 0), (1, 2, 9));
    let mut qw = FixedTensor::zeros(Shape::from(&[m, n, 1, 1, 1][..]));
    for (i, v) in qw.data_mut().iter_mut().enumerate() {
        *v = Fixed16::from_bits(if i % 3 == 0 { -16384 } else { 16384 });
    }
    for inst in [&loud, &quiet] {
        let layer = CompiledConv::compile(inst, &qw, None, &cfg);
        assert_eq!(layer.certified_groups(), (1, 1), "{}", inst.spec.name);
    }
    let loud_x = full_range_tensor(&[n, 1, 4, 16], 0x57a1e);
    let mut rng = TensorRng::seed(0x91e7);
    let quiet_x = FixedTensor::quantize(&rng.uniform_tensor([n, 1, 2, 9], -0.01, 0.01));
    let (want, want_stats) = run_conv(&quiet, &qw, &quiet_x, None, &cfg);
    assert_eq!(want_stats.saturated_words, 0, "the quiet layer rails");

    let _guard = SIMD_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    for forced in [false, true] {
        simd::force_scalar(forced);
        let (_, loud_stats) = run_conv_functional(&loud, &qw, &loud_x, None, &cfg);
        let (got, stats) = run_conv_functional(&quiet, &qw, &quiet_x, None, &cfg);
        simd::force_scalar(false);
        assert!(loud_stats.saturated_words > 0, "the loud layer must rail");
        assert_eq!(got, want, "forced scalar {forced}: output diverged");
        assert_eq!(stats, want_stats, "forced scalar {forced}: stats diverged");
    }
}
