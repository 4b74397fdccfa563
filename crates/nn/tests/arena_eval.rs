//! Arena-based evaluation must match `forward(Mode::Eval)` bitwise and
//! stop growing once the per-layer buffers are warm; both conv paths
//! must match the plain im2col + naive GEMM reference bitwise, dense and
//! block-sparse.

use p3d_nn::im2col::{im2col, ConvGeometry};
use p3d_nn::{
    BatchNorm3d, Conv3d, EvalArena, Flatten, GlobalAvgPool, Layer, Linear, MaxPool3d, Mode, Relu,
    ResidualBlock, Sequential,
};
use p3d_tensor::gemm::gemm_naive_into;
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{gemm_into, BlockPattern, Tensor, TensorRng};

/// A small network exercising every layer kind that overrides
/// `eval_into`: conv, batch norm, relu, max pool, residual (identity and
/// projected), global average pool, flatten, and linear.
fn build_net(rng: &mut TensorRng) -> Sequential {
    let stem = Sequential::new()
        .push(Conv3d::new(
            "stem",
            4,
            1,
            (1, 3, 3),
            (1, 1, 1),
            (0, 1, 1),
            true,
            rng,
        ))
        .push(BatchNorm3d::new("stem_bn", 4))
        .push(Relu::new())
        .push(MaxPool3d::new((1, 2, 2), (1, 2, 2)));
    let id_block = ResidualBlock::identity(
        Sequential::new()
            .push(Conv3d::new(
                "r1a",
                4,
                4,
                (3, 1, 1),
                (1, 1, 1),
                (1, 0, 0),
                false,
                rng,
            ))
            .push(BatchNorm3d::new("r1a_bn", 4))
            .push(Relu::new())
            .push(Conv3d::new(
                "r1b",
                4,
                4,
                (1, 3, 3),
                (1, 1, 1),
                (0, 1, 1),
                false,
                rng,
            ))
            .push(BatchNorm3d::new("r1b_bn", 4)),
    );
    let proj_block = ResidualBlock::projected(
        Sequential::new()
            .push(Conv3d::new(
                "r2a",
                6,
                4,
                (1, 3, 3),
                (2, 2, 2),
                (0, 1, 1),
                false,
                rng,
            ))
            .push(BatchNorm3d::new("r2a_bn", 6)),
        Sequential::new()
            .push(Conv3d::new(
                "r2s",
                6,
                4,
                (1, 1, 1),
                (2, 2, 2),
                (0, 0, 0),
                false,
                rng,
            ))
            .push(BatchNorm3d::new("r2s_bn", 6)),
    );
    stem.push(id_block)
        .push(proj_block)
        .push(GlobalAvgPool::new())
        .push(Flatten::new())
        .push(Linear::new("fc", 5, 6, true, rng))
}

/// Randomises batch-norm statistics so the eval path exercises
/// non-trivial running means/variances rather than the 0/1 defaults.
fn warm_bn(net: &mut Sequential, rng: &mut TensorRng, shape: [usize; 5]) {
    for _ in 0..2 {
        let x = rng.uniform_tensor(shape, -1.0, 1.0);
        let _ = net.forward(&x, Mode::Train);
    }
}

#[test]
fn arena_eval_bitwise_matches_forward() {
    let mut rng = TensorRng::seed(42);
    let mut net = build_net(&mut rng);
    warm_bn(&mut net, &mut rng, [2, 1, 4, 8, 8]);

    let mut arena = EvalArena::new();
    for trial in 0..3 {
        let x = rng.uniform_tensor([2, 1, 4, 8, 8], -1.0, 1.0);
        let want = net.forward(&x, Mode::Eval);

        arena.reset();
        let input = arena.load_clip(&x);
        let out = net.eval_into(&mut arena, input);
        assert_eq!(arena.shape(out).dims(), want.shape().dims());
        // Bitwise, not approximate: the arena path must replay the same
        // f32 expressions in the same order.
        assert_eq!(arena.buf(out), want.data(), "trial {trial} diverged");
    }
}

#[test]
fn arena_stops_growing_after_first_clip() {
    let mut rng = TensorRng::seed(7);
    let mut net = build_net(&mut rng);
    warm_bn(&mut net, &mut rng, [1, 1, 4, 8, 8]);

    let mut arena = EvalArena::new();
    // Warm-up clip sizes every buffer.
    let x = rng.uniform_tensor([1, 1, 4, 8, 8], -1.0, 1.0);
    arena.reset();
    let input = arena.load_clip(&x);
    let _ = net.eval_into(&mut arena, input);
    let warm = arena.stats();
    assert!(warm.grow_events > 0, "warm-up should allocate");
    // No layer in this net should hit the copy-out fallback.
    assert_eq!(warm.fallback_events, 0, "unexpected eval_into fallback");

    // Steady state: same-shaped clips must reuse the warm buffers.
    for _ in 0..5 {
        let x = rng.uniform_tensor([1, 1, 4, 8, 8], -1.0, 1.0);
        arena.reset();
        let input = arena.load_clip(&x);
        let _ = net.eval_into(&mut arena, input);
    }
    let steady = arena.stats();
    assert_eq!(
        steady.grow_events, warm.grow_events,
        "steady-state eval grew the arena"
    );
    assert_eq!(steady.buffers, warm.buffers);
}

#[test]
fn default_eval_into_fallback_matches_forward() {
    /// A layer that does not override `eval_into`; exercises the
    /// copy-out default path end to end.
    struct Scale(f32);
    impl Layer for Scale {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.map(|x| x * self.0)
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.map(|g| g * self.0)
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut p3d_nn::Param)) {}
        fn describe(&self) -> String {
            "scale".to_string()
        }
    }

    let mut rng = TensorRng::seed(9);
    let mut net = Sequential::new().push(Scale(0.5)).push(Relu::new());
    let x = rng.uniform_tensor([2, 3], -1.0, 1.0);
    let want = net.forward(&x, Mode::Eval);

    let mut arena = EvalArena::new();
    let input = arena.load_clip(&x);
    let out = net.eval_into(&mut arena, input);
    assert_eq!(arena.buf(out), want.data());
    assert_eq!(arena.stats().fallback_events, 1);
}

/// One conv layer's geometry: name, `M`, `N`, kernel, stride, pad and
/// input extents `(Di, Hi, Wi)`.
type ConvCase = (
    &'static str,
    usize,
    usize,
    (usize, usize, usize),
    (usize, usize, usize),
    (usize, usize, usize),
    (usize, usize, usize),
);

/// The 11 conv layers of R(2+1)D-lite-wide on `(1, 8, 24, 24)` clips
/// (`p3d_models::r2plus1d_lite_wide`, the pruned benchmark model):
/// stride-2 padded `1x5x5` and `1x3x3` spatial convs, `3x1x1` temporal
/// convs at temporal stride 1 and 2, and the `1x1x1` stride-2 shortcut.
const LITE_WIDE_CONVS: [ConvCase; 11] = [
    (
        "conv1.spatial",
        10,
        1,
        (1, 5, 5),
        (1, 2, 2),
        (0, 2, 2),
        (8, 24, 24),
    ),
    (
        "conv1.temporal",
        16,
        10,
        (3, 1, 1),
        (1, 1, 1),
        (1, 0, 0),
        (8, 12, 12),
    ),
    (
        "conv2_1a.spatial",
        36,
        16,
        (1, 3, 3),
        (1, 1, 1),
        (0, 1, 1),
        (8, 12, 12),
    ),
    (
        "conv2_1a.temporal",
        16,
        36,
        (3, 1, 1),
        (1, 1, 1),
        (1, 0, 0),
        (8, 12, 12),
    ),
    (
        "conv2_1b.spatial",
        36,
        16,
        (1, 3, 3),
        (1, 1, 1),
        (0, 1, 1),
        (8, 12, 12),
    ),
    (
        "conv2_1b.temporal",
        16,
        36,
        (3, 1, 1),
        (1, 1, 1),
        (1, 0, 0),
        (8, 12, 12),
    ),
    (
        "conv3_1a.spatial",
        57,
        16,
        (1, 3, 3),
        (1, 2, 2),
        (0, 1, 1),
        (8, 12, 12),
    ),
    (
        "conv3_1a.temporal",
        32,
        57,
        (3, 1, 1),
        (2, 1, 1),
        (1, 0, 0),
        (8, 6, 6),
    ),
    (
        "conv3_1b.spatial",
        72,
        32,
        (1, 3, 3),
        (1, 1, 1),
        (0, 1, 1),
        (4, 6, 6),
    ),
    (
        "conv3_1b.temporal",
        32,
        72,
        (3, 1, 1),
        (1, 1, 1),
        (1, 0, 0),
        (4, 6, 6),
    ),
    (
        "conv3_sc",
        32,
        16,
        (1, 1, 1),
        (2, 2, 2),
        (0, 0, 0),
        (8, 12, 12),
    ),
];

/// Clips per batch in the conv checks.
const BATCH: usize = 2;

fn build_conv(case: &ConvCase, rng: &mut TensorRng) -> Conv3d {
    let &(name, m, n, kernel, stride, pad, _) = case;
    let mut conv = Conv3d::new(name, m, n, kernel, stride, pad, true, rng);
    conv.bias.as_mut().expect("bias").value = rng.uniform_tensor([m], -0.5, 0.5);
    conv
}

fn conv_input(case: &ConvCase, rng: &mut TensorRng) -> Tensor {
    let &(_, _, n, _, _, _, (d, h, w)) = case;
    rng.uniform_tensor([BATCH, n, d, h, w], -1.0, 1.0)
}

/// The paper's `Tm x Tn = 8 x 4` channel blocks over the conv's `[M, K]`
/// weight matrix: 8 output channels by 4 input channels' kernel taps.
fn block_pattern(conv: &Conv3d, keep: impl Fn(usize, usize) -> bool) -> BlockPattern {
    let (kd, kr, kc) = conv.kernel();
    let (m, k, tm, tk) = (
        conv.out_channels(),
        conv.in_channels() * kd * kr * kc,
        8,
        4 * kd * kr * kc,
    );
    let bcols = k.div_ceil(tk);
    BlockPattern {
        m,
        k,
        tm,
        tk,
        keep: (0..m.div_ceil(tm) * bcols)
            .map(|i| keep(i / bcols, i % bcols))
            .collect(),
    }
}

/// Zeroes the weights of disabled blocks and installs the pattern.
fn prune(conv: &mut Conv3d, pattern: &BlockPattern) {
    let bcols = pattern.block_cols();
    for (i, v) in conv.weight.value.data_mut().iter_mut().enumerate() {
        let (r, c) = (i / pattern.k, i % pattern.k);
        if !pattern.keep[(r / pattern.tm) * bcols + c / pattern.tk] {
            *v = 0.0;
        }
    }
    conv.install_block_patterns(&mut |_| Some(pattern.clone()));
}

/// `im2col` + `gemm_naive_into` + bias, clip by clip: the plain
/// reference both conv paths must reproduce bit for bit.
fn reference(conv: &Conv3d, x: &Tensor) -> Vec<f32> {
    let (di, hi, wi) = (x.shape().dim(2), x.shape().dim(3), x.shape().dim(4));
    let geom = ConvGeometry {
        channels: conv.in_channels(),
        input: (di, hi, wi),
        kernel: conv.kernel(),
        stride: conv.stride(),
        pad: conv.pad(),
    };
    let (m, k, n) = (conv.out_channels(), geom.col_rows(), geom.col_cols());
    let per_in = x.len() / BATCH;
    let bias = conv.bias.as_ref().expect("bias").value.data();
    let mut out = vec![f32::NAN; BATCH * m * n];
    for (b, dst) in out.chunks_mut(m * n).enumerate() {
        let cols = im2col(&x.data()[b * per_in..(b + 1) * per_in], &geom);
        gemm_naive_into(conv.weight.value.data(), m, k, cols.data(), n, dst);
        for (row, &bv) in dst.chunks_mut(n).zip(bias) {
            row.iter_mut().for_each(|v| *v += bv);
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `forward(Mode::Eval)` and `eval_into` and checks both against
/// the reference.
fn check_conv_paths(conv: &mut Conv3d, x: &Tensor, what: &str) {
    let want = bits(&reference(conv, x));
    let fwd = conv.forward(x, Mode::Eval);
    assert_eq!(bits(fwd.data()), want, "{what}: forward diverged");
    let mut arena = EvalArena::new();
    let input = arena.load_clip(x);
    let out = conv.eval_into(&mut arena, input);
    assert_eq!(arena.shape(out).dims(), fwd.shape().dims());
    assert_eq!(bits(arena.buf(out)), want, "{what}: eval_into diverged");
}

#[test]
fn conv_paths_match_im2col_reference_on_every_lite_wide_layer() {
    let mut rng = TensorRng::seed(0x11fe);
    for case in &LITE_WIDE_CONVS {
        let name = case.0;
        let x = conv_input(case, &mut rng);
        let mut dense = build_conv(case, &mut rng);
        check_conv_paths(&mut dense, &x, &format!("{name} dense"));

        for kept in [1.0, 0.5, 0.1] {
            let mut conv = build_conv(case, &mut rng);
            let draws: Vec<f32> = (0..1024).map(|_| rng.uniform(0.0, 1.0)).collect();
            let pattern = block_pattern(&conv, |bi, bj| draws[(bi * 31 + bj) % draws.len()] < kept);
            prune(&mut conv, &pattern);
            // A fully enabled pattern falls back to the dense kernel.
            assert_eq!(
                conv.block_sparse().is_some(),
                kept < 1.0,
                "{name} at {kept} kept"
            );
            check_conv_paths(&mut conv, &x, &format!("{name} at {kept} kept"));
        }

        // Every odd block column disabled in every block row: those
        // input channels are never lowered.
        let mut conv = build_conv(case, &mut rng);
        let pattern = block_pattern(&conv, |_, bj| bj % 2 == 0);
        prune(&mut conv, &pattern);
        if pattern.block_cols() > 1 {
            let bs = conv.block_sparse().expect("half the blocks are pruned");
            assert!(
                bs.read_ranges().len() < pattern.block_cols(),
                "{name}: no column skipped"
            );
        }
        check_conv_paths(&mut conv, &x, &format!("{name} with dead block columns"));
    }
}

/// The per-thread GEMM pack scratch is reused across calls, and the
/// block-sparse path lowers only the rows some enabled block reads, so
/// the rest of the scratch keeps whatever an earlier product left. Fill
/// it with NaN first: the pruned conv must still be finite and bitwise
/// equal to the dense kernel on the same masked weights.
#[test]
fn pruned_conv_ignores_stale_pack_scratch() {
    let case = &LITE_WIDE_CONVS[2]; // conv2_1a.spatial: the largest lowered operand
    let mut rng = TensorRng::seed(0x5ca1e);
    let x = conv_input(case, &mut rng);
    let mut pruned = build_conv(case, &mut rng);
    let pattern = block_pattern(&pruned, |bi, bj| bj % 2 == 0 && (bi + bj) % 3 != 0);
    prune(&mut pruned, &pattern);
    let bs = pruned.block_sparse().expect("pattern is sparse");
    let k = bs.cols();
    assert_ne!(bs.read_ranges(), [(0, k)], "some rows must go unread");
    let mut dense = build_conv(case, &mut rng);
    dense.weight.value = pruned.weight.value.clone();
    dense.bias = pruned.bias.clone();
    let want = bits(dense.forward(&x, Mode::Eval).data());

    // One worker: every clip's GEMM runs, and packs, on this thread.
    set_thread_override(Some(1));
    let (m, n) = (4, 4096);
    let big_k = 2 * k;
    let mut out = vec![0.0f32; m * n];
    gemm_into(
        &vec![1.0; m * big_k],
        m,
        big_k,
        &vec![f32::NAN; big_k * n],
        n,
        &mut out,
    );
    assert!(
        out.iter().all(|v| v.is_nan()),
        "the scratch was not poisoned"
    );
    let got = pruned.forward(&x, Mode::Eval);
    let mut arena = EvalArena::new();
    let input = arena.load_clip(&x);
    let out_id = pruned.eval_into(&mut arena, input);
    let evald = bits(arena.buf(out_id));
    set_thread_override(None);

    assert!(
        got.data().iter().all(|v| v.is_finite()),
        "stale NaN reached forward"
    );
    assert_eq!(bits(got.data()), want, "forward diverged from dense");
    assert_eq!(evald, want, "eval_into diverged from dense");
}
