//! The **fast functional** Q7.8 convolution path used for serving.
//!
//! [`run_conv_functional`] computes exactly the same outputs and
//! statistics as the cycle-approximate engine in [`crate::sim::cycle`],
//! restructured like the hardware's input-tile loop (Algorithm 2,
//! Fig. 2) rather than its MAC array:
//!
//! * **Compiled once** — a [`CompiledConv`] holds everything about a
//!   layer that depends only on its weights, block mask and tiling:
//!   each block row's enabled blocks as one list of tile-row runs, the
//!   weights packed once in that order, the data-independent
//!   [`ConvStats`] (read from the latency model's
//!   [`crate::latency::tile_walk`]), one 32-bit certificate per channel
//!   group (below) and the layer's fused [`Epilogue`]. It is the
//!   engine's only form: `SimEngine` compiles every layer, epilogue
//!   included, when it is built, and [`run_conv_functional`] compiles
//!   with the identity epilogue and runs.
//! * **Lowered input tiles** — the output volume is walked in chunks of
//!   whole output rows, sized so the chunk's input tile holds at most
//!   [`TILE_WORDS`] `i16` words. Each chunk lowers the input once into a
//!   per-thread tile with one row per `(input channel, kernel tap)`:
//!   that row of the im2col column matrix over the chunk's window of
//!   output lines, zero in the padding, written by the f32 engines' own
//!   walk ([`p3d_nn::im2col::lower_row`]). Stride and padding are
//!   resolved there, once per chunk, so the compute loop never sees them.
//!   The walk hands over one span of lines per depth plane, so where the
//!   source lines sit `Wo` apart (every stride-1 "same"-width spatial
//!   conv and every temporal conv) a tile row is one copy per plane, or
//!   one for the whole chunk when its planes continue each other: the
//!   CPU counterpart of the accelerator's one input-buffer load per tile
//!   (Algorithm 2).
//! * **One register-tiled kernel per channel group** — a `Tm x Tn`
//!   block grid means every output channel of block row `bi` reads the
//!   same input channels, so the kernel walks a block row's channels in
//!   groups of up to 4 and the chunk in strips of 8 positions, holding
//!   the 4 x 8 sums in registers across the row's whole run list, then
//!   finishes each sum once (below). The panel stores each run's
//!   tile rows in pairs `(r, r + 1)`, one `i32` per channel holding
//!   both `i16` weights, an odd-length run's last row paired with a
//!   zero weight; a block row's last group is padded to 4 channels with
//!   zero weights, and only its real channels are written.
//! * **Fused post-processing** — the finish that rounds and saturates
//!   each sum also applies its channel's epilogue: `+ bias`, then
//!   `* scale + shift` (folded batch norm), then ReLU, in the saturating
//!   `Fixed16` operations [`crate::sim::PostProcessor`] uses, in its
//!   order, as the paper's post-processing unit works on each output
//!   tile while the convolution engine runs. The network walk therefore
//!   never revisits a conv's output for its bias, batch norm or ReLU.
//!   A missing part is its identity (bias 0, scale 1.0, shift 0), which
//!   is exact, so one finish serves every layer.
//! * **Block-enable skipping** — disabled `(bi, bj)` blocks contribute
//!   neither arithmetic nor, when no block row reads an input channel,
//!   lowering; a block row with no enabled block is never visited (its
//!   conv outputs are exact zeros, so its channels hold the epilogue of
//!   zero).
//!
//! # The 32-bit certificate, and which body runs
//!
//! A group is *certified* when every one of its channels has a sum of
//! `|w|` over its enabled blocks of at most [`CERTIFIED_L1`] (65535).
//! Every input is an `i16`, so every partial sum of that channel is at
//! most `65535 * 2^15` in magnitude, and adding the `+128` rounding
//! offset still fits in `i32` (`65535 * 2^15 + 128 < 2^31`). The
//! certificate depends only on the weights, so no input can break it.
//!
//! * Full 8-position strips of a certified group run the one AVX2 body:
//!   it interleaves two tile rows in registers and multiplies them
//!   against the broadcast weight pair with `_mm256_madd_epi16`, summing
//!   in `i32`, and finishes the sums in registers, epilogue included,
//!   with one 128-bit store per channel.
//! * Everything else runs the scalar body, which sums in `i64`, finishes
//!   with the same epilogue and is the reference: ragged strips,
//!   uncertified groups, and hosts without AVX2 (or under
//!   [`p3d_tensor::simd::force_scalar`]). No measured model has an
//!   uncertified group: the largest per-channel sums sit about 22x under
//!   the bound (EXPERIMENTS.md, "Certificate margins").
//!
//! # Why the two engines are bitwise identical
//!
//! Both paths accumulate **every** contribution of an output element
//! exactly — in `i64`, or in `i32` where the certificate proves no sum
//! leaves it — then round-and-saturate once with the same
//! `(acc + 128) >> 8` rule, and apply the same epilogue operations in
//! the same order (the AVX2 finish lane for lane, the cycle engine as
//! `PostProcessor` passes after the conv). Integer addition is
//! associative and commutative, so the loop order — tiled there,
//! lowered, chunked and paired here, vectorized or not — cannot change a
//! single bit, and a lowered padding word or a zero weight adds nothing.
//! The `conv_differential` suite pins this on random geometries, on
//! every lite-wide layer, at both sides of the certificate's boundary
//! and for fused epilogues at the rails. The statistics (cycles
//! included) come from the latency model's analytic walk of the
//! schedule the cycle engine executes, and the suite asserts the whole
//! `(output, ConvStats)` pair equal, not just the tensor.

use crate::config::AcceleratorConfig;
use crate::latency::{tile_walk, DoubleBuffering};
use crate::sim::cycle::ConvStats;
use crate::sim::post::Epilogue;
use p3d_core::LayerBlockMask;
use p3d_models::ConvInstance;
use p3d_nn::im2col::{lower_row, ConvGeometry};
use p3d_tensor::fixed::{bits_of, FRAC_BITS};
use p3d_tensor::{simd, Fixed16, FixedTensor, Shape};
use std::cell::RefCell;
use std::ops::Range;

/// Upper bound, in `i16` words, on one lowered input tile (64 KiB, so
/// the tile stays cache-resident while every output channel of its
/// chunk streams over it). A chunk is at least one output row, so a
/// layer whose single row lowers to more than this uses one row.
pub const TILE_WORDS: usize = 32 * 1024;

/// Largest per-channel sum of `|w|` (in Q7.8 integer units) for which a
/// channel's sums are exact in `i32`: `65535 * 2^15 + 128 < 2^31`.
pub const CERTIFIED_L1: u64 = 65535;

/// Output channels per register tile.
const GROUP: usize = 4;
/// Output positions per register tile.
const STRIP: usize = 8;

/// Exact sums of one register tile: `[channel][position]`.
type TileSums = [[i64; STRIP]; GROUP];

/// One output channel's [`Epilogue`] with every part present; a missing
/// part is its identity (bias 0, scale 1.0, shift 0), which is exact:
/// `y + 0 == y` and `(256 * y + 128) >> 8 == y`.
#[derive(Clone, Copy)]
struct Post {
    bias: Fixed16,
    scale: Fixed16,
    shift: Fixed16,
}

impl Post {
    const IDENTITY: Post = Post {
        bias: Fixed16::ZERO,
        scale: Fixed16::ONE,
        shift: Fixed16::ZERO,
    };

    /// `relu?((y + bias) * scale + shift)` in `PostProcessor`'s saturating
    /// `Fixed16` operations, in its order.
    #[inline(always)]
    fn apply(self, y: Fixed16, relu: bool) -> Fixed16 {
        let v = (y + self.bias) * self.scale + self.shift;
        if relu {
            v.relu()
        } else {
            v
        }
    }
}

/// The tile rows of one or more adjacent enabled block columns:
/// consecutive, as are their weights within each output channel's
/// `[N * Kd * Kr * Kc]` weight row.
struct Run {
    /// First tile row.
    row: usize,
    /// Offset of its weight within an output channel's weight row.
    w: usize,
    /// Number of tile rows.
    len: usize,
}

/// Up to [`GROUP`] output channels of one block row.
struct Group {
    /// First output channel.
    m0: usize,
    /// Real channels (`<= GROUP`); the rest are zero-weight padding.
    g: usize,
    /// The block row's runs, as a range of [`CompiledConv::runs`].
    runs: Range<usize>,
    /// The group's weights, as a range of [`CompiledConv::panel`].
    panel: Range<usize>,
    /// Every channel's sum of `|w|` is at most [`CERTIFIED_L1`].
    certified: bool,
}

/// One conv layer compiled for the functional engine against fixed
/// weights, block mask and tiling: the lowered input channels, each
/// block row's tile-row runs, the packed weight panel, one 32-bit
/// certificate per channel group, the data-independent [`ConvStats`]
/// (from the latency model: [`crate::latency::tile_walk`] with double
/// buffering on) and the [`Epilogue`] its finish applies (the identity
/// unless [`CompiledConv::with_epilogue`] sets one). Running it touches
/// only the input.
pub struct CompiledConv {
    geom: ConvGeometry,
    /// `(M, Do, Ho, Wo)`.
    output: (usize, usize, usize, usize),
    /// Input channels some enabled block reads, ascending; their taps
    /// are the tile rows, in this order.
    lowered: Vec<usize>,
    /// Output rows per lowered chunk.
    chunk_rows: usize,
    runs: Vec<Run>,
    groups: Vec<Group>,
    /// Per group, per pair of run rows, per channel: the two `i16`
    /// weights, the first in the low half.
    panel: Vec<i32>,
    /// Everything but `saturated_words`, which each run fills in.
    stats: ConvStats,
    /// Largest per-channel sum of `|w|` over enabled blocks.
    largest_l1: u64,
    /// Per output channel, the epilogue's bias, scale and shift.
    post: Vec<Post>,
    /// The epilogue ends in ReLU.
    relu: bool,
    /// Output channels no group computes: their conv outputs are exact
    /// zeros, so they hold the epilogue of zero.
    idle: Vec<usize>,
}

/// One panel entry: `w0` in the low half, `w1` in the high half — the
/// operand layout of `_mm256_madd_epi16` against rows `(r, r + 1)`
/// interleaved.
fn pair(w0: i16, w1: i16) -> i32 {
    i32::from(w0 as u16) | (i32::from(w1) << 16)
}

/// Half `h` (0 or 1) of a panel entry, sign-extended.
#[inline(always)]
fn half(pair: i32, h: usize) -> i16 {
    (pair >> (16 * h)) as i16
}

impl CompiledConv {
    /// Compiles one layer. `mask`, when given, gates `Tm x Tn` blocks
    /// exactly as in [`crate::sim::run_conv`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch between `inst`, `weights` and
    /// `mask`.
    pub fn compile(
        inst: &ConvInstance,
        weights: &FixedTensor,
        mask: Option<&LayerBlockMask>,
        config: &AcceleratorConfig,
    ) -> Self {
        let (n_ch, di, hi, wi) = inst.input;
        let (m_ch, od, oh, ow) = inst.output;
        let (kd, kr, kc) = inst.spec.kernel;
        assert_eq!(
            weights.shape().dims(),
            &[m_ch, n_ch, kd, kr, kc],
            "weight shape mismatch for {}",
            inst.spec.name
        );
        // The walk also checks the mask's grid against the layer.
        let stats = tile_walk(inst, config, mask, DoubleBuffering::On);
        let t = &config.tiling;
        let rows = m_ch.div_ceil(t.tm);
        let cols = n_ch.div_ceil(t.tn);
        let enabled = |bi: usize, bj: usize| mask.is_none_or(|m| m.is_enabled(bi, bj));

        let mut layer = CompiledConv {
            geom: ConvGeometry {
                channels: n_ch,
                input: (di, hi, wi),
                kernel: inst.spec.kernel,
                stride: inst.spec.stride,
                pad: inst.spec.pad,
            },
            output: inst.output,
            lowered: (0..n_ch)
                .filter(|&n| (0..rows).any(|bi| enabled(bi, n / t.tn)))
                .collect(),
            chunk_rows: 1,
            runs: Vec::new(),
            groups: Vec::new(),
            panel: Vec::new(),
            stats,
            largest_l1: 0,
            post: vec![Post::IDENTITY; m_ch],
            relu: false,
            idle: (0..m_ch).collect(),
        };
        let ktaps = kd * kr * kc;
        let out_rows = od * oh;
        if layer.lowered.is_empty() || out_rows * ow == 0 {
            return layer; // every sum is zero: nothing to compute or rail
        }
        layer.chunk_rows = (TILE_WORDS / (layer.lowered.len() * ktaps * ow)).clamp(1, out_rows);

        // Each block row's enabled blocks as runs of tile rows (adjacent
        // block columns merged: their channels are lowered and weighted
        // consecutively), then its groups' weights in run order, pairs
        // of rows per entry.
        let w_bits = bits_of(weights.data());
        for bi in 0..rows {
            let first = layer.runs.len();
            for bj in (0..cols).filter(|&bj| enabled(bi, bj)) {
                let n0 = bj * t.tn;
                let lowered = layer
                    .lowered
                    .binary_search(&n0)
                    .expect("an enabled block's channels are lowered");
                let run = Run {
                    row: lowered * ktaps,
                    w: n0 * ktaps,
                    len: (((bj + 1) * t.tn).min(n_ch) - n0) * ktaps,
                };
                match layer.runs[first..].last_mut() {
                    Some(last) if last.row + last.len == run.row && last.w + last.len == run.w => {
                        last.len += run.len
                    }
                    _ => layer.runs.push(run),
                }
            }
            let runs = first..layer.runs.len();
            if runs.is_empty() {
                continue;
            }
            let m_end = ((bi + 1) * t.tm).min(m_ch);
            for m0 in (bi * t.tm..m_end).step_by(GROUP) {
                let start = layer.panel.len();
                let mut l1 = [0u64; GROUP];
                for run in &layer.runs[runs.clone()] {
                    for i in (0..run.len).step_by(2) {
                        for (c, l1) in l1.iter_mut().enumerate() {
                            let m = m0 + c;
                            let (w0, w1) = if m < m_end {
                                let row = &w_bits[m * n_ch * ktaps + run.w..][..run.len];
                                (row[i], row.get(i + 1).copied().unwrap_or(0))
                            } else {
                                (0, 0)
                            };
                            *l1 += u64::from(w0.unsigned_abs()) + u64::from(w1.unsigned_abs());
                            layer.panel.push(pair(w0, w1));
                        }
                    }
                }
                let largest = l1.into_iter().max().unwrap_or(0);
                layer.largest_l1 = layer.largest_l1.max(largest);
                layer.groups.push(Group {
                    m0,
                    g: (m_end - m0).min(GROUP),
                    runs: runs.clone(),
                    panel: start..layer.panel.len(),
                    certified: largest <= CERTIFIED_L1,
                });
            }
        }
        let groups = &layer.groups;
        layer
            .idle
            .retain(|&m| !groups.iter().any(|g| (g.m0..g.m0 + g.g).contains(&m)));
        layer
    }

    /// Fuses `epilogue` onto the layer: every output word the layer
    /// writes is its rounded conv sum with `epilogue` applied, bitwise
    /// equal to [`crate::sim::PostProcessor::epilogue`] on the unfused
    /// output. `saturated_words` still counts only the conv's own
    /// rounding rails.
    ///
    /// # Panics
    ///
    /// Panics if a bias, scale or shift vector does not have one entry
    /// per output channel.
    pub fn with_epilogue(mut self, epilogue: &Epilogue) -> Self {
        let m_ch = self.post.len();
        let parts = epilogue.bias.iter().chain(
            epilogue
                .batch_norm
                .iter()
                .flat_map(|(scale, shift)| [scale, shift]),
        );
        for part in parts {
            assert_eq!(part.len(), m_ch, "epilogue length mismatch");
        }
        for (m, post) in self.post.iter_mut().enumerate() {
            *post = Post::IDENTITY;
            if let Some(bias) = &epilogue.bias {
                post.bias = bias[m];
            }
            if let Some((scale, shift)) = &epilogue.batch_norm {
                (post.scale, post.shift) = (scale[m], shift[m]);
            }
        }
        self.relu = epilogue.relu;
        self
    }

    /// The largest per-output-channel sum of `|w|` over enabled blocks,
    /// in Q7.8 integer units: the certificate's margin is
    /// [`CERTIFIED_L1`] over this.
    pub fn largest_channel_l1(&self) -> u64 {
        self.largest_l1
    }

    /// `(certified, total)` channel groups.
    pub fn certified_groups(&self) -> (usize, usize) {
        let certified = self.groups.iter().filter(|g| g.certified).count();
        (certified, self.groups.len())
    }

    /// Runs the layer on `input` (`[N, D, H, W]`), returning the output
    /// and the statistics of the cycle engine on the same call.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have the compiled input shape.
    pub fn run(&self, input: &FixedTensor) -> (FixedTensor, ConvStats) {
        let ConvGeometry {
            channels,
            input: (di, hi, wi),
            ..
        } = self.geom;
        assert_eq!(
            input.shape().dims(),
            &[channels, di, hi, wi],
            "input shape mismatch for a compiled conv"
        );
        let (m_ch, od, oh, ow) = self.output;
        let mut out = FixedTensor::zeros(Shape::d4(m_ch, od, oh, ow));
        let mut stats = self.stats;
        if !self.groups.is_empty() {
            stats.saturated_words = TILE.with(|cell| {
                self.compute(
                    bits_of(input.data()),
                    out.data_mut(),
                    &mut cell.borrow_mut(),
                )
            });
        }
        let vol = od * oh * ow;
        for &m in &self.idle {
            let v = self.post[m].apply(Fixed16::ZERO, self.relu);
            if v != Fixed16::ZERO {
                out.data_mut()[m * vol..(m + 1) * vol].fill(v);
            }
        }
        (out, stats)
    }

    /// Lowers each chunk of output rows into `tile` and runs every
    /// channel group over it, returning the railed output words.
    fn compute(&self, x_bits: &[i16], out: &mut [Fixed16], tile: &mut Vec<i16>) -> u64 {
        let (kd, kr, kc) = self.geom.kernel;
        let ktaps = kd * kr * kc;
        let lowered_rows = self.lowered.len() * ktaps;
        let (_, od, oh, ow) = self.output;
        let out_rows = od * oh;
        let vol = out_rows * ow;
        let words = lowered_rows * self.chunk_rows * ow;
        if tile.len() < words {
            tile.resize(words.max(TILE_WORDS), 0);
        }
        let use_avx2 = simd::use_avx2();
        let mut railed = 0;
        for row0 in (0..out_rows).step_by(self.chunk_rows) {
            let chunk = row0..(row0 + self.chunk_rows).min(out_rows);
            let len = chunk.len() * ow;
            let tile = &mut tile[..lowered_rows * len];
            // Column-matrix rows in tile order: the lowered channels, every tap.
            let lowered = self
                .lowered
                .iter()
                .flat_map(|&n| n * ktaps..(n + 1) * ktaps);
            for (tap_row, p) in tile.chunks_exact_mut(len).zip(lowered) {
                lower_row(x_bits, &self.geom, p, chunk.clone(), tap_row);
            }
            for group in &self.groups {
                railed += conv_group(
                    &mut out[group.m0 * vol + row0 * ow..],
                    vol,
                    tile,
                    len,
                    &self.runs[group.runs.clone()],
                    &self.panel[group.panel.clone()],
                    &self.post[group.m0..group.m0 + group.g],
                    self.relu,
                    group.certified,
                    use_avx2,
                );
            }
        }
        railed
    }
}

thread_local! {
    /// The lowered input tile, grown on first use and reused by every
    /// layer of every clip the thread simulates.
    static TILE: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
}

/// Runs one convolution layer through the fast functional path:
/// [`CompiledConv::compile`], then [`CompiledConv::run`].
///
/// Same contract as [`crate::sim::run_conv`]. Callers that run a layer
/// more than once should hold its [`CompiledConv`] instead, as
/// `SimEngine` does.
///
/// # Panics
///
/// Panics on any shape mismatch between `inst`, `weights` and `input`.
pub fn run_conv_functional(
    inst: &ConvInstance,
    weights: &FixedTensor,
    input: &FixedTensor,
    mask: Option<&LayerBlockMask>,
    config: &AcceleratorConfig,
) -> (FixedTensor, ConvStats) {
    CompiledConv::compile(inst, weights, mask, config).run(input)
}

/// [`run_conv_functional`]; `_panel` is not read. Each call compiles the
/// layer afresh. The benchmark under `perfbench/` calls this signature,
/// so it stays until that benchmark is refreshed (ROADMAP item 2).
pub fn run_conv_functional_with_scratch(
    inst: &ConvInstance,
    weights: &FixedTensor,
    input: &FixedTensor,
    mask: Option<&LayerBlockMask>,
    config: &AcceleratorConfig,
    _panel: &mut Vec<i64>,
) -> (FixedTensor, ConvStats) {
    run_conv_functional(inst, weights, input, mask, config)
}

/// Computes output channels `0..g` (`g = post.len() <= GROUP`, rows
/// `vol` apart in `out`) at the `len` positions of one lowered chunk,
/// reading the tile rows in `runs` against `panel` (`GROUP` entries per
/// pair of run rows, zero past channel `g`), and finishes each with its
/// channel's epilogue `post`, then ReLU when `relu`. All `GROUP`
/// channels are summed, but only the first `g` are written and counted:
/// the rest would land in the next block row or past the end of `out`.
/// With `use_avx2`, full strips of a `certified` group run the `i32`
/// AVX2 body; everything else runs the exact scalar `i64` body. Returns
/// the number of railed conv sums.
#[allow(clippy::too_many_arguments)]
fn conv_group(
    out: &mut [Fixed16],
    vol: usize,
    tile: &[i16],
    len: usize,
    runs: &[Run],
    panel: &[i32],
    post: &[Post],
    relu: bool,
    certified: bool,
    use_avx2: bool,
) -> u64 {
    assert!(post.len() <= GROUP, "a group holds at most GROUP channels");
    let pairs: usize = runs.iter().map(|run| run.len.div_ceil(2)).sum();
    assert_eq!(
        panel.len(),
        GROUP * pairs,
        "the panel holds GROUP entries per row pair"
    );
    assert!(
        runs.iter()
            .all(|run| (run.row + run.len) * len <= tile.len()),
        "every run lies inside the tile"
    );
    let mut j = 0;
    let mut railed = 0;
    #[cfg(target_arch = "x86_64")]
    if use_avx2 && certified {
        // SAFETY: use_avx2 came from simd::use_avx2(), which is true only
        // when runtime detection proved AVX2 support; the asserts above
        // prove that `tile` holds `len` words for every tile row of
        // `runs` and that `panel` holds `GROUP` entries per row pair; the
        // group is certified, so its sums fit in `i32`.
        (j, railed) = unsafe { avx2::madd_strips(out, vol, tile, len, runs, panel, post, relu) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (certified, use_avx2);
    while j < len {
        let w = (len - j).min(STRIP);
        let mut sums = [[0i64; STRIP]; GROUP];
        let mut entries = panel.chunks_exact(GROUP);
        for run in runs {
            for i in (0..run.len).step_by(2) {
                let wk = entries
                    .next()
                    .expect("panel holds GROUP entries per row pair");
                for h in 0..(run.len - i).min(2) {
                    let x = &tile[(run.row + i + h) * len + j..][..w];
                    for (acc, &wp) in sums.iter_mut().zip(wk) {
                        let wv = i64::from(half(wp, h));
                        for (a, &xv) in acc.iter_mut().zip(x) {
                            *a += wv * i64::from(xv);
                        }
                    }
                }
            }
        }
        railed += finish(out, vol, j, &sums, post, relu, w);
        j += w;
    }
    railed
}

/// Rounds and saturates the first `post.len() x w` sums of a register
/// tile with the same `(acc + 128) >> 8` rule as
/// `MacAccumulator::finish`, counting railed sums for the
/// saturation-anomaly signal, then applies each channel's epilogue and
/// writes the words into `out` at position `j` (channel rows `vol`
/// apart).
#[inline(always)]
fn finish(
    out: &mut [Fixed16],
    vol: usize,
    j: usize,
    sums: &TileSums,
    post: &[Post],
    relu: bool,
    w: usize,
) -> u64 {
    const LO: i64 = i16::MIN as i64;
    const HI: i64 = i16::MAX as i64;
    let mut railed = 0;
    for (c, (acc, &post)) in sums.iter().zip(post).enumerate() {
        for (o, &a) in out[c * vol + j..][..w].iter_mut().zip(acc) {
            let rounded = (a + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
            let clamped = rounded.clamp(LO, HI);
            railed += u64::from(clamped != rounded);
            *o = post.apply(Fixed16::from_bits(clamped as i16), relu);
        }
    }
    railed
}

/// The AVX2 body of the register-tiled kernel, over full 8-position
/// strips of one certified 4-channel group: per pair of tile rows
/// `(r, r + 1)`, the two rows' eight `i16` inputs are interleaved in
/// registers with `unpacklo/hi_epi16` into eight `(x_r, x_r+1)` dwords,
/// and `_mm256_madd_epi16` multiplies them by each channel's broadcast
/// `(w_r, w_r+1)` entry and adds the two products, one `i32` per
/// position; the sums stay in `i32`. This is exact only under the
/// certificate: a pair of `(-2^15)^2` products alone overflows `i32`,
/// and the certificate rules that out, along with every larger partial
/// sum. The 4 x 8 sums stay in registers for the whole run list, and
/// each channel's finish runs there too, step for step the scalar
/// `finish`:
///
/// 1. round, `(acc + 128) >> 8` (`srai_epi32`), still in `i32`;
/// 2. count the rounded sums outside `i16` (`cmpgt` and `movemask`);
/// 3. saturate to `i16` (`packs_epi32`);
/// 4. add the bias, saturating (`adds_epi16`);
/// 5. multiply by the scale exactly in `i32` (`cvtepi16_epi32`,
///    `mullo_epi32`), round the same way and saturate (`packs_epi32`);
/// 6. add the shift, saturating (`adds_epi16`);
/// 7. ReLU as `max_epi16` against zero (against `i16::MIN`, a no-op,
///    without ReLU);
/// 8. store the eight words with one 128-bit store.
///
/// Every step is the scalar operation's exact lane-wise counterpart, so
/// the body is bitwise identical to the scalar one.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Post, Run, GROUP, STRIP};
    use p3d_tensor::Fixed16;
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_castsi256_ps, _mm256_castsi256_si128,
        _mm256_cmpgt_epi32, _mm256_cvtepi16_epi32, _mm256_extracti128_si256, _mm256_madd_epi16,
        _mm256_movemask_ps, _mm256_mullo_epi32, _mm256_or_si256, _mm256_set1_epi32,
        _mm256_set_m128i, _mm256_setzero_si256, _mm256_srai_epi32, _mm_adds_epi16, _mm_loadu_si128,
        _mm_max_epi16, _mm_packs_epi32, _mm_set1_epi16, _mm_setzero_si128, _mm_storeu_si128,
        _mm_unpackhi_epi16, _mm_unpacklo_epi16,
    };

    /// `(v + 128) >> 8` on eight `i32` lanes; `v + 128` must not
    /// overflow.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn round(v: __m256i) -> __m256i {
        _mm256_srai_epi32(_mm256_add_epi32(v, _mm256_set1_epi32(128)), 8)
    }

    /// Eight `i32` lanes saturated to eight `i16`, in order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pack(v: __m256i) -> __m128i {
        _mm_packs_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1))
    }

    /// Computes every full 8-position strip of a certified 4-channel
    /// group in `i32` and writes its first `post.len()` channels with
    /// their epilogues (the contract of `super::conv_group`), returning
    /// the first position left for the scalar body and the railed sums.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers gate on
    /// [`p3d_tensor::simd::use_avx2`]). `tile` must hold `len` words for
    /// every tile row in `runs`, and `panel` `GROUP` entries per pair of
    /// run rows. Every channel's sum of `|w|` must be at most
    /// [`super::CERTIFIED_L1`], or sums wrap.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn madd_strips(
        out: &mut [Fixed16],
        vol: usize,
        tile: &[i16],
        len: usize,
        runs: &[Run],
        panel: &[i32],
        post: &[Post],
        relu: bool,
    ) -> (usize, u64) {
        let hi = _mm256_set1_epi32(i32::from(i16::MAX));
        let lo = _mm256_set1_epi32(i32::from(i16::MIN));
        let floor = _mm_set1_epi16(if relu { 0 } else { i16::MIN });
        let mut bias = [_mm_setzero_si128(); GROUP];
        let mut scale = [_mm256_setzero_si256(); GROUP];
        let mut shift = [_mm_setzero_si128(); GROUP];
        for (c, p) in post.iter().enumerate() {
            bias[c] = _mm_set1_epi16(p.bias.to_bits());
            scale[c] = _mm256_set1_epi32(i32::from(p.scale.to_bits()));
            shift[c] = _mm_set1_epi16(p.shift.to_bits());
        }
        let mut railed = 0;
        let mut j = 0;
        while j + STRIP <= len {
            let mut acc = [_mm256_setzero_si256(); GROUP];
            let mut wp = panel.as_ptr();
            for run in runs {
                // SAFETY: `run.row * len + j + STRIP <= (run.row + 1) * len`,
                // inside `tile` by this function's contract.
                let mut xp = unsafe { tile.as_ptr().add(run.row * len + j) };
                for i in (0..run.len).step_by(2) {
                    // SAFETY: `xp` points at `STRIP` in-bounds words of
                    // tile row `run.row + i`, and of the next row when
                    // `i + 1 < run.len` (16-byte unaligned loads); an
                    // odd run's last row is paired with zeros instead.
                    // `wp` points at the pair's `GROUP` panel entries.
                    // Both advance one pair per iteration; the pointer
                    // step after the last pair is only computed, never
                    // read.
                    unsafe {
                        let a = _mm_loadu_si128(xp as *const __m128i);
                        let b = if i + 1 < run.len {
                            _mm_loadu_si128(xp.add(len) as *const __m128i)
                        } else {
                            _mm_setzero_si128()
                        };
                        let x =
                            _mm256_set_m128i(_mm_unpackhi_epi16(a, b), _mm_unpacklo_epi16(a, b));
                        for (c, acc) in acc.iter_mut().enumerate() {
                            let w = _mm256_set1_epi32(*wp.add(c));
                            *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(x, w));
                        }
                        wp = wp.add(GROUP);
                        xp = xp.wrapping_add(2 * len);
                    }
                }
            }
            for (c, &acc) in acc[..post.len()].iter().enumerate() {
                // The certificate keeps `acc + 128` in `i32`; an
                // `i16 * i16` product plus 128 always fits.
                let r = round(acc);
                let over = _mm256_or_si256(_mm256_cmpgt_epi32(r, hi), _mm256_cmpgt_epi32(lo, r));
                railed += u64::from(_mm256_movemask_ps(_mm256_castsi256_ps(over)).count_ones());
                let y = _mm_adds_epi16(pack(r), bias[c]);
                let y = pack(round(_mm256_mullo_epi32(
                    _mm256_cvtepi16_epi32(y),
                    scale[c],
                )));
                let y = _mm_max_epi16(_mm_adds_epi16(y, shift[c]), floor);
                let dst = &mut out[c * vol + j..][..STRIP];
                // SAFETY: `dst` holds exactly eight `Fixed16`, which is
                // `repr(transparent)` over `i16`: one unaligned 128-bit
                // store.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, y) };
            }
            j += STRIP;
        }
        (j, railed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ports, Tiling};
    use crate::sim::cycle::run_conv;
    use p3d_core::{BlockGrid, BlockShape, LayerBlockMask};
    use p3d_models::{Conv3dSpec, ConvInstance};
    use p3d_tensor::{Tensor, TensorRng};

    fn inst(stride: (usize, usize, usize), pad: (usize, usize, usize)) -> ConvInstance {
        let (kd, kr, kc) = (1, 3, 3);
        let (n_ch, di, hi, wi) = (6, 2, 8, 8);
        let od = (di + 2 * pad.0 - kd) / stride.0 + 1;
        let oh = (hi + 2 * pad.1 - kr) / stride.1 + 1;
        let ow = (wi + 2 * pad.2 - kc) / stride.2 + 1;
        ConvInstance {
            spec: Conv3dSpec {
                name: "t".into(),
                stage: "s".into(),
                out_channels: 4,
                in_channels: n_ch,
                kernel: (kd, kr, kc),
                stride,
                pad,
                bias: false,
            },
            input: (n_ch, di, hi, wi),
            output: (4, od, oh, ow),
        }
    }

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig {
            tiling: Tiling::new(2, 2, 2, 4, 4),
            ports: Ports::new(2, 2, 2),
            freq_mhz: 150.0,
            data_bits: 16,
        }
    }

    #[test]
    fn functional_equals_cycle_engine_dense() {
        for (stride, pad) in [
            ((1, 1, 1), (0, 1, 1)),
            ((1, 2, 2), (0, 0, 0)),
            ((1, 1, 1), (0, 0, 0)),
        ] {
            let inst = inst(stride, pad);
            let mut rng = TensorRng::seed(21);
            let w = FixedTensor::quantize(&rng.uniform_tensor([4, 6, 1, 3, 3], -0.4, 0.4));
            let x = FixedTensor::quantize(&rng.uniform_tensor([6, 2, 8, 8], -0.9, 0.9));
            let (a, sa) = run_conv(&inst, &w, &x, None, &cfg());
            let (b, sb) = run_conv_functional(&inst, &w, &x, None, &cfg());
            assert_eq!(a, b, "outputs diverged at stride {stride:?} pad {pad:?}");
            assert_eq!(sa, sb, "stats diverged at stride {stride:?} pad {pad:?}");
        }
    }

    #[test]
    fn functional_equals_cycle_engine_masked() {
        let inst = inst((1, 1, 1), (0, 1, 1));
        let mut rng = TensorRng::seed(22);
        let mut w = rng.uniform_tensor([4, 6, 1, 3, 3], -0.4, 0.4);
        let grid = BlockGrid::for_weight(&w, BlockShape::new(2, 2));
        grid.zero_block(&mut w, 0, 1);
        grid.zero_block(&mut w, 1, 0);
        let mut keep = vec![true; grid.num_blocks()];
        keep[grid.block_index(0, 1)] = false;
        keep[grid.block_index(1, 0)] = false;
        let mask = LayerBlockMask::new(grid, keep);
        let qw = FixedTensor::quantize(&w);
        let qx = FixedTensor::quantize(&rng.uniform_tensor([6, 2, 8, 8], 0.0, 1.0));
        let (a, sa) = run_conv(&inst, &qw, &qx, Some(&mask), &cfg());
        let (b, sb) = run_conv_functional(&inst, &qw, &qx, Some(&mask), &cfg());
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sb.blocks_skipped > 0);
    }

    #[test]
    fn saturation_counted_identically() {
        let inst = inst((1, 1, 1), (0, 1, 1));
        let w = FixedTensor::quantize(&Tensor::full([4, 6, 1, 3, 3], 100.0));
        let x = FixedTensor::quantize(&Tensor::full([6, 2, 8, 8], 100.0));
        let (a, sa) = run_conv(&inst, &w, &x, None, &cfg());
        let (b, sb) = run_conv_functional(&inst, &w, &x, None, &cfg());
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sb.saturated_words, sb.output_words);
    }

    /// A 1x1x1 conv, one output channel over two input channels, whose
    /// weights are `w`.
    fn pointwise(w: [i16; 2]) -> (ConvInstance, FixedTensor) {
        let inst = ConvInstance {
            spec: Conv3dSpec {
                name: "pw".into(),
                stage: "s".into(),
                out_channels: 1,
                in_channels: 2,
                kernel: (1, 1, 1),
                stride: (1, 1, 1),
                pad: (0, 0, 0),
                bias: false,
            },
            input: (2, 1, 2, 9),
            output: (1, 1, 2, 9),
        };
        let mut weights = FixedTensor::zeros(Shape::from(&[1, 2, 1, 1, 1][..]));
        for (v, &bits) in weights.data_mut().iter_mut().zip(&w) {
            *v = Fixed16::from_bits(bits);
        }
        (inst, weights)
    }

    #[test]
    fn certificate_flips_exactly_past_65535() {
        for (w, l1, certified) in [
            ([32767, -32768], 65535, 1),
            ([-32768, -32768], 65536, 0),
            ([-32768, -32767], 65535, 1),
            ([0, 0], 0, 1),
        ] {
            let (inst, weights) = pointwise(w);
            let layer = CompiledConv::compile(&inst, &weights, None, &cfg());
            assert_eq!(layer.largest_channel_l1(), l1, "weights {w:?}");
            assert_eq!(layer.certified_groups(), (certified, 1), "weights {w:?}");
            // Both rails on both inputs: the worst case of either sign.
            for x in [
                [i16::MIN, i16::MIN],
                [i16::MAX, i16::MIN],
                [i16::MIN, i16::MAX],
            ] {
                let mut input = FixedTensor::zeros(Shape::from(&[2, 1, 2, 9][..]));
                for (c, plane) in input.data_mut().chunks_exact_mut(18).enumerate() {
                    plane.fill(Fixed16::from_bits(x[c]));
                }
                let (a, sa) = run_conv(&inst, &weights, &input, None, &cfg());
                let (b, sb) = layer.run(&input);
                assert_eq!(a, b, "weights {w:?} inputs {x:?}");
                assert_eq!(sa, sb, "weights {w:?} inputs {x:?}");
            }
        }
    }
}
