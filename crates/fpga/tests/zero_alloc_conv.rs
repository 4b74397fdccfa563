//! Counts heap allocations in the steady-state functional Q7.8 conv.
//!
//! Each lite-wide layer, block-pruned at the paper's stage ratios, is
//! compiled once ([`CompiledConv::compile`]) before the counted window,
//! with a fused epilogue ([`CompiledConv::with_epilogue`]: bias, folded
//! batch norm and, on every other layer, ReLU) so the counted finish is
//! the one serving runs.
//! Once a warm-up pass has grown the per-thread lowered input tile to
//! the largest layer, each [`CompiledConv::run`] call must allocate
//! exactly once: for the output tensor it returns.
//!
//! The counting allocator is process-global, so this file runs without
//! the libtest harness (`harness = false`).

use p3d_core::{magnitude_block_prune, targets_for_stages, BlockShape, KeepRule};
use p3d_fpga::sim::{CompiledConv, Epilogue};
use p3d_fpga::{AcceleratorConfig, Ports, Tiling};
use p3d_models::{build_network, r2plus1d_lite_wide};
use p3d_nn::Layer;
use p3d_tensor::{Fixed16, FixedTensor, TensorRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Forwards to the system allocator, counting allocations while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's layout contract unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's layout contract unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's pointer, layout and size unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's pointer and layout unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Steady-state functional conv calls allocate only their output.
fn main() {
    let spec = r2plus1d_lite_wide(4);
    let insts = spec.conv_instances().expect("lite-wide shape-checks");
    let mut net = build_network(&spec, 21);
    let targets = targets_for_stages(&spec, &[("conv2_x", 0.9), ("conv3_x", 0.8)]);
    let pruned = magnitude_block_prune(&mut net, BlockShape::new(8, 4), &targets, KeepRule::Round);
    let mut weights = Vec::new();
    net.visit_params(&mut |p| weights.push((p.name.clone(), FixedTensor::quantize(&p.value))));
    let cfg = AcceleratorConfig {
        tiling: Tiling::new(8, 4, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    };
    let mut rng = TensorRng::seed(5);
    let layers: Vec<_> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let name = format!("{}.weight", inst.spec.name);
            let (_, w) = weights
                .iter()
                .find(|(n, _)| *n == name)
                .expect("every conv has a weight");
            let (n, d, h, wd) = inst.input;
            let x = FixedTensor::quantize(&rng.uniform_tensor([n, d, h, wd], 0.0, 1.0));
            let mask = pruned.mask(&inst.spec.name);
            let mut per_channel = |lo, hi| -> Vec<Fixed16> {
                let t = rng.uniform_tensor([inst.output.0], lo, hi);
                t.data().iter().map(|&v| Fixed16::from_f32(v)).collect()
            };
            let epilogue = Epilogue {
                bias: Some(per_channel(-0.5, 0.5)),
                batch_norm: Some((per_channel(0.5, 2.0), per_channel(-0.5, 0.5))),
                relu: i % 2 == 0,
            };
            (
                inst,
                CompiledConv::compile(inst, w, mask, &cfg).with_epilogue(&epilogue),
                x,
                mask.is_some(),
            )
        })
        .collect();
    assert!(layers.iter().any(|l| l.3), "no layer was pruned");

    // Warm-up: grows the thread's lowered input tile.
    let baseline: Vec<_> = layers.iter().map(|(_, layer, x, _)| layer.run(x)).collect();

    for _ in 0..3 {
        for ((inst, layer, x, _), want) in layers.iter().zip(&baseline) {
            ALLOCS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            let got = layer.run(x);
            ARMED.store(false, Ordering::SeqCst);
            let allocs = ALLOCS.load(Ordering::SeqCst);
            let name = &inst.spec.name;
            assert_eq!(
                allocs, 1,
                "{name}: {allocs} heap allocations, want 1 (the output)"
            );
            assert!(
                got == *want,
                "{name}: steady-state result differs from warm-up"
            );
        }
    }
    println!(
        "fused functional conv: {} lite-wide layers x 3 steady-state passes, one allocation per call",
        layers.len()
    );
}
