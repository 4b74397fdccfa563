//! Counts heap allocations in the steady-state functional Q7.8 conv.
//!
//! Once a warm-up pass has grown the per-thread kernel scratch (the
//! lowered input tile and the block rows' tile-row lists) and the
//! caller's weight-panel buffer to the largest layer, each
//! [`run_conv_functional_with_scratch`] call on the lite-wide layers,
//! block-pruned at the paper's stage ratios, must allocate exactly once:
//! for the output tensor it returns.
//!
//! The counting allocator is process-global, so this file runs without
//! the libtest harness (`harness = false`).

use p3d_core::{magnitude_block_prune, targets_for_stages, BlockShape, KeepRule};
use p3d_fpga::sim::run_conv_functional_with_scratch;
use p3d_fpga::{AcceleratorConfig, Ports, Tiling};
use p3d_models::{build_network, r2plus1d_lite_wide};
use p3d_nn::Layer;
use p3d_tensor::{FixedTensor, TensorRng};
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
        .map(|inst| {
            let name = format!("{}.weight", inst.spec.name);
            let (_, w) = weights
                .iter()
                .find(|(n, _)| *n == name)
                .expect("every conv has a weight");
            let (n, d, h, wd) = inst.input;
            let x = FixedTensor::quantize(&rng.uniform_tensor([n, d, h, wd], 0.0, 1.0));
            (inst, w, x, pruned.mask(&inst.spec.name))
        })
        .collect();
    assert!(layers.iter().any(|l| l.3.is_some()), "no layer was pruned");

    // Warm-up: grows the thread's kernel scratch and the panel buffer.
    let mut panel = Vec::new();
    let baseline: Vec<_> = layers
        .iter()
        .map(|(inst, w, x, mask)| {
            run_conv_functional_with_scratch(inst, w, x, *mask, &cfg, &mut panel)
        })
        .collect();

    for _ in 0..3 {
        for ((inst, w, x, mask), want) in layers.iter().zip(&baseline) {
            ALLOCS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            let got = run_conv_functional_with_scratch(inst, w, x, *mask, &cfg, &mut panel);
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
        "functional conv: {} lite-wide layers x 3 steady-state passes, one allocation per call",
        layers.len()
    );
}
