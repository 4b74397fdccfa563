//! Determinism under load: batched engine outputs must be bitwise
//! identical across thread counts, batch sizes, and replica counts, and
//! identical to per-clip sequential `forward` calls.

use p3d_core::PrunedModel;
use p3d_fpga::config::{AcceleratorConfig, Ports, Tiling};
use p3d_fpga::sim::QuantizedNetwork;
use p3d_infer::{BatchScheduler, F32Engine, InferenceEngine, SimEngine};
use p3d_models::{build_network, r2plus1d_micro};
use p3d_nn::{Layer, Mode};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{Tensor, TensorRng};
use std::sync::Mutex;

/// Serialises tests that mutate the process-wide thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 33;

fn micro_cfg() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(4, 4, 2, 4, 4),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

fn micro_clips(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed(seed);
    (0..n)
        .map(|_| rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0))
        .collect()
}

/// Exact f32 bit patterns, for bitwise (not approximate) comparison.
fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn f32_engine_bitwise_identical_across_threads_and_matches_forward() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let spec = r2plus1d_micro(4);
    let clips = micro_clips(9, 7);

    // Reference: plain per-clip forward(Eval), serial.
    set_thread_override(Some(1));
    let mut net = build_network(&spec, SEED);
    let reference: Vec<Vec<u32>> = clips
        .iter()
        .map(|c| {
            let batch = c.reshape([1, 1, 6, 16, 16]);
            bits(net.forward(&batch, Mode::Eval).data())
        })
        .collect();

    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        // Replica count independent of thread count on purpose: the
        // clip-to-replica assignment must not matter.
        let mut engine = F32Engine::new(3, || build_network(&spec, SEED));
        let out = engine.infer_batch(&clips);
        for (i, (want, got)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(
                want,
                &bits(&got.logits),
                "clip {i} diverged at {threads} threads"
            );
        }
    }
    set_thread_override(None);
}

#[test]
fn sim_engine_bitwise_identical_across_threads_and_matches_forward() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let spec = r2plus1d_micro(4);
    let clips = micro_clips(6, 8);
    let mut net = build_network(&spec, SEED);
    let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());

    set_thread_override(Some(1));
    let reference: Vec<(Vec<u32>, usize)> = clips
        .iter()
        .map(|c| {
            let o = q.forward(c, &PrunedModel::dense());
            (bits(&o.logits), o.prediction)
        })
        .collect();

    let sim_engine = || {
        let mut net = build_network(&spec, SEED);
        let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
        SimEngine::new(q, PrunedModel::dense())
    };
    // Built at one thread, so it keeps one worker when later runs raise
    // the thread count: the worker set is fixed at construction.
    let mut one_worker = sim_engine();
    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        let mut engine = sim_engine();
        for (label, out) in [
            ("built here", engine.infer_batch(&clips)),
            ("built at 1 thread", one_worker.infer_batch(&clips)),
        ] {
            for (i, ((want_bits, want_pred), got)) in reference.iter().zip(&out).enumerate() {
                assert_eq!(
                    want_bits,
                    &bits(&got.logits),
                    "clip {i} diverged at {threads} threads ({label})"
                );
                assert_eq!(*want_pred, got.prediction, "clip {i} prediction ({label})");
            }
        }
    }
    set_thread_override(None);
}

#[test]
fn batch_size_does_not_change_results() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_thread_override(Some(2));
    let spec = r2plus1d_micro(4);
    let clips = micro_clips(7, 9);

    let run = |max_batch: usize| {
        let mut engine = F32Engine::new(2, || build_network(&spec, SEED));
        let mut sched = BatchScheduler::new(max_batch);
        for c in &clips {
            sched.submit(c.clone());
        }
        sched
            .drain(&mut engine)
            .results
            .iter()
            .map(|r| bits(&r.logits))
            .collect::<Vec<_>>()
    };

    let whole = run(16);
    for max_batch in [1usize, 2, 3] {
        assert_eq!(whole, run(max_batch), "batch size {max_batch} diverged");
    }
    set_thread_override(None);
}

#[test]
fn steady_state_batches_do_not_grow_arenas() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_thread_override(Some(1));
    let spec = r2plus1d_micro(4);
    let clips = micro_clips(4, 10);
    let mut engine = F32Engine::new(1, || build_network(&spec, SEED));

    let mut out = engine.infer_batch(&clips); // warm-up sizes the buffers
    let warm = engine.arena_grow_events();
    assert!(warm > 0, "warm-up should allocate arena buffers");
    for _ in 0..3 {
        engine.infer_batch_into(&clips, &mut out);
    }
    assert_eq!(
        engine.arena_grow_events(),
        warm,
        "steady-state batches must not grow or fall back"
    );
    set_thread_override(None);
}
