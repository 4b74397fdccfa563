//! Deterministic fault-injection suite for the resilient serving layer.
//!
//! Every test drives a [`ResilientServer`] with a seeded [`FaultPlan`]
//! and asserts the serving invariants under chaos:
//!
//! * **Exactly-once resolution** — each submitted index appears in the
//!   responses exactly once, as a success, a typed rejection, or a
//!   quarantine, and the [`p3d_infer::ErrorBudget`] partitions balance.
//! * **Blast-radius isolation** — a worker killed mid-batch faults only
//!   its own request; every non-faulted response is **bitwise
//!   identical** to a fault-free run at any thread count.
//! * **Graceful degradation** — a saturation-stormed clip is re-served
//!   by the f32 fallback, with provenance recorded.
//! * **Bounded drain** — poison requests quarantine instead of looping.

use p3d_core::PrunedModel;
use p3d_fpga::config::{AcceleratorConfig, Ports, Tiling};
use p3d_fpga::sim::QuantizedNetwork;
use p3d_infer::{
    install_quiet_panic_hook, Fault, FaultMix, FaultPlan, F32Engine, InferError, InferenceEngine,
    Request, ResilientRun, ResilientServer, ServerConfig, SimEngine,
};
use p3d_models::{build_network, r2plus1d_micro};
use p3d_nn::{Conv3d, GlobalAvgPool, Linear, Relu, Sequential};
use p3d_tensor::parallel::set_thread_override;
use p3d_tensor::{Tensor, TensorRng};
use std::sync::Mutex;
use std::time::Duration;

/// Serialises tests that mutate the process-wide thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// A small but real network: one spatial conv, relu, pooling, classifier.
fn tiny_net() -> Sequential {
    let mut rng = TensorRng::seed(42);
    Sequential::new()
        .push(Conv3d::new("c", 4, 1, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng))
        .push(Relu::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new("fc", 3, 4, true, &mut rng))
}

fn tiny_clips(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed(seed);
    (0..n)
        .map(|_| rng.uniform_tensor([1, 4, 8, 8], -1.0, 1.0))
        .collect()
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|x| x.to_bits()).collect()
}

/// Fault-free reference responses for `clips` (same engine build).
fn baseline(clips: &[Tensor]) -> Vec<Vec<u32>> {
    let mut engine = F32Engine::new(4, tiny_net);
    engine
        .infer_batch(clips)
        .iter()
        .map(|r| bits(&r.logits))
        .collect()
}

/// Asserts the exactly-once invariant: one response per index, dense.
fn assert_exactly_once(run: &ResilientRun, n: usize) {
    assert_eq!(run.responses.len(), n, "one response per submission");
    for (i, r) in run.responses.iter().enumerate() {
        assert_eq!(r.index, i, "responses must be dense and sorted");
    }
    assert!(
        run.budget.balanced(),
        "error budget must partition: {:?}",
        run.budget
    );
    // The partition balances by construction; the count of requests
    // sent is what catches a dropped or double-counted one.
    assert_eq!(run.budget.submitted, n as u64, "{:?}", run.budget);
}

#[test]
fn seeded_chaos_mix_resolves_every_request_exactly_once() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_panic_hook();
    set_thread_override(Some(4));

    const N: usize = 220;
    let clips = tiny_clips(N, 5);
    let reference = baseline(&clips);
    let plan = FaultPlan::seeded_mix(1234, N, &FaultMix::default());
    assert!(plan.len() > 15, "mix injected too few faults: {}", plan.len());

    // Count scheduled fault classes for budget cross-checks.
    let mut poison = 0u64;
    let mut transient = 0u64;
    for idx in 0..N {
        for f in plan.faults_at(idx) {
            match f {
                Fault::Panic { times: u32::MAX } => poison += 1,
                Fault::Panic { .. } => transient += 1,
                _ => {}
            }
        }
    }
    assert!(poison >= 1, "seed must schedule at least one poison fault");
    assert!(transient >= 1, "seed must schedule a transient fault");

    let mut server = ResilientServer::new(ServerConfig {
        capacity: N,
        max_batch: 16,
        expected_shape: Some([1, 4, 8, 8]),
        backoff_base_ms: 0,
        seed: 9,
        ..ServerConfig::default()
    });
    for (i, clip) in clips.iter().enumerate() {
        // Input faults (bit flips, storms) corrupt the clip *before*
        // submission; corrupted clips may bounce off validation.
        let mut c = clip.clone();
        plan.corrupt_input(i, &mut c);
        let _ = server.submit_clip(c);
    }
    let mut engine = F32Engine::new(4, tiny_net);
    let run = server.drain(&mut engine, None, Some(&plan));

    assert_exactly_once(&run, N);
    assert_eq!(run.budget.quarantined, poison, "every poison quarantines");
    assert!(
        run.budget.retries >= transient,
        "transient panics must be retried: {:?}",
        run.budget
    );
    assert!(
        run.budget.worker_restarts >= poison + transient,
        "every caught panic must restart its worker: {:?}",
        run.budget
    );

    for (i, r) in run.responses.iter().enumerate() {
        if plan.is_faulted(i) {
            // Faulted requests may succeed (after retry / with corrupted
            // input), be rejected by validation, or quarantine — but
            // always with a typed outcome.
            if let Err(e) = &r.outcome {
                assert!(
                    matches!(
                        e,
                        InferError::Quarantined { .. } | InferError::NonFinite { .. }
                    ),
                    "unexpected error for faulted request {i}: {e}"
                );
            }
        } else {
            let res = r.outcome.as_ref().unwrap_or_else(|e| {
                panic!("non-faulted request {i} failed: {e}");
            });
            assert_eq!(r.attempts, 1, "non-faulted request {i} retried");
            assert!(!r.fell_back);
            assert_eq!(
                bits(&res.logits),
                reference[i],
                "request {i} not bitwise identical under chaos"
            );
        }
    }
    set_thread_override(None);
}

#[test]
fn killed_worker_mid_batch_faults_only_its_own_request() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_panic_hook();
    set_thread_override(Some(4));

    const N: usize = 12;
    const POISONED: usize = 5;
    let clips = tiny_clips(N, 6);
    let reference = baseline(&clips);

    let cfg = ServerConfig {
        max_batch: N,
        backoff_base_ms: 0,
        ..ServerConfig::default()
    };
    let plan = FaultPlan::new().inject(POISONED, Fault::Panic { times: u32::MAX });
    let mut server = ResilientServer::new(cfg.clone());
    for clip in &clips {
        server.submit_clip(clip.clone()).unwrap();
    }
    let mut engine = F32Engine::new(3, tiny_net);
    let run = server.drain(&mut engine, None, Some(&plan));

    assert_exactly_once(&run, N);
    match &run.responses[POISONED].outcome {
        Err(InferError::Quarantined {
            attempts,
            workers_killed,
            ..
        }) => {
            assert_eq!(*workers_killed, 2, "poison must stop after 2 kills");
            assert_eq!(*attempts, 2);
        }
        other => panic!("poison request resolved as {other:?}"),
    }
    assert_eq!(run.budget.quarantined, 1);
    assert!(run.budget.worker_restarts >= 2);
    for (i, r) in run.responses.iter().enumerate() {
        if i == POISONED {
            continue;
        }
        let res = r.outcome.as_ref().expect("healthy request failed");
        assert_eq!(
            bits(&res.logits),
            reference[i],
            "request {i} changed after a neighbour killed its worker"
        );
    }

    // Transient variant: one retry, then every response matches.
    let plan = FaultPlan::new().inject(POISONED, Fault::Panic { times: 1 });
    let mut server = ResilientServer::new(cfg);
    for clip in &clips {
        server.submit_clip(clip.clone()).unwrap();
    }
    let run = server.drain(&mut engine, None, Some(&plan));
    assert_exactly_once(&run, N);
    assert_eq!(run.budget.retries, 1);
    assert_eq!(run.budget.quarantined, 0);
    for (i, r) in run.responses.iter().enumerate() {
        let res = r.outcome.as_ref().expect("all requests must succeed");
        assert_eq!(r.attempts, if i == POISONED { 2 } else { 1 });
        assert_eq!(
            bits(&res.logits),
            reference[i],
            "request {i} not bitwise identical after retry"
        );
    }
    set_thread_override(None);
}

fn micro_cfg() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(4, 4, 2, 4, 4),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

#[test]
fn saturation_storm_degrades_sim_request_to_f32_fallback() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_panic_hook();
    set_thread_override(Some(2));

    const SEED: u64 = 33;
    let spec = r2plus1d_micro(4);
    let mut rng = TensorRng::seed(3);
    let clips: Vec<Tensor> = (0..4)
        .map(|_| rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0))
        .collect();
    const STORMED: usize = 1;
    let plan = FaultPlan::new().inject(STORMED, Fault::SaturationStorm { gain: 1000.0 });

    let mut net = build_network(&spec, SEED);
    let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
    let mut primary = SimEngine::new(q, PrunedModel::dense());
    let mut fallback = F32Engine::new(2, || build_network(&spec, SEED));

    let mut server = ResilientServer::new(ServerConfig {
        backoff_base_ms: 0,
        ..ServerConfig::default()
    });
    for (i, clip) in clips.iter().enumerate() {
        let mut c = clip.clone();
        plan.corrupt_input(i, &mut c);
        server.submit_clip(c).unwrap();
    }
    let run = server.drain(&mut primary, Some(&mut fallback), Some(&plan));

    assert_exactly_once(&run, clips.len());
    let stormed = &run.responses[STORMED];
    assert!(stormed.outcome.is_ok(), "degraded request must be served");
    assert!(stormed.fell_back, "storm must trip the fallback path");
    assert_eq!(stormed.backend, "f32");
    assert!(
        stormed.saturation > server.config().saturation_threshold,
        "recorded saturation {} not anomalous",
        stormed.saturation
    );
    assert_eq!(run.budget.fallbacks, 1);
    for (i, r) in run.responses.iter().enumerate() {
        if i == STORMED {
            continue;
        }
        assert!(!r.fell_back, "calm request {i} must stay on the sim");
        assert_eq!(r.backend, "sim");
        assert!(r.saturation <= server.config().saturation_threshold);
    }
    set_thread_override(None);
}

/// Activation sentinels default on only under `debug_assertions`; the
/// release profile opts in via `P3D_SENTINELS=1` instead.
#[cfg(debug_assertions)]
#[test]
fn sentinel_trip_degrades_to_fallback_with_provenance() {
    use p3d_nn::Layer;

    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_panic_hook();
    set_thread_override(Some(2));

    // A primary whose conv weights contain a NaN: validation cannot see
    // it (inputs are finite), but the mid-network sentinel trips.
    let poisoned = || {
        let mut net = tiny_net();
        net.visit_params(&mut |p| {
            if p.name.contains("c.") || p.name.contains("weight") {
                p.value.data_mut()[0] = f32::NAN;
            }
        });
        net
    };
    let mut primary = F32Engine::new(2, poisoned);
    let mut fallback = F32Engine::new(2, tiny_net);
    let clips = tiny_clips(3, 8);
    let reference = baseline(&clips);

    let mut server = ResilientServer::new(ServerConfig {
        backoff_base_ms: 0,
        ..ServerConfig::default()
    });
    for clip in &clips {
        server.submit_clip(clip.clone()).unwrap();
    }
    let run = server.drain(&mut primary, Some(&mut fallback), None);

    assert_exactly_once(&run, clips.len());
    assert_eq!(run.budget.sentinel_trips, clips.len() as u64);
    assert_eq!(run.budget.fallbacks, clips.len() as u64);
    assert_eq!(run.budget.retries, 0, "sentinel trips degrade, not retry");
    for (i, r) in run.responses.iter().enumerate() {
        let res = r.outcome.as_ref().expect("fallback must serve");
        assert!(r.fell_back);
        assert_eq!(r.backend, "f32");
        assert_eq!(bits(&res.logits), reference[i]);
    }

    // Without a fallback the same trips quarantine instead of looping.
    let mut server = ResilientServer::new(ServerConfig {
        backoff_base_ms: 0,
        ..ServerConfig::default()
    });
    server.submit_clip(clips[0].clone()).unwrap();
    let run = server.drain(&mut primary, None, None);
    assert_exactly_once(&run, 1);
    assert!(matches!(
        run.responses[0].outcome,
        Err(InferError::Quarantined { .. })
    ));
    set_thread_override(None);
}

#[test]
fn stalled_worker_trips_deadlines_for_queued_requests() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_panic_hook();
    set_thread_override(Some(1));

    let clips = tiny_clips(3, 9);
    // One request per batch, so the injected 60 ms stall on request 0
    // holds the line while requests 1 and 2 age past their deadline.
    let plan = FaultPlan::new().inject(0, Fault::Delay { ms: 60 });
    let mut server = ResilientServer::new(ServerConfig {
        max_batch: 1,
        default_deadline: Some(Duration::from_millis(20)),
        backoff_base_ms: 0,
        ..ServerConfig::default()
    });
    for clip in &clips {
        server.submit(Request::new(clip.clone())).unwrap();
    }
    let mut engine = F32Engine::new(1, tiny_net);
    let run = server.drain(&mut engine, None, Some(&plan));

    assert_exactly_once(&run, 3);
    let first = &run.responses[0];
    assert!(first.outcome.is_ok(), "stalled request still completes");
    assert!(
        first.deadline_missed,
        "a 60 ms stall must blow the 20 ms deadline"
    );
    for r in &run.responses[1..] {
        assert!(
            matches!(r.outcome, Err(InferError::DeadlineExpired)),
            "queued request {} should have expired, got {:?}",
            r.index,
            r.outcome
        );
    }
    assert_eq!(run.budget.deadline_expired, 2);
    assert_eq!(run.budget.deadline_missed, 1);
    assert!(run.budget.balanced(), "{:?}", run.budget);
    assert_eq!(run.budget.submitted, 3, "{:?}", run.budget);
    set_thread_override(None);
}
