//! Health-gated canary rollout, end to end over the wire.
//!
//! With a [`CanaryPolicy`] configured, a pushed model serves only a
//! routed fraction of traffic while the incumbent keeps the rest. A
//! candidate that quarantines or trips numeric sentinels is rolled
//! back automatically — the incumbent never stops serving bitwise-
//! correct answers — while a healthy candidate is promoted once its
//! lane has resolved `decide_after` requests.

mod common;

use common::{
    ckpt_bytes, extract_u32s, http_request, json_str, json_u64, poll_stats, post_clip, push_model,
    q78_clips, reference_bits, serve_cfg, ScratchDir,
};
use p3d_infer::http::{EngineFactory, EnginePair, HttpServer};
use p3d_infer::{
    content_hash, hash_hex, CanaryPolicy, ClipResult, InferenceEngine, ModelPushConfig,
    ModelRegistry,
};
use p3d_nn::sentinel::SENTINEL_PREFIX;
use p3d_nn::Checkpoint;
use p3d_tensor::Tensor;
use std::time::{Duration, Instant};

/// An engine that answers its first batch cleanly (the smoke test) and
/// then fails every request with a sentinel-tagged panic — the shape of
/// a model that looks fine on the golden clip but poisons live traffic.
struct PoisonAfterSmoke {
    inner: p3d_infer::F32Engine,
    calls: usize,
}

impl InferenceEngine for PoisonAfterSmoke {
    fn name(&self) -> &str {
        "poison-after-smoke"
    }

    fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
        self.calls += 1;
        if self.calls > 1 {
            panic!("{SENTINEL_PREFIX} poisoned canary candidate");
        }
        self.inner.infer_batch_into(clips, out)
    }
}

/// Factory whose candidates pass the smoke test and then poison — the
/// exact failure mode the canary gate exists to catch.
fn poison_factory() -> EngineFactory {
    Box::new(|pushed: &Checkpoint| -> Result<EnginePair, String> {
        let engine = PoisonAfterSmoke {
            inner: common::engine_from(pushed, 1),
            calls: 0,
        };
        Ok((Box::new(engine) as Box<dyn InferenceEngine + Send>, None))
    })
}

fn canary_push_config(
    dir: &std::path::Path,
    factory: EngineFactory,
    policy: CanaryPolicy,
) -> ModelPushConfig {
    ModelPushConfig {
        registry: ModelRegistry::open(dir).expect("open registry"),
        factory,
        golden: q78_clips(1, 999).pop().unwrap(),
        canary: Some(policy),
    }
}

#[test]
fn poisoned_canary_rolls_back_automatically() {
    let dir = ScratchDir::new("canary-poison");
    let registry = ModelRegistry::open(&dir.path).expect("registry");
    let a = registry.publish(&ckpt_bytes(91)).expect("publish A");
    let b_bytes = ckpt_bytes(92);
    let clips = q78_clips(4, 31);
    let ref_a = reference_bits(&a.checkpoint, &clips);

    let mut cfg = serve_cfg(0);
    cfg.model_hash = a.hash.clone();
    let policy = CanaryPolicy {
        fraction: 0.5,
        decide_after: 3,
        ..CanaryPolicy::default()
    };
    let server = HttpServer::start_with_models(
        cfg,
        Box::new(common::engine_from(&a.checkpoint, 2)),
        None,
        Some(canary_push_config(&dir.path, poison_factory(), policy)),
    )
    .expect("bind");
    let addr = server.local_addr();

    let (status, body) = push_model(addr, &b_bytes);
    assert_eq!(status, 202, "canary push parked: {body}");
    assert!(body.contains("canary started"), "{body}");

    // Drive traffic until the gate fires. Requests routed to the
    // poisoned lane die typed (500, quarantined) — the price of the
    // trial — while incumbent-lane requests stay bitwise-perfect.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut tick = 0usize;
    loop {
        let i = tick % clips.len();
        tick += 1;
        let (status, body) = post_clip(addr, &clips[i], "canary-driver");
        assert!(
            status == 200 || status == 500,
            "unexpected status {status}: {body}"
        );
        if status == 200 && json_str(&body, "model_hash") == a.hash {
            assert_eq!(extract_u32s(&body, "logits_bits"), ref_a[i]);
        }
        let (_, stats) = http_request(addr, "GET", "/stats", &[], b"");
        if json_u64(&stats, "rollbacks") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "gate never fired: {stats}");
    }

    // After rollback the incumbent serves everything, bitwise.
    for (i, clip) in clips.iter().enumerate() {
        let (status, body) = post_clip(addr, clip, "post-rollback");
        assert_eq!(status, 200, "incumbent must keep serving: {body}");
        assert_eq!(json_str(&body, "model_hash"), a.hash);
        assert_eq!(extract_u32s(&body, "logits_bits"), ref_a[i]);
    }
    // The aborted trial left its mark on aggregate health: degraded,
    // but alive and serving.
    let (status, body) = http_request(addr, "GET", "/healthz", &[], b"");
    assert_eq!(
        (status, body.as_str()),
        (200, "degraded\n"),
        "a rollback is a health event"
    );

    let snap = server.shutdown();
    assert_eq!(snap.serving_model, a.hash, "incumbent survived");
    assert_eq!(snap.swap.canaries_started, 1, "swap: {:?}", snap.swap);
    assert_eq!(snap.swap.rollbacks, 1);
    assert_eq!(snap.swap.promotions, 0);
    assert_eq!(snap.swap.swaps, 0, "a rollback is not a swap");
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
}

#[test]
fn healthy_canary_promotes_and_serves_bitwise() {
    let dir = ScratchDir::new("canary-promote");
    let registry = ModelRegistry::open(&dir.path).expect("registry");
    let a = registry.publish(&ckpt_bytes(93)).expect("publish A");
    let b_bytes = ckpt_bytes(94);
    let b_hash = hash_hex(content_hash(&b_bytes));
    let b_ckpt = Checkpoint::read_from(&mut &b_bytes[..]).expect("parse B");
    let clips = q78_clips(4, 33);
    let ref_a = reference_bits(&a.checkpoint, &clips);
    let ref_b = reference_bits(&b_ckpt, &clips);

    let mut cfg = serve_cfg(0);
    cfg.model_hash = a.hash.clone();
    // Latency policy neutralised: this test pins the promote-on-health
    // path; the p99 gate has its own unit tests and CI jitter must not
    // indict a healthy candidate here.
    let policy = CanaryPolicy {
        fraction: 0.5,
        decide_after: 4,
        p99_blowout: 1e9,
        ..CanaryPolicy::default()
    };
    let server = HttpServer::start_with_models(
        cfg,
        Box::new(common::engine_from(&a.checkpoint, 2)),
        None,
        Some(canary_push_config(
            &dir.path,
            common::micro_factory(2),
            policy,
        )),
    )
    .expect("bind");
    let addr = server.local_addr();

    let (status, body) = push_model(addr, &b_bytes);
    assert_eq!(status, 202, "canary push parked: {body}");

    // During the trial every response is 200 and bitwise for whichever
    // lane served it — provenance decides which reference applies.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut i = 0usize;
    loop {
        let j = i % clips.len();
        i += 1;
        let (status, body) = post_clip(addr, &clips[j], "promote-driver");
        assert_eq!(status, 200, "healthy trial must not fail requests: {body}");
        let hash = json_str(&body, "model_hash");
        let bits = extract_u32s(&body, "logits_bits");
        if hash == a.hash {
            assert_eq!(bits, ref_a[j]);
        } else if hash == b_hash {
            assert_eq!(bits, ref_b[j]);
        } else {
            panic!("response from unknown model {hash}");
        }
        let (_, stats) = http_request(addr, "GET", "/stats", &[], b"");
        if json_u64(&stats, "promotions") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "never promoted: {stats}");
    }
    poll_stats(addr, 10, "candidate serving", |s| {
        json_str(s, "serving_model") == b_hash
    });

    // Post-promotion, the candidate owns all traffic.
    for (j, clip) in clips.iter().enumerate() {
        let (status, body) = post_clip(addr, clip, "post-promote");
        assert_eq!(status, 200);
        assert_eq!(json_str(&body, "model_hash"), b_hash);
        assert_eq!(extract_u32s(&body, "logits_bits"), ref_b[j]);
    }
    // A clean promotion is not a health event.
    let (status, body) = http_request(addr, "GET", "/healthz", &[], b"");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let snap = server.shutdown();
    assert_eq!(snap.serving_model, b_hash);
    assert_eq!(snap.swap.canaries_started, 1, "swap: {:?}", snap.swap);
    assert_eq!(snap.swap.promotions, 1);
    assert_eq!(snap.swap.rollbacks, 0);
    assert_eq!(snap.swap.swaps, 1, "a promotion completes a swap");
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
}
