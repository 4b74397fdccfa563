//! Response cache over the wire: exact-match hits are bitwise-
//! identical to the engine's answer, provenance says `"cache"`, the
//! hit/miss telemetry adds up, and a hot-swap keys the cache away from
//! the old model instead of serving its stale logits.

mod common;

use common::{
    ckpt_bytes, extract_u32s, json_str, poll_stats, post_clip, push_model, q78_clips,
    reference_bits, serve_cfg, ScratchDir,
};
use p3d_infer::http::HttpServer;
use p3d_infer::{content_hash, hash_hex, ModelRegistry};
use p3d_nn::Checkpoint;

#[test]
fn cache_hits_are_bitwise_and_keyed_by_model() {
    let dir = ScratchDir::new("cache-e2e");
    let registry = ModelRegistry::open(&dir.path).expect("registry");
    let a = registry.publish(&ckpt_bytes(95)).expect("publish A");
    let b_bytes = ckpt_bytes(96);
    let b_hash = hash_hex(content_hash(&b_bytes));
    let b_ckpt = Checkpoint::read_from(&mut &b_bytes[..]).expect("parse B");
    let clips = q78_clips(1, 41);
    let ref_a = reference_bits(&a.checkpoint, &clips);
    let ref_b = reference_bits(&b_ckpt, &clips);

    let mut cfg = serve_cfg(64);
    cfg.model_hash = a.hash.clone();
    let server = HttpServer::start_with_models(
        cfg,
        Box::new(common::engine_from(&a.checkpoint, 2)),
        None,
        Some(common::push_config(&dir.path, 2)),
    )
    .expect("bind");
    let addr = server.local_addr();

    // First sighting: a miss, served by the engine.
    let (status, body) = post_clip(addr, &clips[0], "cache-client");
    assert_eq!(status, 200, "{body}");
    assert_ne!(json_str(&body, "backend"), "cache", "first post must miss");
    assert_eq!(extract_u32s(&body, "logits_bits"), ref_a[0]);

    // Replays: hits, bitwise-identical, provenance says so.
    for _ in 0..3 {
        let (status, body) = post_clip(addr, &clips[0], "cache-client");
        assert_eq!(status, 200);
        assert_eq!(
            json_str(&body, "backend"),
            "cache",
            "replay must hit: {body}"
        );
        assert_eq!(json_str(&body, "model_hash"), a.hash);
        assert_eq!(
            extract_u32s(&body, "logits_bits"),
            ref_a[0],
            "cache hit must be bitwise-identical to the engine answer"
        );
    }

    // Swap to B: the same clip must MISS (different model key) and come
    // back with B's logits — a cache that ignored the model hash would
    // serve A's stale answer here.
    let (status, body) = push_model(addr, &b_bytes);
    assert_eq!(status, 202, "{body}");
    poll_stats(addr, 10, "swap to B", |s| {
        json_str(s, "serving_model") == b_hash
    });
    let (status, body) = post_clip(addr, &clips[0], "cache-client");
    assert_eq!(status, 200);
    assert_ne!(
        json_str(&body, "backend"),
        "cache",
        "stale-model hit after swap: {body}"
    );
    assert_eq!(extract_u32s(&body, "logits_bits"), ref_b[0]);
    // And the new model's answer is itself cached.
    let (status, body) = post_clip(addr, &clips[0], "cache-client");
    assert_eq!(status, 200);
    assert_eq!(json_str(&body, "backend"), "cache");
    assert_eq!(json_str(&body, "model_hash"), b_hash);
    assert_eq!(extract_u32s(&body, "logits_bits"), ref_b[0]);

    // Telemetry adds up: 6 posts = 2 misses + 4 hits, 2 live entries
    // (one per model key), and cache hits count as completed requests
    // so the ledger still balances.
    let snap = server.shutdown();
    let (capacity, entries, hits, misses) = snap.cache;
    assert_eq!(capacity, 64);
    assert_eq!(entries, 2, "one entry per (model, clip) key");
    assert_eq!(hits, 4, "cache: {:?}", snap.cache);
    assert_eq!(misses, 2, "cache: {:?}", snap.cache);
    assert_eq!(snap.budget.completed, 6);
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
    assert_eq!(snap.budget.submitted, 6, "budget: {:?}", snap.budget);
}
