//! Hot-swap atomicity under concurrent wire load.
//!
//! The acceptance bar for the swap protocol: while clients hammer
//! `/v1/infer`, repeated model pushes must (a) drop or duplicate
//! nothing — every request gets exactly one `200`, (b) keep every
//! response bitwise-correct *for the model it claims served it* (the
//! `model_hash` provenance field), and (c) reject corrupt pushes with
//! the incumbent never wobbling.

mod common;

use common::{
    ckpt_bytes, extract_u32s, json_str, post_clip, push_model, push_until_accepted, q78_clips,
    reference_bits, serve_cfg, ScratchDir,
};
use p3d_infer::http::HttpServer;
use p3d_infer::{content_hash, hash_hex, ModelRegistry};
use p3d_nn::Checkpoint;
use std::time::Duration;

#[test]
fn hot_swap_under_load_drops_nothing_and_stays_bitwise() {
    let dir = ScratchDir::new("swap-load");
    let registry = ModelRegistry::open(&dir.path).expect("registry");
    let a_bytes = ckpt_bytes(81);
    let b_bytes = ckpt_bytes(82);
    let a = registry.publish(&a_bytes).expect("publish A");
    let b_hash = hash_hex(content_hash(&b_bytes));
    let b_ckpt = Checkpoint::read_from(&mut &b_bytes[..]).expect("parse B");

    // In-process bitwise references for both models over the clip set.
    let clips = q78_clips(6, 21);
    let ref_a = reference_bits(&a.checkpoint, &clips);
    let ref_b = reference_bits(&b_ckpt, &clips);

    let mut cfg = serve_cfg(0);
    cfg.model_hash = a.hash.clone();
    let server = HttpServer::start_with_models(
        cfg,
        Box::new(common::engine_from(&a.checkpoint, 2)),
        None,
        Some(common::push_config(&dir.path, 2)),
    )
    .expect("bind");
    let addr = server.local_addr();

    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 25;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let clips = clips.clone();
            let ref_a = ref_a.clone();
            let ref_b = ref_b.clone();
            let a_hash = a.hash.clone();
            let b_hash = b_hash.clone();
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let j = (c + i) % clips.len();
                    let (status, body) = post_clip(addr, &clips[j], &format!("load-{c}"));
                    assert_eq!(status, 200, "request dropped mid-swap: {body}");
                    let hash = json_str(&body, "model_hash");
                    let bits = extract_u32s(&body, "logits_bits");
                    // Whichever model a response claims, its logits must
                    // be bitwise-identical to that model's reference —
                    // a torn swap would mix weights and fail here.
                    let expect = if hash == a_hash {
                        &ref_a[j]
                    } else if hash == b_hash {
                        &ref_b[j]
                    } else {
                        panic!("response from unknown model {hash}");
                    };
                    assert_eq!(&bits, expect, "bitwise drift for clip {j} on {hash}");
                }
                PER_CLIENT
            })
        })
        .collect();

    // Race three swaps into the middle of the load: A→B, B→A, A→B.
    for bytes in [&b_bytes, &a_bytes, &b_bytes] {
        std::thread::sleep(Duration::from_millis(40));
        push_until_accepted(addr, bytes);
    }

    let total: usize = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .sum();
    assert_eq!(total, CLIENTS * PER_CLIENT);

    // All three pushes were accepted against a different serving model,
    // so all three must eventually land as completed swaps.
    common::poll_stats(addr, 10, "three swaps", |body| {
        common::json_u64(body, "swaps") >= 3
    });
    let snap = server.shutdown();
    assert!(snap.swap.swaps >= 3, "swaps: {:?}", snap.swap);
    assert_eq!(snap.serving_model, b_hash, "final model is the last push");
    // Exactly-once: the budget completed precisely one entry per post.
    assert_eq!(
        snap.budget.completed, total as u64,
        "budget: {:?}",
        snap.budget
    );
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
}

#[test]
fn corrupt_push_is_quarantined_while_serving_continues() {
    let dir = ScratchDir::new("swap-corrupt");
    let registry = ModelRegistry::open(&dir.path).expect("registry");
    let a_bytes = ckpt_bytes(83);
    let a = registry.publish(&a_bytes).expect("publish A");
    let clips = q78_clips(2, 23);
    let ref_a = reference_bits(&a.checkpoint, &clips);

    let mut cfg = serve_cfg(0);
    cfg.model_hash = a.hash.clone();
    let server = HttpServer::start_with_models(
        cfg,
        Box::new(common::engine_from(&a.checkpoint, 2)),
        None,
        Some(common::push_config(&dir.path, 2)),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Garbage and a truncation of the live model: both must die typed.
    let (status, body) = push_model(addr, b"this is not a checkpoint");
    assert_eq!(status, 422, "garbage accepted: {body}");
    assert!(body.contains("rejected"), "untyped rejection: {body}");
    let (status, body) = push_model(addr, &a_bytes[..a_bytes.len() / 2]);
    assert_eq!(status, 422, "truncation accepted: {body}");

    // Both rejects are quarantined in the registry for forensics.
    let reopened = ModelRegistry::open(&dir.path).expect("reopen");
    assert_eq!(reopened.rejected().expect("rejected").len(), 2);
    assert_eq!(
        reopened.list().expect("list").len(),
        1,
        "only A is servable"
    );

    // The incumbent never wobbled: health ok, responses bitwise A.
    let (status, body) = common::http_request(addr, "GET", "/healthz", &[], b"");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    for (j, clip) in clips.iter().enumerate() {
        let (status, body) = post_clip(addr, clip, "post-corrupt");
        assert_eq!(status, 200);
        assert_eq!(json_str(&body, "model_hash"), a.hash);
        assert_eq!(extract_u32s(&body, "logits_bits"), ref_a[j]);
    }

    let snap = server.shutdown();
    assert_eq!(snap.swap.models_rejected, 2, "swap: {:?}", snap.swap);
    assert_eq!(snap.swap.swaps, 0);
    assert_eq!(snap.serving_model, a.hash);
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
}
