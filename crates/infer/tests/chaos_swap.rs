//! Swap-storm chaos: a deterministic schedule of rapid hot-swaps and
//! corrupt pushes, raced against wire traffic that is itself under
//! fault injection (transient worker panics and stalls).
//!
//! Invariants under the storm:
//! * exactly-once — every data-plane request resolves to exactly one
//!   response and the error budget's partition identity holds;
//! * non-faulted responses are bitwise-identical to the in-process
//!   reference of whichever model their provenance names;
//! * corrupt pushes are rejected typed and never interrupt serving.

mod common;

use common::{
    ckpt_bytes, extract_u32s, json_str, post_clip, push_model, push_until_accepted, q78_clips,
    reference_bits, serve_cfg, ScratchDir,
};
use p3d_infer::http::HttpServer;
use p3d_infer::{content_hash, hash_hex, swap_storm, Fault, FaultPlan, ModelRegistry, SwapAction};
use p3d_nn::Checkpoint;
use std::collections::HashMap;
use std::time::Duration;

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 20;

#[test]
fn swap_storm_under_injected_faults_keeps_serving_exactly_once() {
    let dir = ScratchDir::new("chaos-storm");
    let registry = ModelRegistry::open(&dir.path).expect("registry");

    // Roster of three interchangeable models; index 0 boots the server.
    let roster_bytes: Vec<Vec<u8>> = (0..3).map(|i| ckpt_bytes(101 + i)).collect();
    let first = registry.publish(&roster_bytes[0]).expect("seed model");
    let clips = q78_clips(4, 51);
    let mut refs: HashMap<String, Vec<Vec<u32>>> = HashMap::new();
    for bytes in &roster_bytes {
        let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("parse roster model");
        refs.insert(hash_hex(content_hash(bytes)), reference_bits(&ckpt, &clips));
    }

    // Data-plane fault injection: sprinkle transient panics (request
    // succeeds on retry) and worker stalls across the request index
    // space. No poison and no bit flips: every request must still end
    // 200 and bitwise-comparable.
    let mut plan = FaultPlan::new();
    for index in 0..(CLIENTS * PER_CLIENT) {
        if index % 7 == 0 {
            plan = plan.inject(index, Fault::Panic { times: 1 });
        } else if index % 5 == 3 {
            plan = plan.inject(index, Fault::Delay { ms: 5 });
        }
    }
    let mut cfg = serve_cfg(0);
    cfg.model_hash = first.hash.clone();
    cfg.chaos = Some(plan);
    let server = HttpServer::start_with_models(
        cfg,
        Box::new(common::engine_from(&first.checkpoint, 2)),
        None,
        Some(common::push_config(&dir.path, 2)),
    )
    .expect("bind");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let clips = clips.clone();
            let refs = refs.clone();
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let j = (c + i) % clips.len();
                    let (status, body) = post_clip(addr, &clips[j], &format!("storm-{c}"));
                    assert_eq!(status, 200, "request lost in the storm: {body}");
                    let hash = json_str(&body, "model_hash");
                    let reference = refs
                        .get(&hash)
                        .unwrap_or_else(|| panic!("provenance names unknown model {hash}"));
                    assert_eq!(
                        extract_u32s(&body, "logits_bits"),
                        reference[j],
                        "bitwise drift on {hash} clip {j}"
                    );
                }
                PER_CLIENT
            })
        })
        .collect();

    // The deterministic storm: same seed, same schedule, replayable.
    let storm = swap_storm(7, 12, roster_bytes.len(), 0.25);
    let mut corrupt_pushes = 0u64;
    for (i, action) in storm.iter().enumerate() {
        std::thread::sleep(Duration::from_millis(15));
        match action {
            SwapAction::Swap { model } => {
                push_until_accepted(addr, &roster_bytes[*model]);
            }
            SwapAction::PushCorrupt => {
                // Deterministically corrupt: truncate a roster model at
                // a schedule-dependent offset (always mid-record).
                let src = &roster_bytes[i % roster_bytes.len()];
                let cut = src.len() / 2 + i;
                let (status, body) = push_model(addr, &src[..cut.min(src.len() - 1)]);
                assert_eq!(status, 422, "corrupt push accepted: {body}");
                corrupt_pushes += 1;
            }
        }
    }
    assert!(corrupt_pushes > 0, "storm schedule must include corruption");

    let total: usize = clients
        .into_iter()
        .map(|c| c.join().expect("storm client"))
        .sum();
    assert_eq!(total, CLIENTS * PER_CLIENT);

    let snap = server.shutdown();
    // Exactly-once under faults: one completion per post, no losses, no
    // duplicates, partition identity intact, nothing quarantined (all
    // injected panics were transient).
    assert_eq!(
        snap.budget.completed, total as u64,
        "budget: {:?}",
        snap.budget
    );
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
    assert_eq!(snap.budget.quarantined, 0, "budget: {:?}", snap.budget);
    assert!(snap.budget.retries > 0, "chaos must have actually fired");
    assert!(
        snap.swap.swaps >= 2,
        "storm produced swaps: {:?}",
        snap.swap
    );
    assert_eq!(
        snap.swap.models_rejected, corrupt_pushes,
        "swap: {:?}",
        snap.swap
    );
    assert!(
        refs.contains_key(&snap.serving_model),
        "storm must end on a roster model, got {}",
        snap.serving_model
    );
}
