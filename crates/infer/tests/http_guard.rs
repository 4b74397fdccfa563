//! Connection-guard and health-state suite.
//!
//! * A client that sends requests but never reads responses must not
//!   pin a handler thread forever: the write stalls once the socket
//!   buffers fill, the configured write timeout fires, the stall is
//!   counted (`stalled_writes`), and the connection is reaped — with
//!   the error budget still balanced.
//! * `GET /healthz` is state-aware: `200 ok` when healthy, `200
//!   degraded` once the budget records quarantines or sentinel trips,
//!   `503 draining` while a hot-swap is parked behind draining
//!   in-flight work.

mod common;

use common::{ckpt_bytes, http_request, post_clip, push_model, q78_clips, serve_cfg, ScratchDir};
use p3d_infer::http::HttpServer;
use p3d_infer::{Fault, FaultPlan, ModelRegistry};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn healthz(addr: std::net::SocketAddr) -> (u16, String) {
    http_request(addr, "GET", "/healthz", &[], b"")
}

/// Floods one keep-alive connection with pipelined `/healthz` requests
/// and never reads a byte back. The server's responses fill the socket
/// buffers, its write blocks, and the write timeout must reap the
/// handler instead of pinning it.
#[test]
fn stalled_reader_is_reaped_and_counted_not_pinned() {
    let dir = ScratchDir::new("stall");
    let registry = ModelRegistry::open(&dir.path).expect("registry");
    let published = registry.publish(&ckpt_bytes(61)).expect("publish");
    let mut cfg = serve_cfg(0);
    cfg.model_hash = published.hash.clone();
    cfg.write_timeout = Duration::from_millis(150);
    let server = HttpServer::start_with_models(
        cfg,
        Box::new(common::engine_from(&published.checkpoint, 2)),
        None,
        Some(common::push_config(&dir.path, 2)),
    )
    .expect("bind");
    let addr = server.local_addr();

    // The stalling client: pipelined requests out, nothing ever read.
    // Its own writes may stall too once the server stops reading, so
    // it writes from a sacrificial thread with its own timeout.
    let stall_stream = TcpStream::connect(addr).expect("connect");
    stall_stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let writer_thread = std::thread::spawn(move || {
        let mut stream = stall_stream;
        let one = b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        for _ in 0..200_000 {
            if stream.write_all(one).is_err() {
                break; // server reaped us or buffers jammed: both fine
            }
        }
        stream // keep the socket open (unread) until the test is done
    });

    // The server must notice the stall within the write timeout (plus
    // scheduling slack), without any help from the client.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = server.snapshot();
        if snap.stalled_writes >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no stalled write detected: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The stall consumed no error-budget entry (healthz never enters
    // admission) and the server still serves fresh connections.
    let (status, body) = healthz(addr);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let clip = &q78_clips(1, 3)[0];
    let (status, _) = post_clip(addr, clip, "after-stall");
    assert_eq!(status, 200, "data plane survives a stalled reader");

    drop(writer_thread.join());
    let snap = server.shutdown();
    assert!(snap.stalled_writes >= 1);
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
}

/// A poison request (panics every attempt) is quarantined — and from
/// then on `/healthz` reports `degraded` while still answering 200.
#[test]
fn healthz_reports_degraded_after_a_quarantine() {
    let mut cfg = serve_cfg(0);
    // Request index 1 is poison: every attempt panics, so retries
    // exhaust and the request is quarantined.
    cfg.chaos = Some(FaultPlan::new().inject(1, Fault::Panic { times: u32::MAX }));
    let ckpt_bytes = ckpt_bytes(62);
    let ckpt = p3d_nn::Checkpoint::read_from(&mut &ckpt_bytes[..]).expect("parse");
    let server =
        HttpServer::start(cfg, Box::new(common::engine_from(&ckpt, 2)), None).expect("bind");
    let addr = server.local_addr();
    let clips = q78_clips(3, 9);

    let (status, body) = healthz(addr);
    assert_eq!((status, body.as_str()), (200, "ok\n"), "healthy at boot");

    let (status, _) = post_clip(addr, &clips[0], "c");
    assert_eq!(status, 200, "index 0 is clean");
    let (status, body) = post_clip(addr, &clips[1], "c");
    assert_eq!(status, 500, "poison request must die typed: {body}");

    let (status, body) = healthz(addr);
    assert_eq!(
        (status, body.as_str()),
        (200, "degraded\n"),
        "quarantine must surface in health state"
    );

    // Degraded is not dead: traffic still flows and the ledger balances.
    let (status, _) = post_clip(addr, &clips[2], "c");
    assert_eq!(status, 200);
    let snap = server.shutdown();
    assert_eq!(snap.budget.quarantined, 1);
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
}

/// While a pushed model waits behind a draining in-flight request, the
/// probe answers `503 draining`; once the swap lands it is `200 ok`
/// again.
#[test]
fn healthz_reports_draining_while_a_swap_waits_for_drain() {
    let dir = ScratchDir::new("draining");
    let registry = ModelRegistry::open(&dir.path).expect("registry");
    let a_bytes = ckpt_bytes(63);
    let a = registry.publish(&a_bytes).expect("publish A");
    let b_bytes = ckpt_bytes(64);
    let b_hash = p3d_infer::hash_hex(p3d_infer::content_hash(&b_bytes));

    let mut cfg = serve_cfg(0);
    cfg.model_hash = a.hash.clone();
    // Every stream request stalls 150 ms inside the worker, so drain
    // rounds are long. A swap parked while submitters are queued rides
    // out at least one such round in the `draining` state; whether a
    // given push lands in that window is a scheduler race, so the test
    // pushes repeatedly (alternating models, so each push is a real
    // swap) until the probe catches it.
    let mut plan = FaultPlan::new();
    for index in 0..1024 {
        plan = plan.inject(index, Fault::Delay { ms: 150 });
    }
    cfg.chaos = Some(plan);
    let server = HttpServer::start_with_models(
        cfg,
        Box::new(common::engine_from(&a.checkpoint, 2)),
        None,
        Some(common::push_config(&dir.path, 2)),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Each attempt: a herd of parallel one-shot posts (so a 150 ms
    // round is in flight), a push raced into the middle *on its own
    // thread*, and a concurrent probe. The push advertises `draining`
    // while it waits for the round to drain, so the probe must catch
    // 503 before the push response even comes back. Whether a given
    // push lands while the herd's round holds the engine is a
    // lock-acquisition race, so attempts repeat.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut flip = true;
    let mut saw_draining = false;
    'attempt: while Instant::now() < deadline {
        let herd: Vec<_> = (0..12)
            .map(|worker| {
                let clip = q78_clips(1, 70 + worker).pop().unwrap();
                std::thread::spawn(move || post_clip(addr, &clip, &format!("herd-{worker}")).0)
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let bytes = if flip {
            b_bytes.clone()
        } else {
            a_bytes.clone()
        };
        flip = !flip;
        let push = std::thread::spawn(move || push_model(addr, &bytes));
        // Probe while the push is in flight — that window IS the drain.
        while !push.is_finished() {
            let (status, body) = healthz(addr);
            if (status, body.as_str()) == (503, "draining\n") {
                saw_draining = true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let (status, body) = push.join().expect("push client");
        assert!(
            status == 202 || status == 200 || status == 409,
            "unexpected push answer {status}: {body}"
        );
        for post in herd {
            let status = post.join().expect("herd client");
            assert_eq!(status, 200, "draining never drops an in-flight request");
        }
        if saw_draining {
            break 'attempt;
        }
    }
    assert!(saw_draining, "no push was ever observed draining");

    // The swap lands once the drain completes; health returns to ok.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = healthz(addr);
        if (status, body.as_str()) == (200, "ok\n") {
            break;
        }
        assert!(Instant::now() < deadline, "stuck at {status} {body:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let snap = server.shutdown();
    assert!(
        snap.serving_model == a.hash || snap.serving_model == b_hash,
        "serving an unknown model {}",
        snap.serving_model
    );
    assert!(snap.swap.swaps >= 1, "at least one swap drained: {snap:?}");
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
}
