//! Wire-protocol fuzz suite for the HTTP serving front door.
//!
//! One live [`HttpServer`] per test absorbs generated malformed
//! traffic — truncated heads, bad/huge/negative Content-Length values,
//! writes split across TCP segments, pipelined garbage, oversized
//! bodies, header floods — and must hold three invariants for every
//! case:
//!
//! * the connection ends with a 4xx/5xx response or a clean close,
//!   never a panic (a panicking handler thread would abort the write
//!   and poison nothing — the liveness probe after each case proves
//!   the server is still answering);
//! * no unbounded allocation: a `Content-Length: 99999999999` answers
//!   413 from header validation alone, the body is never bought;
//! * the error budget stays balanced — wire-level rejects never touch
//!   the admission ledger.

use p3d_infer::{F32Engine, HttpServer, ServeConfig, ServerConfig, WireLimits};
use p3d_nn::{Conv3d, GlobalAvgPool, Linear, Relu, Sequential};
use p3d_tensor::TensorRng;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

/// A small but real network: one spatial conv, relu, pooling, classifier.
fn tiny_net() -> Sequential {
    let mut rng = TensorRng::seed(42);
    Sequential::new()
        .push(Conv3d::new(
            "c",
            4,
            1,
            (1, 3, 3),
            (1, 1, 1),
            (0, 1, 1),
            true,
            &mut rng,
        ))
        .push(Relu::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new("fc", 3, 4, true, &mut rng))
}

/// One shared server for the whole fuzz binary: every case hammers the
/// same instance, so survival is cumulative. Kept alive for the
/// process lifetime (leaked on purpose — test binaries exit anyway).
fn shared_server() -> &'static HttpServer {
    static SERVER: OnceLock<HttpServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let cfg = ServeConfig {
            server: ServerConfig {
                capacity: 64,
                max_batch: 8,
                expected_shape: Some([1, 4, 8, 8]),
                ..ServerConfig::default()
            },
            // Small caps so oversize cases trip without big payloads,
            // and a short timeout so half-open cases resolve fast.
            limits: WireLimits {
                max_head_bytes: 2 * 1024,
                max_body_bytes: 64 * 1024,
            },
            read_timeout: Duration::from_millis(250),
            ..ServeConfig::default()
        };
        HttpServer::start(cfg, Box::new(F32Engine::new(2, tiny_net)), None)
            .expect("bind ephemeral port")
    })
}

/// Writes `payload` in `segments` chunks (separate TCP writes, tiny
/// pauses between them so the server's incremental reader sees real
/// split frames), closes the write side, and reads whatever the server
/// answers until it closes or times out.
fn exchange(payload: &[u8], segments: usize) -> Vec<u8> {
    let server = shared_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let segments = segments.max(1).min(payload.len().max(1));
    let chunk = payload.len().div_ceil(segments).max(1);
    for (i, part) in payload.chunks(chunk).enumerate() {
        // The server may reject and close mid-upload (e.g. an
        // oversized Content-Length dies at the header); a broken pipe
        // here is the rejection arriving early, not a harness failure.
        if stream
            .write_all(part)
            .and_then(|()| stream.flush())
            .is_err()
        {
            break;
        }
        if i + 1 < segments {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

/// The invariant every malformed exchange must satisfy: silence (clean
/// close) or an error status — never a 2xx, never garbage.
fn assert_rejected(case: &str, reply: &[u8]) {
    if reply.is_empty() {
        return; // clean close without a response is allowed
    }
    let head = String::from_utf8_lossy(&reply[..reply.len().min(16)]);
    assert!(
        head.starts_with("HTTP/1.1 4") || head.starts_with("HTTP/1.1 5"),
        "case {case}: expected 4xx/5xx or close, got {head:?}"
    );
}

/// The server must still answer after absorbing a hostile case.
fn assert_alive(case: &str) {
    let reply = exchange(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 1);
    let text = String::from_utf8_lossy(&reply);
    assert!(
        text.starts_with("HTTP/1.1 200") && text.ends_with("ok\n"),
        "case {case}: server no longer healthy: {text:?}"
    );
}

const VALID_POST_HEAD: &str =
    "POST /v1/infer HTTP/1.1\r\nContent-Type: application/x-p3d-f32\r\nX-P3D-Shape: 1,4,8,8\r\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_garbage_never_kills_the_server(
        bytes in prop::collection::vec(0u8..=255, 0..600),
        segments in 1usize..5,
    ) {
        let reply = exchange(&bytes, segments);
        assert_rejected("garbage", &reply);
        assert_alive("garbage");
    }

    #[test]
    fn truncated_heads_close_cleanly(
        cut in 0usize..60,
        segments in 1usize..4,
    ) {
        let head = format!("{VALID_POST_HEAD}Content-Length: 1024\r\n\r\n");
        let cut = cut.min(head.len().saturating_sub(1));
        let reply = exchange(&head.as_bytes()[..cut], segments);
        assert_rejected("truncated head", &reply);
        assert_alive("truncated head");
    }

    #[test]
    fn bad_content_lengths_answer_4xx(
        value in prop::sample::select(vec![
            "-1", "1e9", "0x10", "999999999999999999999999", " 12",
            "12 13", "", "NaN", "18446744073709551616",
        ]),
        segments in 1usize..4,
    ) {
        let req = format!("{VALID_POST_HEAD}Content-Length: {value}\r\n\r\nAAAA");
        let reply = exchange(req.as_bytes(), segments);
        let text = String::from_utf8_lossy(&reply);
        // Most values die as 400/413; a value that *trims* to a valid
        // length (" 12") leaves the body short, and truncation is a
        // silent close by policy.
        assert!(
            text.is_empty()
                || text.starts_with("HTTP/1.1 400")
                || text.starts_with("HTTP/1.1 413"),
            "Content-Length {value:?} answered {text:?}"
        );
        assert_alive("bad content-length");
    }

    #[test]
    fn huge_content_length_is_refused_before_allocation(
        megabytes in 1u64..1_000_000,
    ) {
        // Any declared body over the 64 KiB cap must die at the header
        // stage: the four bytes sent here are all the server ever sees.
        let req = format!(
            "{VALID_POST_HEAD}Content-Length: {}\r\n\r\nAAAA",
            megabytes * 1024 * 1024
        );
        let reply = exchange(req.as_bytes(), 2);
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.starts_with("HTTP/1.1 413"),
            "huge Content-Length answered {text:?}"
        );
        assert_alive("huge content-length");
    }

    #[test]
    fn oversized_real_bodies_are_rejected(
        extra in 1usize..4096,
    ) {
        // A body genuinely larger than the cap, actually transmitted.
        let body = vec![0x41u8; 64 * 1024 + extra];
        let mut req =
            format!("{VALID_POST_HEAD}Content-Length: {}\r\n\r\n", body.len()).into_bytes();
        req.extend_from_slice(&body);
        let reply = exchange(&req, 3);
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.starts_with("HTTP/1.1 413"),
            "oversized body answered {text:?}"
        );
        assert_alive("oversized body");
    }

    #[test]
    fn pipelined_garbage_after_a_valid_request(
        bytes in prop::collection::vec(0u8..=255, 1..200),
        segments in 1usize..4,
    ) {
        let mut req = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
        req.extend_from_slice(&bytes);
        let reply = exchange(&req, segments);
        let text = String::from_utf8_lossy(&reply);
        // The first (valid) request is answered; the trailing garbage
        // either parses as another request (4xx/2xx) or kills framing.
        assert!(
            text.starts_with("HTTP/1.1 200"),
            "valid prefix was not served: {text:?}"
        );
        assert_alive("pipelined garbage");
    }

    #[test]
    fn header_floods_bounce_off_the_head_cap(
        count in 30usize..300,
    ) {
        let mut req = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..count {
            req.push_str(&format!("X-Flood-{i}: {i}\r\n"));
        }
        req.push_str("\r\n");
        let reply = exchange(req.as_bytes(), 2);
        assert_rejected("header flood", &reply);
        assert_alive("header flood");
    }

    #[test]
    fn request_smuggling_framings_are_refused(
        case in prop::sample::select(vec![
            // Two Content-Length headers that disagree: classic CL.CL
            // desync bait. Must die, never pick one silently.
            "Content-Length: 4\r\nContent-Length: 5\r\n",
            // Comma-joined disagreeing values inside one header.
            "Content-Length: 4, 5\r\n",
            // Agreeing duplicates with junk appended to one.
            "Content-Length: 4\r\nContent-Length: 4x\r\n",
            // CL + Transfer-Encoding: the TE.CL desync classic; we
            // implement no transfer codings, so 501 regardless of CL.
            "Content-Length: 4\r\nTransfer-Encoding: chunked\r\n",
            "Transfer-Encoding: identity\r\n",
            "Transfer-Encoding: chunked\r\nContent-Length: 4\r\n",
            // Obfuscated TE header values still name a coding we lack.
            "Transfer-Encoding: chunked, identity\r\n",
        ]),
        segments in 1usize..4,
    ) {
        let req = format!("{VALID_POST_HEAD}{case}\r\nAAAA");
        let reply = exchange(req.as_bytes(), segments);
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.starts_with("HTTP/1.1 400") || text.starts_with("HTTP/1.1 501"),
            "smuggling framing {case:?} answered {text:?}"
        );
        assert_alive("smuggling framing");
    }

    #[test]
    fn agreeing_duplicate_content_lengths_still_frame_one_body(
        segments in 1usize..4,
    ) {
        // Duplicates that agree are legal framing; the body must be
        // consumed exactly once — the follow-up request on the same
        // bytes proves nothing leaked into the next frame.
        let body = vec![0x41u8; 8];
        let mut req = format!(
            "{VALID_POST_HEAD}Content-Length: 8\r\nContent-Length: 8\r\n\r\n"
        )
        .into_bytes();
        req.extend_from_slice(&body);
        req.extend_from_slice(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let reply = exchange(&req, segments);
        let text = String::from_utf8_lossy(&reply);
        // First request: a shape/body-size mismatch (8 bytes vs the
        // declared clip) answered 400; second: the healthz 200 framed
        // exactly after the 8-byte body.
        assert!(
            text.starts_with("HTTP/1.1 400"),
            "first framed request answered {text:?}"
        );
        assert!(
            text.contains("HTTP/1.1 200") && text.ends_with("ok\n"),
            "pipelined follow-up was mis-framed: {text:?}"
        );
        assert_alive("agreeing duplicates");
    }

    #[test]
    fn malformed_vid_bodies_are_typed_rejects(
        corrupt_at in 0usize..32,
        segments in 1usize..4,
    ) {
        // A vid-typed request whose body is not a valid P3DVID1 stream:
        // garbage magic, then a real header corrupted at a random byte.
        let mut body = vec![0u8; 64];
        body[..8].copy_from_slice(b"P3DVID1\0");
        body[corrupt_at] ^= 0x55;
        let req_head = format!(
            "POST /v1/infer HTTP/1.1\r\nContent-Type: application/x-p3d-vid\r\n\
             X-P3D-Shape: 1,4,8,8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let mut req = req_head.into_bytes();
        req.extend_from_slice(&body);
        let reply = exchange(&req, segments);
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.starts_with("HTTP/1.1 400"),
            "corrupt vid body answered {text:?}"
        );
        assert_alive("malformed vid body");
    }

    #[test]
    fn shape_and_type_confusion_is_a_typed_reject(
        shape in prop::sample::select(vec![
            "0,4,8,8", "1,4,8", "1,4,8,8,2", "1,4,8,99999", "a,b,c,d",
            "-1,4,8,8", "", "1,,8,8",
        ]),
        body_words in 1usize..64,
    ) {
        let body = vec![0u8; body_words * 4];
        let mut req = format!(
            "POST /v1/infer HTTP/1.1\r\nContent-Type: application/x-p3d-f32\r\n\
             X-P3D-Shape: {shape}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(&body);
        let reply = exchange(&req, 2);
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.starts_with("HTTP/1.1 400"),
            "shape {shape:?} answered {text:?}"
        );
        assert_alive("shape confusion");
    }
}

#[test]
fn declared_body_longer_than_sent_times_out_cleanly() {
    // The client promises 4096 bytes, delivers 16, and walks away with
    // the socket open: the server's read timeout must reclaim the
    // connection without a response and without harm.
    let server = shared_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let req = format!("{VALID_POST_HEAD}Content-Length: 4096\r\n\r\nAAAAAAAAAAAAAAAA");
    stream.write_all(req.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out); // server closes on its timeout
    assert_rejected("half body", &out);
    assert_alive("half body");
}

#[test]
fn budget_stays_balanced_after_the_storm() {
    // Runs in the same process as every proptest above (test threads
    // share the OnceLock server); whatever subset already ran, the
    // ledger must still partition.
    for _ in 0..20 {
        exchange(b"\x00\xffnonsense\r\n\r\n", 2);
    }
    let snap = shared_server().snapshot();
    assert!(snap.wire_rejects >= 20, "rejects: {}", snap.wire_rejects);
    assert!(
        snap.budget.balanced(),
        "budget must stay balanced under wire abuse: {:?}",
        snap.budget
    );
}
