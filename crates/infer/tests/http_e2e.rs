//! Loopback end-to-end suite for the HTTP front door.
//!
//! The wire must be invisible to the numbers: logits served over
//! loopback are **bitwise identical** to an in-process
//! [`InferenceEngine`] run, on both the f32 and Q7.8-sim backends,
//! from any number of concurrent clients, with either payload
//! encoding (an f32 upload and its Q7.8 twin decode to the same clip
//! because every Q7.8 value is exactly representable in f32).
//!
//! The resilience ledger must survive the wire, too: a seeded chaos
//! plan injected *behind* the HTTP layer still resolves every request
//! exactly once with a balanced [`p3d_infer::ErrorBudget`], and the
//! per-client token buckets keep a greedy client from starving a
//! modest one.

use p3d_core::PrunedModel;
use p3d_fpga::config::{AcceleratorConfig, Ports, Tiling};
use p3d_fpga::sim::QuantizedNetwork;
use p3d_infer::wire::{encode_clip_f32, encode_clip_q78, CONTENT_TYPE_F32, CONTENT_TYPE_Q78};
use p3d_infer::{
    install_quiet_panic_hook, F32Engine, FaultMix, FaultPlan, HttpServer, InferenceEngine,
    ServeConfig, ServerConfig, SimEngine,
};
use p3d_models::{build_network, r2plus1d_micro};
use p3d_tensor::{Tensor, TensorRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SEED: u64 = 33;

fn micro_cfg() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(4, 4, 2, 4, 4),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

/// Clips whose every value is a Q7.8 lattice point (`i/256`), so the
/// f32 and Q7.8 wire encodings decode to the *same* tensor and both
/// can be checked against one bitwise reference.
fn q78_clips(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed(seed);
    (0..n)
        .map(|_| {
            let t = rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0);
            let snapped: Vec<f32> = t
                .data()
                .iter()
                .map(|v| (v * 256.0).round() / 256.0)
                .collect();
            Tensor::from_vec([1, 6, 16, 16], snapped)
        })
        .collect()
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|x| x.to_bits()).collect()
}

/// Minimal HTTP client: one request per connection (`Connection:
/// close`), returns `(status, body)`.
fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nConnection: close\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(req.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest[..3].parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// POSTs one clip and returns `(status, body)`.
fn post_clip(
    addr: std::net::SocketAddr,
    clip: &Tensor,
    content_type: &str,
    client: &str,
) -> (u16, String) {
    let body = if content_type == CONTENT_TYPE_Q78 {
        encode_clip_q78(clip)
    } else {
        encode_clip_f32(clip)
    };
    http_request(
        addr,
        "POST",
        "/v1/infer",
        &[
            ("Content-Type", content_type),
            ("X-P3D-Shape", "1,6,16,16"),
            ("X-P3D-Client", client),
        ],
        &body,
    )
}

/// Extracts the `"key": [u32, ...]` array from a JSON response body.
fn extract_u32s(body: &str, key: &str) -> Vec<u32> {
    let needle = format!("\"{key}\": [");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {body:?}"))
        + needle.len();
    let end = start + body[start..].find(']').expect("unterminated array");
    body[start..end]
        .split(", ")
        .map(|s| s.parse().expect("u32 element"))
        .collect()
}

/// Extracts an unsigned field from the flat JSON objects the server
/// emits (`"key": 123`).
fn json_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {body:?}"))
        + needle.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("u64 field")
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        server: ServerConfig {
            capacity: 256,
            max_batch: 4,
            expected_shape: Some([1, 6, 16, 16]),
            ..ServerConfig::default()
        },
        read_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

/// The tentpole invariant: for each backend, N concurrent clients
/// posting the same clips (half f32-encoded, half Q7.8-encoded) read
/// back exactly the logits an in-process engine computes.
#[test]
fn wire_logits_bitwise_match_in_process_on_both_backends() {
    let spec = r2plus1d_micro(4);
    let clips = q78_clips(8, 11);

    type EngineFactory = Box<dyn Fn() -> Box<dyn InferenceEngine + Send>>;
    let engines: Vec<(&str, EngineFactory)> = vec![
        ("f32", {
            let spec = spec.clone();
            Box::new(move || {
                let spec = spec.clone();
                Box::new(F32Engine::new(3, move || build_network(&spec, SEED)))
                    as Box<dyn InferenceEngine + Send>
            }) as Box<dyn Fn() -> Box<dyn InferenceEngine + Send>>
        }),
        ("sim", {
            let spec = spec.clone();
            Box::new(move || {
                let mut net = build_network(&spec, SEED);
                let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
                Box::new(SimEngine::new(q, PrunedModel::dense())) as Box<dyn InferenceEngine + Send>
            }) as Box<dyn Fn() -> Box<dyn InferenceEngine + Send>>
        }),
    ];

    for (name, make) in engines {
        // In-process reference, same construction as behind the wire.
        let mut reference_engine = make();
        let reference: Vec<Vec<u32>> = reference_engine
            .infer_batch(&clips)
            .iter()
            .map(|r| bits(&r.logits))
            .collect();
        drop(reference_engine);

        let server = HttpServer::start(serve_cfg(), make(), None).expect("bind");
        let addr = server.local_addr();

        let workers: Vec<_> = (0..3)
            .map(|worker| {
                let clips = clips.clone();
                let reference = reference.clone();
                std::thread::spawn(move || {
                    for (i, clip) in clips.iter().enumerate() {
                        // Alternate encodings across workers and clips.
                        let ctype = if (worker + i) % 2 == 0 {
                            CONTENT_TYPE_F32
                        } else {
                            CONTENT_TYPE_Q78
                        };
                        let (status, body) =
                            post_clip(addr, clip, ctype, &format!("worker-{worker}"));
                        assert_eq!(status, 200, "clip {i} via {ctype}: {body}");
                        assert_eq!(
                            extract_u32s(&body, "logits_bits"),
                            reference[i],
                            "wire logits for clip {i} ({ctype}) diverge from in-process"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }

        let snap = server.shutdown();
        assert_eq!(snap.budget.completed, 24, "3 workers x 8 clips on {name}");
        assert!(snap.budget.balanced(), "{name} budget: {:?}", snap.budget);
        assert_eq!(snap.budget.submitted, 24, "{name}: {:?}", snap.budget);
    }
}

/// Reads exactly one HTTP response off a keep-alive stream, framed by
/// its `Content-Length` (the loopback helpers above read to EOF, which
/// only works with `Connection: close`).
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        raw.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&raw).to_string();
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest[..3].parse().ok())
        .unwrap_or_else(|| panic!("malformed response head: {head:?}"));
    let len: usize = head
        .to_ascii_lowercase()
        .split_once("content-length: ")
        .and_then(|(_, rest)| rest.split("\r\n").next())
        .and_then(|v| v.trim().parse().ok())
        .expect("response content-length");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    (status, String::from_utf8_lossy(&body).to_string())
}

/// The streaming ingestion invariant over the wire: a P3DVID1 body
/// decoded frame-by-frame off the socket produces logits bitwise
/// identical to the serial reference decode of the same container fed
/// through an in-process engine — and because success consumes exactly
/// the declared `Content-Length`, one keep-alive connection serves
/// back-to-back streamed clips.
#[test]
fn streamed_vid_logits_bitwise_match_the_prebuilt_tensor_path() {
    use p3d_video_data::io::{
        read_video_clips, save_video, PreprocessConfig, VidHeader, VidWriter,
    };

    // One 6-frame 24x20 GRAY8 container, both on disk (for the serial
    // reference decoder) and in memory (for the upload).
    let header = VidHeader::gray8(24, 20, 6, 24_000);
    let mut rng = TensorRng::seed(77);
    let frames: Vec<Vec<u8>> = (0..6)
        .map(|_| {
            (0..header.frame_bytes())
                .map(|_| rng.below(256) as u8)
                .collect()
        })
        .collect();
    let container = {
        let mut w = VidWriter::new(Vec::new(), header).unwrap();
        for f in &frames {
            w.write_frame(f).unwrap();
        }
        w.finish().unwrap()
    };
    let path = std::env::temp_dir().join(format!("p3d-e2e-vid-{}.p3dvid", std::process::id()));
    save_video(&path, header, frames.iter().map(|f| f.as_slice())).unwrap();
    let clips = read_video_clips(&path, 6, &PreprocessConfig::to_size(16, 16)).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(clips.len(), 1);

    // In-process reference on the tensor the *serial* decoder built.
    let spec = r2plus1d_micro(4);
    let mut reference_engine = {
        let spec = spec.clone();
        F32Engine::new(2, move || build_network(&spec, SEED))
    };
    let reference = bits(&reference_engine.infer_batch(&clips)[0].logits);
    drop(reference_engine);

    let server = HttpServer::start(
        serve_cfg(),
        Box::new({
            let spec = spec.clone();
            F32Engine::new(2, move || build_network(&spec, SEED))
        }),
        None,
    )
    .expect("bind");
    let addr = server.local_addr();

    // Two streamed uploads on ONE keep-alive connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    for round in 0..2 {
        let head = format!(
            "POST /v1/infer HTTP/1.1\r\nContent-Type: application/x-p3d-vid\r\n\
             X-P3D-Shape: 1,6,16,16\r\nContent-Length: {}\r\n\r\n",
            container.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&container).unwrap();
        stream.flush().unwrap();
        let (status, body) = read_one_response(&mut stream);
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(
            extract_u32s(&body, "logits_bits"),
            reference,
            "round {round}: streamed vid logits diverge from the serial in-process path"
        );
    }
    drop(stream);

    // A corrupt container on a fresh connection: typed 400, connection
    // closed (the body is unframed after a failed decode).
    let mut bad = container.clone();
    let flip = bad.len() - 10;
    bad[flip] ^= 0x01;
    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/infer",
        &[
            ("Content-Type", "application/x-p3d-vid"),
            ("X-P3D-Shape", "1,6,16,16"),
        ],
        &bad,
    );
    assert_eq!(status, 400, "corrupt container answered: {body}");
    assert!(body.contains("bad video stream"), "{body}");

    let (status, stats) = http_request(addr, "GET", "/stats", &[], b"");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&stats, "vid_clips"), 2, "stats: {stats}");

    let snap = server.shutdown();
    assert_eq!(snap.vid_clips, 2);
    assert_eq!(snap.budget.completed, 2);
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
}

/// Chaos injected behind the wire: worker panics, stalls, and
/// saturation storms inside the engine while HTTP clients hammer it.
/// Every request gets exactly one HTTP answer, successes carry the
/// fallback provenance where degradation kicked in, and the aggregate
/// `/stats` budget still partitions.
#[test]
fn chaos_behind_the_wire_keeps_the_budget_balanced() {
    install_quiet_panic_hook();
    let spec = r2plus1d_micro(4);
    let clips = q78_clips(10, 23);

    let mut net = build_network(&spec, SEED);
    let q = QuantizedNetwork::from_network(&spec, &mut net, micro_cfg());
    let primary = Box::new(SimEngine::new(q, PrunedModel::dense()));
    let fallback = {
        let spec = spec.clone();
        Box::new(F32Engine::new(2, move || build_network(&spec, SEED)))
    };

    const N: usize = 40;
    let cfg = ServeConfig {
        chaos: Some(FaultPlan::seeded_mix(4242, N, &FaultMix::default())),
        ..serve_cfg()
    };
    let server = HttpServer::start(cfg, primary, Some(fallback)).expect("bind");
    let addr = server.local_addr();

    let workers: Vec<_> = (0..4)
        .map(|worker| {
            let clips = clips.clone();
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                for i in 0..N / 4 {
                    let clip = &clips[(worker + i) % clips.len()];
                    let (status, _body) =
                        post_clip(addr, clip, CONTENT_TYPE_F32, &format!("chaos-{worker}"));
                    statuses.push(status);
                }
                statuses
            })
        })
        .collect();
    let statuses: Vec<u16> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    assert_eq!(statuses.len(), N, "every request got exactly one answer");
    // Under this mix every status is a typed outcome, never a 502-ish
    // mystery: 200 success, 500 quarantine, 503 shed, 504 deadline.
    for s in &statuses {
        assert!(
            matches!(s, 200 | 500 | 503 | 504),
            "unexpected status {s} in {statuses:?}"
        );
    }

    let (st, stats) = http_request(addr, "GET", "/stats", &[], b"");
    assert_eq!(st, 200);
    let ok = statuses.iter().filter(|&&s| s == 200).count() as u64;
    assert_eq!(json_u64(&stats, "completed"), ok, "stats: {stats}");
    assert_eq!(json_u64(&stats, "submitted"), N as u64, "stats: {stats}");
    assert!(
        stats.contains("\"balanced\": true"),
        "budget must balance under chaos: {stats}"
    );
    assert!(
        json_u64(&stats, "worker_failures") > 0,
        "the plan injected no faults — not a chaos test: {stats}"
    );

    let snap = server.shutdown();
    assert!(snap.budget.balanced(), "final budget: {:?}", snap.budget);
    assert_eq!(snap.budget.submitted, N as u64, "{:?}", snap.budget);
}

/// Wire-level fairness: with a near-zero refill rate, a greedy client
/// exhausts only its *own* burst; a second client arriving afterwards
/// still gets served, and the per-client 429 ledgers diverge.
#[test]
fn greedy_client_cannot_starve_a_modest_one() {
    let spec = r2plus1d_micro(4);
    let clips = q78_clips(1, 77);

    let cfg = ServeConfig {
        // 3 requests of burst, then one token every 1000 s: within the
        // test's lifetime the bucket never meaningfully refills.
        rate_per_s: 0.001,
        burst: 3.0,
        ..serve_cfg()
    };
    let primary = Box::new(F32Engine::new(2, move || build_network(&spec, SEED)));
    let server = HttpServer::start(cfg, primary, None).expect("bind");
    let addr = server.local_addr();

    let mut greedy_ok = 0;
    let mut greedy_shed = 0;
    for _ in 0..10 {
        match post_clip(addr, &clips[0], CONTENT_TYPE_F32, "greedy").0 {
            200 => greedy_ok += 1,
            429 => greedy_shed += 1,
            s => panic!("unexpected status {s}"),
        }
    }
    assert_eq!(greedy_ok, 3, "greedy spends exactly its burst");
    assert_eq!(greedy_shed, 7, "the rest must shed as 429");

    // A different client header is a different bucket: full burst.
    for i in 0..2 {
        let (status, body) = post_clip(addr, &clips[0], CONTENT_TYPE_F32, "modest");
        assert_eq!(status, 200, "modest request {i} was starved: {body}");
    }

    let (_, stats) = http_request(addr, "GET", "/stats", &[], b"");
    assert!(
        stats.contains("\"client\": \"greedy\", \"admitted\": 3, \"rate_limited\": 7"),
        "greedy ledger wrong: {stats}"
    );
    assert!(
        stats.contains("\"client\": \"modest\", \"admitted\": 2, \"rate_limited\": 0"),
        "modest ledger wrong: {stats}"
    );

    let snap = server.shutdown();
    assert_eq!(snap.budget.rate_limited, 7);
    assert_eq!(snap.budget.completed, 5);
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);
    // 10 greedy + 2 modest requests.
    assert_eq!(snap.budget.submitted, 12, "{:?}", snap.budget);
}

/// `GET /stats` carries engine provenance; `/healthz` stays trivial.
#[test]
fn stats_reports_provenance_and_pool_telemetry() {
    let spec = r2plus1d_micro(4);
    let clips = q78_clips(1, 5);
    let primary = Box::new(F32Engine::new(2, move || build_network(&spec, SEED)));
    let server = HttpServer::start(serve_cfg(), primary, None).expect("bind");
    let addr = server.local_addr();

    let (status, body) = http_request(addr, "GET", "/healthz", &[], b"");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = post_clip(addr, &clips[0], CONTENT_TYPE_Q78, "probe");
    assert_eq!(status, 200);
    for key in [
        "latency_ms",
        "backend",
        "kernel_path",
        "cpu_features",
        "fell_back",
    ] {
        assert!(
            body.contains(&format!("\"{key}\"")),
            "response lacks {key}: {body}"
        );
    }

    let (status, stats) = http_request(addr, "GET", "/stats", &[], b"");
    assert_eq!(status, 200);
    for key in [
        "error_budget",
        "kernel_path",
        "cpu_features",
        "pool",
        "expected_shape",
    ] {
        assert!(
            stats.contains(&format!("\"{key}\"")),
            "stats lacks {key}: {stats}"
        );
    }
    assert_eq!(json_u64(&stats, "completed"), 1);
    server.shutdown();
}
