//! Shared helpers for the registry / hot-swap / canary / cache suites.
//!
//! Each integration test file is its own crate, so the loopback HTTP
//! client, the micro-model builders, and the checkpoint byte helpers
//! live here once. Not every suite uses every helper.
#![allow(dead_code)]

use p3d_infer::http::{EngineFactory, EnginePair};
use p3d_infer::wire::encode_clip_f32;
use p3d_infer::{
    F32Engine, InferenceEngine, ModelPushConfig, ModelRegistry, ServeConfig, ServerConfig,
};
use p3d_models::{build_network, r2plus1d_micro, NetworkSpec};
use p3d_nn::Checkpoint;
use p3d_tensor::{Tensor, TensorRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Seed for network construction; checkpoints carry the weights, so
/// every factory can build from the same scaffold seed.
pub const NET_SEED: u64 = 7;

pub fn micro_spec() -> NetworkSpec {
    r2plus1d_micro(4)
}

/// Serialized checkpoint for the micro model with weights drawn from
/// `seed` — different seeds give different bytes, hence different
/// content hashes.
pub fn ckpt_bytes(seed: u64) -> Vec<u8> {
    let mut net = build_network(&micro_spec(), seed);
    let ckpt = Checkpoint::capture(&mut net);
    let mut bytes = Vec::new();
    ckpt.write_to(&mut bytes).expect("serialize checkpoint");
    bytes
}

/// In-process bitwise reference: the logits an f32 engine built from
/// `ckpt` produces for `clips`.
pub fn reference_bits(ckpt: &Checkpoint, clips: &[Tensor]) -> Vec<Vec<u32>> {
    let mut engine = engine_from(ckpt, 2);
    engine
        .infer_batch(clips)
        .iter()
        .map(|r| bits(&r.logits))
        .collect()
}

/// One f32 engine whose replicas all restore `ckpt`.
pub fn engine_from(ckpt: &Checkpoint, replicas: usize) -> F32Engine {
    let ckpt = ckpt.clone();
    F32Engine::new(replicas, move || {
        let mut net = build_network(&micro_spec(), NET_SEED);
        ckpt.restore(&mut net);
        net
    })
}

/// The standard test factory: rebuilds the micro topology from any
/// pushed checkpoint, rejecting checkpoints that restore nothing or
/// mismatch shapes. No fallback engine (tests pin bitwise primaries).
pub fn micro_factory(replicas: usize) -> EngineFactory {
    Box::new(move |pushed: &Checkpoint| -> Result<EnginePair, String> {
        pushed
            .restore_checked(&mut build_network(&micro_spec(), NET_SEED))
            .map_err(|e| format!("checkpoint {e}"))?;
        Ok((
            Box::new(engine_from(pushed, replicas)) as Box<dyn InferenceEngine + Send>,
            None,
        ))
    })
}

/// Clips whose every value is a Q7.8 lattice point, so uploads decode
/// bit-exactly. Shape matches the micro model ([1, 6, 16, 16]).
pub fn q78_clips(n: usize, seed: u64) -> Vec<Tensor> {
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

pub fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|x| x.to_bits()).collect()
}

/// A `ServeConfig` for the micro model with the response cache sized by
/// `cache` (0 disables).
pub fn serve_cfg(cache: usize) -> ServeConfig {
    ServeConfig {
        server: ServerConfig {
            capacity: 256,
            max_batch: 4,
            expected_shape: Some([1, 6, 16, 16]),
            ..ServerConfig::default()
        },
        read_timeout: Duration::from_secs(2),
        cache_capacity: cache,
        ..ServeConfig::default()
    }
}

/// Registry + factory + golden clip rooted at `dir`, no canary.
pub fn push_config(dir: &std::path::Path, replicas: usize) -> ModelPushConfig {
    ModelPushConfig {
        registry: ModelRegistry::open(dir).expect("open registry"),
        factory: micro_factory(replicas),
        golden: q78_clips(1, 999).pop().unwrap(),
        canary: None,
    }
}

/// Minimal HTTP client: one request per connection (`Connection:
/// close`), returns `(status, body)`.
pub fn http_request(
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

/// POSTs one f32-encoded clip and returns `(status, body)`.
pub fn post_clip(addr: std::net::SocketAddr, clip: &Tensor, client: &str) -> (u16, String) {
    http_request(
        addr,
        "POST",
        "/v1/infer",
        &[
            ("Content-Type", "application/x-p3d-f32"),
            ("X-P3D-Shape", "1,6,16,16"),
            ("X-P3D-Client", client),
        ],
        &encode_clip_f32(clip),
    )
}

/// POSTs checkpoint bytes to the model-push control plane.
pub fn push_model(addr: std::net::SocketAddr, bytes: &[u8]) -> (u16, String) {
    http_request(
        addr,
        "POST",
        "/v1/models",
        &[("Content-Type", "application/octet-stream")],
        bytes,
    )
}

/// Pushes `bytes` until the server accepts (`202` parked or `200`
/// already serving), retrying `409 Conflict` while an earlier swap is
/// still in flight. Panics on rejection or timeout.
pub fn push_until_accepted(addr: std::net::SocketAddr, bytes: &[u8]) -> (u16, String) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = push_model(addr, bytes);
        match status {
            202 | 200 => return (status, body),
            409 => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "swap never cleared: {body}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("push rejected {other}: {body}"),
        }
    }
}

/// Polls `GET /stats` until `predicate` holds on the body, panicking
/// after `secs` seconds.
pub fn poll_stats(
    addr: std::net::SocketAddr,
    secs: u64,
    what: &str,
    predicate: impl Fn(&str) -> bool,
) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    loop {
        let (status, body) = http_request(addr, "GET", "/stats", &[], b"");
        assert_eq!(status, 200, "stats endpoint died: {body}");
        if predicate(&body) {
            return body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never observed {what}; last stats: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Extracts the `"key": [u32, ...]` array from a JSON response body.
pub fn extract_u32s(body: &str, key: &str) -> Vec<u32> {
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

/// Extracts an unsigned field (`"key": 123`) from a flat JSON body.
pub fn json_u64(body: &str, key: &str) -> u64 {
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

/// Extracts a string field (`"key": "value"`) from a flat JSON body.
pub fn json_str(body: &str, key: &str) -> String {
    let needle = format!("\"{key}\": \"");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {body:?}"))
        + needle.len();
    let end = start + body[start..].find('"').expect("unterminated string");
    body[start..end].to_string()
}

/// A fresh scratch directory under the target tmpdir, cleaned on drop.
pub struct ScratchDir {
    pub path: std::path::PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let path = std::env::temp_dir().join(format!(
            "p3d-registry-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
