//! Release-mode soak smoke for the HTTP front door.
//!
//! Ten seconds (`P3D_SOAK_SECS` overrides) of mixed traffic — several
//! clients posting valid clips flat-out, one client feeding malformed
//! garbage, one polling `/stats` — then a full shutdown. Asserts:
//!
//! * the server stays healthy for the whole window and every valid
//!   request gets a 200;
//! * the final error budget balances and counted real work;
//! * **zero leaked threads**: the process thread count after
//!   `shutdown()` returns to the pre-server baseline (the persistent
//!   worker pool is warmed *before* the baseline is taken, so any
//!   surplus thread is the server's).
//!
//! Ignored by default — `scripts/check.sh` runs it in release with
//! `--ignored`.

use p3d_infer::wire::{encode_clip_f32, CONTENT_TYPE_F32};
use p3d_infer::{F32Engine, HttpServer, InferenceEngine, ServeConfig, ServerConfig};
use p3d_models::{build_network, r2plus1d_micro};
use p3d_tensor::TensorRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 33;

/// Live thread count of this process, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

fn exchange(addr: std::net::SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return Vec::new(), // shutdown race at the end of the window
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    if stream
        .write_all(payload)
        .and_then(|()| stream.flush())
        .is_err()
    {
        return Vec::new();
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

#[test]
#[ignore = "10 s soak; run in release via scripts/check.sh"]
fn soak_mixed_load_sheds_garbage_serves_clips_and_leaks_no_threads() {
    let secs: u64 = std::env::var("P3D_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let spec = r2plus1d_micro(4);

    // Warm the persistent worker pool before taking the baseline, so
    // pool threads (process-lifetime by design) don't read as leaks.
    {
        let spec = spec.clone();
        let mut warm = F32Engine::new(4, move || build_network(&spec, SEED));
        let mut rng = TensorRng::seed(1);
        let _ = warm.infer_batch(&[rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0)]);
    }
    std::thread::sleep(Duration::from_millis(100));
    let baseline = thread_count();

    let cfg = ServeConfig {
        server: ServerConfig {
            capacity: 512,
            max_batch: 8,
            expected_shape: Some([1, 6, 16, 16]),
            ..ServerConfig::default()
        },
        read_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let primary = {
        let spec = spec.clone();
        Box::new(F32Engine::new(4, move || build_network(&spec, SEED)))
    };
    let server = HttpServer::start(cfg, primary, None).expect("bind");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let ok_count = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();

    // Valid load: three clients hammering real clips.
    for worker in 0..3u64 {
        let stop = Arc::clone(&stop);
        let ok_count = Arc::clone(&ok_count);
        workers.push(std::thread::spawn(move || {
            let mut rng = TensorRng::seed(100 + worker);
            while !stop.load(Ordering::Relaxed) {
                let clip = rng.uniform_tensor([1, 6, 16, 16], 0.0, 1.0);
                let body = encode_clip_f32(&clip);
                let mut req = format!(
                    "POST /v1/infer HTTP/1.1\r\nConnection: close\r\n\
                     Content-Type: {CONTENT_TYPE_F32}\r\nX-P3D-Shape: 1,6,16,16\r\n\
                     X-P3D-Client: soak-{worker}\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                req.extend_from_slice(&body);
                let reply = exchange(addr, &req);
                if reply.starts_with(b"HTTP/1.1 200") {
                    ok_count.fetch_add(1, Ordering::Relaxed);
                } else if !reply.is_empty() && !stop.load(Ordering::Relaxed) {
                    panic!(
                        "valid clip rejected: {:?}",
                        String::from_utf8_lossy(&reply[..reply.len().min(80)])
                    );
                }
            }
        }));
    }

    // Hostile load: one client cycling malformed frames.
    {
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let garbage: [&[u8]; 4] = [
                b"\x00\x01\x02 not http at all\r\n\r\n",
                b"POST /v1/infer HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
                b"GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n",
                b"POST /v1/infer HTTP/1.1\r\nContent-Length: 400\r\n\r\nshort",
            ];
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                exchange(addr, garbage[i % garbage.len()]);
                i += 1;
            }
        }));
    }

    // Observer: /stats must answer throughout.
    {
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let reply = exchange(addr, b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
                assert!(
                    reply.is_empty() || reply.starts_with(b"HTTP/1.1 200"),
                    "stats failed mid-soak"
                );
                std::thread::sleep(Duration::from_millis(200));
            }
        }));
    }

    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("load thread");
    }

    let snap = server.shutdown();
    let served = ok_count.load(Ordering::Relaxed);
    assert!(served > 0, "no valid request completed in {secs} s");
    assert_eq!(snap.budget.completed, served, "budget: {:?}", snap.budget);
    assert!(snap.wire_rejects > 0, "garbage client never registered");
    assert!(snap.budget.balanced(), "budget: {:?}", snap.budget);

    // Every server thread (accept, engine, per-connection) must be
    // gone; only the warmed worker pool remains.
    let mut after = thread_count();
    let settle = Instant::now() + Duration::from_secs(5);
    while after > baseline && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(100));
        after = thread_count();
    }
    assert!(
        after <= baseline,
        "leaked threads: {baseline} before, {after} after shutdown"
    );
}
