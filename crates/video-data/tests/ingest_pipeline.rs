//! End-to-end pipeline proofs for the streaming ingest data plane:
//!
//! * clips coming out of the N-deep prefetch pipeline are bitwise
//!   identical to the serial reference decode at every worker count
//!   and ring depth,
//! * a warm shared arena never grows again (the zero-steady-state-
//!   alloc contract, also proven by counting allocator in `p3d-infer`),
//! * a decode worker that fails or panics mid-clip poisons the ring
//!   (consumer errors instead of deadlocking) and returns its buffer —
//!   the ingest mirror of the EvalArena reuse-after-crash proof.

use std::path::PathBuf;

use p3d_tensor::TensorRng;
use p3d_video_data::io::{
    read_video_clips, save_video, ClipArena, PrefetchConfig, Prefetcher, PreprocessConfig,
    VidHeader,
};

const SRC_W: u32 = 24;
const SRC_H: u32 = 20;
const FRAMES: u32 = 24;
const CLIP_DEPTH: usize = 4;
const TOTAL_CLIPS: u64 = FRAMES as u64 / CLIP_DEPTH as u64;

fn preprocess() -> PreprocessConfig {
    PreprocessConfig {
        resize_h: 10,
        resize_w: 12,
        crop_h: 8,
        crop_w: 8,
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "p3d-ingest-test-{}-{tag}.p3dvid",
        std::process::id()
    ))
}

/// Writes a deterministic test container and returns its path.
fn write_container(tag: &str, seed: u64) -> PathBuf {
    let mut rng = TensorRng::seed(seed);
    let header = VidHeader::gray8(SRC_W, SRC_H, FRAMES, 30_000);
    let frames: Vec<Vec<u8>> = (0..FRAMES)
        .map(|_| {
            (0..header.frame_bytes())
                .map(|_| rng.below(256) as u8)
                .collect()
        })
        .collect();
    let path = temp_path(tag);
    save_video(&path, header, frames.iter().map(|f| f.as_slice())).unwrap();
    path
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn pipeline_matches_serial_reference_at_any_geometry() {
    let path = write_container("identity", 101);
    let _guard = TempFile(path.clone());
    let reference = read_video_clips(&path, CLIP_DEPTH, &preprocess()).unwrap();
    assert_eq!(reference.len() as u64, TOTAL_CLIPS);

    let mut cfg = PrefetchConfig::new(CLIP_DEPTH, preprocess());
    let arena = ClipArena::new(cfg.clip_shape(), 8);
    for workers in [1usize, 2, 3] {
        for depth in [1usize, 2, 4] {
            cfg.workers = workers;
            cfg.depth = depth;
            let mut p = Prefetcher::open(&path, cfg, arena.clone()).unwrap();
            assert_eq!(p.total_clips(), TOTAL_CLIPS);
            let mut n = 0usize;
            while let Some(clip) = p.next_clip().unwrap() {
                let t = clip.into_tensor();
                let expect = &reference[n];
                assert_eq!(t.shape(), expect.shape());
                assert!(
                    t.data()
                        .iter()
                        .zip(expect.data().iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "clip {n} differs at workers={workers} depth={depth}"
                );
                arena.release_tensor(t);
                n += 1;
            }
            assert_eq!(n as u64, TOTAL_CLIPS);
            let stats = p.stats();
            assert_eq!(stats.clips, TOTAL_CLIPS);
            assert_eq!(stats.frames, FRAMES as u64);
            assert!(stats.decode_busy_s >= 0.0);
        }
    }
    // 8 preallocated buffers cover every geometry above (max in-flight
    // = depth + workers + 1 held by the consumer): the arena never grew.
    assert_eq!(arena.stats().grow_events, 0, "warm arena grew");
    assert_eq!(arena.stats().free, 8, "buffers leaked");
}

#[test]
fn worker_panic_poisons_ring_and_returns_buffers() {
    let path = write_container("fault", 202);
    let _guard = TempFile(path.clone());
    let mut cfg = PrefetchConfig::new(CLIP_DEPTH, preprocess());
    cfg.workers = 2;
    cfg.depth = 2;
    cfg.fault_clip = Some(2);
    let arena = ClipArena::new(cfg.clip_shape(), 6);

    let mut p = Prefetcher::open(&path, cfg, arena.clone()).unwrap();
    let mut delivered = 0u64;
    let err = loop {
        match p.next_clip() {
            Ok(Some(clip)) => {
                drop(clip);
                delivered += 1;
            }
            Ok(None) => panic!("stream completed despite injected fault"),
            Err(e) => break e,
        }
    };
    assert!(
        err.to_string().contains("panicked"),
        "unexpected error: {err}"
    );
    assert!(delivered <= 2, "clips past the fault were delivered");
    drop(p); // joins workers

    // Every buffer came home — including the one in the panicking
    // worker's hands — and the arena never grew.
    let s = arena.stats();
    assert_eq!((s.buffers, s.free, s.grow_events), (6, 6, 0));

    // The same arena serves a clean run with bitwise-correct output.
    let reference = read_video_clips(&path, CLIP_DEPTH, &preprocess()).unwrap();
    cfg.fault_clip = None;
    let mut p = Prefetcher::open(&path, cfg, arena.clone()).unwrap();
    let mut n = 0usize;
    while let Some(clip) = p.next_clip().unwrap() {
        assert!(
            clip.data()
                .iter()
                .zip(reference[n].data().iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "clip {n} corrupted after crash-reuse"
        );
        drop(clip);
        n += 1;
    }
    assert_eq!(n as u64, TOTAL_CLIPS);
    assert_eq!(arena.stats().grow_events, 0);
}

#[test]
fn corrupt_record_mid_stream_surfaces_as_error() {
    let path = write_container("corrupt", 303);
    let _guard = TempFile(path.clone());
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a payload byte deep in the stream (frame 10 of 24).
    let header = VidHeader::gray8(SRC_W, SRC_H, FRAMES, 30_000);
    let off = header.frame_offset(10) as usize + 4 + 17;
    bytes[off] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    let cfg = PrefetchConfig::new(CLIP_DEPTH, preprocess());
    let arena = ClipArena::new(cfg.clip_shape(), 4);
    let mut p = Prefetcher::open(&path, cfg, arena.clone()).unwrap();
    let mut saw_error = false;
    for _ in 0..TOTAL_CLIPS + 1 {
        match p.next_clip() {
            Ok(Some(clip)) => drop(clip),
            Ok(None) => break,
            Err(e) => {
                assert!(e.to_string().contains("checksum"), "unexpected error: {e}");
                saw_error = true;
                break;
            }
        }
    }
    assert!(saw_error, "corruption was not reported");
    drop(p);
    let s = arena.stats();
    assert_eq!(s.free, s.buffers, "buffers leaked after corruption");
}

#[test]
fn dropping_a_partially_consumed_pipeline_does_not_hang() {
    let path = write_container("early-drop", 404);
    let _guard = TempFile(path.clone());
    let mut cfg = PrefetchConfig::new(CLIP_DEPTH, preprocess());
    cfg.workers = 2;
    cfg.depth = 1; // tiny ring: producers are parked waiting right now
    let arena = ClipArena::new(cfg.clip_shape(), 4);
    let mut p = Prefetcher::open(&path, cfg, arena.clone()).unwrap();
    let first = p.next_clip().unwrap().expect("first clip");
    drop(first);
    drop(p); // must join parked workers without deadlock
    let s = arena.stats();
    assert_eq!(s.free, s.buffers, "buffers leaked on early drop");
}

#[test]
fn geometry_mismatches_are_rejected_up_front() {
    let path = write_container("geometry", 505);
    let _guard = TempFile(path.clone());
    let cfg = PrefetchConfig::new(CLIP_DEPTH, preprocess());
    // Arena of the wrong shape.
    let wrong = ClipArena::new([1, CLIP_DEPTH, 3, 3], 1);
    assert!(Prefetcher::open(&path, cfg, wrong).is_err());
    // Clip depth longer than the whole container.
    let mut long = cfg;
    long.clip_depth = FRAMES as usize + 1;
    let arena = ClipArena::new(long.clip_shape(), 1);
    assert!(Prefetcher::open(&path, long, arena).is_err());
    // Missing file.
    let arena = ClipArena::new(cfg.clip_shape(), 1);
    assert!(Prefetcher::open(&temp_path("missing"), cfg, arena).is_err());
}
