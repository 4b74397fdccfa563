//! N-deep prefetch pipeline: decode workers ahead of an inference
//! consumer, connected by a bounded in-order ready ring.
//!
//! This is the paper's double-buffering trick lifted to the system
//! level: while the engine infers clip `k`, dedicated decode threads
//! are already reading, CRC-checking, resizing, and normalizing clips
//! `k+1 .. k+N` into arena-owned buffers, so on multi-core hosts the
//! engine never starves on input. The pool in `p3d_tensor::parallel`
//! is fork-join (callers block until their region completes), so the
//! decode side runs on its own long-lived named threads — the same
//! pattern as the HTTP accept/engine threads in `p3d-infer`.
//!
//! Ordering and determinism: worker `w` of `W` decodes clips
//! `w, w+W, w+2W, ...` from its own file handle (frame records are
//! fixed-size, so [`IndexedVidReader`] seeks freely); finished clips
//! land in ring slot `clip % N`, and the consumer takes clips strictly
//! in clip order. Output order and content are therefore independent
//! of worker count and scheduling — pinned by the pipeline-vs-serial
//! bitwise tests.
//!
//! Failure containment: a worker that hits a corrupt record or panics
//! poisons the ring; the consumer's next call returns the error
//! instead of deadlocking, and the in-flight [`ArenaClip`] returns its
//! buffer to the arena during unwind.

use std::fs::File;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use p3d_tensor::Tensor;

use super::arena::{ArenaClip, ClipArena};
use super::format::{IndexedVidReader, VidHeader, VidReader, FRAME_OVERHEAD};
use super::preprocess::{decode_frame_reference, FrameResizer, PreprocessConfig};

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Prefetch pipeline geometry.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchConfig {
    /// Ready-ring depth N: how many decoded clips may sit ahead of the
    /// consumer. Bounds memory to `depth + workers` arena clips.
    pub depth: usize,
    /// Number of dedicated decode threads.
    pub workers: usize,
    /// Frames per clip (the model's temporal extent D).
    pub clip_depth: usize,
    /// Resize/crop geometry applied to every frame.
    pub preprocess: PreprocessConfig,
    /// Test-only fault injection: the worker decoding this clip index
    /// panics mid-decode, exercising poison + buffer-return paths.
    pub fault_clip: Option<u64>,
}

impl PrefetchConfig {
    /// A pipeline decoding `clip_depth`-frame clips under `preprocess`
    /// with one worker and a 4-deep ring.
    pub fn new(clip_depth: usize, preprocess: PreprocessConfig) -> PrefetchConfig {
        PrefetchConfig {
            depth: 4,
            workers: 1,
            clip_depth,
            preprocess,
            fault_clip: None,
        }
    }

    /// Checks the geometry is usable.
    pub fn validate(&self) -> io::Result<()> {
        if self.depth == 0 {
            return Err(invalid("prefetch depth must be >= 1"));
        }
        if self.workers == 0 {
            return Err(invalid("prefetch needs >= 1 decode worker"));
        }
        if self.clip_depth == 0 {
            return Err(invalid("clip depth must be >= 1"));
        }
        self.preprocess.validate()
    }

    /// The clip tensor shape `[1, D, H, W]` this pipeline produces.
    pub fn clip_shape(&self) -> [usize; 4] {
        [
            1,
            self.clip_depth,
            self.preprocess.crop_h,
            self.preprocess.crop_w,
        ]
    }
}

/// Counters describing one ingestion run.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestStats {
    /// Clips delivered to the consumer.
    pub clips: u64,
    /// Source frames decoded into those clips.
    pub frames: u64,
    /// Container bytes (payload + framing) behind those frames.
    pub src_bytes: u64,
    /// Total decode-thread busy time, summed across workers.
    pub decode_busy_s: f64,
    /// Time the consumer spent blocked waiting for the next clip.
    pub consumer_wait_s: f64,
    /// Arena grow events observed — 0 once the working set is warm.
    pub arena_grow_events: usize,
}

impl IngestStats {
    /// Fraction of decode work hidden behind the consumer's own
    /// compute, in `[0, 1]`: 1.0 means the consumer never waited, 0
    /// means every decoded second was also a second the consumer stood
    /// still. On a single-core host this is honestly ~0 — decode and
    /// inference time-slice the same CPU.
    pub fn overlap_efficiency(&self) -> f64 {
        if self.decode_busy_s <= 0.0 {
            return 0.0;
        }
        ((self.decode_busy_s - self.consumer_wait_s) / self.decode_busy_s).clamp(0.0, 1.0)
    }
}

struct RingState {
    slots: Vec<Option<ArenaClip>>,
    /// Next clip index the consumer will take.
    next_out: u64,
    decode_busy: Duration,
    failed: Option<String>,
}

struct Ring {
    state: Mutex<RingState>,
    /// Producers wait here for their slot to open.
    slot_free: Condvar,
    /// The consumer waits here for the next clip.
    slot_ready: Condvar,
    stop: AtomicBool,
}

impl Ring {
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn poison(&self, msg: String) {
        let mut st = self.lock();
        if st.failed.is_none() {
            st.failed = Some(msg);
        }
        drop(st);
        self.slot_free.notify_all();
        self.slot_ready.notify_all();
    }
}

/// Streaming clip source over a P3DVID1 file: decode workers ahead of
/// the caller, bounded ready ring, strict clip order out.
pub struct Prefetcher {
    ring: Arc<Ring>,
    arena: ClipArena,
    workers: Vec<JoinHandle<()>>,
    header: VidHeader,
    cfg: PrefetchConfig,
    total_clips: u64,
    /// Next clip index this consumer handle will return.
    next_out: u64,
    delivered: u64,
    consumer_wait: Duration,
}

impl Prefetcher {
    /// Opens `path`, validates header/geometry against `cfg` and
    /// `arena`, and starts the decode workers.
    ///
    /// The arena is shared, not owned: callers keep it across runs so
    /// buffers warmed by one file are reused for the next.
    pub fn open(path: &Path, cfg: PrefetchConfig, arena: ClipArena) -> io::Result<Prefetcher> {
        cfg.validate()?;
        if arena.shape() != cfg.clip_shape() {
            return Err(invalid(format!(
                "arena shape {:?} does not match pipeline clip shape {:?}",
                arena.shape(),
                cfg.clip_shape()
            )));
        }
        let probe = IndexedVidReader::open(File::open(path)?)?;
        let header = *probe.header();
        drop(probe);
        // Validate resize geometry against the source dims up front so
        // workers cannot hit a construction error mid-stream.
        FrameResizer::new(
            header.width as usize,
            header.height as usize,
            cfg.preprocess,
        )?;
        let total_clips = header.frames as u64 / cfg.clip_depth as u64;
        if total_clips == 0 {
            return Err(invalid(format!(
                "container holds {} frames, fewer than one {}-frame clip",
                header.frames, cfg.clip_depth
            )));
        }

        let ring = Arc::new(Ring {
            state: Mutex::new(RingState {
                slots: (0..cfg.depth).map(|_| None).collect(),
                next_out: 0,
                decode_busy: Duration::ZERO,
                failed: None,
            }),
            slot_free: Condvar::new(),
            slot_ready: Condvar::new(),
            stop: AtomicBool::new(false),
        });

        let n_workers = cfg.workers.min(total_clips as usize);
        let mut workers = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            // Each worker gets its own handle; open here so I/O errors
            // surface to the caller, not as a poisoned ring.
            let file = File::open(path)?;
            let ring = Arc::clone(&ring);
            let arena = arena.clone();
            let handle = std::thread::Builder::new()
                .name(format!("p3d-ingest-{w}"))
                .spawn(move || {
                    worker_loop(
                        ring,
                        arena,
                        file,
                        cfg,
                        w as u64,
                        n_workers as u64,
                        total_clips,
                    )
                })
                .map_err(|e| io::Error::other(e.to_string()))?;
            workers.push(handle);
        }

        Ok(Prefetcher {
            ring,
            arena,
            workers,
            header,
            cfg,
            total_clips,
            next_out: 0,
            delivered: 0,
            consumer_wait: Duration::ZERO,
        })
    }

    /// The source container's validated header.
    pub fn header(&self) -> &VidHeader {
        &self.header
    }

    /// Clips this run will deliver (`frames / clip_depth`; trailing
    /// frames short of a full clip are ignored).
    pub fn total_clips(&self) -> u64 {
        self.total_clips
    }

    /// The shared arena feeding this pipeline.
    pub fn arena(&self) -> &ClipArena {
        &self.arena
    }

    /// Blocks for the next clip in order; `Ok(None)` once the stream
    /// is exhausted, `Err` if a worker failed or panicked.
    pub fn next_clip(&mut self) -> io::Result<Option<ArenaClip>> {
        if self.next_out == self.total_clips {
            return Ok(None);
        }
        let t0 = Instant::now();
        let slot = (self.next_out % self.cfg.depth as u64) as usize;
        let mut st = self.ring.lock();
        loop {
            if let Some(msg) = &st.failed {
                return Err(invalid(msg.clone()));
            }
            if let Some(clip) = st.slots[slot].take() {
                st.next_out += 1;
                drop(st);
                self.ring.slot_free.notify_all();
                self.next_out += 1;
                self.delivered += 1;
                self.consumer_wait += t0.elapsed();
                return Ok(Some(clip));
            }
            st = self
                .ring
                .slot_ready
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Counters for the run so far (arena grow events reflect the
    /// shared arena, i.e. warm reuse across runs shows up as zero).
    pub fn stats(&self) -> IngestStats {
        let frames = self.delivered * self.cfg.clip_depth as u64;
        let decode_busy = self.ring.lock().decode_busy;
        IngestStats {
            clips: self.delivered,
            frames,
            src_bytes: frames * (self.header.frame_bytes() as u64 + FRAME_OVERHEAD as u64),
            decode_busy_s: decode_busy.as_secs_f64(),
            consumer_wait_s: self.consumer_wait.as_secs_f64(),
            arena_grow_events: self.arena.stats().grow_events,
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.ring.stop.store(true, Ordering::SeqCst);
        self.ring.slot_free.notify_all();
        self.ring.slot_ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    ring: Arc<Ring>,
    arena: ClipArena,
    file: File,
    cfg: PrefetchConfig,
    first_clip: u64,
    stride: u64,
    total_clips: u64,
) {
    let mut reader = match IndexedVidReader::open(file) {
        Ok(r) => r,
        Err(e) => return ring.poison(format!("ingest worker failed to open source: {e}")),
    };
    let header = *reader.header();
    let resizer = match FrameResizer::new(
        header.width as usize,
        header.height as usize,
        cfg.preprocess,
    ) {
        Ok(r) => r,
        Err(e) => return ring.poison(format!("ingest worker preprocess setup failed: {e}")),
    };
    let out_len = cfg.preprocess.output_len();
    let mut frame_buf: Vec<u8> = Vec::new();

    let mut clip_idx = first_clip;
    while clip_idx < total_clips {
        if ring.stop.load(Ordering::SeqCst) {
            return;
        }
        let t0 = Instant::now();
        // catch_unwind so a panic mid-decode (bug or injected fault)
        // poisons the ring instead of hanging the consumer; the
        // half-filled ArenaClip drops during unwind, returning its
        // buffer to the arena.
        let decoded = panic::catch_unwind(AssertUnwindSafe(|| {
            decode_clip(
                &mut reader,
                &resizer,
                &arena,
                &mut frame_buf,
                &cfg,
                clip_idx,
                out_len,
            )
        }));
        let busy = t0.elapsed();
        let clip = match decoded {
            Ok(Ok(clip)) => clip,
            Ok(Err(e)) => {
                return ring.poison(format!("ingest worker failed on clip {clip_idx}: {e}"))
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return ring.poison(format!("ingest worker panicked on clip {clip_idx}: {msg}"));
            }
        };
        if !place(&ring, clip_idx, clip, busy, cfg.depth as u64) {
            return;
        }
        clip_idx += stride;
    }
}

fn decode_clip(
    reader: &mut IndexedVidReader<File>,
    resizer: &FrameResizer,
    arena: &ClipArena,
    frame_buf: &mut Vec<u8>,
    cfg: &PrefetchConfig,
    clip_idx: u64,
    out_len: usize,
) -> io::Result<ArenaClip> {
    let mut clip = arena.acquire();
    if cfg.fault_clip == Some(clip_idx) {
        panic!("injected decode fault at clip {clip_idx}");
    }
    for f in 0..cfg.clip_depth {
        let frame = clip_idx * cfg.clip_depth as u64 + f as u64;
        reader.read_frame(frame as u32, frame_buf)?;
        resizer.run(
            frame_buf,
            &mut clip.data_mut()[f * out_len..(f + 1) * out_len],
        );
    }
    Ok(clip)
}

/// Parks until ring slot `clip_idx % depth` is free for this clip,
/// then publishes it. Returns `false` on stop/poison.
fn place(ring: &Ring, clip_idx: u64, clip: ArenaClip, busy: Duration, depth: u64) -> bool {
    let slot = (clip_idx % depth) as usize;
    let mut st = ring.lock();
    loop {
        if ring.stop.load(Ordering::SeqCst) || st.failed.is_some() {
            // Dropping `clip` here returns its buffer to the arena.
            return false;
        }
        // The slot must be empty AND within the consumer's window —
        // slot identity alone is not enough, or clip k could land
        // before clip k-depth has even been produced by another worker.
        if st.slots[slot].is_none() && clip_idx < st.next_out + depth {
            st.slots[slot] = Some(clip);
            st.decode_busy += busy;
            drop(st);
            ring.slot_ready.notify_all();
            return true;
        }
        st = ring.slot_free.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// The deliberately simple serial baseline: sequentially reads the
/// whole container with the byte-at-a-time reference CRC, decodes
/// every frame with the allocating reference preprocessor, and builds
/// one `[1, D, H, W]` tensor per clip.
///
/// This is what "decode, then infer" looks like without the streaming
/// data plane — the benchmarks measure the pipeline against it, and
/// the identity tests pin the pipeline's output bitwise to it.
pub fn read_video_clips(
    path: &Path,
    clip_depth: usize,
    cfg: &PreprocessConfig,
) -> io::Result<Vec<Tensor>> {
    cfg.validate()?;
    if clip_depth == 0 {
        return Err(invalid("clip depth must be >= 1"));
    }
    let mut r = VidReader::open_reference(io::BufReader::new(File::open(path)?))?;
    let header = *r.header();
    let (src_w, src_h) = (header.width as usize, header.height as usize);
    let total_clips = header.frames as usize / clip_depth;
    if total_clips == 0 {
        return Err(invalid(format!(
            "container holds {} frames, fewer than one {clip_depth}-frame clip",
            header.frames
        )));
    }
    let mut clips = Vec::with_capacity(total_clips);
    let mut frame_buf = Vec::new();
    for _ in 0..total_clips {
        let mut clip = Vec::with_capacity(clip_depth * cfg.output_len());
        for _ in 0..clip_depth {
            if !r.read_frame_into(&mut frame_buf)? {
                return Err(invalid("container ended mid-clip"));
            }
            clip.extend_from_slice(&decode_frame_reference(&frame_buf, src_w, src_h, cfg));
        }
        clips.push(Tensor::from_vec(
            [1, clip_depth, cfg.crop_h, cfg.crop_w],
            clip,
        ));
    }
    Ok(clips)
}
