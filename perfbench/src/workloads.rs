//! The four workloads. Each builds its reference outputs before timing,
//! sets its engines up several times (timing each set-up up to the first
//! correct result), then runs closed-loop until the deadline, checking
//! every output bitwise against the reference.

use crate::inputs::{micro_shape, IngestGeom, IngestSet, PrunedSet, ServeSet, BATCH, REPLICAS};
use crate::trace::{TimedEngine, Tracer};
use p3d_infer::{
    BatchScheduler, ClipResult, F32Engine, HttpServer, InferenceEngine, ServeConfig, ServeSnapshot,
    ServerConfig, SimEngine,
};
use p3d_nn::{Layer, Mode};
use p3d_video_data::io::{read_video_clips, ClipArena, IngestStats, PrefetchConfig, Prefetcher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections (and threads) of `serve_small`. Two
/// clients phase-lock at random into batched pairs or alternating
/// singles, so their p50 is bimodal across runs; one client is not.
pub const CLIENTS: usize = 1;
/// Clips submitted to the scheduler before each drain in `pruned_*`:
/// one batch, so a clip's latency is its batch's service time.
pub const ROUND: usize = BATCH;
/// Prefetch ring depth and decode workers of `ingest_large`.
pub const PREFETCH_DEPTH: usize = 4;
pub const DECODE_WORKERS: usize = 2;
/// Consecutive completions per throughput segment of `serve_small`.
const SERVE_SEGMENT: usize = 8;
/// Length of the slices latency quantiles are taken over, seconds.
const LATENCY_SLICE_S: f64 = 0.5;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Serve,
    Ingest,
    PrunedF32,
    PrunedSim,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Serve, Kind::Ingest, Kind::PrunedF32, Kind::PrunedSim];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Serve => "serve_small",
            Kind::Ingest => "ingest_large",
            Kind::PrunedF32 => "pruned_f32",
            Kind::PrunedSim => "pruned_sim",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// How one workload run is driven.
pub struct RunOpts {
    pub seconds: f64,
    /// Set-ups to time; the last one's engines serve the measured run.
    pub setups: usize,
    pub tracer: Option<Arc<Tracer>>,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// `(clips, seconds)` per batch, or per 8 consecutive responses, of
    /// the measured run.
    pub segments: Vec<(f64, f64)>,
    /// `(completed at, latency)` per correct clip: seconds since the
    /// measured run began, milliseconds.
    pub samples: Vec<(f64, f64)>,
    pub setup_s: Vec<f64>,
    /// Engine arena grow events during the measured run (traced only).
    pub grow_events: usize,
    pub serve: Option<ServeSnapshot>,
    pub ingest: IngestStats,
}

impl Outcome {
    /// Median throughput over the run's segments.
    pub fn clips_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .segments
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(c, s)| c / s)
            .collect();
        crate::stats::median(&rates)
    }

    /// Latency quantile `q`, ms: the median over the run's
    /// `LATENCY_SLICE_S` slices of each slice's quantile, so a slow spell
    /// of the host moves only the slices it covers.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let slices = (self.wall_s / LATENCY_SLICE_S).floor().max(1.0) as usize;
        let mut per_slice = vec![Vec::new(); slices];
        for &(t, ms) in &self.samples {
            per_slice[((t / LATENCY_SLICE_S) as usize).min(slices - 1)].push(ms);
        }
        let qs: Vec<f64> = per_slice
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| crate::stats::quantile(s, q))
            .collect();
        crate::stats::median(&qs)
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Counts one operation; it failed unless `got` is bitwise `want`.
    fn check_bits(&mut self, got: Option<Vec<u32>>, want: &[u32]) -> bool {
        self.attempted += 1;
        let ok = got.as_deref() == Some(want);
        if !ok {
            self.failed += 1;
        }
        ok
    }

    fn check(&mut self, got: &[f32], want: &[u32]) -> bool {
        self.check_bits(Some(bits(got)), want)
    }
}

pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

type BoxedEngine = Box<dyn InferenceEngine + Send>;

/// Wraps `engine` in a span-recording [`TimedEngine`] when tracing.
fn maybe_timed<E: InferenceEngine + Send + 'static>(
    engine: E,
    tracer: &Option<Arc<Tracer>>,
    grow: fn(&E) -> usize,
) -> (BoxedEngine, Arc<AtomicU64>, Arc<AtomicUsize>) {
    match tracer {
        Some(t) => {
            let timed = TimedEngine::new(engine, Arc::clone(t), grow);
            let (p, g) = (timed.parent_handle(), timed.grow_handle());
            (Box::new(timed), p, g)
        }
        None => (Box::new(engine), Arc::default(), Arc::default()),
    }
}

fn f32_grow(e: &F32Engine) -> usize {
    e.arena_grow_events()
}

/// `SimEngine` exposes no arena counter; its scratch grows once per worker.
fn sim_grow(_: &SimEngine) -> usize {
    0
}

// ---------------------------------------------------------------- serve

pub struct Serve {
    pub set: ServeSet,
    pub refs: Vec<Vec<u32>>,
}

impl Serve {
    pub fn new(seed: u64, pool: usize) -> Serve {
        let set = ServeSet::new(seed, pool);
        let mut engine = F32Engine::new(1, || set.network());
        let refs = engine
            .infer_batch(&set.clips)
            .iter()
            .map(|r| bits(&r.logits))
            .collect();
        Serve { set, refs }
    }

    fn start(&self, tracer: &Option<Arc<Tracer>>) -> (HttpServer, Arc<AtomicUsize>) {
        let engine = F32Engine::new(REPLICAS, || self.set.network());
        let (primary, _, grow) = maybe_timed(engine, tracer, f32_grow);
        let cfg = ServeConfig {
            server: ServerConfig {
                capacity: 1024,
                max_batch: BATCH,
                expected_shape: Some(micro_shape()),
                ..ServerConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = HttpServer::start(cfg, primary, None).expect("bind a loopback port");
        (server, grow)
    }

    pub fn run(&self, opts: &RunOpts) -> Outcome {
        let mut out = Outcome::default();
        let mut kept = None;
        for i in 0..opts.setups.max(1) {
            let t = Instant::now();
            let (server, grow) = self.start(&opts.tracer);
            let mut conn = Conn::open(server.local_addr());
            let got = match conn.call(&self.set.requests[0]) {
                Ok((200, body)) => parse_logits_bits(&body),
                _ => None,
            };
            let ok = out.check_bits(got, &self.refs[0]);
            if ok {
                out.setup_s.push(t.elapsed().as_secs_f64());
            }
            drop(conn);
            if i + 1 == opts.setups.max(1) {
                kept = Some((server, grow));
            } else {
                server.shutdown();
            }
        }
        let (server, grow) = kept.expect("at least one set-up");
        let grow0 = grow.load(Ordering::Relaxed);

        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(opts.seconds);
        let addr = server.local_addr();
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || self.client(addr, c, t0, deadline, opts.tracer.as_deref()))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        out.wall_s = t0.elapsed().as_secs_f64();
        for log in logs {
            out.attempted += log.attempted;
            out.failed += log.failed;
            out.samples.extend(log.samples);
        }
        let mut done: Vec<f64> = out.samples.iter().map(|&(t, _)| t).collect();
        done.sort_by(|a, b| a.total_cmp(b));
        out.segments = done
            .chunks_exact(SERVE_SEGMENT)
            .map(|c| (c.len() as f64 - 1.0, c[c.len() - 1] - c[0]))
            .collect();
        out.grow_events = grow.load(Ordering::Relaxed) - grow0;
        out.serve = Some(server.shutdown());
        out
    }

    fn client(
        &self,
        addr: SocketAddr,
        c: usize,
        t0: Instant,
        deadline: Instant,
        tracer: Option<&Tracer>,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        let mut conn = Conn::open(addr);
        let n = self.set.requests.len();
        let mut k = c;
        while Instant::now() < deadline {
            let i = k % n;
            k += CLIENTS;
            let id = tracer.map(|t| t.next_id()).unwrap_or(0);
            let start_ns = tracer.map(|t| t.now()).unwrap_or(0);
            let start = Instant::now();
            let reply = conn.call(&self.set.requests[i]);
            let end = Instant::now();
            if let Some(t) = tracer {
                t.record("http.request", id, id, None, start_ns, 1);
            }
            log.attempted += 1;
            match reply {
                Ok((200, body))
                    if parse_logits_bits(&body).as_deref() == Some(&self.refs[i][..]) =>
                {
                    let latency_ms = (end - start).as_secs_f64() * 1e3;
                    log.samples.push(((end - t0).as_secs_f64(), latency_ms));
                }
                Ok(_) => log.failed += 1,
                Err(_) => {
                    log.failed += 1;
                    conn = Conn::open(addr);
                }
            }
        }
        log
    }
}

#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    samples: Vec<(f64, f64)>,
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone socket")),
            writer: stream,
        }
    }

    /// Writes one framed request and reads the whole response.
    fn call(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut line = Vec::new();
        let mut status = 0u16;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_until(b'\n', &mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let text = String::from_utf8_lossy(&line);
            let text = text.trim_end();
            if text.is_empty() {
                break;
            }
            if status == 0 {
                status = text
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
            } else if let Some((k, v)) = text.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Extracts the `logits_bits` array of a `/v1/infer` JSON response.
pub fn parse_logits_bits(body: &[u8]) -> Option<Vec<u32>> {
    let text = std::str::from_utf8(body).ok()?;
    let key = "\"logits_bits\":";
    let rest = &text[text.find(key)? + key.len()..];
    let list = &rest[rest.find('[')? + 1..rest.find(']')?];
    list.split(',').map(|v| v.trim().parse().ok()).collect()
}

// --------------------------------------------------------------- ingest

pub struct Ingest {
    pub set: IngestSet,
    pub path: PathBuf,
    pub refs: Vec<Vec<u32>>,
}

impl Ingest {
    /// Writes the container to `path` and decodes it serially for the
    /// reference logits.
    pub fn new(seed: u64, geom: IngestGeom, path: &Path) -> Ingest {
        let set = IngestSet::new(seed, geom);
        std::fs::write(path, &set.container).expect("write the source container");
        let clips =
            read_video_clips(path, geom.clip_depth, &geom.preprocess).expect("serial decode");
        let mut net = set.network();
        let [c, d, h, w] = geom.clip_shape();
        let refs = clips
            .iter()
            .map(|clip| {
                bits(
                    net.forward(&clip.reshape([1, c, d, h, w]), Mode::Eval)
                        .data(),
                )
            })
            .collect();
        Ingest {
            set,
            path: path.to_path_buf(),
            refs,
        }
    }

    fn prefetch_config(&self) -> PrefetchConfig {
        PrefetchConfig {
            depth: PREFETCH_DEPTH,
            workers: DECODE_WORKERS,
            clip_depth: self.set.geom.clip_depth,
            preprocess: self.set.geom.preprocess,
            fault_clip: None,
        }
    }

    pub fn run(&self, opts: &RunOpts) -> Outcome {
        let mut out = Outcome::default();
        let mut rig = None;
        for _ in 0..opts.setups.max(1) {
            let t = Instant::now();
            let engine = F32Engine::new(REPLICAS, || self.set.network());
            let (mut engine, parent, grow) = maybe_timed(engine, &opts.tracer, f32_grow);
            let arena = ClipArena::new(
                self.set.geom.clip_shape(),
                PREFETCH_DEPTH + DECODE_WORKERS + BATCH,
            );
            let mut pipe = Prefetcher::open(&self.path, self.prefetch_config(), arena.clone())
                .expect("open prefetcher");
            let mut batch = Vec::with_capacity(BATCH);
            while batch.len() < BATCH {
                let clip = pipe
                    .next_clip()
                    .expect("decode")
                    .expect("container holds a batch");
                batch.push(clip.into_tensor());
            }
            let results = engine.infer_batch(&batch);
            let ok = results
                .iter()
                .zip(&self.refs)
                .fold(true, |ok, (r, want)| out.check(&r.logits, want) && ok);
            if ok {
                out.setup_s.push(t.elapsed().as_secs_f64());
            }
            for t in batch {
                arena.release_tensor(t);
            }
            rig = Some((engine, parent, grow, arena));
        }
        let (mut engine, parent, grow, arena) = rig.expect("at least one set-up");
        let grow0 = grow.load(Ordering::Relaxed);

        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(opts.seconds);
        let mut results = vec![ClipResult::default(); BATCH];
        while Instant::now() < deadline {
            // A pass's first batch also pays for opening the prefetcher;
            // `setup_s` is where that cost shows.
            let mut last = Instant::now();
            let mut pipe = Prefetcher::open(&self.path, self.prefetch_config(), arena.clone())
                .expect("open prefetcher");
            let mut index = 0usize;
            let mut batch = Vec::with_capacity(BATCH);
            let mut asked = Vec::with_capacity(BATCH);
            let mut trace_no = 0u64;
            loop {
                let tracer = opts.tracer.as_deref();
                let batch_id = tracer.map(|t| t.next_id()).unwrap_or(0);
                let batch_start = tracer.map(|t| t.now()).unwrap_or(0);
                while batch.len() < BATCH {
                    asked.push(Instant::now());
                    let next = match tracer {
                        Some(t) => t.span("ingest.next_clip", trace_no, Some(batch_id), 1, |_| {
                            pipe.next_clip()
                        }),
                        None => pipe.next_clip(),
                    };
                    match next.expect("decode") {
                        Some(clip) => batch.push(clip.into_tensor()),
                        None => {
                            asked.pop();
                            break;
                        }
                    }
                }
                if batch.is_empty() {
                    break;
                }
                parent.store(batch_id, Ordering::Relaxed);
                let slots = &mut results[..batch.len()];
                engine.infer_batch_into(&batch, slots);
                let done = Instant::now();
                for (k, r) in slots.iter().enumerate() {
                    if out.check(&r.logits, &self.refs[index + k]) {
                        out.samples.push((
                            (done - t0).as_secs_f64(),
                            (done - asked[k]).as_secs_f64() * 1e3,
                        ));
                    }
                }
                let n = batch.len();
                out.segments.push((n as f64, (done - last).as_secs_f64()));
                last = done;
                index += n;
                for t in batch.drain(..) {
                    arena.release_tensor(t);
                }
                asked.clear();
                if let Some(t) = tracer {
                    t.record(
                        "ingest.batch",
                        trace_no,
                        batch_id,
                        None,
                        batch_start,
                        n as u64,
                    );
                }
                trace_no += 1;
            }
            let s = pipe.stats();
            let agg = &mut out.ingest;
            agg.clips += s.clips;
            agg.frames += s.frames;
            agg.src_bytes += s.src_bytes;
            agg.decode_busy_s += s.decode_busy_s;
            agg.consumer_wait_s += s.consumer_wait_s;
            agg.arena_grow_events += s.arena_grow_events;
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        out.grow_events = grow.load(Ordering::Relaxed) - grow0;
        out
    }
}

// --------------------------------------------------------------- pruned

pub struct Pruned {
    pub set: PrunedSet,
    pub sim: bool,
    pub refs: Vec<Vec<u32>>,
}

impl Pruned {
    /// `sim` selects the Q7.8 simulator engine; the reference is then a
    /// sequential functional forward, else a dense `F32Engine` on the
    /// same pruned weights.
    pub fn new(set: PrunedSet, sim: bool) -> Pruned {
        let refs = if sim {
            let q = set.quantized();
            let mut scratch = p3d_fpga::sim::SimScratch::new();
            set.clips
                .iter()
                .map(|c| {
                    bits(
                        &q.forward_functional_with_scratch(c, &set.pruned, &mut scratch)
                            .logits,
                    )
                })
                .collect()
        } else {
            let mut dense = F32Engine::new(REPLICAS, || set.network());
            dense
                .infer_batch(&set.clips)
                .iter()
                .map(|r| bits(&r.logits))
                .collect()
        };
        Pruned { set, sim, refs }
    }

    fn engine(
        &self,
        tracer: &Option<Arc<Tracer>>,
    ) -> (BoxedEngine, Arc<AtomicU64>, Arc<AtomicUsize>) {
        if self.sim {
            let engine = SimEngine::new(self.set.quantized(), self.set.pruned.clone());
            maybe_timed(engine, tracer, sim_grow)
        } else {
            let engine = F32Engine::new_pruned(REPLICAS, || self.set.network(), &self.set.pruned);
            maybe_timed(engine, tracer, f32_grow)
        }
    }

    pub fn run(&self, opts: &RunOpts) -> Outcome {
        let mut out = Outcome::default();
        let mut sched = BatchScheduler::new(BATCH);
        let mut rig = None;
        for _ in 0..opts.setups.max(1) {
            let t = Instant::now();
            let (mut engine, parent, grow) = self.engine(&opts.tracer);
            for clip in &self.set.clips[..BATCH] {
                sched.submit(clip.clone());
            }
            let run = sched.drain(engine.as_mut());
            let ok = run
                .results
                .iter()
                .zip(&self.refs)
                .fold(true, |ok, (r, want)| out.check(&r.logits, want) && ok);
            if ok {
                out.setup_s.push(t.elapsed().as_secs_f64());
            }
            rig = Some((engine, parent, grow));
        }
        let (mut engine, parent, grow) = rig.expect("at least one set-up");
        let grow0 = grow.load(Ordering::Relaxed);

        let n = self.set.clips.len();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(opts.seconds);
        let mut k = 0usize;
        let mut round = 0u64;
        while Instant::now() < deadline {
            let start = Instant::now();
            let first = k;
            let tracer = opts.tracer.as_deref();
            for _ in 0..ROUND {
                let clip = self.set.clips[k % n].clone();
                match tracer {
                    Some(t) => t.span("scheduler.submit", round, None, 1, |_| sched.submit(clip)),
                    None => sched.submit(clip),
                }
                k += 1;
            }
            let run = match tracer {
                Some(t) => t.span("scheduler.drain", round, None, ROUND as u64, |id| {
                    parent.store(id, Ordering::Relaxed);
                    sched.drain(engine.as_mut())
                }),
                None => sched.drain(engine.as_mut()),
            };
            for (j, r) in run.results.iter().enumerate() {
                if out.check(&r.logits, &self.refs[(first + j) % n]) {
                    out.samples
                        .push((t0.elapsed().as_secs_f64(), run.latencies_ms[j]));
                }
            }
            out.segments
                .push((ROUND as f64, start.elapsed().as_secs_f64()));
            round += 1;
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        out.grow_events = grow.load(Ordering::Relaxed) - grow0;
        out
    }
}

/// One workload with its inputs and references, ready to run.
pub enum Workload {
    Serve(Serve),
    Ingest(Ingest),
    Pruned(Pruned),
}

/// Input pool sizes: distinct clips per workload.
pub const SERVE_POOL: usize = 256;
pub const PRUNED_POOL: usize = 64;

impl Workload {
    /// Generates the inputs of `kind` from `seed` and computes its
    /// references. `work_dir` holds the ingest container.
    pub fn prepare(kind: Kind, seed: u64, work_dir: &Path) -> Workload {
        match kind {
            Kind::Serve => Workload::Serve(Serve::new(seed, SERVE_POOL)),
            Kind::Ingest => Workload::Ingest(Ingest::new(
                seed,
                IngestGeom::standard(),
                &work_dir.join("source.p3dvid"),
            )),
            Kind::PrunedF32 => {
                Workload::Pruned(Pruned::new(PrunedSet::new(seed, PRUNED_POOL), false))
            }
            Kind::PrunedSim => {
                Workload::Pruned(Pruned::new(PrunedSet::new(seed, PRUNED_POOL), true))
            }
        }
    }

    pub fn run(&self, opts: &RunOpts) -> Outcome {
        match self {
            Workload::Serve(w) => w.run(opts),
            Workload::Ingest(w) => w.run(opts),
            Workload::Pruned(w) => w.run(opts),
        }
    }

    /// Flips one bit of the first reference output.
    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        let refs = match self {
            Workload::Serve(w) => &mut w.refs,
            Workload::Ingest(w) => &mut w.refs,
            Workload::Pruned(w) => &mut w.refs,
        };
        refs[0][0] ^= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> RunOpts {
        RunOpts {
            seconds: 0.3,
            setups: 1,
            tracer: None,
        }
    }

    /// Every workload is correct on its own references, and a single
    /// flipped reference bit shows up as failures.
    #[test]
    fn a_corrupted_reference_bit_raises_fail_ratio() {
        let dir = std::env::temp_dir().join(format!("p3d-perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let geom = IngestGeom {
            src_w: 64,
            src_h: 36,
            clips: 16,
            ..IngestGeom::standard()
        };
        let mut all = vec![
            Workload::Serve(Serve::new(3, 8)),
            Workload::Ingest(Ingest::new(3, geom, &dir.join("t.p3dvid"))),
            Workload::Pruned(Pruned::new(PrunedSet::new(3, 16), false)),
            Workload::Pruned(Pruned::new(PrunedSet::new(3, 16), true)),
        ];
        for w in &mut all {
            let clean = w.run(&opts());
            assert!(clean.attempted > 0);
            assert_eq!(clean.fail_ratio(), 0.0);
            w.corrupt_reference();
            let bad = w.run(&opts());
            assert!(bad.fail_ratio() > 0.0, "corruption went unnoticed");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_logits_bits() {
        let body = br#"{"index": 0, "logits": [1.5, -2], "logits_bits": [1069547520, 3221225472]}"#;
        assert_eq!(parse_logits_bits(body), Some(vec![1069547520, 3221225472]));
        assert_eq!(parse_logits_bits(b"{}"), None);
    }
}
