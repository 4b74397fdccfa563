//! Fault-tolerant serving: validation, backpressure, deadlines, retry,
//! quarantine, and graceful degradation.
//!
//! [`ResilientServer`] wraps the supervised engine API
//! ([`crate::InferenceEngine::infer_batch_supervised`]) with the serving
//! policies the plain [`crate::BatchScheduler`] deliberately omits:
//!
//! * **Admission control** — every clip is validated
//!   ([`validate_clip`]) before it touches an engine, and the queue is
//!   bounded: a full queue sheds the *newest* request with a typed
//!   [`InferError::Overloaded`] instead of growing without bound.
//! * **Deadlines** — a request may carry a deadline. Expired requests
//!   are shed at batch formation without computing
//!   ([`InferError::DeadlineExpired`]); requests that complete late are
//!   served but flagged (`deadline_missed`).
//! * **Retry and quarantine** — a worker panic marks one slot faulted;
//!   the request is re-delivered with seeded backoff until it either
//!   succeeds, exhausts its retries, or has killed
//!   [`ServerConfig::quarantine_after`] workers — at which point it is
//!   quarantined as poison ([`InferError::Quarantined`]) rather than
//!   looping forever.
//! * **Graceful degradation** — when the Q7.8 backend reports a
//!   saturation rate above [`ServerConfig::saturation_threshold`], or a
//!   numeric activation sentinel trips, the request is re-served on the
//!   fallback (f32) engine and the response records the provenance
//!   (`fell_back`, `backend`).
//!
//! Every submitted request resolves **exactly once** — as a success, a
//! typed rejection, or a quarantine. Every response is emitted through
//! one place, which also counts it in the run's [`ErrorBudget`]
//! ([`ErrorBudget::resolve`]), so the budget's partition balances by
//! construction ([`ErrorBudget::balanced`]). Responses for
//! non-faulted requests are bitwise identical to an unsupervised run at
//! any thread count, because each clip is still computed in full by one
//! worker and collected by index.

use crate::chaos::FaultPlan;
use crate::engine::{ClipResult, InferenceEngine, SlotCtx, SupervisedSlot};
use crate::stats::{ErrorBudget, LatencyStats, Resolution};
use p3d_tensor::Tensor;
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

/// A typed serving error; every rejected or abandoned request carries
/// exactly one of these.
#[derive(Clone, Debug, PartialEq)]
pub enum InferError {
    /// The clip holds no data.
    EmptyClip,
    /// The clip is not rank-4 `[C, D, H, W]`.
    BadRank {
        /// Rank actually submitted.
        got: usize,
    },
    /// The clip's shape does not match the server's expected shape.
    ShapeMismatch {
        /// Shape the server was configured to expect.
        expected: [usize; 4],
        /// Shape actually submitted.
        got: Vec<usize>,
    },
    /// The clip contains a NaN or infinity.
    NonFinite {
        /// Flat index of the first offending element.
        index: usize,
    },
    /// The admission queue was full; the request was shed.
    Overloaded {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request's deadline expired before a worker picked it up.
    DeadlineExpired,
    /// The request was abandoned as poison: it killed too many workers
    /// or exhausted its retries.
    Quarantined {
        /// Delivery attempts made before giving up.
        attempts: u32,
        /// Workers this request crashed.
        workers_killed: u32,
        /// The last fault's message.
        message: String,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::EmptyClip => write!(f, "clip holds no data"),
            InferError::BadRank { got } => {
                write!(f, "expected a rank-4 [C, D, H, W] clip, got rank {got}")
            }
            InferError::ShapeMismatch { expected, got } => write!(
                f,
                "clip shape {got:?} does not match expected {expected:?}"
            ),
            InferError::NonFinite { index } => {
                write!(f, "clip contains a non-finite value at element {index}")
            }
            InferError::Overloaded { capacity } => {
                write!(f, "server overloaded: queue at capacity {capacity}")
            }
            InferError::DeadlineExpired => write!(f, "deadline expired before service"),
            InferError::Quarantined {
                attempts,
                workers_killed,
                message,
            } => write!(
                f,
                "quarantined after {attempts} attempts ({workers_killed} workers killed): {message}"
            ),
        }
    }
}

impl std::error::Error for InferError {}

/// Validates a clip at the serving boundary, before any engine sees it.
///
/// Rejects empty data, wrong rank, a shape differing from `expected`
/// (when given), and non-finite elements — each with a typed error that
/// names the problem.
pub fn validate_clip(clip: &Tensor, expected: Option<[usize; 4]>) -> Result<(), InferError> {
    if clip.data().is_empty() {
        return Err(InferError::EmptyClip);
    }
    let s = clip.shape();
    if s.rank() != 4 {
        return Err(InferError::BadRank { got: s.rank() });
    }
    if let Some(exp) = expected {
        if s.dims() != exp {
            return Err(InferError::ShapeMismatch {
                expected: exp,
                got: s.dims().to_vec(),
            });
        }
    }
    if let Some(index) = clip.data().iter().position(|v| !v.is_finite()) {
        return Err(InferError::NonFinite { index });
    }
    Ok(())
}

/// One clip plus its serving options.
#[derive(Clone, Debug)]
pub struct Request {
    clip: Tensor,
    deadline: Option<Duration>,
    max_retries: Option<u32>,
}

impl Request {
    /// A request with the server's default deadline and retry budget.
    pub fn new(clip: Tensor) -> Self {
        Request {
            clip,
            deadline: None,
            max_retries: None,
        }
    }

    /// Sets a per-request deadline (from submission), builder-style.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the server's retry budget for this request.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = Some(max_retries);
        self
    }
}

/// Serving policy knobs with conservative defaults.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Admission queue capacity; submissions beyond it are shed.
    pub capacity: usize,
    /// Largest batch handed to the engine at once.
    pub max_batch: usize,
    /// When set, submitted clips must have exactly this shape.
    pub expected_shape: Option<[usize; 4]>,
    /// Default deadline applied to requests that don't set their own
    /// (`None` = no deadline).
    pub default_deadline: Option<Duration>,
    /// Re-deliveries allowed after transient worker failures.
    pub max_retries: u32,
    /// A request that crashes this many workers is quarantined as
    /// poison even if retries remain.
    pub quarantine_after: u32,
    /// Q7.8 saturation rate above which a clip is re-served on the
    /// fallback engine.
    pub saturation_threshold: f64,
    /// Base for the exponential retry backoff, milliseconds (`0`
    /// disables waiting — useful in tests).
    pub backoff_base_ms: u64,
    /// Seed for the backoff jitter; fixed seed, fixed schedule.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: 256,
            max_batch: 8,
            expected_shape: None,
            default_deadline: None,
            max_retries: 2,
            quarantine_after: 2,
            // A healthy Q7.8 run rails essentially nothing (the input
            // and weight quantisers keep magnitudes in range), so even
            // a ~1% saturated-output rate marks a railed clip.
            saturation_threshold: 0.01,
            backoff_base_ms: 1,
            seed: 0,
        }
    }
}

/// The resolution of one submitted request.
#[derive(Clone, Debug)]
pub struct Response {
    /// Submission index (0-based, dense across all submissions).
    pub index: usize,
    /// The result, or the typed error that resolved the request.
    pub outcome: Result<ClipResult, InferError>,
    /// Name of the backend that produced the result (`"none"` for
    /// requests rejected before any engine ran).
    pub backend: String,
    /// `true` when the result came from the fallback engine.
    pub fell_back: bool,
    /// Delivery attempts made (0 for requests rejected at submission).
    pub attempts: u32,
    /// Submission-to-resolution latency.
    pub latency_ms: f64,
    /// `true` when the request completed after its deadline.
    pub deadline_missed: bool,
    /// Q7.8 saturation rate observed on the *primary* attempt (0.0 on
    /// f32 backends).
    pub saturation: f64,
    /// Content hash of the model version that produced the result
    /// (`"none"` for requests no engine answered, `"unkeyed"` when the
    /// server runs without a registry).
    pub model_hash: String,
}

impl Response {
    /// A response no engine answered: a rejection, an expiry or a
    /// quarantine. Backend and model hash are `"none"`; the flag
    /// `deadline_missed` is set for an expiry only.
    fn unserved(index: usize, error: InferError, attempts: u32, latency_ms: f64) -> Response {
        let deadline_missed = error == InferError::DeadlineExpired;
        Response {
            index,
            outcome: Err(error),
            backend: "none".to_string(),
            fell_back: false,
            attempts,
            latency_ms,
            deadline_missed,
            saturation: 0.0,
            model_hash: "none".to_string(),
        }
    }

    /// A completed response with no attempts, latency, fallback or
    /// saturation recorded yet (a response-cache hit needs none).
    pub(crate) fn served(
        index: usize,
        result: ClipResult,
        backend: String,
        model_hash: String,
    ) -> Response {
        Response {
            index,
            outcome: Ok(result),
            backend,
            fell_back: false,
            attempts: 0,
            latency_ms: 0.0,
            deadline_missed: false,
            saturation: 0.0,
            model_hash,
        }
    }
}

/// Everything a drained resilient run produced.
#[derive(Clone, Debug, Default)]
pub struct ResilientRun {
    /// One response per submitted request, sorted by index.
    pub responses: Vec<Response>,
    /// Wall-clock seconds spent draining.
    pub wall_s: f64,
    /// Engine batches dispatched.
    pub batches: usize,
    /// The run's error accounting.
    pub budget: ErrorBudget,
}

impl ResilientRun {
    /// Latencies of the *completed* requests, in submission order.
    pub fn completed_latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.responses
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(|r| r.latency_ms)
    }

    /// Latency summary over *completed* requests.
    pub fn latency_stats(&self) -> LatencyStats {
        let lats: Vec<f64> = self.completed_latencies_ms().collect();
        LatencyStats::from_latencies_ms(&lats)
    }
}

/// `splitmix64` step for the backoff jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// An admitted request waiting for (re-)delivery.
struct Pending {
    index: usize,
    clip: Tensor,
    submitted: Instant,
    deadline: Option<Instant>,
    attempts: u32,
    workers_killed: u32,
    max_retries: u32,
    not_before: Instant,
}

impl Pending {
    /// Milliseconds since submission.
    fn latency_ms(&self) -> f64 {
        self.submitted.elapsed().as_secs_f64() * 1e3
    }
}

/// A bounded, deadline-aware, fault-tolerant request server.
///
/// Submit requests with [`ResilientServer::submit`], then resolve them
/// all with [`ResilientServer::drain`]. The server owns no engine —
/// primary and fallback backends are passed to `drain`, mirroring
/// [`crate::BatchScheduler`].
pub struct ResilientServer {
    cfg: ServerConfig,
    queue: VecDeque<Pending>,
    next_index: usize,
    budget: ErrorBudget,
    /// Responses emitted since the last drain, each already counted in
    /// `budget`; rejections at submission wait here for the next drain.
    resolved: Vec<Response>,
    rng_state: u64,
    /// Content hash stamped on completed responses as provenance.
    model_hash: String,
}

impl ResilientServer {
    /// A server with the given policy.
    pub fn new(cfg: ServerConfig) -> Self {
        let seed = cfg.seed ^ 0x5e51_11e4_7ba2_c0de;
        ResilientServer {
            cfg,
            queue: VecDeque::new(),
            next_index: 0,
            budget: ErrorBudget::default(),
            resolved: Vec::new(),
            rng_state: seed,
            model_hash: "unkeyed".to_string(),
        }
    }

    /// Sets the content hash stamped on every completed response. The
    /// HTTP hot-swap path calls this at switch time so provenance
    /// follows the serving model.
    pub fn set_model_hash(&mut self, hash: impl Into<String>) {
        self.model_hash = hash.into();
    }

    /// The content hash currently stamped on completed responses.
    pub fn model_hash(&self) -> &str {
        &self.model_hash
    }

    /// A server with [`ServerConfig::default`].
    pub fn with_defaults() -> Self {
        ResilientServer::new(ServerConfig::default())
    }

    /// The serving policy in force.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offers a request. Returns its submission index when admitted; a
    /// typed error when validation fails or the queue is full. Either
    /// way the request consumes an index and will appear exactly once
    /// in the next [`ResilientServer::drain`]'s responses.
    pub fn submit(&mut self, request: Request) -> Result<usize, InferError> {
        let index = self.next_index;
        self.next_index += 1;
        let rejection = match validate_clip(&request.clip, self.cfg.expected_shape) {
            Err(e) => Some(e),
            Ok(()) if self.queue.len() >= self.cfg.capacity => Some(InferError::Overloaded {
                capacity: self.cfg.capacity,
            }),
            Ok(()) => None,
        };
        if let Some(e) = rejection {
            self.resolve(Response::unserved(index, e.clone(), 0, 0.0));
            return Err(e);
        }
        let now = Instant::now();
        let deadline = request
            .deadline
            .or(self.cfg.default_deadline)
            .map(|d| now + d);
        self.queue.push_back(Pending {
            index,
            clip: request.clip,
            submitted: now,
            deadline,
            attempts: 0,
            workers_killed: 0,
            max_retries: request.max_retries.unwrap_or(self.cfg.max_retries),
            not_before: now,
        });
        Ok(index)
    }

    /// Convenience: submit a bare clip with default options.
    pub fn submit_clip(&mut self, clip: Tensor) -> Result<usize, InferError> {
        self.submit(Request::new(clip))
    }

    /// Next backoff wait for a retry: exponential in the attempt count
    /// with seeded jitter, so a fixed seed gives a fixed schedule.
    fn backoff(&mut self, attempts: u32) -> Duration {
        let base = self.cfg.backoff_base_ms;
        if base == 0 {
            return Duration::ZERO;
        }
        let exp = base.saturating_mul(1u64 << attempts.min(6));
        let jitter = splitmix64(&mut self.rng_state) % base.max(1);
        Duration::from_millis(exp + jitter)
    }

    /// Resolves every queued request against `primary`, degrading to
    /// `fallback` on saturation anomalies and sentinel trips, with
    /// `chaos` faults (if any) injected into `primary`'s workers only.
    ///
    /// Returns when the queue is empty: every admitted request has
    /// completed, expired, or been quarantined, and every early
    /// rejection is included — one response per submission index.
    pub fn drain(
        &mut self,
        primary: &mut dyn InferenceEngine,
        mut fallback: Option<&mut dyn InferenceEngine>,
        chaos: Option<&FaultPlan>,
    ) -> ResilientRun {
        let start = Instant::now();
        let mut batches = 0usize;
        let mut slots: Vec<SupervisedSlot> = Vec::new();
        while !self.queue.is_empty() {
            // ---- batch formation ----------------------------------
            let now = Instant::now();
            let mut batch: Vec<Pending> = Vec::new();
            let mut deferred: Vec<Pending> = Vec::new();
            while batch.len() < self.cfg.max_batch {
                let Some(p) = self.queue.pop_front() else {
                    break;
                };
                if p.deadline.is_some_and(|d| now >= d) {
                    // Shed without computing: the deadline passed while
                    // the request sat in the queue.
                    self.resolve(Response::unserved(
                        p.index,
                        InferError::DeadlineExpired,
                        p.attempts,
                        p.latency_ms(),
                    ));
                } else if p.not_before > now {
                    deferred.push(p);
                } else {
                    batch.push(p);
                }
            }
            // Deferred requests keep their queue position.
            for p in deferred.into_iter().rev() {
                self.queue.push_front(p);
            }
            if batch.is_empty() {
                if let Some(earliest) = self.queue.iter().map(|p| p.not_before).min() {
                    let wait = earliest.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                }
                continue;
            }
            // ---- supervised dispatch ------------------------------
            batches += 1;
            let clips: Vec<Tensor> = batch.iter().map(|p| p.clip.clone()).collect();
            let ctx: Vec<SlotCtx> = batch
                .iter()
                .map(|p| SlotCtx {
                    index: p.index,
                    attempt: p.attempts,
                })
                .collect();
            slots.clear();
            slots.resize(batch.len(), Ok((ClipResult::default(), 0.0)));
            let report = primary.infer_batch_supervised(&clips, &ctx, chaos, &mut slots);
            self.budget.worker_restarts += report.worker_restarts as u64;
            // ---- per-slot resolution ------------------------------
            for (mut p, slot) in batch.into_iter().zip(slots.drain(..)) {
                p.attempts += 1;
                match slot {
                    Ok((result, saturation)) => {
                        let (result, backend, fell_back) =
                            if saturation > self.cfg.saturation_threshold {
                                // The Q7.8 datapath railed on this clip;
                                // re-serve it on the exact backend.
                                match fallback.as_deref_mut() {
                                    Some(fb) => {
                                        self.budget.fallbacks += 1;
                                        let r = Self::serve_on_fallback(fb, &p.clip);
                                        (r, fb.name().to_string(), true)
                                    }
                                    None => (result, primary.name().to_string(), false),
                                }
                            } else {
                                (result, primary.name().to_string(), false)
                            };
                        self.complete(p, result, backend, fell_back, saturation);
                    }
                    Err(fault) => {
                        self.budget.worker_failures += 1;
                        if fault.is_sentinel() {
                            // Deterministic numeric failure: retrying the
                            // same clip re-trips the sentinel, so degrade
                            // immediately (or quarantine when we can't).
                            self.budget.sentinel_trips += 1;
                            match fallback.as_deref_mut() {
                                Some(fb) => {
                                    self.budget.fallbacks += 1;
                                    let r = Self::serve_on_fallback(fb, &p.clip);
                                    let backend = fb.name().to_string();
                                    self.complete(p, r, backend, true, 0.0);
                                }
                                None => {
                                    self.quarantine(p, fault.message);
                                }
                            }
                            continue;
                        }
                        // A crash: the worker is already restarted by the
                        // engine; decide the request's fate.
                        p.workers_killed += 1;
                        if p.workers_killed >= self.cfg.quarantine_after
                            || p.attempts > p.max_retries
                        {
                            self.quarantine(p, fault.message);
                        } else {
                            self.budget.retries += 1;
                            p.not_before = Instant::now() + self.backoff(p.attempts);
                            self.queue.push_back(p);
                        }
                    }
                }
            }
        }
        let mut responses = std::mem::take(&mut self.resolved);
        responses.sort_by_key(|r| r.index);
        ResilientRun {
            responses,
            wall_s: start.elapsed().as_secs_f64(),
            batches,
            budget: std::mem::take(&mut self.budget),
        }
    }

    /// Runs one clip on the fallback engine (no chaos: injected faults
    /// target primary workers). A fallback fault would surface as a
    /// panic here — the fallback is the last rung of the ladder.
    fn serve_on_fallback(fb: &mut dyn InferenceEngine, clip: &Tensor) -> ClipResult {
        let mut out = [ClipResult::default()];
        fb.infer_batch_into(std::slice::from_ref(clip), &mut out);
        let [result] = out;
        result
    }

    /// Emits a response: the one place a request is counted in the
    /// budget, exactly once, by its outcome.
    fn resolve(&mut self, response: Response) {
        self.budget.resolve(Resolution::of(&response.outcome));
        self.resolved.push(response);
    }

    /// Emits a completed response, flagging late completion.
    fn complete(
        &mut self,
        p: Pending,
        result: ClipResult,
        backend: String,
        fell_back: bool,
        saturation: f64,
    ) {
        let missed = p.deadline.is_some_and(|d| Instant::now() > d);
        if missed {
            self.budget.deadline_missed += 1;
        }
        let mut response = Response::served(p.index, result, backend, self.model_hash.clone());
        response.fell_back = fell_back;
        response.attempts = p.attempts;
        response.latency_ms = p.latency_ms();
        response.deadline_missed = missed;
        response.saturation = saturation;
        self.resolve(response);
    }

    /// Emits a quarantine response for a poison request.
    fn quarantine(&mut self, p: Pending, message: String) {
        let error = InferError::Quarantined {
            attempts: p.attempts,
            workers_killed: p.workers_killed,
            message,
        };
        self.resolve(Response::unserved(
            p.index,
            error,
            p.attempts,
            p.latency_ms(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SupervisionReport;

    /// A trivial deterministic engine: logits are `[lead, 0]` where
    /// `lead` is the clip's first element.
    struct Echo;
    impl InferenceEngine for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
            for (clip, slot) in clips.iter().zip(out.iter_mut()) {
                slot.logits = vec![clip.data()[0], 0.0];
                slot.prediction = crate::argmax(&slot.logits);
            }
        }
    }

    /// An engine that reports a fixed saturation rate for every clip.
    struct Saturating(f64);
    impl InferenceEngine for Saturating {
        fn name(&self) -> &str {
            "sat"
        }
        fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
            Echo.infer_batch_into(clips, out);
        }
        fn infer_batch_supervised(
            &mut self,
            clips: &[Tensor],
            ctx: &[SlotCtx],
            chaos: Option<&FaultPlan>,
            out: &mut [SupervisedSlot],
        ) -> SupervisionReport {
            let report = Echo.infer_batch_supervised(clips, ctx, chaos, out);
            for (_, sat) in out.iter_mut().flatten() {
                *sat = self.0;
            }
            report
        }
    }

    fn clip(lead: f32) -> Tensor {
        Tensor::from_vec([1, 1, 1, 2], vec![lead, 0.25])
    }

    #[test]
    fn validation_rejects_each_malformed_input() {
        let rank3 = Tensor::from_vec([1, 2, 2], vec![0.0; 4]);
        assert_eq!(
            validate_clip(&rank3, None),
            Err(InferError::BadRank { got: 3 })
        );
        let wrong = Tensor::from_vec([1, 1, 2, 2], vec![0.0; 4]);
        assert_eq!(
            validate_clip(&wrong, Some([1, 1, 1, 2])),
            Err(InferError::ShapeMismatch {
                expected: [1, 1, 1, 2],
                got: vec![1, 1, 2, 2],
            })
        );
        let nan = Tensor::from_vec([1, 1, 1, 2], vec![0.0, f32::NAN]);
        assert_eq!(
            validate_clip(&nan, None),
            Err(InferError::NonFinite { index: 1 })
        );
        let inf = Tensor::from_vec([1, 1, 1, 2], vec![f32::INFINITY, 0.0]);
        assert_eq!(
            validate_clip(&inf, None),
            Err(InferError::NonFinite { index: 0 })
        );
        assert_eq!(validate_clip(&clip(1.0), Some([1, 1, 1, 2])), Ok(()));
    }

    #[test]
    fn full_queue_sheds_newest_with_typed_error() {
        let mut server = ResilientServer::new(ServerConfig {
            capacity: 2,
            backoff_base_ms: 0,
            ..ServerConfig::default()
        });
        assert_eq!(server.submit_clip(clip(1.0)), Ok(0));
        assert_eq!(server.submit_clip(clip(2.0)), Ok(1));
        assert_eq!(
            server.submit_clip(clip(3.0)),
            Err(InferError::Overloaded { capacity: 2 })
        );
        let run = server.drain(&mut Echo, None, None);
        assert_eq!(run.responses.len(), 3, "shed requests still resolve");
        assert_eq!(run.budget.submitted, 3);
        assert_eq!(run.budget.admitted, 2);
        assert_eq!(run.budget.shed_overload, 1);
        assert_eq!(run.budget.completed, 2);
        assert!(run.budget.balanced(), "budget must partition: {:?}", run.budget);
        assert!(matches!(
            run.responses[2].outcome,
            Err(InferError::Overloaded { .. })
        ));
    }

    #[test]
    fn invalid_submissions_resolve_with_their_error() {
        let mut server = ResilientServer::new(ServerConfig {
            expected_shape: Some([1, 1, 1, 2]),
            backoff_base_ms: 0,
            ..ServerConfig::default()
        });
        let nan = Tensor::from_vec([1, 1, 1, 2], vec![f32::NAN, 0.0]);
        assert!(server.submit_clip(nan).is_err());
        assert_eq!(server.submit_clip(clip(1.0)), Ok(1));
        let run = server.drain(&mut Echo, None, None);
        assert_eq!(run.responses.len(), 2);
        assert_eq!(run.budget.rejected_invalid, 1);
        assert!(matches!(
            run.responses[0].outcome,
            Err(InferError::NonFinite { index: 0 })
        ));
        assert!(run.responses[1].outcome.is_ok());
        assert!(run.budget.balanced());
    }

    #[test]
    fn expired_deadline_sheds_without_computing() {
        let mut server = ResilientServer::new(ServerConfig {
            backoff_base_ms: 0,
            ..ServerConfig::default()
        });
        server
            .submit(Request::new(clip(1.0)).with_deadline(Duration::ZERO))
            .unwrap();
        server.submit(Request::new(clip(2.0))).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let run = server.drain(&mut Echo, None, None);
        assert_eq!(run.budget.deadline_expired, 1);
        assert_eq!(run.budget.completed, 1);
        assert!(matches!(
            run.responses[0].outcome,
            Err(InferError::DeadlineExpired)
        ));
        assert_eq!(run.responses[1].backend, "echo");
        assert!(run.budget.balanced());
    }

    #[test]
    fn saturation_anomaly_degrades_to_fallback() {
        let mut server = ResilientServer::new(ServerConfig {
            saturation_threshold: 0.01,
            backoff_base_ms: 0,
            ..ServerConfig::default()
        });
        server.submit_clip(clip(1.0)).unwrap();
        let mut primary = Saturating(0.5);
        let mut fb = Echo;
        let run = server.drain(&mut primary, Some(&mut fb), None);
        let r = &run.responses[0];
        assert!(r.outcome.is_ok());
        assert!(r.fell_back, "saturated clip must be re-served");
        assert_eq!(r.backend, "echo");
        assert_eq!(r.saturation, 0.5);
        assert_eq!(run.budget.fallbacks, 1);
        assert!(run.budget.balanced());
    }

    #[test]
    fn saturation_without_fallback_serves_primary_result() {
        let mut server = ResilientServer::new(ServerConfig {
            backoff_base_ms: 0,
            ..ServerConfig::default()
        });
        server.submit_clip(clip(1.0)).unwrap();
        let run = server.drain(&mut Saturating(0.5), None, None);
        let r = &run.responses[0];
        assert!(r.outcome.is_ok());
        assert!(!r.fell_back);
        assert_eq!(r.backend, "sat");
        assert_eq!(run.budget.fallbacks, 0);
    }
}
