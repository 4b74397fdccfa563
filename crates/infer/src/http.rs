//! The HTTP/1.1 network front door over [`ResilientServer`].
//!
//! Everything the serving stack learned in-process — bounded admission,
//! deadlines, retries, quarantine, graceful degradation, the
//! [`ErrorBudget`] — stays exactly as it was; this module only puts a
//! wire protocol in front of it:
//!
//! * **Thread-per-connection, std only.** An accept thread hands each
//!   connection to its own handler thread; the engines already own the
//!   process-wide worker pool, so connection handlers stay synchronous
//!   and the parallelism lives where it always did.
//! * **One dispatcher, real batches.** Handlers submit into the shared
//!   [`ResilientServer`] queue and park on a per-request channel; a
//!   single engine thread drains the queue in rounds, so concurrent
//!   clients are batched together and outputs stay bitwise identical
//!   to an in-process run (each clip is still computed in full by one
//!   worker and collected by index).
//! * **Multi-tenant fairness.** Each client (the `X-P3D-Client`
//!   header) owns a [`TokenBucket`]; an empty bucket sheds the request
//!   as HTTP 429 *before* it can occupy queue capacity, and the shed is
//!   counted in the budget (`rate_limited`), so one greedy client
//!   cannot starve the rest and `ErrorBudget::balanced` still holds.
//!
//! | endpoint           | behaviour                                        |
//! |--------------------|--------------------------------------------------|
//! | `POST /v1/infer`   | raw planar f32 / Q7.8 clip in, JSON result + provenance out |
//! | `POST /v1/models`  | push a P3DCKPT2 checkpoint: validate, registry-publish, smoke-test, hot-swap (or canary) |
//! | `GET /v1/models`   | serving hash + registry contents + quarantined pushes |
//! | `GET /stats`       | live aggregate budget, per-client counters, pool/engine/swap/cache telemetry |
//! | `GET /healthz`     | state-aware: `200 ok`, `200 degraded`, `503 draining` |
//!
//! **Hot-swap** rides the dispatcher's existing drain discipline: a
//! pushed model is validated and smoke-tested on the handler thread,
//! then parked as a pending swap; the dispatcher applies it *between*
//! drain rounds, under the same lock submissions take — so the old
//! engines have, by construction, resolved every queued request before
//! the switch, and no request can land in between. With a
//! [`CanaryPolicy`], the new model first serves a deterministic
//! fraction of traffic on a second [`ResilientServer`] lane while its
//! [`ErrorBudget`] is judged against the incumbent's over the same
//! window ([`crate::swap::canary_verdict`]); regression rolls back
//! automatically.

use crate::chaos::FaultPlan;
use crate::engine::InferenceEngine;
use crate::json::{self, Obj};
use crate::registry::{ModelRegistry, RegistryError};
use crate::resilience::{InferError, Request, ResilientServer, Response, ServerConfig};
use crate::respcache::{clip_hash, model_key, ResponseCache};
use crate::stats::{ErrorBudget, Resolution};
use crate::swap::{canary_verdict, smoke_test, CanaryPolicy, CanaryVerdict, SwapStats};
use crate::wire::{
    self, read_body, read_request_head, write_response, BodyReader, HttpRequest, WireLimits,
    CLIENT_HEADER, CONTENT_TYPE_VID,
};
use p3d_nn::Checkpoint;
use p3d_tensor::parallel::pool_stats;
use p3d_tensor::simd;
use p3d_tensor::Tensor;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A token bucket: capacity `burst`, refilled at `rate` tokens per
/// second, pure over an externally supplied elapsed time so the refill
/// arithmetic is testable without a clock.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
}

impl TokenBucket {
    /// A full bucket refilling at `rate` tokens/s, holding at most
    /// `burst`. Negative inputs clamp to zero.
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        let burst = burst.max(0.0);
        TokenBucket {
            tokens: burst,
            rate: rate.max(0.0),
            burst,
        }
    }

    /// Adds `elapsed_s * rate` tokens, clamped to the burst capacity.
    /// Negative or non-finite elapsed times add nothing.
    pub fn refill(&mut self, elapsed_s: f64) {
        if elapsed_s.is_finite() && elapsed_s > 0.0 {
            self.tokens = (self.tokens + elapsed_s * self.rate).min(self.burst);
        }
    }

    /// Takes one token if available.
    pub fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Per-client fairness accounting.
struct ClientState {
    bucket: TokenBucket,
    last_refill: Instant,
    admitted: u64,
    rate_limited: u64,
}

/// Per-client token buckets keyed by the `X-P3D-Client` header.
struct FairnessGate {
    /// `None` disables rate limiting entirely.
    rate: Option<(f64, f64)>,
    clients: Mutex<HashMap<String, ClientState>>,
}

impl FairnessGate {
    fn new(rate_per_s: f64, burst: f64) -> FairnessGate {
        FairnessGate {
            rate: (rate_per_s > 0.0).then_some((rate_per_s, burst.max(1.0))),
            clients: Mutex::new(HashMap::new()),
        }
    }

    /// Refills the client's bucket for real elapsed time and tries to
    /// take a token. New clients start with a full burst.
    fn admit(&self, client: &str) -> bool {
        let Some((rate, burst)) = self.rate else {
            return true;
        };
        let now = Instant::now();
        let mut clients = self.clients.lock().unwrap_or_else(|e| e.into_inner());
        let state = clients
            .entry(client.to_string())
            .or_insert_with(|| ClientState {
                bucket: TokenBucket::new(rate, burst),
                last_refill: now,
                admitted: 0,
                rate_limited: 0,
            });
        state
            .bucket
            .refill(now.duration_since(state.last_refill).as_secs_f64());
        state.last_refill = now;
        if state.bucket.try_take() {
            state.admitted += 1;
            true
        } else {
            state.rate_limited += 1;
            false
        }
    }

    /// Sorted `(client, admitted, rate_limited)` rows for `/stats`.
    fn snapshot(&self) -> Vec<(String, u64, u64)> {
        let clients = self.clients.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<_> = clients
            .iter()
            .map(|(name, s)| (name.clone(), s.admitted, s.rate_limited))
            .collect();
        rows.sort();
        rows
    }
}

/// Front-door configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Resilience policy for the inner [`ResilientServer`].
    pub server: ServerConfig,
    /// Wire-level read caps.
    pub limits: WireLimits,
    /// Per-client admission rate, requests/second (`0.0` = unlimited).
    pub rate_per_s: f64,
    /// Per-client burst capacity (minimum 1 when rate limiting is on).
    pub burst: f64,
    /// Socket read timeout; an idle keep-alive connection is closed
    /// after this long, and shutdown waits at most this long for
    /// handler threads to notice the stop flag.
    pub read_timeout: Duration,
    /// Socket write timeout: a peer that accepts a request but stalls
    /// reading the response cannot pin a handler thread past this. The
    /// shed is a typed close counted as `stalled_writes` (the response
    /// itself was already resolved and budgeted, so the ledger stays
    /// balanced).
    pub write_timeout: Duration,
    /// Response-cache capacity in entries; `0` disables the cache.
    pub cache_capacity: usize,
    /// Content hash stamped as provenance on responses served by the
    /// startup model (`"unkeyed"` when the server runs without a
    /// registry).
    pub model_hash: String,
    /// Optional deterministic fault plan injected into the *primary*
    /// engine's workers — chaos behind the wire, keyed by request
    /// index exactly as in-process.
    pub chaos: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            server: ServerConfig::default(),
            limits: WireLimits::default(),
            rate_per_s: 0.0,
            burst: 0.0,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            cache_capacity: 0,
            model_hash: "unkeyed".to_string(),
            chaos: None,
        }
    }
}

/// Engines built from a pushed checkpoint: the primary plus an
/// optional degradation fallback, mirroring [`HttpServer::start`].
pub type EnginePair = (
    Box<dyn InferenceEngine + Send>,
    Option<Box<dyn InferenceEngine + Send>>,
);

/// Builds servable engines from a validated checkpoint, or explains
/// why the checkpoint is unservable (wrong architecture, missing
/// tensors). Runs on the pushing connection's handler thread, so an
/// expensive build never stalls the dispatcher.
pub type EngineFactory = Box<dyn Fn(&Checkpoint) -> Result<EnginePair, String> + Send + Sync>;

/// Enables the model-push control plane (`POST /v1/models`) on a
/// server: where accepted checkpoints persist, how engines are built
/// from them, the golden clip every candidate must answer sanely
/// before touching traffic, and (optionally) the canary policy.
pub struct ModelPushConfig {
    /// Content-addressed store for accepted checkpoints.
    pub registry: ModelRegistry,
    /// Builds (primary, fallback) engines from a pushed checkpoint.
    pub factory: EngineFactory,
    /// Warm-up / smoke-test input: a candidate that cannot produce
    /// finite logits for this clip is rejected before the swap.
    pub golden: Tensor,
    /// `Some` routes new models through a canary trial instead of an
    /// immediate swap.
    pub canary: Option<CanaryPolicy>,
}

/// Point-in-time server telemetry, as served by `GET /stats`.
#[derive(Clone, Debug, Default)]
pub struct ServeSnapshot {
    /// Aggregate error budget over everything resolved so far.
    pub budget: ErrorBudget,
    /// HTTP requests parsed (all endpoints, before any shedding).
    pub http_requests: u64,
    /// Requests answered 4xx/5xx at the wire boundary (malformed
    /// framing; never reached admission).
    pub wire_rejects: u64,
    /// Engine batches dispatched.
    pub batches: u64,
    /// Clips decoded from streamed `application/x-p3d-vid` bodies.
    pub vid_clips: u64,
    /// Per-client `(name, admitted, rate_limited)` rows.
    pub clients: Vec<(String, u64, u64)>,
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Content hash of the model currently serving lane-0 traffic.
    pub serving_model: String,
    /// Content hash of an in-trial canary model, if any.
    pub canary_model: Option<String>,
    /// Registry / swap / canary lifetime counters.
    pub swap: SwapStats,
    /// Human-readable description of the most recent swap event.
    pub last_swap_event: String,
    /// Response-cache telemetry: `(capacity, entries, hits, misses)`.
    pub cache: (u64, u64, u64, u64),
    /// Handler threads shed by the write timeout (stalled readers).
    pub stalled_writes: u64,
}

/// A validated, smoke-tested model waiting for the dispatcher to apply
/// it between drain rounds.
struct PendingSwap {
    primary: Box<dyn InferenceEngine + Send>,
    fallback: Option<Box<dyn InferenceEngine + Send>>,
    hash: String,
    canary: Option<CanaryPolicy>,
}

/// The submission side of an active canary trial: a second resilient
/// queue the fraction-router feeds. The candidate's engines live on the
/// dispatcher's stack (it owns all engines); only the queue must be
/// reachable from handler threads.
struct CanaryLane {
    rs: ResilientServer,
    hash: String,
    fraction: f64,
    /// Requests routed so far (both lanes); drives the deterministic
    /// low-discrepancy fraction router.
    tick: u64,
}

/// What the engine dispatcher shares with connection handlers.
struct Inner {
    resilient: ResilientServer,
    /// Response channels for admitted, not-yet-resolved requests,
    /// keyed by `(lane, submission index)` — lane 0 is the incumbent,
    /// lane 1 the canary.
    waiters: HashMap<(u8, usize), mpsc::Sender<Response>>,
    /// Submissions (admitted or not) since the last drain; the
    /// dispatcher runs whenever this is non-zero, so early rejections
    /// get their budget flushed promptly too.
    pending_work: usize,
    /// Budget accumulated across drain rounds + boundary shedding.
    budget: ErrorBudget,
    http_requests: u64,
    wire_rejects: u64,
    batches: u64,
    vid_clips: u64,
    /// Content hash of the lane-0 serving model.
    serving_hash: String,
    /// A pushed model the dispatcher has not yet applied.
    pending_swap: Option<PendingSwap>,
    /// The canary lane, while a trial runs.
    canary: Option<CanaryLane>,
    swap_stats: SwapStats,
    last_swap_event: String,
    stalled_writes: u64,
    /// Exact-match response cache (`None` when capacity is 0).
    cache: Option<ResponseCache>,
}

struct Shared {
    inner: Mutex<Inner>,
    work: Condvar,
    gate: FairnessGate,
    stopping: AtomicBool,
    /// Lock-free mirror of "a pending swap is parked": `/healthz` must
    /// answer `draining` *during* a long drain round, when the `Inner`
    /// lock is continuously held by the dispatcher.
    draining: AtomicBool,
    /// Lock-free mirror of [`ErrorBudget::degraded`], refreshed by the
    /// dispatcher after every round for the same reason.
    degraded: AtomicBool,
    started: Instant,
    backend: String,
    fallback: Option<String>,
    expected_shape: Option<[usize; 4]>,
    limits: WireLimits,
    read_timeout: Duration,
    write_timeout: Duration,
    /// Resilience policy, kept to construct canary-lane queues.
    server_cfg: ServerConfig,
    /// The model-push control plane, when enabled.
    models: Option<ModelPushConfig>,
    /// `true` when a chaos plan is active; the response cache never
    /// stores under chaos (a corrupted-input response must not be
    /// replayed for the clean clip).
    chaos_enabled: bool,
    cache_capacity: usize,
}

impl Shared {
    fn snapshot(&self) -> ServeSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let (hits, misses) = inner.cache.as_ref().map(|c| c.counters()).unwrap_or((0, 0));
        let entries = inner.cache.as_ref().map(|c| c.len() as u64).unwrap_or(0);
        ServeSnapshot {
            budget: inner.budget,
            http_requests: inner.http_requests,
            wire_rejects: inner.wire_rejects,
            batches: inner.batches,
            vid_clips: inner.vid_clips,
            clients: self.gate.snapshot(),
            uptime_s: self.started.elapsed().as_secs_f64(),
            serving_model: inner.serving_hash.clone(),
            canary_model: inner.canary.as_ref().map(|l| l.hash.clone()),
            swap: inner.swap_stats.clone(),
            last_swap_event: inner.last_swap_event.clone(),
            cache: (self.cache_capacity as u64, entries, hits, misses),
            stalled_writes: inner.stalled_writes,
        }
    }
}

/// A running HTTP serving front end.
///
/// Started with [`HttpServer::start`]; lives until
/// [`HttpServer::shutdown`], which stops accepting, joins every
/// thread the server spawned, and returns the final telemetry.
pub struct HttpServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    engine_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `cfg.addr` and starts serving `primary` (with an optional
    /// degradation `fallback`, exactly as in
    /// [`ResilientServer::drain`]). Model pushes are disabled; see
    /// [`HttpServer::start_with_models`].
    pub fn start(
        cfg: ServeConfig,
        primary: Box<dyn InferenceEngine + Send>,
        fallback: Option<Box<dyn InferenceEngine + Send>>,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_with_models(cfg, primary, fallback, None)
    }

    /// [`HttpServer::start`], plus (optionally) the `POST /v1/models`
    /// control plane: a registry to persist pushed checkpoints, a
    /// factory to build engines from them, and the hot-swap / canary
    /// machinery in the dispatcher.
    pub fn start_with_models(
        cfg: ServeConfig,
        primary: Box<dyn InferenceEngine + Send>,
        fallback: Option<Box<dyn InferenceEngine + Send>>,
        models: Option<ModelPushConfig>,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let mut resilient = ResilientServer::new(cfg.server.clone());
        resilient.set_model_hash(&cfg.model_hash);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                resilient,
                waiters: HashMap::new(),
                pending_work: 0,
                budget: ErrorBudget::default(),
                http_requests: 0,
                wire_rejects: 0,
                batches: 0,
                vid_clips: 0,
                serving_hash: cfg.model_hash.clone(),
                pending_swap: None,
                canary: None,
                swap_stats: SwapStats::default(),
                last_swap_event: String::new(),
                stalled_writes: 0,
                cache: (cfg.cache_capacity > 0).then(|| ResponseCache::new(cfg.cache_capacity)),
            }),
            work: Condvar::new(),
            gate: FairnessGate::new(cfg.rate_per_s, cfg.burst),
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            started: Instant::now(),
            backend: primary.name().to_string(),
            fallback: fallback.as_ref().map(|f| f.name().to_string()),
            expected_shape: cfg.server.expected_shape,
            limits: cfg.limits,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
            server_cfg: cfg.server.clone(),
            models,
            chaos_enabled: cfg.chaos.is_some(),
            cache_capacity: cfg.cache_capacity,
        });

        let engine_thread = {
            let shared = Arc::clone(&shared);
            let chaos = cfg.chaos.clone();
            std::thread::Builder::new()
                .name("p3d-engine".to_string())
                .spawn(move || engine_loop(&shared, primary, fallback, chaos.as_ref()))?
        };

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("p3d-accept".to_string())
                .spawn(move || accept_loop(&shared, listener))?
        };

        Ok(HttpServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            engine_thread: Some(engine_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current telemetry, as `GET /stats` reports it.
    pub fn snapshot(&self) -> ServeSnapshot {
        self.shared.snapshot()
    }

    /// Stops accepting, waits for every spawned thread to exit, and
    /// returns the final telemetry. In-flight requests resolve first;
    /// lingering idle keep-alive connections are cut after at most the
    /// configured read timeout.
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.stop_and_join();
        self.shared.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.work.notify_all();
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() || self.engine_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// The candidate model of an active canary trial, as the dispatcher
/// carries it: the engines themselves plus the trial ledgers the
/// verdict is computed from. The incumbent's ledger here covers only
/// the trial window, so both models are judged over the same traffic.
struct CanaryTrial {
    primary: Box<dyn InferenceEngine + Send>,
    fallback: Option<Box<dyn InferenceEngine + Send>>,
    hash: String,
    policy: CanaryPolicy,
    canary_budget: ErrorBudget,
    canary_lat: Vec<f64>,
    incumbent_budget: ErrorBudget,
    incumbent_lat: Vec<f64>,
}

/// The dispatcher: waits for submitted work, drains the resilient
/// queue(s) in rounds, and routes each [`Response`] to its parked
/// connection handler. Early rejections (validation/overload) have no
/// waiter — their responses were already answered at the boundary, and
/// only their budget counters matter here.
///
/// This thread owns every engine, which is what makes hot-swap atomic:
/// drain, canary verdict, and swap intake all happen under one
/// continuous hold of the `Inner` lock, so between "the old engines
/// resolved every queued request" and "the new engines are serving"
/// no submission can interleave, and no request is ever dropped or
/// resolved twice.
fn engine_loop(
    shared: &Shared,
    mut primary: Box<dyn InferenceEngine + Send>,
    mut fallback: Option<Box<dyn InferenceEngine + Send>>,
    chaos: Option<&FaultPlan>,
) {
    let mut trial: Option<CanaryTrial> = None;
    loop {
        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        while inner.pending_work == 0
            && inner.pending_swap.is_none()
            && !shared.stopping.load(Ordering::SeqCst)
        {
            let (guard, _) = shared
                .work
                .wait_timeout(inner, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
        if shared.stopping.load(Ordering::SeqCst) && inner.pending_work == 0 {
            // A swap pushed after shutdown began is abandoned; the
            // pusher was already answered 202 and the registry entry
            // persists for the next boot.
            inner.pending_swap = None;
            shared.draining.store(false, Ordering::SeqCst);
            return;
        }
        inner.pending_work = 0;
        // The drain runs under the lock: submitters block for the round
        // and re-queue the moment it releases, which is what forms the
        // next batch. Handlers park on their channels, not the lock.
        let fb = fallback
            .as_deref_mut()
            .map(|f| f as &mut dyn InferenceEngine);
        let run = inner.resilient.drain(primary.as_mut(), fb, chaos);
        inner.budget.accumulate(&run.budget);
        inner.batches += run.batches as u64;

        // Canary lane: drain the candidate's queue with the candidate's
        // engines (no chaos — injected faults must indict the incumbent
        // configuration only, never the trial), and extend the trial
        // ledgers for both lanes over this round's window.
        let mut canary_responses: Vec<Response> = Vec::new();
        if let Some(tr) = trial.as_mut() {
            tr.incumbent_budget.accumulate(&run.budget);
            tr.incumbent_lat.extend(run.completed_latencies_ms());
            let crun = {
                let inner = &mut *inner;
                let lane = inner.canary.as_mut().expect("active trial implies a lane");
                let cfb = tr
                    .fallback
                    .as_deref_mut()
                    .map(|f| f as &mut dyn InferenceEngine);
                lane.rs.drain(tr.primary.as_mut(), cfb, None)
            };
            inner.budget.accumulate(&crun.budget);
            inner.batches += crun.batches as u64;
            tr.canary_budget.accumulate(&crun.budget);
            tr.canary_lat.extend(crun.completed_latencies_ms());
            canary_responses = crun.responses;
        }

        // Judge the trial. Both queues are empty here and the lock has
        // been held since before the drain, so promote/rollback cannot
        // strand a queued request: anything submitted to the canary
        // lane was resolved above.
        if let Some(tr) = trial.as_ref() {
            let verdict = canary_verdict(
                &tr.canary_budget,
                &tr.canary_lat,
                &tr.incumbent_budget,
                &tr.incumbent_lat,
                &tr.policy,
            );
            if let Some(verdict) = verdict {
                let tr = trial.take().expect("checked above");
                inner.canary = None;
                match verdict {
                    CanaryVerdict::Promote => {
                        primary = tr.primary;
                        fallback = tr.fallback;
                        inner.resilient.set_model_hash(&tr.hash);
                        inner.serving_hash = tr.hash.clone();
                        inner.swap_stats.promotions += 1;
                        inner.swap_stats.swaps += 1;
                        inner.last_swap_event = format!("canary {} promoted", tr.hash);
                    }
                    CanaryVerdict::Rollback { reason } => {
                        inner.swap_stats.rollbacks += 1;
                        inner.last_swap_event = format!("canary {} rolled back: {reason}", tr.hash);
                        // tr drops here, discarding the candidate's
                        // engines; the incumbent never stopped serving.
                    }
                }
            }
        }

        // Swap intake, strictly after this round's drain: the old
        // engines have resolved everything that was queued, so a direct
        // swap here is the atomic drain-then-switch the protocol
        // promises. Only one model may be in flight at a time.
        if trial.is_none() && inner.canary.is_none() {
            if let Some(ps) = inner.pending_swap.take() {
                if let Some(policy) = ps.canary {
                    let mut rs = ResilientServer::new(shared.server_cfg.clone());
                    rs.set_model_hash(&ps.hash);
                    inner.canary = Some(CanaryLane {
                        rs,
                        hash: ps.hash.clone(),
                        fraction: policy.fraction,
                        tick: 0,
                    });
                    inner.swap_stats.canaries_started += 1;
                    inner.last_swap_event = format!("canary {} started", ps.hash);
                    trial = Some(CanaryTrial {
                        primary: ps.primary,
                        fallback: ps.fallback,
                        hash: ps.hash,
                        policy,
                        canary_budget: ErrorBudget::default(),
                        canary_lat: Vec::new(),
                        incumbent_budget: ErrorBudget::default(),
                        incumbent_lat: Vec::new(),
                    });
                } else {
                    primary = ps.primary;
                    fallback = ps.fallback;
                    inner.resilient.set_model_hash(&ps.hash);
                    inner.serving_hash = ps.hash.clone();
                    inner.swap_stats.swaps += 1;
                    inner.last_swap_event = format!("swapped to {}", ps.hash);
                }
                // The transition (direct swap or canary launch) is
                // done; probes may route traffic here again.
                shared.draining.store(false, Ordering::SeqCst);
            }
        }

        // Refresh the lock-free degraded mirror before releasing the
        // lock: a client that just read its response observes the
        // health state its own request produced. (`draining` is owned
        // by the push handler / swap intake, not the round boundary:
        // it spans from "smoke test passed, waiting out in-flight
        // work" to "swap applied", most of which this thread spends
        // inside `drain` with the lock held.)
        shared
            .degraded
            .store(inner.budget.degraded(), Ordering::SeqCst);
        let mut waiters = std::mem::take(&mut inner.waiters);
        drop(inner);
        for resp in run.responses {
            if let Some(tx) = waiters.remove(&(0, resp.index)) {
                let _ = tx.send(resp);
            }
        }
        for resp in canary_responses {
            if let Some(tx) = waiters.remove(&(1, resp.index)) {
                let _ = tx.send(resp);
            }
        }
        if !waiters.is_empty() {
            // Requests submitted during the round stay parked for the
            // next one.
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            for (k, v) in waiters {
                inner.waiters.insert(k, v);
            }
        }
    }
}

/// Accepts connections until shutdown, one handler thread each.
/// Handler threads are detached: each one is bounded by the read
/// timeout, and shutdown waits for the connection count to reach zero
/// rather than holding join handles.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let live = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let shared = Arc::clone(shared);
        let counter = Arc::clone(&live);
        live.fetch_add(1, Ordering::SeqCst);
        let spawned = std::thread::Builder::new()
            .name("p3d-conn".to_string())
            .spawn(move || {
                if let Err(e) = handle_connection(&shared, stream) {
                    // Read failures never escape (wire maps them to
                    // typed WireErrors handled in place), so a timeout
                    // kind here is the write timeout shedding a stalled
                    // reader: a typed close, counted. The response was
                    // already resolved and budgeted before the write,
                    // so the ledger stays balanced.
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) {
                        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                        inner.stalled_writes += 1;
                    }
                }
                counter.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            live.fetch_sub(1, Ordering::SeqCst);
        }
    }
    // Handlers observe the stop flag within one read timeout; wait for
    // them so shutdown() really means "no server threads remain".
    let deadline = Instant::now() + shared.read_timeout + Duration::from_secs(2);
    while live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

use std::sync::atomic::AtomicUsize;

/// Serves one connection: reads requests in a keep-alive loop until
/// the peer closes, framing fails, or shutdown begins.
fn handle_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(shared.read_timeout))?;
    stream.set_write_timeout(Some(shared.write_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // Bytes of the next pipelined request over-read with a bodiless
    // head; threaded through `read_request_head` across iterations.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return Ok(());
        }
        let wire_reject = |writer: &mut BufWriter<TcpStream>, e: &wire::WireError| {
            {
                let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.wire_rejects += 1;
            }
            // A malformed request poisons the framing; answer when
            // possible, always close.
            if let Some((status, reason)) = e.status() {
                let _ = write_error(writer, status, reason, &e.to_string(), true);
            }
        };
        let (mut req, framing) = match read_request_head(&mut reader, &mut carry, &shared.limits) {
            Ok(Some(parts)) => parts,
            Ok(None) => return Ok(()), // clean close between requests
            Err(e) => {
                wire_reject(&mut writer, &e);
                return Ok(());
            }
        };
        {
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.http_requests += 1;
        }
        let keep_alive = req.keep_alive() && !shared.stopping.load(Ordering::SeqCst);

        // Streamed video bodies are decoded frame-by-frame straight off
        // the socket; every other request slurps its (bounded) body the
        // classic way before routing.
        let is_vid = req.method == "POST"
            && req.path == "/v1/infer"
            && req
                .header("content-type")
                .is_some_and(|ct| ct.eq_ignore_ascii_case(CONTENT_TYPE_VID));
        if is_vid {
            let keep =
                serve_infer_vid(shared, &req, &mut reader, framing, &mut writer, keep_alive)?;
            if !keep {
                return Ok(());
            }
            continue;
        }
        if let Err(e) = read_body(&mut reader, &mut req, framing) {
            wire_reject(&mut writer, &e);
            return Ok(());
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                // State-aware: `draining` (503, stop routing here) when
                // shutting down or mid-swap, `degraded` (200, serving
                // but damaged — quarantines or sentinel trips) when the
                // budget says so, plain `ok` otherwise. Reads only the
                // lock-free mirrors: a probe must answer immediately
                // even while the dispatcher holds the `Inner` lock
                // across a long drain round.
                let (status, reason, body): (u16, &str, &[u8]) =
                    if shared.stopping.load(Ordering::SeqCst)
                        || shared.draining.load(Ordering::SeqCst)
                    {
                        (503, "Service Unavailable", b"draining\n")
                    } else if shared.degraded.load(Ordering::SeqCst) {
                        (200, "OK", b"degraded\n")
                    } else {
                        (200, "OK", b"ok\n")
                    };
                write_response(&mut writer, status, reason, "text/plain", body, !keep_alive)?;
            }
            ("GET", "/stats") => {
                let body = stats_json(shared);
                write_json(&mut writer, 200, "OK", &body, !keep_alive)?;
            }
            ("POST", "/v1/infer") => {
                serve_infer(shared, &req, &mut writer, keep_alive)?;
            }
            ("POST", "/v1/models") => {
                serve_model_push(shared, &req, &mut writer, keep_alive)?;
            }
            ("GET", "/v1/models") => {
                serve_model_list(shared, &mut writer, keep_alive)?;
            }
            (_, "/healthz" | "/stats" | "/v1/models") | ("GET" | "HEAD", "/v1/infer") => {
                write_error(
                    &mut writer,
                    405,
                    "Method Not Allowed",
                    "method not allowed",
                    !keep_alive,
                )?;
            }
            _ => {
                write_error(
                    &mut writer,
                    404,
                    "Not Found",
                    "no such endpoint",
                    !keep_alive,
                )?;
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Handles one `POST /v1/infer`: fairness gate, payload decode,
/// submission, and the parked wait for the dispatcher's response.
fn serve_infer(
    shared: &Shared,
    req: &HttpRequest,
    writer: &mut impl Write,
    keep_alive: bool,
) -> std::io::Result<()> {
    let client = req.header(CLIENT_HEADER).unwrap_or("anonymous").to_string();

    // Fairness first: a rate-limited request must not cost queue
    // capacity (or decode work).
    if !shared.gate.admit(&client) {
        return shed_rate_limited(shared, &client, writer, !keep_alive);
    }
    match wire::decode_clip(req) {
        Ok(clip) => submit_and_respond(shared, clip, writer, keep_alive),
        Err(e) => reject_undecodable(shared, &e, writer, !keep_alive),
    }
}

/// Answers HTTP 429 for a request its client's token bucket shed, and
/// counts it in the budget as `rate_limited`: it never reached the queue.
fn shed_rate_limited(
    shared: &Shared,
    client: &str,
    writer: &mut impl Write,
    close: bool,
) -> std::io::Result<()> {
    shared
        .inner
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .budget
        .resolve(Resolution::RateLimited);
    let body = Obj::new()
        .str("error", "rate limited")
        .str("client", client)
        .build();
    write_json(writer, 429, "Too Many Requests", &body, close)
}

/// Answers a request whose body never decoded into a clip. It still
/// counts as one submission in the budget, an invalid one.
fn reject_undecodable(
    shared: &Shared,
    e: &wire::WireError,
    writer: &mut impl Write,
    close: bool,
) -> std::io::Result<()> {
    shared
        .inner
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .budget
        .resolve(Resolution::Invalid);
    let (status, reason) = e.status().unwrap_or((400, "Bad Request"));
    write_error(writer, status, reason, &e.to_string(), close)
}

/// Writes a JSON response; `close` adds `Connection: close`.
fn write_json(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    write_response(
        writer,
        status,
        reason,
        "application/json",
        body.as_bytes(),
        close,
    )
}

/// Writes a `{"error": message}` JSON response.
fn write_error(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    message: &str,
    close: bool,
) -> std::io::Result<()> {
    let body = Obj::new().str("error", message).build();
    write_json(writer, status, reason, &body, close)
}

/// Handles one streamed `POST /v1/infer` with a P3DVID1 body: fairness
/// gate first (so a shed request costs no decode work), then the body
/// is decoded frame-by-frame straight off the socket into a clip
/// without ever buffering the container.
///
/// Returns whether the connection may continue serving requests. Any
/// error after the head leaves the body partially consumed, so those
/// paths answer with `Connection: close` and return `false`; on success
/// [`wire::decode_vid_body`] has consumed exactly the declared
/// `Content-Length`, so keep-alive survives.
fn serve_infer_vid(
    shared: &Shared,
    req: &HttpRequest,
    reader: &mut impl Read,
    framing: wire::BodyFraming,
    writer: &mut impl Write,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let client = req.header(CLIENT_HEADER).unwrap_or("anonymous").to_string();
    if !shared.gate.admit(&client) {
        // The body was never read, so the framing is unusable: close.
        shed_rate_limited(shared, &client, writer, true)?;
        return Ok(false);
    }
    let Some(declared) = framing.declared else {
        let e =
            wire::WireError::BadContentLength("streamed video requires Content-Length".to_string());
        reject_undecodable(shared, &e, writer, true)?;
        return Ok(false);
    };
    let mut body = BodyReader::new(reader, framing);
    let clip = match wire::decode_vid_body(req, &mut body, declared, &shared.limits) {
        Ok(clip) => clip,
        Err(e) => {
            reject_undecodable(shared, &e, writer, true)?;
            return Ok(false);
        }
    };
    debug_assert_eq!(body.unread(), 0, "decode_vid_body consumes the exact body");
    {
        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.vid_clips += 1;
    }
    submit_and_respond(shared, clip, writer, keep_alive)?;
    Ok(keep_alive)
}

/// Handles one `POST /v1/models`: the body is raw P3DCKPT2 checkpoint
/// bytes. Validation, registry publish, engine build, and the golden-
/// clip smoke test all run here on the connection's thread — the
/// dispatcher only ever sees a candidate that already proved it can
/// answer. Accepted models are parked as a pending swap and applied
/// between drain rounds; `202` means "accepted, swapping", `200` means
/// "already serving this exact content".
fn serve_model_push(
    shared: &Shared,
    req: &HttpRequest,
    writer: &mut impl Write,
    keep_alive: bool,
) -> std::io::Result<()> {
    let Some(models) = shared.models.as_ref() else {
        return write_error(
            writer,
            404,
            "Not Found",
            "model registry disabled",
            !keep_alive,
        );
    };
    let published = match models.registry.publish(&req.body) {
        Ok(p) => p,
        Err(RegistryError::Rejected { hash, reason }) => {
            {
                let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.swap_stats.models_rejected += 1;
                inner.last_swap_event = format!("rejected push {hash}: {reason}");
            }
            let body = Obj::new()
                .str("error", &format!("checkpoint rejected: {reason}"))
                .str("model_hash", &hash)
                .build();
            return write_json(writer, 422, "Unprocessable Entity", &body, !keep_alive);
        }
        Err(e) => {
            let message = e.to_string();
            return write_error(writer, 500, "Internal Server Error", &message, !keep_alive);
        }
    };
    let (mut new_primary, new_fallback) = match (models.factory)(&published.checkpoint) {
        Ok(pair) => pair,
        Err(e) => {
            {
                let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.swap_stats.models_rejected += 1;
                inner.last_swap_event = format!("unservable push {}: {e}", published.hash);
            }
            let body = Obj::new()
                .str("error", &format!("unservable model: {e}"))
                .str("model_hash", &published.hash)
                .build();
            return write_json(writer, 422, "Unprocessable Entity", &body, !keep_alive);
        }
    };
    if let Err(e) = smoke_test(new_primary.as_mut(), &models.golden) {
        {
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.swap_stats.smoke_failures += 1;
            inner.last_swap_event = format!("smoke failure {}: {e}", published.hash);
        }
        let body = Obj::new()
            .str("error", &format!("smoke test failed: {e}"))
            .str("model_hash", &published.hash)
            .build();
        return write_json(writer, 422, "Unprocessable Entity", &body, !keep_alive);
    }
    // The push is committed from here: the swap begins its drain the
    // moment this handler starts competing for the engine lock (the
    // dispatcher holds it for whole rounds, so most of the wait *is*
    // the drain). Advertise `draining` before blocking; the dispatcher
    // clears it when it consumes the parked swap, and the bail-out
    // paths below restore the truthful state.
    shared.draining.store(true, Ordering::SeqCst);
    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
    if inner.pending_swap.is_some() || inner.canary.is_some() {
        // Another push is still mid-swap — that one owns `draining`.
        shared
            .draining
            .store(inner.pending_swap.is_some(), Ordering::SeqCst);
        drop(inner);
        let body = Obj::new()
            .str("error", "a swap is already in progress")
            .str("model_hash", &published.hash)
            .build();
        return write_json(writer, 409, "Conflict", &body, !keep_alive);
    }
    inner.swap_stats.models_published += 1;
    if inner.serving_hash == published.hash {
        shared.draining.store(false, Ordering::SeqCst);
        drop(inner);
        let body = Obj::new()
            .str("model_hash", &published.hash)
            .str("status", "already serving")
            .build();
        return write_json(writer, 200, "OK", &body, !keep_alive);
    }
    let canary = models.canary.is_some();
    inner.pending_swap = Some(PendingSwap {
        primary: new_primary,
        fallback: new_fallback,
        hash: published.hash.clone(),
        canary: models.canary.clone(),
    });
    drop(inner);
    shared.work.notify_all();
    let body = Obj::new()
        .str("model_hash", &published.hash)
        .str("status", if canary { "canary started" } else { "swapping" })
        .bool("canary", canary)
        .build();
    write_json(writer, 202, "Accepted", &body, !keep_alive)
}

/// Handles one `GET /v1/models`: serving hash, the canary in trial (if
/// any), the registry's published entries, and its quarantined pushes.
fn serve_model_list(
    shared: &Shared,
    writer: &mut impl Write,
    keep_alive: bool,
) -> std::io::Result<()> {
    let Some(models) = shared.models.as_ref() else {
        return write_error(
            writer,
            404,
            "Not Found",
            "model registry disabled",
            !keep_alive,
        );
    };
    let (serving, canary) = {
        let inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        (
            inner.serving_hash.clone(),
            inner.canary.as_ref().map(|l| l.hash.clone()),
        )
    };
    let listed = models.registry.list().unwrap_or_default();
    let rejected = models.registry.rejected().unwrap_or_default();
    let model_rows = listed
        .iter()
        .map(|m| {
            Obj::new()
                .str("hash", &m.hash)
                .u64("bytes", m.bytes)
                .bool("serving", m.hash == serving)
                .build()
        })
        .collect::<Vec<_>>()
        .join(", ");
    let rejected_rows = rejected
        .iter()
        .map(|r| {
            Obj::new()
                .str("name", &r.name)
                .str("reason", &r.reason)
                .build()
        })
        .collect::<Vec<_>>()
        .join(", ");
    let body = Obj::new()
        .str("serving", &serving)
        .str("canary", canary.as_deref().unwrap_or("none"))
        .raw("models", &format!("[{model_rows}]"))
        .raw("rejected", &format!("[{rejected_rows}]"))
        .build();
    write_json(writer, 200, "OK", &body, !keep_alive)
}

/// How `submit_and_respond` resolved its admission step.
enum Admission {
    /// Answered from the response cache, bitwise-identical by
    /// construction (serving is deterministic per model version).
    CacheHit(Response),
    /// Queued; park on the channel for the dispatcher.
    Queued(mpsc::Receiver<Response>),
    /// Rejected at submission (validation / overload).
    Rejected(InferError),
}

/// Shared tail of both infer endpoints: probe the response cache, or
/// submit the decoded clip under the lock (routing a deterministic
/// fraction to the canary lane during a trial), park on a private
/// channel for the dispatcher, and render the response.
fn submit_and_respond(
    shared: &Shared,
    clip: Tensor,
    writer: &mut impl Write,
    keep_alive: bool,
) -> std::io::Result<()> {
    let hashed_clip = (shared.cache_capacity > 0).then(|| clip_hash(&clip));
    let admission = {
        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Canary routing: a low-discrepancy counter sends exactly the
        // configured fraction — deterministically, so trials replay —
        // to the candidate's lane. Cache probes are lane-0 only: the
        // canary needs real traffic for its ledger.
        let lane: u8 = match inner.canary.as_mut() {
            Some(l) => {
                l.tick += 1;
                let (t, f) = (l.tick, l.fraction);
                if ((t as f64) * f).floor() > (((t - 1) as f64) * f).floor() {
                    1
                } else {
                    0
                }
            }
            None => 0,
        };
        let cache_probe = if lane == 0 { hashed_clip } else { None };
        let mut hit = None;
        if let Some(ch) = cache_probe {
            let serving = inner.resilient.model_hash().to_string();
            if let Some(cache) = inner.cache.as_mut() {
                if let Some(result) = cache.get(model_key(&serving), ch) {
                    // A cache hit is a completed request with no engine
                    // involvement.
                    inner.budget.resolve(Resolution::Completed);
                    hit = Some(Response::served(0, result, "cache".to_string(), serving));
                }
            }
        }
        match hit {
            Some(resp) => Admission::CacheHit(resp),
            None => {
                inner.pending_work += 1;
                let submitted = if lane == 0 {
                    inner.resilient.submit(Request::new(clip))
                } else {
                    let lane_rs = &mut inner.canary.as_mut().expect("lane 1 implies canary").rs;
                    lane_rs.submit(Request::new(clip))
                };
                match submitted {
                    Ok(index) => {
                        let (tx, rx) = mpsc::channel();
                        inner.waiters.insert((lane, index), tx);
                        drop(inner);
                        shared.work.notify_all();
                        Admission::Queued(rx)
                    }
                    Err(e) => {
                        drop(inner);
                        // Flush the early rejection's budget promptly.
                        shared.work.notify_all();
                        Admission::Rejected(e)
                    }
                }
            }
        }
    };
    let rx = match admission {
        Admission::CacheHit(resp) => {
            return render_response(&resp, writer, keep_alive);
        }
        Admission::Queued(rx) => rx,
        Admission::Rejected(e) => {
            let (status, reason) = match &e {
                InferError::Overloaded { .. } => (503, "Service Unavailable"),
                _ => (400, "Bad Request"),
            };
            return write_error(writer, status, reason, &e.to_string(), !keep_alive);
        }
    };

    // The dispatcher resolves every admitted request exactly once, so
    // this wait ends (deadline expiry and quarantine are responses
    // too). A dead dispatcher surfaces as a channel error.
    let resp = match rx.recv() {
        Ok(resp) => resp,
        Err(_) => {
            return write_error(
                writer,
                503,
                "Service Unavailable",
                "server shutting down",
                true,
            );
        }
    };
    // Fill the cache from engine answers. Provenance keys the entry,
    // so a canary-lane answer is cached under the canary's hash and
    // only ever replays if that model gets promoted. Fallback answers
    // are excluded (same model hash, different backend, different
    // bits), as is everything under chaos (a corrupted-input answer
    // must not replay for the clean clip).
    if let (Some(ch), Ok(result), false) = (hashed_clip, &resp.outcome, shared.chaos_enabled) {
        if !resp.fell_back {
            let result = result.clone();
            let model = model_key(&resp.model_hash);
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(cache) = inner.cache.as_mut() {
                cache.put(model, ch, result);
            }
        }
    }
    render_response(&resp, writer, keep_alive)
}

/// Renders one resolved [`Response`] — engine-served or cache-served —
/// onto the wire with the status code its outcome maps to.
fn render_response(
    resp: &Response,
    writer: &mut impl Write,
    keep_alive: bool,
) -> std::io::Result<()> {
    let (status, reason) = match &resp.outcome {
        Ok(_) => (200, "OK"),
        Err(InferError::DeadlineExpired) => (504, "Gateway Timeout"),
        Err(InferError::Quarantined { .. }) => (500, "Internal Server Error"),
        Err(InferError::Overloaded { .. }) => (503, "Service Unavailable"),
        Err(_) => (400, "Bad Request"),
    };
    let feats = simd::cpu_features();
    let body = json::response_json(
        resp,
        simd::active().name(),
        if feats.is_empty() { "none" } else { feats },
    );
    write_json(writer, status, reason, &body, !keep_alive)
}

/// Renders the `GET /stats` document.
fn stats_json(shared: &Shared) -> String {
    let snap = shared.snapshot();
    let pool = pool_stats();
    let feats = simd::cpu_features();
    let clients = snap
        .clients
        .iter()
        .map(|(name, admitted, limited)| {
            Obj::new()
                .str("client", name)
                .u64("admitted", *admitted)
                .u64("rate_limited", *limited)
                .build()
        })
        .collect::<Vec<_>>()
        .join(", ");
    let engine = Obj::new()
        .str("backend", &shared.backend)
        .str("fallback", shared.fallback.as_deref().unwrap_or("none"))
        .str("kernel_path", simd::active().name())
        .str(
            "cpu_features",
            if feats.is_empty() { "none" } else { feats },
        )
        .raw(
            "expected_shape",
            &shared
                .expected_shape
                .map(|s| format!("[{}, {}, {}, {}]", s[0], s[1], s[2], s[3]))
                .unwrap_or_else(|| "null".to_string()),
        )
        .build();
    let pool = Obj::new()
        .u64("spawned", pool.spawned as u64)
        .u64("respawned", pool.respawned as u64)
        .u64("live", pool.live as u64)
        .build();
    let swap = Obj::new()
        .str("serving_model", &snap.serving_model)
        .str(
            "canary_model",
            snap.canary_model.as_deref().unwrap_or("none"),
        )
        .u64("models_published", snap.swap.models_published)
        .u64("models_rejected", snap.swap.models_rejected)
        .u64("smoke_failures", snap.swap.smoke_failures)
        .u64("swaps", snap.swap.swaps)
        .u64("canaries_started", snap.swap.canaries_started)
        .u64("promotions", snap.swap.promotions)
        .u64("rollbacks", snap.swap.rollbacks)
        .str("last_event", &snap.last_swap_event)
        .build();
    let (cache_cap, cache_entries, cache_hits, cache_misses) = snap.cache;
    let cache = Obj::new()
        .u64("capacity", cache_cap)
        .u64("entries", cache_entries)
        .u64("hits", cache_hits)
        .u64("misses", cache_misses)
        .build();
    Obj::new()
        .f64("uptime_s", snap.uptime_s, 3)
        .u64("http_requests", snap.http_requests)
        .u64("wire_rejects", snap.wire_rejects)
        .u64("batches", snap.batches)
        .u64("vid_clips", snap.vid_clips)
        .u64("stalled_writes", snap.stalled_writes)
        .raw("error_budget", &json::budget_json(&snap.budget))
        .raw("engine", &engine)
        .raw("pool", &pool)
        .raw("swap", &swap)
        .raw("cache", &cache)
        .raw("clients", &format!("[{clients}]"))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_starts_full_and_burst_bounds_it() {
        let mut b = TokenBucket::new(10.0, 3.0);
        assert_eq!(b.tokens(), 3.0);
        assert!(b.try_take() && b.try_take() && b.try_take());
        assert!(!b.try_take(), "burst exhausted");
        // A long idle period refills to the burst cap, not beyond.
        b.refill(100.0);
        assert_eq!(b.tokens(), 3.0);
    }

    #[test]
    fn refill_is_proportional_and_clamped() {
        let mut b = TokenBucket::new(2.0, 4.0);
        for _ in 0..4 {
            assert!(b.try_take());
        }
        assert!(!b.try_take());
        b.refill(0.5); // 1 token
        assert!(b.try_take());
        assert!(!b.try_take());
        // Degenerate inputs add nothing and never panic.
        b.refill(-1.0);
        b.refill(f64::NAN);
        b.refill(f64::INFINITY);
        assert_eq!(b.tokens(), 0.0);
        b.refill(10.0); // clamps to burst
        assert_eq!(b.tokens(), 4.0);
    }

    #[test]
    fn zero_rate_bucket_admits_nothing_after_burst() {
        let mut b = TokenBucket::new(0.0, 2.0);
        assert!(b.try_take() && b.try_take());
        b.refill(1e9);
        assert!(!b.try_take(), "zero rate never refills");
        // And a zero-burst bucket admits nothing at all.
        let mut b = TokenBucket::new(5.0, 0.0);
        assert!(!b.try_take());
        b.refill(10.0);
        assert!(!b.try_take());
    }

    #[test]
    fn negative_parameters_clamp_to_zero() {
        let mut b = TokenBucket::new(-3.0, -1.0);
        assert_eq!(b.tokens(), 0.0);
        b.refill(100.0);
        assert!(!b.try_take());
    }

    #[test]
    fn gate_isolates_clients() {
        let gate = FairnessGate::new(1000.0, 2.0);
        // Greedy burns its own burst; a fresh client still has one.
        assert!(gate.admit("greedy"));
        assert!(gate.admit("greedy"));
        assert!(!gate.admit("greedy"), "third immediate take must shed");
        assert!(gate.admit("modest"), "other clients are unaffected");
        let rows = gate.snapshot();
        assert_eq!(rows.len(), 2);
        let greedy = rows.iter().find(|r| r.0 == "greedy").unwrap();
        assert_eq!((greedy.1, greedy.2), (2, 1));
        let modest = rows.iter().find(|r| r.0 == "modest").unwrap();
        assert_eq!((modest.1, modest.2), (1, 0));
    }

    #[test]
    fn disabled_gate_admits_everything() {
        let gate = FairnessGate::new(0.0, 0.0);
        for _ in 0..100 {
            assert!(gate.admit("anyone"));
        }
        assert!(gate.snapshot().is_empty(), "no accounting when disabled");
    }
}
