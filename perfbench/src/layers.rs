//! The traced run: per-layer metrics.
//!
//! The named workload runs twice, untraced and traced, for the tracing
//! overhead; the other workloads run traced for a short while so every
//! layer group has spans. The run then replays the workloads' inputs
//! through each layer's public entry points, one span per call. Self
//! times come from the spans; the spans are written out at the end.

use crate::inputs::{accel_config, micro_shape, mix, PrunedSet, ServeSet, BATCH, REPLICAS};
use crate::stats::{median, rel_iqr};
use crate::trace::{self_times, Span, TimedEngine, Tracer};
use crate::workloads::{bits, parse_logits_bits, Ingest, Kind, Outcome, RunOpts, Workload};
use p3d_core::{BlockGrid, LayerBlockMask};
use p3d_fpga::sim::{run_conv_functional_with_scratch, SimScratch};
use p3d_infer::wire::{decode_clip, read_request, write_response, WireLimits};
use p3d_infer::{
    argmax, json, ClipResult, F32Engine, Request, ResilientServer, Response, ServerConfig,
};
use p3d_models::ConvInstance;
use p3d_nn::{Conv3d, EvalArena, Layer};
use p3d_tensor::parallel::{parallel_for, pool_stats, set_thread_override};
use p3d_tensor::{
    gemm_bs_into, gemm_into, simd, BlockSparseWeights, FixedTensor, Tensor, TensorRng,
};
use p3d_video_data::io::{crc32_fast, FrameResizer, VidReader};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Seconds each workload other than the named one runs traced.
const SIDE_SECONDS: f64 = 1.5;
/// Calls per replayed entry point.
const WIRE_CALLS: usize = 512;
const RESILIENCE_ROUNDS: usize = 64;
const PARALLEL_CALLS: usize = 4000;
const GEMM_CALLS: usize = 200;
const NN_CALLS: usize = 100;
const SIM_CALLS: usize = 30;
const IO_CALLS: usize = 200;

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Output checks made by the replays, counted like workload operations.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

fn median_us(spans: &[Span], name: &str) -> f64 {
    median(
        &named(spans, name)
            .map(|s| us(s.dur_ns()))
            .collect::<Vec<_>>(),
    )
}

/// Self time of the spans named `name`, per work item, µs.
fn self_us_per_item(spans: &[Span], name: &str) -> f64 {
    let st = self_times(spans);
    let (t, n) = named(spans, name).fold((0u64, 0u64), |(t, n), s| (t + st[&s.id], n + s.items));
    us(t) / n.max(1) as f64
}

/// Worker-busy µs per clip of each engine batch: span time times the
/// workers the batch occupied, over its clips. One sample per batch.
fn engine_samples(spans: &[Span]) -> Vec<f64> {
    named(spans, "engine.infer_batch")
        .map(|s| us(s.dur_ns()) * s.items.min(REPLICAS as u64) as f64 / s.items.max(1) as f64)
        .collect()
}

/// Worker-busy µs per clip over all engine batches.
fn engine_us_per_clip(spans: &[Span]) -> f64 {
    let (busy, items) = named(spans, "engine.infer_batch").fold((0.0, 0u64), |(t, n), s| {
        (
            t + us(s.dur_ns()) * s.items.min(REPLICAS as u64) as f64,
            n + s.items,
        )
    });
    busy / items.max(1) as f64
}

/// Runs the traced benchmark of `primary`; returns the per-layer
/// metrics, the checks made, and every recorded span.
pub fn traced_run(
    primary: Kind,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
) -> (Metrics, Checks, Vec<Span>) {
    let spawned0 = pool_stats().spawned;
    let tracer = Tracer::new();
    let mut m = Metrics::default();
    let mut chk = Checks::default();
    let workloads: Vec<(Kind, Workload)> = Kind::ALL
        .iter()
        .map(|&k| (k, Workload::prepare(k, seed, work_dir)))
        .collect();
    let get = |k: Kind| {
        &workloads
            .iter()
            .find(|(kind, _)| *kind == k)
            .expect("every kind prepared")
            .1
    };

    // Workload runs: the named one untraced and traced, the rest traced.
    let w = get(primary);
    let untraced = w.run(&RunOpts {
        seconds: seconds / 2.0,
        setups: 1,
        tracer: None,
    });
    chk.add(untraced.attempted, untraced.failed);
    let mut runs: HashMap<Kind, (Outcome, Vec<Span>)> = HashMap::new();
    for k in Kind::ALL {
        let secs = if k == primary {
            seconds / 2.0
        } else {
            SIDE_SECONDS
        };
        let out = get(k).run(&RunOpts {
            seconds: secs,
            setups: 1,
            tracer: Some(Arc::clone(&tracer)),
        });
        chk.add(out.attempted, out.failed);
        runs.insert(k, (out, tracer.take()));
    }
    let (traced, primary_spans) = &runs[&primary];
    m.put(
        "trace.overhead_ratio",
        traced.clips_per_s() / untraced.clips_per_s(),
        "ratio",
    );
    // The tail swings with the host's CPU steal, so it is reported here,
    // from the untraced half, rather than bounded end to end.
    m.put("latency_p99_ms", untraced.latency_ms(0.99), "ms");
    m.put("latency_samples", untraced.samples.len() as f64, "count");
    m.put(
        "engine.us_per_clip",
        engine_us_per_clip(primary_spans),
        "us",
    );
    let batches = named(primary_spans, "engine.infer_batch").count().max(1);
    let clips: u64 = named(primary_spans, "engine.infer_batch")
        .map(|s| s.items)
        .sum();
    m.put("engine.batch_size", clips as f64 / batches as f64, "clips");
    m.put(
        "engine.arena_grow_events",
        traced.grow_events as f64,
        "count",
    );

    // infer.http, infer.wire, infer.json, infer.resilience
    let Workload::Serve(serve) = get(Kind::Serve) else {
        unreachable!("serve_small is a serve workload")
    };
    let (serve_out, serve_spans) = &runs[&Kind::Serve];
    let snap = serve_out
        .serve
        .as_ref()
        .expect("serve run returns its snapshot");
    let b = &snap.budget;
    m.put(
        "http.clips_per_batch",
        b.completed as f64 / snap.batches.max(1) as f64,
        "clips",
    );
    m.put(
        "http.wire_reject_ratio",
        snap.wire_rejects as f64 / snap.http_requests.max(1) as f64,
        "ratio",
    );
    let wire = replay_wire(&serve.set, &serve.refs, &tracer, &mut chk);
    let resilience = replay_resilience(&serve.set, &serve.refs, &tracer, &mut chk);
    // What a request spends in the replayed layers and the engine; the
    // rest of its end-to-end time is loopback I/O and thread hand-offs.
    let attributed = [
        "wire.read_request",
        "wire.decode_clip",
        "json.response",
        "wire.write_response",
    ]
    .iter()
    .map(|n| median_us(&wire, n))
    .sum::<f64>()
        + median_us(&resilience, "resilience.submit")
        + self_us_per_item(&resilience, "resilience.drain")
        + median_us(serve_spans, "engine.infer_batch");
    m.put(
        "http.unattributed_us",
        median_us(serve_spans, "http.request") - attributed,
        "us",
    );
    m.put(
        "wire.read_request_us",
        median_us(&wire, "wire.read_request"),
        "us",
    );
    m.put(
        "wire.decode_clip_us",
        median_us(&wire, "wire.decode_clip"),
        "us",
    );
    m.put(
        "wire.write_response_us",
        median_us(&wire, "wire.write_response"),
        "us",
    );
    m.put("json.response_us", median_us(&wire, "json.response"), "us");
    m.put(
        "resilience.submit_us",
        median_us(&resilience, "resilience.submit"),
        "us",
    );
    m.put(
        "resilience.dispatch_us",
        self_us_per_item(&resilience, "resilience.drain"),
        "us",
    );
    m.put(
        "resilience.retry_ratio",
        b.retries as f64 / b.admitted.max(1) as f64,
        "ratio",
    );
    m.put(
        "resilience.fallback_ratio",
        b.fallbacks as f64 / b.admitted.max(1) as f64,
        "ratio",
    );

    // infer.scheduler: the named pruned workload, else pruned_f32.
    let sched_kind = if primary == Kind::PrunedSim {
        Kind::PrunedSim
    } else {
        Kind::PrunedF32
    };
    m.put(
        "scheduler.dispatch_us",
        self_us_per_item(&runs[&sched_kind].1, "scheduler.drain"),
        "us",
    );

    // tensor.parallel
    let par = replay_parallel(&tracer);
    m.put(
        "parallel.dispatch_us",
        median_us(&par, "parallel.dispatch"),
        "us",
    );

    // tensor.gemm, nn and fpga.sim replay an engine replica's work with
    // one worker, as each replica runs inside the engine.
    let Workload::Pruned(pf32) = get(Kind::PrunedF32) else {
        unreachable!("pruned_f32 is a pruned workload")
    };
    let Workload::Pruned(psim) = get(Kind::PrunedSim) else {
        unreachable!("pruned_sim is a pruned workload")
    };
    set_thread_override(Some(1));
    let gemm = replay_gemm(&pf32.set, &tracer, &mut chk, &mut m);
    let nn = replay_nn(&pf32.set, &pf32.refs, &tracer, &mut chk, &mut m);
    let sim = replay_sim(&psim.set, &psim.refs, &tracer, &mut chk, &mut m);
    set_thread_override(None);
    m.put(
        "parallel.spawned",
        (pool_stats().spawned - spawned0) as f64,
        "count",
    );

    // Accounting: conv self-times plus the rest of the forward, against
    // the engine's worker-busy time per clip; reported with a verdict.
    for (group, replay, kind) in [("nn", &nn, Kind::PrunedF32), ("sim", &sim, Kind::PrunedSim)] {
        let spans = &runs[&kind].1;
        let engine = engine_us_per_clip(spans);
        let layers = median_us(replay, &format!("{group}.forward"));
        let gap = layers / engine - 1.0;
        let spread = rel_iqr(&engine_samples(spans))
            + rel_iqr(
                &named(replay, &format!("{group}.forward"))
                    .map(|s| us(s.dur_ns()))
                    .collect::<Vec<_>>(),
            );
        m.put(format!("{group}.accounting_gap"), gap, "ratio");
        eprintln!(
            "accounting {group}: layers {layers:.1} us/clip vs engine {engine:.1} us/clip on {}: gap {:+.1}%, {} the run's spread of {:.1}%",
            kind.name(),
            gap * 100.0,
            if gap.abs() <= spread { "within" } else { "OUTSIDE" },
            spread * 100.0
        );
    }

    // video_data.io
    let Workload::Ingest(ingest) = get(Kind::Ingest) else {
        unreachable!("ingest_large is an ingest workload")
    };
    let (ingest_out, _) = &runs[&Kind::Ingest];
    let s = &ingest_out.ingest;
    let clips = s.clips.max(1) as f64;
    m.put("io.decode_busy_us", s.decode_busy_s / clips * 1e6, "us");
    m.put("io.consumer_wait_us", s.consumer_wait_s / clips * 1e6, "us");
    m.put("io.overlap_efficiency", s.overlap_efficiency(), "ratio");
    m.put("io.arena_grow_events", s.arena_grow_events as f64, "count");
    m.put(
        "io.src_mb_per_s",
        s.src_bytes as f64 / ingest_out.wall_s / 1e6,
        "MB/s",
    );
    let io = replay_io(ingest, &tracer, &mut m);

    let mut spans: Vec<Span> = runs.into_values().flat_map(|(_, s)| s).collect();
    for mut part in [wire, resilience, par, gemm, nn, sim, io] {
        spans.append(&mut part);
    }
    (m, chk, spans)
}

fn replay_wire(set: &ServeSet, refs: &[Vec<u32>], tr: &Tracer, chk: &mut Checks) -> Vec<Span> {
    let limits = WireLimits::default();
    let (kernel, features) = (simd::active().name(), simd::cpu_features());
    let mut sink = Vec::new();
    for i in 0..WIRE_CALLS {
        let k = i % set.requests.len();
        let trace = i as u64;
        let mut cursor = std::io::Cursor::new(&set.requests[k]);
        let req = tr.span("wire.read_request", trace, None, 1, |_| {
            read_request(&mut cursor, &limits)
        });
        let Ok(Some(req)) = req else {
            chk.check(false);
            continue;
        };
        let clip = tr.span("wire.decode_clip", trace, None, 1, |_| decode_clip(&req));
        chk.check(
            clip.map(|c| bits(c.data()) == bits(set.clips[k].data()))
                .unwrap_or(false),
        );
        let logits: Vec<f32> = refs[k].iter().map(|&b| f32::from_bits(b)).collect();
        let resp = Response {
            index: i,
            outcome: Ok(ClipResult {
                prediction: argmax(&logits),
                logits,
            }),
            backend: "f32".to_string(),
            fell_back: false,
            attempts: 1,
            latency_ms: 1.0,
            deadline_missed: false,
            saturation: 0.0,
            model_hash: "unkeyed".to_string(),
        };
        let body = tr.span("json.response", trace, None, 1, |_| {
            json::response_json(&resp, kernel, features)
        });
        chk.check(parse_logits_bits(body.as_bytes()).as_deref() == Some(&refs[k][..]));
        sink.clear();
        let wrote = tr.span("wire.write_response", trace, None, 1, |_| {
            write_response(
                &mut sink,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                false,
            )
        });
        chk.check(wrote.is_ok());
    }
    tr.take()
}

fn replay_resilience(
    set: &ServeSet,
    refs: &[Vec<u32>],
    tr: &Arc<Tracer>,
    chk: &mut Checks,
) -> Vec<Span> {
    let engine = F32Engine::new(REPLICAS, || set.network());
    let mut engine = TimedEngine::new(engine, Arc::clone(tr), F32Engine::arena_grow_events);
    let parent = engine.parent_handle();
    let mut rs = ResilientServer::new(ServerConfig {
        capacity: 1024,
        max_batch: BATCH,
        expected_shape: Some(micro_shape()),
        ..ServerConfig::default()
    });
    let n = set.clips.len();
    let mut pool_index: HashMap<usize, usize> = HashMap::new();
    for round in 0..RESILIENCE_ROUNDS {
        let trace = round as u64;
        for j in 0..BATCH {
            let k = (round * BATCH + j) % n;
            let request = Request::new(set.clips[k].clone());
            match tr.span("resilience.submit", trace, None, 1, |_| rs.submit(request)) {
                Ok(index) => {
                    pool_index.insert(index, k);
                }
                Err(_) => chk.check(false),
            }
        }
        let run = tr.span("resilience.drain", trace, None, BATCH as u64, |id| {
            parent.store(id, Ordering::Relaxed);
            rs.drain(&mut engine, None, None)
        });
        for r in &run.responses {
            let want = pool_index.get(&r.index).map(|&k| &refs[k]);
            chk.check(matches!((&r.outcome, want), (Ok(res), Some(w)) if bits(&res.logits) == *w));
        }
    }
    tr.take()
}

fn replay_parallel(tr: &Tracer) -> Vec<Span> {
    for i in 0..PARALLEL_CALLS {
        tr.span("parallel.dispatch", i as u64, None, 2, |_| {
            parallel_for(2, |r| {
                black_box(r);
            })
        });
    }
    tr.take()
}

fn conv_instances(set: &PrunedSet) -> Vec<ConvInstance> {
    set.spec.conv_instances().expect("lite-wide shape-checks")
}

fn macs(inst: &ConvInstance) -> usize {
    let (kd, kr, kc) = inst.spec.kernel;
    inst.spec.out_channels * inst.spec.in_channels * kd * kr * kc * inst.out_volume()
}

/// The pruned layer's block pattern, or a fully enabled one.
fn block_mask(set: &PrunedSet, name: &str) -> LayerBlockMask {
    set.pruned.mask(name).cloned().unwrap_or_else(|| {
        LayerBlockMask::dense(BlockGrid::for_weight(
            set.param(&format!("{name}.weight")),
            crate::inputs::block_shape(),
        ))
    })
}

/// Dense and block-sparse GEMM at the im2col shape of the conv layer
/// with the most MACs.
fn replay_gemm(set: &PrunedSet, tr: &Tracer, chk: &mut Checks, m: &mut Metrics) -> Vec<Span> {
    let insts = conv_instances(set);
    let inst = insts
        .iter()
        .max_by_key(|i| macs(i))
        .expect("lite-wide has convs");
    let (kd, kr, kc) = inst.spec.kernel;
    let (rows, k, n) = (
        inst.spec.out_channels,
        inst.spec.in_channels * kd * kr * kc,
        inst.out_volume(),
    );
    let a = set.param(&format!("{}.weight", inst.spec.name)).data();
    let b = TensorRng::seed(mix(set.model_seed, 51)).uniform_tensor([k, n], 0.0, 1.0);
    let bs = BlockSparseWeights::compile(a, &block_mask(set, &inst.spec.name).to_block_pattern());
    let (mut dense, mut sparse) = (vec![0f32; rows * n], vec![0f32; rows * n]);
    for i in 0..GEMM_CALLS {
        tr.span("gemm.dense", i as u64, None, 1, |_| {
            gemm_into(a, rows, k, b.data(), n, &mut dense)
        });
        tr.span("gemm.bs", i as u64, None, 1, |_| {
            gemm_bs_into(&bs, b.data(), n, &mut sparse)
        });
        black_box((&dense, &sparse));
    }
    chk.check(bits(&dense) == bits(&sparse));
    let spans = tr.take();
    let flops = 2.0 * (rows * k * n) as f64;
    m.put(
        "gemm.dense_gflops",
        flops / median_us(&spans, "gemm.dense") / 1e3,
        "GFLOP/s",
    );
    m.put(
        "gemm.bs_gflops",
        flops / median_us(&spans, "gemm.bs") / 1e3,
        "GFLOP/s",
    );
    spans
}

/// A standalone conv layer carrying `set`'s weights for `inst`.
fn conv_layer(set: &PrunedSet, inst: &ConvInstance, rng: &mut TensorRng) -> Conv3d {
    let s = &inst.spec;
    let mut conv = Conv3d::new(
        &s.name,
        s.out_channels,
        s.in_channels,
        s.kernel,
        s.stride,
        s.pad,
        s.bias,
        rng,
    );
    conv.weight.value = set.param(&format!("{}.weight", s.name)).clone();
    if let Some(b) = conv.bias.as_mut() {
        b.value = set.param(&format!("{}.bias", s.name)).clone();
    }
    conv
}

/// Runs `f` on one thread per engine replica, concurrently, as the
/// engine runs its replicas; returns each thread's result.
fn on_replicas<R: Send>(f: impl Fn() -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..REPLICAS).map(|_| s.spawn(&f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    })
}

/// One `Conv3d::eval_into` call on a fresh arena, inside a span.
fn eval_conv(
    conv: &mut Conv3d,
    x: &Tensor,
    arena: &mut EvalArena,
    tr: &Tracer,
    name: &str,
    trace: u64,
) -> Vec<u32> {
    arena.reset();
    let id = arena.load_clip(x);
    let y = tr.span(name, trace, None, 1, |_| conv.eval_into(arena, id));
    bits(arena.buf(y))
}

/// Each round calls every conv layer dense and block-sparse, then the
/// whole pruned network, so slow spells of the host hit all alike.
fn replay_nn(
    set: &PrunedSet,
    refs: &[Vec<u32>],
    tr: &Tracer,
    chk: &mut Checks,
    m: &mut Metrics,
) -> Vec<Span> {
    let insts = conv_instances(set);
    let (c, d, h, w) = set.spec.input;
    let checks = on_replicas(|| {
        let mut chk = Checks::default();
        let mut rng = TensorRng::seed(mix(set.model_seed, 52));
        let mut layers: Vec<_> = insts
            .iter()
            .map(|inst| {
                let name = &inst.spec.name;
                let dense = conv_layer(set, inst, &mut rng);
                let mut sparse = conv_layer(set, inst, &mut rng);
                set.pruned.install_block_sparse(&mut sparse);
                let (n, di, hi, wi) = inst.input;
                let x = rng.uniform_tensor([1, n, di, hi, wi], 0.0, 1.0);
                (
                    format!("nn.conv.{name}.dense"),
                    dense,
                    format!("nn.conv.{name}.bs"),
                    sparse,
                    x,
                )
            })
            .collect();
        let mut net = set.network();
        set.pruned.install_block_sparse(&mut net);
        let mut arena = EvalArena::new();
        for i in 0..NN_CALLS {
            let trace = i as u64;
            for (dn, dense, sn, sparse, x) in layers.iter_mut() {
                let yd = eval_conv(dense, x, &mut arena, tr, dn, trace);
                let ys = eval_conv(sparse, x, &mut arena, tr, sn, trace);
                chk.check(yd == ys);
            }
            let k = i % set.clips.len();
            arena.reset();
            let id = arena.load_clip(&set.clips[k].reshape([1, c, d, h, w]));
            let y = tr.span("nn.forward", trace, None, 1, |_| {
                net.eval_into(&mut arena, id)
            });
            chk.check(bits(arena.buf(y)) == refs[k]);
        }
        chk
    });
    for c in checks {
        chk.add(c.attempted, c.failed);
    }
    let spans = tr.take();
    let (mut dense_sum, mut bs_sum) = (0.0, 0.0);
    for inst in &insts {
        let name = &inst.spec.name;
        let dense = median_us(&spans, &format!("nn.conv.{name}.dense"));
        let bs = median_us(&spans, &format!("nn.conv.{name}.bs"));
        m.put(format!("nn.conv.{name}.dense_us"), dense, "us");
        m.put(format!("nn.conv.{name}.bs_us"), bs, "us");
        dense_sum += dense;
        bs_sum += bs;
    }
    m.put(
        "nn.other_us",
        median_us(&spans, "nn.forward") - bs_sum,
        "us",
    );
    m.put("nn.kept_fraction", set.pruned.kept_fraction(), "ratio");
    m.put("nn.bs_speedup", dense_sum / bs_sum, "ratio");
    spans
}

/// Each round calls every conv layer on the functional Q7.8 engine, then
/// the whole network; modelled cycles must repeat exactly.
fn replay_sim(
    set: &PrunedSet,
    refs: &[Vec<u32>],
    tr: &Tracer,
    chk: &mut Checks,
    m: &mut Metrics,
) -> Vec<Span> {
    let cfg = accel_config();
    let insts = conv_instances(set);
    let q = set.quantized();
    let results = on_replicas(|| {
        let mut chk = Checks::default();
        let mut rng = TensorRng::seed(mix(set.model_seed, 53));
        let layers: Vec<_> = insts
            .iter()
            .map(|inst| {
                let name = &inst.spec.name;
                let w = FixedTensor::quantize(set.param(&format!("{name}.weight")));
                let (n, d, h, wd) = inst.input;
                let x = FixedTensor::quantize(&rng.uniform_tensor([n, d, h, wd], 0.0, 1.0));
                (format!("sim.conv.{name}"), w, x, set.pruned.mask(name))
            })
            .collect();
        let mut cycles: Vec<Option<u64>> = vec![None; layers.len()];
        let mut acc = Vec::new();
        let mut scratch = SimScratch::new();
        let mut total = None;
        let (mut skipped, mut saturation) = (0u64, 0.0);
        for i in 0..SIM_CALLS {
            let trace = i as u64;
            for ((inst, (name, w, x, mask)), seen) in
                insts.iter().zip(&layers).zip(cycles.iter_mut())
            {
                let (y, stats) = tr.span(name, trace, None, 1, |_| {
                    run_conv_functional_with_scratch(inst, w, x, *mask, &cfg, &mut acc)
                });
                black_box(y);
                chk.check(*seen.get_or_insert(stats.cycles) == stats.cycles);
            }
            let k = i % set.clips.len();
            let out = tr.span("sim.forward", trace, None, 1, |_| {
                q.forward_functional_with_scratch(&set.clips[k], &set.pruned, &mut scratch)
            });
            chk.check(bits(&out.logits) == refs[k]);
            chk.check(*total.get_or_insert(out.total_cycles()) == out.total_cycles());
            skipped = out.stats.blocks_skipped;
            saturation += out.saturation_rate() / SIM_CALLS as f64;
        }
        (chk, cycles, total, skipped, saturation)
    });
    let (_, cycles, total, skipped, saturation) = &results[0];
    for (c, cyc, tot, _, _) in &results {
        chk.check(cyc == cycles && tot == total);
        chk.add(c.attempted, c.failed);
    }
    let spans = tr.take();
    let total = total.unwrap_or(0) as f64;
    let mut conv_sum = 0.0;
    for (inst, cyc) in insts.iter().zip(cycles) {
        let name = &inst.spec.name;
        let t = median_us(&spans, &format!("sim.conv.{name}"));
        m.put(format!("sim.conv.{name}.us"), t, "us");
        m.put(
            format!("sim.conv.{name}.cycles"),
            cyc.unwrap_or(0) as f64,
            "cycles",
        );
        conv_sum += t;
    }
    let forward = median_us(&spans, "sim.forward");
    m.put("sim.blocks_skipped", *skipped as f64, "count");
    m.put("sim.saturation_rate", *saturation, "ratio");
    m.put("sim.host_ns_per_cycle", forward * 1e3 / total, "ns");
    m.put("sim.other_us", forward - conv_sum, "us");
    m.put(
        "sim_modelled_ms",
        total / (cfg.freq_mhz * 1e3),
        "modelled_ms",
    );
    spans
}

fn replay_io(ingest: &Ingest, tr: &Tracer, m: &mut Metrics) -> Vec<Span> {
    let file = std::fs::File::open(&ingest.path).expect("open the source container");
    let mut reader = VidReader::open(std::io::BufReader::new(file)).expect("valid container");
    let mut frame = Vec::new();
    let mut i = 0u64;
    while tr
        .span("io.read_frame", i, None, 1, |_| {
            reader.read_frame_into(&mut frame)
        })
        .expect("read frame")
    {
        i += 1;
    }
    let g = ingest.set.geom;
    let resizer = FrameResizer::new(g.src_w as usize, g.src_h as usize, g.preprocess)
        .expect("valid geometry");
    let mut out = vec![0f32; g.preprocess.output_len()];
    for i in 0..IO_CALLS {
        black_box(tr.span("io.crc", i as u64, None, 1, |_| crc32_fast(&frame)));
        tr.span("io.resize", i as u64, None, 1, |_| {
            resizer.run(&frame, &mut out)
        });
        black_box(&out);
    }
    let spans = tr.take();
    // The last read_frame span is the end-of-stream probe.
    let reads: Vec<f64> = named(&spans, "io.read_frame")
        .map(|s| us(s.dur_ns()))
        .take(i as usize)
        .collect();
    m.put("io.read_frame_us", median(&reads), "us");
    m.put(
        "io.crc_gbps",
        frame.len() as f64 / median_us(&spans, "io.crc") / 1e3,
        "GB/s",
    );
    m.put("io.resize_us", median_us(&spans, "io.resize"), "us");
    spans
}
