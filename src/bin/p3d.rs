//! The `p3d` command-line interface: train, prune, evaluate and simulate
//! models of the DAC 2020 reproduction without writing Rust.
//!
//! ```text
//! p3d train    [--model lite|lite-wide|micro|c3d-lite] [--epochs N]
//!              [--clips N] [--seed S] [--out model.ckpt]
//! p3d eval     --ckpt model.ckpt [--model ...] [--clips N]
//! p3d prune    --ckpt model.ckpt [--model ...] [--tm 8] [--tn 4]
//!              [--eta2 0.9] [--eta3 0.8] [--retrain N] [--out pruned.ckpt]
//!              [--save-every N] [--resume] [--state FILE]
//! p3d simulate --ckpt model.ckpt [--model ...] [--tm 8] [--tn 4]
//! p3d infer    --ckpt model.ckpt [--model ...] [--clips N] [--batch B]
//!              [--backend f32|sim|both] [--threads T] [--json FILE]
//!              [--resilient] [--replicas R] [--capacity C]
//!              [--deadline-ms D] [--retries N] [--chaos-seed S]
//! p3d ingest   --synth out.p3dvid [--model ...] [--clips N]
//!              [--width W] [--height H] [--seed S]
//! p3d ingest   --input file.p3dvid --ckpt model.ckpt [--model ...]
//!              [--resize-h R] [--resize-w R] [--batch B] [--depth N]
//!              [--workers W] [--threads T] [--serial] [--json FILE]
//! p3d serve    --ckpt model.ckpt [--model ...] [--port P] [--backend f32|sim]
//!              [--capacity C] [--deadline-ms D] [--retries N]
//!              [--rate R] [--burst B] [--max-body BYTES]
//!              [--max-requests N] [--duration-s S] [--threads T]
//!              [--model-dir DIR] [--cache N]
//!              [--canary-fraction F] [--canary-after N]
//! p3d models   --dir DIR [--push file.ckpt] [--json]
//! p3d tables   (prints the paper-table summaries)
//! ```
//!
//! All data is the synthetic motion dataset; determinism follows from
//! `--seed`.

use p3d::engines::{accel_config, ModelCheckpoint};
use p3d::infer::http::EnginePair;
use p3d::infer::json::{backend_row, BackendReport, Obj};
use p3d::infer::{
    install_quiet_panic_hook, CanaryPolicy, FaultMix, FaultPlan, HttpServer, InferenceEngine,
    ModelPushConfig, ModelRegistry, RegistryError, Request, ResilientServer, ServeConfig,
    ServerConfig, WireLimits,
};
use p3d::models::{
    build_network, c3d_lite, r2plus1d_lite, r2plus1d_lite_wide, r2plus1d_micro, NetworkSpec,
};
use p3d::nn::{
    evaluate, Checkpoint, CrossEntropyLoss, Dataset, LrSchedule, Sgd, TrainState, Trainer,
};
use p3d::pruning::{
    capture_admm_train_state, capture_retrain_state, restore_admm_train_state,
    restore_retrain_state, targets_for_stages, AdmmConfig, AdmmProgress, AdmmPruner, KeepRule,
    PrunedModel, RETRAIN_PROGRESS_KEY,
};
use p3d::tensor::parallel::{max_threads, set_thread_override};
use p3d::tensor::simd;
use p3d::video_data::{GeneratorConfig, SyntheticVideo};
use std::collections::HashMap;
use std::process::ExitCode;

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            // A flag followed by another flag (or nothing) is boolean,
            // e.g. `--resume`; otherwise it consumes the next token.
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// [`Args::get`], rejecting values above `max` as typos.
    fn get_at_most<T>(&self, key: &str, default: T, max: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let value = self.get(key, default)?;
        if value > max {
            return Err(format!("--{key} {value} is not plausible (max {max})"));
        }
        Ok(value)
    }

    fn required(&self, key: &str) -> Result<String, String> {
        self.flags
            .get(key)
            .cloned()
            .ok_or_else(|| format!("--{key} is required"))
    }

    /// Rejects any flag outside `known` (flag typos would otherwise be
    /// silently ignored).
    fn expect_known(&self, cmd: &str, known: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .flags
            .keys()
            .map(String::as_str)
            .filter(|k| !known.contains(k))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            Some(k) => Err(format!(
                "unknown flag --{k} for 'p3d {cmd}' (try 'p3d {cmd} --help')"
            )),
            None => Ok(()),
        }
    }
}

fn model_spec(name: &str) -> Result<NetworkSpec, String> {
    match name {
        "lite" => Ok(r2plus1d_lite(10)),
        "lite-wide" => Ok(r2plus1d_lite_wide(10)),
        "micro" => Ok(r2plus1d_micro(10)),
        "c3d-lite" => Ok(c3d_lite(10)),
        other => Err(format!(
            "unknown model '{other}' (expected lite|lite-wide|micro|c3d-lite)"
        )),
    }
}

/// `clips` training clips and `clips / 2` test clips, at least one.
fn dataset_for(
    spec: &NetworkSpec,
    clips: usize,
    seed: u64,
) -> Result<(SyntheticVideo, SyntheticVideo), String> {
    if clips < 2 {
        return Err(format!("--clips {clips} leaves no test clips"));
    }
    let (c, d, h, w) = spec.input;
    assert_eq!(c, 1, "CLI models are single-channel");
    let config = GeneratorConfig {
        frames: d,
        height: h,
        width: w,
        num_classes: 10,
        noise_std: 0.03,
        speed: (1.0, 2.5),
        radius: (2.5, h as f32 / 6.0),
        distractors: 0,
    };
    Ok(SyntheticVideo::train_test(&config, clips, clips / 2, seed))
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let model = args.get("model", "lite".to_string())?;
    let spec = model_spec(&model)?;
    let epochs: usize = args.get("epochs", 20)?;
    let clips: usize = args.get("clips", 200)?;
    let seed: u64 = args.get("seed", 42)?;
    let out = args.get("out", "model.ckpt".to_string())?;

    let (train, test) = dataset_for(&spec, clips, seed)?;
    let mut net = build_network(&spec, seed);
    let mut trainer = Trainer::new(CrossEntropyLoss::new(), Sgd::new(1e-2, 0.9, 1e-4), 16, seed);
    for e in 0..epochs {
        let st = trainer.train_epoch(&mut net, &train, None);
        eprintln!(
            "epoch {:>3}: loss {:.4}, train acc {:.3}",
            e + 1,
            st.loss,
            st.accuracy
        );
    }
    let acc = trainer.evaluate(&mut net, &test);
    println!("{model}: test accuracy {acc:.4} after {epochs} epochs");
    Checkpoint::capture(&mut net)
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("saved checkpoint to {out}");
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let model = args.get("model", "lite".to_string())?;
    let spec = model_spec(&model)?;
    let clips: usize = args.get("clips", 200)?;
    let seed: u64 = args.get("seed", 42)?;
    let ckpt = args.required("ckpt")?;
    let mut net = ModelCheckpoint::load(&spec, &ckpt, seed)?.network();
    let (_, test) = dataset_for(&spec, clips, seed)?;
    let acc = evaluate(&mut net, &test, 16);
    println!("{model}: test accuracy {acc:.4} ({} clips)", test.len());
    Ok(())
}

fn cmd_prune(args: &Args) -> Result<(), String> {
    let model = args.get("model", "lite".to_string())?;
    let spec = model_spec(&model)?;
    let clips: usize = args.get("clips", 200)?;
    let seed: u64 = args.get("seed", 42)?;
    let tm: usize = args.get("tm", 8)?;
    let tn: usize = args.get("tn", 4)?;
    let eta2: f64 = args.get("eta2", 0.9)?;
    let eta3: f64 = args.get("eta3", 0.8)?;
    let retrain: usize = args.get("retrain", 15)?;
    let ckpt = args.required("ckpt")?;
    let out = args.get("out", "pruned.ckpt".to_string())?;
    let save_every: usize = args.get("save-every", 0)?;
    let resume: bool = args.get("resume", false)?;
    let state_path = args.get("state", format!("{out}.state"))?;
    // Refuse zero tiles before the checkpoint load and the training.
    let shape = accel_config(tm, tn)?.tiling.block_shape();

    let mut net = ModelCheckpoint::load(&spec, &ckpt, seed)?.network();
    let (train, test) = dataset_for(&spec, clips, seed)?;
    let before = evaluate(&mut net, &test, 16);

    let stage2 = if model == "c3d-lite" {
        "conv2"
    } else {
        "conv2_x"
    };
    let stage3 = if model == "c3d-lite" {
        "conv3"
    } else {
        "conv3_x"
    };
    let targets = targets_for_stages(&spec, &[(stage2, eta2), (stage3, eta3)]);
    if targets.is_empty() {
        return Err("no prunable layers found".into());
    }
    let mut trainer = Trainer::new(
        CrossEntropyLoss::with_smoothing(0.1),
        Sgd::new(5e-3, 0.9, 1e-4),
        16,
        seed + 1,
    );
    let admm = AdmmConfig {
        rho_schedule: vec![2e-2, 1e-1, 4e-1],
        epochs_per_round: 6,
        epochs_per_admm_update: 3,
        keep_rule: KeepRule::Round,
        epsilon: 0.05,
    };
    let mut pruner = AdmmPruner::new(&mut net, shape, &targets, admm);
    let schedule = LrSchedule::WarmupCosine {
        base_lr: 5e-3,
        warmup_epochs: 2,
        total_epochs: retrain,
        min_lr: 1e-5,
    };
    let mut retrainer = Trainer::new(
        CrossEntropyLoss::new(),
        Sgd::new(5e-3, 0.9, 1e-4),
        16,
        seed + 2,
    );

    // --resume picks up the interrupted phase from --state.
    let loaded = if resume && std::path::Path::new(&state_path).exists() {
        Some(
            TrainState::load(&state_path)
                .map_err(|e| format!("cannot load state {state_path}: {e}"))?,
        )
    } else {
        None
    };
    let in_retrain_phase = loaded
        .as_ref()
        .is_some_and(|st| st.get(RETRAIN_PROGRESS_KEY).is_some());

    let (pruned, start_epoch) = if in_retrain_phase {
        let st = loaded.as_ref().unwrap();
        let (_saved_sched, done) = restore_retrain_state(st, &mut net, &mut retrainer)
            .map_err(|e| format!("cannot resume retraining: {e}"))?;
        eprintln!("resuming masked retraining after epoch {done}");
        // Like `hard_prune`, the resumed retraining runs block-sparse.
        let pruned = PrunedModel::from_masks(&mut net, pruner.block_shape());
        pruned.install_block_sparse(&mut net);
        (pruned, done)
    } else {
        let mut start = AdmmProgress::start();
        if let Some(st) = &loaded {
            start = restore_admm_train_state(st, &mut net, &mut trainer, &mut pruner)
                .map_err(|e| format!("cannot resume ADMM training: {e}"))?;
            eprintln!(
                "resuming ADMM training at round {}, epoch {}",
                start.round, start.epoch
            );
        }
        eprintln!("ADMM training...");
        let log = pruner.admm_train_from(&mut net, &mut trainer, &train, start, &mut |t| {
            if save_every > 0 && t.progress.epoch % save_every == 0 {
                let st = capture_admm_train_state(t.network, t.trainer, t.pruner, t.progress);
                if let Err(e) = st.save(&state_path) {
                    eprintln!("warning: cannot save state {state_path}: {e}");
                }
            }
            true
        });
        eprintln!(
            "final primal residual: {:.3}",
            log.rounds
                .last()
                .map(|r| r.max_primal_residual)
                .unwrap_or(f32::NAN)
        );
        (pruner.hard_prune(&mut net), 0)
    };
    AdmmPruner::retrain_from(
        &mut net,
        &mut retrainer,
        &train,
        &schedule,
        retrain,
        start_epoch,
        &mut |t| {
            if save_every > 0 && (t.epoch + 1) % save_every == 0 {
                let st = capture_retrain_state(t.network, t.trainer, &schedule, t.epoch + 1);
                if let Err(e) = st.save(&state_path) {
                    eprintln!("warning: cannot save state {state_path}: {e}");
                }
            }
            true
        },
    );
    if save_every > 0 {
        // The run completed; the intermediate state is no longer needed.
        let _ = std::fs::remove_file(&state_path);
    }
    let after = evaluate(&mut net, &test, 16);
    println!(
        "accuracy: {before:.4} -> {after:.4} at {:.0}% kept weights in pruned stages",
        pruned.kept_fraction() * 100.0
    );
    Checkpoint::capture(&mut net)
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("saved pruned checkpoint to {out}");
    for (layer, mask) in &pruned.layers {
        println!(
            "  {layer}: {}/{} blocks enabled",
            mask.enabled_blocks(),
            mask.grid.num_blocks()
        );
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let model = args.get("model", "lite".to_string())?;
    let spec = model_spec(&model)?;
    let clips: usize = args.get("clips", 60)?;
    let seed: u64 = args.get("seed", 42)?;
    let tm: usize = args.get("tm", 8)?;
    let tn: usize = args.get("tn", 4)?;
    let ckpt = args.required("ckpt")?;
    // Bitwise the cycle engine, so its cycles model the pruned accelerator.
    let (net, accel) = ModelCheckpoint::load(&spec, &ckpt, seed)?.compiled(tm, tn)?;
    let (_, test) = dataset_for(&spec, clips, seed)?;

    let mut correct = 0usize;
    let mut cycles = 0u64;
    for i in 0..test.len() {
        let (clip, label) = test.sample(i);
        let out = net.forward(&clip);
        cycles += out.total_cycles();
        if out.prediction == label {
            correct += 1;
        }
    }
    println!(
        "Q7.8 simulated accuracy: {:.4} ({} clips)",
        correct as f32 / test.len() as f32,
        test.len()
    );
    println!(
        "mean latency: {:.3} ms/clip at {} MHz on a ({tm},{tn}) MAC array",
        accel.cycles_to_ms(cycles / test.len() as u64),
        accel.freq_mhz
    );
    Ok(())
}

const INFER_USAGE: &str =
    "usage: p3d infer --ckpt model.ckpt [--model lite|lite-wide|micro|c3d-lite]
                 [--clips N] [--batch B] [--backend f32|sim|both]
                 [--threads T] [--seed S] [--tm 8] [--tn 4] [--json FILE]
                 [--resilient] [--replicas R] [--capacity C]
                 [--deadline-ms D] [--retries N] [--chaos-seed S]

Streams synthetic test clips through the batched inference engine and
reports throughput (clips/s), latency percentiles (p50/p95/p99), and
accuracy for the f32 network and/or the Q7.8 accelerator simulator
(served by the fast functional engine). The report — and the --json
document — records the host's detected CPU features and the SIMD
kernel path in use (avx2 or scalar) so numbers carry their provenance.

Resilient serving (--resilient, implied by the flags below): requests
pass input validation and a bounded admission queue (--capacity),
carry deadlines (--deadline-ms), and run on supervised workers with
retry (--retries), poison quarantine, and automatic sim->f32
degradation on Q7.8 saturation anomalies. --chaos-seed S injects a
deterministic fault mix (panics, stalls, bit flips, saturation storms)
to exercise those paths; the report gains an error budget
(shed/retry/quarantine/fallback counters), also emitted in --json.
Pruned checkpoints are served block-sparse at --tm x --tn.";

/// Hard sanity limits for `p3d infer` flags: values past these are
/// almost certainly typos, and the failure modes (hour-long runs,
/// thousands of replicas) are unpleasant.
const MAX_BATCH: usize = 4096;
const MAX_REPLICAS: usize = 256;
const MAX_THREADS_FLAG: usize = 1024;
const MAX_DEADLINE_MS: u64 = 600_000;
const MAX_RETRIES: u32 = 16;

fn cmd_infer(args: &Args) -> Result<(), String> {
    if args.get("help", false)? {
        println!("{INFER_USAGE}");
        return Ok(());
    }
    args.expect_known(
        "infer",
        &[
            "help",
            "model",
            "ckpt",
            "clips",
            "batch",
            "backend",
            "threads",
            "seed",
            "tm",
            "tn",
            "json",
            "resilient",
            "replicas",
            "capacity",
            "deadline-ms",
            "retries",
            "chaos-seed",
        ],
    )?;
    let model = args.get("model", "lite".to_string())?;
    let spec = model_spec(&model)?;
    let clips: usize = args.get("clips", 60)?;
    let batch: usize = args.get_at_most("batch", 8, MAX_BATCH)?;
    let seed: u64 = args.get("seed", 42)?;
    let tm: usize = args.get("tm", 8)?;
    let tn: usize = args.get("tn", 4)?;
    let threads: usize = args.get_at_most("threads", 0, MAX_THREADS_FLAG)?;
    let backend = args.get("backend", "both".to_string())?;
    let json_path = args.get("json", String::new())?;
    let run_f32 = matches!(backend.as_str(), "f32" | "both");
    let run_sim = matches!(backend.as_str(), "sim" | "both");
    if !run_f32 && !run_sim {
        return Err(format!(
            "unknown backend '{backend}' (expected f32|sim|both)"
        ));
    }
    if batch == 0 {
        return Err("--batch must be positive".into());
    }
    let replicas_flag: usize = args.get_at_most("replicas", 0, MAX_REPLICAS)?;
    if args.flags.contains_key("replicas") && replicas_flag == 0 {
        return Err("--replicas must be positive".into());
    }
    let capacity: usize = args.get("capacity", 1024)?;
    if capacity == 0 {
        return Err("--capacity must be positive".into());
    }
    let deadline_ms: u64 = args.get_at_most("deadline-ms", 0, MAX_DEADLINE_MS)?;
    if args.flags.contains_key("deadline-ms") && deadline_ms == 0 {
        return Err("--deadline-ms must be positive".into());
    }
    let retries: u32 = args.get_at_most("retries", 2, MAX_RETRIES)?;
    let chaos_given = args.flags.contains_key("chaos-seed");
    let chaos_seed: u64 = args.get("chaos-seed", 0)?;
    let resilient = args.get("resilient", false)?
        || chaos_given
        || args.flags.contains_key("capacity")
        || args.flags.contains_key("deadline-ms")
        || args.flags.contains_key("retries");
    if threads > 0 {
        set_thread_override(Some(threads));
    }
    let ckpt = args.required("ckpt")?;
    let loaded = ModelCheckpoint::load(&spec, &ckpt, seed)?;
    let (_, test) = dataset_for(&spec, clips, seed)?;
    let labels: Vec<usize> = (0..test.len()).map(|i| test.sample(i).1).collect();
    let replicas = if replicas_flag > 0 {
        replicas_flag
    } else {
        max_threads().min(batch).max(1)
    };
    // Provenance: which SIMD path the GEMM microkernel and the Q7.8
    // functional engine dispatch to on this host.
    let feats = match simd::cpu_features() {
        "" => "none",
        f => f,
    };
    let kernel_path = simd::active().name();
    println!("host: cpu features {feats} | kernel path {kernel_path}");

    // Every run serves through `ResilientServer`. Batch mode runs each
    // selected backend alone with the policies off: room for every
    // clip, no deadline, no fallback, no chaos. Resilient mode is one
    // supervised stream; `sim` and `both` run the Q7.8 simulator as
    // primary with the f32 network as degradation fallback, `f32` runs
    // the float path alone.
    let mut backends = Vec::new();
    if run_f32 && !(resilient && run_sim) {
        backends.push("f32");
    }
    if run_sim {
        backends.push("sim");
    }
    let chaos = chaos_given.then(|| {
        // Expected injected panics should not spray backtraces.
        install_quiet_panic_hook();
        FaultPlan::seeded_mix(chaos_seed, test.len(), &FaultMix::default())
    });
    let (c, d, h, w) = spec.input;
    let cfg = ServerConfig {
        capacity: if resilient { capacity } else { test.len() },
        max_batch: batch,
        expected_shape: Some([c, d, h, w]),
        default_deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        max_retries: retries,
        seed,
        ..ServerConfig::default()
    };
    let mut rows = Vec::new();
    for name in backends {
        let mut primary: Box<dyn InferenceEngine> = match name {
            "sim" => Box::new(loaded.sim(tm, tn)?),
            _ => Box::new(loaded.f32(replicas, tm, tn)?),
        };
        let fallback = (resilient && name == "sim").then(|| loaded.f32(replicas, tm, tn));
        let mut fallback = fallback.transpose()?;
        let mut server = ResilientServer::new(cfg.clone());
        for i in 0..test.len() {
            let (mut clip, _) = test.sample(i);
            if let Some(plan) = &chaos {
                plan.corrupt_input(i, &mut clip);
            }
            // Rejections (validation, overload) are recorded in the
            // drained responses; nothing to do with the error here.
            let _ = server.submit(Request::new(clip));
        }
        let fallback = fallback.as_mut().map(|f| f as &mut dyn InferenceEngine);
        let run = server.drain(primary.as_mut(), fallback, chaos.as_ref());
        let b = &run.budget;
        let correct = run
            .responses
            .iter()
            .filter(|r| {
                r.outcome
                    .as_ref()
                    .is_ok_and(|res| res.prediction == labels[r.index])
            })
            .count();
        let accuracy = correct as f64 / b.completed.max(1) as f64;
        let clips_per_s = b.completed as f64 / run.wall_s.max(1e-9);
        let lat = run.latency_stats();
        println!(
            "{name:>4}: {clips_per_s:>8.1} clips/s | p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms | accuracy {accuracy:.4} ({} completed of {} submitted, batch {batch})",
            lat.p50_ms,
            lat.p95_ms,
            lat.p99_ms,
            b.completed,
            b.submitted,
        );
        println!(
            "budget: shed {}, invalid {}, expired {}, late {}, retries {}, worker failures {}, restarts {}, quarantined {}, fallbacks {}, sentinel trips {}",
            b.shed_overload,
            b.rejected_invalid,
            b.deadline_expired,
            b.deadline_missed,
            b.retries,
            b.worker_failures,
            b.worker_restarts,
            b.quarantined,
            b.fallbacks,
            b.sentinel_trips,
        );
        rows.push(backend_row(&BackendReport {
            backend: name,
            mode: if resilient { "resilient" } else { "batch" },
            clips_per_s,
            latency: lat,
            accuracy,
            batches: run.batches,
            budget: run.budget,
        }));
    }
    if !json_path.is_empty() {
        let json = Obj::new()
            .str("model", &model)
            .u64("clips", labels.len() as u64)
            .u64("batch", batch as u64)
            .str("cpu_features", feats)
            .str("kernel_path", kernel_path)
            .raw("results", &format!("[{}]", rows.join(", ")))
            .build();
        std::fs::write(&json_path, json + "\n")
            .map_err(|e| format!("cannot write {json_path}: {e}"))?;
        println!("wrote {json_path}");
    }
    if threads > 0 {
        set_thread_override(None);
    }
    Ok(())
}

const SERVE_USAGE: &str =
    "usage: p3d serve --ckpt model.ckpt [--model lite|lite-wide|micro|c3d-lite]
                 [--port P] [--backend f32|sim] [--tm 8] [--tn 4] [--seed S]
                 [--batch B] [--capacity C] [--deadline-ms D] [--retries N]
                 [--rate R] [--burst B] [--max-body BYTES] [--threads T]
                 [--max-requests N] [--duration-s S]
                 [--model-dir DIR] [--cache N]
                 [--canary-fraction F] [--canary-after N]

Serves the inference engine over HTTP/1.1 on 127.0.0.1 (--port 0 picks
an ephemeral port; the chosen address is printed as 'listening on
ADDR'). Endpoints:

  POST /v1/infer   raw planar clip in (Content-Type application/x-p3d-f32
                   or application/x-p3d-q78, shape in X-P3D-Shape:
                   C,D,H,W), JSON result out with latency_ms / backend /
                   model_hash / kernel_path / cpu_features / fell_back
                   provenance
  POST /v1/models  raw checkpoint bytes in; validates, persists to the
                   content-addressed registry (--model-dir) and hot-swaps
                   the serving engines — atomically, after a golden-clip
                   smoke test, draining in-flight requests first
  GET  /v1/models  registry listing: serving hash, canary hash,
                   published and quarantined checkpoints
  GET  /stats      live error budget, per-client admission counters,
                   worker-pool, swap/canary/cache and engine telemetry
  GET  /healthz    state-aware probe: 200 'ok', 200 'degraded'
                   (error budget tripping), 503 'draining' (mid-swap
                   or shutting down)

Requests flow through the same resilient pipeline as 'p3d infer
--resilient': validation, bounded admission (--capacity), deadlines
(--deadline-ms), supervised retry (--retries), and sim->f32 degradation
when the backend is sim. --rate/--burst add per-client token-bucket
fairness keyed on the X-P3D-Client header; empty buckets shed as HTTP
429, counted in the error budget. --max-requests / --duration-s bound
the run (0 = unbounded) and print a final report on exit.

--model-dir DIR enables the model-push control plane: the startup
checkpoint is published into DIR and every response carries its content
hash. --canary-fraction F (0 < F <= 1) routes that fraction of traffic
to a pushed model first, auto-promoting after --canary-after decided
requests or auto-rolling-back on quarantine/sentinel/fallback/p99
regression. --cache N keeps an exact-match LRU of N responses keyed by
(model hash, clip hash); hits replay bitwise-identical logits.
Pruned checkpoints are served block-sparse at --tm x --tn.";

fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.get("help", false)? {
        println!("{SERVE_USAGE}");
        return Ok(());
    }
    args.expect_known(
        "serve",
        &[
            "help",
            "model",
            "ckpt",
            "port",
            "backend",
            "tm",
            "tn",
            "seed",
            "batch",
            "threads",
            "capacity",
            "deadline-ms",
            "retries",
            "rate",
            "burst",
            "max-body",
            "max-requests",
            "duration-s",
            "model-dir",
            "cache",
            "canary-fraction",
            "canary-after",
        ],
    )?;
    let model = args.get("model", "lite".to_string())?;
    let spec = model_spec(&model)?;
    let port: u16 = args.get("port", 8080)?;
    let backend = args.get("backend", "sim".to_string())?;
    let primary_is_sim = match backend.as_str() {
        "sim" => true,
        "f32" => false,
        other => return Err(format!("unknown backend '{other}' (expected f32|sim)")),
    };
    let seed: u64 = args.get("seed", 42)?;
    let tm: usize = args.get("tm", 8)?;
    let tn: usize = args.get("tn", 4)?;
    let batch: usize = args.get("batch", 8)?;
    if batch == 0 || batch > MAX_BATCH {
        return Err(format!("--batch {batch} out of range (1..={MAX_BATCH})"));
    }
    let threads: usize = args.get_at_most("threads", 0, MAX_THREADS_FLAG)?;
    let capacity: usize = args.get("capacity", 1024)?;
    if capacity == 0 {
        return Err("--capacity must be positive".into());
    }
    let deadline_ms: u64 = args.get_at_most("deadline-ms", 0, MAX_DEADLINE_MS)?;
    let retries: u32 = args.get_at_most("retries", 2, MAX_RETRIES)?;
    let rate: f64 = args.get("rate", 0.0)?;
    let burst: f64 = args.get("burst", 8.0)?;
    if rate < 0.0 || burst < 0.0 {
        return Err("--rate/--burst must be non-negative".into());
    }
    let max_body: usize = args.get("max-body", WireLimits::default().max_body_bytes)?;
    let max_requests: u64 = args.get("max-requests", 0)?;
    let duration_s: f64 = args.get("duration-s", 0.0)?;
    let model_dir = args.get("model-dir", String::new())?;
    let cache: usize = args.get("cache", 0)?;
    let canary_fraction: f64 = args.get("canary-fraction", 0.0)?;
    let canary_after: u64 = args.get("canary-after", 50)?;
    if !(0.0..=1.0).contains(&canary_fraction) {
        return Err(format!(
            "--canary-fraction {canary_fraction} out of range (0..=1)"
        ));
    }
    if canary_fraction > 0.0 && model_dir.is_empty() {
        return Err("--canary-fraction needs --model-dir (no pushes without a registry)".into());
    }
    let ckpt = args.required("ckpt")?;

    if threads > 0 {
        set_thread_override(Some(threads));
    }
    let (c, d, h, w) = spec.input;
    let replicas = max_threads().min(batch).max(1);
    // One engine topology for the startup checkpoint and every pushed
    // one: the Q7.8 simulator with the f32 network as fallback, or the
    // f32 network alone.
    let engine_spec = spec.clone();
    let engines = move |ckpt: &Checkpoint| -> Result<EnginePair, String> {
        let loaded = ModelCheckpoint::new(&engine_spec, ckpt.clone(), seed)
            .map_err(|e| format!("checkpoint {e}"))?;
        let f32_engine = Box::new(loaded.f32(replicas, tm, tn)?);
        Ok(if primary_is_sim {
            (Box::new(loaded.sim(tm, tn)?), Some(f32_engine))
        } else {
            (f32_engine, None)
        })
    };
    // One read serves the engines and the registry.
    let bytes = std::fs::read(&ckpt).map_err(|e| format!("cannot load {ckpt}: {e}"))?;
    let startup = Checkpoint::read_from(&mut bytes.as_slice())
        .map_err(|e| format!("cannot load {ckpt}: {e}"))?;
    let (primary, fallback) = engines(&startup).map_err(|e| format!("{ckpt}: {e}"))?;

    // The model-push control plane: publish the startup checkpoint into
    // the registry (so the first response already carries provenance)
    // and hand the server a factory that rebuilds the same engine
    // topology from any pushed checkpoint.
    let mut serving_hash = "unkeyed".to_string();
    let models_cfg: Option<ModelPushConfig> = if model_dir.is_empty() {
        None
    } else {
        let registry = ModelRegistry::open(&model_dir)
            .map_err(|e| format!("cannot open model registry {model_dir}: {e}"))?;
        let published = registry
            .publish(&bytes)
            .map_err(|e| format!("cannot publish startup checkpoint: {e}"))?;
        serving_hash = published.hash.clone();
        let golden = p3d::tensor::TensorRng::seed(seed).uniform_tensor([c, d, h, w], 0.0, 1.0);
        let canary = (canary_fraction > 0.0).then(|| CanaryPolicy {
            fraction: canary_fraction,
            decide_after: canary_after,
            ..CanaryPolicy::default()
        });
        Some(ModelPushConfig {
            registry,
            factory: Box::new(engines),
            golden,
            canary,
        })
    };

    let cfg = ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        server: ServerConfig {
            capacity,
            max_batch: batch,
            expected_shape: Some([c, d, h, w]),
            default_deadline: (deadline_ms > 0)
                .then(|| std::time::Duration::from_millis(deadline_ms)),
            max_retries: retries,
            seed,
            ..ServerConfig::default()
        },
        limits: WireLimits {
            max_body_bytes: max_body,
            ..WireLimits::default()
        },
        rate_per_s: rate,
        burst,
        cache_capacity: cache,
        model_hash: serving_hash.clone(),
        ..ServeConfig::default()
    };
    let server = HttpServer::start_with_models(cfg, primary, fallback, models_cfg)
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    println!("listening on {}", server.local_addr());
    if !model_dir.is_empty() {
        println!("serving model {serving_hash} from registry {model_dir}");
    }

    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(25));
        let snap = server.snapshot();
        if max_requests > 0 && snap.http_requests >= max_requests {
            break;
        }
        if duration_s > 0.0 && started.elapsed().as_secs_f64() >= duration_s {
            break;
        }
    }
    let snap = server.shutdown();
    let b = &snap.budget;
    println!(
        "served {} http requests in {:.1} s: {} completed, {} rate limited, {} shed, {} invalid, {} wire rejects, {} batches",
        snap.http_requests,
        snap.uptime_s,
        b.completed,
        b.rate_limited,
        b.shed_overload,
        b.rejected_invalid,
        snap.wire_rejects,
        snap.batches,
    );
    println!("error budget balanced: {}", b.balanced());
    if !model_dir.is_empty() || cache > 0 {
        let s = &snap.swap;
        let (cache_cap, cache_entries, cache_hits, cache_misses) = snap.cache;
        println!(
            "model plane: serving {} | {} published, {} rejected, {} swaps, {} canaries ({} promoted, {} rolled back) | cache {}/{} entries, {} hits, {} misses",
            snap.serving_model,
            s.models_published,
            s.models_rejected,
            s.swaps,
            s.canaries_started,
            s.promotions,
            s.rollbacks,
            cache_entries,
            cache_cap,
            cache_hits,
            cache_misses,
        );
    }
    if threads > 0 {
        set_thread_override(None);
    }
    Ok(())
}

const MODELS_USAGE: &str = "usage: p3d models --dir DIR [--push file.ckpt] [--json]

Inspects (and optionally publishes into) a content-addressed model
registry as used by 'p3d serve --model-dir'. Layout under DIR:

  models/<hash>.ckpt     published checkpoints, named by FNV-1a-64
                         content hash (atomic tmp+fsync+rename writes)
  rejected/<name>.bad    quarantined corrupt pushes, with the typed
                         rejection reason in <name>.reason

--push validates file.ckpt and publishes it under its content hash
(idempotent: re-pushing the same bytes is a no-op). Corrupt or
truncated checkpoints are quarantined, never published. --json emits
the listing as JSON.";

fn cmd_models(args: &Args) -> Result<(), String> {
    if args.get("help", false)? {
        println!("{MODELS_USAGE}");
        return Ok(());
    }
    args.expect_known("models", &["help", "dir", "push", "json"])?;
    let dir = args.required("dir")?;
    let json = args.get("json", false)?;
    let registry =
        ModelRegistry::open(&dir).map_err(|e| format!("cannot open model registry {dir}: {e}"))?;

    if let Some(push) = args.flags.get("push") {
        let bytes = std::fs::read(push).map_err(|e| format!("cannot read {push}: {e}"))?;
        match registry.publish(&bytes) {
            Ok(p) if p.already_present => println!("already published: {}", p.hash),
            Ok(p) => println!("published {} ({} bytes)", p.hash, bytes.len()),
            Err(RegistryError::Rejected { hash, reason }) => {
                return Err(format!(
                    "rejected {hash}: {reason} (quarantined under {dir})"
                ));
            }
            Err(e) => return Err(format!("cannot publish {push}: {e}")),
        }
    }

    let models = registry
        .list()
        .map_err(|e| format!("cannot list {dir}: {e}"))?;
    let rejected = registry
        .rejected()
        .map_err(|e| format!("cannot list rejects in {dir}: {e}"))?;
    if json {
        // The same rows `GET /v1/models` serves, without its live
        // serving/canary fields.
        let models = models
            .iter()
            .map(|m| {
                Obj::new()
                    .str("hash", &m.hash)
                    .u64("bytes", m.bytes)
                    .build()
            })
            .collect::<Vec<_>>()
            .join(", ");
        let rejected = rejected
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
            .raw("models", &format!("[{models}]"))
            .raw("rejected", &format!("[{rejected}]"))
            .build();
        println!("{body}");
    } else {
        println!(
            "registry {dir}: {} published, {} rejected",
            models.len(),
            rejected.len()
        );
        for m in &models {
            println!("  {}  {} bytes", m.hash, m.bytes);
        }
        for r in &rejected {
            println!("  rejected {}: {}", r.name, r.reason);
        }
    }
    Ok(())
}

fn cmd_tables() -> Result<(), String> {
    println!("The table regeneration binaries live in the p3d-bench crate:\n");
    for (bin, what) in [
        ("table1", "R(2+1)D architecture (Table I)"),
        ("table2", "ADMM pruning rates (Table II)"),
        ("table3", "ZCU102 resource utilization (Table III)"),
        ("table4", "performance comparison (Table IV)"),
        ("accuracy", "Section V accuracy experiment (trains)"),
        ("dse", "design-space exploration"),
        ("layer_latency", "per-layer latency/traffic breakdown"),
        ("sweep_sparsity", "latency vs pruning-ratio curve"),
        ("sweep_blockshape", "block-granularity sweep"),
        (
            "ablation_granularity",
            "blockwise vs unstructured vs channel",
        ),
        ("ablation_doublebuffer", "overlap on/off"),
        ("ablation_admm", "ADMM vs one-shot magnitude (trains)"),
        (
            "ablation_quantization",
            "fixed-point precision sweep (trains)",
        ),
        ("ablation_winograd", "Winograd vs pruning"),
        ("generality", "C3D pruning (trains)"),
    ] {
        println!("  cargo run --release -p p3d-bench --bin {bin:<22} # {what}");
    }
    Ok(())
}

/// `p3d ingest`: write a synthetic P3DVID1 container (`--synth`) or
/// stream an existing one through the prefetch pipeline into the f32
/// engine, reporting end-to-end clips/s and overlap telemetry —
/// optionally against the serial decode-then-infer baseline
/// (`--serial`).
fn cmd_ingest(args: &Args) -> Result<(), String> {
    use p3d::nn::Layer;
    use p3d::video_data::io::{
        read_video_clips, save_video, ClipArena, PrefetchConfig, Prefetcher, PreprocessConfig,
        VidHeader,
    };

    args.expect_known(
        "ingest",
        &[
            "synth", "model", "clips", "width", "height", "seed", "input", "ckpt", "resize-h",
            "resize-w", "batch", "depth", "workers", "threads", "serial", "json",
        ],
    )?;
    let model = args.get("model", "micro".to_string())?;
    let spec = model_spec(&model)?;
    let (c, d, h, w) = spec.input;
    if c != 1 {
        return Err(format!(
            "model '{model}' wants {c} input channels; P3DVID1 streams are single-channel gray8"
        ));
    }
    let seed: u64 = args.get("seed", 42)?;

    // ---- writer mode: synthesize a container ------------------------
    if let Some(out) = args.flags.get("synth") {
        let clips: usize = args.get("clips", 24)?;
        let width: u32 = args.get("width", 256)?;
        let height: u32 = args.get("height", 256)?;
        if clips == 0 {
            return Err("--clips must be positive".into());
        }
        let frames = (clips * d) as u32;
        let header = VidHeader::gray8(width, height, frames, 30_000);
        let mut rng = p3d::tensor::TensorRng::seed(seed);
        let data: Vec<Vec<u8>> = (0..frames)
            .map(|_| {
                (0..header.frame_bytes())
                    .map(|_| rng.below(256) as u8)
                    .collect()
            })
            .collect();
        save_video(
            std::path::Path::new(out),
            header,
            data.iter().map(|f| f.as_slice()),
        )
        .map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "wrote {out}: {frames} frames of {width}x{height} gray8 ({clips} clips of {d} for '{model}', {} bytes)",
            header.stream_len()
        );
        return Ok(());
    }

    // ---- run mode: stream the container into the engine -------------
    let input = args.required("input")?;
    let ckpt = args.required("ckpt")?;
    let resize_h: usize = args.get("resize-h", h + h / 4)?;
    let resize_w: usize = args.get("resize-w", w + w / 4)?;
    let batch: usize = args.get("batch", 8)?;
    let depth: usize = args.get("depth", 4)?;
    let workers: usize = args.get("workers", 2)?;
    let threads: usize = args.get_at_most("threads", 0, MAX_THREADS_FLAG)?;
    let serial = args.get("serial", false)?;
    let json_path = args.get("json", String::new())?;
    if batch == 0 || batch > MAX_BATCH {
        return Err(format!("--batch {batch} out of range (1..={MAX_BATCH})"));
    }
    if threads > 0 {
        set_thread_override(Some(threads));
    }

    let loaded = ModelCheckpoint::load(&spec, &ckpt, seed)?;
    let replicas = max_threads().min(batch).max(1);
    // `ingest` takes no --tm/--tn: a pruned checkpoint runs block-sparse
    // at the other commands' default 8x4 blocks.
    let mut engine = loaded.f32(replicas, 8, 4)?;

    let preprocess = PreprocessConfig {
        resize_h,
        resize_w,
        crop_h: h,
        crop_w: w,
    };
    let pcfg = PrefetchConfig {
        depth,
        workers,
        clip_depth: d,
        preprocess,
        fault_clip: None,
    };
    let arena = ClipArena::new(pcfg.clip_shape(), depth + workers + batch);
    let path = std::path::Path::new(&input);

    let t0 = std::time::Instant::now();
    let mut pipe =
        Prefetcher::open(path, pcfg, arena.clone()).map_err(|e| format!("opening {input}: {e}"))?;
    let total = pipe.total_clips();
    if total == 0 {
        return Err(format!(
            "{input} holds fewer than {d} frames — no full clip for '{model}'"
        ));
    }
    let mut predictions: Vec<usize> = Vec::with_capacity(total as usize);
    let mut pipe_bits: Vec<Vec<u32>> = Vec::with_capacity(total as usize);
    let mut pending: Vec<p3d::tensor::Tensor> = Vec::with_capacity(batch);
    loop {
        let clip = pipe
            .next_clip()
            .map_err(|e| format!("streaming {input}: {e}"))?;
        let end = clip.is_none();
        pending.extend(clip.map(|clip| clip.into_tensor()));
        if pending.len() == batch || (end && !pending.is_empty()) {
            for r in engine.infer_batch(&pending) {
                predictions.push(r.prediction);
                pipe_bits.push(r.logits.iter().map(|x| x.to_bits()).collect());
            }
            for t in pending.drain(..) {
                arena.release_tensor(t);
            }
        }
        if end {
            break;
        }
    }
    let pipe_wall = t0.elapsed().as_secs_f64();
    let stats = pipe.stats();
    let grow = arena.stats().grow_events;
    drop(pipe);

    let cps = total as f64 / pipe_wall.max(1e-12);
    println!(
        "pipelined: {total} clips in {:.3} s = {cps:.1} clips/s | decode busy {:.3} s, consumer wait {:.3} s, overlap efficiency {:.2} | arena grow events {grow}",
        pipe_wall,
        stats.decode_busy_s,
        stats.consumer_wait_s,
        stats.overlap_efficiency(),
    );

    let mut serial_cps = 0.0f64;
    let mut bitwise = true;
    if serial {
        let mut net = loaded.network();
        let t1 = std::time::Instant::now();
        let clips = read_video_clips(path, d, &preprocess)
            .map_err(|e| format!("serial decode of {input}: {e}"))?;
        let mut serial_bits: Vec<Vec<u32>> = Vec::with_capacity(clips.len());
        for clip in &clips {
            let batch1 = clip.reshape([1, c, d, h, w]);
            serial_bits.push(
                net.forward(&batch1, p3d::nn::Mode::Eval)
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect(),
            );
        }
        let serial_wall = t1.elapsed().as_secs_f64();
        serial_cps = clips.len() as f64 / serial_wall.max(1e-12);
        bitwise = serial_bits == pipe_bits;
        println!(
            "serial:    {} clips in {:.3} s = {serial_cps:.1} clips/s | pipelined speedup {:.2}x | logits bitwise {}",
            clips.len(),
            serial_wall,
            cps / serial_cps.max(1e-12),
            if bitwise { "identical" } else { "DIVERGED" },
        );
        if !bitwise {
            return Err("pipelined logits diverged from the serial reference".into());
        }
    }

    // Prediction histogram: a quick sanity read on the stream.
    let mut hist: HashMap<usize, usize> = HashMap::new();
    for p in &predictions {
        *hist.entry(*p).or_insert(0) += 1;
    }
    let mut classes: Vec<_> = hist.into_iter().collect();
    classes.sort_unstable();
    let summary: Vec<String> = classes
        .iter()
        .map(|(class, n)| format!("{class}:{n}"))
        .collect();
    println!("predictions: {}", summary.join(" "));

    if !json_path.is_empty() {
        let s = Obj::new()
            .str("input", &input)
            .str("model", &model)
            .u64("clips", total)
            .f64("pipelined_clips_per_s", cps, 2)
            .f64("serial_clips_per_s", serial_cps, 2)
            .f64("overlap_efficiency", stats.overlap_efficiency(), 3)
            .u64("arena_grow_events", grow as u64)
            .bool("bitwise_equal", bitwise)
            .build()
            + "\n";
        std::fs::write(&json_path, s).map_err(|e| format!("writing {json_path}: {e}"))?;
        println!("wrote {json_path}");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err(
            "usage: p3d <train|eval|prune|simulate|infer|ingest|serve|models|tables> [--flag value ...]"
                .into(),
        );
    };
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "prune" => cmd_prune(&args),
        "simulate" => cmd_simulate(&args),
        "infer" => cmd_infer(&args),
        "ingest" => cmd_ingest(&args),
        "serve" => cmd_serve(&args),
        "models" => cmd_models(&args),
        "tables" => cmd_tables(),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
