//! End-to-end and per-layer benchmark of the p3d serving, streaming
//! ingest and pruned f32 / Q7.8 inference paths.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_small|ingest_large|pruned_f32|pruned_sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the host. See `perfbench/README.md`.

mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use layers::Metrics;
use stats::{cpu_ticks, median, peak_rss_mb, steal_share};
use std::path::PathBuf;
use workloads::{Kind, RunOpts, Workload};

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The untraced run: every end-to-end metric.
fn end_to_end(args: &Args, work_dir: &std::path::Path) -> (Metrics, u64, u64) {
    let workload = Workload::prepare(args.kind, args.seed, work_dir);
    let out = workload.run(&RunOpts {
        seconds: args.seconds,
        setups: SETUPS,
        tracer: None,
    });
    let mut m = Metrics::default();
    m.put("clips_per_s", out.clips_per_s(), "1/s");
    m.put("latency_p50_ms", out.latency_ms(0.5), "ms");
    m.put("setup_s", median(&out.setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "{}: {} correct clips (latency samples) in {:.2} s, {} of {} set-ups correct, fail_ratio {}",
        args.kind.name(),
        out.samples.len(),
        out.wall_s,
        out.setup_s.len(),
        SETUPS,
        out.fail_ratio()
    );
    (m, out.attempted, out.failed)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <serve_small|ingest_large|pruned_f32|pruned_sim> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let tag = format!("{}-{}-{}", args.kind.name(), args.seed, std::process::id());
    let work_dir = target.join("perfbench-work").join(&tag);
    std::fs::create_dir_all(&work_dir).expect("create the work directory");
    p3d_infer::install_quiet_panic_hook();

    let ticks = cpu_ticks();
    let (mut metrics, attempted, failed) = if args.trace {
        let (mut m, chk, spans) = layers::traced_run(args.kind, args.seed, args.seconds, &work_dir);
        m.put(
            "fail_ratio",
            chk.failed as f64 / chk.attempted.max(1) as f64,
            "ratio",
        );
        let path = target.join("perfbench-spans").join(format!("{tag}.tsv"));
        match trace::write_spans(&path, &spans) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        (m, chk.attempted, chk.failed)
    } else {
        end_to_end(&args, &work_dir)
    };
    let steal = steal_share(ticks, cpu_ticks());
    let _ = std::fs::remove_dir_all(&work_dir);

    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"simd\": \"{}\", \"cpu_features\": \"{}\", \"steal_share\": {}}}}}",
        args.kind.name(),
        args.seed,
        p3d_tensor::simd::active().name(),
        p3d_tensor::simd::cpu_features(),
        steal.map(|s| format!("{s:.4}")).unwrap_or_else(|| "null".to_string())
    );

    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    for (_, v, _) in metrics.0.iter_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    let correct = finite && attempted > 0 && failed == 0;
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
