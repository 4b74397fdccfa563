//! Integration tests for the `p3d` command-line interface.

use std::process::Command;

fn p3d() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p3d"))
}

#[test]
fn no_command_prints_usage() {
    let out = p3d().output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = p3d().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn unknown_model_rejected() {
    let out = p3d()
        .args(["train", "--model", "resnet-900", "--epochs", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown model"));
}

#[test]
fn missing_required_flag_reported() {
    let out = p3d().args(["eval"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--ckpt is required"));
}

#[test]
fn tables_lists_bench_binaries() {
    let out = p3d().arg("tables").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for bin in ["table1", "table4", "accuracy", "ablation_winograd"] {
        assert!(text.contains(bin), "missing {bin} in tables output");
    }
}

#[test]
fn train_eval_simulate_roundtrip() {
    let dir = std::env::temp_dir().join("p3d_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("micro.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    let out = p3d()
        .args([
            "train", "--model", "micro", "--epochs", "2", "--clips", "30", "--seed", "7", "--out",
            ckpt_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.exists(), "checkpoint not written");

    let out = p3d()
        .args([
            "eval", "--model", "micro", "--ckpt", ckpt_s, "--clips", "30", "--seed", "7",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("test accuracy"));

    let out = p3d()
        .args([
            "simulate", "--model", "micro", "--ckpt", ckpt_s, "--tm", "4", "--tn", "4", "--clips",
            "10", "--seed", "7",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simulated accuracy"));
    assert!(text.contains("ms/clip"));
    let _ = std::fs::remove_file(&ckpt);
}

/// Trains a one-epoch micro checkpoint at `path` from `clips` clips.
fn train_micro(path: &std::path::Path, clips: &str) {
    let out = p3d()
        .args([
            "train", "--model", "micro", "--epochs", "1", "--clips", clips,
        ])
        .args(["--seed", "7", "--out", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// An empty test split (`--clips 1`) and a zero tiling factor are
/// refused with an error, not a panic or a 0-clip run.
#[test]
fn empty_test_split_and_zero_tiles_fail_cleanly() {
    let dir = std::env::temp_dir().join("p3d_cli_refusals");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("micro.ckpt");
    train_micro(&ckpt, "4");
    let ckpt_s = ckpt.to_str().unwrap();
    let refused = |args: &[&str], why: &str| {
        let out = p3d()
            .args(args)
            .args(["--model", "micro", "--ckpt", ckpt_s])
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
        assert!(err.contains(why), "{args:?}: {err}");
    };
    for cmd in ["eval", "simulate", "infer"] {
        refused(&[cmd, "--clips", "1"], "leaves no test clips");
    }
    for cmd in ["simulate", "infer", "serve", "prune"] {
        for tile in ["--tm", "--tn"] {
            refused(&[cmd, tile, "0"], "--tm/--tn must be positive");
        }
    }
    let _ = std::fs::remove_file(&ckpt);
}

/// The mean latency `p3d simulate` prints for `ckpt`, in ms per clip.
fn simulated_latency_ms(ckpt: &str) -> f64 {
    let out = p3d()
        .args(["simulate", "--model", "micro", "--ckpt", ckpt])
        .args(["--clips", "8", "--seed", "7"])
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    text.split_once("mean latency: ")
        .and_then(|(_, rest)| rest.split_once(" ms/clip"))
        .and_then(|(ms, _)| ms.parse().ok())
        .unwrap_or_else(|| panic!("no latency in {text}"))
}

/// `p3d simulate` runs a pruned checkpoint with its blocks skipped, so
/// it models a lower latency than for the dense checkpoint it came from.
#[test]
fn train_prune_simulate_reports_the_pruned_latency() {
    let dir = std::env::temp_dir().join("p3d_cli_prune_simulate");
    std::fs::create_dir_all(&dir).unwrap();
    let dense = dir.join("model.ckpt");
    let pruned = dir.join("pruned.ckpt");
    train_micro(&dense, "8");
    let out = p3d()
        .args([
            "prune",
            "--model",
            "micro",
            "--ckpt",
            dense.to_str().unwrap(),
        ])
        .args(["--clips", "8", "--retrain", "1", "--seed", "7"])
        .args(["--out", pruned.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "prune failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dense_ms = simulated_latency_ms(dense.to_str().unwrap());
    let pruned_ms = simulated_latency_ms(pruned.to_str().unwrap());
    assert!(
        pruned_ms < dense_ms,
        "pruned {pruned_ms} ms, dense {dense_ms} ms"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_with_wrong_model_for_checkpoint_fails() {
    let dir = std::env::temp_dir().join("p3d_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("micro2.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let out = p3d()
        .args([
            "train", "--model", "micro", "--epochs", "1", "--clips", "20", "--out", ckpt_s,
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    // c3d-lite has entirely different parameter names.
    let out = p3d()
        .args(["eval", "--model", "c3d-lite", "--ckpt", ckpt_s])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    // Either the clean no-overlap error, or the shape-mismatch panic from
    // a colliding parameter name (both models call their classifier "fc").
    assert!(
        err.contains("matches no parameters") || err.contains("shape mismatch"),
        "unexpected failure mode: {err}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn infer_help_exits_zero_with_usage() {
    let out = p3d().args(["infer", "--help"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: p3d infer"), "{text}");
    assert!(text.contains("--backend"), "{text}");
}

#[test]
fn infer_unknown_flag_rejected() {
    let out = p3d()
        .args(["infer", "--bogus", "1", "--ckpt", "whatever.ckpt"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --bogus"), "{err}");
    assert!(err.contains("p3d infer --help"), "{err}");
}

#[test]
fn infer_missing_checkpoint_path_fails_cleanly() {
    let out = p3d()
        .args([
            "infer",
            "--model",
            "micro",
            "--ckpt",
            "/nonexistent/missing.ckpt",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot load /nonexistent/missing.ckpt"),
        "{err}"
    );
}

#[test]
fn infer_streams_both_backends_and_writes_json() {
    let dir = std::env::temp_dir().join("p3d_cli_infer");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("micro.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let json = dir.join("infer.json");
    let json_s = json.to_str().unwrap();

    let out = p3d()
        .args([
            "train", "--model", "micro", "--epochs", "1", "--clips", "20", "--seed", "9", "--out",
            ckpt_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = p3d()
        .args([
            "infer",
            "--model",
            "micro",
            "--ckpt",
            ckpt_s,
            "--clips",
            "12",
            "--batch",
            "4",
            "--backend",
            "both",
            "--tm",
            "4",
            "--tn",
            "4",
            "--seed",
            "9",
            "--json",
            json_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "infer failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clips/s"), "{text}");
    assert!(text.contains("p50"), "{text}");
    assert!(text.contains("accuracy"), "{text}");
    assert!(text.contains("f32"), "{text}");
    assert!(text.contains("sim"), "{text}");

    let report = std::fs::read_to_string(&json).expect("json report written");
    assert!(report.contains("\"backend\": \"f32\""), "{report}");
    assert!(report.contains("\"backend\": \"sim\""), "{report}");
    assert!(report.contains("\"p99_ms\""), "{report}");
    assert_eq!(
        report.matches('{').count(),
        report.matches('}').count(),
        "unbalanced JSON: {report}"
    );
    // Batch mode serves each backend with the policies off: every test
    // clip completes, in ceil(clips / batch) batches, and none is shed.
    let clips = json_u64(&report, "clips");
    let rows: Vec<&str> = report.split("\"backend\": ").skip(1).collect();
    assert_eq!(rows.len(), 2, "{report}");
    for row in rows {
        assert!(row.contains("\"mode\": \"batch\""), "{row}");
        assert_eq!(json_u64(row, "completed"), clips, "{row}");
        assert_eq!(json_u64(row, "batches"), clips.div_ceil(4), "{row}");
        assert_eq!(json_u64(row, "shed_overload"), 0, "{row}");
    }

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&json);
}

#[test]
fn infer_rejects_bad_backend() {
    let out = p3d()
        .args(["infer", "--ckpt", "x.ckpt", "--backend", "tpu"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown backend 'tpu'"), "{err}");
}

/// Every implausible or zero flag value must fail fast with a clear
/// message and a nonzero exit, before any model work starts.
#[test]
fn infer_rejects_zero_and_implausible_flag_values() {
    let cases: &[(&[&str], &str)] = &[
        (&["--batch", "0"], "--batch must be positive"),
        (&["--batch", "100000"], "--batch 100000 is not plausible"),
        (&["--threads", "99999"], "--threads 99999 is not plausible"),
        (&["--replicas", "0"], "--replicas must be positive"),
        (&["--replicas", "5000"], "--replicas 5000 is not plausible"),
        (&["--deadline-ms", "0"], "--deadline-ms must be positive"),
        (
            &["--deadline-ms", "86400000"],
            "--deadline-ms 86400000 is not plausible",
        ),
        (&["--retries", "99"], "--retries 99 is not plausible"),
        (&["--batch", "abc"], "invalid value 'abc' for --batch"),
    ];
    for (flags, want) in cases {
        let out = p3d()
            .args(["infer", "--ckpt", "x.ckpt"])
            .args(*flags)
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{flags:?} should have been rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "for {flags:?}: {err}");
    }
}

/// Pulls the integer after `"key": ` out of a JSON string.
fn json_u64(report: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = report
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {report}"));
    report[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer after key")
}

#[test]
fn infer_resilient_chaos_reports_error_budget() {
    let dir = std::env::temp_dir().join("p3d_cli_chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("micro.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let json = dir.join("chaos.json");
    let json_s = json.to_str().unwrap();

    let out = p3d()
        .args([
            "train", "--model", "micro", "--epochs", "1", "--clips", "20", "--seed", "9", "--out",
            ckpt_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 24 requested clips -> 12 test clips; chaos seed 7 schedules at
    // least one transient panic and one saturation storm over them.
    let out = p3d()
        .args([
            "infer",
            "--model",
            "micro",
            "--ckpt",
            ckpt_s,
            "--clips",
            "24",
            "--batch",
            "8",
            "--backend",
            "sim",
            "--tm",
            "4",
            "--tn",
            "4",
            "--chaos-seed",
            "7",
            "--capacity",
            "64",
            "--retries",
            "2",
            "--json",
            json_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "chaos infer failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("budget:"), "{text}");
    assert!(text.contains("fallbacks"), "{text}");

    let report = std::fs::read_to_string(&json).expect("json report written");
    assert!(report.contains("\"mode\": \"resilient\""), "{report}");
    assert!(report.contains("\"error_budget\""), "{report}");
    let submitted = json_u64(&report, "submitted");
    let completed = json_u64(&report, "completed");
    let quarantined = json_u64(&report, "quarantined");
    let expired = json_u64(&report, "deadline_expired");
    let shed = json_u64(&report, "shed_overload");
    let invalid = json_u64(&report, "rejected_invalid");
    assert_eq!(submitted, 12);
    // Exactly-once: admission and resolution partitions must balance.
    assert_eq!(
        json_u64(&report, "admitted") + shed + invalid,
        submitted,
        "{report}"
    );
    assert_eq!(
        completed + expired + quarantined,
        json_u64(&report, "admitted"),
        "{report}"
    );
    // The seeded mix must actually exercise the machinery.
    assert!(
        json_u64(&report, "retries") >= 1,
        "no retries under chaos: {report}"
    );
    assert!(
        json_u64(&report, "fallbacks") >= 1,
        "no sim->f32 fallback under chaos: {report}"
    );
    assert_eq!(
        report.matches('{').count(),
        report.matches('}').count(),
        "unbalanced JSON: {report}"
    );

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&json);
}

/// Regression for the `--json` schema drift: the batch path used to
/// emit rows with no `mode` and no `error_budget` while the resilient
/// path embedded both, so consumers needed two parsers. Both modes now
/// render through one serializer and must carry the same keys — batch
/// mode with the degenerate all-completed budget.
#[test]
fn infer_json_schema_is_identical_across_modes() {
    let dir = std::env::temp_dir().join("p3d_cli_schema");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("micro.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let batch_json = dir.join("batch.json");
    let resilient_json = dir.join("resilient.json");

    let out = p3d()
        .args([
            "train", "--model", "micro", "--epochs", "1", "--clips", "20", "--seed", "9", "--out",
            ckpt_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    for (mode_flags, path) in [
        (&[][..], &batch_json),
        (&["--resilient"][..], &resilient_json),
    ] {
        let out = p3d()
            .args([
                "infer",
                "--model",
                "micro",
                "--ckpt",
                ckpt_s,
                "--clips",
                "12",
                "--batch",
                "4",
                "--backend",
                "f32",
                "--seed",
                "9",
                "--json",
                path.to_str().unwrap(),
            ])
            .args(mode_flags)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "infer {mode_flags:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let batch = std::fs::read_to_string(&batch_json).expect("batch json");
    let resilient = std::fs::read_to_string(&resilient_json).expect("resilient json");
    // One schema: every key present in one mode's row exists in the
    // other's. (Schema stability — consumers parse both with one shape.)
    for key in [
        "backend",
        "mode",
        "clips_per_s",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "mean_ms",
        "accuracy",
        "batches",
        "error_budget",
        "submitted",
        "admitted",
        "shed_overload",
        "rejected_invalid",
        "rate_limited",
        "deadline_expired",
        "retries",
        "quarantined",
        "fallbacks",
        "completed",
        "balanced",
    ] {
        let pat = format!("\"{key}\"");
        assert!(batch.contains(&pat), "batch report lacks {key}: {batch}");
        assert!(
            resilient.contains(&pat),
            "resilient report lacks {key}: {resilient}"
        );
    }
    assert!(batch.contains("\"mode\": \"batch\""), "{batch}");
    assert!(resilient.contains("\"mode\": \"resilient\""), "{resilient}");
    // The batch-mode budget is the degenerate balanced one.
    assert_eq!(json_u64(&batch, "submitted"), 6);
    assert_eq!(json_u64(&batch, "completed"), 6);
    assert!(batch.contains("\"balanced\": true"), "{batch}");

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&batch_json);
    let _ = std::fs::remove_file(&resilient_json);
}

/// `p3d serve` end to end as a child process: binds an ephemeral port,
/// answers /healthz, /stats, and a real zero-clip inference, exits on
/// --max-requests, and reports a balanced budget on the way out.
#[test]
fn serve_answers_http_and_exits_with_balanced_budget() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join("p3d_cli_serve");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("micro.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    let out = p3d()
        .args([
            "train", "--model", "micro", "--epochs", "1", "--clips", "20", "--seed", "9", "--out",
            ckpt_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = p3d()
        .args([
            "serve",
            "--model",
            "micro",
            "--ckpt",
            ckpt_s,
            "--port",
            "0",
            "--backend",
            "f32",
            "--seed",
            "9",
            "--max-requests",
            "3",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();

    let request = |head: &str, body: &[u8]| -> String {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(body).unwrap();
        s.flush().unwrap();
        let mut reply = Vec::new();
        let _ = s.read_to_end(&mut reply);
        String::from_utf8_lossy(&reply).into_owned()
    };

    let health = request("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", b"");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    // A micro clip of zeros: [1, 6, 16, 16] little-endian f32.
    let clip = vec![0u8; 6 * 16 * 16 * 4];
    let infer = request(
        &format!(
            "POST /v1/infer HTTP/1.1\r\nConnection: close\r\n\
             Content-Type: application/x-p3d-f32\r\nX-P3D-Shape: 1,6,16,16\r\n\
             Content-Length: {}\r\n\r\n",
            clip.len()
        ),
        &clip,
    );
    assert!(infer.starts_with("HTTP/1.1 200"), "{infer}");
    for key in ["prediction", "logits_bits", "kernel_path", "latency_ms"] {
        assert!(
            infer.contains(&format!("\"{key}\"")),
            "response lacks {key}: {infer}"
        );
    }

    let stats = request("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n", b"");
    assert!(stats.starts_with("HTTP/1.1 200"), "{stats}");
    assert!(stats.contains("\"error_budget\""), "{stats}");

    // Third request trips --max-requests; the server exits on its own.
    let status = child.wait().expect("serve exit");
    assert!(status.success(), "serve exited nonzero");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("error budget balanced: true"),
        "final report: {rest}"
    );
    assert!(
        rest.contains("served 3 http requests"),
        "final report: {rest}"
    );

    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn models_subcommand_publishes_lists_and_rejects() {
    let dir = std::env::temp_dir().join("p3d_cli_models");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("micro.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let registry = dir.join("registry");
    let registry_s = registry.to_str().unwrap();

    let out = p3d()
        .args([
            "train", "--model", "micro", "--epochs", "1", "--clips", "20", "--seed", "11", "--out",
            ckpt_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Publish, then list — the content hash shows up in both.
    let out = p3d()
        .args(["models", "--dir", registry_s, "--push", ckpt_s])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("published "), "{text}");

    let out = p3d()
        .args(["models", "--dir", registry_s, "--json"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"models\""), "{json}");
    assert!(json.contains("\"hash\""), "{json}");

    // Re-pushing the same bytes is idempotent, not an error.
    let out = p3d()
        .args(["models", "--dir", registry_s, "--push", ckpt_s])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("already published"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A truncated checkpoint is rejected typed, exits nonzero, and is
    // quarantined — visible in the next listing.
    let bytes = std::fs::read(&ckpt).unwrap();
    let broken = dir.join("broken.ckpt");
    std::fs::write(&broken, &bytes[..bytes.len() / 2]).unwrap();
    let out = p3d()
        .args([
            "models",
            "--dir",
            registry_s,
            "--push",
            broken.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "corrupt push must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rejected"), "{err}");

    let out = p3d()
        .args(["models", "--dir", registry_s])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 published, 1 rejected"), "{text}");

    // A quarantined entry whose name holds a quote and whose reason
    // holds a tab and an inner newline still lists as valid JSON.
    let rejects = registry.join("rejected");
    std::fs::write(rejects.join("odd\"name.bad"), b"junk").unwrap();
    std::fs::write(
        rejects.join("odd\"name.reason"),
        "bad\tmagic\nsecond line\n",
    )
    .unwrap();
    let out = p3d()
        .args(["models", "--dir", registry_s, "--json"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    let json = json.trim_end();
    assert!(json.contains(r#""name": "odd\"name""#), "{json}");
    assert!(
        json.contains(r#""reason": "bad\tmagic\nsecond line""#),
        "{json}"
    );
    assert!(!json.chars().any(char::is_control), "{json}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_with_model_dir_hot_swaps_over_the_wire() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join("p3d_cli_swap");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_a = dir.join("a.ckpt");
    let ckpt_b = dir.join("b.ckpt");
    let registry = dir.join("registry");

    for (seed, path) in [("13", &ckpt_a), ("14", &ckpt_b)] {
        let out = p3d()
            .args([
                "train",
                "--model",
                "micro",
                "--epochs",
                "1",
                "--clips",
                "20",
                "--seed",
                seed,
                "--out",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "train failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let mut child = p3d()
        .args([
            "serve",
            "--model",
            "micro",
            "--ckpt",
            ckpt_a.to_str().unwrap(),
            "--port",
            "0",
            "--backend",
            "f32",
            "--seed",
            "13",
            "--model-dir",
            registry.to_str().unwrap(),
            "--cache",
            "16",
            "--max-requests",
            "4",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();
    line.clear();
    stdout.read_line(&mut line).expect("registry line");
    assert!(line.contains("from registry"), "{line}");

    let request = |head: &str, body: &[u8]| -> String {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(body).unwrap();
        s.flush().unwrap();
        let mut reply = Vec::new();
        let _ = s.read_to_end(&mut reply);
        String::from_utf8_lossy(&reply).into_owned()
    };

    // Push B, block-pruned, over the wire; the server validates,
    // publishes and swaps to engines that skip its pruned blocks.
    let b_pruned = dir.join("b_pruned.ckpt");
    let out = p3d()
        .args([
            "prune",
            "--model",
            "micro",
            "--ckpt",
            ckpt_b.to_str().unwrap(),
        ])
        .args(["--clips", "8", "--retrain", "1", "--seed", "14"])
        .args(["--out", b_pruned.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "prune failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let b_bytes = std::fs::read(&b_pruned).unwrap();
    let push = request(
        &format!(
            "POST /v1/models HTTP/1.1\r\nConnection: close\r\n\
             Content-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
            b_bytes.len()
        ),
        &b_bytes,
    );
    assert!(push.starts_with("HTTP/1.1 202"), "{push}");
    assert!(push.contains("\"swapping\""), "{push}");

    // An infer request lands on exactly one of the two models (the
    // swap races the request) and carries its provenance.
    let clip = vec![0u8; 6 * 16 * 16 * 4];
    let infer = request(
        &format!(
            "POST /v1/infer HTTP/1.1\r\nConnection: close\r\n\
             Content-Type: application/x-p3d-f32\r\nX-P3D-Shape: 1,6,16,16\r\n\
             Content-Length: {}\r\n\r\n",
            clip.len()
        ),
        &clip,
    );
    assert!(infer.starts_with("HTTP/1.1 200"), "{infer}");
    assert!(infer.contains("\"model_hash\""), "{infer}");

    let listing = request("GET /v1/models HTTP/1.1\r\nConnection: close\r\n\r\n", b"");
    assert!(listing.starts_with("HTTP/1.1 200"), "{listing}");
    assert!(listing.contains("\"serving\""), "{listing}");

    // Fourth request trips --max-requests; the server exits on its own.
    let _ = request("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n", b"");
    let status = child.wait().expect("serve exit");
    assert!(status.success(), "serve exited nonzero");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("error budget balanced: true"),
        "final report: {rest}"
    );
    assert!(
        rest.contains("model plane: serving"),
        "final report: {rest}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
