//! One JSON serializer for every serving report.
//!
//! `p3d infer --json`, the HTTP front door's `/v1/infer` responses, and
//! `GET /stats` all describe the same things — latency summaries,
//! backend provenance, the [`ErrorBudget`] — and historically each call
//! site formatted its own fragment, so the schemas drifted (the batch
//! path emitted no error budget at all). This module is the single
//! source of those fragments: a tiny allocation-light object builder
//! plus the canonical serializers for the shared report types.
//!
//! The builder emits strict JSON (escaped strings, no trailing commas).
//! Floats are rendered with a fixed precision chosen per field by the
//! caller; `NaN`/infinite values are rendered as `null` since JSON has
//! no spelling for them.

use crate::resilience::Response;
use crate::stats::{ErrorBudget, LatencyStats};
use std::fmt::Write as _;

/// Escapes `s` as the contents of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An in-order JSON object builder.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        let _ = write!(self.buf, "\"{}\": ", escape(key));
        &mut self.buf
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Obj {
        let v = escape(value);
        let _ = write!(self.key(key), "\"{v}\"");
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Obj {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a float field rendered with `prec` decimal places
    /// (non-finite values become `null`).
    pub fn f64(mut self, key: &str, value: f64, prec: usize) -> Obj {
        let b = self.key(key);
        if value.is_finite() {
            let _ = write!(b, "{value:.prec$}");
        } else {
            b.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, json: &str) -> Obj {
        self.key(key).push_str(json);
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Renders an `f32` slice as a JSON array with full round-trip
/// precision (shortest representation that re-parses to the same bits).
pub fn f32_array(values: &[f32]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
    out
}

/// Renders the raw bit patterns of an `f32` slice — the lossless twin
/// of [`f32_array`], letting wire clients check bitwise equality.
pub fn f32_bits_array(values: &[f32]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", v.to_bits());
    }
    out.push(']');
    out
}

/// The canonical `error_budget` object. Key order is part of the
/// schema: the CLI, the HTTP `/stats` endpoint, and the tests all read
/// this shape.
pub fn budget_json(b: &ErrorBudget) -> String {
    Obj::new()
        .u64("submitted", b.submitted)
        .u64("admitted", b.admitted)
        .u64("shed_overload", b.shed_overload)
        .u64("rejected_invalid", b.rejected_invalid)
        .u64("rate_limited", b.rate_limited)
        .u64("deadline_expired", b.deadline_expired)
        .u64("deadline_missed", b.deadline_missed)
        .u64("retries", b.retries)
        .u64("worker_failures", b.worker_failures)
        .u64("worker_restarts", b.worker_restarts)
        .u64("quarantined", b.quarantined)
        .u64("fallbacks", b.fallbacks)
        .u64("sentinel_trips", b.sentinel_trips)
        .u64("completed", b.completed)
        .bool("balanced", b.balanced())
        .build()
}

/// One per-backend result row, shared by `p3d infer --json` (both batch
/// and resilient modes) and by serving reports.
pub struct BackendReport<'a> {
    /// Backend short name (`"f32"`, `"sim"`).
    pub backend: &'a str,
    /// `"batch"` for a run with the serving policies off, `"resilient"`
    /// for the hardened path, `"http"` for the network front door.
    pub mode: &'a str,
    /// Completed clips per wall-clock second.
    pub clips_per_s: f64,
    /// Latency percentiles over completed requests.
    pub latency: LatencyStats,
    /// Classification accuracy over completed requests.
    pub accuracy: f64,
    /// Engine batches dispatched.
    pub batches: usize,
    /// The run's error accounting. Every mode serves through
    /// [`crate::ResilientServer`], so each request in it was counted
    /// once, where its response was emitted.
    pub budget: ErrorBudget,
}

/// Renders a [`BackendReport`]. One schema for every mode.
pub fn backend_row(r: &BackendReport<'_>) -> String {
    Obj::new()
        .str("backend", r.backend)
        .str("mode", r.mode)
        .f64("clips_per_s", r.clips_per_s, 2)
        .f64("p50_ms", r.latency.p50_ms, 3)
        .f64("p95_ms", r.latency.p95_ms, 3)
        .f64("p99_ms", r.latency.p99_ms, 3)
        .f64("mean_ms", r.latency.mean_ms, 3)
        .f64("accuracy", r.accuracy, 4)
        .u64("batches", r.batches as u64)
        .raw("error_budget", &budget_json(&r.budget))
        .build()
}

/// Renders the body of one `/v1/infer` HTTP response: the clip's
/// result plus its serving provenance. `kernel_path`/`cpu_features`
/// come from the host's SIMD dispatch so every wire response carries
/// the provenance `p3d infer` prints.
pub fn response_json(resp: &Response, kernel_path: &str, cpu_features: &str) -> String {
    let mut obj = Obj::new()
        .u64("index", resp.index as u64)
        .str("backend", &resp.backend)
        .str("kernel_path", kernel_path)
        .str("cpu_features", cpu_features)
        .str("model_hash", &resp.model_hash)
        .bool("fell_back", resp.fell_back)
        .u64("attempts", resp.attempts as u64)
        .f64("latency_ms", resp.latency_ms, 3)
        .bool("deadline_missed", resp.deadline_missed)
        .f64("saturation", resp.saturation, 6);
    match &resp.outcome {
        Ok(result) => {
            obj = obj
                .u64("prediction", result.prediction as u64)
                .raw("logits", &f32_array(&result.logits))
                .raw("logits_bits", &f32_bits_array(&result.logits));
        }
        Err(e) => {
            obj = obj.str("error", &e.to_string());
        }
    }
    obj.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClipResult;
    use crate::stats::Resolution;

    #[test]
    fn escaping_covers_quotes_controls_and_backslashes() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn obj_builds_ordered_strict_json() {
        let s = Obj::new()
            .str("a", "x\"y")
            .u64("b", 7)
            .f64("c", 1.5, 2)
            .bool("d", true)
            .raw("e", "[1, 2]")
            .f64("nan", f64::NAN, 3)
            .build();
        assert_eq!(
            s,
            "{\"a\": \"x\\\"y\", \"b\": 7, \"c\": 1.50, \"d\": true, \"e\": [1, 2], \"nan\": null}"
        );
    }

    #[test]
    fn f32_arrays_round_trip_bits() {
        let v = [1.0f32, -0.33333334, f32::MIN_POSITIVE];
        let rendered = f32_array(&v);
        // Shortest-repr f32 formatting re-parses to identical bits.
        let parsed: Vec<f32> = rendered
            .trim_matches(['[', ']'])
            .split(", ")
            .map(|s| s.parse().unwrap())
            .collect();
        for (a, b) in v.iter().zip(&parsed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            f32_bits_array(&v),
            format!("[{}, {}, {}]", v[0].to_bits(), v[1].to_bits(), v[2].to_bits())
        );
    }

    #[test]
    fn budget_json_reports_balance() {
        let mut b = ErrorBudget::default();
        for _ in 0..5 {
            b.resolve(Resolution::Completed);
        }
        let s = budget_json(&b);
        assert!(s.contains("\"submitted\": 5"));
        assert!(s.contains("\"rate_limited\": 0"));
        assert!(s.contains("\"balanced\": true"));
    }

    #[test]
    fn response_json_carries_result_or_error() {
        let ok = Response {
            index: 3,
            outcome: Ok(ClipResult {
                logits: vec![0.5, -1.0],
                prediction: 0,
            }),
            backend: "f32".to_string(),
            fell_back: false,
            attempts: 1,
            latency_ms: 2.25,
            deadline_missed: false,
            saturation: 0.0,
            model_hash: "0123456789abcdef".to_string(),
        };
        let s = response_json(&ok, "avx2", "avx2");
        assert!(s.contains("\"prediction\": 0"));
        assert!(s.contains("\"logits_bits\": "));
        assert!(s.contains("\"kernel_path\": \"avx2\""));
        assert!(s.contains("\"model_hash\": \"0123456789abcdef\""));

        let err = Response {
            outcome: Err(crate::resilience::InferError::DeadlineExpired),
            ..ok
        };
        let s = response_json(&err, "scalar", "none");
        assert!(s.contains("\"error\": \"deadline expired before service\""));
        assert!(!s.contains("logits"));
    }
}
