//! Hot-swap and canary-rollback policy for the serving front door.
//!
//! The mechanism (drain, lane routing, engine replacement) lives in
//! `http.rs`, inside the single dispatcher that already owns the
//! engines; this module holds the *policy*: when a canary trial is
//! decided, and which way. Keeping the verdict a pure function of two
//! [`ErrorBudget`]s plus latency samples makes the rollback rules unit
//! testable without standing up a server.
//!
//! The swap lifecycle, as driven by the dispatcher:
//!
//! ```text
//! push → validate → build engines → smoke test (golden clip)
//!      → [no canary policy]  drain incumbent, switch atomically
//!      → [canary policy]     route `fraction` of traffic to the
//!                            candidate lane; after each drain round
//!                            consult `canary_verdict`; Promote swaps,
//!                            Rollback discards the candidate
//! ```

use crate::engine::{InferenceEngine, SlotCtx, SupervisedSlot};
use crate::stats::{percentile, ErrorBudget};
use p3d_tensor::Tensor;

/// When and how a canary trial is judged. All thresholds compare the
/// candidate lane against the incumbent measured over the *same* trial
/// window, so ambient load shifts don't bias the verdict.
#[derive(Clone, Debug)]
pub struct CanaryPolicy {
    /// Fraction of incoming requests routed to the candidate, in
    /// (0, 1). Routing is deterministic (a low-discrepancy counter),
    /// not random, so tests are exactly reproducible.
    pub fraction: f64,
    /// Minimum number of canary-lane resolutions before a promote /
    /// statistical-rollback decision. Hard failures (quarantine,
    /// sentinel trip) roll back immediately regardless.
    pub decide_after: u64,
    /// Roll back if canary p99 latency exceeds incumbent p99 by this
    /// multiple (and the incumbent has enough samples to trust).
    pub p99_blowout: f64,
    /// Roll back if the canary's fallback rate exceeds the incumbent's
    /// by more than this absolute amount (a saturation-rate spike
    /// surfaces as fallback traffic).
    pub max_extra_fallback_rate: f64,
}

impl Default for CanaryPolicy {
    fn default() -> Self {
        CanaryPolicy {
            fraction: 0.2,
            decide_after: 50,
            p99_blowout: 3.0,
            max_extra_fallback_rate: 0.05,
        }
    }
}

/// The outcome of judging a canary trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CanaryVerdict {
    /// The candidate is at least as healthy as the incumbent: make it
    /// the serving model.
    Promote,
    /// The candidate regressed: discard it and keep the incumbent.
    Rollback {
        /// Human-readable regression that triggered the rollback.
        reason: String,
    },
}

/// Number of incumbent latency samples required before latency-ratio
/// comparisons are trusted. Below this, p99 of the incumbent window is
/// too noisy to indict the candidate.
const MIN_INCUMBENT_SAMPLES: usize = 8;

/// Judges a canary trial. Returns `None` while the trial should keep
/// running, `Some(verdict)` once a decision is warranted.
///
/// Hard failures — any quarantine or sentinel trip in the canary lane —
/// roll back immediately: those are exactly the poison-model signals
/// the trial exists to catch, and waiting for `decide_after` samples
/// would just poison more traffic. Statistical regressions (fallback
/// rate, p99) wait for `decide_after` resolutions.
pub fn canary_verdict(
    canary: &ErrorBudget,
    canary_latencies_ms: &[f64],
    incumbent: &ErrorBudget,
    incumbent_latencies_ms: &[f64],
    policy: &CanaryPolicy,
) -> Option<CanaryVerdict> {
    if canary.quarantined > 0 {
        return Some(CanaryVerdict::Rollback {
            reason: format!("canary quarantined {} request(s)", canary.quarantined),
        });
    }
    if canary.sentinel_trips > 0 {
        return Some(CanaryVerdict::Rollback {
            reason: format!(
                "canary tripped {} numeric sentinel(s)",
                canary.sentinel_trips
            ),
        });
    }
    let resolved = canary.completed + canary.deadline_expired;
    if resolved < policy.decide_after {
        return None;
    }
    let canary_fb = rate(canary.fallbacks, canary.completed);
    let incumbent_fb = rate(incumbent.fallbacks, incumbent.completed);
    if canary_fb > incumbent_fb + policy.max_extra_fallback_rate {
        return Some(CanaryVerdict::Rollback {
            reason: format!(
                "canary fallback rate {canary_fb:.3} vs incumbent {incumbent_fb:.3} \
                 (saturation-rate spike)"
            ),
        });
    }
    if incumbent_latencies_ms.len() >= MIN_INCUMBENT_SAMPLES && !canary_latencies_ms.is_empty() {
        let mut canary_sorted = canary_latencies_ms.to_vec();
        canary_sorted.sort_by(|a, b| a.total_cmp(b));
        let mut incumbent_sorted = incumbent_latencies_ms.to_vec();
        incumbent_sorted.sort_by(|a, b| a.total_cmp(b));
        let canary_p99 = percentile(&canary_sorted, 99.0);
        let incumbent_p99 = percentile(&incumbent_sorted, 99.0);
        if incumbent_p99 > 0.0 && canary_p99 > incumbent_p99 * policy.p99_blowout {
            return Some(CanaryVerdict::Rollback {
                reason: format!(
                    "canary p99 {canary_p99:.2} ms vs incumbent {incumbent_p99:.2} ms \
                     (blowout > {:.1}x)",
                    policy.p99_blowout
                ),
            });
        }
    }
    Some(CanaryVerdict::Promote)
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Lifetime counters for registry and swap activity, reported under
/// `swap` in `/stats`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Checkpoints accepted into the registry via the wire.
    pub models_published: u64,
    /// Pushes rejected (corrupt bytes or unservable architecture).
    pub models_rejected: u64,
    /// Candidate engines that failed the golden-clip smoke test.
    pub smoke_failures: u64,
    /// Completed atomic switches of the serving model (direct swaps
    /// plus canary promotions).
    pub swaps: u64,
    /// Canary trials started.
    pub canaries_started: u64,
    /// Canary trials that ended in promotion.
    pub promotions: u64,
    /// Canary trials that ended in rollback.
    pub rollbacks: u64,
}

/// Warm-up + smoke test: run the candidate engine on the golden clip
/// and require a sane answer (non-empty, all-finite logits) before the
/// candidate is allowed anywhere near live traffic. This also faults in
/// lazily-built state (packed weights, arenas) so the first real
/// request doesn't pay the warm-up cost.
pub fn smoke_test(engine: &mut dyn InferenceEngine, golden: &Tensor) -> Result<(), String> {
    let batch = [golden.clone()];
    let ctx = [SlotCtx::default()];
    let mut out: [SupervisedSlot; 1] = [Ok((Default::default(), 0.0))];
    engine.infer_batch_supervised(&batch, &ctx, None, &mut out);
    match std::mem::replace(&mut out[0], Ok((Default::default(), 0.0))) {
        Ok((clip, _saturation)) => {
            if clip.logits.is_empty() {
                return Err("smoke test produced empty logits".to_string());
            }
            if let Some(bad) = clip.logits.iter().find(|v| !v.is_finite()) {
                return Err(format!("smoke test produced non-finite logit {bad}"));
            }
            Ok(())
        }
        Err(fault) => Err(format!("smoke test faulted: {}", fault.message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(completed: u64, fallbacks: u64, quarantined: u64, sentinels: u64) -> ErrorBudget {
        ErrorBudget {
            submitted: completed,
            admitted: completed,
            completed,
            fallbacks,
            quarantined,
            sentinel_trips: sentinels,
            ..ErrorBudget::default()
        }
    }

    #[test]
    fn quarantine_rolls_back_immediately() {
        let canary = budget(1, 0, 1, 0);
        let incumbent = budget(100, 0, 0, 0);
        let verdict = canary_verdict(&canary, &[], &incumbent, &[], &CanaryPolicy::default());
        assert!(
            matches!(verdict, Some(CanaryVerdict::Rollback { .. })),
            "{verdict:?}"
        );
    }

    #[test]
    fn sentinel_trip_rolls_back_immediately() {
        let canary = budget(3, 0, 0, 2);
        let incumbent = budget(100, 0, 0, 0);
        let verdict = canary_verdict(&canary, &[], &incumbent, &[], &CanaryPolicy::default());
        assert!(
            matches!(verdict, Some(CanaryVerdict::Rollback { .. })),
            "{verdict:?}"
        );
    }

    #[test]
    fn undecided_before_enough_samples() {
        let canary = budget(10, 0, 0, 0);
        let incumbent = budget(100, 0, 0, 0);
        let policy = CanaryPolicy {
            decide_after: 50,
            ..CanaryPolicy::default()
        };
        assert_eq!(canary_verdict(&canary, &[], &incumbent, &[], &policy), None);
    }

    #[test]
    fn healthy_canary_promotes() {
        let canary = budget(60, 0, 0, 0);
        let incumbent = budget(300, 0, 0, 0);
        let lat_c: Vec<f64> = (0..60).map(|i| 1.0 + (i % 5) as f64 * 0.1).collect();
        let lat_i: Vec<f64> = (0..300).map(|i| 1.0 + (i % 5) as f64 * 0.1).collect();
        let verdict = canary_verdict(
            &canary,
            &lat_c,
            &incumbent,
            &lat_i,
            &CanaryPolicy::default(),
        );
        assert_eq!(verdict, Some(CanaryVerdict::Promote));
    }

    #[test]
    fn fallback_spike_rolls_back() {
        let canary = budget(60, 30, 0, 0); // 50% fallback
        let incumbent = budget(300, 3, 0, 0); // 1% fallback
        let verdict = canary_verdict(&canary, &[], &incumbent, &[], &CanaryPolicy::default());
        let Some(CanaryVerdict::Rollback { reason }) = verdict else {
            panic!("expected rollback");
        };
        assert!(reason.contains("fallback rate"), "{reason}");
    }

    #[test]
    fn p99_blowout_rolls_back_only_with_enough_incumbent_samples() {
        let canary = budget(60, 0, 0, 0);
        let incumbent = budget(300, 0, 0, 0);
        let lat_c: Vec<f64> = (0..60).map(|_| 50.0).collect();
        let few: Vec<f64> = (0..4).map(|_| 1.0).collect();
        // Too few incumbent samples: latency comparison is skipped and
        // the otherwise-healthy canary promotes.
        let verdict = canary_verdict(&canary, &lat_c, &incumbent, &few, &CanaryPolicy::default());
        assert_eq!(verdict, Some(CanaryVerdict::Promote));
        let many: Vec<f64> = (0..100).map(|_| 1.0).collect();
        let verdict = canary_verdict(&canary, &lat_c, &incumbent, &many, &CanaryPolicy::default());
        let Some(CanaryVerdict::Rollback { reason }) = verdict else {
            panic!("expected rollback");
        };
        assert!(reason.contains("p99"), "{reason}");
    }
}
