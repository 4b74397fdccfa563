//! Latency/throughput accounting for batched inference runs.

use crate::engine::ClipResult;
use crate::resilience::InferError;

/// How one request ended. Every request resolves exactly once, and
/// [`ErrorBudget::resolve`] is the only code that counts a request into
/// the budget's partition, so the partition identities
/// ([`ErrorBudget::balanced`]) hold by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Admitted and answered with a result.
    Completed,
    /// Admitted, then shed without computing: the deadline passed
    /// while the request sat in the queue.
    DeadlineExpired,
    /// Admitted, then abandoned as poison.
    Quarantined,
    /// Rejected at admission: the queue was full.
    ShedOverload,
    /// Rejected at admission: the clip failed to decode or validate.
    Invalid,
    /// Shed at the network boundary by the client's token bucket.
    RateLimited,
}

impl Resolution {
    /// The resolution a response's outcome records. Rate limiting
    /// happens before a request has an outcome, so it never maps here.
    pub fn of(outcome: &Result<ClipResult, InferError>) -> Resolution {
        match outcome {
            Ok(_) => Resolution::Completed,
            Err(InferError::Overloaded { .. }) => Resolution::ShedOverload,
            Err(InferError::DeadlineExpired) => Resolution::DeadlineExpired,
            Err(InferError::Quarantined { .. }) => Resolution::Quarantined,
            Err(
                InferError::EmptyClip
                | InferError::BadRank { .. }
                | InferError::ShapeMismatch { .. }
                | InferError::NonFinite { .. },
            ) => Resolution::Invalid,
        }
    }
}

/// Error accounting for one resilient serving run. Each request is
/// counted once, by [`ErrorBudget::resolve`], where its response is
/// emitted; so the identities
/// `submitted = admitted + shed_overload + rejected_invalid + rate_limited`
/// and `admitted = completed + deadline_expired + quarantined` always
/// hold. The remaining counters record events (retries, restarts,
/// fallbacks), not resolutions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrorBudget {
    /// Requests offered to the server (admitted or not).
    pub submitted: u64,
    /// Requests that passed validation and fit in the queue.
    pub admitted: u64,
    /// Requests rejected at submission because the queue was full
    /// (reject-newest load shedding).
    pub shed_overload: u64,
    /// Requests rejected at submission by input validation.
    pub rejected_invalid: u64,
    /// Requests shed at the network boundary because the client's
    /// token bucket was empty (HTTP 429); never reached the queue.
    pub rate_limited: u64,
    /// Admitted requests whose deadline expired before they ran; shed
    /// without computing.
    pub deadline_expired: u64,
    /// Requests that *completed* but after their deadline (served; the
    /// response is flagged).
    pub deadline_missed: u64,
    /// Re-deliveries after a transient worker failure.
    pub retries: u64,
    /// Worker faults caught by supervision (panics of any origin).
    pub worker_failures: u64,
    /// Workers restarted (fresh arena/scratch) after a caught panic.
    pub worker_restarts: u64,
    /// Requests abandoned as poison after killing too many workers or
    /// exhausting retries.
    pub quarantined: u64,
    /// Requests re-served on the fallback backend after a Q7.8
    /// saturation anomaly or a numeric sentinel trip.
    pub fallbacks: u64,
    /// Activation-sentinel trips (NaN/Inf caught mid-network).
    pub sentinel_trips: u64,
    /// Requests resolved with a successful result.
    pub completed: u64,
}

impl ErrorBudget {
    /// Counts one request's resolution: `submitted`, `admitted` for the
    /// three admitted outcomes, and exactly one partition counter.
    pub fn resolve(&mut self, resolution: Resolution) {
        self.submitted += 1;
        let (slot, admitted) = match resolution {
            Resolution::Completed => (&mut self.completed, true),
            Resolution::DeadlineExpired => (&mut self.deadline_expired, true),
            Resolution::Quarantined => (&mut self.quarantined, true),
            Resolution::ShedOverload => (&mut self.shed_overload, false),
            Resolution::Invalid => (&mut self.rejected_invalid, false),
            Resolution::RateLimited => (&mut self.rate_limited, false),
        };
        *slot += 1;
        if admitted {
            self.admitted += 1;
        }
    }

    /// `true` when every submitted request is accounted for exactly
    /// once by the admission and resolution partitions.
    pub fn balanced(&self) -> bool {
        self.submitted
            == self.admitted + self.shed_overload + self.rejected_invalid + self.rate_limited
            && self.admitted == self.completed + self.deadline_expired + self.quarantined
    }

    /// Adds every counter of `other` into `self`. A long-running server
    /// drains in rounds; summing the per-round budgets keeps one
    /// process-lifetime budget that stays balanced whenever each round's
    /// budget was.
    pub fn accumulate(&mut self, other: &ErrorBudget) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.shed_overload += other.shed_overload;
        self.rejected_invalid += other.rejected_invalid;
        self.rate_limited += other.rate_limited;
        self.deadline_expired += other.deadline_expired;
        self.deadline_missed += other.deadline_missed;
        self.retries += other.retries;
        self.worker_failures += other.worker_failures;
        self.worker_restarts += other.worker_restarts;
        self.quarantined += other.quarantined;
        self.fallbacks += other.fallbacks;
        self.sentinel_trips += other.sentinel_trips;
        self.completed += other.completed;
    }

    /// `true` when the budget shows hard serving damage — poisoned
    /// requests quarantined or numeric sentinels tripped. The state-
    /// aware `/healthz` reports `degraded` (still 200: the server is
    /// serving, but operators should look) on this signal. Latching by
    /// design: counters only grow, so a server that quarantined once
    /// stays marked until restart or swap-away.
    pub fn degraded(&self) -> bool {
        self.quarantined > 0 || self.sentinel_trips > 0
    }
}

/// Latency percentiles over one stream run, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Median request latency.
    pub p50_ms: f64,
    /// 95th-percentile request latency.
    pub p95_ms: f64,
    /// 99th-percentile request latency.
    pub p99_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
}

/// Nearest-rank percentile (inclusive): the smallest value such that at
/// least `p`% of samples are `<=` it. `samples` must be sorted ascending.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

impl LatencyStats {
    /// Computes the summary from raw per-request latencies.
    pub fn from_latencies_ms(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        LatencyStats {
            p50_ms: percentile(&sorted, 50.0),
            p95_ms: percentile(&sorted, 95.0),
            p99_ms: percentile(&sorted, 99.0),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max_ms: *sorted.last().unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn small_sample_percentiles() {
        let v = [3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 3.0);
        let s = LatencyStats::from_latencies_ms(&[2.0, 1.0, 4.0]);
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.max_ms, 4.0);
        assert!((s.mean_ms - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn resolve_moves_exactly_one_partition_counter() {
        use Resolution::*;
        // The first three are the admitted resolutions.
        let all = [
            Completed,
            DeadlineExpired,
            Quarantined,
            ShedOverload,
            Invalid,
            RateLimited,
        ];
        for (i, r) in all.into_iter().enumerate() {
            let mut b = ErrorBudget::default();
            b.resolve(r);
            let partition = [
                b.completed,
                b.deadline_expired,
                b.quarantined,
                b.shed_overload,
                b.rejected_invalid,
                b.rate_limited,
            ];
            let mut want = [0; 6];
            want[i] = 1;
            assert_eq!(partition, want, "{r:?}");
            assert_eq!((b.submitted, b.admitted), (1, u64::from(i < 3)), "{r:?}");
            // Events are not resolutions.
            let events = [
                b.deadline_missed,
                b.retries,
                b.worker_failures,
                b.worker_restarts,
                b.fallbacks,
                b.sentinel_trips,
            ];
            assert_eq!(events, [0; 6], "{r:?}");
        }
    }

    #[test]
    fn resolution_of_maps_every_outcome() {
        let quarantined = InferError::Quarantined {
            attempts: 2,
            workers_killed: 2,
            message: "poison".to_string(),
        };
        let mismatch = InferError::ShapeMismatch {
            expected: [1, 2, 3, 4],
            got: vec![1],
        };
        let cases = [
            (Ok(ClipResult::default()), Resolution::Completed),
            (
                Err(InferError::Overloaded { capacity: 4 }),
                Resolution::ShedOverload,
            ),
            (
                Err(InferError::DeadlineExpired),
                Resolution::DeadlineExpired,
            ),
            (Err(quarantined), Resolution::Quarantined),
            (Err(InferError::EmptyClip), Resolution::Invalid),
            (Err(InferError::BadRank { got: 3 }), Resolution::Invalid),
            (Err(mismatch), Resolution::Invalid),
            (Err(InferError::NonFinite { index: 0 }), Resolution::Invalid),
        ];
        for (outcome, want) in cases {
            assert_eq!(Resolution::of(&outcome), want, "{outcome:?}");
        }
    }

    #[test]
    fn empty_is_zeroed() {
        assert_eq!(
            LatencyStats::from_latencies_ms(&[]),
            LatencyStats::default()
        );
    }
}
