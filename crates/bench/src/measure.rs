//! The one paired timing harness behind every BENCH row and release
//! gate.
//!
//! [`paired`] times `reps` interleaved pairs of two closures: each rep
//! runs side A (the baseline) and then side B (the candidate)
//! back-to-back, so both sides of one pair see the same host
//! conditions. Timing the sides in separate phases puts them in
//! different interference windows on a small shared host, which showed
//! up as ~25% phantom variance in identical-work measurements; a paired
//! rep cancels that drift. The per-rep ratio A/B is therefore `> 1`
//! when the candidate is faster, and co-tenant noise landing on one
//! side of a pair can only spread it, so `ratio.max` (the best pair) is
//! the gates' estimator and `ratio.median` the typical pair.
//!
//! Callers that need data from one rep (the logits of the fastest
//! batched drain, say) record it inside their closure, one entry per
//! rep, and index it with [`Paired::fastest_b`] or [`Paired::fastest_a`].

use p3d_infer::json::Obj;
use std::time::Instant;

/// Order statistics of one set of per-rep samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Samples taken.
    pub reps: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median sample (mean of the two middle ones for an even count).
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`, which must not be empty.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "spread of no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        Spread {
            reps: n,
            min: s[0],
            median,
            max: s[n - 1],
        }
    }

    /// `{"reps", "min", "median", "max"}`, values to `prec` decimals.
    pub fn json(&self, prec: usize) -> String {
        Obj::new()
            .u64("reps", self.reps as u64)
            .f64("min", self.min, prec)
            .f64("median", self.median, prec)
            .f64("max", self.max, prec)
            .build()
    }
}

/// Wall times of a paired measurement, in seconds.
#[derive(Clone, Debug)]
pub struct Paired {
    /// Side A's wall time in each rep.
    pub a_s: Vec<f64>,
    /// Side B's wall time in each rep.
    pub b_s: Vec<f64>,
    /// Spread of side A's wall times.
    pub a: Spread,
    /// Spread of side B's wall times.
    pub b: Spread,
    /// Spread of the per-rep ratio `a_s[i] / b_s[i]` (B's speedup).
    pub ratio: Spread,
}

fn argmin(v: &[f64]) -> usize {
    (0..v.len())
        .min_by(|&i, &j| v[i].total_cmp(&v[j]))
        .unwrap_or(0)
}

impl Paired {
    /// The rep in which side A ran fastest.
    pub fn fastest_a(&self) -> usize {
        argmin(&self.a_s)
    }

    /// The rep in which side B ran fastest.
    pub fn fastest_b(&self) -> usize {
        argmin(&self.b_s)
    }
}

/// Times `reps` (at least one) interleaved pairs: each rep runs `a`
/// then `b` on the shared `state`, each call timed on its own.
pub fn paired<S>(
    reps: usize,
    state: &mut S,
    mut a: impl FnMut(&mut S),
    mut b: impl FnMut(&mut S),
) -> Paired {
    let reps = reps.max(1);
    let mut a_s = Vec::with_capacity(reps);
    let mut b_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        a(state);
        a_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        b(state);
        b_s.push(t0.elapsed().as_secs_f64());
    }
    let ratios: Vec<f64> = a_s
        .iter()
        .zip(&b_s)
        .map(|(a, b)| a / b.max(1e-12))
        .collect();
    Paired {
        a: Spread::of(&a_s),
        b: Spread::of(&b_s),
        ratio: Spread::of(&ratios),
        a_s,
        b_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        let odd = Spread::of(&[5.0, 1.0, 3.0]);
        assert_eq!((odd.reps, odd.min, odd.median, odd.max), (3, 1.0, 3.0, 5.0));
        let even = Spread::of(&[4.0, 1.0, 2.0, 8.0]);
        assert_eq!(
            (even.reps, even.min, even.median, even.max),
            (4, 1.0, 3.0, 8.0)
        );
    }

    #[test]
    fn zero_reps_runs_one_pair() {
        let (mut a_calls, mut b_calls) = (0, 0);
        let t = paired(0, &mut (), |_| a_calls += 1, |_| b_calls += 1);
        assert_eq!((a_calls, b_calls), (1, 1));
        assert_eq!((t.a_s.len(), t.b_s.len(), t.ratio.reps), (1, 1, 1));
    }

    #[test]
    fn side_a_runs_before_side_b_in_every_rep() {
        // A shared counter: A must always see an even tick and B the odd
        // tick straight after it.
        let mut tick = 0usize;
        paired(
            4,
            &mut tick,
            |t| {
                assert_eq!(*t % 2, 0, "side A ran out of turn");
                *t += 1;
            },
            |t| {
                assert_eq!(*t % 2, 1, "side B ran out of turn");
                *t += 1;
            },
        );
        assert_eq!(tick, 8);
    }

    #[test]
    fn ratio_spread_is_per_rep_not_a_ratio_of_medians() {
        // Per-rep sleeps A = 10/20/30 ms against B = 30/10/20 ms: the
        // per-rep ratios are 1/3, 2 and 1.5 (median 1.5), while both
        // sides' medians are 20 ms (ratio of medians 1.0).
        const A_MS: [u64; 3] = [10, 20, 30];
        const B_MS: [u64; 3] = [30, 10, 20];
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let mut rep = 0usize;
        let t = paired(
            3,
            &mut rep,
            |r| sleep(A_MS[*r]),
            |r| {
                sleep(B_MS[*r]);
                *r += 1;
            },
        );
        let per_rep: Vec<f64> = t.a_s.iter().zip(&t.b_s).map(|(a, b)| a / b).collect();
        assert_eq!(t.ratio, Spread::of(&per_rep));
        assert!(t.ratio.median > 1.25, "{:?}", t.ratio);
        assert!(t.a.median / t.b.median < 1.25, "{:?} {:?}", t.a, t.b);
        assert_eq!((t.fastest_a(), t.fastest_b()), (0, 1));
    }
}
