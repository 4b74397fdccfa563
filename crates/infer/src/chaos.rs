//! Deterministic seeded fault injection for the serving layer.
//!
//! A [`FaultPlan`] maps **request indices** (the order of submission to
//! a [`crate::ResilientServer`]) to faults. Faults split into two
//! application points:
//!
//! * **Input faults** ([`Fault::BitFlip`], [`Fault::SaturationStorm`])
//!   corrupt the clip *before* submission via
//!   [`FaultPlan::corrupt_input`] — they exercise admission validation
//!   and the Q7.8 saturation-anomaly degradation path.
//! * **Worker faults** ([`Fault::Panic`], [`Fault::Delay`]) fire *inside*
//!   the engine worker serving the request, via the supervised batch API
//!   ([`crate::InferenceEngine::infer_batch_supervised`]) — they
//!   exercise worker supervision, retry, backoff, and quarantine.
//!
//! Everything is a pure function of the plan (itself a pure function of
//! its seed), so a chaos run is exactly reproducible: same plan, same
//! request stream, same thread count → same responses, bitwise.

use p3d_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Duration;

/// One injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// The worker serving this request panics on its first `times`
    /// attempts (`u32::MAX` = every attempt — a poison request that
    /// must end in quarantine, not an infinite retry loop).
    Panic {
        /// Number of attempts that crash before the request succeeds.
        times: u32,
    },
    /// The worker stalls this many milliseconds before computing, on
    /// every attempt — an injected tail-latency event.
    Delay {
        /// Stall length in milliseconds.
        ms: u64,
    },
    /// One bit of one `f32` word of the clip is flipped at admission
    /// time — corrupted input that may turn non-finite (caught by
    /// validation) or merely wrong (served; the response is then
    /// *faulted* and exempt from bitwise comparisons).
    BitFlip {
        /// Flat element index into the clip (wrapped by `len`).
        word: usize,
        /// Bit position `0..32`.
        bit: u8,
    },
    /// The clip is scaled far outside the Q7.8 range — every conv
    /// output rails, the saturation-anomaly detector trips, and the
    /// serving layer must degrade the request to the f32 backend.
    SaturationStorm {
        /// Multiplicative gain applied to every element.
        gain: f32,
    },
}

/// A deterministic request-index → faults schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: BTreeMap<usize, Vec<Fault>>,
}

/// `splitmix64` — tiny, seedable, and good enough to scatter faults.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Relative weights of each fault class in a seeded mix.
#[derive(Clone, Copy, Debug)]
pub struct FaultMix {
    /// Fraction of requests that receive a transient panic (succeeds
    /// after one retry).
    pub transient_panic: f64,
    /// Fraction that receive a poison panic (crashes every attempt).
    pub poison: f64,
    /// Fraction that receive a worker stall.
    pub delay: f64,
    /// Stall length for delay faults, milliseconds.
    pub delay_ms: u64,
    /// Fraction that receive a flipped input bit.
    pub bit_flip: f64,
    /// Fraction that receive a saturation storm.
    pub storm: f64,
}

impl Default for FaultMix {
    /// The documented "chaos demo" mix: ~5% transient panics, ~2%
    /// poison, ~3% delays (10 ms), ~5% bit flips, ~3% storms.
    fn default() -> Self {
        FaultMix {
            transient_panic: 0.05,
            poison: 0.02,
            delay: 0.03,
            delay_ms: 10,
            bit_flip: 0.05,
            storm: 0.03,
        }
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `index`, builder-style. Multiple faults may
    /// target one request (e.g. a delay plus a transient panic).
    pub fn inject(mut self, index: usize, fault: Fault) -> Self {
        self.faults.entry(index).or_default().push(fault);
        self
    }

    /// Builds a deterministic plan over `n` request indices from `seed`:
    /// each request independently draws at most one fault according to
    /// `mix`. Same seed, same `n`, same mix → same plan.
    pub fn seeded_mix(seed: u64, n: usize, mix: &FaultMix) -> Self {
        let mut plan = FaultPlan::new();
        let mut state = seed ^ 0xc1a0_5c1a_05c1_a05c;
        for idx in 0..n {
            let roll = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let extra = splitmix64(&mut state);
            let mut edge = mix.transient_panic;
            let fault = if roll < edge {
                Some(Fault::Panic { times: 1 })
            } else if roll < {
                edge += mix.poison;
                edge
            } {
                Some(Fault::Panic { times: u32::MAX })
            } else if roll < {
                edge += mix.delay;
                edge
            } {
                Some(Fault::Delay { ms: mix.delay_ms })
            } else if roll < {
                edge += mix.bit_flip;
                edge
            } {
                Some(Fault::BitFlip {
                    word: (extra >> 8) as usize,
                    bit: (extra % 32) as u8,
                })
            } else if roll < {
                edge += mix.storm;
                edge
            } {
                Some(Fault::SaturationStorm { gain: 1000.0 })
            } else {
                None
            };
            if let Some(f) = fault {
                plan = plan.inject(idx, f);
            }
        }
        plan
    }

    /// All faults scheduled for `index` (empty slice when none).
    pub fn faults_at(&self, index: usize) -> &[Fault] {
        self.faults.get(&index).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `true` when *any* fault targets `index` — such requests are
    /// exempt from bitwise output comparisons in the chaos suite.
    pub fn is_faulted(&self, index: usize) -> bool {
        self.faults.contains_key(&index)
    }

    /// Number of requests with at least one fault.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Applies this plan's **input faults** for `index` to a clip about
    /// to be submitted. Worker faults are ignored here (they fire inside
    /// the engine). Returns `true` if the clip was mutated.
    pub fn corrupt_input(&self, index: usize, clip: &mut Tensor) -> bool {
        let mut touched = false;
        for fault in self.faults_at(index) {
            match *fault {
                Fault::BitFlip { word, bit } => {
                    let data = clip.data_mut();
                    if !data.is_empty() {
                        let w = word % data.len();
                        let flipped = data[w].to_bits() ^ (1u32 << (bit % 32));
                        data[w] = f32::from_bits(flipped);
                        touched = true;
                    }
                }
                Fault::SaturationStorm { gain } => {
                    for v in clip.data_mut() {
                        *v *= gain;
                    }
                    touched = true;
                }
                Fault::Panic { .. } | Fault::Delay { .. } => {}
            }
        }
        touched
    }

    /// Whether the worker serving `(index, attempt)` must panic.
    pub fn should_panic(&self, index: usize, attempt: u32) -> bool {
        self.faults_at(index).iter().any(|f| match *f {
            Fault::Panic { times } => attempt < times,
            _ => false,
        })
    }

    /// The stall the worker serving `(index, _)` must sleep before
    /// computing, if any (delays fire on every attempt).
    pub fn delay_for(&self, index: usize) -> Option<Duration> {
        self.faults_at(index).iter().find_map(|f| match *f {
            Fault::Delay { ms } => Some(Duration::from_millis(ms)),
            _ => None,
        })
    }
}

/// One step of a swap-storm schedule: what the storm driver does to the
/// server's model-control plane while request traffic and worker faults
/// keep firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapAction {
    /// Push (and hot-swap to) a known-good model, by index into the
    /// storm's model roster.
    Swap {
        /// Index into the roster of valid checkpoints.
        model: usize,
    },
    /// Push deliberately corrupted checkpoint bytes — the registry must
    /// reject and quarantine it, and serving must not wobble.
    PushCorrupt,
}

/// Builds a deterministic swap-storm schedule of `n` actions over a
/// roster of `models` valid checkpoints: mostly rapid swaps between
/// roster entries, with roughly `corrupt_rate` of the actions replaced
/// by corrupt pushes. Same seed, same arguments → same storm, so chaos
/// failures replay exactly.
pub fn swap_storm(seed: u64, n: usize, models: usize, corrupt_rate: f64) -> Vec<SwapAction> {
    assert!(models > 0, "storm needs at least one valid model");
    let mut state = seed ^ 0x5707_11ca_57a9_e5d1;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        if roll < corrupt_rate {
            out.push(SwapAction::PushCorrupt);
        } else {
            let model = (splitmix64(&mut state) % models as u64) as usize;
            out.push(SwapAction::Swap { model });
        }
    }
    out
}

/// Message used for injected worker panics; prefixed so the default
/// panic hook filter and fault classification can recognise them.
pub const CHAOS_PANIC_MESSAGE: &str = "chaos: injected worker panic";

/// Installs a process-wide panic hook that stays silent for *injected*
/// panics (chaos panics and activation-sentinel trips — both are caught
/// and converted to typed faults by the supervisor) while forwarding
/// everything else to the previous hook. Chaos runs would otherwise
/// spray hundreds of expected backtraces over the terminal.
pub fn install_quiet_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        let expected = msg.starts_with("chaos:") || p3d_nn::sentinel::is_sentinel_message(msg);
        if !expected {
            previous(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_mix_is_reproducible_and_scattered() {
        let mix = FaultMix::default();
        let a = FaultPlan::seeded_mix(7, 500, &mix);
        let b = FaultPlan::seeded_mix(7, 500, &mix);
        assert_eq!(a.faults, b.faults, "same seed must give same plan");
        let c = FaultPlan::seeded_mix(8, 500, &mix);
        assert_ne!(a.faults, c.faults, "different seeds should differ");
        // ~18% fault probability over 500 draws: expect a healthy spread.
        assert!(a.len() > 30, "only {} faults injected", a.len());
        assert!(a.len() < 250, "{} faults is implausibly many", a.len());
    }

    #[test]
    fn panic_schedule_honours_attempt_counts() {
        let plan = FaultPlan::new()
            .inject(3, Fault::Panic { times: 1 })
            .inject(5, Fault::Panic { times: u32::MAX });
        assert!(plan.should_panic(3, 0));
        assert!(!plan.should_panic(3, 1), "transient fault must clear");
        assert!(plan.should_panic(5, 0));
        assert!(plan.should_panic(5, 7), "poison never clears");
        assert!(!plan.should_panic(4, 0));
    }

    #[test]
    fn bit_flip_changes_exactly_one_word() {
        let plan = FaultPlan::new().inject(0, Fault::BitFlip { word: 2, bit: 30 });
        let mut clip = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]);
        assert!(plan.corrupt_input(0, &mut clip));
        let changed: Vec<usize> = clip
            .data()
            .iter()
            .zip(&[1.0f32, 2.0, 3.0, 4.0])
            .enumerate()
            .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(changed, vec![2]);
        // Indices without faults never mutate.
        let mut other = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]);
        assert!(!plan.corrupt_input(1, &mut other));
        assert_eq!(other.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn storm_scales_every_element() {
        let plan = FaultPlan::new().inject(1, Fault::SaturationStorm { gain: 1000.0 });
        let mut clip = Tensor::from_vec([2], vec![0.5, -0.25]);
        assert!(plan.corrupt_input(1, &mut clip));
        assert_eq!(clip.data(), &[500.0, -250.0]);
    }

    #[test]
    fn delay_lookup() {
        let plan = FaultPlan::new().inject(9, Fault::Delay { ms: 25 });
        assert_eq!(plan.delay_for(9), Some(Duration::from_millis(25)));
        assert_eq!(plan.delay_for(8), None);
    }

    #[test]
    fn swap_storm_is_deterministic_and_mixes_actions() {
        let a = swap_storm(42, 200, 3, 0.25);
        let b = swap_storm(42, 200, 3, 0.25);
        assert_eq!(a, b, "same seed must replay the same storm");
        assert_ne!(a, swap_storm(43, 200, 3, 0.25));
        let corrupt = a.iter().filter(|s| **s == SwapAction::PushCorrupt).count();
        assert!(
            corrupt > 10 && corrupt < 100,
            "corrupt rate ~25%, got {corrupt}/200"
        );
        for action in &a {
            if let SwapAction::Swap { model } = action {
                assert!(*model < 3);
            }
        }
    }
}
