//! Deterministic request-stream generation.
//!
//! The base process is Poisson: inter-arrival gaps are drawn from an
//! exponential distribution via inverse-transform sampling on a seeded
//! [`TensorRng`], then rounded to integer (≥ 1) virtual nanoseconds so
//! two requests never share an instant and every downstream computation
//! stays bit-deterministic. Each request is independently assigned a
//! model from a weighted mix.
//!
//! [`WorkloadShape`] layers fleet-scale traffic shapes on top:
//! non-homogeneous arrivals (diurnal sinusoid, flash-crowd burst) via
//! Lewis–Shedler thinning against the peak rate, and heavy-tailed
//! per-user sessions whose requests share a per-session model affinity.
//! All shapes run on the same seeded streams, so a `(seed, shape)` pair
//! always reproduces the identical schedule.

use std::fmt;

use dgnn_device::DurationNs;
use dgnn_tensor::TensorRng;

/// Smallest accepted rate, in events per simulated second. Below this
/// the expected inter-arrival gap exceeds ~31 simulated years and
/// `gap_s * 1e9` can overflow to infinity (for subnormal rates it
/// always does), which `as u64` then silently saturates — turning a
/// configuration mistake into a nonsense schedule instead of an error.
pub const MIN_RATE: f64 = 1e-9;

/// A rejected workload parameter: the typed error behind
/// [`validate_rate`], [`WorkloadShape::validate`],
/// [`crate::ServeConfig::validate`], [`crate::FleetConfig::validate`]
/// and [`crate::StreamingConfig::validate`]. Despite the name it also
/// covers shape parameters (amplitude, multiplier, session length) and
/// zero counts (pools, replicas, batch capacity, compaction threshold)
/// — `what` names the offending knob.
#[derive(Debug, Clone, PartialEq)]
pub struct RateError {
    /// Which parameter was rejected (e.g. `"arrival rate"`).
    pub what: &'static str,
    /// The offending value.
    pub value: f64,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} is invalid: {}",
            self.what, self.value, self.reason
        )?;
        if self.what.ends_with("rate") {
            write!(
                f,
                " (rates must be finite values >= {MIN_RATE:e} per second)"
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for RateError {}

/// Validates an events-per-simulated-second rate. Rejects NaN and
/// infinities, zero and negatives, and positive values below
/// [`MIN_RATE`] (including every subnormal), whose exponential gaps
/// would overflow the integer-nanosecond clock.
///
/// # Errors
///
/// Returns a [`RateError`] naming the parameter and the reason.
pub fn validate_rate(what: &'static str, rate: f64) -> Result<(), RateError> {
    let reason = if rate.is_nan() {
        "not a number"
    } else if rate.is_infinite() {
        "not finite"
    } else if rate <= 0.0 {
        "not positive"
    } else if rate < MIN_RATE {
        "too small — the expected gap overflows the virtual clock"
    } else {
        return Ok(());
    };
    Err(RateError {
        what,
        value: rate,
        reason,
    })
}

/// Rejects a zero count: `what` is a setting a run needs at least one
/// of (pools, replicas, batch capacity, compaction threshold).
///
/// # Errors
///
/// Returns a [`RateError`] naming the setting.
pub(crate) fn validate_count(what: &'static str, count: usize) -> Result<(), RateError> {
    if count == 0 {
        return Err(RateError {
            what,
            value: 0.0,
            reason: "not positive",
        });
    }
    Ok(())
}

/// One inference request: a query for one unit of work (one mini-batch
/// at the target model's configured batch size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Dense request id (arrival order).
    pub id: usize,
    /// Index into the served model mix.
    pub model: usize,
    /// Virtual arrival time.
    pub arrival: DurationNs,
}

/// Traffic shape layered on the base Poisson process. All shapes keep
/// the long-run average rate at the configured `rate_rps`; they differ
/// in how arrivals cluster in time and (for sessions) across models.
///
/// Non-homogeneous shapes use Lewis–Shedler thinning: candidate gaps
/// are drawn at the peak rate, then each candidate is accepted with
/// probability `λ(t) / λ_max` from an independent seeded stream, so the
/// accepted process follows the time-varying intensity exactly while
/// staying bit-deterministic per seed.
///
/// ```
/// use dgnn_serve::{generate_shaped, WorkloadShape};
/// use dgnn_device::DurationNs;
///
/// let shape = WorkloadShape::FlashCrowd {
///     at: DurationNs::from_secs_f64(1.0),
///     duration: DurationNs::from_secs_f64(0.5),
///     multiplier: 8.0,
/// };
/// shape.validate(200.0).unwrap();
/// let reqs = generate_shaped(7, 400, 200.0, &[1.0, 1.0], &shape);
/// assert_eq!(reqs.len(), 400);
/// // Arrivals are strictly increasing regardless of shape.
/// assert!(reqs.windows(2).all(|w| w[0].arrival < w[1].arrival));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadShape {
    /// Homogeneous Poisson arrivals at `rate`.
    Poisson,
    /// Sinusoidal day/night cycle:
    /// `λ(t) = rate · (1 + amplitude · sin(2π t / period))`.
    Diurnal {
        /// Length of one full cycle, in virtual time.
        period: DurationNs,
        /// Peak-to-mean swing, in `[0, 1)`. `0.8` means the peak rate
        /// is 1.8× the mean and the trough 0.2×.
        amplitude: f64,
    },
    /// A flash crowd: baseline Poisson traffic, except the rate jumps
    /// to `rate · multiplier` for `duration` starting at `at`.
    FlashCrowd {
        /// Burst start, in virtual time.
        at: DurationNs,
        /// Burst length, in virtual time.
        duration: DurationNs,
        /// Rate multiplier during the burst (≥ 1).
        multiplier: f64,
    },
    /// Heavy-tailed per-user sessions: session starts are Poisson at
    /// `rate / mean_length`, each session issues a Pareto-distributed
    /// (α = 1.5) number of requests — mean `mean_length`, capped at
    /// `16 · mean_length` — separated by exponential think gaps, and
    /// every request in a session targets the same model, drawn once
    /// per session from the mix. This is the affinity-friendly shape:
    /// a router that keeps sessions on warm replicas avoids cold
    /// starts entirely.
    Sessions {
        /// Mean requests per session (≥ 1).
        mean_length: f64,
        /// Mean think gap between a session's requests.
        think_time: DurationNs,
    },
}

impl WorkloadShape {
    /// Short stable label for report lines and BENCH records.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadShape::Poisson => "poisson",
            WorkloadShape::Diurnal { .. } => "diurnal",
            WorkloadShape::FlashCrowd { .. } => "flash_crowd",
            WorkloadShape::Sessions { .. } => "sessions",
        }
    }

    /// Validates the base rate together with this shape's parameters,
    /// including the effective peak rate a thinning shape will sample
    /// candidate gaps at.
    ///
    /// # Errors
    ///
    /// Returns a [`RateError`] naming the offending parameter.
    pub fn validate(&self, rate_rps: f64) -> Result<(), RateError> {
        validate_rate("arrival rate", rate_rps)?;
        let err = |what, value, reason| {
            Err(RateError {
                what,
                value,
                reason,
            })
        };
        match *self {
            WorkloadShape::Poisson => Ok(()),
            WorkloadShape::Diurnal { period, amplitude } => {
                if period == DurationNs::ZERO {
                    return err("diurnal period", 0.0, "not positive");
                }
                if !amplitude.is_finite() || !(0.0..1.0).contains(&amplitude) {
                    return err("diurnal amplitude", amplitude, "not in [0, 1)");
                }
                validate_rate("diurnal peak rate", rate_rps * (1.0 + amplitude))
            }
            WorkloadShape::FlashCrowd {
                duration,
                multiplier,
                ..
            } => {
                if duration == DurationNs::ZERO {
                    return err("flash-crowd duration", 0.0, "not positive");
                }
                if !multiplier.is_finite() || multiplier < 1.0 {
                    return err("flash-crowd multiplier", multiplier, "not >= 1");
                }
                validate_rate("flash-crowd peak rate", rate_rps * multiplier)
            }
            WorkloadShape::Sessions {
                mean_length,
                think_time,
            } => {
                if !mean_length.is_finite() || mean_length < 1.0 {
                    return err("session mean length", mean_length, "not >= 1");
                }
                if think_time == DurationNs::ZERO {
                    return err("session think time", 0.0, "not positive");
                }
                validate_rate("session start rate", rate_rps / mean_length)
            }
        }
    }
}

/// Exponential gap in integer nanoseconds (≥ 1) at `rate` events per
/// second, via inverse-transform sampling: `-ln(1 - u) / rate` for
/// `u ∈ [0, 1)`.
pub(crate) fn exp_gap_ns(rng: &mut TensorRng, rate: f64) -> u64 {
    let u = rng.unit_f64();
    let gap_s = -(1.0 - u).ln() / rate;
    #[expect(clippy::cast_possible_truncation, reason = "gaps are ≪ u64::MAX ns")]
    #[expect(clippy::cast_sign_loss, reason = "gap_s ≥ 0 by construction")]
    let gap_ns = ((gap_s * 1e9).round() as u64).max(1);
    gap_ns
}

/// Weighted model draw: walks the cumulative `weights` (which need not
/// be normalized) to the first one above `u · total_weight`.
fn draw_model(rng: &mut TensorRng, weights: &[f64], total_weight: f64) -> usize {
    let mut pick = rng.unit_f64() * total_weight;
    let mut model = weights.len() - 1;
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            model = i;
            break;
        }
        pick -= w;
    }
    model
}

/// Generates `n` requests at a long-run average of `rate_rps` arrivals
/// per simulated second, shaped by `shape`, with models drawn from
/// `weights` (need not be normalized). The same seed and shape always
/// give the same stream.
///
/// # Panics
///
/// Panics when [`WorkloadShape::validate`] rejects the parameters or
/// the model mix is empty / sums to zero. Call `validate` first to get
/// the typed [`RateError`] instead of a panic.
#[must_use]
pub fn generate_shaped(
    seed: u64,
    n: usize,
    rate_rps: f64,
    weights: &[f64],
    shape: &WorkloadShape,
) -> Vec<Request> {
    if let Err(e) = shape.validate(rate_rps) {
        panic!("{e}");
    }
    assert!(!weights.is_empty(), "model mix must not be empty");
    let total_weight: f64 = weights.iter().sum();
    assert!(total_weight > 0.0, "model mix weights must sum > 0");

    match *shape {
        // Thinning at constant intensity accepts every candidate.
        WorkloadShape::Poisson => thinned(seed, n, rate_rps, weights, total_weight, |_| rate_rps),
        WorkloadShape::Diurnal { period, amplitude } => {
            let peak = rate_rps * (1.0 + amplitude);
            thinned(seed, n, peak, weights, total_weight, |t_ns| {
                let phase = t_ns as f64 / period.as_nanos() as f64 * std::f64::consts::TAU;
                rate_rps * (1.0 + amplitude * phase.sin())
            })
        }
        WorkloadShape::FlashCrowd {
            at,
            duration,
            multiplier,
        } => {
            let peak = rate_rps * multiplier;
            let (start, end) = (
                at.as_nanos(),
                at.as_nanos().saturating_add(duration.as_nanos()),
            );
            thinned(seed, n, peak, weights, total_weight, |t_ns| {
                if (start..end).contains(&t_ns) {
                    rate_rps * multiplier
                } else {
                    rate_rps
                }
            })
        }
        WorkloadShape::Sessions {
            mean_length,
            think_time,
        } => sessions(
            seed,
            n,
            rate_rps,
            weights,
            total_weight,
            mean_length,
            think_time,
        ),
    }
}

/// Lewis–Shedler thinning: draw candidate gaps at the peak rate, accept
/// each candidate with probability `intensity(t) / peak` from an
/// independent stream. Distinct streams for gaps, acceptance, and mix
/// keep the three decisions decorrelated.
fn thinned(
    seed: u64,
    n: usize,
    peak: f64,
    weights: &[f64],
    total_weight: f64,
    intensity: impl Fn(u64) -> f64,
) -> Vec<Request> {
    let mut gap_rng = TensorRng::seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5e2e);
    let mut accept_rng = TensorRng::seed(seed.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0x7b1d);
    let mut mix_rng = TensorRng::seed(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ 0x313a);

    let mut out = Vec::with_capacity(n);
    let mut t_ns = 0u64;
    while out.len() < n {
        t_ns += exp_gap_ns(&mut gap_rng, peak);
        if accept_rng.unit_f64() * peak <= intensity(t_ns) {
            out.push(Request {
                id: out.len(),
                model: draw_model(&mut mix_rng, weights, total_weight),
                arrival: DurationNs::from_nanos(t_ns),
            });
        }
    }
    out
}

/// Heavy-tailed per-user sessions. Session starts are Poisson at
/// `rate / mean_length`; lengths are Pareto(α = 1.5) scaled so the mean
/// is `mean_length`, capped at `16 · mean_length`; think gaps between a
/// session's requests are exponential with mean `think_time`. The
/// merged stream is sorted by arrival and equal instants are bumped by
/// 1 ns so arrivals stay strictly increasing.
fn sessions(
    seed: u64,
    n: usize,
    rate_rps: f64,
    weights: &[f64],
    total_weight: f64,
    mean_length: f64,
    think_time: DurationNs,
) -> Vec<Request> {
    const ALPHA: f64 = 1.5;
    let session_rate = rate_rps / mean_length;
    let think_rate = 1e9 / think_time.as_nanos() as f64;
    // Pareto(α) has mean α/(α-1)·x_m; scale x_m so the mean lands on
    // mean_length.
    let x_m = mean_length * (ALPHA - 1.0) / ALPHA;
    let cap = (mean_length * 16.0).max(1.0);

    let mut start_rng = TensorRng::seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5e2e);
    let mut len_rng = TensorRng::seed(seed.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0x7b1d);
    let mut think_rng = TensorRng::seed(seed.wrapping_mul(0x94d0_49bb_1331_11eb) ^ 0x1963);
    let mut mix_rng = TensorRng::seed(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ 0x313a);

    let mut arrivals: Vec<(u64, usize)> = Vec::with_capacity(n * 2);
    let mut t_ns = 0u64;
    while arrivals.len() < n {
        t_ns += exp_gap_ns(&mut start_rng, session_rate);
        let model = draw_model(&mut mix_rng, weights, total_weight);
        // Inverse-transform Pareto: x_m / (1 - u)^(1/α).
        let u = len_rng.unit_f64();
        let raw = x_m / (1.0 - u).powf(1.0 / ALPHA);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "capped at 16 · mean_length"
        )]
        #[expect(clippy::cast_sign_loss, reason = "Pareto draws are positive")]
        let len = (raw.min(cap).round() as u64).max(1);
        let mut s_ns = t_ns;
        for k in 0..len {
            if k > 0 {
                s_ns += exp_gap_ns(&mut think_rng, think_rate);
            }
            arrivals.push((s_ns, model));
        }
    }
    // Sessions interleave, so the merged stream needs a sort; the
    // (time, model) key plus the monotone 1-ns bump keeps ordering and
    // ids deterministic.
    arrivals.sort_unstable();
    arrivals.truncate(n);
    let mut prev = 0u64;
    arrivals
        .into_iter()
        .enumerate()
        .map(|(id, (t, model))| {
            let t = t.max(prev + 1);
            prev = t;
            Request {
                id,
                model,
                arrival: DurationNs::from_nanos(t),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_strictly_increasing() {
        let reqs = generate_shaped(7, 500, 1_000.0, &[1.0, 1.0], &WorkloadShape::Poisson);
        assert_eq!(reqs.len(), 500);
        for w in reqs.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_shaped(42, 200, 50.0, &[3.0, 1.0], &WorkloadShape::Poisson);
        let b = generate_shaped(42, 200, 50.0, &[3.0, 1.0], &WorkloadShape::Poisson);
        assert_eq!(a, b);
        let c = generate_shaped(43, 200, 50.0, &[3.0, 1.0], &WorkloadShape::Poisson);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_gap_tracks_the_rate() {
        let rate = 100.0; // 10 ms expected gap
        let reqs = generate_shaped(1, 2_000, rate, &[1.0], &WorkloadShape::Poisson);
        let mean_gap_s = reqs.last().unwrap().arrival.as_secs_f64() / reqs.len() as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean_gap_s - expected).abs() < expected * 0.15,
            "mean gap {mean_gap_s} vs expected {expected}"
        );
    }

    #[test]
    fn mix_respects_weights() {
        let reqs = generate_shaped(9, 4_000, 1_000.0, &[3.0, 1.0], &WorkloadShape::Poisson);
        let first = reqs.iter().filter(|r| r.model == 0).count();
        let share = first as f64 / reqs.len() as f64;
        assert!(
            (share - 0.75).abs() < 0.05,
            "model 0 share {share} should be ≈ 0.75"
        );
    }

    #[test]
    #[should_panic(expected = "not positive")]
    fn zero_rate_is_rejected() {
        let _ = generate_shaped(1, 10, 0.0, &[1.0], &WorkloadShape::Poisson);
    }

    #[test]
    fn validate_rate_returns_typed_errors() {
        assert!(validate_rate("r", 100.0).is_ok());
        assert!(validate_rate("r", MIN_RATE).is_ok());
        let zero = validate_rate("arrival rate", 0.0).unwrap_err();
        assert_eq!(zero.reason, "not positive");
        assert!(zero.to_string().contains("arrival rate"));
        assert_eq!(validate_rate("r", -5.0).unwrap_err().reason, "not positive");
        assert_eq!(
            validate_rate("r", f64::NAN).unwrap_err().reason,
            "not a number"
        );
        assert_eq!(
            validate_rate("r", f64::INFINITY).unwrap_err().reason,
            "not finite"
        );
        // Subnormal and tiny-normal rates: the exponential gap would
        // round through infinity and silently saturate `as u64`.
        assert!(validate_rate("r", f64::MIN_POSITIVE / 2.0).is_err());
        assert!(validate_rate("r", 1e-300).is_err());
    }

    fn all_shapes() -> Vec<WorkloadShape> {
        vec![
            WorkloadShape::Poisson,
            WorkloadShape::Diurnal {
                period: DurationNs::from_secs_f64(2.0),
                amplitude: 0.8,
            },
            WorkloadShape::FlashCrowd {
                at: DurationNs::from_secs_f64(1.0),
                duration: DurationNs::from_secs_f64(0.5),
                multiplier: 6.0,
            },
            WorkloadShape::Sessions {
                mean_length: 4.0,
                think_time: DurationNs::from_millis(5),
            },
        ]
    }

    #[test]
    fn shaped_streams_are_strictly_increasing_and_deterministic() {
        for shape in all_shapes() {
            let a = generate_shaped(11, 300, 400.0, &[2.0, 1.0, 1.0], &shape);
            let b = generate_shaped(11, 300, 400.0, &[2.0, 1.0, 1.0], &shape);
            assert_eq!(a, b, "{} must replay bit-identically", shape.label());
            assert_eq!(a.len(), 300);
            for (i, w) in a.windows(2).enumerate() {
                assert!(
                    w[0].arrival < w[1].arrival,
                    "{} arrivals not increasing at {i}",
                    shape.label()
                );
            }
            assert!(a.iter().enumerate().all(|(i, r)| r.id == i));
            let c = generate_shaped(12, 300, 400.0, &[2.0, 1.0, 1.0], &shape);
            assert_ne!(a, c, "{} must vary with the seed", shape.label());
        }
    }

    #[test]
    fn poisson_is_the_plain_exponential_gap_process() {
        // Thinning at constant intensity accepts every candidate, so each
        // Poisson request is one gap from the gap stream and one model
        // draw from the mix stream.
        let weights = [1.0, 2.0];
        let mut gap_rng = TensorRng::seed(21u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5e2e);
        let mut mix_rng = TensorRng::seed(21u64.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ 0x313a);
        let mut t_ns = 0;
        let direct: Vec<Request> = (0..100)
            .map(|id| {
                t_ns += exp_gap_ns(&mut gap_rng, 250.0);
                Request {
                    id,
                    model: draw_model(&mut mix_rng, &weights, 3.0),
                    arrival: DurationNs::from_nanos(t_ns),
                }
            })
            .collect();
        assert_eq!(
            generate_shaped(21, 100, 250.0, &weights, &WorkloadShape::Poisson),
            direct
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_burst() {
        let shape = WorkloadShape::FlashCrowd {
            at: DurationNs::from_secs_f64(1.0),
            duration: DurationNs::from_secs_f64(1.0),
            multiplier: 10.0,
        };
        let reqs = generate_shaped(5, 1_000, 100.0, &[1.0], &shape);
        let window = DurationNs::from_secs_f64(1.0)..DurationNs::from_secs_f64(2.0);
        let in_burst = reqs.iter().filter(|r| window.contains(&r.arrival)).count();
        // Burst-second intensity is 10× baseline; well over half of the
        // stream should land inside it.
        assert!(
            in_burst * 2 > reqs.len(),
            "only {in_burst}/{} arrivals in the burst window",
            reqs.len()
        );
    }

    #[test]
    fn diurnal_peak_half_outdraws_the_trough_half() {
        let period = DurationNs::from_secs_f64(4.0);
        let shape = WorkloadShape::Diurnal {
            period,
            amplitude: 0.9,
        };
        let reqs = generate_shaped(3, 2_000, 500.0, &[1.0], &shape);
        // sin > 0 on the first half of each cycle, < 0 on the second.
        let (mut peak, mut trough) = (0usize, 0usize);
        for r in &reqs {
            let into = r.arrival.as_nanos() % period.as_nanos();
            if into < period.as_nanos() / 2 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak > trough * 2,
            "peak half {peak} should dominate trough half {trough}"
        );
    }

    #[test]
    fn sessions_share_model_affinity_in_runs() {
        let shape = WorkloadShape::Sessions {
            mean_length: 6.0,
            think_time: DurationNs::from_micros(50),
        };
        let reqs = generate_shaped(9, 600, 2_000.0, &[1.0, 1.0, 1.0, 1.0], &shape);
        // Per-session affinity means consecutive requests repeat the
        // same model far more often than the 1/4 chance an independent
        // mix would give.
        let repeats = reqs.windows(2).filter(|w| w[0].model == w[1].model).count();
        let share = repeats as f64 / (reqs.len() - 1) as f64;
        assert!(
            share > 0.4,
            "adjacent-model repeat share {share} should exceed independent 0.25"
        );
    }

    #[test]
    fn shape_validation_rejects_bad_parameters() {
        let bad_amp = WorkloadShape::Diurnal {
            period: DurationNs::from_secs_f64(1.0),
            amplitude: 1.0,
        };
        assert_eq!(bad_amp.validate(100.0).unwrap_err().reason, "not in [0, 1)");
        let bad_period = WorkloadShape::Diurnal {
            period: DurationNs::ZERO,
            amplitude: 0.5,
        };
        assert_eq!(
            bad_period.validate(100.0).unwrap_err().what,
            "diurnal period"
        );
        let bad_mult = WorkloadShape::FlashCrowd {
            at: DurationNs::ZERO,
            duration: DurationNs::from_secs_f64(1.0),
            multiplier: 0.5,
        };
        assert_eq!(bad_mult.validate(100.0).unwrap_err().reason, "not >= 1");
        let bad_len = WorkloadShape::Sessions {
            mean_length: 0.5,
            think_time: DurationNs::from_millis(1),
        };
        assert_eq!(
            bad_len.validate(100.0).unwrap_err().what,
            "session mean length"
        );
        // The peak rate is validated too: an enormous multiplier pushes
        // the thinning envelope past what the clock can represent.
        let huge = WorkloadShape::FlashCrowd {
            at: DurationNs::ZERO,
            duration: DurationNs::from_secs_f64(1.0),
            multiplier: f64::INFINITY,
        };
        assert!(huge.validate(100.0).is_err());
        assert!(WorkloadShape::Poisson.validate(0.0).is_err());
    }
}
