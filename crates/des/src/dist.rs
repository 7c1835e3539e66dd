//! A small, serializable distribution vocabulary.
//!
//! Workload profiles and cost models are *data* in this workspace (they are
//! written to and read from JSON), so distributions are represented as a
//! closed enum rather than trait objects. All samples are non-negative:
//! these distributions model durations, sizes, and counts.

use std::fmt;
use std::sync::OnceLock;

use rand::{Rng, RngCore};
use rand_distr::{Distribution, LogNormal, Pareto, Weibull};
use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// Error constructing a [`Dist`] with invalid parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct DistError {
    what: String,
}

impl DistError {
    fn new(what: impl Into<String>) -> Self {
        DistError { what: what.into() }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameters: {}", self.what)
    }
}

impl std::error::Error for DistError {}

/// A non-negative scalar distribution.
///
/// ```
/// use cpsim_des::{Dist, Streams};
/// let d = Dist::exponential(2.0)?;
/// let mut rng = Streams::new(7).rng(0);
/// let mean: f64 = (0..10_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 10_000.0;
/// assert!((mean - 2.0).abs() < 0.1);
/// # Ok::<(), cpsim_des::DistError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Always `value`.
    Constant { value: f64 },
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given mean (not rate).
    Exponential { mean: f64 },
    /// Log-normal parametrized by its median (`exp(mu)`) and `sigma`.
    LogNormal { median: f64, sigma: f64 },
    /// Pareto with minimum `scale` and tail index `shape`.
    Pareto { scale: f64, shape: f64 },
    /// Weibull with the given `scale` and `shape`.
    Weibull { scale: f64, shape: f64 },
    /// Inverse-CDF sampling with linear interpolation over sorted `points`.
    Empirical { points: Vec<f64> },
}

impl Dist {
    /// A point mass at `value`.
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is negative or non-finite.
    pub fn constant(value: f64) -> Result<Self, DistError> {
        ensure_nonneg("constant value", value)?;
        Ok(Dist::Constant { value })
    }

    /// Uniform on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 <= lo <= hi` and both are finite.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self, DistError> {
        ensure_nonneg("uniform lo", lo)?;
        ensure_nonneg("uniform hi", hi)?;
        if lo > hi {
            return Err(DistError::new(format!("uniform lo {lo} > hi {hi}")));
        }
        Ok(Dist::Uniform { lo, hi })
    }

    /// Exponential with mean `mean`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `mean > 0` and finite.
    pub fn exponential(mean: f64) -> Result<Self, DistError> {
        ensure_pos("exponential mean", mean)?;
        Ok(Dist::Exponential { mean })
    }

    /// Log-normal with median `median` and log-space deviation `sigma`.
    ///
    /// The mean is `median * exp(sigma^2 / 2)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `median > 0` and `sigma >= 0`, both finite.
    pub fn log_normal(median: f64, sigma: f64) -> Result<Self, DistError> {
        ensure_pos("log-normal median", median)?;
        ensure_nonneg("log-normal sigma", sigma)?;
        Ok(Dist::LogNormal { median, sigma })
    }

    /// Pareto with minimum value `scale` and tail index `shape`.
    ///
    /// # Errors
    ///
    /// Returns an error unless both are positive and finite.
    pub fn pareto(scale: f64, shape: f64) -> Result<Self, DistError> {
        ensure_pos("pareto scale", scale)?;
        ensure_pos("pareto shape", shape)?;
        Ok(Dist::Pareto { scale, shape })
    }

    /// Weibull with the given `scale` and `shape`.
    ///
    /// # Errors
    ///
    /// Returns an error unless both are positive and finite.
    pub fn weibull(scale: f64, shape: f64) -> Result<Self, DistError> {
        ensure_pos("weibull scale", scale)?;
        ensure_pos("weibull shape", shape)?;
        Ok(Dist::Weibull { scale, shape })
    }

    /// Empirical distribution over observed `points` (need not be sorted).
    ///
    /// Sampling draws `u ~ U[0,1)` and linearly interpolates the sorted
    /// points at rank `u * (n-1)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `points` is empty or contains negative or
    /// non-finite values.
    pub fn empirical(mut points: Vec<f64>) -> Result<Self, DistError> {
        if points.is_empty() {
            return Err(DistError::new("empirical points must be non-empty"));
        }
        for &p in &points {
            ensure_nonneg("empirical point", p)?;
        }
        points.sort_by(|a, b| a.total_cmp(b));
        Ok(Dist::Empirical { points })
    }

    /// Draws one sample. Always finite and non-negative.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let x = match self {
            Dist::Constant { value } => *value,
            Dist::Uniform { lo, hi } => {
                if lo == hi {
                    *lo
                } else {
                    rng.gen_range(*lo..*hi)
                }
            }
            Dist::Exponential { mean } => mean * sample_exp1(rng),
            Dist::LogNormal { median, sigma } => LogNormal::new(median.ln(), *sigma)
                .expect("validated")
                .sample(rng),
            Dist::Pareto { scale, shape } => {
                Pareto::new(*scale, *shape).expect("validated").sample(rng)
            }
            Dist::Weibull { scale, shape } => {
                Weibull::new(*scale, *shape).expect("validated").sample(rng)
            }
            Dist::Empirical { points } => {
                let n = points.len();
                if n == 1 {
                    points[0]
                } else {
                    let u: f64 = rng.gen::<f64>() * (n - 1) as f64;
                    let i = u.floor() as usize;
                    let frac = u - i as f64;
                    let j = (i + 1).min(n - 1);
                    points[i] + (points[j] - points[i]) * frac
                }
            }
        };
        clamp_sample(x)
    }

    /// This distribution prepared for repeated sampling: parameters that
    /// every draw would otherwise re-derive are computed once. Draws are
    /// bit-identical to [`sample`](Self::sample)'s on the same stream.
    pub fn sampler(&self) -> Sampler {
        match self {
            Dist::LogNormal { median, sigma } => match LogNormal::new(median.ln(), *sigma) {
                Ok(d) => Sampler(Prepared::LogNormal(d)),
                // Unvalidated parameters (a hand-written JSON profile)
                // keep failing where `sample` fails: at the draw.
                Err(_) => Sampler(Prepared::Other(self.clone())),
            },
            other => Sampler(Prepared::Other(other.clone())),
        }
    }

    /// The analytic mean, where one exists.
    ///
    /// Pareto with `shape <= 1` has no finite mean and returns `None`.
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant { value } => Some(*value),
            Dist::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            Dist::Exponential { mean } => Some(*mean),
            Dist::LogNormal { median, sigma } => Some(median * (sigma * sigma / 2.0).exp()),
            Dist::Pareto { scale, shape } => {
                if *shape > 1.0 {
                    Some(shape * scale / (shape - 1.0))
                } else {
                    None
                }
            }
            Dist::Weibull { scale, shape } => Some(scale * gamma(1.0 + 1.0 / shape)),
            Dist::Empirical { points } => Some(points.iter().sum::<f64>() / points.len() as f64),
        }
    }
}

/// Maps a raw draw onto the non-negative finite range every sample has.
fn clamp_sample(x: f64) -> f64 {
    if x.is_finite() && x >= 0.0 {
        x
    } else {
        0.0
    }
}

/// A [`Dist`] prepared for repeated sampling (see [`Dist::sampler`]).
///
/// Cost models draw from the same few distributions millions of times.
/// A log-normal [`Dist`] stores its median, so each [`Dist::sample`]
/// call takes `median.ln()` before drawing; the sampler stores `mu`
/// instead. Other shapes have nothing to precompute and sample through
/// the `Dist` itself.
#[derive(Clone, Debug)]
pub struct Sampler(Prepared);

#[derive(Clone, Debug)]
enum Prepared {
    /// Log-normal with `mu = median.ln()` already taken.
    LogNormal(LogNormal),
    /// Any other distribution, sampled as is.
    Other(Dist),
}

impl Sampler {
    /// Draws one sample, bit-identical to the source [`Dist::sample`].
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match &self.0 {
            Prepared::LogNormal(d) => clamp_sample(d.sample(rng)),
            Prepared::Other(d) => d.sample(rng),
        }
    }
}

// ---- Exp(1) ziggurat -------------------------------------------------------
//
// Exponential service/arrival times are by far the hottest samples in the
// workspace (every CPU slice, DB statement, and arrival gap draws one), and
// the inverse-CDF `-ln(u)/λ` pays a full `ln` per draw — the dominant libm
// weight in the suite profile. The 256-layer ziggurat (Marsaglia & Tsang,
// constants per Doornik) replaces ~98.9 % of draws with one u64, one
// multiply and one table compare; `ln`/`exp` only run on the rare wedge and
// tail rejections.
//
// Note: this changes the exponential sample stream (same distribution,
// different draws), so all experiment outputs and bench baselines were
// regenerated once when it landed.

/// Number of ziggurat layers (index byte comes straight off the u64 draw).
const ZIG_LAYERS: usize = 256;
/// Right edge `r` of the base layer for the 256-layer Exp(1) ziggurat.
const ZIG_R: f64 = 7.697_117_470_131_05;
/// Common layer area `v`.
const ZIG_V: f64 = 3.949_659_822_581_557e-3;
/// 2^-53: maps the top 53 bits of a u64 draw onto `[0, 1)`.
const ZIG_U: f64 = 1.0 / (1u64 << 53) as f64;

/// Layer edges `x[i]` (decreasing, `x[256] = 0`) and the density there
/// `f[i] = exp(-x[i])` (increasing, `f[256] = 1`). `x[0]` is the stretched
/// pseudo-base `v / f(r)` so the base draw lands in the tail with exactly
/// the tail's probability mass.
struct ExpZig {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

fn exp_zig() -> &'static ExpZig {
    static TABLES: OnceLock<ExpZig> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = [0.0; ZIG_LAYERS + 1];
        f[0] = 1.0; // unused (base layer never takes the wedge path)
        x[1] = ZIG_R;
        f[1] = (-ZIG_R).exp();
        x[0] = ZIG_V / f[1];
        for i in 1..ZIG_LAYERS {
            // Each layer has area v: x[i] * (f[i+1] - f[i]) = v.
            f[i + 1] = ZIG_V / x[i] + f[i];
            x[i + 1] = -(f[i + 1].ln());
        }
        // The recurrence must close on the mode, (x, f) = (0, 1), up to
        // accumulated rounding; pin it exactly.
        debug_assert!(
            x[ZIG_LAYERS].abs() < 1e-7,
            "ziggurat drift {}",
            x[ZIG_LAYERS]
        );
        x[ZIG_LAYERS] = 0.0;
        f[ZIG_LAYERS] = 1.0;
        ExpZig { x, f }
    })
}

/// One Exp(1) draw via the ziggurat.
fn sample_exp1(rng: &mut SimRng) -> f64 {
    let z = exp_zig();
    loop {
        let bits = rng.next_u64();
        let j = (bits & (ZIG_LAYERS as u64 - 1)) as usize;
        let u = (bits >> 11) as f64 * ZIG_U;
        let x = u * z.x[j];
        if x < z.x[j + 1] {
            // Strictly inside the next-narrower layer: under the curve.
            return x;
        }
        if j == 0 {
            // Base overflow is the tail; memorylessness gives r + Exp(1).
            let u2 = (rng.next_u64() >> 11) as f64 * ZIG_U;
            return ZIG_R - (1.0 - u2).ln();
        }
        // Wedge: uniform height within the layer strip vs the density.
        let u2 = (rng.next_u64() >> 11) as f64 * ZIG_U;
        if z.f[j] + u2 * (z.f[j + 1] - z.f[j]) < (-x).exp() {
            return x;
        }
    }
}

fn ensure_nonneg(what: &str, v: f64) -> Result<(), DistError> {
    if v.is_finite() && v >= 0.0 {
        Ok(())
    } else {
        Err(DistError::new(format!(
            "{what} must be finite and >= 0, got {v}"
        )))
    }
}

fn ensure_pos(what: &str, v: f64) -> Result<(), DistError> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(DistError::new(format!(
            "{what} must be finite and > 0, got {v}"
        )))
    }
}

/// Lanczos approximation of the gamma function, used only for the Weibull
/// mean (accurate to ~1e-13 on the arguments that arise here).
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Streams;

    fn rng() -> SimRng {
        Streams::new(2024).rng(0)
    }

    fn empirical_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_always_same() {
        let d = Dist::constant(3.5).unwrap();
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 3.5);
        }
        assert_eq!(d.mean(), Some(3.5));
    }

    #[test]
    fn uniform_stays_in_range() {
        let d = Dist::uniform(1.0, 2.0).unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((1.0..2.0).contains(&x));
        }
        assert!((empirical_mean(&d, 20_000) - 1.5).abs() < 0.02);
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let d = Dist::uniform(2.0, 2.0).unwrap();
        assert_eq!(d.sample(&mut rng()), 2.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::exponential(4.0).unwrap();
        assert!((empirical_mean(&d, 50_000) - 4.0).abs() < 0.15);
        assert_eq!(d.mean(), Some(4.0));
    }

    #[test]
    fn ziggurat_tables_are_consistent() {
        let z = exp_zig();
        // Edges decrease from r to 0; densities increase from f(r) to 1.
        assert_eq!(z.x[1], ZIG_R);
        assert_eq!(z.x[ZIG_LAYERS], 0.0);
        assert_eq!(z.f[ZIG_LAYERS], 1.0);
        for i in 1..ZIG_LAYERS {
            assert!(z.x[i] > z.x[i + 1], "x not decreasing at {i}");
            assert!(z.f[i] < z.f[i + 1], "f not increasing at {i}");
            assert!((z.f[i] - (-z.x[i]).exp()).abs() < 1e-12);
            // Every layer rectangle has the common area v.
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!((area - ZIG_V).abs() < 1e-9, "layer {i} area {area}");
        }
        // The pseudo-base is the stretched tail rectangle.
        assert!((z.x[0] - ZIG_V / (-ZIG_R).exp()).abs() < 1e-9);
    }

    #[test]
    fn ziggurat_matches_exponential_shape() {
        // Beyond the mean check: the variance and tail mass must match
        // Exp(λ) too, which catches layer/wedge bookkeeping mistakes the
        // mean alone would hide.
        let d = Dist::exponential(1.0).unwrap();
        let mut r = rng();
        let n = 200_000;
        let (mut sum, mut sum2, mut tail) = (0.0f64, 0.0f64, 0u32);
        for _ in 0..n {
            let x = d.sample(&mut r);
            sum += x;
            sum2 += x * x;
            if x > ZIG_R {
                tail += 1;
            }
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
        // P(X > r) = e^-r ≈ 4.54e-4: expect ~91 of 200k, well within 4σ.
        let expected = n as f64 * (-ZIG_R).exp();
        assert!(
            (f64::from(tail) - expected).abs() < 4.0 * expected.sqrt() + 1.0,
            "tail {tail} vs {expected:.1}"
        );
    }

    #[test]
    fn log_normal_median_and_mean() {
        let d = Dist::log_normal(10.0, 0.5).unwrap();
        let analytic = 10.0 * (0.125f64).exp();
        assert!((empirical_mean(&d, 100_000) - analytic).abs() / analytic < 0.05);
        assert!((d.mean().unwrap() - analytic).abs() < 1e-9);
    }

    #[test]
    fn pareto_mean() {
        let d = Dist::pareto(1.0, 3.0).unwrap();
        assert_eq!(d.mean(), Some(1.5));
        assert!((empirical_mean(&d, 200_000) - 1.5).abs() < 0.05);
        assert_eq!(Dist::pareto(1.0, 0.9).unwrap().mean(), None);
    }

    #[test]
    fn weibull_mean_uses_gamma() {
        // shape 1 reduces to exponential: mean == scale.
        let d = Dist::weibull(2.0, 1.0).unwrap();
        assert!((d.mean().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_interpolates() {
        let d = Dist::empirical(vec![3.0, 1.0, 2.0]).unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((1.0..=3.0).contains(&x));
        }
        assert_eq!(d.mean(), Some(2.0));
        let single = Dist::empirical(vec![5.0]).unwrap();
        assert_eq!(single.sample(&mut r), 5.0);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Dist::constant(-1.0).is_err());
        assert!(Dist::constant(f64::NAN).is_err());
        assert!(Dist::uniform(2.0, 1.0).is_err());
        assert!(Dist::exponential(0.0).is_err());
        assert!(Dist::log_normal(0.0, 1.0).is_err());
        assert!(Dist::pareto(1.0, 0.0).is_err());
        assert!(Dist::weibull(-1.0, 1.0).is_err());
        assert!(Dist::empirical(vec![]).is_err());
        assert!(Dist::empirical(vec![1.0, -2.0]).is_err());
        let msg = Dist::exponential(-1.0).unwrap_err().to_string();
        assert!(msg.contains("exponential mean"));
    }

    #[test]
    fn serde_round_trip() {
        let d = Dist::log_normal(8.0, 0.3).unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: Dist = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn sampler_draws_match_dist_draws() {
        let dists = [
            Dist::log_normal(0.02, 0.4).unwrap(),
            Dist::log_normal(1e300, 10.0).unwrap(),
            Dist::exponential(2.0).unwrap(),
            Dist::empirical(vec![1.0, 4.0]).unwrap(),
        ];
        for d in &dists {
            let s = d.sampler();
            let (mut a, mut b) = (rng(), rng());
            for _ in 0..1000 {
                assert_eq!(d.sample(&mut a).to_bits(), s.sample(&mut b).to_bits());
            }
        }
        assert!(matches!(dists[0].sampler().0, Prepared::LogNormal(_)));
        assert!(matches!(dists[2].sampler().0, Prepared::Other(_)));
    }

    #[test]
    fn samples_never_negative_or_nonfinite() {
        let dists = [
            Dist::exponential(1e-6).unwrap(),
            Dist::pareto(1e-9, 0.5).unwrap(),
            Dist::log_normal(1e300, 10.0).unwrap(),
        ];
        let mut r = rng();
        for d in &dists {
            for _ in 0..1000 {
                let x = d.sample(&mut r);
                assert!(x.is_finite() && x >= 0.0, "{d:?} produced {x}");
            }
        }
    }
}
