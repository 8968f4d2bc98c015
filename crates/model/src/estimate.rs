//! Analytical LRU miss-rate estimators over a [`TraceProfile`].
//!
//! Two complementary models, each returning a predicted miss rate **plus
//! a stated error band** that the cross-validation suite enforces against
//! the real simulator:
//!
//! - [`ReuseDistEstimator`] — the reuse-distance model in the style of
//!   the ETH fast analytical cache model (arXiv:2001.01653). When the
//!   profile carries an exact per-set profile at the queried set count,
//!   the LRU miss count is *exact* (band [`EXACT_BAND`], covering only
//!   the simulator's non-cache effects). Otherwise the fully-associative
//!   histogram is corrected for associativity: an access at stack
//!   distance `d` in an `S`-set cache sees `Poisson(d/S)` distinct
//!   intermediaries in its own set, so it misses in a `W`-way set with
//!   probability `P(Poisson(d/S) ≥ W)` (band [`APPROX_BAND`]).
//! - [`ZipfWsEstimator`] — the Fagin/Berthet working-set approximation
//!   (arXiv:1705.10738) under the fitted power-law popularity: solve the
//!   characteristic size `t*` with `∫(1 − e^(−p(x)·t*))dx = C`, then the
//!   steady-state miss ratio is `∫p(x)·e^(−p(x)·t*)dx`. Fully
//!   associative by construction; its band widens as the popularity
//!   curve departs from a power law (low `r2`).
//!
//! Both estimators are pure functions of the profile: fixed-iteration
//! bisection and fixed-node quadrature only (rule D2 — no
//! convergence loops), so a cell scores in microseconds and a grid of
//! 10k cells in under a second.

use crate::characterize::TraceProfile;
use mlpsim_cache::addr::Geometry;

/// Error band of the exact per-set path: the set profile reproduces the
/// simulated L2's hit/miss decisions, so the band only covers residual
/// non-cache effects (MSHR merge accounting on re-misses).
pub const EXACT_BAND: f64 = 0.02;

/// Error band of the Poisson-corrected fully-associative path.
pub const APPROX_BAND: f64 = 0.10;

/// A predicted miss rate with its stated uncertainty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Predicted miss rate in `[0, 1]`, over the accesses the profiled
    /// cache level sees.
    pub miss_rate: f64,
    /// Stated absolute error band: the model claims
    /// `|miss_rate − simulated| ≤ band`.
    pub band: f64,
}

/// A closed-form miss-rate model over one trace characterization.
pub trait MissRateEstimator {
    /// Short stable name for reports and JSON documents.
    fn name(&self) -> &'static str;
    /// Predict the LRU miss rate of a `geometry` cache on the profiled
    /// stream.
    fn estimate(&self, profile: &TraceProfile, geometry: Geometry) -> Estimate;
}

/// Reuse-distance estimator with Poisson associativity correction.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReuseDistEstimator;

impl MissRateEstimator for ReuseDistEstimator {
    fn name(&self) -> &'static str {
        "reuse-dist"
    }

    fn estimate(&self, profile: &TraceProfile, geometry: Geometry) -> Estimate {
        if profile.accesses == 0 {
            return Estimate {
                miss_rate: 0.0,
                band: 1.0,
            };
        }
        let total = profile.accesses as f64;
        if let Some(sp) = profile.set_profile(geometry.sets()) {
            if let Some(misses) = sp.lru_misses(geometry.ways()) {
                return Estimate {
                    miss_rate: (misses as f64 / total).clamp(0.0, 1.0),
                    band: EXACT_BAND,
                };
            }
        }
        let sets = f64::from(geometry.sets());
        let mut missed = profile.cold as f64;
        for b in profile.buckets() {
            missed += b.count as f64 * poisson_tail(b.mean / sets, geometry.ways());
        }
        Estimate {
            miss_rate: (missed / total).clamp(0.0, 1.0),
            band: APPROX_BAND,
        }
    }
}

/// `P(Poisson(lambda) ≥ ways)` — the probability that at least `ways`
/// distinct lines of the reuse interval landed in the access's own set,
/// evicting it under set-local LRU. Fixed `ways`-term summation; a
/// `lambda` large enough to underflow `e^(−lambda)` is a certain miss.
fn poisson_tail(lambda: f64, ways: u16) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    let mut term = (-lambda).exp();
    if term == 0.0 {
        return 1.0;
    }
    let mut below = 0.0;
    for k in 0..ways {
        below += term;
        term *= lambda / f64::from(k + 1);
    }
    (1.0 - below).clamp(0.0, 1.0)
}

/// Fagin/Berthet working-set estimator under fitted Zipf popularity.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZipfWsEstimator;

/// Quadrature nodes for the popularity integrals (log-spaced in rank).
const WS_NODES: usize = 256;
/// Bisection steps for the characteristic size `t*`.
const WS_BISECT_STEPS: u32 = 80;

impl MissRateEstimator for ZipfWsEstimator {
    fn name(&self) -> &'static str {
        "zipf-ws"
    }

    fn estimate(&self, profile: &TraceProfile, geometry: Geometry) -> Estimate {
        if profile.accesses == 0 {
            return Estimate {
                miss_rate: 0.0,
                band: 1.0,
            };
        }
        let total = profile.accesses as f64;
        let cold_frac = profile.cold as f64 / total;
        // Two honesty terms: a poor power-law fit (low r²) undermines the
        // popularity model, and a high compulsory share means the warm-
        // cache steady state is extrapolated from few observed reuses.
        let band =
            (0.12 + 0.4 * (1.0 - profile.zipf.r2) + 0.3 * cold_frac.clamp(0.0, 1.0)).min(0.5);
        let n = profile.distinct_lines.max(1) as f64;
        let capacity = f64::from(geometry.sets()) * f64::from(geometry.ways());
        if capacity >= n {
            // The whole footprint fits: only compulsory misses remain.
            return Estimate {
                miss_rate: cold_frac.clamp(0.0, 1.0),
                band,
            };
        }
        let alpha = profile.zipf.alpha.clamp(0.0, 4.0);
        // Normalizer H = ∫_1^n x^(−α) dx so that p(x) = x^(−α)/H.
        let h = integrate_log(n, |x| x.powf(-alpha));
        if h <= 0.0 {
            return Estimate {
                miss_rate: cold_frac.clamp(0.0, 1.0),
                band: 1.0,
            };
        }
        // Characteristic size: W(t) = ∫ (1 − e^(−p(x)·t)) dx grows from 0
        // to n; find t* with W(t*) = capacity by fixed-step bisection.
        // `1 − e^(−y)` is spelled `−expm1(−y)` for small-y accuracy.
        let working_set = |t: f64| integrate_log(n, |x| -(-(x.powf(-alpha) / h) * t).exp_m1());
        let mut lo = 0.0f64;
        let mut hi = 1e18f64;
        for _ in 0..WS_BISECT_STEPS {
            let mid = 0.5 * (lo + hi);
            if working_set(mid) < capacity {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t_star = 0.5 * (lo + hi);
        // Steady-state (request-weighted) miss ratio of the warm cache.
        let miss_irm = integrate_log(n, |x| {
            let p = x.powf(-alpha) / h;
            p * (-p * t_star).exp()
        }) / integrate_log(n, |x| x.powf(-alpha) / h);
        let miss_rate = cold_frac + (1.0 - cold_frac) * miss_irm.clamp(0.0, 1.0);
        Estimate {
            miss_rate: miss_rate.clamp(0.0, 1.0),
            band,
        }
    }
}

/// Trapezoid quadrature of `∫_1^n f(x) dx` on [`WS_NODES`] log-spaced
/// nodes (substitute `x = e^u`: `∫ f(e^u)·e^u du` over `u ∈ [0, ln n]`).
fn integrate_log<F: Fn(f64) -> f64>(n: f64, f: F) -> f64 {
    if n <= 1.0 {
        return 0.0;
    }
    let span = n.ln();
    let step = span / WS_NODES as f64;
    let g = |u: f64| {
        let x = u.exp();
        f(x) * x
    };
    let mut sum = 0.5 * (g(0.0) + g(span));
    for i in 1..WS_NODES {
        sum += g(step * i as f64);
    }
    sum * step
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{profile_trace, CharacterizeConfig};
    use mlpsim_trace::record::{Access, Trace};

    fn cyclic_trace(lines: u64, rounds: usize) -> Trace {
        let mut v = Vec::new();
        for _ in 0..rounds {
            for line in 0..lines {
                v.push(Access::load(line, 0));
            }
        }
        Trace::from_accesses(v)
    }

    #[test]
    fn poisson_tail_sanity() {
        assert_eq!(poisson_tail(0.0, 4), 0.0);
        assert!(poisson_tail(1e-6, 4) < 1e-20);
        assert!(poisson_tail(1e9, 4) > 0.999_999);
        // Monotone in lambda, antitone in ways.
        assert!(poisson_tail(2.0, 4) < poisson_tail(4.0, 4));
        assert!(poisson_tail(4.0, 8) < poisson_tail(4.0, 4));
    }

    #[test]
    fn cyclic_scan_thrashes_small_caches_and_fits_large_ones() {
        let p = profile_trace(&cyclic_trace(4096, 20), &CharacterizeConfig::unfiltered());
        let small = Geometry::from_sets(64, 8, 64); // 512 lines < 4096
        let large = Geometry::from_sets(1024, 8, 64); // 8192 lines > 4096

        // LRU thrashes a cyclic scan completely; the working-set model
        // answers for an IRM-randomized stream, where the steady-state
        // miss ratio of an equal-popularity scan is 1 − C/N = 0.875.
        for (est, floor) in [
            (&ReuseDistEstimator as &dyn MissRateEstimator, 0.9),
            (&ZipfWsEstimator, 0.8),
        ] {
            let s = est.estimate(&p, small);
            let l = est.estimate(&p, large);
            assert!(s.miss_rate > floor, "{}: small {}", est.name(), s.miss_rate);
            assert!(l.miss_rate < 0.1, "{}: large {}", est.name(), l.miss_rate);
            assert!(s.band > 0.0 && l.band > 0.0);
        }
    }

    #[test]
    fn exact_set_profile_path_reports_the_tight_band() {
        let cfg = CharacterizeConfig::unfiltered().with_set_profiles(&[64]);
        let p = profile_trace(&cyclic_trace(512, 10), &cfg);
        let e = ReuseDistEstimator.estimate(&p, Geometry::from_sets(64, 4, 64));
        assert_eq!(e.band, EXACT_BAND);
        // 512 lines over 64 sets = 8 lines/set > 4 ways: every reuse
        // misses, plus the cold pass — a full thrash.
        assert!(e.miss_rate > 0.99, "{}", e.miss_rate);
        // A different set count falls back to the corrected band.
        let f = ReuseDistEstimator.estimate(&p, Geometry::from_sets(128, 4, 64));
        assert_eq!(f.band, APPROX_BAND);
    }

    #[test]
    fn empty_profile_is_all_band() {
        let p = profile_trace(&Trace::new(), &CharacterizeConfig::unfiltered());
        for est in [
            &ReuseDistEstimator as &dyn MissRateEstimator,
            &ZipfWsEstimator,
        ] {
            let e = est.estimate(&p, Geometry::baseline_l2());
            assert_eq!((e.miss_rate, e.band), (0.0, 1.0));
        }
    }
}
