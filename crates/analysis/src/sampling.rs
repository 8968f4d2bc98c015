//! The analytical leader-set sampling model (paper §6.3, Eqs. 3–5,
//! Fig. 8).
//!
//! With `k` randomly chosen leader sets and a fraction `p ≥ 0.5` of all
//! sets favoring the globally best policy, the probability that a
//! majority-vote of the leaders picks the best policy is
//!
//! * odd `k`:  `P = Σ_{i=0}^{(k-1)/2} C(k,i) p^(k-i) (1-p)^i`
//! * even `k`: the same sum to `k/2 - 1`, plus half the probability of an
//!   exact tie: `(1/2) C(k, k/2) p^(k/2) (1-p)^(k/2)`.
//!
//! (The paper's summation bounds `(k+1)/2` and `k/2 − 1 + …` express the
//! same majority event; we implement the standard binomial tail.)

/// Binomial coefficient `C(k, i)` as `f64` (exact for the `k ≤ 64` range
/// the experiments use).
///
/// # Panics
///
/// Panics if `i > k`.
pub fn choose(k: u32, i: u32) -> f64 {
    assert!(i <= k, "C(k, i) requires i <= k");
    let i = i.min(k - i);
    let mut acc = 1.0f64;
    for j in 0..i {
        acc = acc * f64::from(k - j) / f64::from(j + 1);
    }
    acc
}

/// Probability that a `k`-leader-set sample selects the globally best
/// policy, given that a fraction `p` of all sets favor it (Eqs. 4–5).
///
/// # Panics
///
/// Panics if `k` is zero or `p` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use mlpsim_analysis::sampling::p_best;
/// // With one leader set the answer is just p (Eq. "P(Best) = p").
/// assert_eq!(p_best(1, 0.7), 0.7);
/// // Three leaders: p³ + 3p²(1−p)  (Eq. 3).
/// let p: f64 = 0.7;
/// assert!((p_best(3, p) - (p.powi(3) + 3.0 * p.powi(2) * (1.0 - p))).abs() < 1e-12);
/// ```
pub fn p_best(k: u32, p: f64) -> f64 {
    assert!(k > 0, "at least one leader set is required");
    assert!((0.0..=1.0).contains(&p), "p is a probability");
    let q = 1.0 - p;
    // Majority means more than k/2 leaders favor the best policy, i.e. the
    // number of *dissenting* leaders i satisfies i < k/2; an exact tie
    // (even k) selects the best policy with probability 1/2.
    let mut total = 0.0;
    let half = k / 2;
    if k % 2 == 1 {
        for i in 0..=half {
            total += choose(k, i) * p.powi((k - i) as i32) * q.powi(i as i32);
        }
    } else {
        for i in 0..half {
            total += choose(k, i) * p.powi((k - i) as i32) * q.powi(i as i32);
        }
        total += 0.5 * choose(k, half) * p.powi(half as i32) * q.powi(half as i32);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_matches_pascal() {
        assert_eq!(choose(5, 0), 1.0);
        assert_eq!(choose(5, 5), 1.0);
        assert_eq!(choose(5, 2), 10.0);
        assert_eq!(choose(32, 16), 601080390.0);
    }

    #[test]
    fn one_leader_is_just_p() {
        for p in [0.5, 0.6, 0.74, 0.99] {
            assert!((p_best(1, p) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn three_leaders_match_equation_3() {
        for p in [0.5, 0.6, 0.7, 0.8, 0.9] {
            let expect = p * p * p + 3.0 * p * p * (1.0 - p);
            assert!((p_best(3, p) - expect).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn p_half_gives_a_coin_flip() {
        // When the sets are evenly split, sampling can do no better than
        // chance, for any k.
        for k in [1u32, 2, 3, 8, 16, 32] {
            assert!((p_best(k, 0.5) - 0.5).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn p_best_is_monotonic_in_k_for_odd_k() {
        // More (odd) leaders never hurt when p > 0.5.
        for p in [0.6, 0.74, 0.9] {
            let mut prev = 0.0;
            for k in (1..=31).step_by(2) {
                let v = p_best(k, p);
                assert!(v >= prev - 1e-12, "k={k}, p={p}");
                prev = v;
            }
        }
    }

    #[test]
    fn papers_conclusion_16_to_32_leaders_suffice() {
        // "the average value of p for all benchmarks is between 0.74 and
        // 0.99. … a small number of leader sets (16-32) is sufficient to
        // select the globally best-performing policy with a high (> 95%)
        // probability."
        assert!(p_best(16, 0.74) > 0.95);
        assert!(p_best(32, 0.74) > 0.99);
        assert!(p_best(16, 0.99) > 0.999);
    }

    #[test]
    fn certain_p_gives_certain_selection() {
        for k in [1u32, 2, 7, 32] {
            assert!((p_best(k, 1.0) - 1.0).abs() < 1e-12);
            assert!(p_best(k, 0.0) < 1e-12);
        }
    }
}
