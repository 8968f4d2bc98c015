//! The estimate → prune decision rule of the sweep planner.
//!
//! A sweep cell is (benchmark, policy, geometry). The planner's job is to
//! decide, from the analytical models alone, whether simulating the cell
//! can tell us anything the incumbent policy's standing numbers don't
//! already. The predicted miss-rate delta of a cell vs the incumbent is
//! factored as
//!
//! ```text
//! delta = potential(bench, geometry) × aggressiveness(policy)
//! ```
//!
//! where *potential* is the fraction of accesses whose stack distance
//! lies in the geometry's transition band
//! ([`TraceProfile::transition_mass`]) — the reuses any replacement
//! policy could plausibly flip — and *aggressiveness* is a per-policy
//! prior on how far the policy departs from the incumbent LRU's
//! ordering. The incumbent itself has aggressiveness 0, so its cells are
//! pruned at any positive margin (their numbers are the baseline the
//! deltas are measured against); `--prune-margin 0` keeps every cell
//! (the comparison is strict `<`), which is how CI obtains the unpruned
//! reference run.
//!
//! The rule is deliberately *monotone and transparent*: a cell is pruned
//! iff `delta < margin`, and the reason string states both numbers.
//! What the model cannot see — LIN/SBAR optimize stall cost, not miss
//! count — is documented in DESIGN.md §17; the margin is a bound on
//! predicted *miss-rate* movement only, which is why unknown policies
//! default to aggressiveness 1 (never pruned).

use crate::characterize::TraceProfile;
use crate::estimate::{Estimate, ReuseDistEstimator};
use mlpsim_cache::addr::Geometry;

/// Default `--prune-margin`: half a percent of predicted miss-rate
/// movement. Below this, the simulated tables are indistinguishable from
/// the incumbent's to the precision they print.
pub const DEFAULT_PRUNE_MARGIN: f64 = 0.005;

/// One cell's analytical score and verdict.
#[derive(Clone, Debug)]
pub struct CellScore {
    /// Predicted LRU-model miss rate of the cell's (bench, geometry).
    pub estimate: Estimate,
    /// Predicted |miss-rate delta| vs the incumbent policy.
    pub delta: f64,
    /// `delta < margin` — the cell is not worth a simulation.
    pub pruned: bool,
    /// Human-readable decision, stating delta and margin.
    pub reason: String,
}

/// Prior on how far a policy's eviction ordering departs from the
/// incumbent LRU, as a fraction of the transition-band mass it can flip.
/// Keyed on [`PolicyKind::label`]-style names so the model crate needs no
/// dependency on the policy registry; an unrecognized label scores 1.0 —
/// the planner never prunes what it cannot model.
///
/// [`PolicyKind::label`]: https://docs.rs/mlpsim-cpu
pub fn aggressiveness(policy_label: &str) -> f64 {
    if policy_label == "lru" {
        return 0.0;
    }
    if policy_label == "fifo" || policy_label == "random" {
        return 0.3;
    }
    if let Some(rest) = policy_label.strip_prefix("lin(") {
        if let Some(lambda) = rest.strip_suffix(')').and_then(|n| n.parse::<u32>().ok()) {
            // λ scales how hard LIN reorders by cost; saturate at 1.
            return (f64::from(lambda) / 8.0).min(1.0);
        }
    }
    if policy_label.starts_with("sbar")
        || policy_label.starts_with("cbs")
        || policy_label.starts_with("bcl")
    {
        return 0.5;
    }
    1.0
}

/// Score one cell against the incumbent at the given prune margin.
pub fn score_cell(
    profile: &TraceProfile,
    geometry: Geometry,
    policy_label: &str,
    margin: f64,
) -> CellScore {
    let estimate = ReuseDistEstimator.estimate(profile, geometry);
    let potential = profile.transition_mass(geometry.lines());
    let delta = potential * aggressiveness(policy_label);
    let pruned = delta < margin;
    let reason = if pruned {
        format!("predicted |miss-rate delta| {delta:.4} vs incumbent is below margin {margin:.4}")
    } else {
        format!(
            "predicted |miss-rate delta| {delta:.4} vs incumbent is at/above margin {margin:.4}"
        )
    };
    CellScore {
        estimate,
        delta,
        pruned,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{profile_trace, CharacterizeConfig};
    use mlpsim_trace::record::{Access, Trace};

    #[test]
    fn incumbent_and_unknown_policies_sit_at_the_extremes() {
        assert_eq!(aggressiveness("lru"), 0.0);
        assert_eq!(aggressiveness("belady-oracle"), 1.0);
        assert!(aggressiveness("lin(4)") > aggressiveness("lin(1)"));
        assert_eq!(aggressiveness("lin(64)"), 1.0);
        assert!(aggressiveness("sbar(k=32)") > 0.0);
        assert!(aggressiveness("cbs-local") > 0.0);
    }

    #[test]
    fn margin_zero_keeps_everything_and_lru_is_always_pruned_otherwise() {
        let trace = Trace::from_accesses((0..5000u64).map(|i| Access::load(i % 97, 0)).collect());
        let p = profile_trace(&trace, &CharacterizeConfig::unfiltered());
        let g = Geometry::from_sets(4, 8, 64);
        let kept = score_cell(&p, g, "lru", 0.0);
        assert!(!kept.pruned, "margin 0 must keep the incumbent too");
        let pruned = score_cell(&p, g, "lru", DEFAULT_PRUNE_MARGIN);
        assert!(pruned.pruned);
        assert!(pruned.reason.contains("below margin"), "{}", pruned.reason);
    }

    #[test]
    fn transitional_working_set_survives_the_default_margin() {
        // 97 lines cycling over a 32-line cache: squarely in the
        // transition band, so an aggressive policy is worth simulating.
        let trace = Trace::from_accesses((0..5000u64).map(|i| Access::load(i % 97, 0)).collect());
        let p = profile_trace(&trace, &CharacterizeConfig::unfiltered());
        let g = Geometry::from_sets(4, 8, 64);
        let s = score_cell(&p, g, "lin(4)", DEFAULT_PRUNE_MARGIN);
        assert!(!s.pruned, "delta {} should beat the margin", s.delta);
        assert!(s.delta > 0.1);
    }
}
