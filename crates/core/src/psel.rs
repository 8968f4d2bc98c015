//! The policy-selector (PSEL) saturating counter (paper §6.1).

/// A saturating up/down counter whose most-significant bit selects the
/// winning policy.
///
/// "Unless stated otherwise, we use a 6-bit PSEL counter … All PSEL updates
/// are done using saturating arithmetic. If the most significant bit (MSB)
/// of PSEL is 1, the output of PSEL indicates that LIN is doing better."
/// The counter is incremented/decremented by the `cost_q` of divergent
/// misses, not by 1 — this is what makes CBS select on *stall cycles*
/// rather than raw miss counts (§6.1).
///
/// # Example
///
/// ```
/// use mlpsim_core::psel::Psel;
/// let mut p = Psel::new(6);
/// assert!(!p.msb_set()); // starts neutral-low
/// for _ in 0..6 { p.inc_by(7); }
/// assert!(p.msb_set());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Psel {
    value: u32,
    max: u32,
    msb: u32,
}

impl Psel {
    /// Creates a `bits`-wide counter initialized to the midpoint
    /// (`2^(bits-1)` − 1, just below the MSB threshold, i.e. favoring the
    /// baseline until evidence accumulates).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 31`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "bits is asserted to lie in 1..=31"
    )]
    pub fn new(bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "PSEL width must be 1..=31 bits");
        let max = (1u32 << bits) - 1;
        let msb = 1u32 << (bits - 1);
        Psel {
            value: msb - 1,
            max,
            msb,
        }
    }

    /// The paper's default: a 6-bit counter.
    pub fn paper_default() -> Self {
        Psel::new(6)
    }

    /// Current raw value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Saturating maximum.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Whether the MSB is set (the MLP-aware policy is winning).
    pub fn msb_set(&self) -> bool {
        self.value & self.msb != 0
    }

    /// Saturating increment by `amount` (the cost_q of a divergent miss).
    pub fn inc_by(&mut self, amount: u32) {
        self.value = self.value.saturating_add(amount).min(self.max);
        crate::invariant!(
            self.value <= self.max,
            "PSEL must saturate at its width's maximum"
        );
    }

    /// Saturating decrement by `amount`.
    pub fn dec_by(&mut self, amount: u32) {
        self.value = self.value.saturating_sub(amount);
        crate::invariant!(
            self.value <= self.max,
            "PSEL must saturate at its width's maximum"
        );
    }

    /// Whether the counter is pinned at either rail (0 or max). Useful for
    /// telemetry: a saturated PSEL means one policy is winning decisively.
    pub fn is_saturated(&self) -> bool {
        self.value == 0 || self.value == self.max
    }
}

/// Observes a [`Psel`] across updates and reports MSB flips — the moments
/// the follower sets actually switch policy. Engines keep one watch per
/// counter so telemetry can count flips and measure dwell times.
#[derive(Clone, Copy, Debug)]
pub struct PselWatch {
    last_msb: bool,
}

impl PselWatch {
    /// Starts watching from `p`'s current state.
    pub fn new(p: &Psel) -> Self {
        PselWatch {
            last_msb: p.msb_set(),
        }
    }

    /// Call after every update to `p`; returns `Some(new_msb)` when the
    /// MSB changed since the last observation.
    pub fn observe(&mut self, p: &Psel) -> Option<bool> {
        let msb = p.msb_set();
        if msb != self.last_msb {
            self.last_msb = msb;
            Some(msb)
        } else {
            None
        }
    }
}

impl Default for Psel {
    fn default() -> Self {
        Psel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_bit_counter_saturates_at_63() {
        let mut p = Psel::new(6);
        for _ in 0..100 {
            p.inc_by(7);
        }
        assert_eq!(p.value(), 63);
        assert!(p.msb_set());
        for _ in 0..100 {
            p.dec_by(7);
        }
        assert_eq!(p.value(), 0);
        assert!(!p.msb_set());
    }

    #[test]
    fn starts_just_below_threshold() {
        let p = Psel::new(6);
        assert_eq!(p.value(), 31);
        assert!(!p.msb_set());
        let mut p2 = p;
        p2.inc_by(1);
        assert!(p2.msb_set());
    }

    #[test]
    fn msb_flips_at_midpoint() {
        let mut p = Psel::new(4); // max 15, msb at 8
        p.inc_by(20);
        assert_eq!(p.value(), 15);
        p.dec_by(8); // 7 < 8
        assert!(!p.msb_set());
        p.inc_by(1); // 8
        assert!(p.msb_set());
    }

    #[test]
    fn seven_bit_variant_for_cbs_global() {
        // Footnote 7: CBS-global uses a 7-bit PSEL.
        let p = Psel::new(7);
        assert_eq!(p.max(), 127);
        assert_eq!(p.value(), 63);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = Psel::new(0);
    }
}
