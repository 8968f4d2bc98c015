//! The audited host clock shim.
//!
//! The only sanctioned wall-clock read in the workspace is [`now_ns`]
//! below: `clippy.toml` disallows `Instant`, `SystemTime` and their `now`
//! everywhere else (rule D2), and disallows calling `now_ns` outside the
//! span and service code that may hold host time (rule D9), so values
//! derived from it stay out of simulation results and event payloads.
//! Host time is read here but never fed back into the simulation, which is
//! what keeps determinism intact. Per-layer host timing of the simulator
//! lives in `perfbench`'s traced run (`perfbench --trace 1`, DESIGN.md
//! §13).

use std::sync::OnceLock;

/// The audited clock shim: nanoseconds since the first call in this
/// process. The value is only ever subtracted from another `now_ns`
/// reading, never mixed into simulated time.
#[inline]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "D2: the one sanctioned wall-clock read; the epoch is compared only against itself"
)]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::now_ns;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the shim's own test")]
    fn clock_shim_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
