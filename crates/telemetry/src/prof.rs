//! The audited host clock shim.
//!
//! The only sanctioned wall-clock read in the core crates is [`now_ns`]
//! below — lint rule D2 audits every other `Instant`/`SystemTime` mention
//! in `cache`/`core`/`mem`/`cpu`/`exec`/`trace`/`telemetry`, and rule D9
//! keeps values derived from it out of simulation results and event
//! payloads. Host time is read here but never fed back into the
//! simulation, which is what keeps determinism intact. Per-layer host
//! timing of the simulator lives in `perfbench`'s traced run
//! (`perfbench --trace 1`, DESIGN.md §13).

use std::sync::OnceLock;
// lint: allow(D2, "prof clock shim: the audited wall-clock import (DESIGN.md §13)")
use std::time::Instant;

// lint: allow(D2, "prof clock shim epoch: compared only against itself, never fed into simulation")
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The audited clock shim: nanoseconds since the first call in this
/// process. Every wall-clock read in the core crates goes through here
/// (lint rule D2 enforces it); the value is only ever subtracted from
/// another `now_ns` reading, never mixed into simulated time.
#[inline]
pub fn now_ns() -> u64 {
    // lint: allow(D2, "prof clock shim: the one sanctioned Instant::now in core crates")
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::now_ns;

    #[test]
    fn clock_shim_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
