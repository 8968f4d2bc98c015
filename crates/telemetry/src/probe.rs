//! The compile-time probe abstraction.

use crate::event::Event;
use crate::sink::SinkHandle;

/// Compile-time telemetry hook for generic hot loops.
///
/// `System<P: Probe>` monomorphizes over this trait. The contract that
/// makes the disabled path zero-cost: every emission site is written as
///
/// ```ignore
/// if P::ENABLED {
///     self.probe.emit(Event::Stall { .. });
/// }
/// ```
///
/// With [`NoProbe`], `P::ENABLED` is the constant `false`, so the branch —
/// including the event construction inside it — is statically dead and
/// removed during monomorphization. `crates/cpu/tests/probe_overhead.rs`
/// holds the regression check (≤ 2% vs. a runtime-disabled probe).
pub trait Probe {
    /// Statically known enablement; gate every `emit` call on this.
    const ENABLED: bool;

    /// Deliver one event. Only called under `if Self::ENABLED`.
    fn emit(&mut self, ev: Event);

    /// Runtime handle for subsystems that can't be generic (engines behind
    /// `Box<dyn ReplacementEngine>`, the MSHR file). Disabled by default.
    fn sink(&self) -> SinkHandle {
        SinkHandle::disabled()
    }
}

/// The default probe: telemetry off, all hooks compiled away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: Event) {}
}

/// A probe that forwards into a shared [`SinkHandle`] — the enabled mode
/// used when `--telemetry <path>` is passed.
#[derive(Clone, Debug)]
pub struct SinkProbe {
    handle: SinkHandle,
}

impl SinkProbe {
    pub fn new(handle: SinkHandle) -> Self {
        SinkProbe { handle }
    }
}

impl Probe for SinkProbe {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, ev: Event) {
        self.handle.emit(ev);
    }

    fn sink(&self) -> SinkHandle {
        self.handle.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::{NoProbe, Probe, SinkProbe};
    use crate::event::Event;
    use crate::sink::SinkHandle;

    #[test]
    fn noprobe_is_disabled_and_inert() {
        const { assert!(!NoProbe::ENABLED) };
        let mut p = NoProbe;
        p.emit(Event::Stall { cycle: 0, len: 0 });
        assert!(!p.sink().enabled());
    }

    #[test]
    fn sinkprobe_is_enabled_and_shares_its_handle() {
        let p = SinkProbe::new(SinkHandle::disabled());
        const { assert!(SinkProbe::ENABLED) };
        assert!(!p.sink().enabled());
    }
}
