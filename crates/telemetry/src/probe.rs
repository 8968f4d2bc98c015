//! The compile-time probe abstraction.

use crate::event::Event;
use crate::sink::SinkHandle;

/// Compile-time telemetry hook for generic hot loops.
///
/// `System<P: Probe>` monomorphizes over this trait. Every emission site
/// passes a closure that builds the event:
///
/// ```ignore
/// self.probe.emit(|| Event::Stall { .. });
/// ```
///
/// [`Probe::emit`] runs the closure only when `Self::ENABLED` holds. With
/// [`NoProbe`] that is the constant `false`, so the event construction is
/// statically dead and removed during monomorphization (rule D5,
/// DESIGN.md §10). `crates/cpu/tests/probe_overhead.rs` holds the timing
/// check (≤ 2% vs. a runtime-disabled probe).
pub trait Probe {
    /// Statically known enablement.
    const ENABLED: bool;

    /// Receives one built event. Only [`Probe::emit`] can call it, because
    /// only `emit` can make the [`Enabled`] proof.
    fn deliver(&mut self, ev: Event, proof: Enabled);

    /// Builds and delivers one event, if and only if the probe is on.
    #[inline(always)]
    fn emit(&mut self, build: impl FnOnce() -> Event) {
        if Self::ENABLED {
            self.deliver(build(), Enabled(()));
        }
    }

    /// Runtime handle for subsystems that can't be generic (engines behind
    /// `Box<dyn ReplacementEngine>`, the MSHR file). Disabled by default.
    fn sink(&self) -> SinkHandle {
        SinkHandle::disabled()
    }
}

/// Proof that [`Probe::emit`]'s `ENABLED` gate passed. It has no public
/// constructor, so no caller can reach [`Probe::deliver`] around the gate.
#[derive(Debug)]
pub struct Enabled(());

/// The default probe: telemetry off, all hooks compiled away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn deliver(&mut self, _ev: Event, _proof: Enabled) {}
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
    fn deliver(&mut self, ev: Event, _proof: Enabled) {
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
    use crate::sink::{SinkHandle, VecSink};
    use std::sync::{Arc, Mutex};

    #[test]
    fn noprobe_is_disabled_and_inert() {
        const { assert!(!NoProbe::ENABLED) };
        let mut p = NoProbe;
        p.emit(|| unreachable!("NoProbe must never build an event"));
        assert!(!p.sink().enabled());
    }

    #[test]
    fn sinkprobe_builds_and_delivers_each_event() {
        let sink = Arc::new(Mutex::new(VecSink::new()));
        let mut p = SinkProbe::new(SinkHandle::shared(sink.clone()));
        let mut built = 0;
        p.emit(|| {
            built += 1;
            Event::Stall { cycle: 3, len: 9 }
        });
        assert_eq!(built, 1);
        let events = &sink.lock().unwrap().events;
        assert_eq!(events, &[Event::Stall { cycle: 3, len: 9 }]);
    }

    #[test]
    fn sinkprobe_is_enabled_and_shares_its_handle() {
        let p = SinkProbe::new(SinkHandle::disabled());
        const { assert!(SinkProbe::ENABLED) };
        assert!(!p.sink().enabled());
    }
}
