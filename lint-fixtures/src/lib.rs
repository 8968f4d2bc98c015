//! One planted violation per clippy-backed rule D1–D11 (DESIGN.md §10).
//! Every `#[expect]` here must be fulfilled: each names the lint that has
//! to fire on the item below it.

use std::collections::HashMap;
use std::net::TcpListener;

/// D1: hash-order iteration makes sweep output nondeterministic.
#[expect(clippy::iter_over_hash_type, reason = "planted D1")]
pub fn d1_hash_iteration(counts: &HashMap<u64, u64>) -> u64 {
    let mut last = 0;
    for (line, count) in counts {
        last = line ^ count;
    }
    last
}

/// D2: the wall clock, named as a type.
#[expect(clippy::disallowed_types, reason = "planted D2")]
pub fn d2_instant_type(_since: std::time::Instant) {}

/// D2: the wall clock, read.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "planted D2"
)]
pub fn d2_wall_clock() -> bool {
    std::time::SystemTime::now() > std::time::UNIX_EPOCH
}

/// D2: an ambient RNG.
#[expect(clippy::disallowed_methods, reason = "planted D2")]
pub fn d2_ambient_rng() -> u64 {
    rand::thread_rng()
}

/// D4: unwrap and panic outside tests.
#[expect(clippy::unwrap_used, reason = "planted D4")]
pub fn d4_unwrap(x: Option<u64>) -> u64 {
    x.unwrap()
}

#[expect(clippy::panic, reason = "planted D4")]
pub fn d4_panic() {
    panic!("planted");
}

/// D6: an accept with no read timeout.
#[expect(clippy::disallowed_methods, reason = "planted D6")]
pub fn d6_accept(listener: &TcpListener) {
    let _ = listener.accept();
}

#[expect(clippy::disallowed_methods, reason = "planted D6")]
pub fn d6_incoming(listener: &TcpListener) {
    let _ = listener.incoming().next();
}

/// D9: host time read outside spans and the service.
#[expect(clippy::disallowed_methods, reason = "planted D9")]
pub fn d9_host_clock() -> u64 {
    mlpsim_telemetry::prof::now_ns()
}

/// The rules `mlpsim-core` adds (D3) and the ones the timing crates add
/// (D7), as their crate roots set them.
pub mod simulation {
    #![warn(clippy::as_conversions, clippy::arithmetic_side_effects)]

    /// D3: a bare numeric cast in the cost model.
    #[expect(clippy::as_conversions, reason = "planted D3")]
    pub fn d3_cast(cycles: u64) -> f64 {
        cycles as f64
    }

    /// D7: clock arithmetic that can overflow.
    #[expect(clippy::arithmetic_side_effects, reason = "planted D7")]
    pub fn d7_clock(now: u64, latency: u64) -> u64 {
        now + latency
    }

    #[expect(clippy::arithmetic_side_effects, reason = "planted D7")]
    pub fn d7_counter(count: &mut u32) {
        *count += 1;
    }
}

/// The rules `mlpsim-serve`'s library adds: D8's panic sinks and D11's
/// structured logging, as its crate root sets them.
pub mod service {
    #![deny(
        clippy::panic,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stderr
    )]

    #[expect(clippy::expect_used, reason = "planted D8")]
    pub fn d8_expect(x: Option<u8>) -> u8 {
        x.expect("planted")
    }

    #[expect(clippy::indexing_slicing, reason = "planted D8")]
    pub fn d8_index(v: &[u8], i: usize) -> u8 {
        v[i]
    }

    #[expect(clippy::unreachable, reason = "planted D8")]
    pub fn d8_unreachable() {
        unreachable!("planted");
    }

    #[expect(clippy::todo, reason = "planted D8")]
    pub fn d8_todo() {
        todo!("planted");
    }

    #[expect(clippy::unimplemented, reason = "planted D8")]
    pub fn d8_unimplemented() {
        unimplemented!("planted");
    }

    #[expect(clippy::panic, reason = "planted D8")]
    pub fn d8_panic() {
        panic!("planted");
    }

    /// D11: a bare stderr write outside the log module.
    #[expect(clippy::print_stderr, reason = "planted D11")]
    pub fn d11_eprintln() {
        eprintln!("planted");
    }
}
