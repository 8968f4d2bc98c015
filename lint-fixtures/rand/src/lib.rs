//! The ambient-RNG entry point of the real `rand`, and nothing else.

/// Stands in for the real `rand::thread_rng`.
pub fn thread_rng() -> u64 {
    4
}
