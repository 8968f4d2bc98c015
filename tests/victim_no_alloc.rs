#![allow(clippy::unwrap_used)] // test code: panics are failures, not bugs

//! Victim selection allocates nothing. A counting global allocator (this
//! file is its own test binary, so it counts only this test) watches
//! 100k `victim()` calls per engine on a full 16-way set of the baseline
//! L2: the paper's LIN is a minimum over stored ranks and costs, and
//! neither it nor the LRU and SBAR engines built around it may touch the
//! heap per call. A timing floor would say the same thing, but flakily on
//! a shared host; an allocation count is exact.

use mlpsim::cache::addr::{Geometry, LineAddr};
use mlpsim::cache::lru::LruEngine;
use mlpsim::cache::policy::{ReplacementEngine, VictimCtx};
use mlpsim::cache::tagstore::TagStore;
use mlpsim::core::lin::LinEngine;
use mlpsim::core::sbar::{SbarConfig, SbarEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// Allocations made by the current thread. Const-initialized and
    /// without a destructor, so the allocator may touch it at any time.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CALLS: u32 = 100_000;

/// Fills every way of `set`, then touches and costs the blocks in a
/// scrambled order so the ranks and costs are not in way order.
fn fill_set(tags: &mut TagStore, set: u32) {
    let g = tags.geometry();
    let line = |way: u64| LineAddr(way * u64::from(g.sets()) + u64::from(set));
    for way in 0..usize::from(g.ways()) {
        tags.fill(line(way as u64), way, false, 0);
    }
    for way in [5u64, 0, 11, 3, 15, 8] {
        tags.touch(line(way), way as usize);
    }
    for way in 0..u64::from(g.ways()) {
        tags.set_cost_q(line(way), ((way * 5) % 8) as u8);
    }
}

#[test]
fn victim_selection_does_not_allocate() {
    let geometry = Geometry::baseline_l2();
    let sbar = SbarEngine::new(geometry, SbarConfig::paper_default());
    // SBAR picks by set: LIN in a leader set, the PSEL choice (LRU at
    // start) in a follower set. Exercise one of each.
    let leader = (0..geometry.sets())
        .find(|&s| sbar.leaders().is_leader(s))
        .unwrap();
    let follower = (0..geometry.sets())
        .find(|&s| !sbar.leaders().is_leader(s))
        .unwrap();
    let mut tags = TagStore::new(geometry);
    fill_set(&mut tags, leader);
    fill_set(&mut tags, follower);

    let mut engines: Vec<(&str, Box<dyn ReplacementEngine>)> = vec![
        ("lru", Box::new(LruEngine::new())),
        ("lin", Box::new(LinEngine::paper_default())),
        ("sbar", Box::new(sbar)),
    ];
    for (name, engine) in &mut engines {
        for set in [leader, follower] {
            let ctx = VictimCtx {
                set: tags.view(set),
                incoming: LineAddr(u64::from(geometry.sets()) * 1000 + u64::from(set)),
                seq: 0,
            };
            let before = allocations();
            let mut ways = 0usize;
            for _ in 0..CALLS {
                ways ^= engine.victim(black_box(&ctx));
            }
            let made = allocations() - before;
            black_box(ways);
            assert_eq!(
                made, 0,
                "{name} allocated {made} times in {CALLS} victim calls on set {set}"
            );
        }
    }
}
