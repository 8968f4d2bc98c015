//! The full simulated system: core + caches + MSHR/CCL + memory.
//!
//! # Timing model
//!
//! The model is cycle-accurate where the paper's phenomenon lives and
//! simplified elsewhere:
//!
//! * Up to `width` instructions dispatch into the 128-entry window per
//!   cycle and up to `width` retire in order per cycle.
//! * Non-memory instructions complete one cycle after dispatch.
//! * Loads resolve against L1 (2 cycles), L2 (15 cycles), or memory
//!   (444 cycles unloaded; bank conflicts and bus contention modeled).
//!   A load's window entry retires only when its data arrives, so a miss
//!   at the window head stalls the machine — and misses dispatched within
//!   one window span overlap, which is precisely the MLP structure the
//!   paper's cost model measures.
//! * Stores retire into the 128-entry store buffer immediately; only a
//!   full buffer stalls dispatch (Table 2).
//! * Concurrent accesses to an in-flight line merge into one MSHR entry
//!   (one miss, per the paper's footnote 1).
//!
//! Cycles in which nothing can happen (window full, head miss pending)
//! are skipped in O(1); the CCL accrues `Δcycles / N` at each MSHR event,
//! which is arithmetically identical to the paper's per-cycle Algorithm 1.

use crate::attrib::AttribTracker;
use crate::config::SystemConfig;
use crate::icache::FetchWalker;
use crate::stats::SimResult;
use crate::storebuf::StoreBuffer;
use crate::timeseries::Sampler;
use crate::window::{InstructionWindow, WinEntry};
use crate::wrongpath::WRONG_PATH_BASE_LINE;
use mlpsim_analysis::delta::DeltaTracker;
use mlpsim_analysis::hist::CostHistogram;
use mlpsim_cache::addr::LineAddr;
use mlpsim_cache::model::CacheModel;
use mlpsim_cache::policy::ReplacementEngine;
use mlpsim_core::ccl::Ccl;
use mlpsim_core::quant::quantize;
use mlpsim_mem::{MemorySystem, Mshr};
use mlpsim_telemetry::{Event, NoProbe, Probe};
use mlpsim_trace::record::{Access, AccessKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A full-window stall must be at least this long (cycles) to count as a
/// distinct "long-latency stall" episode — long enough to exclude the
/// few-cycle staggering between parallel misses draining the bus, short
/// enough to catch every isolated miss (444 cycles).
pub const LONG_STALL_CYCLES: u64 = 150;

/// The simulated machine. Create one per run; [`System::run`] consumes it.
///
/// # Example
///
/// ```
/// use mlpsim_cpu::{PolicyKind, System, SystemConfig};
/// use mlpsim_trace::record::{Access, Trace};
///
/// // One isolated L2 miss: the paper's 444-cycle round trip.
/// let trace = Trace::from_accesses(vec![Access::load(0, 400)]);
/// let result = System::new(SystemConfig::baseline(PolicyKind::Lru)).run(trace.iter());
/// assert_eq!(result.l2.misses, 1);
/// assert!((result.mean_cost() - 444.0).abs() < 0.5);
/// ```
pub struct System<P: Probe = NoProbe> {
    cfg: SystemConfig,
    /// Telemetry probe. With the default [`NoProbe`] every emission site
    /// is statically dead code (`P::ENABLED` is a `const false`), so the
    /// uninstrumented system compiles to the same machine code as before
    /// the telemetry layer existed.
    probe: P,
    l1: Option<CacheModel>,
    /// Optional instruction-fetch model: the I-cache and the synthetic
    /// code walker.
    icache: Option<(CacheModel, FetchWalker)>,
    /// Cycle until which instruction fetch (and therefore dispatch) is
    /// blocked on an I-miss.
    ifetch_ready_at: u64,
    ifetch_stall_cycles: u64,
    /// Pending wrong-path resolutions: `(resolve_at, slot, line, alloc)`.
    squashes: BinaryHeap<Reverse<(u64, usize, u64, u64)>>,
    /// Instructions dispatched (for misprediction scheduling).
    dispatched_total: u64,
    next_branch_at: u64,
    wrong_path_cursor: u64,
    wrong_path_injected: u64,
    wrong_path_mshr_misses: u64,
    prefetches_issued: u64,
    prefetches_promoted: u64,
    l2: CacheModel,
    mshr: Mshr,
    ccl: Ccl,
    /// Footnote-4 mode: open the CCL gate only during stall spans.
    gated_cost: bool,
    mem: MemorySystem,
    window: InstructionWindow,
    stbuf: StoreBuffer,
    now: u64,
    seq: u64,
    dispatched_this_cycle: u32,
    retired: u64,
    next_epoch: u64,
    cost_hist: CostHistogram,
    deltas: DeltaTracker,
    stall_cycles: u64,
    mem_stall_cycles: u64,
    stall_episodes: u64,
    last_retire_cycle: u64,
    sampler: Option<Sampler>,
    miss_log: Option<Vec<(u64, f64)>>,
    /// Stall-cycle attribution (see [`crate::attrib`]). `Some` when the
    /// probe is enabled or the `invariants` feature is on; `None`
    /// otherwise, so the uninstrumented hot path carries no tracker work.
    attrib: Option<AttribTracker>,
    policy_label: String,
}

impl System {
    /// Builds a system from a configuration (the L2 engine is instantiated
    /// from `cfg.policy`).
    pub fn new(cfg: SystemConfig) -> Self {
        System::with_probe(cfg, NoProbe)
    }

    /// Builds a system with an explicit L2 replacement engine (used for
    /// oracle policies like Belady's OPT that need trace preprocessing).
    pub fn with_l2_engine(cfg: SystemConfig, engine: Box<dyn ReplacementEngine>) -> Self {
        let label = engine.name().to_string();
        System::with_l2_engine_labeled(cfg, engine, label, NoProbe)
    }
}

impl<P: Probe> System<P> {
    /// Builds an instrumented system: every subsystem streams events into
    /// `probe` (the L2 and MSHR get clones of the probe's sink handle so
    /// their events interleave with the core's in one stream).
    pub fn with_probe(cfg: SystemConfig, probe: P) -> Self {
        let engine = cfg.policy.build(cfg.l2);
        let label = cfg.policy.label();
        System::with_l2_engine_labeled(cfg, engine, label, probe)
    }

    /// Instrumented variant of [`System::with_l2_engine`].
    pub fn with_l2_engine_and_probe(
        cfg: SystemConfig,
        engine: Box<dyn ReplacementEngine>,
        probe: P,
    ) -> Self {
        let label = engine.name().to_string();
        System::with_l2_engine_labeled(cfg, engine, label, probe)
    }

    fn with_l2_engine_labeled(
        cfg: SystemConfig,
        engine: Box<dyn ReplacementEngine>,
        label: String,
        probe: P,
    ) -> Self {
        let l1 = cfg
            .l1
            .map(|g| CacheModel::new(g, Box::new(mlpsim_cache::lru::LruEngine::new())));
        let mut l2 = CacheModel::new(cfg.l2, engine);
        let mut mshr = Mshr::new(cfg.mem.mshr_entries);
        if P::ENABLED {
            // Only the L2 (the cache under study) is wired: L1 hit events
            // would dominate the stream without informing any report.
            l2.set_sink(probe.sink(), 2);
            mshr.attach_sink(probe.sink());
        }
        let sampler = cfg.sample_interval.map(Sampler::new);
        let mut ccl = Ccl::new(cfg.adders);
        // In stall-only accounting (footnote 4) the gate is opened just
        // for full-window stall spans; it starts closed.
        let gated_cost = cfg.cost_accounting == crate::config::CostAccounting::StallCyclesOnly;
        ccl.set_gate(!gated_cost);
        let icache = cfg.icache.map(|ic| {
            (
                CacheModel::new(ic.geometry, Box::new(mlpsim_cache::lru::LruEngine::new())),
                FetchWalker::new(ic.code_lines),
            )
        });
        let next_branch_at = cfg
            .wrong_path
            .map(|w| w.interval_insts.max(1))
            .unwrap_or(u64::MAX);
        // The attribution ledger rides the probe: it feeds `stall_attrib`/
        // `stall_span` events when telemetry is on, and its reconciliation
        // invariant is checked on every run under `--features invariants`.
        let attrib = (P::ENABLED || cfg!(feature = "invariants"))
            .then(|| AttribTracker::new(cfg.mem.mshr_entries));
        System {
            l1,
            icache,
            ifetch_ready_at: 0,
            ifetch_stall_cycles: 0,
            squashes: BinaryHeap::new(),
            dispatched_total: 0,
            next_branch_at,
            wrong_path_cursor: 0,
            wrong_path_injected: 0,
            wrong_path_mshr_misses: 0,
            prefetches_issued: 0,
            prefetches_promoted: 0,
            l2,
            mshr,
            ccl,
            gated_cost,
            mem: MemorySystem::new(cfg.mem),
            window: InstructionWindow::new(cfg.cpu.window),
            stbuf: StoreBuffer::new(cfg.cpu.store_buffer),
            now: 0,
            seq: 0,
            dispatched_this_cycle: 0,
            retired: 0,
            next_epoch: cfg.epoch_insts.max(1),
            cost_hist: CostHistogram::new(),
            deltas: DeltaTracker::new(),
            stall_cycles: 0,
            mem_stall_cycles: 0,
            stall_episodes: 0,
            last_retire_cycle: 0,
            miss_log: cfg.collect_miss_log.then(Vec::new),
            attrib,
            sampler,
            policy_label: label,
            cfg,
            probe,
        }
    }

    /// Runs the trace to completion and returns the results.
    pub fn run<'a, I>(mut self, trace: I) -> SimResult
    where
        I: IntoIterator<Item = &'a Access>,
    {
        self.probe.emit(|| Event::RunStart {
            label: self.policy_label.clone(),
            policy: self.l2.policy_name().to_string(),
            cycle: self.now,
        });
        for access in trace {
            self.dispatch_gap(access.gap);
            self.dispatch_memory(access);
        }
        self.drain();
        self.finalize()
    }

    /// Dispatches `n` non-memory instructions.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "skipped and burst never exceed remaining"
    )]
    fn dispatch_gap(&mut self, n: u32) {
        // No profiler scope here: the exclusive work is a handful of
        // window pushes, and the expensive paths it can hit (I-fetch,
        // window-full advances) are scoped phases of their own. Scoping
        // every gap dispatch would double the closed-gate scope count
        // for nothing.
        if self.icache.is_some() {
            // Slow path: each instruction may trigger an I-fetch that
            // blocks dispatch.
            for _ in 0..n {
                self.fetch_one();
                self.ensure_dispatch_slot();
                self.window
                    .push(WinEntry::compute(self.now.saturating_add(1)), self.now);
                self.dispatched_this_cycle = self.dispatched_this_cycle.saturating_add(1);
                self.dispatched_total = self.dispatched_total.saturating_add(1);
                self.maybe_mispredict();
            }
            return;
        }
        let mut remaining = n;
        while remaining > 0 {
            self.ensure_dispatch_slot();
            if self.dispatched_this_cycle == 0 && !self.cfg.legacy_stepping {
                let skipped = self.gap_fast_forward(remaining);
                if skipped > 0 {
                    remaining -= skipped;
                    continue;
                }
            }
            // `ensure_dispatch_slot` returned, so dispatched < width and
            // both the subtraction and the accumulate below are exact.
            let width_left = self
                .cfg
                .cpu
                .width
                .saturating_sub(self.dispatched_this_cycle);
            let burst = remaining.min(width_left).min(self.window.free() as u32);
            self.window.push_computes(burst, self.now);
            self.dispatched_this_cycle = self.dispatched_this_cycle.saturating_add(burst);
            self.dispatched_total = self.dispatched_total.saturating_add(u64::from(burst));
            self.maybe_mispredict();
            remaining -= burst;
        }
    }

    /// Fast-forwards `c` whole dispatch-and-retire cycles of a non-memory
    /// gap, returning the instructions consumed (0 when no jump is
    /// possible). Equivalent to the per-cycle path by construction:
    ///
    /// * Each skipped cycle replays the per-cycle schedule exactly: a
    ///   full group of `width` compute instructions is pushed during
    ///   cycle `now + g` (with `done = now + g + 1`), and the advance
    ///   into `now + g + 1` retires the oldest `width` entries. The
    ///   window's contents after the jump are byte-identical to what
    ///   per-cycle stepping would leave.
    /// * A pre-scan proves every retire group completes on schedule:
    ///   resident entry `i` must satisfy `done <= now + i/width + 1` (its
    ///   in-order retirement slot), so the jump works even when a
    ///   pending miss sits deeper in the window — the scan simply stops
    ///   the jump one cycle short of the first entry that would block.
    ///   Implicit entries (`done = push + 1`, pushed before this cycle)
    ///   and entries pushed *during* the jump always meet their slots, so
    ///   only the sparse explicit entries need checking.
    /// * When the window brushes exactly full at each cycle end
    ///   (`free == width`), the per-cycle path additionally checks the
    ///   head for a stall at the end of cycle `now + g`, where the head
    ///   is entry `g*width`. Those entries get the stricter deadline
    ///   `done <= now + i/width` (no `+1`), and the jump requires
    ///   `len >= width` so jump-pushed entries never reach the head
    ///   while a cycle is still in flight (this also covers the
    ///   `capacity == width` empty-window shape, where a cycle's own
    ///   pushes become the full window's head with `done == now + 1`).
    /// * `c` stops strictly before every discrete event the per-cycle
    ///   loop would observe — the next MSHR fill, the next wrong-path
    ///   squash, an epoch or sampler boundary, a synthetic branch — so
    ///   the event cycle itself is reached by ordinary stepping and all
    ///   policy/CCL/ledger state mutations keep their exact order and
    ///   timestamps.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "width >= 1 (a zero-width core never dispatches); retired < next_epoch \
                  holds between calls; c <= remaining / width keeps c * width <= remaining"
    )]
    fn gap_fast_forward(&mut self, remaining: u32) -> u32 {
        debug_assert!(self.icache.is_none() && self.dispatched_this_cycle == 0);
        let width = self.cfg.cpu.width;
        let free = self.window.free() as u32;
        let len = self.window.len() as u32;
        // `free == width` means every skipped cycle ends with the window
        // exactly full, exposing a head-stall check the scan must honor.
        let brushes_full = free == width;
        if remaining < width || free < width || (brushes_full && len < width) {
            return 0;
        }
        let wu = u64::from(width);
        let mut c = u64::from(remaining / width);
        // Stop strictly before every discrete event; `retired < next_epoch`
        // and `retired < next_boundary` are maintained by `after_retire`,
        // `dispatched_total < next_branch_at` by `maybe_mispredict`.
        c = c.min((self.next_epoch - 1 - self.retired) / wu);
        if let Some(s) = &self.sampler {
            c = c.min((s.next_boundary() - 1).saturating_sub(self.retired) / wu);
        }
        c = c.min((self.next_branch_at - 1).saturating_sub(self.dispatched_total) / wu);
        if let Some((_, done)) = self.mshr.next_completion() {
            c = c.min(done.saturating_sub(self.now.saturating_add(1)));
        }
        if let Some(Reverse((at, _, _, _))) = self.squashes.peek() {
            c = c.min(at.saturating_sub(self.now.saturating_add(1)));
        }
        if c == 0 {
            return 0;
        }
        // Scan the in-order retirement schedule. Only explicit entries can
        // miss their slots; a violation at relative position `q` caps the
        // jump at `q / width` cycles: the groups before it are proven, and
        // the violator's own retire slot — or exactly-full head check — is
        // left to ordinary stepping.
        for (q, e) in self.window.explicit_from_head() {
            if q >= c * wu {
                break;
            }
            let head_checked = brushes_full && q.is_multiple_of(wu);
            let deadline = self
                .now
                .saturating_add(q / wu)
                .saturating_add(u64::from(!head_checked));
            if e.done > deadline {
                c = q / wu;
                break;
            }
        }
        if c == 0 {
            return 0;
        }
        self.window.fast_forward(c, width, self.now);
        let insts = c * wu;
        self.now = self.now.saturating_add(c);
        self.retired = self.retired.saturating_add(insts);
        self.dispatched_total = self.dispatched_total.saturating_add(insts);
        self.last_retire_cycle = self.now;
        u32::try_from(insts).expect("bounded by `remaining`, a u32")
    }

    /// Dispatches one memory instruction.
    fn dispatch_memory(&mut self, a: &Access) {
        self.fetch_one();
        self.ensure_dispatch_slot();
        let is_store = a.kind == AccessKind::Store;
        if is_store {
            while self.stbuf.is_full(self.now) {
                // Full store buffer back-pressures dispatch (Table 2).
                let t = self
                    .stbuf
                    .next_completion()
                    .expect("a full buffer has a completion")
                    .max(self.now.saturating_add(1));
                self.advance_to(t);
                self.ensure_dispatch_slot();
            }
        }
        let line = LineAddr(a.line);
        let seq = self.seq;
        self.seq = self.seq.saturating_add(1);
        let (mem_done, l2_miss) = self.resolve_memory(line, is_store, seq);
        if is_store {
            // Stores retire immediately; the buffer owns the latency.
            self.stbuf.push(mem_done);
            self.window
                .push(WinEntry::compute(self.now.saturating_add(1)), self.now);
        } else {
            self.window.push(
                WinEntry {
                    done: mem_done,
                    l2_miss,
                    line: a.line,
                },
                self.now,
            );
        }
        self.dispatched_this_cycle = self.dispatched_this_cycle.saturating_add(1);
        self.dispatched_total = self.dispatched_total.saturating_add(1);
        self.maybe_mispredict();
    }

    /// Fires the synthetic mispredicted branch when its instruction count
    /// comes due.
    fn maybe_mispredict(&mut self) {
        while self.dispatched_total >= self.next_branch_at {
            let Some(wp) = self.cfg.wrong_path else {
                self.next_branch_at = u64::MAX;
                return;
            };
            self.next_branch_at = self.next_branch_at.saturating_add(wp.interval_insts.max(1));
            self.inject_wrong_path(wp);
        }
    }

    /// Issues one misprediction's worth of wrong-path loads: they pollute
    /// the caches and occupy memory resources as demand misses until the
    /// branch resolves.
    fn inject_wrong_path(&mut self, wp: crate::wrongpath::WrongPathConfig) {
        for _ in 0..wp.burst {
            let line = LineAddr(WRONG_PATH_BASE_LINE.wrapping_add(self.wrong_path_cursor));
            self.wrong_path_cursor = self.wrong_path_cursor.wrapping_add(1);
            self.wrong_path_injected = self.wrong_path_injected.saturating_add(1);
            let seq = self.seq;
            if let Some(l1) = &mut self.l1 {
                l1.access(line, false, seq);
            }
            let r2 = self.l2.access(line, false, seq);
            if r2.hit {
                continue;
            }
            if let Some(id) = self.mshr.lookup(line) {
                // Wrong-path merges never promote: a speculative touch is
                // no evidence the line is wanted.
                self.mshr.merge(id);
                self.probe.emit(|| Event::MshrMerge {
                    cycle: self.now,
                    line: line.0,
                    promoted: false,
                    live: self.mshr.len() as u64,
                });
                continue;
            }
            if let Some(ev) = r2.evicted {
                if ev.dirty {
                    self.mem.writeback(ev.line, self.now);
                }
            }
            if self.mshr.is_full() {
                // Wrong-path requests yield to structural hazards rather
                // than stalling the machine.
                continue;
            }
            let done = self.mem.request_fill(line, self.now);
            self.ccl.advance(&mut self.mshr, self.now);
            let id = self
                .mshr
                .allocate(line, self.now, done, true)
                .expect("fullness checked above");
            self.note_mshr_alloc(id, line);
            self.wrong_path_mshr_misses = self.wrong_path_mshr_misses.saturating_add(1);
            self.squashes.push(Reverse((
                self.now.saturating_add(wp.resolve_cycles),
                id.0,
                line.0,
                self.now,
            )));
        }
    }

    /// Resolves a memory access through the hierarchy; returns the data-
    /// ready cycle and whether it was (or merged into) an L2 miss.
    fn resolve_memory(&mut self, line: LineAddr, is_store: bool, seq: u64) -> (u64, bool) {
        let l1_lat = if self.l1.is_some() {
            self.cfg.cpu.l1_hit_cycles
        } else {
            0
        };
        if let Some(l1) = &mut self.l1 {
            let r = l1.access(line, is_store, seq);
            if r.hit {
                let done = self.now.saturating_add(l1_lat);
                // A tag hit on a line whose fill is still in flight is a
                // delayed hit: data arrives with the outstanding miss.
                if let Some(id) = self.mshr.lookup(line) {
                    self.merge_into(id);
                    return (self.mshr.entry(id).done_cycle.max(done), true);
                }
                return (done, false);
            }
            // L1 victim writebacks into the (inclusive-by-construction) L2
            // are hits that do not change L2 replacement state materially;
            // they are elided (see DESIGN.md).
        }
        let base = self.now.saturating_add(l1_lat);
        self.resolve_l2(line, is_store, seq, base)
    }

    /// Resolves an access at the L2 (data misses from the L1 path,
    /// instruction misses from the fetch path); returns the data-ready
    /// cycle and whether it was (or merged into) an L2 miss.
    fn resolve_l2(&mut self, line: LineAddr, is_store: bool, seq: u64, base: u64) -> (u64, bool) {
        let r2 = self.l2.access(line, is_store, seq);
        if r2.hit {
            let done = base.saturating_add(self.cfg.cpu.l2_hit_cycles);
            if let Some(id) = self.mshr.lookup(line) {
                self.merge_into(id);
                return (self.mshr.entry(id).done_cycle.max(done), true);
            }
            return (done, false);
        }
        // A tag miss on a still-in-flight line (the line was evicted while
        // outstanding): merge rather than re-request.
        if let Some(id) = self.mshr.lookup(line) {
            self.merge_into(id);
            return (self.mshr.entry(id).done_cycle, true);
        }
        if let Some(ev) = r2.evicted {
            if ev.dirty {
                self.mem.writeback(ev.line, self.now);
            }
        }
        // Allocate an MSHR entry, stalling on structural hazard.
        while self.mshr.is_full() {
            let (_, done) = self.mshr.next_completion().expect("full MSHR has entries");
            self.advance_to(done.max(self.now.saturating_add(1)));
        }
        // The request leaves for memory at dispatch: tag lookup overlaps
        // request initiation, so an isolated miss spends exactly the
        // paper's 444 cycles in the MSHR.
        let issue = self.now;
        let done = self.mem.request_fill(line, issue);
        // Charge the interval up to now at the old occupancy, then admit
        // the new demand miss (Algorithm 1's init_mlp_cost).
        self.ccl.advance(&mut self.mshr, self.now);
        let id = self
            .mshr
            .allocate(line, self.now, done, true)
            .expect("an MSHR slot was freed above");
        self.note_mshr_alloc(id, line);
        self.issue_prefetches(line, seq);
        (done, true)
    }

    /// Merges a request into an in-flight MSHR entry (promoting prefetch
    /// entries to demand status) and emits one `mshr_merge` event.
    fn merge_into(&mut self, id: mlpsim_mem::MshrId) {
        self.mshr.merge(id);
        let promoted = !self.mshr.entry(id).is_demand;
        self.promote_if_prefetch(id);
        self.probe.emit(|| Event::MshrMerge {
            cycle: self.now,
            line: self.mshr.entry(id).line.0,
            promoted,
            live: self.mshr.len() as u64,
        });
    }

    /// Promotes a merged-into MSHR entry to demand status (a prefetch or
    /// squashed wrong-path line that turned out to be wanted). The `N` of
    /// Algorithm 1 grows from this point on.
    fn promote_if_prefetch(&mut self, id: mlpsim_mem::MshrId) {
        if !self.mshr.entry(id).is_demand {
            // Accrue the pre-promotion interval at the old occupancy.
            self.ccl.advance(&mut self.mshr, self.now);
            self.mshr.promote_to_demand(id);
            self.prefetches_promoted = self.prefetches_promoted.saturating_add(1);
        }
    }

    /// Issues next-line prefetches behind a demand miss to `line`.
    fn issue_prefetches(&mut self, line: LineAddr, seq: u64) {
        let Some(pf) = self.cfg.prefetch else { return };
        for d in 1..=pf.degree as u64 {
            // Next-line targets past the top of the address space do not
            // exist; stop rather than wrap (targets are monotone in `d`,
            // so every later one would overflow too).
            let Some(raw) = line.0.checked_add(d) else {
                break;
            };
            let target = LineAddr(raw);
            if self.l2.contains(target) || self.mshr.lookup(target).is_some() {
                continue;
            }
            if self.mshr.is_full() {
                break; // prefetches always yield to structural pressure
            }
            let done = self.mem.request_fill(target, self.now);
            self.ccl.advance(&mut self.mshr, self.now);
            let id = self
                .mshr
                .allocate(target, self.now, done, false)
                .expect("fullness checked above");
            self.note_mshr_alloc(id, target);
            if let Some(ev) = self.l2.insert_prefetched(target, seq) {
                if ev.dirty {
                    self.mem.writeback(ev.line, self.now);
                }
            }
            self.prefetches_issued = self.prefetches_issued.saturating_add(1);
        }
    }

    /// Blocks until an instruction may dispatch this cycle.
    fn ensure_dispatch_slot(&mut self) {
        loop {
            if self.now < self.ifetch_ready_at {
                // Frontend stall: the next instructions are still being
                // fetched. The window may drain meanwhile.
                let target = self.ifetch_ready_at.max(self.now.saturating_add(1));
                // `target > now` by the max above: the subtraction is exact.
                let waited = target.wrapping_sub(self.now);
                self.ifetch_stall_cycles = self.ifetch_stall_cycles.saturating_add(waited);
                self.advance_to(target);
                continue;
            }
            if self.dispatched_this_cycle < self.cfg.cpu.width && !self.window.is_full() {
                return;
            }
            self.step(false);
        }
    }

    /// Advances the fetch walker for one dispatched instruction, resolving
    /// an I-cache access at line boundaries. I-misses block dispatch until
    /// the line arrives and count as demand misses (paper §3.1).
    fn fetch_one(&mut self) {
        let fetched = match &mut self.icache {
            None => return,
            Some((icache, walker)) => match walker.advance() {
                None => return,
                Some(raw_line) => {
                    let line = LineAddr(raw_line);
                    let hit = icache.access(line, false, walker.instructions()).hit;
                    (line, hit)
                }
            },
        };
        let (line, hit) = fetched;
        // L2-visible accesses use the same sequence space as data accesses
        // so seq-keyed engines (Belady's oracle) stay consistent.
        let seq = self.seq;
        if hit {
            // Sequential fetch hits are pipelined ahead of dispatch.
            if let Some(id) = self.mshr.lookup(line) {
                // Delayed hit on a still-in-flight I-line (possibly a
                // prefetch, which this demand fetch promotes).
                self.merge_into(id);
                self.ifetch_ready_at = self.ifetch_ready_at.max(self.mshr.entry(id).done_cycle);
            }
            return;
        }
        let hit_lat = self.cfg.icache.map(|c| c.hit_cycles).unwrap_or(2);
        let (done, _l2_miss) = self.resolve_l2(line, false, seq, self.now.saturating_add(hit_lat));
        self.ifetch_ready_at = self.ifetch_ready_at.max(done);
    }

    /// Advances to the next cycle where progress is possible, accounting
    /// full-window stalls. `draining` marks the post-trace phase, where a
    /// pending head stalls the machine even though the window is no longer
    /// full (no more instructions exist to dispatch).
    fn step(&mut self, draining: bool) {
        let mut target = self.now.saturating_add(1);
        let mut memory_stall_span = false;
        let mut span_head_line = 0u64;
        if self.window.is_full() || draining {
            if let Some(head) = self.window.stalled_head(self.now) {
                // A stalled head completes strictly after `now`, so the
                // subtraction is exact.
                let stall = head.done.wrapping_sub(self.now);
                self.stall_cycles = self.stall_cycles.saturating_add(stall);
                if head.l2_miss {
                    self.mem_stall_cycles = self.mem_stall_cycles.saturating_add(stall);
                    memory_stall_span = true;
                    span_head_line = head.line;
                    if stall >= LONG_STALL_CYCLES {
                        self.stall_episodes = self.stall_episodes.saturating_add(1);
                        self.probe.emit(|| Event::Stall {
                            cycle: self.now,
                            len: stall,
                        });
                    }
                }
                target = head.done;
            }
        }
        if memory_stall_span {
            self.open_stall_span(span_head_line);
        }
        if self.gated_cost && memory_stall_span {
            // Footnote 4: accrue cost only across the stall span.
            self.ccl.advance(&mut self.mshr, self.now); // settle pre-span (gate closed)
            self.ccl.set_gate(true);
            self.advance_to(target);
            self.ccl.advance(&mut self.mshr, self.now); // settle the span itself
            self.ccl.set_gate(false);
        } else {
            self.advance_to(target);
        }
        if memory_stall_span {
            self.close_stall_span();
        }
    }

    /// Captures a fresh MSHR entry's ledger identity — the L2 set its line
    /// maps to and the policy governing that set right now — so stall
    /// cycles attributed to the entry land in the right ledger bucket.
    fn note_mshr_alloc(&mut self, id: mlpsim_mem::MshrId, line: LineAddr) {
        if self.attrib.is_none() {
            return;
        }
        let set = self.l2.geometry().set_index(line);
        let policy = self.l2.policy_for_set(set);
        if let Some(tracker) = &mut self.attrib {
            tracker.on_alloc(id.0, u64::from(set), policy);
        }
    }

    /// Opens an attribution span for the memory stall beginning now, keyed
    /// by the window-head miss's line/set/policy.
    fn open_stall_span(&mut self, line: u64) {
        if self.attrib.is_none() {
            return;
        }
        let set = self.l2.geometry().set_index(LineAddr(line));
        let policy = self.l2.policy_for_set(set);
        if let Some(tracker) = &mut self.attrib {
            tracker.open(self.now, line, u64::from(set), policy, &self.mshr);
        }
    }

    /// Closes the attribution span at the (post-advance) current cycle:
    /// charges the tail interval, folds any zero-demand residual into the
    /// span head's key, and mirrors both as events when a probe is on.
    fn close_stall_span(&mut self) {
        let Some(tracker) = &mut self.attrib else {
            return;
        };
        tracker.charge(&self.mshr, self.now);
        let residual = tracker.residual_charge();
        let span = tracker.close(self.now, 0);
        if let Some(c) = residual {
            // The residual lands under the span's resolved bucket (the
            // head's cost_q when its entry freed mid-span).
            self.probe.emit(|| Event::StallAttrib {
                cycle: self.now,
                line: c.line,
                set: c.set,
                cost_q: span.cost_q,
                policy: span.policy.clone(),
                cycles: c.cycles,
            });
        }
        self.probe.emit(|| span.to_event());
    }

    /// Moves time to `t`: services fills due by then, retires, samples.
    fn advance_to(&mut self, t: u64) {
        debug_assert!(t > self.now, "time must advance");
        self.process_fills_upto(t);
        self.now = t;
        self.dispatched_this_cycle = 0;
        let retired = self.window.retire_ready(self.now, self.cfg.cpu.width);
        self.retired = self.retired.saturating_add(u64::from(retired));
        if retired > 0 {
            self.after_retire();
        }
    }

    /// Services every outstanding miss whose fill arrives at or before `t`,
    /// recording its MLP-based cost (Algorithm 1's read-out point: "When a
    /// miss is serviced, the mlp_cost field in the MSHR represents the
    /// MLP-based cost of that miss").
    fn process_fills_upto(&mut self, t: u64) {
        loop {
            // Wrong-path resolutions and fills are interleaved in time
            // order so the CCL's clock stays monotone.
            let fill_at = self.mshr.next_completion().map(|(_, d)| d);
            let squash_at = self.squashes.peek().map(|Reverse((at, _, _, _))| *at);
            let take_squash = match (fill_at, squash_at) {
                (_, None) => false,
                (None, Some(s)) => s <= t,
                (Some(f), Some(s)) => s <= t && s <= f,
            };
            if take_squash {
                let Reverse((at, slot, raw_line, alloc)) = self.squashes.pop().expect("peeked");
                let id = mlpsim_mem::MshrId(slot);
                if let Some(e) = self.mshr.get(id) {
                    // Still the same miss, and no correct-path access
                    // merged into it: confirm wrong-path and demote.
                    if e.line.0 == raw_line && e.alloc_cycle == alloc && e.merged == 0 {
                        self.ccl.advance(&mut self.mshr, at);
                        if let Some(tracker) = &mut self.attrib {
                            // Freeze the attribution interval at the same
                            // occupancy boundary the CCL sees.
                            tracker.charge(&self.mshr, at);
                        }
                        self.mshr.demote_from_demand(id);
                    }
                }
                continue;
            }
            let Some((id, done)) = self.mshr.next_completion() else {
                break;
            };
            if done > t {
                break;
            }
            self.ccl.advance(&mut self.mshr, done);
            if let Some(tracker) = &mut self.attrib {
                tracker.charge(&self.mshr, done);
                let (eline, ecost) = {
                    let e = self.mshr.entry(id);
                    (e.line.0, e.mlp_cost)
                };
                // Every free flushes: the entry's cost_q is final here, and
                // clearing the slot's tag keeps reuse sound.
                let flushed = tracker.flush_slot(id.0, eline, ecost);
                if let Some(c) = flushed {
                    self.probe.emit(|| Event::StallAttrib {
                        cycle: done,
                        line: c.line,
                        set: c.set,
                        cost_q: c.cost_q,
                        policy: c.policy.to_string(),
                        cycles: c.cycles,
                    });
                }
            }
            let entry = self.mshr.free(id);
            if entry.is_demand {
                let cost = entry.mlp_cost;
                let q = quantize(cost);
                self.cost_hist.record(cost);
                self.deltas.observe(entry.line.0, cost);
                self.l2.record_serviced_cost(entry.line, q);
                self.probe.emit(|| Event::Serviced {
                    line: entry.line.0,
                    cycle: done,
                    cost,
                    cost_q: q,
                });
                if let Some(s) = &mut self.sampler {
                    s.record_miss_cost(q);
                }
                if let Some(log) = &mut self.miss_log {
                    // Bounded: see `MISS_LOG_CAP` in `config.rs`.
                    if log.len() < crate::config::MISS_LOG_CAP {
                        log.push((entry.line.0, cost));
                    }
                }
            }
        }
    }

    fn after_retire(&mut self) {
        self.last_retire_cycle = self.now;
        while self.retired >= self.next_epoch {
            self.l2.on_epoch();
            self.next_epoch = self.next_epoch.saturating_add(self.cfg.epoch_insts.max(1));
        }
        let misses = self.l2.stats().misses;
        let new_samples = match &mut self.sampler {
            Some(s) => s.tick(self.retired, self.now, misses),
            None => 0,
        };
        if P::ENABLED && new_samples > 0 {
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "tick() just appended new_samples samples"
            )]
            let fresh: Vec<crate::timeseries::Sample> = {
                let all = self
                    .sampler
                    .as_ref()
                    .expect("sampler just ticked")
                    .samples();
                all[all.len() - new_samples..].to_vec()
            };
            for sm in fresh {
                self.probe.emit(|| Event::Sample {
                    instructions: sm.instructions,
                    cycle: self.now,
                    ipc: sm.ipc,
                    mpki: sm.mpki,
                    avg_cost_q: sm.avg_cost_q,
                });
            }
        }
    }

    /// Retires everything left in the window after the trace ends.
    fn drain(&mut self) {
        while !self.window.is_empty() {
            self.step(true);
        }
        // Settle any fills still in flight (stores in the buffer) so their
        // costs are recorded.
        if let Some((_, last)) = self
            .mshr
            .iter()
            .map(|(id, e)| (id, e.done_cycle))
            .max_by_key(|&(_, d)| d)
        {
            self.advance_to(last.max(self.now.saturating_add(1)));
        }
    }

    fn finalize(mut self) -> SimResult {
        let stall_ledger = self.attrib.take().map(|t| t.finalize(&self.mshr));
        #[cfg(feature = "invariants")]
        if let Some(ledger) = &stall_ledger {
            // The whole point of exact apportionment: the ledger is a
            // partition of the memory-stall cycles, not an estimate.
            crate::invariant!(
                ledger.total() == self.mem_stall_cycles,
                "attributed stall cycles ({}) must reconcile exactly with mem_stall_cycles ({})",
                ledger.total(),
                self.mem_stall_cycles
            );
        }
        self.probe.emit(|| Event::RunEnd {
            label: self.policy_label.clone(),
            policy: self.l2.policy_name().to_string(),
            cycle: self.last_retire_cycle,
            instructions: self.retired,
            l2_misses: self.l2.stats().misses,
            peak_mlp: self.mshr.peak_demand() as u64,
            mem_stall_cycles: self.mem_stall_cycles,
        });
        if P::ENABLED {
            self.probe.sink().flush();
        }
        let policy_debug = self.l2.engine_debug_state();
        SimResult {
            policy: self.policy_label,
            instructions: self.retired,
            // Execution time ends at the last retirement; the post-drain
            // settling of in-flight store fills is bookkeeping, not time
            // the program ran for.
            cycles: self.last_retire_cycle,
            l1: self.l1.as_ref().map(|c| *c.stats()).unwrap_or_default(),
            icache: self
                .icache
                .as_ref()
                .map(|(c, _)| *c.stats())
                .unwrap_or_default(),
            ifetch_stall_cycles: self.ifetch_stall_cycles,
            wrong_path_accesses: self.wrong_path_injected,
            wrong_path_misses: self.wrong_path_mshr_misses,
            prefetches_issued: self.prefetches_issued,
            prefetches_promoted: self.prefetches_promoted,
            l2: *self.l2.stats(),
            l2_compulsory: self.l2.compulsory_misses(),
            mem: self.mem.stats(),
            cost_hist: self.cost_hist,
            deltas: *self.deltas.stats(),
            full_window_stall_cycles: self.stall_cycles,
            mem_stall_cycles: self.mem_stall_cycles,
            stall_episodes: self.stall_episodes,
            peak_mlp: self.mshr.peak_demand(),
            samples: self.sampler.map(Sampler::into_samples).unwrap_or_default(),
            miss_log: self.miss_log.unwrap_or_default(),
            stall_ledger,
            policy_debug,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use mlpsim_trace::record::Trace;

    fn baseline() -> SystemConfig {
        SystemConfig::baseline(PolicyKind::Lru)
    }

    fn run(cfg: SystemConfig, trace: &Trace) -> SimResult {
        System::new(cfg).run(trace.iter())
    }

    #[test]
    fn pure_compute_approaches_full_width() {
        // One access preceded by a huge gap: IPC should approach 8.
        let trace = Trace::from_accesses(vec![Access::load(0, 80_000)]);
        let r = run(baseline(), &trace);
        assert!(
            r.ipc() > 7.0,
            "IPC {} should be near the 8-wide limit",
            r.ipc()
        );
    }

    #[test]
    fn isolated_miss_costs_444_cycles() {
        let trace = Trace::from_accesses(vec![
            Access::load(0, 400),
            Access::load(1 << 20, 400), // different set/bank, isolated
            Access::load(2 << 20, 400),
        ]);
        let r = run(baseline(), &trace);
        assert_eq!(r.l2.misses, 3);
        // All three missed in isolation: mean cost = 444.
        assert!(
            (r.mean_cost() - 444.0).abs() < 1.0,
            "mean {}",
            r.mean_cost()
        );
        assert_eq!(r.cost_hist.bin(7), 3);
        assert_eq!(r.peak_mlp, 1);
        assert_eq!(r.stall_episodes, 3);
    }

    #[test]
    fn parallel_misses_split_the_cost() {
        // Four loads in one window span to distinct lines/banks.
        let trace = Trace::from_accesses(vec![
            Access::load(0, 300),
            Access::load((1 << 20) + 1, 2),
            Access::load((2 << 20) + 2, 2),
            Access::load((3 << 20) + 3, 2),
        ]);
        let r = run(baseline(), &trace);
        assert_eq!(r.l2.misses, 4);
        assert_eq!(r.peak_mlp, 4);
        // Cost per miss ≈ 444/4 + bus staggering; firmly in bins 1-2.
        assert!(
            r.mean_cost() > 80.0 && r.mean_cost() < 200.0,
            "mean {}",
            r.mean_cost()
        );
        // One long stall episode for the whole group, not four.
        assert_eq!(r.stall_episodes, 1);
    }

    #[test]
    fn duplicate_access_merges_into_one_miss() {
        let trace = Trace::from_accesses(vec![
            Access::load(7, 10),
            Access::load(7, 2), // same line while in flight
            Access::load(7, 2),
        ]);
        let r = run(baseline(), &trace);
        // L1 tags hold the line after the first access: delayed hits.
        assert_eq!(r.l2.misses, 1);
        assert_eq!(r.cost_hist.count(), 1);
        assert_eq!(r.mem.fills, 1, "exactly one memory request");
    }

    #[test]
    fn stores_do_not_block_retirement() {
        // Store misses followed by plenty of compute: the window should
        // never stall on a store.
        let trace = Trace::from_accesses(vec![
            Access::store(5 << 20, 10),
            Access::store((6 << 20) + 1, 4000),
        ]);
        let r = run(baseline(), &trace);
        assert!(
            r.ipc() > 5.0,
            "store miss must not serialize, IPC {}",
            r.ipc()
        );
        assert_eq!(r.l2.misses, 2);
        assert_eq!(r.stall_episodes, 0);
    }

    #[test]
    fn l2_hits_are_fast() {
        // Touch a line, let it settle, touch it again: second access hits
        // L1 (or L2) with no new miss.
        let trace = Trace::from_accesses(vec![Access::load(3, 100), Access::load(3, 2000)]);
        let r = run(baseline(), &trace);
        assert_eq!(r.l2.misses, 1);
        assert_eq!(r.l1.hits + r.l2.hits, 1);
    }

    #[test]
    fn no_l1_sends_everything_to_l2() {
        let mut cfg = baseline();
        cfg.l1 = None;
        let trace = Trace::from_accesses(vec![Access::load(1, 10), Access::load(1, 600)]);
        let r = run(cfg, &trace);
        assert_eq!(r.l1.accesses(), 0);
        assert_eq!(r.l2.accesses(), 2);
        assert_eq!(r.l2.hits, 1);
    }

    #[test]
    fn deltas_track_successive_misses() {
        // Make line 9 miss twice with very different parallelism: once
        // isolated, once with seven companions.
        let evictor: Vec<Access> = (0..40u64)
            .map(|i| Access::load(9 + 1024 * (1 + i), 200))
            .collect();
        let mut v = vec![Access::load(9, 300)];
        v.extend(evictor); // push line 9 out of L1 and L2 set
        v.push(Access::load(9, 300)); // second isolated miss... same cost
        let trace = Trace::from_accesses(v);
        let r = run(baseline(), &trace);
        assert!(r.deltas.count() >= 1, "line 9 missed twice");
        // Both misses isolated → tiny delta.
        assert!(r.deltas.pct_lt60() > 0.0);
    }

    #[test]
    fn sampler_emits_interval_series() {
        let mut cfg = baseline();
        cfg.sample_interval = Some(1_000);
        let trace: Trace = (0..200u64).map(|i| Access::load(i * 37, 100)).collect();
        let r = System::new(cfg).run(trace.iter());
        assert!(!r.samples.is_empty());
        let last = r.samples.last().unwrap();
        assert!(last.instructions <= r.instructions);
        assert!(last.ipc > 0.0);
    }

    #[test]
    fn mshr_full_is_survived() {
        // 40 distinct-line loads in one window span exceed the 32-entry
        // MSHR: the system must stall and recover, not panic.
        let trace: Trace = (0..40u64).map(|i| Access::load(i << 12, 2)).collect();
        let r = run(baseline(), &trace);
        assert_eq!(r.l2.misses, 40);
        assert!(r.peak_mlp <= 32);
    }

    #[test]
    fn instructions_match_trace() {
        let trace: Trace = (0..50u64).map(|i| Access::load(i, 13)).collect();
        let expected = trace.instructions();
        let r = run(baseline(), &trace);
        assert_eq!(r.instructions, expected);
    }

    #[test]
    fn miss_log_records_every_serviced_demand_miss() {
        let mut cfg = baseline();
        cfg.collect_miss_log = true;
        let trace: Trace = (0..30u64).map(|i| Access::load(i * 4096, 200)).collect();
        let r = System::new(cfg).run(trace.iter());
        assert_eq!(r.miss_log.len() as u64, r.l2.misses);
        for &(line, cost) in &r.miss_log {
            assert!(cost > 0.0);
            assert!(line % 4096 == 0);
        }
    }

    #[test]
    fn dirty_evictions_generate_writebacks_to_memory() {
        // Stores to 17 lines of one L2 set (16-way) force a dirty eviction.
        let trace: Trace = (0..17u64).map(|i| Access::store(i * 1024, 600)).collect();
        let r = run(baseline(), &trace);
        assert!(r.l2.writebacks >= 1);
        assert_eq!(r.mem.writebacks, r.l2.writebacks);
    }

    #[test]
    fn epoch_hook_reaches_the_engine() {
        // A rand-dynamic SBAR reselects leader sets on every epoch; with a
        // small epoch interval this must not disturb correctness.
        use mlpsim_core::leader::SelectionPolicy;
        use mlpsim_core::sbar::SbarConfig;
        let mut cfg = baseline();
        cfg.policy = PolicyKind::Sbar(SbarConfig {
            selection: SelectionPolicy::RandDynamic,
            ..SbarConfig::paper_default()
        });
        cfg.epoch_insts = 1_000;
        let trace: Trace = (0..400u64).map(|i| Access::load(i * 7, 50)).collect();
        let r = System::new(cfg).run(trace.iter());
        assert_eq!(r.instructions, trace.instructions());
        assert!(r.policy_debug.is_some(), "SBAR exposes its PSEL state");
    }

    #[test]
    fn policy_debug_is_none_for_plain_policies() {
        let trace = Trace::from_accesses(vec![Access::load(0, 10)]);
        let r = run(baseline(), &trace);
        assert!(r.policy_debug.is_none());
    }

    #[test]
    fn in_flight_line_evicted_from_tags_still_merges() {
        // Line A misses; 17 conflicting misses evict A's tag while A is
        // still in flight; a re-access to A must merge, not re-request.
        let mut cfg = baseline();
        cfg.l1 = None; // expose the L2 directly
        let mut v = vec![Access::load(0, 2)];
        // 16 more lines in L2 set 0, all within A's 444-cycle flight time.
        v.extend((1..=16u64).map(|i| Access::load(i * 1024, 2)));
        v.push(Access::load(0, 2)); // back to A
        let trace = Trace::from_accesses(v);
        let r = System::new(cfg).run(trace.iter());
        // 17 distinct lines requested; the second touch of A merged.
        assert_eq!(r.mem.fills, 17);
        assert_eq!(r.l2.misses, 18, "tag re-miss counted, but no second fill");
    }

    #[test]
    fn small_code_loop_warms_the_icache() {
        use crate::icache::IcacheConfig;
        let mut cfg = baseline();
        cfg.icache = Some(IcacheConfig::baseline(8)); // 8-line kernel
        let trace: Trace = (0..200u64).map(|i| Access::load(i % 4, 40)).collect();
        let r = System::new(cfg).run(trace.iter());
        assert!(r.icache.accesses() > 0);
        // 8 compulsory I-misses, everything else hits.
        assert_eq!(r.icache.misses, 8);
        assert!(r.icache.hits > 100);
    }

    #[test]
    fn huge_code_footprint_thrashes_the_icache_and_slows_dispatch() {
        use crate::icache::IcacheConfig;
        let trace: Trace = (0..300u64).map(|i| Access::load(i % 4, 60)).collect();
        let small = {
            let mut cfg = baseline();
            cfg.icache = Some(IcacheConfig::baseline(8));
            System::new(cfg).run(trace.iter())
        };
        let huge = {
            let mut cfg = baseline();
            // 1024 lines = 64 KB of code against a 16 KB I-cache.
            cfg.icache = Some(IcacheConfig::baseline(1024));
            System::new(cfg).run(trace.iter())
        };
        assert!(huge.icache.misses > small.icache.misses * 10);
        assert!(huge.ifetch_stall_cycles > small.ifetch_stall_cycles);
        assert!(huge.ipc() < small.ipc(), "fetch stalls must cost time");
        // Instruction misses are demand misses: they appear in the cost
        // histogram alongside data misses.
        assert!(huge.cost_hist.count() > small.cost_hist.count());
    }

    #[test]
    fn next_line_prefetch_turns_stream_misses_into_hits() {
        use crate::prefetch::PrefetchConfig;
        // A sequential stream with isolating gaps: without prefetch every
        // line misses at full cost; degree-2 prefetching covers most.
        let trace: Trace = (0..300u64).map(|i| Access::load(1_000 + i, 300)).collect();
        let plain = run(baseline(), &trace);
        let mut cfg = baseline();
        cfg.prefetch = Some(PrefetchConfig { degree: 2 });
        let pf = System::new(cfg).run(trace.iter());
        assert!(pf.prefetches_issued > 0);
        assert!(
            pf.l2.misses < plain.l2.misses / 2,
            "{} vs {}",
            pf.l2.misses,
            plain.l2.misses
        );
        assert!(
            pf.ipc() > plain.ipc() * 1.5,
            "{} vs {}",
            pf.ipc(),
            plain.ipc()
        );
    }

    #[test]
    fn demand_merge_promotes_an_inflight_prefetch() {
        use crate::prefetch::PrefetchConfig;
        // Miss line A (prefetching A+1), then touch A+1 while its prefetch
        // is still in flight: the entry must be promoted and the access
        // must complete with the prefetch's fill, not a fresh request.
        let mut cfg = baseline();
        cfg.prefetch = Some(PrefetchConfig::next_line());
        let trace = Trace::from_accesses(vec![
            Access::load(5_000, 200),
            Access::load(5_001, 10), // inside the prefetch's flight time
            Access::load(9_999_999, 4_000),
        ]);
        let r = System::new(cfg).run(trace.iter());
        assert_eq!(r.prefetches_issued, 2); // behind lines 5000 and 9999999
        assert_eq!(r.prefetches_promoted, 1);
        // Two demand fills + the unpromoted prefetch; the promoted one is
        // shared with the demand access.
        assert_eq!(r.mem.fills, 4);
    }

    #[test]
    fn prefetcher_never_requests_resident_or_inflight_lines() {
        use crate::prefetch::PrefetchConfig;
        let mut cfg = baseline();
        cfg.prefetch = Some(PrefetchConfig { degree: 4 });
        // Repeated walks over a tiny region: after warm-up everything is
        // resident and the prefetcher must go quiet.
        let mut v = Vec::new();
        for _ in 0..10 {
            for i in 0..8u64 {
                v.push(Access::load(100 + i, 200));
            }
        }
        let trace = Trace::from_accesses(v);
        let r = System::new(cfg).run(trace.iter());
        // First pass misses and prefetches; later passes are all hits.
        assert!(r.prefetches_issued <= 16, "got {}", r.prefetches_issued);
    }

    #[test]
    fn prefetch_targets_at_the_top_of_the_address_space_do_not_wrap() {
        use crate::prefetch::PrefetchConfig;
        // A demand miss to the last line of the address space has no
        // next-line successor; the prefetcher must stop there rather than
        // wrap to line 0 (which would pollute the cache with an unrelated
        // line and, before the overflow fix, panicked in debug builds).
        let mut cfg = baseline();
        cfg.prefetch = Some(PrefetchConfig { degree: 4 });
        let trace = Trace::from_accesses(vec![
            Access::load(u64::MAX, 200),
            Access::load(u64::MAX - 2, 200), // only MAX-1 and MAX remain above
            Access::load(0, 4_000),          // a wrapped prefetch would have hit
        ]);
        let r = System::new(cfg).run(trace.iter());
        // Behind MAX: nothing (every target overflows). Behind MAX-2: only
        // MAX-1 (MAX is resident, MAX+1 would overflow). Behind 0: the
        // usual four next lines.
        assert_eq!(r.prefetches_issued, 5);
        assert_eq!(r.l2.misses, 3, "line 0 must still demand-miss");
    }

    #[test]
    fn icache_disabled_keeps_the_fast_path_identical() {
        let trace: Trace = (0..100u64).map(|i| Access::load(i * 3, 25)).collect();
        let r = run(baseline(), &trace);
        assert_eq!(r.icache.accesses(), 0);
        assert_eq!(r.ifetch_stall_cycles, 0);
    }

    #[test]
    fn wrong_path_traffic_pollutes_but_is_not_demand_accounted() {
        use crate::wrongpath::WrongPathConfig;
        let trace: Trace = (0..200u64).map(|i| Access::load(i % 8, 100)).collect();
        let clean = run(baseline(), &trace);
        let mut cfg = baseline();
        cfg.wrong_path = Some(WrongPathConfig {
            interval_insts: 500,
            burst: 4,
            resolve_cycles: 15,
        });
        let noisy = System::new(cfg).run(trace.iter());
        assert!(noisy.wrong_path_accesses > 0);
        assert!(noisy.wrong_path_misses > 0);
        // Wrong-path fills hit memory...
        assert!(noisy.mem.fills > clean.mem.fills);
        // ...but demoted misses never enter the demand-cost histogram:
        // every recorded cost corresponds to a correct-path (or merged)
        // miss.
        assert!(noisy.cost_hist.count() < noisy.mem.fills);
        // Retirement is unaffected: the same instructions complete.
        assert_eq!(noisy.instructions, clean.instructions);
    }

    #[test]
    fn wrong_path_resolution_shrinks_demand_count_quickly() {
        use crate::wrongpath::WrongPathConfig;
        // Lonely correct-path isolated misses surrounded by wrong-path
        // bursts: their cost must stay near 444, because the wrong-path
        // companions stop diluting N after 15 cycles.
        let mut cfg = baseline();
        cfg.wrong_path = Some(WrongPathConfig {
            interval_insts: 400,
            burst: 8,
            resolve_cycles: 15,
        });
        let trace: Trace = (0..40u64).map(|i| Access::load(i << 13, 400)).collect();
        let r = System::new(cfg).run(trace.iter());
        // With dilution bounded to the 15-cycle resolution window, the
        // mean demand cost stays close to isolated (444), far above the
        // fully-diluted value (444/9 ≈ 49).
        assert!(r.mean_cost() > 350.0, "mean {}", r.mean_cost());
    }

    #[test]
    fn bank_conflicts_show_up_in_costs() {
        // Two simultaneous misses to the same DRAM bank serialize: the
        // second accrues far more cost than a clean pair would.
        let trace = Trace::from_accesses(vec![
            Access::load(0, 300),
            Access::load(32 << 12, 2), // same bank 0 (multiple of 32), different set
        ]);
        let r = run(baseline(), &trace);
        assert_eq!(r.mem.dram.bank_conflicts, 1);
        // Costs: first ≈ 444/2 + tail, second ≈ 222 + 400 extra alone.
        assert!(
            r.cost_hist.bin(7) >= 1,
            "the serialized miss lands in the top bucket"
        );
    }
}
