//! The out-of-order core pipeline model.

use crate::rob::{RingRob, WakeupIndex};
use crate::source::{FetchedInstr, InstrBlock, InstructionSource, Op};
use nocout_mem::addr::Addr;
use nocout_mem::l1::{L1Access, L1Cache, L1Config};
use nocout_mem::protocol::AccessKind;
use nocout_sim::stats::{Counter, LatencyHist};
use nocout_sim::Cycle;

/// Sentinel line index for "no line" (no resolved fetch line, no stall).
const NO_LINE: u64 = u64::MAX;

/// Core microarchitecture parameters (Table 1 defaults via
/// [`CoreConfig::a15`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Dispatch/retire width.
    pub width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load/store-queue entries: bounds outstanding data misses.
    pub lsq_entries: usize,
    /// L1 configuration (shared by I and D sides).
    pub l1: L1Config,
}

impl CoreConfig {
    /// ARM Cortex-A15-like: 3-way, 64-entry ROB, 16-entry LSQ, 32 KB L1s.
    pub fn a15() -> Self {
        CoreConfig {
            width: 3,
            rob_entries: 64,
            lsq_entries: 16,
            l1: L1Config::a15(),
        }
    }
}

/// A miss request the core asks the chip model to send to the home LLC
/// tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissRequest {
    /// Line address.
    pub line: Addr,
    /// Fetch, load, or store (selects GetS/GetX and the L1 to fill).
    pub kind: AccessKind,
}

/// How a core will behave over the coming cycles if no fill arrives —
/// the contract behind the chip's per-core sleep (see
/// [`Core::idle_state`] for which pipeline states are predictable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreIdle {
    /// The core is dispatching (or could dispatch) work: it must be
    /// ticked every cycle.
    Busy,
    /// Dispatch is blocked and nothing can retire: every tick until the
    /// next fill only increments counters, which [`Core::fast_forward`]
    /// can apply in bulk.
    Stalled,
    /// Dispatch is blocked, but the ROB head completes at the given
    /// cycle — the core is linearly stalled strictly *before* that cycle
    /// and must be ticked normally from it onward.
    StalledUntil(Cycle),
    /// The source has nothing to serve before the given cycle and the
    /// pipeline has settled on its filler: every tick strictly *before*
    /// that cycle retires `width` fillers and dispatches `width` more —
    /// as linear as a stall, and applied in bulk by the same function.
    SpinningUntil(Cycle),
}

/// Per-core statistics.
#[derive(Debug, Default)]
pub struct CoreStats {
    /// Instructions retired (numerator of the paper's performance metric).
    pub retired: Counter,
    /// Cycles observed (denominator).
    pub cycles: Counter,
    /// Cycles with fetch stalled on an L1-I miss.
    pub fetch_stall_cycles: Counter,
    /// Cycles in which nothing retired because the ROB head waited on a
    /// data miss.
    pub mem_stall_cycles: Counter,
    /// L1-I miss requests issued.
    pub ifetch_misses: Counter,
    /// L1-D miss requests issued.
    pub data_misses: Counter,
    /// Total cycles between an L1-I miss stalling fetch and the fill
    /// that cleared it (the interconnect round-trip latency the fetch
    /// engine actually observed, summed over all stalls).
    pub ifetch_fill_wait_cycles: Counter,
    /// Fetch-to-retire latency per [`crate::source::BLOCK_CAP`]-instruction
    /// block: dispatch of instruction `64k` to retirement of instruction
    /// `64k+63`. Purely observational — see `docs/service-level-metrics.md`.
    pub block_latency: LatencyHist,
}

impl CoreStats {
    /// Instructions per cycle over the measured window.
    pub fn ipc(&self) -> f64 {
        if self.cycles.value() == 0 {
            0.0
        } else {
            self.retired.value() as f64 / self.cycles.value() as f64
        }
    }

    /// Resets all counters (warmup boundary).
    pub fn reset(&mut self) {
        *self = CoreStats::default();
    }
}

/// The core: pipeline state plus private L1-I and L1-D.
///
/// Driven by the chip model: [`Core::tick`] advances one cycle and collects
/// miss requests; [`Core::fill_data`]/[`Core::fill_ifetch`] deliver lines;
/// snoops arrive via [`Core::snoop_invalidate`]/[`Core::snoop_downgrade`].
///
/// # Examples
///
/// An all-ALU stream retires at full width once warmed up:
///
/// ```
/// use nocout_cpu::model::{Core, CoreConfig};
/// use nocout_cpu::source::{FetchedInstr, Op, ScriptedSource};
/// use nocout_mem::addr::Addr;
/// use nocout_sim::Cycle;
///
/// let mut core = Core::new(CoreConfig::a15());
/// let mut src = ScriptedSource::new(vec![FetchedInstr {
///     fetch_line: Addr(0),
///     op: Op::Alu { latency: 1 },
/// }]);
/// let mut out = Vec::new();
/// let mut now = Cycle(0);
/// // First tick misses in the empty L1-I.
/// core.tick(now, &mut src, &mut out);
/// assert_eq!(out.len(), 1);
/// core.fill_ifetch(out[0].line, now);
/// for _ in 0..100 {
///     now += 1;
///     out.clear();
///     core.tick(now, &mut src, &mut out);
/// }
/// assert!(core.stats.ipc() > 2.0, "ipc {}", core.stats.ipc());
/// ```
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    l1i: L1Cache,
    l1d: L1Cache,
    /// Fixed-capacity ring-buffer reorder buffer (see [`crate::rob`]).
    rob: RingRob,
    /// Line-indexed wakeup chains threaded through the ROB slots: a data
    /// fill wakes exactly the entries waiting on its line, and the
    /// index's waiting total *is* the outstanding-data (MLP) count.
    wakeup: WakeupIndex,
    /// Resolved line index currently being fetched from (hits in it are
    /// free); [`NO_LINE`] before the first fetch resolves. Holding the
    /// index (not an `Option<Addr>`) makes the per-instruction
    /// line-crossing check a single integer compare.
    fetch_line: u64,
    /// Line/set-base decode of the last L1-I probe — reused when the
    /// same line is re-probed (blocked-retry) so the crossing path does
    /// the tag-array geometry math once per resolved line.
    probe_line: u64,
    probe_set_base: u32,
    /// Fetch stalled on this line index until its fill arrives
    /// ([`NO_LINE`] when fetch is running).
    stall_line: u64,
    /// Cycle the current fetch stall began (fill-latency accounting).
    stall_started: Cycle,
    /// Instruction pulled from the source but not yet dispatched.
    staged: Option<FetchedInstr>,
    /// Buffered instructions from the source: [`Core::tick`] consumes
    /// from here and crosses the `dyn InstructionSource` boundary only
    /// when the block drains.
    block: InstrBlock,
    /// Reusable buffer for the waiter tags an L1 fill releases (the
    /// core does not use the tags; the buffer exists so fills allocate
    /// nothing).
    waiter_scratch: Vec<u64>,
    /// Whether block fetch-to-retire latencies are recorded into
    /// [`CoreStats::block_latency`]. Observational only: with recording
    /// off the cycle-by-cycle architectural state is bit-identical.
    record_tails: bool,
    /// Instructions dispatched since construction (not reset at the
    /// warmup boundary: block mark positions are keyed by absolute
    /// sequence numbers).
    dispatched: u64,
    /// Instructions retired since construction.
    retired_seq: u64,
    /// Dispatch timestamps of in-flight block marks, indexed by
    /// `(sequence / 64) % 4`. The ROB retires in order and holds at most
    /// 64 instructions, so at most two marks are ever in flight.
    block_marks: [Cycle; 4],
    /// Per-core statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Creates an idle core.
    pub fn new(cfg: CoreConfig) -> Self {
        Core {
            cfg,
            l1i: L1Cache::new(cfg.l1),
            l1d: L1Cache::new(cfg.l1),
            rob: RingRob::new(cfg.rob_entries),
            wakeup: WakeupIndex::new(cfg.l1.mshr_capacity),
            fetch_line: NO_LINE,
            probe_line: NO_LINE,
            probe_set_base: 0,
            stall_line: NO_LINE,
            stall_started: Cycle::ZERO,
            staged: None,
            block: InstrBlock::new(),
            waiter_scratch: Vec::with_capacity(cfg.lsq_entries),
            record_tails: true,
            dispatched: 0,
            retired_seq: 0,
            block_marks: [Cycle::ZERO; 4],
            stats: CoreStats::default(),
        }
    }

    /// Enables or disables block fetch-to-retire latency recording
    /// (default on). Recording is observational: toggling it changes no
    /// architectural state, RNG draw, or event, only whether
    /// [`CoreStats::block_latency`] fills in. Toggle only between runs —
    /// marks set while disabled are never recorded.
    pub fn set_tail_recording(&mut self, on: bool) {
        self.record_tails = on;
    }

    /// Marks block boundaries at dispatch: instruction `64k` stamps the
    /// current cycle into the mark ring.
    #[inline]
    fn note_dispatch(&mut self, now: Cycle) {
        if self.dispatched.is_multiple_of(64) && self.record_tails {
            self.block_marks[(self.dispatched / 64 % 4) as usize] = now;
        }
        self.dispatched += 1;
    }

    /// Completes a block at retire: instruction `64k+63` records the
    /// elapsed cycles since its block's dispatch mark.
    #[inline]
    fn note_retire(&mut self, now: Cycle) {
        if self.retired_seq % 64 == 63 && self.record_tails {
            let start = self.block_marks[(self.retired_seq / 64 % 4) as usize];
            self.stats.block_latency.record(now.raw() - start.raw());
        }
        self.retired_seq += 1;
    }

    /// The configuration.
    pub fn config(&self) -> CoreConfig {
        self.cfg
    }

    /// Outstanding data misses (diagnostics; bounded by the LSQ). Reads
    /// the wakeup index's total: the waiter chains are the only place a
    /// waiting ROB entry can live, so this count cannot drift from them.
    pub fn outstanding_data_misses(&self) -> usize {
        self.wakeup.waiting()
    }

    /// Whether fetch is currently stalled on an instruction miss.
    pub fn fetch_stalled(&self) -> bool {
        self.stall_line != NO_LINE
    }

    /// Whether [`Core::tick`]'s dispatch stage is a provable no-op until
    /// a fill arrives or the ROB head retires:
    ///
    /// * fetch is stalled on an L1-I miss (dispatch is not attempted);
    /// * the ROB is full (the dispatch loop breaks before touching the
    ///   staged instruction);
    /// * the staged instruction — its fetch line already resolved — is a
    ///   dependent load with data misses outstanding, or a load/store
    ///   with the LSQ full: it is re-staged untouched.
    ///
    /// A staged access the L1 answered with [`L1Access::Blocked`] is *not*
    /// in the list: its retry re-probes the L1 and bumps
    /// `L1Cache::blocked` every cycle, so such a core stays busy. Nothing
    /// is lost by that: on the Figure 7 grid none of the 6.28 M no-op
    /// core-ticks is such a retry (see `docs/hot-path.md`).
    fn dispatch_blocked(&self) -> bool {
        if self.stall_line != NO_LINE || self.rob.is_full() {
            return true;
        }
        match self.staged {
            // An unresolved fetch line means the L1-I blocked the probe.
            Some(i) if i.fetch_line.line_index() == self.fetch_line => self.held_by_misses(i.op),
            _ => false,
        }
    }

    /// Whether outstanding data misses hold `op` back at dispatch: a
    /// dependent load waits for every earlier miss (the low-MLP
    /// behaviour of scale-out workloads), and any memory access waits
    /// for a free LSQ entry. Only a fill lifts the hold. Shared by
    /// dispatch and [`Core::idle_state`], so the two cannot disagree.
    #[inline]
    fn held_by_misses(&self, op: Op) -> bool {
        let waiting = self.wakeup.waiting();
        match op {
            Op::Alu { .. } => false,
            Op::Load { dependent, .. } => {
                (dependent && waiting > 0) || waiting >= self.cfg.lsq_entries
            }
            Op::Store { .. } => waiting >= self.cfg.lsq_entries,
        }
    }

    /// The line whose 1-cycle ALU filler the pipeline spins on, if it
    /// sits at that fixed point with every ROB entry complete by cycle
    /// `by`: the block a spent single filler (so the next `take`
    /// refills), fetch running on the filler's line, nothing staged, no
    /// miss outstanding, and at least `width` entries to retire. A tick
    /// at `by` then retires `width` entries, dispatches `width` fillers
    /// completing at `by + 1`, and leaves all of the above true for
    /// `by + 1` — the ROB keeps whatever occupancy it had, a full one
    /// included. Shared by [`Core::idle_state`] and
    /// [`Core::fast_forward`], so the state that is slept in is the
    /// state that is accounted for.
    fn spinning_on(&self, by: Cycle) -> Option<Addr> {
        let filler = self.block.spent_single()?;
        (filler.op == Op::Alu { latency: 1 }
            && self.stall_line == NO_LINE
            && self.staged.is_none()
            && self.fetch_line == filler.fetch_line.line_index()
            && self.wakeup.waiting() == 0
            && self.rob.len() >= self.cfg.width
            && self.rob.all_ready_by(by))
        .then_some(filler.fetch_line)
    }

    /// Classifies the core's upcoming cycles for the chip's per-core
    /// sleep (see [`CoreIdle`]), after its tick at `now`. A core is
    /// predictable when `source` promises fillers only
    /// ([`InstructionSource::idle_until`]) and the pipeline has settled
    /// on them, or when dispatch is blocked (fetch stall, full ROB, or a
    /// staged memory access held back by outstanding misses): a tick can
    /// then only retire ready ROB entries and bump counters, and only a
    /// fill can unblock dispatch. Spinning is tested first — a spin at
    /// full ROB occupancy looks blocked at the end of every tick — and
    /// cheapest test first: only a filler refill leaves the block a
    /// spent single instruction, so a source that always has work is not
    /// even asked, and the ROB is scanned only once the source says idle.
    pub fn idle_state(&self, now: Cycle, source: &dyn InstructionSource) -> CoreIdle {
        if self.block.spent_single().is_some() {
            if let Some((line, until)) = source.idle_until() {
                if self.spinning_on(now + 1) == Some(line) {
                    return CoreIdle::SpinningUntil(until);
                }
            }
        }
        if !self.dispatch_blocked() {
            return CoreIdle::Busy;
        }
        match self.rob.front() {
            None => CoreIdle::Stalled,
            Some(slot) if slot.is_waiting() => CoreIdle::Stalled,
            Some(slot) => CoreIdle::StalledUntil(slot.ready_at()),
        }
    }

    /// Applies in one step what the `n` consecutive [`Core::tick`] calls
    /// at cycles `since..since + n` would do to a core whose
    /// [`Core::idle_state`] was not `Busy` after its tick at `since - 1`
    /// — the only function that knows what a skipped tick does. Which
    /// kind of tick is read off the core's own state, which nothing
    /// changes while it sleeps. The caller must not cross the
    /// `StalledUntil`/`SpinningUntil` cycle, and must apply the skipped
    /// cycles *before* delivering a fill.
    ///
    /// Stalled: counters move, nothing else can. Spinning: each tick
    /// retires and dispatches `width` fillers, so the sequence numbers
    /// advance, the ROB ring rotates, and every 64-instruction block
    /// boundary inside the window is stamped (dispatch) or recorded
    /// (retire) at the cycle its instruction passes — retire before
    /// dispatch within a cycle, as in [`Core::tick`]. Returns whether
    /// the ticks were spinning ones (the chip reports the two shares).
    pub fn fast_forward(&mut self, since: Cycle, n: u64) -> bool {
        self.stats.cycles.add(n);
        if self.spinning_on(since).is_none() {
            debug_assert!(self.dispatch_blocked(), "fast-forwarding a busy core");
            if self.stall_line != NO_LINE {
                self.stats.fetch_stall_cycles.add(n);
            }
            if self.rob.front().is_some_and(|slot| slot.is_waiting()) {
                self.stats.mem_stall_cycles.add(n);
            }
            return false;
        }
        let width = self.cfg.width as u64;
        let count = width * n;
        // Instruction `seq`, the `seq - first`-th of the window, passes
        // its stage at cycle `since + (seq - first) / width`.
        let (dispatched, retired) = (self.dispatched, self.retired_seq);
        if self.record_tails {
            for block in retired / 64..(dispatched + count).div_ceil(64) {
                let (first, last) = (block * 64, block * 64 + 63);
                let mark = &mut self.block_marks[(block % 4) as usize];
                if (dispatched..dispatched + count).contains(&first) {
                    *mark = since + (first - dispatched) / width;
                }
                if (retired..retired + count).contains(&last) {
                    let at = since + (last - retired) / width;
                    self.stats.block_latency.record(at.raw() - mark.raw());
                }
            }
        }
        self.stats.retired.add(count);
        self.retired_seq += count;
        self.dispatched += count;
        self.rob.rotate_ready(count, width, since + 1);
        true
    }

    /// Advances one cycle: retires completed instructions and dispatches
    /// new ones; any L1 misses needing the interconnect are appended to
    /// `requests`.
    ///
    /// Instructions are consumed from the core's internal block and the
    /// `source` trait object is crossed only when the block drains (one
    /// [`InstructionSource::refill`] per [`crate::source::BLOCK_CAP`]
    /// instructions). [`Core::tick_reference`] keeps the per-instruction
    /// path as the differential oracle.
    pub fn tick(
        &mut self,
        now: Cycle,
        source: &mut dyn InstructionSource,
        requests: &mut Vec<MissRequest>,
    ) {
        self.tick_impl(now, source, requests, true);
    }

    /// The per-instruction reference tick: identical to [`Core::tick`]
    /// except that every fetched instruction crosses the source trait
    /// object individually. Kept as the oracle for differential testing
    /// of the block-based delivery path (and as the honest baseline for
    /// its microbenchmark). Any instructions already buffered in the
    /// block are drained first, so the two tick flavours may be mixed on
    /// one core without perturbing the consumed stream.
    pub fn tick_reference(
        &mut self,
        now: Cycle,
        source: &mut dyn InstructionSource,
        requests: &mut Vec<MissRequest>,
    ) {
        self.tick_impl(now, source, requests, false);
    }

    fn tick_impl(
        &mut self,
        now: Cycle,
        source: &mut dyn InstructionSource,
        requests: &mut Vec<MissRequest>,
        use_block: bool,
    ) {
        self.stats.cycles.incr();
        self.retire(now);
        if self.stall_line != NO_LINE {
            self.stats.fetch_stall_cycles.incr();
        } else {
            self.dispatch(now, source, requests, use_block);
        }
    }

    fn retire(&mut self, now: Cycle) {
        // Fast path: one integer compare per retired entry (a waiting
        // slot's sentinel completion cycle can never be `<= now`).
        let mut retired = 0;
        while retired < self.cfg.width {
            let Some(slot) = self.rob.front() else { break };
            if slot.retirable(now) {
                self.rob.pop_front();
                self.stats.retired.incr();
                self.note_retire(now);
                retired += 1;
            } else {
                if retired == 0 && slot.is_waiting() {
                    self.stats.mem_stall_cycles.incr();
                }
                break;
            }
        }
    }

    fn dispatch(
        &mut self,
        now: Cycle,
        source: &mut dyn InstructionSource,
        requests: &mut Vec<MissRequest>,
        use_block: bool,
    ) {
        for _ in 0..self.cfg.width {
            if self.rob.is_full() {
                break;
            }
            let instr = match self.staged.take() {
                Some(i) => i,
                // The reference path still drains buffered instructions
                // first: they are the next positions of the stream, and
                // skipping them would tear the sequence when the two tick
                // flavours are mixed on one core.
                None if use_block => self.block.take(source),
                None => match self.block.pop() {
                    Some(i) => i,
                    None => source.next_instr(),
                },
            };
            // Instruction-fetch side: crossing into a new line costs an
            // L1-I access. The current line is held as a resolved index,
            // so staying within it — the overwhelmingly common case — is
            // one compare; a crossing decodes the new line's set base
            // once and caches it for blocked-retry re-probes.
            let line_idx = instr.fetch_line.line_index();
            if line_idx != self.fetch_line {
                let set_base = if self.probe_line == line_idx {
                    self.probe_set_base
                } else {
                    let b = self.l1i.set_base_of(line_idx);
                    self.probe_line = line_idx;
                    self.probe_set_base = b;
                    b
                };
                match self.l1i.access_indexed(line_idx, set_base, false, 0) {
                    L1Access::Hit => {
                        self.fetch_line = line_idx;
                    }
                    L1Access::Miss => {
                        self.stats.ifetch_misses.incr();
                        requests.push(MissRequest {
                            line: Addr::from_line_index(line_idx),
                            kind: AccessKind::InstrFetch,
                        });
                        self.stall_line = line_idx;
                        self.stall_started = now;
                        self.staged = Some(instr);
                        return;
                    }
                    L1Access::MergedMiss => {
                        self.stall_line = line_idx;
                        self.stall_started = now;
                        self.staged = Some(instr);
                        return;
                    }
                    L1Access::Blocked => {
                        self.staged = Some(instr);
                        return;
                    }
                }
            }
            match instr.op {
                Op::Alu { latency } => {
                    self.rob.push_ready(now + latency.max(1) as u64);
                }
                Op::Load { addr, .. } => {
                    if self.held_by_misses(instr.op)
                        || !self.try_dispatch_mem(addr, AccessKind::Load, now, requests)
                    {
                        self.staged = Some(instr);
                        return;
                    }
                }
                Op::Store { addr } => {
                    if self.held_by_misses(instr.op)
                        || !self.try_dispatch_mem(addr, AccessKind::Store, now, requests)
                    {
                        self.staged = Some(instr);
                        return;
                    }
                }
            }
            // Reached only when the instruction actually entered the ROB
            // this cycle (every non-dispatch path above returns).
            self.note_dispatch(now);
        }
    }

    /// Probes the L1-D for an access [`Core::held_by_misses`] let
    /// through; returns false if the L1 has no MSHR for it this cycle.
    fn try_dispatch_mem(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        requests: &mut Vec<MissRequest>,
    ) -> bool {
        match self.l1d.access(addr, kind.is_write(), 0) {
            L1Access::Hit => {
                self.rob.push_ready(now + self.l1d.latency());
                true
            }
            L1Access::Miss => {
                self.stats.data_misses.incr();
                requests.push(MissRequest {
                    line: addr.line(),
                    kind,
                });
                let slot = self.rob.push_waiting();
                self.wakeup.enqueue(addr.line_index(), slot, &mut self.rob);
                true
            }
            L1Access::MergedMiss => {
                let slot = self.rob.push_waiting();
                self.wakeup.enqueue(addr.line_index(), slot, &mut self.rob);
                true
            }
            L1Access::Blocked => false,
        }
    }

    /// Delivers a data line (completing the GetS/GetX the chip sent for
    /// it): fills the L1-D and wakes exactly the ROB entries chained on
    /// the line in the wakeup index — no scan of the other entries.
    /// Returns the evicted victim, if any — dirty victims must be written
    /// back to the home LLC tile by the caller.
    pub fn fill_data(&mut self, line: Addr, now: Cycle) -> Option<nocout_mem::cache::Evicted> {
        let evicted = if self.l1d.miss_pending(line) {
            self.waiter_scratch.clear();
            self.l1d.fill(line, false, &mut self.waiter_scratch)
        } else {
            None
        };
        let ready = now + self.l1d.latency();
        // Waking the chain also retires its count from the outstanding
        // total (stale fills resolve no chain and change nothing).
        self.wakeup.wake_line(line.line_index(), ready, &mut self.rob);
        evicted
    }

    /// Delivers an instruction line: fills the L1-I and clears the fetch
    /// stall if it was waiting on this line, charging the observed
    /// miss-to-fill interval to
    /// [`CoreStats::ifetch_fill_wait_cycles`].
    pub fn fill_ifetch(&mut self, line: Addr, now: Cycle) {
        if self.l1i.miss_pending(line) {
            self.waiter_scratch.clear();
            let _ = self.l1i.fill(line, false, &mut self.waiter_scratch);
        }
        let idx = line.line_index();
        if self.stall_line == idx {
            self.stats
                .ifetch_fill_wait_cycles
                .add(now.raw().saturating_sub(self.stall_started.raw()));
            self.stall_line = NO_LINE;
            self.fetch_line = idx;
        }
    }

    /// Resets the statistics at a warmup/measurement boundary. Prefer
    /// this over resetting the `stats` field directly: a fetch stall in
    /// flight at the boundary is re-anchored to `now`, so the
    /// [`CoreStats::ifetch_fill_wait_cycles`] its fill eventually books
    /// covers only the post-reset window (consistent with how
    /// `fetch_stall_cycles` accrues per in-window tick).
    pub fn reset_stats(&mut self, now: Cycle) {
        self.stats.reset();
        if self.stall_line != NO_LINE {
            self.stall_started = now;
        }
    }

    /// Warms the L1-I with a line (checkpoint-style initialization).
    pub fn warm_l1i(&mut self, line: Addr) {
        self.l1i.warm(line);
    }

    /// Warms the L1-D with a line (checkpoint-style initialization).
    pub fn warm_l1d(&mut self, line: Addr) {
        self.l1d.warm(line);
    }

    /// Warms a core that has run nothing yet with two runs of
    /// consecutive lines `(first, count)`: `instr` into the L1-I, `data`
    /// into the L1-D — the state [`Core::warm_l1i`] and
    /// [`Core::warm_l1d`] line by line would leave, in closed form (see
    /// [`nocout_mem::cache::CacheArray::warm_fill`]).
    pub fn warm_fill(&mut self, [instr, data]: [(Addr, u64); 2]) {
        self.l1i.warm_fill(instr.0, instr.1);
        self.l1d.warm_fill(data.0, data.1);
    }

    /// Invalidation snoop against the L1-D; returns `(present, dirty)`.
    pub fn snoop_invalidate(&mut self, line: Addr) -> (bool, bool) {
        self.l1d.snoop_invalidate(line)
    }

    /// Downgrade snoop (forward-read) against the L1-D; returns presence.
    pub fn snoop_downgrade(&mut self, line: Addr) -> bool {
        self.l1d.snoop_downgrade(line)
    }

    /// Read access to the L1-I (diagnostics).
    pub fn l1i(&self) -> &L1Cache {
        &self.l1i
    }

    /// Read access to the L1-D (diagnostics).
    pub fn l1d(&self) -> &L1Cache {
        &self.l1d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{GappedSource, ScriptedSource};

    fn alu_stream() -> ScriptedSource {
        ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Alu { latency: 1 },
        }])
    }

    fn warm_core(src: &mut ScriptedSource) -> (Core, Cycle, Vec<MissRequest>) {
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        let now = Cycle(0);
        core.tick(now, src, &mut out);
        for r in out.drain(..) {
            match r.kind {
                AccessKind::InstrFetch => core.fill_ifetch(r.line, now),
                _ => {
                    core.fill_data(r.line, now);
                }
            }
        }
        (core, now, out)
    }

    #[test]
    fn alu_stream_reaches_full_width() {
        let mut src = alu_stream();
        let (mut core, mut now, mut out) = warm_core(&mut src);
        core.stats.reset();
        for _ in 0..1000 {
            now += 1;
            core.tick(now, &mut src, &mut out);
            assert!(out.is_empty());
        }
        assert!(
            core.stats.ipc() > 2.9,
            "3-wide ALU stream should near width; got {}",
            core.stats.ipc()
        );
    }

    #[test]
    fn ifetch_miss_stalls_until_fill() {
        let mut src = ScriptedSource::new(vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 1 },
            },
            FetchedInstr {
                fetch_line: Addr(64),
                op: Op::Alu { latency: 1 },
            },
        ]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        assert_eq!(out.len(), 1);
        assert!(core.fetch_stalled());
        // Stalled for 10 cycles: no new requests, no progress.
        for t in 1..=10 {
            let before = core.stats.retired.value();
            core.tick(Cycle(t), &mut src, &mut out);
            assert_eq!(core.stats.retired.value(), before);
        }
        assert_eq!(out.len(), 1);
        core.fill_ifetch(Addr(0), Cycle(10));
        assert!(!core.fetch_stalled());
        out.clear();
        core.tick(Cycle(11), &mut src, &mut out);
        // Immediately misses on the second line.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, Addr(64));
    }

    #[test]
    fn fetch_stall_cycles_counted() {
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        for t in 1..=20 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert_eq!(core.stats.fetch_stall_cycles.value(), 20);
    }

    #[test]
    fn independent_loads_overlap_up_to_lsq() {
        // Stream of independent loads to distinct lines.
        let script: Vec<FetchedInstr> = (0..64)
            .map(|i| FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x10000 + i * 64),
                    dependent: false,
                },
            })
            .collect();
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=20 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        let loads: Vec<_> = out
            .iter()
            .filter(|r| r.kind == AccessKind::Load)
            .collect();
        // L1D MSHR capacity (8) gates below the 16-entry LSQ.
        assert_eq!(loads.len(), 8);
        assert_eq!(core.outstanding_data_misses(), 8);
    }

    #[test]
    fn dependent_loads_serialize() {
        let script: Vec<FetchedInstr> = (0..64)
            .map(|i| FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x10000 + i * 64),
                    dependent: true,
                },
            })
            .collect();
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=20 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        let loads = out.iter().filter(|r| r.kind == AccessKind::Load).count();
        assert_eq!(loads, 1, "dependent loads expose no MLP");
    }

    #[test]
    fn fill_wakes_waiting_entries_and_retires() {
        let mut src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Load {
                addr: Addr(0x5000),
                dependent: false,
            },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        core.tick(Cycle(1), &mut src, &mut out);
        assert!(out.iter().any(|r| r.kind == AccessKind::Load));
        let before = core.stats.retired.value();
        core.fill_data(Addr(0x5000), Cycle(5));
        // Ready at 5 + L1 latency; retire happens on the next tick after.
        for t in 6..=10 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert!(core.stats.retired.value() > before);
    }

    #[test]
    fn multi_waiter_same_line_fill_wakes_all_in_one_step() {
        // Two independent loads to the same line: the second merges into
        // the first's MSHR and both ROB entries chain on one wakeup
        // line. The single fill must wake both, and the outstanding-MLP
        // count — owned by the wakeup index — must go 2 → 0 in that one
        // step (the pre-refactor code decremented it once per matching
        // entry inside the full-ROB scan).
        let script = vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x5000),
                    dependent: false,
                },
            },
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x5008),
                    dependent: false,
                },
            },
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 1 },
            },
        ];
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        core.tick(Cycle(1), &mut src, &mut out);
        // One miss request on the wire, two entries waiting on its line.
        let loads = out.iter().filter(|r| r.kind == AccessKind::Load).count();
        assert_eq!(loads, 1, "second load must merge, not re-request");
        assert_eq!(core.outstanding_data_misses(), 2);
        core.fill_data(Addr(0x5000), Cycle(5));
        assert_eq!(
            core.outstanding_data_misses(),
            0,
            "the fill retires the whole chain from the outstanding count"
        );
        let before = core.stats.retired.value();
        for t in 6..=10 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert!(
            core.stats.retired.value() >= before + 2,
            "both woken loads must retire"
        );
    }

    #[test]
    fn ifetch_fill_wait_cycles_record_miss_to_fill_interval() {
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        // Miss at cycle 0; the fill lands at cycle 10.
        core.tick(Cycle(0), &mut src, &mut out);
        assert!(core.fetch_stalled());
        core.fill_ifetch(Addr(0), Cycle(10));
        assert_eq!(core.stats.ifetch_fill_wait_cycles.value(), 10);
        // A stale fill for a line fetch never stalled on adds nothing.
        core.fill_ifetch(Addr(0x4000), Cycle(25));
        assert_eq!(core.stats.ifetch_fill_wait_cycles.value(), 10);
    }

    #[test]
    fn reset_stats_reanchors_inflight_stall_interval() {
        // A stall spanning the warmup boundary must book only its
        // post-reset portion into the fill-wait counter.
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        assert!(core.fetch_stalled());
        core.reset_stats(Cycle(50));
        core.fill_ifetch(Addr(0), Cycle(60));
        assert_eq!(core.stats.ifetch_fill_wait_cycles.value(), 10);
    }

    #[test]
    fn store_miss_requests_getx_kind() {
        let mut src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Store { addr: Addr(0x9000) },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        core.tick(Cycle(1), &mut src, &mut out);
        assert!(out.iter().any(|r| r.kind == AccessKind::Store));
    }

    #[test]
    fn mem_stall_cycles_accumulate_when_head_waits() {
        let mut src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Load {
                addr: Addr(0x5000),
                dependent: true,
            },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=30 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert!(core.stats.mem_stall_cycles.value() > 10);
    }

    #[test]
    fn rob_fills_and_blocks_dispatch() {
        // A head-of-ROB load that never completes must cap the ROB at its
        // configured size while independent work piles behind it.
        let script = vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x7000),
                    dependent: false,
                },
            },
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 1 },
            },
        ];
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..200 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        // Nothing retires past the stuck load; ROB is bounded.
        assert_eq!(core.stats.retired.value(), 0);
        assert!(core.stats.mem_stall_cycles.value() > 100);
    }

    #[test]
    fn warm_l1i_prevents_initial_stall() {
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        core.warm_l1i(Addr(0));
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        assert!(out.is_empty(), "warmed line must not miss");
        assert!(!core.fetch_stalled());
        assert!(core.stats.retired.value() == 0); // retires next cycle
        core.tick(Cycle(1), &mut src, &mut out);
        core.tick(Cycle(2), &mut src, &mut out);
        assert!(core.stats.retired.value() > 0);
    }

    #[test]
    fn stale_fill_for_unrequested_line_is_harmless() {
        let mut core = Core::new(CoreConfig::a15());
        // No outstanding miss: fills must not corrupt state or panic.
        assert!(core.fill_data(Addr(0xAB00), Cycle(3)).is_none());
        core.fill_ifetch(Addr(0xCD00), Cycle(3));
        assert_eq!(core.outstanding_data_misses(), 0);
    }

    #[test]
    fn mixed_alu_and_load_stream_sustains_mlp() {
        // Independent loads interleaved with ALU work: multiple misses in
        // flight despite the in-order head.
        let script: Vec<FetchedInstr> = (0..32)
            .flat_map(|i| {
                vec![
                    FetchedInstr {
                        fetch_line: Addr(0),
                        op: Op::Load {
                            addr: Addr(0x2_0000 + i * 64),
                            dependent: false,
                        },
                    },
                    FetchedInstr {
                        fetch_line: Addr(0),
                        op: Op::Alu { latency: 1 },
                    },
                ]
            })
            .collect();
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=15 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert!(
            core.outstanding_data_misses() >= 4,
            "expected MLP, got {}",
            core.outstanding_data_misses()
        );
    }

    #[test]
    fn fast_forward_matches_per_cycle_stall() {
        // Two identical stalled cores: one ticked cycle by cycle, one
        // fast-forwarded in a single step. Counters must match exactly.
        let build = || {
            let mut src = ScriptedSource::new(vec![
                FetchedInstr {
                    fetch_line: Addr(0),
                    op: Op::Load {
                        addr: Addr(0x5000),
                        dependent: false,
                    },
                },
                FetchedInstr {
                    fetch_line: Addr(64),
                    op: Op::Alu { latency: 1 },
                },
            ]);
            let mut core = Core::new(CoreConfig::a15());
            let mut out = Vec::new();
            core.tick(Cycle(0), &mut src, &mut out);
            core.fill_ifetch(Addr(0), Cycle(0));
            core.tick(Cycle(1), &mut src, &mut out);
            core.tick(Cycle(2), &mut src, &mut out);
            (core, src)
        };
        let (mut dense, mut src_a) = build();
        let (mut sparse, _src_b) = build();
        // Both are now fetch-stalled on line 64 with the load in the ROB.
        assert_eq!(dense.idle_state(Cycle(2), &src_a), CoreIdle::Stalled);
        let mut out = Vec::new();
        for t in 3..40 {
            dense.tick(Cycle(t), &mut src_a, &mut out);
        }
        sparse.fast_forward(Cycle(3), 37);
        assert_eq!(format!("{dense:?}"), format!("{sparse:?}"));
    }

    /// A core stalled on an ifetch miss with one completed-but-unretired
    /// ALU op in the ROB: `idle_state` is `StalledUntil(ready)`.
    fn stalled_until_core() -> (Core, ScriptedSource, Cycle) {
        let mut src = ScriptedSource::new(vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 4 },
            },
            FetchedInstr {
                fetch_line: Addr(64),
                op: Op::Alu { latency: 1 },
            },
        ]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        // Dispatches the latency-4 ALU op, then stalls fetching line 64.
        core.tick(Cycle(1), &mut src, &mut out);
        assert!(core.fetch_stalled());
        (core, src, Cycle(1))
    }

    #[test]
    fn fast_forward_zero_delta_is_a_no_op() {
        let (mut core, _src, start) = stalled_until_core();
        let before_cycles = core.stats.cycles.value();
        let before_stall = core.stats.fetch_stall_cycles.value();
        core.fast_forward(start + 1, 0);
        assert_eq!(core.stats.cycles.value(), before_cycles);
        assert_eq!(core.stats.fetch_stall_cycles.value(), before_stall);
    }

    #[test]
    fn fast_forward_to_exact_wake_cycle_matches_dense_ticking() {
        // The ROB head becomes ready at some cycle `w`; the contract lets
        // the caller skip strictly up to (not across) `w`. Landing the
        // fast-forward exactly on the wake boundary and ticking from
        // there must match dense per-cycle ticking bit for bit.
        let (dense_core, mut dense_src, start) = stalled_until_core();
        let (sparse_core, mut sparse_src, _) = stalled_until_core();
        let wake = match dense_core.idle_state(start, &dense_src) {
            CoreIdle::StalledUntil(at) => at,
            other => panic!("expected StalledUntil, got {other:?}"),
        };
        let delta = wake.raw() - (start.raw() + 1);
        let mut dense_core = dense_core;
        let mut sparse_core = sparse_core;
        let mut out = Vec::new();
        for t in (start.raw() + 1)..wake.raw() {
            dense_core.tick(Cycle(t), &mut dense_src, &mut out);
        }
        sparse_core.fast_forward(start + 1, delta);
        // From the wake cycle onward both must be ticked normally.
        for t in wake.raw()..wake.raw() + 10 {
            dense_core.tick(Cycle(t), &mut dense_src, &mut out);
            sparse_core.tick(Cycle(t), &mut sparse_src, &mut out);
        }
        assert_eq!(format!("{dense_core:?}"), format!("{sparse_core:?}"));
    }

    #[test]
    fn fast_forward_already_idle_core_counts_pure_stall() {
        // Fetch-stalled with an empty ROB (nothing will ever retire until
        // the fill arrives): `Stalled` — any delta is skippable and only
        // the stall counters move.
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        assert!(core.fetch_stalled());
        assert_eq!(core.idle_state(Cycle(0), &src), CoreIdle::Stalled);
        let retired_before = core.stats.retired.value();
        core.fast_forward(Cycle(1), 1_000);
        assert_eq!(core.stats.retired.value(), retired_before);
        assert_eq!(core.stats.fetch_stall_cycles.value(), 1_000);
        assert_eq!(core.stats.cycles.value(), 1_001);
        // No data miss at the ROB head, so no memory-stall cycles.
        assert_eq!(core.stats.mem_stall_cycles.value(), 0);
    }

    const FILLER_LINE: Addr = Addr(0x1000);

    /// A warmed core and a [`GappedSource`] whose first 3-instruction
    /// request (the ALU latencies given, on the filler line) arrives at
    /// cycle 5 and whose second arrives `second_gap` cycles later, ticked
    /// densely through cycle `upto`.
    fn gapped_core(
        request: [u8; 3],
        second_gap: u64,
        record: bool,
        upto: u64,
    ) -> (Core, GappedSource) {
        let script = request
            .iter()
            .map(|&latency| FetchedInstr {
                fetch_line: FILLER_LINE,
                op: Op::Alu { latency },
            })
            .collect();
        let mut src = GappedSource::new(script, FILLER_LINE, 3, vec![5, second_gap]);
        let mut core = Core::new(CoreConfig::a15());
        core.set_tail_recording(record);
        core.warm_l1i(FILLER_LINE);
        tick_range(&mut core, &mut src, 0..upto + 1);
        (core, src)
    }

    fn tick_range(core: &mut Core, src: &mut GappedSource, cycles: std::ops::Range<u64>) {
        let mut out = Vec::new();
        for t in cycles {
            src.advance_to(t);
            core.tick(Cycle(t), src, &mut out);
            assert!(
                out.is_empty(),
                "ALU-only streams on a warmed line never miss"
            );
        }
    }

    /// Bulk-accounted spinning equals dense ticking on the whole `Core`
    /// (stale ROB slots, block marks and the instruction block included),
    /// at every ROB occupancy the spin can settle at, for windows shorter
    /// and longer than a block and than the ROB ring, split by a stats
    /// reset, with tail recording on and off — and the tick at the
    /// arrival cycle, the first one after the window, serves the request.
    #[test]
    fn spinning_fast_forward_matches_dense_ticking() {
        // A request of latencies (a, a+1, a+2) retires one instruction a
        // cycle for two cycles while three are dispatched, so the spin
        // settles at 3a + 4 entries; (30, 30, 30) fills the ROB.
        for (request, occupancy) in [([1, 1, 1], 3), ([12, 13, 14], 40), ([30, 30, 30], 64)] {
            // The spin begins after the tick at `last`, found on a probe
            // whose second request never comes.
            let last = (5..200)
                .find(|&t| {
                    let (core, src) = gapped_core(request, 1 << 40, true, t);
                    matches!(core.idle_state(Cycle(t), &src), CoreIdle::SpinningUntil(_))
                })
                .expect("the core settles into the spin");
            let since = last + 1;
            for n in [1u64, 2, 21, 22, 64, 1_600] {
                for (record, reset_after) in [(true, None), (false, None), (true, Some(n / 3))] {
                    let ctx = format!("occupancy {occupancy} window {n} record {record}");
                    let gap = since + n - 5;
                    let (mut dense, mut dense_src) = gapped_core(request, gap, record, last);
                    let (mut sparse, mut sparse_src) = gapped_core(request, gap, record, last);
                    assert_eq!(sparse.rob.len(), occupancy, "{ctx}");
                    assert_eq!(
                        sparse.idle_state(Cycle(last), &sparse_src),
                        CoreIdle::SpinningUntil(Cycle(since + n)),
                        "{ctx}"
                    );
                    let split = reset_after.unwrap_or(n);
                    tick_range(&mut dense, &mut dense_src, since..since + split);
                    sparse.fast_forward(Cycle(since), split);
                    if reset_after.is_some() {
                        dense.reset_stats(Cycle(since + split));
                        sparse.reset_stats(Cycle(since + split));
                    }
                    tick_range(&mut dense, &mut dense_src, since + split..since + n);
                    sparse.fast_forward(Cycle(since + split), n - split);
                    assert_eq!(format!("{dense:?}"), format!("{sparse:?}"), "{ctx}");
                    // The promise ends at the arrival: both tick for real.
                    assert_eq!(sparse_src.started(), 1, "{ctx}");
                    tick_range(&mut dense, &mut dense_src, since + n..since + n + 1);
                    tick_range(&mut sparse, &mut sparse_src, since + n..since + n + 1);
                    assert_eq!(
                        sparse_src.started(),
                        2,
                        "{ctx}: arrival tick serves the request"
                    );
                    tick_range(&mut dense, &mut dense_src, since + n + 1..since + n + 40);
                    tick_range(&mut sparse, &mut sparse_src, since + n + 1..since + n + 40);
                    assert_eq!(format!("{dense:?}"), format!("{sparse:?}"), "{ctx}: after");
                }
            }
        }
    }

    #[test]
    fn idle_state_reports_busy_when_dispatching() {
        let mut src = alu_stream();
        let (core, now, _) = warm_core(&mut src);
        assert_eq!(core.idle_state(now, &src), CoreIdle::Busy);
    }

    #[test]
    fn snoops_affect_l1d() {
        let mut src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Store { addr: Addr(0x9000) },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        core.tick(Cycle(1), &mut src, &mut out);
        core.fill_data(Addr(0x9000), Cycle(5));
        let (present, _) = core.snoop_invalidate(Addr(0x9000));
        assert!(present);
        let (present, _) = core.snoop_invalidate(Addr(0x9000));
        assert!(!present, "second invalidate finds nothing");
    }
}
