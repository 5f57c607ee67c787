//! The full-system chip model: cores + L1s + LLC tiles + directory +
//! memory channels, bound together by an interconnect fabric.
//!
//! This is the piece that corresponds to the paper's Flexus full-system
//! timing simulation (§5.4): every protocol message physically traverses
//! the configured NoC, LLC banks arbitrate among requests, memory channels
//! queue, and cores stall exactly as their fills come back.

use crate::config::{ChipConfig, Organization};
use crate::metrics::{LlcSummary, MemSummary, NetSummary, SystemMetrics, TailSummary};
use nocout_cpu::{Core, CoreConfig, CoreIdle, MissRequest};
use nocout_mem::addr::{Addr, AddressMap};
use nocout_mem::directory::SharerSet;
use nocout_mem::llc::{Dest, LlcConfig, LlcTile};
use nocout_mem::mem_ctrl::{MemChannelConfig, MemoryChannel};
use nocout_mem::protocol::{AccessKind, CoreId, Msg, TxnId};
use nocout_noc::fabric::{Fabric, NextEvent};
use nocout_noc::latency::LatencyFabric;
use nocout_noc::topology::ideal::{build_analytic, AnalyticKind, AnalyticSpec};
use nocout_noc::topology::{fbfly::build_fbfly, mesh::build_mesh, nocout::build_nocout};
use nocout_noc::types::{MessageClass, TerminalId};
use nocout_cpu::source::{FetchedInstr, InstrBlock, InstructionSource};
use nocout_sim::slab::Slab;
use nocout_sim::stats::LatencyHist;
use nocout_sim::Cycle;
use nocout_workloads::trace::{TraceHeader, TraceSet, TraceSource, TraceWriter, TRACE_SUFFIX};
use nocout_workloads::{OpenLoopSource, Workload, WorkloadClass, WorkloadGen};
use std::sync::Arc;

/// What an organization's topology builder hands back: the fabric plus
/// the terminal ids for cores, LLC tiles and memory channels, and the
/// preferred core-activation order.
type BuiltFabric = (
    Box<dyn Fabric>,
    Vec<TerminalId>,
    Vec<TerminalId>,
    Vec<TerminalId>,
    Vec<usize>,
);

/// The instruction stream driving one active core: a synthetic generator
/// or a trace replay, behind one enum so the chip's hot path stays free
/// of per-workload-class branching (the core consumes blocks; the class
/// distinction surfaces only at refill).
#[derive(Debug)]
enum CoreSource {
    Synthetic(WorkloadGen),
    Trace(TraceSource),
    OpenLoop(OpenLoopSource),
}

impl InstructionSource for CoreSource {
    fn next_instr(&mut self) -> FetchedInstr {
        match self {
            CoreSource::Synthetic(g) => g.next_instr(),
            CoreSource::Trace(t) => t.next_instr(),
            CoreSource::OpenLoop(o) => o.next_instr(),
        }
    }

    fn refill(&mut self, block: &mut InstrBlock) {
        match self {
            CoreSource::Synthetic(g) => g.refill(block),
            CoreSource::Trace(t) => t.refill(block),
            CoreSource::OpenLoop(o) => o.refill(block),
        }
    }

    fn idle_until(&self) -> Option<(Addr, Cycle)> {
        match self {
            CoreSource::OpenLoop(o) => o.idle_until(),
            CoreSource::Synthetic(_) | CoreSource::Trace(_) => None,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TermInfo {
    core: Option<usize>,
    llc: Option<usize>,
    mem: Option<usize>,
}

/// Membership bitmap of components with pending work. The chip's per-cycle scans visit only members, in index order —
/// on a 64-tile chip most LLC tiles and memory channels are idle most
/// cycles, so calling into all of them was the dominant cost of the
/// tile/channel steps (mirroring what `Fabric::take_ready_terminal`
/// already does for delivery). Members are bits of `u64` words, walked
/// with `trailing_zeros`: membership updates are branch-free, iteration
/// order matches the full-scan reference by construction, and when
/// nothing is active a step reads one word per 64 components.
#[derive(Debug, Default)]
struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    fn with_len(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Records the component's post-tick state.
    #[inline]
    fn set(&mut self, i: usize, active: bool) {
        let (word, bit) = (&mut self.words[i >> 6], 1u64 << (i & 63));
        *word = *word & !bit | if active { bit } else { 0 };
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        bits_of(&self.words)
    }
}

/// The set bits of a bitmap, ascending.
fn bits_of(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

/// `SleepSet::wake_at` of a core that is ticked every cycle.
const AWAKE: u64 = 0;
/// `SleepSet::wake_at` of a core asleep with no timer: only a fill wakes it.
const UNTIL_FILL: u64 = u64::MAX;

/// Which active cores are asleep, as dense per-slot arrays and slot
/// bitmaps the core loop reads instead of touching the `Core` structs.
///
/// A core goes to sleep after a real tick that left it in a non-`Busy`
/// [`CoreIdle`] state — its coming ticks are all alike: counter bumps
/// while stalled, a full-width filler rotation while spinning — and is
/// woken by its timer (the ROB head's completion cycle, or the idle
/// source's next arrival) or by a `Msg::Data` fill, whichever comes
/// first. The cycles it slept through are owed to it and paid by
/// `Core::fast_forward` at the wake (before the fill mutates the core)
/// or at a sync point; which kind they were is the core's to know, so
/// the set keeps no note of it.
///
/// The core loop walks the `awake` bitmap, in ascending slot order, and
/// looks at the timers only in a cycle that `next_timer` says one is
/// due: then it wakes every `timed` slot whose timer has come and
/// recomputes `next_timer` from the rest.
#[derive(Debug)]
struct SleepSet {
    /// Per activation slot: the first cycle the core must really be
    /// ticked again ([`AWAKE`], a timer, or [`UNTIL_FILL`]).
    wake_at: Vec<u64>,
    /// Bit per slot: the core is awake (`wake_at` is [`AWAKE`]).
    awake: Vec<u64>,
    /// Bit per slot: the core sleeps on a timer (`wake_at` is neither
    /// [`AWAKE`] nor [`UNTIL_FILL`]).
    timed: Vec<u64>,
    /// A lower bound on the `timed` slots' timers ([`UNTIL_FILL`] when
    /// none is timed): exact after the core loop's timer pass, lowered by
    /// every timed sleep, left as it is by a wake.
    next_timer: u64,
    /// Per activation slot, meaningful while asleep: the first cycle
    /// whose tick the core's counters do not include yet.
    since: Vec<u64>,
    /// Activation slot of each physical core (fills address cores, the
    /// core loop walks slots); `u32::MAX` for an inactive core.
    slot_of: Vec<u32>,
    /// Population of the set.
    asleep: usize,
}

impl SleepSet {
    fn new(cores: usize, active: &[(usize, CoreSource)]) -> Self {
        let mut slot_of = vec![u32::MAX; cores];
        for (slot, (c, _)) in active.iter().enumerate() {
            slot_of[*c] = slot as u32;
        }
        let words = active.len().div_ceil(64);
        let mut awake = vec![0u64; words];
        for slot in 0..active.len() {
            awake[slot >> 6] |= 1 << (slot & 63);
        }
        SleepSet {
            wake_at: vec![AWAKE; active.len()],
            awake,
            timed: vec![0; words],
            next_timer: UNTIL_FILL,
            since: vec![0; active.len()],
            slot_of,
            asleep: 0,
        }
    }

    /// Puts `slot` to sleep until `wake_at` (a timer, or [`UNTIL_FILL`]).
    #[inline]
    fn sleep(&mut self, slot: usize, wake_at: u64, since: u64) {
        let (w, bit) = (slot >> 6, 1u64 << (slot & 63));
        self.awake[w] &= !bit;
        if wake_at != UNTIL_FILL {
            self.timed[w] |= bit;
            self.next_timer = self.next_timer.min(wake_at);
        }
        self.wake_at[slot] = wake_at;
        self.since[slot] = since;
        self.asleep += 1;
    }

    /// Returns a sleeping `slot` to the core loop.
    #[inline]
    fn wake(&mut self, slot: usize) {
        let (w, bit) = (slot >> 6, 1u64 << (slot & 63));
        self.awake[w] |= bit;
        self.timed[w] &= !bit;
        self.wake_at[slot] = AWAKE;
        self.asleep -= 1;
    }

    /// The earliest timer of a timed sleeper, if any.
    fn earliest_timer(&self) -> Option<u64> {
        bits_of(&self.timed).map(|slot| self.wake_at[slot]).min()
    }
}

/// An in-flight core transaction: requesting core, line, access kind and
/// the cycle its miss request entered the chip model.
type Txn = (u16, Addr, AccessKind, Cycle);

/// The simulated chip.
///
/// # Examples
///
/// Run a few thousand cycles of Web Search on NOC-Out:
///
/// ```
/// use nocout::chip::ScaleOutChip;
/// use nocout::config::{ChipConfig, Organization};
/// use nocout_workloads::Workload;
///
/// let mut chip = ScaleOutChip::new(
///     ChipConfig::paper(Organization::NocOut),
///     Workload::WebSearch,
///     42,
/// );
/// for _ in 0..2000 {
///     chip.tick();
/// }
/// assert!(chip.metrics().instructions > 0);
/// ```
pub struct ScaleOutChip {
    cfg: ChipConfig,
    fabric: Box<dyn Fabric>,
    cores: Vec<Core>,
    /// (core index, its instruction stream) for every active core.
    active: Vec<(usize, CoreSource)>,
    llcs: Vec<LlcTile>,
    channels: Vec<MemoryChannel>,
    /// In-flight protocol messages; the id is the network packet's token.
    msgs: Slab<Msg>,
    /// In-flight core transactions, addressed by [`TxnId`].
    txns: Slab<Txn>,
    map: AddressMap,
    core_term: Vec<TerminalId>,
    llc_term: Vec<TerminalId>,
    mc_term: Vec<TerminalId>,
    term_info: Vec<TermInfo>,
    now: Cycle,
    req_buf: Vec<MissRequest>,
    /// Reusable staging buffer for messages injected during `tick` (hoisted
    /// out of the per-cycle hot path so steady state allocates nothing).
    inject_buf: Vec<(TerminalId, TerminalId, Msg)>,
    /// LLC tiles with queued inputs or undelivered outputs.
    active_llcs: ActiveSet,
    /// Memory channels with queued requests or outstanding completions.
    active_mems: ActiveSet,
    /// End-to-end L1 miss-to-fill latency: core request entering the chip
    /// model to its data packet dispatching back into the core.
    fill_hist: LatencyHist,
    /// Whether the chip-level fill histogram records (propagated to cores
    /// and LLC tiles by [`ScaleOutChip::set_tail_recording`]).
    record_tails: bool,
    /// Whether the workload is open-loop (gates the per-cycle arrival
    /// advance so closed-loop runs pay nothing in the core loop).
    open_loop: bool,
    /// The sleeping active cores (see [`SleepSet`]).
    sleep: SleepSet,
    /// `Core::tick` calls executed since construction (observational;
    /// see [`ScaleOutChip::core_tick_counts`]).
    core_ticks: u64,
    /// Core-ticks settled as spinning ones since construction.
    spin_ticks: u64,
    /// Cycles `run_for` jumped over since construction (observational;
    /// see [`ScaleOutChip::skipped_cycles`]).
    skipped_cycles: u64,
}

/// How the active cores' ticks were executed since construction: one
/// per active core per cycle, either a `Core::tick` call or a cycle the
/// core slept through and was paid in bulk. Observational only — not
/// reset by [`ScaleOutChip::reset_stats`] and not part of
/// [`SystemMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreTickCounts {
    /// `Core::tick` calls actually made.
    pub executed: u64,
    /// Cycles slept with dispatch blocked (counter bumps only).
    pub slept_stalled: u64,
    /// Cycles slept spinning on an idle source's filler.
    pub slept_spinning: u64,
}

impl CoreTickCounts {
    /// All core-ticks: active cores × cycles.
    pub fn total(&self) -> u64 {
        self.executed + self.slept_stalled + self.slept_spinning
    }
}

/// Builds the organization's fabric: the network plus the terminal ids
/// for cores, LLC tiles and memory channels, and the preferred
/// core-activation order.
fn build_fabric(cfg: &ChipConfig) -> BuiltFabric {
    match cfg.organization {
        Organization::Mesh => {
            let built = build_mesh(&cfg.mesh_spec());
            let order = center_first_order(built.cols, built.rows);
            (
                Box::new(built.network),
                built.tile_terminals.clone(),
                built.tile_terminals,
                built.mc_terminals,
                order,
            )
        }
        Organization::FlattenedButterfly => {
            let built = build_fbfly(&cfg.fbfly_spec());
            let order = center_first_order(built.cols, built.rows);
            (
                Box::new(built.network),
                built.tile_terminals.clone(),
                built.tile_terminals,
                built.mc_terminals,
                order,
            )
        }
        Organization::NocOut => {
            let built = build_nocout(&cfg.nocout_spec());
            // LLC-adjacent cores first (§5.3: 16-core workloads run on
            // the core tiles adjacent to the LLC).
            let mut order: Vec<usize> = (0..built.core_terminals.len()).collect();
            order.sort_by_key(|&c| (built.core_depth(c), c));
            (
                Box::new(built.network),
                built.core_terminals,
                built.llc_terminals,
                built.mc_terminals,
                order,
            )
        }
        Organization::IdealWire | Organization::ZeroLoadMesh => {
            let kind = if cfg.organization == Organization::IdealWire {
                AnalyticKind::IdealWire
            } else {
                AnalyticKind::ZeroLoadMesh
            };
            let mut spec = AnalyticSpec::for_tiles(cfg.cores, kind);
            spec.link_width_bits = cfg.link_width_bits;
            spec.num_memory_channels = cfg.mem_channels;
            let fab: LatencyFabric = build_analytic(&spec);
            let tiles: Vec<TerminalId> =
                (0..cfg.cores as u16).map(TerminalId).collect();
            let mcs: Vec<TerminalId> = (0..cfg.mem_channels as u16)
                .map(|k| TerminalId(cfg.cores as u16 + k))
                .collect();
            let order = center_first_order(spec.cols, spec.rows);
            (Box::new(fab), tiles.clone(), tiles, mcs, order)
        }
    }
}

impl std::fmt::Debug for ScaleOutChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScaleOutChip")
            .field("organization", &self.cfg.organization)
            .field("cores", &self.cores.len())
            .field("active", &self.active.len())
            .field("llc_tiles", &self.llcs.len())
            .field("now", &self.now)
            .finish()
    }
}

impl ScaleOutChip {
    /// Builds a chip running `workload` — a synthetic [`Workload`] or any
    /// other [`WorkloadClass`] such as a captured trace — with the given
    /// seed (trace replay ignores the seed: the streams are literal).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configurations (e.g. a core count the
    /// organization cannot lay out, or more cores than a directory sharer
    /// set records — [`SharerSet::MAX_CORES`]) and on a trace whose
    /// streams cannot be opened.
    pub fn new(cfg: ChipConfig, workload: impl Into<WorkloadClass>, seed: u64) -> Self {
        assert!(
            cfg.cores <= SharerSet::MAX_CORES,
            "a {}-core chip exceeds the directory's {}-core sharer sets",
            cfg.cores,
            SharerSet::MAX_CORES
        );
        let class = workload.into();
        let (fabric, core_term, llc_term, mc_term, active_order): BuiltFabric =
            build_fabric(&cfg);

        let llc_tiles = llc_term.len();
        let banks = if cfg.organization == Organization::NocOut {
            cfg.banks_per_llc_tile
        } else {
            1
        };
        let map = AddressMap::new(llc_tiles, banks, cfg.mem_channels);
        let slice_bytes = cfg.llc_total_bytes / llc_tiles as u64;
        let llc_cfg = LlcConfig {
            slice_bytes,
            banks,
            ..if cfg.organization == Organization::NocOut {
                LlcConfig::nocout_tile()
            } else {
                LlcConfig::tiled_slice()
            }
        };
        let llcs: Vec<LlcTile> = (0..llc_tiles)
            .map(|i| LlcTile::new(llc_cfg.at_position(i, llc_tiles)))
            .collect();
        let channels: Vec<MemoryChannel> = (0..cfg.mem_channels)
            .map(|_| MemoryChannel::new(MemChannelConfig::default()))
            .collect();
        let cores: Vec<Core> = (0..cfg.cores).map(|_| Core::new(CoreConfig::a15())).collect();

        // Reverse terminal map.
        let max_term = core_term
            .iter()
            .chain(llc_term.iter())
            .chain(mc_term.iter())
            .map(|t| t.index())
            .max()
            .expect("at least one terminal")
            + 1;
        let mut term_info = vec![TermInfo::default(); max_term];
        for (i, t) in core_term.iter().enumerate() {
            term_info[t.index()].core = Some(i);
        }
        for (i, t) in llc_term.iter().enumerate() {
            term_info[t.index()].llc = Some(i);
        }
        for (i, t) in mc_term.iter().enumerate() {
            term_info[t.index()].mem = Some(i);
        }

        // Activate the first `n` cores in the organization's preferred
        // placement order. Synthetic classes scale with the profile; a
        // trace activates one core per captured stream.
        let wanted = match &class {
            WorkloadClass::Synthetic(w) => w.profile().active_cores(cfg.cores),
            WorkloadClass::Trace(t) => t.streams(),
            WorkloadClass::OpenLoop(s) => s.workload.profile().active_cores(cfg.cores),
        };
        let mut n_active = cfg
            .active_core_override
            .unwrap_or(wanted)
            .min(cfg.cores);
        if let WorkloadClass::Trace(t) = &class {
            // Silently dropping captured streams would simulate a
            // different workload than the trace records; subsetting must
            // be an explicit request (`active_core_override`), not a
            // side effect of a smaller chip.
            assert!(
                t.streams() <= cfg.cores || cfg.active_core_override.is_some(),
                "trace has {} streams but the chip has only {} cores; \
                 set active_core_override to replay a subset deliberately",
                t.streams(),
                cfg.cores
            );
            // A trace can drive at most one core per captured stream.
            n_active = n_active.min(t.streams());
        }
        // One hot-set table per chip: every generator draws from it.
        let hot_zipf = match &class {
            WorkloadClass::Synthetic(w) => Some(w.profile().hot_zipf()),
            WorkloadClass::OpenLoop(s) => Some(s.workload.profile().hot_zipf()),
            WorkloadClass::Trace(_) => None,
        };
        let active = active_order[..n_active]
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                let zipf = || Arc::clone(hot_zipf.as_ref().expect("a synthetic class"));
                let source = match &class {
                    WorkloadClass::Synthetic(w) => CoreSource::Synthetic(
                        WorkloadGen::with_zipf(w.profile(), c as u16, seed, zipf()),
                    ),
                    WorkloadClass::Trace(t) => CoreSource::Trace(
                        t.open_stream(slot).unwrap_or_else(|e| {
                            panic!("cannot open trace stream {slot}: {e}")
                        }),
                    ),
                    WorkloadClass::OpenLoop(s) => CoreSource::OpenLoop(
                        OpenLoopSource::with_zipf(*s, c as u16, seed, zipf()),
                    ),
                };
                (c, source)
            })
            .collect::<Vec<_>>();

        let num_llcs = llcs.len();
        let num_mems = channels.len();
        let sleep = SleepSet::new(cores.len(), &active);
        let mut chip = ScaleOutChip {
            cfg,
            fabric,
            cores,
            active,
            llcs,
            channels,
            msgs: Slab::new(),
            txns: Slab::new(),
            map,
            core_term,
            llc_term,
            mc_term,
            term_info,
            now: Cycle::ZERO,
            req_buf: Vec::new(),
            inject_buf: Vec::new(),
            active_llcs: ActiveSet::with_len(num_llcs),
            active_mems: ActiveSet::with_len(num_mems),
            fill_hist: LatencyHist::new(),
            record_tails: true,
            open_loop: matches!(&class, WorkloadClass::OpenLoop(_)),
            sleep,
            core_ticks: 0,
            spin_ticks: 0,
            skipped_cycles: 0,
        };
        chip.warm_caches(&class);
        chip
    }

    /// Checkpoint-style cache warming (§5.4: the paper launches from
    /// checkpoints with warmed caches): the shared instruction footprint,
    /// the LLC-resident data region and the shared read-write region are
    /// installed in the LLC; each active core's hot instruction set and
    /// local data set are installed in its L1s. Trace replay reproduces
    /// the same warm state from the region sizes recorded in the stream
    /// headers (local-data lines are derived from the *captured* core id,
    /// whose private address space the stream's accesses live in).
    fn warm_caches(&mut self, class: &WorkloadClass) {
        use nocout_workloads::gen::{INSTR_BASE, LLC_DATA_BASE, SHARED_RW_BASE};
        if self.active.is_empty() {
            return;
        }
        let (footprint, llc_resident, shared_rw) = match class {
            WorkloadClass::Synthetic(w) => {
                let p = w.profile();
                (
                    p.instr_footprint_lines as u64,
                    p.llc_resident_lines as u64,
                    p.shared_rw_lines as u64,
                )
            }
            WorkloadClass::Trace(t) => {
                let w = t.warm();
                (
                    w.instr_footprint_lines as u64,
                    w.llc_resident_lines as u64,
                    w.shared_rw_lines as u64,
                )
            }
            WorkloadClass::OpenLoop(s) => {
                let p = s.workload.profile();
                (
                    p.instr_footprint_lines as u64,
                    p.llc_resident_lines as u64,
                    p.shared_rw_lines as u64,
                )
            }
        };
        // Tile by tile, run by run: a tile's share of a region is one run
        // of consecutive slice-local lines, and its tag array depends only
        // on the order it sees its own lines in (region by region,
        // ascending) — the state `LlcTile::warm` line by line would leave.
        let regions = [
            (INSTR_BASE, footprint),
            (LLC_DATA_BASE, llc_resident),
            (SHARED_RW_BASE, shared_rw),
        ];
        for (tile, llc) in self.llcs.iter_mut().enumerate() {
            let runs: Vec<(Addr, u64)> = regions
                .iter()
                .filter_map(|&(base, lines)| self.map.homed_run(tile, Addr(base), lines))
                .collect();
            llc.warm_fill(&runs);
        }
        for (c, source) in &self.active {
            let runs = match source {
                CoreSource::Synthetic(g) => g.l1_runs(),
                CoreSource::OpenLoop(o) => o.gen().l1_runs(),
                CoreSource::Trace(t) => t.header().l1_runs(),
            };
            self.cores[*c].warm_fill(runs);
        }
    }

    /// The chip configuration.
    pub fn config(&self) -> ChipConfig {
        self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of cores running the workload.
    pub fn active_cores(&self) -> usize {
        self.active.len()
    }

    /// Physical core indices running the workload, in activation-slot
    /// order (the organization's preferred placement). Slot `i` of a
    /// trace replay drives the core this method lists at position `i`.
    pub fn active_core_ids(&self) -> Vec<usize> {
        self.active.iter().map(|(c, _)| *c).collect()
    }

    /// Protocol messages currently in flight (network + tables). A read
    /// held at a memory channel counts as the `MemData` it owes.
    pub fn inflight_messages(&self) -> usize {
        let owed: usize = self.channels.iter().map(MemoryChannel::owed_replies).sum();
        self.msgs.len() + owed
    }

    /// Outstanding core transactions.
    pub fn inflight_transactions(&self) -> usize {
        self.txns.len()
    }

    /// Sends `msg` from `src` to `dst`, on the class and with the payload
    /// the message names: the one way a message enters the fabric.
    fn inject(&mut self, src: TerminalId, dst: TerminalId, msg: Msg) {
        let class = msg.class();
        let payload = msg.payload_bytes();
        let token = self.msgs.insert(msg) as u64;
        self.fabric.inject(src, dst, class, payload, token);
    }

    /// Advances the chip by one cycle, visiting only components with work:
    /// sleeping cores are skipped (the cycles they slept through are paid
    /// in bulk when they wake), and LLC tiles and memory channels are
    /// scanned through active sets that a component enters when traffic
    /// arrives for it and leaves when it drains. Bit-identical to
    /// [`ScaleOutChip::tick_reference`] (a tick of an idle component is a
    /// no-op or a counter bump), which the differential tests enforce
    /// across every organization.
    pub fn tick(&mut self) {
        self.tick_impl(false);
    }

    /// The full-scan, per-instruction reference tick: semantically
    /// identical to [`ScaleOutChip::tick`] but ticks every active core
    /// (the oracle never sleeps: sleepers are settled and woken first),
    /// visits every LLC tile and memory channel every cycle *and* pulls
    /// instructions across the source trait object one at a time
    /// (`Core::tick_reference`) instead of in blocks. Kept as the oracle
    /// for differential testing of the sleep set, the active-set
    /// scheduler and the block-based delivery path (and as the honest
    /// baseline for their microbenchmarks). Both flavours run
    /// on the same ring-ROB/array-MSHR core structures; those are proved
    /// equivalent to their pre-refactor containers separately
    /// (`tests/chip_golden_metrics.rs`, `tests/proptest_core.rs`).
    pub fn tick_reference(&mut self) {
        self.tick_impl(true);
    }

    fn tick_impl(&mut self, full_scan: bool) {
        let now = self.now;
        if full_scan {
            for slot in 0..self.active.len() {
                if self.sleep.wake_at[slot] != AWAKE {
                    self.wake_slot(slot, now.raw());
                }
            }
        }

        // 1. Cores execute and emit miss requests: the awake slots, in
        // ascending order, after the sleepers whose timer has come join
        // them (the reference pass woke every sleeper above). Waking a
        // core settles only that core, so waking them all first is the
        // same as waking each at its turn.
        if now.raw() >= self.sleep.next_timer {
            self.wake_due_timers(now.raw());
        }
        let mut injections = std::mem::take(&mut self.inject_buf);
        for wi in 0..self.sleep.awake.len() {
            // A core that goes to sleep clears only its own bit.
            let mut word = self.sleep.awake[wi];
            while word != 0 {
                let ai = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                self.tick_core(ai, now, full_scan, &mut injections);
            }
        }
        for (src, dst, msg) in injections.drain(..) {
            self.inject(src, dst, msg);
        }

        // 2. Active LLC tiles process and emit protocol messages. The
        // bitmap is walked in index order, so the messages injected here
        // appear in exactly the order the full scan would produce.
        if full_scan {
            for i in 0..self.llcs.len() {
                self.tick_llc(i, now, &mut injections);
            }
        } else {
            for wi in 0..self.active_llcs.words.len() {
                // A tile's tick changes only its own membership bit.
                let mut word = self.active_llcs.words[wi];
                while word != 0 {
                    let i = (wi << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.tick_llc(i, now, &mut injections);
                }
            }
        }
        for (src, dst, msg) in injections.drain(..) {
            self.inject(src, dst, msg);
        }

        // 3. Active memory channels complete reads.
        if full_scan {
            for k in 0..self.channels.len() {
                self.tick_channel(k, now);
            }
        } else {
            for wi in 0..self.active_mems.words.len() {
                let mut word = self.active_mems.words[wi];
                while word != 0 {
                    let k = (wi << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.tick_channel(k, now);
                }
            }
        }

        // 4. The interconnect moves flits.
        self.fabric.tick();

        // 5. Deliveries resume protocol FSMs. The fabric hands back only
        // terminals that actually received packets this cycle — on a
        // 64-core chip most terminals are idle most cycles, so scanning
        // all of them was the dominant cost of this step.
        while let Some(t) = self.fabric.take_ready_terminal() {
            while let Some(delivery) = self.fabric.poll(t) {
                self.dispatch(t.index(), delivery.packet.token, now);
            }
        }

        self.inject_buf = injections;
        self.now.0 += 1;
    }

    /// Wakes every timed sleeper whose timer is at or before `now`, and
    /// makes `next_timer` the earliest timer left.
    fn wake_due_timers(&mut self, now: u64) {
        let mut next = UNTIL_FILL;
        for wi in 0..self.sleep.timed.len() {
            let mut word = self.sleep.timed[wi];
            while word != 0 {
                let slot = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let at = self.sleep.wake_at[slot];
                if at <= now {
                    self.wake_slot(slot, now);
                } else {
                    next = next.min(at);
                }
            }
        }
        self.sleep.next_timer = next;
    }

    /// Ticks the awake core in activation slot `ai`, staging its miss
    /// requests in `injections`; the fast pass puts it to sleep when its
    /// coming ticks are ones `Core::fast_forward` can stand in for.
    fn tick_core(
        &mut self,
        ai: usize,
        now: Cycle,
        full_scan: bool,
        injections: &mut Vec<(TerminalId, TerminalId, Msg)>,
    ) {
        let (c, source) = {
            let entry = &mut self.active[ai];
            (entry.0, &mut entry.1)
        };
        // Open-loop arrivals land on their schedule regardless of core
        // progress. Only a core about to consume instructions needs them
        // delivered: a sleeper's gap is caught up in this one call at its
        // wake. Gated so closed-loop runs keep the core loop as-is.
        if self.open_loop {
            if let CoreSource::OpenLoop(o) = source {
                o.advance_to(now.raw());
            }
        }
        self.req_buf.clear();
        self.core_ticks += 1;
        if full_scan {
            self.cores[c].tick_reference(now, source, &mut self.req_buf);
        } else {
            self.cores[c].tick(now, source, &mut self.req_buf);
            // Sleep when the next tick (at `now + 1`) is provably one
            // `fast_forward` can stand in for; a wake cycle of `now + 1`
            // is no sleep. A spinner's timer is the arrival cycle: that
            // tick is a real one and serves the request.
            let wake_at = match self.cores[c].idle_state(now, source) {
                CoreIdle::Busy => AWAKE,
                CoreIdle::Stalled => UNTIL_FILL,
                CoreIdle::StalledUntil(at) | CoreIdle::SpinningUntil(at) => at.raw(),
            };
            if wake_at > now.raw() + 1 {
                self.sleep.sleep(ai, wake_at, now.raw() + 1);
            }
        }
        for r in self.req_buf.drain(..) {
            let txn = TxnId(self.txns.insert((c as u16, r.line, r.kind, now)));
            let home = self.map.home_tile(r.line);
            injections.push((
                self.core_term[c],
                self.llc_term[home],
                Msg::CoreRequest {
                    txn,
                    core: CoreId(c as u16),
                    addr: r.line,
                    kind: r.kind.request(),
                },
            ));
        }
    }

    /// Ticks LLC tile `i`, staging what it emits in `injections`, and
    /// records whether it still has work.
    fn tick_llc(&mut self, i: usize, now: Cycle, injections: &mut Vec<(TerminalId, TerminalId, Msg)>) {
        self.llcs[i].tick(now);
        while let Some((to, msg)) = self.llcs[i].pop_ready() {
            let dst = match (to, msg) {
                (Dest::Core(c), _) => self.core_term[c.index()],
                (Dest::Memory, Msg::MemRead { addr, .. } | Msg::MemWrite { addr }) => {
                    self.mc_term[self.map.memory_channel(addr)]
                }
                (Dest::Memory, other) => unreachable!("{other:?} is not memory-bound"),
            };
            injections.push((self.llc_term[i], dst, msg));
        }
        self.active_llcs.set(i, self.llcs[i].has_pending_work());
    }

    /// Ticks memory channel `k`, injecting the data it completes, and
    /// records whether it still has work.
    fn tick_channel(&mut self, k: usize, now: Cycle) {
        self.channels[k].tick(now);
        while let Some(msg) = self.channels[k].pop_ready(now) {
            let Msg::MemData { home, .. } = msg else {
                unreachable!("a memory channel returns only MemData, not {msg:?}")
            };
            self.inject(self.mc_term[k], self.llc_term[home as usize], msg);
        }
        self.active_mems.set(k, self.channels[k].has_pending_work());
    }

    /// Runs `cycles` ticks, fast-forwarding through stretches where every
    /// component is provably idle: all active cores are asleep, the
    /// LLC/memory active sets hold only timed wakeups, and the fabric's
    /// only pending work sits in its event wheels. The clock then jumps
    /// to the earliest wake cycle (the sleepers simply stay asleep), so
    /// the result is bit-identical to calling [`ScaleOutChip::tick`]
    /// `cycles` times — the chip-level analogue of the network's
    /// `run_until_drained` fast-forward.
    pub fn run_for(&mut self, cycles: u64) {
        let mut remaining = cycles;
        while remaining > 0 {
            match self.skippable_cycles() {
                Some(skip) if skip > 0 => {
                    let skip = skip.min(remaining);
                    self.fabric.skip_idle(skip);
                    self.now.0 += skip;
                    self.skipped_cycles += skip;
                    remaining -= skip;
                }
                _ => {
                    self.tick();
                    remaining -= 1;
                }
            }
        }
        self.sync_sleepers();
    }

    /// How many upcoming whole-chip ticks are provably no-ops (beyond
    /// counter bumps on sleeping cores). `None` when some component needs
    /// per-cycle ticking right now — in particular whenever any core is
    /// awake, which the sleep set answers without looking at the cores.
    fn skippable_cycles(&self) -> Option<u64> {
        if self.sleep.asleep < self.active.len() {
            return None;
        }
        // `UNTIL_FILL` is `Cycle::NEVER`: sleepers without a timer wake
        // only on a fill.
        let mut wake = Cycle(self.sleep.earliest_timer().unwrap_or(UNTIL_FILL));
        for i in self.active_llcs.iter() {
            let tile = &self.llcs[i];
            // Queued inputs arbitrate for banks (and count wait cycles)
            // every cycle; only output timers are skippable.
            if tile.has_queued_input() {
                return None;
            }
            if let Some(at) = tile.next_output_at(self.now) {
                wake = wake.min(at);
            }
        }
        for k in self.active_mems.iter() {
            if let Some(at) = self.channels[k].next_wake() {
                wake = wake.min(at);
            }
        }
        match self.fabric.next_event() {
            NextEvent::EveryCycle => return None,
            NextEvent::Idle => {}
            NextEvent::At(at) => wake = wake.min(at),
        }
        // Fully quiescent (`NEVER`): nothing but stall counters would
        // ever move again, so any number of cycles may be skipped.
        Some(wake.raw().saturating_sub(self.now.raw()))
    }

    /// Pays a sleeping core the cycles `since..upto` it slept through —
    /// the only caller of `Core::fast_forward`.
    fn settle(&mut self, slot: usize, upto: u64) {
        let since = self.sleep.since[slot];
        let spinning = self.cores[self.active[slot].0].fast_forward(Cycle(since), upto - since);
        if spinning {
            self.spin_ticks += upto - since;
        }
        self.sleep.since[slot] = upto;
    }

    /// Wakes a sleeping core: settles it up to `upto` (the first cycle
    /// it will be ticked again) and returns it to the core loop.
    fn wake_slot(&mut self, slot: usize, upto: u64) {
        self.settle(slot, upto);
        self.sleep.wake(slot);
    }

    /// Settles every sleeper up to the current cycle without waking it,
    /// so the cores' counters are exact for a reader.
    fn sync_sleepers(&mut self) {
        for slot in 0..self.active.len() {
            if self.sleep.wake_at[slot] != AWAKE {
                self.settle(slot, self.now.raw());
            }
        }
        debug_assert_eq!(
            self.lost_wakeups(),
            Vec::<usize>::new(),
            "cores asleep until a fill with no transaction in flight, \
             or past the cycle their state says they wake at"
        );
    }

    /// Cores whose wake-up is lost or late, either of which would hang
    /// or delay the core silently; empty on a correct chip. Lost: asleep
    /// until a fill that nothing in flight will deliver (every L1 miss
    /// holds a `txns` entry from request to fill). Late: asleep on
    /// a timer beyond the current cycle that is not the one the core's
    /// state names — for a spinner, its source's next arrival; sleeping
    /// past that serves the request late, and every one queued behind it.
    fn lost_wakeups(&self) -> Vec<usize> {
        let mut expects_fill = vec![false; self.cores.len()];
        for (_, (core, ..)) in self.txns.iter() {
            expects_fill[*core as usize] = true;
        }
        let now = self.now.raw();
        self.active
            .iter()
            .zip(&self.sleep.wake_at)
            .filter(|((c, source), wake_at)| match **wake_at {
                UNTIL_FILL => !expects_fill[*c],
                // Awake, or woken by the coming tick whatever its state.
                at if at <= now => false,
                // A sleeper's state is as its last tick left it.
                at => !matches!(
                    self.cores[*c].idle_state(Cycle(now - 1), source),
                    CoreIdle::StalledUntil(t) | CoreIdle::SpinningUntil(t) if t.raw() == at
                ),
            })
            .map(|((c, _), _)| *c)
            .collect()
    }

    /// Core-ticks since construction, split by how they were executed
    /// (see [`CoreTickCounts`]). Takes `&mut self` to settle the
    /// sleepers first, as [`ScaleOutChip::metrics`] does, so cycles still
    /// owed are counted under the right kind of sleep.
    pub fn core_tick_counts(&mut self) -> CoreTickCounts {
        self.sync_sleepers();
        let total = self.active.len() as u64 * self.now.raw();
        CoreTickCounts {
            executed: self.core_ticks,
            slept_stalled: total - self.core_ticks - self.spin_ticks,
            slept_spinning: self.spin_ticks,
        }
    }

    /// Cycles [`ScaleOutChip::run_for`] jumped over whole — every core
    /// asleep, the uncore waiting on timers only — since construction.
    /// Observational, like [`ScaleOutChip::core_tick_counts`].
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    fn dispatch(&mut self, terminal: usize, token: u64, now: Cycle) {
        let info = self.term_info[terminal];
        let msg = self.msgs.take(token as u32);
        match msg {
            Msg::CoreRequest { .. }
            | Msg::WriteBack { .. }
            | Msg::InvAck { .. }
            | Msg::MemData { .. } => {
                let llc = info
                    .llc
                    .unwrap_or_else(|| panic!("{msg:?} must land on an LLC tile"));
                self.active_llcs.insert(llc);
                self.llcs[llc].submit(msg);
            }
            Msg::Data { txn } => {
                let (core, line, kind, born) = self.txns.take(txn.0);
                if self.record_tails {
                    self.fill_hist.record(now.raw() - born.raw());
                }
                let c = core as usize;
                debug_assert_eq!(info.core, Some(c));
                // A sleeper's tick for this cycle has already been
                // skipped: pay `since..=now` before the fill changes what
                // a stalled tick counts.
                let slot = self.sleep.slot_of[c] as usize;
                if self.sleep.wake_at[slot] != AWAKE {
                    self.wake_slot(slot, now.raw() + 1);
                }
                if kind.is_ifetch() {
                    self.cores[c].fill_ifetch(line, now);
                } else if let Some(victim) = self.cores[c].fill_data(line, now) {
                    if victim.dirty {
                        let home = self.map.home_tile(victim.addr);
                        self.inject(
                            self.core_term[c],
                            self.llc_term[home],
                            Msg::WriteBack {
                                core: CoreId(core),
                                addr: victim.addr,
                            },
                        );
                    }
                }
            }
            Msg::FwdGetS {
                txn,
                requester,
                addr,
            }
            | Msg::FwdGetX {
                txn,
                requester,
                addr,
            } => {
                let c = info.core.expect("snoop must land on a core");
                if let Msg::FwdGetS { .. } = msg {
                    self.cores[c].snoop_downgrade(addr);
                } else {
                    self.cores[c].snoop_invalidate(addr);
                }
                // The owner supplies the line straight to the requester
                // (an L1-to-L1 forward; in NOC-Out it physically transits
                // the LLC region).
                self.inject(
                    self.core_term[c],
                    self.core_term[requester.index()],
                    Msg::Data { txn },
                );
            }
            Msg::Inv { mshr, home, addr } => {
                let c = info.core.expect("invalidation must land on a core");
                self.cores[c].snoop_invalidate(addr);
                self.inject(
                    self.core_term[c],
                    self.llc_term[home as usize],
                    Msg::InvAck { mshr },
                );
            }
            Msg::MemRead { .. } | Msg::MemWrite { .. } => {
                let ch = info
                    .mem
                    .unwrap_or_else(|| panic!("{msg:?} must land on a memory channel"));
                self.active_mems.insert(ch);
                self.channels[ch].submit(msg);
            }
        }
    }

    /// Resets all statistics at the warmup/measurement boundary.
    pub fn reset_stats(&mut self) {
        self.sync_sleepers();
        for (c, _) in &self.active {
            self.cores[*c].reset_stats(self.now);
        }
        for (_, src) in &mut self.active {
            if let CoreSource::OpenLoop(o) = src {
                o.reset_stats();
            }
        }
        for llc in &mut self.llcs {
            llc.stats.reset();
        }
        for ch in &mut self.channels {
            ch.reads.reset();
            ch.writes.reset();
        }
        self.fill_hist.reset();
        self.fabric.reset_stats();
    }

    /// Enables or disables every service-level latency recorder in one
    /// call (default on): block fetch-to-retire per core, LLC miss-to-fill
    /// per tile, and the chip-level end-to-end fill histogram. Recording
    /// is strictly observational — the lockstep test in
    /// `tests/chip_event_determinism.rs` proves a recording run and a
    /// non-recording run produce bit-identical legacy metrics. The NoC's
    /// per-class packet histograms record unconditionally (they share the
    /// delivery bookkeeping that always runs); open-loop request latency
    /// is workload semantics, not observation, so it is not gated either.
    pub fn set_tail_recording(&mut self, on: bool) {
        self.record_tails = on;
        for core in &mut self.cores {
            core.set_tail_recording(on);
        }
        for llc in &mut self.llcs {
            llc.set_tail_recording(on);
        }
    }

    /// Collects the metrics accumulated since the last reset (`&mut`:
    /// sleeping cores are first paid the cycles they are owed).
    pub fn metrics(&mut self) -> SystemMetrics {
        self.sync_sleepers();
        let mut per_core_ipc = vec![0.0; self.cores.len()];
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        let mut fetch_stall = 0u64;
        let mut core_cycles = 0u64;
        let mut ifetch_fill_wait_cycles = 0u64;
        let mut block_hist = LatencyHist::new();
        let mut request_hist = LatencyHist::new();
        for (c, src) in &self.active {
            let s = &self.cores[*c].stats;
            per_core_ipc[*c] = s.ipc();
            instructions += s.retired.value();
            cycles = cycles.max(s.cycles.value());
            fetch_stall += s.fetch_stall_cycles.value();
            core_cycles += s.cycles.value();
            ifetch_fill_wait_cycles += s.ifetch_fill_wait_cycles.value();
            block_hist.merge(&s.block_latency);
            if let CoreSource::OpenLoop(o) = src {
                request_hist.merge(o.hist());
            }
        }
        let mut llc = LlcSummary::default();
        let mut llc_miss_hist = LatencyHist::new();
        for tile in &self.llcs {
            llc.accesses += tile.stats.accesses.value();
            llc.hits += tile.stats.hits.value();
            llc.misses += tile.stats.misses.value();
            llc.snoops_sent += tile.stats.snoops_sent.value();
            llc.snooping_accesses += tile.stats.snooping_accesses.value();
            llc.writebacks += tile.stats.writebacks.value();
            llc_miss_hist.merge(&tile.stats.miss_latency);
        }
        let ns = self.fabric.stats();
        let mut net_hist = LatencyHist::new();
        ns.tail_hists.iter().for_each(|h| net_hist.merge(h));
        let network = NetSummary {
            packets: ns.packets_delivered.value(),
            mean_latency: ns.mean_latency(),
            mean_request_latency: ns.mean_class_latency(MessageClass::Request),
            mean_response_latency: ns.mean_class_latency(MessageClass::Response),
            p50_latency: net_hist.percentile(0.5),
            p99_latency: net_hist.percentile(0.99),
            flit_mm: ns.flit_mm,
            buffer_writes: ns.buffer_writes.value(),
            // Every flit hop reads one buffer and crosses one crossbar.
            buffer_reads: ns.flit_hops.value(),
            xbar_traversals: ns.flit_hops.value(),
            request_tail: TailSummary::of(ns.class_tail(MessageClass::Request)),
            snoop_tail: TailSummary::of(ns.class_tail(MessageClass::Snoop)),
            response_tail: TailSummary::of(ns.class_tail(MessageClass::Response)),
        };
        let mut memory = MemSummary::default();
        for ch in &self.channels {
            memory.reads += ch.reads.value();
            memory.writes += ch.writes.value();
        }
        SystemMetrics {
            per_core_ipc,
            active_cores: self.active.len(),
            cycles,
            instructions,
            fetch_stall_fraction: if core_cycles == 0 {
                0.0
            } else {
                fetch_stall as f64 / core_cycles as f64
            },
            llc,
            network,
            memory,
            ifetch_fill_wait_cycles,
            block_latency: TailSummary::of(&block_hist),
            fill_latency: TailSummary::of(&self.fill_hist),
            llc_miss_latency: TailSummary::of(&llc_miss_hist),
            request_latency: TailSummary::of(&request_hist),
        }
    }
}

/// Captures `workload`'s synthetic streams for the cores `cfg` would
/// activate into a trace directory: one `core-NNN.nctrace` stream per
/// activation slot, each `instrs_per_core` instructions long, recorded
/// from a fresh [`WorkloadGen`] for the slot's physical core. Replaying
/// the returned [`TraceSet`] on the same `cfg` therefore drives the
/// identical cores with the identical streams — bit-identical chip
/// metrics, as long as the capture covers every instruction the run
/// consumes (see [`trace_capture_len`]).
///
/// Pre-existing stream files in `dir` are removed first, so a shorter
/// re-capture cannot leave stale extra streams behind.
pub fn capture_synthetic_trace(
    cfg: ChipConfig,
    workload: Workload,
    seed: u64,
    dir: &std::path::Path,
    instrs_per_core: u64,
) -> std::io::Result<Arc<TraceSet>> {
    let profile = workload.profile();
    // The same activation order and count `ScaleOutChip::new` would use
    // for this synthetic class — computed from the fabric build alone,
    // without constructing (and cache-warming) a throwaway chip.
    let (_, _, _, _, active_order) = build_fabric(&cfg);
    let n_active = cfg
        .active_core_override
        .unwrap_or_else(|| profile.active_cores(cfg.cores))
        .min(cfg.cores);
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(TRACE_SUFFIX))
        {
            std::fs::remove_file(path)?;
        }
    }
    let hot_zipf = profile.hot_zipf();
    for (slot, c) in active_order[..n_active].iter().copied().enumerate() {
        let mut gen = WorkloadGen::with_zipf(profile, c as u16, seed, Arc::clone(&hot_zipf));
        let path = dir.join(format!("core-{slot:03}{TRACE_SUFFIX}"));
        let mut w = TraceWriter::create(path, TraceHeader::for_profile(&profile, c as u32, seed))?;
        w.capture(&mut gen, instrs_per_core)?;
        w.finish()?;
    }
    TraceSet::load(dir)
}

/// Instructions per core a capture must record so a run over `window`
/// cycles replays bit-identically: the dispatch width bounds per-cycle
/// consumption, and one block of prefetch headroom keeps the replay from
/// wrapping into the looped stream while the run is still consuming
/// fresh instructions.
pub fn trace_capture_len(window: &nocout_sim::config::MeasurementWindow) -> u64 {
    let width = CoreConfig::a15().width as u64;
    (window.total_cycles() + 2) * width + nocout_cpu::source::BLOCK_CAP as u64
}

/// Tile indices ordered centre-out: the paper runs 16-core workloads on
/// the 16 tiles in the centre of the tiled die (§5.3).
fn center_first_order(cols: usize, rows: usize) -> Vec<usize> {
    let cx = (cols as f64 - 1.0) / 2.0;
    let cy = (rows as f64 - 1.0) / 2.0;
    let mut order: Vec<usize> = (0..cols * rows).collect();
    order.sort_by(|&a, &b| {
        let da = ((a % cols) as f64 - cx).powi(2) + ((a / cols) as f64 - cy).powi(2);
        let db = ((b % cols) as f64 - cx).powi(2) + ((b / cols) as f64 - cy).powi(2);
        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cycles(chip: &mut ScaleOutChip, n: u64) {
        for _ in 0..n {
            chip.tick();
        }
    }

    #[test]
    fn center_order_prefers_middle_tiles() {
        let order = center_first_order(8, 8);
        let center16: Vec<usize> = order[..16].to_vec();
        for &tile in &center16 {
            let (c, r) = (tile % 8, tile / 8);
            assert!((2..=5).contains(&c) && (2..=5).contains(&r), "tile {tile}");
        }
    }

    #[test]
    fn mesh_chip_makes_progress() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::MapReduceC,
            1,
        );
        run_cycles(&mut chip, 3000);
        let m = chip.metrics();
        assert!(m.instructions > 1000, "retired {}", m.instructions);
        assert!(m.llc.accesses > 0);
        assert!(m.network.packets > 0);
    }

    #[test]
    fn nocout_chip_makes_progress() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::NocOut),
            Workload::MapReduceC,
            1,
        );
        run_cycles(&mut chip, 3000);
        assert!(chip.metrics().instructions > 1000);
    }

    #[test]
    fn analytic_fabrics_run() {
        for org in [Organization::IdealWire, Organization::ZeroLoadMesh] {
            let mut chip = ScaleOutChip::new(
                ChipConfig::with_cores(org, 4),
                Workload::DataServing,
                3,
            );
            run_cycles(&mut chip, 2000);
            assert!(chip.metrics().instructions > 100, "{org}");
        }
    }

    #[test]
    fn sixteen_core_workload_activates_sixteen() {
        let chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::NocOut),
            Workload::WebSearch,
            1,
        );
        assert_eq!(chip.active_cores(), 16);
    }

    #[test]
    fn memory_traffic_flows() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::DataServing,
            7,
        );
        run_cycles(&mut chip, 5000);
        let m = chip.metrics();
        assert!(m.memory.reads > 0, "vast dataset must reach memory");
        assert!(m.llc.misses > 0);
    }

    #[test]
    fn snoops_occur_but_rarely() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::SatSolver,
            5,
        );
        run_cycles(&mut chip, 20_000);
        let m = chip.metrics();
        assert!(m.llc.snoops_sent > 0, "sharing must produce some snoops");
        assert!(
            m.llc.snoop_percent() < 10.0,
            "but rarely: {:.1}%",
            m.llc.snoop_percent()
        );
    }

    #[test]
    fn reset_clears_window() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::MapReduceW,
            2,
        );
        run_cycles(&mut chip, 1000);
        chip.reset_stats();
        let m = chip.metrics();
        assert_eq!(m.instructions, 0);
        run_cycles(&mut chip, 1000);
        assert!(chip.metrics().instructions > 0);
    }

    #[test]
    fn no_transaction_leaks_over_long_run() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::NocOut),
            Workload::WebFrontend,
            9,
        );
        chip.run_for(10_000);
        // In-flight transactions stay bounded by cores × (MSHRs + fetch).
        assert!(
            chip.inflight_transactions() <= 16 * 10,
            "{} transactions leaked",
            chip.inflight_transactions()
        );
        // ...and every core asleep until a fill has one coming.
        let slept = chip.core_tick_counts().slept_stalled;
        assert!(slept > 0, "the run must have put cores to sleep");
        assert_eq!(chip.lost_wakeups(), Vec::<usize>::new());
    }

    #[test]
    fn lost_wakeup_guard_names_the_stranded_core() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::DataServing,
            3,
        );
        // Run until some core sleeps with no timer.
        let slot = loop {
            chip.tick();
            if let Some(slot) = chip.sleep.wake_at.iter().position(|w| *w == UNTIL_FILL) {
                break slot;
            }
        };
        let core = chip.active[slot].0;
        assert_eq!(chip.lost_wakeups(), Vec::<usize>::new());
        // Lose its fills: drop every transaction it has in flight.
        let doomed: Vec<u32> = chip
            .txns
            .iter()
            .filter(|(_, e)| e.0 as usize == core)
            .map(|(id, _)| id)
            .collect();
        assert!(!doomed.is_empty());
        for id in doomed {
            chip.txns.take(id);
        }
        assert_eq!(chip.lost_wakeups(), vec![core]);
    }

    #[test]
    fn lost_wakeup_guard_names_the_core_that_oversleeps_an_arrival() {
        let spec = nocout_workloads::OpenLoopSpec {
            workload: Workload::DataServing,
            interval: 1_600,
            service_instrs: 32,
        };
        let mut chip = ScaleOutChip::new(ChipConfig::paper(Organization::Mesh), spec, 3);
        // Run until some core spins towards the next arrival.
        let slot = loop {
            chip.tick();
            let spinner = (0..chip.active.len()).find(|&slot| {
                chip.sleep.wake_at[slot] != AWAKE && chip.active[slot].1.idle_until().is_some()
            });
            if let Some(slot) = spinner {
                break slot;
            }
        };
        let (core, arrival) = (chip.active[slot].0, chip.sleep.wake_at[slot]);
        assert_eq!(arrival % spec.interval, 0, "the timer is the arrival cycle");
        chip.sync_sleepers();
        // Forge a timer one cycle past the arrival: the request would be
        // picked up late, and every later one behind it.
        chip.sleep.wake_at[slot] = arrival + 1;
        assert_eq!(chip.lost_wakeups(), vec![core]);
    }
}
