//! LLC tile controller: banked NUCA slice + directory + protocol engine.
//!
//! One `LlcTile` models a slice of the shared last-level cache together
//! with its co-located directory slice. It speaks the network's own
//! vocabulary, [`Msg`]: the four LLC-bound messages the network delivers
//! (`CoreRequest`, `WriteBack`, `InvAck`, `MemData`) enter
//! [`LlcTile::submit`], which refuses any other; each cycle
//! [`LlcTile::tick`] grants requests to free banks (internal banking per
//! §4.3 — NOC-Out uses 2 banks per tile so bank contention is visible,
//! the effect the paper credits for NOC-Out's small Data Serving loss);
//! the messages a tile sends wait out the access latency on the shared
//! calendar wheel ([`nocout_sim::wheel::EventWheel`]) and surface through
//! [`LlcTile::pop_ready`] as `(Dest, Msg)` pairs, ready for the chip
//! model to inject.
//!
//! Simplification: when a fetch or invalidation collection completes, its
//! merged waiters decide the line's directory state together. A single
//! GetX waiter leaves its core the exclusive owner; any other set,
//! including a mix of GetS and GetX waiters, completes as shared, every
//! waiter a sharer. It is a timing-model simplification: every waiter
//! gets its `Data` at once, and the writers in a mixed set are not
//! serialised against each other or the readers.
//!
//! Two more simplifications make the directory track more than the L1s
//! hold. A clean L1 victim leaves silently: the chip sends a `WriteBack`
//! only for a dirty one, so the directory keeps the core as a sharer
//! until an `Inv` or an eviction clears it. And an LLC eviction drops the
//! line's directory state without invalidating the L1 copies (no
//! back-invalidation), so an L1 can hold a line its tile no longer
//! tracks. Directory sharers are therefore not a subset of L1 contents,
//! and directory population is bounded by the slice's ways, not by L1
//! capacity. What holds is inclusion the other way: every tracked line is
//! in its way of the slice ([`LlcSlice`]) or in its short side list. A
//! line enters the side list only when an ack collection completes after
//! the line was evicted: the requester's state waits there for the line's
//! next fill.

use crate::addr::Addr;
use crate::cache::{CacheGeometry, Lookup};
use crate::directory::{DirState, LlcSlice, SharerSet};
use crate::mshr::MshrFile;
use crate::protocol::{CoreId, Msg, MshrId, RequestKind, TxnId};
use nocout_sim::ring::Ring;
use nocout_sim::stats::{Counter, LatencyHist};
use nocout_sim::wheel::EventWheel;
use nocout_sim::Cycle;

/// Configuration of one LLC tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Slice capacity in bytes.
    pub slice_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Internal banks sharing the tile's network port.
    pub banks: usize,
    /// Tag + data access latency in cycles.
    pub access_latency: u64,
    /// Cycles a bank stays busy per access (throughput bound).
    pub bank_occupancy: u64,
    /// In-flight memory fetches / invalidation collections the tile's MSHR
    /// file is sized for (a sizing hint: the tile never refuses a request,
    /// so the file grows past it instead).
    pub mshr_capacity: usize,
    /// This tile's index within the NUCA interleave (see `tile_stride`).
    pub tile_index: usize,
    /// Total number of LLC tiles in the interleave. Lines are distributed
    /// round-robin by line index, so a slice holds lines with
    /// `line % tile_stride == tile_index`; set indexing inside the slice
    /// uses `line / tile_stride` to avoid aliasing all of a tile's lines
    /// into a fraction of its sets.
    pub tile_stride: usize,
}

impl LlcConfig {
    /// A tiled-CMP slice: 8 MB / 64 tiles = 128 KB, single bank.
    pub fn tiled_slice() -> Self {
        LlcConfig {
            slice_bytes: 128 * 1024,
            ways: 16,
            banks: 1,
            access_latency: 5,
            bank_occupancy: 2,
            mshr_capacity: 16,
            tile_index: 0,
            tile_stride: 1,
        }
    }

    /// Places the tile within the NUCA interleave.
    pub fn at_position(mut self, tile_index: usize, tile_stride: usize) -> Self {
        assert!(tile_stride > 0 && tile_index < tile_stride);
        self.tile_index = tile_index;
        self.tile_stride = tile_stride;
        self
    }

    /// A NOC-Out tile: 1 MB with two internal banks (§5.1).
    pub fn nocout_tile() -> Self {
        LlcConfig {
            slice_bytes: 1024 * 1024,
            ways: 16,
            banks: 2,
            access_latency: 5,
            // A 512 KB bank cycles slower than a tiled design's 128 KB
            // slice (CACTI); this occupancy is what surfaces the bank
            // contention the paper blames for NOC-Out's small Data
            // Serving loss.
            bank_occupancy: 4,
            mshr_capacity: 32,
            tile_index: 0,
            tile_stride: 1,
        }
    }
}

/// Where a message an LLC tile emits goes: a core, or the memory
/// channel that owns the message's line (the chip model picks the
/// channel from the address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// A core: the requester of `Data`, the owner of `FwdGetS` /
    /// `FwdGetX`, the sharer of `Inv`.
    Core(CoreId),
    /// Memory: `MemRead` and `MemWrite`.
    Memory,
}

/// A request merged into an in-flight MSHR, replayed on completion.
///
/// # Examples
///
/// A tile's MSHR file never refuses a request: past its nominal capacity
/// it grows, and an id from a released entry resolves to nothing.
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::llc::LlcWaiter;
/// use nocout_mem::mshr::MshrFile;
/// use nocout_mem::protocol::{CoreId, RequestKind, TxnId};
///
/// // Waiters are tile requests; the record here is a pending-ack count.
/// let mut file: MshrFile<LlcWaiter, u32> = MshrFile::new(1);
/// let line = Addr(0x40).line_index();
/// let id = file.alloc(line, 2, (TxnId(1), CoreId(0), RequestKind::GetS));
/// file.alloc(line + 1, 0, (TxnId(2), CoreId(1), RequestKind::GetX));
/// assert_eq!(file.capacity(), 2, "a full tile file grows");
/// assert_eq!(file.lookup(line), Some(id));
/// let mut waiters = Vec::new();
/// assert_eq!(file.release(id, &mut waiters), (line, 2));
/// assert_eq!(waiters, vec![(TxnId(1), CoreId(0), RequestKind::GetS)]);
/// assert!(file.get_mut(id).is_none(), "stale id is ignored");
/// ```
pub type LlcWaiter = (TxnId, CoreId, RequestKind);

/// A tile MSHR's record: what the collection or fetch still waits for.
#[derive(Debug, Clone, Copy)]
struct TileEntry {
    pending_acks: u32,
    pending_mem: bool,
    /// Allocation cycle of a memory-bound entry while tails are recorded,
    /// for [`LlcStats::miss_latency`].
    born: Option<Cycle>,
}

/// Statistics for one LLC tile.
#[derive(Debug, Default)]
pub struct LlcStats {
    /// Core requests processed (the denominator of Fig. 4).
    pub accesses: Counter,
    /// Requests satisfied from the slice (or by owner forwarding).
    pub hits: Counter,
    /// Requests that went to memory.
    pub misses: Counter,
    /// Snoop messages sent (FwdGetS + FwdGetX + Inv).
    pub snoops_sent: Counter,
    /// Core requests that triggered at least one snoop — Fig. 4's
    /// numerator ("LLC accesses causing a snoop message to be sent").
    pub snooping_accesses: Counter,
    /// Writebacks received from cores.
    pub writebacks: Counter,
    /// Cycles any request waited because all banks were busy, summed.
    pub bank_wait_cycles: Counter,
    /// Miss-to-fill latency per memory-bound MSHR: allocation of an MSHR
    /// with a pending memory fetch to the cycle its waiters' data is
    /// emitted. Observational only (see `docs/service-level-metrics.md`).
    pub miss_latency: LatencyHist,
}

impl LlcStats {
    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = LlcStats::default();
    }
}

/// One LLC tile: banked cache slice, directory slice and protocol engine.
///
/// # Examples
///
/// A GetS that misses goes to memory and returns data to the requester:
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::llc::{Dest, LlcConfig, LlcTile};
/// use nocout_mem::protocol::{CoreId, Msg, RequestKind, TxnId};
/// use nocout_sim::Cycle;
///
/// let mut tile = LlcTile::new(LlcConfig::nocout_tile());
/// tile.submit(Msg::CoreRequest {
///     txn: TxnId(1), core: CoreId(0), addr: Addr(0x40),
///     kind: RequestKind::GetS,
/// });
/// let mut now = Cycle(0);
/// let (mshr, home) = loop {
///     tile.tick(now);
///     if let Some((Dest::Memory, Msg::MemRead { mshr, home, .. })) = tile.pop_ready() {
///         break (mshr, home);
///     }
///     now += 1;
///     assert!(now.raw() < 100);
/// };
/// tile.submit(Msg::MemData { mshr, home });
/// let data = loop {
///     tile.tick(now);
///     if let Some((Dest::Core(to), Msg::Data { txn })) = tile.pop_ready() {
///         break (txn, to);
///     }
///     now += 1;
///     assert!(now.raw() < 200);
/// };
/// assert_eq!(data, (TxnId(1), CoreId(0)));
/// ```
#[derive(Debug)]
pub struct LlcTile {
    cfg: LlcConfig,
    /// The slice's tags with the directory state in their ways; indexed
    /// by slice-local address.
    slice: LlcSlice,
    banks: Vec<Cycle>,
    queue: Ring<Msg>,
    /// In-flight fetches and invalidation collections; their ids travel
    /// through the network in [`Msg::Inv`] / [`Msg::MemRead`] and come
    /// back in [`Msg::InvAck`] / [`Msg::MemData`].
    mshrs: MshrFile<LlcWaiter, TileEntry>,
    /// Emitted outputs waiting out their latency, keyed by due cycle.
    out: EventWheel<(Dest, Msg)>,
    /// Outputs due by the latest tick, in `(due cycle, emission)` order.
    ready: Ring<(Dest, Msg)>,
    due_scratch: Vec<(Dest, Msg)>,
    /// The cycle of the latest [`LlcTile::tick`]: the wheel's `now` for
    /// emissions, and where the skipped-tick check starts.
    last_tick: Cycle,
    waiter_scratch: Vec<LlcWaiter>,
    /// Whether miss-to-fill latencies are recorded into
    /// [`LlcStats::miss_latency`]. Observational only.
    record_tails: bool,
    /// Tile statistics.
    pub stats: LlcStats,
}

impl LlcTile {
    /// Creates a tile.
    pub fn new(cfg: LlcConfig) -> Self {
        let geometry = CacheGeometry {
            capacity_bytes: cfg.slice_bytes,
            ways: cfg.ways,
            line_bytes: 64,
        };
        LlcTile {
            cfg,
            slice: LlcSlice::new(geometry),
            banks: vec![Cycle::ZERO; cfg.banks],
            // Sized by the tile's in-flight bound: one queued request per
            // MSHR plus a same-cycle burst of acks/writebacks.
            queue: Ring::with_capacity(2 * cfg.mshr_capacity.max(8)),
            mshrs: MshrFile::new(cfg.mshr_capacity),
            // Emissions land at most `max(access_latency, 1)` cycles out.
            out: EventWheel::with_slots(cfg.access_latency as usize + 2),
            ready: Ring::with_capacity(8),
            due_scratch: Vec::new(),
            last_tick: Cycle::ZERO,
            waiter_scratch: Vec::new(),
            record_tails: true,
            stats: LlcStats::default(),
        }
    }

    /// Enables or disables miss-to-fill latency recording (default on).
    /// Observational: toggling changes no protocol state or event timing,
    /// only whether [`LlcStats::miss_latency`] fills in.
    pub fn set_tail_recording(&mut self, on: bool) {
        self.record_tails = on;
    }

    /// The configuration.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// Maps a chip address to this slice's local tag-array address.
    #[inline]
    fn slice_addr(&self, addr: Addr) -> Addr {
        Addr::from_line_index(addr.line_index() / self.cfg.tile_stride as u64)
    }

    /// Maps a slice-local victim address back to the chip address space.
    #[inline]
    fn chip_addr(&self, slice: Addr) -> Addr {
        Addr::from_line_index(
            slice.line_index() * self.cfg.tile_stride as u64 + self.cfg.tile_index as u64,
        )
    }

    /// Installs a line without timing effects or directory state
    /// (checkpoint-style warming of LLC-resident content such as the
    /// instruction footprint, mirroring the paper's warmed checkpoints).
    pub fn warm(&mut self, addr: Addr) {
        let slice = self.slice_addr(addr);
        let _ = self.slice.install(slice, false);
    }

    /// [`LlcTile::warm`] for whole runs of this tile's lines, on a tile
    /// that has seen no access yet: each `(first, count)` names `count`
    /// lines homed here starting at chip address `first` — `tile_stride`
    /// apart on the chip, consecutive inside the slice. Runs must not
    /// overlap (see [`crate::cache::CacheArray::warm_fill`]).
    pub fn warm_fill(&mut self, runs: &[(Addr, u64)]) {
        let stride = self.cfg.tile_stride as u64;
        let local: Vec<(u64, u64)> = runs
            .iter()
            .map(|&(first, count)| {
                debug_assert_eq!(first.line_index() % stride, self.cfg.tile_index as u64);
                (self.slice_addr(first).line_index(), count)
            })
            .collect();
        self.slice.warm_fill(&local);
    }

    /// Queues incoming work (called by the chip model on packet delivery).
    ///
    /// # Panics
    ///
    /// On any message but the four a tile serves: `CoreRequest`,
    /// `WriteBack`, `InvAck` and `MemData`. The panic names the message.
    pub fn submit(&mut self, msg: Msg) {
        assert!(
            matches!(
                msg,
                Msg::CoreRequest { .. }
                    | Msg::WriteBack { .. }
                    | Msg::InvAck { .. }
                    | Msg::MemData { .. }
            ),
            "an LLC tile serves CoreRequest, WriteBack, InvAck and MemData, not {msg:?}"
        );
        self.queue.push_back(msg);
    }

    /// Outstanding queued inputs plus in-flight MSHRs (drain check).
    pub fn inflight(&self) -> usize {
        self.queue.len() + self.mshrs.len()
    }

    /// Whether the tile needs servicing at all: queued inputs waiting for
    /// a bank grant, or emitted outputs waiting to be popped. MSHRs parked
    /// on external events (memory data, invalidation acks) do *not* count —
    /// they resume via [`LlcTile::submit`], which re-activates the tile.
    /// This is the membership rule for the chip model's active set.
    pub fn has_pending_work(&self) -> bool {
        !self.queue.is_empty() || self.out.pending() > 0 || !self.ready.is_empty()
    }

    /// Whether any input is queued. A tile with queued inputs must be
    /// ticked every cycle (bank arbitration and its wait statistics are
    /// per-cycle); a tile without them is inert between emitted-output
    /// ready times.
    pub fn has_queued_input(&self) -> bool {
        !self.queue.is_empty()
    }

    /// The ready cycle of the earliest emitted output still queued, if
    /// any, for a caller whose next tick is `now`: `now` itself while a
    /// ready output waits to be popped. With an empty input queue this is
    /// the tile's only upcoming event, which is what the chip-level
    /// fast-forward jumps to.
    pub fn next_output_at(&self, now: Cycle) -> Option<Cycle> {
        if !self.ready.is_empty() {
            return Some(now);
        }
        self.out.next_occupied_delta(now).map(|d| now + d)
    }

    fn emit(&mut self, at: Cycle, to: Dest, msg: Msg) {
        self.out.push(self.last_tick, at, (to, msg));
    }

    /// Pops the next message whose latency has elapsed by the latest
    /// tick, with where it goes.
    pub fn pop_ready(&mut self) -> Option<(Dest, Msg)> {
        self.ready.pop_front()
    }

    /// Advances the tile: grants queued inputs to free banks, then moves
    /// the outputs due at `now` to the queue [`LlcTile::pop_ready`] serves.
    /// The tile must be ticked at every cycle an output comes due (the
    /// wheel would hand a skipped cycle's outputs out one wrap late);
    /// debug builds check it.
    pub fn tick(&mut self, now: Cycle) {
        let next = self.last_tick + 1;
        debug_assert!(
            self.out
                .next_occupied_delta(next)
                .is_none_or(|d| next + d >= now),
            "an LLC output came due in a cycle the tile was not ticked"
        );
        self.last_tick = now;
        // InvAcks and directory-only work bypass the banks; bank-bound work
        // is granted in order, one per free bank per cycle. Ungranted
        // entries are compacted forward in place (read cursor `r`, write
        // cursor `w`) instead of the old `VecDeque::remove` mid-scan; the
        // examined set, its order, and the per-entry bank-wait charging are
        // identical — in particular, once every bank is granted the
        // unexamined tail takes no wait charge this cycle.
        let mut grants = 0usize;
        let n = self.queue.len();
        let mut r = 0usize;
        let mut w = 0usize;
        while r < n && grants < self.cfg.banks {
            let input = self.queue.get(r);
            r += 1;
            let consumed = match input {
                Msg::InvAck { mshr } => {
                    self.handle_inv_ack(mshr, now);
                    true
                }
                Msg::CoreRequest {
                    txn,
                    core,
                    addr,
                    kind,
                } => self
                    .grant_bank(addr, now, &mut grants)
                    .map(|done| self.handle_core(txn, core, addr, kind, done))
                    .is_some(),
                Msg::WriteBack { core, addr } => self
                    .grant_bank(addr, now, &mut grants)
                    .map(|done| self.handle_writeback(core, addr, done))
                    .is_some(),
                Msg::MemData { mshr, .. } => match self.mshrs.get_mut(mshr) {
                    // Should not happen; drop defensively.
                    None => true,
                    Some((line_index, _)) => {
                        let addr = Addr::from_line_index(line_index);
                        self.grant_bank(addr, now, &mut grants)
                            .map(|done| self.handle_mem_data(mshr, addr, done))
                            .is_some()
                    }
                },
                _ => unreachable!("`submit` admits only LLC-bound messages"),
            };
            if !consumed {
                if w != r - 1 {
                    self.queue.set(w, input);
                }
                w += 1;
            }
        }
        if w != r {
            // Shift the unexamined tail down over the consumed prefix.
            while r < n {
                let v = self.queue.get(r);
                self.queue.set(w, v);
                r += 1;
                w += 1;
            }
            self.queue.truncate(w);
        }
        self.out.drain_into(now, &mut self.due_scratch);
        for &out in &self.due_scratch {
            self.ready.push_back(out);
        }
    }

    /// The one bank grant of `CoreRequest`, `WriteBack` and `MemData`:
    /// occupies `addr`'s bank if it is free at `now`, counting the grant
    /// in `grants`, and returns the cycle the access completes; a busy
    /// bank charges the input a wait cycle instead.
    fn grant_bank(&mut self, addr: Addr, now: Cycle, grants: &mut usize) -> Option<Cycle> {
        // Bank selection must use the slice-local index: the chip-level
        // low line bits are constant within a tile (they select the tile).
        let bank = (self.slice_addr(addr).line_index() as usize) % self.cfg.banks;
        if self.banks[bank] <= now {
            self.banks[bank] = now + self.cfg.bank_occupancy;
            *grants += 1;
            Some(now + self.cfg.access_latency)
        } else {
            self.stats.bank_wait_cycles.incr();
            None
        }
    }

    fn handle_core(&mut self, txn: TxnId, core: CoreId, addr: Addr, kind: RequestKind, done: Cycle) {
        self.stats.accesses.incr();
        let line = addr.line();

        // A fetch/collection already in flight for this line: piggyback.
        if self.mshrs.merge(line.line_index(), (txn, core, kind)).is_some() {
            return;
        }

        // Directory first: an exclusive owner elsewhere means forwarding,
        // regardless of whether our data copy is current. The line is
        // resolved to its way once; state, recency and the directory
        // update below all use that one set scan.
        let at = self.slice.locate(self.slice_addr(line));
        let state = self.slice.state_at(at);
        if let Some(DirState::Exclusive(owner)) = state {
            if owner != core {
                self.stats.snoops_sent.incr();
                self.stats.snooping_accesses.incr();
                self.stats.hits.incr();
                match kind {
                    RequestKind::GetS => {
                        self.slice.add_sharer_at(at, core);
                        self.emit(
                            done,
                            Dest::Core(owner),
                            Msg::FwdGetS {
                                txn,
                                requester: core,
                                addr: line,
                            },
                        );
                    }
                    RequestKind::GetX => {
                        self.slice.set_exclusive_at(at, core);
                        self.emit(
                            done,
                            Dest::Core(owner),
                            Msg::FwdGetX {
                                txn,
                                requester: core,
                                addr: line,
                            },
                        );
                    }
                }
                return;
            }
        }

        // Invalidations needed for a write to a shared line: every sharer
        // but the writer. They are emitted below, once the MSHR collecting
        // their acks exists.
        let mut inv_targets = SharerSet::empty();
        if let (RequestKind::GetX, Some(DirState::Shared(sharers))) = (kind, state) {
            inv_targets = sharers;
            inv_targets.remove(core);
        }
        let pending_acks = inv_targets.count();
        self.stats.snoops_sent.add(pending_acks as u64);

        let hit = self.slice.lookup_at(at) == Lookup::Hit;
        if hit && pending_acks == 0 {
            self.stats.hits.incr();
            match kind {
                RequestKind::GetS => self.slice.add_sharer_at(at, core),
                RequestKind::GetX => self.slice.set_exclusive_at(at, core),
            }
            self.emit(done, Dest::Core(core), Msg::Data { txn });
            return;
        }

        // Slow path: memory fetch and/or ack collection.
        if !hit {
            self.stats.misses.incr();
        } else {
            self.stats.hits.incr();
        }
        let entry = TileEntry {
            pending_acks,
            pending_mem: !hit,
            born: (!hit && self.record_tails).then_some(done),
        };
        let mid = self.mshrs.alloc(line.line_index(), entry, (txn, core, kind));
        if pending_acks > 0 {
            self.stats.snooping_accesses.incr();
            for sharer in inv_targets.iter() {
                self.emit(
                    done,
                    Dest::Core(sharer),
                    Msg::Inv {
                        mshr: mid,
                        home: self.cfg.tile_index as u16,
                        addr: line,
                    },
                );
            }
        }
        if !hit {
            self.emit(
                done,
                Dest::Memory,
                Msg::MemRead {
                    mshr: mid,
                    home: self.cfg.tile_index as u16,
                    addr: line,
                },
            );
        }
    }

    fn handle_writeback(&mut self, core: CoreId, addr: Addr, done: Cycle) {
        self.stats.writebacks.incr();
        let slice = self.slice_addr(addr.line());
        let at = self.slice.locate(slice);
        self.slice.remove_core_at(at, core);
        if !self.slice.mark_dirty_at(at) {
            // Line was evicted from the LLC meanwhile: re-install it dirty.
            self.install(slice, true, done);
        }
    }

    /// Installs the slice-local line `slice`, clean or `dirty`. The
    /// victim, if any, leaves the directory with its way, and a dirty one
    /// is written back to memory at `done`.
    fn install(&mut self, slice: Addr, dirty: bool, done: Cycle) {
        if let Some(victim) = self.slice.install(slice, dirty) {
            if victim.dirty {
                let addr = self.chip_addr(victim.addr);
                self.emit(done, Dest::Memory, Msg::MemWrite { addr });
            }
        }
    }

    fn handle_inv_ack(&mut self, mshr: MshrId, now: Cycle) {
        let Some((_, e)) = self.mshrs.get_mut(mshr) else {
            return;
        };
        debug_assert!(e.pending_acks > 0);
        e.pending_acks -= 1;
        if e.pending_acks == 0 && !e.pending_mem {
            self.complete_mshr(mshr, now + 1);
        }
    }

    fn handle_mem_data(&mut self, mshr: MshrId, line: Addr, done: Cycle) {
        let (_, e) = self.mshrs.get_mut(mshr).expect("granted MemData is live");
        e.pending_mem = false;
        let finished = e.pending_acks == 0;
        self.install(self.slice_addr(line), false, done);
        if finished {
            self.complete_mshr(mshr, done);
        }
    }

    fn complete_mshr(&mut self, mshr: MshrId, at: Cycle) {
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        waiters.clear();
        let (line_index, e) = self.mshrs.release(mshr, &mut waiters);
        let line = self
            .slice
            .locate(self.slice_addr(Addr::from_line_index(line_index)));
        if let Some(born) = e.born {
            self.stats.miss_latency.record(at - born);
        }
        let any_write = waiters.iter().any(|&(_, _, k)| k == RequestKind::GetX);
        for &(txn, core, _) in &waiters {
            self.emit(at, Dest::Core(core), Msg::Data { txn });
        }
        // Final directory state: single writer becomes exclusive; otherwise
        // everyone is a sharer (mixed waiter sets complete as shared; see
        // the module doc).
        if any_write && waiters.len() == 1 {
            self.slice.set_exclusive_at(line, waiters[0].1);
        } else {
            for &(_, core, _) in &waiters {
                self.slice.add_sharer_at(line, core);
            }
        }
        self.waiter_scratch = waiters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until<F: FnMut(&(Dest, Msg)) -> bool>(
        tile: &mut LlcTile,
        now: &mut Cycle,
        max: u64,
        mut pred: F,
    ) -> Vec<(Dest, Msg)> {
        let mut seen = Vec::new();
        for _ in 0..max {
            tile.tick(*now);
            while let Some(out) = tile.pop_ready() {
                let done = pred(&out);
                seen.push(out);
                if done {
                    return seen;
                }
            }
            *now += 1;
        }
        panic!("predicate not satisfied; saw {seen:?}");
    }

    fn gets(txn: u32, core: u16, addr: u64) -> Msg {
        Msg::CoreRequest {
            txn: TxnId(txn),
            core: CoreId(core),
            addr: Addr(addr),
            kind: RequestKind::GetS,
        }
    }

    fn getx(txn: u32, core: u16, addr: u64) -> Msg {
        Msg::CoreRequest {
            txn: TxnId(txn),
            core: CoreId(core),
            addr: Addr(addr),
            kind: RequestKind::GetX,
        }
    }

    /// Memory's reply to a default tile's (`tile_index` 0) `MemRead`.
    fn mem_data(mshr: MshrId) -> Msg {
        Msg::MemData { mshr, home: 0 }
    }

    /// Ticks `tile` for `cycles`, answering each `MemRead` at once with
    /// the `MemData` it asks for; returns everything the tile emitted.
    fn serve(tile: &mut LlcTile, now: &mut Cycle, cycles: u64) -> Vec<(Dest, Msg)> {
        let mut seen = Vec::new();
        for _ in 0..cycles {
            tile.tick(*now);
            while let Some(out) = tile.pop_ready() {
                if let (_, Msg::MemRead { mshr, home, .. }) = out {
                    tile.submit(Msg::MemData { mshr, home });
                }
                seen.push(out);
            }
            *now += 1;
        }
        seen
    }

    #[test]
    fn inv_and_mem_read_name_the_tile_as_home() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile().at_position(3, 8));
        let mut now = Cycle(0);
        // Line 3 is homed at tile 3 of 8.
        let line = 3 * 64;
        // Two readers merge into one fetch, then a writer invalidates both.
        tile.submit(gets(1, 0, line));
        tile.submit(gets(2, 1, line));
        let mut seen = serve(&mut tile, &mut now, 100);
        tile.submit(getx(3, 2, line));
        seen.extend(serve(&mut tile, &mut now, 100));
        let homes: Vec<u16> = seen
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Inv { home, .. } | Msg::MemRead { home, .. } => Some(*home),
                _ => None,
            })
            .collect();
        assert_eq!(homes, [3, 3, 3], "one MemRead, two Invs: {seen:?}");
    }

    #[test]
    fn outputs_are_addressed_to_their_destination() {
        let mut tile = LlcTile::new(LlcConfig {
            slice_bytes: 4096, // 4 sets × 16 ways
            ..LlcConfig::tiled_slice()
        });
        let mut now = Cycle(0);
        let mut step = |msg: Msg| {
            tile.submit(msg);
            serve(&mut tile, &mut now, 50)
        };
        let mut seen = Vec::new();
        // Writer 3 fetches line 0; writer 5 takes it; reader 6 is
        // forwarded to 5, which then writes the line back. Readers 0 and
        // 1 share line 0x40; writer 2 invalidates them.
        for msg in [
            getx(1, 3, 0),
            getx(2, 5, 0),
            gets(3, 6, 0),
            Msg::WriteBack {
                core: CoreId(5),
                addr: Addr(0),
            },
            gets(4, 0, 0x40),
            gets(5, 1, 0x40),
            getx(6, 2, 0x40),
        ] {
            seen.extend(step(msg));
        }
        let Some(&(_, Msg::Inv { mshr, .. })) = seen.last() else {
            panic!("expected an Inv last: {seen:?}");
        };
        seen.extend(step(Msg::InvAck { mshr }));
        seen.extend(step(Msg::InvAck { mshr }));
        // Sixteen more lines in line 0's set evict the dirty line 0.
        for k in 1..=16u32 {
            seen.extend(step(gets(100 + k, 7, k as u64 * 4096)));
        }
        for want in [
            (Dest::Core(CoreId(3)), Msg::Data { txn: TxnId(1) }),
            (
                Dest::Core(CoreId(3)),
                Msg::FwdGetX {
                    txn: TxnId(2),
                    requester: CoreId(5),
                    addr: Addr(0),
                },
            ),
            (
                Dest::Core(CoreId(5)),
                Msg::FwdGetS {
                    txn: TxnId(3),
                    requester: CoreId(6),
                    addr: Addr(0),
                },
            ),
            (Dest::Core(CoreId(2)), Msg::Data { txn: TxnId(6) }),
            (Dest::Memory, Msg::MemWrite { addr: Addr(0) }),
        ] {
            assert!(seen.contains(&want), "{want:?} missing from {seen:?}");
        }
        for sharer in [0, 1] {
            assert!(seen.iter().any(|o| matches!(o,
                (Dest::Core(CoreId(c)), Msg::Inv { addr: Addr(0x40), .. }) if *c == sharer)));
        }
        for (to, msg) in &seen {
            match msg {
                Msg::MemRead { .. } | Msg::MemWrite { .. } => assert_eq!(*to, Dest::Memory),
                _ => assert!(matches!(to, Dest::Core(_)), "{msg:?} sent to {to:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "not Data { txn: TxnId(7) }")]
    fn submit_refuses_a_message_no_tile_serves() {
        LlcTile::new(LlcConfig::nocout_tile()).submit(Msg::Data { txn: TxnId(7) });
    }

    #[test]
    fn miss_fetches_from_memory_then_replies() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        tile.submit(gets(1, 0, 0x40));
        let outs = run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::MemRead { .. }))
        });
        let mshr = match outs.last().unwrap() {
            (
                Dest::Memory,
                Msg::MemRead {
                    mshr,
                    home: 0,
                    addr,
                },
            ) => {
                assert_eq!(*addr, Addr(0x40));
                *mshr
            }
            _ => unreachable!(),
        };
        tile.submit(mem_data(mshr));
        run_until(&mut tile, &mut now, 100, |o| {
            *o == (Dest::Core(CoreId(0)), Msg::Data { txn: TxnId(1) })
        });
        assert_eq!(tile.stats.misses.value(), 1);
        assert_eq!(tile.inflight(), 0);
    }

    #[test]
    fn second_access_hits() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        tile.submit(gets(1, 0, 0x40));
        let outs = run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::MemRead { .. }))
        });
        let mshr = match outs.last().unwrap() {
            (_, Msg::MemRead { mshr, .. }) => *mshr,
            _ => unreachable!(),
        };
        tile.submit(mem_data(mshr));
        run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::Data { .. }))
        });
        tile.submit(gets(2, 1, 0x40));
        run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::Data { txn: TxnId(2) }))
        });
        assert_eq!(tile.stats.hits.value(), 1);
        assert_eq!(tile.stats.snoops_sent.value(), 0, "read sharing is snoop-free");
    }

    fn prime_line(tile: &mut LlcTile, now: &mut Cycle, input: Msg) {
        tile.submit(input);
        let outs = run_until(tile, now, 100, |o| {
            matches!(o, (_, Msg::MemRead { .. } | Msg::Data { .. }))
        });
        if let (_, Msg::MemRead { mshr, .. }) = outs.last().unwrap() {
            tile.submit(mem_data(*mshr));
            run_until(tile, now, 100, |o| matches!(o, (_, Msg::Data { .. })));
        }
    }

    #[test]
    fn write_then_read_forwards_to_owner() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        prime_line(&mut tile, &mut now, getx(1, 3, 0x40));
        // Core 5 reads: directory must forward to owner core 3.
        tile.submit(gets(2, 5, 0x40));
        let outs = run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::FwdGetS { .. }))
        });
        match outs.last().unwrap() {
            (
                Dest::Core(owner),
                Msg::FwdGetS {
                    txn,
                    requester,
                    addr,
                },
            ) => {
                assert_eq!(*txn, TxnId(2));
                assert_eq!(*owner, CoreId(3));
                assert_eq!(*requester, CoreId(5));
                assert_eq!(*addr, Addr(0x40));
            }
            _ => unreachable!(),
        }
        assert_eq!(tile.stats.snoops_sent.value(), 1);
    }

    #[test]
    fn write_to_shared_line_invalidates_sharers() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        prime_line(&mut tile, &mut now, gets(1, 0, 0x80));
        tile.submit(gets(2, 1, 0x80));
        run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::Data { txn: TxnId(2) }))
        });
        // Core 2 writes: cores 0 and 1 must be invalidated before data.
        tile.submit(getx(3, 2, 0x80));
        let outs = run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::Inv { .. }))
        });
        let mshr = match outs.last().unwrap() {
            (_, Msg::Inv { mshr, .. }) => *mshr,
            _ => unreachable!(),
        };
        // Exactly two Invs total; drain the second if still queued.
        let mut inv_count = outs
            .iter()
            .filter(|o| matches!(o, (_, Msg::Inv { .. })))
            .count();
        for _ in 0..50 {
            tile.tick(now);
            if let Some((_, Msg::Inv { .. })) = tile.pop_ready() {
                inv_count += 1;
            }
            now += 1;
        }
        assert_eq!(inv_count, 2);
        // No data until both acks arrive.
        tile.submit(Msg::InvAck { mshr });
        for _ in 0..20 {
            tile.tick(now);
            assert!(tile.pop_ready().is_none(), "must wait for second ack");
            now += 1;
        }
        tile.submit(Msg::InvAck { mshr });
        run_until(&mut tile, &mut now, 100, |o| {
            *o == (Dest::Core(CoreId(2)), Msg::Data { txn: TxnId(3) })
        });
        assert_eq!(tile.stats.snoops_sent.value(), 2);
    }

    #[test]
    fn hit_data_pops_exactly_access_latency_after_its_grant() {
        // 0: the slot due at `now` drains at the end of `tick(now)`, after
        // the grants — draining first would hold the output a whole wrap.
        // 40: beyond a default tile's 8 slots.
        for latency in [0, 40] {
            let mut tile = LlcTile::new(LlcConfig {
                access_latency: latency,
                ..LlcConfig::nocout_tile()
            });
            tile.warm(Addr(0x40));
            tile.tick(Cycle(0));
            tile.submit(gets(1, 0, 0x40));
            let mut popped = Vec::new();
            for t in 1..100 {
                tile.tick(Cycle(t));
                popped.extend(std::iter::from_fn(|| tile.pop_ready()).map(|o| (t, o)));
            }
            let data = (Dest::Core(CoreId(0)), Msg::Data { txn: TxnId(1) });
            assert_eq!(popped, [(1 + latency, data)], "access latency {latency}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "came due in a cycle the tile was not ticked")]
    fn skipping_past_a_due_output_panics() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        tile.submit(gets(1, 0, 0x40));
        tile.tick(Cycle(0)); // a miss: its MemRead is due at cycle 5
        tile.tick(Cycle(6));
    }

    #[test]
    fn writeback_marks_dirty_and_clears_owner() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        prime_line(&mut tile, &mut now, getx(1, 7, 0xC0));
        tile.submit(Msg::WriteBack {
            core: CoreId(7),
            addr: Addr(0xC0),
        });
        for _ in 0..20 {
            tile.tick(now);
            now += 1;
        }
        assert_eq!(tile.stats.writebacks.value(), 1);
        // Next read hits without snoops (owner gone).
        tile.submit(gets(2, 1, 0xC0));
        run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::Data { txn: TxnId(2) }))
        });
        assert_eq!(tile.stats.snoops_sent.value(), 0);
    }

    #[test]
    fn concurrent_misses_same_line_merge() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        tile.submit(gets(1, 0, 0x40));
        tile.submit(gets(2, 1, 0x40));
        let outs = run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::MemRead { .. }))
        });
        let mshr = match outs.last().unwrap() {
            (_, Msg::MemRead { mshr, .. }) => *mshr,
            _ => unreachable!(),
        };
        // Only one memory read for the two requests.
        tile.submit(mem_data(mshr));
        let mut data_count = 0;
        for _ in 0..100 {
            tile.tick(now);
            while let Some(out) = tile.pop_ready() {
                match out.1 {
                    Msg::Data { .. } => data_count += 1,
                    Msg::MemRead { .. } => panic!("second fetch must merge"),
                    _ => {}
                }
            }
            now += 1;
        }
        assert_eq!(data_count, 2);
    }

    #[test]
    fn bank_contention_delays_grants() {
        // Single bank, occupancy 2: back-to-back same-bank requests grant
        // one per two cycles.
        let cfg = LlcConfig {
            banks: 1,
            ..LlcConfig::tiled_slice()
        };
        let mut tile = LlcTile::new(cfg);
        let mut now = Cycle(0);
        // Prime two lines so both hit.
        prime_line(&mut tile, &mut now, gets(1, 0, 0x000));
        prime_line(&mut tile, &mut now, gets(2, 0, 0x040));
        let start = now;
        tile.submit(gets(3, 0, 0x000));
        tile.submit(gets(4, 1, 0x040));
        let mut deliveries = Vec::new();
        for _ in 0..50 {
            tile.tick(now);
            while let Some((_, Msg::Data { txn })) = tile.pop_ready() {
                deliveries.push((txn, now.raw() - start.raw()));
            }
            now += 1;
        }
        assert_eq!(deliveries.len(), 2);
        // Second grant waited for the bank.
        assert!(deliveries[1].1 >= deliveries[0].1 + cfg.bank_occupancy);
        assert!(tile.stats.bank_wait_cycles.value() > 0);
    }

    #[test]
    fn getx_while_memory_fetch_pending_merges() {
        // A write request joining an in-flight read fetch must not issue a
        // second memory read, and both waiters get data.
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        tile.submit(gets(1, 0, 0x40));
        let outs = run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::MemRead { .. }))
        });
        let mshr = match outs.last().unwrap() {
            (_, Msg::MemRead { mshr, .. }) => *mshr,
            _ => unreachable!(),
        };
        tile.submit(getx(2, 1, 0x40));
        for _ in 0..20 {
            tile.tick(now);
            assert!(
                !matches!(tile.pop_ready(), Some((_, Msg::MemRead { .. }))),
                "merged request must not refetch"
            );
            now += 1;
        }
        tile.submit(mem_data(mshr));
        let mut data = 0;
        for _ in 0..100 {
            tile.tick(now);
            while let Some(out) = tile.pop_ready() {
                if matches!(out, (_, Msg::Data { .. })) {
                    data += 1;
                }
            }
            now += 1;
        }
        assert_eq!(data, 2);
    }

    #[test]
    fn writeback_to_evicted_line_reinstalls_dirty() {
        // Tiny slice: stream enough distinct lines through to evict the
        // one a core later writes back; the writeback must re-install it
        // dirty, and a second stream must push it out to memory.
        let cfg = LlcConfig {
            slice_bytes: 4096, // 4 sets × 16 ways
            ..LlcConfig::tiled_slice()
        };
        let mut tile = LlcTile::new(cfg);
        let mut now = Cycle(0);
        prime_line(&mut tile, &mut now, getx(1, 0, 0));
        // Evict line 0 by filling its set (lines 4096 apart) far beyond
        // associativity.
        for i in 1..=40u32 {
            prime_line(&mut tile, &mut now, gets(100 + i, 1, i as u64 * 4096));
        }
        tile.submit(Msg::WriteBack {
            core: CoreId(0),
            addr: Addr(0),
        });
        let seen = serve(&mut tile, &mut now, 200);
        assert_eq!(
            tile.stats.writebacks.value(),
            1,
            "writeback must be processed"
        );
        // Every line the re-install can evict was filled clean.
        assert!(
            !seen.iter().any(|o| matches!(o, (_, Msg::MemWrite { .. }))),
            "{seen:?}"
        );
        // The line is present again: a read hits without memory traffic.
        tile.submit(gets(999, 2, 0));
        let outs = run_until(&mut tile, &mut now, 200, |o| {
            matches!(o, (_, Msg::Data { txn: TxnId(999) } | Msg::MemRead { .. }))
        });
        assert!(
            matches!(outs.last().unwrap(), (_, Msg::Data { .. })),
            "re-installed line must hit"
        );
        // Streaming the set again evicts it, and it leaves dirty.
        let mut seen = Vec::new();
        for i in 1..=40u32 {
            tile.submit(gets(200 + i, 1, i as u64 * 4096));
            seen.extend(serve(&mut tile, &mut now, 50));
        }
        assert!(
            seen.contains(&(Dest::Memory, Msg::MemWrite { addr: Addr(0) })),
            "re-installed line must be written back dirty: {seen:?}"
        );
    }

    #[test]
    fn acks_completing_after_eviction_keep_the_owner_until_the_next_fill() {
        // Tiny slice: 4 sets × 16 ways.
        let mut tile = LlcTile::new(LlcConfig {
            slice_bytes: 4096,
            ..LlcConfig::tiled_slice()
        });
        let mut now = Cycle(0);
        // Cores 0 and 1 share line 0; core 2's GetX hits and must collect
        // two acks.
        prime_line(&mut tile, &mut now, gets(1, 0, 0));
        prime_line(&mut tile, &mut now, gets(2, 1, 0));
        tile.submit(getx(3, 2, 0));
        let seen = serve(&mut tile, &mut now, 50);
        let invs: Vec<MshrId> = seen
            .iter()
            .filter_map(|o| match o {
                (_, Msg::Inv { mshr, .. }) => Some(*mshr),
                _ => None,
            })
            .collect();
        assert_eq!(invs.len(), 2, "{seen:?}");
        // Sixteen more lines in line 0's set evict it while the acks are
        // out, and its sharers with it.
        for k in 1..=16u32 {
            tile.submit(gets(100 + k, 7, k as u64 * 4096));
            serve(&mut tile, &mut now, 50);
        }
        assert_eq!(tile.slice.state(Addr(0)), None);
        for &mshr in &invs {
            tile.submit(Msg::InvAck { mshr });
        }
        let seen = serve(&mut tile, &mut now, 50);
        assert!(seen.contains(&(Dest::Core(CoreId(2)), Msg::Data { txn: TxnId(3) })));
        assert_eq!(
            tile.slice.side_len_for_test(),
            1,
            "the owner waits in the side list"
        );
        // A reader is forwarded to that owner, and joins it as a sharer.
        tile.submit(gets(4, 3, 0));
        let seen = serve(&mut tile, &mut now, 50);
        let fwd = Msg::FwdGetS {
            txn: TxnId(4),
            requester: CoreId(3),
            addr: Addr(0),
        };
        assert!(seen.contains(&(Dest::Core(CoreId(2)), fwd)), "{seen:?}");
        // The next fill moves the state into the line's way: a third
        // reader misses, then a writer invalidates all three sharers.
        tile.submit(gets(5, 4, 0));
        let seen = serve(&mut tile, &mut now, 50);
        assert!(seen
            .iter()
            .any(|o| matches!(o, (Dest::Memory, Msg::MemRead { .. }))));
        assert_eq!(
            tile.slice.side_len_for_test(),
            0,
            "the fill adopted the state"
        );
        tile.submit(getx(6, 5, 0));
        let seen = serve(&mut tile, &mut now, 50);
        let inv_to: Vec<Dest> = seen
            .iter()
            .filter(|o| matches!(o, (_, Msg::Inv { .. })))
            .map(|o| o.0)
            .collect();
        assert_eq!(inv_to, [2, 3, 4].map(|c| Dest::Core(CoreId(c))));
    }

    #[test]
    fn nuca_stride_selects_slice_local_sets() {
        // Tile 0 of 64 with 2 sets × 1 way: chip lines 0 and 64 are its
        // consecutive slice-local lines 0 and 1, so they land in different
        // sets rather than aliasing, and both stay resident and tracked.
        let mut tile = LlcTile::new(
            LlcConfig {
                slice_bytes: 128,
                ways: 1,
                ..LlcConfig::tiled_slice()
            }
            .at_position(0, 64),
        );
        let mut now = Cycle(0);
        prime_line(&mut tile, &mut now, gets(1, 0, 0));
        prime_line(&mut tile, &mut now, gets(2, 1, 64 * 64));
        assert_eq!(tile.slice.tracked_lines(), 2);
        assert_eq!(tile.slice.side_len_for_test(), 0);
        prime_line(&mut tile, &mut now, gets(3, 2, 0));
        prime_line(&mut tile, &mut now, gets(4, 2, 64 * 64));
        assert_eq!((tile.stats.misses.value(), tile.stats.hits.value()), (2, 2));
    }

    #[test]
    fn fwd_getx_transfers_exclusive_ownership() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        prime_line(&mut tile, &mut now, getx(1, 3, 0x40));
        // Writer 5 takes the line from writer 3.
        tile.submit(getx(2, 5, 0x40));
        run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (Dest::Core(owner), Msg::FwdGetX { requester, .. })
                if *owner == CoreId(3) && *requester == CoreId(5))
        });
        // A third writer must now be forwarded to 5, not 3.
        tile.submit(getx(3, 7, 0x40));
        run_until(
            &mut tile,
            &mut now,
            100,
            |o| matches!(o, (Dest::Core(owner), Msg::FwdGetX { .. }) if *owner == CoreId(5)),
        );
    }

    #[test]
    fn owner_rereading_its_own_line_hits_without_snoop() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        prime_line(&mut tile, &mut now, getx(1, 3, 0x40));
        let before = tile.stats.snoops_sent.value();
        tile.submit(gets(2, 3, 0x40));
        run_until(&mut tile, &mut now, 100, |o| {
            matches!(o, (_, Msg::Data { txn: TxnId(2) }))
        });
        assert_eq!(tile.stats.snoops_sent.value(), before);
    }

    #[test]
    fn inv_ack_for_unknown_mshr_is_ignored() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        tile.submit(Msg::InvAck { mshr: MshrId(777) });
        for t in 0..10 {
            let now = Cycle(t);
            tile.tick(now);
            assert!(tile.pop_ready().is_none());
        }
        assert_eq!(tile.inflight(), 0);
    }

    #[test]
    fn snoop_fraction_reflects_sharing() {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        let mut now = Cycle(0);
        prime_line(&mut tile, &mut now, gets(1, 0, 0x40));
        for i in 0..97u32 {
            tile.submit(gets(10 + i, (i % 8) as u16, 0x40));
            run_until(&mut tile, &mut now, 100, |o| {
                matches!(o, (_, Msg::Data { .. }))
            });
        }
        // Two writes → each snoops the accumulated sharers.
        tile.submit(getx(200, 9, 0x40));
        run_until(&mut tile, &mut now, 1000, |o| {
            matches!(o, (_, Msg::Inv { .. }))
        });
        assert!(tile.stats.snooping_accesses.value() > 0);
    }

    #[test]
    #[should_panic(expected = "line address 0x200000000000 has tag bits that do not fit a 4-byte tag word")]
    fn a_line_whose_tag_does_not_fit_a_u32_is_refused() {
        // Tile 0 of 64 on a tiled chip: chip line 2⁴⁵ is slice-local line
        // 2³⁹ (slice address 2⁴⁵), whose bits above the 128-set index,
        // 2³², do not fit a `u32` tag. The request's lookup refuses it
        // rather than truncating the tag onto another line's.
        let mut tile = LlcTile::new(LlcConfig::tiled_slice().at_position(0, 64));
        tile.submit(gets(1, 0, 1 << 51));
        tile.tick(Cycle(0));
    }
}
