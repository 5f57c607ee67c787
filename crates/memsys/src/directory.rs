//! Full-map directory for the shared LLC.
//!
//! Each LLC slice carries a directory slice tracking which cores hold each
//! line and in what state (Fig. 2(b): "L2 slice = data + tags + directory").
//! The directory is what turns L1 data sharing into snoop traffic; in
//! scale-out workloads that traffic is nearly absent (Fig. 4 measures ~2%
//! of LLC accesses producing a snoop), and NOC-Out's design leans on that.
//!
//! The directory slice is folded into the data slice's tag array: a
//! line's state lives in the way that holds the line ([`LlcSlice`]), so
//! an LLC way costs about 14 bytes, 5 of `u32` tag, recency byte and
//! dirty bit and 9 of directory state, with no second tag array to keep
//! in step.

use crate::addr::{Addr, LINE_BYTES};
use crate::cache::{CacheArray, CacheGeometry, Evicted, Lookup};
use crate::protocol::CoreId;

/// A set of sharer cores: one bit per core, so at most
/// [`SharerSet::MAX_CORES`] cores (the §7.1 concentration study's 128).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(pub u128);

impl SharerSet {
    /// The largest core count a sharer set can record.
    pub const MAX_CORES: usize = 128;

    /// The mask bit of `core`. Checked in every build: a wrapped shift
    /// would record core k + 128 as core k and send its invalidations and
    /// forwards to the wrong L1.
    #[inline]
    fn bit(core: CoreId) -> u128 {
        assert!(
            (core.0 as usize) < Self::MAX_CORES,
            "core {} does not fit a {}-core sharer set",
            core.0,
            Self::MAX_CORES
        );
        1u128 << core.0
    }

    /// The empty set.
    pub fn empty() -> Self {
        SharerSet(0)
    }

    /// A singleton set.
    pub fn single(core: CoreId) -> Self {
        SharerSet(Self::bit(core))
    }

    /// Inserts a core.
    pub fn insert(&mut self, core: CoreId) {
        self.0 |= Self::bit(core);
    }

    /// Removes a core.
    pub fn remove(&mut self, core: CoreId) {
        self.0 &= !Self::bit(core);
    }

    /// Whether `core` is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        self.0 & Self::bit(core) != 0
    }

    /// Number of sharers.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over member cores in ascending order, visiting only the
    /// set bits.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let core = CoreId(bits.trailing_zeros() as u16);
            bits &= bits - 1;
            Some(core)
        })
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = SharerSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Directory state of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// One or more cores hold the line read-only.
    Shared(SharerSet),
    /// Exactly one core holds the line with write permission.
    Exclusive(CoreId),
}

/// Way state: the line holds no directory state.
const UNTRACKED: u8 = 0;
/// Way state: `lo` (and `hi`) hold a sharer mask.
const SHARED: u8 = 1;
/// Way state: `lo` holds the owner's id.
const EXCLUSIVE: u8 = 2;

/// Where a tracked line's state lives: the way its slice holds it in, or
/// an index into the side list.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Way(usize),
    Side(usize),
}

/// The directory half of an [`LlcSlice`]: per-way state, indexed by the
/// way the slice's tag array resolves for a line, plus a side list.
///
/// A way's state is its `kind` byte and one sharer word, `lo` — the low
/// 64 bits of the sharer mask, or the owner's id — 9 bytes a way. The
/// high sharer word, `hi`, is allocated for every way the first time a
/// core ≥ 64 is recorded in a way; a chip of at most 64 cores never
/// allocates it. The side list holds the lines that are tracked but not
/// resident: an ack collection that completes after its line was
/// victimised records its requester there, and the line's next fill moves
/// the state into its way. No side-list line is ever resident in the
/// slice.
#[derive(Debug)]
struct Directory {
    /// Per way: the low sharer word (Shared) or the owner's id (Exclusive).
    lo: Vec<u64>,
    /// Per way: the high sharer word; empty until a core ≥ 64 is recorded.
    hi: Vec<u64>,
    /// Per way: `UNTRACKED`, `SHARED` or `EXCLUSIVE`.
    kind: Vec<u8>,
    /// Tracked lines not resident in the slice: `(line index, state)`.
    side: Vec<(u64, DirState)>,
    len: usize,
}

impl Directory {
    fn new(ways: usize) -> Self {
        Directory {
            lo: vec![0; ways],
            hi: Vec::new(),
            kind: vec![UNTRACKED; ways],
            side: Vec::new(),
            len: 0,
        }
    }

    /// The position of `line`'s state, given the way the tag array holds
    /// it in (`None`: not resident).
    #[inline]
    fn find(&self, way: Option<usize>, line: u64) -> Option<Pos> {
        match way {
            Some(w) => (self.kind[w] != UNTRACKED).then_some(Pos::Way(w)),
            None => self.side.iter().position(|e| e.0 == line).map(Pos::Side),
        }
    }

    #[inline]
    fn get(&self, pos: Pos) -> DirState {
        match pos {
            Pos::Way(w) if self.kind[w] == EXCLUSIVE => {
                DirState::Exclusive(CoreId(self.lo[w] as u16))
            }
            Pos::Way(w) => {
                let hi = self.hi.get(w).copied().unwrap_or(0);
                DirState::Shared(SharerSet((hi as u128) << 64 | self.lo[w] as u128))
            }
            Pos::Side(i) => self.side[i].1,
        }
    }

    #[inline]
    fn set(&mut self, pos: Pos, state: DirState) {
        let w = match pos {
            Pos::Way(w) => w,
            Pos::Side(i) => {
                self.side[i].1 = state;
                return;
            }
        };
        match state {
            DirState::Shared(s) => {
                let hi = (s.0 >> 64) as u64;
                if hi != 0 && self.hi.is_empty() {
                    self.hi = vec![0; self.kind.len()];
                }
                if let Some(h) = self.hi.get_mut(w) {
                    *h = hi;
                }
                self.lo[w] = s.0 as u64;
                self.kind[w] = SHARED;
            }
            DirState::Exclusive(owner) => {
                self.lo[w] = owner.0 as u64;
                self.kind[w] = EXCLUSIVE;
            }
        }
    }

    /// Drops the state at `pos`.
    fn untrack(&mut self, pos: Pos) {
        match pos {
            Pos::Way(w) => self.kind[w] = UNTRACKED,
            Pos::Side(i) => {
                self.side.swap_remove(i);
            }
        }
        self.len -= 1;
    }
}

/// An LLC slice's tag array and its co-located directory slice (Fig.
/// 2(b): "L2 slice = data + tags + directory"), one structure: a line's
/// directory state lives in the way the tag array holds it in, so every
/// directory operation is the one set scan that finds the way.
///
/// The directory is an exact map, line → sharer state, for any line:
/// lines not present are "uncached above the LLC", and an entry is dropped
/// when its sharer set empties. Inclusion is structural: a tracked line is
/// in its way or, between an eviction and its next fill, in a short side
/// list (see the `llc` module doc for when that happens). Evicting a line
/// drops its state; [`LlcSlice::install`] moves a side-list line's state
/// into the way it fills. Addresses are slice-local.
///
/// Tags are `u32` words ([`crate::cache::TagWord`]): the slice-local
/// line's bits above the set index, which stay below 2²⁹ for every
/// address below 2⁴⁸ on the paper chips; a line whose tag does not fit
/// is refused, naming its address. A caller that makes several
/// directory and recency operations on one line resolves it once with
/// [`LlcSlice::locate`] and passes the [`SliceLine`] to the `_at`
/// methods, so the set is scanned once.
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::cache::CacheGeometry;
/// use nocout_mem::directory::{DirState, LlcSlice};
/// use nocout_mem::protocol::CoreId;
///
/// let mut slice = LlcSlice::new(CacheGeometry { capacity_bytes: 4096, ways: 16, line_bytes: 64 });
/// let a = Addr(0x40);
/// slice.install(a, false);
/// slice.add_sharer(a, CoreId(3));
/// assert!(matches!(slice.state(a), Some(DirState::Shared(_))));
/// slice.set_exclusive(a, CoreId(5));
/// assert_eq!(slice.state(a), Some(DirState::Exclusive(CoreId(5))));
/// ```
#[derive(Debug)]
pub struct LlcSlice {
    tags: CacheArray<u32>,
    dir: Directory,
}

/// A slice-local line resolved against its set once: the way that holds
/// it, if it is resident. Valid until the slice's next
/// [`LlcSlice::install`], which may move lines between ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceLine {
    line: u64,
    way: Option<usize>,
}

impl LlcSlice {
    /// An empty slice of `geometry`, which must have [`LINE_BYTES`] lines.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert_eq!(
            geometry.line_bytes, LINE_BYTES,
            "an LLC slice holds whole lines"
        );
        LlcSlice {
            tags: CacheArray::new(geometry),
            dir: Directory::new(geometry.sets() * geometry.ways),
        }
    }

    /// Resolves `addr`'s line to its way, if resident: the one set scan
    /// the `_at` methods share.
    #[inline]
    pub fn locate(&self, addr: Addr) -> SliceLine {
        SliceLine {
            line: addr.line_index(),
            way: self.tags.way_of(addr),
        }
    }

    /// Looks a line up, updating recency (see [`CacheArray::lookup`]).
    pub fn lookup(&mut self, addr: Addr) -> Lookup {
        self.lookup_at(self.locate(addr))
    }

    /// [`LlcSlice::lookup`] of a located line.
    #[inline]
    pub fn lookup_at(&mut self, at: SliceLine) -> Lookup {
        self.tags.touch(at.line, at.way)
    }

    /// Marks a present line dirty; returns whether it was present.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        self.mark_dirty_at(self.locate(addr))
    }

    /// [`LlcSlice::mark_dirty`] of a located line.
    #[inline]
    pub fn mark_dirty_at(&mut self, at: SliceLine) -> bool {
        if let Some(w) = at.way {
            self.tags.mark_way_dirty(w);
        }
        at.way.is_some()
    }

    /// Installs a line, clean or `dirty` (see [`CacheArray::insert`]).
    /// The victim, if any, leaves the directory with its way, and the
    /// line's side-list state, if any, moves into the way it fills.
    pub fn install(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        let (way, victim) = self.tags.insert_way(addr, dirty);
        if victim.is_some() && self.dir.kind[way] != UNTRACKED {
            self.dir.untrack(Pos::Way(way));
        }
        let line = addr.line_index();
        if let Some(i) = self.dir.side.iter().position(|e| e.0 == line) {
            let (_, state) = self.dir.side.swap_remove(i);
            self.dir.set(Pos::Way(way), state);
        }
        debug_assert!(
            self.side_list_not_resident(),
            "a side-list line is resident"
        );
        victim
    }

    /// Installs whole runs of lines, clean and untracked, into a never-used
    /// slice (see [`CacheArray::warm_fill`]).
    pub fn warm_fill(&mut self, ranges: &[(u64, u64)]) {
        assert_eq!(self.dir.len, 0, "warm_fill needs a never-used slice");
        self.tags.warm_fill(ranges);
    }

    /// Current state of a line (None = uncached in all L1s).
    pub fn state(&self, addr: Addr) -> Option<DirState> {
        self.state_at(self.locate(addr))
    }

    /// [`LlcSlice::state`] of a located line.
    #[inline]
    pub fn state_at(&self, at: SliceLine) -> Option<DirState> {
        self.dir.find(at.way, at.line).map(|pos| self.dir.get(pos))
    }

    /// Starts tracking an untracked line in `way`, or in the side list.
    fn track(&mut self, way: Option<usize>, line: u64, state: DirState) {
        self.dir.len += 1;
        match way {
            Some(w) => self.dir.set(Pos::Way(w), state),
            None => {
                self.dir.side.push((line, state));
                debug_assert!(
                    self.side_list_not_resident(),
                    "a side-list line is resident"
                );
            }
        }
    }

    /// Records `core` as a sharer (demotes Exclusive to Shared, keeping the
    /// former owner as a sharer — the FwdGetS path).
    pub fn add_sharer(&mut self, addr: Addr, core: CoreId) {
        self.add_sharer_at(self.locate(addr), core);
    }

    /// [`LlcSlice::add_sharer`] of a located line.
    pub fn add_sharer_at(&mut self, at: SliceLine, core: CoreId) {
        let SliceLine { line, way } = at;
        match self.dir.find(way, line) {
            Some(pos) => {
                let mut sharers = match self.dir.get(pos) {
                    DirState::Shared(s) => s,
                    DirState::Exclusive(owner) => SharerSet::single(owner),
                };
                sharers.insert(core);
                self.dir.set(pos, DirState::Shared(sharers));
            }
            None => self.track(way, line, DirState::Shared(SharerSet::single(core))),
        }
    }

    /// Makes `core` the exclusive owner, replacing any previous state.
    pub fn set_exclusive(&mut self, addr: Addr, core: CoreId) {
        self.set_exclusive_at(self.locate(addr), core);
    }

    /// [`LlcSlice::set_exclusive`] of a located line.
    pub fn set_exclusive_at(&mut self, at: SliceLine, core: CoreId) {
        let SliceLine { line, way } = at;
        match self.dir.find(way, line) {
            Some(pos) => self.dir.set(pos, DirState::Exclusive(core)),
            None => self.track(way, line, DirState::Exclusive(core)),
        }
    }

    /// Removes `core` from the line's sharers/ownership (writeback or
    /// invalidation), dropping the entry when no holder remains. Returns
    /// whether the core was recorded.
    pub fn remove_core(&mut self, addr: Addr, core: CoreId) -> bool {
        self.remove_core_at(self.locate(addr), core)
    }

    /// [`LlcSlice::remove_core`] of a located line.
    pub fn remove_core_at(&mut self, at: SliceLine, core: CoreId) -> bool {
        let Some(pos) = self.dir.find(at.way, at.line) else {
            return false;
        };
        let (drop_entry, had) = match self.dir.get(pos) {
            DirState::Exclusive(owner) => (owner == core, owner == core),
            DirState::Shared(mut s) => {
                let had = s.contains(core);
                s.remove(core);
                self.dir.set(pos, DirState::Shared(s));
                (s.is_empty(), had)
            }
        };
        if drop_entry {
            self.dir.untrack(pos);
        }
        had
    }

    /// Drops all state for a line.
    pub fn drop_line(&mut self, addr: Addr) {
        let at = self.locate(addr);
        if let Some(pos) = self.dir.find(at.way, at.line) {
            self.dir.untrack(pos);
        }
    }

    /// Number of tracked lines.
    pub fn tracked_lines(&self) -> usize {
        self.dir.len
    }

    /// Whether no side-list line is resident in the slice: the invariant
    /// that keeps a line's state in exactly one place.
    fn side_list_not_resident(&self) -> bool {
        self.dir
            .side
            .iter()
            .all(|&(line, _)| self.tags.way_of(Addr::from_line_index(line)).is_none())
    }

    #[cfg(test)]
    pub(crate) fn side_len_for_test(&self) -> usize {
        self.dir.side.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slice of `sets` × `ways` 64-byte lines.
    fn slice(sets: u64, ways: usize) -> LlcSlice {
        LlcSlice::new(CacheGeometry {
            capacity_bytes: sets * ways as u64 * LINE_BYTES,
            ways,
            line_bytes: LINE_BYTES,
        })
    }

    /// A roomy slice with `a` resident or not: the map must answer the
    /// same from a way and from the side list.
    fn with_line(a: Addr, resident: bool) -> LlcSlice {
        let mut s = slice(256, 16);
        if resident {
            s.install(a, false);
        }
        s
    }

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId(0));
        s.insert(CoreId(63));
        s.insert(CoreId(127));
        assert_eq!(s.count(), 3);
        assert!(s.contains(CoreId(63)));
        s.remove(CoreId(63));
        assert!(!s.contains(CoreId(63)));
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![CoreId(0), CoreId(127)]);
        // Set bits only, ascending, across the word boundary.
        let cores = [1u16, 5, 63, 64, 100, 126];
        let s: SharerSet = cores.iter().rev().map(|&c| CoreId(c)).collect();
        assert!(s.iter().map(|c| c.0).eq(cores));
        assert_eq!(SharerSet::empty().iter().count(), 0);
    }

    #[test]
    fn sharer_set_from_iter() {
        let s: SharerSet = [CoreId(1), CoreId(2)].into_iter().collect();
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn exclusive_demotes_to_shared_on_read() {
        let a = Addr(0x100);
        for resident in [false, true] {
            let mut dir = with_line(a, resident);
            dir.set_exclusive(a, CoreId(1));
            dir.add_sharer(a, CoreId(2));
            match dir.state(a) {
                Some(DirState::Shared(s)) => {
                    assert!(s.contains(CoreId(1)), "old owner stays as sharer");
                    assert!(s.contains(CoreId(2)));
                }
                other => panic!("unexpected state {other:?}"),
            }
            assert_eq!(dir.side_len_for_test(), !resident as usize);
        }
    }

    #[test]
    fn remove_core_drops_empty_entries() {
        let a = Addr(0x40);
        for resident in [false, true] {
            let mut dir = with_line(a, resident);
            dir.add_sharer(a, CoreId(9));
            assert!(dir.remove_core(a, CoreId(9)));
            assert_eq!(dir.state(a), None);
            assert_eq!(dir.tracked_lines(), 0);
            assert!(!dir.remove_core(a, CoreId(9)));
            assert_eq!(dir.side_len_for_test(), 0);
        }
    }

    #[test]
    fn remove_nonowner_is_noop() {
        let a = Addr(0x40);
        for resident in [false, true] {
            let mut dir = with_line(a, resident);
            dir.set_exclusive(a, CoreId(1));
            assert!(!dir.remove_core(a, CoreId(2)));
            assert_eq!(dir.state(a), Some(DirState::Exclusive(CoreId(1))));
        }
    }

    #[test]
    fn drop_line_clears_state() {
        let a = Addr(0x80);
        for resident in [false, true] {
            let mut dir = with_line(a, resident);
            dir.set_exclusive(a, CoreId(0));
            dir.drop_line(a);
            assert_eq!(dir.state(a), None);
            assert_eq!(dir.tracked_lines(), 0);
        }
    }

    #[test]
    fn invalidate_paths_leave_lines_untracked() {
        // Every removal path — writeback of an owned line, last-sharer
        // invalidation, and eviction from the slice — must return a line
        // to the "uncached above the LLC" state and release its way or
        // side-list entry. Lines 0..32 are resident, 32..65 are not.
        let mut dir = slice(4, 8);
        dir.warm_fill(&[(0, 32)]);
        for i in 0..64u64 {
            dir.add_sharer(Addr(i * 64), CoreId((i % 8) as u16));
        }
        dir.set_exclusive(Addr(64 * 64), CoreId(1));
        assert_eq!(dir.tracked_lines(), 65);
        assert_eq!(dir.side_len_for_test(), 33);
        // Owner writeback path.
        assert!(dir.remove_core(Addr(64 * 64), CoreId(1)));
        assert_eq!(dir.state(Addr(64 * 64)), None);
        // Last-sharer invalidation path, from ways and from the side list.
        for i in (0..64u64).step_by(2) {
            assert!(dir.remove_core(Addr(i * 64), CoreId((i % 8) as u16)));
        }
        assert_eq!(dir.tracked_lines(), 32);
        // Eviction path: 32 new lines push every resident line out.
        for i in 100..132u64 {
            assert!(dir.install(Addr(i * 64), false).is_some());
        }
        assert_eq!(dir.tracked_lines(), 16, "the 16 odd side-list lines");
        for i in (33..64u64).step_by(2) {
            dir.drop_line(Addr(i * 64));
        }
        assert_eq!(dir.tracked_lines(), 0);
        assert_eq!(dir.side_len_for_test(), 0);
        for i in 0..=64u64 {
            assert_eq!(dir.state(Addr(i * 64)), None);
        }
    }

    #[test]
    fn set_conflicts_spill_without_losing_state() {
        // 2 sets × 1 way: of four tracked lines in set 0 only the resident
        // one lives in the way; the rest wait in the side list with their
        // state, a fill moves one into the way and evicts the other.
        let mut dir = slice(2, 1);
        let lines = [0u64, 2, 4, 6]; // even line indices → set 0
        dir.install(Addr(0), false);
        for (k, &l) in lines.iter().enumerate() {
            dir.add_sharer(Addr(l * 64), CoreId(k as u16));
        }
        assert_eq!((dir.tracked_lines(), dir.side_len_for_test()), (4, 3));
        for (k, &l) in lines.iter().enumerate() {
            match dir.state(Addr(l * 64)) {
                Some(DirState::Shared(s)) => assert!(s.contains(CoreId(k as u16))),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Filling line 4 evicts line 0 (its state goes) and adopts line
        // 4's side-list state.
        assert_eq!(
            dir.install(Addr(4 * 64), false).map(|v| v.addr),
            Some(Addr(0))
        );
        assert_eq!(dir.state(Addr(0)), None);
        assert_eq!(
            dir.state(Addr(4 * 64)),
            Some(DirState::Shared(SharerSet::single(CoreId(2))))
        );
        assert_eq!((dir.tracked_lines(), dir.side_len_for_test()), (3, 2));
        // A line tracked after its eviction waits in the side list.
        dir.set_exclusive(Addr(8 * 64), CoreId(9));
        assert_eq!(
            dir.state(Addr(8 * 64)),
            Some(DirState::Exclusive(CoreId(9)))
        );
        assert_eq!(dir.tracked_lines(), 4);
        for &l in &[2u64, 4, 6, 8] {
            dir.drop_line(Addr(l * 64));
        }
        assert_eq!(dir.tracked_lines(), 0);
    }

    #[test]
    fn line_zero_is_a_line_not_a_free_way() {
        // Tags store line + 1 so that zeroed storage reads as free; line
        // index 0 must still be tracked, found, demoted and dropped like
        // any other line — in a way and in the side list.
        let zero = Addr(0);
        let mut dir = slice(2, 1);
        assert_eq!(dir.state(zero), None, "a free way is not line 0");
        dir.install(zero, false);
        assert_eq!(dir.state(zero), None, "a fill tracks nothing");
        dir.set_exclusive(zero, CoreId(0));
        assert_eq!(dir.state(zero), Some(DirState::Exclusive(CoreId(0))));
        assert_eq!(dir.tracked_lines(), 1);
        // Same set, way taken by line 0: line 2 goes to the side list.
        dir.add_sharer(Addr(2 * 64), CoreId(1));
        assert_eq!(dir.side_len_for_test(), 1);
        dir.add_sharer(zero, CoreId(3));
        let both: SharerSet = [CoreId(0), CoreId(3)].into_iter().collect();
        assert_eq!(dir.state(zero), Some(DirState::Shared(both)), "demoted");
        assert!(dir.remove_core(zero, CoreId(0)));
        assert!(dir.remove_core(zero, CoreId(3)));
        assert_eq!(dir.state(zero), None);
        assert_eq!(dir.tracked_lines(), 1);
        // Line 4 takes the way, so now line 0 is the one in the side list.
        dir.install(Addr(4 * 64), false);
        dir.add_sharer(Addr(4 * 64), CoreId(2));
        dir.add_sharer(zero, CoreId(5));
        assert_eq!(dir.side_len_for_test(), 2);
        assert_eq!(
            dir.state(zero),
            Some(DirState::Shared(SharerSet::single(CoreId(5))))
        );
        dir.drop_line(zero);
        assert_eq!(dir.state(zero), None);
        assert_eq!(dir.tracked_lines(), 2);
    }

    #[test]
    fn sharer_set_refuses_a_core_it_cannot_record() {
        // In release and debug alike: an unchecked shift would wrap and
        // record core 128 as core 0.
        let ops: [fn(CoreId); 4] = [
            |c| {
                SharerSet::single(c);
            },
            |c| SharerSet::empty().insert(c),
            |c| SharerSet::empty().remove(c),
            |c| {
                SharerSet::empty().contains(c);
            },
        ];
        for op in ops {
            let refused = std::panic::catch_unwind(|| op(CoreId(SharerSet::MAX_CORES as u16)));
            let msg = *refused.unwrap_err().downcast::<String>().unwrap();
            assert!(
                msg.contains("core 128") && msg.contains("128-core"),
                "{msg}"
            );
        }
    }

    #[test]
    fn high_sharer_word_is_allocated_on_first_use() {
        // Cores below 64 fit the low word; the first core ≥ 64 recorded in
        // a way allocates the high word, which then round-trips.
        let mut dir = slice(4, 2);
        dir.warm_fill(&[(0, 8)]);
        for c in 0..64 {
            dir.add_sharer(Addr(0), CoreId(c));
        }
        dir.set_exclusive(Addr(64), CoreId(127));
        assert!(dir.dir.hi.is_empty());
        dir.add_sharer(Addr(128), CoreId(64));
        dir.add_sharer(Addr(128), CoreId(127));
        assert_eq!(dir.dir.hi.len(), 8);
        let high: SharerSet = [CoreId(64), CoreId(127)].into_iter().collect();
        assert_eq!(dir.state(Addr(128)), Some(DirState::Shared(high)));
        assert_eq!(
            dir.state(Addr(0)),
            Some(DirState::Shared(SharerSet(u64::MAX as u128)))
        );
        assert_eq!(dir.state(Addr(64)), Some(DirState::Exclusive(CoreId(127))));
        // A later low-word-only set in a way clears the way's high word.
        dir.drop_line(Addr(128));
        dir.add_sharer(Addr(128), CoreId(1));
        assert_eq!(
            dir.state(Addr(128)),
            Some(DirState::Shared(SharerSet::single(CoreId(1))))
        );
    }

    #[test]
    fn lines_are_independent() {
        for resident in [false, true] {
            let mut dir = with_line(Addr(0x00), resident);
            dir.add_sharer(Addr(0x00), CoreId(1));
            dir.add_sharer(Addr(0x40), CoreId(2));
            assert_eq!(dir.tracked_lines(), 2);
            match dir.state(Addr(0x00)) {
                Some(DirState::Shared(s)) => assert!(!s.contains(CoreId(2))),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
