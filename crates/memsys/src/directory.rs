//! Full-map directory for the shared LLC.
//!
//! Each LLC slice carries a directory slice tracking which cores hold each
//! line and in what state (Fig. 2(b): "L2 slice = data + tags + directory").
//! The directory is what turns L1 data sharing into snoop traffic; in
//! scale-out workloads that traffic is nearly absent (Fig. 4 measures ~2%
//! of LLC accesses producing a snoop), and NOC-Out's design leans on that.

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

    /// Iterates over member cores.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        let bits = self.0;
        (0..128u16)
            .filter(move |i| bits & (1u128 << i) != 0)
            .map(CoreId)
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

/// A tracked line that found its set full (see [`Directory`]).
#[derive(Debug, Clone, Copy)]
struct SpillEntry {
    line: u64,
    state: DirState,
}

/// Location of a tracked line: a way in the set-associative array, or an
/// index into the conflict spill list.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Way(usize),
    Spill(usize),
}

/// A directory slice: line → sharer state, for lines cached in any L1.
///
/// Lines not present map to "uncached above the LLC". Entries are dropped
/// eagerly when their sharer set empties.
///
/// Storage is a set-associative array mirroring the data slice's
/// [`crate::cache::CacheArray`] geometry (construct with
/// [`Directory::with_geometry`] from the slice's set count, ways and NUCA
/// stride): a lookup is the same shift+mask the tag array uses followed by
/// a ≤ `ways` linear scan of `lines` (line index + 1, `0` = free way).
/// A way's state sits at the same index in two more flat arrays — `bits`,
/// the sharer mask or the owner's id, and `excl`, which of the two — 25
/// bytes a way, all zero-initialised, so an empty directory is untouched
/// zero pages. Because directory population is not *exactly*
/// the slice's resident set (a line can be re-tracked while an in-flight
/// MSHR completes after its slice victimization), set-conflict overflow
/// falls back to a small spill list, preserving the map's semantics
/// bit-for-bit while keeping the hot lookup allocation-free.
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::directory::{Directory, DirState, SharerSet};
/// use nocout_mem::protocol::CoreId;
///
/// let mut dir = Directory::new();
/// let a = Addr(0x40);
/// dir.add_sharer(a, CoreId(3));
/// assert!(matches!(dir.state(a), Some(DirState::Shared(_))));
/// dir.set_exclusive(a, CoreId(5));
/// assert_eq!(dir.state(a), Some(DirState::Exclusive(CoreId(5))));
/// ```
#[derive(Debug)]
pub struct Directory {
    sets: usize,
    ways: usize,
    stride: u64,
    /// Line index + 1 per way; `0` = free.
    lines: Vec<u64>,
    /// Per way: the sharer mask (Shared) or the owner's id (Exclusive).
    bits: Vec<u128>,
    /// Per way: non-zero when the way's state is Exclusive.
    excl: Vec<u8>,
    spill: Vec<SpillEntry>,
    len: usize,
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new()
    }
}

impl Directory {
    /// Hard ceiling on tracked lines: 128 cores (the §7.1 concentration
    /// study maximum) × 64 KB of private L1 (I + D) per core / 64 B lines.
    /// The directory only tracks lines held in some L1, so population
    /// beyond this bound means an eviction path failed to drop its lines.
    pub const MAX_TRACKED_LINES: usize = SharerSet::MAX_CORES * (64 * 1024 / 64);

    /// Creates an empty directory with a default standalone geometry
    /// (256 sets × 16 ways, unit stride).
    pub fn new() -> Self {
        Directory::with_geometry(256, 16, 1)
    }

    /// Creates a directory slice mirroring a cache slice's geometry:
    /// `sets` must be a power of two, and `stride` is the NUCA interleave
    /// (chip line indices are divided by it before set selection, exactly
    /// like the data slice's local addressing).
    pub fn with_geometry(sets: usize, ways: usize, stride: u64) -> Self {
        assert!(sets.is_power_of_two(), "directory sets must be a power of two");
        assert!(ways > 0 && stride > 0);
        Directory {
            sets,
            ways,
            stride,
            lines: vec![0; sets * ways],
            bits: vec![0; sets * ways],
            excl: vec![0; sets * ways],
            spill: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn set_base(&self, line_index: u64) -> usize {
        (((line_index / self.stride) as usize) & (self.sets - 1)) * self.ways
    }

    #[inline]
    fn find(&self, line_index: u64) -> Option<Pos> {
        let base = self.set_base(line_index);
        let set = &self.lines[base..base + self.ways];
        if let Some(k) = set.iter().position(|&l| l == line_index + 1) {
            return Some(Pos::Way(base + k));
        }
        self.spill
            .iter()
            .position(|e| e.line == line_index)
            .map(Pos::Spill)
    }

    #[inline]
    fn get_at(&self, pos: Pos) -> DirState {
        match pos {
            Pos::Way(i) if self.excl[i] != 0 => DirState::Exclusive(CoreId(self.bits[i] as u16)),
            Pos::Way(i) => DirState::Shared(SharerSet(self.bits[i])),
            Pos::Spill(i) => self.spill[i].state,
        }
    }

    #[inline]
    fn set_at(&mut self, pos: Pos, state: DirState) {
        match pos {
            Pos::Way(i) => {
                (self.bits[i], self.excl[i]) = match state {
                    DirState::Shared(s) => (s.0, 0),
                    DirState::Exclusive(owner) => (owner.0 as u128, 1),
                }
            }
            Pos::Spill(i) => self.spill[i].state = state,
        }
    }

    fn insert(&mut self, line_index: u64, state: DirState) {
        self.len += 1;
        debug_assert!(
            self.len <= Self::MAX_TRACKED_LINES,
            "directory population {} exceeds total L1 capacity in lines — \
             an eviction path is leaking entries",
            self.len
        );
        let base = self.set_base(line_index);
        let set = &self.lines[base..base + self.ways];
        match set.iter().position(|&l| l == 0) {
            Some(k) => {
                self.lines[base + k] = line_index + 1;
                self.set_at(Pos::Way(base + k), state);
            }
            None => self.spill.push(SpillEntry {
                line: line_index,
                state,
            }),
        }
    }

    fn remove_at(&mut self, pos: Pos) {
        match pos {
            Pos::Way(i) => self.lines[i] = 0,
            Pos::Spill(i) => {
                self.spill.swap_remove(i);
            }
        }
        self.len -= 1;
    }

    /// Current state of a line (None = uncached in all L1s).
    pub fn state(&self, addr: crate::addr::Addr) -> Option<DirState> {
        self.find(addr.line_index()).map(|pos| self.get_at(pos))
    }

    /// Records `core` as a sharer (demotes Exclusive to Shared, keeping the
    /// former owner as a sharer — the FwdGetS path).
    pub fn add_sharer(&mut self, addr: crate::addr::Addr, core: CoreId) {
        let idx = addr.line_index();
        match self.find(idx) {
            Some(pos) => {
                let mut sharers = match self.get_at(pos) {
                    DirState::Shared(s) => s,
                    DirState::Exclusive(owner) => SharerSet::single(owner),
                };
                sharers.insert(core);
                self.set_at(pos, DirState::Shared(sharers));
            }
            None => self.insert(idx, DirState::Shared(SharerSet::single(core))),
        }
    }

    /// Makes `core` the exclusive owner, replacing any previous state.
    pub fn set_exclusive(&mut self, addr: crate::addr::Addr, core: CoreId) {
        let idx = addr.line_index();
        match self.find(idx) {
            Some(pos) => self.set_at(pos, DirState::Exclusive(core)),
            None => self.insert(idx, DirState::Exclusive(core)),
        }
    }

    /// Removes `core` from the line's sharers/ownership (writeback or
    /// invalidation), dropping the entry when no holder remains. Returns
    /// whether the core was recorded.
    pub fn remove_core(&mut self, addr: crate::addr::Addr, core: CoreId) -> bool {
        let idx = addr.line_index();
        let Some(pos) = self.find(idx) else {
            return false;
        };
        let (drop_entry, had) = match self.get_at(pos) {
            DirState::Exclusive(owner) => (owner == core, owner == core),
            DirState::Shared(mut s) => {
                let had = s.contains(core);
                s.remove(core);
                self.set_at(pos, DirState::Shared(s));
                (s.is_empty(), had)
            }
        };
        if drop_entry {
            self.remove_at(pos);
        }
        had
    }

    /// Drops all state for a line (LLC eviction).
    pub fn drop_line(&mut self, addr: crate::addr::Addr) {
        if let Some(pos) = self.find(addr.line_index()) {
            self.remove_at(pos);
        }
    }

    /// Number of tracked lines.
    pub fn tracked_lines(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn spill_is_empty_for_test(&self) -> bool {
        self.spill.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

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
    }

    #[test]
    fn sharer_set_from_iter() {
        let s: SharerSet = [CoreId(1), CoreId(2)].into_iter().collect();
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn exclusive_demotes_to_shared_on_read() {
        let mut dir = Directory::new();
        let a = Addr(0x100);
        dir.set_exclusive(a, CoreId(1));
        dir.add_sharer(a, CoreId(2));
        match dir.state(a) {
            Some(DirState::Shared(s)) => {
                assert!(s.contains(CoreId(1)), "old owner stays as sharer");
                assert!(s.contains(CoreId(2)));
            }
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn remove_core_drops_empty_entries() {
        let mut dir = Directory::new();
        let a = Addr(0x40);
        dir.add_sharer(a, CoreId(9));
        assert!(dir.remove_core(a, CoreId(9)));
        assert_eq!(dir.state(a), None);
        assert_eq!(dir.tracked_lines(), 0);
        assert!(!dir.remove_core(a, CoreId(9)));
    }

    #[test]
    fn remove_nonowner_is_noop() {
        let mut dir = Directory::new();
        let a = Addr(0x40);
        dir.set_exclusive(a, CoreId(1));
        assert!(!dir.remove_core(a, CoreId(2)));
        assert_eq!(dir.state(a), Some(DirState::Exclusive(CoreId(1))));
    }

    #[test]
    fn drop_line_clears_state() {
        let mut dir = Directory::new();
        let a = Addr(0x80);
        dir.set_exclusive(a, CoreId(0));
        dir.drop_line(a);
        assert_eq!(dir.state(a), None);
    }

    #[test]
    fn invalidate_paths_leave_lines_untracked() {
        // Every removal path — writeback of an owned line, last-sharer
        // invalidation, and LLC eviction — must return a line to the
        // "uncached above the LLC" state and release its slot, so
        // population stays bounded by what the L1s actually hold.
        let mut dir = Directory::new();
        for i in 0..64u64 {
            dir.add_sharer(Addr(i * 64), CoreId((i % 8) as u16));
        }
        dir.set_exclusive(Addr(64 * 64), CoreId(1));
        assert_eq!(dir.tracked_lines(), 65);
        // Owner writeback path.
        assert!(dir.remove_core(Addr(64 * 64), CoreId(1)));
        assert_eq!(dir.state(Addr(64 * 64)), None);
        // Last-sharer invalidation path.
        for i in 0..32u64 {
            assert!(dir.remove_core(Addr(i * 64), CoreId((i % 8) as u16)));
        }
        // LLC-eviction path.
        for i in 32..64u64 {
            dir.drop_line(Addr(i * 64));
        }
        assert_eq!(dir.tracked_lines(), 0);
        for i in 0..=64u64 {
            assert_eq!(dir.state(Addr(i * 64)), None);
        }
        assert!(dir.tracked_lines() <= Directory::MAX_TRACKED_LINES);
    }

    #[test]
    fn set_conflicts_spill_without_losing_state() {
        // 2 sets × 1 way: four lines in the same set force three into the
        // spill list; state and removal must behave exactly like the map.
        let mut dir = Directory::with_geometry(2, 1, 1);
        let lines = [0u64, 2, 4, 6]; // even line indices → set 0
        for (k, &l) in lines.iter().enumerate() {
            dir.add_sharer(Addr(l * 64), CoreId(k as u16));
        }
        assert_eq!(dir.tracked_lines(), 4);
        for (k, &l) in lines.iter().enumerate() {
            match dir.state(Addr(l * 64)) {
                Some(DirState::Shared(s)) => assert!(s.contains(CoreId(k as u16))),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Removing a spilled entry then reusing the freed way.
        assert!(dir.remove_core(Addr(4 * 64), CoreId(2)));
        assert_eq!(dir.state(Addr(4 * 64)), None);
        dir.set_exclusive(Addr(8 * 64), CoreId(9));
        assert_eq!(dir.state(Addr(8 * 64)), Some(DirState::Exclusive(CoreId(9))));
        assert_eq!(dir.tracked_lines(), 4);
        for &l in &[0u64, 2, 6, 8] {
            dir.drop_line(Addr(l * 64));
        }
        assert_eq!(dir.tracked_lines(), 0);
    }

    #[test]
    fn line_zero_is_a_line_not_a_free_way() {
        // Ways store line + 1 so that zeroed storage reads as free; line
        // index 0 must still be tracked, found, demoted and dropped like
        // any other line — in a way and in the spill list.
        let zero = Addr(0);
        let mut dir = Directory::with_geometry(2, 1, 1);
        assert_eq!(dir.state(zero), None, "a free way is not line 0");
        dir.set_exclusive(zero, CoreId(0));
        assert_eq!(dir.state(zero), Some(DirState::Exclusive(CoreId(0))));
        assert_eq!(dir.tracked_lines(), 1);
        // Same set, way taken by line 0: line 2 spills; line 0 stays found.
        dir.add_sharer(Addr(2 * 64), CoreId(1));
        assert!(!dir.spill_is_empty_for_test());
        dir.add_sharer(zero, CoreId(3));
        let both: SharerSet = [CoreId(0), CoreId(3)].into_iter().collect();
        assert_eq!(dir.state(zero), Some(DirState::Shared(both)), "demoted");
        assert!(dir.remove_core(zero, CoreId(0)));
        assert!(dir.remove_core(zero, CoreId(3)));
        assert_eq!(dir.state(zero), None);
        assert_eq!(dir.tracked_lines(), 1);
        // Line 4 takes the freed way, so now line 0 is the one that spills.
        dir.add_sharer(Addr(4 * 64), CoreId(2));
        dir.add_sharer(zero, CoreId(5));
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
    fn nuca_stride_selects_slice_local_sets() {
        // With stride 64 (a 64-tile interleave), chip lines 0 and 64 are
        // consecutive slice-local lines and must land in different sets of
        // a 2-set directory rather than aliasing.
        let mut dir = Directory::with_geometry(2, 1, 64);
        dir.add_sharer(Addr(0), CoreId(0));
        dir.add_sharer(Addr(64 * 64), CoreId(1));
        assert_eq!(dir.tracked_lines(), 2);
        assert!(dir.spill_is_empty_for_test());
    }

    #[test]
    fn lines_are_independent() {
        let mut dir = Directory::new();
        dir.add_sharer(Addr(0x00), CoreId(1));
        dir.add_sharer(Addr(0x40), CoreId(2));
        assert_eq!(dir.tracked_lines(), 2);
        match dir.state(Addr(0x00)) {
            Some(DirState::Shared(s)) => assert!(!s.contains(CoreId(2))),
            other => panic!("unexpected {other:?}"),
        }
    }
}
