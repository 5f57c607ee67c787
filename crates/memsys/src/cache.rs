//! Set-associative cache tag array with true-LRU replacement.
//!
//! Used for both the 32 KB L1s and the LLC slices. Only tags and metadata
//! are modelled — the simulator never carries data values, just timing.
//!
//! Storage is three flat arrays indexed `set * ways + way`: `tags` (line
//! index + 1, so `0` is an invalid way), `u32` LRU stamps and `dirty`
//! bytes — 13 bytes a way — and a tag probe scans one dense `u64` slice.
//! A stamp only orders the ways of one set, so when the array-wide
//! counter would pass `u32::MAX` a cold path renumbers every set's valid
//! ways `1..=k` in their current order and the count carries on from
//! there: victims are the same on a run of any length.

use crate::addr::Addr;

/// Geometry of a cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// A 32 KB, 4-way L1 (Cortex-A15-like).
    pub fn l1_32k() -> Self {
        CacheGeometry {
            capacity_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }
}

/// A line evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line address of the victim.
    pub addr: Addr,
    /// Whether the victim was dirty (must be written back).
    pub dirty: bool,
}

/// Outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present.
    Hit,
    /// Line absent.
    Miss,
}

/// A set-associative, true-LRU, write-back tag array.
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::cache::{CacheArray, CacheGeometry, Lookup};
///
/// let mut c = CacheArray::new(CacheGeometry::l1_32k());
/// let a = Addr(0x1000);
/// assert_eq!(c.lookup(a), Lookup::Miss);
/// c.insert(a, false);
/// assert_eq!(c.lookup(a), Lookup::Hit);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheArray {
    geometry: CacheGeometry,
    sets: usize,
    /// Line index + 1 per way; `0` = invalid.
    tags: Vec<u64>,
    /// Last-use stamp per way; higher = more recently used. Only the
    /// order of a set's valid ways means anything (see the module doc).
    lru: Vec<u32>,
    dirty: Vec<u8>,
    stamp: u32,
    line_shift: u32,
}

impl CacheArray {
    /// Creates an empty array.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets or a non-power-of-two set
    /// count or line size.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(geometry.line_bytes.is_power_of_two());
        let n = sets * geometry.ways;
        CacheArray {
            geometry,
            sets,
            tags: vec![0; n],
            lru: vec![0; n],
            dirty: vec![0; n],
            stamp: 0,
            line_shift: geometry.line_bytes.trailing_zeros(),
        }
    }

    /// The configured geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    #[inline]
    fn line_of(&self, addr: Addr) -> u64 {
        addr.0 >> self.line_shift
    }

    /// Resolves a line number (address >> line shift) to the base index
    /// of its set's ways — the geometry math of a lookup, exposed so hot
    /// callers can decode a line once and reuse the result across the
    /// line-crossing check, the tag probe and retries (see
    /// [`CacheArray::lookup_at`]).
    #[inline]
    pub fn set_base_of_line(&self, line_index: u64) -> u32 {
        (((line_index as usize) & (self.sets - 1)) * self.geometry.ways) as u32
    }

    /// The way holding `line_index` in the set starting at `base`.
    #[inline]
    fn find(&self, base: usize, line_index: u64) -> Option<usize> {
        let tag = line_index + 1;
        self.tags[base..base + self.geometry.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|k| base + k)
    }

    /// The way holding `addr`'s line, without updating recency: the
    /// index a per-way side array (the LLC's directory state) shares.
    #[inline]
    pub(crate) fn way_of(&self, addr: Addr) -> Option<usize> {
        let line = self.line_of(addr);
        self.find(self.set_base_of_line(line) as usize, line)
    }

    /// Advances the recency counter and returns the new stamp,
    /// renumbering every set first when the counter is exhausted.
    #[inline]
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.rerank();
        }
        self.stamp += 1;
        self.stamp
    }

    /// Renumbers each set's valid ways `1..=k` in their current recency
    /// order (stamps within a set are distinct, so the order is total)
    /// and restarts the counter at the highest number given. Victim
    /// choice compares stamps within one set only, so it is unchanged.
    #[cold]
    #[inline(never)]
    fn rerank(&mut self) {
        let ways = self.geometry.ways;
        let mut order: Vec<usize> = Vec::with_capacity(ways);
        for base in (0..self.tags.len()).step_by(ways) {
            order.clear();
            order.extend((base..base + ways).filter(|&i| self.tags[i] != 0));
            order.sort_unstable_by_key(|&i| self.lru[i]);
            for (rank, &i) in order.iter().enumerate() {
                self.lru[i] = rank as u32 + 1;
            }
        }
        self.stamp = ways as u32;
    }

    /// [`CacheArray::lookup`] with the geometry pre-resolved: `set_base`
    /// must be `self.set_base_of_line(line_index)`. Identical recency
    /// behaviour (the LRU stamp advances on every lookup, hit or miss).
    #[inline]
    pub fn lookup_at(&mut self, set_base: u32, line_index: u64) -> Lookup {
        debug_assert_eq!(set_base, self.set_base_of_line(line_index));
        let stamp = self.next_stamp();
        match self.find(set_base as usize, line_index) {
            Some(i) => {
                self.lru[i] = stamp;
                Lookup::Hit
            }
            None => Lookup::Miss,
        }
    }

    /// [`CacheArray::mark_dirty`] with the geometry pre-resolved.
    #[inline]
    pub fn mark_dirty_at(&mut self, set_base: u32, line_index: u64) -> bool {
        debug_assert_eq!(set_base, self.set_base_of_line(line_index));
        let hit = self.find(set_base as usize, line_index);
        if let Some(i) = hit {
            self.dirty[i] = 1;
        }
        hit.is_some()
    }

    /// Probes for a line without updating recency.
    pub fn probe(&self, addr: Addr) -> Lookup {
        match self.way_of(addr) {
            Some(_) => Lookup::Hit,
            None => Lookup::Miss,
        }
    }

    /// Looks up a line, updating LRU recency on a hit.
    pub fn lookup(&mut self, addr: Addr) -> Lookup {
        let idx = self.line_of(addr);
        self.lookup_at(self.set_base_of_line(idx), idx)
    }

    /// Marks a present line dirty (returns whether it was present).
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        let idx = self.line_of(addr);
        self.mark_dirty_at(self.set_base_of_line(idx), idx)
    }

    /// Inserts a line (after a fill), evicting the LRU way if the set is
    /// full. Returns the victim, if any.
    pub fn insert(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        self.insert_way(addr, dirty).1
    }

    /// [`CacheArray::insert`], also returning the way the line now
    /// occupies: the way [`CacheArray::way_of`] resolves for it, and the
    /// victim's way when there is a victim.
    pub(crate) fn insert_way(&mut self, addr: Addr, dirty: bool) -> (usize, Option<Evicted>) {
        let line = self.line_of(addr);
        let base = self.set_base_of_line(line) as usize;
        let set = base..base + self.geometry.ways;
        let stamp = self.next_stamp();
        // Already present: refresh (fill on a racing request).
        if let Some(i) = self.find(base, line) {
            self.lru[i] = stamp;
            self.dirty[i] |= dirty as u8;
            return (i, None);
        }
        // A free way, else evict the LRU one.
        let (i, evicted) = match self.tags[set.clone()].iter().position(|&t| t == 0) {
            Some(k) => (base + k, None),
            None => {
                let i = set.min_by_key(|&i| self.lru[i]).expect("ways non-empty");
                let victim = Evicted {
                    addr: Addr((self.tags[i] - 1) << self.line_shift),
                    dirty: self.dirty[i] != 0,
                };
                (i, Some(victim))
            }
        };
        self.tags[i] = line + 1;
        self.lru[i] = stamp;
        self.dirty[i] = dirty as u8;
        (i, evicted)
    }

    /// Installs whole runs of consecutive lines, clean, into a never-used
    /// array: the state `insert(line, false)` for every line of each
    /// `(first_line, count)` range in turn would leave, in closed form.
    /// In an array that has seen nothing else, the k-th line a set
    /// receives lands in way `k mod W` with the next stamp: the first `W`
    /// fill the free ways in order, and once the set is full its least
    /// recent way is always the one filled `W` lines earlier. Each line
    /// costs one tag and one stamp write, with no set scan.
    ///
    /// # Panics
    ///
    /// Panics if the array has been used (any lookup or insert) or two
    /// ranges share a line: either would make "way k mod W, next stamp"
    /// wrong.
    pub fn warm_fill(&mut self, ranges: &[(u64, u64)]) {
        assert_eq!(self.stamp, 0, "warm_fill needs a never-used array");
        for (k, a) in ranges.iter().enumerate() {
            for b in &ranges[..k] {
                assert!(
                    a.0.max(b.0) >= (a.0 + a.1).min(b.0 + b.1),
                    "warm_fill ranges {a:?} and {b:?} overlap"
                );
            }
        }
        let ways = self.geometry.ways;
        let mut filled = vec![0usize; self.sets];
        for &(first, count) in ranges {
            for line in first..first + count {
                let set = (line as usize) & (self.sets - 1);
                let i = set * ways + filled[set] % ways;
                filled[set] += 1;
                self.tags[i] = line + 1;
                self.lru[i] = self.next_stamp();
            }
        }
    }

    /// Invalidates a line if present; returns `(was_present, was_dirty)`.
    pub fn invalidate(&mut self, addr: Addr) -> (bool, bool) {
        match self.way_of(addr) {
            Some(i) => {
                let dirty = self.dirty[i] != 0;
                self.tags[i] = 0;
                self.dirty[i] = 0;
                (true, dirty)
            }
            None => (false, false),
        }
    }

    /// Clears a present line's dirty bit (downgrade on a forward snoop);
    /// returns whether the line was present.
    pub fn clean(&mut self, addr: Addr) -> bool {
        let hit = self.way_of(addr);
        if let Some(i) = hit {
            self.dirty[i] = 0;
        }
        hit.is_some()
    }

    /// Number of valid lines (test/diagnostic helper; O(size)).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 4 sets × 2 ways × 64 B = 512 B.
        CacheArray::new(CacheGeometry {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    fn line(set: u64, tag: u64) -> Addr {
        // 4 sets.
        Addr((tag * 4 + set) * 64)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let a = line(0, 1);
        assert_eq!(c.lookup(a), Lookup::Miss);
        assert!(c.insert(a, false).is_none());
        assert_eq!(c.lookup(a), Lookup::Hit);
        assert_eq!(c.probe(a), Lookup::Hit);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        let a = line(0, 1);
        let b = line(0, 2);
        let d = line(0, 3);
        c.insert(a, false);
        c.insert(b, false);
        // Touch a so b is LRU.
        assert_eq!(c.lookup(a), Lookup::Hit);
        let ev = c.insert(d, false).expect("set full, must evict");
        assert_eq!(ev.addr, b.line());
        assert!(!ev.dirty);
        assert_eq!(c.probe(a), Lookup::Hit);
        assert_eq!(c.probe(b), Lookup::Miss);
    }

    #[test]
    fn dirty_victims_reported() {
        let mut c = small();
        let a = line(1, 1);
        c.insert(a, false);
        assert!(c.mark_dirty(a));
        c.insert(line(1, 2), false);
        let ev = c.insert(line(1, 3), false).unwrap();
        assert_eq!(ev.addr, a.line());
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_and_clean() {
        let mut c = small();
        let a = line(2, 5);
        c.insert(a, true);
        assert!(c.clean(a));
        let (present, dirty) = c.invalidate(a);
        assert!(present);
        assert!(!dirty, "clean() must have cleared the dirty bit");
        assert_eq!(c.probe(a), Lookup::Miss);
        assert_eq!(c.invalidate(a), (false, false));
    }

    #[test]
    fn insert_same_line_is_idempotent() {
        let mut c = small();
        let a = line(0, 9);
        c.insert(a, false);
        assert!(c.insert(a, true).is_none());
        assert_eq!(c.valid_lines(), 1);
        // The refreshed line must now be dirty.
        let (_, dirty) = c.invalidate(a);
        assert!(dirty);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        for s in 0..4 {
            c.insert(line(s, 7), false);
        }
        assert_eq!(c.valid_lines(), 4);
        for s in 0..4 {
            assert_eq!(c.probe(line(s, 7)), Lookup::Hit);
        }
    }

    #[test]
    fn stamp_rerank_keeps_victims_across_the_wrap() {
        // One lookup/insert/invalidate script on a fresh array and on one
        // whose counter starts `short` of exhaustion: hits, misses and
        // victims must agree before, across and after the renumbering.
        let geometry = CacheGeometry {
            capacity_bytes: 512, // 2 sets × 4 ways
            ways: 4,
            line_bytes: 64,
        };
        for short in [0, 1, 5, 30, 100] {
            let mut fresh = CacheArray::new(geometry);
            let mut worn = CacheArray::new(geometry);
            worn.stamp = u32::MAX - short;
            let mut x = 12345u64;
            for _ in 0..400 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = Addr(((x >> 33) % 12) * 64);
                match (x >> 59) % 8 {
                    0..=3 => assert_eq!(fresh.lookup(a), worn.lookup(a)),
                    4..=6 => {
                        let dirty = x >> 40 & 1 == 1;
                        assert_eq!(fresh.insert(a, dirty), worn.insert(a, dirty));
                    }
                    _ => assert_eq!(fresh.invalidate(a), worn.invalidate(a)),
                }
            }
            assert!(worn.stamp < 400, "the counter never wrapped");
            assert_eq!(fresh.tags, worn.tags);
        }
    }

    #[test]
    fn l1_geometry() {
        let g = CacheGeometry::l1_32k();
        assert_eq!(g.sets(), 128);
        let c = CacheArray::new(g);
        assert_eq!(c.geometry().ways, 4);
    }
}
