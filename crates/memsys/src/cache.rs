//! Set-associative cache tag array with true-LRU replacement.
//!
//! Used for both the 32 KB L1s and the LLC slices. Only tags and metadata
//! are modelled — the simulator never carries data values, just timing.
//!
//! Storage is flat arrays indexed `set * ways + way`, sized to what they
//! hold:
//!
//! * `tags`: the line's bits above the set index, plus one, so `0` is an
//!   invalid way. The word is the array's type parameter ([`TagWord`]):
//!   `u64` in the L1s, whose private regions sit 2⁴⁰ apart, and `u32` in
//!   the LLC slices, where the tile interleave and 1 024 or 128 sets
//!   leave at most 29 tag bits below 2⁴⁸. A line whose tag does not fit
//!   the word is refused, never truncated.
//! * `lru`: a one-byte recency stamp per way, drawn from a per-set clock.
//!   A stamp only orders the ways of its own set, so when a set's clock
//!   would pass 255 a cold path renumbers that set's valid ways `1..=k`
//!   in their current order and the clock carries on from `k`: victims
//!   are the same on a run of any length.
//! * `dirty`: one bit per way.
//!
//! A 16-way LLC way costs 4 + 1 + ⅛ bytes plus a sixteenth of its set's
//! clock; a 4-way L1 way 8 + 1 + ⅛ plus a quarter.

use crate::addr::Addr;
use std::fmt::Debug;

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

/// The word a [`CacheArray`] stores a tag in: a line's bits above the set
/// index, plus one (`0` marks an invalid way).
pub trait TagWord: Copy + Eq + Default + Debug {
    /// The stored form of `high`, a line's bits above the set index, or
    /// `None` when `high + 1` does not fit the word.
    fn encode(high: u64) -> Option<Self>;
    /// The `high` an [`TagWord::encode`]d word was made from.
    fn decode(self) -> u64;
}

impl TagWord for u64 {
    #[inline]
    fn encode(high: u64) -> Option<Self> {
        high.checked_add(1)
    }

    #[inline]
    fn decode(self) -> u64 {
        self - 1
    }
}

impl TagWord for u32 {
    #[inline]
    fn encode(high: u64) -> Option<Self> {
        u32::try_from(high + 1).ok()
    }

    #[inline]
    fn decode(self) -> u64 {
        u64::from(self) - 1
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

/// A set-associative, true-LRU, write-back tag array storing its tags in
/// `T` (see the module doc).
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::cache::{CacheArray, CacheGeometry, Lookup};
///
/// let mut c: CacheArray = CacheArray::new(CacheGeometry::l1_32k());
/// let a = Addr(0x1000);
/// assert_eq!(c.lookup(a), Lookup::Miss);
/// c.insert(a, false);
/// assert_eq!(c.lookup(a), Lookup::Hit);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheArray<T: TagWord = u64> {
    geometry: CacheGeometry,
    sets: usize,
    /// Encoded tag per way; `T::default()` (zero) = invalid.
    tags: Vec<T>,
    /// Last-use stamp per way; higher = more recently used. Only the
    /// order of a set's valid ways means anything (see the module doc).
    lru: Vec<u8>,
    /// Per set: the latest stamp handed out; `0` while the set is unused.
    clock: Vec<u8>,
    /// One dirty bit per way, 64 ways a word.
    dirty: Vec<u64>,
    line_shift: u32,
    /// Log2 of the set count: a line's tag is `line >> set_shift`.
    set_shift: u32,
}

impl<T: TagWord> CacheArray<T> {
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
        assert!(
            geometry.ways < u8::MAX as usize,
            "one-byte recency stamps order at most 254 ways"
        );
        let n = sets * geometry.ways;
        CacheArray {
            geometry,
            sets,
            tags: vec![T::default(); n],
            lru: vec![0; n],
            clock: vec![0; sets],
            dirty: vec![0; n.div_ceil(64)],
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
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

    #[inline]
    fn set_of(&self, line_index: u64) -> usize {
        (line_index as usize) & (self.sets - 1)
    }

    /// The stored tag of `line_index`.
    ///
    /// # Panics
    ///
    /// When the tag does not fit `T`, naming the line's address: a
    /// truncated tag would alias another line.
    #[inline]
    fn tag_of(&self, line_index: u64) -> T {
        match T::encode(line_index >> self.set_shift) {
            Some(tag) => tag,
            None => self.tag_overflow(line_index),
        }
    }

    #[cold]
    #[inline(never)]
    fn tag_overflow(&self, line_index: u64) -> ! {
        panic!(
            "line address {} has tag bits that do not fit a {}-byte tag word",
            Addr(line_index << self.line_shift),
            std::mem::size_of::<T>()
        )
    }

    /// Resolves a line number (address >> line shift) to the base index
    /// of its set's ways — the geometry math of a lookup, exposed so hot
    /// callers can decode a line once and reuse the result across the
    /// line-crossing check, the tag probe and retries (see
    /// [`CacheArray::lookup_at`]).
    #[inline]
    pub fn set_base_of_line(&self, line_index: u64) -> u32 {
        (self.set_of(line_index) * self.geometry.ways) as u32
    }

    /// The way holding `tag` in the set starting at `base`.
    #[inline]
    fn find(&self, base: usize, tag: T) -> Option<usize> {
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
        self.find(self.set_base_of_line(line) as usize, self.tag_of(line))
    }

    #[inline]
    fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i >> 6] >> (i & 63) & 1 != 0
    }

    #[inline]
    fn set_dirty(&mut self, i: usize, dirty: bool) {
        let (word, bit) = (&mut self.dirty[i >> 6], 1u64 << (i & 63));
        if dirty {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Advances `set`'s clock and returns the new stamp, renumbering the
    /// set first when its clock is exhausted.
    #[inline]
    fn next_stamp(&mut self, set: usize) -> u8 {
        if self.clock[set] == u8::MAX {
            self.rerank(set);
        }
        self.clock[set] += 1;
        self.clock[set]
    }

    /// Renumbers `set`'s valid ways `1..=k` in their current recency
    /// order and restarts its clock at `k`. A valid way's stamps are
    /// distinct (each is a fresh clock value), so a way's new number is
    /// one more than the count of valid stamps below its own. Victim
    /// choice compares stamps within the set only, so it is unchanged.
    #[cold]
    #[inline(never)]
    fn rerank(&mut self, set: usize) {
        let base = set * self.geometry.ways;
        let ways = base..base + self.geometry.ways;
        let mut seen = [0u64; 4];
        let mut valid = 0u8;
        for i in ways.clone().filter(|&i| self.tags[i] != T::default()) {
            let s = self.lru[i] as usize;
            seen[s >> 6] |= 1 << (s & 63);
            valid += 1;
        }
        for i in ways.filter(|&i| self.tags[i] != T::default()) {
            let s = self.lru[i] as usize;
            let below = seen[..s >> 6].iter().map(|w| w.count_ones()).sum::<u32>()
                + (seen[s >> 6] & ((1u64 << (s & 63)) - 1)).count_ones();
            self.lru[i] = below as u8 + 1;
        }
        self.clock[set] = valid;
    }

    /// [`CacheArray::lookup`] with the geometry pre-resolved: `set_base`
    /// must be `self.set_base_of_line(line_index)`. Identical recency
    /// behaviour (the set's clock advances on every lookup, hit or miss).
    #[inline]
    pub fn lookup_at(&mut self, set_base: u32, line_index: u64) -> Lookup {
        debug_assert_eq!(set_base, self.set_base_of_line(line_index));
        let way = self.find(set_base as usize, self.tag_of(line_index));
        self.touch(line_index, way)
    }

    /// The recency half of a lookup whose way is already resolved: `way`
    /// must be where `line_index` sits (`None`: absent). Advances the
    /// line's set clock and stamps the way.
    #[inline]
    pub(crate) fn touch(&mut self, line_index: u64, way: Option<usize>) -> Lookup {
        let stamp = self.next_stamp(self.set_of(line_index));
        match way {
            Some(i) => {
                self.lru[i] = stamp;
                Lookup::Hit
            }
            None => Lookup::Miss,
        }
    }

    /// Marks the line in `way` dirty.
    #[inline]
    pub(crate) fn mark_way_dirty(&mut self, way: usize) {
        self.set_dirty(way, true);
    }

    /// [`CacheArray::mark_dirty`] with the geometry pre-resolved.
    #[inline]
    pub fn mark_dirty_at(&mut self, set_base: u32, line_index: u64) -> bool {
        debug_assert_eq!(set_base, self.set_base_of_line(line_index));
        let hit = self.find(set_base as usize, self.tag_of(line_index));
        if let Some(i) = hit {
            self.set_dirty(i, true);
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
        let tag = self.tag_of(line);
        let set = self.set_of(line);
        let base = set * self.geometry.ways;
        let ways = base..base + self.geometry.ways;
        let stamp = self.next_stamp(set);
        // Already present: refresh (fill on a racing request).
        if let Some(i) = self.find(base, tag) {
            self.lru[i] = stamp;
            if dirty {
                self.set_dirty(i, true);
            }
            return (i, None);
        }
        // A free way, else evict the LRU one.
        let free = self.tags[ways.clone()]
            .iter()
            .position(|&t| t == T::default());
        let (i, evicted) = match free {
            Some(k) => (base + k, None),
            None => {
                let i = ways.min_by_key(|&i| self.lru[i]).expect("ways non-empty");
                let victim_line = self.tags[i].decode() << self.set_shift | set as u64;
                let victim = Evicted {
                    addr: Addr(victim_line << self.line_shift),
                    dirty: self.is_dirty(i),
                };
                (i, Some(victim))
            }
        };
        self.tags[i] = tag;
        self.lru[i] = stamp;
        self.set_dirty(i, dirty);
        (i, evicted)
    }

    /// Installs whole runs of consecutive lines, clean, into a never-used
    /// array: the state `insert(line, false)` for every line of each
    /// `(first_line, count)` range in turn would leave, in closed form.
    /// In an array that has seen nothing else, the k-th line a set
    /// receives lands in way `k mod W` with the set's next stamp: the
    /// first `W` fill the free ways in order, and once the set is full
    /// its least recent way is always the one filled `W` lines earlier.
    /// Each line costs one tag and one stamp write, with no set scan.
    ///
    /// # Panics
    ///
    /// Panics if the array has been used (any lookup or insert) or two
    /// ranges share a line: either would make "way k mod W, next stamp"
    /// wrong.
    pub fn warm_fill(&mut self, ranges: &[(u64, u64)]) {
        assert!(
            self.clock.iter().all(|&c| c == 0),
            "warm_fill needs a never-used array"
        );
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
                let tag = self.tag_of(line);
                let set = self.set_of(line);
                let i = set * ways + filled[set] % ways;
                filled[set] += 1;
                // The stamp first: a renumbering must see the way as the
                // insert would, before the new line lands in it.
                let stamp = self.next_stamp(set);
                self.tags[i] = tag;
                self.lru[i] = stamp;
            }
        }
    }

    /// Invalidates a line if present; returns `(was_present, was_dirty)`.
    pub fn invalidate(&mut self, addr: Addr) -> (bool, bool) {
        match self.way_of(addr) {
            Some(i) => {
                let dirty = self.is_dirty(i);
                self.tags[i] = T::default();
                self.set_dirty(i, false);
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
            self.set_dirty(i, false);
        }
        hit.is_some()
    }

    /// Number of valid lines (test/diagnostic helper; O(size)).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != T::default()).count()
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
        // whose set clocks start `short` of exhaustion: hits, misses and
        // victims must agree before, across and after each renumbering.
        // 3 000 operations over two sets wrap every set's clock several
        // times in both arrays.
        let geometry = CacheGeometry {
            capacity_bytes: 512, // 2 sets × 4 ways
            ways: 4,
            line_bytes: 64,
        };
        for short in [0u8, 1, 5, 30, 100] {
            let mut fresh: CacheArray = CacheArray::new(geometry);
            let mut worn: CacheArray = CacheArray::new(geometry);
            worn.clock.fill(u8::MAX - short);
            let mut x = 12345u64;
            for _ in 0..3000 {
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
            assert_eq!(fresh.tags, worn.tags);
        }
    }

    #[test]
    fn a_full_set_keeps_its_lru_order_across_a_renumbering() {
        // Four ways filled, touched in a known order, then the set's clock
        // is run up to the wrap by misses: the renumbering must keep the
        // least recent way the victim, then the next, and so on.
        let mut c: CacheArray = CacheArray::new(CacheGeometry {
            capacity_bytes: 256, // 1 set × 4 ways
            ways: 4,
            line_bytes: 64,
        });
        let line = |k: u64| Addr(k * 64);
        for k in 0..4 {
            c.insert(line(k), false);
        }
        for k in [2, 0, 3, 1] {
            assert_eq!(c.lookup(line(k)), Lookup::Hit);
        }
        while c.clock[0] != u8::MAX {
            assert_eq!(c.lookup(line(99)), Lookup::Miss);
        }
        assert_eq!(c.lookup(line(99)), Lookup::Miss, "renumbers the set");
        assert_eq!(c.clock[0], 5);
        for (incoming, victim) in [(10, 2), (11, 0), (12, 3), (13, 1)] {
            assert_eq!(c.insert(line(incoming), false).map(|e| e.addr), Some(line(victim)));
        }
    }

    /// A `u32`-tagged array of 8 sets: a line's tag is `line >> 3`.
    fn narrow() -> CacheArray<u32> {
        CacheArray::new(CacheGeometry {
            capacity_bytes: 8 * 2 * 64,
            ways: 2,
            line_bytes: 64,
        })
    }

    /// The highest line of set 5 whose tag still fits a `u32`.
    const WIDEST_FITTING_LINE: u64 = (u32::MAX as u64 - 1) << 3 | 5;

    #[test]
    fn a_u32_tag_round_trips_up_to_the_word() {
        let mut c = narrow();
        let widest = Addr::from_line_index(WIDEST_FITTING_LINE);
        let low = Addr::from_line_index(5);
        c.insert(widest, true);
        c.insert(low, false);
        assert_eq!(c.probe(widest), Lookup::Hit);
        let evicted = c.insert(Addr::from_line_index(13), false);
        assert_eq!(
            evicted,
            Some(Evicted {
                addr: widest,
                dirty: true
            }),
            "the victim's address is rebuilt from its tag and set"
        );
    }

    #[test]
    #[should_panic(expected = "line address 0x1ffffffff40 has tag bits that do not fit")]
    fn a_u32_array_refuses_a_lookup_whose_tag_does_not_fit() {
        narrow().lookup(Addr::from_line_index(WIDEST_FITTING_LINE + 8));
    }

    #[test]
    #[should_panic(expected = "line address 0x1ffffffff40 has tag bits that do not fit")]
    fn a_u32_array_refuses_an_insert_whose_tag_does_not_fit() {
        narrow().insert(Addr::from_line_index(WIDEST_FITTING_LINE + 8), false);
    }

    #[test]
    fn l1_geometry() {
        let g = CacheGeometry::l1_32k();
        assert_eq!(g.sets(), 128);
        let c: CacheArray = CacheArray::new(g);
        assert_eq!(c.geometry().ways, 4);
    }
}
