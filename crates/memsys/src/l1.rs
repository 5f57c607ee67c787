//! Private L1 caches with miss-status holding registers.
//!
//! Each core has a 32 KB L1-I and a 32 KB L1-D (Table 1). L1-I misses stall
//! fetch — the effect the whole paper revolves around — while L1-D misses
//! overlap up to the MSHR/LSQ bound, modelling the low memory-level
//! parallelism of scale-out workloads.
//!
//! Simplification: an L1 line is present or absent, clean or dirty; the
//! L1 does not track shared versus exclusive. A store that hits a present
//! line marks it dirty without an upgrade request, so a write to a line
//! the core holds shared costs no coherence traffic. Exclusivity lives in
//! the home tile's directory, which forwards or invalidates on the next
//! core's miss.

use crate::addr::Addr;
use crate::cache::{CacheArray, CacheGeometry, Evicted, Lookup};
use crate::mshr::MshrFile;
use nocout_sim::stats::Counter;

/// Result of an L1 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Access {
    /// Line present; access completes at L1 latency.
    Hit,
    /// Line absent; a new miss transaction must be issued (an MSHR was
    /// allocated).
    Miss,
    /// Line absent but a miss for the same line is already outstanding;
    /// the access piggybacks on it (no new request).
    MergedMiss,
    /// All MSHRs are busy; the access must retry later.
    Blocked,
}

/// Configuration of an L1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Tag/data geometry.
    pub geometry: CacheGeometry,
    /// Maximum outstanding line misses.
    pub mshr_capacity: usize,
    /// Access latency in cycles (hit or miss detection).
    pub latency: u64,
}

impl L1Config {
    /// Cortex-A15-like 32 KB L1 with a handful of MSHRs.
    pub fn a15() -> Self {
        L1Config {
            geometry: CacheGeometry::l1_32k(),
            mshr_capacity: 8,
            latency: 2,
        }
    }
}

/// A private L1 cache (instruction or data).
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::l1::{L1Access, L1Cache, L1Config};
///
/// let mut l1 = L1Cache::new(L1Config::a15());
/// let a = Addr(0x400);
/// assert_eq!(l1.access(a, false, 1), L1Access::Miss);
/// assert_eq!(l1.access(a, false, 2), L1Access::MergedMiss);
/// let mut waiters = Vec::new();
/// let evicted = l1.fill(a, false, &mut waiters);
/// assert_eq!(waiters, vec![1, 2]);
/// assert!(evicted.is_none());
/// assert_eq!(l1.access(a, false, 3), L1Access::Hit);
/// ```
#[derive(Debug)]
pub struct L1Cache {
    cfg: L1Config,
    array: CacheArray,
    /// `mshr_capacity` slots, line-index addressed; the record is whether
    /// any merged request wants write permission (see [`crate::mshr`]).
    mshrs: MshrFile<u64, bool>,
    /// Statistics.
    pub hits: Counter,
    /// Misses that allocated a new MSHR.
    pub misses: Counter,
    /// Misses merged into an outstanding MSHR.
    pub merged: Counter,
    /// Accesses rejected because MSHRs were full.
    pub blocked: Counter,
}

impl L1Cache {
    /// Creates an empty L1.
    ///
    /// # Panics
    ///
    /// Panics if `mshr_capacity` is zero (every miss would block), or if
    /// the geometry's line size differs from the global
    /// [`crate::addr::LINE_BYTES`]: the L1's MSHRs and pre-decoded
    /// access path address lines by the global line index, so a
    /// different per-array line size would make the tag array and the
    /// MSHR file disagree about what a "line" is.
    pub fn new(cfg: L1Config) -> Self {
        assert!(cfg.mshr_capacity > 0, "an MSHR file needs at least one slot");
        assert_eq!(
            cfg.geometry.line_bytes,
            crate::addr::LINE_BYTES,
            "L1 line size must match the global line size"
        );
        L1Cache {
            cfg,
            array: CacheArray::new(cfg.geometry),
            mshrs: MshrFile::new(cfg.mshr_capacity),
            hits: Counter::new(),
            misses: Counter::new(),
            merged: Counter::new(),
            blocked: Counter::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> L1Config {
        self.cfg
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// Performs an access for the line containing `addr`. `waiter` is an
    /// opaque tag returned by [`fill`](Self::fill) when the line arrives.
    ///
    /// Write upgrades are folded into misses: a store to a present line
    /// simply marks it dirty (the L1 does not track S/E; see the module
    /// doc).
    pub fn access(&mut self, addr: Addr, is_write: bool, waiter: u64) -> L1Access {
        let idx = addr.line_index();
        self.access_indexed(idx, self.array.set_base_of_line(idx), is_write, waiter)
    }

    /// [`L1Cache::access`] with the line geometry pre-resolved: `line_index`
    /// is the line number of the accessed address and `set_base` its
    /// resolved set base ([`L1Cache::set_base_of`]). The core's fetch path
    /// decodes the current fetch line once and reuses the result across
    /// the line-crossing check, this access, and blocked-retry re-probes.
    #[inline]
    pub fn access_indexed(
        &mut self,
        line_index: u64,
        set_base: u32,
        is_write: bool,
        waiter: u64,
    ) -> L1Access {
        match self.array.lookup_at(set_base, line_index) {
            Lookup::Hit => {
                if is_write {
                    self.array.mark_dirty_at(set_base, line_index);
                }
                self.hits.incr();
                L1Access::Hit
            }
            Lookup::Miss => {
                if let Some(wants_write) = self.mshrs.merge(line_index, waiter) {
                    *wants_write |= is_write;
                    self.merged.incr();
                    L1Access::MergedMiss
                } else if self.mshrs.len() == self.mshrs.capacity() {
                    self.blocked.incr();
                    L1Access::Blocked
                } else {
                    self.mshrs.alloc(line_index, is_write, waiter);
                    self.misses.incr();
                    L1Access::Miss
                }
            }
        }
    }

    /// Resolves a line number to its set base in the tag array (for
    /// [`L1Cache::access_indexed`] callers caching the decode).
    #[inline]
    pub fn set_base_of(&self, line_index: u64) -> u32 {
        self.array.set_base_of_line(line_index)
    }

    /// Number of outstanding misses.
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// Whether a miss for this line is outstanding.
    pub fn miss_pending(&self, addr: Addr) -> bool {
        self.mshrs.lookup(addr.line_index()).is_some()
    }

    /// Completes a miss: installs the line and releases its MSHR,
    /// appending the miss's waiter tags (in request order) to `waiters` —
    /// a caller-provided scratch buffer the caller clears, so a fill
    /// allocates nothing. Returns any evicted victim.
    ///
    /// # Panics
    ///
    /// Panics if no miss is outstanding for the line.
    pub fn fill(&mut self, addr: Addr, dirty: bool, waiters: &mut Vec<u64>) -> Option<Evicted> {
        let line = addr.line();
        let id = self
            .mshrs
            .lookup(line.line_index())
            .expect("fill without outstanding miss");
        let (_, wants_write) = self.mshrs.release(id, waiters);
        self.array.insert(line, dirty || wants_write)
    }

    /// Installs a line without timing effects (checkpoint-style cache
    /// warming, mirroring the paper's warmed-checkpoint methodology).
    pub fn warm(&mut self, addr: Addr) {
        let _ = self.array.insert(addr.line(), false);
    }

    /// [`L1Cache::warm`] for `count` consecutive lines from `first`, on
    /// an L1 that has seen no access yet (see [`CacheArray::warm_fill`]).
    pub fn warm_fill(&mut self, first: Addr, count: u64) {
        self.array.warm_fill(&[(first.line_index(), count)]);
    }

    /// The tag array (diagnostics).
    pub fn array(&self) -> &CacheArray {
        &self.array
    }

    /// Invalidation snoop: removes the line; returns `(present, dirty)`.
    pub fn snoop_invalidate(&mut self, addr: Addr) -> (bool, bool) {
        self.array.invalidate(addr.line())
    }

    /// Downgrade snoop (FwdGetS): cleans the line, keeping it shared;
    /// returns whether it was present.
    pub fn snoop_downgrade(&mut self, addr: Addr) -> bool {
        self.array.clean(addr.line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        L1Cache::new(L1Config::a15())
    }

    /// `fill` discarding the waiters (most tests don't inspect them).
    fn fill(c: &mut L1Cache, addr: Addr) -> Option<Evicted> {
        let mut scratch = Vec::new();
        c.fill(addr, false, &mut scratch)
    }

    #[test]
    fn miss_allocates_then_merges() {
        let mut c = l1();
        let a = Addr(0x1000);
        assert_eq!(c.access(a, false, 10), L1Access::Miss);
        assert_eq!(c.access(Addr(0x1008), false, 11), L1Access::MergedMiss);
        assert_eq!(c.outstanding_misses(), 1);
        assert!(c.miss_pending(a));
        let mut waiters = Vec::new();
        c.fill(a, false, &mut waiters);
        assert_eq!(waiters, vec![10, 11]);
        assert_eq!(c.outstanding_misses(), 0);
    }

    #[test]
    fn mshr_capacity_blocks() {
        let mut c = L1Cache::new(L1Config {
            mshr_capacity: 2,
            ..L1Config::a15()
        });
        assert_eq!(c.access(Addr(0x0000), false, 0), L1Access::Miss);
        assert_eq!(c.access(Addr(0x1000), false, 1), L1Access::Miss);
        assert_eq!(c.access(Addr(0x2000), false, 2), L1Access::Blocked);
        assert_eq!(c.blocked.value(), 1);
        fill(&mut c, Addr(0x0000));
        assert_eq!(c.access(Addr(0x2000), false, 3), L1Access::Miss);
    }

    #[test]
    fn store_to_present_line_dirties_it() {
        let mut c = l1();
        let a = Addr(0x40);
        c.access(a, false, 0);
        fill(&mut c, a);
        assert_eq!(c.access(a, true, 1), L1Access::Hit);
        let (present, dirty) = c.snoop_invalidate(a);
        assert!(present && dirty);
    }

    #[test]
    fn write_waiter_upgrades_fill_to_dirty() {
        let mut c = l1();
        let a = Addr(0x80);
        assert_eq!(c.access(a, true, 7), L1Access::Miss);
        fill(&mut c, a);
        let (present, dirty) = c.snoop_invalidate(a);
        assert!(present && dirty, "store miss must install the line dirty");
    }

    #[test]
    fn downgrade_keeps_line() {
        let mut c = l1();
        let a = Addr(0xC0);
        c.access(a, true, 0);
        fill(&mut c, a);
        assert!(c.snoop_downgrade(a));
        assert_eq!(c.access(a, false, 1), L1Access::Hit);
        let (present, dirty) = c.snoop_invalidate(a);
        assert!(present);
        assert!(!dirty);
    }

    #[test]
    fn capacity_evictions_surface_victims() {
        let mut c = l1();
        // 128 sets × 4 ways; fill 5 lines of one set.
        let set_stride = 128 * 64;
        let mut evicted = None;
        for i in 0..5u64 {
            let a = Addr(i * set_stride as u64);
            c.access(a, false, i);
            let ev = fill(&mut c, a);
            evicted = evicted.or(ev);
        }
        assert!(evicted.is_some(), "fifth line in a 4-way set must evict");
    }

    #[test]
    fn miss_ratio_tracks() {
        let mut c = l1();
        let a = Addr(0x40);
        c.access(a, false, 0);
        fill(&mut c, a);
        for _ in 0..9 {
            c.access(a, false, 0);
        }
        // One miss in ten accesses.
        assert_eq!(
            (c.misses.value(), c.merged.value(), c.hits.value()),
            (1, 0, 9)
        );
    }
}
