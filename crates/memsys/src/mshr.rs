//! Miss-status holding registers: the one MSHR file behind the L1 caches
//! and the LLC tiles.
//!
//! An MSHR tracks one line's miss in flight and the requests merged onto
//! it. Both levels keep a handful of them (8 per L1, 16 or 32 per tile)
//! and probe them on every miss, so the file is a plain slot array,
//! linearly scanned by line index (≤ 32 compares beats any hash), with
//! waiters stored inline in the slot and spilled to a slot-owned, reused
//! `Vec` only past [`INLINE_WAITERS`] — steady state allocates nothing.
//!
//! The file is generic over the waiter type `W` (the L1's opaque `u64`
//! tag, the tile's [`crate::llc::LlcWaiter`]) and over a small per-entry
//! record `E` (the L1's "a merged request wants write permission" bit, the
//! tile's pending acks, pending memory fetch and birth cycle).
//!
//! * **Ids.** An entry's [`MshrId`] is `gen << 16 | slot`. Tile ids travel
//!   through the network and come back in acks and memory data, so the
//!   generation, bumped on every release, makes an id from a completed
//!   entry resolve to `None` instead of aliasing the slot's next occupant.
//! * **Admission.** [`MshrFile::alloc`] takes the lowest free slot and
//!   appends one when none is free. The L1 back-pressures: it asks
//!   `len() == capacity()` first and reports the access blocked, so it
//!   never reaches the growth path. The tile never asks — it has never
//!   refused a request — and growth is its safety valve.
//! * **Release.** [`MshrFile::release`] appends the waiters, in merge
//!   order, to a caller-owned scratch `Vec`, so a release allocates
//!   nothing.
//!
//! `tests/proptest_core.rs` and `tests/proptest_uncore.rs` pin the file
//! against the `HashMap` models it replaced, through each caller's rule.

use crate::protocol::MshrId;

/// Waiters stored directly in an MSHR slot before spilling.
pub const INLINE_WAITERS: usize = 4;

#[derive(Debug)]
struct Slot<W, E> {
    valid: bool,
    /// Bumped on release so a stale [`MshrId`] never aliases a reused slot.
    gen: u16,
    inline_len: u8,
    line_index: u64,
    entry: E,
    inline: [W; INLINE_WAITERS],
    /// Overflow waiters (rare: more than [`INLINE_WAITERS`] merges on one
    /// line). Emptied on release but never shrunk, so a slot that spilled
    /// once never allocates again.
    spill: Vec<W>,
}

impl<W: Copy, E> Slot<W, E> {
    #[inline]
    fn push_waiter(&mut self, waiter: W) {
        if (self.inline_len as usize) < INLINE_WAITERS {
            self.inline[self.inline_len as usize] = waiter;
            self.inline_len += 1;
        } else {
            self.spill.push(waiter);
        }
    }
}

/// A file of MSHR slots addressed by cache-line index and by [`MshrId`].
/// See the module docs for the id, admission and release rules.
///
/// # Examples
///
/// ```
/// use nocout_mem::mshr::MshrFile;
///
/// // An L1-style file: `u64` waiter tags, a wants-write bit per entry.
/// let mut m: MshrFile<u64, bool> = MshrFile::new(2);
/// let a = m.alloc(5, false, 1);
/// *m.merge(5, 2).expect("line 5 is in flight") |= true;
/// m.alloc(6, false, 3);
/// assert_eq!(m.len(), m.capacity(), "an L1 would now block line 7");
/// assert_eq!(m.lookup(5), Some(a));
/// let mut waiters = Vec::new();
/// assert_eq!(m.release(a, &mut waiters), (5, true));
/// assert_eq!(waiters, vec![1, 2]);
/// assert_eq!(m.get_mut(a), None, "a released id is stale");
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug)]
pub struct MshrFile<W, E> {
    /// Slots are created on first use, lowest index first, so every slot
    /// below `slots.len()` has been occupied at least once.
    slots: Vec<Slot<W, E>>,
    capacity: usize,
    used: usize,
}

impl<W: Copy, E: Copy> MshrFile<W, E> {
    /// Creates an empty file sized for `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            slots: Vec::with_capacity(capacity),
            capacity,
            used: 0,
        }
    }

    /// The entries the file was sized for, or as many as it has grown to.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity.max(self.slots.len())
    }

    /// Entries in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.used
    }

    /// Whether no entry is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    #[inline]
    fn id(&self, slot: usize) -> MshrId {
        MshrId(((self.slots[slot].gen as u32) << 16) | slot as u32)
    }

    #[inline]
    fn resolve(&self, id: MshrId) -> Option<usize> {
        let slot = (id.0 & 0xFFFF) as usize;
        match self.slots.get(slot) {
            Some(s) if s.valid && s.gen == (id.0 >> 16) as u16 => Some(slot),
            _ => None,
        }
    }

    #[inline]
    fn find(&self, line_index: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.valid && s.line_index == line_index)
    }

    /// The in-flight entry for `line_index`, if any.
    #[inline]
    pub fn lookup(&self, line_index: u64) -> Option<MshrId> {
        self.find(line_index).map(|slot| self.id(slot))
    }

    /// The merge probe: if a miss for `line_index` is in flight, appends
    /// `waiter` to it and returns its record; otherwise `None`.
    #[inline]
    pub fn merge(&mut self, line_index: u64, waiter: W) -> Option<&mut E> {
        let slot = self.find(line_index)?;
        let s = &mut self.slots[slot];
        s.push_waiter(waiter);
        Some(&mut s.entry)
    }

    /// Opens an entry for `line_index` (none may be in flight) with its
    /// record and first waiter, in the lowest free slot — a new one past
    /// the end when every slot is busy.
    pub fn alloc(&mut self, line_index: u64, entry: E, waiter: W) -> MshrId {
        debug_assert!(self.find(line_index).is_none());
        let slot = match self.slots.iter().position(|s| !s.valid) {
            Some(slot) => {
                let s = &mut self.slots[slot];
                s.valid = true;
                s.line_index = line_index;
                s.entry = entry;
                s.inline[0] = waiter;
                s.inline_len = 1;
                slot
            }
            None => {
                assert!(
                    self.slots.len() < 1 << 16,
                    "mshr slot index overflows the id encoding"
                );
                self.slots.push(Slot {
                    valid: true,
                    gen: 0,
                    inline_len: 1,
                    line_index,
                    entry,
                    inline: [waiter; INLINE_WAITERS],
                    spill: Vec::new(),
                });
                self.slots.len() - 1
            }
        };
        self.used += 1;
        self.id(slot)
    }

    /// The line index and record of a live entry; `None` for a stale or
    /// foreign id.
    #[inline]
    pub fn get_mut(&mut self, id: MshrId) -> Option<(u64, &mut E)> {
        let slot = self.resolve(id)?;
        let s = &mut self.slots[slot];
        Some((s.line_index, &mut s.entry))
    }

    /// Closes a live entry: appends its waiters, in merge order, to
    /// `waiters` (the caller clears it) and returns its line index and
    /// record. The slot's generation is bumped, so `id` goes stale at once.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or foreign.
    pub fn release(&mut self, id: MshrId, waiters: &mut Vec<W>) -> (u64, E) {
        let slot = self.resolve(id).expect("released MSHR id must be live");
        let s = &mut self.slots[slot];
        waiters.extend_from_slice(&s.inline[..s.inline_len as usize]);
        waiters.append(&mut s.spill);
        s.valid = false;
        s.gen = s.gen.wrapping_add(1);
        s.inline_len = 0;
        self.used -= 1;
        (s.line_index, s.entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The L1's shape: `u64` waiter tags, a wants-write bit.
    type L1File = MshrFile<u64, bool>;

    /// Releases the entry for `line`, returning its waiters and record.
    fn release_line(m: &mut L1File, line: u64) -> (Vec<u64>, bool) {
        let id = m.lookup(line).expect("line must be in flight");
        let mut w = Vec::new();
        let (l, write) = m.release(id, &mut w);
        assert_eq!(l, line);
        (w, write)
    }

    #[test]
    fn allocate_merge_release_round_trip() {
        let mut m = L1File::new(8);
        let id = m.alloc(10, false, 0);
        assert!(m.merge(10, 1).is_some());
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(10), Some(id));
        assert_eq!(release_line(&mut m, 10), (vec![0, 1], false));
        assert!(m.is_empty());
        assert_eq!(m.lookup(10), None);
        assert!(m.merge(10, 2).is_none(), "no entry left to merge into");
    }

    #[test]
    fn full_file_rejects_new_lines_but_merges() {
        // The L1's admission rule: a caller that finds `len() ==
        // capacity()` refuses a new line, while merges still land.
        let mut m = L1File::new(2);
        m.alloc(1, false, 0);
        m.alloc(2, false, 0);
        assert_eq!(m.len(), m.capacity());
        assert!(m.merge(3, 0).is_none());
        assert!(m.merge(1, 9).is_some());
        release_line(&mut m, 1);
        assert!(m.len() < m.capacity());
        assert_eq!(m.alloc(3, false, 0), MshrId(1 << 16), "slot 0, one generation on");
    }

    #[test]
    fn alloc_past_capacity_grows_and_reuses_the_lowest_slot() {
        // The tile's rule: it never asks, and the file grows.
        let mut m = L1File::new(2);
        let ids: Vec<MshrId> = (0..4).map(|l| m.alloc(l, false, l)).collect();
        assert_eq!(ids, [MshrId(0), MshrId(1), MshrId(2), MshrId(3)]);
        assert_eq!((m.len(), m.capacity()), (4, 4));
        release_line(&mut m, 2);
        release_line(&mut m, 1);
        // Slot 1 again, one generation on; then slot 2.
        assert_eq!(m.alloc(7, false, 7), MshrId((1 << 16) | 1));
        assert_eq!(m.alloc(8, false, 8), MshrId((1 << 16) | 2));
        assert_eq!(m.lookup(3), Some(MshrId(3)));
    }

    #[test]
    fn stale_and_foreign_ids_resolve_to_none() {
        let mut m = L1File::new(1);
        let old = m.alloc(4, false, 0);
        release_line(&mut m, 4);
        let new = m.alloc(4, true, 1);
        assert_ne!(old, new, "same slot, next generation");
        assert_eq!(m.get_mut(old), None);
        assert_eq!(m.get_mut(MshrId(777)), None);
        assert_eq!(m.get_mut(new), Some((4, &mut true)));
    }

    #[test]
    fn waiters_spill_past_inline_capacity_in_order() {
        let mut m = L1File::new(1);
        m.alloc(4, false, 100);
        for t in 101..110u64 {
            assert!(m.merge(4, t).is_some());
        }
        assert_eq!(release_line(&mut m, 4).0, (100..110u64).collect::<Vec<_>>());
        // The slot is reusable and starts clean.
        m.alloc(5, false, 7);
        assert_eq!(release_line(&mut m, 5).0, vec![7]);
    }

    #[test]
    fn wants_write_is_or_of_all_requests() {
        let mut m = L1File::new(2);
        for (waiter, write) in [(0, false), (1, true), (2, false)] {
            match m.merge(8, waiter) {
                Some(w) => *w |= write,
                None => {
                    m.alloc(8, write, waiter);
                }
            }
        }
        assert!(release_line(&mut m, 8).1);
        // A fresh allocation does not inherit the bit.
        m.alloc(8, false, 3);
        assert!(!release_line(&mut m, 8).1);
    }

    #[test]
    #[should_panic(expected = "must be live")]
    fn release_without_miss_panics() {
        let mut m = L1File::new(2);
        let id = m.alloc(42, false, 0);
        let mut w = Vec::new();
        m.release(id, &mut w);
        m.release(id, &mut w);
    }

    #[test]
    fn release_appends_to_existing_scratch_content() {
        // The out-param contract: release appends, the caller owns
        // clearing.
        let mut m = L1File::new(2);
        let a = m.alloc(1, false, 10);
        let b = m.alloc(2, false, 20);
        let mut w = Vec::new();
        m.release(a, &mut w);
        m.release(b, &mut w);
        assert_eq!(w, vec![10, 20]);
    }
}
