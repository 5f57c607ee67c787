//! The reorder buffer as a fixed-capacity ring, with a line-indexed
//! wakeup structure threaded through its slots.
//!
//! The ROB is the hottest structure in the simulator: every core cycle
//! retires from its head and dispatches into its tail, and every data
//! fill used to *scan all 64 entries* looking for waiters on the filled
//! line. This module replaces the `VecDeque<RobEntry>` with:
//!
//! * [`RingRob`] — a fixed array of `rob_entries` slots and two indices.
//!   A slot is one `(ready_at, next_waiter)` pair; "waiting on data" is
//!   the sentinel completion cycle [`WAITING`], so the retire fast path
//!   is a single integer compare per entry (no enum discriminant, no
//!   `VecDeque` wraparound bookkeeping on both push and pop).
//! * [`WakeupIndex`] — per-line waiter chains, threaded *intrusively*
//!   through the ROB slots' `next_waiter` links. A fill resolves its
//!   line to one chain and wakes exactly the entries on it; entries
//!   waiting on other lines are never visited. The index also owns the
//!   outstanding-data count (chains are the only source of waiting
//!   entries), so the core's MLP bookkeeping cannot drift from the
//!   structure that defines it.
//!
//! Waiting slots never retire (retirement stops at a waiting head), so
//! a chained slot index stays valid until its fill arrives — the links
//! need no invalidation protocol. `tests/proptest_core.rs` pins the
//! ring's behaviour against a `VecDeque` model of the pre-refactor ROB.

use nocout_sim::Cycle;

/// Chain terminator / "no slot" marker for intrusive links.
pub const NO_SLOT: u32 = u32::MAX;

/// Sentinel completion cycle marking a slot as waiting for a data fill.
/// Larger than any reachable simulation cycle, so the retire fast path's
/// `ready_at <= now` test rejects waiting slots with no extra branch.
pub const WAITING: u64 = u64::MAX;

/// One reorder-buffer slot.
#[derive(Debug, Clone, Copy)]
pub struct RobSlot {
    /// Completion cycle, or [`WAITING`] while a data fill is pending.
    ready_at: u64,
    /// Next slot waiting on the same line ([`NO_SLOT`] ends the chain).
    next_waiter: u32,
}

impl RobSlot {
    /// Whether the slot waits on a data fill.
    #[inline]
    pub fn is_waiting(&self) -> bool {
        self.ready_at == WAITING
    }

    /// The completion cycle (meaningless while waiting).
    #[inline]
    pub fn ready_at(&self) -> Cycle {
        Cycle(self.ready_at)
    }

    /// Whether the slot's instruction can retire at `now`.
    #[inline]
    pub fn retirable(&self, now: Cycle) -> bool {
        self.ready_at <= now.raw()
    }
}

/// Fixed-capacity ring-buffer reorder buffer.
///
/// # Examples
///
/// ```
/// use nocout_cpu::rob::RingRob;
/// use nocout_sim::Cycle;
///
/// let mut rob = RingRob::new(4);
/// rob.push_ready(Cycle(5));
/// let w = rob.push_waiting();
/// assert!(!rob.front().unwrap().retirable(Cycle(3)));
/// assert!(rob.front().unwrap().retirable(Cycle(5)));
/// rob.pop_front();
/// assert!(rob.front().unwrap().is_waiting());
/// rob.wake(w, Cycle(9));
/// assert!(rob.front().unwrap().retirable(Cycle(9)));
/// ```
#[derive(Debug)]
pub struct RingRob {
    slots: Box<[RobSlot]>,
    /// Physical index of the oldest entry.
    head: u32,
    len: u32,
}

impl RingRob {
    /// Creates an empty ROB of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the intrusive links.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB needs at least one slot");
        assert!((capacity as u64) < NO_SLOT as u64, "capacity exceeds link width");
        RingRob {
            slots: vec![
                RobSlot {
                    ready_at: 0,
                    next_waiter: NO_SLOT,
                };
                capacity
            ]
            .into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the ROB holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether dispatch must stall.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len as usize == self.slots.len()
    }

    #[inline]
    fn tail_slot(&self) -> u32 {
        let cap = self.slots.len() as u32;
        let t = self.head + self.len;
        if t >= cap {
            t - cap
        } else {
            t
        }
    }

    /// Appends an entry completing at `at`; returns its slot index.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the ROB is full — dispatch checks first.
    #[inline]
    pub fn push_ready(&mut self, at: Cycle) -> u32 {
        debug_assert!(!self.is_full(), "push into a full ROB");
        let t = self.tail_slot();
        self.slots[t as usize] = RobSlot {
            ready_at: at.raw(),
            next_waiter: NO_SLOT,
        };
        self.len += 1;
        t
    }

    /// Appends an entry waiting on a data fill; returns its slot index
    /// (for enqueueing on a [`WakeupIndex`] chain).
    #[inline]
    pub fn push_waiting(&mut self) -> u32 {
        debug_assert!(!self.is_full(), "push into a full ROB");
        let t = self.tail_slot();
        self.slots[t as usize] = RobSlot {
            ready_at: WAITING,
            next_waiter: NO_SLOT,
        };
        self.len += 1;
        t
    }

    /// The oldest entry, if any.
    #[inline]
    pub fn front(&self) -> Option<&RobSlot> {
        if self.len == 0 {
            None
        } else {
            Some(&self.slots[self.head as usize])
        }
    }

    /// Retires the oldest entry.
    ///
    /// # Panics
    ///
    /// Panics (debug) if empty or if the head is still waiting.
    #[inline]
    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty ROB");
        debug_assert!(
            !self.slots[self.head as usize].is_waiting(),
            "a waiting entry must not retire"
        );
        self.head += 1;
        if self.head as usize == self.slots.len() {
            self.head = 0;
        }
        self.len -= 1;
    }

    /// Wakes the waiting entry in `slot`: marks it ready at `at` and
    /// returns (and clears) its chain link.
    #[inline]
    pub fn wake(&mut self, slot: u32, at: Cycle) -> u32 {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.is_waiting(), "waking a non-waiting slot");
        s.ready_at = at.raw();
        std::mem::replace(&mut s.next_waiter, NO_SLOT)
    }

    /// Whether every entry has completed by cycle `by` (none waits, none
    /// is still executing) — an O(len) scan, for callers that have
    /// already ruled out the common cases in O(1).
    pub fn all_ready_by(&self, by: Cycle) -> bool {
        let (head, cap) = (self.head as usize, self.slots.len());
        (0..self.len as usize).all(|i| self.slots[(head + i) % cap].ready_at <= by.raw())
    }

    /// Applies `count` retire-and-replace steps in bulk: the `j`-th
    /// retires the head and appends an entry completing at
    /// `first_ready + j / per_cycle` — what a core at full occupancy of
    /// 1-cycle work does, `per_cycle` steps a cycle. Leaves every
    /// *physical* slot as the individual `pop_front`/`push_ready` calls
    /// would: only the last `capacity` appends survive the wraparound,
    /// so only those are written.
    pub fn rotate_ready(&mut self, count: u64, per_cycle: u64, first_ready: Cycle) {
        let cap = self.slots.len() as u64;
        let tail = (self.head + self.len) as u64;
        for j in count.saturating_sub(cap)..count {
            self.slots[((tail + j) % cap) as usize] = RobSlot {
                ready_at: first_ready.raw() + j / per_cycle,
                next_waiter: NO_SLOT,
            };
        }
        self.head = ((self.head as u64 + count) % cap) as u32;
    }

    #[inline]
    fn link(&mut self, from: u32, to: u32) {
        debug_assert_eq!(self.slots[from as usize].next_waiter, NO_SLOT);
        self.slots[from as usize].next_waiter = to;
    }
}

/// One per-line waiter chain: `head..tail` threads through ROB slots via
/// their `next_waiter` links.
#[derive(Debug, Clone, Copy)]
struct LineChain {
    line_index: u64,
    head: u32,
    tail: u32,
    count: u32,
}

/// Line-indexed wakeup structure: maps a missing line to the chain of
/// ROB slots waiting on it. The population is bounded by the L1-D MSHR
/// file (one chain per outstanding line miss, ≤ 8), so a linear scan of
/// a dense array beats any keyed container — and iteration never happens
/// at all: fills resolve exactly one chain.
#[derive(Debug)]
pub struct WakeupIndex {
    chains: Vec<LineChain>,
    /// Total waiting entries across all chains — *the* outstanding-data
    /// count (the core's MLP bound reads this; fills subtract whole
    /// chains, so the bookkeeping cannot diverge from the structure).
    waiting: usize,
}

impl WakeupIndex {
    /// Creates an empty index with room for `line_capacity` chains.
    pub fn new(line_capacity: usize) -> Self {
        WakeupIndex {
            chains: Vec::with_capacity(line_capacity),
            waiting: 0,
        }
    }

    /// Total entries waiting across all lines.
    #[inline]
    pub fn waiting(&self) -> usize {
        self.waiting
    }

    /// Distinct lines with waiters (diagnostics).
    pub fn lines(&self) -> usize {
        self.chains.len()
    }

    /// Appends ROB `slot` (already pushed waiting) to the chain for
    /// `line_index`, creating the chain on first use.
    pub fn enqueue(&mut self, line_index: u64, slot: u32, rob: &mut RingRob) {
        self.waiting += 1;
        for c in &mut self.chains {
            if c.line_index == line_index {
                let tail = c.tail;
                c.tail = slot;
                c.count += 1;
                rob.link(tail, slot);
                return;
            }
        }
        self.chains.push(LineChain {
            line_index,
            head: slot,
            tail: slot,
            count: 1,
        });
    }

    /// Resolves a fill for `line_index`: wakes every chained entry at
    /// `at` and returns how many were woken (0 when nothing waited — a
    /// stale fill). The chain's count leaves the outstanding total in
    /// the same step, tying the MLP bookkeeping to the wakeup walk.
    pub fn wake_line(&mut self, line_index: u64, at: Cycle, rob: &mut RingRob) -> usize {
        let Some(pos) = self.chains.iter().position(|c| c.line_index == line_index) else {
            return 0;
        };
        let chain = self.chains.swap_remove(pos);
        let mut slot = chain.head;
        for _ in 0..chain.count {
            slot = rob.wake(slot, at);
        }
        debug_assert_eq!(slot, NO_SLOT, "chain count and links disagree");
        self.waiting -= chain.count as usize;
        chain.count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_preserves_fifo() {
        let mut rob = RingRob::new(3);
        for round in 0..10u64 {
            rob.push_ready(Cycle(round));
            assert!(rob.front().unwrap().retirable(Cycle(round)));
            rob.pop_front();
        }
        assert!(rob.is_empty());
    }

    #[test]
    fn full_ring_reports_full() {
        let mut rob = RingRob::new(2);
        rob.push_ready(Cycle(1));
        rob.push_waiting();
        assert!(rob.is_full());
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn wake_line_wakes_only_that_line() {
        let mut rob = RingRob::new(8);
        let mut idx = WakeupIndex::new(8);
        let a1 = rob.push_waiting();
        idx.enqueue(100, a1, &mut rob);
        let b1 = rob.push_waiting();
        idx.enqueue(200, b1, &mut rob);
        let a2 = rob.push_waiting();
        idx.enqueue(100, a2, &mut rob);
        assert_eq!(idx.waiting(), 3);
        assert_eq!(idx.lines(), 2);
        assert_eq!(idx.wake_line(100, Cycle(7), &mut rob), 2);
        assert_eq!(idx.waiting(), 1);
        // Line 100's two entries are ready; line 200's still waits.
        assert!(rob.front().unwrap().retirable(Cycle(7)));
        rob.pop_front();
        assert!(rob.front().unwrap().is_waiting());
    }

    #[test]
    fn stale_fill_wakes_nothing() {
        let mut rob = RingRob::new(4);
        let mut idx = WakeupIndex::new(4);
        assert_eq!(idx.wake_line(42, Cycle(1), &mut rob), 0);
        assert_eq!(idx.waiting(), 0);
    }

    #[test]
    fn chain_survives_ring_wraparound() {
        // Waiting entries pushed either side of the physical wrap point
        // stay chained correctly.
        let mut rob = RingRob::new(4);
        let mut idx = WakeupIndex::new(4);
        // Advance head to 3.
        for _ in 0..3 {
            rob.push_ready(Cycle(0));
            rob.pop_front();
        }
        let s1 = rob.push_waiting(); // physical slot 3
        let s2 = rob.push_waiting(); // wraps to physical slot 0
        assert_ne!(s1, s2);
        idx.enqueue(9, s1, &mut rob);
        idx.enqueue(9, s2, &mut rob);
        assert_eq!(idx.wake_line(9, Cycle(5), &mut rob), 2);
        assert!(rob.front().unwrap().retirable(Cycle(5)));
        rob.pop_front();
        assert!(rob.front().unwrap().retirable(Cycle(5)));
    }
}
