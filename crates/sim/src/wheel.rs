//! The calendar event wheel behind every timed queue in the simulator.
//!
//! Flit arrivals and credit returns (`Network`), analytic-fabric
//! deliveries (`LatencyFabric`) and LLC-tile outputs (`LlcTile`) are all
//! scheduled a small, bounded number of cycles ahead (a hop delay, a
//! credit round-trip, a latency-function value, a tile access latency),
//! and each owner drains each cycle exactly once. Under that contract a
//! slot-indexed wheel — `slot = cycle & (slots - 1)`, the slot count a
//! power of two so no push or drain divides — replaces a comparison heap:
//! pushes and drains are O(1) with no sift, no `Reverse` ordering, and no
//! per-event allocation, because slot vectors are recycled by swapping
//! with the caller's scratch buffer.
//!
//! The wheel doubles its slot count if an event is scheduled beyond the
//! current horizon (re-bucketing the pending events), so callers with
//! unbounded schedules — the analytic fabrics take an arbitrary latency
//! function — degrade to a rare cold-path rebuild instead of a capacity
//! assert.
//!
//! # Examples
//!
//! ```
//! use nocout_sim::wheel::EventWheel;
//! use nocout_sim::Cycle;
//!
//! let mut w: EventWheel<&str> = EventWheel::with_slots(4);
//! w.push(Cycle(0), Cycle(2), "b");
//! w.push(Cycle(0), Cycle(1), "a");
//! assert_eq!(w.next_occupied_delta(Cycle(0)), Some(1));
//! let mut due = Vec::new();
//! w.drain_into(Cycle(0), &mut due);
//! assert!(due.is_empty());
//! w.drain_into(Cycle(1), &mut due);
//! assert_eq!(due, ["a"]);
//! assert_eq!(w.pending(), 1);
//! ```

use crate::Cycle;

/// A calendar wheel of events of type `T`, indexed by absolute cycle.
///
/// Invariant (callers' contract): every scheduled cycle is drained before
/// the wheel wraps back onto its slot, which holds whenever events are
/// scheduled less than `slots` cycles ahead and the owner drains every
/// cycle it does not provably skip (see `Network::skip_idle`). A skipped
/// due cycle is not an error the wheel can see: its events come out one
/// wrap late.
#[derive(Debug)]
pub struct EventWheel<T> {
    slots: Vec<Vec<T>>,
    /// `slots.len() - 1`; the length is always a power of two.
    mask: usize,
    /// Events currently scheduled anywhere in the wheel.
    pending: usize,
}

impl<T> EventWheel<T> {
    /// Creates a wheel with at least `slots` initial slots (its schedule
    /// horizon), rounded up to a power of two.
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots >= 2);
        let slots = slots.next_power_of_two();
        EventWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            mask: slots - 1,
            pending: 0,
        }
    }

    #[inline]
    fn slot_of(&self, at: u64) -> usize {
        at as usize & self.mask
    }

    /// Schedules `ev` for cycle `at` (`now <= at`), growing the horizon if
    /// `at` is beyond it.
    #[inline]
    pub fn push(&mut self, now: Cycle, at: Cycle, ev: T) {
        debug_assert!(at >= now, "cannot schedule in the past");
        let delta = at.raw() - now.raw();
        if delta >= self.slots.len() as u64 {
            self.grow(now, delta);
        }
        let idx = self.slot_of(at.raw());
        self.slots[idx].push(ev);
        self.pending += 1;
    }

    /// Moves the events due at `now` into `out` (cleared first), swapping
    /// buffers so slot capacity is recycled instead of reallocated every
    /// cycle.
    #[inline]
    pub fn drain_into(&mut self, now: Cycle, out: &mut Vec<T>) {
        let idx = self.slot_of(now.raw());
        out.clear();
        std::mem::swap(&mut self.slots[idx], out);
        self.pending -= out.len();
    }

    /// Cycles until the earliest scheduled event at or after `now` (0 =
    /// the next `drain_into(now)` will yield events), or `None` when the
    /// wheel is empty.
    pub fn next_occupied_delta(&self, now: Cycle) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        (0..self.slots.len() as u64).find(|dt| !self.slots[self.slot_of(now.raw() + dt)].is_empty())
    }

    /// Events scheduled and not yet drained.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Doubles the slot count until `delta` fits, re-bucketing pending
    /// events. Events keep their absolute due cycle: a slot can only hold
    /// one due cycle at a time under the drain contract, and that cycle is
    /// recoverable from the slot's offset from `now`.
    #[cold]
    fn grow(&mut self, now: Cycle, delta: u64) {
        let mut new_len = self.slots.len();
        while delta >= new_len as u64 {
            new_len *= 2;
        }
        let mut new_slots: Vec<Vec<T>> = (0..new_len).map(|_| Vec::new()).collect();
        for dt in 0..self.slots.len() as u64 {
            let at = now.raw() + dt;
            let old_idx = self.slot_of(at);
            new_slots[at as usize & (new_len - 1)].append(&mut self.slots[old_idx]);
        }
        self.slots = new_slots;
        self.mask = new_len - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_slot_order() {
        let mut w: EventWheel<u32> = EventWheel::with_slots(8);
        w.push(Cycle(0), Cycle(3), 30);
        w.push(Cycle(0), Cycle(1), 10);
        w.push(Cycle(0), Cycle(3), 31);
        assert_eq!(w.pending(), 3);
        assert_eq!(w.next_occupied_delta(Cycle(0)), Some(1));
        let mut out = Vec::new();
        w.drain_into(Cycle(1), &mut out);
        assert_eq!(out, vec![10]);
        w.drain_into(Cycle(2), &mut out);
        assert!(out.is_empty());
        w.drain_into(Cycle(3), &mut out);
        assert_eq!(out, vec![30, 31], "same-cycle events keep push order");
        assert_eq!(w.pending(), 0);
        assert_eq!(w.next_occupied_delta(Cycle(4)), None);
    }

    #[test]
    fn slot_count_rounds_up_to_a_power_of_two() {
        // Six slots asked for, eight allocated: every cycle inside the
        // requested horizon still drains at its own cycle, in order.
        let mut w: EventWheel<u64> = EventWheel::with_slots(6);
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for t in 0..=20u64 {
            if t + 5 <= 20 {
                w.push(Cycle(t), Cycle(t + 5), t + 5);
            }
            if t < 5 {
                w.push(Cycle(t), Cycle(t), t);
            }
            w.drain_into(Cycle(t), &mut out);
            seen.extend(out.iter().copied());
        }
        assert_eq!(seen, (0..=20).collect::<Vec<u64>>());
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn growth_rebuckets_pending_events() {
        let mut w: EventWheel<u32> = EventWheel::with_slots(4);
        w.push(Cycle(10), Cycle(11), 1);
        w.push(Cycle(10), Cycle(13), 3);
        // Beyond the 4-slot horizon: forces a doubling; 11 and 13 must
        // still come out at their cycles.
        w.push(Cycle(10), Cycle(19), 9);
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for t in 11..=19 {
            w.drain_into(Cycle(t), &mut out);
            seen.extend(out.iter().map(|&v| (t, v)));
        }
        assert_eq!(seen, vec![(11, 1), (13, 3), (19, 9)]);
    }
}
