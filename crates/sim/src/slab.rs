//! A free-list slab: the id-addressed store behind every in-flight
//! record.
//!
//! The chip model's transactions and protocol messages, the network's
//! packets and the analytic fabrics' payloads all live for a few hundred
//! cycles under an id that travels with them (a `TxnId`, a packet id, a
//! network token). A slab hands out those ids: a `Vec<Option<T>>` of
//! slots plus a stack of freed slot ids, so insertion and removal are
//! O(1) and the storage stops growing once it covers the peak population.
//!
//! Freed slots are reused most recently freed first. That order is part of
//! the contract, not an accident: an id can decide simulated behaviour —
//! `LatencyFabric` delivers same-cycle packets in ascending slot id — so
//! every run must hand out the same ids.
//!
//! # Examples
//!
//! ```
//! use nocout_sim::slab::Slab;
//!
//! let mut s = Slab::new();
//! let a = s.insert("a");
//! let b = s.insert("b");
//! assert_eq!(s.take(a), "a");
//! assert_eq!(s.insert("c"), a, "the freed slot is reused");
//! assert_eq!(s.get(b), &"b");
//! assert_eq!(s.len(), 2);
//! ```

/// A free-list slab of `T` addressed by `u32` ids. See the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab::default()
    }

    /// Stores `value`, returning its id: the most recently freed slot, or a
    /// new one past the end.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        if let Some(id) = self.free.pop() {
            self.entries[id as usize] = Some(value);
            id
        } else {
            self.entries.push(Some(value));
            (self.entries.len() - 1) as u32
        }
    }

    /// Borrows the value under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[inline]
    pub fn get(&self, id: u32) -> &T {
        self.entries[id as usize]
            .as_ref()
            .expect("slab id must be live")
    }

    /// Removes and returns the value under `id`, freeing its slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[inline]
    pub fn take(&mut self, id: u32) -> T {
        let value = self.entries[id as usize]
            .take()
            .expect("slab id must be live");
        self.free.push(id);
        value
    }

    /// Number of live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether no value is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|v| (i as u32, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_take_round_trip() {
        let mut s = Slab::new();
        let a = s.insert(1u64);
        let b = s.insert(2);
        assert_eq!(s.len(), 2);
        assert_eq!(*s.get(a), 1);
        assert_eq!(*s.get(b), 2);
        assert_eq!(s.take(a), 1);
        assert_eq!(s.len(), 1);
        let c = s.insert(3);
        assert_eq!(c, a, "freed slot must be reused");
        assert_eq!(*s.get(c), 3);
        assert_eq!(s.take(b), 2);
        assert_eq!(s.take(c), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn reuse_is_last_freed_first_across_interleaving() {
        let mut s = Slab::new();
        let ids: Vec<u32> = (0..5).map(|v| s.insert(v)).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4], "fresh ids count up");
        s.take(1);
        s.take(3);
        s.take(0);
        // Freed 1, 3, 0: handed back 0, 3, 1, then fresh ids again.
        assert_eq!(s.insert(10), 0);
        s.take(4);
        assert_eq!(s.insert(11), 4, "a take between inserts goes first");
        assert_eq!(s.insert(12), 3);
        assert_eq!(s.insert(13), 1);
        assert_eq!(s.insert(14), 5);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn iter_yields_live_ids_in_ascending_order() {
        let mut s = Slab::new();
        for v in 0..6u32 {
            s.insert(v * 10);
        }
        s.take(4);
        s.take(1);
        s.insert(99); // lands in slot 1
        let live: Vec<(u32, u32)> = s.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(live, [(0, 0), (1, 99), (2, 20), (3, 30), (5, 50)]);
        assert_eq!(s.iter().count(), s.len());
    }

    #[test]
    #[should_panic(expected = "must be live")]
    fn double_take_panics() {
        let mut s = Slab::new();
        let a = s.insert(1u8);
        s.take(a);
        s.take(a);
    }

    #[test]
    #[should_panic(expected = "must be live")]
    fn get_after_take_panics() {
        let mut s = Slab::new();
        let a = s.insert(1u8);
        s.take(a);
        let _ = s.get(a);
    }
}
