//! Simulation kernel for the NOC-Out reproduction.
//!
//! This crate provides the substrate shared by every timing model in the
//! workspace:
//!
//! * [`Cycle`] — a strongly-typed cycle count,
//! * [`rng::SimRng`] — a deterministic, splittable pseudo-random number
//!   generator so that every experiment is exactly reproducible from a seed,
//! * [`stats`] — counters, histograms and running statistics used by the
//!   network, memory-system and core models,
//! * [`hash`] — the FNV-1a content hash behind cache keys, wire digests
//!   and trace identities,
//! * [`text`] — the strict field reader and the hex / escape writers every
//!   text format (cache entry, wire payload, journal, trace archive) shares,
//! * [`ring::Ring`] — the fixed-capacity ring buffer behind the uncore
//!   hot-path FIFO queues,
//! * [`slab::Slab`] — the one free-list slab behind every id-addressed
//!   in-flight record: transactions, protocol messages, packets,
//! * [`wheel::EventWheel`] — the one calendar wheel behind every timed
//!   queue: network hops, analytic-fabric deliveries and LLC-tile outputs,
//! * [`config`] — small helpers for experiment configuration.
//!
//! The original paper used the Flexus full-system simulation framework; this
//! crate is the equivalent foundation for our from-scratch cycle-driven
//! models.
//!
//! # Examples
//!
//! ```
//! use nocout_sim::Cycle;
//!
//! let mut now = Cycle::ZERO;
//! now += 1;
//! assert_eq!(now, Cycle(1));
//! ```

pub mod config;
pub mod hash;
pub mod ring;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod text;
pub mod wheel;

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A simulated clock cycle.
///
/// All timing models in the workspace run at the chip clock (2 GHz in the
/// paper's 32nm configuration). Using a newtype keeps cycle arithmetic from
/// being confused with other integer quantities such as flit counts or
/// addresses.
///
/// # Examples
///
/// ```
/// use nocout_sim::Cycle;
///
/// let start = Cycle(10);
/// let end = Cycle(25);
/// assert_eq!(end - start, 15);
/// assert_eq!(start + 5, Cycle(15));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle (simulation start).
    pub const ZERO: Cycle = Cycle(0);

    /// A cycle value beyond any realistic simulation length, used as the
    /// "not yet scheduled" sentinel.
    pub const NEVER: Cycle = Cycle(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction between two cycle stamps, returning the
    /// elapsed number of cycles.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(5);
        let b = a + 10;
        assert_eq!(b, Cycle(15));
        assert_eq!(b - a, 10);
        let mut c = Cycle(0);
        c += 7;
        assert_eq!(c.raw(), 7);
    }

    #[test]
    fn cycle_saturating_since() {
        assert_eq!(Cycle(5).saturating_since(Cycle(10)), 0);
        assert_eq!(Cycle(10).saturating_since(Cycle(4)), 6);
    }

    #[test]
    fn cycle_ordering_and_sentinel() {
        assert!(Cycle::ZERO < Cycle(1));
        assert!(Cycle(1_000_000) < Cycle::NEVER);
    }

    #[test]
    fn cycle_display_and_from() {
        assert_eq!(Cycle::from(42).to_string(), "42");
    }
}
