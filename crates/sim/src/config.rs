//! Experiment configuration helpers.
//!
//! The harness describes every run with small plain-data structs. This
//! module holds the pieces shared by all experiments: the measurement
//! window and the seed set.

/// Warmup/measurement window for a simulation run.
///
/// Mirrors the paper's SimFlex-style methodology: run the detailed model for
/// a warmup period (100K cycles; 2M for Data Serving in the paper), then
/// measure over a fixed window (50K cycles in the paper). The defaults are
/// of the same order, but they do not reach the steady state: after the
/// chip's warm image, IPC falls by 16–25 % over 0.45–1.75 M cycles before
/// it plateaus (ROADMAP item 11), so a window this short measures the
/// warm-up transient.
///
/// # Examples
///
/// ```
/// use nocout_sim::config::MeasurementWindow;
///
/// let w = MeasurementWindow::default();
/// assert!(w.measure_cycles > 0);
/// assert_eq!(w.total_cycles(), w.warmup_cycles + w.measure_cycles);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementWindow {
    /// Cycles simulated before statistics are reset.
    pub warmup_cycles: u64,
    /// Cycles over which statistics are collected.
    pub measure_cycles: u64,
}

impl MeasurementWindow {
    /// Creates a window with explicit warmup and measurement lengths.
    pub fn new(warmup_cycles: u64, measure_cycles: u64) -> Self {
        MeasurementWindow {
            warmup_cycles,
            measure_cycles,
        }
    }

    /// A shortened window for unit/integration tests.
    pub fn fast() -> Self {
        MeasurementWindow::new(2_000, 10_000)
    }

    /// Total simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }
}

impl Default for MeasurementWindow {
    /// Paper-like window: 100K warmup + 50K measurement cycles.
    fn default() -> Self {
        MeasurementWindow::new(100_000, 50_000)
    }
}

/// A set of seeds over which an experiment point is replicated.
///
/// # Examples
///
/// ```
/// use nocout_sim::config::SeedSet;
///
/// let seeds = SeedSet::consecutive(100, 3);
/// assert_eq!(seeds.iter().collect::<Vec<_>>(), vec![100, 101, 102]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSet {
    seeds: Vec<u64>,
}

impl SeedSet {
    /// A single-seed set.
    pub fn single(seed: u64) -> Self {
        SeedSet { seeds: vec![seed] }
    }

    /// `count` consecutive seeds starting at `first`.
    pub fn consecutive(first: u64, count: usize) -> Self {
        SeedSet {
            seeds: (0..count as u64).map(|i| first + i).collect(),
        }
    }

    /// Number of seeds.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Iterates over seed values.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.seeds.iter().copied()
    }
}

impl<'a> IntoIterator for &'a SeedSet {
    type Item = u64;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.seeds.iter().copied()
    }
}

impl FromIterator<u64> for SeedSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        SeedSet {
            seeds: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_window_is_paper_like() {
        let w = MeasurementWindow::default();
        assert_eq!(w.warmup_cycles, 100_000);
        assert_eq!(w.measure_cycles, 50_000);
        assert_eq!(w.total_cycles(), 150_000);
    }

    #[test]
    fn fast_window_is_short() {
        assert!(MeasurementWindow::fast().total_cycles() < 20_000);
    }

    #[test]
    fn seed_set_construction() {
        let s = SeedSet::single(9);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let s: SeedSet = [1u64, 5, 9].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
    }
}
