//! Property-based tests for [`LatencyHist`] against a sorted-`Vec`
//! oracle: the histogram's percentiles must bracket the exact rank
//! statistic within the documented 1/32 relative error bound, and merge
//! must equal recording the concatenated sample stream.
//!
//! This is the structure-level half of the service-level-metrics proof
//! (the chip-level half is the lockstep test in
//! `tests/chip_event_determinism.rs`: recording must not perturb the
//! simulation).
//!
//! The histogram stores only the bucket span it has seen; a dense
//! 1 920-bucket model of the same layout checks it bucket for bucket
//! under random interleavings of record, merge and reset.

use nocout_repro::substrates::sim::stats::LatencyHist;
use proptest::prelude::*;

/// The exact q-quantile under the histogram's rank convention:
/// rank = max(ceil(q * n), 1), value = sorted[rank - 1].
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// A latency sample: mostly small values (dense linear buckets), some
/// mid-range, and occasional full-range values exercising the top
/// log-linear buckets.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, 0u64..100_000, 0u64..u64::MAX]
}

const QUANTILES: [f64; 5] = [0.01, 0.5, 0.9, 0.99, 0.999];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every percentile is never below the exact quantile and at most
    // a factor 33/32 above it (the log-linear bucket width bound).
    #[test]
    fn percentiles_bracket_the_sorted_oracle(
        samples in prop::collection::vec(sample(), 1..500)
    ) {
        let mut h = LatencyHist::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.total(), samples.len() as u64);
        for q in QUANTILES {
            let exact = exact_percentile(&sorted, q);
            let approx = h.percentile(q);
            prop_assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            prop_assert!(
                (approx as u128) * 32 <= (exact as u128) * 33 + 32,
                "q={q}: approx {approx} > exact {exact} * 33/32"
            );
        }
    }

    // Merging two histograms is indistinguishable from recording the
    // concatenated stream: same totals, same mean bits, same buckets
    // (hence same percentiles at every q).
    #[test]
    fn merge_equals_concatenation(
        a in prop::collection::vec(sample(), 0..300),
        b in prop::collection::vec(sample(), 0..300),
    ) {
        let mut ha = LatencyHist::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = LatencyHist::new();
        for &v in &b {
            hb.record(v);
        }
        let mut hc = LatencyHist::new();
        for &v in a.iter().chain(&b) {
            hc.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.total(), hc.total());
        prop_assert_eq!(ha.mean().to_bits(), hc.mean().to_bits());
        for q in QUANTILES {
            prop_assert_eq!(ha.percentile(q), hc.percentile(q), "q={}", q);
        }
    }

    // `reset` returns the histogram to the freshly-constructed state:
    // a reset-then-record run matches a fresh histogram exactly.
    #[test]
    fn reset_is_a_fresh_start(
        first in prop::collection::vec(sample(), 0..200),
        second in prop::collection::vec(sample(), 0..200),
    ) {
        let mut reused = LatencyHist::new();
        for &v in &first {
            reused.record(v);
        }
        reused.reset();
        prop_assert_eq!(reused.total(), 0);
        let mut fresh = LatencyHist::new();
        for &v in &second {
            reused.record(v);
            fresh.record(v);
        }
        prop_assert_eq!(reused.total(), fresh.total());
        prop_assert_eq!(reused.mean().to_bits(), fresh.mean().to_bits());
        for q in QUANTILES {
            prop_assert_eq!(reused.percentile(q), fresh.percentile(q), "q={}", q);
        }
    }
}

/// The bucket layout the span histogram must agree with, stored densely:
/// every value below 32 owns a bucket, and every wider power-of-two range
/// `[2^m, 2^(m+1))` splits into 32 equal buckets — 1 920 in all.
#[derive(Clone)]
struct Dense {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Dense {
    const BUCKETS: usize = 32 * 60;

    fn new() -> Self {
        Dense {
            counts: vec![0; Self::BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < 32 {
            return v as usize;
        }
        let m = 63 - v.leading_zeros() as usize;
        32 + (m - 5) * 32 + ((v >> (m - 5)) & 31) as usize
    }

    /// Largest value in bucket `i`.
    fn upper(i: usize) -> u64 {
        if i < 32 {
            return i as u64;
        }
        let (m, sub) = ((i - 32) / 32 + 5, (i - 32) % 32);
        let first = ((32 + sub) as u128) << (m - 5);
        (first + (1u128 << (m - 5)) - 1) as u64
    }

    fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
    }

    fn merge(&mut self, other: &Dense) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    fn reset(&mut self) {
        *self = Dense::new();
    }

    fn iter(&self) -> Vec<(u64, u64)> {
        (0..Self::BUCKETS)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| (Self::upper(i), self.counts[i]))
            .collect()
    }

    fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for i in 0..Self::BUCKETS {
            seen += self.counts[i];
            if self.counts[i] > 0 && seen >= rank {
                return Self::upper(i);
            }
        }
        unreachable!("rank {rank} of {}", self.total)
    }

    fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

/// `h` answers every query exactly as the dense model `d` does.
fn same_answers(h: &LatencyHist, d: &Dense, at: &str) {
    assert_eq!(h.iter().collect::<Vec<_>>(), d.iter(), "{at}: buckets");
    assert_eq!(h.total(), d.total, "{at}: total");
    assert_eq!(h.mean().to_bits(), d.mean().to_bits(), "{at}: mean");
    for k in 0..=20 {
        let q = k as f64 / 20.0;
        assert_eq!(h.percentile(q), d.percentile(q), "{at}: q={q}");
    }
    for q in [0.001, 0.01, 0.999, 0.9999] {
        assert_eq!(h.percentile(q), d.percentile(q), "{at}: q={q}");
    }
}

/// Three histograms, each with a dense twin. Ops are applied to both
/// sides, and the histogram an op changed is compared after it.
struct Twins(Vec<(LatencyHist, Dense)>);

impl Twins {
    fn new() -> Self {
        Twins((0..3).map(|_| (LatencyHist::new(), Dense::new())).collect())
    }

    fn record(&mut self, h: usize, v: u64) {
        self.0[h].0.record(v);
        self.0[h].1.record(v);
        self.check(h, &format!("record {v}"));
    }

    fn merge(&mut self, dst: usize, src: usize) {
        let (hist, dense) = self.0[src].clone();
        self.0[dst].0.merge(&hist);
        self.0[dst].1.merge(&dense);
        self.check(dst, &format!("merge of {src}"));
    }

    fn reset(&mut self, h: usize) {
        self.0[h].0.reset();
        self.0[h].1.reset();
        self.check(h, "reset");
    }

    fn check(&self, i: usize, at: &str) {
        let (h, d) = &self.0[i];
        same_answers(h, d, &format!("histogram {i} after {at}"));
    }
}

/// The values the layout's edges sit on, then the three bands below.
const EDGES: [u64; 5] = [0, 31, 32, 1 << 63, u64::MAX];

/// Each histogram's own band: low, mid, high — disjoint, so merges join
/// spans that do not touch.
const BANDS: [(u64, u64); 3] = [(0, 64), (1_000, 100_000), (1 << 40, 1 << 50)];

fn edge_or_any() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
        0u64..u64::MAX,
    ]
}

/// The named merges, in order: disjoint low and high spans (both ways
/// round), a merge into an empty histogram and of an empty one, a reset
/// span merged with a wider one, and spans one bucket past either end.
#[test]
fn span_histogram_named_merges_match_the_dense_model() {
    let mut t = Twins::new();
    for v in [0, 31, 32, 40, 63] {
        t.record(0, v);
    }
    for v in [1 << 63, u64::MAX, (1 << 40) + 7] {
        t.record(1, v);
    }
    t.merge(0, 1); // high span into low
    t.merge(1, 0); // low-and-high into high
    t.merge(2, 0); // into an empty histogram
    t.reset(2);
    t.merge(0, 2); // of an emptied (reset) histogram
    t.merge(2, 1); // into a reset one
    let mut fresh = Twins::new();
    fresh.merge(0, 1); // of a never-used one, into a never-used one
    fresh.record(1, 5_000);
    fresh.merge(1, 0); // of a never-used one
    fresh.merge(0, 1); // into a never-used one
    let mut adjacent = Twins::new();
    adjacent.record(0, 40);
    adjacent.record(1, 41);
    adjacent.record(2, 39);
    adjacent.merge(0, 1); // one bucket past the top
    adjacent.merge(0, 2); // one bucket below the bottom
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Random interleavings: each op is (kind, histogram, other histogram,
    // band or edge, value). Records draw mostly from the histogram's own
    // band, otherwise from the edges or anywhere in `u64`.
    #[test]
    fn span_histogram_matches_the_dense_model(
        ops in prop::collection::vec(
            (0u8..10, 0usize..3, 0usize..3, 0u8..4, edge_or_any()),
            1..120,
        )
    ) {
        let mut t = Twins::new();
        for &(kind, h, other, own, v) in &ops {
            match kind {
                0..=5 => {
                    let v = if own < 3 {
                        let (lo, hi) = BANDS[h];
                        lo + v % (hi - lo)
                    } else {
                        v
                    };
                    t.record(h, v);
                }
                6..=8 => t.merge(h, other),
                _ => t.reset(h),
            }
        }
    }
}
