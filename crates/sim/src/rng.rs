//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the simulator (workload address streams,
//! dependency draws, bank selection, ...) flows through [`SimRng`], a
//! xoshiro256\*\* generator with SplitMix64 seeding. Keeping the generator
//! in-tree (rather than relying on `rand`'s default engines) pins the random
//! streams across toolchain and dependency upgrades, which is what makes the
//! experiment harness exactly reproducible from a seed.

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// The generator is seeded through SplitMix64 so that any `u64` (including
/// zero) produces a well-mixed initial state. It can be [split](SimRng::split)
/// into independent child generators, which the system driver uses to hand
/// each core its own stream without inter-component coupling.
///
/// # Examples
///
/// ```
/// use nocout_sim::rng::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a seed. Any seed value, including zero,
    /// yields a usable, well-distributed stream.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives an independent child generator. The child stream is decoupled
    /// from the parent's future output: each call consumes one value from
    /// the parent and seeds the child through SplitMix64 with distinct
    /// mixing.
    pub fn split(&mut self) -> SimRng {
        let seed = self.next_u64() ^ 0xA5A5_A5A5_DEAD_BEEF;
        SimRng::new(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection-free variant is unnecessary for
        // simulation purposes; 128-bit multiply-high gives a negligible and
        // uniform-enough bias for bounds far below 2^64.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: returns `true` with probability `p` (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Geometric draw: number of failures before the first success of a
    /// Bernoulli(p) process. Returns 0 when `p >= 1`. Used for inter-arrival
    /// style sampling in the workload models.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 0;
        }
        let p = p.max(1e-12);
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }
}

/// A Zipf-distributed sampler over ranks `0..n`.
///
/// Scale-out workloads re-reference a skewed subset of their instruction
/// footprint (hot request-handling paths); the workload models use this
/// sampler to produce that skew. Sampling inverts a precomputed
/// cumulative table, acceptable because footprints are sampled at
/// cache-line granularity over at most a few hundred thousand ranks and
/// tables are built once per run. A guide table (Chen & Asau's indexed
/// search) starts each draw a step or two from its rank: `guide[k]` is
/// the first rank whose cumulative weight reaches the k-th of `n` equal
/// slices of `[0, 1)`, so a draw in slice `k` scans up from there.
///
/// # Examples
///
/// ```
/// use nocout_sim::rng::{SimRng, Zipf};
///
/// let zipf = Zipf::new(1000, 0.8);
/// let mut rng = SimRng::new(1);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `theta` (0 = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or beyond `u32` ranks, or if `theta` is not
    /// finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(u32::try_from(n).is_ok(), "Zipf support must fit u32 ranks");
        assert!(
            theta.is_finite(),
            "Zipf exponent must be finite, got {theta}"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(theta);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        // `slice(c)` is monotone in `c`, so every rank below `guide[k]`
        // has a cumulative weight below any draw `u` with
        // `slice(u) == k`: the scan from `guide[k]` cannot skip the rank
        // the full search would find.
        let mut guide = Vec::with_capacity(n);
        let mut rank = 0;
        for k in 0..n {
            while rank < n && Self::slice(cumulative[rank], n) < k {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cumulative, guide }
    }

    /// The guide slice of `x` in `[0, 1]`: `floor(x·n)`, clamped to the
    /// last slice.
    #[inline]
    fn slice(x: f64, n: usize) -> usize {
        ((x * n as f64) as usize).min(n - 1)
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the support is empty (never true: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The normalized cumulative weight of each rank: a draw `u` samples
    /// the first rank whose entry reaches `u`.
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }

    /// Draws one rank: the first whose cumulative weight reaches a
    /// uniform draw (the last rank if rounding leaves none).
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.rank_of(rng.next_f64())
    }

    /// The rank a draw of `u` in `[0, 1)` samples.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let n = self.cumulative.len();
        let mut rank = self.guide[Self::slice(u, n)] as usize;
        while rank < n && self.cumulative[rank] < u {
            rank += 1;
        }
        rank.min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SimRng::new(12345);
        let mut b = SimRng::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn split_is_independent() {
        let mut parent = SimRng::new(99);
        let mut child = parent.split();
        let child_vals: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        let parent_vals: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        assert_ne!(child_vals, parent_vals);
    }

    #[test]
    fn bounded_values_in_range() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_rate_close_to_p() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.02)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.02).abs() < 0.004, "rate was {rate}");
    }

    #[test]
    fn geometric_mean_matches() {
        let mut rng = SimRng::new(21);
        let p: f64 = 0.25;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expect = (1.0 - p) / p;
        assert!((mean - expect).abs() < 0.15, "mean was {mean}, want {expect}");
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = SimRng::new(42);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] * 5, "rank 0 should be far hotter");
        assert_eq!(counts.iter().sum::<usize>(), 50_000);
    }

    /// The search `sample` replaced: a binary search of the whole table.
    fn binary_search_rank(zipf: &Zipf, u: f64) -> usize {
        match zipf
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(zipf.cumulative.len() - 1),
        }
    }

    #[test]
    fn zipf_guide_search_equals_binary_search() {
        // Edge tables: one rank, uniform, shallow, steep. The workload
        // profiles' own tables are checked in `nocout-workloads`.
        let tables = [
            (1, 0.9),
            (2, 0.0),
            (10, 0.0),
            (100, 0.2),
            (500, 0.99),
            (1000, 3.0),
        ];
        for (n, theta) in tables {
            let zipf = Zipf::new(n, theta);
            let mut rng = SimRng::new(n as u64);
            // Random draws, then every slice boundary exactly.
            let draws = (0..50_000).map(|_| rng.next_f64());
            for u in draws.chain((0..n).map(|k| k as f64 / n as f64)) {
                assert_eq!(
                    zipf.rank_of(u),
                    binary_search_rank(&zipf, u),
                    "n={n} θ={theta} u={u}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn zipf_refuses_a_nan_exponent() {
        Zipf::new(8, f64::NAN);
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = SimRng::new(4);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0);
        }
    }
}
