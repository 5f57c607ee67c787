//! What the four workloads have in common: how one is set up, what a
//! round of fixed work returns, and what its set-up pass is checked
//! against.

use crate::metrics::Values;
use crate::spans::{Span, Tracer};
use nocout::campaign::ResultFrame;
use std::path::PathBuf;

/// How a workload is to be set up.
#[derive(Debug)]
pub struct Ctx<'t> {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Work counts cut to seconds in total, for the smoke test.
    pub smoke: bool,
    /// Whether this is a traced run (the set-up pass then goes through
    /// the traced executor too).
    pub traced: bool,
    /// Where traced rounds record their spans.
    pub tracer: &'t Tracer,
    /// A directory of this set-up's own, already created.
    pub scratch: PathBuf,
}

/// Simulated work of one pass over a workload's grid. These are counts
/// made by the model, so they repeat exactly for a seed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimCounts {
    /// Instructions retired in the measured windows.
    pub instructions: u64,
    /// Network packets delivered.
    pub packets: u64,
    /// Flit hops (crossbar traversals).
    pub flit_hops: u64,
    /// LLC accesses.
    pub llc_accesses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Memory reads.
    pub mem_reads: u64,
    /// Open-loop requests completed (0 for closed-loop workloads).
    pub requests_completed: u64,
}

impl SimCounts {
    /// Sums the counts of every point of `frame` (for a replicated point,
    /// its last seed's metrics, which is what the frame keeps).
    pub fn of(frame: &ResultFrame) -> Self {
        let mut c = SimCounts::default();
        for p in frame.results() {
            let m = &p.metrics;
            c.instructions += m.instructions;
            c.packets += m.network.packets;
            c.flit_hops += m.network.xbar_traversals;
            c.llc_accesses += m.llc.accesses;
            c.llc_hits += m.llc.hits;
            c.llc_misses += m.llc.misses;
            c.mem_reads += m.memory.reads;
            c.requests_completed += m.request_latency.count;
        }
        c
    }
}

/// What the set-up pass produced; every later pass must reproduce
/// `output` byte for byte.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The rendered result of one pass.
    pub output: String,
    /// Simulated work of one pass.
    pub counts: SimCounts,
    /// For a grid the paper's Figure 7 covers: the larger of the two
    /// relative errors of the geomean speed-up over mesh against 1.17,
    /// in percent.
    pub paper_gmean_err_pct: Option<f64>,
}

/// One round of fixed work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Round {
    /// Campaign points (spec executions) attempted.
    pub points: u64,
    /// Points that failed, or whose pass did not reproduce the reference.
    pub failed: u64,
    /// Simulated chip cycles (warm-up + measure) of the points delivered.
    pub sim_cycles: u64,
}

/// A set-up workload.
pub trait Bench {
    /// Runs one round; `traced` swaps in the traced executor (or, on
    /// `sharded_trace`, the counting stream wrappers).
    fn round(&mut self, traced: bool) -> Round;

    /// The set-up pass's result.
    fn reference(&self) -> &Reference;

    /// Checks that failed since the last call, as messages.
    fn take_misses(&mut self) -> Vec<String>;

    /// The workload's own per-layer metrics, from the spans of a traced
    /// run.
    fn layer_metrics(&self, spans: &[Span], out: &mut Values);
}

/// FNV-1a 64 of `bytes`: the `sim_digest` of a rendered result.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
