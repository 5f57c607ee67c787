//! `nocbench`: the repository's benchmark.
//!
//! Four fixed-work campaign workloads run through the public API of
//! `nocout` (`Campaign`, `BatchRunner`, `ResultsCache`, `ShardedDriver`,
//! `Worker`, `TraceStore`). An untraced run prints the end-to-end
//! metrics; a traced run swaps in an executor defined here that makes
//! the same public calls under spans, and prints the per-layer metrics.
//! Everything is measured from outside the simulator: no file of the
//! repository's crates knows this benchmark exists.
//!
//! See `README.md` for the commands, the metric and workload names, and
//! which end-to-end metric each layer metric is expected to move.

pub mod all;
pub mod campaign_bench;
pub mod compare;
pub mod distopt;
pub mod exec;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod sharded;
pub mod spans;
pub mod stats;
pub mod workload;
