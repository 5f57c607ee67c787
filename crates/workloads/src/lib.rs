//! Synthetic scale-out workload models calibrated to CloudSuite.
//!
//! The paper evaluates six CloudSuite scale-out workloads under Flexus
//! full-system simulation. We cannot run the real software stack, so this
//! crate substitutes statistical workload models that reproduce the traits
//! the paper's analysis rests on (§2.1):
//!
//! * **request independence** — each core runs its own stream with almost
//!   no inter-core data sharing,
//! * **large instruction footprints** — a multi-megabyte shared
//!   instruction region with short straight-line runs and skewed
//!   re-reference, producing frequent L1-I misses that hit in the LLC,
//! * **vast datasets** — per-core private data spread over a region far
//!   larger than the LLC with no temporal reuse, so data misses go to
//!   memory,
//! * **negligible coherence** — a small shared read-write region touched
//!   by a tunable few percent of data accesses generates the ~2% snoop
//!   rate of Fig. 4,
//! * **low ILP/MLP** — dependent-load fractions and occasional long-latency
//!   ALU chains bound how much latency the core can hide.
//!
//! Each [`Workload`] carries a [`WorkloadProfile`] whose knobs were
//! calibrated so the relative behaviour across interconnects matches the
//! paper's evaluation. The paper-vs-measured record is the `(paper)`
//! columns of `tests/golden/fig7_fast.csv` beside the measured ones, and
//! `tests/paper_claims.rs` gates it.

pub mod characterize;
pub mod gen;
pub mod openloop;
pub mod profile;
pub mod trace;

pub use characterize::{characterize, Characterization};
pub use gen::WorkloadGen;
pub use openloop::{OpenLoopSource, OpenLoopSpec};
pub use profile::{Workload, WorkloadProfile};
pub use trace::{TraceSet, TraceSource, TraceWriter, WorkloadClass};
