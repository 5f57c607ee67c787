//! # nocout — a reproduction of *NOC-Out: Microarchitecting a Scale-Out
//! Processor* (MICRO 2012)
//!
//! NOC-Out is a many-core chip organization for scale-out server
//! workloads: because traffic is almost entirely bilateral (cores ↔ shared
//! LLC, with negligible coherence), the design segregates LLC tiles into a
//! central row, connects each column of cores to its LLC tile through
//! routing-free **reduction trees** (cores → LLC) and **dispersion trees**
//! (LLC → cores), and links the LLC tiles with a small flattened
//! butterfly. The result matches a full flattened butterfly's performance
//! at roughly the area of a mesh.
//!
//! This crate binds the substrates (NoC, memory system, cores, workloads,
//! technology models) into the full-system model the evaluation needs:
//!
//! * [`config`] — the evaluated [`config::Organization`]s and Table 1
//!   parameters,
//! * [`chip`] — [`chip::ScaleOutChip`], the cycle-driven full system,
//! * [`runner`] — warmup/measure orchestration,
//! * [`campaign`] — declarative axis grids ([`campaign::Campaign`]) over
//!   the runner, returning coordinate-queryable
//!   [`campaign::ResultFrame`]s (what every figure `repro` runs is built
//!   on; see `docs/campaign-api.md`),
//! * [`cache`] — the on-disk, spec-keyed results cache campaigns opt
//!   into with `--cache DIR`,
//! * [`distribute`] — fault-tolerant sharded campaign execution: the
//!   shard wire protocol, the `nocout-worker` serving side, the
//!   retrying/resuming driver, and the crash-safe journal (see
//!   `docs/distributed-campaigns.md`),
//! * [`metrics`] — what a run reports,
//! * [`sop`] — the Scale-Out Processor configuration methodology (§2.2).
//!
//! # Quickstart
//!
//! ```
//! use nocout::prelude::*;
//!
//! // Compare NOC-Out against the mesh baseline on a short window.
//! let mesh = run(&RunSpec::new(
//!     ChipConfig::paper(Organization::Mesh),
//!     Workload::WebSearch,
//! )
//! .fast());
//! let nocout = run(&RunSpec::new(
//!     ChipConfig::paper(Organization::NocOut),
//!     Workload::WebSearch,
//! )
//! .fast());
//! assert!(nocout.aggregate_ipc() > 0.0 && mesh.aggregate_ipc() > 0.0);
//! ```

pub mod cache;
pub mod campaign;
pub mod chip;
pub mod config;
pub mod distribute;
pub mod metrics;
pub mod runner;
pub mod sop;

pub use campaign::{Campaign, ResultFrame};
pub use chip::{capture_synthetic_trace, trace_capture_len, ScaleOutChip};
pub use config::{ChipConfig, Organization};
pub use metrics::SystemMetrics;
pub use runner::{run, RunSpec};

/// Convenient glob-import surface for examples and the harness.
pub mod prelude {
    pub use crate::campaign::{Campaign, ResultFrame};
    pub use crate::chip::{capture_synthetic_trace, trace_capture_len, ScaleOutChip};
    pub use crate::config::{ChipConfig, Organization};
    pub use crate::metrics::SystemMetrics;
    pub use crate::runner::{run, RunSpec};
    pub use nocout_sim::config::{MeasurementWindow, SeedSet};
    pub use nocout_workloads::{Workload, WorkloadClass};
}
