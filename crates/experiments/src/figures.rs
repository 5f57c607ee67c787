//! Figure definitions shared between execution paths.
//!
//! The Figure 7 grid and table used to live inside the `fig7` binary;
//! the sharded execution path (`shard-run`) must produce a CSV that is
//! *byte-identical* to `fig7`'s, so both binaries now build their
//! campaign and table here. Any drift between the local and distributed
//! renderings of the figure becomes impossible by construction (and the
//! CI sharded-execution gate `cmp`s the outputs anyway).

use crate::report::{campaign, Scale};
use crate::table::Table;
use nocout::campaign::ResultFrame;
use nocout::prelude::*;
use nocout_sim::text::hex;
use nocout_workloads::trace::TraceSet;
use nocout_workloads::WorkloadClass;
use std::sync::Arc;

/// Paper Figure 7 speedups for the flattened butterfly, per workload in
/// [`Workload::ALL`] order.
pub const FIG7_PAPER_FBFLY: [f64; 6] = [1.31, 1.15, 1.20, 1.12, 1.16, 1.07];
/// Paper Figure 7 speedups for NOC-Out, per workload in
/// [`Workload::ALL`] order.
pub const FIG7_PAPER_NOCOUT: [f64; 6] = [1.27, 1.15, 1.21, 1.12, 1.16, 1.12];

/// The Figure 7 campaign: the 3 evaluated organizations × 6 workloads at
/// 128-bit links, on the window and seed set of `scale`.
pub fn fig7_campaign(scale: Scale) -> Campaign {
    campaign(scale).orgs(Organization::EVALUATED).workloads(Workload::ALL)
}

/// Renders a [`fig7_campaign`] result frame as the Figure 7 table —
/// normalized per workload to the mesh, with the paper's numbers
/// alongside. Every execution path (local `fig7`, sharded `shard-run`)
/// renders through this one function, so their CSVs cannot drift.
///
/// # Panics
///
/// Panics (naming the point and its failure) if the frame is missing a
/// grid point.
pub fn fig7_table(frame: &ResultFrame) -> Table {
    let norm = frame.normalize_to(Organization::Mesh);
    let mut table = Table::new(
        "Figure 7 — System performance normalized to mesh (128-bit links)",
        vec![
            "Workload".into(),
            "Mesh".into(),
            "FBfly".into(),
            "NOC-Out".into(),
            "FBfly(paper)".into(),
            "NOC-Out(paper)".into(),
        ],
    );
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let fbn = norm.get(Organization::FlattenedButterfly, w);
        let non = norm.get(Organization::NocOut, w);
        table.row(vec![
            w.name().into(),
            "1.000".into(),
            format!("{fbn:.3}"),
            format!("{non:.3}"),
            format!("{:.2}", FIG7_PAPER_FBFLY[i]),
            format!("{:.2}", FIG7_PAPER_NOCOUT[i]),
        ]);
    }
    table.row(vec![
        "GMean".into(),
        "1.000".into(),
        format!("{:.3}", norm.geomean(Organization::FlattenedButterfly)),
        format!("{:.3}", norm.geomean(Organization::NocOut)),
        "1.17".into(),
        "1.17".into(),
    ]);
    table
}

/// A captured-trace replay campaign over the 3 evaluated organizations:
/// one trace workload, on the window of `scale` (trace replay is
/// seed-insensitive, so the seed axis collapses to 3 points). Both the
/// local and the sharded trace execution paths build their grid here —
/// the trace-shipping CI gate `cmp`s their CSVs.
pub fn trace_campaign(set: Arc<TraceSet>, scale: Scale) -> Campaign {
    campaign(scale)
        .orgs(Organization::EVALUATED)
        .workloads([WorkloadClass::Trace(set)])
}

/// Renders a [`trace_campaign`] result frame, normalized to the mesh.
/// One rendering function for every execution path, like [`fig7_table`]:
/// a local run and a sharded run of the same trace cannot drift.
///
/// # Panics
///
/// Panics (naming the point and its failure) if the frame is missing a
/// grid point.
pub fn trace_table(frame: &ResultFrame, set: &Arc<TraceSet>) -> Table {
    let norm = frame.normalize_to(Organization::Mesh);
    let mut table = Table::new(
        "Trace replay — performance normalized to mesh",
        vec![
            "Trace".into(),
            "Mesh".into(),
            "FBfly".into(),
            "NOC-Out".into(),
        ],
    );
    table.row(vec![
        hex(set.content_hash()).to_string(),
        "1.000".into(),
        format!(
            "{:.3}",
            norm.get(Organization::FlattenedButterfly, set.clone())
        ),
        format!("{:.3}", norm.get(Organization::NocOut, set.clone())),
    ]);
    table
}
