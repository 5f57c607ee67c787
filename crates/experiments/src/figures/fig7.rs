//! Figure 7: system performance normalized to the mesh, per workload,
//! for Mesh / Flattened Butterfly / NOC-Out at 128-bit links.
//!
//! Paper result: FBfly beats the mesh by 7–31% (geomean +17%); NOC-Out
//! matches FBfly on average — slightly below it on Data Serving (LLC bank
//! contention), above it on Web Search (16 cores adjacent to the LLC).
//!
//! `shard-run` runs this entry's grid and render too, so its CSV is
//! byte-identical to `repro fig7`'s.

use super::{Body, Figure, Output};
use crate::{campaign, Table};
use nocout::prelude::*;

pub(super) const FIGURE: Figure = Figure {
    name: "fig7",
    about: "Reproduces Figure 7: the 3 evaluated organizations \
(mesh, flattened butterfly, NOC-Out) x 6 CloudSuite-style workloads at \
128-bit links, normalized to the mesh per workload, with the paper's \
numbers alongside.",
    body: Body::Grid {
        grid: |scale| campaign(scale).orgs(Organization::EVALUATED).workloads(Workload::ALL),
        render,
    },
};

/// Paper Figure 7 speedups for the flattened butterfly, per workload in
/// [`Workload::ALL`] order.
const PAPER_FBFLY: [f64; 6] = [1.31, 1.15, 1.20, 1.12, 1.16, 1.07];
/// Paper Figure 7 speedups for NOC-Out, per workload in
/// [`Workload::ALL`] order.
const PAPER_NOCOUT: [f64; 6] = [1.27, 1.15, 1.21, 1.12, 1.16, 1.12];

/// Normalized per workload to the mesh, with the paper's numbers
/// alongside.
fn render(frame: &ResultFrame) -> Output {
    let norm = frame.normalize_to(Organization::Mesh);
    let mut table = Table::new(
        "Figure 7 — System performance normalized to mesh (128-bit links)",
        &["Workload", "Mesh", "FBfly", "NOC-Out", "FBfly(paper)", "NOC-Out(paper)"],
    );
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let fbn = norm.get(Organization::FlattenedButterfly, w);
        let non = norm.get(Organization::NocOut, w);
        table.row(vec![
            w.name().into(),
            "1.000".into(),
            format!("{fbn:.3}"),
            format!("{non:.3}"),
            format!("{:.2}", PAPER_FBFLY[i]),
            format!("{:.2}", PAPER_NOCOUT[i]),
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
    Output { table, notes: Vec::new() }
}
