//! Figure 4: percentage of LLC accesses triggering a snoop message, per
//! workload.
//!
//! Paper result: coherence activity is negligible — on average two out of
//! 100 LLC accesses trigger a snoop, ranging from under 1% (Web Search) to
//! ~4% (SAT Solver). This is the observation NOC-Out's bilateral-traffic
//! specialization rests on.

use super::{Body, Figure, Output};
use crate::{campaign, Table};
use nocout::prelude::*;

pub(super) const FIGURE: Figure = Figure {
    name: "fig4",
    about: "Reproduces Figure 4: the snoop rate (% of LLC \
accesses triggering a snoop) of all 6 CloudSuite-style workloads on the \
mesh baseline, against the paper's ~2% average.",
    // Measured on the mesh baseline; the traffic mix is an application
    // property and is organization-independent.
    body: Body::Grid {
        grid: |scale| campaign(scale).orgs([Organization::Mesh]).workloads(Workload::ALL),
        render,
    },
};

/// The paper's snoop percentages (read off the figure), per workload in
/// [`Workload::ALL`] order.
const PAPER: [f64; 6] = [1.2, 2.2, 2.8, 4.2, 1.8, 0.8];

fn render(frame: &ResultFrame) -> Output {
    let mut table = Table::new(
        "Figure 4 — % of LLC accesses triggering a snoop",
        &["Workload", "Snoop %", "Snoop % (paper, approx.)"],
    );
    let mut sum = 0.0;
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let pct = frame.get(Organization::Mesh, w).metrics.llc.snoop_percent();
        sum += pct;
        table.row(vec![
            w.name().into(),
            format!("{pct:.2}"),
            format!("{:.1}", PAPER[i]),
        ]);
    }
    table.row(vec![
        "Mean".into(),
        format!("{:.2}", sum / Workload::ALL.len() as f64),
        "2.0".into(),
    ]);
    Output { table, notes: Vec::new() }
}
