//! Figure 4: percentage of LLC accesses triggering a snoop message, per
//! workload.
//!
//! Paper result: coherence activity is negligible — on average two out of
//! 100 LLC accesses trigger a snoop, ranging from under 1% (Web Search) to
//! ~4% (SAT Solver). This is the observation NOC-Out's bilateral-traffic
//! specialization rests on.
//!
//! Run with `cargo run --release -p nocout-experiments --bin fig4`
//! (add `--jobs N` to run the six workloads in parallel).

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::{campaign, report_csv, Table};

const ABOUT: &str = "Reproduces Figure 4: the snoop rate (% of LLC \
accesses triggering a snoop) of all 6 CloudSuite-style workloads on the \
mesh baseline, against the paper's ~2% average. Writes out/fig4.csv.";

fn main() {
    let cli = Cli::parse("fig4", ABOUT, "");
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let paper = [1.2, 2.2, 2.8, 4.2, 1.8, 0.8];
    let mut table = Table::new(
        "Figure 4 — % of LLC accesses triggering a snoop",
        vec![
            "Workload".into(),
            "Snoop %".into(),
            "Snoop % (paper, approx.)".into(),
        ],
    );
    // Measured on the mesh baseline; the traffic mix is an application
    // property and is organization-independent.
    let frame = campaign(scale)
        .orgs([Organization::Mesh])
        .workloads(Workload::ALL)
        .run(&runner);

    let mut sum = 0.0;
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let pct = frame.get(Organization::Mesh, w).metrics.llc.snoop_percent();
        sum += pct;
        table.row(vec![
            w.name().into(),
            format!("{pct:.2}"),
            format!("{:.1}", paper[i]),
        ]);
    }
    table.row(vec![
        "Mean".into(),
        format!("{:.2}", sum / Workload::ALL.len() as f64),
        "2.0".into(),
    ]);
    table.print();
    report_csv("fig4.csv", &table.csv_records());
}
