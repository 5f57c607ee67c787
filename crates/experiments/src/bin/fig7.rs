//! Figure 7: system performance normalized to the mesh, per workload,
//! for Mesh / Flattened Butterfly / NOC-Out at 128-bit links.
//!
//! Paper result: FBfly beats the mesh by 7–31% (geomean +17%); NOC-Out
//! matches FBfly on average — slightly below it on Data Serving (LLC bank
//! contention), above it on Web Search (16 cores adjacent to the LLC).
//!
//! Run with `cargo run --release -p nocout-experiments --bin fig7`
//! (set `NOCOUT_FAST=1` for a quick smoke run, `--jobs N` to spread the
//! 18-point grid over N workers). The campaign grid and the table live in
//! [`nocout_experiments::figures`], shared with the sharded execution
//! path (`shard-run`), whose CSV must stay byte-identical to this one.

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::figures::{fig7_campaign, fig7_table};
use nocout_experiments::report_csv;

const ABOUT: &str = "Reproduces Figure 7: the 3 evaluated organizations \
(mesh, flattened butterfly, NOC-Out) x 6 CloudSuite-style workloads at \
128-bit links, normalized to the mesh per workload, with the paper's \
numbers alongside. Writes out/fig7.csv.";

fn main() {
    let cli = Cli::parse("fig7", ABOUT, "");
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    // The whole organization × workload grid as one declarative campaign
    // (every point × seed executes as a single parallel batch).
    let frame = fig7_campaign(scale).run(&runner);
    for &w in Workload::ALL.iter() {
        let mesh = frame.get(Organization::Mesh, w);
        let fb = frame.get(Organization::FlattenedButterfly, w);
        let no = frame.get(Organization::NocOut, w);
        eprintln!(
            "  [{w}] mesh {:.4}  fbfly {:.4}  nocout {:.4}  (net lat: {:.1} / {:.1} / {:.1})",
            mesh.ipc,
            fb.ipc,
            no.ipc,
            mesh.metrics.network.mean_latency,
            fb.metrics.network.mean_latency,
            no.metrics.network.mean_latency,
        );
    }
    let table = fig7_table(&frame);
    table.print();
    report_csv("fig7.csv", &table.csv_records());
}
