//! Link-width sweep: the serialization-latency mechanism behind Fig. 9,
//! traced point by point for all three organizations.
//!
//! The paper argues that narrowing the mesh mostly adds serialization
//! latency that stays "dwarfed by the header delay", while the flattened
//! butterfly — whose whole advantage is low header delay — is devastated.
//! This sweep exposes that mechanism directly (NOC-Out, with its shared
//! tree links, is the most serialization-sensitive of all — which is
//! precisely why its ability to keep full-width links inside a mesh-class
//! area budget is the winning move in Fig. 9).
//!
//! Run with `cargo run --release -p nocout-experiments --bin sweep`
//! (add `--jobs N` to spread the 12-point grid over N workers).

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::{campaign, report_csv, Table};

const ABOUT: &str = "Sweeps link width (128/64/32/16 bits) over the 3 \
evaluated organizations on MapReduce-W, normalizing each organization to \
its own 128-bit point — the serialization mechanism behind Figure 9. \
Writes out/sweep.csv.";

fn main() {
    let cli = Cli::parse("sweep", ABOUT, "");
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let widths = [128u32, 64, 32, 16];
    let workload = Workload::MapReduceW;
    let mut table = Table::new(
        "Link-width sweep — aggregate IPC normalized to each organization at 128 bits (MapReduce-W)",
        vec![
            "Width (bits)".into(),
            "Mesh".into(),
            "FBfly".into(),
            "NOC-Out".into(),
            "Mesh resp lat".into(),
            "FBfly resp lat".into(),
            "NOC-Out resp lat".into(),
        ],
    );
    // The whole organization × width grid as one campaign.
    let frame = campaign(scale)
        .orgs(Organization::EVALUATED)
        .link_bits(widths)
        .workloads([workload])
        .run(&runner);

    for &w in &widths {
        let mut cells = vec![w.to_string()];
        let mut lats = Vec::new();
        for org in Organization::EVALUATED {
            let p = frame.at().org(org).link_bits(w).one();
            let base = frame.at().org(org).link_bits(widths[0]).ipc();
            cells.push(format!("{:.3}", p.ipc / base));
            lats.push(format!("{:.1}", p.metrics.network.mean_response_latency));
        }
        cells.extend(lats);
        table.row(cells);
    }
    table.print();
    println!(
        "Expectation: the mesh degrades most gently (its header delay dwarfs \
         serialization); the butterfly and NOC-Out, whose advantage is low header \
         delay, lose it to serialization — NOC-Out fastest of all because its \
         shared tree links serialize whole cache lines. This is why Fig. 9 is an \
         asymmetric contest: NOC-Out fits the 2.5 mm² budget at full 128-bit \
         width, and only its rivals must narrow."
    );
    report_csv("sweep.csv", &table.csv_records());
}
