//! §4.3 banking ablation: LLC tiles/banks vs performance.
//!
//! Paper claims: (a) four cores per LLC bank perform within 2% of a
//! one-bank-per-core design because low ILP/MLP dampens LLC bandwidth
//! pressure; (b) two banks per NOC-Out tile achieve the throughput of
//! higher banking degrees at lower cost.
//!
//! Run with `cargo run --release -p nocout-experiments --bin banking`
//! (add `--jobs N` to spread the 9-point grid over N workers).

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::{campaign, report_csv, Table};

const ABOUT: &str = "Reproduces the section 4.3 banking ablation: NOC-Out \
with 1/2/4 LLC banks per tile x 3 bank-sensitive workloads, normalized to \
the paper's 2-banks-per-tile configuration. Writes out/banking.csv.";

fn main() {
    let cli = Cli::parse("banking", ABOUT, "");
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let workloads = [Workload::DataServing, Workload::MapReduceW, Workload::WebSearch];
    let bank_counts = [1usize, 2, 4];
    let mut table = Table::new(
        "§4.3 — NOC-Out LLC banking sweep (aggregate IPC, normalized to 2 banks/tile)",
        vec![
            "Workload".into(),
            "1 bank/tile".into(),
            "2 banks/tile (paper config)".into(),
            "4 banks/tile".into(),
        ],
    );
    // Banking degree isn't a typed axis, so the configuration axis is
    // explicit: one labelled variant per banks-per-tile setting.
    let frame = campaign(scale)
        .variants(bank_counts.map(|banks| {
            let mut cfg = ChipConfig::paper(Organization::NocOut);
            cfg.banks_per_llc_tile = banks;
            (format!("{banks} banks/tile"), cfg)
        }))
        .workloads(workloads)
        .run(&runner);

    for &w in &workloads {
        let ipc_at = |banks: usize| {
            frame
                .at()
                .label(format!("{banks} banks/tile"))
                .workload(w)
                .ipc()
        };
        let base = ipc_at(2);
        table.row(vec![
            w.name().into(),
            format!("{:.4}", ipc_at(1) / base),
            "1.0000".into(),
            format!("{:.4}", ipc_at(4) / base),
        ]);
    }
    table.print();
    println!(
        "Expectation: 4 banks buys little over 2 (paper: similar throughput at lower \
         area with 2 banks/tile); 1 bank loses on bank-contention-sensitive workloads."
    );
    report_csv("banking.csv", &table.csv_records());
}
