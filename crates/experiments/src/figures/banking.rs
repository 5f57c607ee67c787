//! §4.3 banking ablation: LLC tiles/banks vs performance.
//!
//! Paper claims: (a) four cores per LLC bank perform within 2% of a
//! one-bank-per-core design because low ILP/MLP dampens LLC bandwidth
//! pressure; (b) two banks per NOC-Out tile achieve the throughput of
//! higher banking degrees at lower cost.

use super::{Body, Figure, Output};
use crate::{campaign, Scale, Table};
use nocout::prelude::*;

pub(super) const FIGURE: Figure = Figure {
    name: "banking",
    about: "Reproduces the section 4.3 banking ablation: NOC-Out \
with 1/2/4 LLC banks per tile x 3 bank-sensitive workloads, normalized to \
the paper's 2-banks-per-tile configuration.",
    body: Body::Grid { grid, render },
};

const WORKLOADS: [Workload; 3] = [Workload::DataServing, Workload::MapReduceW, Workload::WebSearch];
const BANKS: [usize; 3] = [1, 2, 4];

fn grid(scale: Scale) -> Campaign {
    // Banking degree isn't a typed axis, so the configuration axis is
    // explicit: one labelled variant per banks-per-tile setting.
    campaign(scale)
        .variants(BANKS.map(|banks| {
            let mut cfg = ChipConfig::paper(Organization::NocOut);
            cfg.banks_per_llc_tile = banks;
            (format!("{banks} banks/tile"), cfg)
        }))
        .workloads(WORKLOADS)
}

fn render(frame: &ResultFrame) -> Output {
    let mut table = Table::new(
        "§4.3 — NOC-Out LLC banking sweep (aggregate IPC, normalized to 2 banks/tile)",
        &["Workload", "1 bank/tile", "2 banks/tile (paper config)", "4 banks/tile"],
    );
    for &w in &WORKLOADS {
        let at = |banks: usize| frame.at().label(format!("{banks} banks/tile")).workload(w);
        let base = at(2).ipc();
        table.row(vec![
            w.name().into(),
            format!("{:.4}", at(1).ipc() / base),
            "1.0000".into(),
            format!("{:.4}", at(4).ipc() / base),
        ]);
    }
    let notes = vec!["Expectation: 4 banks buys little over 2 (paper: similar throughput at lower \
         area with 2 banks/tile); 1 bank loses on bank-contention-sensitive workloads."
        .into()];
    Output { table, notes }
}
