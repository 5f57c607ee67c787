//! §7.1 express-links extension: tall reduction/dispersion trees with and
//! without skip-two express channels.
//!
//! Paper claim: in future CMPs with hundreds of cores, tree height becomes
//! a performance concern; judicious express links bypass intermediate
//! nodes and let performance approach a wire-only network, at some channel
//! expense but with the same trivially simple node design.

use super::{Body, Figure, Output};
use crate::{campaign, Scale, Table};
use nocout::prelude::*;
use nocout_tech::area::{NocAreaModel, OrganizationArea};

pub(super) const FIGURE: Figure = Figure {
    name: "express",
    about: "Reproduces the section 7.1 express-links ablation: a \
128-core (8-row) NOC-Out with plain chains vs skip-two express links on \
MapReduce-C, reporting IPC, tree latency and NoC area.",
    body: Body::Grid { grid, render },
};

const VARIANTS: [(&str, bool); 2] = [("Chains only", false), ("With express links", true)];

fn grid(scale: Scale) -> Campaign {
    campaign(scale)
        .variants(VARIANTS.map(|(label, express)| {
            let mut cfg = ChipConfig::with_cores(Organization::NocOut, 128);
            cfg.express_links = express;
            cfg.active_core_override = Some(128);
            cfg.mem_channels = 8;
            (label, cfg)
        }))
        .workloads([Workload::MapReduceC])
}

fn render(frame: &ResultFrame) -> Output {
    let model = NocAreaModel::paper_32nm();
    let mut table = Table::new(
        "§7.1 — Express links in 128-core (8-row) trees, MapReduce-C",
        &["Configuration", "Aggregate IPC (norm.)", "Mean net latency", "NOC area (mm²)"],
    );
    let base = frame.at().label(VARIANTS[0].0).ipc();
    for (label, _) in VARIANTS {
        let p = frame.at().label(label).one();
        let area = model
            .area(&OrganizationArea::nocout(&p.chip.nocout_spec()))
            .total_mm2();
        table.row(vec![
            label.into(),
            format!("{:.3}", p.ipc / base),
            format!("{:.1}", p.metrics.network.mean_latency),
            format!("{area:.2}"),
        ]);
    }
    let notes = vec!["Takeaway: express links shave the tree hops (visible in the latency \
         column) while the nodes stay 2-input muxes, but at 8 rows the trees \
         contribute only a few cycles of a ~40-cycle LLC round trip, so the \
         end-to-end gain is small — they become interesting at the hundreds of \
         cores the paper projects, where tree height would otherwise grow \
         linearly."
        .into()];
    Output { table, notes }
}
