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

use super::{Body, Figure, Output};
use crate::{campaign, Table};
use nocout::prelude::*;

pub(super) const FIGURE: Figure = Figure {
    name: "sweep",
    about: "Sweeps link width (128/64/32/16 bits) over the 3 \
evaluated organizations on MapReduce-W, normalizing each organization to \
its own 128-bit point — the serialization mechanism behind Figure 9.",
    body: Body::Grid {
        grid: |scale| {
            campaign(scale)
                .orgs(Organization::EVALUATED)
                .link_bits(WIDTHS)
                .workloads([Workload::MapReduceW])
        },
        render,
    },
};

const WIDTHS: [u32; 4] = [128, 64, 32, 16];

fn render(frame: &ResultFrame) -> Output {
    let mut table = Table::new(
        "Link-width sweep — aggregate IPC normalized to each organization at 128 bits (MapReduce-W)",
        &[
            "Width (bits)", "Mesh", "FBfly", "NOC-Out",
            "Mesh resp lat", "FBfly resp lat", "NOC-Out resp lat",
        ],
    );
    for &w in &WIDTHS {
        let mut cells = vec![w.to_string()];
        let mut lats = Vec::new();
        for org in Organization::EVALUATED {
            let p = frame.at().org(org).link_bits(w).one();
            let base = frame.at().org(org).link_bits(WIDTHS[0]).ipc();
            cells.push(format!("{:.3}", p.ipc / base));
            lats.push(format!("{:.1}", p.metrics.network.mean_response_latency));
        }
        cells.extend(lats);
        table.row(cells);
    }
    let notes = vec!["Expectation: the mesh degrades most gently (its header delay dwarfs \
         serialization); the butterfly and NOC-Out, whose advantage is low header \
         delay, lose it to serialization — NOC-Out fastest of all because its \
         shared tree links serialize whole cache lines. This is why Fig. 9 is an \
         asymmetric contest: NOC-Out fits the 2.5 mm² budget at full 128-bit \
         width, and only its rivals must narrow."
        .into()];
    Output { table, notes }
}
