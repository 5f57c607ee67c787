//! §7.1 scalability: concentration in the reduction/dispersion trees.
//!
//! Paper claim: a concentration factor of two (two adjacent cores sharing
//! each tree node's local port) supports twice the cores at nearly the
//! same network area cost. The paper's aside that concentration four
//! saturates the 16-byte tree links is not simulated: 256 cores do not fit
//! the directory's 128-core sharer sets (`SharerSet::MAX_CORES`), and a
//! chip that large is refused rather than run with aliased sharers.

use super::{Body, Figure, Output};
use crate::{campaign, Scale, Table};
use nocout::prelude::*;
use nocout_tech::area::{NocAreaModel, OrganizationArea};

pub(super) const FIGURE: Figure = Figure {
    name: "scalability",
    about: "Reproduces the section 7.1 concentration scaling: \
NOC-Out at 64/128 cores with tree concentration 1/2 on MapReduce-C, \
reporting per-core performance and NoC area per core.",
    body: Body::Grid { grid, render },
};

/// (label, cores, concentration)
const VARIANTS: [(&str, usize, usize); 2] =
    [("Baseline (c=1)", 64, 1), ("Concentration 2", 128, 2)];

fn grid(scale: Scale) -> Campaign {
    // Concentration couples cores, tree fan-in and memory channels, so the
    // configuration axis is explicit: one labelled variant each.
    campaign(scale)
        .variants(VARIANTS.map(|(label, cores, concentration)| {
            let mut cfg = ChipConfig::with_cores(Organization::NocOut, cores);
            cfg.concentration = concentration;
            cfg.active_core_override = Some(cores);
            // Memory bandwidth scales with the socket (the paper's §7.1 claim
            // concerns the on-die trees, not DRAM starvation); the LLC stays
            // at 8 MB per the paper's observation that added cores do not
            // mandate added LLC capacity.
            cfg.mem_channels = 4 * (cores / 64).max(1);
            (label, cfg)
        }))
        .workloads([Workload::MapReduceC])
}

fn render(frame: &ResultFrame) -> Output {
    let model = NocAreaModel::paper_32nm();
    let mut table = Table::new(
        "§7.1 — Tree concentration scaling (MapReduce-C)",
        &[
            "Configuration", "Cores", "Per-core perf (norm.)", "NOC area (mm²)",
            "Area per core (mm²)",
        ],
    );
    let base_per_core = frame.at().label(VARIANTS[0].0).one().metrics.per_core_performance();
    for (label, cores, _) in VARIANTS {
        let p = frame.at().label(label).one();
        let per_core = p.metrics.per_core_performance();
        let area = model
            .area(&OrganizationArea::nocout(&p.chip.nocout_spec()))
            .total_mm2();
        table.row(vec![
            label.into(),
            cores.to_string(),
            format!("{:.3}", per_core / base_per_core),
            format!("{area:.2}"),
            format!("{:.4}", area / cores as f64),
        ]);
    }
    let notes = vec!["Expectation: c=2 keeps per-core performance close at roughly the same \
         network area (so area/core halves)."
        .into()];
    Output { table, notes }
}
