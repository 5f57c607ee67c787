//! §6.4 power analysis: average NoC power per organization.
//!
//! Paper result: the NoC is a minor consumer at chip level (< 2 W in every
//! organization, against > 60 W for the cores); most energy goes into the
//! links; the ordering is NOC-Out (1.3 W) < FBfly (1.6 W) < Mesh (1.8 W),
//! because NOC-Out's traffic travels shorter distances.

use super::{Body, Figure, Output};
use crate::{campaign, Table};
use nocout::prelude::*;
use nocout_tech::{BufferTech, ChipPowerModel, NocEnergyModel};

pub(super) const FIGURE: Figure = Figure {
    name: "power",
    about: "Reproduces the section 6.4 power analysis: measures \
NoC activity for the 3 evaluated organizations x 6 workloads, prices it \
with the 32nm energy models, and reports mean NoC power per organization \
against the paper's watts.",
    // Every organization × workload activity measurement; the energy
    // models then price each result.
    body: Body::Grid {
        grid: |scale| campaign(scale).orgs(ORGS.map(|(org, ..)| org)).workloads(Workload::ALL),
        render,
    },
};

/// (organization, buffer tech, average switch radix, paper watts)
const ORGS: [(Organization, BufferTech, f64, f64); 3] = [
    (Organization::Mesh, BufferTech::FlipFlop, 5.0, 1.8),
    (Organization::FlattenedButterfly, BufferTech::Sram, 15.0, 1.6),
    (Organization::NocOut, BufferTech::FlipFlop, 2.8, 1.3),
];

fn render(frame: &ResultFrame) -> Output {
    let mut table = Table::new(
        "§6.4 — Average NOC power (W), mean over the six workloads",
        &["Organization", "Links", "Buffers", "Crossbars", "Static", "Total (W)", "Paper (W)"],
    );
    for (org, buffer_tech, radix, paper) in ORGS {
        let model = NocEnergyModel::paper_32nm(128, buffer_tech).with_radix(radix);
        let mut totals = [0.0f64; 5];
        for &w in Workload::ALL.iter() {
            let p = frame.get(org, w);
            let r = model.energy(&p.metrics.noc_activity());
            let secs = r.seconds;
            totals[0] += r.links_j / secs;
            totals[1] += r.buffers_j / secs;
            totals[2] += r.crossbars_j / secs;
            totals[3] += r.static_j / secs;
            totals[4] += r.power_w();
        }
        let n = Workload::ALL.len() as f64;
        table.row(vec![
            org.name().into(),
            format!("{:.2}", totals[0] / n),
            format!("{:.2}", totals[1] / n),
            format!("{:.2}", totals[2] / n),
            format!("{:.2}", totals[3] / n),
            format!("{:.2}", totals[4] / n),
            format!("{paper:.1}"),
        ]);
    }
    let chip = ChipPowerModel::paper_32nm();
    let notes = vec![format!(
        "Chip context: 64 cores ≈ {:.0} W, 8 MB LLC ≈ {:.0} W — the NOC stays a minor consumer.",
        chip.cores_power_w(64),
        chip.llc_power_w(8.0)
    )];
    Output { table, notes }
}
