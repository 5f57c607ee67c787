//! Table 1: evaluation parameters — printed from the live configuration
//! structs so the documentation can never drift from the simulated
//! hardware.

use super::{Body, Figure, Output};
use crate::Table;
use nocout::prelude::*;
use nocout_mem::llc::LlcConfig;
use nocout_mem::mem_ctrl::MemChannelConfig;
use nocout_noc::RouterConfig;
use nocout_tech::ChipPowerModel;

pub(super) const FIGURE: Figure = Figure {
    name: "table1",
    about: "Prints Table 1 (the evaluation parameters) from the \
live configuration structs, so the documentation cannot drift from the \
simulated hardware — no simulation runs.",
    body: Body::Direct(render),
};

fn render() -> Output {
    let chip = ChipConfig::paper(Organization::NocOut);
    let tech = ChipPowerModel::paper_32nm();
    let mem = MemChannelConfig::default();
    let mesh_r = RouterConfig::mesh();
    let tree_r = RouterConfig::tree_node();

    let mut t = Table::new("Table 1 — Evaluation parameters", &["Parameter", "Value"]);
    t.row(vec![
        "Technology".into(),
        "32nm, 0.9V, 2GHz".into(),
    ]);
    t.row(vec![
        "CMP features".into(),
        format!(
            "{} cores, {} MB NUCA LLC, {} DDR3-1667 memory channels",
            chip.cores,
            chip.llc_total_bytes / (1024 * 1024),
            chip.mem_channels
        ),
    ]);
    t.row(vec![
        "Core".into(),
        format!(
            "ARM Cortex-A15-like: 3-way OoO, 64-entry ROB, 16-entry LSQ, {:.1}mm2, {:.2}W",
            tech.core_area_mm2, tech.core_power_w
        ),
    ]);
    t.row(vec![
        "Cache per MB".into(),
        format!(
            "{:.1}mm2, {:.0}mW",
            tech.cache_area_mm2_per_mb,
            tech.cache_power_w_per_mb * 1000.0
        ),
    ]);
    t.row(vec![
        "Mesh".into(),
        format!(
            "Router: 5 ports, 3 VCs/port, {} flits/VC, {}-stage speculative pipeline; link: 1 cycle",
            mesh_r.vc_depth, mesh_r.pipeline_delay
        ),
    ]);
    t.row(vec![
        "Flattened Butterfly".into(),
        "Router: 15 ports, 3 VCs/port, variable flits/VC, 3-stage pipeline; link: up to 2 tiles/cycle"
            .into(),
    ]);
    t.row(vec![
        "NOC-Out".into(),
        format!(
            "Reduction/dispersion: 2 ports/node, 2 VCs/port, 1 cycle/hop (depth {}); LLC network: 1-D flattened butterfly, {} banks/tile",
            tree_r.vc_depth,
            LlcConfig::nocout_tile().banks
        ),
    ]);
    t.row(vec![
        "Link width".into(),
        format!("{} bits", chip.link_width_bits),
    ]);
    t.row(vec![
        "Memory channel".into(),
        format!(
            "{} cycles latency, {} cycles occupancy per 64B access",
            mem.latency, mem.occupancy
        ),
    ]);
    Output { table: t, notes: Vec::new() }
}
