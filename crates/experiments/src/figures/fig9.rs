//! Figure 9: system performance normalized to mesh under a fixed NoC area
//! budget (every organization constrained to NOC-Out's 2.5 mm²).
//!
//! Paper result: shrinking the mesh's links hurts it mildly (serialization
//! stays dwarfed by header delay), but the flattened butterfly's link
//! width collapses ~7× and serialization delay spikes. At equal area,
//! NOC-Out outperforms the mesh by ~19% and the butterfly by ~65%.

use super::{Body, Figure, Output};
use crate::{campaign, Scale, Table};
use nocout::prelude::*;
use nocout_tech::area::{NocAreaModel, OrganizationArea};

pub(super) const FIGURE: Figure = Figure {
    name: "fig9",
    about: "Reproduces Figure 9: fits the mesh and flattened \
butterfly link widths into NOC-Out's NoC area budget, then runs the 3 \
area-normalized configurations x 6 workloads, normalized to the mesh.",
    body: Body::Grid { grid, render },
};

/// NOC-Out's NoC area (the budget) and the mesh and butterfly link widths
/// that fit into it.
fn fitted_widths() -> (f64, u32, u32) {
    let model = NocAreaModel::paper_32nm();
    let nocout_cfg = ChipConfig::paper(Organization::NocOut);
    let budget = model
        .area(&OrganizationArea::nocout(&nocout_cfg.nocout_spec()))
        .total_mm2();
    let mesh_cfg = ChipConfig::paper(Organization::Mesh);
    let (mesh_w, _) = model.fit_width_to_budget(budget, |w| {
        OrganizationArea::mesh_with_width(&mesh_cfg.mesh_spec(), w)
    });
    let fb_cfg = ChipConfig::paper(Organization::FlattenedButterfly);
    let (fb_w, _) = model.fit_width_to_budget(budget, |w| {
        OrganizationArea::fbfly_with_width(&fb_cfg.fbfly_spec(), w)
    });
    (budget, mesh_w, fb_w)
}

fn grid(scale: Scale) -> Campaign {
    // The per-organization link widths differ, so the configuration axis is
    // explicit: three fitted variants × the six workloads.
    let (_, mesh_w, fb_w) = fitted_widths();
    campaign(scale)
        .variants([
            ("Mesh", ChipConfig::paper(Organization::Mesh).with_link_width(mesh_w)),
            (
                "FBfly",
                ChipConfig::paper(Organization::FlattenedButterfly).with_link_width(fb_w),
            ),
            ("NOC-Out", ChipConfig::paper(Organization::NocOut)),
        ])
        .workloads(Workload::ALL)
}

fn render(frame: &ResultFrame) -> Output {
    let norm = frame.normalize_to(Organization::Mesh);
    let mut table = Table::new(
        "Figure 9 — Performance normalized to mesh under a fixed 2.5 mm² NOC budget",
        &["Workload", "Mesh", "FBfly", "NOC-Out"],
    );
    for &w in Workload::ALL.iter() {
        table.row(vec![
            w.name().into(),
            "1.000".into(),
            format!("{:.3}", norm.get(Organization::FlattenedButterfly, w)),
            format!("{:.3}", norm.get(Organization::NocOut, w)),
        ]);
    }
    let fb_g = norm.geomean(Organization::FlattenedButterfly);
    let no_g = norm.geomean(Organization::NocOut);
    table.row(vec![
        "GMean".into(),
        "1.000".into(),
        format!("{fb_g:.3}"),
        format!("{no_g:.3}"),
    ]);
    let (budget, mesh_w, fb_w) = fitted_widths();
    let notes = vec![
        format!(
            "Area budget {budget:.2} mm²: mesh fits at {mesh_w}-bit links, \
             flattened butterfly at {fb_w}-bit links (from 128)"
        ),
        format!(
            "NOC-Out vs mesh: +{:.0}% (paper +19%); NOC-Out vs FBfly: +{:.0}% (paper +65%)",
            (no_g - 1.0) * 100.0,
            (no_g / fb_g - 1.0) * 100.0
        ),
    ];
    Output { table, notes }
}
