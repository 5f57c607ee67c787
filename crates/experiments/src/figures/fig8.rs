//! Figure 8: NoC area breakdown (links / buffers / crossbars) for the
//! three organizations at 128-bit links.
//!
//! Paper result: flattened butterfly ≈ 23 mm² (≈ 7× mesh), mesh ≈ 3.5 mm²,
//! NOC-Out ≈ 2.5 mm² (28% below mesh, 9× below FBfly); within NOC-Out each
//! tree network contributes ~18% and the LLC butterfly ~64% of the area.

use super::{Body, Figure, Output};
use crate::Table;
use nocout_noc::topology::fbfly::FbflySpec;
use nocout_noc::topology::mesh::MeshSpec;
use nocout_noc::topology::nocout::NocOutSpec;
use nocout_tech::area::{NocAreaModel, OrganizationArea};

pub(super) const FIGURE: Figure = Figure {
    name: "fig8",
    about: "Reproduces Figure 8: the analytic 32nm NoC area \
breakdown (links/buffers/crossbars) of the 3 evaluated organizations at \
128-bit links — no simulation runs.",
    body: Body::Direct(render),
};

fn render() -> Output {
    let model = NocAreaModel::paper_32nm();
    let orgs = [
        (OrganizationArea::mesh(&MeshSpec::paper_64()), 3.5),
        (OrganizationArea::fbfly(&FbflySpec::paper_64()), 23.0),
        (OrganizationArea::nocout(&NocOutSpec::paper_64()), 2.5),
    ];
    let mut table = Table::new(
        "Figure 8 — NOC area breakdown (mm²)",
        &["Organization", "Links", "Buffers", "Crossbars", "Total", "Total (paper)"],
    );
    for (org, paper_total) in &orgs {
        let r = model.area(org);
        table.row(vec![
            org.name.clone(),
            format!("{:.2}", r.links_mm2),
            format!("{:.2}", r.buffers_mm2),
            format!("{:.2}", r.crossbars_mm2),
            format!("{:.2}", r.total_mm2()),
            format!("{paper_total:.1}"),
        ]);
    }

    // NOC-Out internal shares (§6.2).
    let spec = NocOutSpec::paper_64();
    let full = model.area(&OrganizationArea::nocout(&spec)).total_mm2();
    let llc = model
        .area(&OrganizationArea::nocout_llc_region_only(&spec))
        .total_mm2();
    let mesh = model.area(&orgs[0].0).total_mm2();
    let fb = model.area(&orgs[1].0).total_mm2();
    let notes = vec![
        format!(
            "NOC-Out internals: LLC butterfly {:.0}% of total (paper: 64%), \
             both tree networks together {:.0}% (paper: ~36%)",
            100.0 * llc / full,
            100.0 * (full - llc) / full
        ),
        format!(
            "Ratios: FBfly/Mesh {:.1}x (paper ~7x) — FBfly/NOC-Out {:.1}x (paper ~9x) — \
             NOC-Out saves {:.0}% vs Mesh (paper 28%)",
            fb / mesh,
            fb / full,
            100.0 * (1.0 - full / mesh)
        ),
    ];
    Output { table, notes }
}
