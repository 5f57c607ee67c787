//! Figure 9: system performance normalized to mesh under a fixed NoC area
//! budget (every organization constrained to NOC-Out's 2.5 mm²).
//!
//! Paper result: shrinking the mesh's links hurts it mildly (serialization
//! stays dwarfed by header delay), but the flattened butterfly's link
//! width collapses ~7× and serialization delay spikes. At equal area,
//! NOC-Out outperforms the mesh by ~19% and the butterfly by ~65%.
//!
//! Run with `cargo run --release -p nocout-experiments --bin fig9`
//! (add `--jobs N` to spread the 18-point grid over N workers).

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::{campaign, report_csv, Table};
use nocout_tech::area::{NocAreaModel, OrganizationArea};

const ABOUT: &str = "Reproduces Figure 9: fits the mesh and flattened \
butterfly link widths into NOC-Out's NoC area budget, then runs the 3 \
area-normalized configurations x 6 workloads, normalized to the mesh. \
Writes out/fig9.csv.";

fn main() {
    let cli = Cli::parse("fig9", ABOUT, "");
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let model = NocAreaModel::paper_32nm();
    let nocout_cfg = ChipConfig::paper(Organization::NocOut);
    let budget = model
        .area(&OrganizationArea::nocout(&nocout_cfg.nocout_spec()))
        .total_mm2();

    // Fit the mesh and butterfly link widths into NOC-Out's budget.
    let mesh_cfg = ChipConfig::paper(Organization::Mesh);
    let (mesh_w, _) = model.fit_width_to_budget(budget, |w| {
        OrganizationArea::mesh_with_width(&mesh_cfg.mesh_spec(), w)
    });
    let fb_cfg = ChipConfig::paper(Organization::FlattenedButterfly);
    let (fb_w, _) = model.fit_width_to_budget(budget, |w| {
        OrganizationArea::fbfly_with_width(&fb_cfg.fbfly_spec(), w)
    });
    println!(
        "Area budget {budget:.2} mm²: mesh fits at {mesh_w}-bit links, \
         flattened butterfly at {fb_w}-bit links (from 128)"
    );

    let mut table = Table::new(
        "Figure 9 — Performance normalized to mesh under a fixed 2.5 mm² NOC budget",
        vec![
            "Workload".into(),
            "Mesh".into(),
            "FBfly".into(),
            "NOC-Out".into(),
        ],
    );
    // The per-organization link widths differ, so the configuration axis
    // is explicit: three fitted variants × the six workloads.
    let frame = campaign(scale)
        .variants([
            ("Mesh", mesh_cfg.with_link_width(mesh_w)),
            ("FBfly", fb_cfg.with_link_width(fb_w)),
            ("NOC-Out", nocout_cfg),
        ])
        .workloads(Workload::ALL)
        .run(&runner);
    let norm = frame.normalize_to(Organization::Mesh);

    for &w in Workload::ALL.iter() {
        table.row(vec![
            w.name().into(),
            "1.000".into(),
            format!("{:.3}", norm.get(Organization::FlattenedButterfly, w)),
            format!("{:.3}", norm.get(Organization::NocOut, w)),
        ]);
        eprintln!(
            "  [{w}] mesh {:.4} fbfly {:.4} nocout {:.4}",
            frame.get(Organization::Mesh, w).ipc,
            frame.get(Organization::FlattenedButterfly, w).ipc,
            frame.get(Organization::NocOut, w).ipc
        );
    }
    let fb_g = norm.geomean(Organization::FlattenedButterfly);
    let no_g = norm.geomean(Organization::NocOut);
    table.row(vec![
        "GMean".into(),
        "1.000".into(),
        format!("{fb_g:.3}"),
        format!("{no_g:.3}"),
    ]);
    table.print();
    println!(
        "NOC-Out vs mesh: +{:.0}% (paper +19%); NOC-Out vs FBfly: +{:.0}% (paper +65%)",
        (no_g - 1.0) * 100.0,
        (no_g / fb_g - 1.0) * 100.0
    );
    report_csv("fig9.csv", &table.csv_records());
}
