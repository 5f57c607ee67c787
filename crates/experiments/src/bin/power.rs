//! §6.4 power analysis: average NoC power per organization.
//!
//! Paper result: the NoC is a minor consumer at chip level (< 2 W in every
//! organization, against > 60 W for the cores); most energy goes into the
//! links; the ordering is NOC-Out (1.3 W) < FBfly (1.6 W) < Mesh (1.8 W),
//! because NOC-Out's traffic travels shorter distances.
//!
//! Run with `cargo run --release -p nocout-experiments --bin power`
//! (add `--jobs N` to spread the 18-point grid over N workers).

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::{campaign, report_csv, Table};
use nocout_tech::{BufferTech, ChipPowerModel, NocEnergyModel};

const ABOUT: &str = "Reproduces the section 6.4 power analysis: measures \
NoC activity for the 3 evaluated organizations x 6 workloads, prices it \
with the 32nm energy models, and reports mean NoC power per organization \
against the paper's watts. Writes out/power.csv.";

fn main() {
    let cli = Cli::parse("power", ABOUT, "");
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    // (organization, buffer tech, average switch radix, paper watts)
    let orgs = [
        (Organization::Mesh, BufferTech::FlipFlop, 5.0, 1.8),
        (Organization::FlattenedButterfly, BufferTech::Sram, 15.0, 1.6),
        (Organization::NocOut, BufferTech::FlipFlop, 2.8, 1.3),
    ];
    let mut table = Table::new(
        "§6.4 — Average NOC power (W), mean over the six workloads",
        vec![
            "Organization".into(),
            "Links".into(),
            "Buffers".into(),
            "Crossbars".into(),
            "Static".into(),
            "Total (W)".into(),
            "Paper (W)".into(),
        ],
    );
    // Every organization × workload activity measurement runs as one
    // campaign; the energy models then price each result.
    let frame = campaign(scale)
        .orgs(orgs.map(|(org, ..)| org))
        .workloads(Workload::ALL)
        .run(&runner);

    for (org, buffer_tech, radix, paper) in orgs {
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
    table.print();
    let chip = ChipPowerModel::paper_32nm();
    println!(
        "Chip context: 64 cores ≈ {:.0} W, 8 MB LLC ≈ {:.0} W — the NOC stays a minor consumer.",
        chip.cores_power_w(64),
        chip.llc_power_w(8.0)
    );
    report_csv("power.csv", &table.csv_records());
}
