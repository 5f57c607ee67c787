//! Link/router utilization profile of the NOC-Out fabric under bilateral
//! traffic — shows where the flits actually go (§4's design argument:
//! almost everything funnels through the LLC row, so that is where the
//! connectivity budget belongs).

use super::{Body, Figure, Output};
use crate::Table;
use nocout_noc::rng_traffic::run_bilateral_traffic;
use nocout_noc::topology::nocout::{build_nocout, NocOutSpec};
use nocout_noc::RouterId;

pub(super) const FIGURE: Figure = Figure {
    name: "heatmap",
    about: "Profiles flit activity by region (LLC row vs tree \
nodes) of the NOC-Out fabric under uniform bilateral traffic — a \
network-level run outside the campaign grid, showing why the rich \
topology budget belongs in the LLC row.",
    body: Body::Direct(render),
};

fn render() -> Output {
    let spec = NocOutSpec::paper_64();
    let mut built = build_nocout(&spec);
    let report = run_bilateral_traffic(&mut built, 0.5, 50_000, 1);

    let llc_routers = spec.columns * spec.llc_rows;
    let tree_nodes = built.network.num_routers() - llc_routers;
    let mut llc_flits = 0u64;
    let mut tree_flits = 0u64;
    for r in 0..built.network.num_routers() {
        let flits: u64 = built
            .network
            .router(RouterId(r as u16))
            .flits_sent_per_port()
            .iter()
            .sum();
        if r < llc_routers {
            llc_flits += flits;
        } else {
            tree_flits += flits;
        }
    }

    let mut table = Table::new(
        "NOC-Out flit activity by region (uniform bilateral traffic)",
        &["Region", "Routers", "Flits switched", "Flits/router"],
    );
    table.row(vec![
        "LLC row (flattened butterfly)".into(),
        llc_routers.to_string(),
        llc_flits.to_string(),
        format!("{:.0}", llc_flits as f64 / llc_routers as f64),
    ]);
    table.row(vec![
        "Tree nodes (reduction + dispersion)".into(),
        tree_nodes.to_string(),
        tree_flits.to_string(),
        format!("{:.0}", tree_flits as f64 / tree_nodes as f64),
    ]);
    let notes = vec![
        format!(
            "delivered {} packets, mean latency {:.1} cycles",
            report.packets, report.mean_latency
        ),
        format!(
            "The LLC routers each switch ~{}x the flits of a tree node — the traffic\n\
             concentration that justifies spending the rich topology only there (§6.2).",
            ((llc_flits as f64 / llc_routers as f64) / (tree_flits as f64 / tree_nodes as f64))
                .round()
        ),
    ];
    Output { table, notes }
}
