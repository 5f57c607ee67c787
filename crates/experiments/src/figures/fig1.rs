//! Figure 1: effect of distance (growing with core count) on per-core
//! performance for ideal and mesh interconnects, on Data Serving and
//! MapReduce-W, without contention.
//!
//! Paper result: per-core performance degrades as cores are added because
//! the die grows and the LLC moves farther away; at 64 cores the mesh
//! trails the ideal (wire-only) fabric by ~22% on average.

use super::{Body, Figure, Output};
use crate::{campaign, Table};
use nocout::prelude::*;

pub(super) const FIGURE: Figure = Figure {
    name: "fig1",
    about: "Reproduces Figure 1: per-core performance vs core \
count (1..64) on the two contention-free fabrics (ideal wire, zero-load \
mesh) for Data Serving and MapReduce-W, normalized to 1 core.",
    body: Body::Grid {
        grid: |scale| campaign(scale).orgs(FABRICS).cores(CORES).workloads(WORKLOADS),
        render,
    },
};

const CORES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const WORKLOADS: [Workload; 2] = [Workload::DataServing, Workload::MapReduceW];
const FABRICS: [Organization; 2] = [Organization::IdealWire, Organization::ZeroLoadMesh];

/// Each (workload, fabric) series normalized to its 1-core point, as the
/// paper does.
fn render(frame: &ResultFrame) -> Output {
    let per_core = |w: Workload, org: Organization, n: usize| {
        let p = frame.at().org(org).cores(n).workload(w).one();
        p.metrics.per_core_performance()
    };
    let mut series = Vec::new();
    for w in WORKLOADS {
        for org in FABRICS {
            let base = per_core(w, org, CORES[0]);
            series.push(CORES.map(|n| per_core(w, org, n) / base));
        }
    }
    let mut table = Table::new(
        "Figure 1 — Per-core performance vs core count (normalized to 1 core), contention-free",
        &[
            "Cores", "DataServing(Ideal)", "DataServing(Mesh)", "MapReduce-W(Ideal)",
            "MapReduce-W(Mesh)",
        ],
    );
    let mut gap_at_64 = Vec::new();
    for (i, &n) in CORES.iter().enumerate() {
        table.row(vec![
            n.to_string(),
            format!("{:.3}", series[0][i]),
            format!("{:.3}", series[1][i]),
            format!("{:.3}", series[2][i]),
            format!("{:.3}", series[3][i]),
        ]);
        if n == 64 {
            gap_at_64.push(1.0 - series[1][i] / series[0][i]);
            gap_at_64.push(1.0 - series[3][i] / series[2][i]);
        }
    }
    let avg_gap = gap_at_64.iter().sum::<f64>() / gap_at_64.len() as f64;
    let notes = vec![format!(
        "Mesh vs Ideal gap at 64 cores: {:.0}% (paper: ~22%)",
        avg_gap * 100.0
    )];
    Output { table, notes }
}
