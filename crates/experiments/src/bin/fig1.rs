//! Figure 1: effect of distance (growing with core count) on per-core
//! performance for ideal and mesh interconnects, on Data Serving and
//! MapReduce-W, without contention.
//!
//! Paper result: per-core performance degrades as cores are added because
//! the die grows and the LLC moves farther away; at 64 cores the mesh
//! trails the ideal (wire-only) fabric by ~22% on average.
//!
//! Run with `cargo run --release -p nocout-experiments --bin fig1`
//! (add `--jobs N` to spread the 28-point grid over N workers).

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::{campaign, report_csv, Table};

const ABOUT: &str = "Reproduces Figure 1: per-core performance vs core \
count (1..64) on the two contention-free fabrics (ideal wire, zero-load \
mesh) for Data Serving and MapReduce-W, normalized to 1 core. Writes \
out/fig1.csv.";

fn main() {
    let cli = Cli::parse("fig1", ABOUT, "");
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let core_counts = [1usize, 2, 4, 8, 16, 32, 64];
    let workloads = [Workload::DataServing, Workload::MapReduceW];
    let fabrics = [Organization::IdealWire, Organization::ZeroLoadMesh];

    let mut table = Table::new(
        "Figure 1 — Per-core performance vs core count (normalized to 1 core), contention-free",
        vec![
            "Cores".into(),
            "DataServing(Ideal)".into(),
            "DataServing(Mesh)".into(),
            "MapReduce-W(Ideal)".into(),
            "MapReduce-W(Mesh)".into(),
        ],
    );

    // The whole fabric × core-count × workload grid as one campaign; the
    // paper normalizes each (workload, fabric) series to its 1-core point.
    let frame = campaign(scale)
        .orgs(fabrics)
        .cores(core_counts)
        .workloads(workloads)
        .run(&runner);

    let mut series: Vec<Vec<f64>> = Vec::new();
    for &w in &workloads {
        for &org in &fabrics {
            let vals: Vec<f64> = core_counts
                .iter()
                .map(|&n| {
                    frame
                        .at()
                        .org(org)
                        .cores(n)
                        .workload(w)
                        .one()
                        .metrics
                        .per_core_performance()
                })
                .collect();
            for (n, v) in core_counts.iter().zip(&vals) {
                eprintln!("  [{w} / {org} / {n} cores] per-core {v:.4}");
            }
            let base = vals[0];
            series.push(vals.iter().map(|v| v / base).collect());
        }
    }
    let mut gap_at_64 = Vec::new();
    for (i, &n) in core_counts.iter().enumerate() {
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
    table.print();
    let avg_gap = gap_at_64.iter().sum::<f64>() / gap_at_64.len() as f64;
    println!(
        "Mesh vs Ideal gap at 64 cores: {:.0}% (paper: ~22%)",
        avg_gap * 100.0
    );
    report_csv("fig1.csv", &table.csv_records());
}
