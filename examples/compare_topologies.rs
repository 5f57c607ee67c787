//! Head-to-head: the same scale-out workload on all three organizations,
//! plus the contention-free ideal — a miniature of the paper's Fig. 7.
//!
//! The four organizations are one `Campaign`, run as one parallel batch
//! on a `BatchRunner` worker pool (results are bit-identical to running
//! them serially — per-seed determinism is independent of scheduling).
//!
//! Run with `cargo run --release --example compare_topologies`.
//! Pass a workload name and/or `--jobs N`:
//! `cargo run --release --example compare_topologies -- data-serving --jobs 4`.

use nocout_experiments::cli::{parse_workload, Cli};
use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;

fn main() {
    let mut cli = Cli::parse(
        "compare_topologies",
        "Runs one workload on all three organizations plus the \
         contention-free ideal and prints IPC normalized to the mesh.",
        "[WORKLOAD]",
    );
    let mut workload = Workload::WebSearch;
    while let Some(tok) = cli.next_flag() {
        match parse_workload(&tok) {
            Some(w) => workload = w,
            None => cli.fail(&format!("unknown workload `{tok}`")),
        }
    }
    let runner: BatchRunner = cli.runner();
    cli.finish();

    let orgs = [
        Organization::Mesh,
        Organization::FlattenedButterfly,
        Organization::NocOut,
        Organization::IdealWire,
    ];
    let frame = Campaign::new()
        .orgs(orgs)
        .workloads([workload])
        .seeds([7])
        .window(MeasurementWindow::new(10_000, 20_000))
        .run(&runner);

    println!(
        "{workload} across organizations (normalized to the mesh, {} worker(s)):\n",
        runner.jobs()
    );
    let mesh_ipc = frame.get(Organization::Mesh, workload).ipc;
    for org in orgs {
        let p = frame.get(org, workload);
        println!(
            "  {:<22} IPC {:>6.3}  vs mesh {:>5.3}  net latency {:>5.1} cycles",
            org.name(),
            p.ipc,
            p.ipc / mesh_ipc,
            p.metrics.network.mean_latency
        );
    }
    println!(
        "\nExpect the order the paper reports: mesh slowest, flattened butterfly\n\
         and NOC-Out close together near the ideal."
    );
}
