//! The batch engine's contract: parallel execution never changes results.
//!
//! `BatchRunner::run_batch_outcomes` must be bit-identical to the serial
//! `run` per spec, and a seeded campaign must fold the same replication
//! statistics at any worker count as on one.

mod common;

use common::{run_batch, same};
use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;
use nocout_sim::config::MeasurementWindow;

fn grid() -> Vec<RunSpec> {
    // A miniature campaign: organizations × workloads × seeds, covering
    // the flit-level fabrics and an analytic one.
    let window = MeasurementWindow::new(2_000, 5_000);
    let mut specs = Vec::new();
    for org in [
        Organization::Mesh,
        Organization::FlattenedButterfly,
        Organization::NocOut,
        Organization::IdealWire,
    ] {
        for (w, seed) in [(Workload::WebSearch, 1u64), (Workload::DataServing, 7)] {
            specs.push(RunSpec {
                chip: ChipConfig::paper(org),
                workload: w.into(),
                window,
                seed,
            });
        }
    }
    specs
}

#[test]
fn run_batch_is_bit_identical_to_serial_run() {
    let specs = grid();
    let serial: Vec<SystemMetrics> = specs.iter().map(nocout_repro::run).collect();
    for jobs in [2, 4, 8] {
        let batch = run_batch(&BatchRunner::new(jobs), &specs);
        same(&batch, &serial, format_args!("{jobs} jobs"));
    }
}

#[test]
fn parallel_replication_matches_serial_statistics() {
    let campaign = Campaign::new()
        .fixed(ChipConfig::paper(Organization::NocOut))
        .workloads([Workload::MapReduceW])
        .seeds([1, 2, 3])
        .window(MeasurementWindow::new(2_000, 5_000));
    let serial = campaign.run(&BatchRunner::serial());
    assert_eq!(serial.results()[0].seeds_run, 3);
    for jobs in [2, 3, 8] {
        same(
            &campaign.run(&BatchRunner::new(jobs)),
            &serial,
            format_args!("{jobs} jobs"),
        );
    }
}

#[test]
fn batch_of_one_and_empty_batch_work() {
    let runner = BatchRunner::new(4);
    assert!(runner.run_batch_outcomes(&[]).is_empty());
    let spec = RunSpec::new(
        ChipConfig::with_cores(Organization::Mesh, 16),
        Workload::SatSolver,
    )
    .fast();
    let one = run_batch(&runner, std::slice::from_ref(&spec));
    same(&one, &vec![nocout_repro::run(&spec)], "batch of one");
}
