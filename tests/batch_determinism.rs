//! The batch engine's contract: parallel execution never changes results.
//!
//! `BatchRunner::run_batch_outcomes` must be bit-identical to the serial
//! `run` per spec, and a seeded campaign must fold the same replication
//! statistics at any worker count as on one.

use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;
use nocout_sim::config::MeasurementWindow;

/// The batch's metrics, every point required to succeed.
fn run_batch(runner: &BatchRunner, specs: &[RunSpec]) -> Vec<SystemMetrics> {
    runner
        .run_batch_outcomes(specs)
        .into_iter()
        .map(|o| o.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

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
        assert_eq!(batch.len(), serial.len());
        for (i, (a, b)) in serial.iter().zip(&batch).enumerate() {
            assert_eq!(a.instructions, b.instructions, "spec {i} at {jobs} jobs");
            assert_eq!(a.cycles, b.cycles, "spec {i} at {jobs} jobs");
            assert_eq!(a.llc.accesses, b.llc.accesses, "spec {i} at {jobs} jobs");
            assert_eq!(a.llc.snoops_sent, b.llc.snoops_sent, "spec {i} at {jobs} jobs");
            assert_eq!(a.network.packets, b.network.packets, "spec {i} at {jobs} jobs");
            assert_eq!(a.memory.reads, b.memory.reads, "spec {i} at {jobs} jobs");
            assert_eq!(a.memory.writes, b.memory.writes, "spec {i} at {jobs} jobs");
            // IPC is derived from counters; compare exact bits anyway to
            // catch any float-accumulation divergence.
            assert_eq!(
                a.aggregate_ipc().to_bits(),
                b.aggregate_ipc().to_bits(),
                "spec {i} at {jobs} jobs"
            );
            assert_eq!(a.per_core_ipc.len(), b.per_core_ipc.len());
            for (x, y) in a.per_core_ipc.iter().zip(&b.per_core_ipc) {
                assert_eq!(x.to_bits(), y.to_bits(), "spec {i} at {jobs} jobs");
            }
        }
    }
}

#[test]
fn parallel_replication_matches_serial_statistics() {
    let campaign = Campaign::new()
        .fixed(ChipConfig::paper(Organization::NocOut))
        .workloads([Workload::MapReduceW])
        .seeds([1, 2, 3])
        .window(MeasurementWindow::new(2_000, 5_000));
    let serial = campaign.run(&BatchRunner::serial()).results()[0].clone();
    assert_eq!(serial.seeds_run, 3);
    for jobs in [2, 3, 8] {
        let frame = campaign.run(&BatchRunner::new(jobs));
        let parallel = &frame.results()[0];
        assert_eq!(
            serial.ipc.to_bits(),
            parallel.ipc.to_bits(),
            "mean at {jobs} jobs"
        );
        assert_eq!(
            serial.ci95.to_bits(),
            parallel.ci95.to_bits(),
            "ci95 at {jobs} jobs"
        );
        assert_eq!(
            serial.metrics.instructions, parallel.metrics.instructions,
            "last-seed metrics at {jobs} jobs"
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
    assert_eq!(one.len(), 1);
    assert_eq!(one[0].instructions, nocout_repro::run(&spec).instructions);
}
