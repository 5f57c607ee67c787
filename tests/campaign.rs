//! The campaign layer's contract: grid expansion is canonical and stable,
//! axis declaration order cannot change the cache keys a campaign
//! touches, and a warm results cache replays a full campaign with zero
//! simulations.

mod common;

use common::{same, TempDir};
use nocout_repro::cache::ResultsCache;
use nocout_repro::campaign::Campaign;
use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;
use nocout_sim::stats::RunningStats;

fn window() -> MeasurementWindow {
    MeasurementWindow::new(1_000, 3_000)
}

/// A small but multi-axis grid: 2 orgs × 2 core counts × 2 workloads ×
/// 2 seeds = 16 runs.
fn grid() -> Campaign {
    Campaign::new()
        .orgs([Organization::Mesh, Organization::NocOut])
        .cores([16, 64])
        .workloads([Workload::WebSearch, Workload::MapReduceC])
        .seeds([1, 2])
        .window(window())
}

#[test]
fn canonical_ordering_is_stable() {
    // The documented nesting: configuration (outermost) → cores →
    // link width → workload → seed (innermost), each axis in declared
    // element order. Pin the exact sequence so a refactor cannot
    // silently reorder a campaign's execution plan.
    let specs = grid().specs();
    assert_eq!(specs.len(), 16);
    let coords: Vec<(Organization, usize, String, u64)> = specs
        .iter()
        .map(|s| {
            (
                s.chip.organization,
                s.chip.cores,
                s.workload.name(),
                s.seed,
            )
        })
        .collect();
    let mut expected = Vec::new();
    for org in [Organization::Mesh, Organization::NocOut] {
        for cores in [16usize, 64] {
            for wl in [Workload::WebSearch, Workload::MapReduceC] {
                for seed in [1u64, 2] {
                    expected.push((org, cores, wl.name().to_string(), seed));
                }
            }
        }
    }
    assert_eq!(coords, expected);
    // Expanding twice yields the same plan (no hidden state).
    assert_eq!(
        grid().specs().iter().map(RunSpec::cache_key).collect::<Vec<_>>(),
        specs.iter().map(RunSpec::cache_key).collect::<Vec<_>>()
    );
}

#[test]
fn axis_declaration_order_does_not_change_cache_key_coverage() {
    // The same grid declared with every builder call order must touch
    // the same RunSpec cache keys — in the same canonical sequence —
    // so a cache warmed by one spelling fully serves any other.
    let keys = |c: Campaign| -> Vec<String> {
        c.window(window()).specs().iter().map(RunSpec::cache_key).collect()
    };
    let orgs = [Organization::Mesh, Organization::NocOut];
    let workloads = [Workload::WebSearch, Workload::MapReduceC];
    let declared_orgs_first = keys(
        Campaign::new()
            .orgs(orgs)
            .cores([16, 64])
            .workloads(workloads)
            .seeds([1, 2]),
    );
    let declared_seeds_first = keys(
        Campaign::new()
            .seeds([1, 2])
            .workloads(workloads)
            .cores([16, 64])
            .orgs(orgs),
    );
    let declared_interleaved = keys(
        Campaign::new()
            .workloads(workloads)
            .orgs(orgs)
            .seeds([1, 2])
            .cores([16, 64]),
    );
    assert_eq!(declared_orgs_first, declared_seeds_first);
    assert_eq!(declared_orgs_first, declared_interleaved);
    // And the keys are all distinct — the grid has no aliasing points.
    let mut sorted = declared_orgs_first.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), declared_orgs_first.len());
}

#[test]
fn warm_cache_replays_a_full_campaign_with_zero_simulations() {
    let dir = TempDir::new("warm-replay");

    let cold = BatchRunner::serial().with_cache(ResultsCache::open(&dir.0).unwrap());
    let first = grid().run(&cold);
    let cache = cold.cache().unwrap();
    assert_eq!(cache.hits(), 0, "cold cache cannot hit");
    assert_eq!(cache.misses(), 16, "every point × seed simulates once");

    // A fresh handle over the same directory: the whole campaign —
    // every point, every seed — must come back from disk.
    let warm = BatchRunner::serial().with_cache(ResultsCache::open(&dir.0).unwrap());
    let second = grid().run(&warm);
    let cache = warm.cache().unwrap();
    assert_eq!(cache.misses(), 0, "warm campaign must not simulate");
    assert_eq!(cache.hits(), 16);

    // And the frames are bit-identical.
    same(&second, &first, "warm frame against cold");
}

#[test]
fn campaign_matches_hand_rolled_point_loop() {
    // The frame must be bit-identical to the pre-campaign idiom the
    // binaries used: one serial run per (chip, workload, seed), folded in
    // seed order.
    let frame = grid().run(&BatchRunner::serial());
    for p in frame.results() {
        let mut stats = RunningStats::new();
        let mut last = None;
        for seed in [1, 2] {
            let m = nocout_repro::run(&RunSpec {
                chip: p.chip,
                workload: p.workload.clone(),
                window: window(),
                seed,
            });
            stats.record(m.aggregate_ipc());
            last = Some(m);
        }
        let folded = (stats.mean(), stats.ci95_half_width(), last.unwrap());
        let ctx = format!(
            "{} {} {} cores",
            p.chip.organization, p.workload, p.chip.cores
        );
        same(&(p.ipc, p.ci95, p.metrics.clone()), &folded, ctx);
    }
}

#[test]
fn worker_count_does_not_change_the_frame() {
    let serial = grid().run(&BatchRunner::serial());
    let parallel = grid().run(&BatchRunner::new(4));
    same(&parallel, &serial, "4 workers against 1");
}

#[test]
fn trace_workloads_compose_with_the_grid_and_collapse_seeds() {
    // Capture a tiny trace, then put it on the workload axis next to a
    // synthetic profile: the synthetic points replicate over both
    // seeds, the trace points collapse to one literal replay each.
    let dir = TempDir::new("trace-axis");
    let chip = ChipConfig::with_cores(Organization::Mesh, 16);
    let set = nocout_repro::capture_synthetic_trace(
        chip,
        Workload::WebSearch,
        1,
        &dir.0,
        20_000,
    )
    .expect("capture");

    let campaign = Campaign::new()
        .fixed(chip)
        .workloads([
            WorkloadClass::from(Workload::WebSearch),
            WorkloadClass::Trace(set),
        ])
        .seeds([1, 2])
        .window(window());
    // 2 synthetic runs + 1 collapsed trace replay.
    assert_eq!(campaign.specs().len(), 3);
    let frame = campaign.run(&BatchRunner::serial());
    assert_eq!(frame.len(), 2);
    assert_eq!(frame.results()[0].seeds_run, 2);
    assert_eq!(frame.results()[1].seeds_run, 1);
    assert_eq!(frame.results()[1].ci95, 0.0, "single replay has no spread");
    assert!(frame.results()[1].ipc > 0.0);
}
