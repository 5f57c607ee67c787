//! The results cache's contract: hits are bit-identical to simulation,
//! a warm cache performs zero simulations, and any spec change misses.

mod common;

use common::{run_batch, same, TempDir};
use nocout_repro::cache::ResultsCache;
use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;

fn grid() -> Vec<RunSpec> {
    let window = MeasurementWindow::new(1_000, 3_000);
    let mut specs = Vec::new();
    for org in [Organization::Mesh, Organization::NocOut, Organization::IdealWire] {
        for seed in [1u64, 2] {
            specs.push(RunSpec {
                chip: ChipConfig::paper(org),
                workload: Workload::WebSearch.into(),
                window,
                seed,
            });
        }
    }
    specs
}

#[test]
fn second_sweep_is_all_hits_and_bit_identical() {
    let dir = TempDir::new("sweep");
    let specs = grid();

    let cold = BatchRunner::serial().with_cache(ResultsCache::open(&dir.0).unwrap());
    let first = run_batch(&cold, &specs);
    let cache = cold.cache().unwrap();
    assert_eq!(cache.hits(), 0, "cold cache cannot hit");
    assert_eq!(cache.misses(), specs.len() as u64);

    // A fresh handle over the same directory: every point must come back
    // from disk (zero simulations) and match the first run bit for bit.
    let warm = BatchRunner::serial().with_cache(ResultsCache::open(&dir.0).unwrap());
    let second = run_batch(&warm, &specs);
    let cache = warm.cache().unwrap();
    assert_eq!(cache.misses(), 0, "warm cache must not simulate");
    assert_eq!(cache.hits(), specs.len() as u64);

    same(&second, &first, "warm against cold");
}

#[test]
fn cached_results_match_uncached_run() {
    let dir = TempDir::new("vs-uncached");
    let specs = grid();
    let uncached = run_batch(&BatchRunner::serial(), &specs);
    let runner = BatchRunner::serial().with_cache(ResultsCache::open(&dir.0).unwrap());
    run_batch(&runner, &specs); // populate
    let cached = run_batch(&runner, &specs); // read back
    same(&cached, &uncached, "cached against uncached");
}

#[test]
fn any_spec_change_misses() {
    let dir = TempDir::new("invalidation");
    let cache = ResultsCache::open(&dir.0).unwrap();
    let base = RunSpec {
        chip: ChipConfig::with_cores(Organization::Mesh, 16),
        workload: Workload::MapReduceC.into(),
        window: MeasurementWindow::new(500, 1_500),
        seed: 1,
    };
    cache.put(&base, &nocout_repro::run(&base));
    assert!(cache.get(&base).is_some(), "exact spec must hit");

    let mut longer = base.clone();
    longer.window.measure_cycles += 1;
    let mut narrower = base.clone();
    narrower.chip.link_width_bits = 64;
    for (label, miss) in [
        ("seed", base.clone().with_seed(2)),
        ("window", longer),
        ("link width", narrower),
    ] {
        assert!(cache.get(&miss).is_none(), "changed {label} must miss");
    }
}

#[test]
fn replication_through_cache_matches_serial() {
    let dir = TempDir::new("replicated");
    let campaign = Campaign::new()
        .fixed(ChipConfig::with_cores(Organization::Mesh, 16))
        .workloads([Workload::SatSolver])
        .seeds([1, 2, 3])
        .window(MeasurementWindow::new(500, 1_500));
    let plain = campaign.run(&BatchRunner::serial());
    let runner = BatchRunner::serial().with_cache(ResultsCache::open(&dir.0).unwrap());
    campaign.run(&runner); // populate
    let cached = campaign.run(&runner); // all hits
    assert_eq!(runner.cache().unwrap().misses(), 3);
    assert_eq!(runner.cache().unwrap().hits(), 3);
    same(&cached, &plain, "cached campaign against serial");
}

#[test]
fn corrupt_entry_degrades_to_miss_and_heals() {
    let dir = TempDir::new("corrupt");
    let cache = ResultsCache::open(&dir.0).unwrap();
    let spec = RunSpec {
        chip: ChipConfig::with_cores(Organization::Mesh, 16),
        workload: Workload::WebFrontend.into(),
        window: MeasurementWindow::new(500, 1_000),
        seed: 4,
    };
    let metrics = nocout_repro::run(&spec);
    cache.put(&spec, &metrics);
    // Trash every entry file in the directory.
    for entry in std::fs::read_dir(&dir.0).unwrap() {
        std::fs::write(entry.unwrap().path(), "garbage\n").unwrap();
    }
    assert!(cache.get(&spec).is_none(), "corrupt entry must miss");
    cache.put(&spec, &metrics);
    let healed = cache.get(&spec).expect("rewritten entry must hit");
    same(&healed, &metrics, "healed entry");
}
