//! The results cache's contract: hits are bit-identical to simulation,
//! a warm cache performs zero simulations, and any spec change misses.

use nocout_repro::cache::ResultsCache;
use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, self-cleaning cache directory per test.
struct TempCacheDir(PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "nocout-results-cache-test-{}-{}-{}",
            tag,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        TempCacheDir(dir)
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The batch's metrics, every point required to succeed.
fn run_batch(runner: &BatchRunner, specs: &[RunSpec]) -> Vec<SystemMetrics> {
    runner
        .run_batch_outcomes(specs)
        .into_iter()
        .map(|o| o.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

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
    let dir = TempCacheDir::new("sweep");
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

    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a.instructions, b.instructions, "spec {i}");
        assert_eq!(a.cycles, b.cycles, "spec {i}");
        assert_eq!(a.llc.accesses, b.llc.accesses, "spec {i}");
        assert_eq!(a.network.packets, b.network.packets, "spec {i}");
        assert_eq!(
            a.network.mean_latency.to_bits(),
            b.network.mean_latency.to_bits(),
            "spec {i}"
        );
        assert_eq!(
            a.fetch_stall_fraction.to_bits(),
            b.fetch_stall_fraction.to_bits(),
            "spec {i}"
        );
        for (x, y) in a.per_core_ipc.iter().zip(&b.per_core_ipc) {
            assert_eq!(x.to_bits(), y.to_bits(), "spec {i}");
        }
        assert_eq!(a.memory.reads, b.memory.reads, "spec {i}");
        assert_eq!(a.memory.writes, b.memory.writes, "spec {i}");
    }
}

#[test]
fn cached_results_match_uncached_run() {
    let dir = TempCacheDir::new("vs-uncached");
    let specs = grid();
    let uncached = run_batch(&BatchRunner::serial(), &specs);
    let runner = BatchRunner::serial().with_cache(ResultsCache::open(&dir.0).unwrap());
    run_batch(&runner, &specs); // populate
    let cached = run_batch(&runner, &specs); // read back
    for (i, (a, b)) in uncached.iter().zip(&cached).enumerate() {
        assert_eq!(a.instructions, b.instructions, "spec {i}");
        assert_eq!(
            a.aggregate_ipc().to_bits(),
            b.aggregate_ipc().to_bits(),
            "spec {i}"
        );
    }
}

#[test]
fn any_spec_change_misses() {
    let dir = TempCacheDir::new("invalidation");
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
    let dir = TempCacheDir::new("replicated");
    let campaign = Campaign::new()
        .fixed(ChipConfig::with_cores(Organization::Mesh, 16))
        .workloads([Workload::SatSolver])
        .seeds([1, 2, 3])
        .window(MeasurementWindow::new(500, 1_500));
    let plain = campaign.run(&BatchRunner::serial()).results()[0].clone();
    let runner = BatchRunner::serial().with_cache(ResultsCache::open(&dir.0).unwrap());
    campaign.run(&runner); // populate
    let frame = campaign.run(&runner); // all hits
    let cached = &frame.results()[0];
    assert_eq!(runner.cache().unwrap().misses(), 3);
    assert_eq!(runner.cache().unwrap().hits(), 3);
    assert_eq!(plain.ipc.to_bits(), cached.ipc.to_bits());
    assert_eq!(plain.ci95.to_bits(), cached.ci95.to_bits());
    assert_eq!(plain.metrics.instructions, cached.metrics.instructions);
}

#[test]
fn corrupt_entry_degrades_to_miss_and_heals() {
    let dir = TempCacheDir::new("corrupt");
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
    assert_eq!(healed.instructions, metrics.instructions);
}
