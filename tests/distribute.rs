//! End-to-end tests of fault-tolerant sharded campaign execution:
//! in-process `Worker`s behind real TCP listeners, a `ShardedDriver`
//! dispatching to them, and every promised failure mode exercised —
//! worker crash mid-shard, injected point panics, stragglers, and
//! crash-safe journal resume.
//!
//! The invariant everything here defends: for successful points, the
//! sharded path is **bit-identical** to the local `BatchRunner` path, no
//! matter which worker ran a point, how often a shard was retried, or
//! whether a result came from the journal instead of the wire.
//!
//! Timing margins are generous (multi-second timeouts, tiny backoffs):
//! the CI container pins a single CPU, so wall-clock assumptions tighter
//! than seconds would flake.

mod common;

use common::{same, TempDir};
use nocout_repro::config::{ChipConfig, Organization};
use nocout_repro::distribute::{
    archive_trace, DriverConfig, Endpoint, FaultPlan, ShardedDriver, TraceStore, Worker,
};
use nocout_repro::runner::{BatchRunner, PointOutcome, RunSpec};
use nocout_repro::prelude::*;
use nocout_workloads::trace::TraceSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small campaign: 2 organizations × 2 workloads on the fast window.
fn specs() -> Vec<RunSpec> {
    let mut v = Vec::new();
    for org in [Organization::Mesh, Organization::NocOut] {
        for w in [Workload::WebSearch, Workload::DataServing] {
            v.push(RunSpec::new(ChipConfig::paper(org), w).fast().with_seed(1));
        }
    }
    v
}

/// Starts an in-process worker with `fault` on an OS-assigned port;
/// returns its endpoint. The serving thread is detached — it dies with
/// the test process.
fn spawn_worker(fault: FaultPlan) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker listener");
    let addr = listener.local_addr().expect("listener address").to_string();
    std::thread::spawn(move || {
        let worker = Worker::new(BatchRunner::new(1))
            .with_heartbeat(Duration::from_millis(50))
            .with_faults(fault);
        let _ = worker.serve_listener(&listener);
    });
    Endpoint::Tcp(addr)
}

/// Driver tuning for tests: small shards, quick backoff, timeouts far
/// above anything a loaded 1-CPU container produces.
fn test_config() -> DriverConfig {
    DriverConfig {
        shard_points: 2,
        max_attempts: 6,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        read_timeout: Duration::from_secs(60),
        ..DriverConfig::default()
    }
}

/// The same points run locally: what every sharded run must equal.
fn local_baseline(specs: &[RunSpec]) -> Vec<PointOutcome> {
    BatchRunner::new(1).run_batch_outcomes(specs)
}

#[test]
fn sharded_execution_is_bit_identical_to_local() {
    let specs = specs();
    let endpoints = vec![spawn_worker(FaultPlan::default()), spawn_worker(FaultPlan::default())];
    let driver = ShardedDriver::new(endpoints, test_config());
    let sharded = driver.execute_sharded(&specs);
    assert!(sharded.iter().all(Result::is_ok), "{sharded:?}");
    same(&sharded, &local_baseline(&specs), "sharded against local");
    let stats = driver.stats();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.failed_points, 0);
}

#[test]
fn worker_crash_mid_shard_is_retried_on_the_survivor() {
    let specs = specs();
    // Worker 0 "crashes" instead of sending its very first result frame
    // and serves nothing ever again; worker 1 is healthy.
    let endpoints = vec![
        spawn_worker(FaultPlan {
            drop_after_frames: Some(0),
            ..FaultPlan::default()
        }),
        spawn_worker(FaultPlan::default()),
    ];
    let driver = ShardedDriver::new(endpoints, test_config());
    let sharded = driver.execute_sharded(&specs);
    same(
        &sharded,
        &local_baseline(&specs),
        "retried results must stay bit-identical",
    );
    let stats = driver.stats();
    assert!(stats.failed_attempts >= 1, "the crash must be observed: {stats:?}");
    assert!(stats.retries >= 1, "the crashed shard must be re-dispatched: {stats:?}");
    assert_eq!(stats.failed_points, 0, "the survivor must absorb all work: {stats:?}");
}

#[test]
fn injected_panic_degrades_to_a_failed_point_not_a_crash() {
    let specs = specs();
    let endpoints = vec![spawn_worker(FaultPlan {
        panic_on_point: Some(0),
        ..FaultPlan::default()
    })];
    let driver = ShardedDriver::new(endpoints, test_config());
    let outcomes = driver.execute_sharded(&specs);
    // The worker's panic isolation turns the unwind into a typed
    // per-point failure; every other point of the same shard still runs.
    let failed: Vec<&str> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().err().map(|e| e.message.as_str()))
        .collect();
    assert_eq!(failed.len(), 1, "exactly the poisoned point fails: {failed:?}");
    assert!(
        failed[0].contains("injected fault: panic on point"),
        "the panic message must survive the wire: {failed:?}"
    );
    assert_eq!(driver.stats().failed_points, 1);
}

#[test]
fn no_reachable_endpoint_degrades_every_point() {
    let specs = specs();
    // Nothing listens on this port (bound, never accepted, dropped).
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let cfg = DriverConfig {
        max_attempts: 2,
        endpoint_failure_limit: 2,
        ..test_config()
    };
    let driver = ShardedDriver::new(vec![Endpoint::Tcp(dead)], cfg);
    let outcomes = driver.execute_sharded(&specs);
    assert!(
        outcomes.iter().all(|o| o.is_err()),
        "with no live workers every point must degrade, not hang"
    );
    assert_eq!(driver.stats().failed_points as usize, specs.len());
}

#[test]
fn straggler_is_speculated_and_results_stay_identical() {
    let specs = specs();
    // Worker 0 sleeps 2 s before every frame — a straggler, not a corpse.
    let endpoints = vec![
        spawn_worker(FaultPlan {
            delay: Some(Duration::from_secs(2)),
            ..FaultPlan::default()
        }),
        spawn_worker(FaultPlan::default()),
    ];
    let cfg = DriverConfig {
        speculate_after: Some(Duration::from_millis(300)),
        ..test_config()
    };
    let driver = ShardedDriver::new(endpoints, cfg);
    let sharded = driver.execute_sharded(&specs);
    same(
        &sharded,
        &local_baseline(&specs),
        "whichever twin wins, results are bit-identical",
    );
    let stats = driver.stats();
    assert!(stats.speculative >= 1, "the straggling shard must be speculated: {stats:?}");
    assert_eq!(stats.failed_points, 0);
}

/// The crash-resume story end to end: a first driver run loses its only
/// worker mid-campaign (completed shards journaled, the rest degrade to
/// transport errors), a second run with `resume: true` replays the
/// journal and dispatches only the uncovered points.
#[test]
fn journal_resume_dispatches_only_uncovered_points() {
    let specs = specs();
    let journal = temp_journal("resume");
    let _ = std::fs::remove_file(&journal);

    // First run: the worker dies instead of sending frame 5 — shard 0
    // (frames 0,1 + done) lands in the journal, shard 1 does not.
    let crashy = spawn_worker(FaultPlan {
        drop_after_frames: Some(5),
        ..FaultPlan::default()
    });
    let cfg1 = DriverConfig {
        max_attempts: 1,
        endpoint_failure_limit: 1,
        journal: Some(journal.clone()),
        ..test_config()
    };
    let driver1 = ShardedDriver::new(vec![crashy], cfg1);
    let first = driver1.execute_sharded(&specs);
    let ok_first = first.iter().filter(|o| o.is_ok()).count();
    assert_eq!(ok_first, 2, "the completed shard's points succeed");
    assert!(
        first.iter().filter_map(|o| o.as_ref().err()).all(|e| {
            e.message.contains("exhausted") || e.message.contains("no live worker")
        }),
        "lost points degrade with the transport error named"
    );

    // Second run: a healthy worker, resuming. Only shard 1 dispatches.
    let cfg2 = DriverConfig {
        journal: Some(journal.clone()),
        resume: true,
        ..test_config()
    };
    let driver2 = ShardedDriver::new(vec![spawn_worker(FaultPlan::default())], cfg2);
    let second = driver2.execute_sharded(&specs);
    same(
        &second,
        &local_baseline(&specs),
        "resumed + fresh points are bit-identical",
    );
    let stats = driver2.stats();
    assert_eq!(stats.journal_resumed, 2, "exactly the journaled points are recovered");
    assert_eq!(stats.shards, 1, "only the uncovered shard dispatches");
    assert_eq!(stats.failed_points, 0);

    // Third run: everything is journaled now; nothing need be reachable.
    let cfg3 = DriverConfig {
        max_attempts: 1,
        endpoint_failure_limit: 1,
        journal: Some(journal.clone()),
        resume: true,
        ..test_config()
    };
    let driver3 = ShardedDriver::new(
        vec![Endpoint::Tcp("127.0.0.1:1".into())],
        cfg3,
    );
    let third = driver3.execute_sharded(&specs);
    same(
        &third,
        &local_baseline(&specs),
        "a full journal needs no workers at all",
    );
    assert_eq!(driver3.stats().journal_resumed as usize, specs.len());
    assert_eq!(driver3.stats().dispatches, 0);

    let _ = std::fs::remove_file(&journal);
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nocout-distribute-test-{tag}-{}.journal",
        std::process::id()
    ))
}

// ---------------------------------------------------------------------
// Content-addressed trace shipping.
// ---------------------------------------------------------------------

/// Captures a small synthetic-workload trace into a fresh temp dir.
fn capture_trace(tag: &str) -> (TempDir, Arc<TraceSet>) {
    let dir = TempDir::new(&format!("{tag}-capture"));
    let chip = ChipConfig::paper(Organization::Mesh);
    let trace = nocout_repro::capture_synthetic_trace(chip, Workload::WebSearch, 1, &dir.0, 2_000)
        .expect("capture trace");
    (dir, trace)
}

/// A 2-point trace-replay campaign: mesh and NOC-Out replaying `set`.
fn trace_specs(set: &Arc<TraceSet>) -> Vec<RunSpec> {
    [Organization::Mesh, Organization::NocOut]
        .into_iter()
        .map(|org| RunSpec {
            chip: ChipConfig::paper(org),
            workload: WorkloadClass::from(set.clone()),
            window: MeasurementWindow::new(100, 400),
            seed: 1,
        })
        .collect()
}

/// Starts an in-process worker with `fault` and a content-addressed
/// trace store rooted at `store_dir`.
fn spawn_worker_with_store(fault: FaultPlan, store_dir: &Path) -> Endpoint {
    let store = TraceStore::open(store_dir).expect("open worker trace store");
    spawn_worker_on_store(fault, store)
}

/// Starts an in-process worker with `fault` serving from `store` — an
/// already open store, with whatever it has verified so far.
fn spawn_worker_on_store(fault: FaultPlan, store: TraceStore) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker listener");
    let addr = listener.local_addr().expect("listener address").to_string();
    std::thread::spawn(move || {
        let worker = Worker::new(BatchRunner::new(1))
            .with_heartbeat(Duration::from_millis(50))
            .with_faults(fault)
            .with_trace_store(store);
        let _ = worker.serve_listener(&listener);
    });
    Endpoint::Tcp(addr)
}

/// Installs `set` into the store at `dir` the same way a driver shipment
/// would: one staged archive, committed and hash-verified.
fn seed_store(dir: &Path, set: &Arc<TraceSet>) {
    let store = TraceStore::open(dir).expect("open store");
    let archive = archive_trace(set).expect("archive trace");
    let hash = set.content_hash();
    store.append_chunk(hash, 0, &archive).expect("stage archive");
    store.commit(hash, archive.len() as u64).expect("install archive");
}

#[test]
fn trace_campaign_ships_to_empty_stores_and_matches_local() {
    let (_capture, set) = capture_trace("ship");
    let specs = trace_specs(&set);
    let s0 = TempDir::new("ship-w0");
    let s1 = TempDir::new("ship-w1");
    let endpoints = vec![
        spawn_worker_with_store(FaultPlan::default(), &s0.0),
        spawn_worker_with_store(FaultPlan::default(), &s1.0),
    ];
    let cfg = DriverConfig {
        shard_points: 1, // one point per shard: both workers get trace work
        chunk_bytes: 1024,
        ..test_config()
    };
    let driver = ShardedDriver::new(endpoints, cfg);
    let sharded = driver.execute_sharded(&specs);
    assert!(sharded.iter().all(Result::is_ok), "{sharded:?}");
    same(
        &sharded,
        &local_baseline(&specs),
        "trace points shipped by content hash must stay bit-identical to local",
    );
    let stats = driver.stats();
    assert!(stats.trace_ships >= 1, "empty stores force a shipment: {stats:?}");
    assert_eq!(stats.failed_points, 0, "{stats:?}");
}

#[test]
fn mid_transfer_worker_crash_is_resumed_on_retry() {
    let (_capture, set) = capture_trace("resume-ship");
    let specs = trace_specs(&set);
    let store_dir = TempDir::new("resume-ship-w0");
    // The worker drops the connection after durably staging the second
    // chunk — a crash mid-transfer. It keeps serving (a restarted
    // worker), so the retried ship must *resume* from the staged partial
    // rather than restart from byte zero.
    let endpoints = vec![spawn_worker_with_store(
        FaultPlan {
            drop_after_chunks: Some(2),
            ..FaultPlan::default()
        },
        &store_dir.0,
    )];
    let cfg = DriverConfig {
        chunk_bytes: 512,
        ..test_config()
    };
    let driver = ShardedDriver::new(endpoints, cfg);
    let sharded = driver.execute_sharded(&specs);
    same(
        &sharded,
        &local_baseline(&specs),
        "a resumed transfer must still install a bit-identical trace",
    );
    let stats = driver.stats();
    assert!(stats.failed_attempts >= 1, "the crash must be observed: {stats:?}");
    assert!(
        stats.trace_resume_bytes >= 1024,
        "the retry must resume past the two staged chunks: {stats:?}"
    );
    assert_eq!(stats.failed_points, 0, "{stats:?}");
}

#[test]
fn corrupt_store_entry_is_quarantined_and_reshipped() {
    let (_capture, set) = capture_trace("quarantine");
    let specs = trace_specs(&set);
    let store_dir = TempDir::new("quarantine-w0");
    seed_store(&store_dir.0, &set);
    // Flip one byte of an installed stream file: the store still
    // *advertises* the entry (held() is an unverified scan), but the
    // first load re-verifies the content hash, quarantines the entry to
    // `.bad`, and the driver's retry ships a fresh copy.
    let hash = set.content_hash();
    let entry = store_dir.0.join(format!("{hash:016x}"));
    let victim = std::fs::read_dir(&entry)
        .expect("read entry dir")
        .filter_map(Result::ok)
        .find(|e| e.path().is_file())
        .expect("entry holds stream files")
        .path();
    let mut bytes = std::fs::read(&victim).expect("read stream file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("corrupt stream file");

    let endpoints = vec![spawn_worker_with_store(FaultPlan::default(), &store_dir.0)];
    let driver = ShardedDriver::new(endpoints, test_config());
    let sharded = driver.execute_sharded(&specs);
    same(
        &sharded,
        &local_baseline(&specs),
        "a quarantined entry must be re-shipped, never replayed corrupt",
    );
    let stats = driver.stats();
    assert!(
        stats.trace_ships >= 1,
        "the re-ship after quarantine must be counted: {stats:?}"
    );
    assert_eq!(stats.failed_points, 0, "{stats:?}");
    assert!(
        store_dir.0.join(format!("{hash:016x}.bad")).exists(),
        "the corrupt entry must be quarantined, not deleted"
    );
}

/// What a store verified is what it serves: an installed stream edited
/// on disk *after* the store's first `get` is never read again by that
/// store, so its worker replays the verified bytes and the campaign
/// equals local. The next process to open the directory verifies from
/// disk, finds the edit and quarantines the entry.
#[test]
fn a_verified_set_outlives_an_edit_of_its_files_until_the_next_process() {
    let (_capture, set) = capture_trace("verified-once");
    let specs = trace_specs(&set);
    let store_dir = TempDir::new("verified-once-w0");
    seed_store(&store_dir.0, &set);
    let hash = set.content_hash();
    let store = TraceStore::open(&store_dir.0).expect("open store");
    assert!(store.get(hash).is_some(), "the first get verifies the installed entry");

    let entry = store_dir.0.join(format!("{hash:016x}"));
    let victim = std::fs::read_dir(&entry)
        .expect("read entry dir")
        .filter_map(Result::ok)
        .find(|e| e.path().is_file())
        .expect("entry holds stream files")
        .path();
    let mut bytes = std::fs::read(&victim).expect("read stream file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("edit stream file");

    let endpoints = vec![spawn_worker_on_store(FaultPlan::default(), store)];
    let driver = ShardedDriver::new(endpoints, test_config());
    let sharded = driver.execute_sharded(&specs);
    same(
        &sharded,
        &local_baseline(&specs),
        "the verified bytes are the replayed bytes",
    );
    let stats = driver.stats();
    assert_eq!(stats.trace_ships, 0, "{stats:?}");
    assert_eq!(stats.failed_points, 0, "{stats:?}");
    let bad = store_dir.0.join(format!("{hash:016x}.bad"));
    assert!(!bad.exists(), "the serving store had no reason to quarantine");

    let fresh = TraceStore::open(&store_dir.0).expect("reopen store");
    assert!(fresh.get(hash).is_none(), "a new store verifies from disk");
    assert_eq!(fresh.quarantined(), 1);
    assert!(bad.is_dir() && !entry.exists());
}

#[test]
fn held_traces_are_reused_without_shipping() {
    let (_capture, set) = capture_trace("reuse");
    let specs = trace_specs(&set);
    let store_dir = TempDir::new("reuse-w0");
    seed_store(&store_dir.0, &set);
    let endpoints = vec![spawn_worker_with_store(FaultPlan::default(), &store_dir.0)];
    let driver = ShardedDriver::new(endpoints, test_config());
    let sharded = driver.execute_sharded(&specs);
    same(&sharded, &local_baseline(&specs), "sharded against local");
    let stats = driver.stats();
    assert_eq!(stats.trace_ships, 0, "a held trace must not be re-shipped: {stats:?}");
    assert!(stats.trace_reuses >= 1, "the reuse must be counted: {stats:?}");
    assert_eq!(stats.failed_points, 0, "{stats:?}");
}

#[test]
fn storeless_worker_degrades_trace_points_but_still_runs_synthetic() {
    let (_capture, set) = capture_trace("storeless");
    // Two synthetic points plus two trace points, one worker with *no*
    // trace store: the synthetic half must complete bit-identically, the
    // trace half must degrade with a typed trace-capability error — not
    // hang, not fail the synthetic points.
    let mut specs = vec![
        RunSpec::new(ChipConfig::paper(Organization::Mesh), Workload::WebSearch)
            .fast()
            .with_seed(1),
        RunSpec::new(ChipConfig::paper(Organization::NocOut), Workload::WebSearch)
            .fast()
            .with_seed(1),
    ];
    specs.extend(trace_specs(&set));
    let endpoints = vec![spawn_worker(FaultPlan::default())];
    let cfg = DriverConfig {
        shard_points: 2, // synthetic pair in one shard, trace pair in the other
        ..test_config()
    };
    let driver = ShardedDriver::new(endpoints, cfg);
    let outcomes = driver.execute_sharded(&specs);
    let synthetic = &outcomes[..2];
    assert!(synthetic.iter().all(Result::is_ok), "{synthetic:?}");
    same(
        synthetic,
        &local_baseline(&specs[..2])[..],
        "sharded against local",
    );
    for o in &outcomes[2..] {
        let e = o.as_ref().expect_err("trace points must degrade without a store");
        assert!(
            e.message.contains("trace"),
            "the degradation must name the trace capability: {}",
            e.message
        );
    }
}

#[test]
fn mixed_store_and_storeless_workers_complete_a_trace_campaign() {
    let (_capture, set) = capture_trace("mixed");
    let specs = trace_specs(&set);
    let store_dir = TempDir::new("mixed-w1");
    // Worker 0 has no store; worker 1 does. Whichever claims a trace
    // shard first, every point must complete (the storeless endpoint is
    // retired from trace-bearing shards only).
    let endpoints = vec![
        spawn_worker(FaultPlan::default()),
        spawn_worker_with_store(FaultPlan::default(), &store_dir.0),
    ];
    let cfg = DriverConfig {
        shard_points: 1,
        chunk_bytes: 1024,
        ..test_config()
    };
    let driver = ShardedDriver::new(endpoints, cfg);
    let sharded = driver.execute_sharded(&specs);
    same(&sharded, &local_baseline(&specs), "sharded against local");
    assert_eq!(driver.stats().failed_points, 0, "{:?}", driver.stats());
}

// ---------------------------------------------------------------------
// Turns and latency: a shard costs what it simulates.
// ---------------------------------------------------------------------

/// Runs 25 one-point shards of a tiny-window spec through a worker that
/// `serve` puts behind a loopback listener, and requires them to cost
/// less than 500 ms more than the same points run locally. Two small
/// worker writes with no read between them (a result frame, then its
/// trailer) stall every shard for the driver's delayed ACK — 40 ms on
/// Linux, so 25 × 40 ms = 1 s of overhead by construction — whereas a
/// busy test host only slows some campaigns down: the campaign gets
/// three tries, which separates the two.
fn assert_shards_cost_what_they_simulate(serve: fn(&Worker, &TcpListener)) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker listener");
    let addr = listener.local_addr().expect("listener address").to_string();
    std::thread::spawn(move || {
        // No heartbeat falls inside a point: results are the only writes.
        let worker = Worker::new(BatchRunner::new(1)).with_heartbeat(Duration::from_secs(1));
        serve(&worker, &listener);
    });
    let specs: Vec<RunSpec> = (0..25)
        .map(|seed| {
            RunSpec::new(ChipConfig::paper(Organization::Mesh), Workload::WebSearch)
                .with_window(MeasurementWindow::new(20, 60))
                .with_seed(seed)
        })
        .collect();
    let started = Instant::now();
    let baseline = local_baseline(&specs);
    let local = started.elapsed();
    let driver = ShardedDriver::new(
        vec![Endpoint::Tcp(addr)],
        DriverConfig { shard_points: 1, ..test_config() },
    );
    let mut overheads = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let outcomes = driver.execute_sharded(&specs);
        let overhead = started.elapsed().saturating_sub(local);
        same(&outcomes, &baseline, "sharded against local");
        assert_eq!(driver.stats().dispatches, 25, "{:?}", driver.stats());
        if overhead < Duration::from_millis(500) {
            return;
        }
        overheads.push(overhead);
    }
    panic!("25 one-point shards cost {overheads:?} on top of their points' {local:?}");
}

#[test]
fn one_point_shards_do_not_wait_out_a_delayed_ack() {
    assert_shards_cost_what_they_simulate(|worker, listener| {
        let _ = worker.serve_listener(listener);
    });
}

#[test]
fn an_embedders_accept_loop_without_nodelay_is_as_fast() {
    // `serve_stream` cannot set socket options (it is generic over
    // `Read`/`Write`), so the one-write-per-turn rule alone must carry a
    // hand-rolled accept loop that never calls `set_nodelay`.
    assert_shards_cost_what_they_simulate(|worker, listener| {
        for stream in listener.incoming().flatten() {
            let Ok(reader) = stream.try_clone() else { continue };
            let _ = worker.serve_stream(reader, &stream);
        }
    });
}
