//! The trace workload class's contract: a captured trace replays to chip
//! metrics bit-identical to the synthetic run that produced it, across
//! organizations and seeds, and participates in the results cache under
//! its content hash (so editing a stream invalidates cached replays).

mod common;

use common::{same, TempDir};
use nocout_repro::cache::ResultsCache;
use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;

fn replay_spec(chip: ChipConfig, dir: &std::path::Path, window: MeasurementWindow, seed: u64) -> RunSpec {
    let set = nocout_repro::substrates::workloads::trace::TraceSet::load(dir)
        .expect("trace set loads");
    RunSpec {
        chip,
        workload: WorkloadClass::Trace(set),
        window,
        seed,
    }
}

/// Capture → replay identity on both detailed organizations, 64- and
/// 16-core workloads, and multiple seeds.
#[test]
fn replayed_trace_reproduces_synthetic_metrics_bit_for_bit() {
    let window = MeasurementWindow::new(2_000, 5_000);
    let instrs = trace_capture_len(&window);
    for (org, workload, seed) in [
        (Organization::Mesh, Workload::MapReduceC, 3u64),
        (Organization::NocOut, Workload::WebSearch, 1),
        (Organization::FlattenedButterfly, Workload::DataServing, 7),
    ] {
        let dir = TempDir::new("identity");
        let chip = ChipConfig::paper(org);
        capture_synthetic_trace(chip, workload, seed, &dir.0, instrs).expect("capture");
        let synth = run(&RunSpec {
            chip,
            workload: workload.into(),
            window,
            seed,
        });
        let replay = run(&replay_spec(chip, &dir.0, window, seed));
        same(
            &synth,
            &replay,
            format_args!("{org} {workload:?} seed {seed}"),
        );
    }
}

/// A short capture loops: the replay still drives the chip forever, and
/// the looped stream is deterministic run to run.
#[test]
fn looping_replay_is_deterministic() {
    let dir = TempDir::new("loop");
    let chip = ChipConfig::with_cores(Organization::Mesh, 16);
    // Far fewer instructions than the run consumes, forcing wraparound.
    capture_synthetic_trace(chip, Workload::SatSolver, 2, &dir.0, 2_000).expect("capture");
    let window = MeasurementWindow::new(2_000, 6_000);
    let a = run(&replay_spec(chip, &dir.0, window, 2));
    let b = run(&replay_spec(chip, &dir.0, window, 2));
    same(&a, &b, "looping replay");
    assert!(a.instructions > 0, "looped replay must make progress");
}

/// Replay runs cache under the trace's content hash: a second identical
/// batch is all hits, and editing one stream byte invalidates.
#[test]
fn trace_replay_participates_in_the_results_cache() {
    let trace_dir = TempDir::new("cache-trace");
    let cache_dir = TempDir::new("cache-entries");
    let chip = ChipConfig::with_cores(Organization::Mesh, 16);
    capture_synthetic_trace(chip, Workload::MapReduceW, 5, &trace_dir.0, 3_000)
        .expect("capture");
    let window = MeasurementWindow::new(1_000, 3_000);
    let spec = replay_spec(chip, &trace_dir.0, window, 5);

    let runner = BatchRunner::serial().with_cache(ResultsCache::open(&cache_dir.0).unwrap());
    let first = runner.run_batch_outcomes(std::slice::from_ref(&spec));
    assert_eq!(runner.cache().unwrap().misses(), 1, "cold cache misses");

    let warm = BatchRunner::serial().with_cache(ResultsCache::open(&cache_dir.0).unwrap());
    let second = warm.run_batch_outcomes(std::slice::from_ref(&spec));
    assert_eq!(warm.cache().unwrap().hits(), 1, "warm cache must hit");
    let (first, second) = (first[0].as_ref().unwrap(), second[0].as_ref().unwrap());
    same(first, second, "cache round trip");

    // Edit one byte of one stream (the header's seed field, offset 30:
    // provenance only, so the stream stays loadable): the content hash
    // (and therefore the cache key) changes, so the same path must now
    // miss.
    let stream = std::fs::read_dir(&trace_dir.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "nctrace"))
        .expect("a stream file");
    let mut bytes = std::fs::read(&stream).unwrap();
    bytes[30] ^= 0x01;
    std::fs::write(&stream, bytes).unwrap();
    let edited_spec = replay_spec(chip, &trace_dir.0, window, 5);
    assert_ne!(
        spec.cache_key(),
        edited_spec.cache_key(),
        "edited trace must change the cache key"
    );
    let probe = BatchRunner::serial().with_cache(ResultsCache::open(&cache_dir.0).unwrap());
    probe.run_batch_outcomes(std::slice::from_ref(&edited_spec));
    assert_eq!(probe.cache().unwrap().misses(), 1, "edited trace must miss");
}

/// The format's size gate: at the capture length a fast-window run needs,
/// every profile codes below 3 bytes per instruction, headers included
/// (measured 2.15-2.41; the fixed-width version 1 records took 13.4), so
/// a coder regression fails here and not only in the benchmark.
#[test]
fn every_profile_codes_below_three_bytes_per_instruction() {
    let instrs = trace_capture_len(&MeasurementWindow::fast());
    for workload in Workload::ALL {
        let dir = TempDir::new("size");
        let chip = ChipConfig::with_cores(Organization::Mesh, 16);
        let set = capture_synthetic_trace(chip, workload, 1, &dir.0, instrs).expect("capture");
        assert_eq!(set.total_instructions(), instrs * set.streams() as u64);
        let per_instr = set.total_bytes() as f64 / set.total_instructions() as f64;
        assert!(per_instr < 3.0, "{workload:?}: {per_instr:.2} bytes per instruction");
    }
}

/// A trace with more streams than the chip has cores must fail loudly:
/// silently dropping streams would simulate a different workload than
/// the trace records.
#[test]
#[should_panic(expected = "set active_core_override")]
fn oversized_trace_panics_instead_of_dropping_streams() {
    let dir = TempDir::new("oversized");
    capture_synthetic_trace(
        ChipConfig::paper(Organization::Mesh),
        Workload::MapReduceC,
        1,
        &dir.0,
        500,
    )
    .expect("capture 64 streams");
    let _ = ScaleOutChip::new(
        ChipConfig::with_cores(Organization::Mesh, 16),
        WorkloadClass::Trace(
            nocout_repro::substrates::workloads::trace::TraceSet::load(&dir.0).unwrap(),
        ),
        1,
    );
}

/// Subsetting a trace is allowed when requested explicitly through
/// `active_core_override`.
#[test]
fn explicit_override_subsets_a_trace() {
    let dir = TempDir::new("subset");
    capture_synthetic_trace(
        ChipConfig::paper(Organization::Mesh),
        Workload::MapReduceC,
        1,
        &dir.0,
        500,
    )
    .expect("capture");
    let mut cfg = ChipConfig::with_cores(Organization::Mesh, 16);
    cfg.active_core_override = Some(8);
    let chip = ScaleOutChip::new(
        cfg,
        WorkloadClass::Trace(
            nocout_repro::substrates::workloads::trace::TraceSet::load(&dir.0).unwrap(),
        ),
        1,
    );
    assert_eq!(chip.active_cores(), 8);
}

/// The explorer-style `trace:PATH` class activates one core per stream
/// and places them in the organization's preferred order.
#[test]
fn replay_activates_one_core_per_stream() {
    let dir = TempDir::new("slots");
    let chip = ChipConfig::paper(Organization::NocOut);
    capture_synthetic_trace(chip, Workload::WebFrontend, 1, &dir.0, 1_000).expect("capture");
    let set = nocout_repro::substrates::workloads::trace::TraceSet::load(&dir.0).unwrap();
    assert_eq!(set.streams(), 16, "Web Frontend activates 16 cores");
    let synth = ScaleOutChip::new(chip, Workload::WebFrontend, 1);
    let replay = ScaleOutChip::new(chip, WorkloadClass::Trace(set), 1);
    assert_eq!(
        synth.active_core_ids(),
        replay.active_core_ids(),
        "replay must land on the cores the capture ran on"
    );
}

/// A loaded set holds the bytes it validated: once `load` has returned,
/// deleting the directory changes neither the replayed streams (across
/// loop-arounds) nor the metrics of a chip built from the set.
#[test]
fn a_loaded_set_replays_without_its_directory() {
    use nocout_repro::substrates::cpu::source::{FetchedInstr, InstructionSource};
    use nocout_repro::substrates::workloads::trace::TraceSet;

    let dir = TempDir::new("held");
    let chip = ChipConfig::with_cores(Organization::Mesh, 16);
    let set = capture_synthetic_trace(chip, Workload::SatSolver, 2, &dir.0, 700).expect("capture");
    let window = MeasurementWindow::new(1_000, 3_000);
    let spec = RunSpec {
        chip,
        workload: WorkloadClass::Trace(set.clone()),
        window,
        seed: 2,
    };
    // Three loop-arounds of every stream, and a chip run, with the files
    // in place ...
    let laps = |set: &TraceSet| -> Vec<Vec<FetchedInstr>> {
        (0..set.streams())
            .map(|slot| {
                let mut source = set.open_stream(slot).expect("open stream");
                let n = 3 * set.header(slot).instr_count;
                (0..n).map(|_| source.next_instr()).collect()
            })
            .collect()
    };
    let (streams_before, metrics_before) = (laps(&set), run(&spec));
    // ... and with them gone.
    std::fs::remove_dir_all(&dir.0).expect("delete the trace directory");
    assert!(!set.files()[0].exists());
    assert_eq!(laps(&set), streams_before);
    same(&metrics_before, &run(&spec), "replay after delete");
}
