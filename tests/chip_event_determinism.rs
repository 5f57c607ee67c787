//! The event-driven chip tick's contract: active-set scheduling, idle
//! fast-forward and block-based instruction delivery never change
//! results.
//!
//! `ScaleOutChip::tick` skips sleeping cores (paying the cycles they
//! slept through, stalled or spinning, in bulk at the wake), visits
//! only LLC tiles and memory channels with pending work and feeds every
//! core in instruction *blocks* (one virtual `refill` per 64
//! instructions), and `ScaleOutChip::run_for` jumps over globally idle
//! stretches; all of it must be bit-identical
//! to the full-scan, per-instruction reference (`tick_reference`)
//! across every organization, workload mix and seed — the same
//! differential pattern `tests/batch_determinism.rs` applies to the
//! parallel batch engine and `tests/trace_replay.rs` to the trace
//! workload class.

use nocout_repro::prelude::*;
use nocout_repro::substrates::workloads::OpenLoopSpec;

const ALL_ORGS: [Organization; 5] = [
    Organization::Mesh,
    Organization::FlattenedButterfly,
    Organization::NocOut,
    Organization::IdealWire,
    Organization::ZeroLoadMesh,
];

fn assert_metrics_identical(a: &SystemMetrics, b: &SystemMetrics, ctx: &str) {
    assert_eq!(a.active_cores, b.active_cores, "{ctx}: active cores");
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
    assert_eq!(a.instructions, b.instructions, "{ctx}: instructions");
    assert_eq!(
        a.fetch_stall_fraction.to_bits(),
        b.fetch_stall_fraction.to_bits(),
        "{ctx}: fetch stall fraction"
    );
    assert_eq!(a.per_core_ipc.len(), b.per_core_ipc.len(), "{ctx}");
    for (i, (x, y)) in a.per_core_ipc.iter().zip(&b.per_core_ipc).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: core {i} ipc");
    }
    assert_eq!(a.llc.accesses, b.llc.accesses, "{ctx}: llc accesses");
    assert_eq!(a.llc.hits, b.llc.hits, "{ctx}: llc hits");
    assert_eq!(a.llc.misses, b.llc.misses, "{ctx}: llc misses");
    assert_eq!(a.llc.snoops_sent, b.llc.snoops_sent, "{ctx}: snoops");
    assert_eq!(
        a.llc.snooping_accesses, b.llc.snooping_accesses,
        "{ctx}: snooping accesses"
    );
    assert_eq!(a.llc.writebacks, b.llc.writebacks, "{ctx}: writebacks");
    assert_eq!(a.network.packets, b.network.packets, "{ctx}: packets");
    assert_eq!(
        a.network.mean_latency.to_bits(),
        b.network.mean_latency.to_bits(),
        "{ctx}: mean latency"
    );
    assert_eq!(a.network.p50_latency, b.network.p50_latency, "{ctx}: p50");
    assert_eq!(a.network.p99_latency, b.network.p99_latency, "{ctx}: p99");
    assert_eq!(
        a.network.buffer_writes, b.network.buffer_writes,
        "{ctx}: buffer writes"
    );
    assert_eq!(
        a.network.xbar_traversals, b.network.xbar_traversals,
        "{ctx}: xbar traversals"
    );
    assert_eq!(a.memory.reads, b.memory.reads, "{ctx}: memory reads");
    assert_eq!(a.memory.writes, b.memory.writes, "{ctx}: memory writes");
}

/// Active-set, block-fed ticking matches the full-scan per-instruction
/// reference, cycle for cycle, on every organization and across
/// workloads and seeds — including intermediate in-flight state, not
/// just final counters.
#[test]
fn active_set_tick_is_bit_identical_to_full_scan() {
    for org in ALL_ORGS {
        for (workload, seed) in [
            (Workload::WebSearch, 1u64),
            (Workload::DataServing, 7),
            (Workload::SatSolver, 13),
            (Workload::MapReduceW, 5),
        ] {
            let cfg = ChipConfig::paper(org);
            let mut fast = ScaleOutChip::new(cfg, workload, seed);
            let mut reference = ScaleOutChip::new(cfg, workload, seed);
            for cycle in 0..4_000u64 {
                fast.tick();
                reference.tick_reference();
                if cycle % 512 == 0 {
                    assert_eq!(
                        fast.inflight_messages(),
                        reference.inflight_messages(),
                        "{org} {workload:?} seed {seed} cycle {cycle}: in-flight msgs"
                    );
                    assert_eq!(
                        fast.inflight_transactions(),
                        reference.inflight_transactions(),
                        "{org} {workload:?} seed {seed} cycle {cycle}: in-flight txns"
                    );
                }
            }
            let ctx = format!("{org} {workload:?} seed {seed}");
            assert_metrics_identical(&fast.metrics(), &reference.metrics(), &ctx);
        }
    }
}

/// Mixing the two tick flavours mid-run is also safe: the active sets
/// stay consistent whichever path maintained them last.
#[test]
fn interleaved_tick_flavours_stay_consistent() {
    let cfg = ChipConfig::paper(Organization::Mesh);
    let mut mixed = ScaleOutChip::new(cfg, Workload::MapReduceC, 3);
    let mut reference = ScaleOutChip::new(cfg, Workload::MapReduceC, 3);
    for cycle in 0..3_000u64 {
        if (cycle / 64) % 2 == 0 {
            mixed.tick();
        } else {
            mixed.tick_reference();
        }
        reference.tick_reference();
    }
    assert_metrics_identical(&mixed.metrics(), &reference.metrics(), "mixed flavours");
}

/// `run_for` (with chip-level idle fast-forward) reproduces per-cycle
/// ticking exactly, including the stall counters it applies in bulk.
#[test]
fn run_for_fast_forward_is_bit_identical() {
    for org in ALL_ORGS {
        let cfg = ChipConfig::paper(org);
        let (warmup, measure) = (2_000u64, 4_000u64);
        let mut jumped = ScaleOutChip::new(cfg, Workload::WebFrontend, 9);
        jumped.run_for(warmup);
        jumped.reset_stats();
        jumped.run_for(measure);

        let mut stepped = ScaleOutChip::new(cfg, Workload::WebFrontend, 9);
        for _ in 0..warmup {
            stepped.tick();
        }
        stepped.reset_stats();
        for _ in 0..measure {
            stepped.tick();
        }

        assert_eq!(jumped.now(), stepped.now(), "{org}: clocks must agree");
        assert_metrics_identical(&jumped.metrics(), &stepped.metrics(), &format!("{org}"));
    }
}

/// Service-level tail recording is purely observational: a run with
/// recording disabled produces bit-identical legacy metrics to one with
/// it enabled (the default). The tail histograms may only ever *read*
/// the simulation — never touch RNG draws, event order, or arbitration
/// state.
#[test]
fn tail_recording_does_not_perturb_simulation() {
    for org in [Organization::Mesh, Organization::NocOut] {
        for (workload, seed) in [(Workload::WebSearch, 1u64), (Workload::DataServing, 7)] {
            let cfg = ChipConfig::paper(org);
            let mut recording = ScaleOutChip::new(cfg, workload, seed);
            let mut silent = ScaleOutChip::new(cfg, workload, seed);
            silent.set_tail_recording(false);
            recording.run_for(2_000);
            silent.run_for(2_000);
            recording.reset_stats();
            silent.reset_stats();
            recording.run_for(6_000);
            silent.run_for(6_000);
            let (rm, sm) = (recording.metrics(), silent.metrics());
            let ctx = format!("{org} {workload:?} seed {seed}");
            assert_metrics_identical(&rm, &sm, &ctx);
            // The recording run actually measured something...
            assert!(rm.block_latency.count > 0, "{ctx}: no blocks recorded");
            assert!(rm.fill_latency.count > 0, "{ctx}: no fills recorded");
            // ...and the silent run recorded nothing in the gated hists.
            assert_eq!(sm.block_latency.count, 0, "{ctx}");
            assert_eq!(sm.fill_latency.count, 0, "{ctx}");
            assert_eq!(sm.llc_miss_latency.count, 0, "{ctx}");
        }
    }
}

/// A chip with few active cores (the paper's common case: a 16-core
/// workload on a 64-tile die) must still drain all traffic through the
/// active sets — nothing gets stranded by the idle fast-path.
#[test]
fn low_occupancy_chip_drains_through_active_sets() {
    for org in [Organization::Mesh, Organization::NocOut] {
        let mut chip = ScaleOutChip::new(ChipConfig::paper(org), Workload::WebSearch, 5);
        assert_eq!(chip.active_cores(), 16, "{org}");
        chip.run_for(20_000);
        let m = chip.metrics();
        assert!(m.instructions > 1_000, "{org}: retired {}", m.instructions);
        assert!(m.memory.reads > 0, "{org}: memory must be reached");
        // In-flight work stays bounded: requests are not being lost by
        // components dropping out of the active sets prematurely.
        assert!(
            chip.inflight_transactions() <= 16 * 10,
            "{org}: {} transactions stranded",
            chip.inflight_transactions()
        );
    }
}

/// Per-core sleep never changes results: a chip driven by an arbitrary
/// interleaving of `tick`, `run_for` and `tick_reference` — with
/// `metrics()` read and `reset_stats()` called while cores are asleep —
/// matches a chip that only ever ran the reference tick, which ticks
/// every core every cycle. Covers every organization and every kind of
/// instruction source (closed-loop synthetic, open-loop from near idle —
/// where cores sleep spinning between requests — to past the mesh's
/// knee, trace replay).
#[test]
fn sleeping_cores_are_bit_identical_to_reference() {
    // Replay opens the stream files per chip build: the directory lives
    // until the test ends.
    struct TraceDir(std::path::PathBuf);
    impl Drop for TraceDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let trace_dir = TraceDir(
        std::env::temp_dir().join(format!("nocout-sleep-lockstep-{}", std::process::id())),
    );
    let trace = capture_synthetic_trace(
        ChipConfig::paper(Organization::Mesh),
        Workload::MapReduceW,
        4,
        &trace_dir.0,
        3_000,
    )
    .expect("capture");
    let open_loop = |interval| -> WorkloadClass {
        OpenLoopSpec {
            workload: Workload::DataServing,
            interval,
            service_instrs: 32,
        }
        .into()
    };
    const NEAR_IDLE: usize = 3;
    let classes: [WorkloadClass; 7] = [
        Workload::DataServing.into(),
        Workload::SatSolver.into(),
        Workload::WebSearch.into(),
        open_loop(1_600),
        open_loop(200),
        open_loop(50),
        trace.into(),
    ];
    for org in ALL_ORGS {
        for (k, class) in classes.iter().enumerate() {
            let ctx = format!("{org} class {k}");
            let cfg = ChipConfig::paper(org);
            let mut fast = ScaleOutChip::new(cfg, class.clone(), 11);
            let mut reference = ScaleOutChip::new(cfg, class.clone(), 11);
            let active = fast.active_cores() as u64;
            let (mut asleep_samples, mut reset_done) = (0, false);
            // Segment lengths are coprime with the flavour rotation, so
            // every flavour runs at every length.
            for (segment, len) in [1u64, 7, 64, 3, 129, 20, 2, 250]
                .iter()
                .cycle()
                .take(40)
                .enumerate()
            {
                match segment % 3 {
                    0 => (0..*len).for_each(|_| fast.tick()),
                    1 => fast.run_for(*len),
                    _ => (0..*len).for_each(|_| fast.tick_reference()),
                }
                (0..*len).for_each(|_| reference.tick_reference());
                // One more plain tick tells whether cores are asleep at
                // this sample point: fewer `Core::tick` calls than
                // active cores means the rest slept through it.
                let executed_before = fast.core_tick_counts().executed;
                fast.tick();
                reference.tick_reference();
                let some_asleep = fast.core_tick_counts().executed - executed_before < active;
                asleep_samples += some_asleep as u32;
                assert_eq!(fast.now(), reference.now(), "{ctx}: clocks");
                assert_eq!(
                    fast.inflight_transactions(),
                    reference.inflight_transactions(),
                    "{ctx} segment {segment}: in-flight txns"
                );
                assert_eq!(
                    format!("{:?}", fast.metrics()),
                    format!("{:?}", reference.metrics()),
                    "{ctx} segment {segment}"
                );
                if some_asleep && !reset_done && segment >= 12 {
                    fast.reset_stats();
                    reference.reset_stats();
                    reset_done = true;
                }
            }
            assert!(reset_done, "{ctx}: no reset landed on a sleeping core");
            assert!(
                asleep_samples >= 10,
                "{ctx}: only {asleep_samples} samples saw sleepers"
            );
            let ticks = fast.core_tick_counts();
            assert_eq!(ticks.total(), active * fast.now().raw(), "{ctx}");
            // The oracle never sleeps.
            let oracle = reference.core_tick_counts();
            assert_eq!(oracle.executed, oracle.total(), "{ctx}");
            if k != NEAR_IDLE {
                continue;
            }
            // Near idle the cores spin between requests, and sleep
            // through it: a third of the segments ran the reference
            // tick, which executes every core-slot, so the share is read
            // off a plain run of the same class. `run_for` can then jump
            // the whole chip to the next arrival.
            assert!(ticks.slept_spinning > 0, "{ctx}: no core slept spinning");
            let mut idle = ScaleOutChip::new(cfg, class.clone(), 11);
            idle.run_for(6_000);
            let ticks = idle.core_tick_counts();
            assert!(
                ticks.executed * 5 < ticks.total(),
                "{ctx}: {ticks:?} executes 20 % of the core-slots or more"
            );
            assert!(
                ticks.slept_spinning > ticks.slept_stalled,
                "{ctx}: {ticks:?}"
            );
            assert!(idle.skipped_cycles() > 0, "{ctx}: no whole-chip skip");
            let mut stepped = ScaleOutChip::new(cfg, class.clone(), 11);
            (0..6_000).for_each(|_| stepped.tick());
            assert_eq!(
                format!("{:?}", idle.metrics()),
                format!("{:?}", stepped.metrics()),
                "{ctx}: run_for against per-cycle ticking"
            );
        }
    }
}
