//! The event-driven chip tick's contract: active-set scheduling, idle
//! fast-forward, per-core sleep and block-based instruction delivery
//! never change results.
//!
//! `ScaleOutChip::tick` skips sleeping cores (paying the cycles they
//! slept through, stalled or spinning, in bulk at the wake), visits
//! only LLC tiles and memory channels with pending work and feeds every
//! core in instruction *blocks* (one virtual `refill` per 64
//! instructions), and `ScaleOutChip::run_for` jumps over globally idle
//! stretches; all of it must be bit-identical to the full-scan,
//! per-instruction reference (`tick_reference`) across every
//! organization, workload class and script. The twins run on the shared
//! lockstep harness in `tests/common`.

mod common;

use common::{lockstep, TempDir};
use nocout_repro::metrics::TailSummary;
use nocout_repro::prelude::*;
use nocout_repro::substrates::workloads::OpenLoopSpec;

const ALL_ORGS: [Organization; 5] = [
    Organization::Mesh,
    Organization::FlattenedButterfly,
    Organization::NocOut,
    Organization::IdealWire,
    Organization::ZeroLoadMesh,
];

/// One step of a chip script. The chip under test takes the path named;
/// its reference twin runs `tick_reference` for as many cycles.
#[derive(Debug, Clone, Copy)]
enum Seg {
    Tick(u64),
    RunFor(u64),
    Reference(u64),
    /// One more `tick`, which tells whether cores are asleep: fewer
    /// `Core::tick` calls than active cores means the rest slept through
    /// it. With `reset` set, the first probe to see sleepers resets both
    /// twins' statistics, so a reset lands on sleeping cores.
    Probe {
        reset: bool,
    },
    /// `reset_stats` on both twins.
    Reset,
}

/// Runs `seg` on a chip with every path the chip under test may take.
fn advance(chip: &mut ScaleOutChip, seg: Seg) {
    match seg {
        Seg::Tick(n) => (0..n).for_each(|_| chip.tick()),
        Seg::RunFor(n) => chip.run_for(n),
        Seg::Reference(n) => (0..n).for_each(|_| chip.tick_reference()),
        Seg::Probe { .. } => chip.tick(),
        Seg::Reset => chip.reset_stats(),
    }
}

/// The scripts every organization × class runs.
fn scripts() -> [(&'static str, Vec<Seg>); 3] {
    // Any interleaving of the three paths, with `metrics()` read and
    // `reset_stats()` called while cores are asleep. Segment lengths are
    // coprime with the path rotation, so every path runs at every length.
    let mixed = [1u64, 7, 64, 3, 129, 20, 2, 250]
        .iter()
        .cycle()
        .take(40)
        .enumerate()
        .flat_map(|(i, &n)| {
            let seg = [Seg::Tick(n), Seg::RunFor(n), Seg::Reference(n)][i % 3];
            [seg, Seg::Probe { reset: i >= 12 }]
        })
        .collect();
    // Plain ticking from construction, checked every 500 cycles.
    let tick = vec![Seg::Tick(500); 4];
    // A warm-up and a measurement window, as a campaign point runs them.
    let run_for = vec![Seg::RunFor(1_000), Seg::Reset, Seg::RunFor(2_000)];
    [("mixed", mixed), ("tick", tick), ("run_for", run_for)]
}

/// Drives a chip of `org` running `class` and its reference twin
/// through `script`, comparing the clocks, the in-flight messages and
/// transactions and every metric after each step. Returns both chips,
/// how many probes saw sleeping cores and whether a probe reset them.
fn run_script(
    org: Organization,
    class: &WorkloadClass,
    seed: u64,
    script: Vec<Seg>,
    ctx: &str,
) -> (ScaleOutChip, ScaleOutChip, u32, bool) {
    let cfg = ChipConfig::paper(org);
    let build = || ScaleOutChip::new(cfg, class.clone(), seed);
    let (mut asleep_samples, mut reset_now, mut reset_done) = (0, false, false);
    let [fast, reference] = lockstep(
        [build(), build()],
        script,
        |chip, k, &seg| match (k, seg) {
            (0, Seg::Probe { reset }) => {
                let executed = chip.core_tick_counts().executed;
                chip.tick();
                let asleep =
                    chip.core_tick_counts().executed - executed < chip.active_cores() as u64;
                asleep_samples += asleep as u32;
                reset_now = reset && asleep && !reset_done;
                if reset_now {
                    chip.reset_stats();
                }
            }
            (0, seg) => advance(chip, seg),
            (_, Seg::Probe { .. }) => {
                chip.tick_reference();
                if reset_now {
                    chip.reset_stats();
                    reset_done = true;
                }
            }
            (_, Seg::Tick(n) | Seg::RunFor(n)) => advance(chip, Seg::Reference(n)),
            (_, seg) => advance(chip, seg),
        },
        |chip| {
            let inflight = (chip.inflight_messages(), chip.inflight_transactions());
            (chip.now(), inflight, chip.metrics())
        },
        ctx,
    );
    (fast, reference, asleep_samples, reset_done)
}

/// Per-core sleep, the active sets, block delivery and idle fast-forward
/// never change results: on every organization and every kind of
/// instruction source — closed-loop synthetic, open-loop from near idle
/// (where cores sleep spinning between requests) to past the mesh's knee,
/// and trace replay — the chip under test matches a reference that ticks
/// every core and component every cycle, under every script.
#[test]
fn sleeping_cores_are_bit_identical_to_reference() {
    // Replay opens the stream files per chip build: the directory lives
    // until the test ends.
    let trace_dir = TempDir::new("sleep-lockstep");
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
    const NEAR_IDLE: usize = 6;
    let classes: [(WorkloadClass, u64); 10] = [
        (Workload::DataServing.into(), 7),
        (Workload::SatSolver.into(), 13),
        (Workload::WebSearch.into(), 1),
        (Workload::MapReduceW.into(), 5),
        (Workload::MapReduceC.into(), 3),
        (Workload::WebFrontend.into(), 9),
        (open_loop(1_600), 11),
        (open_loop(200), 11),
        (open_loop(50), 11),
        (trace.into(), 11),
    ];
    // One thread per organization: the sweep is the suite's longest
    // test, and the organizations are independent.
    std::thread::scope(|s| {
        for org in ALL_ORGS {
            let classes = &classes;
            s.spawn(move || {
                for (k, (class, seed)) in classes.iter().enumerate() {
                    for (name, script) in scripts() {
                        let ctx = format!("{org} class {k} seed {seed} {name}");
                        let (mut fast, mut reference, asleep_samples, reset_done) =
                            run_script(org, class, *seed, script, &ctx);
                        let ticks = fast.core_tick_counts();
                        let active = fast.active_cores() as u64;
                        assert_eq!(ticks.total(), active * fast.now().raw(), "{ctx}");
                        // The oracle never sleeps.
                        let oracle = reference.core_tick_counts();
                        assert_eq!(oracle.executed, oracle.total(), "{ctx}");
                        match name {
                            "mixed" => {
                                assert!(reset_done, "{ctx}: no reset landed on a sleeping core");
                                assert!(
                                    asleep_samples >= 10,
                                    "{ctx}: only {asleep_samples} samples saw sleepers"
                                );
                            }
                            // Near idle the cores spin between requests
                            // and sleep through it, and `run_for` jumps
                            // the whole chip to the next arrival.
                            "run_for" if k == NEAR_IDLE => {
                                assert!(
                                    ticks.executed * 5 < ticks.total(),
                                    "{ctx}: {ticks:?} executes 20 % of the core-slots or more"
                                );
                                assert!(
                                    ticks.slept_spinning > ticks.slept_stalled,
                                    "{ctx}: {ticks:?}"
                                );
                                assert!(fast.skipped_cycles() > 0, "{ctx}: no whole-chip skip");
                            }
                            _ => {}
                        }
                    }
                }
            });
        }
    });
}

/// Service-level tail recording is purely observational: a run with
/// recording disabled matches one with it enabled (the default) in every
/// metric but the three summaries recording gates. The tail histograms
/// may only ever *read* the simulation — never touch RNG draws, event
/// order, or arbitration state.
#[test]
fn tail_recording_does_not_perturb_simulation() {
    for org in [Organization::Mesh, Organization::NocOut] {
        for (workload, seed) in [(Workload::WebSearch, 1u64), (Workload::DataServing, 7)] {
            let ctx = format!("{org} {workload:?} seed {seed}");
            let cfg = ChipConfig::paper(org);
            let mut silent = ScaleOutChip::new(cfg, workload, seed);
            silent.set_tail_recording(false);
            let [mut recording, mut silent] = lockstep(
                [ScaleOutChip::new(cfg, workload, seed), silent],
                [Seg::RunFor(2_000), Seg::Reset, Seg::RunFor(6_000)],
                |chip, _, &seg| advance(chip, seg),
                |chip| SystemMetrics {
                    block_latency: TailSummary::default(),
                    fill_latency: TailSummary::default(),
                    llc_miss_latency: TailSummary::default(),
                    ..chip.metrics()
                },
                &ctx,
            );
            let (rm, sm) = (recording.metrics(), silent.metrics());
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
