//! Workload characterization: run a stream against a standalone core with
//! ideal (fixed-latency) memory and measure the rates that the paper's
//! analysis depends on.
//!
//! This is both a user-facing tool (inspect what a profile actually does
//! before simulating a full chip) and the calibration regression suite:
//! tests pin each workload's L1-I MPKI, data-traffic split and
//! latency-sensitivity knobs so that future edits cannot silently drift
//! from the CloudSuite-derived targets that `profile.rs` documents per
//! profile.

use crate::gen::WorkloadGen;
use crate::profile::WorkloadProfile;
use nocout_cpu::{Core, CoreConfig};
use nocout_mem::protocol::AccessKind;
use nocout_sim::Cycle;

/// Measured rates of one workload stream (per kilo-instruction where
/// noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Characterization {
    /// Instructions retired during the measurement.
    pub instructions: u64,
    /// Cycles taken (with the ideal memory below).
    pub cycles: u64,
    /// L1-I misses per kilo-instruction — the rate of LLC instruction
    /// fetches, the paper's key traffic.
    pub ifetch_mpki: f64,
    /// L1-D misses per kilo-instruction.
    pub data_mpki: f64,
    /// Fraction of cycles with fetch stalled.
    pub fetch_stall_fraction: f64,
}

/// Runs `profile` on a standalone core where every miss is filled after
/// `memory_latency` cycles, and measures its rates over `instructions`.
///
/// # Examples
///
/// ```
/// use nocout_workloads::{characterize::characterize, Workload};
///
/// let c = characterize(&Workload::WebSearch.profile(), 50_000, 20, 1);
/// assert!(c.ifetch_mpki > 5.0, "scale-out workloads miss in L1-I");
/// ```
pub fn characterize(
    profile: &WorkloadProfile,
    instructions: u64,
    memory_latency: u64,
    seed: u64,
) -> Characterization {
    let mut core = Core::new(CoreConfig::a15());
    let mut gen = WorkloadGen::new(*profile, 0, seed);
    core.warm_fill(gen.l1_runs());

    let mut now = Cycle(0);
    let mut pending: Vec<(Cycle, nocout_cpu::MissRequest)> = Vec::new();
    let mut out = Vec::new();
    while core.stats.retired.value() < instructions {
        out.clear();
        core.tick(now, &mut gen, &mut out);
        for r in out.drain(..) {
            pending.push((now + memory_latency, r));
        }
        pending.retain(|(at, r)| {
            if *at <= now {
                match r.kind {
                    AccessKind::InstrFetch => core.fill_ifetch(r.line, now),
                    _ => {
                        core.fill_data(r.line, now);
                    }
                }
                false
            } else {
                true
            }
        });
        now += 1;
        if now.raw() > instructions * 100 {
            break; // safety net for pathological profiles
        }
    }
    let retired = core.stats.retired.value().max(1);
    let kinstr = retired as f64 / 1000.0;
    Characterization {
        instructions: retired,
        cycles: core.stats.cycles.value(),
        ifetch_mpki: core.stats.ifetch_misses.value() as f64 / kinstr,
        data_mpki: core.stats.data_misses.value() as f64 / kinstr,
        fetch_stall_fraction: core.stats.fetch_stall_cycles.value() as f64
            / core.stats.cycles.value().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Workload;

    fn measure(w: Workload) -> Characterization {
        characterize(&w.profile(), 60_000, 25, 7)
    }

    #[test]
    fn all_workloads_have_llc_bound_instruction_streams() {
        // The defining trait (§2.1): instruction footprints miss in the
        // L1-I at a meaningful rate. Bands are wide enough to tolerate
        // re-rolls of the stream but tight enough to catch knob drift.
        for w in Workload::ALL {
            let c = measure(w);
            assert!(
                (8.0..80.0).contains(&c.ifetch_mpki),
                "{w}: ifetch MPKI {:.1} outside the scale-out band",
                c.ifetch_mpki
            );
        }
    }

    #[test]
    fn data_serving_has_the_highest_fetch_pressure() {
        let ds = measure(Workload::DataServing);
        for w in [Workload::SatSolver, Workload::WebFrontend] {
            let o = measure(w);
            assert!(
                ds.ifetch_mpki > o.ifetch_mpki,
                "Data Serving ({:.1}) must out-miss {w} ({:.1})",
                ds.ifetch_mpki,
                o.ifetch_mpki
            );
        }
    }

    #[test]
    fn sat_solver_is_the_most_compute_bound() {
        let sat = measure(Workload::SatSolver);
        for w in Workload::ALL.iter().filter(|&&w| w != Workload::SatSolver) {
            let o = measure(*w);
            assert!(
                sat.ifetch_mpki <= o.ifetch_mpki + 2.0,
                "SAT ({:.1}) should miss least; {w} measured {:.1}",
                sat.ifetch_mpki,
                o.ifetch_mpki
            );
        }
    }

    #[test]
    fn data_misses_stay_moderate() {
        // Most data accesses hit the warmed local set; the rest split
        // between the LLC-resident region and the vast dataset.
        for w in Workload::ALL {
            let c = measure(w);
            assert!(
                (3.0..60.0).contains(&c.data_mpki),
                "{w}: data MPKI {:.1}",
                c.data_mpki
            );
        }
    }

    #[test]
    fn fetch_stalls_dominate_when_memory_slows() {
        // Latency sensitivity: doubling the fill latency must visibly
        // stretch execution (this is the paper's whole premise).
        let p = Workload::DataServing.profile();
        let fast = characterize(&p, 40_000, 15, 3);
        let slow = characterize(&p, 40_000, 45, 3);
        let fast_cpi = fast.cycles as f64 / fast.instructions as f64;
        let slow_cpi = slow.cycles as f64 / slow.instructions as f64;
        assert!(
            slow_cpi > fast_cpi * 1.25,
            "CPI must track fill latency: {fast_cpi:.2} -> {slow_cpi:.2}"
        );
    }

    /// Each profile's numbers as measured before the L1s warmed through
    /// [`Core::warm_fill`] (they warmed line by line then): the warm path
    /// changed how, not what.
    #[test]
    fn characterize_repeats_the_line_by_line_warm_numbers() {
        // (workload, instructions, cycles, ifetch MPKI, data MPKI, fetch stall share)
        #[rustfmt::skip]
        let pinned = [
            (Workload::DataServing, 60000, 141970, 61.21666666666667, 24.883333333333333, 0.6467915756850039),
            (Workload::MapReduceC, 60002, 119137, 31.68227725742475, 46.26512449585014, 0.398910497998103),
            (Workload::MapReduceW, 60000, 134590, 42.7, 45.96666666666667, 0.4757188498402556),
            (Workload::SatSolver, 60001, 75775, 12.366460558990683, 34.03276612056466, 0.24480369515011546),
            (Workload::WebFrontend, 60002, 110024, 29.19902669911003, 40.3819872670911, 0.39787682687413656),
            (Workload::WebSearch, 60002, 74960, 18.499383353888202, 21.799273357554746, 0.3701974386339381),
        ];
        for (w, instructions, cycles, ifetch_mpki, data_mpki, fetch_stall_fraction) in pinned {
            let want = Characterization {
                instructions,
                cycles,
                ifetch_mpki,
                data_mpki,
                fetch_stall_fraction,
            };
            assert_eq!(measure(w), want, "{w}");
        }
    }

    /// A core warmed through the run helper holds exactly the tag arrays
    /// (ways, stamps) that warming line by line leaves — on every
    /// profile, and on a hot and a local set that over-subscribe the
    /// 512-line L1s.
    #[test]
    fn warm_fill_equals_the_per_line_warm() {
        use crate::gen::{l1_warm_runs, INSTR_BASE, PRIVATE_BASE};
        use nocout_mem::addr::{Addr, LINE_BYTES};
        let sizes = Workload::ALL
            .map(|w| w.profile())
            .map(|p| (p.instr_hot_lines as u64, p.local_data_lines as u64));
        for (hot, local) in sizes.into_iter().chain([(1300, 700), (0, 1)]) {
            for core in [0u32, 5, 127] {
                let mut filled = Core::new(CoreConfig::a15());
                filled.warm_fill(l1_warm_runs(core, hot, local));
                let mut looped = Core::new(CoreConfig::a15());
                for i in 0..hot {
                    looped.warm_l1i(Addr(INSTR_BASE + i * LINE_BYTES));
                }
                let base = PRIVATE_BASE + ((core as u64) << 40);
                for i in 0..local {
                    looped.warm_l1d(Addr(base + i * LINE_BYTES));
                }
                assert_eq!(
                    filled.l1i().array(),
                    looped.l1i().array(),
                    "{hot} hot, core {core}"
                );
                assert_eq!(
                    filled.l1d().array(),
                    looped.l1d().array(),
                    "{local} local, core {core}"
                );
            }
        }
    }

    #[test]
    fn characterization_is_deterministic() {
        let p = Workload::MapReduceC.profile();
        assert_eq!(
            characterize(&p, 20_000, 20, 5),
            characterize(&p, 20_000, 20, 5)
        );
    }
}
