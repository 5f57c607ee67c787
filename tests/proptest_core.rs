//! Property-based differential tests for the core memory-path
//! structures: the ring-buffer ROB + line-indexed wakeup index against a
//! `VecDeque` model of the pre-refactor ROB, and the array-backed L1
//! MSHR file against a `HashMap` model of the pre-refactor MSHRs.
//!
//! These are the structure-level halves of the old-vs-new proof (the
//! chip-level half is `tests/chip_golden_metrics.rs`): every operation
//! sequence must leave the new structures observably identical to the
//! containers they replaced.
//!
//! The last section drives one core as twins on the lockstep harness of
//! `tests/common`: block-fed ticking against per-instruction ticking, and
//! the core's bulk accounting of skipped ticks — the one function the
//! chip's per-core sleep rests on — against dense ticking, for stalled
//! cores and for cores spinning on an idle source.

mod common;

use common::{lockstep, same};
use nocout_repro::substrates::cpu::model::{Core, CoreConfig, CoreIdle, MissRequest};
use nocout_repro::substrates::cpu::rob::{RingRob, WakeupIndex};
use nocout_repro::substrates::cpu::source::{
    FetchedInstr, GappedSource, InstructionSource, Op, ScriptedSource,
};
use nocout_repro::substrates::mem::addr::Addr;
use nocout_repro::substrates::mem::l1::{L1Access, L1Cache, L1Config};
use nocout_repro::substrates::mem::protocol::AccessKind;
use nocout_repro::substrates::sim::Cycle;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// The pre-refactor ROB entry: `VecDeque<RobState>` semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelEntry {
    Ready(u64),
    Waiting(u64),
}

const ROB_CAP: usize = 16;

/// One scripted ROB operation (decoded from proptest-generated tuples).
#[derive(Debug, Clone, Copy)]
enum RobOp {
    /// Push a ready entry completing at the cycle.
    PushReady(u64),
    /// Push an entry waiting on the line.
    PushWaiting(u64),
    /// Retire the head if it is ready at the cycle.
    TryPop(u64),
    /// Fill the line, waking its waiters ready at the cycle.
    Fill(u64, u64),
}

fn decode(kind: u8, line: u64, at: u64) -> RobOp {
    match kind % 4 {
        0 => RobOp::PushReady(at),
        1 => RobOp::PushWaiting(line),
        2 => RobOp::TryPop(at),
        _ => RobOp::Fill(line, at),
    }
}

/// A source the driver can tell the time: open-loop-shaped sources take
/// their arrivals from it, closed-loop ones ignore it.
trait Clocked: InstructionSource {
    fn advance_to(&mut self, _now: u64) {}
}

impl Clocked for ScriptedSource {}

impl Clocked for GappedSource {
    fn advance_to(&mut self, now: u64) {
        GappedSource::advance_to(self, now);
    }
}

/// How a [`DrivenCore`] ticks its core.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    /// A block-fed `Core::tick` every cycle.
    Dense,
    /// The way the chip's sleep set drives a core: after a real tick that
    /// leaves `idle_state()` non-`Busy` the core is not ticked again until
    /// its wake cycle or a fill, and `fast_forward` pays the gap.
    Sleepy,
    /// The per-instruction `Core::tick_reference` every cycle.
    Reference,
    /// `Core::tick` and `Core::tick_reference` alternating every 97
    /// cycles, so each takes over from the other mid-block.
    Mixed,
}

/// One core, its source, and the fills its misses have coming, ticked
/// the way its [`Drive`] says.
struct DrivenCore<S> {
    core: Core,
    src: S,
    drive: Drive,
    /// `(due cycle, request)` in issue order.
    pending: Vec<(u64, MissRequest)>,
    /// Every request with its issue cycle.
    log: Vec<(u64, MissRequest)>,
    /// While asleep: (first unpaid cycle, wake cycle).
    asleep: Option<(u64, u64)>,
    /// Sleeps begun, split by state: fetch stalled, otherwise blocked,
    /// spinning.
    sleeps_fetch: u32,
    sleeps_backend: u32,
    sleeps_spinning: u32,
}

impl DrivenCore<ScriptedSource> {
    fn new(script: Vec<FetchedInstr>, drive: Drive) -> Self {
        DrivenCore::on(ScriptedSource::new(script), drive)
    }
}

impl<S: Clocked> DrivenCore<S> {
    fn on(src: S, drive: Drive) -> Self {
        DrivenCore {
            core: Core::new(CoreConfig::a15()),
            src,
            drive,
            pending: Vec::new(),
            log: Vec::new(),
            asleep: None,
            sleeps_fetch: 0,
            sleeps_backend: 0,
            sleeps_spinning: 0,
        }
    }

    /// The core's classification after its tick at `t`.
    fn idle_after(&self, t: u64) -> CoreIdle {
        self.core.idle_state(Cycle(t), &self.src)
    }

    /// Pays the cycles `since..upto` the core slept through.
    fn wake(&mut self, upto: u64) {
        if let Some((since, _)) = self.asleep.take() {
            self.core.fast_forward(Cycle(since), upto - since);
        }
    }

    /// One cycle in the chip's order: the core's tick, then the fills
    /// due this cycle. `latency[k]` is the k-th request's fill latency.
    fn step(&mut self, t: u64, latency: &[u64]) {
        if self.asleep.is_some_and(|(_, wake_at)| wake_at <= t) {
            self.wake(t);
        }
        if self.asleep.is_none() {
            // As in the chip, only a core about to tick is told the time.
            self.src.advance_to(t);
            let mut out = Vec::new();
            match self.drive {
                Drive::Reference => self.core.tick_reference(Cycle(t), &mut self.src, &mut out),
                Drive::Mixed if (t / 97) % 2 == 1 => {
                    self.core.tick_reference(Cycle(t), &mut self.src, &mut out)
                }
                _ => self.core.tick(Cycle(t), &mut self.src, &mut out),
            }
            for r in out {
                self.pending
                    .push((t + latency[self.log.len() % latency.len()], r));
                self.log.push((t, r));
            }
            let idle = self.idle_after(t);
            let wake_at = match idle {
                CoreIdle::Busy => 0,
                CoreIdle::Stalled => u64::MAX,
                CoreIdle::StalledUntil(at) | CoreIdle::SpinningUntil(at) => at.raw(),
            };
            if self.drive == Drive::Sleepy && wake_at > t + 1 {
                self.asleep = Some((t + 1, wake_at));
                if matches!(idle, CoreIdle::SpinningUntil(_)) {
                    self.sleeps_spinning += 1;
                } else if self.core.fetch_stalled() {
                    self.sleeps_fetch += 1;
                } else {
                    self.sleeps_backend += 1;
                }
            }
        }
        while let Some(i) = self.pending.iter().position(|(due, _)| *due <= t) {
            let (_, r) = self.pending.remove(i);
            // The sleeper's tick for `t` was skipped: pay it before the
            // fill changes what a stalled tick counts.
            self.wake(t + 1);
            match r.kind {
                AccessKind::InstrFetch => self.core.fill_ifetch(r.line, Cycle(t)),
                _ => {
                    self.core.fill_data(r.line, Cycle(t));
                }
            }
        }
    }
}

/// The `Debug` rendering of `core` — all of it, or all but the
/// instruction block: only the block path fills the block, so a twin fed
/// one instruction at a time agrees on everything else.
fn rendering(core: &Core, with_block: bool) -> String {
    let s = format!("{core:?}");
    if with_block {
        return s;
    }
    let start = s
        .find("block: InstrBlock")
        .expect("a Core renders its block");
    let mut depth = 0;
    for (i, c) in s[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return format!("{}{}", &s[..start], &s[start + i + 1..]),
            '}' => depth -= 1,
            _ => {}
        }
    }
    unreachable!("unbalanced Core rendering")
}

/// Drives the twins `make(under)` and `make(reference)` for `cycles` on
/// the lockstep harness, checking every 100 cycles that they have issued
/// as many requests, the last at the same cycle; at the end, with the
/// sleepers paid, the whole miss streams and the whole cores must agree
/// — every counter, the ROB (stale slots included), the staged
/// instruction, the instruction block (unless one twin ticks per
/// instruction), both L1s. Returns the twin under test for the caller to
/// check which states it slept in.
fn assert_twins_agree<S: Clocked>(
    make: impl Fn(Drive) -> DrivenCore<S>,
    [under, reference]: [Drive; 2],
    latency: &[u64],
    cycles: u64,
) -> DrivenCore<S> {
    let ctx = format!("{under:?} against {reference:?}");
    let checkpoints = (0..cycles).step_by(100).map(|t| t..(t + 100).min(cycles));
    let twins = lockstep(
        [make(under), make(reference)],
        checkpoints,
        |d, _, cycles| cycles.clone().for_each(|t| d.step(t, latency)),
        |d| (d.log.len(), d.log.last().copied()),
        &ctx,
    );
    let [mut under, mut reference] = twins;
    under.wake(cycles);
    reference.wake(cycles);
    same(
        &under.log,
        &reference.log,
        format_args!("{ctx}: miss streams"),
    );
    let with_block = ![under.drive, reference.drive].contains(&Drive::Reference);
    same(
        &rendering(&under.core, with_block),
        &rendering(&reference.core, with_block),
        format_args!("{ctx}: cores"),
    );
    under
}

/// [`assert_twins_agree`] with a sleepy and a dense twin on a closed-loop
/// script.
fn assert_sleep_equals_dense(
    script: Vec<FetchedInstr>,
    latency: &[u64],
    cycles: u64,
) -> DrivenCore<ScriptedSource> {
    let make = |drive| DrivenCore::new(script.clone(), drive);
    assert_twins_agree(make, [Drive::Sleepy, Drive::Dense], latency, cycles)
}

fn alu(line: u64, latency: u8) -> FetchedInstr {
    FetchedInstr {
        fetch_line: Addr(line * 64),
        op: Op::Alu { latency },
    }
}

fn load(line: u64, addr: u64, dependent: bool) -> FetchedInstr {
    FetchedInstr {
        fetch_line: Addr(line * 64),
        op: Op::Load {
            addr: Addr(0x10_0000 + addr),
            dependent,
        },
    }
}

/// A script from random `(fetch line, kind, address, dependent, ALU
/// latency)` tuples: ALU ops, loads (sub-line offsets merge onto one MSHR,
/// the LSQ-full path), line-strided loads and stores.
fn random_script(ops: &[(u64, u8, u64, bool, u8)]) -> Vec<FetchedInstr> {
    ops.iter()
        .map(|&(line, kind, a, dependent, lat)| match kind {
            0 | 1 => alu(line, lat),
            2 | 3 => load(line, (a % 4) * 64 + a, dependent),
            4 => load(line, a * 64, false),
            _ => FetchedInstr {
                fetch_line: Addr(line * 64),
                op: Op::Store {
                    addr: Addr(0x20_0000 + a * 64),
                },
            },
        })
        .collect()
}

/// A looping stream with fetch-line transitions, loads, stores and
/// mixed ALU latencies: enough structure to exercise stalls, fills and
/// block refill boundaries.
fn varied_script() -> Vec<FetchedInstr> {
    (0..23u64)
        .map(|i| match i % 5 {
            0 => alu(i / 4, 1),
            1 => alu(i / 4, 3),
            2 => load(i / 4, 0x2_0000 + (i % 11) * 64, i % 2 == 0),
            3 => FetchedInstr {
                fetch_line: Addr((i / 4) * 64),
                op: Op::Store {
                    addr: Addr(0x5_0000 + (i % 7) * 64),
                },
            },
            _ => load(i / 4, 0x6_0000 + i * 64, false),
        })
        .collect()
}

/// Block-fed ticking consumes the stream exactly as per-instruction
/// ticking does: the same requests at the same cycles, the same core.
#[test]
fn block_tick_is_bit_identical_to_per_instruction_reference() {
    let make = |drive| DrivenCore::new(varied_script(), drive);
    assert_twins_agree(make, [Drive::Dense, Drive::Reference], &[18], 3_000);
}

/// Alternating between block and per-instruction ticking mid-run
/// consumes exactly the same sequence: the reference path drains the
/// block's buffered instructions before touching the source again.
#[test]
fn mixed_tick_flavours_preserve_the_stream() {
    let make = |drive| DrivenCore::new(varied_script(), drive);
    assert_twins_agree(make, [Drive::Mixed, Drive::Reference], &[18], 3_000);
}

/// Fetch stall with an empty ROB: `Stalled`, woken by the fill only.
#[test]
fn sleep_in_fetch_stall_equals_dense() {
    let s = assert_sleep_equals_dense(vec![alu(0, 1), alu(1, 1), alu(2, 1)], &[40], 400);
    assert!(s.sleeps_fetch > 0 && s.sleeps_backend == 0);
}

/// Fetch stall behind a long ALU op: `StalledUntil`, and the timer lands
/// the fast-forward exactly on the cycle the head retires (the fill
/// comes much later).
#[test]
fn sleep_until_rob_head_completes_lands_on_the_wake_cycle() {
    let script = vec![alu(0, 9), alu(1, 1)];
    let mut probe = DrivenCore::new(script.clone(), Drive::Sleepy);
    probe.step(0, &[2, 300]);
    probe.step(1, &[2, 300]);
    probe.step(2, &[2, 300]);
    probe.step(3, &[2, 300]);
    // Dispatched the latency-9 op at cycle 3 and stalled on line 1.
    assert_eq!(probe.idle_after(3), CoreIdle::StalledUntil(Cycle(12)));
    assert_eq!(probe.asleep, Some((4, 12)));
    let s = assert_sleep_equals_dense(script, &[2, 300], 700);
    assert!(s.sleeps_fetch > 0);
}

/// ROB full behind a load that misses for a long time.
#[test]
fn sleep_with_full_rob_equals_dense() {
    let mut script = vec![load(0, 0, false)];
    script.extend((0..70).map(|_| alu(0, 1)));
    let mut probe = DrivenCore::new(script.clone(), Drive::Sleepy);
    // Every miss, the first fetch included, fills after 500 cycles.
    (0..540).for_each(|t| probe.step(t, &[500]));
    assert!(!probe.core.fetch_stalled());
    assert_eq!(
        probe.idle_after(539),
        CoreIdle::Stalled,
        "ROB full, head waiting"
    );
    let s = assert_sleep_equals_dense(script, &[500], 2_500);
    assert!(s.sleeps_backend > 0);
}

/// A dependent load staged behind an outstanding miss.
#[test]
fn sleep_on_dependent_load_equals_dense() {
    let script = vec![load(0, 0, false), alu(0, 2), load(0, 64, true), alu(0, 1)];
    let mut probe = DrivenCore::new(script.clone(), Drive::Sleepy);
    (0..96).for_each(|t| probe.step(t, &[90]));
    assert!(!probe.core.fetch_stalled());
    assert_eq!(probe.core.outstanding_data_misses(), 1);
    assert_eq!(probe.idle_after(95), CoreIdle::Stalled);
    let s = assert_sleep_equals_dense(script, &[90], 1_000);
    assert!(s.sleeps_backend > 0);
}

/// The LSQ full: 16 loads merged onto two missing lines, a store staged.
#[test]
fn sleep_with_full_lsq_equals_dense() {
    let mut script: Vec<FetchedInstr> = (0..16)
        .map(|i| load(0, (i % 2) * 64 + i * 2, false))
        .collect();
    script.push(FetchedInstr {
        fetch_line: Addr(0),
        op: Op::Store {
            addr: Addr(0x20_0000),
        },
    });
    let mut probe = DrivenCore::new(script.clone(), Drive::Sleepy);
    (0..132).for_each(|t| probe.step(t, &[120]));
    assert!(!probe.core.fetch_stalled());
    assert_eq!(probe.core.outstanding_data_misses(), 16);
    assert_eq!(probe.idle_after(131), CoreIdle::Stalled);
    let s = assert_sleep_equals_dense(script, &[120], 1_000);
    assert!(s.sleeps_backend > 0);
}

/// A source with idle gaps takes one core through all three sleeps: the
/// first filler misses in the cold L1-I (fetch stall), the spin settles
/// until the first arrival, the request's load misses behind a full
/// ROB... and the next gap spins again at whatever occupancy that left.
#[test]
fn gapped_source_crosses_stalled_spinning_and_serving() {
    let script = vec![load(3, 0, false), alu(3, 2), load(3, 64, true), alu(3, 1)];
    let make = |drive| {
        DrivenCore::on(
            GappedSource::new(script.clone(), Addr(3 * 64), 40, vec![120, 700, 90]),
            drive,
        )
    };
    let s = assert_twins_agree(make, [Drive::Sleepy, Drive::Dense], &[25, 140], 4_000);
    assert!(s.sleeps_fetch > 0, "cold filler line");
    assert!(s.sleeps_backend > 0, "dependent load behind a miss");
    assert!(
        s.sleeps_spinning >= 3,
        "one spin per gap, {}",
        s.sleeps_spinning
    );
    assert!(s.src.started() >= 10, "requests were served");
}

/// A staged access the L1 refuses for want of an MSHR retries every
/// cycle (each retry counts into `L1Cache::blocked`), so the core is
/// `Busy` and never sleeps in that state.
#[test]
fn l1_mshr_blocked_retry_stays_busy() {
    let script: Vec<FetchedInstr> = (0..9).map(|i| load(0, i * 64, false)).collect();
    let mut probe = DrivenCore::new(script, Drive::Sleepy);
    (0..112).for_each(|t| probe.step(t, &[100]));
    assert_eq!(probe.core.outstanding_data_misses(), 8);
    assert_eq!(probe.idle_after(111), CoreIdle::Busy);
    let blocked = probe.core.l1d().blocked.value();
    probe.step(112, &[100]);
    assert_eq!(probe.core.l1d().blocked.value(), blocked + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_rob_matches_vecdeque_model(
        ops in prop::collection::vec((0u8..4, 0u64..6, 1u64..1000), 1..300)
    ) {
        let mut rob = RingRob::new(ROB_CAP);
        let mut wakeup = WakeupIndex::new(8);
        let mut model: VecDeque<ModelEntry> = VecDeque::new();
        for &(kind, line, at) in &ops {
            match decode(kind, line, at) {
                RobOp::PushReady(at) => {
                    if model.len() < ROB_CAP {
                        model.push_back(ModelEntry::Ready(at));
                        rob.push_ready(Cycle(at));
                    }
                }
                RobOp::PushWaiting(line) => {
                    if model.len() < ROB_CAP {
                        model.push_back(ModelEntry::Waiting(line));
                        let slot = rob.push_waiting();
                        wakeup.enqueue(line, slot, &mut rob);
                    }
                }
                RobOp::TryPop(now) => {
                    let model_pops = matches!(
                        model.front(),
                        Some(ModelEntry::Ready(a)) if *a <= now
                    );
                    let ring_pops = rob
                        .front()
                        .is_some_and(|s| s.retirable(Cycle(now)));
                    prop_assert_eq!(model_pops, ring_pops);
                    if model_pops {
                        model.pop_front();
                        rob.pop_front();
                    }
                }
                RobOp::Fill(line, at) => {
                    // Pre-refactor semantics: scan every entry, waking
                    // each one waiting on the line.
                    let mut model_woken = 0usize;
                    for e in &mut model {
                        if *e == ModelEntry::Waiting(line) {
                            *e = ModelEntry::Ready(at);
                            model_woken += 1;
                        }
                    }
                    let ring_woken = wakeup.wake_line(line, Cycle(at), &mut rob);
                    prop_assert_eq!(model_woken, ring_woken);
                }
            }
            // Invariants after every op.
            prop_assert_eq!(model.len(), rob.len());
            let model_waiting = model
                .iter()
                .filter(|e| matches!(e, ModelEntry::Waiting(_)))
                .count();
            prop_assert_eq!(model_waiting, wakeup.waiting());
            match (model.front(), rob.front()) {
                (None, None) => {}
                (Some(ModelEntry::Waiting(_)), Some(s)) => prop_assert!(s.is_waiting()),
                (Some(ModelEntry::Ready(a)), Some(s)) => {
                    prop_assert!(!s.is_waiting());
                    prop_assert_eq!(Cycle(*a), s.ready_at());
                }
                (m, _) => prop_assert!(false, "front mismatch: model {m:?}"),
            }
        }
    }

    #[test]
    fn array_mshrs_match_hashmap_model(
        ops in prop::collection::vec((0u8..3, 0u64..12, any::<bool>()), 1..300)
    ) {
        // The MSHR file through the L1's admission rule. A fill is
        // invalidated at once, so the tag array never holds a line and
        // every request reaches the MSHRs.
        const CAP: usize = 8;
        let mut l1 = L1Cache::new(L1Config { mshr_capacity: CAP, ..L1Config::a15() });
        // The pre-refactor structure: line → (waiters, wants_write).
        let mut model: HashMap<u64, (Vec<u64>, bool)> = HashMap::new();
        let mut next_waiter = 0u64;
        let mut scratch = Vec::new();
        for &(kind, line, write) in &ops {
            let addr = Addr(line * 64);
            if kind < 2 {
                // Request (twice as likely as release, so files fill up).
                let waiter = next_waiter;
                next_waiter += 1;
                let expect = if let Some(e) = model.get_mut(&line) {
                    e.0.push(waiter);
                    e.1 |= write;
                    L1Access::MergedMiss
                } else if model.len() >= CAP {
                    L1Access::Blocked
                } else {
                    model.insert(line, (vec![waiter], write));
                    L1Access::Miss
                };
                prop_assert_eq!(l1.access(addr, write, waiter), expect);
            } else if let Some((waiters, wants_write)) = model.remove(&line) {
                scratch.clear();
                prop_assert!(l1.fill(addr, false, &mut scratch).is_none());
                prop_assert_eq!(&scratch, &waiters, "waiter order must be push order");
                // The wants-write bit comes back as the installed line's
                // dirty bit.
                prop_assert_eq!(l1.snoop_invalidate(addr), (true, wants_write));
            } else {
                // No outstanding miss: a fill would panic in both
                // implementations; just check membership agrees.
                prop_assert!(!l1.miss_pending(addr));
            }
            prop_assert_eq!(l1.outstanding_misses(), model.len());
            for l in model.keys() {
                prop_assert!(l1.miss_pending(Addr(l * 64)));
            }
        }
    }

    // Sleeping through every non-`Busy` stretch — whatever blocked
    // state a random script and random fill times reach — leaves the
    // core exactly where dense ticking does.
    #[test]
    fn sleeping_core_matches_dense_ticking(
        ops in prop::collection::vec((0u64..5, 0u8..6, 0u64..10, any::<bool>(), 1u8..7), 1..90),
        latency in prop::collection::vec(1u64..180, 1..12),
    ) {
        assert_sleep_equals_dense(random_script(&ops), &latency, 1_200);
    }

    // Block-fed ticking, alone and taking turns with per-instruction
    // ticking, consumes a random script exactly as per-instruction
    // ticking does, whatever stalls and fill times it meets.
    #[test]
    fn block_tick_matches_per_instruction_reference_on_random_scripts(
        ops in prop::collection::vec((0u64..5, 0u8..6, 0u64..10, any::<bool>(), 1u8..7), 1..90),
        latency in prop::collection::vec(1u64..180, 1..12),
    ) {
        let script = random_script(&ops);
        let make = |drive| DrivenCore::new(script.clone(), drive);
        for under in [Drive::Dense, Drive::Mixed] {
            assert_twins_agree(make, [under, Drive::Reference], &latency, 1_200);
        }
    }

    // The same with idle gaps: requests of a random script arrive on a
    // random schedule, so the twins cross stalled, spinning and serving
    // in whatever order that produces — spins at any ROB occupancy, cut
    // short by arrivals, entered with misses still in flight.
    #[test]
    fn sleeping_core_matches_dense_ticking_across_idle_gaps(
        ops in prop::collection::vec((0u64..5, 0u8..6, 0u64..10, any::<bool>(), 1u8..40), 1..60),
        latency in prop::collection::vec(1u64..180, 1..12),
        burst in 1u32..90,
        gaps in prop::collection::vec(1u64..400, 1..6),
        filler_line in 0u64..6,
    ) {
        let script = random_script(&ops);
        let make = |drive| {
            DrivenCore::on(
                GappedSource::new(script.clone(), Addr(filler_line * 64), burst, gaps.clone()),
                drive,
            )
        };
        assert_twins_agree(make, [Drive::Sleepy, Drive::Dense], &latency, 2_500);
    }
}
