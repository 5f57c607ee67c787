//! Property-based differential tests for the uncore hot-path
//! structures: the MSHR file, driven by the LLC tile's rule, against the
//! `HashMap` it replaced, the shared calendar wheel (`EventWheel`, behind
//! the network, the analytic fabrics and the LLC tile's output stage)
//! against the `(due, seq)` `BinaryHeap` it replaced, the LLC slice's
//! folded directory against a per-line `HashMap` model, and the generic `Ring`
//! against `VecDeque`.
//!
//! These are the structure-level halves of the old-vs-new proof (the
//! chip-level half is `tests/chip_golden_metrics.rs`): every operation
//! sequence must leave the new structures observably identical to the
//! containers they replaced — including pop order, merge semantics and
//! same-cycle tiebreaks.

use nocout_repro::substrates::mem::addr::Addr;
use nocout_repro::substrates::mem::cache::CacheGeometry;
use nocout_repro::substrates::mem::directory::{DirState, LlcSlice, SharerSet};
use nocout_repro::substrates::mem::llc::LlcWaiter;
use nocout_repro::substrates::mem::mshr::MshrFile;
use nocout_repro::substrates::mem::protocol::{CoreId, MshrId, RequestKind, TxnId};
use nocout_repro::substrates::sim::ring::Ring;
use nocout_repro::substrates::sim::wheel::EventWheel;
use nocout_repro::substrates::sim::Cycle;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// The pre-refactor tile MSHR entry: what the `HashMap<u64, TileMshr>`
/// tracked per line.
#[derive(Debug, Clone)]
struct MshrModel {
    acks: u32,
    mem: bool,
    waiters: Vec<LlcWaiter>,
    id: MshrId,
}

fn waiter(n: u32) -> LlcWaiter {
    let kind = if n.is_multiple_of(3) {
        RequestKind::GetX
    } else {
        RequestKind::GetS
    };
    (TxnId(n), CoreId((n % 4) as u16), kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tile_mshr_file_matches_hashmap_model(
        ops in prop::collection::vec((0u8..4, 0u64..10, any::<bool>(), 0u32..3), 1..300)
    ) {
        // The MSHR file through the tile's rule, with the tile's record
        // (pending acks, pending memory data): it never asks for room, and
        // a capacity below the line space exercises the growth path (the
        // HashMap it replaced never refused an allocation).
        let mut file: MshrFile<LlcWaiter, (u32, bool)> = MshrFile::new(4);
        let mut model: HashMap<u64, MshrModel> = HashMap::new();
        let mut stale: Vec<MshrId> = vec![MshrId(777)];
        let mut next_waiter = 0u32;
        let mut scratch = Vec::new();
        for &(kind, line, flag, acks) in &ops {
            // An ack (kind 1) or memory data (kind 2) for the line's entry,
            // if it waits for one: the record's update, and whether the
            // entry is complete.
            let finished = match (kind, model.get_mut(&line)) {
                (0, Some(e)) => {
                    // Request arrival merging into the in-flight entry.
                    let w = waiter(next_waiter);
                    next_waiter += 1;
                    prop_assert_eq!(file.lookup(line), Some(e.id), "merge must find the allocation's id");
                    prop_assert!(file.merge(line, w).is_some());
                    e.waiters.push(w);
                    false
                }
                (0, None) => {
                    let w = waiter(next_waiter);
                    next_waiter += 1;
                    prop_assert!(file.merge(line, w).is_none());
                    let id = file.alloc(line, (acks, flag), w);
                    model.insert(line, MshrModel { acks, mem: flag, waiters: vec![w], id });
                    false
                }
                (1, Some(e)) if e.acks > 0 => {
                    let (l, rec) = file.get_mut(e.id).expect("live entry");
                    prop_assert_eq!((l, *rec), (line, (e.acks, e.mem)));
                    rec.0 -= 1;
                    e.acks -= 1;
                    e.acks == 0 && !e.mem
                }
                (2, Some(e)) if e.mem => {
                    let (l, rec) = file.get_mut(e.id).expect("live entry");
                    prop_assert_eq!((l, *rec), (line, (e.acks, e.mem)));
                    rec.1 = false;
                    e.mem = false;
                    e.acks == 0
                }
                (3, _) => {
                    // A stale or foreign id (a message still in flight
                    // after its entry completed) must resolve to nothing,
                    // exactly as a missing HashMap key did.
                    let id = stale[(line as usize) % stale.len()];
                    prop_assert_eq!(file.get_mut(id), None);
                    false
                }
                _ => false,
            };
            if finished {
                let e = model.remove(&line).expect("finished entry exists");
                scratch.clear();
                prop_assert_eq!(file.release(e.id, &mut scratch), (line, (0, false)));
                prop_assert_eq!(&scratch, &e.waiters, "waiter order must be merge order");
                prop_assert_eq!(file.get_mut(e.id), None, "a released id goes stale");
                stale.push(e.id);
            }
            // Invariants after every op.
            prop_assert_eq!(file.len(), model.len());
            for (l, e) in &model {
                prop_assert_eq!(file.lookup(*l), Some(e.id));
                prop_assert_eq!(file.get_mut(e.id).map(|(l, _)| l), Some(*l));
            }
        }
    }

    #[test]
    fn event_wheel_matches_heap_model(
        ops in prop::collection::vec((0u8..4, 0u64..13, 0u64..16), 1..300)
    ) {
        // Four slots against pushes up to 12 cycles ahead, so growth
        // re-buckets pending events mid-run.
        let mut wheel: EventWheel<u64> = EventWheel::with_slots(4);
        // The comparison heap the wheels replaced: `(due, seq)`, seq being
        // push order, which is the tiebreak for same-cycle events.
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut drained = Vec::new();
        for &(kind, ahead, jump) in &ops {
            match kind {
                0 | 1 => {
                    wheel.push(Cycle(now), Cycle(now + ahead), seq);
                    heap.push(Reverse((now + ahead, seq)));
                    seq += 1;
                }
                2 => {
                    // Drain this cycle, then step to the next one.
                    wheel.drain_into(Cycle(now), &mut drained);
                    let mut due = Vec::new();
                    while let Some(&Reverse((at, s))) = heap.peek() {
                        prop_assert!(at >= now, "the model holds an event due at {} < {}", at, now);
                        if at > now {
                            break;
                        }
                        due.push(s);
                        heap.pop();
                    }
                    prop_assert_eq!(&drained, &due, "drain at now={} diverged", now);
                    now += 1;
                }
                _ => {
                    // Skip idle cycles: any distance up to the next
                    // occupied slot, never past it.
                    now += match wheel.next_occupied_delta(Cycle(now)) {
                        Some(d) => jump.min(d),
                        None => jump,
                    };
                }
            }
            // Invariants after every op.
            prop_assert_eq!(wheel.pending(), heap.len());
            prop_assert_eq!(
                wheel.next_occupied_delta(Cycle(now)).map(|d| now + d),
                heap.peek().map(|&Reverse((at, _))| at)
            );
        }
    }

    #[test]
    fn set_associative_directory_matches_hashmap_model(
        ops in prop::collection::vec((0u8..5, 0u64..24, 0u16..6), 1..300)
    ) {
        // A tiny slice (4 sets × 2 ways) under a 24-line space keeps most
        // tracked lines out of the slice, in the side list, the path a
        // full-size slice takes rarely; fills move side-list state into
        // ways and evict lines with theirs.
        let mut dir = LlcSlice::new(CacheGeometry {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
        });
        let mut model: HashMap<u64, DirState> = HashMap::new();
        // Every case opens on line 0 (stored as tag 1: zero is a free
        // way) resident and tracked, with three more lines of its set
        // tracked, so the random ops always start from a populated side
        // list.
        let opening = [(4, 0, 0), (0, 0, 0), (1, 4, 1), (0, 8, 2), (0, 12, 3)];
        for &(kind, line, core) in opening.iter().chain(&ops) {
            let addr = Addr(line * 64);
            let core = CoreId(core);
            match kind {
                0 => {
                    dir.add_sharer(addr, core);
                    model
                        .entry(line)
                        .and_modify(|st| {
                            *st = match *st {
                                DirState::Shared(mut s) => {
                                    s.insert(core);
                                    DirState::Shared(s)
                                }
                                DirState::Exclusive(owner) => {
                                    let mut s = SharerSet::single(owner);
                                    s.insert(core);
                                    DirState::Shared(s)
                                }
                            };
                        })
                        .or_insert(DirState::Shared(SharerSet::single(core)));
                }
                1 => {
                    dir.set_exclusive(addr, core);
                    model.insert(line, DirState::Exclusive(core));
                }
                2 => {
                    let model_had = match model.get_mut(&line) {
                        None => false,
                        Some(DirState::Exclusive(owner)) if *owner == core => {
                            model.remove(&line);
                            true
                        }
                        Some(DirState::Exclusive(_)) => false,
                        Some(DirState::Shared(s)) => {
                            let had = s.contains(core);
                            s.remove(core);
                            if s.is_empty() {
                                model.remove(&line);
                            }
                            had
                        }
                    };
                    prop_assert_eq!(dir.remove_core(addr, core), model_had);
                }
                3 => {
                    dir.drop_line(addr);
                    model.remove(&line);
                }
                _ => {
                    if let Some(victim) = dir.install(addr, false) {
                        model.remove(&victim.addr.line_index());
                    }
                }
            }
            // Invariants after every op.
            prop_assert_eq!(dir.tracked_lines(), model.len());
            for probe in 0..24u64 {
                prop_assert_eq!(
                    dir.state(Addr(probe * 64)),
                    model.get(&probe).copied(),
                    "state of line {} diverged", probe
                );
            }
        }
    }

    #[test]
    fn ring_matches_vecdeque_model(
        ops in prop::collection::vec((0u8..5, 0u32..1000, 0usize..12), 1..300)
    ) {
        // Tiny capacity hint so growth happens repeatedly mid-sequence.
        let mut ring: Ring<u32> = Ring::with_capacity(2);
        let mut model: VecDeque<u32> = VecDeque::new();
        for &(kind, v, i) in &ops {
            match kind {
                0 | 1 => {
                    // Push (twice as likely as pop, so the ring grows).
                    ring.push_back(v);
                    model.push_back(v);
                }
                2 => {
                    prop_assert_eq!(ring.pop_front(), model.pop_front());
                }
                3 => {
                    if !model.is_empty() {
                        let idx = i % model.len();
                        model[idx] = v;
                        ring.set(idx, v);
                    }
                }
                _ => {
                    let keep = i % (model.len() + 1);
                    model.truncate(keep);
                    ring.truncate(keep);
                }
            }
            // Invariants after every op.
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.front(), model.front());
            for (j, &m) in model.iter().enumerate() {
                prop_assert_eq!(ring.get(j), m);
            }
            prop_assert!(ring.iter().eq(model.iter().copied()));
        }
    }
}
