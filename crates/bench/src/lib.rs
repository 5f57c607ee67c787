//! The micro-op definitions `nocbench layers` times.
//!
//! One fixture and one round function per simulator hot path, grouped by
//! layer ([`memopt`], [`uncoreopt`], [`nocopt`], [`statopt`]). The
//! benchmark (`nocbench/`, a package outside this workspace) owns the
//! timing harness and the metric names; this crate owns what "one op"
//! means, inside the workspace so that its own test suite executes every
//! op.

/// The core/L1 memory-path micro-ops (`cpu.core_tick_ns`,
/// `cpu.rob_round_ns`, `memsys.l1_mshr_ns`).
pub mod memopt {
    use nocout_cpu::model::{Core, CoreConfig};
    use nocout_cpu::rob::{RingRob, WakeupIndex};
    use nocout_cpu::source::{FetchedInstr, Op, ScriptedSource};
    use nocout_cpu::MissRequest;
    use nocout_mem::addr::Addr;
    use nocout_mem::l1::{L1Access, L1Cache, L1Config};
    use nocout_sim::Cycle;

    /// One ROB round: 8 waiting dispatches across 8 lines, 8 fills, 8
    /// retires — the paper-configuration MSHR-bound MLP pattern.
    #[inline]
    pub fn rob_fill_wakeup_round(rob: &mut RingRob, idx: &mut WakeupIndex, round: u64) {
        for l in 0..8u64 {
            let slot = rob.push_waiting();
            idx.enqueue(l, slot, rob);
        }
        for l in 0..8u64 {
            idx.wake_line(l, Cycle(round), rob);
        }
        for _ in 0..8 {
            rob.pop_front();
        }
    }

    /// One MSHR op: allocate → merge → out-param fill on an always-cold
    /// line (`next_line` advances so every round misses).
    #[inline]
    pub fn mshr_alloc_merge_fill(l1: &mut L1Cache, scratch: &mut Vec<u64>, next_line: &mut u64) {
        let a = Addr::from_line_index(*next_line);
        *next_line += 1;
        assert_eq!(l1.access(a, false, 0), L1Access::Miss);
        assert_eq!(l1.access(a, true, 1), L1Access::MergedMiss);
        scratch.clear();
        let _ = l1.fill(a, false, scratch);
    }

    /// A warmed core on an L1-resident single-line ALU stream: every
    /// tick is pure ring push/pop at full width (no misses possible).
    pub fn resident_alu_core() -> (Core, ScriptedSource) {
        let src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Alu { latency: 1 },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        core.warm_l1i(Addr(0));
        (core, src)
    }

    /// Ticks a [`resident_alu_core`] once; `out` must stay empty.
    #[inline]
    pub fn resident_alu_tick(
        core: &mut Core,
        src: &mut ScriptedSource,
        out: &mut Vec<MissRequest>,
        now: Cycle,
    ) {
        core.tick(now, src, out);
        debug_assert!(out.is_empty(), "resident stream must not miss");
    }

    /// A fresh paper-configuration ROB + wakeup index pair.
    pub fn rob_and_index() -> (RingRob, WakeupIndex) {
        (RingRob::new(64), WakeupIndex::new(8))
    }

    /// A fresh paper-configuration L1.
    pub fn a15_l1() -> L1Cache {
        L1Cache::new(L1Config::a15())
    }
}

/// The uncore micro-ops — LLC tile service, directory tracking, and the
/// analytic-fabric event wheel (`memsys.llc_hit_ns`,
/// `memsys.directory_ns`, `noc.fabric_wheel_ns`).
pub mod uncoreopt {
    use nocout_mem::addr::Addr;
    use nocout_mem::cache::CacheGeometry;
    use nocout_mem::directory::LlcSlice;
    use nocout_mem::llc::{LlcConfig, LlcTile};
    use nocout_mem::protocol::{CoreId, Msg, RequestKind, TxnId};
    use nocout_noc::fabric::Fabric;
    use nocout_noc::latency::LatencyFabric;
    use nocout_noc::types::{MessageClass, TerminalId};
    use nocout_sim::Cycle;

    /// Lines warmed into the benchmark tile, so every submitted request
    /// hits.
    pub const LLC_WARM_LINES: u64 = 1000;

    /// A NOC-Out LLC tile with [`LLC_WARM_LINES`] resident lines.
    pub fn warmed_nocout_tile() -> LlcTile {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        for i in 0..LLC_WARM_LINES {
            tile.warm(Addr::from_line_index(i));
        }
        tile
    }

    /// One LLC op: submit a GetS `Msg::CoreRequest` that hits, then tick
    /// and drain the tile across two cycles — the submit-time check that
    /// the message is LLC-bound, one trip through the input ring, the
    /// MSHR-file merge probe, bank arbitration, the directory update and
    /// the `(Dest, Msg)` output stage on the shared calendar wheel. Two
    /// cycles per request is the tile's exact service capacity (2 banks ×
    /// 4-cycle occupancy, consecutive line indices alternating banks), so
    /// the input queue stays bounded and every request is granted on its
    /// submit tick.
    #[inline]
    pub fn llc_tile_hit_round(tile: &mut LlcTile, now: &mut Cycle, i: u64) {
        tile.submit(Msg::CoreRequest {
            txn: TxnId(i as u32),
            core: CoreId((i % 64) as u16),
            addr: Addr::from_line_index(i % LLC_WARM_LINES),
            kind: RequestKind::GetS,
        });
        for _ in 0..2 {
            tile.tick(*now);
            while tile.pop_ready().is_some() {}
            *now += 1;
        }
    }

    /// A 256-set × 16-way LLC slice with all 4096 lines of
    /// [`directory_round`]'s space resident, so every tracked line's
    /// state lives in its way.
    pub fn bench_directory() -> LlcSlice {
        let mut slice = LlcSlice::new(CacheGeometry {
            capacity_bytes: 4096 * 64,
            ways: 16,
            line_bytes: 64,
        });
        slice.warm_fill(&[(0, 4096)]);
        slice
    }

    /// One directory op over a 4096-line space: track a line for two
    /// sharers, probe its state, then invalidate both — five set scans
    /// (one per operation) that start tracking a line in its way and
    /// drop it again, so population churns the way L1 fills and
    /// evictions churn it.
    #[inline]
    pub fn directory_round(dir: &mut LlcSlice, i: u64) {
        let addr = Addr((i % 4096) * 64);
        let a = CoreId((i % 64) as u16);
        let b = CoreId(((i + 1) % 64) as u16);
        dir.add_sharer(addr, a);
        dir.add_sharer(addr, b);
        debug_assert!(dir.state(addr).is_some());
        dir.remove_core(addr, a);
        dir.remove_core(addr, b);
    }

    /// A 64-terminal contention-free fabric with a fixed 10-cycle head
    /// latency.
    pub fn tencycle_fabric() -> LatencyFabric {
        LatencyFabric::new(64, 128, Box::new(|_, _| 10))
    }

    /// One fabric op: inject a single-flit packet, advance one cycle and
    /// drain deliveries. After the first 10 ops the wheel carries a
    /// steady 10 packets in flight, so each round is one scheduled push,
    /// one slot drain and one delivery pop.
    #[inline]
    pub fn fabric_wheel_round(fab: &mut LatencyFabric, i: u64) {
        let src = TerminalId((i % 64) as u16);
        let dst = TerminalId(((i * 7 + 3) % 64) as u16);
        fab.inject(src, dst, MessageClass::Request, 0, i);
        fab.tick();
        while let Some(t) = fab.take_ready_terminal() {
            while fab.poll(t).is_some() {}
        }
    }
}

/// The flit-level network micro-ops — the saturated router-pair switch
/// hop and the per-topology loaded network tick (`noc.switch_hop_ns`,
/// `noc.loaded_tick_ns.*`).
pub mod nocopt {
    use nocout_noc::network::{Network, NetworkBuilder};
    use nocout_noc::router::RouterConfig;
    use nocout_noc::topology::fbfly::{build_fbfly, FbflySpec};
    use nocout_noc::topology::mesh::{build_mesh, MeshSpec};
    use nocout_noc::topology::nocout::{build_nocout, NocOutSpec};
    use nocout_noc::types::{MessageClass, TerminalId};
    use nocout_sim::rng::SimRng;

    /// A two-mesh-router bidirectional pair carrying 5-flit response
    /// streams both ways, pre-filled so the switch allocator grants on
    /// every cycle. One *switch hop* is one granted flit traversal (the
    /// callers measure `stats().flit_hops` over the timed loop rather
    /// than counting rounds, so the metric is ns-per-hop honest).
    pub fn saturated_pair() -> (Network, [TerminalId; 2]) {
        let mut b = NetworkBuilder::new(128);
        let r0 = b.add_router(RouterConfig::mesh());
        let r1 = b.add_router(RouterConfig::mesh());
        b.add_bidi_link(r0, r1, 1, 2.0);
        let t0 = b.add_terminal(r0);
        let t1 = b.add_terminal(r1);
        b.compute_routes_bfs();
        let mut net = b.build();
        for _ in 0..4 {
            net.inject(t0, t1, MessageClass::Response, 64, 0);
            net.inject(t1, t0, MessageClass::Response, 64, 0);
        }
        (net, [t0, t1])
    }

    /// One saturated-pair round: a tick, then re-inject one packet per
    /// delivery so both directions stay backlogged forever.
    #[inline]
    pub fn switch_hop_round(net: &mut Network, terms: &[TerminalId; 2]) {
        net.tick();
        for k in 0..2 {
            while net.poll(terms[k]).is_some() {
                net.inject(terms[k], terms[1 - k], MessageClass::Response, 64, 0);
            }
        }
    }

    /// A paper-scale network under sustained random load (~0.5 packets
    /// injected per cycle); one op is one `Network::tick`.
    pub struct LoadedNet {
        /// Which topology this is: `mesh`, `flattened_butterfly` or
        /// `noc_out`.
        pub key: &'static str,
        pub(crate) net: Network,
        srcs: Vec<TerminalId>,
        dsts: Vec<TerminalId>,
        all: Vec<TerminalId>,
        class: MessageClass,
        payload_bytes: u32,
        rng: SimRng,
    }

    /// The three evaluated paper topologies under their loaded-tick
    /// traffic shapes: uniform-random 64-byte responses between tiles on
    /// the mesh and the flattened butterfly, and core→LLC requests on
    /// NOC-Out (the tree direction whose many low-radix routers the
    /// dirty-list scan targets).
    pub fn loaded_networks() -> Vec<LoadedNet> {
        let mesh = build_mesh(&MeshSpec::paper_64());
        let fb = build_fbfly(&FbflySpec::paper_64());
        let n = build_nocout(&NocOutSpec::paper_64());
        vec![
            LoadedNet {
                key: "mesh",
                srcs: mesh.tile_terminals.clone(),
                dsts: mesh.tile_terminals.clone(),
                all: mesh.tile_terminals.clone(),
                net: mesh.network,
                class: MessageClass::Response,
                payload_bytes: 64,
                rng: SimRng::new(1),
            },
            LoadedNet {
                key: "flattened_butterfly",
                srcs: fb.tile_terminals.clone(),
                dsts: fb.tile_terminals.clone(),
                all: fb.tile_terminals.clone(),
                net: fb.network,
                class: MessageClass::Response,
                payload_bytes: 64,
                rng: SimRng::new(1),
            },
            LoadedNet {
                key: "noc_out",
                srcs: n.core_terminals.clone(),
                dsts: n.llc_terminals.clone(),
                all: n
                    .core_terminals
                    .iter()
                    .chain(n.llc_terminals.iter())
                    .copied()
                    .collect(),
                net: n.network,
                class: MessageClass::Request,
                payload_bytes: 0,
                rng: SimRng::new(1),
            },
        ]
    }

    /// One loaded-network op: maybe inject (p = 0.5), tick, drain.
    #[inline]
    pub fn loaded_tick(ln: &mut LoadedNet) {
        if ln.rng.chance(0.5) {
            let s = ln.rng.next_below(ln.srcs.len() as u64) as usize;
            let d = ln.rng.next_below(ln.dsts.len() as u64) as usize;
            ln.net.inject(ln.srcs[s], ln.dsts[d], ln.class, ln.payload_bytes, 0);
        }
        ln.net.tick();
        for t in &ln.all {
            while ln.net.poll(*t).is_some() {}
        }
    }

    /// Flit hops performed so far (the switch-hop op count).
    pub fn flit_hops(net: &Network) -> u64 {
        net.stats().flit_hops.value()
    }
}

/// The service-level statistics micro-op
/// (`sim.latency_hist_record_ns`).
pub mod statopt {
    use nocout_sim::stats::LatencyHist;

    /// One latency-histogram round: 64 records spanning the linear and
    /// log-linear bucket ranges into `scratch`, a bucket-wise merge of
    /// `scratch` into `acc` (then a scratch reset), and a p99 read-back
    /// — the per-window record/merge/query mix of the chip's
    /// tail-metric aggregation.
    #[inline]
    pub fn latency_hist_round(scratch: &mut LatencyHist, acc: &mut LatencyHist, round: u64) {
        let mut x = round.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for _ in 0..64 {
            // splitmix64-style scramble; shifting by the low bits
            // spreads samples over every bucket magnitude.
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            scratch.record(x >> (x & 63));
        }
        acc.merge(scratch);
        scratch.reset();
        std::hint::black_box(acc.percentile(0.99));
    }
}

#[cfg(test)]
mod tests {
    use super::{memopt, nocopt, statopt, uncoreopt};
    use nocout_noc::fabric::Fabric;
    use nocout_sim::stats::LatencyHist;
    use nocout_sim::Cycle;

    const ROUNDS: u64 = 300;

    /// The fixture after [`ROUNDS`] calls of its round function.
    fn drive<F>(mut fixture: F, round: impl Fn(&mut F, u64)) -> F {
        for i in 0..ROUNDS {
            round(&mut fixture, i);
        }
        fixture
    }

    /// Every fixture builds and every round function does the work its
    /// `nocbench layers` metric is named after. The benchmark sits
    /// outside the workspace, so this is where the workspace's own suite
    /// executes the ops.
    #[test]
    fn every_micro_op_runs_and_leaves_its_mark() {
        let ((core, _), out) = drive(
            (memopt::resident_alu_core(), Vec::new()),
            |((core, src), out), i| memopt::resident_alu_tick(core, src, out, Cycle(i)),
        );
        assert!(out.is_empty(), "the resident stream missed");
        let retired = core.stats.retired.value();
        assert!(retired >= 2 * ROUNDS, "{retired} retired: not at full width");

        let (rob, idx) = drive(memopt::rob_and_index(), |(rob, idx), i| {
            memopt::rob_fill_wakeup_round(rob, idx, i)
        });
        assert!(rob.is_empty(), "{} ROB entries never retired", rob.len());
        assert_eq!((idx.waiting(), idx.lines()), (0, 0), "waiters never woken");

        let (l1, last_waiters, _) = drive(
            (memopt::a15_l1(), Vec::new(), 0u64),
            |(l1, scratch, next), _| memopt::mshr_alloc_merge_fill(l1, scratch, next),
        );
        assert_eq!(last_waiters, [0, 1], "a fill returns both merged waiters");
        assert_eq!(l1.outstanding_misses(), 0, "the L1's MSHRs did not drain");

        let (tile, _) = drive(
            (uncoreopt::warmed_nocout_tile(), Cycle(0)),
            |(tile, now), i| uncoreopt::llc_tile_hit_round(tile, now, i),
        );
        let (accesses, hits) = (tile.stats.accesses.value(), tile.stats.hits.value());
        assert_eq!((accesses, hits), (ROUNDS, ROUNDS), "every request hits");
        assert!(!tile.has_queued_input(), "the tile fell behind its input");

        let dir = drive(uncoreopt::bench_directory(), uncoreopt::directory_round);
        assert_eq!(dir.tracked_lines(), 0, "every tracked line was dropped");

        let fab = drive(uncoreopt::tencycle_fabric(), uncoreopt::fabric_wheel_round);
        let in_flight = fab.packets_in_flight() as u64;
        assert_eq!(fab.stats().packets_injected.value(), ROUNDS);
        assert_eq!(fab.stats().packets_delivered.value(), ROUNDS - in_flight);
        // Ten in flight during a tick, nine once its delivery is drained.
        assert_eq!(in_flight, 9, "a ten-cycle fabric holds ten cycles' packets");

        let (pair, _) = drive(nocopt::saturated_pair(), |(net, terms), _| {
            nocopt::switch_hop_round(net, terms)
        });
        let hops = nocopt::flit_hops(&pair);
        assert!(hops > ROUNDS, "{hops} flit hops: the pair is not saturated");

        for net in nocopt::loaded_networks() {
            let ln = drive(net, |ln, _| nocopt::loaded_tick(ln));
            let s = ln.net.stats();
            let moved = s.packets_delivered.value() > 0 && s.flit_hops.value() > 0;
            assert!(moved, "{}: nothing moved", ln.key);
        }

        let (scratch, acc) = drive(
            (LatencyHist::new(), LatencyHist::new()),
            |(scratch, acc), i| statopt::latency_hist_round(scratch, acc, i),
        );
        assert_eq!(scratch.total(), 0, "scratch is reset after each merge");
        assert_eq!(acc.total(), 64 * ROUNDS, "the histogram's total");
    }
}
