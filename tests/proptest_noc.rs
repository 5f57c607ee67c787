//! Property-based tests on the NoC substrate: conservation, ordering and
//! flow-control invariants under randomized traffic and geometry, and the
//! production switch path against its full-scan reference on the
//! lockstep harness of `tests/common`.

mod common;

use common::{lockstep, same};
use nocout_repro::substrates::noc::topology::fbfly::{build_fbfly, FbflySpec};
use nocout_repro::substrates::noc::topology::mesh::{build_mesh, MeshSpec};
use nocout_repro::substrates::noc::topology::nocout::{build_nocout, NocOutSpec};
use nocout_repro::substrates::noc::types::MessageClass;
use nocout_repro::substrates::noc::{Network, NetworkBuilder, RouterConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Traffic {
    src: usize,
    dst: usize,
    class: usize,
    payload: u32,
}

fn traffic_strategy(terminals: usize, max_msgs: usize) -> impl Strategy<Value = Vec<Traffic>> {
    prop::collection::vec(
        (0..terminals, 0..terminals, 0..3usize, prop_oneof![Just(0u32), Just(64u32)]).prop_map(
            |(src, dst, class, payload)| Traffic {
                src,
                dst,
                class,
                payload,
            },
        ),
        1..max_msgs,
    )
}

/// Injects traffic, runs to drain, and checks global invariants: every
/// packet delivered exactly once at its destination, no credit violations.
fn check_conservation(net: &mut Network, terminals: &[nocout_repro::substrates::noc::TerminalId], traffic: &[Traffic]) {
    let mut expected = vec![0usize; terminals.len()];
    for (i, t) in traffic.iter().enumerate() {
        let class = MessageClass::ALL[t.class];
        net.inject(terminals[t.src], terminals[t.dst], class, t.payload, i as u64);
        expected[t.dst] += 1;
    }
    assert!(
        net.run_until_drained(500_000),
        "network failed to drain (possible deadlock)"
    );
    net.check_invariants();
    let mut seen = std::collections::HashSet::new();
    for (d, term) in terminals.iter().enumerate() {
        let mut got = 0;
        while let Some(delivery) = net.poll(*term) {
            assert!(
                seen.insert(delivery.packet.token),
                "token {} delivered twice",
                delivery.packet.token
            );
            assert_eq!(delivery.packet.dst, *term, "misrouted packet");
            got += 1;
        }
        assert_eq!(got, expected[d], "terminal {d} delivery count");
    }
    assert_eq!(seen.len(), traffic.len(), "packets lost");
}

/// One step of a network twin script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Inject the script's `k`-th packet.
    Inject(usize),
    Tick,
}

/// Drives two copies of a network on the lockstep harness — the one under
/// test through the production masked/dirty-list switch path (`tick`),
/// its reference through the full-scan path (`tick_reference`, which
/// probes every queue front and never takes the radix or lone-candidate
/// fast paths). After every step the packets in flight and each
/// terminal's deliveries must agree, and after the drain the whole state
/// of the two networks (arbiters, credits, counters, statistics). Each
/// packet is followed by its gap of ticks, so the comparison covers
/// transient occupancy patterns, not just a single burst; 1 000 ticks then
/// drain the networks.
fn flat_switch_matches_reference(
    build: impl Fn() -> Network,
    terminals: &[nocout_repro::substrates::noc::TerminalId],
    traffic: &[(Traffic, u8)],
) {
    let script = traffic
        .iter()
        .enumerate()
        .flat_map(|(k, (_, gap))| {
            std::iter::once(Step::Inject(k)).chain(std::iter::repeat_n(Step::Tick, *gap as usize))
        })
        .chain(std::iter::repeat_n(Step::Tick, 1_000));
    let [fast, reference] = lockstep(
        [build(), build()],
        script,
        |net, k, &step| match (step, k) {
            (Step::Inject(i), _) => {
                let t = &traffic[i].0;
                let class = MessageClass::ALL[t.class];
                net.inject(
                    terminals[t.src],
                    terminals[t.dst],
                    class,
                    t.payload,
                    i as u64,
                );
            }
            (Step::Tick, 0) => net.tick(),
            (Step::Tick, _) => net.tick_reference(),
        },
        |net| {
            let delivered: Vec<_> = terminals
                .iter()
                .flat_map(|&term| std::iter::from_fn(|| net.poll(term)).collect::<Vec<_>>())
                .collect();
            (net.packets_in_flight(), delivered)
        },
        "flat switch against the reference",
    );
    assert_eq!(fast.packets_in_flight(), 0, "networks failed to drain");
    fast.check_invariants();
    reference.check_invariants();
    same(&fast, &reference, "the drained networks' whole state");
}

/// Two sources streaming multi-flit responses into one sink while the
/// sink snoops one of them back: contention for one ejection port and
/// both directions of a link, all injected at once.
#[test]
fn contended_sink_flat_switch_matches_reference() {
    let build = || {
        let mut b = NetworkBuilder::new(128);
        let rs: Vec<_> = (0..3).map(|_| b.add_router(RouterConfig::mesh())).collect();
        b.add_bidi_link(rs[0], rs[2], 1, 2.0);
        b.add_bidi_link(rs[1], rs[2], 1, 2.0);
        let terminals: Vec<_> = rs.iter().map(|&r| b.add_terminal(r)).collect();
        b.compute_routes_bfs();
        (b.build(), terminals)
    };
    // Classes index `MessageClass::ALL`: 1 is a snoop, 2 a response.
    let traffic: Vec<_> = (0..6)
        .flat_map(|_| [(0, 2, 2, 64), (1, 2, 2, 64), (2, 0, 1, 0)])
        .map(|(src, dst, class, payload)| {
            (
                Traffic {
                    src,
                    dst,
                    class,
                    payload,
                },
                0,
            )
        })
        .collect();
    flat_switch_matches_reference(|| build().0, &build().1, &traffic);
}

fn timed_traffic_strategy(
    terminals: usize,
    max_msgs: usize,
) -> impl Strategy<Value = Vec<(Traffic, u8)>> {
    prop::collection::vec(
        (
            (0..terminals, 0..terminals, 0..3usize, prop_oneof![Just(0u32), Just(64u32)])
                .prop_map(|(src, dst, class, payload)| Traffic {
                    src,
                    dst,
                    class,
                    payload,
                }),
            0u8..6,
        ),
        1..max_msgs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mesh_delivers_every_packet_exactly_once(traffic in traffic_strategy(16, 120)) {
        let mut mesh = build_mesh(&MeshSpec::with_tiles(16));
        let terminals = mesh.tile_terminals.clone();
        check_conservation(&mut mesh.network, &terminals, &traffic);
    }

    #[test]
    fn fbfly_delivers_every_packet_exactly_once(traffic in traffic_strategy(16, 120)) {
        let spec = FbflySpec { cols: 4, rows: 4, ..FbflySpec::paper_64() };
        let mut fb = build_fbfly(&spec);
        let terminals = fb.tile_terminals.clone();
        check_conservation(&mut fb.network, &terminals, &traffic);
    }

    #[test]
    fn nocout_delivers_every_packet_exactly_once(traffic in traffic_strategy(24, 120)) {
        // 16 cores + 8 LLC tiles as the terminal universe.
        let mut n = build_nocout(&NocOutSpec {
            rows_per_side: 1,
            ..NocOutSpec::paper_64()
        });
        let mut terminals = n.core_terminals.clone();
        terminals.extend(n.llc_terminals.clone());
        check_conservation(&mut n.network, &terminals, &traffic);
    }

    #[test]
    fn mesh_flat_switch_matches_reference(traffic in timed_traffic_strategy(16, 60)) {
        let terminals = build_mesh(&MeshSpec::with_tiles(16)).tile_terminals;
        flat_switch_matches_reference(
            || build_mesh(&MeshSpec::with_tiles(16)).network,
            &terminals,
            &traffic,
        );
    }

    #[test]
    fn fbfly_flat_switch_matches_reference(traffic in timed_traffic_strategy(16, 60)) {
        let spec = FbflySpec { cols: 4, rows: 4, ..FbflySpec::paper_64() };
        let terminals = build_fbfly(&spec).tile_terminals;
        flat_switch_matches_reference(|| build_fbfly(&spec).network, &terminals, &traffic);
    }

    #[test]
    fn nocout_flat_switch_matches_reference(traffic in timed_traffic_strategy(28, 60)) {
        // Express links give some tree nodes a third input port, covering
        // both sides of the radix-≤2 gather fast path on one topology.
        let spec = NocOutSpec {
            columns: 4,
            rows_per_side: 3,
            express_links: true,
            ..NocOutSpec::paper_64()
        };
        let n = build_nocout(&spec);
        let terminals = [n.core_terminals, n.llc_terminals].concat();
        flat_switch_matches_reference(|| build_nocout(&spec).network, &terminals, &traffic);
    }

    #[test]
    fn same_class_same_pair_arrives_in_order(
        count in 2..20usize,
        payload in prop_oneof![Just(0u32), Just(64u32)],
    ) {
        let mut mesh = build_mesh(&MeshSpec::with_tiles(16));
        let src = mesh.tile_terminals[0];
        let dst = mesh.tile_terminals[15];
        for i in 0..count {
            mesh.network.inject(src, dst, MessageClass::Response, payload, i as u64);
        }
        prop_assert!(mesh.network.run_until_drained(100_000));
        let mut tokens = Vec::new();
        while let Some(d) = mesh.network.poll(dst) {
            tokens.push(d.packet.token);
        }
        let sorted: Vec<u64> = (0..count as u64).collect();
        prop_assert_eq!(tokens, sorted, "wormhole must preserve per-pair order");
    }

    #[test]
    fn latency_monotone_in_distance(col in 1..8usize) {
        let mut mesh = build_mesh(&MeshSpec::paper_64());
        let t0 = mesh.tile_terminals[0];
        let near = mesh.tile_terminals[1];
        let far = mesh.tile_terminals[col.max(1)];
        let lat = |net: &mut Network, dst| {
            net.inject(t0, dst, MessageClass::Request, 0, 0);
            for _ in 0..1000 {
                net.tick();
                if let Some(d) = net.poll(dst) {
                    return d.latency();
                }
            }
            panic!("undelivered");
        };
        let l_near = lat(&mut mesh.network, near);
        let l_far = lat(&mut mesh.network, far);
        prop_assert!(l_far >= l_near);
    }
}
