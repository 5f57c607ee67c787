//! Table-routed, input-buffered, credit-flow-controlled routers.
//!
//! One router model covers every switching element in the study:
//!
//! * a **mesh router** is 5×5 with a 2-stage speculative pipeline
//!   (`pipeline_delay = 2`) and round-robin arbitration,
//! * a **flattened-butterfly router** is 15×15 with a 3-stage pipeline,
//! * a **reduction-tree node** is 2×1 with a zero-stage pipeline (the
//!   arbitrated mux and the outgoing link together take one cycle) and
//!   static-priority arbitration that favours the network port over the
//!   local port, exactly as §4.1 of the paper,
//! * a **dispersion-tree node** is 1×2 with a zero-stage pipeline (§4.2).
//!
//! Wormhole switching with one virtual channel per message class: a packet
//! holds its downstream VC from head to tail, bodies follow the head's
//! route, and credits are returned when flits depart the downstream buffer.

use crate::flit::Flit;
use crate::types::{MessageClass, PortIndex, RouterId, TerminalId, CLASS_COUNT};

/// Output arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// Rotating fair arbitration over (input port, VC) pairs — the policy of
    /// the mesh and flattened-butterfly routers.
    RoundRobin,
    /// Fixed priority: higher message class first (responses > snoops >
    /// requests), then lower input-port index first. Topology builders place
    /// the network port at index 0 and the local port at index 1 on tree
    /// nodes, which yields the paper's ordering: network responses, local
    /// responses, network requests, local requests (§4.1).
    StaticPriority,
}

/// Per-router microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Cycles spent in the router pipeline before the flit enters the link.
    /// Per-hop zero-load latency is `pipeline_delay + link delay`.
    pub pipeline_delay: u8,
    /// Buffer depth, in flits, of each virtual channel at each input port.
    pub vc_depth: u8,
    /// Output arbitration policy.
    pub arbiter: ArbiterKind,
}

impl RouterConfig {
    /// Mesh router per Table 1: 2-stage speculative pipeline, 5-flit VCs.
    pub fn mesh() -> Self {
        RouterConfig {
            pipeline_delay: 2,
            vc_depth: 5,
            arbiter: ArbiterKind::RoundRobin,
        }
    }

    /// Flattened-butterfly router per Table 1: 3-stage non-speculative
    /// pipeline; VC depth is set per-port by the builder to cover the
    /// round-trip credit time of its longest link.
    pub fn fbfly(vc_depth: u8) -> Self {
        RouterConfig {
            pipeline_delay: 3,
            vc_depth,
            arbiter: ArbiterKind::RoundRobin,
        }
    }

    /// Reduction/dispersion tree node: buffered two-port mux/demux with a
    /// single-cycle per-hop delay (mux + link) and a couple of flits of
    /// buffering per VC (§4.4: "a few flits per VC").
    pub fn tree_node() -> Self {
        RouterConfig {
            pipeline_delay: 0,
            vc_depth: 3,
            arbiter: ArbiterKind::StaticPriority,
        }
    }
}

/// Where a flit or a credit lands: an input port (for a flit) or an
/// output port (for a credit) of a router, or a terminal's network
/// interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dest {
    Port { router: RouterId, port: PortIndex },
    Terminal(TerminalId),
}

/// What an output port drives: a downstream input port, or a terminal's
/// ejection side (an uncongested sink; throughput is still limited to one
/// flit per cycle by arbitration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OutTarget {
    pub(crate) dest: Dest,
    /// Link traversal delay in cycles.
    pub(crate) link_delay: u8,
    /// Physical link length in millimetres (for the energy model).
    pub(crate) length_mm: f32,
}

/// Upper bound on the configurable VC buffer depth. The deepest ring
/// any in-tree topology builds is 13 flits — the flattened butterfly
/// sizes depth per link as `credit_round_trip_depth` (pipeline 3 +
/// 2×link 4 + 2) on its longest 7-tile-span links. The cap exists so
/// the ring can keep its storage inline (below) rather than behind a
/// heap pointer; it is kept as tight as that bound allows because every
/// input port carries `CLASS_COUNT` rings, so slack here is multiplied
/// across every port of every router.
pub(crate) const MAX_VC_DEPTH: usize = 16;

/// One virtual-channel FIFO at an input port: a fixed ring sized to the
/// port's buffer depth.
///
/// Credit-based flow control bounds occupancy — a sender only transmits
/// while it holds a credit, and credits mirror the downstream slots — so
/// the ring never grows and a push past `cap` is a protocol violation,
/// not a capacity policy.
///
/// Storage is an inline array, not a `Vec`: the switch allocator probes
/// queue fronts on every cycle, and keeping the flits on the same cache
/// lines as the ring indices saves a dereference per probe.
#[derive(Debug)]
pub(crate) struct VcQueue {
    buf: [Flit; MAX_VC_DEPTH],
    cap: u16,
    head: u16,
    len: u16,
    /// Output port locked by the packet currently flowing through this VC
    /// (set when its head departs, cleared when its tail departs).
    pub(crate) current_out: Option<PortIndex>,
}

/// Filler for unoccupied ring slots (never observable: reads are bounded
/// by `len`).
const NO_FLIT: Flit = Flit {
    packet: crate::packet::PacketId(0),
    seq: 0,
    size: 0,
    dst: TerminalId(0),
    class: MessageClass::Request,
};

impl VcQueue {
    pub(crate) fn new(depth: u8) -> Self {
        assert!(depth > 0, "VC depth must be at least one flit");
        assert!(
            depth as usize <= MAX_VC_DEPTH,
            "VC depth {depth} exceeds the inline ring bound {MAX_VC_DEPTH}"
        );
        VcQueue {
            buf: [NO_FLIT; MAX_VC_DEPTH],
            cap: depth as u16,
            head: 0,
            len: 0,
            current_out: None,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub(crate) fn front(&self) -> Option<&Flit> {
        (self.len > 0).then(|| &self.buf[self.head as usize])
    }

    #[inline]
    pub(crate) fn push_back(&mut self, flit: Flit) {
        assert!(
            self.len < self.cap,
            "VC buffer overflow: credit protocol violated"
        );
        let mut tail = self.head + self.len;
        if tail >= self.cap {
            tail -= self.cap;
        }
        self.buf[tail as usize] = flit;
        self.len += 1;
    }

    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let flit = self.buf[self.head as usize];
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.len -= 1;
        Some(flit)
    }
}

/// An output port: target, per-VC credits, and the wormhole owner lock.
#[derive(Debug)]
pub(crate) struct OutPort {
    pub(crate) target: OutTarget,
    /// Remaining downstream buffer slots per VC. Terminal targets are
    /// credit-exempt sinks.
    pub(crate) credits: [u8; CLASS_COUNT],
    pub(crate) max_credits: [u8; CLASS_COUNT],
    /// Which input port currently owns the downstream VC (head sent, tail
    /// not yet sent).
    pub(crate) owner: [Option<PortIndex>; CLASS_COUNT],
    /// Round-robin pointer over (input port × class) candidates.
    pub(crate) rr_next: u16,
    /// Flits sent through this port (for utilization/energy accounting).
    pub(crate) flits_sent: u64,
}

/// Sentinel for "no route from this router to that terminal".
pub(crate) const UNROUTED: PortIndex = PortIndex::MAX;

/// Picks the winning candidate for an output port among `(in_port, class)`
/// pairs, according to `arbiter`. `num_in_ports` sizes the round-robin
/// schedule and `rr_next` is the output port's rotating pointer (ignored by
/// static priority).
///
/// `candidates` must be non-empty.
pub(crate) fn arbitrate(
    arbiter: ArbiterKind,
    num_in_ports: usize,
    rr_next: &mut u16,
    candidates: &[(PortIndex, MessageClass)],
) -> (PortIndex, MessageClass) {
    debug_assert!(!candidates.is_empty());
    match arbiter {
        ArbiterKind::StaticPriority => *candidates
            .iter()
            .max_by_key(|(port, class)| (class.priority(), std::cmp::Reverse(*port)))
            .expect("candidates non-empty"),
        ArbiterKind::RoundRobin => {
            let slots = (num_in_ports * CLASS_COUNT) as u16;
            let key =
                |(p, c): (PortIndex, MessageClass)| p as u16 * CLASS_COUNT as u16 + c.vc() as u16;
            let winner = *candidates
                .iter()
                .min_by_key(|&&cand| (key(cand) + slots - *rr_next) % slots)
                .expect("candidates non-empty");
            *rr_next = (key(winner) + 1) % slots;
            winner
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_priority_prefers_response_then_network_port() {
        let mut rr = 0u16;
        let arb = |rr: &mut u16, cands: &[(PortIndex, MessageClass)]| {
            arbitrate(ArbiterKind::StaticPriority, 2, rr, cands)
        };
        // network responses beat local responses beat network requests.
        let cands = [
            (1, MessageClass::Request),
            (0, MessageClass::Request),
            (1, MessageClass::Response),
            (0, MessageClass::Response),
        ];
        assert_eq!(arb(&mut rr, &cands), (0, MessageClass::Response));
        let cands = [(1, MessageClass::Request), (0, MessageClass::Request)];
        assert_eq!(arb(&mut rr, &cands), (0, MessageClass::Request));
        let cands = [(1, MessageClass::Response), (0, MessageClass::Request)];
        assert_eq!(arb(&mut rr, &cands), (1, MessageClass::Response));
        // Static priority never touches the rotating pointer.
        assert_eq!(rr, 0);
    }

    #[test]
    fn round_robin_rotates_fairly() {
        let mut rr = 0u16;
        let cands = [(0, MessageClass::Request), (1, MessageClass::Request)];
        let first = arbitrate(ArbiterKind::RoundRobin, 2, &mut rr, &cands);
        let second = arbitrate(ArbiterKind::RoundRobin, 2, &mut rr, &cands);
        assert_ne!(first, second, "round robin must alternate between equals");
        let third = arbitrate(ArbiterKind::RoundRobin, 2, &mut rr, &cands);
        assert_eq!(first, third);
    }

    #[test]
    fn vc_ring_wraps_and_respects_depth() {
        use crate::packet::PacketId;
        let flit = |seq: u16| Flit {
            packet: PacketId(0),
            seq,
            size: 100,
            dst: TerminalId(0),
            class: MessageClass::Request,
        };
        let mut vc = VcQueue::new(3);
        assert_eq!(vc.len(), 0);
        // Churn past the capacity several times to exercise wraparound.
        for round in 0..5u16 {
            for i in 0..3 {
                vc.push_back(flit(round * 3 + i));
            }
            assert_eq!(vc.len(), 3);
            assert_eq!(vc.front().unwrap().seq, round * 3);
            for i in 0..3 {
                assert_eq!(vc.pop_front().unwrap().seq, round * 3 + i);
            }
        }
        assert_eq!(vc.pop_front(), None);
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn vc_ring_overflow_panics() {
        use crate::packet::PacketId;
        let flit = Flit {
            packet: PacketId(0),
            seq: 0,
            size: 100,
            dst: TerminalId(0),
            class: MessageClass::Request,
        };
        let mut vc = VcQueue::new(2);
        vc.push_back(flit);
        vc.push_back(flit);
        vc.push_back(flit);
    }

    #[test]
    fn config_presets() {
        assert_eq!(RouterConfig::mesh().pipeline_delay, 2);
        assert_eq!(RouterConfig::mesh().vc_depth, 5);
        assert_eq!(RouterConfig::fbfly(8).pipeline_delay, 3);
        let t = RouterConfig::tree_node();
        assert_eq!(t.pipeline_delay, 0);
        assert_eq!(t.arbiter, ArbiterKind::StaticPriority);
    }
}
