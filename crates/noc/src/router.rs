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

/// One virtual-channel FIFO at an input port: a ring over exactly the
/// port's buffer depth of slots in the network's flit pool.
///
/// Credit-based flow control bounds occupancy — a sender only transmits
/// while it holds a credit, and credits mirror the downstream slots — so
/// the ring never grows and a push past `cap` is a protocol violation,
/// not a capacity policy.
///
/// The ring is an 8-byte header; its flits live in one network-level
/// pool (`Vec<Flit>`), where the rings lie back to back in VC order, each
/// owning `cap` slots from `base` on. Every method that touches flits
/// takes that pool. A ring costs what its port buffers: a 5-deep mesh VC
/// is 8 + 5 × 8 bytes.
#[derive(Debug)]
pub(crate) struct VcQueue {
    /// First pool slot of this ring.
    base: u32,
    cap: u8,
    head: u8,
    len: u8,
    /// Output port locked by the packet currently flowing through this VC
    /// (set when its head departs, cleared when its tail departs);
    /// [`NO_PORT`] while unlocked.
    current_out: PortIndex,
}

/// `VcQueue::current_out` of an unlocked VC. Never a real port: the
/// builder caps a router at 64 output ports.
const NO_PORT: PortIndex = PortIndex::MAX;

/// Filler for unoccupied pool slots (never observable: reads are bounded
/// by each ring's `len`).
pub(crate) const NO_FLIT: Flit = Flit::new(
    crate::packet::PacketId(0),
    0,
    1,
    TerminalId(0),
    MessageClass::Request,
);

impl VcQueue {
    /// A ring of `depth` slots starting at pool slot `base`.
    pub(crate) fn new(base: u32, depth: u8) -> Self {
        assert!(depth > 0, "VC depth must be at least one flit");
        VcQueue {
            base,
            cap: depth,
            head: 0,
            len: 0,
            current_out: NO_PORT,
        }
    }

    /// The first pool slot past this ring.
    #[inline]
    pub(crate) fn end(&self) -> u32 {
        self.base + u32::from(self.cap)
    }

    /// The pool slot this ring starts at.
    #[inline]
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    /// The ring's capacity in flits: its port's buffer depth.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.cap as usize
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The output port the VC's current packet holds, if any.
    #[inline]
    pub(crate) fn current_out(&self) -> Option<PortIndex> {
        (self.current_out != NO_PORT).then_some(self.current_out)
    }

    #[inline]
    pub(crate) fn set_current_out(&mut self, port: Option<PortIndex>) {
        self.current_out = port.unwrap_or(NO_PORT);
    }

    #[inline]
    pub(crate) fn front(&self, pool: &[Flit]) -> Option<Flit> {
        (self.len > 0).then(|| pool[(self.base + u32::from(self.head)) as usize])
    }

    #[inline]
    pub(crate) fn push_back(&mut self, pool: &mut [Flit], flit: Flit) {
        assert!(
            self.len < self.cap,
            "VC buffer overflow: credit protocol violated"
        );
        let mut tail = self.head as u32 + self.len as u32;
        if tail >= self.cap as u32 {
            tail -= self.cap as u32;
        }
        pool[(self.base + tail) as usize] = flit;
        self.len += 1;
    }

    #[inline]
    pub(crate) fn pop_front(&mut self, pool: &[Flit]) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let flit = pool[(self.base + u32::from(self.head)) as usize];
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

    fn numbered(k: u32) -> Flit {
        Flit::new(
            crate::packet::PacketId(k),
            0,
            1,
            TerminalId(0),
            MessageClass::Request,
        )
    }

    #[test]
    fn vc_ring_wraps_and_respects_depth() {
        // A 3-deep ring in the middle of a pool, between two neighbours
        // that must never see its flits.
        let mut pool = vec![NO_FLIT; 2 + 3 + 4];
        let mut vc = VcQueue::new(2, 3);
        assert_eq!((vc.base(), vc.end(), vc.capacity()), (2, 5, 3));
        assert_eq!(vc.len(), 0);
        // Churn past the capacity several times, starting the head at
        // every slot, to exercise wraparound.
        for round in 0..5u32 {
            for i in 0..3 {
                vc.push_back(&mut pool, numbered(round * 3 + i));
            }
            assert_eq!(vc.len(), 3);
            assert_eq!(vc.front(&pool).unwrap().packet.0, round * 3);
            for i in 0..2 {
                assert_eq!(vc.pop_front(&pool).unwrap().packet.0, round * 3 + i);
            }
            vc.push_back(&mut pool, numbered(100 + round));
            assert_eq!(vc.pop_front(&pool).unwrap().packet.0, round * 3 + 2);
            assert_eq!(vc.pop_front(&pool).unwrap().packet.0, 100 + round);
        }
        assert_eq!(vc.pop_front(&pool), None);
        assert!(
            pool[..2].iter().chain(&pool[5..]).all(|&f| f == NO_FLIT),
            "the ring wrote outside its slots"
        );
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn vc_ring_overflow_panics() {
        // Two rings back to back: the first must refuse a third flit
        // rather than spill into its neighbour's slots.
        let mut pool = vec![NO_FLIT; 4];
        let mut vc = VcQueue::new(0, 2);
        let _next = VcQueue::new(2, 2);
        vc.push_back(&mut pool, numbered(0));
        vc.push_back(&mut pool, numbered(1));
        vc.push_back(&mut pool, numbered(2));
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
