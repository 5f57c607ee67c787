//! Contention-free analytic fabrics.
//!
//! Figure 1 of the paper compares an *ideal* interconnect, where only wire
//! delay is exposed (routing, arbitration, switching and buffering all take
//! zero time), against a mesh with a 3-cycle per-hop delay — explicitly
//! *without* modelling contention in either network. [`LatencyFabric`]
//! reproduces that: every packet is delivered exactly
//! `latency(src, dst) + serialization` cycles after injection, with
//! unbounded bandwidth.

use crate::fabric::Fabric;
use crate::packet::{Delivery, Packet};
use crate::stats::NetStats;
use crate::types::{MessageClass, TerminalId};
use nocout_sim::slab::Slab;
use nocout_sim::wheel::EventWheel;
use nocout_sim::Cycle;
use std::collections::VecDeque;

/// Initial wheel horizon: covers the largest head latency any analytic
/// fabric in the paper's configurations computes (tens of cycles of wire
/// delay plus serialization); the wheel grows if a latency function
/// exceeds it.
const LATENCY_WHEEL_SLOTS: usize = 128;

/// Computes the head-flit latency between two terminals, in cycles.
pub type LatencyFn = Box<dyn Fn(TerminalId, TerminalId) -> u64 + Send>;

/// A contention-free fabric with a per-pair latency function.
///
/// # Examples
///
/// ```
/// use nocout_noc::latency::LatencyFabric;
/// use nocout_noc::fabric::Fabric;
/// use nocout_noc::types::{MessageClass, TerminalId};
///
/// // Fixed 10-cycle fabric with 128-bit links.
/// let mut fab = LatencyFabric::new(4, 128, Box::new(|_, _| 10));
/// fab.inject(TerminalId(0), TerminalId(1), MessageClass::Request, 0, 9);
/// for _ in 0..11 {
///     fab.tick();
/// }
/// let d = fab.poll(TerminalId(1)).expect("delivered");
/// assert_eq!(d.latency(), 10); // single-flit packet: no serialization
/// ```
pub struct LatencyFabric {
    num_terminals: usize,
    link_width_bits: u32,
    latency_fn: LatencyFn,
    /// Payload ids scheduled on a calendar wheel keyed by delivery
    /// cycle — replaces the former `BinaryHeap<Reverse<(u64, u64)>>` of
    /// (deliver_at, slot) pairs.
    in_flight: EventWheel<u32>,
    /// Scratch for draining one wheel slot per tick without allocating.
    due_scratch: Vec<u32>,
    /// Packets in flight. Same-cycle deliveries go out in ascending id,
    /// so the slab's reuse order is part of the delivery order.
    payload: Slab<Packet>,
    delivered: Vec<VecDeque<Delivery>>,
    /// Terminals with undelivered packets, in arrival order.
    ready: VecDeque<u16>,
    in_ready: Vec<bool>,
    stats: NetStats,
    now: Cycle,
}

impl std::fmt::Debug for LatencyFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyFabric")
            .field("num_terminals", &self.num_terminals)
            .field("link_width_bits", &self.link_width_bits)
            .field("in_flight", &self.in_flight.pending())
            .field("now", &self.now)
            .finish()
    }
}

impl LatencyFabric {
    /// Creates a fabric over `num_terminals` terminals.
    pub fn new(num_terminals: usize, link_width_bits: u32, latency_fn: LatencyFn) -> Self {
        LatencyFabric {
            num_terminals,
            link_width_bits,
            latency_fn,
            in_flight: EventWheel::with_slots(LATENCY_WHEEL_SLOTS),
            due_scratch: Vec::new(),
            payload: Slab::new(),
            delivered: (0..num_terminals).map(|_| VecDeque::new()).collect(),
            ready: VecDeque::new(),
            in_ready: vec![false; num_terminals],
            stats: NetStats::new(),
            now: Cycle::ZERO,
        }
    }

    /// Number of terminals.
    pub fn num_terminals(&self) -> usize {
        self.num_terminals
    }
}

impl Fabric for LatencyFabric {
    fn inject(
        &mut self,
        src: TerminalId,
        dst: TerminalId,
        class: MessageClass,
        payload_bytes: u32,
        token: u64,
    ) {
        assert!(dst.index() < self.num_terminals, "dst out of range");
        let packet = Packet::new(
            src,
            dst,
            class,
            payload_bytes,
            self.link_width_bits,
            token,
            self.now,
        );
        // Head latency plus serialization of the remaining flits.
        let latency = (self.latency_fn)(src, dst) + (packet.size_flits as u64 - 1);
        let id = self.payload.insert(packet);
        self.stats.packets_injected.incr();
        self.in_flight.push(self.now, self.now + latency.max(1), id);
    }

    fn tick(&mut self) {
        self.now.0 += 1;
        let mut due = std::mem::take(&mut self.due_scratch);
        self.in_flight.drain_into(self.now, &mut due);
        // The replaced heap popped same-cycle deliveries in ascending slot
        // order (its tiebreak key); sorting the drained ids keeps the
        // delivery order — and thus `ready` rotation — bit-identical.
        due.sort_unstable();
        for &id in &due {
            let packet = self.payload.take(id);
            let latency = self.now.saturating_since(packet.injected_at);
            self.stats
                .record_delivery(packet.class, latency, packet.size_flits);
            let dst = packet.dst.index();
            self.delivered[dst].push_back(Delivery {
                packet,
                delivered_at: self.now,
            });
            if !self.in_ready[dst] {
                self.in_ready[dst] = true;
                self.ready.push_back(dst as u16);
            }
        }
        self.due_scratch = due;
    }

    fn poll(&mut self, terminal: TerminalId) -> Option<Delivery> {
        self.delivered[terminal.index()].pop_front()
    }

    fn take_ready_terminal(&mut self) -> Option<TerminalId> {
        while let Some(t) = self.ready.pop_front() {
            self.in_ready[t as usize] = false;
            if !self.delivered[t as usize].is_empty() {
                return Some(TerminalId(t));
            }
        }
        None
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn next_event(&self) -> crate::fabric::NextEvent {
        use crate::fabric::NextEvent;
        match self.in_flight.next_occupied_delta(self.now) {
            // A packet due at absolute cycle `at` surfaces during the tick
            // entered at `at - 1` (tick advances the clock first), so that
            // is the cycle the caller must resume normal ticking at.
            Some(dt) => NextEvent::At(Cycle((self.now.raw() + dt).saturating_sub(1))),
            None => NextEvent::Idle,
        }
    }

    fn skip_idle(&mut self, delta: u64) {
        debug_assert!(
            self.in_flight
                .next_occupied_delta(self.now)
                .is_none_or(|dt| delta < dt),
            "cannot skip past a scheduled delivery"
        );
        self.now.0 += delta;
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn link_width_bits(&self) -> u32 {
        self.link_width_bits
    }

    fn packets_in_flight(&self) -> usize {
        self.in_flight.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_delivery() {
        let mut fab = LatencyFabric::new(2, 128, Box::new(|_, _| 7));
        fab.inject(TerminalId(0), TerminalId(1), MessageClass::Request, 0, 1);
        for _ in 0..7 {
            fab.tick();
        }
        let d = fab.poll(TerminalId(1)).expect("must deliver at t=7");
        assert_eq!(d.latency(), 7);
        assert_eq!(fab.packets_in_flight(), 0);
    }

    #[test]
    fn serialization_adds_flits() {
        let mut fab = LatencyFabric::new(2, 128, Box::new(|_, _| 10));
        fab.inject(TerminalId(0), TerminalId(1), MessageClass::Response, 64, 2);
        for _ in 0..14 {
            fab.tick();
        }
        // 5 flits: head at 10, tail at 14.
        let d = fab.poll(TerminalId(1)).expect("delivered");
        assert_eq!(d.latency(), 14);
    }

    #[test]
    fn no_contention_between_packets() {
        // 100 packets between the same pair all arrive with the same
        // latency (infinite bandwidth).
        let mut fab = LatencyFabric::new(2, 128, Box::new(|_, _| 5));
        for i in 0..100 {
            fab.inject(TerminalId(0), TerminalId(1), MessageClass::Request, 0, i);
        }
        for _ in 0..5 {
            fab.tick();
        }
        let mut n = 0;
        while fab.poll(TerminalId(1)).is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert!((fab.stats().mean_latency() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_latency_fn() {
        let f = |s: TerminalId, d: TerminalId| (s.0 as u64 + 1) * (d.0 as u64 + 1);
        let mut fab = LatencyFabric::new(3, 128, Box::new(f));
        fab.inject(TerminalId(1), TerminalId(2), MessageClass::Request, 0, 0);
        for _ in 0..6 {
            fab.tick();
        }
        assert!(fab.poll(TerminalId(2)).is_some());
    }
}
