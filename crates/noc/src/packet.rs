//! Packets and their ids.
//!
//! Flits are tiny `Copy` values that reference their parent packet through a
//! [`PacketId`], an id into the network's [`nocout_sim::slab::Slab`] of
//! packet bodies. This keeps the per-cycle data movement cheap while
//! preserving full packet metadata for latency accounting and protocol
//! resumption.

use crate::types::{flits_for_payload, MessageClass, TerminalId};
use nocout_sim::Cycle;

/// Slab handle for a packet in flight.
///
/// # Examples
///
/// ```
/// use nocout_noc::packet::{Packet, PacketId};
/// use nocout_noc::types::{MessageClass, TerminalId};
/// use nocout_sim::slab::Slab;
/// use nocout_sim::Cycle;
///
/// let mut slab = Slab::new();
/// let p = Packet::new(TerminalId(0), TerminalId(1), MessageClass::Request,
///                     0, 128, 0, Cycle(0));
/// let id = PacketId(slab.insert(p));
/// assert_eq!(slab.get(id.0), &p);
/// assert_eq!(slab.take(id.0), p);
/// assert_eq!(slab.len(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u32);

/// A network packet.
///
/// `token` is an opaque value chosen by the client (the memory system uses
/// it to find the protocol transaction to resume on delivery). The network
/// never interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Injecting terminal.
    pub src: TerminalId,
    /// Destination terminal.
    pub dst: TerminalId,
    /// Message class (selects the virtual channel).
    pub class: MessageClass,
    /// Length in flits (≥ 1), already serialized for the link width.
    pub size_flits: u16,
    /// Client-defined correlation token.
    pub token: u64,
    /// Cycle at which the packet entered the injection queue.
    pub injected_at: Cycle,
}

impl Packet {
    /// Builds a packet, deriving its flit count from the payload size and
    /// link width.
    ///
    /// # Examples
    ///
    /// ```
    /// use nocout_noc::packet::Packet;
    /// use nocout_noc::types::{MessageClass, TerminalId};
    /// use nocout_sim::Cycle;
    ///
    /// let p = Packet::new(
    ///     TerminalId(0),
    ///     TerminalId(5),
    ///     MessageClass::Response,
    ///     64,   // one cache line of payload
    ///     128,  // 128-bit links
    ///     7,
    ///     Cycle(100),
    /// );
    /// assert_eq!(p.size_flits, 5);
    /// ```
    pub fn new(
        src: TerminalId,
        dst: TerminalId,
        class: MessageClass,
        payload_bytes: u32,
        link_width_bits: u32,
        token: u64,
        injected_at: Cycle,
    ) -> Self {
        Packet {
            src,
            dst,
            class,
            size_flits: flits_for_payload(payload_bytes, link_width_bits),
            token,
            injected_at,
        }
    }
}

/// A delivered packet together with its measured network latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The packet as injected.
    pub packet: Packet,
    /// Cycle at which the tail flit was ejected.
    pub delivered_at: Cycle,
}

impl Delivery {
    /// End-to-end latency in cycles (injection-queue entry to tail
    /// ejection).
    pub fn latency(&self) -> u64 {
        self.delivered_at.saturating_since(self.packet.injected_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(n: u64) -> Packet {
        Packet::new(
            TerminalId(0),
            TerminalId(1),
            MessageClass::Request,
            0,
            128,
            n,
            Cycle(n),
        )
    }

    #[test]
    fn delivery_latency() {
        let p = packet(10);
        let d = Delivery {
            packet: p,
            delivered_at: Cycle(35),
        };
        assert_eq!(d.latency(), 25);
    }

    #[test]
    fn packet_flit_count_from_width() {
        let p = Packet::new(
            TerminalId(0),
            TerminalId(1),
            MessageClass::Response,
            64,
            32,
            0,
            Cycle(0),
        );
        assert_eq!(p.size_flits, 18);
    }
}
