//! Flits: the unit of link transfer and buffering.

use crate::packet::PacketId;
use crate::types::{MessageClass, TerminalId};

/// One flit of a packet.
///
/// A flit is `Copy`, 8 bytes, and carries just enough routing state
/// (destination terminal, class, whether it opens or closes its packet)
/// for the routers to move it without consulting the packet slab on the
/// fast path. Its position inside the packet is not stored: wormhole
/// switching only asks whether a flit is the head (it takes a route and
/// locks the downstream VC) or the tail (it releases both).
///
/// # Examples
///
/// ```
/// use nocout_noc::flit::Flit;
/// use nocout_noc::packet::PacketId;
/// use nocout_noc::types::{MessageClass, TerminalId};
///
/// let body = Flit::new(PacketId(7), 2, 5, TerminalId(3), MessageClass::Response);
/// assert!(!body.is_head() && !body.is_tail());
/// assert_eq!(std::mem::size_of::<Flit>(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Parent packet handle.
    pub packet: PacketId,
    /// Destination terminal (replicated from the packet header flit; real
    /// hardware carries it only in the head flit, but the wormhole route
    /// lock in [`crate::router`] means body flits never consult it).
    pub dst: TerminalId,
    /// Message class, which selects the virtual channel at every port.
    pub class: MessageClass,
    /// [`Flit::HEAD`] and [`Flit::TAIL`] bits.
    flags: u8,
}

impl Flit {
    /// Flag bit of a packet's first flit.
    const HEAD: u8 = 1;
    /// Flag bit of a packet's last flit.
    const TAIL: u8 = 2;

    /// Flit `seq` (`0..size`) of a `size`-flit packet.
    #[inline]
    pub const fn new(
        packet: PacketId,
        seq: u16,
        size: u16,
        dst: TerminalId,
        class: MessageClass,
    ) -> Self {
        debug_assert!(seq < size, "a flit lies inside its packet");
        let head = if seq == 0 { Self::HEAD } else { 0 };
        let tail = if seq + 1 == size { Self::TAIL } else { 0 };
        Flit {
            packet,
            dst,
            class,
            flags: head | tail,
        }
    }

    /// Whether this is the head flit of its packet.
    #[inline]
    pub fn is_head(self) -> bool {
        self.flags & Self::HEAD != 0
    }

    /// Whether this is the tail flit of its packet (a single-flit packet is
    /// both head and tail).
    #[inline]
    pub fn is_tail(self) -> bool {
        self.flags & Self::TAIL != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(seq: u16, size: u16) -> Flit {
        Flit::new(PacketId(0), seq, size, TerminalId(0), MessageClass::Request)
    }

    #[test]
    fn head_tail_flags() {
        assert!(flit(0, 1).is_head());
        assert!(flit(0, 1).is_tail());
        assert!(flit(0, 5).is_head());
        assert!(!flit(0, 5).is_tail());
        assert!(!flit(3, 5).is_head());
        assert!(!flit(3, 5).is_tail());
        assert!(!flit(4, 5).is_head());
        assert!(flit(4, 5).is_tail());
        // The flags are all a flit keeps of its position: two body flits
        // of one packet are the same flit.
        assert_eq!(flit(1, 5), flit(3, 5));
        assert_ne!(flit(0, 2), flit(1, 2));
        assert_eq!(std::mem::size_of::<Flit>(), 8);
    }
}
