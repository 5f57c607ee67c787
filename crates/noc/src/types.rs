//! Core identifier and message-class types for the NoC.

use std::fmt;

/// Identifies a router (or tree node) within a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u16);

impl RouterId {
    /// Index into the network's router table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a network terminal: anything that injects and ejects packets
/// (a core, an LLC tile, or a memory controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TerminalId(pub u16);

impl TerminalId {
    /// Index into the network's terminal table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TerminalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Port index local to one router.
pub type PortIndex = u8;

/// The protocol message classes carried by the network.
///
/// The paper distinguishes exactly three classes to guarantee network-level
/// deadlock freedom for the coherence protocol (§4.1): data requests, snoop
/// requests, and responses (both data and snoop responses). Each class rides
/// a dedicated virtual channel at every port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// L1 miss requests travelling from cores toward the LLC/directory, and
    /// LLC fill requests toward the memory controllers.
    Request,
    /// Snoop requests (invalidations and forward requests). These originate
    /// only at the directory nodes co-located with the LLC.
    Snoop,
    /// Data responses and snoop acknowledgements. Responses sink at their
    /// destination, which breaks protocol-level dependence cycles.
    Response,
}

/// Number of message classes, and therefore VCs per port in the general
/// networks.
pub const CLASS_COUNT: usize = 3;

impl MessageClass {
    /// All classes, in ascending VC-index order.
    pub const ALL: [MessageClass; CLASS_COUNT] =
        [MessageClass::Request, MessageClass::Snoop, MessageClass::Response];

    /// The virtual-channel index assigned to this class.
    #[inline]
    pub fn vc(self) -> usize {
        match self {
            MessageClass::Request => 0,
            MessageClass::Snoop => 1,
            MessageClass::Response => 2,
        }
    }

    /// Builds a class back from a VC index.
    ///
    /// # Panics
    ///
    /// Panics if `vc >= CLASS_COUNT`.
    #[inline]
    pub fn from_vc(vc: usize) -> MessageClass {
        MessageClass::ALL[vc]
    }

    /// Static arbitration priority (higher wins). The paper prioritizes
    /// responses over snoops over requests, so that replies are never
    /// blocked behind new work.
    #[inline]
    pub fn priority(self) -> u8 {
        match self {
            MessageClass::Response => 2,
            MessageClass::Snoop => 1,
            MessageClass::Request => 0,
        }
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageClass::Request => "req",
            MessageClass::Snoop => "snoop",
            MessageClass::Response => "resp",
        };
        f.write_str(s)
    }
}

/// Computes the number of flits needed to carry `payload_bytes` of data plus
/// an 8-byte header on links that are `link_width_bits` wide.
///
/// With the paper's 128-bit (16-byte) links, a control packet (no payload)
/// is a single flit and a 64-byte cache-line response is
/// `ceil(72 / 16) = 5` flits. The area-normalized study (Fig. 9) shrinks the
/// link width, which grows packets through exactly this function — that is
/// the serialization-latency spike the paper describes.
///
/// # Panics
///
/// Panics if `link_width_bits` is zero.
///
/// # Examples
///
/// ```
/// use nocout_noc::types::flits_for_payload;
///
/// assert_eq!(flits_for_payload(0, 128), 1);   // request
/// assert_eq!(flits_for_payload(64, 128), 5);  // data response
/// assert_eq!(flits_for_payload(64, 32), 18);  // narrow-link response
/// ```
pub fn flits_for_payload(payload_bytes: u32, link_width_bits: u32) -> u16 {
    assert!(link_width_bits > 0, "link width must be positive");
    const HEADER_BYTES: u32 = 8;
    let total_bits = (payload_bytes + HEADER_BYTES) * 8;
    total_bits.div_ceil(link_width_bits) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_vc_round_trip() {
        for class in MessageClass::ALL {
            assert_eq!(MessageClass::from_vc(class.vc()), class);
        }
    }

    #[test]
    fn class_priorities_ordering() {
        assert!(MessageClass::Response.priority() > MessageClass::Snoop.priority());
        assert!(MessageClass::Snoop.priority() > MessageClass::Request.priority());
    }

    #[test]
    fn flit_sizing_at_paper_width() {
        assert_eq!(flits_for_payload(0, 128), 1);
        assert_eq!(flits_for_payload(64, 128), 5);
    }

    #[test]
    fn flit_sizing_narrow_links() {
        // Mesh at ~1/2 width and FBfly at ~1/7 width for the Fig. 9 study.
        assert_eq!(flits_for_payload(64, 64), 9);
        assert_eq!(flits_for_payload(0, 16), 4);
        assert_eq!(flits_for_payload(64, 16), 36);
    }

    #[test]
    fn display_impls() {
        assert_eq!(RouterId(3).to_string(), "r3");
        assert_eq!(TerminalId(9).to_string(), "t9");
        assert_eq!(MessageClass::Snoop.to_string(), "snoop");
    }
}
