//! Coherence-protocol message vocabulary and identifiers.
//!
//! The protocol is a full-map directory MESI-style design matching §3 of
//! the paper: on an L1 miss the directory (co-located with the home LLC
//! slice) either services the miss from the LLC, forwards it to the
//! exclusive owner (a *snoop*), invalidates sharers on a write, or fetches
//! the line from memory. Messages map onto the three network classes that
//! guarantee deadlock freedom: requests, snoops, and responses.
//!
//! [`Msg`] is the one vocabulary of the network, the LLC tiles, the
//! memory channels and the chip: the chip injects a `Msg` and dispatches
//! it on delivery, an LLC tile takes the four LLC-bound messages
//! (`CoreRequest`, `WriteBack`, `InvAck`, `MemData`) as they arrive and
//! emits the ones it sends, each with its [`crate::llc::Dest`], and a
//! memory channel takes `MemRead` and `MemWrite` and returns each read's
//! `MemData`, with nothing translating in between.

use crate::addr::Addr;
use nocout_noc::types::MessageClass;
use std::fmt;

/// A core (and its private L1s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Index into per-core tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A core-side miss transaction (allocated by the chip model; flows through
/// every message belonging to the transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId(pub u32);

/// An LLC-side miss-status-holding-register id (memory fetches and
/// invalidation collections in flight at one LLC tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MshrId(pub u32);

/// The kind of access a core performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (read, L1-I).
    InstrFetch,
    /// Data load (read, L1-D).
    Load,
    /// Data store (write, L1-D).
    Store,
}

impl AccessKind {
    /// Whether this access needs write permission.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }

    /// Whether this is an instruction fetch (L1-I side).
    #[inline]
    pub fn is_ifetch(self) -> bool {
        matches!(self, AccessKind::InstrFetch)
    }

    /// The coherence request this access issues on an L1 miss.
    #[inline]
    pub fn request(self) -> RequestKind {
        if self.is_write() {
            RequestKind::GetX
        } else {
            RequestKind::GetS
        }
    }
}

/// Coherence request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read (shared) permission.
    GetS,
    /// Write (exclusive) permission.
    GetX,
}

/// Every message carried over the interconnect, as stored in the chip
/// model's in-flight message table (the network itself carries only an
/// opaque token pointing at one of these).
///
/// # Examples
///
/// The table is a [`nocout_sim::slab::Slab`]; a message's slab id, widened
/// to `u64`, is the token its packet carries:
///
/// ```
/// use nocout_mem::protocol::{Msg, TxnId};
/// use nocout_sim::slab::Slab;
///
/// let mut msgs = Slab::new();
/// let token = msgs.insert(Msg::Data { txn: TxnId(3) }) as u64;
/// assert_eq!(msgs.take(token as u32), Msg::Data { txn: TxnId(3) });
/// assert!(msgs.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Core → home LLC tile: L1 miss request.
    CoreRequest {
        /// The core-side transaction.
        txn: TxnId,
        /// Requesting core.
        core: CoreId,
        /// Line address.
        addr: Addr,
        /// GetS or GetX.
        kind: RequestKind,
    },
    /// LLC/owner → requesting core: data (or write-permission) response.
    Data {
        /// The core-side transaction being completed.
        txn: TxnId,
    },
    /// Directory → exclusive owner: forward the line to `requester`
    /// (read). The owner demotes to shared.
    FwdGetS {
        /// Requester's transaction (completed by the owner's Data).
        txn: TxnId,
        /// Core that will receive the data.
        requester: CoreId,
        /// Line address.
        addr: Addr,
    },
    /// Directory → exclusive owner: forward the line to `requester`
    /// (write). The owner invalidates its copy.
    FwdGetX {
        /// Requester's transaction.
        txn: TxnId,
        /// Core that will receive the data.
        requester: CoreId,
        /// Line address.
        addr: Addr,
    },
    /// Directory → sharer: invalidate; acknowledge to the directory.
    Inv {
        /// The directory-side collection this ack belongs to.
        mshr: MshrId,
        /// Home LLC tile expecting the ack.
        home: u16,
        /// Line address.
        addr: Addr,
    },
    /// Sharer → directory: invalidation acknowledgement.
    InvAck {
        /// The directory-side collection.
        mshr: MshrId,
    },
    /// Core → home LLC tile: dirty-line writeback (no acknowledgement).
    WriteBack {
        /// Writing core.
        core: CoreId,
        /// Line address.
        addr: Addr,
    },
    /// LLC tile → memory controller: line fetch.
    MemRead {
        /// LLC-side MSHR to resume.
        mshr: MshrId,
        /// Home LLC tile to send the data back to.
        home: u16,
        /// Line address.
        addr: Addr,
    },
    /// Memory controller → LLC tile: fetched line.
    MemData {
        /// LLC-side MSHR to resume.
        mshr: MshrId,
        /// Home LLC tile the data returns to.
        home: u16,
    },
    /// LLC tile → memory controller: dirty eviction (no acknowledgement).
    MemWrite {
        /// Line address.
        addr: Addr,
    },
}

impl Msg {
    /// The network message class this message rides on.
    pub fn class(&self) -> MessageClass {
        match self {
            Msg::CoreRequest { .. } | Msg::MemRead { .. } => MessageClass::Request,
            Msg::FwdGetS { .. } | Msg::FwdGetX { .. } | Msg::Inv { .. } => MessageClass::Snoop,
            Msg::Data { .. }
            | Msg::InvAck { .. }
            | Msg::WriteBack { .. }
            | Msg::MemData { .. }
            | Msg::MemWrite { .. } => MessageClass::Response,
        }
    }

    /// Payload size in bytes (data-bearing messages carry a 64 B line).
    pub fn payload_bytes(&self) -> u32 {
        match self {
            Msg::Data { .. }
            | Msg::WriteBack { .. }
            | Msg::MemData { .. }
            | Msg::MemWrite { .. } => crate::addr::LINE_BYTES as u32,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_classes_match_paper_taxonomy() {
        let req = Msg::CoreRequest {
            txn: TxnId(0),
            core: CoreId(1),
            addr: Addr(0),
            kind: RequestKind::GetS,
        };
        assert_eq!(req.class(), MessageClass::Request);
        assert_eq!(
            Msg::FwdGetS {
                txn: TxnId(0),
                requester: CoreId(0),
                addr: Addr(0)
            }
            .class(),
            MessageClass::Snoop
        );
        assert_eq!(Msg::Data { txn: TxnId(0) }.class(), MessageClass::Response);
        assert_eq!(
            Msg::InvAck { mshr: MshrId(0) }.class(),
            MessageClass::Response
        );
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Msg::Data { txn: TxnId(0) }.payload_bytes(), 64);
        assert_eq!(
            Msg::MemRead {
                mshr: MshrId(0),
                home: 0,
                addr: Addr(0)
            }
            .payload_bytes(),
            0
        );
        assert_eq!(Msg::MemWrite { addr: Addr(0) }.payload_bytes(), 64);
    }

    #[test]
    fn access_kind_mapping() {
        assert_eq!(AccessKind::InstrFetch.request(), RequestKind::GetS);
        assert_eq!(AccessKind::Load.request(), RequestKind::GetS);
        assert_eq!(AccessKind::Store.request(), RequestKind::GetX);
        assert!(AccessKind::Store.is_write());
        assert!(AccessKind::InstrFetch.is_ifetch());
    }
}
