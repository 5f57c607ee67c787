//! Flit-level, cycle-driven network-on-chip simulator for the NOC-Out
//! reproduction.
//!
//! This crate models every interconnect evaluated in *NOC-Out:
//! Microarchitecting a Scale-Out Processor* (MICRO 2012):
//!
//! * the tiled **mesh** baseline ([`topology::mesh`]),
//! * the tiled **flattened butterfly** ([`topology::fbfly`]),
//! * **NOC-Out** itself — reduction and dispersion trees feeding a
//!   centralized LLC row linked by a 1-D flattened butterfly
//!   ([`topology::nocout`]),
//! * the contention-free **ideal** fabrics of Fig. 1 ([`topology::ideal`]).
//!
//! The common machinery is a table-routed, input-buffered wormhole network
//! with one virtual channel per protocol message class and credit-based
//! flow control ([`network::Network`]); clients program against the
//! [`fabric::Fabric`] trait so organizations are interchangeable.
//!
//! # Examples
//!
//! Send a request across the paper's 64-core NOC-Out fabric:
//!
//! ```
//! use nocout_noc::fabric::Fabric;
//! use nocout_noc::topology::nocout::{build_nocout, NocOutSpec};
//! use nocout_noc::types::MessageClass;
//!
//! let mut n = build_nocout(&NocOutSpec::paper_64());
//! let core = n.core_terminals[0];
//! let llc = n.llc_terminals[0];
//! n.network.inject(core, llc, MessageClass::Request, 0, 1);
//! assert!(n.network.run_until_drained(100));
//! assert!(n.network.poll(llc).is_some());
//! ```

pub mod fabric;
pub mod flit;
pub mod latency;
pub mod network;
pub mod packet;
pub mod rng_traffic;
pub mod router;
pub mod stats;
pub mod topology;
pub mod types;

pub use fabric::Fabric;
pub use network::{Network, NetworkBuilder, RouterView};
pub use packet::{Delivery, Packet};
pub use router::{ArbiterKind, RouterConfig};
pub use stats::NetStats;
pub use types::{MessageClass, RouterId, TerminalId};
