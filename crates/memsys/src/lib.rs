//! Memory-system substrate for the NOC-Out reproduction.
//!
//! Everything between the cores and DRAM, built from scratch:
//!
//! * [`addr`] — physical addresses and NUCA interleaving,
//! * [`cache`] — set-associative LRU tag arrays,
//! * [`l1`] — private 32 KB L1-I/L1-D caches with MSHRs,
//! * [`mshr`] — the one MSHR file, behind the L1s and the LLC tiles,
//! * [`directory`] — full-map sharer tracking co-located with the LLC,
//! * [`llc`] — banked LLC tiles with the directory protocol engine
//!   (GetS/GetX, forwards, invalidations, memory fetches),
//! * [`mem_ctrl`] — DDR3-1667 channel timing,
//! * [`protocol`] — the message vocabulary shared with the interconnect.
//!
//! The paper's coherence traffic analysis (§3, Fig. 4) is reproduced by
//! running these components against the synthetic workloads of
//! `nocout-workloads`: instruction lines are read-shared and served from
//! the LLC; the vast data stream misses to memory; only the small
//! shared-writable fraction produces snoops.
//!
//! # Examples
//!
//! ```
//! use nocout_mem::addr::{Addr, AddressMap};
//! use nocout_mem::l1::{L1Access, L1Cache, L1Config};
//!
//! let map = AddressMap::new(8, 2, 4);
//! let mut l1 = L1Cache::new(L1Config::a15());
//! let addr = Addr(0x1040);
//! assert_eq!(l1.access(addr, false, 0), L1Access::Miss);
//! assert!(map.home_tile(addr) < 8);
//! ```

pub mod addr;
pub mod cache;
pub mod directory;
pub mod l1;
pub mod llc;
pub mod mem_ctrl;
pub mod mshr;
pub mod protocol;

pub use addr::{Addr, AddressMap, LINE_BYTES};
pub use cache::{CacheArray, CacheGeometry};
pub use directory::{DirState, LlcSlice};
pub use l1::{L1Access, L1Cache, L1Config};
pub use llc::{LlcConfig, LlcTile};
pub use mem_ctrl::{MemChannelConfig, MemoryChannel};
pub use protocol::{AccessKind, CoreId, Msg, RequestKind, TxnId};
