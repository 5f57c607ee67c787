//! DDR3-1667 memory-channel model.
//!
//! The chip has four channels (Table 1), interleaved by line address. Each
//! channel services one 64-byte access at a time: an access occupies the
//! channel for [`MemChannelConfig::occupancy`] cycles (data-bus burst,
//! ≈ 12.8 GB/s per channel at 2 GHz) and completes after
//! [`MemChannelConfig::latency`] cycles (activate + CAS + transfer,
//! ≈ 45 ns). Queueing delay emerges from the FIFO.
//!
//! A channel is a pure event consumer: [`MemoryChannel::tick`] on an empty
//! channel is a no-op, and [`MemoryChannel::next_wake`] names the earliest
//! cycle at which a tick can change state, which is what lets the chip
//! model keep idle channels out of its per-cycle scan entirely.

use crate::addr::Addr;
use nocout_sim::ring::Ring;
use nocout_sim::stats::Counter;
use nocout_sim::Cycle;

/// Timing of one DDR3 channel, in core cycles (2 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemChannelConfig {
    /// Cycles from the access starting service until data is available.
    pub latency: u64,
    /// Cycles the channel stays busy per access (throughput bound).
    pub occupancy: u64,
}

impl Default for MemChannelConfig {
    /// DDR3-1667 at a 2 GHz core clock: ~45 ns access, 64 B burst at
    /// ~12.8 GB/s.
    fn default() -> Self {
        MemChannelConfig {
            latency: 90,
            occupancy: 12,
        }
    }
}

/// A request queued at a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRequest {
    /// A read that completes with a token handed back via
    /// [`MemoryChannel::tick`].
    Read {
        /// Opaque completion token (the chip model uses the message-slab
        /// token of the eventual `MemData`).
        token: u64,
        /// Line address (future bank/row modeling keys off this).
        addr: Addr,
    },
    /// A write (fire-and-forget; consumes bandwidth only).
    Write {
        /// Line address.
        addr: Addr,
    },
}

/// One DDR3 channel.
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::mem_ctrl::{MemChannelConfig, MemoryChannel, MemRequest};
/// use nocout_sim::Cycle;
///
/// let mut ch = MemoryChannel::new(MemChannelConfig { latency: 10, occupancy: 4 });
/// ch.push(MemRequest::Read { token: 7, addr: Addr(0x40) }, Cycle(0));
/// let mut done = Vec::new();
/// for t in 0..=10 {
///     ch.tick(Cycle(t), &mut done);
/// }
/// assert_eq!(done, vec![7]);
/// ```
#[derive(Debug)]
pub struct MemoryChannel {
    cfg: MemChannelConfig,
    /// Waiting requests with their arrival stamps — one ring instead of
    /// the former parallel `queue`/`arrivals` `VecDeque` pair, so the two
    /// can never desynchronize and a pop is a single head advance.
    queue: Ring<(MemRequest, Cycle)>,
    busy_until: Cycle,
    completions: Ring<(Cycle, u64)>,
    /// Reads serviced.
    pub reads: Counter,
    /// Writes serviced.
    pub writes: Counter,
    /// Total cycles requests spent queued (arrival→service), for
    /// diagnostics.
    pub queue_cycles: Counter,
    /// Deepest queue observed.
    pub peak_queue: usize,
}

/// Ring sizing hint: a channel's in-flight population is bounded by the
/// LLC tiles' MSHRs that interleave onto it, ≤ 64 tiles × 16–32 MSHRs / 4
/// channels in the paper's configurations; 32 covers the queues actually
/// observed (`peak_queue`) with the ring growing on the rare burst past it.
const CHANNEL_QUEUE_HINT: usize = 32;

impl MemoryChannel {
    /// Creates an idle channel.
    pub fn new(cfg: MemChannelConfig) -> Self {
        MemoryChannel {
            cfg,
            queue: Ring::with_capacity(CHANNEL_QUEUE_HINT),
            busy_until: Cycle::ZERO,
            completions: Ring::with_capacity(CHANNEL_QUEUE_HINT),
            reads: Counter::new(),
            writes: Counter::new(),
            queue_cycles: Counter::new(),
            peak_queue: 0,
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> MemChannelConfig {
        self.cfg
    }

    /// Enqueues a request at `now`.
    pub fn push(&mut self, req: MemRequest, now: Cycle) {
        self.queue.push_back((req, now));
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Requests waiting or in service.
    pub fn inflight(&self) -> usize {
        self.queue.len() + self.completions.len()
    }

    /// Whether a future tick can do anything at all. A channel with no
    /// queued requests and no outstanding completions is inert until the
    /// next [`MemoryChannel::push`]; the chip model drops such channels
    /// from its active set.
    pub fn has_pending_work(&self) -> bool {
        !self.queue.is_empty() || !self.completions.is_empty()
    }

    /// The earliest cycle at which a tick changes state: the data bus
    /// freeing up for the next queued request, or the first completion
    /// maturing. `None` when the channel is inert (see
    /// [`MemoryChannel::has_pending_work`]). Ticks strictly before the
    /// returned cycle are provably no-ops, which is the contract the
    /// chip-level fast-forward relies on.
    pub fn next_wake(&self) -> Option<Cycle> {
        let service = if self.queue.is_empty() {
            None
        } else {
            Some(self.busy_until)
        };
        let completion = self.completions.front().map(|&(at, _)| at);
        match (service, completion) {
            (Some(s), Some(c)) => Some(s.min(c)),
            (s, c) => s.or(c),
        }
    }

    /// Advances one cycle; tokens of reads whose data is ready are
    /// appended to `done` (which is *not* cleared — the caller owns the
    /// scratch buffer, so the steady state allocates nothing).
    pub fn tick(&mut self, now: Cycle, done: &mut Vec<u64>) {
        // Start service on the head request if the data bus is free.
        while self.busy_until <= now {
            let Some((req, arrived)) = self.queue.pop_front() else {
                break;
            };
            self.queue_cycles.add(now.saturating_since(arrived));
            self.busy_until = now + self.cfg.occupancy;
            match req {
                MemRequest::Read { token, .. } => {
                    self.reads.incr();
                    self.completions.push_back((now + self.cfg.latency, token));
                }
                MemRequest::Write { .. } => {
                    self.writes.incr();
                }
            }
        }
        while let Some(&(at, token)) = self.completions.front() {
            if at > now {
                break;
            }
            self.completions.pop_front();
            done.push(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemChannelConfig {
        MemChannelConfig {
            latency: 20,
            occupancy: 5,
        }
    }

    fn read(token: u64) -> MemRequest {
        MemRequest::Read {
            token,
            addr: Addr(token * 64),
        }
    }

    #[test]
    fn read_completes_after_latency() {
        let mut ch = MemoryChannel::new(cfg());
        ch.push(read(1), Cycle(0));
        let mut done = Vec::new();
        for t in 0..20 {
            ch.tick(Cycle(t), &mut done);
            assert!(done.is_empty(), "not ready at {t}");
        }
        ch.tick(Cycle(20), &mut done);
        assert_eq!(done, vec![1]);
        assert_eq!(ch.inflight(), 0);
        assert!(!ch.has_pending_work());
        assert_eq!(ch.next_wake(), None);
    }

    #[test]
    fn occupancy_serializes_requests() {
        let mut ch = MemoryChannel::new(cfg());
        ch.push(read(1), Cycle(0));
        ch.push(read(2), Cycle(0));
        ch.push(read(3), Cycle(0));
        let mut finish = Vec::new();
        let mut done = Vec::new();
        for t in 0..100 {
            ch.tick(Cycle(t), &mut done);
            for tok in done.drain(..) {
                finish.push((tok, t));
            }
        }
        assert_eq!(finish, vec![(1, 20), (2, 25), (3, 30)]);
        assert_eq!(ch.queue_cycles.value(), 5 + 10);
    }

    #[test]
    fn writes_consume_bandwidth_without_completion() {
        let mut ch = MemoryChannel::new(cfg());
        ch.push(MemRequest::Write { addr: Addr(0x80) }, Cycle(0));
        ch.push(read(9), Cycle(0));
        let mut done = Vec::new();
        for t in 0..100 {
            ch.tick(Cycle(t), &mut done);
        }
        // Read starts at 5 (after the write's occupancy), data at 25.
        assert_eq!(done, vec![9]);
        assert_eq!(ch.writes.value(), 1);
        assert_eq!(ch.reads.value(), 1);
    }

    #[test]
    fn peak_queue_tracked() {
        let mut ch = MemoryChannel::new(cfg());
        for i in 0..7 {
            ch.push(read(i), Cycle(0));
        }
        assert_eq!(ch.peak_queue, 7);
    }

    #[test]
    fn next_wake_tracks_bus_and_completions() {
        let mut ch = MemoryChannel::new(cfg());
        assert_eq!(ch.next_wake(), None);
        ch.push(read(1), Cycle(0));
        // Bus is free: service can start immediately.
        assert_eq!(ch.next_wake(), Some(Cycle(0)));
        let mut done = Vec::new();
        ch.tick(Cycle(0), &mut done);
        // In service: nothing changes until the completion at 20.
        assert_eq!(ch.next_wake(), Some(Cycle(20)));
        ch.push(read(2), Cycle(1));
        // Queued request waits for the bus at 5, before the completion.
        assert_eq!(ch.next_wake(), Some(Cycle(5)));
    }

    #[test]
    fn skipping_noop_cycles_is_equivalent_to_ticking_them() {
        // Per-cycle ticking and next_wake-driven ticking must produce the
        // same completions and counters.
        let mut dense = MemoryChannel::new(cfg());
        let mut sparse = MemoryChannel::new(cfg());
        for ch in [&mut dense, &mut sparse] {
            ch.push(read(1), Cycle(3));
            ch.push(MemRequest::Write { addr: Addr(0) }, Cycle(3));
        }
        let mut dense_done = Vec::new();
        for t in 3..60 {
            dense.tick(Cycle(t), &mut dense_done);
        }
        let mut sparse_done = Vec::new();
        let mut t = Cycle(3);
        while sparse.has_pending_work() {
            let wake = sparse.next_wake().expect("pending work has a wake");
            t = t.max(wake);
            sparse.tick(t, &mut sparse_done);
            t += 1;
        }
        assert_eq!(dense_done, sparse_done);
        assert_eq!(format!("{dense:?}"), format!("{sparse:?}"));
    }

    #[test]
    fn default_matches_ddr3_1667() {
        let c = MemChannelConfig::default();
        // 90 cycles at 2 GHz = 45 ns; 12 cycles per 64 B ≈ 10.7 GB/s.
        assert_eq!(c.latency, 90);
        assert_eq!(c.occupancy, 12);
    }
}
