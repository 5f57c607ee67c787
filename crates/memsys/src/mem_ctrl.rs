//! DDR3-1667 memory-channel model.
//!
//! The chip has four channels (Table 1), interleaved by line address. Each
//! channel services one 64-byte access at a time: an access occupies the
//! channel for [`MemChannelConfig::occupancy`] cycles (data-bus burst,
//! ≈ 12.8 GB/s per channel at 2 GHz) and completes after
//! [`MemChannelConfig::latency`] cycles (activate + CAS + transfer,
//! ≈ 45 ns). Queueing delay emerges from the FIFO.
//!
//! A channel speaks the protocol's [`Msg`], like an LLC tile: it takes
//! `MemRead` and `MemWrite` and returns each read's `MemData`, which the
//! chip model injects as it stands.
//!
//! A channel is a pure event consumer: [`MemoryChannel::tick`] on an empty
//! channel is a no-op, and [`MemoryChannel::next_wake`] names the earliest
//! cycle at which a tick can change state, which is what lets the chip
//! model keep idle channels out of its per-cycle scan entirely.

use crate::protocol::Msg;
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

/// One DDR3 channel.
///
/// It speaks the protocol's own messages, with the same submit → tick →
/// pop_ready shape as an LLC tile: [`MemoryChannel::submit`] queues a
/// [`Msg::MemRead`] or [`Msg::MemWrite`], [`MemoryChannel::tick`] starts
/// service on the head of the queue whenever the data bus is free, and
/// [`MemoryChannel::pop_ready`] yields the [`Msg::MemData`] each read
/// owes its home tile once the access latency has passed. A write only
/// consumes bandwidth.
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::Addr;
/// use nocout_mem::mem_ctrl::{MemChannelConfig, MemoryChannel};
/// use nocout_mem::protocol::{Msg, MshrId};
/// use nocout_sim::Cycle;
///
/// let mut ch = MemoryChannel::new(MemChannelConfig { latency: 10, occupancy: 4 });
/// ch.submit(Msg::MemRead { mshr: MshrId(7), home: 2, addr: Addr(0x40) });
/// let mut done = Vec::new();
/// for t in 0..=10 {
///     ch.tick(Cycle(t));
///     done.extend(std::iter::from_fn(|| ch.pop_ready(Cycle(t))));
/// }
/// assert_eq!(done, vec![Msg::MemData { mshr: MshrId(7), home: 2 }]);
/// ```
#[derive(Debug)]
pub struct MemoryChannel {
    cfg: MemChannelConfig,
    /// Waiting `MemRead`s and `MemWrite`s, in arrival order.
    queue: Ring<Msg>,
    busy_until: Cycle,
    /// The `MemData` of each read in service, with the cycle it is ready.
    completions: Ring<(Cycle, Msg)>,
    /// Reads serviced.
    pub reads: Counter,
    /// Writes serviced.
    pub writes: Counter,
}

/// Ring sizing hint: a channel's in-flight population is bounded by the
/// LLC tiles' MSHRs that interleave onto it, ≤ 64 tiles × 16–32 MSHRs / 4
/// channels in the paper's configurations; 32 covers the usual queue, and
/// the ring grows on the rare burst past it.
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
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> MemChannelConfig {
        self.cfg
    }

    /// Queues a request (called by the chip model on packet delivery).
    ///
    /// # Panics
    ///
    /// On any message but `MemRead` and `MemWrite`. The panic names the
    /// message.
    pub fn submit(&mut self, msg: Msg) {
        assert!(
            matches!(msg, Msg::MemRead { .. } | Msg::MemWrite { .. }),
            "a memory channel serves MemRead and MemWrite, not {msg:?}"
        );
        self.queue.push_back(msg);
    }

    /// Reads waiting or in service: the `MemData` replies the channel
    /// still owes.
    pub fn owed_replies(&self) -> usize {
        let queued = self.queue.iter().filter(|m| matches!(m, Msg::MemRead { .. }));
        queued.count() + self.completions.len()
    }

    /// Whether a future tick can do anything at all. A channel with no
    /// queued requests and no outstanding completions is inert until the
    /// next [`MemoryChannel::submit`]; the chip model drops such channels
    /// from its active set.
    pub fn has_pending_work(&self) -> bool {
        !self.queue.is_empty() || !self.completions.is_empty()
    }

    /// The earliest cycle at which a tick or pop changes state: the data
    /// bus freeing up for the next queued request, or the first
    /// completion maturing. `None` when the channel is inert (see
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

    /// Advances to `now`: starts service on queued requests while the
    /// data bus is free.
    pub fn tick(&mut self, now: Cycle) {
        while self.busy_until <= now {
            let Some(msg) = self.queue.pop_front() else {
                break;
            };
            self.busy_until = now + self.cfg.occupancy;
            if let Msg::MemRead { mshr, home, .. } = msg {
                self.reads.incr();
                let data = Msg::MemData { mshr, home };
                self.completions.push_back((now + self.cfg.latency, data));
            } else {
                self.writes.incr();
            }
        }
    }

    /// Pops the next `MemData` whose access has completed by `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<Msg> {
        match self.completions.front() {
            Some(&(at, data)) if at <= now => {
                self.completions.pop_front();
                Some(data)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::protocol::{MshrId, TxnId};

    fn cfg() -> MemChannelConfig {
        MemChannelConfig {
            latency: 20,
            occupancy: 5,
        }
    }

    /// A read from MSHR `id` of tile `id + 1`.
    fn read(id: u32) -> Msg {
        Msg::MemRead {
            mshr: MshrId(id),
            home: id as u16 + 1,
            addr: Addr(id as u64 * 64),
        }
    }

    /// The reply [`read`]`(id)` is owed.
    fn data(id: u32) -> Msg {
        Msg::MemData {
            mshr: MshrId(id),
            home: id as u16 + 1,
        }
    }

    /// Ticks and drains `ch` at `now`, appending what it returns to `done`.
    fn step(ch: &mut MemoryChannel, now: Cycle, done: &mut Vec<Msg>) {
        ch.tick(now);
        done.extend(std::iter::from_fn(|| ch.pop_ready(now)));
    }

    #[test]
    fn read_completes_after_latency() {
        let mut ch = MemoryChannel::new(cfg());
        ch.submit(read(1));
        let mut done = Vec::new();
        for t in 0..20 {
            step(&mut ch, Cycle(t), &mut done);
            assert!(done.is_empty(), "not ready at {t}");
        }
        step(&mut ch, Cycle(20), &mut done);
        assert_eq!(done, vec![data(1)]);
        assert_eq!(ch.owed_replies(), 0);
        assert!(!ch.has_pending_work());
        assert_eq!(ch.next_wake(), None);
    }

    #[test]
    fn occupancy_serializes_requests() {
        let mut ch = MemoryChannel::new(cfg());
        ch.submit(read(1));
        ch.submit(read(2));
        ch.submit(read(3));
        let mut finish = Vec::new();
        let mut done = Vec::new();
        for t in 0..100 {
            step(&mut ch, Cycle(t), &mut done);
            for msg in done.drain(..) {
                finish.push((msg, t));
            }
        }
        assert_eq!(finish, vec![(data(1), 20), (data(2), 25), (data(3), 30)]);
    }

    #[test]
    fn writes_consume_bandwidth_without_completion() {
        let mut ch = MemoryChannel::new(cfg());
        ch.submit(Msg::MemWrite { addr: Addr(0x80) });
        ch.submit(read(9));
        // Only the read is owed a reply.
        assert_eq!(ch.owed_replies(), 1);
        let mut done = Vec::new();
        for t in 0..100 {
            step(&mut ch, Cycle(t), &mut done);
        }
        // Read starts at 5 (after the write's occupancy), data at 25.
        assert_eq!(done, vec![data(9)]);
        assert_eq!(ch.writes.value(), 1);
        assert_eq!(ch.reads.value(), 1);
    }

    #[test]
    #[should_panic(expected = "not Data { txn: TxnId(7) }")]
    fn submit_refuses_a_message_no_channel_serves() {
        MemoryChannel::new(cfg()).submit(Msg::Data { txn: TxnId(7) });
    }

    #[test]
    fn next_wake_tracks_bus_and_completions() {
        let mut ch = MemoryChannel::new(cfg());
        assert_eq!(ch.next_wake(), None);
        ch.submit(read(1));
        // Bus is free: service can start immediately.
        assert_eq!(ch.next_wake(), Some(Cycle(0)));
        ch.tick(Cycle(0));
        // In service: nothing changes until the completion at 20.
        assert_eq!(ch.next_wake(), Some(Cycle(20)));
        assert_eq!(ch.pop_ready(Cycle(19)), None);
        ch.submit(read(2));
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
            ch.submit(read(1));
            ch.submit(Msg::MemWrite { addr: Addr(0) });
        }
        let mut dense_done = Vec::new();
        for t in 3..60 {
            step(&mut dense, Cycle(t), &mut dense_done);
        }
        let mut sparse_done = Vec::new();
        let mut t = Cycle(3);
        while sparse.has_pending_work() {
            let wake = sparse.next_wake().expect("pending work has a wake");
            t = t.max(wake);
            step(&mut sparse, t, &mut sparse_done);
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
