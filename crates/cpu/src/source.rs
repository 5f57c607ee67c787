//! The instruction-stream interface between cores and workload models.

use nocout_mem::addr::Addr;
use nocout_sim::Cycle;

/// One dynamic instruction's behaviour, as far as timing is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A non-memory operation completing `latency` cycles after dispatch.
    /// Dependency chains in the workload surface as latencies above 1.
    Alu {
        /// Execution latency in cycles (≥ 1).
        latency: u8,
    },
    /// A data load.
    Load {
        /// Byte address accessed.
        addr: Addr,
        /// Whether this load depends on an earlier outstanding miss and
        /// must wait for all pending data misses to resolve before
        /// dispatch (the mechanism behind the low MLP of scale-out
        /// workloads).
        dependent: bool,
    },
    /// A data store.
    Store {
        /// Byte address accessed.
        addr: Addr,
    },
}

/// A dynamic instruction: its fetch line plus its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedInstr {
    /// The instruction-cache line this instruction is fetched from. When
    /// it differs from the previous instruction's line the core performs
    /// an L1-I access (and stalls fetch on a miss).
    pub fetch_line: Addr,
    /// What the instruction does.
    pub op: Op,
}

/// Capacity of an [`InstrBlock`] in instructions.
///
/// Sized so a refill amortizes the virtual call (and, for generated
/// workloads, the RNG setup) over a few dozen dispatch cycles while the
/// block still fits comfortably in one page of core-local state.
pub const BLOCK_CAP: usize = 64;

const BLOCK_FILL: FetchedInstr = FetchedInstr {
    fetch_line: Addr(0),
    op: Op::Alu { latency: 1 },
};

/// A fixed-capacity block of fetched instructions — the unit in which
/// instructions cross the [`InstructionSource`] trait object.
///
/// The core consumes instructions from its block and calls
/// [`InstructionSource::refill`] only when the block drains, so the
/// per-instruction cost of the delivery path is an indexed read instead
/// of a virtual call.
///
/// # Examples
///
/// ```
/// use nocout_cpu::source::{FetchedInstr, InstrBlock, InstructionSource, Op, ScriptedSource};
/// use nocout_mem::addr::Addr;
///
/// let mut src = ScriptedSource::new(vec![FetchedInstr {
///     fetch_line: Addr(0),
///     op: Op::Alu { latency: 1 },
/// }]);
/// let mut block = InstrBlock::new();
/// let a = block.take(&mut src); // refills transparently
/// assert_eq!(a, src.next_instr());
/// ```
#[derive(Debug, Clone)]
pub struct InstrBlock {
    buf: [FetchedInstr; BLOCK_CAP],
    len: u16,
    pos: u16,
}

impl InstrBlock {
    /// An empty block.
    pub fn new() -> Self {
        InstrBlock {
            buf: [BLOCK_FILL; BLOCK_CAP],
            len: 0,
            pos: 0,
        }
    }

    /// Empties the block (a refill starts here).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.pos = 0;
    }

    /// Appends one instruction.
    ///
    /// # Panics
    ///
    /// Panics if the block is full.
    #[inline]
    pub fn push(&mut self, instr: FetchedInstr) {
        assert!((self.len as usize) < BLOCK_CAP, "block is full");
        self.buf[self.len as usize] = instr;
        self.len += 1;
    }

    /// Whether every slot is filled.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len as usize == BLOCK_CAP
    }

    /// Unconsumed instructions remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        (self.len - self.pos) as usize
    }

    /// The next buffered instruction, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<FetchedInstr> {
        if self.pos == self.len {
            None
        } else {
            let i = self.buf[self.pos as usize];
            self.pos += 1;
            Some(i)
        }
    }

    /// The instruction of a fully consumed one-instruction block — the
    /// shape an idle source's filler refills leave the block in (see
    /// [`InstructionSource::idle_until`]).
    #[inline]
    pub fn spent_single(&self) -> Option<FetchedInstr> {
        (self.len == 1 && self.pos == 1).then(|| self.buf[0])
    }

    /// The next instruction of the stream, refilling from `source` when
    /// the block has drained — the only point where the delivery path
    /// crosses the trait object.
    #[inline]
    pub fn take(&mut self, source: &mut dyn InstructionSource) -> FetchedInstr {
        match self.pop() {
            Some(i) => i,
            None => {
                source.refill(self);
                debug_assert!(self.remaining() > 0, "refill must produce instructions");
                self.pop().expect("refilled block is non-empty")
            }
        }
    }
}

impl Default for InstrBlock {
    fn default() -> Self {
        InstrBlock::new()
    }
}

/// Produces the dynamic instruction stream of one hardware context.
///
/// Implemented by the workload models in `nocout-workloads`; the unit tests
/// in this crate use simple scripted sources.
pub trait InstructionSource {
    /// The next dynamic instruction. Must always return (workloads are
    /// infinite request streams).
    fn next_instr(&mut self) -> FetchedInstr;

    /// Refills `block` with the next [`BLOCK_CAP`] instructions of the
    /// stream. Implementations may batch internal work (RNG draws, trace
    /// decoding) but must produce exactly the sequence repeated
    /// [`InstructionSource::next_instr`] calls would — the block-based
    /// delivery path and the per-instruction oracle are differentially
    /// tested against each other on that contract.
    fn refill(&mut self, block: &mut InstrBlock) {
        block.clear();
        while !block.is_full() {
            block.push(self.next_instr());
        }
    }

    /// A source with nothing to serve promises so: `Some((line, until))`
    /// means that strictly before cycle `until` every instruction it
    /// hands out is the 1-cycle ALU filler fetched from `line`, one per
    /// [`InstructionSource::refill`], and that handing them out changes
    /// nothing in the source. A core spinning on that filler is then as
    /// predictable as a stalled one ([`crate::model::CoreIdle::SpinningUntil`]);
    /// from `until` on the source must be asked again. The default —
    /// `None`, "always has work" — is every closed-loop source's answer.
    fn idle_until(&self) -> Option<(Addr, Cycle)> {
        None
    }
}

/// A trivial source that loops over a fixed instruction sequence; useful
/// for tests and the quickstart example.
///
/// # Examples
///
/// ```
/// use nocout_cpu::source::{FetchedInstr, InstructionSource, Op, ScriptedSource};
/// use nocout_mem::addr::Addr;
///
/// let mut src = ScriptedSource::new(vec![FetchedInstr {
///     fetch_line: Addr(0),
///     op: Op::Alu { latency: 1 },
/// }]);
/// let a = src.next_instr();
/// let b = src.next_instr();
/// assert_eq!(a, b, "scripted source loops");
/// ```
#[derive(Debug, Clone)]
pub struct ScriptedSource {
    script: Vec<FetchedInstr>,
    pos: usize,
}

impl ScriptedSource {
    /// Creates a looping source over `script`.
    ///
    /// # Panics
    ///
    /// Panics if the script is empty.
    pub fn new(script: Vec<FetchedInstr>) -> Self {
        assert!(!script.is_empty(), "script must be non-empty");
        ScriptedSource { script, pos: 0 }
    }
}

impl InstructionSource for ScriptedSource {
    fn next_instr(&mut self) -> FetchedInstr {
        let i = self.script[self.pos];
        self.pos = (self.pos + 1) % self.script.len();
        i
    }
}

/// A scripted source with idle gaps, the smallest source that makes the
/// [`InstructionSource::idle_until`] promise: requests of `burst`
/// instructions from a looping script arrive on a schedule (the gaps
/// between arrivals cycle through a list), queue if the core is behind,
/// and between them the source hands out single 1-cycle ALU fillers on
/// one line. For tests of the core's spinning state; the open-loop
/// workload model is `nocout_workloads::OpenLoopSource`.
#[derive(Debug, Clone)]
pub struct GappedSource {
    script: ScriptedSource,
    filler_line: Addr,
    burst: u32,
    gaps: Vec<u64>,
    next_arrival: u64,
    arrived: u64,
    started: u64,
    /// Instructions left in the request being served.
    remaining: u32,
}

impl GappedSource {
    /// Creates the source: request `k` arrives `gaps[k % gaps.len()]`
    /// cycles after request `k - 1` (the first, after cycle 0).
    ///
    /// # Panics
    ///
    /// Panics on an empty script or gap list, a zero gap or a zero burst.
    pub fn new(script: Vec<FetchedInstr>, filler_line: Addr, burst: u32, gaps: Vec<u64>) -> Self {
        assert!(burst >= 1, "burst must be >= 1");
        assert!(
            !gaps.is_empty() && gaps.iter().all(|g| *g >= 1),
            "gaps must be >= 1"
        );
        GappedSource {
            script: ScriptedSource::new(script),
            filler_line,
            burst,
            next_arrival: gaps[0],
            gaps,
            arrived: 0,
            started: 0,
            remaining: 0,
        }
    }

    /// Delivers every arrival scheduled at or before `now`; call before
    /// the core's tick of that cycle (any gap is caught up in one call).
    pub fn advance_to(&mut self, now: u64) {
        while self.next_arrival <= now {
            self.arrived += 1;
            self.next_arrival += self.gaps[self.arrived as usize % self.gaps.len()];
        }
    }

    /// Requests whose service has begun.
    pub fn started(&self) -> u64 {
        self.started
    }
}

impl InstructionSource for GappedSource {
    fn next_instr(&mut self) -> FetchedInstr {
        if self.remaining == 0 && self.arrived > self.started {
            self.started += 1;
            self.remaining = self.burst;
        }
        if self.remaining == 0 {
            return FetchedInstr {
                fetch_line: self.filler_line,
                op: Op::Alu { latency: 1 },
            };
        }
        self.remaining -= 1;
        self.script.next_instr()
    }

    /// One instruction per block: serve-or-idle is a clock decision.
    fn refill(&mut self, block: &mut InstrBlock) {
        block.clear();
        block.push(self.next_instr());
    }

    fn idle_until(&self) -> Option<(Addr, Cycle)> {
        (self.remaining == 0 && self.arrived == self.started)
            .then_some((self.filler_line, Cycle(self.next_arrival)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_source_loops() {
        let mut s = ScriptedSource::new(vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 1 },
            },
            FetchedInstr {
                fetch_line: Addr(64),
                op: Op::Load {
                    addr: Addr(0x1000),
                    dependent: false,
                },
            },
        ]);
        let first = s.next_instr();
        let second = s.next_instr();
        let third = s.next_instr();
        assert_ne!(first, second);
        assert_eq!(first, third);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_script_rejected() {
        let _ = ScriptedSource::new(vec![]);
    }

    fn mixed_script() -> Vec<FetchedInstr> {
        (0..7)
            .map(|i| FetchedInstr {
                fetch_line: Addr(i * 64),
                op: match i % 3 {
                    0 => Op::Alu { latency: 1 },
                    1 => Op::Load {
                        addr: Addr(0x1000 + i * 64),
                        dependent: i % 2 == 0,
                    },
                    _ => Op::Store {
                        addr: Addr(0x2000 + i * 64),
                    },
                },
            })
            .collect()
    }

    #[test]
    fn block_take_matches_per_instruction_stream() {
        // Two identically-seeded sources: one drained through a block,
        // one instruction at a time. The consumed sequences must match
        // across several refill boundaries.
        let mut blocked = ScriptedSource::new(mixed_script());
        let mut direct = ScriptedSource::new(mixed_script());
        let mut block = InstrBlock::new();
        for n in 0..(3 * BLOCK_CAP + 5) {
            assert_eq!(block.take(&mut blocked), direct.next_instr(), "instr {n}");
        }
    }

    #[test]
    fn default_refill_fills_to_capacity() {
        let mut src = ScriptedSource::new(mixed_script());
        let mut block = InstrBlock::new();
        src.refill(&mut block);
        assert!(block.is_full());
        assert_eq!(block.remaining(), BLOCK_CAP);
        let first = block.pop().unwrap();
        assert_eq!(first, mixed_script()[0]);
        assert_eq!(block.remaining(), BLOCK_CAP - 1);
    }

    #[test]
    fn gapped_source_keeps_its_idle_promise() {
        let line = Addr(0x40);
        let filler = FetchedInstr {
            fetch_line: line,
            op: Op::Alu { latency: 1 },
        };
        let mut src = GappedSource::new(mixed_script(), line, 2, vec![10, 3]);
        let mut block = InstrBlock::new();
        assert_eq!(block.spent_single(), None);
        for t in 0..10 {
            src.advance_to(t);
            assert_eq!(src.idle_until(), Some((line, Cycle(10))));
            assert_eq!(block.take(&mut src), filler);
            assert_eq!(block.spent_single(), Some(filler));
        }
        // The arrival ends the promise; two requests (cycles 10 and 13)
        // are served back to back once the core falls behind.
        src.advance_to(13);
        assert_eq!(src.idle_until(), None);
        let served: Vec<_> = (0..4).map(|_| block.take(&mut src)).collect();
        assert_eq!(served, mixed_script()[..4]);
        assert_eq!(src.started(), 2);
        assert_eq!(src.idle_until(), Some((line, Cycle(23))));
        assert_eq!(block.take(&mut src), filler);
    }

    #[test]
    fn cleared_block_is_empty() {
        let mut src = ScriptedSource::new(mixed_script());
        let mut block = InstrBlock::new();
        src.refill(&mut block);
        block.clear();
        assert_eq!(block.remaining(), 0);
        assert!(block.pop().is_none());
    }
}
