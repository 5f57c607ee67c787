//! Open-loop request arrivals: offered load decoupled from completion.
//!
//! The closed-loop synthetic streams ([`crate::gen::WorkloadGen`]) always
//! have work: a slow chip simply retires fewer instructions, so load and
//! latency cannot be varied independently. Scale-out services are not
//! like that — requests arrive on a schedule the server does not control,
//! and when service falls behind, queueing delay (not throughput) is what
//! users see. [`OpenLoopSource`] models that: a deterministic per-core
//! arrival schedule (one request every `interval` cycles), each request
//! costing `service_instrs` instructions drawn from the underlying
//! workload's generator, with per-request latency (arrival to completion,
//! *including* time spent queued behind earlier requests) recorded into a
//! [`LatencyHist`]. This is the prerequisite for the classic
//! load-vs-tail-latency serving curve (the `loadlat` figure, `repro
//! loadlat`).
//!
//! ## Semantics
//!
//! * Arrivals are a fixed schedule: request `k` arrives at cycle
//!   `(k+1)·interval`, independent of simulation progress. The chip calls
//!   [`OpenLoopSource::advance_to`] each cycle to deliver arrivals.
//! * The core serves requests in order. While a request is in service its
//!   `service_instrs` instructions come from the seeded [`WorkloadGen`]
//!   (same footprints, op mix, and sharing behaviour as the closed-loop
//!   stream). A request *completes* when the core asks for the first
//!   instruction past its last service instruction — a fetch-side
//!   approximation of retirement, accurate to a pipeline depth, which is
//!   negligible against the queueing delays the curve is about.
//! * With no request in service and none queued, the source emits
//!   single-instruction fillers (a 1-cycle ALU op on the hottest, warmed
//!   instruction line) so the core stays responsive: each idle cycle the
//!   arrival schedule is re-checked. That is what is *modelled*: an idle
//!   core spins at full width, retiring fillers, and picks a request up
//!   in the cycle it arrives. How it is *executed* is another matter: the
//!   spin is the same every cycle until the next arrival, which the
//!   schedule knows, so the source says so
//!   ([`InstructionSource::idle_until`]) and the chip puts the core to
//!   sleep until that cycle, accounting the skipped ticks in bulk
//!   (`docs/hot-path.md`, "Which states sleep"). Results are
//!   bit-identical either way.
//!
//! Unlike the closed-loop sources, the instruction *sequence* is
//! timing-dependent (how many fillers separate two requests depends on
//! when the second one arrives), so block delivery and the
//! per-instruction reference path may consume different filler counts.
//! Determinism still holds: the same `(spec, core, seed, config)` always
//! produces the same run. The sleeping-core sweep of
//! `tests/chip_event_determinism.rs` runs open-loop classes against the
//! chip's reference tick like the closed-loop ones, and the `loadlat`
//! golden CSV (`repro loadlat`) pins them end to end.

use crate::gen::{WorkloadGen, INSTR_BASE};
use crate::profile::Workload;
use nocout_cpu::source::{FetchedInstr, InstrBlock, InstructionSource, Op};
use nocout_mem::addr::Addr;
use nocout_sim::rng::Zipf;
use nocout_sim::stats::LatencyHist;
use nocout_sim::text::{push_num, whole, Reader};
use nocout_sim::Cycle;
use std::sync::Arc;

/// Parameters of an open-loop arrival process layered over a synthetic
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpenLoopSpec {
    /// The workload whose generator supplies service instructions (and
    /// whose footprints are warmed).
    pub workload: Workload,
    /// Cycles between request arrivals at each core (per-core offered
    /// load = 1 request per `interval` cycles). Must be ≥ 1.
    pub interval: u64,
    /// Instructions of service per request. Must be ≥ 1.
    pub service_instrs: u32,
}

impl OpenLoopSpec {
    /// Canonical token used by cache keys and the wire protocol:
    /// `openloop:<WorkloadKey>:<interval>:<service_instrs>`.
    pub fn token(&self) -> String {
        let mut token = String::new();
        self.push_token(&mut token);
        token
    }

    /// Appends [`OpenLoopSpec::token`] to `out`.
    pub fn push_token(&self, out: &mut String) {
        out.push_str("openloop:");
        out.push_str(self.workload.key());
        out.push(':');
        push_num(out, self.interval);
        out.push(':');
        push_num(out, self.service_instrs.into());
    }

    /// Parses the [`OpenLoopSpec::token`] form (without assuming the
    /// `openloop:` prefix was stripped).
    pub fn parse_token(s: &str) -> Option<Self> {
        let rest = s.strip_prefix("openloop:")?;
        let mut parts = rest.split(':');
        let workload = Workload::from_key(parts.next()?)?;
        let interval: u64 = whole(parts.next()?, Reader::num).ok()?;
        let service_instrs: u32 = whole(parts.next()?, Reader::num).ok()?;
        if parts.next().is_some() || interval == 0 || service_instrs == 0 {
            return None;
        }
        Some(OpenLoopSpec {
            workload,
            interval,
            service_instrs,
        })
    }
}

/// The per-core open-loop instruction source: a [`WorkloadGen`] service
/// stream gated by a deterministic arrival schedule.
#[derive(Debug)]
pub struct OpenLoopSource {
    spec: OpenLoopSpec,
    gen: WorkloadGen,
    /// Current cycle, maintained by [`OpenLoopSource::advance_to`].
    now: u64,
    /// Arrival time of the next not-yet-arrived request.
    next_arrival: u64,
    /// Requests arrived so far.
    arrived: u64,
    /// Requests completed so far.
    completed: u64,
    /// Whether a request is currently in service.
    in_flight: bool,
    /// Service instructions left in the in-flight request.
    remaining: u32,
    /// Per-request latency (arrival to completion) distribution.
    hist: LatencyHist,
}

impl OpenLoopSource {
    /// Creates the source for `core` with the given seed; the service
    /// stream is exactly the closed-loop stream of the same
    /// `(workload, core, seed)`.
    pub fn new(spec: OpenLoopSpec, core: u16, seed: u64) -> Self {
        OpenLoopSource::with_zipf(spec, core, seed, spec.workload.profile().hot_zipf())
    }

    /// [`OpenLoopSource::new`] whose service stream draws from a shared
    /// hot-set table (see [`WorkloadGen::with_zipf`]).
    pub fn with_zipf(spec: OpenLoopSpec, core: u16, seed: u64, hot_zipf: Arc<Zipf>) -> Self {
        assert!(spec.interval >= 1, "interval must be >= 1");
        assert!(spec.service_instrs >= 1, "service_instrs must be >= 1");
        OpenLoopSource {
            spec,
            gen: WorkloadGen::with_zipf(spec.workload.profile(), core, seed, hot_zipf),
            now: 0,
            next_arrival: spec.interval,
            arrived: 0,
            completed: 0,
            in_flight: false,
            remaining: 0,
            hist: LatencyHist::new(),
        }
    }

    /// The spec.
    pub fn spec(&self) -> OpenLoopSpec {
        self.spec
    }

    /// The underlying generator (the chip warms its footprints exactly as
    /// for the closed-loop class).
    pub fn gen(&self) -> &WorkloadGen {
        &self.gen
    }

    /// Delivers every arrival scheduled at or before `now`. Called by the
    /// chip once per cycle before the core consumes instructions; a
    /// fast-forwarded gap is caught up in one call.
    #[inline]
    pub fn advance_to(&mut self, now: u64) {
        self.now = now;
        while self.next_arrival <= now {
            self.arrived += 1;
            self.next_arrival += self.spec.interval;
        }
    }

    /// The per-request latency distribution recorded so far.
    pub fn hist(&self) -> &LatencyHist {
        &self.hist
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests arrived but not yet completed (queued + in service).
    pub fn backlog(&self) -> u64 {
        self.arrived - self.completed
    }

    /// Resets the latency distribution (warmup boundary). The arrival
    /// schedule and in-flight request are untouched: open-loop state is
    /// workload progress, not statistics.
    pub fn reset_stats(&mut self) {
        self.hist.reset();
    }

    /// Arrival cycle of request `k` (0-based).
    #[inline]
    fn arrival_of(&self, k: u64) -> u64 {
        (k + 1) * self.spec.interval
    }

    /// The full source state machine, one instruction per call: finish a
    /// just-drained request, start the next queued one, serve it, or
    /// emit an idle filler.
    fn next_one(&mut self) -> FetchedInstr {
        if self.in_flight && self.remaining == 0 {
            // The previous request's last service instruction has been
            // consumed: it completes now, queueing delay included.
            let latency = self.now.saturating_sub(self.arrival_of(self.completed));
            self.hist.record(latency);
            self.completed += 1;
            self.in_flight = false;
        }
        if !self.in_flight && self.arrived > self.completed {
            self.in_flight = true;
            self.remaining = self.spec.service_instrs;
        }
        if self.in_flight {
            self.remaining -= 1;
            return self.gen.next_instr();
        }
        // Idle: a 1-cycle ALU op on the hottest (warmed) instruction line
        // keeps the core live without touching memory.
        FetchedInstr {
            fetch_line: Addr(INSTR_BASE),
            op: Op::Alu { latency: 1 },
        }
    }
}

impl InstructionSource for OpenLoopSource {
    fn next_instr(&mut self) -> FetchedInstr {
        self.next_one()
    }

    /// Batches only within the current request: completion recording and
    /// the serve-or-idle decision depend on the clock, so they are made
    /// at most once per refill, at consumption time. A refill that
    /// completes or starts a request batches the started request's
    /// remaining service burst (the burst is drawn unconditionally from
    /// the generator, so pre-drawing it is consumption-order identical);
    /// an idle filler stays a single-instruction block so the arrival
    /// schedule is re-checked every cycle.
    fn refill(&mut self, block: &mut InstrBlock) {
        block.clear();
        if !self.in_flight || self.remaining == 0 {
            block.push(self.next_one());
            if !self.in_flight {
                return;
            }
        }
        while self.remaining > 0 && !block.is_full() {
            self.remaining -= 1;
            block.push(self.gen.next_instr());
        }
    }

    /// Idle — nothing in service, nothing queued — until the next
    /// scheduled arrival: the filler arm of `next_one` is all that runs
    /// until then, and it touches no field.
    fn idle_until(&self) -> Option<(Addr, Cycle)> {
        (!self.in_flight && self.arrived == self.completed)
            .then_some((Addr(INSTR_BASE), Cycle(self.next_arrival)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> OpenLoopSpec {
        OpenLoopSpec {
            workload: Workload::DataServing,
            interval: 100,
            service_instrs: 8,
        }
    }

    #[test]
    fn token_round_trips() {
        let s = spec();
        assert_eq!(OpenLoopSpec::parse_token(&s.token()), Some(s));
        assert_eq!(OpenLoopSpec::parse_token("openloop:DataServing:0:8"), None);
        assert_eq!(OpenLoopSpec::parse_token("openloop:Nope:100:8"), None);
        assert_eq!(OpenLoopSpec::parse_token("openloop:DataServing:+100:08"), None);
        assert_eq!(
            OpenLoopSpec::parse_token("openloop:DataServing:100:8:extra"),
            None
        );
    }

    #[test]
    fn idles_until_first_arrival() {
        let mut s = OpenLoopSource::new(spec(), 0, 1);
        s.advance_to(50);
        for _ in 0..10 {
            let i = s.next_instr();
            assert_eq!(i.fetch_line, Addr(INSTR_BASE));
            assert_eq!(i.op, Op::Alu { latency: 1 });
        }
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn idle_promise_holds_exactly_between_requests() {
        let mut s = OpenLoopSource::new(spec(), 0, 1);
        s.advance_to(50);
        assert_eq!(s.idle_until(), Some((Addr(INSTR_BASE), Cycle(100))));
        // Handing fillers out, one per block, changes nothing in the source.
        let before = format!("{s:?}");
        let mut block = InstrBlock::new();
        s.refill(&mut block);
        assert_eq!(block.remaining(), 1);
        assert_eq!(format!("{s:?}"), before);
        // A queued request ends the promise...
        s.advance_to(100);
        assert_eq!(s.idle_until(), None);
        for _ in 0..8 {
            s.next_instr();
        }
        // ...and so does a served one whose completion the next pull
        // has yet to record.
        assert_eq!(s.idle_until(), None);
        s.advance_to(120);
        s.next_instr();
        assert_eq!(s.completed(), 1);
        assert_eq!(s.idle_until(), Some((Addr(INSTR_BASE), Cycle(200))));
    }

    #[test]
    fn serves_exactly_service_instrs_per_request() {
        let mut s = OpenLoopSource::new(spec(), 0, 1);
        s.advance_to(100);
        assert_eq!(s.backlog(), 1);
        // A parallel closed-loop generator must match the service stream.
        let mut oracle = WorkloadGen::new(spec().workload.profile(), 0, 1);
        for k in 0..8 {
            assert_eq!(s.next_instr(), oracle.next_instr(), "service instr {k}");
        }
        // Ninth pull completes the request and idles.
        s.advance_to(150);
        let i = s.next_instr();
        assert_eq!(i.fetch_line, Addr(INSTR_BASE));
        assert_eq!(s.completed(), 1);
        assert_eq!(s.hist().total(), 1);
        // Arrived at 100, completed at 150.
        assert_eq!(s.hist().percentile(1.0), 50);
    }

    #[test]
    fn queueing_delay_is_charged_to_later_requests() {
        let mut s = OpenLoopSource::new(spec(), 0, 1);
        // Three arrivals pile up before the core consumes anything.
        s.advance_to(300);
        assert_eq!(s.backlog(), 3);
        for _ in 0..8 {
            s.next_instr();
        }
        s.advance_to(301);
        s.next_instr(); // completes request 0 (arrived 100) at 301
        for _ in 0..7 {
            s.next_instr();
        }
        s.advance_to(302);
        s.next_instr(); // completes request 1 (arrived 200) at 302
        assert_eq!(s.completed(), 2);
        assert_eq!(s.hist().total(), 2);
        // p50 covers the second completion: 302 - 200 = 102, reported as
        // its bucket's upper bound (sub-bucket [102, 104) → 103).
        let p50 = s.hist().percentile(0.5);
        assert!((102..=105).contains(&p50), "{p50}");
        // p100 covers the first completion: 301 - 100 = 201, within one
        // sub-bucket above.
        let p100 = s.hist().percentile(1.0);
        assert!((201..=208).contains(&p100), "{p100}");
    }

    #[test]
    fn refill_stops_at_request_boundary() {
        let mut s = OpenLoopSource::new(spec(), 0, 1);
        s.advance_to(100);
        let mut block = InstrBlock::new();
        s.refill(&mut block);
        // Exactly the request's 8 service instructions, not a full block.
        assert_eq!(block.remaining(), 8);
        while block.pop().is_some() {}
        s.refill(&mut block);
        // Next refill is the completion + idle filler, one instruction.
        assert_eq!(block.remaining(), 1);
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let drive = || {
            let mut s = OpenLoopSource::new(spec(), 2, 9);
            let mut out = Vec::new();
            for t in 0..2000u64 {
                s.advance_to(t);
                out.push(s.next_instr());
            }
            (out, s.completed())
        };
        let (a, ca) = drive();
        let (b, cb) = drive();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca > 0);
    }

    #[test]
    fn overload_grows_backlog() {
        // One arrival per cycle, one instruction consumed per cycle,
        // 8 instructions of service: the queue must grow without bound
        // and recorded latencies must rise.
        let mut s = OpenLoopSource::new(
            OpenLoopSpec {
                workload: Workload::DataServing,
                interval: 1,
                service_instrs: 8,
            },
            0,
            1,
        );
        for t in 0..4000u64 {
            s.advance_to(t);
            s.next_instr();
        }
        assert!(s.backlog() > 3000, "backlog {}", s.backlog());
        let h = s.hist();
        assert!(h.percentile(0.99) > h.percentile(0.5));
    }
}
