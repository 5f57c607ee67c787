//! The sharded campaign driver: partitions a spec sequence into shards,
//! dispatches them to workers, and survives every failure mode the wire
//! can produce.
//!
//! The driver is a [`CampaignExecutor`]: `Campaign::run_on(&driver)`
//! behaves exactly like running on a local [`crate::runner::BatchRunner`]
//! — bit-identically, for every successful point — except that points
//! execute on worker endpoints ([`Endpoint::Tcp`] peers, or
//! [`Endpoint::Process`] workers the driver spawns itself).
//!
//! ## Trace shipping and capability-aware placement
//!
//! Trace workloads travel by content hash (`trace@<contenthash>` on the
//! wire), never by path. Each connection opens with the
//! `Hello`/`HelloAck` capability handshake, which tells the driver the
//! worker's core count, whether it has a `--trace-store`, and which
//! trace hashes the store holds. Shard placement prefers endpoints
//! already holding a shard's traces ([`DriverStats::trace_reuses`]);
//! otherwise the driver ships the archive ahead of the shard request in
//! [`DriverConfig::chunk_bytes`] chunks ([`DriverStats::trace_ships`],
//! [`DriverStats::trace_ship_bytes`]), resuming interrupted transfers
//! from the worker-reported staged length
//! ([`DriverStats::trace_resume_bytes`]).
//!
//! ## Failure model
//!
//! * **Dead or silent worker** — every read carries the
//!   [`DriverConfig::read_timeout`]; workers heartbeat far more often
//!   than that, so a timeout means the worker is gone, not slow.
//! * **Failed shard attempt** — the shard returns to the queue after a
//!   seeded exponential backoff with jitter
//!   ([`DriverConfig::backoff_base`]/`backoff_cap`/`backoff_seed`), up
//!   to [`DriverConfig::max_attempts`] dispatches. Any surviving
//!   endpoint can pick up the retry.
//! * **Straggler** — once a shard's only dispatch has been running
//!   longer than [`DriverConfig::speculate_after`], an idle endpoint
//!   re-dispatches it speculatively; the first completion wins and the
//!   loser is discarded (results are bit-identical either way).
//! * **Flaky endpoint** — an endpoint that fails
//!   [`DriverConfig::endpoint_failure_limit`] consecutive attempts
//!   retires; its queued work drains to the survivors.
//! * **Trace provisioning failure** — an endpoint with no trace store,
//!   or one that repeatedly fails trace transfers
//!   ([`DriverConfig::endpoint_failure_limit`] consecutive times), is
//!   retired from *trace-bearing* shards only: it stays eligible for
//!   synthetic/open-loop points. When no trace-capable endpoint
//!   remains, pending trace shards degrade into [`PointError`]s while
//!   the rest of the campaign continues.
//! * **Exhausted retries / no survivors** — the affected points degrade
//!   into [`PointError`]s naming the last transport error; the campaign
//!   completes and reports them in its failed set instead of aborting.
//! * **Dispatcher panic** — a panicking dispatcher thread is contained
//!   with `catch_unwind`: its in-flight shard fails (and retries
//!   elsewhere), its endpoint retires, and the shared state's locks are
//!   poison-tolerant, so the campaign thread never inherits the panic.
//! * **Driver crash** — with [`DriverConfig::journal`], every completed
//!   point is journaled (flushed per record); `resume: true` replays the
//!   journal and dispatches only what it does not cover
//!   (`super::journal`).

use super::journal::Journal;
use super::store::ArchivePieces;
use super::wire::{
    encode_frame, read_frame, write_frame, Message, WireError, VERSION,
};
use crate::cache::{parse_entry, render_entry};
use crate::campaign::CampaignExecutor;
use crate::runner::{panic_message, PointError, PointOutcome, RunSpec};
use nocout_sim::rng::SimRng;
use nocout_sim::text::hex;
use nocout_workloads::trace::TraceSet;
use nocout_workloads::WorkloadClass;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, BufRead, Read as _, Write as _};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, tolerating poisoning: a panicking dispatcher thread
/// must degrade its shard, not cascade a `PoisonError` panic into every
/// other dispatcher and the campaign thread. The guarded state stays
/// consistent across a poison because every mutation below is
/// single-assignment per point/shard (no multi-step invariants span an
/// unlock).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a worker lives.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// An already-running worker listening on `host:port`.
    Tcp(String),
    /// A worker process the driver spawns. `--listen 127.0.0.1:0` is
    /// appended to `args`; the worker must print `listening <addr>` on
    /// stdout once bound (as `nocout-worker` does). The driver kills the
    /// process when execution finishes.
    Process {
        /// The worker executable.
        program: PathBuf,
        /// Arguments before the appended `--listen`.
        args: Vec<String>,
    },
}

/// A typed worker-endpoint failure: names the worker binary and carries
/// its captured stderr, so a bad `--worker-bin` degrades points with a
/// diagnosable message instead of panicking the driver.
#[derive(Debug)]
pub enum DriverError {
    /// The worker process failed to spawn at all.
    WorkerSpawn {
        /// The worker executable that failed.
        program: PathBuf,
        /// The underlying spawn error.
        error: io::Error,
    },
    /// The spawned worker never announced `listening <addr>` on stdout.
    WorkerBanner {
        /// The worker executable that misbehaved.
        program: PathBuf,
        /// What the worker printed instead (possibly empty).
        banner: String,
        /// The worker's captured stderr (its own diagnosis, e.g. an
        /// unknown flag or an unbindable address).
        stderr: String,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::WorkerSpawn { program, error } => {
                write!(f, "cannot spawn worker `{}`: {error}", program.display())
            }
            DriverError::WorkerBanner { program, banner, stderr } => {
                write!(
                    f,
                    "worker `{}` did not announce its address (got `{banner}`)",
                    program.display()
                )?;
                if !stderr.trim().is_empty() {
                    write!(f, "; its stderr: {}", stderr.trim())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Tuning knobs of the sharded driver. The defaults suit local process
/// pools on a loaded machine: generous timeouts, fast first retry.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Specs per shard (the retry/journal granularity).
    pub shard_points: usize,
    /// Total dispatch attempts per shard before its points degrade into
    /// [`PointError`]s.
    pub max_attempts: u32,
    /// First-retry backoff; attempt *n* waits `base * 2^(n-1)`, capped.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter (each delay is scaled by
    /// a factor in `[0.5, 1.0)` drawn from
    /// `SimRng::new(seed ^ shard ^ attempt)` — reproducible schedules
    /// for tests, decorrelated retries in production).
    pub backoff_seed: u64,
    /// Per-read deadline. Workers heartbeat every ~200 ms, so this is a
    /// liveness bound, not a per-point time budget; keep it large (the
    /// default is 30 s) — a expiry means a dead worker.
    pub read_timeout: Duration,
    /// Re-dispatch a shard speculatively once its only dispatch has been
    /// in flight this long and an endpoint is idle. `None` disables
    /// speculation.
    pub speculate_after: Option<Duration>,
    /// Consecutive failed attempts after which an endpoint retires (and,
    /// separately, consecutive failed *trace provisionings* after which
    /// an endpoint is retired from trace-bearing shards only).
    pub endpoint_failure_limit: u32,
    /// Trace archive bytes per [`Message::TraceChunk`] frame. The
    /// default (4 MiB) keeps frames far under the wire's payload bound;
    /// tests shrink it to force multi-chunk transfers.
    pub chunk_bytes: usize,
    /// Deterministic chaos: flip one payload byte of the N-th outbound
    /// trace chunk (0-based, counted across the whole execution) after
    /// its digest is computed. The worker's frame check rejects the
    /// chunk, the transfer fails, and the retry must resume and still
    /// produce bit-identical results — the CI trace chaos gate.
    pub fault_corrupt_chunk: Option<u64>,
    /// Campaign manifest journal path (`super::journal`).
    pub journal: Option<PathBuf>,
    /// Replay an existing journal instead of truncating it.
    pub resume: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            shard_points: 4,
            max_attempts: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            backoff_seed: 0x6e6f_636f_7574, // "nocout"
            read_timeout: Duration::from_secs(30),
            speculate_after: None,
            endpoint_failure_limit: 3,
            chunk_bytes: 4 * 1024 * 1024,
            fault_corrupt_chunk: None,
            journal: None,
            resume: false,
        }
    }
}

/// What one execution did, for reporting and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverStats {
    /// Shards the spec sequence partitioned into (after journal replay).
    pub shards: u64,
    /// Shard dispatches, including retries and speculation.
    pub dispatches: u64,
    /// Re-dispatches caused by failed attempts.
    pub retries: u64,
    /// Speculative re-dispatches of stragglers.
    pub speculative: u64,
    /// Failed shard attempts (transport, protocol, or trace
    /// provisioning errors).
    pub failed_attempts: u64,
    /// Points recovered from the journal instead of dispatched.
    pub journal_resumed: u64,
    /// Points that degraded into [`PointError`]s.
    pub failed_points: u64,
    /// Completed trace-archive shipments to workers.
    pub trace_ships: u64,
    /// Trace-bearing dispatches served from a worker's already-held
    /// store entry (no bytes shipped).
    pub trace_reuses: u64,
    /// Archive bytes skipped by resuming interrupted transfers from the
    /// worker's staged partial.
    pub trace_resume_bytes: u64,
    /// Archive bytes actually sent in trace chunks, failed attempts
    /// included; resumed bytes are not sent and not counted.
    pub trace_ship_bytes: u64,
    /// Wall time of the successful dispatches, summed, in microseconds:
    /// connect, handshake, trace provisioning, request and results. Set
    /// against the points' own simulation time it shows what a shard
    /// costs beyond what it simulates.
    pub dispatch_wall_us: u64,
}

/// A fault-tolerant [`CampaignExecutor`] over worker endpoints.
#[derive(Debug)]
pub struct ShardedDriver {
    endpoints: Vec<Endpoint>,
    cfg: DriverConfig,
    last_stats: Mutex<DriverStats>,
    /// Outbound trace chunks sent, driver-wide (drives
    /// [`DriverConfig::fault_corrupt_chunk`]).
    chunks_sent: AtomicU64,
}

impl ShardedDriver {
    /// A driver dispatching to `endpoints` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` is empty or `cfg.shard_points`/
    /// `cfg.max_attempts`/`cfg.chunk_bytes` is zero.
    pub fn new(endpoints: Vec<Endpoint>, cfg: DriverConfig) -> Self {
        assert!(!endpoints.is_empty(), "a sharded driver needs at least one endpoint");
        assert!(cfg.shard_points > 0, "shard_points must be positive");
        assert!(cfg.max_attempts > 0, "max_attempts must be positive");
        assert!(cfg.chunk_bytes > 0, "chunk_bytes must be positive");
        ShardedDriver {
            endpoints,
            cfg,
            last_stats: Mutex::new(DriverStats::default()),
            chunks_sent: AtomicU64::new(0),
        }
    }

    /// Statistics of the most recent [`CampaignExecutor::execute`] call.
    pub fn stats(&self) -> DriverStats {
        *relock(&self.last_stats)
    }

    /// Executes the spec sequence across the endpoints; one outcome per
    /// spec, in spec order. Never panics on worker/transport failures —
    /// those degrade into per-point [`PointError`]s.
    ///
    /// # Panics
    ///
    /// Panics only on *configuration* errors: an unusable journal (wrong
    /// campaign, unwritable path) — misconfigurations to surface, not
    /// tolerate.
    pub fn execute_sharded(&self, specs: &[RunSpec]) -> Vec<PointOutcome> {
        let mut outcomes: Vec<Option<PointOutcome>> = vec![None; specs.len()];
        let mut stats = DriverStats::default();

        let journal = self.open_journal(specs, &mut outcomes, &mut stats);

        // The hash → TraceSet registry: every trace the campaign touches,
        // resolvable locally so any endpoint can be provisioned.
        let mut registry: HashMap<u64, Arc<TraceSet>> = HashMap::new();
        for spec in specs {
            if let WorkloadClass::Trace(t) = &spec.workload {
                registry.entry(t.content_hash()).or_insert_with(|| t.clone());
            }
        }

        // Shard the points the journal did not cover.
        let pending: Vec<usize> = (0..specs.len()).filter(|&i| outcomes[i].is_none()).collect();
        let shards: Vec<Shard> = pending
            .chunks(self.cfg.shard_points)
            .enumerate()
            .map(|(id, indices)| {
                let mut hashes: Vec<u64> = indices
                    .iter()
                    .filter_map(|&i| match &specs[i].workload {
                        WorkloadClass::Trace(t) => Some(t.content_hash()),
                        _ => None,
                    })
                    .collect();
                hashes.sort_unstable();
                hashes.dedup();
                Shard { id: id as u64, indices: indices.to_vec(), hashes }
            })
            .collect();
        stats.shards = shards.len() as u64;

        if !shards.is_empty() {
            let (addrs, mut children) = self.resolve_endpoints();
            self.dispatch(specs, shards, &addrs, &registry, journal, &mut outcomes, &mut stats);
            for child in &mut children {
                let _ = child.kill();
                let _ = child.wait();
            }
        }

        stats.failed_points = outcomes
            .iter()
            .filter(|o| matches!(o, Some(Err(_))))
            .count() as u64;
        *relock(&self.last_stats) = stats;
        outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                // A point no dispatcher resolved (it panicked between
                // claiming and folding) degrades instead of panicking the
                // campaign thread.
                o.unwrap_or_else(|| {
                    Err(PointError {
                        cache_key: specs[i].cache_key(),
                        message: "dispatch ended without resolving this point \
                                  (dispatcher failure)"
                            .into(),
                    })
                })
            })
            .collect()
    }

    fn open_journal(
        &self,
        specs: &[RunSpec],
        outcomes: &mut [Option<PointOutcome>],
        stats: &mut DriverStats,
    ) -> Option<Journal> {
        let path = self.cfg.journal.as_ref()?;
        if self.cfg.resume {
            let (journal, recovered) = Journal::resume(path, specs)
                .unwrap_or_else(|e| panic!("cannot resume journal {}: {e}", path.display()));
            for (i, record) in recovered.into_iter().enumerate() {
                if record.is_some() {
                    stats.journal_resumed += 1;
                    outcomes[i] = record;
                }
            }
            Some(journal)
        } else {
            Some(
                Journal::create(path, specs).unwrap_or_else(|e| {
                    panic!("cannot create journal {}: {e}", path.display())
                }),
            )
        }
    }

    /// Spawns process endpoints and collects every endpoint's address.
    /// An endpoint that fails to come up is skipped with a warning — the
    /// survivors (or, failing all, the no-live-workers path) carry on.
    fn resolve_endpoints(&self) -> (Vec<String>, Vec<Child>) {
        let mut addrs = Vec::new();
        let mut children = Vec::new();
        for ep in &self.endpoints {
            match ep {
                Endpoint::Tcp(addr) => addrs.push(addr.clone()),
                Endpoint::Process { program, args } => {
                    match spawn_worker(program, args) {
                        Ok((addr, child)) => {
                            addrs.push(addr);
                            children.push(child);
                        }
                        Err(e) => eprintln!("warning: {e}"),
                    }
                }
            }
        }
        (addrs, children)
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        specs: &[RunSpec],
        shards: Vec<Shard>,
        addrs: &[String],
        registry: &HashMap<u64, Arc<TraceSet>>,
        journal: Option<Journal>,
        outcomes: &mut Vec<Option<PointOutcome>>,
        stats: &mut DriverStats,
    ) {
        let fail_all = |outcomes: &mut Vec<Option<PointOutcome>>, shards: &[Shard], why: &str| {
            for shard in shards {
                for &gi in &shard.indices {
                    outcomes[gi] = Some(Err(PointError {
                        cache_key: specs[gi].cache_key(),
                        message: why.to_string(),
                    }));
                }
            }
        };
        if addrs.is_empty() {
            fail_all(outcomes, &shards, "no worker endpoint is reachable");
            return;
        }

        let state = Mutex::new(State {
            queue: shards.iter().map(|s| (Instant::now(), s.id)).collect(),
            shards: shards
                .iter()
                .map(|s| {
                    (
                        s.id,
                        ShardState {
                            indices: s.indices.clone(),
                            hashes: s.hashes.clone(),
                            attempts: 0,
                            in_flight: 0,
                            started: None,
                            speculated: false,
                            done: false,
                        },
                    )
                })
                .collect(),
            outcomes: std::mem::take(outcomes),
            remaining: shards.len(),
            active_endpoints: addrs.len(),
            trace_capable_endpoints: addrs.len(),
            journal,
            stats: std::mem::take(stats),
        });
        let cv = Condvar::new();

        std::thread::scope(|scope| {
            for addr in addrs {
                scope.spawn(|| self.endpoint_loop(addr, specs, registry, &state, &cv));
            }
        });

        let mut st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
        *outcomes = std::mem::take(&mut st.outcomes);
        *stats = st.stats;
    }

    /// One endpoint's worker loop: claim a shard it is capable of
    /// (fresh, retried, or speculative — preferring shards whose traces
    /// it already holds), provision and run it, and fold the result into
    /// the shared state. A panic anywhere in the attempt is contained:
    /// the shard fails (and retries elsewhere), the endpoint retires.
    fn endpoint_loop(
        &self,
        addr: &str,
        specs: &[RunSpec],
        registry: &HashMap<u64, Arc<TraceSet>>,
        state: &Mutex<State>,
        cv: &Condvar,
    ) {
        let mut consecutive_failures = 0u32;
        let mut caps = Caps::default();
        loop {
            let Some((shard_id, shard_specs, indices, hashes)) =
                self.claim(specs, state, cv, &caps)
            else {
                return;
            };
            let started = Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.run_shard_on(addr, shard_id, &shard_specs, &hashes, &mut caps, registry)
            }));
            match attempt {
                Ok(Ok((results, report))) => {
                    let wall_us = started.elapsed().as_micros() as u64;
                    consecutive_failures = 0;
                    caps.trace_failures = 0;
                    let mut st = relock(state);
                    st.stats.dispatch_wall_us += wall_us;
                    st.stats.absorb(&report);
                    st.complete(shard_id, &indices, results, specs);
                    self.sync_trace_capability(&mut caps, &mut st, specs);
                    cv.notify_all();
                }
                Ok(Err(fail)) => {
                    let mut st = relock(state);
                    st.stats.absorb(&fail.report);
                    st.fail_attempt(shard_id, &fail.err, specs, &self.cfg);
                    match fail.phase {
                        Phase::Execute => {
                            consecutive_failures += 1;
                            if consecutive_failures >= self.cfg.endpoint_failure_limit {
                                st.retire_endpoint(specs, caps.trace_capable());
                                cv.notify_all();
                                return;
                            }
                        }
                        Phase::Provision => {
                            // Trace provisioning failures retire the
                            // endpoint from trace-bearing shards only —
                            // it stays eligible for synthetic points.
                            caps.trace_failures += 1;
                            if caps.trace_failures >= self.cfg.endpoint_failure_limit {
                                caps.storeless_or_failed = true;
                            }
                        }
                    }
                    self.sync_trace_capability(&mut caps, &mut st, specs);
                    cv.notify_all();
                }
                Err(panic) => {
                    // Satellite contract: a panicking dispatcher thread
                    // degrades its shard and retires, never cascading the
                    // unwind into the campaign thread.
                    let mut st = relock(state);
                    st.fail_attempt(
                        shard_id,
                        &WireError::Malformed(format!(
                            "dispatcher thread panicked: {}",
                            panic_message(panic)
                        )),
                        specs,
                        &self.cfg,
                    );
                    st.retire_endpoint(specs, caps.trace_capable());
                    cv.notify_all();
                    return;
                }
            }
        }
    }

    /// If this endpoint has (newly) turned out trace-incapable — no
    /// store in its handshake, or too many provisioning failures — tell
    /// the shared state so pending trace shards can degrade once no
    /// capable endpoint remains.
    fn sync_trace_capability(&self, caps: &mut Caps, st: &mut State, specs: &[RunSpec]) {
        if !caps.trace_retired && !caps.trace_capable() {
            caps.trace_retired = true;
            st.drop_trace_capability(specs);
        }
    }

    /// Blocks until there is a shard this endpoint can run (or nothing
    /// left to do). Returns the shard id, its specs, their global
    /// indices, and the trace hashes the shard needs.
    fn claim(
        &self,
        specs: &[RunSpec],
        state: &Mutex<State>,
        cv: &Condvar,
        caps: &Caps,
    ) -> Option<ClaimedShard> {
        let mut st = relock(state);
        loop {
            if st.remaining == 0 {
                return None;
            }
            let now = Instant::now();
            let stx = &mut *st;
            // Fresh or retried work first: prefer shards whose traces
            // this endpoint already holds, then trace-free shards, then
            // (if trace-capable) shards that need a shipment.
            let mut held_pos = None;
            let mut free_pos = None;
            let mut ship_pos = None;
            let mut ready_but_ineligible = false;
            for (pos, &(ready, id)) in stx.queue.iter().enumerate() {
                if ready > now {
                    continue;
                }
                let Some(s) = stx.shards.get(&id) else { continue };
                if s.done {
                    continue;
                }
                if s.hashes.is_empty() {
                    free_pos.get_or_insert(pos);
                } else if s.hashes.iter().all(|h| caps.held.contains(h)) {
                    held_pos.get_or_insert(pos);
                } else if caps.trace_capable() {
                    ship_pos.get_or_insert(pos);
                } else {
                    ready_but_ineligible = true;
                }
            }
            if let Some(pos) = held_pos.or(free_pos).or(ship_pos) {
                let (_, id) = stx.queue.swap_remove(pos);
                let s = stx.shards.get_mut(&id).expect("queued shard exists");
                s.in_flight += 1;
                s.started = Some(now);
                let indices = s.indices.clone();
                let hashes = s.hashes.clone();
                stx.stats.dispatches += 1;
                let shard_specs = indices.iter().map(|&i| specs[i].clone()).collect();
                return Some((id, shard_specs, indices, hashes));
            }
            // Otherwise speculate on a straggler this endpoint can run.
            if let Some(after) = self.cfg.speculate_after {
                let candidate = stx.shards.iter_mut().find_map(|(&id, s)| {
                    let runnable = s.hashes.is_empty()
                        || s.hashes.iter().all(|h| caps.held.contains(h))
                        || caps.trace_capable();
                    let straggling = runnable
                        && !s.done
                        && s.in_flight == 1
                        && !s.speculated
                        && s.started.is_some_and(|t| now.duration_since(t) >= after);
                    if straggling {
                        s.in_flight += 1;
                        s.speculated = true;
                        Some((id, s.indices.clone(), s.hashes.clone()))
                    } else {
                        None
                    }
                });
                if let Some((id, indices, hashes)) = candidate {
                    stx.stats.dispatches += 1;
                    stx.stats.speculative += 1;
                    let shard_specs = indices.iter().map(|&i| specs[i].clone()).collect();
                    return Some((id, shard_specs, indices, hashes));
                }
            }
            // Nothing runnable *by this endpoint*: sleep until the
            // earliest backoff expiry or a completion wakes us. Work that
            // is ready but needs a capability we lack belongs to another
            // endpoint — poll it gently rather than spinning.
            let wait = if ready_but_ineligible {
                Duration::from_millis(20)
            } else {
                st.queue
                    .iter()
                    .map(|&(ready, _)| ready.saturating_duration_since(now))
                    .min()
                    .unwrap_or(Duration::from_millis(100))
                    .max(Duration::from_millis(1))
            };
            let (guard, _) = cv
                .wait_timeout(st, wait)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Dispatches one shard over one fresh connection: capability
    /// handshake, trace provisioning (ship or reuse), the shard request,
    /// then the results. Any protocol irregularity — short stream, wrong
    /// shard id, an entry that does not verify against its spec's
    /// canonical key — is an error (and therefore a retry), never
    /// silently wrong data.
    fn run_shard_on(
        &self,
        addr: &str,
        shard_id: u64,
        shard_specs: &[RunSpec],
        hashes: &[u64],
        caps: &mut Caps,
        registry: &HashMap<u64, Arc<TraceSet>>,
    ) -> Result<(Vec<PointOutcome>, ShipReport), AttemptError> {
        let mut report = ShipReport::default();
        let exec = |err: WireError, report: ShipReport| AttemptError {
            phase: Phase::Execute,
            err,
            report,
        };
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => return Err(exec(WireError::Io(e), report)),
        };
        if let Err(e) = stream.set_read_timeout(Some(self.cfg.read_timeout)) {
            return Err(exec(WireError::Io(e), report));
        }
        let _ = stream.set_nodelay(true);
        let mut writer = &stream;
        let mut reader = &stream;

        // Capability handshake: refresh what this worker can do and what
        // it already holds (a restarted worker may have lost its store;
        // a sibling dispatch may have shipped meanwhile).
        if let Err(e) = write_frame(&mut writer, &Message::Hello { version: VERSION }) {
            return Err(exec(e, report));
        }
        match read_control(&mut reader) {
            Ok(Message::HelloAck { version: _, cores: _, store, trace_hashes }) => {
                caps.probed = true;
                caps.storeless_or_failed = !store;
                caps.held = trace_hashes.into_iter().collect();
            }
            Ok(other) => {
                return Err(exec(
                    WireError::Malformed(format!("expected a hello-ack, got {other:?}")),
                    report,
                ))
            }
            Err(e) => return Err(exec(e, report)),
        }

        // Trace provisioning: reuse what the worker holds, ship the rest.
        for &hash in hashes {
            if caps.held.contains(&hash) {
                report.reuses += 1;
                continue;
            }
            match self.ship_trace(&stream, hash, caps, registry, &mut report) {
                Ok(()) => {}
                Err(err) => return Err(AttemptError { phase: Phase::Provision, err, report }),
            }
        }

        let mut writer = &stream;
        if let Err(e) = write_frame(
            &mut writer,
            &Message::ShardRequest { shard: shard_id, specs: shard_specs.to_vec() },
        ) {
            return Err(exec(e, report));
        }
        let mut got: Vec<Option<PointOutcome>> = vec![None; shard_specs.len()];
        loop {
            let msg = match read_frame(&mut reader) {
                Ok(m) => m,
                Err(e) => return Err(exec(e, report)),
            };
            match msg {
                Message::Heartbeat => {}
                Message::PointOk { shard, index, entry } => {
                    let i = check_point(shard_id, shard, index, shard_specs.len())
                        .map_err(|e| exec(e, report))?;
                    let key = shard_specs[i].cache_key();
                    let metrics = parse_entry(&entry, &key).ok_or_else(|| {
                        exec(
                            WireError::Malformed(format!(
                                "result entry for point {index} does not verify against its spec"
                            )),
                            report,
                        )
                    })?;
                    got[i] = Some(Ok(metrics));
                }
                Message::PointFailed { shard, index, error } => {
                    let i = check_point(shard_id, shard, index, shard_specs.len())
                        .map_err(|e| exec(e, report))?;
                    got[i] = Some(Err(PointError {
                        cache_key: shard_specs[i].cache_key(),
                        message: error,
                    }));
                }
                Message::ShardDone { shard, points } => {
                    if shard != shard_id {
                        return Err(exec(
                            WireError::Malformed(format!(
                                "shard-done for shard {shard}, expected {shard_id}"
                            )),
                            report,
                        ));
                    }
                    if points as usize != shard_specs.len() || got.iter().any(Option::is_none) {
                        return Err(exec(
                            WireError::Malformed(format!(
                                "short shard: worker sent {points} of {} points",
                                shard_specs.len()
                            )),
                            report,
                        ));
                    }
                    let results = got.into_iter().map(|o| o.expect("checked above")).collect();
                    return Ok((results, report));
                }
                other => {
                    return Err(exec(
                        WireError::Malformed(format!(
                            "unexpected {other:?} frame while awaiting shard results"
                        )),
                        report,
                    ))
                }
            }
        }
    }

    /// Ships one trace archive to the connected worker, resuming from
    /// whatever the worker already staged. On success the worker has
    /// installed and hash-verified the trace.
    fn ship_trace(
        &self,
        stream: &TcpStream,
        hash: u64,
        caps: &mut Caps,
        registry: &HashMap<u64, Arc<TraceSet>>,
        report: &mut ShipReport,
    ) -> Result<(), WireError> {
        if caps.probed && caps.storeless_or_failed {
            return Err(WireError::Malformed(format!(
                "shard needs trace {} but the worker has no --trace-store",
                hex(hash)
            )));
        }
        let set = registry.get(&hash).ok_or_else(|| {
            WireError::Malformed(format!(
                "shard needs trace {} but the driver's registry does not hold it",
                hex(hash)
            ))
        })?;
        // Chunks are cut straight from the set's held stream bytes (and
        // the small header lines between them): the archive is never
        // materialised whole on this side.
        let archive = ArchivePieces::of(set).map_err(WireError::Io)?;
        let len = archive.len();
        let total = len as u64;
        let mut writer = stream;
        let mut reader = stream;
        write_frame(&mut writer, &Message::TraceOffer { hash, total_len: total })?;
        let have = read_trace_ack(&mut reader, hash)?;
        if have > total {
            return Err(WireError::Malformed(format!(
                "worker claims {have} staged bytes of a {total}-byte archive"
            )));
        }
        if have == total {
            // Already installed (a sibling dispatch shipped it between
            // our handshake and this offer).
            caps.held.insert(hash);
            report.reuses += 1;
            return Ok(());
        }
        report.resume_bytes += have;
        let mut off = have as usize;
        while off < len {
            let end = (off + self.cfg.chunk_bytes).min(len);
            let mut frame = encode_frame(&Message::TraceChunk {
                hash,
                offset: off as u64,
                data: archive.copy_range(off..end),
            })?;
            let chunk_no = self.chunks_sent.fetch_add(1, Ordering::SeqCst);
            if self.cfg.fault_corrupt_chunk == Some(chunk_no) {
                let last = frame.len() - 1;
                frame[last] ^= 0x01;
            }
            writer.write_all(&frame).map_err(WireError::from)?;
            report.ship_bytes += (end - off) as u64;
            off = end;
        }
        writer.flush().map_err(WireError::from)?;
        let have = read_trace_ack(&mut reader, hash)?;
        if have != total {
            return Err(WireError::Malformed(format!(
                "worker acked {have} of {total} archive bytes after the final chunk"
            )));
        }
        caps.held.insert(hash);
        report.ships += 1;
        Ok(())
    }
}

impl CampaignExecutor for ShardedDriver {
    fn execute(&self, specs: &[RunSpec]) -> Vec<PointOutcome> {
        self.execute_sharded(specs)
    }
}

/// Reads frames until a non-heartbeat arrives.
fn read_control<R: io::Read>(reader: &mut R) -> Result<Message, WireError> {
    loop {
        match read_frame(reader)? {
            Message::Heartbeat => {}
            m => return Ok(m),
        }
    }
}

/// Reads the next control frame, requiring a [`Message::TraceAck`] for
/// `hash`; returns its `have` byte count.
fn read_trace_ack<R: io::Read>(reader: &mut R, hash: u64) -> Result<u64, WireError> {
    match read_control(reader)? {
        Message::TraceAck { hash: h, have } if h == hash => Ok(have),
        other => Err(WireError::Malformed(format!(
            "expected a trace ack for {}, got {other:?}",
            hex(hash)
        ))),
    }
}

/// A claimed shard: its id, the specs to run, their global spec
/// indices, and the trace content hashes those specs replay.
type ClaimedShard = (u64, Vec<RunSpec>, Vec<usize>, Vec<u64>);

/// What this endpoint knows about its worker, refreshed by every
/// connection's capability handshake. Before the first handshake the
/// endpoint is optimistically assumed trace-capable — the first trace
/// shard it claims settles the question.
#[derive(Debug, Default)]
struct Caps {
    /// A handshake has completed at least once.
    probed: bool,
    /// The worker advertised no trace store, or provisioning failed
    /// `endpoint_failure_limit` consecutive times.
    storeless_or_failed: bool,
    /// Trace hashes the worker held at the last handshake, plus those
    /// shipped since.
    held: HashSet<u64>,
    /// Consecutive trace-provisioning failures.
    trace_failures: u32,
    /// This endpoint already told the shared state it is not
    /// trace-capable.
    trace_retired: bool,
}

impl Caps {
    /// Whether this endpoint may take shards that need a trace shipment.
    fn trace_capable(&self) -> bool {
        !(self.trace_retired || (self.probed && self.storeless_or_failed))
    }
}

/// Which stage of a shard attempt failed — trace provisioning failures
/// degrade only the endpoint's trace capability; execution failures
/// count toward full endpoint retirement.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Provision,
    Execute,
}

/// Trace-shipping work done during one shard attempt, folded into
/// [`DriverStats`] whether the attempt succeeds or fails (resumed bytes
/// stay resumed even if the shard later fails).
#[derive(Debug, Clone, Copy, Default)]
struct ShipReport {
    ships: u64,
    reuses: u64,
    resume_bytes: u64,
    ship_bytes: u64,
}

impl DriverStats {
    fn absorb(&mut self, r: &ShipReport) {
        self.trace_ships += r.ships;
        self.trace_reuses += r.reuses;
        self.trace_resume_bytes += r.resume_bytes;
        self.trace_ship_bytes += r.ship_bytes;
    }
}

/// One failed shard attempt: the error, the phase it failed in, and the
/// shipping work that still counted.
#[derive(Debug)]
struct AttemptError {
    phase: Phase,
    err: WireError,
    report: ShipReport,
}

/// One shard: consecutive pending points of the spec sequence, plus the
/// trace content hashes its points replay (the placement key).
struct Shard {
    id: u64,
    indices: Vec<usize>,
    hashes: Vec<u64>,
}

struct ShardState {
    indices: Vec<usize>,
    /// Trace content hashes this shard's points need on the worker.
    hashes: Vec<u64>,
    /// Failed attempts so far.
    attempts: u32,
    /// Concurrent dispatches (2 while a speculative twin runs).
    in_flight: u32,
    /// When the latest dispatch started.
    started: Option<Instant>,
    /// This generation already has a speculative twin.
    speculated: bool,
    done: bool,
}

struct State {
    /// Shards awaiting (re-)dispatch, each with its earliest start time.
    queue: Vec<(Instant, u64)>,
    shards: HashMap<u64, ShardState>,
    outcomes: Vec<Option<PointOutcome>>,
    /// Shards not yet done.
    remaining: usize,
    active_endpoints: usize,
    /// Endpoints still believed able to take trace-bearing shards. At
    /// zero, pending trace shards degrade (synthetic shards continue).
    trace_capable_endpoints: usize,
    journal: Option<Journal>,
    stats: DriverStats,
}

impl State {
    fn complete(
        &mut self,
        shard_id: u64,
        indices: &[usize],
        results: Vec<PointOutcome>,
        specs: &[RunSpec],
    ) {
        let s = self.shards.get_mut(&shard_id).expect("completed shard exists");
        s.in_flight = s.in_flight.saturating_sub(1);
        if s.done {
            return; // the speculative twin already delivered
        }
        s.done = true;
        self.remaining -= 1;
        for (&gi, outcome) in indices.iter().zip(results) {
            if let Some(journal) = &mut self.journal {
                let io = match &outcome {
                    Ok(metrics) => {
                        journal.record_ok(gi, &render_entry(&specs[gi].cache_key(), metrics))
                    }
                    Err(e) => journal.record_failed(gi, e),
                };
                if let Err(e) = io {
                    eprintln!("warning: journal write failed: {e} (resume will re-run this point)");
                }
            }
            self.outcomes[gi] = Some(outcome);
        }
    }

    fn fail_attempt(
        &mut self,
        shard_id: u64,
        err: &WireError,
        specs: &[RunSpec],
        cfg: &DriverConfig,
    ) {
        self.stats.failed_attempts += 1;
        let s = self.shards.get_mut(&shard_id).expect("failed shard exists");
        s.in_flight = s.in_flight.saturating_sub(1);
        if s.done {
            return; // the twin already delivered
        }
        s.attempts += 1;
        if s.in_flight > 0 {
            return; // a twin is still running; it may yet deliver
        }
        let attempts = s.attempts;
        if attempts >= cfg.max_attempts {
            // Exhausted: the shard's points degrade into explicit errors.
            s.done = true;
            let indices = s.indices.clone();
            self.remaining -= 1;
            let message = format!(
                "shard {shard_id} exhausted {attempts} dispatch attempts; last error: {err}"
            );
            for gi in indices {
                self.outcomes[gi] = Some(Err(PointError {
                    cache_key: specs[gi].cache_key(),
                    message: message.clone(),
                }));
            }
        } else {
            s.speculated = false; // the retry may be speculated anew
            self.stats.retries += 1;
            let delay = backoff_delay(cfg, shard_id, attempts);
            self.queue.push((Instant::now() + delay, shard_id));
        }
    }

    /// An endpoint gave up entirely. If it was the last one, drain every
    /// unfinished shard into explicit point errors — with no workers
    /// left, waiting would hang the campaign forever.
    fn retire_endpoint(&mut self, specs: &[RunSpec], was_trace_capable: bool) {
        self.active_endpoints = self.active_endpoints.saturating_sub(1);
        if self.active_endpoints == 0 {
            self.degrade_pending(specs, |_| true, "no live worker endpoints remain");
            return;
        }
        if was_trace_capable {
            self.drop_trace_capability(specs);
        }
    }

    /// An endpoint lost its trace capability. When none remains, pending
    /// trace-bearing shards degrade while synthetic shards continue.
    fn drop_trace_capability(&mut self, specs: &[RunSpec]) {
        self.trace_capable_endpoints = self.trace_capable_endpoints.saturating_sub(1);
        if self.trace_capable_endpoints == 0 {
            self.degrade_pending(
                specs,
                |s| !s.hashes.is_empty(),
                "no trace-capable worker endpoints remain (trace provisioning failed \
                 on every endpoint)",
            );
        }
    }

    /// Degrades every unfinished shard matching `which` (skipping shards
    /// with a dispatch still in flight — their attempt may yet deliver;
    /// if it fails instead, `fail_attempt` retries or exhausts as usual).
    fn degrade_pending(
        &mut self,
        specs: &[RunSpec],
        which: impl Fn(&ShardState) -> bool,
        why: &str,
    ) {
        if self.remaining == 0 {
            return;
        }
        let doomed: Vec<u64> = self
            .shards
            .iter()
            .filter(|(_, s)| !s.done && s.in_flight == 0 && which(s))
            .map(|(&id, _)| id)
            .collect();
        for id in doomed {
            let s = self.shards.get_mut(&id).expect("shard exists");
            s.done = true;
            let indices = s.indices.clone();
            self.remaining -= 1;
            self.queue.retain(|&(_, qid)| qid != id);
            for gi in indices {
                self.outcomes[gi] = Some(Err(PointError {
                    cache_key: specs[gi].cache_key(),
                    message: why.to_string(),
                }));
            }
        }
    }
}

/// Deterministic backoff: exponential in the attempt number, capped,
/// scaled by a jitter factor in `[0.5, 1.0)` seeded from
/// `(backoff_seed, shard, attempt)` — the schedule is a pure function of
/// the configuration, never of wall-clock or thread timing.
fn backoff_delay(cfg: &DriverConfig, shard: u64, attempt: u32) -> Duration {
    let exp = cfg
        .backoff_base
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(cfg.backoff_cap);
    let mut rng = SimRng::new(
        cfg.backoff_seed
            ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt),
    );
    exp.mul_f64(0.5 + 0.5 * rng.next_f64())
}

fn check_point(expected: u64, shard: u64, index: u32, len: usize) -> Result<usize, WireError> {
    if shard != expected {
        return Err(WireError::Malformed(format!(
            "result for shard {shard}, expected {expected}"
        )));
    }
    let i = index as usize;
    if i >= len {
        return Err(WireError::Malformed(format!(
            "point index {index} out of range (shard has {len} points)"
        )));
    }
    Ok(i)
}

/// Spawns a worker process with `--listen 127.0.0.1:0` and reads its
/// `listening <addr>` banner. Every failure is a typed [`DriverError`]
/// naming the binary and carrying the worker's captured stderr — never a
/// panic, so a bad `--worker-bin` degrades points instead of aborting
/// the campaign.
fn spawn_worker(
    program: &std::path::Path,
    args: &[String],
) -> Result<(String, Child), DriverError> {
    let mut child = Command::new(program)
        .args(args)
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|error| DriverError::WorkerSpawn { program: program.to_path_buf(), error })?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(DriverError::WorkerBanner {
            program: program.to_path_buf(),
            banner: "<stdout pipe missing>".into(),
            stderr: String::new(),
        });
    };
    let mut line = String::new();
    let read = std::io::BufReader::new(stdout).read_line(&mut line);
    let banner_fail = |child: &mut Child, banner: String| {
        let _ = child.kill();
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        let _ = child.wait();
        DriverError::WorkerBanner { program: program.to_path_buf(), banner, stderr }
    };
    if let Err(e) = read {
        return Err(banner_fail(&mut child, format!("<banner read failed: {e}>")));
    }
    match line.trim().strip_prefix("listening ") {
        Some(addr) if !addr.is_empty() => {
            // Keep the worker's diagnostics flowing to our stderr for the
            // rest of its life.
            if let Some(pipe) = child.stderr.take() {
                std::thread::spawn(move || {
                    let mut pipe = pipe;
                    let _ = std::io::copy(&mut pipe, &mut std::io::stderr());
                });
            }
            Ok((addr.to_string(), child))
        }
        _ => Err(banner_fail(&mut child, line.trim().to_string())),
    }
}
