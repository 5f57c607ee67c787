//! `sharded_trace`: trace-replay points through `ShardedDriver` to one
//! long-lived in-process `Worker` behind a loopback listener.
//!
//! Two threads do the work — the driver's dispatcher and the worker —
//! over one connection at a time; the calling thread waits. The load is
//! a closed loop with one client: the driver sends the next one-point
//! shard when the previous one has returned.
//!
//! A round wipes the worker's trace store, then executes the campaign
//! twice: *cold* (both trace archives are shipped, staged, verified and
//! installed) and *warm* (every point reuses an installed trace). One
//! worker serves every round: a fresh worker per round made round times
//! drift upward in the prototype this was sized on.

use crate::metrics::Values;
use crate::spans::{Span, Tracer};
use crate::stats::{median, ratio};
use crate::workload::{Bench, Ctx, Reference, Round, SimCounts};
use nocout::campaign::{Campaign, ResultFrame};
use nocout::config::{ChipConfig, Organization};
use nocout::distribute::{DriverConfig, DriverStats, Endpoint, ShardedDriver, TraceStore, Worker};
use nocout::runner::BatchRunner;
use nocout::{capture_synthetic_trace, trace_capture_len};
use nocout_sim::config::MeasurementWindow;
use nocout_workloads::{Workload, WorkloadClass};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The two captured traces: a 16-stream and a 64-stream workload.
const TRACED_WORKLOADS: [Workload; 2] = [Workload::WebSearch, Workload::DataServing];

fn window(smoke: bool) -> MeasurementWindow {
    if smoke {
        MeasurementWindow::new(200, 600)
    } else {
        MeasurementWindow::new(1_000, 3_000)
    }
}

/// Bytes and blocked time on the worker's side of the connection.
/// Statistics only: `Relaxed` publishes nothing else.
#[derive(Debug, Default)]
struct IoCounters {
    read_bytes: AtomicU64,
    written_bytes: AtomicU64,
    read_wait_ns: AtomicU64,
    write_ns: AtomicU64,
}

#[derive(Debug, Default, Clone, Copy)]
struct IoSnapshot {
    read_bytes: u64,
    written_bytes: u64,
    read_wait_ns: u64,
    write_ns: u64,
}

impl IoSnapshot {
    /// What was counted since `before`.
    fn since(self, before: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_bytes: self.read_bytes - before.read_bytes,
            written_bytes: self.written_bytes - before.written_bytes,
            read_wait_ns: self.read_wait_ns - before.read_wait_ns,
            write_ns: self.write_ns - before.write_ns,
        }
    }
}

impl IoCounters {
    fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            written_bytes: self.written_bytes.load(Ordering::Relaxed),
            read_wait_ns: self.read_wait_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
        }
    }
}

/// Counts bytes read and the time each read blocked.
struct CountingReader<R> {
    inner: R,
    io: Arc<IoCounters>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.read(buf)?;
        self.io
            .read_wait_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.io.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// Counts bytes written and the time each write took.
struct CountingWriter<W> {
    inner: W,
    io: Arc<IoCounters>,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.write(buf)?;
        self.io
            .write_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.io.written_bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The worker thread and what is needed to stop it.
#[derive(Debug)]
struct WorkerThread {
    addr: String,
    stop: Arc<AtomicBool>,
    /// Whether the next connections go through the counting wrappers.
    counting: Arc<AtomicBool>,
    io: Arc<IoCounters>,
    thread: Option<JoinHandle<()>>,
}

impl WorkerThread {
    fn start(store_dir: PathBuf) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let store = TraceStore::open(store_dir)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counting = Arc::new(AtomicBool::new(false));
        let io = Arc::new(IoCounters::default());
        let thread = {
            let (stop, counting, io) = (stop.clone(), counting.clone(), io.clone());
            std::thread::spawn(move || {
                // Built here: a `Worker` holds its runner's cache
                // counters, which are not `Sync`.
                let worker = Worker::new(BatchRunner::serial()).with_trace_store(store);
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let Ok(reader) = stream.try_clone() else {
                        continue;
                    };
                    let served = if counting.load(Ordering::SeqCst) {
                        worker.serve_stream(
                            CountingReader {
                                inner: reader,
                                io: io.clone(),
                            },
                            CountingWriter {
                                inner: &stream,
                                io: io.clone(),
                            },
                        )
                    } else {
                        worker.serve_stream(reader, &stream)
                    };
                    if let Err(e) = served {
                        eprintln!("nocbench: worker connection ended: {e}");
                    }
                }
            })
        };
        Ok(WorkerThread {
            addr,
            stop,
            counting,
            io,
            thread: Some(thread),
        })
    }
}

impl Drop for WorkerThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(&self.addr);
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                eprintln!("nocbench: the worker thread panicked");
            }
        }
    }
}

/// One execution of the campaign through the driver.
#[derive(Debug, Clone, Copy)]
struct Execution {
    ms: f64,
    stats: DriverStats,
    journal_bytes: u64,
}

/// What the traced rounds measured beside their spans.
#[derive(Debug, Default)]
struct TracedRounds {
    cold: Vec<Execution>,
    warm: Vec<Execution>,
    io: Vec<IoSnapshot>,
}

/// The set-up `sharded_trace` workload.
#[derive(Debug)]
pub struct ShardedBench<'t> {
    tracer: &'t Tracer,
    campaign: Campaign,
    points: u64,
    cycles_per_execution: u64,
    archive_bytes: u64,
    /// Host time of the set-up's local serial pass over the same points.
    local_ms: f64,
    store_dir: PathBuf,
    journal: PathBuf,
    driver: ShardedDriver,
    worker: WorkerThread,
    reference: Reference,
    traced: TracedRounds,
    misses: Vec<String>,
}

/// A rendering of `frame` that depends on the results alone: the trace
/// workloads print as their content token, not as their directory.
fn canon(frame: &ResultFrame) -> String {
    let mut out = String::new();
    for p in frame.results() {
        let _ = writeln!(
            out,
            "{:?} {} {:?}",
            p.chip.organization,
            p.workload.cache_token(),
            p.metrics
        );
    }
    for f in frame.failed() {
        let _ = writeln!(
            out,
            "failed {:?} {}: {}",
            f.chip.organization,
            f.workload.cache_token(),
            f.error
        );
    }
    out
}

impl<'t> ShardedBench<'t> {
    /// Captures the two traces, computes the local serial reference and
    /// starts the worker.
    pub fn setup(ctx: &Ctx<'t>) -> Self {
        let window = window(ctx.smoke);
        let traces: Vec<WorkloadClass> = TRACED_WORKLOADS
            .iter()
            .map(|&w| {
                let dir = ctx.scratch.join("traces").join(w.key());
                let set = capture_synthetic_trace(
                    ChipConfig::paper(Organization::Mesh),
                    w,
                    ctx.seed,
                    &dir,
                    trace_capture_len(&window),
                )
                .unwrap_or_else(|e| panic!("cannot capture a trace into {}: {e}", dir.display()));
                WorkloadClass::Trace(set)
            })
            .collect();
        // What `archive_trace` ships: every stream file's bytes (plus a
        // header line each, which this leaves out).
        let archive_bytes = traces
            .iter()
            .filter_map(|t| match t {
                WorkloadClass::Trace(set) => Some(set.files()),
                _ => None,
            })
            .flatten()
            .filter_map(|f| std::fs::metadata(f).ok())
            .map(|m| m.len())
            .sum();
        let campaign = Campaign::new()
            .orgs(Organization::EVALUATED)
            .workloads(traces)
            .window(window);
        let points = campaign.specs().len() as u64;
        let t = Instant::now();
        let frame = campaign.run(&BatchRunner::serial());
        let local_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut misses = Vec::new();
        if !frame.is_complete() {
            misses.push(format!(
                "local reference: {} points failed",
                frame.failed().len()
            ));
        }
        let reference = Reference {
            output: canon(&frame),
            counts: SimCounts::of(&frame),
            paper_gmean_err_pct: None,
        };

        let store_dir = ctx.scratch.join("store");
        let journal = ctx.scratch.join("journal");
        let worker = WorkerThread::start(store_dir.clone())
            .unwrap_or_else(|e| panic!("cannot start the loopback worker: {e}"));
        let driver = ShardedDriver::new(
            vec![Endpoint::Tcp(worker.addr.clone())],
            DriverConfig {
                shard_points: 1,
                chunk_bytes: 256 * 1024,
                journal: Some(journal.clone()),
                ..DriverConfig::default()
            },
        );
        ShardedBench {
            tracer: ctx.tracer,
            campaign,
            points,
            cycles_per_execution: points * window.total_cycles(),
            archive_bytes,
            local_ms,
            store_dir,
            journal,
            driver,
            worker,
            reference,
            traced: TracedRounds::default(),
            misses,
        }
    }

    fn miss(&mut self, what: String) {
        if self.misses.len() < 8 {
            self.misses.push(what);
        }
    }

    /// Runs the campaign through the driver once and checks the result;
    /// returns the execution and the points that missed.
    fn execute(&mut self, cold: bool, traced: bool) -> (Execution, u64) {
        let label = if cold {
            "driver.cold_exec"
        } else {
            "driver.warm_exec"
        };
        let tracer = self.tracer;
        let t = Instant::now();
        let frame = {
            let _s = traced.then(|| tracer.span(label));
            self.campaign.run_on(&self.driver)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let stats = self.driver.stats();
        let mut failed = frame.failed().len() as u64;
        if canon(&frame) != self.reference.output {
            failed = self.points;
            self.miss(format!(
                "the {label} outcomes differ from the local serial reference"
            ));
        }
        let traces = TRACED_WORKLOADS.len() as u64;
        // Cold: each archive ships once, and the points after the first
        // on each trace reuse it. Warm: every point reuses.
        let (ships, reuses) = if cold {
            (traces, self.points - traces)
        } else {
            (0, self.points)
        };
        if (stats.trace_ships, stats.trace_reuses, stats.failed_points) != (ships, reuses, 0) {
            failed = self.points;
            self.miss(format!(
                "{label}: expected {ships} ships / {reuses} reuses / 0 failed points, got {stats:?}"
            ));
        }
        let journal_bytes = std::fs::metadata(&self.journal)
            .map(|m| m.len())
            .unwrap_or(0);
        (
            Execution {
                ms,
                stats,
                journal_bytes,
            },
            failed,
        )
    }
}

fn wipe(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)
}

impl Bench for ShardedBench<'_> {
    fn round(&mut self, traced: bool) -> Round {
        self.worker.counting.store(traced, Ordering::SeqCst);
        let io_before = self.worker.io.snapshot();
        {
            let tracer = self.tracer;
            let _s = traced.then(|| tracer.span("store.wipe"));
            if let Err(e) = wipe(&self.store_dir) {
                self.miss(format!("cannot wipe the trace store: {e}"));
            }
        }
        let (cold, cold_failed) = self.execute(true, traced);
        let (warm, warm_failed) = self.execute(false, traced);
        if traced {
            self.traced.cold.push(cold);
            self.traced.warm.push(warm);
            self.traced
                .io
                .push(self.worker.io.snapshot().since(io_before));
        }
        Round {
            points: 2 * self.points,
            failed: (cold_failed + warm_failed).min(2 * self.points),
            sim_cycles: 2 * self.cycles_per_execution,
        }
    }

    fn reference(&self) -> &Reference {
        &self.reference
    }

    fn take_misses(&mut self) -> Vec<String> {
        std::mem::take(&mut self.misses)
    }

    fn layer_metrics(&self, _spans: &[Span], out: &mut Values) {
        let t = &self.traced;
        let med = |v: Vec<f64>| median(&v);
        let cold_ms = med(t.cold.iter().map(|e| e.ms).collect());
        let warm_ms = med(t.warm.iter().map(|e| e.ms).collect());
        let points = self.points as f64;
        out.set("driver.cold_exec_ms", cold_ms);
        out.set("driver.warm_exec_ms", warm_ms);
        // What the cold execution does beyond the warm one is shipping.
        out.set(
            "driver.ship_mb_per_s",
            ratio(
                self.archive_bytes as f64 / 1e6,
                ((cold_ms - warm_ms) / 1e3).max(0.0),
            ),
        );
        out.set(
            "driver.overhead_ms_per_point",
            ratio(warm_ms - self.local_ms, points),
        );
        // Per round: the cold execution's count plus the warm one's.
        let per_round = |f: &dyn Fn(&DriverStats) -> u64| {
            med(t
                .cold
                .iter()
                .zip(&t.warm)
                .map(|(c, w)| (f(&c.stats) + f(&w.stats)) as f64)
                .collect())
        };
        out.set("driver.dispatches", per_round(&|s| s.dispatches));
        out.set("driver.retries", per_round(&|s| s.retries));
        out.set("driver.failed_attempts", per_round(&|s| s.failed_attempts));
        out.set("driver.trace_ships", per_round(&|s| s.trace_ships));
        out.set("driver.trace_reuses", per_round(&|s| s.trace_reuses));
        let round_points = 2.0 * points;
        out.set(
            "wire.bytes_to_worker_per_point",
            med(t
                .io
                .iter()
                .map(|io| io.read_bytes as f64 / round_points)
                .collect()),
        );
        out.set(
            "wire.bytes_to_driver_per_point",
            med(t
                .io
                .iter()
                .map(|io| io.written_bytes as f64 / round_points)
                .collect()),
        );
        out.set(
            "worker.wait_read_ms",
            med(t.io.iter().map(|io| io.read_wait_ns as f64 / 1e6).collect()),
        );
        // Busy: neither waiting for the driver nor writing to it, over
        // the part of the round the driver was executing.
        out.set(
            "worker.busy_share",
            med(t
                .io
                .iter()
                .zip(t.cold.iter().zip(&t.warm))
                .map(|(io, (c, w))| {
                    let exec_ns = (c.ms + w.ms) * 1e6;
                    ratio(
                        (exec_ns - (io.read_wait_ns + io.write_ns) as f64).max(0.0),
                        exec_ns,
                    )
                })
                .collect()),
        );
        out.set(
            "journal.bytes_per_point",
            med(t
                .warm
                .iter()
                .map(|e| e.journal_bytes as f64 / points)
                .collect()),
        );
    }
}
