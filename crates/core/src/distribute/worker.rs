//! The shard worker: serves [`wire`](super::wire) shard requests on a
//! local [`BatchRunner`], streaming back bit-exact metric records.
//!
//! A worker is deliberately stateless between shards (but for the trace
//! sets its store remembers, below): it receives a
//! [`Message::ShardRequest`], executes each spec through the same
//! panic-isolating path as local batches
//! ([`BatchRunner::run_batch_outcomes`]), and answers with one
//! [`Message::PointOk`]/[`Message::PointFailed`] per spec followed by a
//! [`Message::ShardDone`] trailer whose count lets the driver detect a
//! short stream. While a shard runs, a heartbeat thread keeps the
//! connection audibly alive (one [`Message::Heartbeat`] per
//! [`Worker::with_heartbeat`] interval of the shard's run time, none
//! once it has ended), so the driver can distinguish "slow point" from
//! "dead worker" with a single read timeout.
//!
//! The worker issues **one write per protocol turn** — a turn being the
//! run of frames after which it waits for the driver: a `HelloAck`, a
//! `TraceAck`, or a shard's last result frame *together with* its
//! `ShardDone` trailer. Two small writes with no read between them are
//! the Nagle × delayed-ACK stall (≈ 40 ms per shard on Linux) on any
//! socket without `TCP_NODELAY`; see "Turns and latency" in
//! `docs/distributed-campaigns.md`.
//!
//! The one piece of durable state is the optional [`TraceStore`]
//! (`--trace-store DIR`): a connection opens with the
//! [`Message::Hello`]/[`Message::HelloAck`] capability handshake, where
//! the worker advertises its core count, whether it has a store, and the
//! trace content hashes the store holds. A driver ships missing traces
//! as [`Message::TraceOffer`] + [`Message::TraceChunk`] frames before
//! dispatching trace-bearing shards; the store appends chunks
//! crash-safely and re-verifies the assembled archive against the
//! content hash before installing (`super::store`). Shard requests then
//! resolve `trace@<contenthash>` specs against the store, which reads,
//! hashes and validates an entry on the first request naming it and
//! remembers the verified set in memory for the ones after — the one
//! piece of state a worker process carries from shard to shard, dropped
//! as soon as the entry's directory is gone.
//!
//! ## Deterministic fault injection
//!
//! A [`FaultPlan`] makes the worker misbehave on purpose — drop the
//! connection after N result frames (simulating a mid-shard crash),
//! drop it after receiving N trace chunks *without* dying (simulating a
//! crash-and-restart mid-transfer, the staged partial retained), delay
//! every result frame (a straggler), corrupt one frame's payload
//! *after* its digest is computed (undetectable except by the digest),
//! or panic while executing the K-th point. Counters are process-wide,
//! so a plan describes one deterministic failure story regardless of how
//! the driver shards or retries. The chaos CI gates and the
//! fault-injection integration tests drive everything through these
//! flags; nothing here fires unless a plan is set.

use super::store::TraceStore;
use super::wire::{encode_frame, read_frame_with, write_frame, Message, WireError, VERSION};
use crate::cache::render_entry;
use crate::runner::{panic_message, BatchRunner, PointError, RunSpec};
use nocout_sim::text::hex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

/// Deterministic worker misbehaviour, for tests and the chaos CI gates.
/// All counters refer to process-wide result-frame / point / chunk
/// indices (heartbeats are not counted — their cadence is
/// timing-dependent).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Drop the connection (and stop serving — a simulated crash) instead
    /// of sending the N-th result frame (0-based).
    pub drop_after_frames: Option<u64>,
    /// Drop the connection after *receiving* (and durably staging) the
    /// N-th trace chunk (1-based: `Some(2)` keeps two chunks). Unlike
    /// `drop_after_frames` the worker keeps serving — it models a worker
    /// that crashed mid-transfer and restarted, so the next offer must
    /// resume from the staged partial.
    pub drop_after_chunks: Option<u64>,
    /// Sleep this long before every result frame (a straggler worker).
    pub delay: Option<Duration>,
    /// Flip one payload byte of the N-th result frame after its digest
    /// is computed — on the wire it is a corrupt frame.
    pub corrupt_frame: Option<u64>,
    /// Panic while executing the K-th point (exercises the worker-side
    /// panic isolation path end to end).
    pub panic_on_point: Option<u64>,
}

impl FaultPlan {
    /// Whether any fault is armed.
    pub fn is_armed(&self) -> bool {
        self.drop_after_frames.is_some()
            || self.drop_after_chunks.is_some()
            || self.delay.is_some()
            || self.corrupt_frame.is_some()
            || self.panic_on_point.is_some()
    }
}

/// A shard worker: a [`BatchRunner`] (plus an optional [`TraceStore`])
/// behind the wire protocol.
#[derive(Debug)]
pub struct Worker {
    runner: BatchRunner,
    store: Option<TraceStore>,
    heartbeat: Duration,
    fault: FaultPlan,
    /// Result frames sent, process-wide (drives `drop_after_frames` /
    /// `corrupt_frame`).
    frames: AtomicU64,
    /// Points executed, process-wide (drives `panic_on_point`).
    points: AtomicU64,
    /// Trace chunks received, process-wide (drives `drop_after_chunks`).
    chunks: AtomicU64,
    /// The drop fault fired: stop serving (the simulated crash).
    dead: AtomicBool,
}

impl Worker {
    /// A worker executing shards on `runner`, heartbeating every 200 ms,
    /// with no trace store (synthetic and open-loop points only).
    pub fn new(runner: BatchRunner) -> Self {
        Worker {
            runner,
            store: None,
            heartbeat: Duration::from_millis(200),
            fault: FaultPlan::default(),
            frames: AtomicU64::new(0),
            points: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// Attaches a content-addressed trace store: the worker advertises
    /// its held hashes in the handshake, accepts trace shipments, and
    /// resolves `trace@<contenthash>` specs against it.
    pub fn with_trace_store(mut self, store: TraceStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the heartbeat interval. Keep it a small fraction of the
    /// driver's read timeout.
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = interval;
        self
    }

    /// Arms a deterministic fault plan.
    pub fn with_faults(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Whether the drop fault has fired (the worker considers itself
    /// crashed and will serve no further connections).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Serves connections on `listener` until the drop fault fires.
    /// Connections are handled one at a time (a worker owns its whole
    /// pool); per-connection protocol errors are reported on stderr and
    /// do not stop the worker.
    ///
    /// # Errors
    ///
    /// Only accept-level I/O errors; a misbehaving *client* never stops
    /// the worker.
    pub fn serve_listener(&self, listener: &TcpListener) -> std::io::Result<()> {
        for conn in listener.incoming() {
            if self.is_dead() {
                break;
            }
            let stream = conn?;
            // Intermediate result frames of a multi-point shard (and
            // heartbeats) are small writes the driver does not answer:
            // without this they can wait out its delayed ACK. Best
            // effort — the one-write-per-turn rule does not depend on it.
            let _ = stream.set_nodelay(true);
            let reader = stream.try_clone()?;
            if let Err(e) = self.serve_stream(reader, &stream) {
                if !matches!(e, WireError::Closed) {
                    eprintln!("nocout-worker: connection ended: {e}");
                }
            }
            if self.is_dead() {
                break;
            }
        }
        Ok(())
    }

    /// Serves one peer: handshake, trace shipments and shard requests
    /// in, capability/transfer acks and result frames out, until the
    /// peer closes or a fault fires.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from the transport or a malformed request — in
    /// particular [`WireError::VersionMismatch`] (naming both versions)
    /// when the peer's frames declare a different protocol version.
    pub fn serve_stream<R: Read, W: Write + Send>(
        &self,
        mut reader: R,
        writer: W,
    ) -> Result<(), WireError> {
        let writer = Mutex::new(writer);
        // Archive totals from offers on *this* connection, so a chunk
        // completing a transfer knows when to commit.
        let mut offers: HashMap<u64, u64> = HashMap::new();
        loop {
            let msg = match read_frame_with(
                &mut reader,
                self.store.as_ref().map(|s| s as &dyn super::wire::TraceLookup),
            ) {
                Ok(m) => m,
                Err(WireError::Closed) => return Ok(()),
                Err(e) => return Err(e),
            };
            match msg {
                Message::Hello { version: _ } => {
                    // Frame decoding already enforced version equality;
                    // the ack advertises this worker's capabilities.
                    let (store, trace_hashes) = match &self.store {
                        Some(s) => (true, s.held()),
                        None => (false, Vec::new()),
                    };
                    self.send_raw(
                        &writer,
                        &Message::HelloAck {
                            version: VERSION,
                            cores: self.runner.jobs() as u32,
                            store,
                            trace_hashes,
                        },
                    )?;
                }
                Message::TraceOffer { hash, total_len } => {
                    let store = self.store.as_ref().ok_or_else(|| {
                        WireError::Malformed(
                            "trace offered to a worker without a --trace-store".into(),
                        )
                    })?;
                    offers.insert(hash, total_len);
                    // A verified installed entry (remembered, or verified
                    // from disk now) answers with the full length: nothing
                    // to ship. Otherwise the staged partial length is the
                    // resume point.
                    let have = if store.get(hash).is_some() {
                        total_len
                    } else {
                        store.staged_len(hash)
                    };
                    self.send_raw(&writer, &Message::TraceAck { hash, have })?;
                }
                Message::TraceChunk { hash, offset, data } => {
                    let store = self.store.as_ref().ok_or_else(|| {
                        WireError::Malformed(
                            "trace chunk sent to a worker without a --trace-store".into(),
                        )
                    })?;
                    let staged = store
                        .append_chunk(hash, offset, &data)
                        .map_err(WireError::Io)?;
                    let chunk_no = self.chunks.fetch_add(1, Ordering::SeqCst) + 1;
                    if self.fault.drop_after_chunks == Some(chunk_no) {
                        // Crash-and-restart mid-transfer: the chunk above
                        // is durably staged, the connection dies, the
                        // worker lives to resume on the next offer.
                        return Err(WireError::Io(std::io::Error::other(
                            "injected fault: connection dropped after trace chunk",
                        )));
                    }
                    let total = offers.get(&hash).copied().ok_or_else(|| {
                        WireError::Malformed(format!(
                            "trace chunk for {} without a preceding offer",
                            hex(hash)
                        ))
                    })?;
                    if staged >= total {
                        let installed =
                            store.commit(hash, total).map_err(WireError::Io)?;
                        debug_assert_eq!(installed.content_hash(), hash);
                        self.send_raw(&writer, &Message::TraceAck { hash, have: total })?;
                    }
                }
                Message::ShardRequest { shard, specs } => {
                    self.run_shard(shard, &specs, &writer)?;
                    if self.is_dead() {
                        return Ok(());
                    }
                }
                Message::Heartbeat => {}
                other => {
                    return Err(WireError::Malformed(format!(
                        "worker received a {other:?} frame (only handshakes, trace \
                         shipments and shard requests flow this way)"
                    )))
                }
            }
        }
    }

    /// Executes one shard, streaming results as they complete. Points run
    /// one at a time through the runner (its cache still memoizes each),
    /// so results stream out between points and a heartbeat thread covers
    /// the silence *within* a long point.
    fn run_shard<W: Write + Send>(
        &self,
        shard: u64,
        specs: &[RunSpec],
        writer: &Mutex<W>,
    ) -> Result<(), WireError> {
        // Copied out so the heartbeat thread does not capture `self`
        // (the runner's cache counters are deliberately not `Sync`).
        let heartbeat = self.heartbeat;
        std::thread::scope(|scope| {
            // Dropping `running` — at the shard's end, or by an unwind —
            // wakes the heartbeat thread at once.
            let (running, ended) = mpsc::channel::<()>();
            scope.spawn(move || {
                // Write errors are left for the result path to surface.
                while ended.recv_timeout(heartbeat) == Err(RecvTimeoutError::Timeout) {
                    if let Ok(mut w) = writer.lock() {
                        let _ = write_frame(&mut *w, &Message::Heartbeat);
                    }
                }
            });
            let result = self.run_shard_inner(shard, specs, writer);
            drop(running);
            result
        })
    }

    fn run_shard_inner<W: Write + Send>(
        &self,
        shard: u64,
        specs: &[RunSpec],
        writer: &Mutex<W>,
    ) -> Result<(), WireError> {
        // Result frames encoded but not yet written: only ever the
        // shard's last, which shares a write with the trailer.
        let mut turn = Vec::new();
        let mut sent = 0u32;
        for (index, spec) in specs.iter().enumerate() {
            let point_no = self.points.fetch_add(1, Ordering::SeqCst);
            let outcome = if self.fault.panic_on_point == Some(point_no) {
                // A real unwind through the isolation path, not a
                // synthesized error: the fault proves the machinery.
                catch_unwind(AssertUnwindSafe(|| {
                    panic!("injected fault: panic on point {point_no}")
                }))
                .map_err(|p| PointError {
                    cache_key: spec.cache_key(),
                    message: panic_message(p),
                })
            } else {
                self.runner
                    .run_batch_outcomes(std::slice::from_ref(spec))
                    .pop()
                    .expect("one spec yields one outcome")
            };
            let msg = match outcome {
                Ok(metrics) => Message::PointOk {
                    shard,
                    index: index as u32,
                    entry: render_entry(&spec.cache_key(), &metrics),
                },
                Err(e) => Message::PointFailed {
                    shard,
                    index: index as u32,
                    error: e.message,
                },
            };
            let more_points = index + 1 < specs.len();
            self.send_result(writer, &mut turn, &msg, more_points)?;
            sent += 1;
        }
        let done = Message::ShardDone { shard, points: sent };
        self.send_result(writer, &mut turn, &done, true)
    }

    /// Sends a protocol frame that is *not* a result frame (handshake
    /// and transfer acks): no fault counters apply.
    fn send_raw<W: Write + Send>(
        &self,
        writer: &Mutex<W>,
        msg: &Message,
    ) -> Result<(), WireError> {
        let mut w = writer.lock().map_err(|_| {
            WireError::Io(std::io::Error::other("writer lock poisoned"))
        })?;
        write_frame(&mut *w, msg)
    }

    /// Appends one result frame to `turn`, applying the armed faults in
    /// order — delay, then drop, then corruption — and, when `write_now`,
    /// hands the whole turn to the writer in one write. The faults are
    /// per *frame*: each takes its own process-wide number, and a drop
    /// still delivers the frames buffered ahead of it, exactly as if
    /// every frame had been its own write.
    fn send_result<W: Write + Send>(
        &self,
        writer: &Mutex<W>,
        turn: &mut Vec<u8>,
        msg: &Message,
        write_now: bool,
    ) -> Result<(), WireError> {
        if let Some(d) = self.fault.delay {
            std::thread::sleep(d);
        }
        let frame_no = self.frames.fetch_add(1, Ordering::SeqCst);
        let framed = if self.fault.drop_after_frames == Some(frame_no) {
            self.dead.store(true, Ordering::SeqCst);
            Err(WireError::Io(std::io::Error::other(
                "injected fault: connection dropped",
            )))
        } else {
            turn.extend_from_slice(&encode_frame(msg)?);
            if self.fault.corrupt_frame == Some(frame_no) {
                *turn.last_mut().expect("a frame was just appended") ^= 0x01;
            }
            Ok(())
        };
        if (write_now || framed.is_err()) && !turn.is_empty() {
            let mut w = writer.lock().map_err(|_| {
                WireError::Io(std::io::Error::other("writer lock poisoned"))
            })?;
            w.write_all(turn)?;
            w.flush()?;
            turn.clear();
        }
        framed
    }
}

#[cfg(test)]
mod tests {
    use super::super::wire::read_frame;
    use super::*;
    use crate::config::{ChipConfig, Organization};
    use nocout_sim::config::MeasurementWindow;
    use nocout_workloads::Workload;
    use std::time::Instant;

    /// Keeps the bytes of every `write` call apart: one entry per write
    /// the worker issued.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn tiny_specs(n: usize) -> Vec<RunSpec> {
        (0..n as u64)
            .map(|seed| {
                RunSpec::new(ChipConfig::paper(Organization::Mesh), Workload::WebSearch)
                    .with_window(MeasurementWindow::new(20, 60))
                    .with_seed(seed)
            })
            .collect()
    }

    /// A worker whose heartbeat stays silent unless a test shortens it.
    fn quiet_worker(fault: FaultPlan) -> Worker {
        Worker::new(BatchRunner::serial())
            .with_heartbeat(Duration::from_secs(60))
            .with_faults(fault)
    }

    /// Serves shard 7 of `specs` from memory; returns how the connection
    /// ended and every write the worker issued.
    fn serve_shard(worker: &Worker, specs: &[RunSpec]) -> (Result<(), WireError>, Vec<Vec<u8>>) {
        let request = encode_frame(&Message::ShardRequest { shard: 7, specs: specs.to_vec() })
            .expect("encode request");
        let mut log = WriteLog::default();
        let served = worker.serve_stream(&request[..], &mut log);
        (served, log.0)
    }

    /// Decodes every frame of `bytes`, corrupt ones as their error.
    fn decode(bytes: &[u8]) -> Vec<Result<Message, WireError>> {
        let mut rest = bytes;
        let mut frames = Vec::new();
        while !rest.is_empty() {
            frames.push(read_frame(&mut rest));
        }
        frames
    }

    #[test]
    fn a_shard_ends_in_one_write_and_earlier_points_stream() {
        for n in [0, 1, 3] {
            let specs = tiny_specs(n);
            let (served, writes) = serve_shard(&quiet_worker(FaultPlan::default()), &specs);
            served.expect("clean shard");
            assert_eq!(writes.len(), n.max(1), "{n} points: one write per turn");
            let trailer = Message::ShardDone { shard: 7, points: n as u32 };
            for (i, write) in writes.iter().enumerate() {
                let got: Vec<Message> =
                    decode(write).into_iter().map(|f| f.expect("intact frame")).collect();
                let mut want = Vec::new();
                if let Some(spec) = specs.get(i) {
                    let metrics = BatchRunner::serial()
                        .run_batch_outcomes(std::slice::from_ref(spec))
                        .pop()
                        .expect("one outcome")
                        .expect("the point runs");
                    want.push(Message::PointOk {
                        shard: 7,
                        index: i as u32,
                        entry: render_entry(&spec.cache_key(), &metrics),
                    });
                }
                if i + 1 == writes.len() {
                    want.push(trailer.clone());
                }
                assert_eq!(got, want, "{n} points, write {i}");
            }
        }
    }

    #[test]
    fn drop_on_the_trailer_still_delivers_the_result_before_it() {
        // Frame 0 is the point, frame 1 its trailer.
        let worker = quiet_worker(FaultPlan { drop_after_frames: Some(1), ..FaultPlan::default() });
        let (served, writes) = serve_shard(&worker, &tiny_specs(1));
        let err = served.expect_err("the drop ends the connection");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(worker.is_dead());
        assert_eq!(writes.len(), 1);
        let frames = decode(&writes[0]);
        assert_eq!(frames.len(), 1, "the trailer is never sent");
        assert!(matches!(frames[0], Ok(Message::PointOk { shard: 7, index: 0, .. })));
    }

    #[test]
    fn corruption_hits_the_numbered_frame_not_the_end_of_the_write() {
        let worker = quiet_worker(FaultPlan { corrupt_frame: Some(0), ..FaultPlan::default() });
        let (served, writes) = serve_shard(&worker, &tiny_specs(1));
        served.expect("corruption is silent on the sending side");
        assert_eq!(writes.len(), 1);
        let frames = decode(&writes[0]);
        assert!(matches!(frames[0], Err(WireError::Corrupt)), "{:?}", frames[0]);
        assert!(
            matches!(frames[1], Ok(Message::ShardDone { shard: 7, points: 1 })),
            "{:?}",
            frames[1]
        );
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn delay_elapses_per_result_frame_under_a_steady_heartbeat() {
        let delay = Duration::from_millis(200);
        let worker = quiet_worker(FaultPlan { delay: Some(delay), ..FaultPlan::default() })
            .with_heartbeat(Duration::from_millis(30));
        let started = Instant::now();
        let (served, writes) = serve_shard(&worker, &tiny_specs(1));
        served.expect("a slow shard is still a clean one");
        assert!(started.elapsed() >= 2 * delay, "one delay per result frame");
        let frames: Vec<Message> = writes
            .iter()
            .flat_map(|w| decode(w))
            .map(|f| f.expect("intact frame"))
            .collect();
        let beats = frames.iter().filter(|m| **m == Message::Heartbeat).count();
        assert!(beats >= 6, "2 result frames x >= 3 heartbeats each, got {beats}");
        // The heartbeat stops with the shard: nothing follows the two
        // result frames, and they still share one write.
        assert_eq!(frames.len(), beats + 2);
        assert!(frames[..beats].iter().all(|m| *m == Message::Heartbeat));
        assert_eq!(decode(writes.last().expect("a write")).len(), 2);
    }
}
