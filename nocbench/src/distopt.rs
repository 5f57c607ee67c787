//! Op definitions for the layers `nocout_bench`'s `*opt` modules do not
//! cover — wire, trace store, journal and the workload sources — defined
//! once, next to the harness that times them ([`crate::layers`]), for
//! the reason those modules give: what "one op" means must not drift.
//!
//! Every op goes through `pub` items of `nocout` and `nocout-workloads`
//! only.

use nocout::cache::ResultsCache;
use nocout::config::{ChipConfig, Organization};
use nocout::distribute::{
    archive_trace, decode_frame, encode_frame, parse_spec, render_spec, Journal, Message,
    TraceStore,
};
use nocout::runner::RunSpec;
use nocout::{capture_synthetic_trace, trace_capture_len};
use nocout_cpu::source::InstructionSource;
use nocout_sim::config::MeasurementWindow;
use nocout_workloads::{
    OpenLoopSource, OpenLoopSpec, TraceSet, TraceSource, Workload, WorkloadGen,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Payload of the wire ops: one trace chunk of the size `sharded_trace`
/// ships in.
pub const CHUNK_BYTES: usize = 256 * 1024;

/// What the distribute-layer ops work on: a small captured trace, its
/// archive, one cached point's entry text, and scratch directories.
#[derive(Debug)]
pub struct DistFixture {
    /// A 16-stream captured trace.
    pub trace: Arc<TraceSet>,
    /// Its archive, as a driver would ship it.
    pub archive: Vec<u8>,
    /// A `TraceChunk` message of [`CHUNK_BYTES`].
    pub chunk: Message,
    /// That message encoded.
    pub chunk_frame: Vec<u8>,
    /// A simulated point.
    pub spec: RunSpec,
    /// Its results-cache entry text, which is what `PointOk` carries and
    /// what the journal records.
    pub entry: String,
    /// A store that holds `trace`.
    pub store: TraceStore,
    /// A store to stage into and commit.
    pub staging: TraceStore,
    /// Where the journal op writes.
    pub journal_path: PathBuf,
}

fn must<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| panic!("layers fixture: {what}: {e}"))
}

impl DistFixture {
    /// Builds the fixture under `dir`. `cycles` sizes the captured trace.
    pub fn new(dir: &Path, cycles: u64) -> Self {
        let chip = ChipConfig::paper(Organization::Mesh);
        let window = MeasurementWindow::new(cycles / 4, cycles - cycles / 4);
        let trace = must(
            "capture",
            capture_synthetic_trace(
                chip,
                Workload::WebSearch,
                1,
                &dir.join("trace"),
                trace_capture_len(&window),
            ),
        );
        let archive = must("archive", archive_trace(&trace));
        let hash = trace.content_hash();
        let data: Vec<u8> = archive.iter().copied().cycle().take(CHUNK_BYTES).collect();
        let chunk = Message::TraceChunk {
            hash,
            offset: 0,
            data,
        };
        let chunk_frame = must("encode", encode_frame(&chunk));

        // One real point, so the entry has the size entries have.
        let spec =
            RunSpec::new(chip, Workload::WebSearch).with_window(MeasurementWindow::new(100, 300));
        let cache = must("cache", ResultsCache::open(dir.join("cache")));
        cache.put(&spec, &nocout::run(&spec));
        let entry_path = must("cache dir", std::fs::read_dir(cache.dir()))
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "metrics"))
            .unwrap_or_else(|| panic!("layers fixture: the cache stored nothing"));
        let entry = must("cache entry", std::fs::read_to_string(entry_path));

        let store = must("store", TraceStore::open(dir.join("store")));
        must("stage", store.append_chunk(hash, 0, &archive));
        must("commit", store.commit(hash, archive.len() as u64));
        let staging = must("staging store", TraceStore::open(dir.join("staging")));
        DistFixture {
            trace,
            archive,
            chunk,
            chunk_frame,
            spec,
            entry,
            store,
            staging,
            journal_path: dir.join("journal"),
        }
    }

    /// Megabytes in the archive.
    pub fn archive_mb(&self) -> f64 {
        self.archive.len() as f64 / 1e6
    }
}

/// One wire encode: a [`CHUNK_BYTES`] trace chunk into a frame (payload
/// render, digest, header).
#[inline]
pub fn wire_encode_chunk(f: &DistFixture) {
    black_box(encode_frame(black_box(&f.chunk)).expect("a chunk encodes"));
}

/// One wire decode: that frame back into a message (bounds, digest,
/// payload parse).
#[inline]
pub fn wire_decode_chunk(f: &DistFixture) {
    black_box(decode_frame(black_box(&f.chunk_frame)).expect("the frame decodes"));
}

/// One result frame: a `PointOk` carrying a real entry, encoded and
/// decoded — what each point costs on the wire.
#[inline]
pub fn wire_point_frame(f: &DistFixture) {
    let msg = Message::PointOk {
        shard: 3,
        index: 0,
        entry: f.entry.clone(),
    };
    let frame = encode_frame(&msg).expect("a result encodes");
    black_box(decode_frame(&frame).expect("the result decodes"));
}

/// One spec round trip: `render_spec` then `parse_spec`.
#[inline]
pub fn wire_spec_roundtrip(f: &DistFixture) {
    let line = render_spec(black_box(&f.spec)).expect("a spec renders");
    black_box(parse_spec(&line).expect("the line parses"));
}

/// One archive build: every stream file read and packed.
#[inline]
pub fn store_archive(f: &DistFixture) {
    black_box(archive_trace(&f.trace).expect("the trace archives"));
}

/// One shipment's worth of store work: the archive staged in
/// [`CHUNK_BYTES`] chunks (each synced), then committed (unpacked,
/// re-hashed, installed). The installed entry is removed again so the
/// next op starts from an empty store.
pub fn store_stage_commit(f: &DistFixture) {
    let hash = f.trace.content_hash();
    let mut offset = 0;
    for chunk in f.archive.chunks(CHUNK_BYTES) {
        f.staging
            .append_chunk(hash, offset, chunk)
            .expect("a chunk stages");
        offset += chunk.len() as u64;
    }
    f.staging.commit(hash, offset).expect("the archive commits");
    let _ = std::fs::remove_dir_all(f.staging.dir().join(format!("{hash:016x}")));
}

/// One store lookup: the installed trace loaded and verified against
/// its content hash, as every trace-bearing shard request does.
#[inline]
pub fn store_get_verify(f: &DistFixture) {
    black_box(
        f.store
            .get(f.trace.content_hash())
            .expect("the store holds the trace"),
    );
}

/// A fresh journal for `ops` [`journal_record`] calls.
pub fn journal_open(f: &DistFixture) -> Journal {
    must(
        "journal",
        Journal::create(&f.journal_path, std::slice::from_ref(&f.spec)),
    )
}

/// One journal record: a completed point's entry appended and flushed.
#[inline]
pub fn journal_record(journal: &mut Journal, f: &DistFixture) {
    journal.record_ok(0, &f.entry).expect("the journal appends");
}

/// The synthetic generator the closed-loop workloads draw from.
pub fn synthetic_source() -> WorkloadGen {
    WorkloadGen::new(Workload::DataServing.profile(), 0, 1)
}

/// An open-loop source at a middling load (one 32-instruction request
/// per 100 cycles).
pub fn openloop_source() -> OpenLoopSource {
    OpenLoopSource::new(
        OpenLoopSpec {
            workload: Workload::DataServing,
            interval: 100,
            service_instrs: 32,
        },
        0,
        1,
    )
}

/// The fixture trace's first stream, replayed (it loops).
pub fn replay_source(f: &DistFixture) -> TraceSource {
    must("open stream", f.trace.open_stream(0))
}

/// One instruction from any source.
#[inline]
pub fn next_instr(src: &mut impl InstructionSource) {
    black_box(src.next_instr());
}

/// One open-loop instruction; the clock moves one cycle every three
/// instructions (the core's dispatch width), so arrivals, service and
/// idle filler all occur.
#[inline]
pub fn openloop_instr(src: &mut OpenLoopSource, i: u64) {
    if i.is_multiple_of(3) {
        src.advance_to(i / 3);
    }
    black_box(src.next_instr());
}
