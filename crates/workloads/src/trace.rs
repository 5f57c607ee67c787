//! Binary instruction traces: capture any [`InstructionSource`] stream to
//! compact per-core files and replay them as a first-class workload.
//!
//! A trace is a *directory* of per-core stream files (`core-000.nctrace`,
//! `core-001.nctrace`, ...), each holding a versioned header followed by
//! delta-coded instruction records: one head byte, then the zig-zag
//! LEB128 deltas of the fetch line and the data address against the
//! previous record's, only where needed (the exact byte layout is
//! documented in `docs/trace-format.md`). [`TraceWriter`] produces one
//! stream file; [`TraceSource`] is a cursor over one stream's bytes in
//! memory and loops back to the first record when the stream runs out,
//! so a finite capture can drive arbitrarily long simulations;
//! [`TraceSet`] loads a whole directory, validates every record once
//! with the decoder replay uses, computes the content hash that keys
//! replay runs in the results cache (editing any byte of any stream
//! invalidates cached metrics), and keeps the bytes it checked: replay
//! reads that buffer, never the files again.
//!
//! [`WorkloadClass`] is the run-spec-level union of the two workload
//! classes the simulator now supports: a synthetic CloudSuite-style
//! profile ([`Workload`]) or a captured trace (`trace:PATH` on every
//! experiment CLI).

use crate::openloop::OpenLoopSpec;
use crate::profile::{Workload, WorkloadProfile};
use nocout_cpu::source::{FetchedInstr, InstructionSource, Op};
use nocout_mem::addr::Addr;
use nocout_sim::hash::{fnv1a_fold, FNV_BASIS};
use nocout_sim::text::{hex, push_num, whole, Reader, TextError};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every trace stream file.
pub const TRACE_MAGIC: [u8; 4] = *b"NCTR";
/// Current trace format version (checked on open; see
/// `docs/trace-format.md` for the versioning policy).
pub const TRACE_VERSION: u32 = 2;
/// File-name suffix of per-core stream files inside a trace directory.
pub const TRACE_SUFFIX: &str = ".nctrace";

/// Byte offset of the `instr_count`/`payload_len` pair the writer patches
/// on finish: magic(4) + version(4) + core(4) + name_len(2).
const COUNTS_OFFSET: u64 = 14;

fn invalid<T>(path: &Path, what: impl fmt::Display) -> io::Result<T> {
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    ))
}

/// The per-stream header: identity and the warm-up sets a chip needs to
/// reproduce checkpoint-style cache warming without the originating
/// profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Physical core index the stream was captured for. Replay warms this
    /// core's private-data region and generates its addresses, so metrics
    /// reproduce exactly when the stream is mapped back onto it.
    pub core: u32,
    /// Seed of the originating run (provenance only).
    pub seed: u64,
    /// Instructions recorded in the stream.
    pub instr_count: u64,
    /// Bytes of the record section following the header.
    pub payload_len: u64,
    /// Hot instruction lines to warm into the L1-I.
    pub instr_hot_lines: u32,
    /// Local data lines to warm into the L1-D.
    pub local_data_lines: u32,
    /// Shared instruction footprint to warm into the LLC (lines).
    pub instr_footprint_lines: u32,
    /// LLC-resident data region to warm into the LLC (lines).
    pub llc_resident_lines: u32,
    /// Shared read-write region to warm into the LLC (lines).
    pub shared_rw_lines: u32,
    /// Human-readable origin (e.g. the profile name).
    pub name: String,
}

impl TraceHeader {
    /// A header for a stream captured from `profile` on physical core
    /// `core` under `seed` (counts are filled in by the writer).
    pub fn for_profile(profile: &WorkloadProfile, core: u32, seed: u64) -> Self {
        TraceHeader {
            core,
            seed,
            instr_count: 0,
            payload_len: 0,
            instr_hot_lines: profile.instr_hot_lines as u32,
            local_data_lines: profile.local_data_lines as u32,
            instr_footprint_lines: profile.instr_footprint_lines as u32,
            llc_resident_lines: profile.llc_resident_lines as u32,
            shared_rw_lines: profile.shared_rw_lines as u32,
            name: profile.name.to_string(),
        }
    }

    /// The lines replay warms into the captured core's L1s, as
    /// [`l1_warm_runs`](crate::gen::l1_warm_runs) of the header's counts.
    pub fn l1_runs(&self) -> [(Addr, u64); 2] {
        crate::gen::l1_warm_runs(
            self.core,
            self.instr_hot_lines as u64,
            self.local_data_lines as u64,
        )
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.name.len());
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.core.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        debug_assert_eq!(out.len() as u64, COUNTS_OFFSET);
        out.extend_from_slice(&self.instr_count.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.instr_hot_lines.to_le_bytes());
        out.extend_from_slice(&self.local_data_lines.to_le_bytes());
        out.extend_from_slice(&self.instr_footprint_lines.to_le_bytes());
        out.extend_from_slice(&self.llc_resident_lines.to_le_bytes());
        out.extend_from_slice(&self.shared_rw_lines.to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out
    }

    fn decode(r: &mut impl Read, path: &Path) -> io::Result<TraceHeader> {
        let mut fixed = [0u8; 58];
        r.read_exact(&mut fixed)?;
        if fixed[0..4] != TRACE_MAGIC {
            return invalid(path, "not a trace stream (bad magic)");
        }
        let version = u32::from_le_bytes(fixed[4..8].try_into().unwrap());
        if version != TRACE_VERSION {
            return invalid(
                path,
                format!("trace version {version} (this build reads {TRACE_VERSION})"),
            );
        }
        let u32_at = |o: usize| u32::from_le_bytes(fixed[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(fixed[o..o + 8].try_into().unwrap());
        let name_len = u16::from_le_bytes(fixed[12..14].try_into().unwrap()) as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let Ok(name) = String::from_utf8(name) else {
            return invalid(path, "header name is not UTF-8");
        };
        Ok(TraceHeader {
            core: u32_at(8),
            instr_count: u64_at(14),
            payload_len: u64_at(22),
            seed: u64_at(30),
            instr_hot_lines: u32_at(38),
            local_data_lines: u32_at(42),
            instr_footprint_lines: u32_at(46),
            llc_resident_lines: u32_at(50),
            shared_rw_lines: u32_at(54),
            name,
        })
    }

    fn encoded_len(&self) -> u64 {
        58 + self.name.len() as u64
    }

    /// The header of the whole stream file held in `bytes`, checked
    /// against it: a stream holds at least one record (a source must
    /// always produce) and is exactly as long as its header promises —
    /// by a checked sum, so a `payload_len` corrupted toward `u64::MAX`
    /// is the same typed error as any other wrong length.
    fn of_stream(bytes: &[u8], path: &Path) -> io::Result<TraceHeader> {
        let h = TraceHeader::decode(&mut &bytes[..], path)?;
        if h.instr_count == 0 || h.payload_len == 0 {
            return invalid(path, "empty trace stream (sources must be infinite)");
        }
        let (header, payload, actual) = (h.encoded_len(), h.payload_len, bytes.len());
        if header.checked_add(payload) != Some(actual as u64) {
            return invalid(
                path,
                format!("file is {actual} bytes but header promises {header} + {payload}"),
            );
        }
        Ok(h)
    }
}

// Head byte: bits 0-1 are the record kind, bit 2 says the record stays
// on the previous record's fetch line, bits 3-7 are the kind's operand
// (an ALU latency below `LATENCY_ESCAPE`, or the escape itself with the
// latency in the record's last byte; a load's `dependent` bit; zero for
// a store). Every bit without a meaning must be zero.
const KIND_MASK: u8 = 0b11;
const KIND_ALU: u8 = 0;
const KIND_LOAD: u8 = 1;
const KIND_STORE: u8 = 2;
const SAME_LINE: u8 = 1 << 2;
const OPERAND_SHIFT: u32 = 3;
const LATENCY_ESCAPE: u8 = 31;
/// Longest record: head byte plus two ten-byte varints.
const MAX_RECORD_LEN: usize = 21;

/// What a record is coded against: the previous record's fetch line and
/// the previous data address. Zero at a stream's first record, and again
/// whenever replay rewinds to it.
#[derive(Debug, Clone, Copy, Default)]
struct Predictor {
    fetch_line: u64,
    data_addr: u64,
}

/// Appends `cur - *prev` (wrapping, so any pair of addresses
/// round-trips) as a zig-zag LEB128 varint in its shortest form, and
/// moves the predictor slot to `cur`.
fn put_delta(out: &mut Vec<u8>, prev: &mut u64, cur: u64) {
    let delta = cur.wrapping_sub(*prev) as i64;
    let mut zz = ((delta << 1) ^ (delta >> 63)) as u64;
    while zz >= 0x80 {
        out.push(zz as u8 | 0x80);
        zz >>= 7;
    }
    out.push(zz as u8);
    *prev = cur;
}

/// Reads one [`put_delta`] varint at `bytes[*at..]` and moves the
/// predictor slot by it. Only the shortest form is accepted, so bytes
/// and values stay one-to-one.
#[inline(always)]
fn take_delta(bytes: &[u8], at: &mut usize, prev: &mut u64) -> Result<(), &'static str> {
    let mut zz = 0u64;
    for i in 0..10 {
        let Some(&b) = bytes.get(*at + i) else {
            return Err("record runs past the payload");
        };
        if i == 9 && b > 1 {
            break; // a 65th bit, or an eleventh byte
        }
        zz |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Err("over-long varint");
            }
            *at += i + 1;
            *prev = prev.wrapping_add((zz >> 1) ^ (zz & 1).wrapping_neg());
            return Ok(());
        }
    }
    Err("varint does not fit 64 bits")
}

fn encode_record(out: &mut Vec<u8>, pred: &mut Predictor, instr: &FetchedInstr) {
    let head_at = out.len();
    out.push(0); // head byte, patched below
    let mut head = 0;
    if instr.fetch_line.0 == pred.fetch_line {
        head |= SAME_LINE;
    } else {
        put_delta(out, &mut pred.fetch_line, instr.fetch_line.0);
    }
    head |= match instr.op {
        Op::Alu { latency } => {
            if latency >= LATENCY_ESCAPE {
                out.push(latency);
            }
            KIND_ALU | latency.min(LATENCY_ESCAPE) << OPERAND_SHIFT
        }
        Op::Load { addr, dependent } => {
            put_delta(out, &mut pred.data_addr, addr.0);
            KIND_LOAD | u8::from(dependent) << OPERAND_SHIFT
        }
        Op::Store { addr } => {
            put_delta(out, &mut pred.data_addr, addr.0);
            KIND_STORE
        }
    };
    out[head_at] = head;
}

/// Decodes the record at the front of `bytes` against `pred`, returning
/// it with its encoded length. This is the one decoder: load-time
/// validation and replay both call it, and it accepts exactly the byte
/// strings [`encode_record`] produces. Inlined into both loops, which
/// keeps the predictor in registers (a fifth off either's time).
#[inline(always)]
fn decode_record(
    bytes: &[u8],
    pred: &mut Predictor,
) -> Result<(FetchedInstr, usize), &'static str> {
    let Some(&head) = bytes.first() else {
        return Err("record runs past the payload");
    };
    let mut at = 1;
    if head & SAME_LINE == 0 {
        let prev = pred.fetch_line;
        take_delta(bytes, &mut at, &mut pred.fetch_line)?;
        if pred.fetch_line == prev {
            return Err("zero fetch-line delta without the same-line flag");
        }
    }
    let operand = head >> OPERAND_SHIFT;
    let kind = head & KIND_MASK;
    let op = if kind == KIND_ALU {
        if operand < LATENCY_ESCAPE {
            Op::Alu { latency: operand }
        } else {
            let Some(&latency) = bytes.get(at) else {
                return Err("record runs past the payload");
            };
            if latency < LATENCY_ESCAPE {
                return Err("latency escape for a latency that fits the head byte");
            }
            at += 1;
            Op::Alu { latency }
        }
    } else {
        if kind > KIND_STORE {
            return Err("unknown record kind 3");
        }
        if operand > u8::from(kind == KIND_LOAD) {
            return Err("reserved head-byte bits set");
        }
        take_delta(bytes, &mut at, &mut pred.data_addr)?;
        let addr = Addr(pred.data_addr);
        if kind == KIND_LOAD {
            Op::Load { addr, dependent: operand == 1 }
        } else {
            Op::Store { addr }
        }
    };
    let fetch_line = Addr(pred.fetch_line);
    Ok((FetchedInstr { fetch_line, op }, at))
}

/// Writes one per-core stream file: header first, then each captured
/// instruction as a record coded against the one before it;
/// [`TraceWriter::finish`] patches the final counts back into the header.
///
/// # Examples
///
/// ```no_run
/// use nocout_cpu::source::{FetchedInstr, Op, ScriptedSource};
/// use nocout_mem::addr::Addr;
/// use nocout_workloads::trace::{TraceHeader, TraceWriter};
/// use nocout_workloads::Workload;
///
/// let profile = Workload::WebSearch.profile();
/// let mut src = ScriptedSource::new(vec![FetchedInstr {
///     fetch_line: Addr(0),
///     op: Op::Alu { latency: 1 },
/// }]);
/// let header = TraceHeader::for_profile(&profile, 0, 1);
/// let mut w = TraceWriter::create("trace-dir/core-000.nctrace", header).unwrap();
/// w.capture(&mut src, 1_000_000).unwrap();
/// w.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    path: PathBuf,
    header: TraceHeader,
    buf: Vec<u8>,
    pred: Predictor,
}

impl TraceWriter {
    /// Creates (truncating) a stream file and writes its header with
    /// zeroed counts.
    pub fn create<P: Into<PathBuf>>(path: P, header: TraceHeader) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = BufWriter::new(File::create(&path)?);
        let mut header = header;
        header.instr_count = 0;
        header.payload_len = 0;
        out.write_all(&header.encode())?;
        Ok(TraceWriter {
            out,
            path,
            header,
            buf: Vec::with_capacity(MAX_RECORD_LEN),
            pred: Predictor::default(),
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one instruction.
    pub fn write(&mut self, instr: &FetchedInstr) -> io::Result<()> {
        self.buf.clear();
        encode_record(&mut self.buf, &mut self.pred, instr);
        self.out.write_all(&self.buf)?;
        self.header.instr_count += 1;
        self.header.payload_len += self.buf.len() as u64;
        Ok(())
    }

    /// Captures the next `n` instructions of any source's stream.
    pub fn capture(&mut self, source: &mut dyn InstructionSource, n: u64) -> io::Result<()> {
        for _ in 0..n {
            let i = source.next_instr();
            self.write(&i)?;
        }
        Ok(())
    }

    /// Flushes the records and patches the instruction/byte counts into
    /// the header, completing the file.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.flush()?;
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(COUNTS_OFFSET))?;
        file.write_all(&self.header.instr_count.to_le_bytes())?;
        file.write_all(&self.header.payload_len.to_le_bytes())?;
        file.sync_all()
    }
}

/// Looping replay of one stream — an [`InstructionSource`] whose stream
/// is the recorded sequence repeated forever (workload streams are
/// infinite by contract).
///
/// A source is a cursor over the stream's bytes in memory: replay does
/// no I/O. [`TraceSet::open_stream`], the only way to get one, hands it
/// the buffer [`TraceSet::load`] hashed and validated with the same
/// decoder, so what is replayed is what was checked.
#[derive(Debug)]
pub struct TraceSource {
    path: PathBuf,
    header: TraceHeader,
    /// The whole stream file; records start at `header.encoded_len()`.
    bytes: Arc<[u8]>,
    /// Offset in `bytes` of the next record to decode.
    pos: usize,
    pred: Predictor,
}

impl TraceSource {
    /// A cursor at the first record of `bytes`, whose header is `header`.
    fn over(path: PathBuf, header: TraceHeader, bytes: Arc<[u8]>) -> Self {
        TraceSource {
            path,
            pos: header.encoded_len() as usize,
            header,
            bytes,
            pred: Predictor::default(),
        }
    }

    /// The stream's header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn read_one(&mut self) -> FetchedInstr {
        if self.pos == self.bytes.len() {
            // Payload spent: back to the first record, predictor zeroed.
            self.pos = self.header.encoded_len() as usize;
            self.pred = Predictor::default();
        }
        let (instr, n) = decode_record(&self.bytes[self.pos..], &mut self.pred)
            .unwrap_or_else(|e| panic!("{}: corrupt trace record: {e}", self.path.display()));
        self.pos += n;
        instr
    }
}

// The trait's default `refill` already loops `next_instr` with static
// dispatch once monomorphized for this type, so no override is needed.
impl InstructionSource for TraceSource {
    fn next_instr(&mut self) -> FetchedInstr {
        self.read_one()
    }
}

/// LLC warm-up regions shared by every stream of a trace (validated
/// consistent at load time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceWarm {
    /// Shared instruction footprint in lines.
    pub instr_footprint_lines: u32,
    /// LLC-resident data region in lines.
    pub llc_resident_lines: u32,
    /// Shared read-write region in lines.
    pub shared_rw_lines: u32,
}

/// A loaded trace directory: one validated stream per core slot, held
/// in memory, plus the content hash that keys replay runs in the results
/// cache. After [`TraceSet::load`] returns nothing reads the directory
/// again: replay and archiving both work from the bytes that were
/// checked, so editing or deleting the files under a loaded set changes
/// nothing it does.
///
/// Stream files are ordered by file name; slot `i` of a replay run reads
/// the `i`-th file and is placed on the chip's `i`-th preferred core (the
/// same activation order the synthetic classes use), so a trace captured
/// from a chip configuration replays onto the identical core set.
#[derive(Debug)]
pub struct TraceSet {
    dir: PathBuf,
    files: Vec<PathBuf>,
    headers: Vec<TraceHeader>,
    /// Each stream file's bytes, as hashed and validated by `load`.
    streams: Vec<Arc<[u8]>>,
    warm: TraceWarm,
    content_hash: u64,
}

impl TraceSet {
    /// Loads and validates a trace directory: every stream's header and
    /// every record is checked once (kind, reserved bits, canonical
    /// varints, no record past the payload, record count = header), and
    /// the content hash (FNV-1a 64 over each file's name and bytes, in
    /// file-name order) is computed here, over the bytes the set then
    /// keeps for [`TraceSet::open_stream`] — each file is read once.
    pub fn load<P: Into<PathBuf>>(dir: P) -> io::Result<Arc<TraceSet>> {
        let dir = dir.into();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(TRACE_SUFFIX))
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return invalid(&dir, format!("no `*{TRACE_SUFFIX}` stream files"));
        }
        let mut headers = Vec::with_capacity(files.len());
        let mut streams = Vec::with_capacity(files.len());
        let mut hash = FNV_BASIS;
        for path in &files {
            let bytes: Arc<[u8]> = std::fs::read(path)?.into();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("suffix-matched name is UTF-8");
            hash = fnv1a_fold(hash, name.as_bytes());
            hash = fnv1a_fold(hash, &bytes);
            let header = TraceHeader::of_stream(&bytes, path)?;
            // Validate the whole record section once, with the decoder
            // replay uses, so replay can trust the layout.
            let mut rest = &bytes[header.encoded_len() as usize..];
            let mut pred = Predictor::default();
            let mut records = 0u64;
            while !rest.is_empty() {
                match decode_record(rest, &mut pred) {
                    Ok((_, n)) => rest = &rest[n..],
                    Err(what) => return invalid(path, format!("record {records}: {what}")),
                }
                records += 1;
            }
            if records != header.instr_count {
                return invalid(
                    path,
                    format!(
                        "header promises {} instructions, payload holds {records}",
                        header.instr_count
                    ),
                );
            }
            headers.push(header);
            streams.push(bytes);
        }
        let first = &headers[0];
        let warm = TraceWarm {
            instr_footprint_lines: first.instr_footprint_lines,
            llc_resident_lines: first.llc_resident_lines,
            shared_rw_lines: first.shared_rw_lines,
        };
        for (path, h) in files.iter().zip(&headers) {
            if (h.instr_footprint_lines, h.llc_resident_lines, h.shared_rw_lines)
                != (
                    warm.instr_footprint_lines,
                    warm.llc_resident_lines,
                    warm.shared_rw_lines,
                )
            {
                return invalid(path, "streams disagree on LLC warm-up regions");
            }
        }
        Ok(Arc::new(TraceSet {
            dir,
            files,
            headers,
            streams,
            warm,
            content_hash: hash,
        }))
    }

    /// This set as it stands after its directory was renamed to `dir`:
    /// the same validated streams and content hash, with [`TraceSet::dir`]
    /// and every stream path under the new root. Nothing is re-read: the
    /// two sets share their stream bytes, and the caller vouches that
    /// `dir` holds exactly the files this set was loaded from.
    pub fn rerooted<P: Into<PathBuf>>(&self, dir: P) -> Arc<TraceSet> {
        let dir = dir.into();
        let files = self
            .files
            .iter()
            .map(|f| dir.join(f.file_name().expect("stream files are named")))
            .collect();
        Arc::new(TraceSet {
            dir,
            files,
            headers: self.headers.clone(),
            streams: self.streams.clone(),
            warm: self.warm,
            content_hash: self.content_hash,
        })
    }

    /// The trace directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of per-core streams (the replay run's active core count).
    pub fn streams(&self) -> usize {
        self.files.len()
    }

    /// Header of the `slot`-th stream (file-name order).
    pub fn header(&self, slot: usize) -> &TraceHeader {
        &self.headers[slot]
    }

    /// The shared LLC warm-up regions.
    pub fn warm(&self) -> TraceWarm {
        self.warm
    }

    /// Opens the `slot`-th stream for replay: a cursor over the bytes
    /// [`TraceSet::load`] validated. No file is touched, so this never
    /// returns an error.
    pub fn open_stream(&self, slot: usize) -> io::Result<TraceSource> {
        Ok(TraceSource::over(
            self.files[slot].clone(),
            self.headers[slot].clone(),
            self.streams[slot].clone(),
        ))
    }

    /// The `slot`-th stream file's bytes, header included, exactly as
    /// [`TraceSet::load`] read and hashed them.
    pub fn stream_bytes(&self, slot: usize) -> &[u8] {
        &self.streams[slot]
    }

    /// The stream files' paths as they were at load, in file-name order
    /// — the same order the content hash folds them in, so an archiver
    /// that pairs each name with [`TraceSet::stream_bytes`] of the same
    /// slot and re-hashes name + bytes reproduces
    /// [`TraceSet::content_hash`] exactly (the identity rule trace
    /// shipping relies on; see `docs/trace-format.md`).
    pub fn files(&self) -> &[PathBuf] {
        &self.files
    }

    /// FNV-1a 64 over every stream file's name and bytes — the token that
    /// represents this trace in `RunSpec` cache keys, so editing any byte
    /// of any stream invalidates cached replay results.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Total length of the stream files in bytes, headers included, as
    /// held since load — against [`TraceSet::total_instructions`] it is
    /// what an instruction costs on disk, in memory and on the shard wire.
    pub fn total_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Total instructions recorded across all streams (part of the cache
    /// token alongside the content hash, so colliding hashes would also
    /// need identical shapes to alias).
    pub fn total_instructions(&self) -> u64 {
        self.headers.iter().map(|h| h.instr_count).sum()
    }
}

/// The workload classes a run spec can name: a synthetic CloudSuite-style
/// profile, or a captured trace replayed from its loaded set.
///
/// Cloning is cheap (traces are shared through an [`Arc`]), and equality
/// follows cache-key semantics: two trace classes are equal exactly when
/// their content hashes are.
#[derive(Debug, Clone)]
pub enum WorkloadClass {
    /// A synthetic profile generated on the fly.
    Synthetic(Workload),
    /// A captured trace directory (`trace:PATH` on the experiment CLIs).
    Trace(Arc<TraceSet>),
    /// A synthetic profile driven by an open-loop arrival schedule
    /// (`openloop:WORKLOAD:INTERVAL:SERVICE` on the experiment CLIs).
    OpenLoop(OpenLoopSpec),
}

impl WorkloadClass {
    /// Whether runs of this class vary with the run spec's seed.
    /// Synthetic generators are seeded (open-loop service streams too);
    /// trace replay is literal — the seed changes nothing, so campaign
    /// layers collapse seed replication of trace points to a single run.
    pub fn is_seed_sensitive(&self) -> bool {
        matches!(
            self,
            WorkloadClass::Synthetic(_) | WorkloadClass::OpenLoop(_)
        )
    }

    /// Display name (profile name, or the trace directory).
    pub fn name(&self) -> String {
        match self {
            WorkloadClass::Synthetic(w) => w.name().to_string(),
            WorkloadClass::Trace(t) => format!("trace:{}", t.dir().display()),
            WorkloadClass::OpenLoop(s) => format!(
                "{} open-loop 1/{}c x{}",
                s.workload.name(),
                s.interval,
                s.service_instrs
            ),
        }
    }

    /// The one canonical token of this class, the last field of the spec
    /// line cache keys and shard requests share: `synthetic:<key>`,
    /// `openloop:<key>:<interval>:<service>`, or
    /// `trace@<contenthash>x<streams>i<instructions>` — never a path, so
    /// a spec means the same bytes on every host. Note the trace token is
    /// a *digest*, not the content itself: unlike synthetic keys, the
    /// cache's verify-on-load check can only be as strong as this token,
    /// so two traces aliasing requires a 64-bit FNV collision *and*
    /// identical stream/instruction counts — astronomically unlikely,
    /// but probabilistic rather than exact.
    pub fn cache_token(&self) -> String {
        let mut token = String::new();
        self.push_cache_token(&mut token);
        token
    }

    /// Appends [`WorkloadClass::cache_token`] to `out`: how the spec line
    /// writes it, with no `core::fmt` on the way.
    pub fn push_cache_token(&self, out: &mut String) {
        match self {
            WorkloadClass::Synthetic(w) => {
                out.push_str("synthetic:");
                out.push_str(w.key());
            }
            WorkloadClass::Trace(t) => {
                out.push_str("trace@");
                out.push_str(hex(t.content_hash()).as_str());
                out.push('x');
                push_num(out, t.streams() as u64);
                out.push('i');
                push_num(out, t.total_instructions());
            }
            WorkloadClass::OpenLoop(s) => s.push_token(out),
        }
    }

    /// Inverse of [`WorkloadClass::cache_token`]. A trace token names a
    /// content hash, which `resolve` turns into the locally held set (or
    /// the reason it cannot); the set must then have the stream and
    /// instruction counts the token promises.
    pub fn parse_token(
        token: &str,
        resolve: impl FnOnce(u64) -> Result<Arc<TraceSet>, TextError>,
    ) -> Result<WorkloadClass, TextError> {
        let bad = || TextError(format!("bad workload token `{token}`"));
        if let Some(key) = token.strip_prefix("synthetic:") {
            Workload::from_key(key).map(WorkloadClass::from).ok_or_else(bad)
        } else if token.starts_with("openloop:") {
            OpenLoopSpec::parse_token(token).map(WorkloadClass::from).ok_or_else(bad)
        } else if let Some(rest) = token.strip_prefix("trace@") {
            let shape = rest.get(16..).and_then(|s| s.strip_prefix('x')?.split_once('i'));
            let (streams, instrs) = shape.ok_or_else(bad)?;
            let hash = whole(&rest[..16], Reader::hash)?;
            let counts: (usize, u64) = (whole(streams, Reader::num)?, whole(instrs, Reader::num)?);
            let set = resolve(hash)?;
            if counts != (set.streams(), set.total_instructions()) {
                let held = (set.streams(), set.total_instructions());
                return Err(TextError(format!(
                    "`{token}` promises {counts:?} (streams, instructions), the held trace has {held:?}"
                )));
            }
            Ok(WorkloadClass::Trace(set))
        } else {
            Err(bad())
        }
    }
}

impl From<OpenLoopSpec> for WorkloadClass {
    fn from(s: OpenLoopSpec) -> Self {
        WorkloadClass::OpenLoop(s)
    }
}

impl From<Workload> for WorkloadClass {
    fn from(w: Workload) -> Self {
        WorkloadClass::Synthetic(w)
    }
}

impl From<Arc<TraceSet>> for WorkloadClass {
    fn from(t: Arc<TraceSet>) -> Self {
        WorkloadClass::Trace(t)
    }
}

impl PartialEq for WorkloadClass {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (WorkloadClass::Synthetic(a), WorkloadClass::Synthetic(b)) => a == b,
            (WorkloadClass::Trace(a), WorkloadClass::Trace(b)) => {
                a.content_hash() == b.content_hash()
            }
            (WorkloadClass::OpenLoop(a), WorkloadClass::OpenLoop(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadGen;
    use nocout_cpu::source::InstrBlock;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "nocout-trace-test-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn capture_one(dir: &Path, core: u32, seed: u64, n: u64) -> PathBuf {
        let profile = Workload::MapReduceC.profile();
        let mut gen = WorkloadGen::new(profile, core as u16, seed);
        let path = dir.join(format!("core-{core:03}{TRACE_SUFFIX}"));
        let mut w = TraceWriter::create(&path, TraceHeader::for_profile(&profile, core, seed))
            .unwrap();
        w.capture(&mut gen, n).unwrap();
        w.finish().unwrap();
        path
    }

    #[test]
    fn capture_then_replay_reproduces_the_stream() {
        let dir = TempDir::new("roundtrip");
        capture_one(&dir.0, 3, 7, 5_000);
        let mut replay = TraceSet::load(&dir.0).unwrap().open_stream(0).unwrap();
        assert_eq!(replay.header().instr_count, 5_000);
        assert_eq!(replay.header().core, 3);
        let mut gen = WorkloadGen::new(Workload::MapReduceC.profile(), 3, 7);
        for n in 0..5_000 {
            assert_eq!(replay.next_instr(), gen.next_instr(), "instr {n}");
        }
    }

    #[test]
    fn replay_loops_past_the_end() {
        let dir = TempDir::new("looping");
        capture_one(&dir.0, 0, 1, 100);
        let mut replay = TraceSet::load(&dir.0).unwrap().open_stream(0).unwrap();
        let first: Vec<FetchedInstr> = (0..100).map(|_| replay.next_instr()).collect();
        let second: Vec<FetchedInstr> = (0..100).map(|_| replay.next_instr()).collect();
        assert_eq!(first, second, "stream must loop exactly");
    }

    #[test]
    fn block_refill_matches_per_instruction_replay() {
        let dir = TempDir::new("block");
        capture_one(&dir.0, 1, 9, 777);
        let set = TraceSet::load(&dir.0).unwrap();
        let mut blocked = set.open_stream(0).unwrap();
        let mut direct = set.open_stream(0).unwrap();
        let mut block = InstrBlock::new();
        for n in 0..3_000 {
            assert_eq!(block.take(&mut blocked), direct.next_instr(), "instr {n}");
        }
    }

    #[test]
    fn trace_set_loads_streams_in_name_order() {
        let dir = TempDir::new("set");
        capture_one(&dir.0, 5, 2, 50);
        capture_one(&dir.0, 2, 2, 60);
        let set = TraceSet::load(&dir.0).unwrap();
        assert_eq!(set.streams(), 2);
        // File-name order: core-002 before core-005.
        assert_eq!(set.header(0).core, 2);
        assert_eq!(set.header(1).core, 5);
        assert_eq!(set.header(0).instr_count, 60);
        let warm = set.warm();
        assert_eq!(
            warm.instr_footprint_lines,
            Workload::MapReduceC.profile().instr_footprint_lines as u32
        );
    }

    #[test]
    fn content_hash_tracks_every_byte() {
        let dir = TempDir::new("hash");
        // A hand-picked stream, so the last byte's meaning is known: the
        // store's address delta is 0x40, zig-zag 0x80, varint [0x80, 0x01].
        let path = dir.0.join(format!("core-000{TRACE_SUFFIX}"));
        let header = TraceHeader::for_profile(&Workload::MapReduceC.profile(), 0, 4);
        let mut w = TraceWriter::create(&path, header).unwrap();
        for op in [Op::Alu { latency: 1 }, Op::Store { addr: Addr(0x40) }] {
            w.write(&FetchedInstr { fetch_line: Addr(0x1000), op }).unwrap();
        }
        w.finish().unwrap();
        let before = TraceSet::load(&dir.0).unwrap().content_hash();
        let again = TraceSet::load(&dir.0).unwrap().content_hash();
        assert_eq!(before, again, "hash is deterministic");
        // Flip one payload bit that keeps the record valid: the top byte
        // of that varint, 0x01 -> 0x03, moves the store to another address.
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[bytes.len() - 2..], [0x80, 0x01]);
        let off = bytes.len() - 1;
        bytes[off] ^= 0x02;
        std::fs::write(&path, bytes).unwrap();
        let after = TraceSet::load(&dir.0).unwrap().content_hash();
        assert_ne!(before, after, "edits must change the hash");
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let dir = TempDir::new("truncated");
        let path = capture_one(&dir.0, 0, 1, 100);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = TraceSet::load(&dir.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hostile_payload_len_is_a_typed_error() {
        let dir = TempDir::new("hostile");
        let path = capture_one(&dir.0, 0, 1, 100);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[22..30].copy_from_slice(&u64::MAX.to_le_bytes()); // payload_len
        std::fs::write(&path, bytes).unwrap();
        let err = TraceSet::load(&dir.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&path.display().to_string()), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let dir = TempDir::new("version");
        let path = capture_one(&dir.0, 0, 1, 10);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // version field
        std::fs::write(&path, bytes).unwrap();
        let err = TraceSet::load(&dir.0).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn empty_directory_is_rejected() {
        let dir = TempDir::new("empty");
        let err = TraceSet::load(&dir.0).unwrap_err();
        assert!(err.to_string().contains(TRACE_SUFFIX), "{err}");
    }

    #[test]
    fn workload_class_equality_and_tokens() {
        let dir = TempDir::new("class");
        capture_one(&dir.0, 0, 1, 20);
        let a: WorkloadClass = Workload::WebSearch.into();
        let b: WorkloadClass = Workload::WebSearch.into();
        let c: WorkloadClass = Workload::DataServing.into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.cache_token(), "synthetic:WebSearch");
        let set = TraceSet::load(&dir.0).unwrap();
        let t = WorkloadClass::from(set.clone());
        assert_ne!(t, a);
        // One stream of 20 instructions.
        let token = t.cache_token();
        assert_eq!(token, format!("trace@{}x1i20", hex(set.content_hash())));
        // Every form reads back; a trace token is held to its counts.
        let held = |_| Ok(set.clone());
        assert_eq!(WorkloadClass::parse_token(&token, held), Ok(t));
        assert_eq!(WorkloadClass::parse_token("synthetic:WebSearch", held), Ok(a));
        for wrong in [token.replace("x1i", "x2i"), format!("{token}0"), token.replace('@', ":")] {
            assert!(WorkloadClass::parse_token(&wrong, held).is_err(), "{wrong}");
        }
    }
}
