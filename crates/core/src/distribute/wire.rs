//! The shard wire protocol: length-prefixed, versioned, hash-verified
//! frames carrying shard requests, trace shipments, and bit-exact metric
//! records.
//!
//! ## Frame layout
//!
//! Every message travels as one frame:
//!
//! ```text
//! magic   4 bytes  b"NCWP"
//! version 2 bytes  little-endian u16, currently 3
//! kind    1 byte   message discriminant
//! flags   1 byte   must be zero (reserved)
//! length  4 bytes  little-endian u32 payload length, <= MAX_PAYLOAD
//! digest  8 bytes  little-endian FNV-1a 64 of the payload bytes
//! payload length bytes
//! ```
//!
//! The digest makes *every* payload corruption detectable — without it a
//! flipped digit inside a metrics record would decode into a plausible
//! but wrong value, the one failure mode a distributed campaign must
//! never let through silently. The length bound rejects absurd frames
//! before allocating. Decoding never panics and never reads past the
//! declared frame: truncated, oversized, wrong-magic, wrong-version and
//! corrupt inputs all map to a typed [`WireError`]
//! (`tests/distribute_wire.rs` pins this property over random mutations).
//!
//! ## The capability handshake and trace shipping (since version 2)
//!
//! A connection opens with [`Message::Hello`] (driver → worker) answered
//! by [`Message::HelloAck`] (worker → driver) carrying the worker's
//! protocol version, core count, whether it has a `--trace-store`, and
//! the set of trace content hashes the store already holds. Traces
//! travel by content hash, never by path: a trace workload's spec token
//! is `trace@<contenthash>x<streams>i<instructions>`, and a driver ships
//! the backing archive ahead of the shard as a [`Message::TraceOffer`]
//! followed by [`Message::TraceChunk`] frames (each under the
//! [`MAX_PAYLOAD`] bound and covered by the frame digest), acknowledged
//! by [`Message::TraceAck`]. The assembled archive is re-verified
//! against `TraceSet`'s content hash before any spec can resolve to it
//! (`super::store`), and a resolved spec's stream and instruction counts
//! are checked against the token's.
//!
//! ## Payloads
//!
//! Payloads are lines of text read through the workspace's one strict
//! field reader (`nocout_sim::text`) under the rules stated once in the
//! "Text formats" section of `docs/distributed-campaigns.md`; a point
//! result and a trace chunk carry raw text or bytes after their one
//! header line. Specs travel as [`RunSpec::spec_line`] — the line the
//! cache key is made of — and metric records as the results cache's
//! entry text (`crate::cache`), whose embedded canonical key the
//! receiver verifies against the spec it asked about, so a record
//! survives the wire bit-exactly and can never be attributed to the
//! wrong point. Version 3 made the spec line's workload token the cache
//! key's; a version-2 peer is refused with the typed
//! [`WireError::VersionMismatch`], and no reader for older forms is kept.

use crate::runner::RunSpec;
use nocout_sim::hash::fnv1a;
use nocout_sim::text::{hex, Reader, TextError};
use nocout_workloads::trace::TraceSet;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Frame magic: "Nocout Campaign Wire Protocol".
pub const MAGIC: [u8; 4] = *b"NCWP";
/// Protocol version; bump on any frame or payload layout change.
/// Version 2 added the capability handshake and content-addressed trace
/// shipping (`Hello`/`HelloAck`/`TraceOffer`/`TraceChunk`/`TraceAck`);
/// version 3 made the spec line's workload token the cache key's.
pub const VERSION: u16 = 3;
/// Upper bound on a frame payload. A shard of a million-point campaign
/// is still far below this; anything larger is a corrupt length field.
/// Trace archives larger than this ship as multiple chunks.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;
/// Frame header length in bytes.
pub const HEADER_LEN: usize = 20;

/// Resolves a trace content hash to a locally held `TraceSet` — the
/// worker's `--trace-store`, or a driver-side registry. `parse_spec`
/// needs one to resolve the `trace@<contenthash>…` spec form.
pub trait TraceLookup {
    /// The trace with this content hash, if held (a corrupt store entry
    /// counts as not held — the implementation quarantines it). Called
    /// for every trace-bearing spec parsed: an implementation may answer
    /// from sets it has already verified in this process, as
    /// `TraceStore` does.
    fn lookup(&self, hash: u64) -> Option<Arc<TraceSet>>;
}

/// Everything that can go wrong decoding a frame. Every variant is a
/// clean, typed failure — malformed input can make the decoder *refuse*,
/// never panic or hang past the declared frame length.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// Transport I/O failed (includes mid-frame EOF and read timeouts
    /// surfaced by the transport as errors).
    Io(io::Error),
    /// No frame arrived within the receiver's deadline.
    Timeout,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version — both sides named,
    /// so a mixed-version pool is diagnosed from either end.
    VersionMismatch {
        /// The version this build speaks ([`VERSION`]).
        ours: u16,
        /// The version the peer's frame declared.
        theirs: u16,
    },
    /// The frame declared an unknown message kind.
    UnknownKind(u8),
    /// Reserved flag bits were set.
    BadFlags(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload digest did not match — the frame was corrupted in
    /// transit.
    Corrupt,
    /// The payload decoded as the wrong shape for its kind.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Timeout => write!(f, "timed out waiting for a frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks v{theirs}, this build speaks v{ours}"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadFlags(b) => write!(f, "reserved frame flags set ({b:#04x})"),
            WireError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte bound")
            }
            WireError::Corrupt => write!(f, "frame payload digest mismatch (corrupt frame)"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<TextError> for WireError {
    fn from(e: TextError) -> Self {
        WireError::Malformed(e.0)
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => WireError::Timeout,
            _ => WireError::Io(e),
        }
    }
}

/// The messages of the shard protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Driver → worker: run these specs as shard `shard`.
    ShardRequest {
        /// Driver-assigned shard identifier (echoed in every response).
        shard: u64,
        /// The contiguous spec slice this shard covers.
        specs: Vec<RunSpec>,
    },
    /// Worker → driver: point `index` (shard-local) completed; `entry`
    /// is the bit-exact cache-entry rendering of its metrics.
    PointOk {
        /// Shard the point belongs to.
        shard: u64,
        /// Shard-local spec index.
        index: u32,
        /// `crate::cache` entry text (embedded canonical key + metrics).
        entry: String,
    },
    /// Worker → driver: point `index` failed (panic isolated worker-side).
    PointFailed {
        /// Shard the point belongs to.
        shard: u64,
        /// Shard-local spec index.
        index: u32,
        /// The failure cause.
        error: String,
    },
    /// Worker → driver: shard finished; `points` results were sent.
    ShardDone {
        /// Shard that finished.
        shard: u64,
        /// Number of point results the worker sent.
        points: u32,
    },
    /// Worker → driver: liveness signal while a long point simulates.
    Heartbeat,
    /// Driver → worker, at connection open: the capability handshake
    /// request.
    Hello {
        /// The driver's protocol version (redundant with the frame
        /// header, but explicit in the handshake so a future version can
        /// negotiate instead of reject).
        version: u16,
    },
    /// Worker → driver: the capability advertisement answering
    /// [`Message::Hello`].
    HelloAck {
        /// The worker's protocol version.
        version: u16,
        /// Simulation workers in the worker's pool.
        cores: u32,
        /// Whether the worker has a `--trace-store` (can accept trace
        /// shipments). Without one it stays eligible for synthetic and
        /// open-loop points only.
        store: bool,
        /// Trace content hashes the worker's store already holds.
        trace_hashes: Vec<u64>,
    },
    /// Driver → worker: a trace archive of `total_len` bytes for content
    /// hash `hash` is about to ship (or: do you already hold it?).
    TraceOffer {
        /// The trace's content hash (`TraceSet::content_hash`).
        hash: u64,
        /// Total archive length in bytes.
        total_len: u64,
    },
    /// Driver → worker: one chunk of a trace archive. Chunks arrive in
    /// offset order; the worker appends each to its crash-safe partial
    /// file, so a transfer interrupted at any chunk boundary resumes
    /// from the worker-reported staged length.
    TraceChunk {
        /// The trace's content hash.
        hash: u64,
        /// Byte offset of this chunk within the archive.
        offset: u64,
        /// The raw archive bytes (digest-covered like every payload).
        data: Vec<u8>,
    },
    /// Worker → driver: how much of the archive for `hash` the worker
    /// holds. Sent in answer to an offer (`have` = staged or installed
    /// bytes — the resume point) and after the final chunk commits
    /// (`have` = the full length, hash re-verified).
    TraceAck {
        /// The trace's content hash.
        hash: u64,
        /// Bytes held: the staged partial length, or the full archive
        /// length once installed and verified.
        have: u64,
    },
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::ShardRequest { .. } => 1,
            Message::PointOk { .. } => 2,
            Message::PointFailed { .. } => 3,
            Message::ShardDone { .. } => 4,
            Message::Heartbeat => 5,
            Message::Hello { .. } => 6,
            Message::HelloAck { .. } => 7,
            Message::TraceOffer { .. } => 8,
            Message::TraceChunk { .. } => 9,
            Message::TraceAck { .. } => 10,
        }
    }

    fn payload(&self) -> Vec<u8> {
        match self {
            Message::ShardRequest { shard, specs } => {
                let mut s = format!("shard {shard} specs {}\n", specs.len());
                for spec in specs {
                    s.push_str(&spec.spec_line());
                    s.push('\n');
                }
                s.into_bytes()
            }
            Message::PointOk { shard, index, entry: body }
            | Message::PointFailed { shard, index, error: body } => {
                format!("point {shard} {index}\n{body}").into_bytes()
            }
            Message::ShardDone { shard, points } => {
                format!("shard {shard} points {points}\n").into_bytes()
            }
            Message::Heartbeat => Vec::new(),
            Message::Hello { version } => format!("hello v{version}\n").into_bytes(),
            Message::HelloAck { version, cores, store, trace_hashes } => {
                let mut s = format!(
                    "hello-ack v{version} cores {cores} store {} traces {}\n",
                    u8::from(*store),
                    trace_hashes.len()
                );
                for h in trace_hashes {
                    s.push_str(&format!("{}\n", hex(*h)));
                }
                s.into_bytes()
            }
            Message::TraceOffer { hash, total_len } => {
                format!("offer {} len {total_len}\n", hex(*hash)).into_bytes()
            }
            Message::TraceChunk { hash, offset, data } => {
                let mut out = format!("chunk {} off {offset}\n", hex(*hash)).into_bytes();
                out.extend_from_slice(data);
                out
            }
            Message::TraceAck { hash, have } => {
                format!("ack {} have {have}\n", hex(*hash)).into_bytes()
            }
        }
    }

    fn from_payload(
        kind: u8,
        payload: &[u8],
        traces: Option<&dyn TraceLookup>,
    ) -> Result<Message, WireError> {
        // Every kind except TraceChunk is pure UTF-8 text; TraceChunk is
        // one text header line followed by raw bytes.
        let (mut r, data) = match kind {
            9 => Reader::head(payload)?,
            _ => {
                let text = std::str::from_utf8(payload)
                    .map_err(|_| WireError::Malformed("payload is not UTF-8".into()))?;
                (Reader::new(text), &[][..])
            }
        };
        let msg = match kind {
            1 => {
                let shard = r.expect("shard")?.num()?;
                let count: usize = r.expect("specs")?.num()?;
                r.eol()?;
                let specs = (0..count).map(|_| parse_spec_with(r.line()?, traces));
                Message::ShardRequest { shard, specs: specs.collect::<Result<_, _>>()? }
            }
            2 | 3 => {
                let (shard, index) = (r.expect("point")?.num()?, r.num()?);
                let body = r.eol()?.rest().to_string();
                match kind {
                    2 => Message::PointOk { shard, index, entry: body },
                    _ => Message::PointFailed { shard, index, error: body },
                }
            }
            4 => Message::ShardDone {
                shard: r.expect("shard")?.num()?,
                points: r.expect("points")?.num()?,
            },
            5 => Message::Heartbeat,
            6 => Message::Hello { version: r.expect("hello")?.prefix("v")?.num()? },
            7 => {
                let version = r.expect("hello-ack")?.prefix("v")?.num()?;
                let cores = r.expect("cores")?.num()?;
                let store = r.expect("store")?.flag()?;
                let count: usize = r.expect("traces")?.num()?;
                let trace_hashes = (0..count).map(|_| r.eol()?.hash());
                let trace_hashes = trace_hashes.collect::<Result<_, _>>()?;
                r.eol()?;
                Message::HelloAck { version, cores, store, trace_hashes }
            }
            8 => Message::TraceOffer {
                hash: r.expect("offer")?.hash()?,
                total_len: r.expect("len")?.num()?,
            },
            9 => Message::TraceChunk {
                hash: r.expect("chunk")?.hash()?,
                offset: r.expect("off")?.num()?,
                data: data.to_vec(),
            },
            10 => Message::TraceAck {
                hash: r.expect("ack")?.hash()?,
                have: r.expect("have")?.num()?,
            },
            k => return Err(WireError::UnknownKind(k)),
        };
        // The one-line kinds end their line like every other text line.
        if matches!(kind, 4 | 6 | 8 | 10) {
            r.eol()?;
        }
        r.end()?;
        Ok(msg)
    }
}

/// Encodes one message as a complete frame (header + payload).
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>, WireError> {
    let bytes = msg.payload();
    if bytes.len() > MAX_PAYLOAD as usize {
        return Err(WireError::Oversized(bytes.len() as u32));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + bytes.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(msg.kind());
    out.push(0); // flags, reserved
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
    out.extend_from_slice(&bytes);
    Ok(out)
}

/// Writes one message as a frame and flushes.
///
/// # Errors
///
/// Encoding errors ([`encode_frame`]) or transport I/O errors.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> Result<(), WireError> {
    let frame = encode_frame(msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. [`WireError::Closed`] when the peer shut down
/// cleanly at a frame boundary; every malformed input is a typed error,
/// and at most `HEADER_LEN + length` bytes are consumed, so a bad frame
/// can never make the reader hang waiting for data the peer never
/// declared.
///
/// `trace@<contenthash>` specs inside a shard request resolve to a
/// "no trace store" error — use [`read_frame_with`] on receivers that
/// hold traces.
///
/// # Errors
///
/// Any [`WireError`]; see the variant docs.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Message, WireError> {
    read_frame_with(r, None)
}

/// [`read_frame`] with a trace resolver for `trace@<contenthash>` specs.
///
/// # Errors
///
/// Any [`WireError`]; see the variant docs.
pub fn read_frame_with<R: Read>(
    r: &mut R,
    traces: Option<&dyn TraceLookup>,
) -> Result<Message, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish a clean close (0 bytes at a frame boundary) from a
    // mid-frame EOF (a torn frame).
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    decode_after_header(&header, r, traces)
}

/// Decodes a frame whose header bytes were already read; pulls exactly
/// the declared payload from `r`.
fn decode_after_header<R: Read>(
    header: &[u8; HEADER_LEN],
    r: &mut R,
    traces: Option<&dyn TraceLookup>,
) -> Result<Message, WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1], header[2], header[3]]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(WireError::VersionMismatch { ours: VERSION, theirs: version });
    }
    let kind = header[6];
    if !(1..=10).contains(&kind) {
        return Err(WireError::UnknownKind(kind));
    }
    if header[7] != 0 {
        return Err(WireError::BadFlags(header[7]));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let digest = u64::from_le_bytes([
        header[12], header[13], header[14], header[15], header[16], header[17], header[18],
        header[19],
    ]);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if fnv1a(&payload) != digest {
        return Err(WireError::Corrupt);
    }
    Message::from_payload(kind, &payload, traces)
}

/// Decodes one frame from a complete byte buffer.
///
/// # Errors
///
/// Any [`WireError`]; trailing bytes after the declared frame are
/// [`WireError::Malformed`].
pub fn decode_frame(bytes: &[u8]) -> Result<Message, WireError> {
    decode_frame_with(bytes, None)
}

/// [`decode_frame`] with a trace resolver for `trace@<contenthash>`
/// specs.
///
/// # Errors
///
/// Any [`WireError`]; trailing bytes after the declared frame are
/// [`WireError::Malformed`].
pub fn decode_frame_with(
    bytes: &[u8],
    traces: Option<&dyn TraceLookup>,
) -> Result<Message, WireError> {
    let mut cursor = bytes;
    let msg = read_frame_with(&mut cursor, traces)?;
    if !cursor.is_empty() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after the frame",
            cursor.len()
        )));
    }
    Ok(msg)
}

/// A spec's one line, [`RunSpec::spec_line`]; it cannot fail (the
/// `Result` is the signature callers were written against).
pub fn render_spec(spec: &RunSpec) -> Result<String, WireError> {
    Ok(spec.spec_line())
}

/// [`parse_spec_with`] without a trace resolver: a `trace@…` workload is
/// a typed "no trace store" error.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the offending token.
pub fn parse_spec(line: &str) -> Result<RunSpec, WireError> {
    parse_spec_with(line, None)
}

/// Reads one [`render_spec`] line back ([`RunSpec::parse_line`]). Trace
/// workloads resolve through `traces` (a worker's `--trace-store`), so a
/// missing, corrupt, or edited trace fails here, before any simulation.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the offending token.
pub fn parse_spec_with(
    line: &str,
    traces: Option<&dyn TraceLookup>,
) -> Result<RunSpec, WireError> {
    let resolve = |hash| {
        let Some(traces) = traces else {
            return Err(TextError(format!(
                "spec names trace {} but this receiver has no trace store \
                 (start the worker with --trace-store DIR)",
                hex(hash)
            )));
        };
        let held = traces.lookup(hash);
        held.ok_or_else(|| TextError(format!("trace {} is not in the local trace store", hex(hash))))
    };
    Ok(RunSpec::parse_line(line, resolve)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChipConfig, Organization};
    use nocout_workloads::Workload;

    fn spec() -> RunSpec {
        RunSpec::new(
            ChipConfig::paper(Organization::NocOut),
            Workload::DataServing,
        )
        .fast()
        .with_seed(7)
    }

    #[test]
    fn spec_line_round_trips() {
        let s = spec();
        let parsed = parse_spec(&render_spec(&s).unwrap()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.cache_key(), s.cache_key());
    }

    #[test]
    fn spec_round_trips_every_field() {
        let mut s = spec();
        s.chip.active_core_override = Some(12);
        s.chip.express_links = true;
        s.chip.llc_rows = 2;
        s.chip.concentration = 2;
        s.chip.cores = 128;
        let parsed = parse_spec(&render_spec(&s).unwrap()).unwrap();
        assert_eq!(parsed, s);
    }

    /// The spec line is canonical: exactly the writer's keys in the
    /// writer's order. An unknown key, a duplicate (however it would be
    /// resolved), a swapped pair, a missing key or a trailing token is
    /// refused, and the error names the token it stopped at.
    #[test]
    fn spec_line_refuses_unknown_duplicate_and_misplaced_keys() {
        let line = render_spec(&spec()).unwrap();
        assert!(line.contains(" seed=7 workload=synthetic:DataServing"), "{line}");
        for (what, bad, names) in [
            ("unknown", format!("bogus=9 {line}"), "bogus=9"),
            ("unknown, mid-line", line.replace(" seed=", " bogus=9 seed="), "bogus=9"),
            ("duplicate", line.replace(" seed=7", " seed=7 seed=8"), "seed=8"),
            ("out of order", line.replace(" warmup=", " seed=7 warmup="), "seed=7"),
            ("missing", line.replace(" seed=7", ""), "workload=synthetic:DataServing"),
            ("trailing", format!("{line} seed=7"), "seed=7"),
            ("two spaces", line.replace(" seed=", "  seed="), " seed=7"),
            ("non-canonical number", line.replace(" seed=7", " seed=+7"), "+7"),
        ] {
            match parse_spec(&bad) {
                Err(WireError::Malformed(msg)) => assert!(msg.contains(names), "{what}: {msg}"),
                other => panic!("{what}: `{bad}` must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_round_trips_every_message_kind() {
        let msgs = [
            Message::ShardRequest { shard: 3, specs: vec![spec(), spec().with_seed(9)] },
            Message::PointOk { shard: 3, index: 1, entry: "multi\nline\nentry".into() },
            Message::PointFailed { shard: 3, index: 0, error: "boom:\n  detail".into() },
            Message::ShardDone { shard: 3, points: 2 },
            Message::Heartbeat,
            Message::Hello { version: VERSION },
            Message::HelloAck {
                version: VERSION,
                cores: 8,
                store: true,
                trace_hashes: vec![0, 0xdead_beef_cafe_f00d, u64::MAX],
            },
            Message::TraceOffer { hash: 0x1234, total_len: 1 << 40 },
            Message::TraceChunk {
                hash: 0x1234,
                offset: 77,
                data: vec![0, 1, 2, 0xff, b'\n', 0x80],
            },
            Message::TraceAck { hash: 0x1234, have: 4096 },
        ];
        for msg in msgs {
            let frame = encode_frame(&msg).unwrap();
            assert_eq!(decode_frame(&frame).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let frame = encode_frame(&Message::ShardDone { shard: 1, points: 4 }).unwrap();
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).unwrap_err();
            // Never a panic, never an Ok; cut at 0 is a clean close.
            if cut == 0 {
                assert!(matches!(err, WireError::Closed), "cut {cut}: {err}");
            }
        }
    }

    #[test]
    fn corrupt_header_fields_are_rejected() {
        let frame = encode_frame(&Message::Heartbeat).unwrap();
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&bad).unwrap_err(), WireError::BadMagic(_)));
        let mut bad = frame.clone();
        bad[4] = 0xff;
        assert!(matches!(
            decode_frame(&bad).unwrap_err(),
            WireError::VersionMismatch { .. }
        ));
        let mut bad = frame.clone();
        bad[6] = 200;
        assert!(matches!(decode_frame(&bad).unwrap_err(), WireError::UnknownKind(200)));
        let mut bad = frame.clone();
        bad[7] = 1;
        assert!(matches!(decode_frame(&bad).unwrap_err(), WireError::BadFlags(1)));
        let mut bad = frame;
        bad[11] = 0xff; // length beyond MAX_PAYLOAD
        assert!(matches!(decode_frame(&bad).unwrap_err(), WireError::Oversized(_)));
    }

    #[test]
    fn version_mismatch_names_both_versions() {
        let mut frame = encode_frame(&Message::Heartbeat).unwrap();
        frame[4..6].copy_from_slice(&1u16.to_le_bytes()); // a v1 frame
        let err = decode_frame(&frame).unwrap_err();
        match &err {
            WireError::VersionMismatch { ours, theirs } => {
                assert_eq!((*ours, *theirs), (VERSION, 1));
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("v1") && msg.contains(&format!("v{VERSION}")), "{msg}");
    }

    #[test]
    fn corrupt_payload_fails_the_digest() {
        let msg = Message::PointOk { shard: 0, index: 0, entry: "value 12345".into() };
        let mut frame = encode_frame(&msg).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x08; // flip one digit bit: plausible but wrong
        assert!(matches!(decode_frame(&frame).unwrap_err(), WireError::Corrupt));
    }

    #[test]
    fn corrupt_chunk_data_fails_the_digest() {
        let msg = Message::TraceChunk { hash: 9, offset: 0, data: vec![7u8; 64] };
        let mut frame = encode_frame(&msg).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(decode_frame(&frame).unwrap_err(), WireError::Corrupt));
    }

    #[test]
    fn trace_at_hash_without_a_store_is_a_typed_error() {
        let line = render_spec(&spec()).unwrap();
        let line = line.split(" workload=").next().unwrap().to_string()
            + " workload=trace@00000000deadbeefx16i2000";
        let err = parse_spec(&line).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no trace store"), "{msg}");
        assert!(msg.contains("00000000deadbeef"), "{msg}");
    }
}
