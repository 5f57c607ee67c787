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
//! version 2 bytes  little-endian u16, currently 2
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
//! ## Version 2: the capability handshake and trace shipping
//!
//! A connection opens with [`Message::Hello`] (driver → worker) answered
//! by [`Message::HelloAck`] (worker → driver) carrying the worker's
//! protocol version, core count, whether it has a `--trace-store`, and
//! the set of trace content hashes the store already holds. Traces
//! travel by content hash, never by path: [`render_spec`] renders a
//! trace workload as `trace@<contenthash>`, and a driver ships the
//! backing archive ahead of the shard as a [`Message::TraceOffer`]
//! followed by [`Message::TraceChunk`] frames (each under the
//! [`MAX_PAYLOAD`] bound and covered by the frame digest), acknowledged
//! by [`Message::TraceAck`]. The assembled archive is re-verified
//! against `TraceSet`'s content hash before any spec can resolve to it
//! (`super::store`).
//!
//! ## Payloads
//!
//! Payloads are UTF-8 text except [`Message::TraceChunk`], which carries
//! one ASCII header line followed by the raw chunk bytes. Specs
//! serialize through [`render_spec`]/[`parse_spec`] — every `RunSpec`
//! field spelled out, with the workload token last. Metric records reuse
//! the results cache's entry format (`crate::cache`), which stores
//! floats as the hex of their IEEE-754 bits: a metrics record survives
//! the wire bit-exactly, and the receiver verifies the embedded
//! canonical key against the spec it asked about, so a record can never
//! be attributed to the wrong point.

use crate::config::ChipConfig;
use crate::runner::RunSpec;
use nocout_sim::config::MeasurementWindow;
use nocout_sim::hash::fnv1a;
use nocout_workloads::trace::TraceSet;
use nocout_workloads::{OpenLoopSpec, Workload, WorkloadClass};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Frame magic: "Nocout Campaign Wire Protocol".
pub const MAGIC: [u8; 4] = *b"NCWP";
/// Protocol version; bump on any frame or payload layout change.
/// Version 2 added the capability handshake and content-addressed trace
/// shipping (`Hello`/`HelloAck`/`TraceOffer`/`TraceChunk`/`TraceAck`).
pub const VERSION: u16 = 2;
/// Upper bound on a frame payload. A shard of a million-point campaign
/// is still far below this; anything larger is a corrupt length field.
/// Trace archives larger than this ship as multiple chunks.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;
/// Frame header length in bytes.
pub const HEADER_LEN: usize = 20;

/// Resolves a trace content hash to a locally held `TraceSet` — the
/// worker's `--trace-store`, or a driver-side registry. `parse_spec`
/// needs one to resolve the `trace@<contenthash>` spec form.
pub trait TraceLookup {
    /// The trace with this content hash, if held (a corrupt store entry
    /// counts as not held — the implementation quarantines it).
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

    fn payload(&self) -> Result<Vec<u8>, WireError> {
        Ok(match self {
            Message::ShardRequest { shard, specs } => {
                let mut s = format!("shard {shard} specs {}\n", specs.len());
                for spec in specs {
                    let line = render_spec(spec)?;
                    s.push_str(&line);
                    s.push('\n');
                }
                s.into_bytes()
            }
            Message::PointOk { shard, index, entry } => {
                format!("point {shard} {index}\n{entry}").into_bytes()
            }
            Message::PointFailed { shard, index, error } => {
                format!("point {shard} {index}\n{error}").into_bytes()
            }
            Message::ShardDone { shard, points } => {
                format!("shard {shard} points {points}").into_bytes()
            }
            Message::Heartbeat => Vec::new(),
            Message::Hello { version } => format!("hello v{version}").into_bytes(),
            Message::HelloAck { version, cores, store, trace_hashes } => {
                let mut s = format!(
                    "hello-ack v{version} cores {cores} store {} traces {}\n",
                    u8::from(*store),
                    trace_hashes.len()
                );
                for h in trace_hashes {
                    s.push_str(&format!("{h:016x}\n"));
                }
                s.into_bytes()
            }
            Message::TraceOffer { hash, total_len } => {
                format!("offer {hash:016x} len {total_len}").into_bytes()
            }
            Message::TraceChunk { hash, offset, data } => {
                let mut out = format!("chunk {hash:016x} off {offset}\n").into_bytes();
                out.extend_from_slice(data);
                out
            }
            Message::TraceAck { hash, have } => {
                format!("ack {hash:016x} have {have}").into_bytes()
            }
        })
    }

    fn from_payload(
        kind: u8,
        payload: &[u8],
        traces: Option<&dyn TraceLookup>,
    ) -> Result<Message, WireError> {
        fn malformed(msg: impl Into<String>) -> WireError {
            WireError::Malformed(msg.into())
        }
        // Every kind except TraceChunk is pure UTF-8 text; TraceChunk is
        // one text header line followed by raw bytes.
        if kind == 9 {
            let nl = payload
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| malformed("trace chunk without a header line"))?;
            let head = std::str::from_utf8(&payload[..nl])
                .map_err(|_| malformed("trace chunk header is not UTF-8"))?;
            let mut it = head.split_whitespace();
            let (hash, offset) = match (it.next(), it.next(), it.next(), it.next(), it.next()) {
                (Some("chunk"), Some(h), Some("off"), Some(o), None) => (
                    u64::from_str_radix(h, 16)
                        .map_err(|_| malformed(format!("bad trace hash `{h}`")))?,
                    o.parse::<u64>()
                        .map_err(|_| malformed(format!("bad chunk offset `{o}`")))?,
                ),
                _ => return Err(malformed(format!("bad trace chunk header `{head}`"))),
            };
            return Ok(Message::TraceChunk {
                hash,
                offset,
                data: payload[nl + 1..].to_vec(),
            });
        }
        let payload = std::str::from_utf8(payload)
            .map_err(|_| malformed("payload is not UTF-8"))?;
        match kind {
            1 => {
                let mut lines = payload.lines();
                let head = lines.next().ok_or_else(|| malformed("empty shard request"))?;
                let mut it = head.split_whitespace();
                let (shard, count) = match (it.next(), it.next(), it.next(), it.next(), it.next())
                {
                    (Some("shard"), Some(s), Some("specs"), Some(n), None) => (
                        s.parse::<u64>()
                            .map_err(|_| malformed(format!("bad shard id `{s}`")))?,
                        n.parse::<usize>()
                            .map_err(|_| malformed(format!("bad spec count `{n}`")))?,
                    ),
                    _ => return Err(malformed(format!("bad shard request header `{head}`"))),
                };
                let specs: Vec<RunSpec> = lines
                    .map(|l| parse_spec_with(l, traces))
                    .collect::<Result<_, _>>()?;
                if specs.len() != count {
                    return Err(malformed(format!(
                        "shard request declares {count} specs but carries {}",
                        specs.len()
                    )));
                }
                Ok(Message::ShardRequest { shard, specs })
            }
            2 | 3 => {
                let (head, body) = payload
                    .split_once('\n')
                    .ok_or_else(|| malformed("point frame without body"))?;
                let mut it = head.split_whitespace();
                let (shard, index) = match (it.next(), it.next(), it.next(), it.next()) {
                    (Some("point"), Some(s), Some(i), None) => (
                        s.parse::<u64>()
                            .map_err(|_| malformed(format!("bad shard id `{s}`")))?,
                        i.parse::<u32>()
                            .map_err(|_| malformed(format!("bad point index `{i}`")))?,
                    ),
                    _ => return Err(malformed(format!("bad point header `{head}`"))),
                };
                Ok(if kind == 2 {
                    Message::PointOk { shard, index, entry: body.to_string() }
                } else {
                    Message::PointFailed { shard, index, error: body.to_string() }
                })
            }
            4 => {
                let mut it = payload.split_whitespace();
                match (it.next(), it.next(), it.next(), it.next(), it.next()) {
                    (Some("shard"), Some(s), Some("points"), Some(n), None) => {
                        Ok(Message::ShardDone {
                            shard: s
                                .parse()
                                .map_err(|_| malformed(format!("bad shard id `{s}`")))?,
                            points: n
                                .parse()
                                .map_err(|_| malformed(format!("bad point count `{n}`")))?,
                        })
                    }
                    _ => Err(malformed(format!("bad shard-done payload `{payload}`"))),
                }
            }
            5 => {
                if payload.is_empty() {
                    Ok(Message::Heartbeat)
                } else {
                    Err(malformed("heartbeat with payload"))
                }
            }
            6 => match payload.strip_prefix("hello v") {
                Some(v) => Ok(Message::Hello {
                    version: v
                        .parse()
                        .map_err(|_| malformed(format!("bad hello version `{v}`")))?,
                }),
                None => Err(malformed(format!("bad hello payload `{payload}`"))),
            },
            7 => {
                let mut lines = payload.lines();
                let head = lines.next().ok_or_else(|| malformed("empty hello-ack"))?;
                let mut it = head.split_whitespace();
                let (version, cores, store, count) = match (
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                    it.next(),
                ) {
                    (
                        Some("hello-ack"),
                        Some(v),
                        Some("cores"),
                        Some(c),
                        Some("store"),
                        Some(s),
                        Some("traces"),
                        Some(n),
                    ) => (
                        v.strip_prefix('v')
                            .and_then(|v| v.parse::<u16>().ok())
                            .ok_or_else(|| malformed(format!("bad hello-ack version `{v}`")))?,
                        c.parse::<u32>()
                            .map_err(|_| malformed(format!("bad core count `{c}`")))?,
                        match s {
                            "0" => false,
                            "1" => true,
                            _ => return Err(malformed(format!("bad store flag `{s}`"))),
                        },
                        n.parse::<usize>()
                            .map_err(|_| malformed(format!("bad trace count `{n}`")))?,
                    ),
                    _ => return Err(malformed(format!("bad hello-ack header `{head}`"))),
                };
                let trace_hashes: Vec<u64> = lines
                    .map(|l| {
                        u64::from_str_radix(l, 16)
                            .map_err(|_| malformed(format!("bad trace hash `{l}`")))
                    })
                    .collect::<Result<_, _>>()?;
                if trace_hashes.len() != count {
                    return Err(malformed(format!(
                        "hello-ack declares {count} traces but carries {}",
                        trace_hashes.len()
                    )));
                }
                Ok(Message::HelloAck { version, cores, store, trace_hashes })
            }
            8 => {
                let mut it = payload.split_whitespace();
                match (it.next(), it.next(), it.next(), it.next(), it.next()) {
                    (Some("offer"), Some(h), Some("len"), Some(n), None) => {
                        Ok(Message::TraceOffer {
                            hash: u64::from_str_radix(h, 16)
                                .map_err(|_| malformed(format!("bad trace hash `{h}`")))?,
                            total_len: n
                                .parse()
                                .map_err(|_| malformed(format!("bad archive length `{n}`")))?,
                        })
                    }
                    _ => Err(malformed(format!("bad trace offer payload `{payload}`"))),
                }
            }
            10 => {
                let mut it = payload.split_whitespace();
                match (it.next(), it.next(), it.next(), it.next(), it.next()) {
                    (Some("ack"), Some(h), Some("have"), Some(n), None) => {
                        Ok(Message::TraceAck {
                            hash: u64::from_str_radix(h, 16)
                                .map_err(|_| malformed(format!("bad trace hash `{h}`")))?,
                            have: n
                                .parse()
                                .map_err(|_| malformed(format!("bad have length `{n}`")))?,
                        })
                    }
                    _ => Err(malformed(format!("bad trace ack payload `{payload}`"))),
                }
            }
            k => Err(WireError::UnknownKind(k)),
        }
    }
}

/// Encodes one message as a complete frame (header + payload).
///
/// # Errors
///
/// [`WireError::Malformed`] if the message cannot be rendered (a
/// workload token containing a line break) or exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>, WireError> {
    let bytes = msg.payload()?;
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

/// Decodes one frame from a complete byte buffer (tests and the
/// pipe-transport reader).
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

/// Renders a spec as one line: every field as `key=value` in a fixed
/// order, the workload token last. Trace workloads render by content
/// hash (`trace@<contenthash>`) — never by path — so a spec means the
/// same bytes on every host; the worker resolves the hash against its
/// trace store.
///
/// # Errors
///
/// [`WireError::Malformed`] for a workload token containing a line
/// break (impossible for the hash and synthetic forms; a defensive
/// rejection for future token kinds).
pub fn render_spec(spec: &RunSpec) -> Result<String, WireError> {
    let c = &spec.chip;
    let workload = match &spec.workload {
        WorkloadClass::Synthetic(w) => format!("synthetic:{}", w.key()),
        WorkloadClass::Trace(t) => format!("trace@{:016x}", t.content_hash()),
        WorkloadClass::OpenLoop(s) => s.token(),
    };
    if workload.contains('\n') || workload.contains('\r') {
        return Err(WireError::Malformed(
            "workload token contains a line break — cannot serialize".into(),
        ));
    }
    let active = match c.active_core_override {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    };
    Ok(format!(
        "org={:?} cores={} llc_bytes={} link_bits={} mem_channels={} banks={} \
         conc={} active={} express={} llc_rows={} warmup={} measure={} seed={} \
         workload={workload}",
        c.organization,
        c.cores,
        c.llc_total_bytes,
        c.link_width_bits,
        c.mem_channels,
        c.banks_per_llc_tile,
        c.concentration,
        active,
        u8::from(c.express_links),
        c.llc_rows,
        spec.window.warmup_cycles,
        spec.window.measure_cycles,
        spec.seed,
    ))
}

/// Parses one [`render_spec`] line back into a `RunSpec`, with no trace
/// resolver: `trace@<contenthash>` specs fail with a typed "no trace
/// store" error.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the offending field.
pub fn parse_spec(line: &str) -> Result<RunSpec, WireError> {
    parse_spec_with(line, None)
}

/// Parses one [`render_spec`] line back into a `RunSpec`. Trace
/// workloads (`trace@<contenthash>`) resolve through `traces` (a
/// worker's `--trace-store`), so a missing, corrupt, or edited trace
/// fails here, before any simulation.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the offending field.
pub fn parse_spec_with(
    line: &str,
    traces: Option<&dyn TraceLookup>,
) -> Result<RunSpec, WireError> {
    fn malformed(msg: impl Into<String>) -> WireError {
        WireError::Malformed(msg.into())
    }
    let (fields_part, workload_part) = line
        .split_once(" workload=")
        .ok_or_else(|| malformed(format!("spec line without workload: `{line}`")))?;
    let mut fields = std::collections::HashMap::new();
    for tok in fields_part.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| malformed(format!("bad spec token `{tok}`")))?;
        fields.insert(k, v);
    }
    fn take<'a>(
        fields: &std::collections::HashMap<&str, &'a str>,
        key: &str,
    ) -> Result<&'a str, WireError> {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| WireError::Malformed(format!("spec missing field `{key}`")))
    }
    fn num<T: std::str::FromStr>(
        fields: &std::collections::HashMap<&str, &str>,
        key: &str,
    ) -> Result<T, WireError> {
        let v = take(fields, key)?;
        v.parse()
            .map_err(|_| WireError::Malformed(format!("bad value for `{key}`: `{v}`")))
    }
    let organization = take(&fields, "org")?
        .parse()
        .map_err(|e: String| malformed(e))?;
    let active = match take(&fields, "active")? {
        "-" => None,
        v => Some(v.parse().map_err(|_| {
            malformed(format!("bad value for `active`: `{v}`"))
        })?),
    };
    let express = match take(&fields, "express")? {
        "0" => false,
        "1" => true,
        v => return Err(malformed(format!("bad value for `express`: `{v}`"))),
    };
    let chip = ChipConfig {
        organization,
        cores: num(&fields, "cores")?,
        llc_total_bytes: num(&fields, "llc_bytes")?,
        link_width_bits: num(&fields, "link_bits")?,
        mem_channels: num(&fields, "mem_channels")?,
        banks_per_llc_tile: num(&fields, "banks")?,
        concentration: num(&fields, "conc")?,
        active_core_override: active,
        express_links: express,
        llc_rows: num(&fields, "llc_rows")?,
    };
    let workload = if let Some(key) = workload_part.strip_prefix("synthetic:") {
        WorkloadClass::from(Workload::from_key(key).ok_or_else(|| {
            malformed(format!("unknown synthetic workload `{key}`"))
        })?)
    } else if let Some(hash) = workload_part.strip_prefix("trace@") {
        let hash = u64::from_str_radix(hash, 16)
            .map_err(|_| malformed(format!("bad trace content hash `{hash}`")))?;
        let set = traces
            .ok_or_else(|| {
                malformed(format!(
                    "spec names trace {hash:016x} but this receiver has no trace \
                     store (start the worker with --trace-store DIR)"
                ))
            })?
            .lookup(hash)
            .ok_or_else(|| {
                malformed(format!(
                    "trace {hash:016x} is not in the local trace store"
                ))
            })?;
        WorkloadClass::Trace(set)
    } else if workload_part.starts_with("openloop:") {
        WorkloadClass::from(OpenLoopSpec::parse_token(workload_part).ok_or_else(
            || malformed(format!("bad open-loop workload token `{workload_part}`")),
        )?)
    } else {
        return Err(malformed(format!("bad workload token `{workload_part}`")));
    };
    Ok(RunSpec {
        chip,
        workload,
        window: MeasurementWindow::new(
            num(&fields, "warmup")?,
            num(&fields, "measure")?,
        ),
        seed: num(&fields, "seed")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Organization;

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
            + " workload=trace@00000000deadbeef";
        let err = parse_spec(&line).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no trace store"), "{msg}");
        assert!(msg.contains("00000000deadbeef"), "{msg}");
    }
}
