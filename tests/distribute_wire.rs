//! Property tests of the shard wire protocol (`nocout::distribute`).
//!
//! The invariants a distributed campaign leans on:
//!
//! * any `RunSpec` — every field randomized, synthetic or trace workload
//!   — survives `render_spec`/`parse_spec` exactly (same value, same
//!   cache key);
//! * any message — all ten kinds, including the capability handshake and
//!   the chunked trace-transfer frames — survives
//!   `encode_frame`/`decode_frame` exactly;
//! * a frame truncated at *every* possible byte boundary decodes to a
//!   typed error, never a panic, never a wrong message;
//! * flipping any single bit of a frame's *payload* is always detected
//!   (the header digest), and flipping any header byte is a typed error
//!   or a differently-typed message — never a panic;
//! * a v1-framed stream dialed at a current worker is refused with a
//!   typed version-mismatch error naming both versions.

use nocout_repro::config::{ChipConfig, Organization};
use nocout_repro::distribute::{
    decode_frame, encode_frame, parse_spec, parse_spec_with, render_spec,
};
use nocout_repro::distribute::{Message, TraceLookup, WireError, Worker, HEADER_LEN, VERSION};
use nocout_repro::prelude::*;
use nocout_repro::runner::{BatchRunner, RunSpec};
use nocout_workloads::trace::TraceSet;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Decodes a proptest tuple into a fully randomized spec. Serialization
/// must not care whether the configuration is *simulable*, so the fields
/// roam beyond what `ChipConfig::paper` would accept.
fn spec_from(
    (org, cores, seed, warmup, express): (u8, u64, u64, u64, bool),
) -> RunSpec {
    let org = Organization::EVALUATED[(org % 3) as usize];
    let mut chip = ChipConfig::paper(org);
    chip.cores = (cores % 512 + 1) as usize;
    chip.link_width_bits = (seed % 4 + 1) as u32 * 64;
    chip.mem_channels = (warmup % 8 + 1) as usize;
    chip.active_core_override = if express { Some((cores % 64) as usize) } else { None };
    chip.express_links = express;
    chip.llc_rows = (seed % 3 + 1) as usize;
    let mut spec = RunSpec::new(chip, Workload::ALL[(cores % 6) as usize]).fast();
    spec.window = MeasurementWindow::new(warmup % 100_000, seed % 100_000 + 1);
    spec.with_seed(seed)
}

/// The raw tuple a spec is generated from.
type SpecBits = (u8, u64, u64, u64, bool);

/// Decodes a proptest tuple into one of the ten message kinds.
fn message_from((kind, shard, index, bits, extra): (u8, u64, u32, SpecBits, u8)) -> Message {
    let body = format!("payload {} line\nsecond {extra}", bits.1);
    match kind % 10 {
        0 => Message::ShardRequest {
            shard,
            specs: vec![spec_from(bits), spec_from((bits.0, bits.1 ^ 7, shard, bits.3, !bits.4))],
        },
        1 => Message::PointOk { shard, index, entry: body },
        2 => Message::PointFailed { shard, index, error: body },
        3 => Message::ShardDone { shard, points: index },
        4 => Message::Heartbeat,
        5 => Message::Hello { version: (shard % u64::from(u16::MAX)) as u16 },
        6 => Message::HelloAck {
            version: (shard % u64::from(u16::MAX)) as u16,
            cores: index,
            store: bits.4,
            trace_hashes: vec![bits.1, bits.2, shard ^ u64::from(extra)],
        },
        7 => Message::TraceOffer { hash: shard ^ bits.1, total_len: bits.2 },
        8 => Message::TraceChunk {
            hash: shard ^ bits.1,
            offset: bits.2,
            // Arbitrary binary data, including newline and non-UTF-8
            // bytes, sized by the tuple so lengths vary across cases.
            data: (0..(extra as usize + 1))
                .map(|i| (bits.1 as u8).wrapping_mul(i as u8).wrapping_add(extra))
                .collect(),
        },
        _ => Message::TraceAck { hash: shard ^ bits.1, have: bits.3 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn specs_round_trip_bit_exactly(
        bits in (0u8..6, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, any::<bool>())
    ) {
        let spec = spec_from(bits);
        let line = render_spec(&spec).expect("synthetic specs always render");
        let parsed = parse_spec(&line).expect("rendered specs always parse");
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.cache_key(), spec.cache_key());
    }

    #[test]
    fn frames_round_trip_every_kind(
        bits in (
            0u8..10,
            0u64..u64::MAX,
            0u32..u32::MAX,
            (0u8..6, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, any::<bool>()),
            0u8..255,
        )
    ) {
        let msg = message_from(bits);
        let frame = encode_frame(&msg).expect("message encodes");
        prop_assert_eq!(decode_frame(&frame).expect("frame decodes"), msg);
    }

    #[test]
    fn truncation_at_every_boundary_is_a_typed_error(
        bits in (
            0u8..10,
            0u64..1_000_000,
            0u32..1_000_000,
            (0u8..6, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, any::<bool>()),
            0u8..255,
        )
    ) {
        let frame = encode_frame(&message_from(bits)).expect("message encodes");
        for cut in 0..frame.len() {
            // Must refuse — cleanly: truncated input never decodes to a
            // message and never panics.
            let err = decode_frame(&frame[..cut]).unwrap_err();
            if cut == 0 {
                prop_assert!(matches!(err, WireError::Closed), "cut 0 is a clean close");
            }
        }
    }

    #[test]
    fn any_payload_bit_flip_is_detected(
        kind in 0u8..9, // remapped below to skip Heartbeat (no payload)
        bits in (
            0u64..1_000_000,
            0u32..1_000_000,
            (0u8..6, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, any::<bool>()),
            0u8..255,
        ),
        at in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let kind = if kind >= 4 { kind + 1 } else { kind };
        let (shard, index, spec_bits, extra) = bits;
        let frame = encode_frame(&message_from((kind, shard, index, spec_bits, extra)))
            .expect("message encodes");
        prop_assert!(frame.len() > HEADER_LEN, "non-heartbeat frames carry a payload");
        let mut bad = frame.clone();
        let pos = HEADER_LEN + (at as usize) % (frame.len() - HEADER_LEN);
        bad[pos] ^= 1 << bit;
        // The payload digest makes *every* payload corruption loud — a
        // flipped digit inside a metrics record (or a flipped byte of a
        // trace-archive chunk) must never decode into a
        // plausible-but-wrong value.
        prop_assert!(
            decode_frame(&bad).is_err(),
            "kind {kind} payload flip at byte {pos} bit {bit} went undetected"
        );
    }

    #[test]
    fn header_mutations_never_panic_or_impersonate(
        at in 0u64..1_000_000,
        bit in 0u8..8,
        shard in 0u64..1_000_000,
    ) {
        let msg = Message::ShardDone { shard, points: 3 };
        let frame = encode_frame(&msg).expect("message encodes");
        let mut bad = frame.clone();
        let pos = (at as usize) % HEADER_LEN;
        bad[pos] ^= 1 << bit;
        // Header bytes are not digest-covered; a flip may still decode
        // (e.g. the kind byte landing on another valid kind), but it must
        // never panic and never yield the original message back.
        if let Ok(other) = decode_frame(&bad) {
            prop_assert_ne!(other, msg);
        }
    }
}

/// A test-side trace registry: what the driver holds in memory, or a
/// worker store reduced to its lookup function.
struct MapLookup(HashMap<u64, Arc<TraceSet>>);

impl TraceLookup for MapLookup {
    fn lookup(&self, hash: u64) -> Option<Arc<TraceSet>> {
        self.0.get(&hash).cloned()
    }
}

/// Trace workloads serialize by *content hash* (`trace@<hash>x<streams>i<instrs>`),
/// never by path: the line round-trips through any resolver holding the same
/// bytes, regardless of where either side stores them — even when the
/// capture directory path contains spaces or a newline, which the v1
/// path form could not frame.
#[test]
fn trace_specs_round_trip_by_content_hash() {
    let dir = std::env::temp_dir().join(format!(
        "nocout wire trace {}\n-x", // hostile path on purpose: irrelevant to the hash form
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let chip = ChipConfig::paper(Organization::Mesh);
    let trace = nocout_repro::capture_synthetic_trace(chip, Workload::WebSearch, 1, &dir, 2_000)
        .expect("capture trace");
    let hash = trace.content_hash();
    let spec = RunSpec {
        chip,
        workload: WorkloadClass::from(trace.clone()),
        window: MeasurementWindow::new(100, 400),
        seed: 1,
    };
    let line = render_spec(&spec).expect("trace spec renders");
    assert!(
        line.ends_with(&format!(" workload={}", spec.workload.cache_token()))
            && line.contains(&format!("trace@{hash:016x}x")),
        "trace workloads render by content hash and counts: {line}"
    );
    let resolver = MapLookup(HashMap::from([(hash, trace)]));
    let parsed = parse_spec_with(&line, Some(&resolver)).expect("trace spec parses");
    assert_eq!(parsed.cache_key(), spec.cache_key());
    // Without a resolver the same line is a typed error naming the
    // missing store — never a panic, never a silent miss.
    let err = parse_spec_with(&line, None).unwrap_err();
    assert!(matches!(err, WireError::Malformed(_)), "{err}");
    assert!(err.to_string().contains("--trace-store"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The v1 `trace:PATH` spec form is gone: a path token is a malformed
/// workload like any other, with or without a resolver, and is refused
/// without touching a file (the directory it names does not exist, and
/// the error is the token's, not an I/O one).
#[test]
fn v1_trace_path_form_is_refused() {
    let spec = RunSpec::new(ChipConfig::paper(Organization::Mesh), Workload::WebSearch);
    let line = render_spec(&spec).expect("spec renders");
    let (fields, _) = line.split_once(" workload=").expect("workload token is last");
    let v1_line = format!("{fields} workload=trace:/some/dir");
    let empty = MapLookup(HashMap::new());
    for traces in [None, Some(&empty as &dyn TraceLookup)] {
        match parse_spec_with(&v1_line, traces).unwrap_err() {
            WireError::Malformed(msg) => {
                assert!(msg.contains("bad workload token `trace:/some/dir`"), "{msg}")
            }
            other => panic!("expected a malformed workload token, got {other:?}"),
        }
    }
}

/// Satellite contract: dialing a v1-framed stream at a v2 worker is a
/// typed version mismatch naming both versions — not a hang, not a
/// generic decode error.
#[test]
fn v1_frames_at_a_v2_worker_are_a_typed_version_mismatch() {
    let mut frame = encode_frame(&Message::Hello { version: 1 }).expect("hello encodes");
    frame[4..6].copy_from_slice(&1u16.to_le_bytes()); // header speaks v1 too
    let worker = Worker::new(BatchRunner::new(1));
    let mut out = Vec::new();
    let err = worker
        .serve_stream(&mut frame.as_slice(), &mut out)
        .expect_err("a v1 stream must be refused");
    match err {
        WireError::VersionMismatch { ours, theirs } => {
            assert_eq!((ours, theirs), (VERSION, 1));
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("v1") && msg.contains(&format!("v{VERSION}")), "{msg}");
}
