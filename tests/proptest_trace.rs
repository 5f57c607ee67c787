//! The `.nctrace` version 2 record codec, pinned from outside the crate:
//! any instruction sequence survives write → load → looping replay, a
//! changed byte never goes unnoticed, and each non-canonical way to spell
//! a record is refused at load with an error naming the file — bytes and
//! record sequences stay one-to-one, which is what lets the content hash
//! of the encoded bytes stand for the trace (`docs/trace-format.md`).

mod common;

use common::TempDir;
use nocout_repro::substrates::cpu::source::{FetchedInstr, InstructionSource, Op};
use nocout_repro::substrates::mem::addr::Addr;
use nocout_repro::substrates::workloads::trace::{
    TraceHeader, TraceSet, TraceWriter, TRACE_SUFFIX,
};
use nocout_repro::substrates::workloads::{Workload, WorkloadGen};
use proptest::prelude::*;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// The one stream file a test writes into its scratch directory.
fn stream(dir: &TempDir) -> PathBuf {
    dir.0.join(format!("core-000{TRACE_SUFFIX}"))
}

fn write_stream(path: &Path, instrs: &[FetchedInstr]) {
    let header = TraceHeader::for_profile(&Workload::WebSearch.profile(), 0, 1);
    let mut w = TraceWriter::create(path, header).expect("create stream");
    for i in instrs {
        w.write(i).expect("write record");
    }
    w.finish().expect("finish stream");
}

/// Byte offsets of the header's `instr_count` and `payload_len` fields.
const INSTR_COUNT_AT: usize = 14;
const PAYLOAD_LEN_AT: usize = 22;

/// A stream file holding `payload` verbatim as its record section, under
/// a header that promises `records` records: the writer provides the
/// header, the counts are patched in by hand.
fn hand_built_stream(path: &Path, records: u64, payload: &[u8]) {
    write_stream(path, &[]);
    let mut bytes = std::fs::read(path).expect("read header");
    bytes[INSTR_COUNT_AT..INSTR_COUNT_AT + 8].copy_from_slice(&records.to_le_bytes());
    bytes[PAYLOAD_LEN_AT..PAYLOAD_LEN_AT + 8]
        .copy_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    std::fs::write(path, bytes).expect("write stream");
}

/// Addresses at and around the places the delta arithmetic wraps.
fn address() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(1u64 << 63),
        0u64..4,
        (0u64..4).prop_map(|d| u64::MAX - d),
        (0u64..1 << 20).prop_map(|l| 0x4000_0000 + l * 64),
        0u64..u64::MAX,
    ]
}

fn instr() -> impl Strategy<Value = FetchedInstr> {
    let op = prop_oneof![
        (0u16..256).prop_map(|l| Op::Alu { latency: l as u8 }),
        (address(), any::<bool>()).prop_map(|(a, dependent)| Op::Load {
            addr: Addr(a),
            dependent
        }),
        address().prop_map(|a| Op::Store { addr: Addr(a) }),
    ];
    // Runs on one fetch line are what the same-line flag codes; draw the
    // "stay" case often enough to mix both spellings.
    (prop_oneof![address(), Just(0x4000_0000u64)], op).prop_map(|(line, op)| FetchedInstr {
        fetch_line: Addr(line),
        op,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Write -> load -> replay equals the input, through two full loops:
    // the second loop only matches if the rewind zeroes the predictor.
    #[test]
    fn any_sequence_round_trips_through_two_loops(
        instrs in prop::collection::vec(instr(), 1..400)
    ) {
        let dir = TempDir::new("roundtrip");
        write_stream(&stream(&dir), &instrs);
        let set = TraceSet::load(&dir.0).expect("a written stream loads");
        prop_assert_eq!(set.total_instructions(), instrs.len() as u64);
        let mut replay = set.open_stream(0).expect("open stream");
        for lap in 0..2 {
            for (n, want) in instrs.iter().enumerate() {
                prop_assert_eq!(&replay.next_instr(), want, "lap {lap} instr {n}");
            }
        }
    }
}

/// The worked example of `docs/trace-format.md`, byte for byte.
#[test]
fn worked_example_matches_the_format_document() {
    let dir = TempDir::new("example");
    let line = Addr(0x4000_0040);
    let instrs = [
        FetchedInstr {
            fetch_line: line,
            op: Op::Alu { latency: 1 },
        },
        FetchedInstr {
            fetch_line: line,
            op: Op::Alu { latency: 3 },
        },
        FetchedInstr {
            fetch_line: line,
            op: Op::Alu { latency: 1 },
        },
        FetchedInstr {
            fetch_line: line,
            op: Op::Load {
                addr: Addr(0x1000),
                dependent: true,
            },
        },
    ];
    write_stream(&stream(&dir), &instrs);
    let bytes = std::fs::read(stream(&dir)).expect("read stream");
    let payload = &bytes[bytes.len() - 11..];
    assert_eq!(
        payload,
        [0x08, 0x80, 0x81, 0x80, 0x80, 0x08, 0x1c, 0x0c, 0x0d, 0x80, 0x40]
    );
    assert_eq!(
        TraceSet::load(&dir.0).expect("loads").header(0).payload_len,
        11
    );
}

/// Longer than the source's read buffer, so records straddle refills and
/// the tail is decoded from a short buffer.
#[test]
fn streams_longer_than_the_read_buffer_replay_exactly() {
    let dir = TempDir::new("long");
    let instrs: Vec<FetchedInstr> = (0..6_000u64)
        .map(|i| FetchedInstr {
            fetch_line: Addr(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            op: Op::Load {
                addr: Addr(!i.wrapping_mul(0xbf58_476d_1ce4_e5b9)),
                dependent: i % 3 == 0,
            },
        })
        .collect();
    write_stream(&stream(&dir), &instrs);
    let mut replay = TraceSet::load(&dir.0)
        .and_then(|set| set.open_stream(0))
        .expect("open stream");
    assert!(
        replay.header().payload_len > 64 * 1024,
        "must outgrow any read buffer"
    );
    for lap in 0..2 {
        for (n, want) in instrs.iter().enumerate() {
            assert_eq!(&replay.next_instr(), want, "lap {lap} instr {n}");
        }
    }
}

/// Every single-byte mutation of a captured stream's record section is
/// either refused at load or lands on a different content hash.
#[test]
fn no_single_byte_mutation_keeps_the_content_hash() {
    let dir = TempDir::new("mutate");
    let profile = Workload::DataServing.profile();
    let mut w = TraceWriter::create(stream(&dir), TraceHeader::for_profile(&profile, 0, 3))
        .expect("create stream");
    w.capture(&mut WorkloadGen::new(profile, 0, 3), 48)
        .expect("capture");
    w.finish().expect("finish stream");
    let set = TraceSet::load(&dir.0).expect("the capture loads");
    let original_hash = set.content_hash();
    let original = std::fs::read(stream(&dir)).expect("read stream");
    let payload_start = original.len() - set.header(0).payload_len as usize;
    let (mut refused, mut rehashed) = (0, 0);
    for at in payload_start..original.len() {
        for flip in 1..=0xffu8 {
            let mut bytes = original.clone();
            bytes[at] ^= flip;
            std::fs::write(stream(&dir), &bytes).expect("write mutant");
            match TraceSet::load(&dir.0) {
                Ok(mutant) => {
                    assert_ne!(
                        mutant.content_hash(),
                        original_hash,
                        "byte {at} ^ {flip:#x}"
                    );
                    rehashed += 1;
                }
                Err(e) => {
                    assert_eq!(
                        e.kind(),
                        ErrorKind::InvalidData,
                        "byte {at} ^ {flip:#x}: {e}"
                    );
                    refused += 1;
                }
            }
        }
    }
    assert!(
        refused > 0 && rehashed > 0,
        "{refused} refused, {rehashed} rehashed"
    );
}

/// One hand-built stream per way a record can be spelled that the writer
/// never produces. Head byte: kind in bits 0-1 (0 ALU, 1 load, 2 store),
/// same-line flag 0x04, operand in bits 3-7.
#[test]
fn non_canonical_records_are_rejected_naming_the_file() {
    const ALU_LAT1: u8 = 1 << 3;
    let cases: [(&str, u64, &[u8]); 10] = [
        // The canonical spellings load, so the cases below fail for the
        // reason they name and not for a mistake in the scaffolding.
        ("", 2, &[ALU_LAT1 | 0x04, 0x02 | 0x04, 0x80, 0x01]),
        ("zero fetch-line delta", 1, &[ALU_LAT1, 0x00]),
        ("over-long varint", 1, &[0x02 | 0x04, 0x80, 0x00]),
        (
            "varint does not fit",
            1,
            &[
                0x02 | 0x04,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0x80,
                0x00,
            ],
        ),
        (
            "varint does not fit",
            1,
            &[
                0x02 | 0x04,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0x02,
            ],
        ),
        ("latency escape", 1, &[31 << 3 | 0x04, 30]),
        ("reserved head-byte bits", 1, &[0x02 | 0x04 | 0x08, 0x00]),
        ("reserved head-byte bits", 1, &[0x01 | 0x04 | 0x10, 0x00]),
        ("unknown record kind 3", 1, &[0x03 | 0x04]),
        (
            "runs past the payload",
            2,
            &[ALU_LAT1 | 0x04, 0x01 | 0x04, 0x80],
        ),
    ];
    for (what, records, payload) in cases {
        let dir = TempDir::new("noncanonical");
        hand_built_stream(&stream(&dir), records, payload);
        match TraceSet::load(&dir.0) {
            Ok(_) => assert!(
                what.is_empty(),
                "`{what}` stream {payload:02x?} must not load"
            ),
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}");
                let msg = e.to_string();
                assert!(!what.is_empty() && msg.contains(what), "{what}: {msg}");
                assert!(
                    msg.contains(&stream(&dir).display().to_string()),
                    "{what}: {msg}"
                );
            }
        }
    }
}

/// A record count that disagrees with the header is refused either way.
#[test]
fn record_count_must_match_the_header() {
    for promised in [1, 3] {
        let dir = TempDir::new("count");
        hand_built_stream(&stream(&dir), promised, &[0x0c, 0x0c]);
        let err = TraceSet::load(&dir.0).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("payload holds 2"), "{err}");
    }
}
