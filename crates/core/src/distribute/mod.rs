//! Fault-tolerant sharded campaign execution.
//!
//! A campaign's spec sequence is a pure plan — every point a pure
//! function of its [`crate::runner::RunSpec`] — so it can execute
//! anywhere that has the same simulator build and (for trace workloads)
//! the same trace store. This module splits execution into:
//!
//! * [`wire`] — the length-prefixed, versioned, digest-verified frame
//!   protocol shard requests and bit-exact metric records travel over,
//! * [`worker`] — the serving side: a [`crate::runner::BatchRunner`]
//!   behind the protocol, with heartbeats and deterministic fault
//!   injection ([`FaultPlan`]) for tests and the chaos CI gate,
//! * [`driver`] — the dispatching side: shard partitioning,
//!   retry/backoff, straggler speculation, endpoint retirement, and
//!   per-point degradation into [`crate::runner::PointError`]s,
//! * [`store`] — the content-addressed worker trace store and the
//!   archive format traces ship in: traces are identified by content
//!   hash on the wire (`trace@<hash>`), shipped in digest-verified
//!   chunks, staged crash-safely, and re-verified against their hash
//!   before use,
//! * [`journal`] — the crash-safe manifest that makes a driver run
//!   resumable after a crash.
//!
//! The invariant everything here preserves: **merged sharded results
//! are byte-identical to a local [`crate::runner::BatchRunner`] run.**
//! Successful metrics travel as the results cache's bit-exact entry
//! text and are verified against each point's canonical key on receipt,
//! so distribution can change where and when points run — never what
//! they compute. `docs/distributed-campaigns.md` walks through the
//! protocol, the failure taxonomy, and the resume semantics.

pub mod driver;
pub mod journal;
pub mod store;
pub mod wire;
pub mod worker;

pub use driver::{DriverConfig, DriverError, DriverStats, Endpoint, ShardedDriver};
pub use journal::{campaign_fingerprint, Journal};
pub use store::{archive_trace, TraceStore};
pub use wire::{
    decode_frame, decode_frame_with, encode_frame, parse_spec, parse_spec_with, read_frame,
    read_frame_with, render_spec, write_frame, Message, TraceLookup, WireError, HEADER_LEN, MAGIC,
    MAX_PAYLOAD, VERSION,
};
pub use worker::{FaultPlan, Worker};

#[cfg(test)]
mod tests {
    use super::wire::{decode_frame, decode_frame_with, encode_frame};
    use super::*;
    use crate::cache::{parse_entry, render_entry};
    use crate::config::{ChipConfig, Organization};
    use crate::runner::{PointError, RunSpec};
    use nocout_sim::hash::fnv1a;
    use nocout_workloads::trace::TraceSet;
    use nocout_workloads::{Workload, WorkloadClass};
    use std::sync::Arc;

    struct Held(Arc<TraceSet>);

    impl TraceLookup for Held {
        fn lookup(&self, hash: u64) -> Option<Arc<TraceSet>> {
            (hash == self.0.content_hash()).then(|| self.0.clone())
        }
    }

    /// A frame of `kind` around `payload`, digest and length correct: what
    /// a buggy or hostile peer could send, which `encode_frame` cannot.
    fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = [&MAGIC[..], &VERSION.to_le_bytes(), &[kind, 0]].concat();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// One table for every text format: the whole rendering reads back,
    /// every strict prefix of it is refused — a typed error, `None`, or the
    /// journal's torn-tail stop — never read as a shorter, wrong value.
    /// (The raw text or bytes a point result or trace chunk carries after
    /// its header line are left empty here: they are not the text layer's
    /// to delimit but the frame digest's and `parse_entry`'s.)
    #[test]
    fn every_strict_prefix_of_every_format_is_refused() {
        let dir = std::env::temp_dir().join(format!("nocout-prefixes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("trace")).unwrap();
        let chip = ChipConfig::with_cores(Organization::Mesh, 16);
        let specs: Vec<RunSpec> = (1..=3)
            .map(|seed| RunSpec::new(chip, Workload::WebSearch).fast().with_seed(seed))
            .collect();
        let metrics = crate::runner::run(&specs[0]);
        let set = crate::chip::capture_synthetic_trace(chip, Workload::WebSearch, 1, &dir.join("trace"), 500)
            .expect("capture trace");
        let held = Held(set.clone());
        let traced = RunSpec { workload: WorkloadClass::Trace(set.clone()), ..specs[0].clone() };
        let key = |i: usize| specs[i].cache_key();
        let failure = PointError { cache_key: key(1), message: "a\\b\nc".into() };
        let path = dir.join("journal");
        {
            let mut j = Journal::create(&path, &specs).unwrap();
            j.record_ok(0, &render_entry(&key(0), &metrics)).unwrap();
            j.record_failed(1, &failure).unwrap();
            j.record_ok(2, &render_entry(&key(2), &metrics)).unwrap();
        }

        let messages = [
            Message::ShardRequest { shard: 3, specs: vec![specs[1].clone(), traced.clone()] },
            Message::PointOk { shard: 3, index: 10, entry: String::new() },
            Message::PointFailed { shard: 3, index: 10, error: String::new() },
            Message::ShardDone { shard: 3, points: 12 },
            Message::Heartbeat,
            Message::Hello { version: 12 },
            Message::HelloAck { version: 12, cores: 8, store: true, trace_hashes: vec![7, u64::MAX] },
            Message::TraceOffer { hash: 0x1234, total_len: 4096 },
            Message::TraceChunk { hash: 0x1234, offset: 77, data: Vec::new() },
            Message::TraceAck { hash: 0x1234, have: 4096 },
        ];

        type Accepts<'a> = Box<dyn Fn(&[u8]) -> bool + 'a>;
        fn text(bytes: &[u8]) -> &str {
            std::str::from_utf8(bytes).expect("the text formats are ASCII")
        }
        let mut table: Vec<(String, Vec<u8>, Accepts)> = vec![
            (
                "cache entry".into(),
                render_entry(&key(0), &metrics).into_bytes(),
                Box::new(|b| parse_entry(text(b), &key(0)).is_some()),
            ),
            (
                "journal".into(),
                std::fs::read(&path).unwrap(),
                Box::new(|b| {
                    std::fs::write(&path, b).unwrap();
                    let Ok((_, recovered)) = Journal::resume(&path, &specs) else { return false };
                    // What a torn journal does recover is what was written.
                    for (i, outcome) in recovered.iter().enumerate() {
                        match outcome {
                            Some(Ok(m)) => assert_eq!(*m, metrics),
                            Some(Err(e)) => assert_eq!((i, e), (1, &failure)),
                            None => {}
                        }
                    }
                    assert!(std::fs::metadata(&path).unwrap().len() <= b.len() as u64);
                    recovered.iter().all(Option::is_some)
                }),
            ),
            (
                "trace archive".into(),
                archive_trace(&set).unwrap(),
                Box::new(|b| match store::unpack_archive(b, &dir.join("unpacked")) {
                    Ok(()) => true,
                    Err(e) => e.kind() != std::io::ErrorKind::InvalidData,
                }),
            ),
        ];
        // A bare spec line has no terminator of its own (its carriers, an
        // entry's `key` line and a shard request, end it with a newline);
        // the synthetic and trace token forms are prefix-free regardless.
        for spec in [&specs[0], &traced] {
            let line = render_spec(spec).unwrap().into_bytes();
            let held = &held;
            assert_eq!(parse_spec_with(text(&line), Some(held)).as_ref().ok(), Some(spec));
            let reads = move |b: &[u8]| parse_spec_with(text(b), Some(held)).is_ok();
            table.push((format!("spec line of {}", spec.workload), line, Box::new(reads)));
        }
        for (msg, kind) in messages.iter().zip(1u8..) {
            let whole = encode_frame(msg).unwrap();
            let held = &held;
            assert_eq!(decode_frame_with(&whole, Some(held)).as_ref().ok(), Some(msg));
            let decodes = move |b: &[u8]| {
                !matches!(decode_frame_with(&frame(kind, b), Some(held)), Err(WireError::Malformed(_)))
            };
            table.push((format!("payload kind {kind}"), whole[HEADER_LEN..].to_vec(), Box::new(decodes)));
        }
        assert!(matches!(decode_frame(&frame(5, b"\n")), Err(WireError::Malformed(_))));

        for (format, whole, accepts) in &table {
            assert!(accepts(whole), "{format}: the whole rendering");
            // Every cut of the short ones; of the archive, a stride and the tail.
            for cut in (0..whole.len()).filter(|c| whole.len() < 8192 || c % 97 == 0 || whole.len() - c < 64) {
                assert!(!accepts(&whole[..cut]), "{format}: the {cut}-byte prefix");
            }
        }
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
