//! Crash-safe campaign manifest journal.
//!
//! The driver appends every *worker-produced* point outcome — successful
//! metrics as their bit-exact cache-entry rendering, deterministic
//! simulation failures as their message — to a plain-text journal, one
//! record at a time, flushed per record. After a driver crash,
//! `--resume` replays the journal and only dispatches the points it does
//! not cover. Transport-level failures (a shard that exhausted its
//! retries) are deliberately *not* journaled: they describe the cluster,
//! not the campaign, and a resume should retry them.
//!
//! ## Format
//!
//! ```text
//! nocout-shard-journal v1
//! campaign <fnv64-hex> points <n>
//! ok <index>
//! <cache-entry text, one or more lines>
//! end <index>
//! fail <index> <message, escaped onto one line>
//! end <index>
//! ```
//!
//! The `campaign` line fingerprints the spec sequence (FNV-1a 64 over
//! every `RunSpec::cache_key`, behaviour version included), so a journal
//! can never be replayed against a different campaign or simulator.
//! Every record is terminated by a matching `end <index>` marker: a
//! record the crash tore in half has no marker, so [`Journal::resume`]
//! stops at the last complete record and truncates the torn tail before
//! appending resumes. `ok` entries are re-verified against their spec's
//! canonical key on load — a corrupt body degrades to "not covered",
//! never to wrong data. Heads, entries and the failure message's escape
//! follow the workspace's one set of text rules (`nocout_sim::text`;
//! "Text formats" in `docs/distributed-campaigns.md`).

use super::wire::WireError;
use crate::cache::read_entry;
use crate::runner::{PointError, PointOutcome, RunSpec};
use nocout_sim::hash::{fnv1a_fold, FNV_BASIS};
use nocout_sim::text::{escape, hex, unescape, Reader, TextError};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

const FORMAT: &str = "nocout-shard-journal v1";

/// FNV-1a 64 fingerprint of a campaign's spec sequence: every
/// `RunSpec::cache_key`, each followed by a newline.
pub fn campaign_fingerprint(specs: &[RunSpec]) -> u64 {
    specs.iter().fold(FNV_BASIS, |h, spec| {
        fnv1a_fold(fnv1a_fold(h, spec.cache_key().as_bytes()), b"\n")
    })
}

/// The journal's second line: which campaign it belongs to.
fn campaign_line(specs: &[RunSpec]) -> String {
    format!("campaign {} points {}", hex(campaign_fingerprint(specs)), specs.len())
}

/// Reads one complete record at `r`: its spec index and the outcome it
/// recorded. Anything else — torn, corrupt, out of range — is an error,
/// where [`Journal::resume`] stops trusting the file.
fn read_record(r: &mut Reader<'_>, specs: &[RunSpec]) -> Result<(usize, PointOutcome), TextError> {
    let kind = r.token()?;
    let index: usize = r.num()?;
    let out_of_range = || TextError(format!("record index {index} of {} points", specs.len()));
    let cache_key = specs.get(index).ok_or_else(out_of_range)?.cache_key();
    let outcome = match kind {
        "ok" => Ok(read_entry(r.eol()?, &cache_key)?),
        "fail" => Err(PointError { message: unescape(r.line()?)?, cache_key }),
        other => return Err(TextError(format!("expected `ok` or `fail`, found `{other}`"))),
    };
    if r.expect("end")?.num::<usize>()? != index {
        return Err(TextError(format!("record {index} ends in another record's marker")));
    }
    r.eol()?;
    Ok((index, outcome))
}

/// An append-only, crash-safe record of completed campaign points.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
}

impl Journal {
    /// Starts a fresh journal for this campaign, truncating `path`.
    ///
    /// # Errors
    ///
    /// File creation/write errors.
    pub fn create(path: &Path, specs: &[RunSpec]) -> std::io::Result<Journal> {
        let mut writer = BufWriter::new(File::create(path)?);
        writeln!(writer, "{FORMAT}\n{}", campaign_line(specs))?;
        writer.flush()?;
        Ok(Journal { writer })
    }

    /// Resumes from an existing journal: verifies the campaign
    /// fingerprint, replays every complete record, truncates any torn
    /// tail, and returns the journal (positioned for appending) plus the
    /// recovered outcomes keyed by global spec index. A missing file is
    /// the same as a fresh [`Journal::create`].
    ///
    /// # Errors
    ///
    /// I/O errors, and [`WireError::Malformed`] when the journal belongs
    /// to a *different* campaign (wrong fingerprint or point count) —
    /// resuming someone else's journal is a configuration error, not a
    /// torn tail.
    pub fn resume(
        path: &Path,
        specs: &[RunSpec],
    ) -> Result<(Journal, Vec<Option<PointOutcome>>), WireError> {
        if !path.exists() {
            return Ok((Journal::create(path, specs)?, vec![None; specs.len()]));
        }
        let text = std::fs::read_to_string(path)?;
        let mut r = Reader::new(&text);
        if r.line() != Ok(FORMAT) {
            return Err(WireError::Malformed(format!("{} is not a shard journal", path.display())));
        }
        let (found, expect) = (r.line().unwrap_or("a torn line"), campaign_line(specs));
        if found != expect {
            return Err(WireError::Malformed(format!(
                "journal {} belongs to a different campaign \
                 (found `{found}`, this campaign is `{expect}`) — \
                 pass a fresh --journal path or drop --resume",
                path.display()
            )));
        }

        // Records: read greedily, stop at the first torn or invalid one.
        let mut recovered: Vec<Option<PointOutcome>> = vec![None; specs.len()];
        let mut good_end = text.len() - r.remaining();
        while let Ok((index, outcome)) = read_record(&mut r, specs) {
            recovered[index] = Some(outcome);
            good_end = text.len() - r.remaining();
        }

        // Truncate the torn tail, then append after it.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(good_end as u64)?;
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::Start(good_end as u64))?;
        Ok((Journal { writer }, recovered))
    }

    /// Appends one successful point (its bit-exact cache-entry text, last
    /// line newline-terminated like every entry's — anything else resumes
    /// as a torn record) and flushes — after this returns, a crash cannot
    /// lose the record.
    ///
    /// # Errors
    ///
    /// Write errors.
    pub fn record_ok(&mut self, index: usize, entry: &str) -> std::io::Result<()> {
        write!(self.writer, "ok {index}\n{entry}end {index}\n")?;
        self.writer.flush()
    }

    /// Appends one deterministic worker-side failure and flushes.
    ///
    /// # Errors
    ///
    /// Write errors.
    pub fn record_failed(&mut self, index: usize, error: &PointError) -> std::io::Result<()> {
        writeln!(self.writer, "fail {index} {}\nend {index}", escape(&error.message))?;
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::render_entry;
    use crate::config::{ChipConfig, Organization};
    use nocout_workloads::Workload;
    use std::path::PathBuf;

    fn specs() -> Vec<RunSpec> {
        (1..=3)
            .map(|seed| {
                RunSpec::new(
                    ChipConfig::with_cores(Organization::Mesh, 16),
                    Workload::WebSearch,
                )
                .fast()
                .with_seed(seed)
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nocout-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn journal_round_trips_and_survives_torn_tail() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let specs = specs();
        let metrics = crate::runner::run(&specs[0]);
        let key = |i: usize| specs[i].cache_key();
        let entry = render_entry(&key(0), &metrics);
        let failure = PointError { cache_key: key(1), message: "boom\nwith detail".into() };
        {
            let mut j = Journal::create(&path, &specs).unwrap();
            j.record_ok(0, &entry).unwrap();
            j.record_failed(1, &failure).unwrap();
            // Tear the file mid-record: an `ok 2` header with half a body
            // and no end marker, as a crash between write and flush leaves.
            write!(j.writer, "ok 2\nnocout-results-cache v2\nkey trunca").unwrap();
        }
        let (mut j, recovered) = Journal::resume(&path, &specs).unwrap();
        assert!(matches!(&recovered[0], Some(Ok(m)) if render_entry(&key(0), m) == entry));
        assert_eq!(recovered[1], Some(Err(failure)));
        assert!(recovered[2].is_none(), "torn record must not be trusted");
        // The torn tail is gone: appending record 2 (rendered against its
        // own spec's key — entries must verify) and resuming again
        // recovers all three.
        j.record_ok(2, &render_entry(&key(2), &metrics)).unwrap();
        drop(j);
        let (_, recovered) = Journal::resume(&path, &specs).unwrap();
        assert!(recovered.iter().all(Option::is_some));
        let _ = std::fs::remove_file(&path);
    }

    /// The failure message survives whatever it contains — a literal
    /// backslash-`n` stays two characters, a real newline stays one, a
    /// trailing backslash stays — because the journal escapes through the
    /// codec's one rule, which escapes the escape character too.
    #[test]
    fn failure_messages_resume_byte_equal() {
        let path = tmp("escape");
        let specs = specs();
        let message = "cannot open C:\\new\\dir: literal \\n, real \n, trailing \\";
        let error = PointError { cache_key: specs[1].cache_key(), message: message.into() };
        Journal::create(&path, &specs).unwrap().record_failed(1, &error).unwrap();
        let (_, recovered) = Journal::resume(&path, &specs).unwrap();
        assert_eq!(recovered[1], Some(Err(error)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_refuses_a_different_campaign() {
        let path = tmp("fingerprint");
        let _ = std::fs::remove_file(&path);
        let specs = specs();
        drop(Journal::create(&path, &specs).unwrap());
        let other: Vec<RunSpec> = specs.iter().map(|s| s.clone().with_seed(99)).collect();
        let err = Journal::resume(&path, &other).unwrap_err();
        assert!(
            err.to_string().contains("different campaign"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_tracks_the_spec_sequence() {
        let a = specs();
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(campaign_fingerprint(&a), campaign_fingerprint(&b));
        assert_eq!(campaign_fingerprint(&a), campaign_fingerprint(&a.clone()));
    }
}
