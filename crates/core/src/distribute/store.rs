//! The worker-side content-addressed trace store, and the archive
//! format traces ship in.
//!
//! A [`TraceStore`] maps a trace content hash
//! (`TraceSet::content_hash`: FNV-1a 64 over each stream file's name and
//! bytes, in file-name order) to an installed trace directory:
//!
//! ```text
//! <store>/<hash:016x>/           an installed, verified trace directory
//! <store>/<hash:016x>.partial    a resumable in-flight archive transfer
//! <store>/<hash:016x>.bad        a quarantined corrupt entry
//! ```
//!
//! The store makes the same promises the results cache does, because it
//! faces the same failure modes:
//!
//! * **Atomic install** — an arriving archive unpacks into a temp
//!   directory, is loaded and re-verified against its content hash, and
//!   only then renamed into place. A crash mid-install leaves at most a
//!   temp directory and the partial file, never a half-written entry.
//! * **Verify on load** — [`TraceStore::get`] re-derives the content
//!   hash from the bytes on disk (`TraceSet::load` re-reads and
//!   re-hashes every stream); an entry whose bytes no longer match its
//!   name is quarantined to `<entry>.bad` — exactly like
//!   `crate::cache::ResultsCache` — and reported as a miss, so the
//!   driver re-ships instead of replaying corrupt streams.
//! * **Resumable transfer** — chunks append to `<hash>.partial` with a
//!   per-chunk fsync; a worker crash mid-transfer loses nothing already
//!   appended, and the next offer resumes from the staged length.
//!
//! ## The archive format
//!
//! A trace ships as one byte stream framing its files in file-name
//! order — the same order the content hash folds them in:
//!
//! ```text
//! nocout-trace-archive v1 files <n>\n
//! file <name> <len>\n<len raw bytes>      (n times)
//! ```
//!
//! Unpacking therefore reproduces a directory whose `TraceSet::load`
//! content hash equals the shipped hash exactly when every byte arrived
//! intact — the end-to-end check no per-frame digest can replace. Each
//! header line follows the workspace's one set of text rules
//! (`nocout_sim::text`; "Text formats" in `docs/distributed-campaigns.md`),
//! so a file name is one token: no space, newline or `/`.

use super::wire::TraceLookup;
use nocout_sim::text::{hex, whole, Reader};
use nocout_workloads::trace::TraceSet;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes that are not what they were declared to be: the error kind the
/// text reader's refusals map to as well.
fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serializes a trace as one shippable archive: every stream file in
/// file-name order, names and bytes verbatim.
///
/// # Errors
///
/// I/O errors reading the stream files, or a stream file whose name is
/// not representable (not UTF-8, or contains a space, a newline or a `/`).
pub fn archive_trace(set: &TraceSet) -> io::Result<Vec<u8>> {
    let mut out = format!("nocout-trace-archive v1 files {}\n", set.files().len()).into_bytes();
    for path in set.files() {
        let name = path.file_name().and_then(|n| n.to_str());
        let name = name.filter(|n| !n.contains([' ', '\n', '/'])).ok_or_else(|| {
            bad(format!("trace stream {} has a name that cannot be archived", path.display()))
        })?;
        let bytes = std::fs::read(path)?;
        out.extend_from_slice(format!("file {name} {}\n", bytes.len()).as_bytes());
        out.extend_from_slice(&bytes);
    }
    Ok(out)
}

/// Unpacks an [`archive_trace`] byte stream into `dest` (which must not
/// exist yet; it is created).
///
/// # Errors
///
/// A malformed archive (bad magic, counts or lengths that disagree with
/// the bytes) or any I/O error writing the files.
pub(super) fn unpack_archive(bytes: &[u8], dest: &Path) -> io::Result<()> {
    let (mut head, mut rest) = Reader::head(bytes)?;
    let count: usize = head.expect("nocout-trace-archive")?.expect("v1")?.expect("files")?.num()?;
    head.end()?;
    std::fs::create_dir_all(dest)?;
    for _ in 0..count {
        let (mut head, raw) = Reader::head(rest)?;
        let (name, len): (_, usize) = (head.expect("file")?.token()?, head.num()?);
        head.end()?;
        if name.contains('/') || name.contains("..") {
            return Err(bad(format!("unsafe archive file name `{name}`")));
        }
        if raw.len() < len {
            return Err(bad(format!(
                "archive truncated: file `{name}` declares {len} bytes, {} remain",
                raw.len()
            )));
        }
        std::fs::write(dest.join(name), &raw[..len])?;
        rest = &raw[len..];
    }
    if !rest.is_empty() {
        return Err(bad(format!("{} trailing bytes after the archive", rest.len())));
    }
    Ok(())
}

/// A crash-safe, content-addressed trace store (the worker side of
/// trace shipping). See the module docs for the on-disk layout and the
/// install/verify/quarantine invariants.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    quarantined: AtomicU64,
}

impl TraceStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open<P: Into<PathBuf>>(dir: P) -> io::Result<TraceStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceStore { dir, quarantined: AtomicU64::new(0) })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entries quarantined to `<entry>.bad` since the store opened.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    fn entry_dir(&self, hash: u64) -> PathBuf {
        self.dir.join(hex(hash).to_string())
    }

    fn partial_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{}.partial", hex(hash)))
    }

    /// The content hashes this store holds entries for. A cheap
    /// directory scan — entries are *not* verified here (the capability
    /// handshake must stay fast); verification happens on
    /// [`TraceStore::get`], where a corrupt entry is quarantined and the
    /// next handshake stops advertising it.
    pub fn held(&self) -> Vec<u64> {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut hashes: Vec<u64> = read
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| whole(e.file_name().to_str()?, Reader::hash).ok())
            .collect();
        hashes.sort_unstable();
        hashes
    }

    /// Loads the entry for `hash`, re-verifying the content hash from
    /// the bytes on disk. A missing entry is `None`; an entry that fails
    /// to load or whose re-derived hash disagrees is quarantined to
    /// `<entry>.bad` (preserving the bytes for inspection) and also
    /// reported as `None`, so the caller's next move — re-ship — is the
    /// same either way.
    pub fn get(&self, hash: u64) -> Option<Arc<TraceSet>> {
        let path = self.entry_dir(hash);
        if !path.is_dir() {
            return None;
        }
        match TraceSet::load(&path) {
            Ok(set) if set.content_hash() == hash => Some(set),
            _ => {
                self.quarantine(&path);
                None
            }
        }
    }

    fn quarantine(&self, path: &Path) {
        let bad = path.with_extension("bad");
        let _ = std::fs::remove_dir_all(&bad); // a previous quarantine
        if std::fs::rename(path, &bad).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "warning: trace store entry {} failed verification; quarantined to {}",
                path.display(),
                bad.display()
            );
        }
    }

    /// Bytes staged for `hash` so far: the full archive length if the
    /// entry is installed, else the partial file's length (the resume
    /// point after a crash), else zero.
    pub fn staged_len(&self, hash: u64) -> u64 {
        std::fs::metadata(self.partial_path(hash))
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Appends one archive chunk at `offset` to the partial file,
    /// fsyncing so a crash after this call never loses the chunk.
    ///
    /// # Errors
    ///
    /// An offset that is not exactly the staged length (chunks must
    /// arrive in order; the driver resumes from the acked length), or
    /// any I/O error.
    pub fn append_chunk(&self, hash: u64, offset: u64, data: &[u8]) -> io::Result<u64> {
        let path = self.partial_path(hash);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let staged = file.seek(io::SeekFrom::End(0))?;
        if offset != staged {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("chunk offset {offset} does not match staged length {staged}"),
            ));
        }
        file.write_all(data)?;
        file.sync_data()?;
        Ok(staged + data.len() as u64)
    }

    /// Completes a transfer: checks the staged length against the
    /// offered total, unpacks the archive into a temp directory, loads
    /// it and re-verifies the content hash, then renames it into place
    /// atomically and removes the partial. On any failure the partial is
    /// discarded so the next offer re-ships from zero rather than
    /// resuming onto corrupt bytes.
    ///
    /// # Errors
    ///
    /// A short or corrupt archive (including a content-hash mismatch —
    /// the assembled bytes are not the trace the offer named), or I/O.
    pub fn commit(&self, hash: u64, total_len: u64) -> io::Result<Arc<TraceSet>> {
        let partial = self.partial_path(hash);
        let result = self.commit_inner(hash, total_len, &partial);
        if result.is_err() {
            let _ = std::fs::remove_file(&partial);
        }
        result
    }

    fn commit_inner(
        &self,
        hash: u64,
        total_len: u64,
        partial: &Path,
    ) -> io::Result<Arc<TraceSet>> {
        let bytes = std::fs::read(partial)?;
        if bytes.len() as u64 != total_len {
            return Err(bad(format!("staged {} bytes but the offer declared {total_len}", bytes.len())));
        }
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", hex(hash), std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let installed = (|| {
            unpack_archive(&bytes, &tmp)?;
            let set = TraceSet::load(&tmp)?;
            if set.content_hash() != hash {
                let found = hex(set.content_hash());
                return Err(bad(format!("assembled archive hashes to {found}, offer named {}", hex(hash))));
            }
            let dest = self.entry_dir(hash);
            let _ = std::fs::remove_dir_all(&dest); // a quarantine raced us back
            std::fs::rename(&tmp, &dest)?;
            // The rename moved the very files just verified, so the set
            // only needs its dir (and open_stream paths) pointed at the
            // installed entry — not a second read, hash and validation.
            Ok(set.rerooted(dest))
        })();
        if installed.is_err() {
            let _ = std::fs::remove_dir_all(&tmp);
        }
        let _ = std::fs::remove_file(partial);
        installed
    }
}

impl TraceLookup for TraceStore {
    fn lookup(&self, hash: u64) -> Option<Arc<TraceSet>> {
        self.get(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChipConfig, Organization};
    use nocout_workloads::Workload;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nocout-store-{tag}-{}", std::process::id()))
    }

    fn capture(tag: &str) -> (PathBuf, Arc<TraceSet>) {
        let dir = tmp(&format!("cap-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let chip = ChipConfig::paper(Organization::Mesh);
        let set = crate::chip::capture_synthetic_trace(chip, Workload::WebSearch, 1, &dir, 2_000)
            .expect("capture trace");
        (dir, set)
    }

    #[test]
    fn archive_install_round_trip_preserves_the_content_hash() {
        let (cap, set) = capture("roundtrip");
        let store_dir = tmp("store-roundtrip");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = TraceStore::open(&store_dir).unwrap();
        let hash = set.content_hash();
        assert!(store.get(hash).is_none());
        assert_eq!(store.staged_len(hash), 0);

        let archive = archive_trace(&set).unwrap();
        // Ship in two chunks through the crash-safe path.
        let mid = archive.len() / 2;
        store.append_chunk(hash, 0, &archive[..mid]).unwrap();
        assert_eq!(store.staged_len(hash), mid as u64);
        store.append_chunk(hash, mid as u64, &archive[mid..]).unwrap();
        let installed = store.commit(hash, archive.len() as u64).unwrap();
        assert_eq!(installed.content_hash(), hash);
        assert_eq!(installed.dir(), store_dir.join(hex(hash).to_string()));
        assert!(installed.open_stream(0).is_ok(), "paths point at the installed entry");
        assert_eq!(store.held(), vec![hash]);
        assert_eq!(store.staged_len(hash), 0, "partial removed after install");
        let loaded = store.get(hash).expect("installed entry loads");
        assert_eq!(loaded.content_hash(), hash);
        assert_eq!(installed.files(), loaded.files());
        let _ = std::fs::remove_dir_all(&cap);
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    #[test]
    fn out_of_order_chunk_is_rejected() {
        let store_dir = tmp("store-order");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = TraceStore::open(&store_dir).unwrap();
        store.append_chunk(7, 0, b"abc").unwrap();
        let err = store.append_chunk(7, 9, b"def").unwrap_err();
        assert!(err.to_string().contains("does not match staged length"), "{err}");
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    /// Installs a captured trace, lets `corrupt` edit the bytes of one
    /// installed stream file, and checks the store's answer: `held()`
    /// still advertises the entry (no verification on scan), but `get()`
    /// must refuse it, quarantine it, and miss.
    fn corrupted_entry_is_quarantined(tag: &str, corrupt: impl FnOnce(&mut Vec<u8>)) {
        let (cap, set) = capture(tag);
        let store_dir = tmp(&format!("store-{tag}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = TraceStore::open(&store_dir).unwrap();
        let hash = set.content_hash();
        let archive = archive_trace(&set).unwrap();
        store.append_chunk(hash, 0, &archive).unwrap();
        store.commit(hash, archive.len() as u64).unwrap();

        let entry = store_dir.join(hex(hash).to_string());
        let stream = std::fs::read_dir(&entry).unwrap().next().unwrap().unwrap().path();
        let mut bytes = std::fs::read(&stream).unwrap();
        corrupt(&mut bytes);
        std::fs::write(&stream, &bytes).unwrap();
        assert_eq!(store.held(), vec![hash]);
        assert!(store.get(hash).is_none());
        assert_eq!(store.quarantined(), 1);
        assert!(entry.with_extension("bad").is_dir(), "bytes preserved for inspection");
        assert!(store.held().is_empty(), "quarantined entries are no longer advertised");
        let _ = std::fs::remove_dir_all(&cap);
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_reported_missing() {
        corrupted_entry_is_quarantined("quarantine", |bytes| {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
        });
    }

    /// Header bytes 22..30 are `payload_len`: a value whose end overflows
    /// any offset arithmetic done on it is a typed load error like any
    /// other wrong length — no panic, no wrapped length.
    #[test]
    fn hostile_payload_len_is_quarantined_not_overflowed() {
        corrupted_entry_is_quarantined("hostile-len", |bytes| {
            bytes[22..30].copy_from_slice(&u64::MAX.to_le_bytes());
        });
    }

    #[test]
    fn commit_of_a_wrong_hash_fails_and_discards_the_partial() {
        let (cap, set) = capture("wronghash");
        let store_dir = tmp("store-wronghash");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = TraceStore::open(&store_dir).unwrap();
        let archive = archive_trace(&set).unwrap();
        let wrong = set.content_hash() ^ 1;
        store.append_chunk(wrong, 0, &archive).unwrap();
        let err = store.commit(wrong, archive.len() as u64).unwrap_err();
        assert!(err.to_string().contains("hashes to"), "{err}");
        assert_eq!(store.staged_len(wrong), 0, "failed commit discards the partial");
        assert!(store.held().is_empty());
        let _ = std::fs::remove_dir_all(&cap);
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    #[test]
    fn unsafe_archive_names_are_rejected() {
        let dest = tmp("unpack-unsafe");
        let _ = std::fs::remove_dir_all(&dest);
        let archive = b"nocout-trace-archive v1 files 1\nfile ../evil 1\nx";
        let err = unpack_archive(archive, &dest).unwrap_err();
        assert!(err.to_string().contains("unsafe"), "{err}");
        let _ = std::fs::remove_dir_all(&dest);
    }
}
