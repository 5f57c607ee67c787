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
//! * **Verified bytes are the replayed bytes** — every byte replayed
//!   was hashed and validated in this process, and is replayed from the
//!   buffer that was checked. A set is verified once per process, by
//!   whichever comes first: the [`TraceStore::commit`] that installs it
//!   (which loads and hashes the unpacked archive before renaming it
//!   into place), or the first [`TraceStore::get`] of an entry some
//!   earlier process installed (`TraceSet::load` reads, hashes and
//!   validates every stream, and keeps what it read). An entry whose
//!   bytes do not match its name is quarantined to `<entry>.bad` —
//!   exactly like `crate::cache::ResultsCache` — and reported as a
//!   miss, so the driver re-ships instead of replaying corrupt streams.
//!   The store remembers each verified set (the [`REMEMBERED_SETS`] most
//!   recently used, by hash) and serves `get`s from memory for as long
//!   as the entry directory exists: a wiped or quarantined entry is a
//!   miss and drops the remembered set. Bit rot in an installed entry is
//!   therefore found at the next process's first `get` — or this one's
//!   after an eviction — not at the next point's.
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
use std::borrow::Cow;
use std::io::{self, Seek, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Verified sets a [`TraceStore`] keeps in memory, most recently used
/// first. A campaign interleaves its traces, so one would thrash; an
/// eviction costs only the next `get`'s re-verification from disk.
pub const REMEMBERED_SETS: usize = 4;

/// Bytes that are not what they were declared to be: the error kind the
/// text reader's refusals map to as well.
fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A trace's shippable archive as the pieces it is the concatenation of:
/// the small header lines (owned) and each stream's bytes, borrowed from
/// the set that holds them. File-name order, names and bytes verbatim.
pub(super) struct ArchivePieces<'a>(Vec<Cow<'a, [u8]>>);

impl<'a> ArchivePieces<'a> {
    /// # Errors
    ///
    /// A stream file whose name is not representable (not UTF-8, or
    /// contains a space, a newline or a `/`).
    pub(super) fn of(set: &'a TraceSet) -> io::Result<Self> {
        let files = set.files();
        let mut pieces = Vec::with_capacity(1 + 2 * files.len());
        pieces.push(Cow::from(
            format!("nocout-trace-archive v1 files {}\n", files.len()).into_bytes(),
        ));
        for (slot, path) in files.iter().enumerate() {
            let name = path.file_name().and_then(|n| n.to_str());
            let name = name.filter(|n| !n.contains([' ', '\n', '/'])).ok_or_else(|| {
                bad(format!("trace stream {} has a name that cannot be archived", path.display()))
            })?;
            let bytes = set.stream_bytes(slot);
            pieces.push(Cow::from(format!("file {name} {}\n", bytes.len()).into_bytes()));
            pieces.push(Cow::from(bytes));
        }
        Ok(ArchivePieces(pieces))
    }

    /// Length of the whole archive in bytes.
    pub(super) fn len(&self) -> usize {
        self.0.iter().map(|p| p.len()).sum()
    }

    /// Bytes `range` of the archive, copied out of the pieces it spans.
    pub(super) fn copy_range(&self, range: Range<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(range.len());
        let mut at = 0; // archive offset of the current piece
        for piece in &self.0 {
            let lo = range.start.max(at);
            let hi = range.end.min(at + piece.len());
            if lo < hi {
                out.extend_from_slice(&piece[lo - at..hi - at]);
            }
            at += piece.len();
        }
        out
    }
}

/// Serializes a trace as one shippable archive: every stream in
/// file-name order, names and bytes verbatim, from the bytes the set
/// holds (no file is read).
///
/// # Errors
///
/// A stream file whose name is not representable (not UTF-8, or
/// contains a space, a newline or a `/`).
pub fn archive_trace(set: &TraceSet) -> io::Result<Vec<u8>> {
    let pieces = ArchivePieces::of(set)?;
    Ok(pieces.copy_range(0..pieces.len()))
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
    /// Sets this store verified, most recently used first, at most
    /// [`REMEMBERED_SETS`]: filled by [`TraceStore::commit`] and
    /// [`TraceStore::get`].
    remembered: Mutex<Vec<Arc<TraceSet>>>,
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
        Ok(TraceStore {
            dir,
            quarantined: AtomicU64::new(0),
            remembered: Mutex::new(Vec::with_capacity(REMEMBERED_SETS)),
        })
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
    /// handshake must stay fast); verification happens on an entry's
    /// first [`TraceStore::get`], where a corrupt entry is quarantined
    /// and the next handshake stops advertising it.
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

    /// The verified set for `hash`. A missing entry directory is `None`
    /// (and forgets any remembered set: a wiped or quarantined entry is
    /// gone). A set this store already verified is served from memory.
    /// Otherwise the entry is loaded and its content hash re-derived
    /// from the bytes on disk: an entry that fails to load or whose hash
    /// disagrees is quarantined to `<entry>.bad` (preserving the bytes
    /// for inspection) and also reported as `None`, so the caller's next
    /// move — re-ship — is the same either way. There is no way to ask
    /// for an unverified set.
    pub fn get(&self, hash: u64) -> Option<Arc<TraceSet>> {
        let path = self.entry_dir(hash);
        // Held across the load, so concurrent `get`s verify once. Every
        // step below leaves the list valid, so a poisoned lock is usable.
        let mut remembered = self.remembered.lock().unwrap_or_else(PoisonError::into_inner);
        let at = remembered.iter().position(|s| s.content_hash() == hash);
        // Taken out of the list: dropped if the entry is gone, put back
        // at the front otherwise.
        let held = at.map(|i| remembered.remove(i));
        if !path.is_dir() {
            return None;
        }
        let set = match held {
            Some(set) => set,
            None => match TraceSet::load(&path) {
                Ok(set) if set.content_hash() == hash => set,
                _ => {
                    self.quarantine(&path);
                    return None;
                }
            },
        };
        Self::remember(&mut remembered, &set);
        Some(set)
    }

    /// Puts a verified `set` at the front of `remembered`, which holds no
    /// set of its hash, evicting the least recently used past the bound.
    fn remember(remembered: &mut Vec<Arc<TraceSet>>, set: &Arc<TraceSet>) {
        remembered.truncate(REMEMBERED_SETS - 1);
        remembered.insert(0, Arc::clone(set));
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

    /// Bytes staged for `hash` so far: the partial file's length (the
    /// resume point after a crash), or zero without one — also for an
    /// installed entry, whose partial is removed at commit (the
    /// `TraceOffer` handler answers for that case with a `get`).
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
    /// atomically and removes the partial. The installed set is
    /// remembered as verified, so the first [`TraceStore::get`] after a
    /// shipment loads nothing. On any failure the partial is discarded
    /// so the next offer re-ships from zero rather than resuming onto
    /// corrupt bytes.
    ///
    /// # Errors
    ///
    /// A short or corrupt archive (including a content-hash mismatch —
    /// the assembled bytes are not the trace the offer named), or I/O.
    pub fn commit(&self, hash: u64, total_len: u64) -> io::Result<Arc<TraceSet>> {
        let partial = self.partial_path(hash);
        let result = self.commit_inner(hash, total_len, &partial);
        match &result {
            Ok(set) => {
                // A `get` racing the rename may have verified the entry
                // too: one remembered set per hash.
                let mut remembered = self.remembered.lock().unwrap_or_else(PoisonError::into_inner);
                remembered.retain(|s| s.content_hash() != hash);
                Self::remember(&mut remembered, set);
            }
            Err(_) => {
                let _ = std::fs::remove_file(&partial);
            }
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
            // The loaded set holds every stream's bytes: let the staged
            // archive go first, so the two are never resident together.
            drop(bytes);
            let set = TraceSet::load(&tmp)?;
            if set.content_hash() != hash {
                let found = hex(set.content_hash());
                return Err(bad(format!("assembled archive hashes to {found}, offer named {}", hex(hash))));
            }
            let dest = self.entry_dir(hash);
            let _ = std::fs::remove_dir_all(&dest); // a quarantine raced us back
            std::fs::rename(&tmp, &dest)?;
            // The rename moved the very files just verified, so the set
            // only needs its dir and file paths pointed at the installed
            // entry — not a second read, hash and validation.
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
        capture_seeded(tag, 1)
    }

    fn capture_seeded(tag: &str, seed: u64) -> (PathBuf, Arc<TraceSet>) {
        let dir = tmp(&format!("cap-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let chip = ChipConfig::paper(Organization::Mesh);
        let set = crate::chip::capture_synthetic_trace(chip, Workload::WebSearch, seed, &dir, 2_000)
            .expect("capture trace");
        (dir, set)
    }

    /// Ships `set` into `store` whole: one staged chunk, committed.
    fn install(store: &TraceStore, set: &TraceSet) {
        let archive = archive_trace(set).unwrap();
        store.append_chunk(set.content_hash(), 0, &archive).unwrap();
        store.commit(set.content_hash(), archive.len() as u64).unwrap();
    }

    /// Flips the last byte of one installed stream file of `hash`.
    fn rot(store: &TraceStore, hash: u64) {
        let entry = store.entry_dir(hash);
        let stream = std::fs::read_dir(entry).unwrap().next().unwrap().unwrap().path();
        let mut bytes = std::fs::read(&stream).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&stream, &bytes).unwrap();
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
        assert!(
            Arc::ptr_eq(&installed, &loaded),
            "the commit verified the set: the first get loads nothing"
        );
        // The next process verifies the installed entry from disk.
        let next = TraceStore::open(&store_dir).unwrap();
        let reloaded = next.get(hash).expect("installed entry loads");
        assert_eq!(reloaded.content_hash(), hash);
        assert_eq!(installed.files(), reloaded.files());
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
    /// installed stream file, and checks the stores' answers: the store
    /// that committed the entry verified it then and serves what it
    /// verified; the next process to open the directory sees `held()`
    /// still advertise the entry (no verification on scan), but its
    /// `get()` must refuse it, quarantine it, and miss.
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
        let served = store.get(hash).expect("the committed set, verified at commit");
        assert_eq!(served.content_hash(), hash);
        let next = TraceStore::open(&store_dir).unwrap();
        assert_eq!(next.held(), vec![hash]);
        assert!(next.get(hash).is_none());
        assert_eq!(next.quarantined(), 1);
        assert!(entry.with_extension("bad").is_dir(), "bytes preserved for inspection");
        assert!(next.held().is_empty(), "quarantined entries are no longer advertised");
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

    /// The archive is the concatenation of a count line and, per stream in
    /// file-name order, a `file` line and the file's bytes — spelled out
    /// here from the files on disk. Every sub-range of it is what the
    /// driver cuts a chunk from.
    #[test]
    fn archive_bytes_are_the_files_on_disk_framed_in_name_order() {
        let (cap, set) = capture("golden");
        let mut golden = format!("nocout-trace-archive v1 files {}\n", set.files().len()).into_bytes();
        for path in set.files() {
            let bytes = std::fs::read(path).unwrap();
            let name = path.file_name().unwrap().to_str().unwrap();
            golden.extend_from_slice(format!("file {name} {}\n", bytes.len()).as_bytes());
            golden.extend_from_slice(&bytes);
        }
        assert_eq!(archive_trace(&set).unwrap(), golden);
        // The set archives from memory: the files are not read again.
        std::fs::remove_dir_all(&cap).unwrap();
        assert_eq!(archive_trace(&set).unwrap(), golden);
        let pieces = ArchivePieces::of(&set).unwrap();
        assert_eq!(pieces.len(), golden.len());
        for (off, end) in [(0, 1), (0, 40), (33, 34), (7, 5_000), (golden.len() - 9, golden.len())] {
            assert_eq!(pieces.copy_range(off..end), golden[off..end], "{off}..{end}");
        }
    }

    #[test]
    fn a_verified_set_is_remembered_until_its_entry_is_gone() {
        let (cap, set) = capture("remember");
        let store_dir = tmp("store-remember");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = TraceStore::open(&store_dir).unwrap();
        let hash = set.content_hash();
        install(&store, &set);
        let first = store.get(hash).expect("the commit verified the entry");
        let second = store.get(hash).expect("remembered");
        assert!(Arc::ptr_eq(&first, &second), "the second get serves the verified set itself");

        // A wiped entry is a miss, whatever the store remembers ...
        std::fs::remove_dir_all(store.entry_dir(hash)).unwrap();
        assert!(store.get(hash).is_none());
        assert_eq!(store.staged_len(hash), 0);
        assert!(store.held().is_empty());
        // ... and a fresh shipment is verified again, by its commit: rot it
        // after the commit and this store serves the set it verified,
        // while the next process verifies from disk and must notice.
        install(&store, &set);
        rot(&store, hash);
        let shipped = store.get(hash).expect("the fresh commit's set");
        assert!(!Arc::ptr_eq(&first, &shipped), "the wipe dropped the remembered set");
        let next = TraceStore::open(&store_dir).unwrap();
        assert!(next.get(hash).is_none());
        assert_eq!(next.quarantined(), 1);
        assert!(store.get(hash).is_none(), "a quarantined entry is gone for every store");
        install(&store, &set);
        let third = store.get(hash).expect("reinstalled entry verifies");
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(third.content_hash(), hash);
        let _ = std::fs::remove_dir_all(&cap);
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    #[test]
    fn one_set_more_than_the_bound_evicts_the_least_recently_used() {
        let store_dir = tmp("store-evict");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = TraceStore::open(&store_dir).unwrap();
        let hashes: Vec<u64> = (0..=REMEMBERED_SETS as u64)
            .map(|i| {
                let (cap, set) = capture_seeded(&format!("evict-{i}"), 10 + i);
                install(&store, &set);
                let _ = std::fs::remove_dir_all(&cap);
                set.content_hash()
            })
            .collect();
        // The commits remembered the last four. Get every entry once, in
        // order: each re-verifies the one set the previous get evicted,
        // and the last get pushes the first set out.
        let firsts: Vec<_> = hashes.iter().map(|&h| store.get(h).expect("verifies")).collect();
        // Rot the two oldest on disk. The second is still remembered and
        // served as verified; the evicted first must re-verify, and so
        // finds the rot.
        rot(&store, hashes[0]);
        rot(&store, hashes[1]);
        let again = store.get(hashes[1]).expect("still remembered");
        assert!(Arc::ptr_eq(&again, &firsts[1]));
        assert_eq!(store.quarantined(), 0);
        assert!(store.get(hashes[0]).is_none(), "evicted, so re-verified from disk");
        assert_eq!(store.quarantined(), 1);
        assert!(store.entry_dir(hashes[0]).with_extension("bad").is_dir());
        // That miss took no slot: the other sets are all still held.
        for (h, first) in hashes.iter().zip(&firsts).skip(1) {
            assert!(Arc::ptr_eq(&store.get(*h).expect("remembered"), first));
        }
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}
