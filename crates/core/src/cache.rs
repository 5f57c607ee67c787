//! On-disk results cache: memoizes [`SystemMetrics`] by [`RunSpec`]
//! content hash.
//!
//! Simulation points are pure functions of their spec (configuration +
//! workload + window + seed), so a campaign that shares points with an
//! earlier one — a figure grid re-run after editing one organization, a
//! sweep extended by two widths — only needs to pay for the new points.
//! This is the first slice of a Parsimon-style decomposition of the
//! campaign layer: independent sub-simulations keyed and memoized by
//! spec, with the aggregation layered on top.
//!
//! ## Key and invalidation
//!
//! The cache key is a *content* hash (FNV-1a 64) over
//! [`RunSpec::cache_key`]: the behaviour version, then the one spec line
//! ([`RunSpec::spec_line`]) that spells out every field of the spec — all
//! ten `ChipConfig` fields, both window lengths, the seed and the
//! workload token. Any field change —
//! different link width, another seed, a longer window — therefore maps
//! to a different entry; there are no partial hits. A trace workload
//! contributes its *content* hash plus stream/instruction counts (see
//! `nocout_workloads::trace`), so editing any stream byte invalidates
//! its cached replays even when the path is unchanged. The canonical
//! string is stored inside the entry and verified on every load, so for
//! synthetic specs a hash collision (or a format change that reuses a
//! hash) degrades to a miss, never to wrong data; for traces the
//! canonical string itself contains a 64-bit digest of the content, so
//! that guarantee is probabilistic (aliasing needs an FNV-64 collision
//! *plus* matching stream/instruction counts). Bump
//! `FORMAT` when the entry layout changes; bump the `v3` prefix in
//! [`RunSpec::cache_key`] when simulator *behaviour* changes so that
//! stale results from older binaries cannot be replayed — an older entry
//! is a plain miss, and no reader for older forms is kept.
//!
//! Metrics round-trip bit-exactly — a cache hit is indistinguishable
//! from re-running the simulation, a property the integration tests and
//! the CI byte-identity gate both enforce — because the entry is written
//! and read under the workspace's one set of text rules
//! (`nocout_sim::text`; "Text formats" in `docs/distributed-campaigns.md`):
//! floats as the hex of their bits, and any byte the writer would not
//! have written, after the last line included, makes the entry a miss.
//!
//! ## Concurrency
//!
//! Entries are written to a temporary file and atomically renamed into
//! place, so concurrent sweeps sharing a cache directory can race only
//! toward identical bytes. Stores are best-effort: an unwritable cache
//! degrades to uncached operation rather than failing the run.

use crate::metrics::{LlcSummary, MemSummary, NetSummary, SystemMetrics, TailSummary};
use crate::runner::{RunSpec, SPEC_LINE_BYTES};
use nocout_sim::hash::fnv1a;
use nocout_sim::text::{float, hex, whole, Reader, TextError};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};

/// Entry format version; part of every file and checked on load.
const FORMAT: &str = "nocout-results-cache v2";

impl RunSpec {
    /// The canonical, versioned rendering of this spec that the results
    /// cache hashes and verifies: the behaviour version, then
    /// [`RunSpec::spec_line`] — every field of the spec by name, so any
    /// change to any field changes the key (the invalidation rule is
    /// exactly "the spec changed"). Trace workloads render as their
    /// *content* hash, so editing or re-capturing a trace directory
    /// invalidates its cached replay results even at the same path. Bump
    /// the `v3` prefix when the simulator's outputs change for unchanged
    /// specs (v2 → v3: the network's all-class p50/p99 come from the
    /// merged per-class `LatencyHist`s, and the key became the spec line).
    pub fn cache_key(&self) -> String {
        let mut key = String::with_capacity(SPEC_LINE_BYTES);
        key.push_str("v3 ");
        self.push_spec_line(&mut key);
        key
    }
}

/// A directory of memoized simulation results, plus hit/miss accounting
/// for the run it is attached to.
///
/// # Examples
///
/// ```no_run
/// use nocout::cache::ResultsCache;
/// use nocout::config::{ChipConfig, Organization};
/// use nocout::runner::RunSpec;
/// use nocout_workloads::Workload;
///
/// let cache = ResultsCache::open("results-cache").unwrap();
/// let spec = RunSpec::new(ChipConfig::paper(Organization::Mesh), Workload::WebSearch);
/// if cache.get(&spec).is_none() {
///     let metrics = nocout::run(&spec);
///     cache.put(&spec, &metrics);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ResultsCache {
    dir: PathBuf,
    hits: Cell<u64>,
    misses: Cell<u64>,
    store_failures: Cell<u64>,
    quarantined: Cell<u64>,
    /// What every `get` reads its entry file into: a scratch buffer, not
    /// a memo — it holds no entry past the lookup that read it, and never
    /// grows past `MAX_ENTRY`.
    read_buf: RefCell<Vec<u8>>,
}

impl ResultsCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open<P: Into<PathBuf>>(dir: P) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultsCache {
            dir,
            hits: Cell::new(0),
            misses: Cell::new(0),
            store_failures: Cell::new(0),
            quarantined: Cell::new(0),
            read_buf: RefCell::new(Vec::new()),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache hits recorded by this handle.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses recorded by this handle.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries this handle failed to store (warned once, then counted).
    pub fn store_failures(&self) -> u64 {
        self.store_failures.get()
    }

    /// Corrupt or key-mismatched entries this handle moved aside to
    /// `<entry>.bad`.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.get()
    }

    /// The entry file of a [`RunSpec::cache_key`], named by its FNV-1a 64
    /// content hash.
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join([hex(fnv1a(key.as_bytes())).as_str(), ".metrics"].concat())
    }

    /// Looks the spec up. An entry that cannot be opened or read is a plain
    /// miss; bytes that were read and are not exactly this spec's entry —
    /// corrupt, truncated, key-mismatched, not UTF-8 or longer than any
    /// entry can be — are a miss too, and are *quarantined*: renamed to
    /// `<entry>.bad` (preserving the bytes for inspection) and counted in
    /// [`ResultsCache::quarantined`], so repeated lookups of the same spec
    /// do not re-read and re-parse a file that can never hit, and so the
    /// next `put` recreates the entry cleanly.
    pub fn get(&self, spec: &RunSpec) -> Option<SystemMetrics> {
        let key = spec.cache_key();
        let path = self.entry_path(&key);
        let mut buf = self.read_buf.borrow_mut();
        let loaded = read_file(&path, &mut buf).ok().and_then(|bytes| {
            let text = bytes.and_then(|bytes| std::str::from_utf8(bytes).ok());
            let parsed = text.and_then(|text| parse_entry(text, &key));
            // Present but unusable: move it out of the lookup path.
            if parsed.is_none() && std::fs::rename(&path, path.with_extension("bad")).is_ok() {
                self.quarantined.set(self.quarantined.get() + 1);
            }
            parsed
        });
        match &loaded {
            Some(_) => self.hits.set(self.hits.get() + 1),
            None => self.misses.set(self.misses.get() + 1),
        }
        loaded
    }

    /// Stores a result. Best-effort: an I/O failure never fails the
    /// simulation that produced the metrics. The first failure per handle
    /// warns on stderr; subsequent ones are only counted
    /// ([`ResultsCache::store_failures`]) so a fully unwritable cache
    /// directory does not drown a campaign in identical warnings.
    pub fn put(&self, spec: &RunSpec, metrics: &SystemMetrics) {
        let key = spec.cache_key();
        let body = render_entry(&key, metrics);
        let path = self.entry_path(&key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = std::fs::write(&tmp, body).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            if self.store_failures.get() == 0 {
                eprintln!(
                    "warning: could not store cache entry {}: {e} \
                     (further store failures will be counted, not repeated)",
                    path.display()
                );
            }
            self.store_failures.set(self.store_failures.get() + 1);
        }
    }
}

/// What one `read` of an entry file first asks for; an entry of a 64-core
/// chip (≈ 1.9 KB) fits, so a hit is one read of data and one that
/// returns 0.
const READ_CHUNK: usize = 4096;

/// The longest file a lookup reads: far above any entry (a 128-core
/// chip's is ≈ 3 KB), so a longer file is not an entry, whatever the rest
/// of it holds, and the kept read buffer never grows past this.
const MAX_ENTRY: usize = 64 * 1024;

/// Reads the file at `path` into `buf` (grown from [`READ_CHUNK`], by
/// doubling, to at most [`MAX_ENTRY`], and kept at that length): `open`,
/// `read` until it returns 0, `close`. Its bytes, or `None` for a file
/// longer than `MAX_ENTRY`, which is left unread past the byte that
/// proves it. `std::fs::read` would spend an `fstat` on a size hint first.
fn read_file<'b>(path: &Path, buf: &'b mut Vec<u8>) -> io::Result<Option<&'b [u8]>> {
    let mut file = File::open(path)?;
    let (mut len, mut past_the_cap) = (0, [0u8]);
    loop {
        if len == buf.len() && len < MAX_ENTRY {
            buf.resize((2 * len).clamp(READ_CHUNK, MAX_ENTRY), 0);
        }
        let into = if len < MAX_ENTRY { &mut buf[len..] } else { &mut past_the_cap[..] };
        match file.read(into) {
            Ok(0) => return Ok(Some(&buf[..len])),
            Ok(_) if len == MAX_ENTRY => return Ok(None),
            Ok(n) => len += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Renders a metrics entry: the versioned header, the canonical key, then
/// every metric field, counts in decimal and floats as the hex of their
/// IEEE-754 bits (`nocout_sim::text`). Also the bit-exact payload format
/// of `crate::distribute` result frames and the driver journal.
pub fn render_entry(key: &str, m: &SystemMetrics) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{FORMAT}");
    let _ = writeln!(s, "key {key}");
    let _ = writeln!(s, "active_cores {}", m.active_cores);
    let _ = writeln!(s, "cycles {}", m.cycles);
    let _ = writeln!(s, "instructions {}", m.instructions);
    let _ = writeln!(s, "fetch_stall_fraction {}", float(m.fetch_stall_fraction));
    let _ = write!(s, "per_core_ipc");
    for ipc in &m.per_core_ipc {
        let _ = write!(s, " {}", float(*ipc));
    }
    s.push('\n');
    let (l, n) = (&m.llc, &m.network);
    let _ = writeln!(
        s,
        "llc {} {} {} {} {} {}",
        l.accesses, l.hits, l.misses, l.snoops_sent, l.snooping_accesses, l.writebacks
    );
    let _ = writeln!(
        s,
        "net_counts {} {} {} {} {} {}",
        n.packets, n.p50_latency, n.p99_latency, n.buffer_writes, n.buffer_reads, n.xbar_traversals
    );
    let _ = writeln!(
        s,
        "net_lat {} {} {} {}",
        float(n.mean_latency),
        float(n.mean_request_latency),
        float(n.mean_response_latency),
        float(n.flit_mm)
    );
    let _ = writeln!(s, "mem {} {}", m.memory.reads, m.memory.writes);
    let _ = writeln!(s, "ifetch_wait {}", m.ifetch_fill_wait_cycles);
    for (name, t) in [
        ("tail_block", &m.block_latency),
        ("tail_fill", &m.fill_latency),
        ("tail_llc_miss", &m.llc_miss_latency),
        ("tail_request", &m.request_latency),
        ("net_tail_request", &n.request_tail),
        ("net_tail_snoop", &n.snoop_tail),
        ("net_tail_response", &n.response_tail),
    ] {
        let _ = writeln!(s, "{name} {} {} {} {} {}", t.count, float(t.mean), t.p50, t.p99, t.p999);
    }
    s
}

/// Reads one [`render_entry`] rendering at `r`, through its last line's
/// newline, verifying the embedded key against `expected_key`.
pub(crate) fn read_entry(r: &mut Reader<'_>, expected_key: &str) -> Result<SystemMetrics, TextError> {
    fn tail(r: &mut Reader<'_>, name: &str) -> Result<TailSummary, TextError> {
        r.eol()?.expect(name)?;
        Ok(TailSummary { count: r.num()?, mean: r.float()?, p50: r.num()?, p99: r.num()?, p999: r.num()? })
    }
    if r.line()? != FORMAT || r.expect("key")?.line()? != expected_key {
        return Err(TextError(format!("expected the `{FORMAT}` entry of `{expected_key}`")));
    }
    let active_cores = r.expect("active_cores")?.num()?;
    let cycles = r.eol()?.expect("cycles")?.num()?;
    let instructions = r.eol()?.expect("instructions")?.num()?;
    let fetch_stall_fraction = r.eol()?.expect("fetch_stall_fraction")?.float()?;
    r.eol()?.expect("per_core_ipc")?;
    // Sized from the line: each float is a space and sixteen digits.
    let rest = r.clone().rest();
    let mut per_core_ipc = Vec::with_capacity(rest.find('\n').unwrap_or(rest.len()) / 17);
    while !r.at_eol() {
        per_core_ipc.push(r.float()?);
    }
    r.eol()?.expect("llc")?;
    let llc = LlcSummary {
        accesses: r.num()?,
        hits: r.num()?,
        misses: r.num()?,
        snoops_sent: r.num()?,
        snooping_accesses: r.num()?,
        writebacks: r.num()?,
    };
    r.eol()?.expect("net_counts")?;
    let (packets, p50_latency, p99_latency) = (r.num()?, r.num()?, r.num()?);
    let (buffer_writes, buffer_reads, xbar_traversals) = (r.num()?, r.num()?, r.num()?);
    r.eol()?.expect("net_lat")?;
    let (mean_latency, mean_request_latency) = (r.float()?, r.float()?);
    let (mean_response_latency, flit_mm) = (r.float()?, r.float()?);
    let memory = MemSummary { reads: r.eol()?.expect("mem")?.num()?, writes: r.num()? };
    let ifetch_fill_wait_cycles = r.eol()?.expect("ifetch_wait")?.num()?;
    let metrics = SystemMetrics {
        per_core_ipc,
        active_cores,
        cycles,
        instructions,
        fetch_stall_fraction,
        llc,
        memory,
        ifetch_fill_wait_cycles,
        block_latency: tail(r, "tail_block")?,
        fill_latency: tail(r, "tail_fill")?,
        llc_miss_latency: tail(r, "tail_llc_miss")?,
        request_latency: tail(r, "tail_request")?,
        network: NetSummary {
            packets,
            mean_latency,
            mean_request_latency,
            mean_response_latency,
            p50_latency,
            p99_latency,
            flit_mm,
            buffer_writes,
            buffer_reads,
            xbar_traversals,
            request_tail: tail(r, "net_tail_request")?,
            snoop_tail: tail(r, "net_tail_snoop")?,
            response_tail: tail(r, "net_tail_response")?,
        },
    };
    r.eol()?;
    Ok(metrics)
}

/// Parses [`render_entry`] output, verifying the embedded key against
/// `expected_key`; any mismatch, truncation, malformed field or byte
/// after the last line is `None`.
pub(crate) fn parse_entry(text: &str, expected_key: &str) -> Option<SystemMetrics> {
    whole(text, |r| read_entry(r, expected_key)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChipConfig, Organization};
    use nocout_workloads::Workload;

    fn spec() -> RunSpec {
        RunSpec::new(
            ChipConfig::with_cores(Organization::Mesh, 16),
            Workload::WebSearch,
        )
        .fast()
    }

    fn metrics() -> SystemMetrics {
        let tail = |count, mean, p50, p99, p999| TailSummary { count, mean, p50, p99, p999 };
        SystemMetrics {
            per_core_ipc: vec![0.25, 0.0, 1.0 / 3.0],
            active_cores: 3,
            cycles: 10_000,
            instructions: 12_345,
            fetch_stall_fraction: 0.37,
            llc: LlcSummary {
                accesses: 9,
                hits: 7,
                misses: 2,
                snoops_sent: 1,
                snooping_accesses: 4,
                writebacks: 3,
            },
            network: NetSummary {
                packets: 42,
                mean_latency: 17.25,
                mean_request_latency: 13.5,
                mean_response_latency: 21.125,
                p50_latency: 16,
                p99_latency: 61,
                flit_mm: 1234.5678,
                buffer_writes: 5,
                buffer_reads: 6,
                xbar_traversals: 7,
                request_tail: tail(30, 14.75, 14, 29, 31),
                snoop_tail: TailSummary::default(),
                response_tail: tail(12, 22.5, 21, 44, 47),
            },
            memory: MemSummary { reads: 11, writes: 4 },
            ifetch_fill_wait_cycles: 321,
            block_latency: tail(19, 130.0625, 120, 400, 512),
            fill_latency: tail(8, 77.5, 70, 150, 151),
            llc_miss_latency: tail(2, 90.0, 88, 92, 93),
            request_latency: tail(55, 333.125, 300, 900, 1024),
        }
    }

    /// Every field of every summary reads back: the fixture has no two
    /// equal values on one line, and `{:?}` prints a float's shortest
    /// round-tripping form, so equal renderings mean equal bits.
    #[test]
    fn entry_round_trips_bit_exactly() {
        let m = metrics();
        let key = spec().cache_key();
        let parsed = parse_entry(&render_entry(&key, &m), &key).expect("parses");
        assert_eq!(format!("{parsed:?}"), format!("{m:?}"));
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let m = metrics();
        let entry = render_entry(&spec().cache_key(), &m);
        let other = spec().with_seed(999).cache_key();
        assert!(parse_entry(&entry, &other).is_none());
    }

    #[test]
    fn bytes_after_the_last_line_are_a_miss() {
        let key = spec().cache_key();
        let entry = render_entry(&key, &metrics());
        assert!(parse_entry(&entry, &key).is_some());
        for junk in ["\n", " ", "garbage\n", "net_tail_response 1 2 3 4 5\n"] {
            assert!(parse_entry(&format!("{entry}{junk}"), &key).is_none(), "`{junk}`");
        }
    }

    /// One variant per RunSpec field — all ten ChipConfig fields, the
    /// workload, both window lengths, and the seed. A `spec_line()` (and
    /// so `cache_key()`) that drops a field fails here rather than
    /// silently aliasing two configurations to one entry, and so does a
    /// `parse_line()` that does not read the field back.
    #[test]
    fn every_spec_field_changes_the_key() {
        let base = spec();
        type Change = fn(&mut RunSpec);
        let variants: [(&str, Change); 14] = [
            ("seed", |v| v.seed = 2),
            ("workload", |v| v.workload = Workload::SatSolver.into()),
            ("measure_cycles", |v| v.window.measure_cycles += 1),
            ("warmup_cycles", |v| v.window.warmup_cycles += 1),
            ("organization", |v| v.chip.organization = Organization::NocOut),
            ("cores", |v| v.chip.cores = 64),
            ("llc_total_bytes", |v| v.chip.llc_total_bytes *= 2),
            ("link_width_bits", |v| v.chip.link_width_bits = 64),
            ("mem_channels", |v| v.chip.mem_channels += 1),
            ("banks_per_llc_tile", |v| v.chip.banks_per_llc_tile += 1),
            ("concentration", |v| v.chip.concentration = 2),
            ("active_core_override", |v| v.chip.active_core_override = Some(4)),
            ("express_links", |v| v.chip.express_links = true),
            ("llc_rows", |v| v.chip.llc_rows = 2),
        ];
        for (field, change) in variants {
            let mut variant = base.clone();
            change(&mut variant);
            assert_ne!(variant.cache_key(), base.cache_key(), "field {field}");
            let read = RunSpec::parse_line(&variant.spec_line(), |_| unreachable!("no trace"));
            assert_eq!(read, Ok(variant), "field {field}");
        }
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_reparsed() {
        let dir = std::env::temp_dir().join(format!(
            "nocout-cache-quarantine-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultsCache::open(&dir).unwrap();
        let s = spec();
        cache.put(&s, &metrics());
        assert!(cache.get(&s).is_some());

        // Corrupt the entry on disk: the lookup must miss, and the bytes
        // must move to `<entry>.bad` so the next lookup is a plain
        // missing-file miss instead of another parse of garbage.
        let path = cache.entry_path(&s.cache_key());
        std::fs::write(&path, "not a cache entry").unwrap();
        assert!(cache.get(&s).is_none());
        assert_eq!(cache.quarantined(), 1);
        assert!(!path.exists());
        let bad = path.with_extension("bad");
        assert_eq!(std::fs::read_to_string(&bad).unwrap(), "not a cache entry");

        // Second lookup: still a miss, but nothing new to quarantine.
        assert!(cache.get(&s).is_none());
        assert_eq!(cache.quarantined(), 1);

        // A fresh put recreates the entry and lookups hit again.
        cache.put(&s, &metrics());
        assert!(cache.get(&s).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache over an empty directory of this test's own.
    fn fresh_cache(test: &str) -> ResultsCache {
        let dir = std::env::temp_dir().join(format!("nocout-cache-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultsCache::open(dir).unwrap()
    }

    /// Lengths on both sides of every decision the read loop makes, then
    /// bytes that are not text at all: each is read whole — through one
    /// buffer, long reads before short ones — is a miss, and is moved aside
    /// with its bytes kept.
    #[test]
    fn bytes_that_are_not_an_entry_are_quarantined_whatever_their_length() {
        let cache = fresh_cache("not-an-entry");
        let s = spec();
        let path = cache.entry_path(&s.cache_key());
        let lengths = [0, READ_CHUNK, READ_CHUNK + 1, 3 * READ_CHUNK, MAX_ENTRY, 1];
        let mut files: Vec<Vec<u8>> = lengths.map(|n| vec![b'x'; n]).into();
        files.push(b"\xff\n".to_vec());
        let mut buf = Vec::new();
        for (done, bytes) in files.iter().enumerate() {
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(read_file(&path, &mut buf).unwrap(), Some(&bytes[..]));
            assert!(cache.get(&s).is_none());
            assert_eq!(cache.quarantined(), done as u64 + 1, "{} bytes", bytes.len());
            assert!(!path.exists());
            assert_eq!(&std::fs::read(path.with_extension("bad")).unwrap(), bytes);
        }
        assert_eq!((cache.hits(), cache.misses()), (0, files.len() as u64));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A file one byte past the cap — here this spec's entry, padded — is
    /// not an entry: it is judged without being read whole, quarantined
    /// with its bytes kept, a miss, and leaves the handle's buffer no
    /// larger than the cap. The next `put` is a hit through that buffer.
    #[test]
    fn a_file_one_byte_past_the_cap_is_quarantined_unread() {
        let cache = fresh_cache("past-the-cap");
        let s = spec();
        let path = cache.entry_path(&s.cache_key());
        let mut bytes = render_entry(&s.cache_key(), &metrics()).into_bytes();
        bytes.resize(MAX_ENTRY + 1, b'\n');
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_file(&path, &mut Vec::new()).unwrap(), None);
        assert!(cache.get(&s).is_none());
        assert_eq!((cache.misses(), cache.quarantined()), (1, 1));
        assert_eq!(std::fs::read(path.with_extension("bad")).unwrap(), bytes);
        assert!(cache.read_buf.borrow().capacity() <= MAX_ENTRY);
        cache.put(&s, &metrics());
        assert!(cache.get(&s).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn an_entry_longer_than_a_read_round_trips_bit_exactly() {
        let cache = fresh_cache("long-entry");
        let s = spec();
        let m = SystemMetrics { per_core_ipc: (0..400).map(|i| 1.0 / f64::from(i)).collect(), ..metrics() };
        cache.put(&s, &m);
        assert!(std::fs::read(cache.entry_path(&s.cache_key())).unwrap().len() > READ_CHUNK);
        assert_eq!(format!("{:?}", cache.get(&s).expect("hits")), format!("{m:?}"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// What cannot be read is a plain miss: there are no bytes to judge.
    #[test]
    fn a_directory_at_the_entry_path_is_a_miss_and_stays() {
        let cache = fresh_cache("directory");
        let s = spec();
        let path = cache.entry_path(&s.cache_key());
        std::fs::create_dir(&path).unwrap();
        assert!(cache.get(&s).is_none());
        assert_eq!((cache.misses(), cache.quarantined()), (1, 0));
        assert!(path.is_dir() && !path.with_extension("bad").exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// The format did not move with the reader: an entry rendered by the
    /// binary before it (PR 23, pasted from its output) is this one's hit,
    /// and this one renders the same bytes.
    #[test]
    fn an_entry_written_before_the_single_pass_reader_is_a_hit() {
        const WRITTEN_AT_PR_23: &str = "nocout-results-cache v2\n\
            key v3 org=Mesh cores=16 llc_bytes=8388608 link_bits=128 mem_channels=4 banks=2 conc=1 \
            active=- express=0 llc_rows=1 warmup=2000 measure=10000 seed=1 workload=synthetic:WebSearch\n\
            active_cores 3\ncycles 10000\ninstructions 12345\nfetch_stall_fraction 3fd7ae147ae147ae\n\
            per_core_ipc 3fd0000000000000 0000000000000000 3fd5555555555555\n\
            llc 9 7 2 1 4 3\nnet_counts 42 16 61 5 6 7\n\
            net_lat 4031400000000000 402b000000000000 4035200000000000 40934a456d5cfaad\n\
            mem 11 4\nifetch_wait 321\n\
            tail_block 19 4060420000000000 120 400 512\ntail_fill 8 4053600000000000 70 150 151\n\
            tail_llc_miss 2 4056800000000000 88 92 93\ntail_request 55 4074d20000000000 300 900 1024\n\
            net_tail_request 30 402d800000000000 14 29 31\nnet_tail_snoop 0 0000000000000000 0 0 0\n\
            net_tail_response 12 4036800000000000 21 44 47\n";
        let key = spec().cache_key();
        let parsed = parse_entry(WRITTEN_AT_PR_23, &key).expect("parses");
        assert_eq!(format!("{parsed:?}"), format!("{:?}", metrics()));
        assert_eq!(render_entry(&key, &metrics()), WRITTEN_AT_PR_23);
    }

    #[test]
    fn store_failures_are_counted() {
        let dir = std::env::temp_dir().join(format!(
            "nocout-cache-storefail-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultsCache::open(&dir).unwrap();
        // Remove the directory out from under the handle: every store now
        // fails, and the handle counts each one (warning only once).
        std::fs::remove_dir_all(&dir).unwrap();
        cache.put(&spec(), &metrics());
        cache.put(&spec().with_seed(2), &metrics());
        assert_eq!(cache.store_failures(), 2);
    }
}
