//! Warmup + measurement run orchestration (the SimFlex-style methodology
//! of §5.4, minus the statistical sampling we replace with fixed windows
//! over deterministic seeds).
//!
//! ## Serial and batch execution
//!
//! [`run`] executes a single [`RunSpec`]. Simulation points are fully
//! independent (each builds its own chip from its spec and seed), so
//! experiment campaigns — the chip × workload × seed grids behind every
//! figure — parallelize trivially. [`BatchRunner`] exploits that with a
//! worker pool over OS threads: [`BatchRunner::run_batch_outcomes`]
//! executes a slice of specs and returns one outcome per spec **keyed by
//! spec index**, bit-identical to running each spec through [`run`]
//! serially (each point's determinism depends only on its spec and seed,
//! never on scheduling).
//!
//! Which seeds a point runs, and how their results fold into a mean and a
//! 95 % interval, is decided in one place: [`crate::campaign::Campaign`].
//!
//! `repro` and the other `nocout-experiments` binaries expose the pool
//! width as `--jobs N` (`0`/unset = all hardware threads); see
//! `nocout_experiments::cli`.
//!
//! ## Results cache
//!
//! Because every point is a pure function of its spec, results can be
//! memoized: [`BatchRunner::with_cache`] attaches a
//! [`crate::cache::ResultsCache`] and [`BatchRunner::run_batch_outcomes`]
//! then consults it before simulating, storing whatever it had to
//! compute. The same binaries expose this as `--cache DIR` (see
//! `nocout_experiments::cli`), so re-running a figure pays only for the
//! points its previous run didn't cover.
//!
//! The key is the hash of [`RunSpec::cache_key`] — the behaviour version
//! and [`RunSpec::spec_line`], every spec field by name — so any field
//! change is a different entry, and entries round-trip metrics
//! bit-exactly; [`crate::cache`] has the invalidation and fidelity rules.
//!
//! ```
//! use nocout::config::{ChipConfig, Organization};
//! use nocout::runner::{run, BatchRunner, RunSpec};
//! use nocout_workloads::Workload;
//!
//! let specs: Vec<RunSpec> = [Workload::WebSearch, Workload::DataServing]
//!     .into_iter()
//!     .map(|w| RunSpec::new(ChipConfig::with_cores(Organization::Mesh, 16), w).fast())
//!     .collect();
//! let batch = BatchRunner::new(2).run_batch_outcomes(&specs);
//! // Identical to the serial path, point for point.
//! let first = batch[0].as_ref().expect("a 16-core mesh point runs");
//! assert_eq!(first, &run(&specs[0]));
//! ```

use crate::chip::ScaleOutChip;
use crate::config::ChipConfig;
use crate::metrics::SystemMetrics;
use nocout_sim::config::MeasurementWindow;
use nocout_sim::text::{push_num, whole, Reader, TextError};
use nocout_workloads::trace::TraceSet;
use nocout_workloads::WorkloadClass;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Why one simulation point failed to produce metrics.
///
/// Points are pure functions of their spec, so the only local failure
/// mode is a panic inside the simulator (a spec outside the model's
/// domain, an internal invariant trip). The distribution layer
/// (`crate::distribute`) adds transport failures on top — a shard
/// exhausted its retries — which also land here so one type describes
/// every way a point can be missing from a result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointError {
    /// The canonical `RunSpec::cache_key` of the point that failed.
    pub cache_key: String,
    /// Human-readable cause (panic payload or transport failure).
    pub message: String,
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "point `{}` failed: {}", self.cache_key, self.message)
    }
}

impl std::error::Error for PointError {}

/// What executing one point produced: metrics, or an isolated failure.
pub type PointOutcome = Result<SystemMetrics, PointError>;

/// Renders a caught panic payload as text (`&str` and `String` payloads
/// verbatim, anything else generically).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// [`run`] with per-point panic isolation: a panicking spec returns a
/// [`PointError`] naming the spec and the panic message instead of
/// unwinding into the caller (or, worse, tearing down a whole
/// [`BatchRunner`] scope and losing every other point of the batch).
pub fn run_outcome(spec: &RunSpec) -> PointOutcome {
    catch_unwind(AssertUnwindSafe(|| run(spec))).map_err(|payload| PointError {
        cache_key: spec.cache_key(),
        message: panic_message(payload),
    })
}

/// Room for a whole cache key — the version, then the spec line — so a key
/// or a spec line renders into one allocation.
pub(crate) const SPEC_LINE_BYTES: usize = 256;

/// One simulation point: chip × workload class × window × seed.
///
/// The workload can be a synthetic profile or a captured trace
/// ([`WorkloadClass`]); cloning is cheap either way (traces are shared
/// by reference). A trace workload is backed by on-disk streams that a
/// field-wise dump of the spec cannot capture: to archive or ship a
/// point, use the canonical [`RunSpec::cache_key`], which embeds the
/// trace content hash.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Chip configuration.
    pub chip: ChipConfig,
    /// Workload class to run (synthetic profile or trace replay).
    pub workload: WorkloadClass,
    /// Warmup/measurement window.
    pub window: MeasurementWindow,
    /// Workload seed.
    pub seed: u64,
}

impl RunSpec {
    /// A paper-like run at the default window.
    pub fn new(chip: ChipConfig, workload: impl Into<WorkloadClass>) -> Self {
        RunSpec {
            chip,
            workload: workload.into(),
            window: MeasurementWindow::default(),
            seed: 1,
        }
    }

    /// Shortens the window for tests.
    pub fn fast(mut self) -> Self {
        self.window = MeasurementWindow::fast();
        self
    }

    /// Overrides the measurement window.
    pub fn with_window(mut self, window: MeasurementWindow) -> Self {
        self.window = window;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The one rendering of a spec: every field as `key=value` in this
    /// fixed order on one line, the workload's
    /// [`WorkloadClass::cache_token`] last. [`RunSpec::cache_key`] is this
    /// line behind the behaviour version and a shard request carries it
    /// verbatim, so a field added to the spec is added here and in
    /// [`RunSpec::parse_line`], nowhere else.
    pub fn spec_line(&self) -> String {
        let mut line = String::with_capacity(SPEC_LINE_BYTES);
        self.push_spec_line(&mut line);
        line
    }

    /// Appends [`RunSpec::spec_line`] to `out`, field by field with
    /// `push_str` and `text::push_num` — no `core::fmt`, which a cache
    /// lookup would otherwise spend on every key.
    pub(crate) fn push_spec_line(&self, out: &mut String) {
        // Destructured in full, so a new `ChipConfig` field fails to
        // compile here until it is rendered (and `parse_line` until read).
        let ChipConfig {
            organization,
            cores,
            llc_total_bytes,
            link_width_bits,
            mem_channels,
            banks_per_llc_tile,
            concentration,
            active_core_override,
            express_links,
            llc_rows,
        } = self.chip;
        fn field(out: &mut String, key: &str, value: u64) {
            out.push_str(key);
            push_num(out, value);
        }
        out.push_str("org=");
        out.push_str(organization.key());
        field(out, " cores=", cores as u64);
        field(out, " llc_bytes=", llc_total_bytes);
        field(out, " link_bits=", link_width_bits.into());
        field(out, " mem_channels=", mem_channels as u64);
        field(out, " banks=", banks_per_llc_tile as u64);
        field(out, " conc=", concentration as u64);
        match active_core_override {
            Some(n) => field(out, " active=", n as u64),
            None => out.push_str(" active=-"),
        }
        field(out, " express=", express_links.into());
        field(out, " llc_rows=", llc_rows as u64);
        field(out, " warmup=", self.window.warmup_cycles);
        field(out, " measure=", self.window.measure_cycles);
        field(out, " seed=", self.seed);
        out.push_str(" workload=");
        self.workload.push_cache_token(out);
    }

    /// Reads a [`RunSpec::spec_line`] back: the same keys in the same
    /// order and nothing else, so an unknown, duplicate, missing or
    /// misplaced key is refused by name. `resolve` turns a trace token's
    /// content hash into the locally held trace (see
    /// [`WorkloadClass::parse_token`]).
    pub fn parse_line(
        line: &str,
        resolve: impl FnOnce(u64) -> Result<Arc<TraceSet>, TextError>,
    ) -> Result<RunSpec, TextError> {
        let mut r = Reader::new(line);
        let chip = ChipConfig {
            organization: r.prefix("org=")?.token()?.parse().map_err(TextError)?,
            cores: r.prefix("cores=")?.num()?,
            llc_total_bytes: r.prefix("llc_bytes=")?.num()?,
            link_width_bits: r.prefix("link_bits=")?.num()?,
            mem_channels: r.prefix("mem_channels=")?.num()?,
            banks_per_llc_tile: r.prefix("banks=")?.num()?,
            concentration: r.prefix("conc=")?.num()?,
            active_core_override: match r.prefix("active=")?.token()? {
                "-" => None,
                n => Some(whole(n, Reader::num)?),
            },
            express_links: r.prefix("express=")?.flag()?,
            llc_rows: r.prefix("llc_rows=")?.num()?,
        };
        let window =
            MeasurementWindow::new(r.prefix("warmup=")?.num()?, r.prefix("measure=")?.num()?);
        let seed = r.prefix("seed=")?.num()?;
        let workload = WorkloadClass::parse_token(r.prefix("workload=")?.token()?, resolve)?;
        r.end()?;
        Ok(RunSpec { chip, workload, window, seed })
    }
}

/// Executes one run: build, warm up, reset statistics, measure.
///
/// # Examples
///
/// ```
/// use nocout::config::{ChipConfig, Organization};
/// use nocout::runner::{run, RunSpec};
/// use nocout_workloads::Workload;
///
/// let spec = RunSpec::new(
///     ChipConfig::paper(Organization::NocOut),
///     Workload::WebSearch,
/// )
/// .fast();
/// let metrics = run(&spec);
/// assert!(metrics.aggregate_ipc() > 0.0);
/// ```
pub fn run(spec: &RunSpec) -> SystemMetrics {
    let mut chip = ScaleOutChip::new(spec.chip, spec.workload.clone(), spec.seed);
    // `run_for` fast-forwards through globally idle stretches while
    // remaining bit-identical to per-cycle ticking.
    chip.run_for(spec.window.warmup_cycles);
    chip.reset_stats();
    chip.run_for(spec.window.measure_cycles);
    chip.metrics()
}

/// A worker pool executing independent simulation points in parallel.
///
/// Results are keyed by spec index and bit-identical to the serial
/// [`run`] path: every simulation point is deterministic in its spec and
/// seed alone, and the pool only changes *when* points execute, never
/// *what* they compute. A [`Campaign`](crate::campaign::Campaign) runs
/// its whole grid — every point × seed — as one batch on a pool.
///
/// # Examples
///
/// ```
/// use nocout::campaign::Campaign;
/// use nocout::config::{ChipConfig, Organization};
/// use nocout::runner::BatchRunner;
/// use nocout_sim::config::MeasurementWindow;
/// use nocout_workloads::Workload;
///
/// let frame = Campaign::new()
///     .fixed(ChipConfig::with_cores(Organization::Mesh, 16))
///     .workloads([Workload::MapReduceC])
///     .seeds([1, 2, 3])
///     .window(MeasurementWindow::fast())
///     .run(&BatchRunner::new(2));
/// let p = &frame.results()[0];
/// assert_eq!(p.seeds_run, 3);
/// assert!(p.ipc > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner {
    jobs: usize,
    cache: Option<crate::cache::ResultsCache>,
}

impl Default for BatchRunner {
    /// A pool over all hardware threads.
    fn default() -> Self {
        BatchRunner::new(0)
    }
}

impl BatchRunner {
    /// Creates a pool of `jobs` workers; `0` means one worker per
    /// hardware thread.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        BatchRunner { jobs, cache: None }
    }

    /// A single-worker pool (runs everything on the calling thread).
    pub fn serial() -> Self {
        BatchRunner {
            jobs: 1,
            cache: None,
        }
    }

    /// Attaches a results cache: batches will consult it before
    /// simulating and store whatever they had to compute.
    pub fn with_cache(mut self, cache: crate::cache::ResultsCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached results cache, if any (its hit/miss counters account
    /// for every lookup this runner performed).
    pub fn cache(&self) -> Option<&crate::cache::ResultsCache> {
        self.cache.as_ref()
    }

    /// Number of worker threads this pool uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes every spec and returns one outcome per spec, keyed by spec
    /// index, identical to mapping [`run_outcome`] over the slice. With an
    /// attached cache, hits skip simulation entirely (entries round-trip
    /// bit-exactly) and only the misses go to the worker pool; successful
    /// points are stored, failed points are not. A pathological spec
    /// fails *its own* point ([`PointError`]) while the rest of the batch
    /// completes — a panic never unwinds a pool thread (which, under
    /// `std::thread::scope`, would re-panic on scope exit and discard the
    /// whole batch).
    pub fn run_batch_outcomes(&self, specs: &[RunSpec]) -> Vec<PointOutcome> {
        let Some(cache) = &self.cache else {
            return self.run_batch_uncached(specs);
        };
        let mut out: Vec<Option<PointOutcome>> =
            specs.iter().map(|s| cache.get(s).map(Ok)).collect();
        let todo: Vec<usize> = (0..specs.len()).filter(|&i| out[i].is_none()).collect();
        let todo_specs: Vec<RunSpec> = todo.iter().map(|&i| specs[i].clone()).collect();
        let fresh = self.run_batch_uncached(&todo_specs);
        for (&i, o) in todo.iter().zip(fresh) {
            if let Ok(m) = &o {
                cache.put(&specs[i], m);
            }
            out[i] = Some(o);
        }
        out.into_iter()
            .map(|m| m.expect("every spec is cached or simulated"))
            .collect()
    }

    fn run_batch_uncached(&self, specs: &[RunSpec]) -> Vec<PointOutcome> {
        if self.jobs == 1 || specs.len() <= 1 {
            return specs.iter().map(run_outcome).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(specs.len()) {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let outcome = run_outcome(&specs[i]);
                    if tx.send((i, outcome)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut out: Vec<Option<PointOutcome>> =
                (0..specs.len()).map(|_| None).collect();
            for (i, outcome) in rx {
                out[i] = Some(outcome);
            }
            out.into_iter()
                .map(|m| m.expect("every spec produces an outcome"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::config::Organization;
    use nocout_sim::text::hex;
    use nocout_workloads::{OpenLoopSpec, Workload};

    /// `RunSpec::spec_line` as it was, through `core::fmt` and the
    /// organization's derived `Debug`, kept as the oracle.
    fn old_spec_line(spec: &RunSpec) -> String {
        let ChipConfig {
            organization,
            cores,
            llc_total_bytes,
            link_width_bits,
            mem_channels,
            banks_per_llc_tile,
            concentration,
            active_core_override,
            express_links,
            llc_rows,
        } = spec.chip;
        let active = active_core_override.map_or("-".to_string(), |n| n.to_string());
        let (express, window) = (u8::from(express_links), spec.window);
        let workload = match &spec.workload {
            WorkloadClass::Synthetic(w) => format!("synthetic:{}", w.key()),
            WorkloadClass::Trace(t) => {
                format!("trace@{}x{}i{}", hex(t.content_hash()), t.streams(), t.total_instructions())
            }
            WorkloadClass::OpenLoop(s) => {
                format!("openloop:{}:{}:{}", s.workload.key(), s.interval, s.service_instrs)
            }
        };
        format!(
            "org={organization:?} cores={cores} llc_bytes={llc_total_bytes} \
             link_bits={link_width_bits} mem_channels={mem_channels} banks={banks_per_llc_tile} \
             conc={concentration} active={active} express={express} llc_rows={llc_rows} \
             warmup={} measure={} seed={} workload={workload}",
            window.warmup_cycles, window.measure_cycles, spec.seed,
        )
    }

    /// Every organization, `active` unset and set, `express` off and on,
    /// and each workload form: the same bytes as the oracle, and a cache
    /// key that fits the one allocation it is rendered into.
    #[test]
    fn the_spec_line_renders_as_it_did_through_core_fmt() {
        let dir = std::env::temp_dir().join(format!("nocout-spec-line-{}", std::process::id()));
        let chip = ChipConfig::with_cores(Organization::Mesh, 16);
        let trace = crate::chip::capture_synthetic_trace(chip, Workload::WebSearch, 1, &dir, 100).unwrap();
        let open_loop = OpenLoopSpec { workload: Workload::DataServing, interval: 1600, service_instrs: 32 };
        let workloads = [Workload::SatSolver.into(), open_loop.into(), WorkloadClass::Trace(trace)];
        let switches = [None, Some(12)].into_iter().flat_map(|a| [(a, false), (a, true)]);
        for organization in Organization::ALL {
            for (active_core_override, express_links) in switches.clone() {
                for workload in &workloads {
                    let chip = ChipConfig { active_core_override, express_links, ..ChipConfig::paper(organization) };
                    let spec = RunSpec::new(chip, workload.clone()).with_seed(u64::MAX);
                    assert_eq!(spec.spec_line(), old_spec_line(&spec));
                    let key = spec.cache_key();
                    assert_eq!(key, format!("v3 {}", old_spec_line(&spec)));
                    assert_eq!(key.capacity(), SPEC_LINE_BYTES, "`{key}` grew its allocation");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_produces_nonzero_ipc() {
        let spec = RunSpec::new(
            ChipConfig::with_cores(Organization::Mesh, 16),
            Workload::MapReduceC,
        )
        .fast();
        let m = run(&spec);
        assert!(m.aggregate_ipc() > 0.0);
        assert_eq!(m.cycles, spec.window.measure_cycles);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = RunSpec::new(
            ChipConfig::with_cores(Organization::NocOut, 64),
            Workload::SatSolver,
        )
        .fast();
        assert_eq!(format!("{:?}", run(&spec)), format!("{:?}", run(&spec)));
    }

    #[test]
    fn different_seeds_differ() {
        let spec = RunSpec::new(
            ChipConfig::with_cores(Organization::Mesh, 16),
            Workload::MapReduceW,
        )
        .fast();
        let a = run(&spec.clone().with_seed(1));
        let b = run(&spec.with_seed(2));
        assert_ne!(a.instructions, b.instructions);
    }

    #[test]
    fn batch_matches_serial_per_spec() {
        let specs: Vec<RunSpec> = [Workload::MapReduceC, Workload::WebSearch]
            .into_iter()
            .map(|w| {
                RunSpec::new(ChipConfig::with_cores(Organization::Mesh, 16), w).fast()
            })
            .collect();
        let batch = BatchRunner::new(2).run_batch_outcomes(&specs);
        assert!(batch.iter().all(Result::is_ok), "a 16-core mesh point runs");
        let serial: Vec<PointOutcome> = specs.iter().map(run_outcome).collect();
        assert_eq!(format!("{batch:?}"), format!("{serial:?}"));
    }

    /// A seeded campaign's fold does not depend on the pool width.
    #[test]
    fn parallel_replication_matches_serial() {
        let campaign = Campaign::new()
            .fixed(ChipConfig::with_cores(Organization::Mesh, 16))
            .workloads([Workload::SatSolver])
            .seeds([5, 6, 7])
            .window(MeasurementWindow::fast());
        let serial = campaign.run(&BatchRunner::serial());
        let parallel = campaign.run(&BatchRunner::new(3));
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn zero_jobs_means_hardware_threads() {
        assert!(BatchRunner::new(0).jobs() >= 1);
        assert_eq!(BatchRunner::serial().jobs(), 1);
    }

    /// A spec outside the model's domain: NOC-Out requires cores
    /// divisible across its column layout, so the chip constructor
    /// panics for 24 cores.
    fn poisoned_spec() -> RunSpec {
        RunSpec::new(
            ChipConfig::with_cores(Organization::NocOut, 24),
            Workload::WebSearch,
        )
        .fast()
    }

    #[test]
    fn panicking_spec_yields_point_error() {
        let spec = poisoned_spec();
        let err = run_outcome(&spec).unwrap_err();
        assert_eq!(err.cache_key, spec.cache_key());
        assert!(err.message.contains("NOC-Out requires"), "{}", err.message);
    }

    #[test]
    fn chip_beyond_the_sharer_set_is_refused_naming_the_limit() {
        // 129 cores: one more than a directory sharer mask records. The
        // chip refuses up front rather than alias core 128 onto core 0.
        let spec = RunSpec::new(
            ChipConfig::with_cores(Organization::Mesh, 129),
            Workload::MapReduceC,
        )
        .fast();
        let err = run_outcome(&spec).unwrap_err();
        assert_eq!(err.cache_key, spec.cache_key());
        assert!(
            err.message.contains("129-core chip") && err.message.contains("128-core"),
            "{}",
            err.message
        );
    }

    #[test]
    fn batch_isolates_panicking_point() {
        let good = RunSpec::new(
            ChipConfig::with_cores(Organization::Mesh, 16),
            Workload::MapReduceC,
        )
        .fast();
        let specs = vec![good.clone(), poisoned_spec(), good.clone()];
        for jobs in [1, 2] {
            let outcomes = BatchRunner::new(jobs).run_batch_outcomes(&specs);
            assert_eq!(outcomes.len(), 3);
            let serial = format!("{:?}", Ok::<_, PointError>(run(&good)));
            for i in [0, 2] {
                assert_eq!(format!("{:?}", outcomes[i]), serial, "good point {i}");
            }
            let err = outcomes[1].as_ref().unwrap_err();
            assert!(err.message.contains("NOC-Out requires"), "{}", err.message);
        }
    }

    #[test]
    fn replication_reports_confidence() {
        let frame = Campaign::new()
            .fixed(ChipConfig::with_cores(Organization::Mesh, 16))
            .workloads([Workload::WebFrontend])
            .seeds([1, 2, 3])
            .window(MeasurementWindow::fast())
            .run(&BatchRunner::serial());
        let p = &frame.results()[0];
        assert_eq!(p.seeds_run, 3);
        assert!(p.ipc > 0.0);
        assert!(p.ci95 >= 0.0);
    }
}
