//! Shared command-line parsing for the experiment binaries.
//!
//! Every binary accepts `--jobs N` (parallel simulation workers; `0` or
//! unset means all hardware threads), `--cache DIR` (memoize simulation
//! points on disk keyed by their `RunSpec` content hash — a re-run
//! sharing points with an earlier campaign only simulates the new ones;
//! see `nocout::cache` for the key and invalidation rules) and `--help`,
//! which prints the usage line followed by the binary's `about` text (the
//! grid it runs). Binary-specific flags are consumed through
//! [`Cli::next_flag`]/[`Cli::value`]/[`Cli::parsed`], whose errors name
//! the offending flag and value.
//!
//! ```no_run
//! use nocout_experiments::cli::Cli;
//!
//! let mut cli = Cli::parse(
//!     "probe",
//!     "Runs one workload on every organization.",
//!     "[--workload NAME]",
//! );
//! let mut workload = String::from("mapreduce-w");
//! while let Some(flag) = cli.next_flag() {
//!     match flag.as_str() {
//!         "--workload" => workload = cli.value(&flag),
//!         _ => cli.unknown(&flag),
//!     }
//! }
//! let (runner, scale) = (cli.runner(), cli.scale());
//! cli.finish();
//! ```

use crate::report::Scale;
use nocout::cache::ResultsCache;
use nocout::runner::BatchRunner;
use nocout_workloads::trace::TraceSet;
use nocout_workloads::{OpenLoopSpec, Workload, WorkloadClass};
use std::collections::VecDeque;
use std::path::PathBuf;

/// Parsed common flags plus the binary-specific remainder.
#[derive(Debug)]
pub struct Cli {
    bin: String,
    about: String,
    usage_tail: String,
    /// Explicit `--jobs` value; `None` means all hardware threads.
    jobs: Option<usize>,
    /// Results-cache directory from `--cache`.
    cache_dir: Option<PathBuf>,
    /// [`Scale::Fast`] under `NOCOUT_FAST=1`.
    scale: Scale,
    rest: VecDeque<String>,
}

impl Cli {
    /// Parses `std::env::args()`: extracts `--jobs`/`--help`, keeps every
    /// other token (in order) for the binary to consume. `about` is the
    /// one-paragraph description of what the binary runs (its grid, its
    /// output), printed under the usage line by `--help`. The scale is
    /// [`Scale::Fast`] when `NOCOUT_FAST=1` is set, [`Scale::Paper`]
    /// otherwise — the only place the variable is read.
    pub fn parse(bin: &str, about: &str, usage_tail: &str) -> Cli {
        let mut cli = Cli::parse_from(bin, about, usage_tail, std::env::args().skip(1).collect());
        if std::env::var("NOCOUT_FAST").as_deref() == Ok("1") {
            cli.scale = Scale::Fast;
        }
        cli
    }

    /// Like [`Cli::parse`] but over an explicit token list and without
    /// reading the environment: the scale is [`Scale::Paper`] (tests).
    pub fn parse_from(bin: &str, about: &str, usage_tail: &str, tokens: Vec<String>) -> Cli {
        let mut cli = Cli {
            bin: bin.to_string(),
            about: about.to_string(),
            usage_tail: usage_tail.to_string(),
            jobs: None,
            cache_dir: None,
            scale: Scale::Paper,
            rest: VecDeque::new(),
        };
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--jobs" | "-j" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| cli.fail(&format!("missing value for `{tok}`")));
                    cli.jobs = Some(v.parse().unwrap_or_else(|_| {
                        cli.fail(&format!("invalid value for `{tok}`: `{v}` (expected a count)"))
                    }));
                }
                "--cache" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| cli.fail(&format!("missing value for `{tok}`")));
                    cli.cache_dir = Some(PathBuf::from(v));
                }
                "--help" | "-h" => {
                    println!("{}", cli.usage_line());
                    if !cli.about.is_empty() {
                        println!("\n{}", cli.about);
                    }
                    println!(
                        "\ncommon flags:\n  --jobs N     parallel simulation workers \
                         (0/unset: all hardware threads)\n  --cache DIR  \
                         memoize simulation points on disk, keyed by RunSpec content hash"
                    );
                    std::process::exit(0);
                }
                _ => cli.rest.push_back(tok),
            }
        }
        cli
    }

    fn usage_line(&self) -> String {
        let tail = if self.usage_tail.is_empty() {
            String::new()
        } else {
            format!(" {}", self.usage_tail)
        };
        format!("usage: {} [--jobs N] [--cache DIR]{tail}", self.bin)
    }

    /// Prints an error naming the offending input, then the usage line,
    /// and exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: error: {msg}", self.bin);
        eprintln!("{}", self.usage_line());
        std::process::exit(2)
    }

    /// Rejects an unrecognized flag (with its name in the message).
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(&format!("unknown flag `{flag}`"))
    }

    /// The worker pool sized from `--jobs` (all hardware threads without
    /// it), with the `--cache` results cache attached when given.
    pub fn runner(&self) -> BatchRunner {
        let runner = BatchRunner::new(self.jobs.unwrap_or(0));
        match &self.cache_dir {
            Some(dir) => match ResultsCache::open(dir.clone()) {
                Ok(cache) => runner.with_cache(cache),
                Err(e) => self.fail(&format!(
                    "cannot open results cache `{}`: {e}",
                    dir.display()
                )),
            },
            None => runner,
        }
    }

    /// The window and seed set every campaign of this process runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Next unconsumed token, if any.
    pub fn next_flag(&mut self) -> Option<String> {
        self.rest.pop_front()
    }

    /// The value following `flag`; errors (naming `flag`) if missing.
    pub fn value(&mut self, flag: &str) -> String {
        self.rest
            .pop_front()
            .unwrap_or_else(|| self.fail(&format!("missing value for `{flag}`")))
    }

    /// Parses the value following `flag`; errors name the flag and the
    /// offending value.
    pub fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse().unwrap_or_else(|_| {
            self.fail(&format!("invalid value for `{flag}`: `{v}`"))
        })
    }

    /// Parses the value following `flag` as a synthetic workload name.
    /// The error deliberately does *not* offer `trace:PATH`: flags using
    /// this method (e.g. the capture binary's choice of which profile to
    /// record) only accept synthetic profiles.
    pub fn workload(&mut self, flag: &str) -> Workload {
        let v = self.value(flag);
        parse_workload(&v).unwrap_or_else(|| {
            self.fail(&format!(
                "invalid value for `{flag}`: `{v}` (expected a synthetic profile: {})",
                workload_names().join("|")
            ))
        })
    }

    /// Parses the value following `flag` as a workload class: a synthetic
    /// profile name or `trace:PATH` naming a captured trace directory.
    pub fn workload_class(&mut self, flag: &str) -> WorkloadClass {
        let v = self.value(flag);
        parse_workload_class(&v)
            .unwrap_or_else(|e| self.fail(&format!("invalid value for `{flag}`: {e}")))
    }

    /// Errors if any token is left unconsumed (call after the flag loop
    /// in binaries without positional arguments).
    pub fn finish(mut self) {
        if let Some(tok) = self.rest.pop_front() {
            self.fail(&format!("unexpected argument `{tok}`"));
        }
    }
}

/// The deterministic fault-injection flags shared by `nocout-worker`
/// (which applies them) and `shard-run` (which forwards them to the
/// first worker it spawns). Keeping the flag names and the
/// [`FaultPlan`](nocout::distribute::FaultPlan) mapping in one place
/// means the chaos CI gate and the integration tests cannot drift from
/// the binaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultArgs {
    /// `--fault-drop-after N`: drop the connection instead of sending
    /// the N-th result frame.
    pub drop_after: Option<u64>,
    /// `--fault-delay-ms N`: sleep N ms before every result frame.
    pub delay_ms: Option<u64>,
    /// `--fault-corrupt-frame N`: corrupt the N-th result frame's
    /// payload after its digest is computed.
    pub corrupt_frame: Option<u64>,
    /// `--fault-panic-point K`: panic while executing the K-th point.
    pub panic_point: Option<u64>,
    /// `--fault-drop-after-chunks N`: drop the connection after durably
    /// staging the N-th received trace chunk (models a worker crash
    /// mid-transfer; the staged partial survives for the resumed ship).
    pub drop_after_chunks: Option<u64>,
}

impl FaultArgs {
    /// The usage fragment for binaries accepting these flags.
    pub const USAGE: &'static str = "[--fault-drop-after N] [--fault-delay-ms N] \
[--fault-corrupt-frame N] [--fault-panic-point K] [--fault-drop-after-chunks N]";

    /// Consumes `flag` (and its value from `cli`) if it is a fault flag;
    /// returns whether it was.
    pub fn accept(&mut self, flag: &str, cli: &mut Cli) -> bool {
        match flag {
            "--fault-drop-after" => self.drop_after = Some(cli.parsed(flag)),
            "--fault-delay-ms" => self.delay_ms = Some(cli.parsed(flag)),
            "--fault-corrupt-frame" => self.corrupt_frame = Some(cli.parsed(flag)),
            "--fault-panic-point" => self.panic_point = Some(cli.parsed(flag)),
            "--fault-drop-after-chunks" => self.drop_after_chunks = Some(cli.parsed(flag)),
            _ => return false,
        }
        true
    }

    /// The equivalent [`FaultPlan`](nocout::distribute::FaultPlan).
    pub fn plan(&self) -> nocout::distribute::FaultPlan {
        nocout::distribute::FaultPlan {
            drop_after_frames: self.drop_after,
            delay: self.delay_ms.map(std::time::Duration::from_millis),
            corrupt_frame: self.corrupt_frame,
            panic_on_point: self.panic_point,
            drop_after_chunks: self.drop_after_chunks,
        }
    }

    /// Re-serializes the flags for forwarding to a worker process.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        let mut push = |flag: &str, v: Option<u64>| {
            if let Some(v) = v {
                args.push(flag.to_string());
                args.push(v.to_string());
            }
        };
        push("--fault-drop-after", self.drop_after);
        push("--fault-delay-ms", self.delay_ms);
        push("--fault-corrupt-frame", self.corrupt_frame);
        push("--fault-panic-point", self.panic_point);
        push("--fault-drop-after-chunks", self.drop_after_chunks);
        args
    }
}

/// The forms a workload-class value can take, for error messages: every
/// synthetic profile name, plus the `trace:PATH` replay form.
pub fn workload_forms() -> String {
    format!(
        "{}, trace:PATH, or openloop:WORKLOAD:INTERVAL:SERVICE",
        workload_names().join("|")
    )
}

/// Parses a workload-class CLI value: a synthetic profile name
/// (`web-search`, ...) or `trace:PATH`, where PATH is a trace directory
/// captured by the `trace` binary (or
/// `nocout::capture_synthetic_trace`). Loading the trace validates every
/// stream up front, so a bad capture fails here with the file named
/// rather than mid-simulation.
pub fn parse_workload_class(value: &str) -> Result<WorkloadClass, String> {
    if let Some(path) = value.strip_prefix("trace:") {
        if path.is_empty() {
            return Err(format!(
                "`trace:` needs a directory (expected one of {})",
                workload_forms()
            ));
        }
        return TraceSet::load(path)
            .map(WorkloadClass::from)
            .map_err(|e| format!("cannot load trace `{path}`: {e}"));
    }
    if value.starts_with("openloop:") {
        return parse_openloop(value).map(WorkloadClass::from);
    }
    parse_workload(value)
        .map(WorkloadClass::from)
        .ok_or_else(|| {
            format!(
                "`{value}` is not a workload (expected one of {})",
                workload_forms()
            )
        })
}

/// Parses the `openloop:WORKLOAD:INTERVAL:SERVICE` form. WORKLOAD is a
/// synthetic profile in either CLI (`data-serving`) or canonical
/// (`DataServing`) spelling; INTERVAL is the per-core request
/// inter-arrival time in cycles; SERVICE is the instructions per
/// request. Both numbers must be positive.
fn parse_openloop(value: &str) -> Result<OpenLoopSpec, String> {
    let bad = || {
        format!(
            "`{value}` is not an open-loop workload \
             (expected openloop:WORKLOAD:INTERVAL:SERVICE, e.g. \
             openloop:data-serving:200:64)"
        )
    };
    let rest = value.strip_prefix("openloop:").unwrap_or(value);
    let mut parts = rest.split(':');
    let name = parts.next().ok_or_else(bad)?;
    let workload = parse_workload(name)
        .or_else(|| Workload::from_key(name))
        .ok_or_else(|| {
            format!(
                "`{name}` is not a workload in `{value}` (expected one of {})",
                workload_names().join("|")
            )
        })?;
    let interval: u64 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let service_instrs: u32 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    if parts.next().is_some() || interval == 0 || service_instrs == 0 {
        return Err(bad());
    }
    Ok(OpenLoopSpec {
        workload,
        interval,
        service_instrs,
    })
}

/// The synthetic profiles' CLI names: the one list [`parse_workload`]
/// and [`workload_names`] both read.
const WORKLOADS: [(&str, Workload); 6] = [
    ("data-serving", Workload::DataServing),
    ("mapreduce-c", Workload::MapReduceC),
    ("mapreduce-w", Workload::MapReduceW),
    ("sat-solver", Workload::SatSolver),
    ("web-frontend", Workload::WebFrontend),
    ("web-search", Workload::WebSearch),
];

/// Parses a workload CLI name (`data-serving`, `web-search`, ...).
pub fn parse_workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
}

/// The CLI names accepted by [`parse_workload`].
pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|&(n, _)| n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(tokens: &[&str]) -> Cli {
        Cli::parse_from(
            "test-bin",
            "A test binary.",
            "",
            tokens.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn jobs_flag_sets_pool_width() {
        let c = cli(&["--jobs", "3"]);
        assert_eq!(c.runner().jobs(), 3);
    }

    #[test]
    fn zero_jobs_means_all_threads() {
        let c = cli(&["--jobs", "0"]);
        assert!(c.runner().jobs() >= 1);
    }

    #[test]
    fn explicit_tokens_run_at_the_paper_scale() {
        assert_eq!(cli(&["--jobs", "1"]).scale(), Scale::Paper);
    }

    #[test]
    fn leftover_tokens_preserved_in_order() {
        let mut c = cli(&["--org", "mesh", "--jobs", "2", "--cores", "16"]);
        assert_eq!(c.next_flag().as_deref(), Some("--org"));
        assert_eq!(c.value("--org"), "mesh");
        assert_eq!(c.next_flag().as_deref(), Some("--cores"));
        assert_eq!(c.parsed::<usize>("--cores"), 16);
        assert!(c.next_flag().is_none());
    }

    #[test]
    fn cache_flag_attaches_results_cache() {
        let dir = std::env::temp_dir().join(format!(
            "nocout-cli-cache-test-{}",
            std::process::id()
        ));
        let c = cli(&["--cache", dir.to_str().unwrap(), "--jobs", "1"]);
        let runner = c.runner();
        assert_eq!(runner.cache().unwrap().dir(), dir.as_path());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_cache_flag_means_no_cache() {
        assert!(cli(&["--jobs", "1"]).runner().cache().is_none());
    }

    #[test]
    fn workload_names_round_trip() {
        for name in workload_names() {
            assert!(parse_workload(name).is_some(), "{name}");
        }
        assert!(parse_workload("nope").is_none());
    }

    #[test]
    fn workload_class_parses_synthetic_names() {
        for name in workload_names() {
            let class = parse_workload_class(name).expect(name);
            assert!(matches!(class, WorkloadClass::Synthetic(_)), "{name}");
        }
    }

    #[test]
    fn invalid_workload_error_names_the_trace_form() {
        // The satellite contract: a bad workload-class value must tell
        // the user about every accepted form, including `trace:PATH`
        // (`Cli::workload_class` prefixes this with the flag name).
        let class_err = parse_workload_class("nope").unwrap_err();
        assert_eq!(
            class_err,
            "`nope` is not a workload (expected one of \
             data-serving|mapreduce-c|mapreduce-w|sat-solver|web-frontend|web-search, \
             trace:PATH, or openloop:WORKLOAD:INTERVAL:SERVICE)"
        );
    }

    #[test]
    fn workload_class_parses_openloop_form() {
        for value in ["openloop:data-serving:200:64", "openloop:DataServing:200:64"] {
            let class = parse_workload_class(value).expect(value);
            match class {
                WorkloadClass::OpenLoop(s) => {
                    assert_eq!(s.workload, Workload::DataServing);
                    assert_eq!(s.interval, 200);
                    assert_eq!(s.service_instrs, 64);
                }
                other => panic!("{value} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn bad_openloop_values_are_rejected_with_the_form() {
        for value in [
            "openloop:data-serving",
            "openloop:data-serving:0:64",
            "openloop:data-serving:200:0",
            "openloop:data-serving:200:64:extra",
            "openloop:data-serving:many:64",
        ] {
            let err = parse_workload_class(value).unwrap_err();
            assert!(err.contains("openloop:WORKLOAD:INTERVAL:SERVICE"), "{value}: {err}");
        }
        let err = parse_workload_class("openloop:nope:200:64").unwrap_err();
        assert!(err.contains("`nope` is not a workload"), "{err}");
    }

    #[test]
    fn bare_trace_prefix_is_rejected_with_guidance() {
        let err = parse_workload_class("trace:").unwrap_err();
        assert!(err.contains("needs a directory"), "{err}");
        assert!(err.contains("trace:PATH"), "{err}");
    }

    #[test]
    fn missing_trace_directory_is_named_in_the_error() {
        let err = parse_workload_class("trace:/no/such/dir-12345").unwrap_err();
        assert!(err.contains("/no/such/dir-12345"), "{err}");
    }
}
