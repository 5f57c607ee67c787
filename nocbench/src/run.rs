//! One run of one workload: set-up, rounds of fixed work until the
//! measuring time is up, checks, and the run's document.

use crate::campaign_bench::{CampaignBench, Kind};
use crate::json::Json;
use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sharded::ShardedBench;
use crate::spans::{worst_round_gap, Tracer};
use crate::stats::{iqr_share, median, percentile, ratio};
use crate::workload::{fnv1a, Bench, Ctx};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a run is sized and where it writes.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Work counts cut down for the smoke test; `seconds` is ignored.
    pub smoke: bool,
    /// Where documents and span files go, and scratch files under it.
    pub out: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunReport {
    /// The run's full document (also written to `<out>/<workload>.trace<0|1>.json`).
    pub doc: Json,
    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Json,
}

/// Set-ups per run: `setup_s` is the median.
const SETUPS: usize = 3;
/// Rounds a run makes at least, however short `--seconds` is; also the
/// fixed amount of work after which `peak_rss_mb` is read.
const MIN_ROUNDS: usize = 5;
/// The share of a run's rounds that `points_per_s` leaves behind it.
///
/// The rounds of a run are identical work, so their host times differ
/// only by what the host did meanwhile, and a busy host only ever slows
/// a round down: the rate of the fastest rounds estimates the program's
/// speed better than the median does. Over ten runs with ten seeds on
/// the noisy 2-vCPU sandbox this was sized on, the interquartile spread
/// of the medians was 9-17 % of their median; of the 90th percentiles,
/// 4-9 %.
const FAST_ROUNDS: f64 = 0.9;
/// Spans after which later rounds of a traced run go untraced, so that
/// a workload with tens of thousands of spans per round keeps its span
/// file and its memory bounded.
const SPAN_CAP: usize = 100_000;

fn setup<'t>(workload: &str, ctx: &Ctx<'t>) -> Result<Box<dyn Bench + 't>, String> {
    Ok(match workload {
        "fig7_serial" => Box::new(CampaignBench::setup(Kind::Fig7Serial, ctx)),
        "loadlat_openloop" => Box::new(CampaignBench::setup(Kind::LoadlatOpenloop, ctx)),
        "cache_warm" => Box::new(CampaignBench::setup(Kind::CacheWarm, ctx)),
        "sharded_trace" => Box::new(ShardedBench::setup(ctx)),
        other => {
            return Err(format!(
                "`{other}` is not a workload (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// `VmHWM` of this process in megabytes (0 where `/proc` has none).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Host time and outcome of the rounds of one kind (untraced or traced).
#[derive(Debug, Default)]
struct Rounds {
    points_per_s: Vec<f64>,
    kcycles_per_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Rounds {
    fn push(&mut self, round: crate::workload::Round, took: Duration) {
        let s = took.as_secs_f64();
        self.points_per_s.push(ratio(round.points as f64, s));
        self.kcycles_per_s
            .push(ratio(round.sim_cycles as f64 / 1e3, s));
        self.attempted += round.points;
        self.failed += round.failed;
    }
}

/// Runs one workload and writes its document (and, traced, its spans)
/// under `opts.out`.
pub fn run(opts: &RunOptions) -> Result<RunReport, String> {
    let scratch = opts.out.join(format!("scratch-{}", std::process::id()));
    fresh_dir(&scratch)?;
    let report = run_in(opts, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

fn run_in(opts: &RunOptions, scratch: &Path) -> Result<RunReport, String> {
    let tracer = Tracer::new();
    let mut checks: Vec<String> = Vec::new();

    // Set-up, several times over: each builds the inputs from the seed
    // and makes one pass; the last one is kept.
    let setups = if opts.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut bench: Option<Box<dyn Bench + '_>> = None;
    for k in 0..setups {
        drop(bench.take());
        let dir = scratch.join(format!("setup-{k}"));
        fresh_dir(&dir)?;
        let ctx = Ctx {
            seed: opts.seed,
            smoke: opts.smoke,
            traced: opts.traced,
            tracer: &tracer,
            scratch: dir,
        };
        let t = Instant::now();
        let _s = opts.traced.then(|| tracer.span("setup"));
        bench = Some(setup(&opts.workload, &ctx)?);
        drop(_s);
        setup_s.push(t.elapsed().as_secs_f64());
        if k > 0 {
            let _ = std::fs::remove_dir_all(scratch.join(format!("setup-{}", k - 1)));
        }
    }
    let mut bench = bench.expect("at least one set-up ran");
    checks.extend(bench.take_misses());

    // Rounds of fixed work. A traced run alternates untraced and traced
    // rounds, so the two kinds see the same stretch of host time.
    let (seconds, min_rounds) = if opts.smoke {
        (0.0, 2)
    } else {
        (opts.seconds, MIN_ROUNDS)
    };
    let mut untraced = Rounds::default();
    let mut traced = Rounds::default();
    let start = Instant::now();
    let mut n = 0u32;
    let mut peak_rss = 0.0;
    loop {
        let trace_this = opts.traced && n % 2 == 1 && tracer.len() < SPAN_CAP;
        let t = Instant::now();
        let round = if trace_this {
            tracer.set_round(n);
            let _s = tracer.span("round");
            bench.round(true)
        } else {
            bench.round(false)
        };
        let took = t.elapsed();
        (if trace_this {
            &mut traced
        } else {
            &mut untraced
        })
        .push(round, took);
        n += 1;
        if untraced.points_per_s.len() == min_rounds && peak_rss == 0.0 {
            // Read after a fixed amount of work, not at the end: how many
            // rounds fit into `--seconds` depends on the host.
            peak_rss = peak_rss_mb();
        }
        let enough = untraced.points_per_s.len() >= min_rounds
            && (!opts.traced || !traced.points_per_s.is_empty());
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    checks.extend(bench.take_misses());

    let reference = bench.reference();
    let sim_digest = format!("{:016x}", fnv1a(reference.output.as_bytes()));
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;

    let mut values = Values::default();
    let mut spread = Vec::new();
    if opts.traced {
        let spans = tracer.spans();
        let gap = worst_round_gap(&spans);
        if gap > 0.02 {
            checks.push(format!(
                "span self times miss their round by {:.1} %",
                gap * 100.0
            ));
        }
        bench.layer_metrics(&spans, &mut values);
        let c = reference.counts;
        values.set("chip.sim_instructions", c.instructions as f64);
        values.set("noc.packets", c.packets as f64);
        values.set("noc.flit_hops", c.flit_hops as f64);
        values.set("memsys.llc_accesses", c.llc_accesses as f64);
        values.set(
            "memsys.llc_hit_ratio",
            ratio(c.llc_hits as f64, (c.llc_hits + c.llc_misses) as f64),
        );
        values.set("memsys.mem_reads", c.mem_reads as f64);
        values.set("workloads.requests_completed", c.requests_completed as f64);
        values.set(
            "paper_gmean_err_pct",
            reference.paper_gmean_err_pct.unwrap_or(0.0),
        );
        let (u, t) = (median(&untraced.points_per_s), median(&traced.points_per_s));
        values.set("bench.trace_overhead_pct", ratio(u - t, u) * 100.0);
        drop(bench);
        let layers_dir = scratch.join("layers");
        fresh_dir(&layers_dir)?;
        layers::run(&layers_dir, opts.smoke, &mut values);
        let path = opts.out.join(format!("{}.spans.json", opts.workload));
        std::fs::write(&path, tracer.to_json().render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    } else {
        drop(bench);
        values.set(
            "points_per_s",
            percentile(&untraced.points_per_s, FAST_ROUNDS),
        );
        values.set(
            "sim_kcycles_per_s",
            percentile(&untraced.kcycles_per_s, FAST_ROUNDS),
        );
        values.set("peak_rss_mb", peak_rss);
        values.set("setup_s", median(&setup_s));
        spread.push(("points_per_s", Json::Num(iqr_share(&untraced.points_per_s))));
        spread.push((
            "sim_kcycles_per_s",
            Json::Num(iqr_share(&untraced.kcycles_per_s)),
        ));
        spread.push(("setup_s", Json::Num(iqr_share(&setup_s))));
    }

    let correct = failed == 0 && checks.is_empty();
    let metrics = values.to_json(if opts.traced { &PER_LAYER } else { &END_TO_END });
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.clone()),
    ]);
    let doc = Json::obj([
        ("workload", Json::str(&opts.workload)),
        ("traced", Json::Bool(opts.traced)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "hardware_threads",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rounds", Json::Num(untraced.points_per_s.len() as f64)),
        ("traced_rounds", Json::Num(traced.points_per_s.len() as f64)),
        ("setups", Json::Num(setup_s.len() as f64)),
        ("sim_digest", Json::str(sim_digest)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "failed_ratio",
            Json::Num(ratio(failed as f64, attempted as f64)),
        ),
        (
            "checks_failed",
            Json::Arr(checks.iter().map(Json::str).collect()),
        ),
        ("spread", Json::obj(spread)),
        ("setup_s_each", nums(&setup_s)),
        (
            "median_points_per_s",
            Json::Num(median(&untraced.points_per_s)),
        ),
        ("round_points_per_s", nums(&untraced.points_per_s)),
        ("traced_round_points_per_s", nums(&traced.points_per_s)),
        ("metrics", metrics),
    ]);
    let path = opts.out.join(format!(
        "{}.trace{}.json",
        opts.workload,
        u8::from(opts.traced)
    ));
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(RunReport { doc, result })
}
