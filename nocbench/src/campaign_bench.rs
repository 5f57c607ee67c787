//! The three workloads that are a `Campaign` run on the calling thread:
//! `fig7_serial`, `loadlat_openloop` and `cache_warm`.
//!
//! All three are closed loops with one client: a pass starts when the
//! previous one has returned. A round is a fixed number of passes over a
//! fixed grid, so its simulated work is the same every time.

use crate::exec::TracedExecutor;
use crate::metrics::Values;
use crate::spans::{durations_ms, total_ns, Span, Tracer};
use crate::stats::{median, percentile, ratio};
use crate::workload::{Bench, Ctx, Reference, Round, SimCounts};
use nocout::cache::ResultsCache;
use nocout::campaign::{Campaign, ResultFrame};
use nocout::config::Organization;
use nocout::runner::BatchRunner;
use nocout_sim::config::MeasurementWindow;
use nocout_workloads::{OpenLoopSpec, Workload};
use std::path::Path;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Figure 7 grid, simulated serially.
    Fig7Serial,
    /// The load-vs-tail-latency grid, simulated serially.
    LoadlatOpenloop,
    /// The Figure 7 grid over several seeds, served from a warm
    /// results cache.
    CacheWarm,
}

/// Arrival intervals of the `loadlat` experiment, lightest load first:
/// from a near-idle chip to past the mesh's knee.
const INTERVALS: [u64; 6] = [1600, 800, 400, 200, 100, 50];

impl Kind {
    /// Window, seeds per point and passes per round.
    fn sizes(self, smoke: bool) -> (MeasurementWindow, u64, usize) {
        match (self, smoke) {
            (Kind::Fig7Serial, false) => (MeasurementWindow::new(2_000, 6_000), 1, 1),
            (Kind::LoadlatOpenloop, false) => (MeasurementWindow::new(1_500, 4_500), 1, 1),
            (Kind::CacheWarm, false) => (MeasurementWindow::new(1_000, 3_000), 4, 250),
            (Kind::Fig7Serial, true) => (MeasurementWindow::new(300, 900), 1, 1),
            // Long enough that the heavier intervals complete requests.
            (Kind::LoadlatOpenloop, true) => (MeasurementWindow::new(400, 1_200), 1, 1),
            (Kind::CacheWarm, true) => (MeasurementWindow::new(200, 600), 2, 20),
        }
    }

    fn campaign(self, seed: u64, smoke: bool) -> Campaign {
        let (window, seeds, _) = self.sizes(smoke);
        let grid = Campaign::new()
            .orgs(Organization::EVALUATED)
            .seeds(seed..seed + seeds)
            .window(window);
        match self {
            Kind::Fig7Serial | Kind::CacheWarm => grid.link_bits([128]).workloads(Workload::ALL),
            Kind::LoadlatOpenloop => grid.workloads(INTERVALS.map(|interval| OpenLoopSpec {
                workload: Workload::DataServing,
                interval,
                service_instrs: 32,
            })),
        }
    }

    /// What a pass renders: the figure's CSV, and for the open-loop grid
    /// the tail-latency CSV too.
    fn render(self, frame: &ResultFrame) -> String {
        match self {
            Kind::LoadlatOpenloop => frame.to_csv() + &frame.tail_csv(),
            Kind::Fig7Serial | Kind::CacheWarm => frame.to_csv(),
        }
    }

    fn paper_gmean_err_pct(self, frame: &ResultFrame) -> Option<f64> {
        if self == Kind::LoadlatOpenloop || !frame.is_complete() {
            return None;
        }
        let speedup = frame.normalize_to(Organization::Mesh);
        let err = |org| (speedup.geomean(org) - 1.17).abs() / 1.17 * 100.0;
        Some(err(Organization::FlattenedButterfly).max(err(Organization::NocOut)))
    }
}

/// A set-up campaign workload.
#[derive(Debug)]
pub struct CampaignBench<'t> {
    kind: Kind,
    campaign: Campaign,
    passes: usize,
    specs_per_pass: u64,
    cycles_per_pass: u64,
    runner: BatchRunner,
    traced: TracedExecutor<'t>,
    tracer: &'t Tracer,
    reference: Reference,
    /// Lookups (hits, misses) the traced executor's cache had counted
    /// when the set-up pass ended.
    setup_lookups: (u64, u64),
    misses: Vec<String>,
}

fn open_cache(dir: &Path) -> ResultsCache {
    ResultsCache::open(dir)
        .unwrap_or_else(|e| panic!("cannot open the results cache {}: {e}", dir.display()))
}

impl<'t> CampaignBench<'t> {
    /// Builds the campaign and makes the set-up pass. For `cache_warm`
    /// that pass is the one that simulates: it fills the cache every
    /// later pass reads.
    pub fn setup(kind: Kind, ctx: &Ctx<'t>) -> Self {
        let campaign = kind.campaign(ctx.seed, ctx.smoke);
        let (window, _, passes) = kind.sizes(ctx.smoke);
        let specs_per_pass = campaign.specs().len() as u64;
        let cache_dir = ctx.scratch.join("cache");
        let (runner, traced) = if kind == Kind::CacheWarm {
            (
                BatchRunner::serial().with_cache(open_cache(&cache_dir)),
                TracedExecutor::new(ctx.tracer, Some(open_cache(&cache_dir))),
            )
        } else {
            (BatchRunner::serial(), TracedExecutor::new(ctx.tracer, None))
        };
        let frame = if ctx.traced {
            let _s = ctx.tracer.span("campaign.run");
            campaign.run_on(&traced)
        } else {
            campaign.run(&runner)
        };
        let mut misses = Vec::new();
        if !frame.is_complete() {
            misses.push(format!(
                "set-up pass: {} points failed",
                frame.failed().len()
            ));
        }
        let reference = Reference {
            output: kind.render(&frame),
            counts: SimCounts::of(&frame),
            paper_gmean_err_pct: kind.paper_gmean_err_pct(&frame),
        };
        CampaignBench {
            kind,
            campaign,
            passes,
            specs_per_pass,
            cycles_per_pass: specs_per_pass * window.total_cycles(),
            runner,
            tracer: ctx.tracer,
            setup_lookups: traced.cache().map_or((0, 0), |c| (c.hits(), c.misses())),
            reference,
            misses,
            traced,
        }
    }
}

impl Bench for CampaignBench<'_> {
    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::default();
        for _ in 0..self.passes {
            let output = if traced {
                let frame = {
                    let _s = self.tracer.span("campaign.run");
                    self.campaign.run_on(&self.traced)
                };
                round.failed += frame.failed().len() as u64;
                let _s = self.tracer.span("campaign.csv");
                self.kind.render(&frame)
            } else {
                let frame = self.campaign.run(&self.runner);
                round.failed += frame.failed().len() as u64;
                self.kind.render(&frame)
            };
            if output != self.reference.output {
                // The whole pass is wrong, whichever points differ.
                round.failed += self.specs_per_pass;
                if self.misses.len() < 8 {
                    self.misses.push(format!(
                        "a {} pass did not reproduce the set-up pass's output",
                        if traced { "traced" } else { "untraced" }
                    ));
                }
            }
            round.points += self.specs_per_pass;
            round.sim_cycles += self.cycles_per_pass;
        }
        round.failed = round.failed.min(round.points);
        round
    }

    fn reference(&self) -> &Reference {
        &self.reference
    }

    fn take_misses(&mut self) -> Vec<String> {
        std::mem::take(&mut self.misses)
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Values) {
        // campaign: plan + fold is what `campaign.run` does outside the
        // executor; per spec executed.
        let executes = spans
            .iter()
            .filter(|s| s.name == "executor.execute")
            .count() as f64;
        let specs = executes * self.specs_per_pass as f64;
        let plan_fold = total_ns(spans, "campaign.run") - total_ns(spans, "executor.execute");
        out.set(
            "campaign.plan_fold_us_per_point",
            ratio(plan_fold as f64 / 1e3, specs),
        );
        let csv_specs =
            durations_ms(spans, "campaign.csv").len() as f64 * self.specs_per_pass as f64;
        out.set(
            "campaign.csv_us_per_point",
            ratio(total_ns(spans, "campaign.csv") as f64 / 1e3, csv_specs),
        );

        // runner: host time of one point, whatever served it.
        let point_ms = durations_ms(spans, "runner.point");
        out.set("runner.point_ms_p50", median(&point_ms));
        out.set("runner.point_ms_p90", percentile(&point_ms, 0.9));

        // chip: the four calls of `runner::run`, for the points that
        // were simulated (on `cache_warm`, the set-up pass).
        let build = total_ns(spans, "chip.build");
        let chip_total = build
            + total_ns(spans, "chip.warmup")
            + total_ns(spans, "chip.measure")
            + total_ns(spans, "chip.metrics");
        out.set("chip.build_ms", median(&durations_ms(spans, "chip.build")));
        out.set("chip.build_share", ratio(build as f64, chip_total as f64));
        out.set(
            "chip.metrics_us",
            median(&durations_ms(spans, "chip.metrics")) * 1e3,
        );

        // Time under each simulated point, by child span name.
        let simulated = self.traced.simulated();
        let mut child_ns = std::collections::HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry((p, s.name)).or_insert(0u64) += s.ns();
            }
        }
        let of = |span: u32, name: &'static str| child_ns.get(&(span, name)).copied().unwrap_or(0);
        let tick_rate = |keep: &dyn Fn(&crate::exec::PointRecord) -> bool| {
            let (mut cycles, mut ns) = (0u64, 0u64);
            for r in simulated.iter().filter(|r| keep(r)) {
                cycles += r.cycles;
                ns += of(r.span, "chip.warmup") + of(r.span, "chip.measure");
            }
            // cycles per ns is Gcycles/s; the unit is kcycles/s.
            ratio(cycles as f64, ns as f64) * 1e6
        };
        out.set(
            "chip.kcycles_per_s.mesh",
            tick_rate(&|r| r.org == Organization::Mesh),
        );
        out.set(
            "chip.kcycles_per_s.fbfly",
            tick_rate(&|r| r.org == Organization::FlattenedButterfly),
        );
        out.set(
            "chip.kcycles_per_s.nocout",
            tick_rate(&|r| r.org == Organization::NocOut),
        );
        out.set(
            "chip.kcycles_per_s.active16",
            tick_rate(&|r| r.active_cores == 16),
        );
        out.set(
            "chip.kcycles_per_s.active64",
            tick_rate(&|r| r.active_cores == 64),
        );
        let measure_ns: u64 = simulated.iter().map(|r| of(r.span, "chip.measure")).sum();
        let instructions: u64 = simulated.iter().map(|r| r.instructions).sum();
        let flit_hops: u64 = simulated.iter().map(|r| r.flit_hops).sum();
        out.set(
            "chip.host_ns_per_instr",
            ratio(measure_ns as f64, instructions as f64),
        );
        out.set(
            "chip.host_ns_per_flit_hop",
            ratio(measure_ns as f64, flit_hops as f64),
        );

        // cache: lookups of the traced rounds (all hits when the cache
        // works), stores of the set-up pass.
        if let Some(cache) = self.traced.cache() {
            let get_us: Vec<f64> = durations_ms(spans, "cache.get")
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            out.set("cache.get_us_p50", median(&get_us));
            out.set("cache.get_us_p90", percentile(&get_us, 0.9));
            let put_us: Vec<f64> = durations_ms(spans, "cache.put")
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            out.set("cache.put_us", median(&put_us));
            let hits = cache.hits() - self.setup_lookups.0;
            let misses = cache.misses() - self.setup_lookups.1;
            out.set(
                "cache.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            );
            let sizes: Vec<u64> = std::fs::read_dir(cache.dir())
                .into_iter()
                .flatten()
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .collect();
            out.set(
                "cache.entry_bytes",
                ratio(sizes.iter().sum::<u64>() as f64, sizes.len() as f64),
            );
        }
    }
}
