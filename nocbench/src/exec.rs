//! The traced executor: what `BatchRunner::serial()` does for a campaign,
//! done by the benchmark itself with a span around each call into a
//! layer.
//!
//! `nocout::runner::run` is four public calls (build the chip, run the
//! warm-up window, reset statistics and run the measured window, read
//! the metrics), and a cached runner wraps them in `ResultsCache::get` /
//! `put`. Making the same calls here, in the same order, lets a traced
//! run say how long each took without touching the simulator; the
//! benchmark checks that the results render to the same bytes as the
//! untraced executor's.

use crate::spans::Tracer;
use nocout::cache::ResultsCache;
use nocout::campaign::CampaignExecutor;
use nocout::config::Organization;
use nocout::runner::{PointError, PointOutcome, RunSpec};
use nocout::{ScaleOutChip, SystemMetrics};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a simulated point was, by the index of its `runner.point` span:
/// lets the analysis split chip time by organization and by active-core
/// count without the spans carrying anything but times.
#[derive(Debug, Clone, Copy)]
pub struct PointRecord {
    /// Index of the point's `runner.point` span.
    pub span: u32,
    /// The point's organization.
    pub org: Organization,
    /// Cores the workload activated.
    pub active_cores: usize,
    /// Cycles simulated (warm-up + measure).
    pub cycles: u64,
    /// Instructions retired in the measured window.
    pub instructions: u64,
    /// Flit hops in the measured window.
    pub flit_hops: u64,
}

/// A serial [`CampaignExecutor`] that records spans.
#[derive(Debug)]
pub struct TracedExecutor<'t> {
    tracer: &'t Tracer,
    cache: Option<ResultsCache>,
    simulated: RefCell<Vec<PointRecord>>,
}

impl<'t> TracedExecutor<'t> {
    /// An executor recording into `tracer`, consulting `cache` first when
    /// one is given (and storing what it had to simulate).
    pub fn new(tracer: &'t Tracer, cache: Option<ResultsCache>) -> Self {
        TracedExecutor {
            tracer,
            cache,
            simulated: RefCell::new(Vec::new()),
        }
    }

    /// The cache this executor consults, with its hit and miss counts.
    pub fn cache(&self) -> Option<&ResultsCache> {
        self.cache.as_ref()
    }

    /// One record per point this executor simulated (cache hits have
    /// none).
    pub fn simulated(&self) -> Vec<PointRecord> {
        self.simulated.borrow().clone()
    }

    fn simulate(&self, spec: &RunSpec) -> SystemMetrics {
        let mut chip = {
            let _s = self.tracer.span("chip.build");
            ScaleOutChip::new(spec.chip, spec.workload.clone(), spec.seed)
        };
        {
            let _s = self.tracer.span("chip.warmup");
            chip.run_for(spec.window.warmup_cycles);
        }
        {
            let _s = self.tracer.span("chip.measure");
            chip.reset_stats();
            chip.run_for(spec.window.measure_cycles);
        }
        let _s = self.tracer.span("chip.metrics");
        chip.metrics()
    }

    fn point(&self, spec: &RunSpec) -> PointOutcome {
        let point = self.tracer.span("runner.point");
        if let Some(cache) = &self.cache {
            let hit = {
                let _s = self.tracer.span("cache.get");
                cache.get(spec)
            };
            if let Some(metrics) = hit {
                return Ok(metrics);
            }
        }
        // A panicking point fails alone, as `runner::run_outcome` has it.
        let metrics = catch_unwind(AssertUnwindSafe(|| self.simulate(spec))).map_err(|p| {
            let message = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            PointError {
                cache_key: spec.cache_key(),
                message,
            }
        })?;
        self.simulated.borrow_mut().push(PointRecord {
            span: point.id(),
            org: spec.chip.organization,
            active_cores: metrics.active_cores,
            cycles: spec.window.total_cycles(),
            instructions: metrics.instructions,
            flit_hops: metrics.network.xbar_traversals,
        });
        if let Some(cache) = &self.cache {
            let _s = self.tracer.span("cache.put");
            cache.put(spec, &metrics);
        }
        Ok(metrics)
    }
}

impl CampaignExecutor for TracedExecutor<'_> {
    fn execute(&self, specs: &[RunSpec]) -> Vec<PointOutcome> {
        let _s = self.tracer.span("executor.execute");
        specs.iter().map(|spec| self.point(spec)).collect()
    }
}
