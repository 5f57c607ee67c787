//! Run-point helpers shared by the experiment binaries.

use nocout::prelude::*;
use nocout_sim::config::{MeasurementWindow, SeedSet};

/// How much each binary simulates per point: its window and its seeds.
/// [`Cli::parse`](crate::cli::Cli::parse) picks it once per process from
/// `NOCOUT_FAST=1`; library code never reads the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A 4 000 + 8 000-cycle window over one seed (CI smoke runs).
    Fast,
    /// A 30 000 + 30 000-cycle window over three seeds.
    Paper,
}

/// A [`Campaign`] pre-configured with the binaries' measurement window
/// and seed set at `scale`. Every figure's grid starts here and declares
/// its axes; `repro` runs it through the shared `--jobs`/`--cache`
/// runner:
///
/// ```no_run
/// use nocout::prelude::*;
/// use nocout::runner::BatchRunner;
/// use nocout_experiments::{campaign, Scale};
///
/// let frame = campaign(Scale::Paper)
///     .orgs(Organization::EVALUATED)
///     .workloads(Workload::ALL)
///     .run(&BatchRunner::new(0));
/// let norm = frame.normalize_to(Organization::Mesh);
/// println!("NOC-Out gmean: {:.3}", norm.geomean(Organization::NocOut));
/// ```
pub fn campaign(scale: Scale) -> Campaign {
    Campaign::new()
        .window(measurement_window(scale))
        .seeds(&seeds(scale))
}

/// The measurement window the binaries use at `scale`.
pub fn measurement_window(scale: Scale) -> MeasurementWindow {
    match scale {
        Scale::Fast => MeasurementWindow::new(4_000, 8_000),
        Scale::Paper => MeasurementWindow::new(30_000, 30_000),
    }
}

/// Seeds per experiment point at `scale`.
pub fn seeds(scale: Scale) -> SeedSet {
    match scale {
        Scale::Fast => SeedSet::single(1),
        Scale::Paper => SeedSet::consecutive(1, 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocout::runner::BatchRunner;

    #[test]
    fn scales_set_the_window_and_the_seeds() {
        assert_eq!(
            measurement_window(Scale::Fast),
            MeasurementWindow::new(4_000, 8_000)
        );
        assert_eq!(seeds(Scale::Fast), SeedSet::single(1));
        assert_eq!(
            measurement_window(Scale::Paper),
            MeasurementWindow::new(30_000, 30_000)
        );
        assert_eq!(seeds(Scale::Paper), SeedSet::consecutive(1, 3));
    }

    #[test]
    fn campaign_helper_runs_a_point() {
        let frame = campaign(Scale::Fast)
            .fixed(ChipConfig::with_cores(Organization::Mesh, 16))
            .workloads([Workload::MapReduceC])
            .run(&BatchRunner::serial());
        let p = &frame.results()[0];
        assert!(p.ipc > 0.0);
        assert_eq!(p.seeds_run, 1);
        assert_eq!(p.metrics.cycles, 8_000);
    }
}
