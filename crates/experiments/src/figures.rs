//! The figure registry: every table and figure of the paper's evaluation
//! as data, run by the `repro` binary.
//!
//! Each [`Figure`] in [`FIGURES`] names itself (the name is also its CSV:
//! `out/<name>.csv`), describes the grid it runs, and says how to compute
//! its table: a campaign grid at a [`Scale`] plus a render of the result
//! frame, or, for the analytic figures, a render alone. Each figure's
//! module (`src/figures/<name>.rs`) documents the paper's result it
//! reproduces. Every execution path renders through the entry:
//! `shard-run` takes Fig. 7's grid and render from `find("fig7")`, so its
//! CSV is byte-identical to `repro fig7`'s by construction (and the CI
//! sharded-execution gate `cmp`s the outputs anyway).

use crate::report::{campaign, Scale};
use crate::table::{report_csv, Table};
use nocout::campaign::ResultFrame;
use nocout::prelude::*;
use nocout::runner::BatchRunner;
use nocout_sim::text::hex;
use nocout_workloads::trace::TraceSet;
use std::sync::Arc;

mod banking;
mod express;
mod fig1;
mod fig4;
mod fig7;
mod fig8;
mod fig9;
mod heatmap;
mod loadlat;
mod power;
mod scalability;
mod sweep;
mod table1;

/// Every figure, in the order `repro all` runs them.
pub const FIGURES: [Figure; 13] = [
    table1::FIGURE, fig1::FIGURE, fig4::FIGURE, fig7::FIGURE, fig8::FIGURE, fig9::FIGURE,
    banking::FIGURE, power::FIGURE, express::FIGURE, scalability::FIGURE, sweep::FIGURE,
    heatmap::FIGURE, loadlat::FIGURE,
];

/// The registered figure called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// One table or figure of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `repro` takes, and the stem of the CSV it writes.
    pub name: &'static str,
    /// What the figure runs and reports, for `repro --help`.
    pub about: &'static str,
    /// How the figure computes its table.
    pub body: Body,
}

/// How a [`Figure`] computes its [`Output`].
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// Runs a campaign grid at a scale, then renders its result frame.
    Grid {
        /// The grid at a scale.
        grid: fn(Scale) -> Campaign,
        /// The table of the grid's frame; panics (naming the point and
        /// its failure) if the frame is missing a grid point.
        render: fn(&ResultFrame) -> Output,
    },
    /// Runs no campaign: analytic models, or one network-level run.
    Direct(fn() -> Output),
}

/// A figure's table and the note lines printed under it.
#[derive(Debug, Clone)]
pub struct Output {
    /// The table, printed and written as the figure's CSV.
    pub table: Table,
    /// Lines printed under the table (the paper comparison, takeaways).
    pub notes: Vec<String>,
}

impl Figure {
    /// Runs the figure on `runner` at `scale`, prints its table and
    /// notes, and writes `out/<name>.csv`.
    pub fn report(&self, runner: &BatchRunner, scale: Scale) {
        let out = match self.body {
            Body::Grid { grid, render } => render(&grid(scale).run(runner)),
            Body::Direct(compute) => compute(),
        };
        out.table.print();
        for note in &out.notes {
            println!("{note}");
        }
        report_csv(&format!("{}.csv", self.name), &out.table.csv_records());
    }
}

/// A captured-trace replay campaign over the 3 evaluated organizations:
/// one trace workload, on the window of `scale` (trace replay is
/// seed-insensitive, so the seed axis collapses to 3 points). Both the
/// local and the sharded trace execution paths build their grid here —
/// the trace-shipping CI gate `cmp`s their CSVs.
pub fn trace_campaign(set: Arc<TraceSet>, scale: Scale) -> Campaign {
    campaign(scale)
        .orgs(Organization::EVALUATED)
        .workloads([WorkloadClass::Trace(set)])
}

/// Renders a [`trace_campaign`] result frame, normalized to the mesh.
/// One rendering function for every execution path, like a figure's
/// render: a local run and a sharded run of the same trace cannot drift.
///
/// # Panics
///
/// Panics (naming the point and its failure) if the frame is missing a
/// grid point.
pub fn trace_table(frame: &ResultFrame, set: &Arc<TraceSet>) -> Table {
    let norm = frame.normalize_to(Organization::Mesh);
    let mut table = Table::new(
        "Trace replay — performance normalized to mesh",
        &["Trace", "Mesh", "FBfly", "NOC-Out"],
    );
    table.row(vec![
        hex(set.content_hash()).to_string(),
        "1.000".into(),
        format!("{:.3}", norm.get(Organization::FlattenedButterfly, set.clone())),
        format!("{:.3}", norm.get(Organization::NocOut, set.clone())),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_are_unique() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|g| g.name != f.name),
                "`{}` is registered twice",
                f.name
            );
            assert_eq!(find(f.name).map(|g| g.name), Some(f.name));
        }
        assert!(find("all").is_none(), "`all` selects every figure");
    }
}
