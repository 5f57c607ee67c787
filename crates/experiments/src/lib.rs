//! Shared harness for the experiment binaries, and the figure registry.
//!
//! [`figures`] holds every table and figure of the paper's evaluation as
//! data — a name, a grid and a render — and the `repro <figure>|all`
//! binary runs them, printing each as an aligned text table and writing
//! it as CSV. The other binaries in `src/bin/` (`probe`, `explorer`,
//! `trace`, `shard-run`, `nocout-worker`) are tools around the same
//! campaigns. This library holds the pieces they share: command-line
//! parsing ([`cli`], including the `--jobs N` worker-pool and
//! `--cache DIR` flags every binary accepts), the standard [`campaign`]
//! starting point (a `nocout::campaign::Campaign` pre-configured with the
//! measurement window and seed set of a [`Scale`], which [`Cli::parse`]
//! reads from `NOCOUT_FAST=1` for quick smoke runs), table rendering, and
//! the `out/` artifact convention. Each figure's grid is a short campaign
//! declaration — axes in, a coordinate-queryable `ResultFrame` out; see
//! `docs/campaign-api.md`.

pub mod cli;
pub mod figures;
pub mod report;
pub mod table;

pub use cli::Cli;
pub use report::{campaign, measurement_window, seeds, Scale};
pub use table::{out_path, report_csv, write_csv, Table};
