//! Shared harness for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation and prints it as an aligned text table (optionally
//! CSV). This library holds the pieces they share: command-line parsing
//! ([`cli`], including the `--jobs N` worker-pool and `--cache DIR`
//! flags every binary accepts), the standard [`campaign`] starting point
//! (a `nocout::campaign::Campaign` pre-configured with the measurement
//! window and seed set of a [`Scale`], which [`Cli::parse`] reads from
//! `NOCOUT_FAST=1` for quick smoke runs),
//! table rendering, and the `out/` artifact convention. The simulating
//! binaries are each a short campaign declaration — axes in, a
//! coordinate-queryable `ResultFrame` out — instead of hand-rolled point
//! vectors and flat-index arithmetic; see `docs/campaign-api.md`.

pub mod cli;
pub mod figures;
pub mod report;
pub mod table;

pub use cli::Cli;
pub use figures::{fig7_campaign, fig7_table};
pub use report::{campaign, measurement_window, seeds, Scale};
pub use table::{out_path, report_csv, write_csv, Table};
