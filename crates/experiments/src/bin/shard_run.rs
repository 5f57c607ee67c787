//! `shard-run`: campaigns through the fault-tolerant sharded driver.
//!
//! Exercises the whole `nocout::distribute` stack end to end on Fig. 7's
//! grid, taken from the figure registry, or with `--trace DIR` on a
//! captured-trace replay grid (`--help` describes every flag). The merged
//! frame renders through the same table as the local path (`repro fig7`,
//! or `--local`), so the sharded CSV is byte-identical to the local one —
//! the CI sharded-execution and trace-shipping gates `cmp` them. Spawned
//! workers get trace stores under `--worker-store DIR` (`DIR/w0`,
//! `DIR/w1`, ...). The `--fault-*` flags are forwarded to the *first* spawned worker, so one
//! chaos invocation can prove a worker crash mid-shard — or
//! mid-trace-transfer — is survived.

use nocout::distribute::{DriverConfig, Endpoint, ShardedDriver};
use nocout_experiments::cli::{Cli, FaultArgs};
use nocout_experiments::figures::{find, trace_campaign, trace_table, Body};
use nocout_experiments::report_csv;
use nocout_workloads::trace::TraceSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const ABOUT: &str = "Runs a campaign through the fault-tolerant sharded \
driver: the grid (Figure 7 by default; a trace-replay grid with --trace \
DIR) is partitioned into shards, dispatched to nocout-worker endpoints \
(spawned locally with --workers, or reached with --connect), retried with \
seeded exponential backoff on failure, and optionally journaled \
(--journal, --resume) so a crashed driver restarts where it stopped. \
Trace workloads travel by content hash: workers advertise their stores in \
the capability handshake and the driver ships missing archives in \
--chunk-bytes chunks (give spawned workers stores with --worker-store \
DIR). Successful merged results are byte-identical to the local path's \
(run it with --local); writes out/fig7_sharded.csv or \
out/trace_sharded.csv (override with --out). --fault-* flags are \
forwarded to the first spawned worker; --fault-corrupt-chunk corrupts the \
N-th trace chunk the driver itself sends.";

fn main() {
    let mut cli = Cli::parse(
        "shard-run",
        ABOUT,
        &format!(
            "[--trace DIR] [--local] [--workers N] [--worker-bin PATH] \
             [--worker-store DIR] [--connect ADDR]... [--shard-points N] \
             [--attempts N] [--timeout-ms N] [--speculate-ms N] \
             [--chunk-bytes N] [--journal PATH] [--resume] [--out NAME] \
             [--fault-corrupt-chunk N] {}",
            FaultArgs::USAGE
        ),
    );
    let mut workers: usize = 2;
    let mut worker_bin: Option<PathBuf> = None;
    let mut worker_store: Option<PathBuf> = None;
    let mut connect: Vec<String> = Vec::new();
    let mut cfg = DriverConfig::default();
    let mut out: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut local = false;
    let mut faults = FaultArgs::default();
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--trace" => trace_dir = Some(cli.value(&flag)),
            "--local" => local = true,
            "--workers" => workers = cli.parsed(&flag),
            "--worker-bin" => worker_bin = Some(PathBuf::from(cli.value(&flag))),
            "--worker-store" => worker_store = Some(PathBuf::from(cli.value(&flag))),
            "--connect" => connect.push(cli.value(&flag)),
            "--shard-points" => cfg.shard_points = cli.parsed(&flag),
            "--attempts" => cfg.max_attempts = cli.parsed(&flag),
            "--timeout-ms" => cfg.read_timeout = Duration::from_millis(cli.parsed(&flag)),
            "--speculate-ms" => {
                cfg.speculate_after = Some(Duration::from_millis(cli.parsed(&flag)));
            }
            "--chunk-bytes" => cfg.chunk_bytes = cli.parsed(&flag),
            "--fault-corrupt-chunk" => cfg.fault_corrupt_chunk = Some(cli.parsed(&flag)),
            "--journal" => cfg.journal = Some(PathBuf::from(cli.value(&flag))),
            "--resume" => cfg.resume = true,
            "--out" => out = Some(cli.value(&flag)),
            _ => {
                if !faults.accept(&flag, &mut cli) {
                    cli.unknown(&flag);
                }
            }
        }
    }
    let trace_set: Option<Arc<TraceSet>> = trace_dir.map(|dir| {
        TraceSet::load(&dir)
            .unwrap_or_else(|e| cli.fail(&format!("cannot load trace `{dir}`: {e}")))
    });
    let out = out.unwrap_or_else(|| {
        match (&trace_set, local) {
            (Some(_), true) => "trace_local.csv",
            (Some(_), false) => "trace_sharded.csv",
            (None, _) => "fig7_sharded.csv",
        }
        .to_string()
    });
    if !local && workers == 0 && connect.is_empty() {
        cli.fail("need --workers N > 0 or at least one --connect ADDR");
    }
    if !local && workers == 0 && faults.plan().is_armed() {
        eprintln!(
            "shard-run: warning: --fault-* flags only reach workers this \
             driver spawns; --connect endpoints are unaffected"
        );
    }

    // The local runner either executes the campaign itself (--local) or
    // just carries the --jobs / --cache settings every spawned worker
    // inherits.
    let (runner, scale) = (cli.runner(), cli.scale());
    let Some(Body::Grid { grid, render }) = find("fig7").map(|f| f.body) else {
        unreachable!("Figure 7 is registered with a campaign grid")
    };
    let campaign = match &trace_set {
        Some(set) => trace_campaign(set.clone(), scale),
        None => grid(scale),
    };

    let frame = if local {
        cli.finish();
        campaign.run(&runner)
    } else {
        let mut endpoints: Vec<Endpoint> = connect.into_iter().map(Endpoint::Tcp).collect();
        let program = worker_bin.unwrap_or_else(default_worker_bin);
        let mut base_args = vec!["--jobs".to_string(), runner.jobs().to_string()];
        if let Some(cache) = runner.cache() {
            base_args.push("--cache".into());
            base_args.push(cache.dir().display().to_string());
        }
        for i in 0..workers {
            let mut args = base_args.clone();
            if let Some(store) = &worker_store {
                args.push("--trace-store".into());
                args.push(store.join(format!("w{i}")).display().to_string());
            }
            if i == 0 {
                args.extend(faults.to_args());
            }
            endpoints.push(Endpoint::Process {
                program: program.clone(),
                args,
            });
        }
        cli.finish();

        let driver = ShardedDriver::new(endpoints, cfg);
        let frame = campaign.run_on(&driver);
        let stats = driver.stats();
        // Every dispatch either succeeded or counted as a failed attempt.
        let succeeded = stats.dispatches - stats.failed_attempts;
        eprintln!(
            "shard-run: {} shards, {} dispatches ({} retries, {} speculative), \
             {} failed attempts, {} points resumed from journal, {} failed points, \
             {} traces shipped ({} bytes sent), {} trace reuses, {} trace bytes resumed, \
             {:.1} ms per successful dispatch",
            stats.shards,
            stats.dispatches,
            stats.retries,
            stats.speculative,
            stats.failed_attempts,
            stats.journal_resumed,
            stats.failed_points,
            stats.trace_ships,
            stats.trace_ship_bytes,
            stats.trace_reuses,
            stats.trace_resume_bytes,
            stats.dispatch_wall_us as f64 / 1e3 / succeeded.max(1) as f64,
        );
        frame
    };
    if !frame.is_complete() {
        for f in frame.failed() {
            eprintln!("shard-run: failed point: {f}");
        }
        eprintln!(
            "shard-run: {} of {} points failed; not writing a table \
             (re-run with --resume to retry only the missing points)",
            frame.failed().len(),
            frame.len() + frame.failed().len(),
        );
        std::process::exit(1);
    }
    let table = match &trace_set {
        Some(set) => trace_table(&frame, set),
        None => render(&frame).table,
    };
    table.print();
    report_csv(&out, &table.csv_records());
}

/// The `nocout-worker` binary next to this one — both are built into the
/// same target directory.
fn default_worker_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("shard-run knows its own path");
    exe.parent()
        .expect("the executable lives in a directory")
        .join("nocout-worker")
}
