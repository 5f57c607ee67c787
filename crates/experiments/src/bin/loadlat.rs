//! Load vs. tail latency: open-loop request streams at a ladder of
//! arrival rates on the three evaluated organizations.
//!
//! Scale-out services are judged by tail latency under load, not by
//! throughput alone: an interconnect that looks fine on mean IPC can
//! still blow the p99 once queueing sets in. This experiment drives
//! every core with a deterministic open-loop arrival schedule (requests
//! of a fixed instruction count arriving every INTERVAL cycles, queueing
//! when the core falls behind) and reports the end-to-end service
//! latency percentiles per organization as the arrival interval
//! shrinks. The p99 must be monotone in load on every organization —
//! asserted here, and held by the CI golden-CSV gate.
//!
//! Run with `cargo run --release -p nocout-experiments --bin loadlat`
//! (set `NOCOUT_FAST=1` for the CI smoke configuration, `--jobs N` to
//! spread the grid over N workers). Writes `out/loadlat.csv`.

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::report_csv;
use nocout_experiments::table::Table;
use nocout_workloads::OpenLoopSpec;

const ABOUT: &str = "Load-vs-tail-latency sweep: open-loop request \
arrivals (data-serving service streams, 32 instructions per request) at \
a ladder of arrival intervals on the 3 evaluated organizations, \
reporting per-point service-latency percentiles. Writes out/loadlat.csv.";

/// Arrival intervals in cycles, lightest load first. 32-instruction
/// requests take on the order of a hundred cycles of service, so the
/// ladder spans low utilization through past saturation. (Below ~1600
/// the per-window sample count gets small enough that the p99 is
/// max-dominated noise, so the ladder starts there.)
const INTERVALS: [u64; 6] = [1600, 800, 400, 200, 100, 50];

/// Instructions per request.
const SERVICE: u32 = 32;

fn spec(interval: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        workload: Workload::DataServing,
        interval,
        service_instrs: SERVICE,
    }
}

fn main() {
    let cli = Cli::parse("loadlat", ABOUT, "");
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let frame = nocout_experiments::campaign(scale)
        .orgs(Organization::EVALUATED)
        .workloads(INTERVALS.map(spec))
        .run(&runner);

    let mut table = Table::new(
        "Load vs tail latency (open-loop, data-serving, 32-instr requests)",
        vec![
            "Organization".into(),
            "IntervalCycles".into(),
            "ReqCount".into(),
            "ReqP50".into(),
            "ReqP99".into(),
            "ReqP999".into(),
            "NetRespP99".into(),
        ],
    );
    let mut curves: Vec<(Organization, u64, u64)> = Vec::new();
    for org in Organization::EVALUATED {
        for interval in INTERVALS {
            let p = frame.at().org(org).workload(spec(interval)).one();
            let t = p.metrics.request_latency;
            assert!(
                t.count > 0,
                "{org} interval {interval}: no requests completed in the window"
            );
            curves.push((org, interval, t.p99));
            table.row(vec![
                org.to_string(),
                interval.to_string(),
                t.count.to_string(),
                t.p50.to_string(),
                t.p99.to_string(),
                t.p999.to_string(),
                p.metrics.network.response_tail.p99.to_string(),
            ]);
        }
    }
    table.print();
    report_csv("loadlat.csv", &table.csv_records());

    // The contract the CI golden gate freezes: per organization,
    // shrinking the arrival interval (raising load) never lowers the
    // p99, and every point completed requests in the window. Checked
    // after the table prints so a violation still shows the full curve.
    for w in curves.chunks(INTERVALS.len()) {
        for pair in w.windows(2) {
            let ((org, i0, p0), (_, i1, p1)) = (pair[0], pair[1]);
            assert!(
                p1 >= p0,
                "{org}: p99 {p1} at interval {i1} is below p99 {p0} at the \
                 lighter interval {i0} — tail latency must be monotone in load"
            );
        }
    }
}
