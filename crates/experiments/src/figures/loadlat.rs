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
//! asserted by the render, and held by the CI golden-CSV gate.

use super::{Body, Figure, Output};
use crate::{campaign, Table};
use nocout::prelude::*;
use nocout_workloads::OpenLoopSpec;

pub(super) const FIGURE: Figure = Figure {
    name: "loadlat",
    about: "Load-vs-tail-latency sweep: open-loop request \
arrivals (data-serving service streams, 32 instructions per request) at \
a ladder of arrival intervals on the 3 evaluated organizations, \
reporting per-point service-latency percentiles.",
    body: Body::Grid {
        grid: |scale| campaign(scale).orgs(Organization::EVALUATED).workloads(INTERVALS.map(spec)),
        render,
    },
};

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

/// # Panics
///
/// Panics if a point completed no request, or, showing the whole table,
/// if shrinking the arrival interval (raising load) lowers an
/// organization's p99: the contract the CI golden gate freezes.
fn render(frame: &ResultFrame) -> Output {
    let mut table = Table::new(
        "Load vs tail latency (open-loop, data-serving, 32-instr requests)",
        &[
            "Organization", "IntervalCycles", "ReqCount", "ReqP50", "ReqP99", "ReqP999",
            "NetRespP99",
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

    // Per organization, shrinking the arrival interval (raising load)
    // never lowers the p99. The message carries the table so a violation
    // still shows the full curve.
    for w in curves.chunks(INTERVALS.len()) {
        for pair in w.windows(2) {
            let ((org, i0, p0), (_, i1, p1)) = (pair[0], pair[1]);
            assert!(
                p1 >= p0,
                "{}{org}: p99 {p1} at interval {i1} is below p99 {p0} at the \
                 lighter interval {i0} — tail latency must be monotone in load",
                table.render()
            );
        }
    }
    Output { table, notes: Vec::new() }
}
