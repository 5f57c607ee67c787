//! Diagnostic probe: stall composition and miss rates per organization,
//! plus the share of core-ticks the simulator slept through instead of
//! executing. Not part of the paper's figures; used to calibrate the
//! workload models.
//!
//! Run with `cargo run --release -p nocout-experiments --bin probe -- \
//! [--workload NAME|trace:PATH|openloop:WORKLOAD:INTERVAL:SERVICE] \
//! [--jobs N]`.

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::campaign;

const ABOUT: &str = "Calibration probe (not a paper figure): runs one \
workload — synthetic, trace:PATH or openloop:WORKLOAD:INTERVAL:SERVICE \
(one request of SERVICE instructions per core every INTERVAL cycles) — on \
the mesh and NOC-Out and prints stall composition, LLC/memory rates and \
network latencies side by side, then the share of core-ticks each run \
slept through instead of executing: stalled (dispatch blocked) and \
spinning (idle open-loop cores between requests).";

fn main() {
    let mut cli = Cli::parse(
        "probe",
        ABOUT,
        "[--workload NAME|trace:PATH|openloop:WORKLOAD:INTERVAL:SERVICE]",
    );
    let mut workload: WorkloadClass = Workload::DataServing.into();
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--workload" => workload = cli.workload_class(&flag),
            _ => cli.unknown(&flag),
        }
    }
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let orgs = [Organization::Mesh, Organization::NocOut];
    let plan = campaign(scale).orgs(orgs).workloads([workload.clone()]);
    let frame = plan.run(&runner);
    for org in orgs {
        let m = &frame.get(org, workload.clone()).metrics;
        let instr = m.instructions as f64;
        println!(
            "{org:>22}: ipc/core {:.3}  fetch_stall {:.1}%  LLC-acc/ki {:.1}  LLC hit {:.2} \
             snoop {:.2}%  req_lat {:.1} resp_lat {:.1}  mem reads/ki {:.1}",
            m.aggregate_ipc() / m.active_cores as f64,
            m.fetch_stall_fraction * 100.0,
            m.llc.accesses as f64 / instr * 1000.0,
            m.llc.hit_ratio(),
            m.llc.snoop_percent(),
            m.network.mean_request_latency,
            m.network.mean_response_latency,
            m.memory.reads as f64 / instr * 1000.0,
        );
    }
    // The sleep counters live on the chip, not in the (cacheable)
    // metrics, so each point is simulated once more here to read them.
    for spec in plan.specs() {
        let mut chip = ScaleOutChip::new(spec.chip, spec.workload.clone(), spec.seed);
        chip.run_for(spec.window.total_cycles());
        let ticks = chip.core_tick_counts();
        let share = |n: u64| n as f64 / ticks.total() as f64 * 100.0;
        println!(
            "{:>22}: core-ticks executed {}  slept stalled {} ({:.1}%)  slept spinning {} ({:.1}%)  \
             whole-chip cycles skipped {}",
            spec.chip.organization,
            ticks.executed,
            ticks.slept_stalled,
            share(ticks.slept_stalled),
            ticks.slept_spinning,
            share(ticks.slept_spinning),
            chip.skipped_cycles(),
        );
    }
}
