//! Free-form configuration explorer: run any organization × workload ×
//! knob combination from the command line and dump the full metrics.
//!
//! ```text
//! cargo run --release -p nocout-experiments --bin explorer -- \
//!     --org nocout --workload data-serving --cores 64 --width 128 \
//!     --seeds 3 --banks 2 --jobs 4
//! ```

use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::campaign;
use nocout_sim::config::SeedSet;

const ABOUT: &str = "Free-form single-point explorer: builds one chip \
configuration from the flags below, runs the chosen workload (synthetic \
or trace:PATH) over N seeds, and dumps the full metrics (cores, LLC, \
network, memory).";

const USAGE: &str = "[--org mesh|fbfly|nocout|ideal|zeromesh] [--workload NAME|trace:PATH] \
     [--cores N] [--width BITS] [--banks N] [--concentration N] [--express] \
     [--llc-rows N] [--seeds N]";

fn main() {
    let mut cli = Cli::parse("explorer", ABOUT, USAGE);
    let mut org = Organization::NocOut;
    let mut workload: WorkloadClass = Workload::DataServing.into();
    let mut cores = 64usize;
    let mut width = 128u32;
    let mut banks = 2usize;
    let mut concentration = 1usize;
    let mut express = false;
    let mut llc_rows = 1usize;
    let mut seeds = 1usize;

    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--org" => {
                let v = cli.value(&flag);
                org = match v.as_str() {
                    "mesh" => Organization::Mesh,
                    "fbfly" => Organization::FlattenedButterfly,
                    "nocout" => Organization::NocOut,
                    "ideal" => Organization::IdealWire,
                    "zeromesh" => Organization::ZeroLoadMesh,
                    _ => cli.fail(&format!(
                        "invalid value for `--org`: `{v}` \
                         (expected mesh|fbfly|nocout|ideal|zeromesh)"
                    )),
                }
            }
            "--workload" => workload = cli.workload_class(&flag),
            "--cores" => cores = cli.parsed(&flag),
            "--width" => width = cli.parsed(&flag),
            "--banks" => banks = cli.parsed(&flag),
            "--concentration" => concentration = cli.parsed(&flag),
            "--express" => express = true,
            "--llc-rows" => llc_rows = cli.parsed(&flag),
            "--seeds" => seeds = cli.parsed(&flag),
            _ => cli.unknown(&flag),
        }
    }
    if seeds == 0 {
        cli.fail("invalid value for `--seeds`: `0` (expected at least 1)");
    }
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let mut chip = ChipConfig::with_cores(org, cores).with_link_width(width);
    chip.banks_per_llc_tile = banks;
    chip.concentration = concentration;
    chip.express_links = express;
    chip.llc_rows = llc_rows;

    // A single-point campaign: the explorer is the degenerate grid. The
    // campaign decides how many seeds run (a seed-insensitive class such
    // as trace replay runs one), so the report prints what it ran.
    let frame = campaign(scale)
        .fixed(chip)
        .workloads([workload.clone()])
        .seeds(&SeedSet::consecutive(1, seeds))
        .run(&runner);
    let p = &frame.results()[0];
    let m = &p.metrics;
    if p.seeds_run < seeds {
        eprintln!(
            "note: {workload} is seed-independent; ran {} run instead of {seeds}",
            p.seeds_run
        );
    }

    println!("configuration : {org} / {workload} / {cores} cores / {width}-bit links");
    println!(
        "performance   : aggregate IPC {:.4} ± {:.4} (95% CI over {} seed(s))",
        p.ipc, p.ci95, p.seeds_run
    );
    println!(
        "cores         : {} active, fetch stall {:.1}%",
        m.active_cores,
        m.fetch_stall_fraction * 100.0
    );
    println!(
        "LLC           : {} accesses, hit {:.2}, snoop rate {:.2}%, {} writebacks",
        m.llc.accesses,
        m.llc.hit_ratio(),
        m.llc.snoop_percent(),
        m.llc.writebacks
    );
    println!(
        "network       : {} packets, latency mean {:.1} (req {:.1} / resp {:.1}), \
         p50 ≤ {} / p99 ≤ {} cycles",
        m.network.packets,
        m.network.mean_latency,
        m.network.mean_request_latency,
        m.network.mean_response_latency,
        m.network.p50_latency,
        m.network.p99_latency
    );
    println!(
        "memory        : {} reads, {} writes",
        m.memory.reads, m.memory.writes
    );
}
