//! Quickstart: build the paper's 64-core NOC-Out chip, run a scale-out
//! workload, inspect what the interconnect did — then let a declarative
//! [`Campaign`] run the mesh comparison grid and query it by
//! coordinates.
//!
//! Run with `cargo run --release --example quickstart`.

use nocout_repro::prelude::*;
use nocout_repro::runner::BatchRunner;

fn main() {
    // The paper's Table 1 configuration with the NOC-Out organization:
    // 64 cores, 8 MB NUCA LLC in a central row of 8 tiles (2 banks each),
    // reduction/dispersion trees, 128-bit links, 4 DDR3-1667 channels.
    let chip = ChipConfig::paper(Organization::NocOut);

    // Run Web Search for a short warmup + measurement window.
    let spec = RunSpec {
        chip,
        workload: Workload::WebSearch.into(),
        window: MeasurementWindow::new(10_000, 20_000),
        seed: 42,
    };
    let metrics = run(&spec);

    println!("NOC-Out running {}:", spec.workload);
    println!(
        "  {} active cores retired {} instructions over {} cycles",
        metrics.active_cores, metrics.instructions, metrics.cycles
    );
    println!("  aggregate IPC          {:.3}", metrics.aggregate_ipc());
    println!(
        "  fetch-stall fraction   {:.1}%  (L1-I misses exposed to the NoC)",
        metrics.fetch_stall_fraction * 100.0
    );
    println!(
        "  LLC: {} accesses, hit ratio {:.2}, snoop rate {:.2}% (the paper's ~2%)",
        metrics.llc.accesses,
        metrics.llc.hit_ratio(),
        metrics.llc.snoop_percent()
    );
    println!(
        "  NoC: {} packets, mean latency {:.1} cycles (requests {:.1}, responses {:.1})",
        metrics.network.packets,
        metrics.network.mean_latency,
        metrics.network.mean_request_latency,
        metrics.network.mean_response_latency
    );
    println!(
        "  memory: {} line reads, {} writes over 4 channels",
        metrics.memory.reads, metrics.memory.writes
    );

    // Grids are declarative: a Campaign expands typed axes, runs them as
    // one batch, and hands back a frame queryable by coordinates — no
    // point vectors, no flat-index arithmetic (docs/campaign-api.md).
    let frame = Campaign::new()
        .orgs([Organization::Mesh, Organization::NocOut])
        .workloads([Workload::WebSearch, Workload::DataServing])
        .window(MeasurementWindow::new(10_000, 20_000))
        .seeds([42])
        .run(&BatchRunner::new(0)); // 0: one worker per hardware thread
    let norm = frame.normalize_to(Organization::Mesh);
    println!("\nNOC-Out speedup over the mesh (same window, seed 42):");
    for w in [Workload::WebSearch, Workload::DataServing] {
        println!(
            "  {:<14} {:.3}x  (IPC {:.3} vs {:.3})",
            w.name(),
            norm.get(Organization::NocOut, w),
            frame.get(Organization::NocOut, w).ipc,
            frame.get(Organization::Mesh, w).ipc,
        );
    }
    println!(
        "  geomean        {:.3}x",
        norm.geomean(Organization::NocOut)
    );
}
