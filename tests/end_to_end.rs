//! End-to-end integration tests: full-system runs across organizations.

mod common;

use common::same;
use nocout_repro::prelude::*;
use nocout_sim::config::MeasurementWindow;

fn quick(chip: ChipConfig, workload: Workload, seed: u64) -> SystemMetrics {
    run(&RunSpec {
        chip,
        workload: workload.into(),
        window: MeasurementWindow::new(3_000, 6_000),
        seed,
    })
}

#[test]
fn every_workload_runs_on_every_organization() {
    for org in Organization::EVALUATED {
        for w in Workload::ALL {
            let m = quick(ChipConfig::paper(org), w, 1);
            assert!(
                m.aggregate_ipc() > 0.05,
                "{org}/{w}: ipc {}",
                m.aggregate_ipc()
            );
            assert!(m.llc.accesses > 0, "{org}/{w}: no LLC traffic");
            assert!(m.network.packets > 0, "{org}/{w}: no network traffic");
        }
    }
}

#[test]
fn runs_are_bit_deterministic() {
    for org in [Organization::Mesh, Organization::NocOut] {
        let a = quick(ChipConfig::paper(org), Workload::DataServing, 9);
        let b = quick(ChipConfig::paper(org), Workload::DataServing, 9);
        same(&a, &b, org);
    }
}

#[test]
fn low_diameter_networks_beat_the_mesh() {
    // The paper's headline ordering must hold on every 64-core workload.
    for w in [Workload::DataServing, Workload::MapReduceW] {
        let mesh = quick(ChipConfig::paper(Organization::Mesh), w, 3);
        let fb = quick(
            ChipConfig::paper(Organization::FlattenedButterfly),
            w,
            3,
        );
        let no = quick(ChipConfig::paper(Organization::NocOut), w, 3);
        assert!(
            fb.aggregate_ipc() > mesh.aggregate_ipc() * 1.02,
            "{w}: fbfly {:.3} vs mesh {:.3}",
            fb.aggregate_ipc(),
            mesh.aggregate_ipc()
        );
        assert!(
            no.aggregate_ipc() > mesh.aggregate_ipc() * 1.02,
            "{w}: nocout {:.3} vs mesh {:.3}",
            no.aggregate_ipc(),
            mesh.aggregate_ipc()
        );
    }
}

#[test]
fn network_latency_ordering_matches_paper() {
    let w = Workload::MapReduceC;
    let mesh = quick(ChipConfig::paper(Organization::Mesh), w, 5);
    let fb = quick(ChipConfig::paper(Organization::FlattenedButterfly), w, 5);
    let no = quick(ChipConfig::paper(Organization::NocOut), w, 5);
    assert!(
        mesh.network.mean_latency > fb.network.mean_latency,
        "mesh {:.1} vs fbfly {:.1}",
        mesh.network.mean_latency,
        fb.network.mean_latency
    );
    assert!(
        fb.network.mean_latency > no.network.mean_latency,
        "fbfly {:.1} vs nocout {:.1}",
        fb.network.mean_latency,
        no.network.mean_latency
    );
}

#[test]
fn sixteen_core_workloads_use_sixteen_cores() {
    for org in Organization::EVALUATED {
        let m = quick(ChipConfig::paper(org), Workload::WebSearch, 1);
        assert_eq!(m.active_cores, 16, "{org}");
        let populated = m.per_core_ipc.iter().filter(|&&x| x > 0.0).count();
        assert_eq!(populated, 16, "{org}: wrong active set");
    }
}

#[test]
fn narrower_links_hurt_performance() {
    let w = Workload::DataServing;
    let wide = quick(ChipConfig::paper(Organization::FlattenedButterfly), w, 2);
    let narrow = quick(
        ChipConfig::paper(Organization::FlattenedButterfly).with_link_width(16),
        w,
        2,
    );
    // Fig. 9's mechanism: 16-bit links mean 36-flit responses.
    assert!(
        narrow.aggregate_ipc() < wide.aggregate_ipc() * 0.85,
        "narrow {:.3} vs wide {:.3}",
        narrow.aggregate_ipc(),
        wide.aggregate_ipc()
    );
    assert!(narrow.network.mean_response_latency > wide.network.mean_response_latency * 1.5);
}

#[test]
fn ideal_fabric_is_upper_bound() {
    let w = Workload::MapReduceW;
    let ideal = quick(ChipConfig::paper(Organization::IdealWire), w, 4);
    for org in Organization::EVALUATED {
        let m = quick(ChipConfig::paper(org), w, 4);
        assert!(
            ideal.aggregate_ipc() > m.aggregate_ipc() * 0.99,
            "{org} {:.3} should not beat ideal {:.3}",
            m.aggregate_ipc(),
            ideal.aggregate_ipc()
        );
    }
}

#[test]
fn memory_traffic_reaches_all_channels() {
    let m = quick(ChipConfig::paper(Organization::NocOut), Workload::MapReduceC, 6);
    assert!(m.memory.reads > 100, "vast dataset must stream from DRAM");
}

#[test]
fn two_dimensional_llc_chip_runs() {
    // §7.1: LLC extended to two rows (16 tiles, 512 KB slices).
    let mut cfg = ChipConfig::paper(Organization::NocOut);
    cfg.llc_rows = 2;
    let m = quick(cfg, Workload::MapReduceC, 4);
    assert!(m.aggregate_ipc() > 0.05);
    assert!(m.llc.accesses > 0);
}

#[test]
fn express_link_chip_runs_and_does_not_lose_performance() {
    let mut tall = ChipConfig::with_cores(Organization::NocOut, 128);
    tall.active_core_override = Some(128);
    tall.mem_channels = 8;
    let plain = quick(tall, Workload::MapReduceC, 4);
    let mut with_express = tall;
    with_express.express_links = true;
    let express = quick(with_express, Workload::MapReduceC, 4);
    assert!(
        express.aggregate_ipc() >= plain.aggregate_ipc() * 0.99,
        "express links must not hurt: {:.3} vs {:.3}",
        express.aggregate_ipc(),
        plain.aggregate_ipc()
    );
}

#[test]
fn concentrated_chip_runs() {
    let mut cfg = ChipConfig::with_cores(Organization::NocOut, 128);
    cfg.concentration = 2;
    cfg.active_core_override = Some(128);
    let m = quick(cfg, Workload::SatSolver, 2);
    assert_eq!(m.active_cores, 128);
    assert!(m.aggregate_ipc() > 0.05);
}

#[test]
fn snoop_rates_stay_in_scale_out_range() {
    for w in Workload::ALL {
        let m = quick(ChipConfig::paper(Organization::Mesh), w, 8);
        let pct = m.llc.snoop_percent();
        assert!(
            pct < 8.0,
            "{w}: snoop rate {pct:.1}% breaks the bilateral-traffic premise"
        );
    }
}
