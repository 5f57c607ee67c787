//! Integration tests pinning the paper's quantitative claims that don't
//! need full-system timing runs: area anchors, ratios, zero-load
//! latencies, SOP conclusions, and power-model behaviour.

use nocout_repro::substrates::noc::topology::fbfly::{build_fbfly, FbflySpec};
use nocout_repro::substrates::noc::topology::mesh::{build_mesh, MeshSpec};
use nocout_repro::substrates::noc::topology::nocout::{build_nocout, NocOutSpec};
use nocout_repro::substrates::noc::types::MessageClass;
use nocout_repro::substrates::tech::area::{NocAreaModel, OrganizationArea};
use nocout_repro::substrates::tech::{BufferTech, NocEnergyModel};

/// Zero-load request latency between a terminal pair on a fresh network.
fn one_way_latency(
    net: &mut nocout_repro::substrates::noc::Network,
    src: nocout_repro::substrates::noc::TerminalId,
    dst: nocout_repro::substrates::noc::TerminalId,
) -> u64 {
    net.inject(src, dst, MessageClass::Request, 0, 0);
    for _ in 0..1_000 {
        net.tick();
        if let Some(d) = net.poll(dst) {
            return d.latency();
        }
    }
    panic!("packet not delivered");
}

#[test]
fn mesh_per_hop_is_three_cycles() {
    // Table 1: one-cycle link + two-stage router.
    let mut mesh = build_mesh(&MeshSpec::paper_64());
    let l1 = one_way_latency(&mut mesh.network, mesh.tile_terminals[0], mesh.tile_terminals[1]);
    let l2 = one_way_latency(&mut mesh.network, mesh.tile_terminals[0], mesh.tile_terminals[2]);
    assert_eq!(l2 - l1, 3, "each added hop must cost exactly 3 cycles");
}

#[test]
fn fbfly_needs_at_most_two_hops() {
    let mut fb = build_fbfly(&FbflySpec::paper_64());
    // Worst pair (opposite corners) must still beat the mesh by a wide
    // margin: 2 hops + ejection vs 14 hops + ejection.
    let worst = one_way_latency(&mut fb.network, fb.tile_terminals[0], fb.tile_terminals[63]);
    assert!(worst <= 20, "fbfly worst-case {worst} too slow for 2 hops");
}

#[test]
fn nocout_tree_hop_is_one_cycle() {
    let mut n = build_nocout(&NocOutSpec::paper_64());
    // Same column, adjacent (depth 1) vs farthest (depth 4): 3 extra tree
    // hops at one cycle each (§4.1/4.2: single-cycle per-hop delay).
    let llc = n.llc_terminals[0];
    let near = one_way_latency(&mut n.network, n.core_terminals[3], llc);
    let far = one_way_latency(&mut n.network, n.core_terminals[0], llc);
    assert_eq!(far - near, 3);
}

#[test]
fn area_anchors_and_ratios() {
    let m = NocAreaModel::paper_32nm();
    let mesh = m.area(&OrganizationArea::mesh(&MeshSpec::paper_64())).total_mm2();
    let fb = m.area(&OrganizationArea::fbfly(&FbflySpec::paper_64())).total_mm2();
    let no = m.area(&OrganizationArea::nocout(&NocOutSpec::paper_64())).total_mm2();
    // §6.2/§6.5: ~3.5 / ~23 / ~2.5 mm².
    assert!((2.8..=4.2).contains(&mesh), "mesh {mesh:.2}");
    assert!((18.0..=28.0).contains(&fb), "fbfly {fb:.2}");
    assert!((2.0..=3.1).contains(&no), "nocout {no:.2}");
    assert!(fb / mesh > 5.0 && fb / mesh < 9.0);
    assert!(fb / no > 7.0 && fb / no < 11.0);
    assert!(no < mesh);
}

#[test]
fn fig9_width_collapse() {
    // §6.3: at NOC-Out's budget, the butterfly's link bandwidth shrinks by
    // a factor of ~7 while the mesh shrinks mildly.
    let m = NocAreaModel::paper_32nm();
    let budget = m
        .area(&OrganizationArea::nocout(&NocOutSpec::paper_64()))
        .total_mm2();
    let (mesh_w, _) = m.fit_width_to_budget(budget, |w| {
        OrganizationArea::mesh_with_width(&MeshSpec::paper_64(), w)
    });
    let (fb_w, _) = m.fit_width_to_budget(budget, |w| {
        OrganizationArea::fbfly_with_width(&FbflySpec::paper_64(), w)
    });
    assert!(mesh_w >= 88, "mesh width {mesh_w} should shrink mildly");
    assert!(fb_w <= 24, "fbfly width {fb_w} should collapse ~7x");
}

#[test]
fn power_model_ordering_under_common_activity() {
    // Same traffic profile priced under each organization's technology
    // choices: flip-flop mesh must cost more than NOC-Out's mux-dominated
    // fabric (shorter distances, tiny switches).
    let activity_mesh = nocout_repro::substrates::tech::energy::NocActivity {
        flit_mm: 40.0 * 1.85 * 100_000.0,
        buffer_writes: 4_000_000,
        buffer_reads: 4_000_000,
        xbar_traversals: 4_000_000,
        cycles: 100_000,
    };
    // NOC-Out's traffic crosses fewer, shorter hops.
    let activity_nocout = nocout_repro::substrates::tech::energy::NocActivity {
        flit_mm: 28.0 * 1.75 * 100_000.0,
        buffer_writes: 2_600_000,
        buffer_reads: 2_600_000,
        xbar_traversals: 2_600_000,
        cycles: 100_000,
    };
    let mesh_p = NocEnergyModel::paper_32nm(128, BufferTech::FlipFlop)
        .energy(&activity_mesh)
        .power_w();
    let nocout_p = NocEnergyModel::paper_32nm(128, BufferTech::FlipFlop)
        .with_radix(2.8)
        .energy(&activity_nocout)
        .power_w();
    assert!(mesh_p < 2.5, "NoC power must stay small: {mesh_p:.2}");
    assert!(nocout_p < mesh_p, "NOC-Out must be the most efficient");
}

#[test]
fn sop_prefers_many_cores_modest_llc() {
    use nocout_repro::sop::{optimize, SopInputs};
    use nocout_repro::substrates::tech::ChipPowerModel;
    let best = optimize(&SopInputs::paper_32nm(), &ChipPowerModel::paper_32nm());
    let top = &best[0];
    assert!(top.cores >= 48 && top.llc_mb <= 12.0);
}

#[test]
fn nocout_routers_match_paper_structure() {
    use nocout_repro::substrates::noc::RouterId;
    let n = build_nocout(&NocOutSpec::paper_64());
    // 8 LLC routers + 128 tree nodes.
    assert_eq!(n.network.num_routers(), 136);
    // A reduction node (router index 8 is the first tree node) has at most
    // 2 in-ports (network + local).
    for r in 8..n.network.num_routers() {
        let router = n.network.router(RouterId(r as u16));
        assert!(
            router.num_in_ports() <= 2,
            "tree node {r} has {} in-ports",
            router.num_in_ports()
        );
    }
}

#[test]
fn fig7_matches_paper() {
    // Fig. 7 from the golden CSV the CI fig7 byte gate ties to the model,
    // so nothing is simulated here. Columns: workload, mesh, FBfly,
    // NOC-Out, FBfly (paper), NOC-Out (paper); speedups over mesh.
    let csv = include_str!("golden/fig7_fast.csv");
    let rows: Vec<(&str, [f64; 5])> = csv
        .lines()
        .skip(1)
        .map(|line| {
            let mut cols = line.split(',');
            let name = cols.next().expect("workload column");
            let v: Vec<f64> = cols.map(|c| c.parse().expect("a number")).collect();
            (name, v.try_into().expect("five numeric columns"))
        })
        .collect();
    let (gmean, workloads) = rows.split_last().expect("rows");
    assert_eq!(gmean.0, "GMean");
    assert_eq!(workloads.len(), 6);
    // Geomean: within 3 % of the paper's 1.17 (0.035), the top of
    // nocbench's `paper_gmean_err_pct` over seeds 1–10 (0.9–3.0 %).
    let [_, fb, no, fb_paper, no_paper] = gmean.1;
    assert!((fb - fb_paper).abs() <= 0.035, "FBfly geomean {fb} vs {fb_paper}");
    assert!((no - no_paper).abs() <= 0.035, "NOC-Out geomean {no} vs {no_paper}");
    // The paper has the two equal; here NOC-Out leads by 0.030.
    assert!((fb - no).abs() <= 0.04, "FBfly {fb} vs NOC-Out {no}");
    // Per workload: within 0.12. The known deviations (ROADMAP item 1)
    // set that bound: Web Search (+0.094 FBfly, +0.110 NOC-Out, the
    // worst), Web Frontend's NOC-Out (+0.067) and Data Serving's NOC-Out
    // (−0.073).
    for (name, [_, fb, no, fb_paper, no_paper]) in workloads {
        assert!((fb - fb_paper).abs() <= 0.12, "{name}: FBfly {fb} vs {fb_paper}");
        assert!((no - no_paper).abs() <= 0.12, "{name}: NOC-Out {no} vs {no_paper}");
    }
}
