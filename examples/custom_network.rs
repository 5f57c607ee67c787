//! Build a custom network with the low-level NoC API: a little 4-column
//! NOC-Out-style fabric, hand-fed with traffic, timed packet by packet.
//!
//! This shows the substrate the full-system model is built on — useful if
//! you want to prototype your own topology against the same router model.
//!
//! Run with `cargo run --release --example custom_network`.

use nocout_repro::substrates::noc::network::NetworkBuilder;
use nocout_repro::substrates::noc::router::RouterConfig;
use nocout_repro::substrates::noc::types::MessageClass;

fn main() {
    // A single column: two cores feeding an LLC router through a
    // reduction chain, responses returning over a dispersion chain.
    let mut b = NetworkBuilder::new(128);
    let llc_router = b.add_router(RouterConfig::fbfly(5));
    let red_far = b.add_router(RouterConfig::tree_node());
    let red_near = b.add_router(RouterConfig::tree_node());
    let disp_near = b.add_router(RouterConfig::tree_node());
    let disp_far = b.add_router(RouterConfig::tree_node());

    // Network ports first so static priority favours in-flight traffic.
    b.add_link(red_far, red_near, 1, 1.75);
    b.add_link(red_near, llc_router, 1, 1.75);
    b.add_link(llc_router, disp_near, 1, 1.75);
    b.add_link(disp_near, disp_far, 1, 1.75);

    let core_far = b.add_terminal_split(red_far, disp_far);
    let core_near = b.add_terminal_split(red_near, disp_near);
    let llc = b.add_terminal(llc_router);
    b.compute_routes_bfs();
    let mut net = b.build();

    // Request/response pairs from both cores.
    net.inject(core_far, llc, MessageClass::Request, 0, 100);
    net.inject(core_near, llc, MessageClass::Request, 0, 200);

    let mut replies = 0;
    while replies < 2 {
        net.tick();
        while let Some(d) = net.poll(llc) {
            println!(
                "LLC received request token {} from {} after {} cycles",
                d.packet.token, d.packet.src, d.latency()
            );
            // Reply with a 64-byte line (5 flits on 128-bit links).
            net.inject(llc, d.packet.src, MessageClass::Response, 64, d.packet.token + 1);
            replies += 1;
        }
        assert!(net.now().raw() < 1_000, "traffic must drain quickly");
    }
    let mut got = 0;
    while got < 2 {
        net.tick();
        for core in [core_far, core_near] {
            if let Some(d) = net.poll(core) {
                println!(
                    "{} received response token {} after {} cycles",
                    core, d.packet.token, d.latency()
                );
                got += 1;
            }
        }
        assert!(net.now().raw() < 1_000);
    }
    let stats = net.stats();
    println!(
        "network moved {} packets / {} flits; mean latency {:.1} cycles",
        stats.packets_delivered.value(),
        stats.flits_delivered.value(),
        stats.mean_latency()
    );
}
