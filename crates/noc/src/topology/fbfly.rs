//! The tiled 2-D flattened butterfly (Fig. 3).
//!
//! Same tiled organization as the mesh, but every router has dedicated
//! channels to all routers in its row and all routers in its column
//! (7 + 7 = 14 network ports plus a local port at 8×8). Routing is
//! dimension-ordered and takes at most two hops. Routers use a 3-stage
//! non-speculative pipeline; per-port VC depth is sized to each link's
//! round-trip credit time, and link delay is proportional to distance
//! (up to two tiles per cycle) — Table 1.

use crate::network::NetworkBuilder;
use crate::router::RouterConfig;
use crate::types::{PortIndex, RouterId, TerminalId};

use super::mesh::{mc_tiles, TiledNetwork};
use super::{credit_round_trip_depth, link_delay_for_mm, TILED_TILE_MM};

/// Parameters of a tiled flattened-butterfly network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbflySpec {
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Link (flit) width in bits.
    pub link_width_bits: u32,
    /// Tile pitch in millimetres.
    pub tile_mm: f64,
    /// Number of memory-controller terminals.
    pub num_memory_channels: usize,
}

impl FbflySpec {
    /// The paper's 64-tile configuration.
    pub fn paper_64() -> Self {
        FbflySpec {
            cols: 8,
            rows: 8,
            link_width_bits: 128,
            tile_mm: TILED_TILE_MM,
            num_memory_channels: 4,
        }
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }
}

/// Builds a flattened-butterfly network per `spec`.
///
/// # Examples
///
/// ```
/// use nocout_noc::topology::fbfly::{build_fbfly, FbflySpec};
///
/// let net = build_fbfly(&FbflySpec::paper_64());
/// // 14 network ports + terminal = 15 ports per router, as in Table 1.
/// use nocout_noc::types::RouterId;
/// assert_eq!(net.network.router(RouterId(0)).num_out_ports(), 15);
/// ```
pub fn build_fbfly(spec: &FbflySpec) -> TiledNetwork {
    let cols = spec.cols;
    let rows = spec.rows;
    assert!(cols >= 1 && rows >= 1);
    let mut b = NetworkBuilder::new(spec.link_width_bits);
    // Base VC depth applies to terminal injection ports; per-link depths
    // are set explicitly below.
    let cfg = RouterConfig::fbfly(5);

    let router_at: Vec<RouterId> = (0..cols * rows).map(|_| b.add_router(cfg)).collect();
    let idx = |c: usize, r: usize| r * cols + c;

    // row_port[i][dc]: out port at tile i toward column dc (same row).
    let mut row_port: Vec<Vec<Option<PortIndex>>> = vec![vec![None; cols]; cols * rows];
    let mut col_port: Vec<Vec<Option<PortIndex>>> = vec![vec![None; rows]; cols * rows];
    for r in 0..rows {
        for c in 0..cols {
            let here = idx(c, r);
            for dc in 0..cols {
                if dc == c {
                    continue;
                }
                let dist = c.abs_diff(dc);
                let mm = dist as f64 * spec.tile_mm;
                let delay = link_delay_for_mm(mm);
                let depth = credit_round_trip_depth(cfg.pipeline_delay, delay);
                let (out, _) = b.add_link_with_depth(
                    router_at[here],
                    router_at[idx(dc, r)],
                    delay,
                    mm as f32,
                    depth,
                );
                row_port[here][dc] = Some(out);
            }
            for dr in 0..rows {
                if dr == r {
                    continue;
                }
                let dist = r.abs_diff(dr);
                let mm = dist as f64 * spec.tile_mm;
                let delay = link_delay_for_mm(mm);
                let depth = credit_round_trip_depth(cfg.pipeline_delay, delay);
                let (out, _) = b.add_link_with_depth(
                    router_at[here],
                    router_at[idx(c, dr)],
                    delay,
                    mm as f32,
                    depth,
                );
                col_port[here][dr] = Some(out);
            }
        }
    }

    let tile_terminals: Vec<_> = (0..cols * rows)
        .map(|i| b.add_terminal(router_at[i]))
        .collect();
    let mc_attach = mc_tiles(cols, rows, spec.num_memory_channels);
    let mc_terminals: Vec<_> = mc_attach
        .iter()
        .map(|&tile| b.add_terminal(router_at[tile]))
        .collect();

    // X-then-Y routing: at most one row hop then one column hop.
    let route_to = |b: &mut NetworkBuilder, term: TerminalId, dc: usize, dr: usize| {
        for r in 0..rows {
            for c in 0..cols {
                let here = idx(c, r);
                let port = if c != dc {
                    row_port[here][dc].expect("row link exists")
                } else if r != dr {
                    col_port[here][dr].expect("column link exists")
                } else {
                    continue; // the ejection route, installed with the terminal
                };
                b.set_route(router_at[here], term, port);
            }
        }
    };
    for (i, &term) in tile_terminals.iter().enumerate() {
        route_to(&mut b, term, i % cols, i / cols);
    }
    for (&term, &tile) in mc_terminals.iter().zip(&mc_attach) {
        route_to(&mut b, term, tile % cols, tile / cols);
    }

    TiledNetwork {
        network: b.build(),
        tile_terminals,
        mc_terminals,
        cols,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MessageClass;

    #[test]
    fn paper_config_port_counts() {
        let net = build_fbfly(&FbflySpec::paper_64());
        for r in 0..64 {
            let router = net.network.router(RouterId(r as u16));
            // 14 network + 1 terminal (+1 MC on four edge routers).
            assert!(router.num_in_ports() == 15 || router.num_in_ports() == 16);
        }
    }

    #[test]
    fn at_most_two_hops_corner_to_corner() {
        let mut net = build_fbfly(&FbflySpec::paper_64());
        let t0 = net.tile_terminals[0];
        let t63 = net.tile_terminals[63];
        net.network.inject(t0, t63, MessageClass::Request, 0, 1);
        let mut lat = None;
        for _ in 0..100 {
            net.network.tick();
            if let Some(d) = net.network.poll(t63) {
                lat = Some(d.latency());
                break;
            }
        }
        // Two 7-tile hops (3-stage router + 4-cycle link each) + ejection
        // (3 + 1): 7 + 7 + 4 = 18.
        assert_eq!(lat, Some(18));
    }

    #[test]
    fn nearer_pairs_are_faster_than_mesh() {
        let mut fb = build_fbfly(&FbflySpec::paper_64());
        let src = fb.tile_terminals[0];
        let dst = fb.tile_terminals[36]; // (4,4): 8 mesh hops away
        fb.network.inject(src, dst, MessageClass::Request, 0, 1);
        let mut lat = None;
        for _ in 0..100 {
            fb.network.tick();
            if let Some(d) = fb.network.poll(dst) {
                lat = Some(d.latency());
                break;
            }
        }
        // Mesh would take (8 hops + eject) * 3 = 27 cycles; FBfly two hops.
        assert!(lat.unwrap() < 20, "fbfly latency {lat:?} should beat mesh");
    }

    #[test]
    fn fbfly_routes_take_at_most_two_hops() {
        let net = build_fbfly(&FbflySpec::paper_64());
        let hops = net.network.validate_routes();
        for (s, row) in hops.iter().enumerate().take(64) {
            for (d, &h) in row.iter().enumerate().take(64) {
                assert!(h <= 2, "t{s}→t{d} took {h} hops");
            }
        }
    }

    #[test]
    fn all_pairs_deliver_16_tiles() {
        let spec = FbflySpec {
            cols: 4,
            rows: 4,
            ..FbflySpec::paper_64()
        };
        let mut net = build_fbfly(&spec);
        let terminals = net.tile_terminals.clone();
        for (i, &src) in terminals.iter().enumerate() {
            for &dst in &terminals {
                if src != dst {
                    net.network
                        .inject(src, dst, MessageClass::Response, 64, i as u64);
                }
            }
        }
        assert!(net.network.run_until_drained(50_000));
        net.network.check_invariants();
        let got: usize = terminals
            .iter()
            .map(|&t| {
                let mut n = 0;
                while net.network.poll(t).is_some() {
                    n += 1;
                }
                n
            })
            .sum();
        assert_eq!(got, 16 * 15);
    }
}
