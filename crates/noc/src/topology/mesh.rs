//! The tiled mesh baseline (Fig. 2).
//!
//! 64 tiles in an 8×8 grid; each tile holds a core, an LLC slice with
//! directory, and a 5-port router (N/S/E/W + local) with a 2-stage
//! speculative pipeline, 3 VCs per port (one per message class) and 5-flit
//! VCs — Table 1. Routing is dimension-ordered (X then Y), which is
//! deadlock-free within each message class.

use crate::network::{Network, NetworkBuilder};
use crate::router::RouterConfig;
use crate::types::{PortIndex, RouterId, TerminalId};

use super::{link_delay_for_mm, TILED_TILE_MM};

/// Parameters of a tiled mesh network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Link (flit) width in bits; 128 in the paper's main configuration.
    pub link_width_bits: u32,
    /// Tile pitch in millimetres.
    pub tile_mm: f64,
    /// Number of memory-controller terminals attached at edge routers.
    pub num_memory_channels: usize,
    /// VC buffer depth in flits (5 covers the round-trip credit time).
    pub vc_depth: u8,
}

impl MeshSpec {
    /// The paper's 64-tile configuration.
    pub fn paper_64() -> Self {
        MeshSpec {
            cols: 8,
            rows: 8,
            link_width_bits: 128,
            tile_mm: TILED_TILE_MM,
            num_memory_channels: 4,
            vc_depth: 5,
        }
    }

    /// A mesh sized for `tiles` tiles (Fig. 1 core-count sweep).
    pub fn with_tiles(tiles: usize) -> Self {
        let (cols, rows) = super::grid_for_tiles(tiles);
        MeshSpec {
            cols,
            rows,
            ..MeshSpec::paper_64()
        }
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }
}

/// A built tiled network (mesh or flattened butterfly): the fabric plus the
/// terminal map the chip model needs.
#[derive(Debug)]
pub struct TiledNetwork {
    /// The underlying flit-level network.
    pub network: Network,
    /// One terminal per tile, row-major. The tile's core and LLC slice
    /// share this terminal (they share the router's local port).
    pub tile_terminals: Vec<TerminalId>,
    /// Memory-controller terminals, attached at edge routers.
    pub mc_terminals: Vec<TerminalId>,
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
}

/// Positions (as tile indices) at which memory controllers attach: spread
/// along the left and right die edges, mirroring Fig. 5's channel placement.
pub(crate) fn mc_tiles(cols: usize, rows: usize, channels: usize) -> Vec<usize> {
    let mut tiles = Vec::with_capacity(channels);
    for k in 0..channels {
        let side_right = k % 2 == 1;
        let row = (rows * (k / 2 * 2 + 1) / channels.max(1)).min(rows - 1);
        let col = if side_right { cols - 1 } else { 0 };
        tiles.push(row * cols + col);
    }
    tiles
}

/// Builds a mesh network per `spec`.
///
/// # Examples
///
/// ```
/// use nocout_noc::topology::mesh::{build_mesh, MeshSpec};
///
/// let mesh = build_mesh(&MeshSpec::paper_64());
/// assert_eq!(mesh.tile_terminals.len(), 64);
/// assert_eq!(mesh.mc_terminals.len(), 4);
/// assert_eq!(mesh.network.num_routers(), 64);
/// ```
pub fn build_mesh(spec: &MeshSpec) -> TiledNetwork {
    let cols = spec.cols;
    let rows = spec.rows;
    assert!(cols >= 1 && rows >= 1);
    let mut b = NetworkBuilder::new(spec.link_width_bits);
    let cfg = RouterConfig {
        vc_depth: spec.vc_depth,
        ..RouterConfig::mesh()
    };

    let router_at: Vec<RouterId> = (0..cols * rows).map(|_| b.add_router(cfg)).collect();
    let idx = |c: usize, r: usize| r * cols + c;
    let delay = link_delay_for_mm(spec.tile_mm);

    // Neighbor links; record the out-port of each direction for routing.
    // east[i] = out port at tile i toward (c+1, r), etc.
    let mut east: Vec<Option<PortIndex>> = vec![None; cols * rows];
    let mut west: Vec<Option<PortIndex>> = vec![None; cols * rows];
    let mut north: Vec<Option<PortIndex>> = vec![None; cols * rows];
    let mut south: Vec<Option<PortIndex>> = vec![None; cols * rows];
    for r in 0..rows {
        for c in 0..cols {
            let here = idx(c, r);
            if c + 1 < cols {
                let there = idx(c + 1, r);
                let (e, _) = b.add_link(
                    router_at[here],
                    router_at[there],
                    delay,
                    spec.tile_mm as f32,
                );
                let (w, _) = b.add_link(
                    router_at[there],
                    router_at[here],
                    delay,
                    spec.tile_mm as f32,
                );
                east[here] = Some(e);
                west[there] = Some(w);
            }
            if r + 1 < rows {
                let there = idx(c, r + 1);
                let (s, _) = b.add_link(
                    router_at[here],
                    router_at[there],
                    delay,
                    spec.tile_mm as f32,
                );
                let (n, _) = b.add_link(
                    router_at[there],
                    router_at[here],
                    delay,
                    spec.tile_mm as f32,
                );
                south[here] = Some(s);
                north[there] = Some(n);
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

    // Dimension-order (X then Y) routing tables for every terminal.
    let route_to = |b: &mut NetworkBuilder, term: TerminalId, dc: usize, dr: usize| {
        for r in 0..rows {
            for c in 0..cols {
                let here = idx(c, r);
                let port = if c < dc {
                    east[here].expect("east link exists")
                } else if c > dc {
                    west[here].expect("west link exists")
                } else if r < dr {
                    south[here].expect("south link exists")
                } else if r > dr {
                    north[here].expect("north link exists")
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
    fn builds_paper_mesh() {
        let mesh = build_mesh(&MeshSpec::paper_64());
        assert_eq!(mesh.network.num_terminals(), 68);
        // Interior router: 4 neighbor in + 1 terminal in = 5 ports.
        let interior = mesh.network.router(RouterId(9)); // tile (1,1)
        assert_eq!(interior.num_in_ports(), 5);
        assert_eq!(interior.num_out_ports(), 5);
    }

    #[test]
    fn corner_to_corner_zero_load_latency() {
        let mut mesh = build_mesh(&MeshSpec::paper_64());
        let t0 = mesh.tile_terminals[0];
        let t63 = mesh.tile_terminals[63];
        mesh.network
            .inject(t0, t63, MessageClass::Request, 0, 1);
        let mut lat = None;
        for _ in 0..200 {
            mesh.network.tick();
            if let Some(d) = mesh.network.poll(t63) {
                lat = Some(d.latency());
                break;
            }
        }
        // 14 hops + ejection, 3 cycles each = 45.
        assert_eq!(lat, Some(45));
    }

    #[test]
    fn xy_routing_all_pairs_deliver() {
        let mut mesh = build_mesh(&MeshSpec::with_tiles(16));
        let terminals = mesh.tile_terminals.clone();
        for (i, &src) in terminals.iter().enumerate() {
            for (j, &dst) in terminals.iter().enumerate() {
                if i == j {
                    continue;
                }
                mesh.network.inject(
                    src,
                    dst,
                    MessageClass::Request,
                    0,
                    (i * 100 + j) as u64,
                );
            }
        }
        assert!(mesh.network.run_until_drained(20_000));
        let delivered: usize = terminals
            .iter()
            .map(|&t| {
                let mut n = 0;
                while mesh.network.poll(t).is_some() {
                    n += 1;
                }
                n
            })
            .sum();
        assert_eq!(delivered, 16 * 15);
        mesh.network.check_invariants();
    }

    #[test]
    fn mc_terminals_reachable() {
        let mut mesh = build_mesh(&MeshSpec::paper_64());
        let src = mesh.tile_terminals[27];
        for &mc in &mesh.mc_terminals.clone() {
            mesh.network.inject(src, mc, MessageClass::Request, 0, 1);
        }
        assert!(mesh.network.run_until_drained(1000));
    }

    #[test]
    fn mc_tiles_on_edges() {
        for &tile in &mc_tiles(8, 8, 4) {
            let c = tile % 8;
            assert!(c == 0 || c == 7, "MCs must sit on left/right edges");
        }
        assert_eq!(mc_tiles(8, 8, 4).len(), 4);
    }

    #[test]
    fn mesh_routes_validate_with_manhattan_hop_counts() {
        let mesh = build_mesh(&MeshSpec::paper_64());
        let hops = mesh.network.validate_routes();
        // Tile 0 (0,0) to tile 63 (7,7): 14 hops; to itself: 0.
        assert_eq!(hops[0][63], 14);
        assert_eq!(hops[0][0], 0);
        assert_eq!(hops[0][7], 7);
        assert_eq!(hops[9][9 + 8], 1);
    }

    #[test]
    fn single_tile_mesh_works() {
        let mut mesh = build_mesh(&MeshSpec::with_tiles(1));
        let t = mesh.tile_terminals[0];
        mesh.network.inject(t, t, MessageClass::Response, 64, 5);
        assert!(mesh.network.run_until_drained(100));
        assert!(mesh.network.poll(t).is_some());
    }
}
