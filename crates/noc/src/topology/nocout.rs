//! The NOC-Out organization (Fig. 5).
//!
//! LLC tiles sit in a single row across the centre of the die; core tiles
//! fill the regions above and below. Each column-half of cores feeds its
//! column's LLC tile through a **reduction tree** (a chain of buffered
//! 2-input muxes, one per core row) and receives responses and snoops
//! through a **dispersion tree** (a chain of buffered demuxes). The LLC
//! tiles are fully connected by a 1-D flattened butterfly; memory channels
//! attach through dedicated ports on the edge LLC routers. There is no
//! direct core-to-core connectivity — all traffic flows through the LLC
//! region (§4).

use crate::network::NetworkBuilder;
use crate::router::RouterConfig;
use crate::types::{RouterId, TerminalId};

use super::{credit_round_trip_depth, link_delay_for_mm, NOCOUT_TILE_MM};

/// Parameters of a NOC-Out network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocOutSpec {
    /// LLC columns (and LLC tiles; 8 in the paper).
    pub columns: usize,
    /// Core rows on each side of the LLC row (4 in the paper → 64 cores).
    pub rows_per_side: usize,
    /// Cores sharing each tree node's local port (§7.1 concentration;
    /// 1 in the baseline).
    pub concentration: usize,
    /// Link (flit) width in bits.
    pub link_width_bits: u32,
    /// Core tile pitch in millimetres.
    pub tile_mm: f64,
    /// Number of memory-controller terminals on the edge LLC routers.
    pub num_memory_channels: usize,
    /// §7.1 express links: insert skip-two links into the reduction and
    /// dispersion trees so tall trees approach wire-only latency. Only
    /// meaningful with `rows_per_side ≥ 3`.
    pub express_links: bool,
    /// §7.1 LLC scaling: rows of LLC tiles (1 in the baseline; 2 extends
    /// the LLC butterfly to two dimensions). North-side trees feed row 0,
    /// south-side trees feed the last row.
    pub llc_rows: usize,
}

impl NocOutSpec {
    /// The paper's 64-core configuration: 8 columns × 4 rows × 2 sides.
    pub fn paper_64() -> Self {
        NocOutSpec {
            columns: 8,
            rows_per_side: 4,
            concentration: 1,
            link_width_bits: 128,
            tile_mm: NOCOUT_TILE_MM,
            num_memory_channels: 4,
            express_links: false,
            llc_rows: 1,
        }
    }

    /// Number of LLC tiles.
    pub fn llc_tiles(&self) -> usize {
        self.columns * self.llc_rows
    }

    /// Total number of cores.
    pub fn cores(&self) -> usize {
        self.columns * self.rows_per_side * 2 * self.concentration
    }
}

/// A built NOC-Out network with its terminal maps.
#[derive(Debug)]
pub struct NocOutNetwork {
    /// The underlying flit-level network.
    pub network: crate::network::Network,
    /// Core terminals, ordered side-major (all north-side cores, then all
    /// south-side), then column-major, then row (row 0 farthest from the
    /// LLC), then concentration slot.
    pub core_terminals: Vec<TerminalId>,
    /// One terminal per LLC tile (column order). Each tile holds the
    /// column's LLC banks and directory slice.
    pub llc_terminals: Vec<TerminalId>,
    /// Memory-controller terminals on the edge LLC routers.
    pub mc_terminals: Vec<TerminalId>,
    /// For each core (same order as `core_terminals`), its LLC column.
    pub core_column: Vec<usize>,
    /// The spec this network was built from.
    pub spec: NocOutSpec,
}

impl NocOutNetwork {
    /// Number of reduction-tree hops from a core to its LLC router
    /// (1 = adjacent).
    pub fn core_depth(&self, core: usize) -> usize {
        let per_side = self.spec.columns * self.spec.rows_per_side * self.spec.concentration;
        let within = core % per_side;
        let row = (within / self.spec.concentration) % self.spec.rows_per_side;
        self.spec.rows_per_side - row
    }
}

/// Builds a NOC-Out network per `spec`.
///
/// # Examples
///
/// ```
/// use nocout_noc::topology::nocout::{build_nocout, NocOutSpec};
///
/// let n = build_nocout(&NocOutSpec::paper_64());
/// assert_eq!(n.core_terminals.len(), 64);
/// assert_eq!(n.llc_terminals.len(), 8);
/// assert_eq!(n.mc_terminals.len(), 4);
/// ```
pub fn build_nocout(spec: &NocOutSpec) -> NocOutNetwork {
    assert!(spec.columns >= 1 && spec.rows_per_side >= 1 && spec.concentration >= 1);
    assert!(spec.llc_rows >= 1 && spec.llc_rows <= 2, "LLC scales to two rows (§7.1)");
    let mut b = NetworkBuilder::new(spec.link_width_bits);
    let tree_cfg = RouterConfig::tree_node();
    let llc_cfg = RouterConfig::fbfly(5);
    let mm = spec.tile_mm;
    let tree_delay = link_delay_for_mm(mm);

    // LLC routers: a row per `llc_rows`, `columns` wide, row-major.
    let llc_routers: Vec<RouterId> = (0..spec.columns * spec.llc_rows)
        .map(|_| b.add_router(llc_cfg))
        .collect();
    let llc_at = |col: usize, row: usize| llc_routers[row * spec.columns + col];

    // Flattened butterfly across the LLC region: full connectivity along
    // each row, and along each column when the butterfly is 2-D (§7.1).
    let fb_link = |b: &mut NetworkBuilder, a: RouterId, c: RouterId, dist: usize| {
        let link_mm = dist.max(1) as f64 * mm;
        let delay = link_delay_for_mm(link_mm);
        let depth = credit_round_trip_depth(llc_cfg.pipeline_delay, delay);
        b.add_link_with_depth(a, c, delay, link_mm as f32, depth);
    };
    for row in 0..spec.llc_rows {
        for a in 0..spec.columns {
            for c in 0..spec.columns {
                if a != c {
                    fb_link(&mut b, llc_at(a, row), llc_at(c, row), a.abs_diff(c));
                }
            }
        }
    }
    for col in 0..spec.columns {
        for a in 0..spec.llc_rows {
            for c in 0..spec.llc_rows {
                if a != c {
                    fb_link(&mut b, llc_at(col, a), llc_at(col, c), a.abs_diff(c));
                }
            }
        }
    }

    // Trees. Core ordering: side-major, column, row (0 = farthest), slot.
    let mut core_nodes: Vec<(RouterId, RouterId)> = Vec::new(); // (reduction, dispersion) per core
    let mut core_column = Vec::new();
    for side in 0..2 {
        // North trees terminate at the first LLC row, south at the last.
        let llc_row = if side == 0 { 0 } else { spec.llc_rows - 1 };
        for col in 0..spec.columns {
            let llc_router = llc_at(col, llc_row);
            // Reduction chain: red[0] (farthest) → ... → red[last] → LLC.
            let red: Vec<RouterId> = (0..spec.rows_per_side)
                .map(|_| b.add_router(tree_cfg))
                .collect();
            // Network in-port FIRST on every node so static priority
            // favours packets already in the tree (§4.1).
            for d in 1..spec.rows_per_side {
                b.add_link(red[d - 1], red[d], tree_delay, mm as f32);
            }
            b.add_link(
                red[spec.rows_per_side - 1],
                llc_router,
                tree_delay,
                mm as f32,
            );
            // Dispersion chain: LLC → disp[last] → ... → disp[0]. The first
            // link is fed by the 3-stage LLC router, so its buffer must
            // cover that longer credit round trip to stream without
            // bubbles; node-to-node links keep the shallow tree depth.
            let disp: Vec<RouterId> = (0..spec.rows_per_side)
                .map(|_| b.add_router(tree_cfg))
                .collect();
            b.add_link_with_depth(
                llc_router,
                disp[spec.rows_per_side - 1],
                tree_delay,
                mm as f32,
                credit_round_trip_depth(llc_cfg.pipeline_delay, tree_delay),
            );
            for d in (1..spec.rows_per_side).rev() {
                b.add_link(disp[d], disp[d - 1], tree_delay, mm as f32);
            }
            // §7.1 express links: skip channels let packets from the tall
            // end of the tree bypass intermediate muxes. A two-tile span
            // still fits in one cycle at 32 nm, which is the whole
            // attraction; tall trees also get four-tile skips (one cycle
            // as well — 7 mm at 4 mm/cycle rounds up to 2, so those cost
            // 2 cycles for 4 hops, still a 2× win).
            if spec.express_links && spec.rows_per_side >= 3 {
                let skip2_mm = 2.0 * mm;
                let skip2_delay = link_delay_for_mm(skip2_mm);
                for d in 0..spec.rows_per_side - 2 {
                    b.add_link(red[d], red[d + 2], skip2_delay, skip2_mm as f32);
                    b.add_link(disp[d + 2], disp[d], skip2_delay, skip2_mm as f32);
                }
                if spec.rows_per_side >= 6 {
                    let skip4_mm = 4.0 * mm;
                    let skip4_delay = link_delay_for_mm(skip4_mm);
                    for d in (0..spec.rows_per_side - 4).step_by(4) {
                        b.add_link(red[d], red[d + 4], skip4_delay, skip4_mm as f32);
                        b.add_link(disp[d + 4], disp[d], skip4_delay, skip4_mm as f32);
                    }
                }
            }
            for row in 0..spec.rows_per_side {
                for _slot in 0..spec.concentration {
                    core_nodes.push((red[row], disp[row]));
                    core_column.push(col);
                }
            }
        }
    }
    // Core terminals: inject into the reduction node, eject from the
    // dispersion node (added after all links so the network port has
    // index 0 on every tree node).
    let core_terminals: Vec<TerminalId> = core_nodes
        .iter()
        .map(|&(red, disp)| b.add_terminal_split(red, disp))
        .collect();

    let llc_terminals: Vec<TerminalId> = llc_routers.iter().map(|&r| b.add_terminal(r)).collect();

    // Memory channels alternate between the two edge LLC routers, matching
    // Fig. 5's placement on the left and right die edges (cycling over
    // LLC rows when the butterfly is 2-D).
    let mc_terminals: Vec<TerminalId> = (0..spec.num_memory_channels)
        .map(|k| {
            let row = (k / 2) % spec.llc_rows;
            let col = if k % 2 == 0 { 0 } else { spec.columns - 1 };
            b.add_terminal(llc_at(col, row))
        })
        .collect();

    // Unique/shortest paths throughout (chains plus a fully-connected row):
    // BFS over hop delays produces exactly the intended routes.
    b.compute_routes_bfs();

    NocOutNetwork {
        network: b.build(),
        core_terminals,
        llc_terminals,
        mc_terminals,
        core_column,
        spec: *spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MessageClass;

    #[test]
    fn builds_paper_network() {
        let n = build_nocout(&NocOutSpec::paper_64());
        // 8 LLC routers + 2 sides × 8 columns × (4 reduction + 4 dispersion).
        assert_eq!(n.network.num_routers(), 8 + 2 * 8 * 8);
        assert_eq!(n.network.num_terminals(), 64 + 8 + 4);
    }

    fn first_delivery_latency(
        net: &mut crate::network::Network,
        dst: TerminalId,
        max: u64,
    ) -> Option<u64> {
        for _ in 0..max {
            net.tick();
            if let Some(d) = net.poll(dst) {
                return Some(d.latency());
            }
        }
        None
    }

    #[test]
    fn core_column_map_is_column_major() {
        let n = build_nocout(&NocOutSpec::paper_64());
        assert_eq!(n.core_column[3], 0);
        assert_eq!(n.core_column[4], 1);
        assert_eq!(n.core_column[31], 7);
        // South side repeats the column pattern.
        assert_eq!(n.core_column[32], 0);
    }

    #[test]
    fn core_to_own_llc_single_cycle_hops() {
        let mut n = build_nocout(&NocOutSpec::paper_64());
        // North side, column 0: cores 0..4, row 3 adjacent to the LLC.
        let adjacent = n.core_terminals[3];
        let farthest = n.core_terminals[0];
        let llc = n.llc_terminals[0];

        n.network.inject(adjacent, llc, MessageClass::Request, 0, 1);
        let lat_adj = first_delivery_latency(&mut n.network, llc, 100).unwrap();
        n.network.inject(farthest, llc, MessageClass::Request, 0, 2);
        let lat_far = first_delivery_latency(&mut n.network, llc, 100).unwrap();
        // One tree hop per node at 1 cycle each; LLC ejection costs the
        // 3-stage LLC router pipeline + 1-cycle link.
        assert_eq!(lat_adj, 1 + 4);
        assert_eq!(lat_far, 4 + 4);
        assert_eq!(lat_far - lat_adj, 3, "three extra tree hops at 1 cycle each");
    }

    #[test]
    fn llc_to_core_via_dispersion() {
        let mut n = build_nocout(&NocOutSpec::paper_64());
        let core = n.core_terminals[0]; // farthest, column 0 north
        let llc = n.llc_terminals[0];
        n.network.inject(llc, core, MessageClass::Response, 64, 9);
        let lat = first_delivery_latency(&mut n.network, core, 200).unwrap();
        // LLC router (3+1) + 3 tree hops + eject 1 + 4 body flits.
        assert_eq!(lat, 4 + 3 + 1 + 4);
    }

    #[test]
    fn cross_column_goes_through_llc_butterfly() {
        let mut n = build_nocout(&NocOutSpec::paper_64());
        let core_col0 = n.core_terminals[3];
        let llc_col7 = n.llc_terminals[7];
        n.network
            .inject(core_col0, llc_col7, MessageClass::Request, 0, 3);
        let lat = first_delivery_latency(&mut n.network, llc_col7, 200).unwrap();
        // Tree (1) + LLC router 0 (3 + 4-cycle 7-tile link) + eject (3+1).
        assert_eq!(lat, 1 + 7 + 4);
    }

    #[test]
    fn core_to_core_has_no_direct_path() {
        // All core-to-core traffic must transit the LLC region: latency from
        // a core to its neighbouring core is at least the round trip through
        // the column's LLC router.
        let mut n = build_nocout(&NocOutSpec::paper_64());
        let a = n.core_terminals[2];
        let bt = n.core_terminals[3];
        n.network.inject(a, bt, MessageClass::Response, 0, 4);
        let lat = first_delivery_latency(&mut n.network, bt, 200).unwrap();
        // Down the reduction tree (2 hops) + LLC router (3+1) + eject (1):
        // at least 7 cycles even though the cores are physically adjacent.
        assert!(lat >= 7, "got {lat}; must round-trip through the LLC row");
    }

    #[test]
    fn mc_reachable_from_everywhere() {
        let mut n = build_nocout(&NocOutSpec::paper_64());
        let mcs = n.mc_terminals.clone();
        for (i, &core) in n.core_terminals.clone().iter().enumerate() {
            n.network
                .inject(core, mcs[i % mcs.len()], MessageClass::Request, 0, i as u64);
        }
        for &llc in &n.llc_terminals.clone() {
            for &mc in &mcs {
                n.network.inject(llc, mc, MessageClass::Request, 0, 0);
                n.network.inject(mc, llc, MessageClass::Response, 64, 0);
            }
        }
        assert!(n.network.run_until_drained(10_000));
        n.network.check_invariants();
    }

    #[test]
    fn all_cores_to_all_llc_drain() {
        let mut n = build_nocout(&NocOutSpec::paper_64());
        for (i, &core) in n.core_terminals.clone().iter().enumerate() {
            for &llc in &n.llc_terminals.clone() {
                n.network
                    .inject(core, llc, MessageClass::Request, 0, i as u64);
                n.network
                    .inject(llc, core, MessageClass::Response, 64, i as u64);
            }
        }
        assert!(n.network.run_until_drained(100_000));
        n.network.check_invariants();
    }

    #[test]
    fn concentration_doubles_cores() {
        let spec = NocOutSpec {
            concentration: 2,
            ..NocOutSpec::paper_64()
        };
        let n = build_nocout(&spec);
        assert_eq!(n.core_terminals.len(), 128);
        // Same router count as the baseline: concentration shares nodes.
        assert_eq!(n.network.num_routers(), 8 + 2 * 8 * 8);
    }

    #[test]
    fn express_links_cut_tall_tree_latency() {
        // Eight rows per side (128 cores), with and without express links.
        let tall = NocOutSpec {
            rows_per_side: 8,
            ..NocOutSpec::paper_64()
        };
        let mut plain = build_nocout(&tall);
        let mut express = build_nocout(&NocOutSpec {
            express_links: true,
            ..tall
        });
        let measure = |n: &mut NocOutNetwork| {
            let core = n.core_terminals[0]; // farthest from the LLC
            let llc = n.llc_terminals[0];
            n.network.inject(core, llc, MessageClass::Request, 0, 1);
            first_delivery_latency(&mut n.network, llc, 200).unwrap()
        };
        let lp = measure(&mut plain);
        let le = measure(&mut express);
        assert!(
            le + 2 < lp,
            "express links must bypass nodes: plain {lp}, express {le}"
        );
    }

    #[test]
    fn express_links_leave_all_cores_reachable() {
        let spec = NocOutSpec {
            rows_per_side: 8,
            express_links: true,
            ..NocOutSpec::paper_64()
        };
        let mut n = build_nocout(&spec);
        for (i, &core) in n.core_terminals.clone().iter().enumerate() {
            let llc = n.llc_terminals[i % 8];
            n.network.inject(core, llc, MessageClass::Request, 0, i as u64);
            n.network.inject(llc, core, MessageClass::Response, 64, i as u64);
        }
        assert!(n.network.run_until_drained(200_000));
        n.network.check_invariants();
    }

    #[test]
    fn two_dimensional_llc_butterfly() {
        let spec = NocOutSpec {
            llc_rows: 2,
            ..NocOutSpec::paper_64()
        };
        let n = build_nocout(&spec);
        assert_eq!(n.llc_terminals.len(), 16);
        assert_eq!(spec.llc_tiles(), 16);
        // Cross-corner LLC traffic traverses at most a row hop and a
        // column hop.
        let mut n = n;
        let a = n.llc_terminals[0];
        let bterm = n.llc_terminals[15];
        n.network.inject(a, bterm, MessageClass::Request, 0, 9);
        let lat = first_delivery_latency(&mut n.network, bterm, 200).unwrap();
        assert!(lat <= 20, "2-D LLC butterfly too slow: {lat}");
    }

    #[test]
    fn two_row_llc_serves_both_sides() {
        let spec = NocOutSpec {
            llc_rows: 2,
            ..NocOutSpec::paper_64()
        };
        let mut n = build_nocout(&spec);
        // North core (side 0) and south core (side 1) both reach both rows.
        let north = n.core_terminals[0];
        let south = n.core_terminals[32];
        for &core in &[north, south] {
            for &llc in &n.llc_terminals.clone() {
                n.network.inject(core, llc, MessageClass::Request, 0, 0);
            }
        }
        assert!(n.network.run_until_drained(50_000));
        n.network.check_invariants();
    }

    #[test]
    fn all_routes_validate_without_loops() {
        for spec in [
            NocOutSpec::paper_64(),
            NocOutSpec {
                express_links: true,
                rows_per_side: 8,
                ..NocOutSpec::paper_64()
            },
            NocOutSpec {
                llc_rows: 2,
                ..NocOutSpec::paper_64()
            },
        ] {
            let n = build_nocout(&spec);
            let hops = n.network.validate_routes();
            // Every pair routed; tree cores reach the far LLC in at most
            // rows + 1 (fbfly) + rows hops.
            let max = hops.iter().flatten().max().copied().unwrap();
            assert!(max <= (2 * spec.rows_per_side + 2) as u32, "max hops {max}");
        }
    }

    #[test]
    fn core_depth_accessor() {
        let n = build_nocout(&NocOutSpec::paper_64());
        assert_eq!(n.core_depth(0), 4); // farthest
        assert_eq!(n.core_depth(3), 1); // adjacent
    }
}
