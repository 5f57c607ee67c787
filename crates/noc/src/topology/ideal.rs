//! Contention-free fabrics for the Fig. 1 distance study.
//!
//! The paper's Fig. 1 compares per-core performance under two analytic
//! interconnects as the core count (and therefore die size) grows:
//!
//! * **Ideal** — only wire delay is exposed: routing, arbitration,
//!   switching and buffering take zero time,
//! * **Mesh** — a 3-cycle per-hop delay (router + wire),
//!
//! with contention explicitly not modelled in either. Both are expressed
//! here as [`LatencyFabric`]s over the tiled terminal layout produced by
//! [`super::mesh::build_mesh`]: terminals `0..tiles` are the tiles
//! (row-major) and the remainder are memory controllers at the same edge
//! positions.

use crate::latency::LatencyFabric;
use crate::types::TerminalId;

use super::mesh::mc_tiles;
use super::{WIRE_CYCLES_PER_MM};

/// Which analytic fabric to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticKind {
    /// Wire delay only (125 ps/mm over the Manhattan tile distance).
    IdealWire,
    /// Three cycles per mesh hop, zero load.
    ZeroLoadMesh,
}

/// Parameters for an analytic tiled fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticSpec {
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Which latency model.
    pub kind: AnalyticKind,
    /// Link width in bits (serialization still applies).
    pub link_width_bits: u32,
    /// Tile pitch in millimetres.
    pub tile_mm: f64,
    /// Memory-controller terminals to append after the tile terminals.
    pub num_memory_channels: usize,
}

impl AnalyticSpec {
    /// Fabric for `tiles` tiles of the given kind with paper defaults.
    pub fn for_tiles(tiles: usize, kind: AnalyticKind) -> Self {
        let (cols, rows) = super::grid_for_tiles(tiles);
        AnalyticSpec {
            cols,
            rows,
            kind,
            link_width_bits: 128,
            tile_mm: super::TILED_TILE_MM,
            num_memory_channels: 4,
        }
    }
}

/// Builds the analytic fabric. Terminal ids `0..cols*rows` are tiles in
/// row-major order; ids `cols*rows..` are the memory controllers.
///
/// # Examples
///
/// ```
/// use nocout_noc::topology::ideal::{build_analytic, AnalyticKind, AnalyticSpec};
/// use nocout_noc::fabric::Fabric;
/// use nocout_noc::types::{MessageClass, TerminalId};
///
/// let mut fab = build_analytic(&AnalyticSpec::for_tiles(64, AnalyticKind::ZeroLoadMesh));
/// fab.inject(TerminalId(0), TerminalId(63), MessageClass::Request, 0, 0);
/// for _ in 0..64 {
///     fab.tick();
/// }
/// let d = fab.poll(TerminalId(63)).expect("delivered");
/// // 14 hops + ejection at 3 cycles each.
/// assert_eq!(d.latency(), 45);
/// ```
pub fn build_analytic(spec: &AnalyticSpec) -> LatencyFabric {
    let cols = spec.cols;
    let rows = spec.rows;
    let tiles = cols * rows;
    // Coordinates for every terminal (tiles then MCs).
    let mut coords: Vec<(usize, usize)> = (0..tiles).map(|i| (i % cols, i / cols)).collect();
    for &t in &mc_tiles(cols, rows, spec.num_memory_channels) {
        coords.push((t % cols, t / cols));
    }
    let kind = spec.kind;
    let tile_mm = spec.tile_mm;
    let latency_fn = move |src: TerminalId, dst: TerminalId| -> u64 {
        let (sc, sr) = coords[src.index()];
        let (dc, dr) = coords[dst.index()];
        let hops = sc.abs_diff(dc) + sr.abs_diff(dr);
        match kind {
            AnalyticKind::IdealWire => {
                let mm = hops as f64 * tile_mm;
                ((mm * WIRE_CYCLES_PER_MM).ceil() as u64).max(1)
            }
            // h router-to-router hops plus the ejection hop, 3 cycles each,
            // matching the detailed mesh model's zero-load latency.
            AnalyticKind::ZeroLoadMesh => (hops as u64 + 1) * 3,
        }
    };
    LatencyFabric::new(
        tiles + spec.num_memory_channels,
        spec.link_width_bits,
        Box::new(latency_fn),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::types::MessageClass;

    fn one_latency(fab: &mut LatencyFabric, src: u16, dst: u16, payload: u32) -> u64 {
        fab.inject(
            TerminalId(src),
            TerminalId(dst),
            MessageClass::Request,
            payload,
            0,
        );
        for _ in 0..10_000 {
            fab.tick();
            if let Some(d) = fab.poll(TerminalId(dst)) {
                return d.latency();
            }
        }
        panic!("no delivery");
    }

    #[test]
    fn ideal_is_much_faster_than_mesh_at_64() {
        let mut ideal = build_analytic(&AnalyticSpec::for_tiles(64, AnalyticKind::IdealWire));
        let mut mesh = build_analytic(&AnalyticSpec::for_tiles(64, AnalyticKind::ZeroLoadMesh));
        let li = one_latency(&mut ideal, 0, 63, 0);
        let lm = one_latency(&mut mesh, 0, 63, 0);
        // 14 tiles of wire ≈ 26 mm ≈ 7 cycles vs 45 cycles through routers.
        assert_eq!(li, 7);
        assert_eq!(lm, 45);
    }

    #[test]
    fn small_grids_have_tiny_latency() {
        let mut ideal = build_analytic(&AnalyticSpec::for_tiles(1, AnalyticKind::IdealWire));
        // Self-send still costs one cycle.
        assert_eq!(one_latency(&mut ideal, 0, 0, 0), 1);
    }

    #[test]
    fn serialization_still_applies() {
        let mut ideal = build_analytic(&AnalyticSpec::for_tiles(4, AnalyticKind::IdealWire));
        let short = one_latency(&mut ideal, 0, 3, 0);
        let long = one_latency(&mut ideal, 0, 3, 64);
        assert_eq!(long - short, 4, "4 extra flits at one per cycle");
    }

    #[test]
    fn mc_terminals_present() {
        let spec = AnalyticSpec::for_tiles(16, AnalyticKind::ZeroLoadMesh);
        let mut fab = build_analytic(&spec);
        let mc = 16_u16; // first MC terminal
        let lat = one_latency(&mut fab, 5, mc, 0);
        assert!(lat >= 3);
    }
}
