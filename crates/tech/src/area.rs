//! NoC area model: links (repeaters), buffers, and crossbars (Fig. 8).
//!
//! The model consumes a structural description of a network — every
//! router's port/VC/depth configuration and every link's length — and
//! produces the three-way breakdown the paper reports. Constructors derive
//! those structural descriptions from the same topology specs the
//! simulator builds its networks from, but they count ports and VCs on
//! their own, not from the built network, and the two differ in three
//! places:
//!
//! * tree nodes get 2 VCs per input port here; the simulator builds one VC
//!   per message class (`CLASS_COUNT` = 3);
//! * the memory-controller ports are left out: the extra input and output
//!   port of each mesh or flattened-butterfly tile a channel attaches to,
//!   and of NOC-Out's edge LLC routers;
//! * NOC-Out's express links add their wires here but not the tree-node
//!   ports they end on.
//!
//! Fig. 8, Fig. 9 and the power model read these numbers as they are; the
//! deviations are recorded as known ones in ROADMAP item 8(d).

use crate::wire::WireModel;
use crate::BufferTech;
use nocout_noc::topology::fbfly::FbflySpec;
use nocout_noc::topology::mesh::MeshSpec;
use nocout_noc::topology::nocout::NocOutSpec;
use nocout_noc::topology::{credit_round_trip_depth, link_delay_for_mm};

/// One router's buffering/switching structure for area purposes.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterAreaSpec {
    /// Per input port: (number of VCs, flits per VC).
    pub in_ports: Vec<(usize, usize)>,
    /// Number of output ports (crossbar columns).
    pub out_ports: usize,
    /// Buffer technology.
    pub buffer_tech: BufferTech,
}

/// One link's geometry for area purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAreaSpec {
    /// Physical length in millimetres.
    pub length_mm: f64,
}

/// A complete structural description of one NoC organization.
#[derive(Debug, Clone, PartialEq)]
pub struct OrganizationArea {
    /// Human-readable name ("Mesh", "Flattened Butterfly", "NOC-Out").
    pub name: String,
    /// All routers (including tree nodes).
    pub routers: Vec<RouterAreaSpec>,
    /// All unidirectional router-to-router links.
    pub links: Vec<LinkAreaSpec>,
    /// Link (flit) width in bits.
    pub width_bits: u32,
}

/// The Fig. 8 area breakdown, in mm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocAreaReport {
    /// Link repeater/driver area.
    pub links_mm2: f64,
    /// Input-buffer storage area.
    pub buffers_mm2: f64,
    /// Crossbar/switch area.
    pub crossbars_mm2: f64,
}

impl NocAreaReport {
    /// Total NoC area.
    pub fn total_mm2(&self) -> f64 {
        self.links_mm2 + self.buffers_mm2 + self.crossbars_mm2
    }
}

/// The analytic area model.
///
/// # Examples
///
/// ```
/// use nocout_noc::topology::mesh::MeshSpec;
/// use nocout_tech::area::{NocAreaModel, OrganizationArea};
///
/// let model = NocAreaModel::paper_32nm();
/// let mesh = OrganizationArea::mesh(&MeshSpec::paper_64());
/// let report = model.area(&mesh);
/// assert!(report.total_mm2() > 2.0 && report.total_mm2() < 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocAreaModel {
    /// Wire/repeater technology.
    pub wire: WireModel,
}

impl NocAreaModel {
    /// The paper's 32 nm constants.
    pub fn paper_32nm() -> Self {
        NocAreaModel {
            wire: WireModel::paper_32nm(),
        }
    }

    /// Computes the area breakdown of an organization.
    pub fn area(&self, org: &OrganizationArea) -> NocAreaReport {
        let w = org.width_bits as f64;
        let mut buffers = 0.0;
        let mut crossbars = 0.0;
        for r in &org.routers {
            let bits: f64 = r
                .in_ports
                .iter()
                .map(|&(vcs, depth)| (vcs * depth) as f64 * w)
                .sum();
            buffers += bits * r.buffer_tech.area_per_bit_mm2();
            // Matrix crossbar: wire area = (in_ports·W·pitch) × (out·W·pitch).
            let pitch = self.wire.pitch_mm;
            crossbars += (r.in_ports.len() as f64 * w * pitch) * (r.out_ports as f64 * w * pitch);
        }
        let links = org
            .links
            .iter()
            .map(|l| self.wire.repeater_area_mm2(org.width_bits, l.length_mm))
            .sum();
        NocAreaReport {
            links_mm2: links,
            buffers_mm2: buffers,
            crossbars_mm2: crossbars,
        }
    }

    /// Finds the largest link width (in bits, multiple of 8) for which the
    /// organization fits within `budget_mm2` — the Fig. 9 area
    /// normalization. Returns the width and its report.
    ///
    /// # Panics
    ///
    /// Panics if even an 8-bit network exceeds the budget.
    pub fn fit_width_to_budget<F>(&self, budget_mm2: f64, build: F) -> (u32, NocAreaReport)
    where
        F: Fn(u32) -> OrganizationArea,
    {
        let mut best = None;
        let mut width = 8u32;
        while width <= 256 {
            let report = self.area(&build(width));
            if report.total_mm2() <= budget_mm2 {
                best = Some((width, report));
            } else {
                break;
            }
            width += 8;
        }
        best.expect("even the narrowest network exceeds the area budget")
    }
}

impl OrganizationArea {
    /// Structural description of the tiled mesh (Fig. 2): 5-port routers
    /// with 3 VCs × 5 flits, single-tile links, flip-flop buffers.
    pub fn mesh(spec: &MeshSpec) -> Self {
        Self::mesh_with_width(spec, spec.link_width_bits)
    }

    /// Mesh at an explicit link width (Fig. 9 sweep).
    pub fn mesh_with_width(spec: &MeshSpec, width_bits: u32) -> Self {
        let mut routers = Vec::new();
        let mut links = Vec::new();
        let (cols, rows) = (spec.cols, spec.rows);
        for r in 0..rows {
            for c in 0..cols {
                let mut neighbors = 0;
                if c > 0 {
                    neighbors += 1;
                }
                if c + 1 < cols {
                    neighbors += 1;
                }
                if r > 0 {
                    neighbors += 1;
                }
                if r + 1 < rows {
                    neighbors += 1;
                }
                // Network in-ports + the local injection port.
                let in_ports = vec![(3usize, spec.vc_depth as usize); neighbors + 1];
                routers.push(RouterAreaSpec {
                    in_ports,
                    out_ports: neighbors + 1,
                    buffer_tech: BufferTech::FlipFlop,
                });
                if c + 1 < cols {
                    links.push(LinkAreaSpec {
                        length_mm: spec.tile_mm,
                    });
                    links.push(LinkAreaSpec {
                        length_mm: spec.tile_mm,
                    });
                }
                if r + 1 < rows {
                    links.push(LinkAreaSpec {
                        length_mm: spec.tile_mm,
                    });
                    links.push(LinkAreaSpec {
                        length_mm: spec.tile_mm,
                    });
                }
            }
        }
        OrganizationArea {
            name: "Mesh".into(),
            routers,
            links,
            width_bits,
        }
    }

    /// Structural description of the tiled flattened butterfly (Fig. 3):
    /// 15-port routers, per-link round-trip-sized SRAM buffers, long links.
    pub fn fbfly(spec: &FbflySpec) -> Self {
        Self::fbfly_with_width(spec, spec.link_width_bits)
    }

    /// Flattened butterfly at an explicit link width (Fig. 9 sweep).
    pub fn fbfly_with_width(spec: &FbflySpec, width_bits: u32) -> Self {
        let mut routers = Vec::new();
        let mut links = Vec::new();
        let (cols, rows) = (spec.cols, spec.rows);
        let pipeline = 3u8;
        for r in 0..rows {
            for c in 0..cols {
                let mut in_ports = Vec::new();
                // Row neighbours.
                for dc in 0..cols {
                    if dc == c {
                        continue;
                    }
                    let mm = c.abs_diff(dc) as f64 * spec.tile_mm;
                    let depth = credit_round_trip_depth(pipeline, link_delay_for_mm(mm));
                    in_ports.push((3usize, depth as usize));
                    links.push(LinkAreaSpec { length_mm: mm });
                }
                // Column neighbours.
                for dr in 0..rows {
                    if dr == r {
                        continue;
                    }
                    let mm = r.abs_diff(dr) as f64 * spec.tile_mm;
                    let depth = credit_round_trip_depth(pipeline, link_delay_for_mm(mm));
                    in_ports.push((3usize, depth as usize));
                    links.push(LinkAreaSpec { length_mm: mm });
                }
                // Local port.
                in_ports.push((3usize, 5));
                let n = in_ports.len();
                routers.push(RouterAreaSpec {
                    in_ports,
                    out_ports: n,
                    buffer_tech: BufferTech::Sram,
                });
            }
        }
        OrganizationArea {
            name: "Flattened Butterfly".into(),
            routers,
            links,
            width_bits,
        }
    }

    /// Structural description of NOC-Out (Fig. 5): 2-port tree nodes with
    /// 2 shallow VCs, LLC routers with a 1-D butterfly, flip-flop buffers.
    pub fn nocout(spec: &NocOutSpec) -> Self {
        Self::nocout_with_width(spec, spec.link_width_bits)
    }

    /// NOC-Out at an explicit link width.
    pub fn nocout_with_width(spec: &NocOutSpec, width_bits: u32) -> Self {
        let mut routers = Vec::new();
        let mut links = Vec::new();
        let llc_pipeline = 3u8;
        let tree_depth = 3usize;
        let llc_rows = spec.llc_rows.max(1);
        // Tree nodes: 2 sides × columns × rows, reduction + dispersion.
        // Reduction node: network in + local in(s), 2 VCs each, one output.
        // Dispersion node: network in, 2 VCs, two outputs.
        for _side in 0..2 {
            for _col in 0..spec.columns {
                for row in 0..spec.rows_per_side {
                    let mut red_in = vec![(2usize, tree_depth); spec.concentration];
                    if row > 0 {
                        red_in.push((2, tree_depth));
                    }
                    routers.push(RouterAreaSpec {
                        in_ports: red_in,
                        out_ports: 1,
                        buffer_tech: BufferTech::FlipFlop,
                    });
                    let disp_depth = if row + 1 == spec.rows_per_side {
                        // First dispersion node holds the deeper buffer that
                        // covers the LLC router's credit round trip.
                        credit_round_trip_depth(llc_pipeline, 1) as usize
                    } else {
                        tree_depth
                    };
                    routers.push(RouterAreaSpec {
                        in_ports: vec![(2, disp_depth)],
                        out_ports: 1 + spec.concentration,
                        buffer_tech: BufferTech::FlipFlop,
                    });
                    // Tree links: node-to-node / node-to-LLC, one each way.
                    links.push(LinkAreaSpec {
                        length_mm: spec.tile_mm,
                    });
                    links.push(LinkAreaSpec {
                        length_mm: spec.tile_mm,
                    });
                }
                // §7.1 express links: skip-two channels at every level in
                // both trees, plus skip-four channels in tall trees.
                if spec.express_links && spec.rows_per_side >= 3 {
                    for _ in 0..spec.rows_per_side - 2 {
                        links.push(LinkAreaSpec {
                            length_mm: 2.0 * spec.tile_mm,
                        });
                        links.push(LinkAreaSpec {
                            length_mm: 2.0 * spec.tile_mm,
                        });
                    }
                    if spec.rows_per_side >= 6 {
                        for _ in (0..spec.rows_per_side - 4).step_by(4) {
                            links.push(LinkAreaSpec {
                                length_mm: 4.0 * spec.tile_mm,
                            });
                            links.push(LinkAreaSpec {
                                length_mm: 4.0 * spec.tile_mm,
                            });
                        }
                    }
                }
            }
        }
        // LLC routers: flattened butterfly (1-D, or 2-D per §7.1) + tree
        // ports + local port.
        for row in 0..llc_rows {
            for c in 0..spec.columns {
                let mut in_ports = Vec::new();
                for dc in 0..spec.columns {
                    if dc == c {
                        continue;
                    }
                    let mm = c.abs_diff(dc) as f64 * spec.tile_mm;
                    let depth = credit_round_trip_depth(llc_pipeline, link_delay_for_mm(mm));
                    in_ports.push((3usize, depth as usize));
                    links.push(LinkAreaSpec { length_mm: mm });
                }
                for dr in 0..llc_rows {
                    if dr == row {
                        continue;
                    }
                    let mm = row.abs_diff(dr) as f64 * spec.tile_mm;
                    let depth = credit_round_trip_depth(llc_pipeline, link_delay_for_mm(mm));
                    in_ports.push((3usize, depth as usize));
                    links.push(LinkAreaSpec { length_mm: mm });
                }
                // One reduction-tree input per side served by this row +
                // the LLC tile's local injection port.
                let tree_inputs = if llc_rows == 1 { 2 } else { 1 };
                for _ in 0..tree_inputs {
                    in_ports.push((2, 5));
                }
                in_ports.push((3, 5));
                let out_ports = in_ports.len();
                routers.push(RouterAreaSpec {
                    in_ports,
                    out_ports,
                    buffer_tech: BufferTech::FlipFlop,
                });
            }
        }
        OrganizationArea {
            name: "NOC-Out".into(),
            routers,
            links,
            width_bits,
        }
    }

    /// Area of just the LLC-region flattened butterfly within a NOC-Out
    /// description (the paper: 64% of NOC-Out's area while linking 11% of
    /// tiles). Computed by building a NOC-Out description with zero tree
    /// nodes.
    pub fn nocout_llc_region_only(spec: &NocOutSpec) -> Self {
        let full = Self::nocout(spec);
        let tree_routers = 2 * spec.columns * spec.rows_per_side * 2;
        let mut tree_links = 2 * spec.columns * spec.rows_per_side * 2;
        if spec.express_links && spec.rows_per_side >= 3 {
            tree_links += 2 * spec.columns * 2 * (spec.rows_per_side - 2);
            if spec.rows_per_side >= 6 {
                tree_links += 2 * spec.columns * 2 * ((spec.rows_per_side - 4).div_ceil(4));
            }
        }
        OrganizationArea {
            name: "NOC-Out LLC region".into(),
            routers: full.routers[tree_routers..].to_vec(),
            links: full.links[tree_links..].to_vec(),
            width_bits: full.width_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NocAreaModel {
        NocAreaModel::paper_32nm()
    }

    #[test]
    fn mesh_area_near_paper_anchor() {
        let report = model().area(&OrganizationArea::mesh(&MeshSpec::paper_64()));
        let total = report.total_mm2();
        assert!(
            (2.8..=4.2).contains(&total),
            "mesh ≈ 3.5 mm² expected, got {total:.2}"
        );
    }

    #[test]
    fn fbfly_area_near_paper_anchor() {
        let report = model().area(&OrganizationArea::fbfly(&FbflySpec::paper_64()));
        let total = report.total_mm2();
        assert!(
            (18.0..=28.0).contains(&total),
            "fbfly ≈ 23 mm² expected, got {total:.2}"
        );
    }

    #[test]
    fn nocout_area_near_paper_anchor() {
        let report = model().area(&OrganizationArea::nocout(&NocOutSpec::paper_64()));
        let total = report.total_mm2();
        assert!(
            (2.0..=3.1).contains(&total),
            "NOC-Out ≈ 2.5 mm² expected, got {total:.2}"
        );
    }

    #[test]
    fn paper_ratios_hold() {
        let m = model();
        let mesh = m.area(&OrganizationArea::mesh(&MeshSpec::paper_64())).total_mm2();
        let fb = m.area(&OrganizationArea::fbfly(&FbflySpec::paper_64())).total_mm2();
        let no = m.area(&OrganizationArea::nocout(&NocOutSpec::paper_64())).total_mm2();
        assert!(fb / mesh > 5.0, "fbfly ≈ 7× mesh; got {:.1}×", fb / mesh);
        assert!(fb / no > 7.0, "fbfly ≈ 9× NOC-Out; got {:.1}×", fb / no);
        assert!(no < mesh, "NOC-Out must undercut the mesh");
        let saving = 1.0 - no / mesh;
        assert!(
            (0.15..=0.45).contains(&saving),
            "NOC-Out ≈ 28% below mesh; got {:.0}%",
            saving * 100.0
        );
    }

    #[test]
    fn llc_butterfly_dominates_nocout_area() {
        let m = model();
        let spec = NocOutSpec::paper_64();
        let full = m.area(&OrganizationArea::nocout(&spec)).total_mm2();
        let llc = m
            .area(&OrganizationArea::nocout_llc_region_only(&spec))
            .total_mm2();
        let share = llc / full;
        assert!(
            (0.45..=0.8).contains(&share),
            "paper: LLC butterfly ≈ 64% of NOC-Out; got {:.0}%",
            share * 100.0
        );
    }

    #[test]
    fn area_scales_down_with_width() {
        let m = model();
        let wide = m
            .area(&OrganizationArea::mesh_with_width(&MeshSpec::paper_64(), 128))
            .total_mm2();
        let narrow = m
            .area(&OrganizationArea::mesh_with_width(&MeshSpec::paper_64(), 64))
            .total_mm2();
        assert!(narrow < wide * 0.6);
    }

    #[test]
    fn fit_width_finds_fig9_operating_points() {
        let m = model();
        let budget = m
            .area(&OrganizationArea::nocout(&NocOutSpec::paper_64()))
            .total_mm2();
        let (mesh_w, mesh_report) =
            m.fit_width_to_budget(budget, |w| {
                OrganizationArea::mesh_with_width(&MeshSpec::paper_64(), w)
            });
        assert!(mesh_report.total_mm2() <= budget);
        assert!(mesh_w < 128, "mesh must shrink to fit NOC-Out's budget");
        let (fb_w, _) = m.fit_width_to_budget(budget, |w| {
            OrganizationArea::fbfly_with_width(&FbflySpec::paper_64(), w)
        });
        // Paper: the butterfly's width shrinks by ~7×.
        assert!(
            fb_w <= 24,
            "fbfly width must collapse (~128/7); got {fb_w}"
        );
        assert!(mesh_w > fb_w);
    }

    #[test]
    fn breakdown_components_all_positive() {
        for org in [
            OrganizationArea::mesh(&MeshSpec::paper_64()),
            OrganizationArea::fbfly(&FbflySpec::paper_64()),
            OrganizationArea::nocout(&NocOutSpec::paper_64()),
        ] {
            let r = model().area(&org);
            assert!(r.links_mm2 > 0.0, "{}", org.name);
            assert!(r.buffers_mm2 > 0.0, "{}", org.name);
            assert!(r.crossbars_mm2 > 0.0, "{}", org.name);
        }
    }
}
