//! Chip configuration: the organizations and Table 1 parameters.

use nocout_noc::topology::fbfly::FbflySpec;
use nocout_noc::topology::mesh::MeshSpec;
use nocout_noc::topology::nocout::NocOutSpec;
use std::fmt;

/// The evaluated system organizations (§5.1) plus the two analytic fabrics
/// of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organization {
    /// Tiled 8×8 mesh (baseline).
    Mesh,
    /// Tiled 2-D flattened butterfly.
    FlattenedButterfly,
    /// NOC-Out: segregated cores/LLC with reduction and dispersion trees.
    NocOut,
    /// Contention-free wire-delay-only fabric (Fig. 1 "Ideal").
    IdealWire,
    /// Contention-free 3-cycles-per-hop mesh (Fig. 1 "Mesh").
    ZeroLoadMesh,
}

impl Organization {
    /// The three detailed organizations compared in Figs. 7–9.
    pub const EVALUATED: [Organization; 3] = [
        Organization::Mesh,
        Organization::FlattenedButterfly,
        Organization::NocOut,
    ];

    /// Every organization: the evaluated three, then the analytic two.
    pub const ALL: [Organization; 5] = [
        Organization::Mesh,
        Organization::FlattenedButterfly,
        Organization::NocOut,
        Organization::IdealWire,
        Organization::ZeroLoadMesh,
    ];

    /// The stable identifier: what a spec line writes after `org=` (so
    /// what cache keys and shard requests carry), and what `FromStr`
    /// reads.
    pub fn key(self) -> &'static str {
        match self {
            Organization::Mesh => "Mesh",
            Organization::FlattenedButterfly => "FlattenedButterfly",
            Organization::NocOut => "NocOut",
            Organization::IdealWire => "IdealWire",
            Organization::ZeroLoadMesh => "ZeroLoadMesh",
        }
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Organization::Mesh => "Mesh",
            Organization::FlattenedButterfly => "Flattened Butterfly",
            Organization::NocOut => "NOC-Out",
            Organization::IdealWire => "Ideal",
            Organization::ZeroLoadMesh => "Mesh (zero-load)",
        }
    }
}

impl fmt::Display for Organization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Organization {
    type Err = String;

    /// Parses the stable identifier, [`Organization::key`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Organization::ALL.into_iter().find(|o| o.key() == s).ok_or_else(|| {
            let [keys @ .., last] = Organization::ALL.map(Organization::key);
            format!("`{s}` is not an organization (expected {} or {last})", keys.join(", "))
        })
    }
}

/// Full chip configuration (Table 1 defaults via [`ChipConfig::paper`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipConfig {
    /// Interconnect/LLC organization.
    pub organization: Organization,
    /// Number of cores (a power of two up to 64; 128 with concentration).
    pub cores: usize,
    /// Total LLC capacity in bytes (8 MB in Table 1).
    pub llc_total_bytes: u64,
    /// Link (flit) width in bits (128 in the main study; narrowed for the
    /// Fig. 9 area-normalized comparison).
    pub link_width_bits: u32,
    /// DDR3-1667 memory channels.
    pub mem_channels: usize,
    /// NOC-Out: internal banks per LLC tile (2 per §5.1).
    pub banks_per_llc_tile: usize,
    /// NOC-Out: cores per tree-node local port (§7.1 concentration).
    pub concentration: usize,
    /// Overrides the workload's own core-count scaling (used by the
    /// scalability ablation to load all cores of a 128-core chip).
    pub active_core_override: Option<usize>,
    /// NOC-Out §7.1: insert express links in the trees.
    pub express_links: bool,
    /// NOC-Out §7.1: rows of LLC tiles (2 = 2-D LLC butterfly).
    pub llc_rows: usize,
}

impl ChipConfig {
    /// Table 1's 64-core configuration under the given organization.
    pub fn paper(organization: Organization) -> Self {
        ChipConfig {
            organization,
            cores: 64,
            llc_total_bytes: 8 * 1024 * 1024,
            link_width_bits: 128,
            mem_channels: 4,
            banks_per_llc_tile: 2,
            concentration: 1,
            active_core_override: None,
            express_links: false,
            llc_rows: 1,
        }
    }

    /// Same configuration at a different core count (Fig. 1 sweep).
    pub fn with_cores(organization: Organization, cores: usize) -> Self {
        ChipConfig {
            cores,
            ..ChipConfig::paper(organization)
        }
    }

    /// Same configuration at a different link width (Fig. 9 sweep).
    pub fn with_link_width(mut self, bits: u32) -> Self {
        self.link_width_bits = bits;
        self
    }

    /// Number of LLC tiles under this organization (one per tile in tiled
    /// designs; 8 centre tiles for NOC-Out).
    pub fn llc_tiles(&self) -> usize {
        match self.organization {
            Organization::NocOut => 8 * self.llc_rows,
            _ => self.cores,
        }
    }

    /// The mesh spec equivalent to this configuration.
    pub fn mesh_spec(&self) -> MeshSpec {
        let mut s = MeshSpec::with_tiles(self.cores);
        s.link_width_bits = self.link_width_bits;
        s.num_memory_channels = self.mem_channels;
        s
    }

    /// The flattened-butterfly spec equivalent to this configuration.
    pub fn fbfly_spec(&self) -> FbflySpec {
        let (cols, rows) = nocout_noc::topology::grid_for_tiles(self.cores);
        FbflySpec {
            cols,
            rows,
            link_width_bits: self.link_width_bits,
            tile_mm: nocout_noc::topology::TILED_TILE_MM,
            num_memory_channels: self.mem_channels,
        }
    }

    /// The NOC-Out spec equivalent to this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not divisible into the 2-sided column layout.
    pub fn nocout_spec(&self) -> NocOutSpec {
        let per_column_pair = 2 * self.concentration;
        assert!(
            self.cores.is_multiple_of(8 * per_column_pair) || self.cores <= 16,
            "NOC-Out requires cores divisible across 8 columns and 2 sides"
        );
        let columns = 8;
        let rows = (self.cores / (columns * per_column_pair)).max(1);
        NocOutSpec {
            columns,
            rows_per_side: rows,
            concentration: self.concentration,
            link_width_bits: self.link_width_bits,
            tile_mm: nocout_noc::topology::NOCOUT_TILE_MM,
            num_memory_channels: self.mem_channels,
            express_links: self.express_links,
            llc_rows: self.llc_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = ChipConfig::paper(Organization::Mesh);
        assert_eq!(c.cores, 64);
        assert_eq!(c.llc_total_bytes, 8 * 1024 * 1024);
        assert_eq!(c.link_width_bits, 128);
        assert_eq!(c.mem_channels, 4);
    }

    #[test]
    fn llc_tile_counts() {
        assert_eq!(ChipConfig::paper(Organization::Mesh).llc_tiles(), 64);
        assert_eq!(ChipConfig::paper(Organization::NocOut).llc_tiles(), 8);
    }

    #[test]
    fn nocout_spec_yields_64_cores() {
        let spec = ChipConfig::paper(Organization::NocOut).nocout_spec();
        assert_eq!(spec.cores(), 64);
        assert_eq!(spec.rows_per_side, 4);
    }

    #[test]
    fn concentration_halves_rows() {
        let mut c = ChipConfig::paper(Organization::NocOut);
        c.cores = 128;
        c.concentration = 2;
        let spec = c.nocout_spec();
        assert_eq!(spec.cores(), 128);
        assert_eq!(spec.rows_per_side, 4);
    }

    #[test]
    fn organization_names() {
        assert_eq!(Organization::NocOut.to_string(), "NOC-Out");
        assert_eq!(Organization::EVALUATED.len(), 3);
    }

    /// Every variant's key reads back to it, the keys are the names cache
    /// keys written before `key()` existed carry (the `Debug` names), and
    /// anything else is refused naming all five.
    #[test]
    fn every_organization_key_round_trips() {
        for org in Organization::ALL {
            assert_eq!(org.key().parse(), Ok(org));
            assert_eq!(org.key(), format!("{org:?}"));
        }
        assert_eq!(
            "mesh".parse::<Organization>(),
            Err("`mesh` is not an organization (expected Mesh, FlattenedButterfly, NocOut, \
                 IdealWire or ZeroLoadMesh)"
                .to_string())
        );
    }
}
