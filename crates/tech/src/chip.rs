//! Chip-level area and power bookkeeping (§5.2, §6.4 context).
//!
//! Cores dominate chip power ("cores alone consume in excess of 60 W")
//! while the NoC stays under 2 W — this module provides the chip-level
//! context numbers the paper uses to frame the NoC results, plus the die
//! floorplan arithmetic behind the tile pitches used by the topologies.


/// Per-component area and power constants from §5.2 and Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipPowerModel {
    /// Core area including L1s, mm² (ARM Cortex-A15-like at 32 nm).
    pub core_area_mm2: f64,
    /// Core power at 2 GHz, watts.
    pub core_power_w: f64,
    /// LLC area per megabyte, mm² (CACTI 6.5).
    pub cache_area_mm2_per_mb: f64,
    /// LLC power per megabyte, watts (mostly leakage).
    pub cache_power_w_per_mb: f64,
}

impl ChipPowerModel {
    /// The paper's 32 nm values.
    pub fn paper_32nm() -> Self {
        ChipPowerModel {
            core_area_mm2: 2.9,
            core_power_w: 1.05,
            cache_area_mm2_per_mb: 3.2,
            cache_power_w_per_mb: 0.5,
        }
    }

    /// Total core area for `cores` cores.
    pub fn cores_area_mm2(&self, cores: usize) -> f64 {
        self.core_area_mm2 * cores as f64
    }

    /// Total core power for `cores` cores.
    pub fn cores_power_w(&self, cores: usize) -> f64 {
        self.core_power_w * cores as f64
    }

    /// LLC area for a capacity in megabytes.
    pub fn llc_area_mm2(&self, megabytes: f64) -> f64 {
        self.cache_area_mm2_per_mb * megabytes
    }

    /// LLC power for a capacity in megabytes.
    pub fn llc_power_w(&self, megabytes: f64) -> f64 {
        self.cache_power_w_per_mb * megabytes
    }

    /// Die area (cores + LLC + NoC), mm².
    pub fn die_area_mm2(&self, cores: usize, llc_mb: f64, noc_mm2: f64) -> f64 {
        self.cores_area_mm2(cores) + self.llc_area_mm2(llc_mb) + noc_mm2
    }

    /// Approximate tile pitch (mm) for a tiled design of `tiles` tiles
    /// given the die area.
    pub fn tile_pitch_mm(&self, die_mm2: f64, tiles: usize) -> f64 {
        (die_mm2 / tiles as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_chip_budget() {
        let m = ChipPowerModel::paper_32nm();
        // 64 cores alone exceed 60 W, as the paper states.
        assert!(m.cores_power_w(64) > 60.0);
        // 8 MB of LLC ≈ 25.6 mm², 4 W.
        assert!((m.llc_area_mm2(8.0) - 25.6).abs() < 1e-9);
        assert!((m.llc_power_w(8.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn tiled_pitch_close_to_topology_constant() {
        let m = ChipPowerModel::paper_32nm();
        let die = m.die_area_mm2(64, 8.0, 3.5);
        let pitch = m.tile_pitch_mm(die, 64);
        // The mesh/fbfly topologies use 1.85 mm tiles.
        assert!(
            (pitch - nocout_noc::topology::TILED_TILE_MM).abs() < 0.1,
            "pitch {pitch:.3}"
        );
    }

    #[test]
    fn noc_is_small_fraction_of_die() {
        let m = ChipPowerModel::paper_32nm();
        let die = m.die_area_mm2(64, 8.0, 2.5);
        assert!(2.5 / die < 0.02, "NOC-Out ≈ 1% of the die");
    }
}
