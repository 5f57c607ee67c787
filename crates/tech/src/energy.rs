//! NoC energy model (§6.4 power analysis).
//!
//! Consumes the activity counters the flit-level simulator records
//! (flit·mm of link traversal, buffer writes/reads, crossbar traversals)
//! and converts them to average power. The paper finds all three
//! organizations below 2 W with links dominating, ordered
//! NOC-Out (1.3 W) < FBfly (1.6 W) < Mesh (1.8 W).

use crate::wire::WireModel;
use crate::BufferTech;

/// Activity observed over a measurement window (taken from
/// `nocout_noc::NetStats`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocActivity {
    /// Total link distance travelled by flits, in flit·mm.
    pub flit_mm: f64,
    /// Buffer write operations (one per flit arrival).
    pub buffer_writes: u64,
    /// Buffer read operations (one per flit departure).
    pub buffer_reads: u64,
    /// Crossbar/mux traversals.
    pub xbar_traversals: u64,
    /// Cycles in the window.
    pub cycles: u64,
}

/// Energy breakdown over the window, in joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocEnergyReport {
    /// Link (wire + repeater) energy.
    pub links_j: f64,
    /// Buffer write+read energy.
    pub buffers_j: f64,
    /// Crossbar traversal energy.
    pub crossbars_j: f64,
    /// Static/clock overhead energy.
    pub static_j: f64,
    /// Window length in seconds.
    pub seconds: f64,
}

impl NocEnergyReport {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.links_j + self.buffers_j + self.crossbars_j + self.static_j
    }

    /// Average power in watts.
    pub fn power_w(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.total_j() / self.seconds
        }
    }

    /// Fraction of dynamic energy spent in links (the paper: links
    /// dominate in every organization).
    pub fn link_fraction(&self) -> f64 {
        let dynamic = self.links_j + self.buffers_j + self.crossbars_j;
        if dynamic == 0.0 {
            0.0
        } else {
            self.links_j / dynamic
        }
    }
}

/// The analytic energy model.
///
/// # Examples
///
/// ```
/// use nocout_tech::energy::{NocActivity, NocEnergyModel};
/// use nocout_tech::BufferTech;
///
/// let model = NocEnergyModel::paper_32nm(128, BufferTech::FlipFlop);
/// let report = model.energy(&NocActivity {
///     flit_mm: 1.0e6,
///     buffer_writes: 100_000,
///     buffer_reads: 100_000,
///     xbar_traversals: 100_000,
///     cycles: 100_000,
/// });
/// assert!(report.power_w() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocEnergyModel {
    /// Wire technology.
    pub wire: WireModel,
    /// Flit width in bits.
    pub width_bits: u32,
    /// Buffer technology (splits the write+read energy).
    pub buffer_tech: BufferTech,
    /// Crossbar traversal energy per bit, femtojoules, for a 5-port
    /// reference crossbar; scaled by [`Self::avg_crossbar_radix`].
    pub xbar_fj_per_bit: f64,
    /// Average switch radix of the organization (5 for the mesh, 15 for
    /// the flattened butterfly, ≈3 for NOC-Out's mux-dominated fabric):
    /// matrix-crossbar traversal energy grows with the port count.
    pub avg_crossbar_radix: f64,
    /// Static + clock power of the whole NoC, watts (leakage in buffers,
    /// repeaters and control).
    pub static_power_w: f64,
    /// Clock frequency in Hz.
    pub frequency_hz: f64,
}

impl NocEnergyModel {
    /// The paper's 32 nm constants at 2 GHz.
    pub fn paper_32nm(width_bits: u32, buffer_tech: BufferTech) -> Self {
        NocEnergyModel {
            wire: WireModel::paper_32nm(),
            width_bits,
            buffer_tech,
            xbar_fj_per_bit: 30.0,
            avg_crossbar_radix: 5.0,
            static_power_w: 0.30,
            frequency_hz: 2.0e9,
        }
    }

    /// Overrides the average switch radix.
    pub fn with_radix(mut self, radix: f64) -> Self {
        self.avg_crossbar_radix = radix;
        self
    }

    /// Converts activity to an energy/power report.
    pub fn energy(&self, activity: &NocActivity) -> NocEnergyReport {
        let w = self.width_bits as f64;
        let seconds = activity.cycles as f64 / self.frequency_hz;
        let links_j = self.wire.transfer_energy_j(w * activity.flit_mm, 1.0);
        let buffer_ops = (activity.buffer_writes + activity.buffer_reads) as f64;
        // energy_per_bit_fj covers a write+read pass; halve per operation.
        let buffers_j = buffer_ops * w * self.buffer_tech.energy_per_bit_fj() * 0.5 * 1.0e-15;
        let crossbars_j = activity.xbar_traversals as f64
            * w
            * self.xbar_fj_per_bit
            * (self.avg_crossbar_radix / 5.0)
            * 1.0e-15;
        NocEnergyReport {
            links_j,
            buffers_j,
            crossbars_j,
            static_j: self.static_power_w * seconds,
            seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_activity() -> NocActivity {
        // ~40 flit-hops/cycle at ~1.85 mm each over 100K cycles — the kind
        // of load a 64-core mesh sees in steady state.
        NocActivity {
            flit_mm: 40.0 * 1.85 * 100_000.0,
            buffer_writes: 4_000_000,
            buffer_reads: 4_000_000,
            xbar_traversals: 4_000_000,
            cycles: 100_000,
        }
    }

    #[test]
    fn mesh_like_power_under_two_watts() {
        let model = NocEnergyModel::paper_32nm(128, BufferTech::FlipFlop);
        let p = model.energy(&busy_activity()).power_w();
        assert!(
            (0.8..2.5).contains(&p),
            "paper: NoC power stays small (≈2 W); got {p:.2}"
        );
    }

    #[test]
    fn links_dominate() {
        let model = NocEnergyModel::paper_32nm(128, BufferTech::FlipFlop);
        let r = model.energy(&busy_activity());
        assert!(
            r.link_fraction() > 0.4,
            "paper: most energy in links; got {:.0}%",
            r.link_fraction() * 100.0
        );
    }

    #[test]
    fn shorter_distances_cost_less() {
        let model = NocEnergyModel::paper_32nm(128, BufferTech::FlipFlop);
        let mut near = busy_activity();
        near.flit_mm *= 0.5;
        assert!(model.energy(&near).power_w() < model.energy(&busy_activity()).power_w());
    }

    #[test]
    fn zero_activity_is_static_only() {
        let model = NocEnergyModel::paper_32nm(128, BufferTech::FlipFlop);
        let r = model.energy(&NocActivity {
            flit_mm: 0.0,
            buffer_writes: 0,
            buffer_reads: 0,
            xbar_traversals: 0,
            cycles: 1_000_000,
        });
        assert!((r.power_w() - model.static_power_w).abs() < 1e-9);
    }
}
