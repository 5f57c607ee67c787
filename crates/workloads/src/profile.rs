//! The six workload profiles and their calibrated parameters.

use nocout_sim::rng::Zipf;
use std::fmt;
use std::sync::Arc;

/// The CloudSuite-derived workloads of the paper's evaluation (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Cassandra-style NoSQL serving: very low ILP/MLP, the most
    /// latency-sensitive workload (largest FBfly gain in Fig. 7).
    DataServing,
    /// Hadoop text classification (batch).
    MapReduceC,
    /// Hadoop word count (batch).
    MapReduceW,
    /// Cloud9-style SAT solving (batch, the highest snoop rate in Fig. 4).
    SatSolver,
    /// SPECweb2009 e-banking front end (16-core).
    WebFrontend,
    /// Nutch-style search (16-core; smallest FBfly gain — the 16 active
    /// tiles sit in the die centre, but NOC-Out places them adjacent to
    /// the LLC and wins).
    WebSearch,
}

impl Workload {
    /// All six workloads in the paper's figure order.
    pub const ALL: [Workload; 6] = [
        Workload::DataServing,
        Workload::MapReduceC,
        Workload::MapReduceW,
        Workload::SatSolver,
        Workload::WebFrontend,
        Workload::WebSearch,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DataServing => "Data Serving",
            Workload::MapReduceC => "MapReduce-C",
            Workload::MapReduceW => "MapReduce-W",
            Workload::SatSolver => "SAT Solver",
            Workload::WebFrontend => "Web Frontend",
            Workload::WebSearch => "Web Search",
        }
    }

    /// The stable identifier used in cache keys and on the shard-request
    /// wire (`nocout::distribute`): the enum variant name.
    pub fn key(self) -> &'static str {
        match self {
            Workload::DataServing => "DataServing",
            Workload::MapReduceC => "MapReduceC",
            Workload::MapReduceW => "MapReduceW",
            Workload::SatSolver => "SatSolver",
            Workload::WebFrontend => "WebFrontend",
            Workload::WebSearch => "WebSearch",
        }
    }

    /// Inverse of [`Workload::key`], for decoding wire/journal records.
    pub fn from_key(key: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.key() == key)
    }

    /// The calibrated profile.
    pub fn profile(self) -> WorkloadProfile {
        match self {
            Workload::DataServing => WorkloadProfile {
                name: "Data Serving",
                instr_footprint_lines: 96 * 1024,
                instr_hot_lines: 384,
                instr_hot_fraction: 0.80,
                instr_zipf_theta: 0.6,
                mean_run_length: 5.0,
                mem_op_fraction: 0.3,
                store_fraction: 0.12,
                dependent_load_fraction: 0.9,
                local_data_fraction: 0.92,
                local_data_lines: 192,
                llc_resident_data_fraction: 0.05,
                llc_resident_lines: 16 * 1024,
                shared_rw_fraction: 0.0025,
                shared_rw_lines: 512,
                private_data_lines: 1 << 22,
                alu_long_fraction: 0.25,
                max_cores: 64,
            },
            Workload::MapReduceC => WorkloadProfile {
                name: "MapReduce-C",
                instr_footprint_lines: 48 * 1024,
                instr_hot_lines: 384,
                instr_hot_fraction: 0.87,
                instr_zipf_theta: 0.6,
                mean_run_length: 6.0,
                mem_op_fraction: 0.32,
                store_fraction: 0.15,
                dependent_load_fraction: 0.6,
                local_data_fraction: 0.86,
                local_data_lines: 192,
                llc_resident_data_fraction: 0.035,
                llc_resident_lines: 16 * 1024,
                shared_rw_fraction: 0.010,
                shared_rw_lines: 512,
                private_data_lines: 1 << 22,
                alu_long_fraction: 0.15,
                max_cores: 64,
            },
            Workload::MapReduceW => WorkloadProfile {
                name: "MapReduce-W",
                instr_footprint_lines: 64 * 1024,
                instr_hot_lines: 384,
                instr_hot_fraction: 0.84,
                instr_zipf_theta: 0.6,
                mean_run_length: 5.5,
                mem_op_fraction: 0.3,
                store_fraction: 0.15,
                dependent_load_fraction: 0.7,
                local_data_fraction: 0.855,
                local_data_lines: 192,
                llc_resident_data_fraction: 0.035,
                llc_resident_lines: 16 * 1024,
                shared_rw_fraction: 0.0155,
                shared_rw_lines: 512,
                private_data_lines: 1 << 22,
                alu_long_fraction: 0.18,
                max_cores: 64,
            },
            Workload::SatSolver => WorkloadProfile {
                name: "SAT Solver",
                instr_footprint_lines: 24 * 1024,
                instr_hot_lines: 384,
                instr_hot_fraction: 0.93,
                instr_zipf_theta: 0.7,
                mean_run_length: 8.0,
                mem_op_fraction: 0.35,
                store_fraction: 0.18,
                dependent_load_fraction: 0.4,
                local_data_fraction: 0.905,
                local_data_lines: 192,
                llc_resident_data_fraction: 0.02,
                llc_resident_lines: 32 * 1024,
                shared_rw_fraction: 0.0125,
                shared_rw_lines: 1024,
                private_data_lines: 1 << 21,
                alu_long_fraction: 0.1,
                max_cores: 64,
            },
            Workload::WebFrontend => WorkloadProfile {
                name: "Web Frontend",
                instr_footprint_lines: 56 * 1024,
                instr_hot_lines: 384,
                instr_hot_fraction: 0.90,
                instr_zipf_theta: 0.6,
                mean_run_length: 5.0,
                mem_op_fraction: 0.3,
                store_fraction: 0.14,
                dependent_load_fraction: 0.65,
                local_data_fraction: 0.87,
                local_data_lines: 192,
                llc_resident_data_fraction: 0.035,
                llc_resident_lines: 16 * 1024,
                shared_rw_fraction: 0.015,
                shared_rw_lines: 512,
                private_data_lines: 1 << 21,
                alu_long_fraction: 0.15,
                max_cores: 16,
            },
            Workload::WebSearch => WorkloadProfile {
                name: "Web Search",
                instr_footprint_lines: 80 * 1024,
                instr_hot_lines: 384,
                instr_hot_fraction: 0.92,
                instr_zipf_theta: 0.65,
                mean_run_length: 6.0,
                mem_op_fraction: 0.28,
                store_fraction: 0.1,
                dependent_load_fraction: 0.6,
                local_data_fraction: 0.92,
                local_data_lines: 192,
                llc_resident_data_fraction: 0.025,
                llc_resident_lines: 24 * 1024,
                shared_rw_fraction: 0.0065,
                shared_rw_lines: 512,
                private_data_lines: 1 << 21,
                alu_long_fraction: 0.15,
                max_cores: 16,
            },
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable parameters of one workload model. See the crate docs for how
/// each knob maps to a CloudSuite trait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Display name.
    pub name: &'static str,
    /// Total instruction footprint in cache lines (shared by all cores;
    /// resident in the LLC, far exceeding the L1-I).
    pub instr_footprint_lines: usize,
    /// Hot instruction lines that fit in the L1-I (inner loops of the
    /// request-processing paths).
    pub instr_hot_lines: usize,
    /// Probability a fetch-line transition stays within the hot set; the
    /// complement is the cold-tail fetch rate that produces L1-I misses
    /// serviced by the LLC — the paper's central traffic.
    pub instr_hot_fraction: f64,
    /// Zipf skew of re-reference *within* the hot set.
    pub instr_zipf_theta: f64,
    /// Mean instructions executed per fetch line before jumping (complex
    /// control flow = short runs).
    pub mean_run_length: f64,
    /// Fraction of instructions that are loads/stores.
    pub mem_op_fraction: f64,
    /// Of memory ops, the fraction that are stores.
    pub store_fraction: f64,
    /// Of loads, the fraction that depend on an outstanding miss (bounds
    /// MLP).
    pub dependent_load_fraction: f64,
    /// Fraction of data accesses to the core's small L1-resident working
    /// set (stack, hot locals).
    pub local_data_fraction: f64,
    /// Size of that local region in lines (per core, fits the L1-D).
    pub local_data_lines: usize,
    /// Fraction of data accesses hitting a modest LLC-resident region (OS
    /// and working structures).
    pub llc_resident_data_fraction: f64,
    /// Size of that LLC-resident region in lines.
    pub llc_resident_lines: usize,
    /// Fraction of data accesses touching the shared read-write region
    /// (the knob behind Fig. 4's snoop rates).
    pub shared_rw_fraction: f64,
    /// Size of the shared read-write region in lines.
    pub shared_rw_lines: usize,
    /// Per-core private dataset size in lines (uniform, no reuse — the
    /// "vast dataset" trait); accessed by the remaining data fraction and
    /// missing all on-die caches.
    pub private_data_lines: u64,
    /// Fraction of ALU ops with a 3-cycle dependent latency (bounds ILP).
    pub alu_long_fraction: f64,
    /// How many cores the workload scales to (16 for Web Frontend and Web
    /// Search, §5.3).
    pub max_cores: usize,
}

impl WorkloadProfile {
    /// Number of cores to activate given a chip with `available` cores.
    pub fn active_cores(&self, available: usize) -> usize {
        available.min(self.max_cores)
    }

    /// The Zipf table over the hot instruction set that every core's
    /// [`WorkloadGen`](crate::WorkloadGen) draws its hot-set transitions
    /// from. It depends on the profile alone, so a chip builds it once
    /// and hands every core the same `Arc`.
    pub fn hot_zipf(&self) -> Arc<Zipf> {
        Arc::new(Zipf::new(self.instr_hot_lines, self.instr_zipf_theta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads_in_paper_order() {
        assert_eq!(Workload::ALL.len(), 6);
        assert_eq!(Workload::ALL[0].name(), "Data Serving");
        assert_eq!(Workload::ALL[5].name(), "Web Search");
    }

    #[test]
    fn profiles_respect_scaling_limits() {
        assert_eq!(Workload::WebSearch.profile().max_cores, 16);
        assert_eq!(Workload::WebFrontend.profile().max_cores, 16);
        for w in [
            Workload::DataServing,
            Workload::MapReduceC,
            Workload::MapReduceW,
            Workload::SatSolver,
        ] {
            assert_eq!(w.profile().max_cores, 64, "{w}");
        }
    }

    #[test]
    fn active_cores_clamps() {
        let p = Workload::WebSearch.profile();
        assert_eq!(p.active_cores(64), 16);
        assert_eq!(p.active_cores(8), 8);
    }

    #[test]
    fn footprints_exceed_l1_but_fit_llc() {
        for w in Workload::ALL {
            let p = w.profile();
            let bytes = p.instr_footprint_lines as u64 * 64;
            assert!(bytes > 32 * 1024, "{w}: footprint must exceed L1-I");
            assert!(bytes <= 8 * 1024 * 1024, "{w}: footprint must fit the LLC");
        }
    }

    #[test]
    fn datasets_dwarf_llc() {
        for w in Workload::ALL {
            let p = w.profile();
            assert!(
                p.private_data_lines * 64 > 8 * 1024 * 1024,
                "{w}: dataset must dwarf the LLC"
            );
        }
    }

    #[test]
    fn sharing_fractions_are_small() {
        for w in Workload::ALL {
            let p = w.profile();
            assert!(
                p.shared_rw_fraction < 0.05,
                "{w}: request independence requires little sharing"
            );
        }
    }

    #[test]
    fn data_serving_is_most_latency_sensitive() {
        let ds = Workload::DataServing.profile();
        for w in Workload::ALL.iter().skip(1) {
            assert!(ds.dependent_load_fraction >= w.profile().dependent_load_fraction);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Workload::MapReduceC.to_string(), "MapReduce-C");
    }
}
