//! The Scale-Out Processor (SOP) configuration methodology (§2.2).
//!
//! The paper derives its 64-core / 8 MB configuration with the SOP
//! methodology [Lotfi-Kamran et al., ISCA 2012]: a cost-benefit framework
//! that maximizes *performance density* (throughput per unit die area)
//! over core count and LLC capacity. This module implements that
//! optimization with a first-order throughput model: per-core performance
//! rises with the fraction of the instruction footprint the LLC captures
//! and falls with the LLC access latency implied by die size.

use nocout_tech::ChipPowerModel;

/// Inputs to the SOP optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SopInputs {
    /// Die area budget for cores + LLC, mm².
    pub area_budget_mm2: f64,
    /// Instruction footprint the LLC should capture, MB.
    pub instr_footprint_mb: f64,
    /// Baseline per-core IPC when the footprint fully fits.
    pub base_core_ipc: f64,
    /// LLC accesses per kilo-instruction (drives latency sensitivity).
    pub llc_apki: f64,
    /// Additional stall cycles per LLC access per millimetre of average
    /// on-die distance.
    pub stall_per_access_mm: f64,
}

impl SopInputs {
    /// Inputs matching the paper's 32 nm setting: a ~210 mm² core+cache
    /// budget, multi-MB instruction footprints and latency-sensitive
    /// accesses.
    pub fn paper_32nm() -> Self {
        SopInputs {
            area_budget_mm2: 215.0,
            instr_footprint_mb: 6.0,
            base_core_ipc: 0.8,
            llc_apki: 40.0,
            stall_per_access_mm: 0.5,
        }
    }
}

/// One candidate configuration with its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SopPoint {
    /// Core count.
    pub cores: usize,
    /// LLC capacity in MB.
    pub llc_mb: f64,
    /// Estimated chip throughput (aggregate IPC).
    pub throughput: f64,
    /// Throughput per mm² — the SOP objective.
    pub performance_density: f64,
}

/// Evaluates one (cores, llc) candidate.
pub fn evaluate(inputs: &SopInputs, tech: &ChipPowerModel, cores: usize, llc_mb: f64) -> SopPoint {
    let area = tech.cores_area_mm2(cores) + tech.llc_area_mm2(llc_mb);
    // Fraction of the instruction working set the LLC captures: misses to
    // memory are an order of magnitude more costly than LLC hits.
    let capture = (llc_mb / inputs.instr_footprint_mb).min(1.0);
    // Average on-die distance grows with the square root of die area.
    let avg_distance_mm = area.sqrt() / 2.0;
    // Accesses the LLC fails to capture pay a memory-like penalty, modelled
    // as a 4× multiplier on the interconnect stall — this is what makes
    // LLCs below the instruction footprint a bad trade.
    let miss_penalty = 1.0 + 4.0 * (1.0 - capture);
    let stall_per_kinstr =
        inputs.llc_apki * inputs.stall_per_access_mm * avg_distance_mm * miss_penalty;
    let cycles_per_kinstr = 1000.0 / inputs.base_core_ipc + stall_per_kinstr;
    let core_ipc = 1000.0 / cycles_per_kinstr;
    let throughput = core_ipc * cores as f64;
    SopPoint {
        cores,
        llc_mb,
        throughput,
        performance_density: throughput / area,
    }
}

/// Sweeps core counts and LLC capacities under the area budget and returns
/// all feasible points, best (highest performance density) first.
pub fn optimize(inputs: &SopInputs, tech: &ChipPowerModel) -> Vec<SopPoint> {
    let mut points = Vec::new();
    for cores in (8..=128).step_by(8) {
        for llc_mb in [2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0] {
            let area = tech.cores_area_mm2(cores) + tech.llc_area_mm2(llc_mb);
            if area > inputs.area_budget_mm2 {
                continue;
            }
            points.push(evaluate(inputs, tech, cores, llc_mb));
        }
    }
    points.sort_by(|a, b| {
        b.performance_density
            .partial_cmp(&a.performance_density)
            .expect("finite scores")
    });
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_is_many_cores_modest_llc() {
        let best = optimize(&SopInputs::paper_32nm(), &ChipPowerModel::paper_32nm());
        let top = best.first().expect("some feasible point");
        // The SOP conclusion: many cores, modestly-sized LLC.
        assert!(top.cores >= 48, "expected many cores, got {}", top.cores);
        assert!(
            top.llc_mb <= 12.0,
            "expected a modest LLC, got {} MB",
            top.llc_mb
        );
    }

    #[test]
    fn paper_configuration_is_near_optimal() {
        let inputs = SopInputs::paper_32nm();
        let tech = ChipPowerModel::paper_32nm();
        let points = optimize(&inputs, &tech);
        let best = points[0].performance_density;
        let paper = evaluate(&inputs, &tech, 64, 8.0);
        assert!(
            paper.performance_density > 0.85 * best,
            "64 cores / 8 MB should be within 15% of the sweep optimum"
        );
    }

    #[test]
    fn more_cache_beyond_footprint_wastes_area() {
        let inputs = SopInputs::paper_32nm();
        let tech = ChipPowerModel::paper_32nm();
        let modest = evaluate(&inputs, &tech, 64, 8.0);
        let oversized = evaluate(&inputs, &tech, 64, 32.0);
        assert!(modest.performance_density > oversized.performance_density);
    }

    #[test]
    fn budget_is_respected() {
        let inputs = SopInputs::paper_32nm();
        let tech = ChipPowerModel::paper_32nm();
        for p in optimize(&inputs, &tech) {
            assert!(
                tech.cores_area_mm2(p.cores) + tech.llc_area_mm2(p.llc_mb)
                    <= inputs.area_budget_mm2
            );
        }
    }
}
