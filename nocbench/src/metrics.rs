//! The benchmark's metric and workload names: one table that the run
//! output, `compare`, the smoke test and `BENCHMARK.json` all agree
//! with (the smoke test checks the last).

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "fig7_serial",
    "loadlat_openloop",
    "cache_warm",
    "sharded_trace",
];

/// End-to-end metrics: printed by an untraced run, on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    hi("points_per_s", "1/s"),
    hi("sim_kcycles_per_s", "kcycles/s"),
    lo("peak_rss_mb", "MB"),
    lo("setup_s", "s"),
];

/// Per-layer metrics: printed by a traced run. A metric of a layer the
/// workload never enters reads 0.
pub const PER_LAYER: [MetricDef; 64] = [
    // campaign
    lo("campaign.plan_fold_us_per_point", "us"),
    lo("campaign.csv_us_per_point", "us"),
    // runner
    lo("runner.point_ms_p50", "ms"),
    lo("runner.point_ms_p90", "ms"),
    // chip
    lo("chip.build_ms", "ms"),
    lo("chip.build_share", "ratio"),
    lo("chip.metrics_us", "us"),
    hi("chip.kcycles_per_s.mesh", "kcycles/s"),
    hi("chip.kcycles_per_s.fbfly", "kcycles/s"),
    hi("chip.kcycles_per_s.nocout", "kcycles/s"),
    hi("chip.kcycles_per_s.active16", "kcycles/s"),
    hi("chip.kcycles_per_s.active64", "kcycles/s"),
    lo("chip.host_ns_per_instr", "ns"),
    lo("chip.host_ns_per_flit_hop", "ns"),
    // simulated counts of one round: they repeat exactly for a seed
    lo("chip.sim_instructions", "count"),
    lo("noc.packets", "count"),
    lo("noc.flit_hops", "count"),
    lo("memsys.llc_accesses", "count"),
    hi("memsys.llc_hit_ratio", "ratio"),
    lo("memsys.mem_reads", "count"),
    hi("workloads.requests_completed", "count"),
    lo("paper_gmean_err_pct", "%"),
    // cache
    lo("cache.get_us_p50", "us"),
    lo("cache.get_us_p90", "us"),
    lo("cache.put_us", "us"),
    hi("cache.hit_ratio", "ratio"),
    lo("cache.entry_bytes", "B"),
    // driver / worker / wire / journal
    lo("driver.cold_exec_ms", "ms"),
    lo("driver.warm_exec_ms", "ms"),
    hi("driver.ship_mb_per_s", "MB/s"),
    lo("driver.overhead_ms_per_point", "ms"),
    lo("driver.dispatches", "count"),
    lo("driver.retries", "count"),
    lo("driver.failed_attempts", "count"),
    lo("driver.trace_ships", "count"),
    hi("driver.trace_reuses", "count"),
    lo("wire.bytes_to_worker_per_point", "B"),
    lo("wire.bytes_to_driver_per_point", "B"),
    lo("worker.wait_read_ms", "ms"),
    hi("worker.busy_share", "ratio"),
    lo("journal.bytes_per_point", "B"),
    // the tracer itself
    lo("bench.trace_overhead_pct", "%"),
    // direct timed calls into each layer (the same on every workload)
    lo("cpu.core_tick_ns", "ns"),
    lo("cpu.rob_round_ns", "ns"),
    lo("memsys.l1_mshr_ns", "ns"),
    lo("memsys.llc_hit_ns", "ns"),
    lo("memsys.directory_ns", "ns"),
    lo("noc.switch_hop_ns", "ns"),
    lo("noc.loaded_tick_ns.mesh", "ns"),
    lo("noc.loaded_tick_ns.fbfly", "ns"),
    lo("noc.loaded_tick_ns.nocout", "ns"),
    lo("noc.fabric_wheel_ns", "ns"),
    lo("sim.latency_hist_record_ns", "ns"),
    lo("workloads.gen_instr_ns", "ns"),
    lo("workloads.openloop_instr_ns", "ns"),
    lo("workloads.trace_replay_instr_ns", "ns"),
    hi("wire.encode_mb_per_s", "MB/s"),
    hi("wire.decode_mb_per_s", "MB/s"),
    lo("wire.point_frame_us", "us"),
    lo("wire.spec_roundtrip_us", "us"),
    hi("store.archive_mb_per_s", "MB/s"),
    hi("store.stage_commit_mb_per_s", "MB/s"),
    hi("store.get_verify_mb_per_s", "MB/s"),
    lo("journal.record_us", "us"),
];

/// Measured values by metric name, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ..}` for every metric of
    /// `defs`, in their order. A per-layer metric that was not set is a
    /// layer that did no work: it reads 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|d| {
            let value = self.get(d.name).unwrap_or(0.0);
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .chain(WORKLOADS)
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn unset_per_layer_metrics_read_zero() {
        let mut v = Values::default();
        v.set("cache.hit_ratio", 1.0);
        let doc = v.to_json(&PER_LAYER);
        assert_eq!(doc.members().len(), PER_LAYER.len());
        let value = |n: &str| {
            doc.get(n)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("cache.hit_ratio"), Some(1.0));
        assert_eq!(value("driver.retries"), Some(0.0));
    }
}
