//! `nocbench compare A.json B.json`: two `nocbench all` documents, one
//! row per pairing of end-to-end metric and workload.
//!
//! A is the base (the parent commit, or the first of two runs of one
//! binary), B the candidate. A row is `worse` when B's median is worse
//! than A's by more than the bound `BENCHMARK.json` fixes, `unresolved`
//! when either run's own round-to-round spread is wider than that bound
//! (the metric cannot tell the two apart, so it is not reported as
//! unchanged), and `ok` otherwise.

use crate::json::Json;
use std::fmt::Write as _;

/// The comparison: a printable table, and whether anything was worse.
#[derive(Debug)]
pub struct Comparison {
    /// One line per row.
    pub table: String,
    /// Rows that were `worse`, `failed_ratio` rises, digest changes.
    pub regressions: usize,
    /// Rows that were `unresolved`.
    pub unresolved: usize,
}

/// How much `paper_gmean_err_pct` may rise, in points, before it counts
/// as a regression. It is a simulated number, exact for a seed, so it is
/// compared absolutely.
const PAPER_ERR_SLACK: f64 = 0.5;

fn metric_value(workload: &Json, group: &str, name: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get("value")?.as_f64()
}

/// Compares `b` against `a` using the bounds of `benchmark` (the parsed
/// `BENCHMARK.json`).
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<Comparison, String> {
    let workloads_a = a.get("workloads").ok_or("A has no `workloads`")?;
    let workloads_b = b.get("workloads").ok_or("B has no `workloads`")?;
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let mut table = String::new();
    let mut regressions = 0;
    let mut unresolved = 0;
    let _ = writeln!(
        table,
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for (name, wa) in workloads_a.members() {
        let wb = workloads_b
            .get(name)
            .ok_or_else(|| format!("B has no workload `{name}`"))?;
        for def in benchmark
            .get("end_to_end")
            .map(Json::elements)
            .unwrap_or_default()
        {
            let metric = def
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a metric without a name")?;
            let bound = def.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = def.get("better").and_then(Json::as_str) == Some("higher");
            let (Some(va), Some(vb)) = (
                metric_value(wa, "end_to_end", metric),
                metric_value(wb, "end_to_end", metric),
            ) else {
                return Err(format!("`{metric}` on `{name}` is missing from A or B"));
            };
            let delta = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let worse_by = if higher { -delta } else { delta };
            let spread = [wa, wb]
                .iter()
                .filter_map(|w| w.get("spread")?.get(metric)?.as_f64())
                .fold(0.0, f64::max);
            let verdict = if spread > bound {
                unresolved += 1;
                "unresolved"
            } else if worse_by > bound {
                regressions += 1;
                "worse"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{name:<18} {metric:<22} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.1}%  {verdict}",
                delta * 100.0,
                bound * 100.0
            );
        }

        let (fa, fb) = (
            wa.get("failed_ratio").and_then(Json::as_f64).unwrap_or(1.0),
            wb.get("failed_ratio").and_then(Json::as_f64).unwrap_or(1.0),
        );
        let verdict = if fb > fa {
            regressions += 1;
            "worse"
        } else {
            "ok"
        };
        let _ = writeln!(
            table,
            "{name:<18} {:<22} {fa:>14.4} {fb:>14.4} {:>9} {:>7}  {verdict}",
            "failed_ratio", "", "0"
        );

        // Simulated results: exact for a seed, so only comparable when
        // both documents ran the same seed.
        if same_seed {
            let (da, db) = (wa.get("sim_digest"), wb.get("sim_digest"));
            let verdict = if da == db {
                "ok"
            } else {
                regressions += 1;
                "differs"
            };
            fn text(d: Option<&Json>) -> &str {
                d.and_then(Json::as_str).unwrap_or("-")
            }
            let _ = writeln!(
                table,
                "{name:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  {verdict}",
                "sim_digest",
                text(da),
                text(db),
                "",
                "same"
            );
            let err = |w: &Json| metric_value(w, "per_layer", "paper_gmean_err_pct").unwrap_or(0.0);
            let (ea, eb) = (err(wa), err(wb));
            if ea != 0.0 || eb != 0.0 {
                let verdict = if eb > ea + PAPER_ERR_SLACK {
                    regressions += 1;
                    "worse"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    table,
                    "{name:<18} {:<22} {ea:>14.4} {eb:>14.4} {:>+9.3} {:>7}  {verdict}",
                    "paper_gmean_err_pct",
                    eb - ea,
                    format!("+{PAPER_ERR_SLACK}")
                );
            }
        }
    }
    Ok(Comparison {
        table,
        regressions,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(points_per_s: f64, spread: f64, digest: &str, failed_ratio: f64) -> Json {
        Json::parse(&format!(
            r#"{{"seed": 1, "workloads": {{"w": {{
                "sim_digest": "{digest}", "failed_ratio": {failed_ratio},
                "spread": {{"points_per_s": {spread}}},
                "end_to_end": {{"points_per_s": {{"value": {points_per_s}, "unit": "1/s"}}}},
                "per_layer": {{}}}}}}}}"#
        ))
        .unwrap()
    }

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end": [{"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn verdicts() {
        let base = doc(100.0, 0.01, "d", 0.0);
        let same = compare(&base, &doc(95.0, 0.01, "d", 0.0), &benchmark()).unwrap();
        assert_eq!(
            (same.regressions, same.unresolved),
            (0, 0),
            "{}",
            same.table
        );
        let slower = compare(&base, &doc(80.0, 0.01, "d", 0.0), &benchmark()).unwrap();
        assert_eq!(slower.regressions, 1, "{}", slower.table);
        let noisy = compare(&base, &doc(80.0, 0.2, "d", 0.0), &benchmark()).unwrap();
        assert_eq!(
            (noisy.regressions, noisy.unresolved),
            (0, 1),
            "{}",
            noisy.table
        );
        let wrong = compare(&base, &doc(100.0, 0.01, "e", 0.1), &benchmark()).unwrap();
        assert_eq!(wrong.regressions, 2, "{}", wrong.table);
    }
}
