//! Runs `nocbench all --smoke` (work counts cut to seconds in total) and
//! checks that the document is complete and honest: every workload and
//! every metric present exactly once, well-formed names, stated units,
//! nothing failed, and the same names, units and directions as
//! `BENCHMARK.json` declares.

use nocbench::json::Json;
use nocbench::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_nocbench")
}

fn benchmark_json() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn names(obj: &Json) -> Vec<&str> {
    obj.members().iter().map(|(k, _)| k.as_str()).collect()
}

fn value(workload: &Json, group: &str, name: &str) -> f64 {
    workload
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{group}.{name} has no value"))
}

/// Every metric of `defs`, once, in order, with its unit and a finite
/// value.
fn check_group(workload: &str, group: &Json, defs: &[MetricDef]) {
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names(group), expected, "{workload}: metric names");
    for (def, (name, metric)) in defs.iter().zip(group.members()) {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{workload}: `{name}` is not [A-Za-z0-9_.-]+"
        );
        assert_eq!(names(metric), ["value", "unit"], "{workload}.{name}");
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{workload}.{name}"
        );
        let v = metric.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}.{name} = {v:?}");
    }
}

#[test]
fn smoke_document_is_complete_and_matches_benchmark_json() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let run = Command::new(exe())
        .args(["all", "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .output()
        .expect("nocbench runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    let doc = Json::parse(stdout.lines().last().expect("a document")).expect("valid JSON");

    assert_eq!(
        doc.get("claim"),
        Some(&Json::Null),
        "a benchmark run claims no gain"
    );
    let workloads = doc.get("workloads").expect("workloads");
    assert_eq!(names(workloads), WORKLOADS);
    for (name, w) in workloads.members() {
        check_group(name, w.get("end_to_end").expect("end_to_end"), &END_TO_END);
        check_group(name, w.get("per_layer").expect("per_layer"), &PER_LAYER);
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(
            w.get("failed_ratio").and_then(Json::as_f64),
            Some(0.0),
            "{name}"
        );
        assert!(
            w.get("attempted")
                .and_then(Json::as_f64)
                .is_some_and(|a| a >= 1.0),
            "{name}"
        );
        assert!(w
            .get("sim_digest")
            .and_then(Json::as_str)
            .is_some_and(|d| d.len() == 16));
        assert_eq!(
            w.get("sim_digest"),
            w.get("traced_sim_digest"),
            "{name}: traced digest"
        );
        for d in &END_TO_END {
            assert!(
                value(w, "end_to_end", d.name) > 0.0,
                "{name}.{} must never be 0",
                d.name
            );
        }
        // The direct layer calls are the same on every workload.
        assert!(value(w, "per_layer", "noc.switch_hop_ns") > 0.0, "{name}");
        assert!(
            value(w, "per_layer", "store.get_verify_mb_per_s") > 0.0,
            "{name}"
        );
    }

    // Each workload exercises the layers it was chosen for, and only those.
    let w = |name: &str| workloads.get(name).expect("workload");
    for simulated in ["fig7_serial", "loadlat_openloop"] {
        assert!(value(w(simulated), "per_layer", "chip.kcycles_per_s.mesh") > 0.0);
        assert!(value(w(simulated), "per_layer", "runner.point_ms_p50") > 0.0);
        assert_eq!(value(w(simulated), "per_layer", "cache.get_us_p50"), 0.0);
        assert_eq!(value(w(simulated), "per_layer", "driver.dispatches"), 0.0);
    }
    assert!(value(w("fig7_serial"), "per_layer", "paper_gmean_err_pct") > 0.0);
    assert!(
        value(
            w("loadlat_openloop"),
            "per_layer",
            "workloads.requests_completed"
        ) > 0.0
    );
    assert_eq!(value(w("cache_warm"), "per_layer", "cache.hit_ratio"), 1.0);
    assert!(value(w("cache_warm"), "per_layer", "cache.put_us") > 0.0);
    assert_eq!(
        value(w("sharded_trace"), "per_layer", "driver.trace_ships"),
        2.0
    );
    assert_eq!(
        value(w("sharded_trace"), "per_layer", "driver.trace_reuses"),
        10.0
    );
    assert_eq!(
        value(w("sharded_trace"), "per_layer", "driver.failed_attempts"),
        0.0
    );
    assert!(
        value(
            w("sharded_trace"),
            "per_layer",
            "wire.bytes_to_worker_per_point"
        ) > 0.0
    );

    // BENCHMARK.json declares exactly this benchmark.
    let text = std::fs::read_to_string(benchmark_json()).expect("BENCHMARK.json");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        names(&bench),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        bench.get("paths").map(Json::render).as_deref(),
        Some("[\"nocbench\"]")
    );
    let declared = |key: &str, field: &str| -> Vec<String> {
        bench
            .get(key)
            .expect(key)
            .elements()
            .iter()
            .map(|e| {
                e.get(field)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key}: no {field}"))
                    .to_string()
            })
            .collect()
    };
    assert_eq!(declared("workloads", "name"), WORKLOADS);
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        assert_eq!(
            declared(key, "name"),
            defs.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            declared(key, "unit"),
            defs.iter().map(|d| d.unit).collect::<Vec<_>>()
        );
        assert_eq!(
            declared(key, "better"),
            defs.iter().map(|d| d.better.word()).collect::<Vec<_>>()
        );
    }
    assert!(declared("end_to_end", "name").contains(&"setup_s".to_string()));

    // A document compared with itself has nothing worse.
    let doc_path = out.join("all.json");
    std::fs::write(&doc_path, doc.render()).expect("write the document");
    let same = Command::new(exe())
        .arg("compare")
        .args([&doc_path, &doc_path])
        .arg("--benchmark")
        .arg(benchmark_json())
        .output()
        .expect("compare runs");
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("0 worse"));
}

#[test]
fn one_run_prints_the_result_line_and_rejects_bad_flags() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("one-run");
    let run = Command::new(exe())
        .args([
            "--workload",
            "cache_warm",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("nocbench runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("valid JSON");
    assert_eq!(
        names(&result),
        ["correct", "attempted", "failed", "metrics"]
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        names(result.get("metrics").expect("metrics")),
        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    // Scratch files are gone when the run ends.
    let left: Vec<_> = std::fs::read_dir(&out)
        .expect("out dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("scratch-"))
        .collect();
    assert!(left.is_empty(), "{left:?}");

    for bad in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
        &[],
    ] {
        let run = Command::new(exe())
            .args(bad)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("runs");
        assert_eq!(run.status.code(), Some(2), "{bad:?}");
        assert!(run.stdout.is_empty(), "{bad:?} must print no result");
    }
}
