//! `nocbench all`: every workload untraced, then every workload traced,
//! each in a process of its own (so `peak_rss_mb` is that workload's),
//! merged into one document with every metric by name.

use crate::json::Json;
use crate::metrics::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;

/// How `all` sizes its runs.
#[derive(Debug, Clone)]
pub struct AllOptions {
    /// Workload seed of every run.
    pub seed: u64,
    /// Measuring time of every run.
    pub seconds: f64,
    /// Smoke sizes.
    pub smoke: bool,
    /// Where the runs write, and where their documents are read back.
    pub out: PathBuf,
}

/// Runs `exe` once for `workload`, waits for it, and reads the document
/// it wrote.
fn child(exe: &Path, opts: &AllOptions, workload: &str, traced: bool) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // The child's one-line result is not needed: its document has it all.
    let output = cmd
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !output.success() {
        return Err(format!(
            "the {workload} run (trace {}) exited with {output}",
            u8::from(traced)
        ));
    }
    let path = opts
        .out
        .join(format!("{workload}.trace{}.json", u8::from(traced)));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Runs everything and returns the merged document. `"claim": null`: a
/// benchmark run claims no gain.
pub fn all(exe: &Path, opts: &AllOptions) -> Result<Json, String> {
    let mut untraced = Vec::new();
    for w in WORKLOADS {
        eprintln!("nocbench: {w} (untraced)");
        untraced.push(child(exe, opts, w, false)?);
    }
    let mut workloads = Vec::new();
    for (w, u) in WORKLOADS.iter().zip(untraced) {
        eprintln!("nocbench: {w} (traced)");
        let t = child(exe, opts, w, true)?;
        let digest = u.get("sim_digest").cloned().unwrap_or(Json::Null);
        let same_digest = t.get("sim_digest") == Some(&digest);
        let attempted = num(&u, "attempted") + num(&t, "attempted");
        // A traced run that renders other bytes than the untraced one
        // got every one of its points wrong.
        let failed = num(&u, "failed")
            + if same_digest {
                num(&t, "failed")
            } else {
                num(&t, "attempted")
            };
        let correct = same_digest
            && u.get("correct") == Some(&Json::Bool(true))
            && t.get("correct") == Some(&Json::Bool(true));
        workloads.push((
            *w,
            Json::obj([
                ("sim_digest", digest),
                (
                    "traced_sim_digest",
                    t.get("sim_digest").cloned().unwrap_or(Json::Null),
                ),
                ("rounds", Json::Num(num(&u, "rounds"))),
                ("traced_rounds", Json::Num(num(&t, "traced_rounds"))),
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "failed_ratio",
                    Json::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        1.0
                    }),
                ),
                ("spread", u.get("spread").cloned().unwrap_or(Json::Null)),
                (
                    "end_to_end",
                    u.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("per_layer", t.get("metrics").cloned().unwrap_or(Json::Null)),
            ]),
        ));
    }
    Ok(Json::obj([
        ("claim", Json::Null),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("workloads", Json::obj(workloads)),
    ]))
}
