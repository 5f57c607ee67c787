//! The `nocbench` command line. See `README.md` beside this package.

use nocbench::all::{all, AllOptions};
use nocbench::compare::compare;
use nocbench::json::Json;
use nocbench::metrics::{Values, PER_LAYER, WORKLOADS};
use nocbench::run::{run, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  nocbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
      one run of one workload; the last line of standard output is the
      result: {\"correct\", \"attempted\", \"failed\", \"metrics\"}.
      --trace 0 (default) prints the end-to-end metrics,
      --trace 1 the per-layer metrics, and writes DIR/W.spans.json
  nocbench all [--seed N] [--seconds S] [--smoke] [--out DIR]
      every workload untraced, then traced, one process each;
      prints one document with every metric by name
  nocbench layers [--smoke] [--out DIR]
      the direct timed calls into each layer, alone
  nocbench compare A.json B.json [--benchmark BENCHMARK.json]
      one row per end-to-end metric and workload; exits 1 on any `worse`
workloads: fig7_serial, loadlat_openloop, cache_warm, sharded_trace
DIR defaults to $CARGO_TARGET_DIR/nocbench, or nocbench/target/nocbench";

/// The flags after the subcommand.
#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    benchmark: PathBuf,
    files: Vec<String>,
}

fn default_out() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("nocbench/target"), PathBuf::from)
        .join("nocbench")
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        smoke: false,
        out: default_out(),
        benchmark: PathBuf::from("BENCHMARK.json"),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                flags.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                flags.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a number of seconds"))?;
            }
            "--trace" => {
                flags.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                }
            }
            "--smoke" => flags.smoke = true,
            "--out" => flags.out = PathBuf::from(value()?),
            "--benchmark" => flags.benchmark = PathBuf::from(value()?),
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            file => flags.files.push(file.to_string()),
        }
    }
    Ok(flags)
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main_inner() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Some(c @ ("all" | "layers" | "compare")) => (c, &args[1..]),
        Some(_) => ("run", &args[..]),
    };
    let flags = parse(rest)?;
    if command != "compare" {
        std::fs::create_dir_all(&flags.out)
            .map_err(|e| format!("cannot create {}: {e}", flags.out.display()))?;
    }
    match command {
        "run" => {
            let workload = flags.workload.ok_or_else(|| {
                format!("--workload is required (one of {})", WORKLOADS.join(", "))
            })?;
            let report = run(&RunOptions {
                workload,
                seed: flags.seed,
                seconds: flags.seconds,
                traced: flags.traced,
                smoke: flags.smoke,
                out: flags.out,
            })?;
            for check in report
                .doc
                .get("checks_failed")
                .map(Json::elements)
                .unwrap_or_default()
            {
                eprintln!("nocbench: check failed: {}", check.as_str().unwrap_or("?"));
            }
            eprintln!(
                "nocbench: {} rounds (+{} traced), sim_digest {}, spread {}",
                report
                    .doc
                    .get("rounds")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                report
                    .doc
                    .get("traced_rounds")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                report
                    .doc
                    .get("sim_digest")
                    .and_then(Json::as_str)
                    .unwrap_or("-"),
                report
                    .doc
                    .get("spread")
                    .map(Json::render)
                    .unwrap_or_default(),
            );
            println!("{}", report.result.render());
            Ok(ExitCode::SUCCESS)
        }
        "all" => {
            let exe =
                std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
            let doc = all(
                &exe,
                &AllOptions {
                    seed: flags.seed,
                    seconds: flags.seconds,
                    smoke: flags.smoke,
                    out: flags.out,
                },
            )?;
            println!("{}", doc.render());
            Ok(ExitCode::SUCCESS)
        }
        "layers" => {
            let dir = flags.out.join(format!("scratch-{}", std::process::id()));
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let mut values = Values::default();
            nocbench::layers::run(&dir, flags.smoke, &mut values);
            let _ = std::fs::remove_dir_all(&dir);
            let measured: Vec<_> = PER_LAYER
                .iter()
                .filter(|d| values.get(d.name).is_some())
                .copied()
                .collect();
            println!("{}", values.to_json(&measured).render());
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [a, b] = flags.files.as_slice() else {
                return Err("compare needs exactly two documents".to_string());
            };
            let result = compare(
                &read_json(a.as_ref())?,
                &read_json(b.as_ref())?,
                &read_json(&flags.benchmark)?,
            )?;
            print!("{}", result.table);
            println!(
                "{} worse, {} unresolved",
                result.regressions, result.unresolved
            );
            Ok(if result.regressions == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => unreachable!("`{other}` is not a command main_inner selects"),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nocbench: {e}");
            ExitCode::from(2)
        }
    }
}
