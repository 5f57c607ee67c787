//! The `repro` binary's command line, run as a process from a scratch
//! directory: figure selection, its errors (a stray argument among them),
//! `--help`, and the CSVs of the two analytic figures (milliseconds even
//! in a debug build). Plus `explorer`'s refusal of a seed count it cannot
//! run, and `probe`'s refusal of a workload given without `--workload`.

use nocout_experiments::figures::FIGURES;
use std::process::Command;

/// Runs `bin` with `args` in a fresh scratch directory named after
/// `test`; returns the exit code, stdout, stderr and the files in `out/`.
fn run(bin: &str, test: &str, args: &[&str]) -> (Option<i32>, String, String, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("nocout-repro-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin).args(args).current_dir(&dir).output().unwrap();
    let mut files: Vec<String> = std::fs::read_dir(dir.join("out"))
        .map(|d| d.map(|e| e.unwrap().file_name().into_string().unwrap()).collect())
        .unwrap_or_default();
    files.sort();
    let _ = std::fs::remove_dir_all(&dir);
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr), files)
}

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn unknown_or_missing_figure_exits_2_with_the_usage_line() {
    let (code, _, err, _) = run(REPRO, "unknown", &["nope"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("`nope`"), "{err}");
    for f in &FIGURES {
        assert!(err.contains(f.name), "{} missing from: {err}", f.name);
    }
    let (code, _, err, _) = run(REPRO, "missing", &[]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("usage: repro [--jobs N] [--cache DIR]"), "{err}");
}

#[test]
fn a_stray_argument_exits_2_naming_it() {
    let (code, _, err, files) = run(REPRO, "stray", &["fig8", "extra"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unexpected argument `extra`"), "{err}");
    assert!(files.is_empty(), "nothing runs: {files:?}");
}

#[test]
fn help_lists_every_figure() {
    let (code, text, _, _) = run(REPRO, "help", &["--help"]);
    assert_eq!(code, Some(0));
    for f in &FIGURES {
        assert!(text.contains(f.about), "{} missing from: {text}", f.name);
    }
}

#[test]
fn analytic_figures_write_their_csvs() {
    for name in ["fig8", "table1"] {
        let (code, text, err, files) = run(REPRO, name, &[name]);
        assert_eq!(code, Some(0), "{name}: {err}");
        assert!(text.contains(&format!("(wrote out/{name}.csv)")), "{text}");
        assert_eq!(files, [format!("{name}.csv")]);
    }
}

#[test]
fn explorer_refuses_zero_seeds() {
    let (code, _, err, _) = run(env!("CARGO_BIN_EXE_explorer"), "seeds", &["--seeds", "0"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("`--seeds`") && err.contains("`0`"), "{err}");
}

#[test]
fn probe_takes_a_workload_only_through_its_flag() {
    let (code, _, err, _) = run(env!("CARGO_BIN_EXE_probe"), "probe-ws", &["ws"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("`ws`"), "{err}");
}
