//! Trace capture → replay round trip: records multi-million-instruction
//! traces from each CloudSuite-style profile, replays them as the
//! `trace:PATH` workload class, and asserts the replayed chip metrics are
//! bit-identical to the synthetic run that produced the streams.
//!
//! Two artifact files land under `out/` with one results-cache entry
//! (`nocout::cache::render_entry`, keyed by the workload's tag: every
//! count verbatim, every float as the hex of its bits) per workload —
//! `trace_synth.txt` from the synthetic runs and `trace_replay.txt` from
//! the replays — so CI can `cmp` them as a byte-identity gate. Captured trace directories live under
//! `out/traces/<workload>/` and are removed after verification unless
//! `--keep` is given (replay them later with any binary's
//! `--workload trace:out/traces/<workload>`).
//!
//! Run with `cargo run --release -p nocout-experiments --bin trace`
//! (`NOCOUT_FAST=1` shortens the window and therefore the captures).

use nocout::cache::render_entry;
use nocout::prelude::*;
use nocout_experiments::cli::Cli;
use nocout_experiments::{measurement_window, out_path, Table};

const ABOUT: &str = "Captures a multi-million-instruction trace from each \
CloudSuite-style profile on the mesh, replays it as the trace:PATH \
workload class, asserts the replayed chip metrics are bit-identical, and \
writes out/trace_synth.txt + out/trace_replay.txt for the CI cmp gate.";

fn main() {
    let mut cli = Cli::parse(
        "trace",
        ABOUT,
        "[--workload NAME] [--seed S] [--instrs N] [--keep]",
    );
    let mut only: Option<Workload> = None;
    let mut seed = 1u64;
    let mut instrs_override: Option<u64> = None;
    let mut keep = false;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--workload" => only = Some(cli.workload(&flag)),
            "--seed" => seed = cli.parsed(&flag),
            "--instrs" => instrs_override = Some(cli.parsed(&flag)),
            "--keep" => keep = true,
            _ => cli.unknown(&flag),
        }
    }
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();

    let window = measurement_window(scale);
    let instrs_per_core = instrs_override.unwrap_or_else(|| trace_capture_len(&window));
    let workloads: Vec<Workload> = match only {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };

    let mut table = Table::new(
        "Trace capture → replay identity (Mesh, Table 1 configuration)",
        &[
            "Workload",
            "Streams",
            "Instrs/core",
            "Bytes/instr",
            "Synth IPC",
            "Replay IPC",
            "Identical",
        ],
    );
    let mut synth_lines = String::new();
    let mut replay_lines = String::new();
    let chip = ChipConfig::paper(Organization::Mesh);
    for w in workloads {
        let tag = format!("{w}").to_lowercase().replace(' ', "-");
        let dir = out_path("traces").join(&tag);
        let set = capture_synthetic_trace(chip, w, seed, &dir, instrs_per_core)
            .unwrap_or_else(|e| panic!("{w}: capture failed: {e}"));
        // Synthetic source and its replayed capture are one campaign with
        // a two-element workload axis — `trace:PATH` composes with any
        // grid — so `--jobs` and `--cache` apply to the replays exactly
        // as to the synthetic runs.
        let frame = Campaign::new()
            .fixed(chip)
            .workloads([WorkloadClass::from(w), WorkloadClass::Trace(set.clone())])
            .seeds([seed])
            .window(window)
            .run(&runner);
        let (synth, replay) = (&frame.results()[0].metrics, &frame.results()[1].metrics);

        // Byte equality of the two entry texts is exactly metric
        // bit-identity.
        let a = render_entry(&tag, synth);
        let b = render_entry(&tag, replay);
        let identical = a == b;
        synth_lines.push_str(&a);
        replay_lines.push_str(&b);
        table.row(vec![
            w.name().into(),
            set.streams().to_string(),
            instrs_per_core.to_string(),
            format!("{:.2}", set.total_bytes() as f64 / set.total_instructions() as f64),
            format!("{:.4}", synth.aggregate_ipc()),
            format!("{:.4}", replay.aggregate_ipc()),
            if identical { "yes".into() } else { "NO".into() },
        ]);
        assert!(
            identical,
            "{w}: replayed metrics diverge from the synthetic run\n  synth : {a}\n  replay: {b}"
        );
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    table.print();

    let synth_path = out_path("trace_synth.txt");
    let replay_path = out_path("trace_replay.txt");
    std::fs::write(&synth_path, synth_lines).expect("write trace_synth.txt");
    std::fs::write(&replay_path, replay_lines).expect("write trace_replay.txt");
    println!(
        "Every replay reproduced its synthetic run bit for bit \
         ({instrs_per_core} instrs/core captured per stream)."
    );
    println!(
        "(wrote {} and {} — CI cmps them; traces {})",
        synth_path.display(),
        replay_path.display(),
        if keep {
            "kept under out/traces/"
        } else {
            "removed; pass --keep to retain"
        }
    );
}
