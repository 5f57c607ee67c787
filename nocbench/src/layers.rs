//! `nocbench layers`: direct timed calls into each layer's public
//! functions.
//!
//! Each op runs a fixed number of times per batch; the batches of all
//! ops are interleaved (one batch of every op, then the next batch of
//! every op) so that a slow stretch of the host lands on every op alike,
//! and the median batch is reported. The op definitions are the ones
//! `nocout_bench`'s `memopt`, `uncoreopt`, `nocopt` and `statopt`
//! modules share with the criterion benches, plus [`crate::distopt`].

use crate::distopt::{self, DistFixture};
use crate::metrics::Values;
use crate::stats::median;
use nocout_bench::{memopt, nocopt, statopt, uncoreopt};
use nocout_sim::stats::LatencyHist;
use nocout_sim::Cycle;
use std::path::Path;
use std::time::Instant;

/// One op under the harness: a name and a closure that runs one batch
/// and returns the metric's value for that batch.
struct Op<'a> {
    name: &'static str,
    batch: Box<dyn FnMut() -> f64 + 'a>,
}

/// Nanoseconds per iteration of `f` over `iters` iterations.
fn ns_per_op(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Megabytes per second of `f`, which moves `mb` megabytes per call.
fn mb_per_s(iters: u64, mb: f64, f: impl FnMut(u64)) -> f64 {
    mb * 1e9 / ns_per_op(iters, f)
}

/// Runs every op for 9 interleaved batches (3 batches of a fiftieth of
/// the iterations under `smoke`) and sets each metric to its median
/// batch. `dir` is scratch space.
pub fn run(dir: &Path, smoke: bool, out: &mut Values) {
    let (batches, scale) = if smoke { (3, 50) } else { (9, 1) };
    let n = move |iters: u64| (iters / scale).max(1);
    let fixture = DistFixture::new(dir, if smoke { 400 } else { 4_000 });
    let f = &fixture;

    let (mut core, mut core_src) = memopt::resident_alu_core();
    let mut core_out = Vec::new();
    let mut core_now = 0u64;
    let (mut rob, mut rob_idx) = memopt::rob_and_index();
    let mut rob_round = 0u64;
    let mut l1 = memopt::a15_l1();
    let mut l1_scratch = Vec::new();
    let mut l1_line = 0u64;
    let mut tile = uncoreopt::warmed_nocout_tile();
    let mut tile_now = Cycle(0);
    let mut tile_i = 0u64;
    let mut dir_slice = uncoreopt::bench_directory();
    let mut dir_i = 0u64;
    let mut fabric = uncoreopt::tencycle_fabric();
    let mut fabric_i = 0u64;
    let (mut pair, pair_terms) = nocopt::saturated_pair();
    let mut hist_scratch = LatencyHist::new();
    let mut hist_acc = LatencyHist::new();
    let mut hist_round = 0u64;
    let mut synthetic = distopt::synthetic_source();
    let mut openloop = distopt::openloop_source();
    let mut openloop_i = 0u64;
    let mut replay = distopt::replay_source(f);

    let mut ops: Vec<Op<'_>> = vec![
        Op {
            name: "cpu.core_tick_ns",
            batch: Box::new(|| {
                ns_per_op(n(200_000), |_| {
                    memopt::resident_alu_tick(
                        &mut core,
                        &mut core_src,
                        &mut core_out,
                        Cycle(core_now),
                    );
                    core_now += 1;
                })
            }),
        },
        Op {
            name: "cpu.rob_round_ns",
            batch: Box::new(|| {
                ns_per_op(n(100_000), |_| {
                    memopt::rob_fill_wakeup_round(&mut rob, &mut rob_idx, rob_round);
                    rob_round += 1;
                })
            }),
        },
        Op {
            name: "memsys.l1_mshr_ns",
            batch: Box::new(|| {
                ns_per_op(n(200_000), |_| {
                    memopt::mshr_alloc_merge_fill(&mut l1, &mut l1_scratch, &mut l1_line)
                })
            }),
        },
        Op {
            name: "memsys.llc_hit_ns",
            batch: Box::new(|| {
                ns_per_op(n(100_000), |_| {
                    uncoreopt::llc_tile_hit_round(&mut tile, &mut tile_now, tile_i);
                    tile_i += 1;
                })
            }),
        },
        Op {
            name: "memsys.directory_ns",
            batch: Box::new(|| {
                ns_per_op(n(200_000), |_| {
                    uncoreopt::directory_round(&mut dir_slice, dir_i);
                    dir_i += 1;
                })
            }),
        },
        Op {
            name: "noc.fabric_wheel_ns",
            batch: Box::new(|| {
                ns_per_op(n(200_000), |_| {
                    uncoreopt::fabric_wheel_round(&mut fabric, fabric_i);
                    fabric_i += 1;
                })
            }),
        },
        Op {
            // Per granted flit hop, not per tick: the pair moves up to
            // two flits a cycle.
            name: "noc.switch_hop_ns",
            batch: Box::new(|| {
                let rounds = n(100_000);
                let before = nocopt::flit_hops(&pair);
                let per_round =
                    ns_per_op(rounds, |_| nocopt::switch_hop_round(&mut pair, &pair_terms));
                let hops = nocopt::flit_hops(&pair) - before;
                per_round * rounds as f64 / hops.max(1) as f64
            }),
        },
        Op {
            // Per recorded sample: a round is 64 records, a merge and a
            // percentile read-back.
            name: "sim.latency_hist_record_ns",
            batch: Box::new(|| {
                ns_per_op(n(5_000), |_| {
                    statopt::latency_hist_round(&mut hist_scratch, &mut hist_acc, hist_round);
                    hist_round += 1;
                }) / 64.0
            }),
        },
        Op {
            name: "workloads.gen_instr_ns",
            batch: Box::new(|| ns_per_op(n(400_000), |_| distopt::next_instr(&mut synthetic))),
        },
        Op {
            name: "workloads.openloop_instr_ns",
            batch: Box::new(|| {
                ns_per_op(n(400_000), |_| {
                    distopt::openloop_instr(&mut openloop, openloop_i);
                    openloop_i += 1;
                })
            }),
        },
        Op {
            name: "workloads.trace_replay_instr_ns",
            batch: Box::new(|| ns_per_op(n(400_000), |_| distopt::next_instr(&mut replay))),
        },
        Op {
            name: "wire.encode_mb_per_s",
            batch: Box::new(|| {
                mb_per_s(n(20), distopt::CHUNK_BYTES as f64 / 1e6, |_| {
                    distopt::wire_encode_chunk(f)
                })
            }),
        },
        Op {
            name: "wire.decode_mb_per_s",
            batch: Box::new(|| {
                mb_per_s(n(20), distopt::CHUNK_BYTES as f64 / 1e6, |_| {
                    distopt::wire_decode_chunk(f)
                })
            }),
        },
        Op {
            name: "wire.point_frame_us",
            batch: Box::new(|| ns_per_op(n(1_000), |_| distopt::wire_point_frame(f)) / 1e3),
        },
        Op {
            name: "wire.spec_roundtrip_us",
            batch: Box::new(|| ns_per_op(n(2_000), |_| distopt::wire_spec_roundtrip(f)) / 1e3),
        },
        Op {
            name: "store.archive_mb_per_s",
            batch: Box::new(|| mb_per_s(2, f.archive_mb(), |_| distopt::store_archive(f))),
        },
        Op {
            name: "store.stage_commit_mb_per_s",
            batch: Box::new(|| mb_per_s(1, f.archive_mb(), |_| distopt::store_stage_commit(f))),
        },
        Op {
            name: "store.get_verify_mb_per_s",
            batch: Box::new(|| mb_per_s(2, f.archive_mb(), |_| distopt::store_get_verify(f))),
        },
        Op {
            name: "journal.record_us",
            batch: Box::new(|| {
                // A fresh journal per batch bounds the file's size.
                let mut journal = distopt::journal_open(f);
                ns_per_op(n(1_000), |_| distopt::journal_record(&mut journal, f)) / 1e3
            }),
        },
    ];
    for mut net in nocopt::loaded_networks() {
        let name = match net.key {
            "mesh" => "noc.loaded_tick_ns.mesh",
            "flattened_butterfly" => "noc.loaded_tick_ns.fbfly",
            _ => "noc.loaded_tick_ns.nocout",
        };
        ops.push(Op {
            name,
            batch: Box::new(move || ns_per_op(n(10_000), |_| nocopt::loaded_tick(&mut net))),
        });
    }

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(batches); ops.len()];
    for _ in 0..batches {
        for (op, s) in ops.iter_mut().zip(&mut samples) {
            s.push((op.batch)());
        }
    }
    for (op, s) in ops.iter().zip(&samples) {
        out.set(op.name, median(s));
    }
}
