//! `nocout-worker`: serves shard requests on a local simulation pool.
//!
//! The serving side of `nocout::distribute`: binds a TCP listener,
//! executes each incoming shard on a local `BatchRunner`, and streams back
//! bit-exact metric records with heartbeats in between. The `shard-run`
//! driver spawns these itself (`--listen 127.0.0.1:0`, parsing the
//! `listening <addr>` banner below), but a worker can equally be started
//! by hand on another machine and reached with `--connect HOST:PORT`.
//!
//! The `--fault-*` flags arm the deterministic fault-injection plans the
//! chaos CI gate and the integration tests drive; see
//! `docs/distributed-campaigns.md`.

use nocout::distribute::{TraceStore, Worker};
use nocout_experiments::cli::{Cli, FaultArgs};
use std::io::Write as _;
use std::net::TcpListener;
use std::time::Duration;

const ABOUT: &str = "Serves nocout shard requests: accepts length-prefixed, \
digest-checked shard frames over TCP (--listen ADDR, announcing `listening \
<addr>` on stdout once bound), runs each spec on a local simulation pool, \
and streams back bit-exact metric records with heartbeats during long \
points. --trace-store DIR attaches a content-addressed trace store: the \
worker advertises its held trace hashes in the capability handshake, \
accepts driver-shipped trace archives (resumable, hash-verified, installed \
atomically), and replays trace@HASH workloads from the store. The \
--fault-* flags make the worker misbehave deterministically, for chaos \
tests.";

fn main() {
    let mut cli = Cli::parse(
        "nocout-worker",
        ABOUT,
        &format!(
            "--listen ADDR [--trace-store DIR] [--heartbeat-ms N] {}",
            FaultArgs::USAGE
        ),
    );
    let mut listen: Option<String> = None;
    let mut heartbeat_ms: u64 = 200;
    let mut trace_store: Option<String> = None;
    let mut faults = FaultArgs::default();
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--listen" => listen = Some(cli.value(&flag)),
            "--heartbeat-ms" => heartbeat_ms = cli.parsed(&flag),
            "--trace-store" => trace_store = Some(cli.value(&flag)),
            _ => {
                if !faults.accept(&flag, &mut cli) {
                    cli.unknown(&flag);
                }
            }
        }
    }
    let Some(addr) = listen else {
        cli.fail("--listen ADDR is required");
    };
    if heartbeat_ms == 0 {
        cli.fail("--heartbeat-ms must be positive");
    }
    let runner = cli.runner();
    let mut worker = Worker::new(runner)
        .with_heartbeat(Duration::from_millis(heartbeat_ms))
        .with_faults(faults.plan());
    if let Some(dir) = trace_store {
        match TraceStore::open(&dir) {
            Ok(store) => worker = worker.with_trace_store(store),
            Err(e) => cli.fail(&format!("cannot open trace store `{dir}`: {e}")),
        }
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => cli.fail(&format!("cannot bind `{addr}`: {e}")),
    };
    cli.finish();
    let local = listener.local_addr().expect("bound listener has an address");
    // The banner the driver's process-endpoint spawner parses: keep the
    // `listening <addr>` shape in sync with `nocout::distribute::driver`.
    println!("listening {local}");
    std::io::stdout().flush().expect("flush the listen banner");
    if let Err(e) = worker.serve_listener(&listener) {
        eprintln!("nocout-worker: {e}");
        std::process::exit(1);
    }
}
