//! Daemon and client front end for the serve protocol.
//!
//! ```text
//! cuttlefish-serve serve    [--addr A] [--store PATH] [--workers N] [--port-file P]
//! cuttlefish-serve submit   FILE [--addr A] [--wait] [--json OUT]
//! cuttlefish-serve watch    JOB  [--addr A]
//! cuttlefish-serve status   JOB  [--addr A]
//! cuttlefish-serve result   JOB  [--addr A] [--json OUT]
//! cuttlefish-serve stats    [--addr A] [--require-all-hits]
//! cuttlefish-serve shutdown [--addr A]
//! ```
//!
//! `serve` runs the daemon in the foreground until a `shutdown`
//! request drains it (exit 0). `--port-file` writes the bound address
//! (atomically) once listening — how ci.sh finds an ephemeral port.
//! The store root resolves like the grid bins (`--store`, else
//! `CUTTLEFISH_STORE`, else `target/cuttlefish-store`); the address
//! resolves from `--addr`, else `CUTTLEFISH_SERVE_ADDR`, else
//! `127.0.0.1:53013`.
//!
//! `submit` posts a scenario (`cuttlefish/scenario/v1`) or cell-key
//! (`cuttlefish/cell-key/v1`) JSON file. `--wait` follows the event
//! stream to completion; `--json OUT` (implies `--wait`) additionally
//! writes the artifact — byte-identical to the grid path's artifact
//! for the same cell. `stats --require-all-hits` exits non-zero
//! unless every job so far was served from the store (the ci.sh
//! warm-smoke gate).

use serve::protocol::{decode, EventKind, JobEvent, Submission};
use serve::{resolve_addr, Client, Server};
use std::path::PathBuf;

const USAGE: &str = "cuttlefish-serve <serve|submit|watch|status|result|stats|shutdown> \
                     [FILE|JOB] [--addr A] [--store PATH] [--workers N] [--port-file P] \
                     [--wait] [--json OUT] [--require-all-hits]";

struct Args {
    command: String,
    operand: Option<String>,
    addr: Option<String>,
    store: Option<PathBuf>,
    workers: usize,
    port_file: Option<PathBuf>,
    wait: bool,
    json: Option<PathBuf>,
    require_all_hits: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: String::new(),
        operand: None,
        addr: None,
        store: None,
        workers: std::thread::available_parallelism().map_or(1, usize::from),
        port_file: None,
        wait: false,
        json: None,
        require_all_hits: false,
    };
    let mut argv = std::env::args().skip(1);
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        argv.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => args.addr = Some(value(&mut argv, "--addr")),
            "--store" => args.store = Some(PathBuf::from(value(&mut argv, "--store"))),
            "--workers" => {
                args.workers = value(&mut argv, "--workers")
                    .parse()
                    .unwrap_or_else(|_| die("--workers needs a positive integer"))
            }
            "--port-file" => args.port_file = Some(PathBuf::from(value(&mut argv, "--port-file"))),
            "--wait" => args.wait = true,
            "--json" => {
                args.json = Some(PathBuf::from(value(&mut argv, "--json")));
                args.wait = true;
            }
            "--require-all-hits" => args.require_all_hits = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            _ if args.command.is_empty() => args.command = arg,
            _ if args.operand.is_none() => args.operand = Some(arg),
            other => die(&format!("unexpected argument `{other}`")),
        }
    }
    if args.command.is_empty() {
        die("missing command");
    }
    args
}

fn main() {
    let args = parse_args();
    let client = || Client::new(resolve_addr(args.addr.clone()));
    let operand = |what: &str| -> &str {
        args.operand
            .as_deref()
            .unwrap_or_else(|| die(&format!("{} needs {what}", args.command)))
    };
    match args.command.as_str() {
        "serve" => serve_daemon(&args),
        "submit" => submit(
            &client(),
            operand("a scenario or cell-key JSON file"),
            &args,
        ),
        "watch" => {
            let events = client()
                .watch(operand("a job id"), |e| println!("{}", render_event(e)))
                .unwrap_or_else(|e| die(&e));
            let _ = events;
        }
        "status" => {
            let ticket = client()
                .status(operand("a job id"))
                .unwrap_or_else(|e| die(&e));
            println!("{} {}", ticket.job, ticket.state.as_str());
        }
        "result" => {
            let artifact = client()
                .result(operand("a job id"))
                .unwrap_or_else(|e| die(&e));
            emit_artifact(&artifact.to_pretty(), args.json.as_deref());
        }
        "stats" => stats(&client(), args.require_all_hits),
        "shutdown" => {
            let drained = client().shutdown().unwrap_or_else(|e| die(&e));
            println!("daemon drained {drained} in-flight job(s) and stopped");
        }
        other => die(&format!("unknown command `{other}`")),
    }
}

fn serve_daemon(args: &Args) {
    let store = bench::store::Store::open(bench::store::resolve_root(args.store.clone()));
    let addr = resolve_addr(args.addr.clone());
    let server = Server::bind(&addr, store.clone(), args.workers)
        .unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
    let bound = server.local_addr();
    println!(
        "cuttlefish-serve listening on {bound} (store {}, cv {}, {} worker(s))",
        store.root().display(),
        store.code_version(),
        args.workers.max(1)
    );
    if let Some(path) = &args.port_file {
        // Atomic write: a poller never reads a half-written address.
        let tmp = path.with_extension("tmp");
        let write =
            std::fs::write(&tmp, format!("{bound}\n")).and_then(|()| std::fs::rename(&tmp, path));
        write.unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
    }
    server.run().unwrap_or_else(|e| die(&format!("serve: {e}")));
}

fn submit(client: &Client, file: &str, args: &Args) {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| die(&format!("read {file}: {e}")));
    let submission: Submission = decode(&text).unwrap_or_else(|e| die(&format!("{file}: {}", e.0)));
    let ticket = client.submit(submission).unwrap_or_else(|e| die(&e));
    println!(
        "job {} {}{}",
        ticket.job,
        ticket.state.as_str(),
        if ticket.coalesced { " (coalesced)" } else { "" }
    );
    if !args.wait {
        return;
    }
    client
        .watch(&ticket.job, |e| println!("{}", render_event(e)))
        .unwrap_or_else(|e| die(&e));
    if args.json.is_some() {
        let artifact = client.result(&ticket.job).unwrap_or_else(|e| die(&e));
        emit_artifact(&artifact.to_pretty(), args.json.as_deref());
    }
}

fn stats(client: &Client, require_all_hits: bool) {
    let s = client.stats().unwrap_or_else(|e| die(&e));
    println!(
        "jobs {} (submits {}, coalesced {}) hits {} misses {} in-flight {} wall saved {:.1} ms",
        s.jobs, s.submits, s.coalesced, s.hits, s.misses, s.in_flight, s.wall_ms_saved
    );
    println!(
        "store: {} entries ({} bytes, {} corrupt), {} code version(s)",
        s.store.entries, s.store.bytes, s.store.corrupt, s.store.code_versions
    );
    if require_all_hits && (s.hits == 0 || s.misses != 0 || s.in_flight != 0) {
        eprintln!(
            "error: --require-all-hits wants every settled job warm \
             (hits {} / misses {} / in-flight {})",
            s.hits, s.misses, s.in_flight
        );
        std::process::exit(1);
    }
}

fn render_event(e: &JobEvent) -> String {
    let mut line = format!("{} {}", e.job, e.kind.as_str());
    if let Some(wall_ms) = e.wall_ms {
        line.push_str(&format!(" wall={wall_ms:.1}ms"));
    }
    if let Some([stepped, idle, busy, total]) = e.quanta {
        line.push_str(&format!(" quanta={stepped}+{idle}+{busy}/{total}"));
    }
    if e.kind == EventKind::Hit {
        line.push_str(" (no simulation)");
    }
    line
}

fn emit_artifact(pretty: &str, out: Option<&std::path::Path>) {
    match out {
        Some(path) => {
            std::fs::write(path, pretty)
                .unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
            println!("wrote {}", path.display());
        }
        None => print!("{pretty}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}
