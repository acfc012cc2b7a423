//! Inspect and garbage-collect the content-addressed result store.
//!
//! `store <command> [--store PATH]`
//!
//! * `ls` — list every entry (key, code version, benchmark, label,
//!   compute wall-clock, size), sorted by key;
//! * `stats` — aggregate shape: entries, total bytes, distinct code
//!   versions (the same `bench::store::StoreStats` computation the
//!   `cuttlefish-serve` daemon reports over the wire);
//! * `verify` — fully verify every entry (decodable, filename/key
//!   consistent, result digest intact); exits non-zero if any fail;
//! * `gc` — remove entries that can never hit under the current code
//!   version (stale fingerprints, undecodable files);
//! * `rm PREFIX` / `rm --all` — remove entries by key-hex prefix, or
//!   everything.
//!
//! The root resolves like the grid bins: `--store PATH`, else
//! `CUTTLEFISH_STORE`, else `target/cuttlefish-store`.

use bench::store::{resolve_root, Store};
use std::path::PathBuf;

const USAGE: &str = "store <ls|stats|verify|gc|rm> [PREFIX|--all] [--store PATH]";

fn main() {
    let mut command = None;
    let mut operand: Option<String> = None;
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => {
                root = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    die("--store needs a path");
                })));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ if command.is_none() => command = Some(arg),
            _ if operand.is_none() => operand = Some(arg),
            other => die(&format!("unexpected argument `{other}`")),
        }
    }
    let store = Store::open(resolve_root(root));
    let command = command.unwrap_or_else(|| die("missing command"));
    match command.as_str() {
        "ls" => ls(&store),
        "stats" => stats(&store),
        "verify" => verify(&store),
        "gc" => gc(&store),
        "rm" => rm(&store, operand.as_deref()),
        other => die(&format!("unknown command `{other}`")),
    }
}

fn ls(store: &Store) {
    let files = store.entry_files();
    let current = store.code_version();
    let mut fresh = 0usize;
    for path in &files {
        match Store::describe(path) {
            Ok(meta) => {
                let marker = if meta.code_version == current {
                    fresh += 1;
                    ' '
                } else {
                    // Stale: still addressable under its own code
                    // version, but the current build will never hit it.
                    '*'
                };
                println!(
                    "{}{} cv={} {:>9.1} ms {:>7} B  {:<12} {}",
                    marker,
                    meta.key,
                    meta.code_version,
                    meta.wall_ms,
                    meta.bytes,
                    meta.bench,
                    meta.label
                );
            }
            Err(e) => println!("!{} — undecodable: {e}", path.display()),
        }
    }
    println!(
        "{} entries at {} ({} current under cv={}, * = stale, ! = corrupt)",
        files.len(),
        store.root().display(),
        fresh,
        current
    );
}

fn stats(store: &Store) {
    let s = store.stats();
    println!(
        "{} entries ({} bytes, {} corrupt) across {} code version(s) at {} (current cv={})",
        s.entries,
        s.bytes,
        s.corrupt,
        s.code_versions,
        store.root().display(),
        store.code_version()
    );
}

fn verify(store: &Store) {
    let files = store.entry_files();
    let mut bad = 0usize;
    for path in &files {
        if let Err(e) = store.verify_file(path) {
            eprintln!("BAD {}: {e}", path.display());
            bad += 1;
        }
    }
    println!(
        "verified {} entries at {}: {} ok, {bad} bad",
        files.len(),
        store.root().display(),
        files.len() - bad
    );
    if bad > 0 {
        std::process::exit(1);
    }
}

fn gc(store: &Store) {
    match store.gc() {
        Ok(report) => println!(
            "gc {}: kept {}, removed {} ({} bytes freed; current cv={})",
            store.root().display(),
            report.kept,
            report.removed,
            report.bytes_freed,
            store.code_version()
        ),
        Err(e) => die(&format!("gc failed: {e}")),
    }
}

fn rm(store: &Store, operand: Option<&str>) {
    let prefix = match operand {
        Some("--all") => "",
        Some(p) if p.chars().all(|c| c.is_ascii_hexdigit()) && !p.is_empty() => p,
        Some(p) => die(&format!("`{p}` is not a hex key prefix (or --all)")),
        None => die("rm needs a key prefix or --all"),
    };
    match store.remove_prefix(prefix) {
        Ok(n) => println!("removed {n} entries from {}", store.root().display()),
        Err(e) => die(&format!("rm failed: {e}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}
