//! A running daemon must not grow with the number of connections it
//! has closed. Each connection runs on its own thread, and a finished
//! thread that is never joined or detached keeps its stack mapped.
//!
//! This is the file's only test, so it runs in a process of its own
//! and no other test's threads share its address space.

#![cfg(target_os = "linux")]

use bench::store::Store;
use serve::{Client, Server};

const CONNECTIONS: usize = 300;

/// Virtual memory size of this process, KiB.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line")
}

#[test]
fn closed_connections_do_not_accumulate_thread_stacks() {
    // Only `stats` requests arrive, so the store root is never written.
    let root = std::env::temp_dir().join(format!(
        "cuttlefish-serve-test-conns-{}",
        std::process::id()
    ));
    let store = Store::with_code_version(root, "cv-conns");
    let server = Server::bind("127.0.0.1:0", store, 1).expect("bind ephemeral");
    let client = Client::new(server.local_addr().to_string());
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    // One request first, so the worker and the first connection thread
    // are part of the baseline.
    client.stats().expect("stats");
    let before = vm_size_kib();
    for _ in 0..CONNECTIONS {
        client.stats().expect("stats");
    }
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;

    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
    assert!(
        grown_mib < 200,
        "VmSize grew {grown_mib} MiB over {CONNECTIONS} closed connections"
    );
}
