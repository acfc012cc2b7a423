//! End-to-end daemon tests: the acceptance contract of the serving
//! path. Duplicate concurrent submissions of one scenario must compute
//! exactly once and hand every client byte-identical artifact bytes,
//! equal to the grid path's artifact for the same cell; warm-store
//! submissions must complete without running the simulator; and
//! `shutdown` must drain in-flight work before the daemon exits.

use bench::grid::{run_scenario_timed, scenario_cell, BspCell, CellSpec};
use bench::scenario::{Scenario, Topology};
use bench::store::Store;
use cluster::SteppingMode;
use cuttlefish::NodePolicy;
use serve::protocol::{
    decode, CellSubmission, EventKind, JobState, Response, Submission, MAX_REQUEST_BYTES,
};
use serve::{Client, Server};
use simproc::freq::HASWELL_2650V3;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use workloads::ProgModel;

fn test_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cuttlefish-serve-test-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_scenario() -> Scenario {
    Scenario::bench("UTS", ProgModel::OpenMp, 0.01)
        .label("Default")
        .node(&HASWELL_2650V3, NodePolicy::Default)
        .build()
}

/// Spawn a daemon over `store`; returns a client plus the join handle
/// (the server thread must exit cleanly after `shutdown`).
fn spawn_server(store: Store, workers: usize) -> (Client, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", store, workers).expect("bind ephemeral");
    let client = Client::new(server.local_addr().to_string());
    let handle = std::thread::spawn(move || server.run().expect("server runs"));
    (client, handle)
}

#[test]
fn concurrent_duplicates_compute_once_and_match_the_grid_artifact() {
    let scenario = tiny_scenario();
    // The reference bytes: the batch `--scenario` path, storeless.
    let (reference, _) = run_scenario_timed(&scenario, None).expect("grid path runs");
    let reference = reference.to_json_string();

    let store = Store::with_code_version(test_root("coalesce"), "cv-serve");
    let (client, server) = spawn_server(store.clone(), 2);

    // N clients race the same submission; exactly one computation may
    // happen (one job, one miss), every other submission coalesces.
    const CLIENTS: usize = 6;
    let artifacts: Vec<(bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = client.clone();
                let scenario = scenario.clone();
                scope.spawn(move || {
                    let (ticket, artifact) = client
                        .submit_and_fetch(Submission::Scenario(Box::new(scenario)))
                        .expect("submit");
                    (ticket.coalesced, artifact.to_pretty())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        artifacts.iter().filter(|(coalesced, _)| !coalesced).count(),
        1,
        "exactly one submission may create the job"
    );
    for (_, bytes) in &artifacts {
        assert_eq!(
            bytes, &reference,
            "every client must receive the grid path's artifact bytes"
        );
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs, 1, "one distinct key, one job");
    assert_eq!(stats.submits, CLIENTS as u64);
    assert_eq!(stats.coalesced, CLIENTS as u64 - 1);
    assert_eq!((stats.hits, stats.misses), (0, 1));
    assert_eq!(stats.in_flight, 0);
    assert!(
        stats.wall_ms_saved > 0.0,
        "coalesced duplicates must bank the compute wall-clock"
    );
    // The miss was committed back: the daemon and the batch bins share
    // one cache.
    assert_eq!(store.entry_files().len(), 1);
    store
        .verify_file(&store.entry_files()[0])
        .expect("committed entry verifies");

    assert_eq!(client.shutdown().expect("shutdown"), 0);
    server.join().expect("server thread exits cleanly");
}

#[test]
fn warm_submissions_skip_the_simulator_and_replay_identical_bytes() {
    let scenario = tiny_scenario();
    let root = test_root("warm");
    let store = Store::with_code_version(&root, "cv-serve");

    // Warm the store through the *batch* path; the daemon must hit it.
    let (reference, timing) = run_scenario_timed(&scenario, Some(&store)).expect("grid path runs");
    assert!(!timing.cells[0].cached);
    let reference = reference.to_json_string();

    let (client, server) = spawn_server(store, 1);
    let (ticket, artifact) = client
        .submit_and_fetch(Submission::Scenario(Box::new(scenario)))
        .expect("submit");
    assert_eq!(artifact.to_pretty(), reference);

    // The event stream proves no simulation ran: queued → hit → done,
    // with the committing run's wall-clock and quanta attached.
    let events = client.watch(&ticket.job, |_| {}).expect("watch");
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        [EventKind::Queued, EventKind::Hit, EventKind::Done],
        "a warm submission must not run the simulator"
    );
    let hit = &events[1];
    assert_eq!(hit.wall_ms, Some(timing.cells[0].wall_ms));
    assert_eq!(
        hit.quanta,
        Some([
            timing.cells[0].stepped_quanta,
            timing.cells[0].idle_advanced_quanta,
            timing.cells[0].busy_advanced_quanta,
            timing.cells[0].total_quanta,
        ])
    );

    let stats = client.stats().expect("stats");
    assert_eq!((stats.hits, stats.misses), (1, 0));
    assert!(stats.wall_ms_saved >= timing.cells[0].wall_ms);
    assert_eq!(stats.store.entries, 1);

    // `status` agrees, and a repeat submission coalesces instantly.
    assert_eq!(
        client.status(&ticket.job).expect("status").state,
        JobState::Done
    );
    let repeat = client
        .submit(Submission::Scenario(Box::new(tiny_scenario())))
        .expect("repeat");
    assert!(repeat.coalesced);
    assert_eq!(repeat.state, JobState::Done);

    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
}

#[test]
fn miss_events_cover_the_full_lifecycle_and_shutdown_drains() {
    let store = Store::with_code_version(test_root("lifecycle"), "cv-serve");
    let (client, server) = spawn_server(store.clone(), 1);

    let ticket = client
        .submit(Submission::Scenario(Box::new(tiny_scenario())))
        .expect("submit");
    assert!(!ticket.coalesced);

    // Shutdown immediately: the drain must finish the in-flight job
    // (and commit it) before the daemon stops.
    let drained = client.shutdown().expect("shutdown");
    // ≤ 1, not == 1: on a fast machine the worker may settle the tiny
    // cell before the shutdown request lands. The store assertion
    // below is the real drain contract.
    assert!(drained <= 1, "one job was submitted, drained {drained}");
    server.join().expect("clean exit");
    assert_eq!(
        store.entry_files().len(),
        1,
        "the drained job was committed to the store"
    );

    // A fresh daemon on the same store serves it warm; its watch
    // stream shows the *miss* lifecycle was queued → running →
    // committed → done (events were delivered before shutdown).
    let (client, server) = spawn_server(store, 1);
    let (ticket2, _) = client
        .submit_and_fetch(Submission::Scenario(Box::new(tiny_scenario())))
        .expect("warm submit");
    assert_eq!(ticket2.job, ticket.job, "same cell, same key, same job id");
    let events = client.watch(&ticket2.job, |_| {}).expect("watch");
    assert_eq!(events[1].kind, EventKind::Hit);
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
}

#[test]
fn submissions_are_refused_while_draining_and_errors_are_typed() {
    let store = Store::with_code_version(test_root("refuse"), "cv-serve");
    let (client, server) = spawn_server(store, 1);

    // Unknown job ids and malformed ids are protocol errors.
    assert!(client.status("0123456789abcdef").is_err());
    assert!(client.result("zz").is_err());

    // A scenario the store cannot address (non-harness seed) is
    // refused at submit time with the grid path's own diagnostic.
    let scenario = Scenario::bench("UTS", ProgModel::OpenMp, 0.01)
        .node(&HASWELL_2650V3, NodePolicy::Default)
        .seed(12345)
        .build();
    let err = client
        .submit(Submission::Scenario(Box::new(scenario)))
        .expect_err("non-harness seeds are not store-addressable");
    assert!(err.contains("harness"), "diagnostic names the cause: {err}");

    let submit_cell = |cell: CellSpec| {
        client.submit(Submission::Cell(Box::new(CellSubmission {
            machine: HASWELL_2650V3.clone(),
            scale: 0.01,
            cell,
        })))
    };
    // A cell the runner would reject is refused at submit time rather
    // than panicking a worker: a stepping mode on a single node.
    let mut cell = scenario_cell(&tiny_scenario()).expect("embeddable");
    cell.stepping = SteppingMode::Lockstep;
    let err = submit_cell(cell).expect_err("single-node cells have no stepping mode");
    assert!(
        err.contains("stepping"),
        "diagnostic names the cause: {err}"
    );
    // A trace on a multi-node cell, which only single nodes record.
    let two_nodes = Scenario::bench("UTS", ProgModel::OpenMp, 0.01)
        .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
        .build();
    let mut cell = scenario_cell(&two_nodes).expect("embeddable");
    cell.trace = true;
    let err = submit_cell(cell).expect_err("multi-node cells record no trace");
    assert!(err.contains("trace"), "diagnostic names the cause: {err}");
    // The same through the scenario route: a one-node cluster scenario
    // is valid, but its cell runs as a single node.
    let mut scenario = tiny_scenario();
    scenario.topology = Topology::Replicated;
    scenario.stepping = SteppingMode::Lockstep;
    let err = client
        .submit(Submission::Scenario(Box::new(scenario)))
        .expect_err("one-node cells have no stepping mode");
    assert!(
        err.contains("stepping"),
        "diagnostic names the cause: {err}"
    );
    // A one-node cluster, which the cell format would silently run as
    // a single node: through the scenario route as a replicated
    // scenario, and through the cell route as a one-node BSP cell.
    let mut scenario = tiny_scenario();
    scenario.topology = Topology::Replicated;
    let err = client
        .submit(Submission::Scenario(Box::new(scenario)))
        .expect_err("a one-node cluster is not a single node");
    assert!(
        err.contains("single-node"),
        "diagnostic names the cause: {err}"
    );
    let mut cell = scenario_cell(&tiny_scenario()).expect("embeddable");
    cell.bsp = Some(BspCell {
        supersteps: 4,
        comm_bytes: 1.2e9,
    });
    let err = submit_cell(cell).expect_err("a one-node cell has no bsp decomposition");
    assert!(
        err.contains("multi-node"),
        "diagnostic names the cause: {err}"
    );
    // Cells that keep the cell-format rules but expand to a scenario
    // the run would refuse. A worker that panicked on one would leave
    // its job `running`, and the drain below would never return.
    let heat_bsp = Scenario::bench("Heat-ws", ProgModel::OpenMp, 0.01)
        .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
        .bsp(4, 1.2e9)
        .build();
    let heat_bsp = scenario_cell(&heat_bsp).expect("embeddable");
    let mut uts_bsp = scenario_cell(&two_nodes).expect("embeddable");
    uts_bsp.bsp = heat_bsp.bsp;
    let mut no_supersteps = heat_bsp.clone();
    no_supersteps.bsp = Some(BspCell {
        supersteps: 0,
        comm_bytes: 1.2e9,
    });
    let mut negative_exchange = heat_bsp.clone();
    negative_exchange.bsp = Some(BspCell {
        supersteps: 4,
        comm_bytes: -1.0,
    });
    let mut huge_rep = scenario_cell(&tiny_scenario()).expect("embeddable");
    huge_rep.rep = 1 << 21;
    for (cell, cause) in [
        (uts_bsp, "work-sharing"),
        (no_supersteps, "superstep"),
        (negative_exchange, "exchange size -1"),
        (huge_rep, "2^53"),
    ] {
        let err = submit_cell(cell).expect_err(cause);
        assert!(err.contains(cause), "diagnostic names the cause: {err}");
    }
    // A scale past the bound: its worker would build a task graph that
    // grows with the scale.
    let err = client
        .submit(Submission::Cell(Box::new(CellSubmission {
            machine: HASWELL_2650V3.clone(),
            scale: 2.5,
            cell: scenario_cell(&tiny_scenario()).expect("embeddable"),
        })))
        .expect_err("scales are bounded");
    assert!(
        err.contains("at most 2"),
        "diagnostic names the bound: {err}"
    );
    // Raw request lines: one past the bound, sent with no newline, and
    // one that is not UTF-8. The daemon answers each with an error and
    // reads no further, then still answers.
    for (bytes, cause) in [
        (vec![b'{'; MAX_REQUEST_BYTES + 1], "exceeds"),
        (b"\xff\n".to_vec(), "UTF-8"),
    ] {
        let mut stream = TcpStream::connect(client.addr()).expect("connect");
        stream.write_all(&bytes).expect("send");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read answer");
        match decode::<Response>(&line).expect("a protocol line") {
            Response::Error { error } => {
                assert!(error.contains(cause), "diagnostic names the cause: {error}")
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
    assert_eq!(client.stats().expect("stats").submits, 0);

    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    // After shutdown the daemon is gone: connections are refused.
    assert!(client.stats().is_err());
}
