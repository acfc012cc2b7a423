//! The daemon: job table, store probe, worker pool, and the
//! one-request-per-connection TCP front end.
//!
//! Every submission lowers to `(machine, scale, cell)` and keys by the
//! store's `CellKey`, which makes coalescing a hash-map lookup: the
//! first submission of a key creates the job, every later one joins
//! it. The job then takes one of two paths under the same lock
//! discipline as the grid runner's cache:
//!
//! * **hit** — the store probe (outside the lock; it is disk I/O)
//!   replays a digest-verified entry: no simulation, events
//!   `queued → hit → done`;
//! * **miss** — the job joins the queue, which workers take in
//!   arrival order. A worker computes it via the exact grid cell path
//!   ([`run_cell_timed`]), commits the entry back, and settles it:
//!   events `queued → running → committed → done`.
//!
//! Shutdown is graceful by construction: `draining` refuses new
//! submissions while the workers run the queue dry, then `stopped`
//! wakes every waiter and the acceptor exits.

use crate::protocol::{
    decode, write_msg, EventKind, JobEvent, JobState, JobTicket, Request, Response, ServeStats,
    Submission, MAX_REQUEST_BYTES,
};
use bench::grid::{run_cell_timed, scenario_grid, CellResult, CellSpec, GridResult};
use bench::json::{Json, ToJson};
use bench::store::{CellKey, Store};
use simproc::freq::MachineSpec;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection may sit idle before its request line is
/// abandoned — keeps a silent client from pinning a handler thread
/// (and the final join) forever.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One registered job. Jobs are never removed: the table is the
/// daemon's memory of every key it has answered, and `done` jobs are
/// what make repeat submissions instant.
struct JobRec {
    key: CellKey,
    machine: MachineSpec,
    scale: f64,
    cell: CellSpec,
    state: JobState,
    events: Vec<JobEvent>,
    /// The one-cell grid artifact, shared by every reader.
    artifact: Option<Arc<Json>>,
    /// Compute wall-clock this job represents (the committing run's
    /// for a hit) — what each coalesced duplicate saves.
    compute_wall_ms: Option<f64>,
    /// Duplicates that joined before the job settled; their savings
    /// are credited when it does.
    pending_coalesced: u64,
}

#[derive(Default)]
struct Inner {
    jobs: Vec<JobRec>,
    by_key: HashMap<u64, usize>,
    /// Indices of queued jobs, in arrival order.
    queue: VecDeque<usize>,
    /// Jobs currently executing on a worker.
    running: usize,
    /// Jobs registered but still probing the store (the probe runs
    /// outside the lock; the drain must wait for them).
    probing: usize,
    submits: u64,
    coalesced: u64,
    hits: u64,
    misses: u64,
    wall_ms_saved: f64,
    draining: bool,
    stopped: bool,
}

struct Shared {
    store: Store,
    addr: SocketAddr,
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        self.cond
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until a
/// `shutdown` request drains it; spawn it on a thread to drive it
/// in-process (the e2e tests do).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over
    /// `store` with a pool of `workers` compute threads (min 1).
    pub fn bind(addr: &str, store: Store, workers: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                store,
                addr,
                inner: Mutex::new(Inner::default()),
                cond: Condvar::new(),
            }),
            workers: workers.max(1),
        })
    }

    /// The bound address (the actual port when bound ephemeral).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serve until a `shutdown` request completes its drain. Joins
    /// every worker and every connection thread still running before
    /// returning, so a clean return means nothing is left running.
    pub fn run(self) -> io::Result<()> {
        let workers: Vec<_> = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker(&shared))
            })
            .collect();
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.lock().stopped {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Dropping a finished handle detaches a thread that has
            // already exited and frees its stack; kept, every closed
            // connection would hold one mapped until shutdown.
            conns.retain(|c| !c.is_finished());
            let shared = Arc::clone(&self.shared);
            conns.push(std::thread::spawn(move || handle_conn(&shared, stream)));
        }
        for conn in conns {
            let _ = conn.join();
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// The one-cell grid artifact of `result` — byte-for-byte what
/// [`bench::grid::run_scenario_timed`] produces for the same cell
/// (`scenario_cell` preserves the label, and the store replays
/// results bit-exactly).
fn artifact(result: CellResult, scale: f64, machine: &MachineSpec) -> Json {
    GridResult {
        grid: scenario_grid(&result.spec.label),
        scale,
        machine: machine.name.clone(),
        cells: vec![result],
    }
    .to_json()
}

fn push_event(job: &mut JobRec, kind: EventKind, wall_ms: Option<f64>, quanta: Option<[u64; 4]>) {
    job.events.push(JobEvent {
        job: job.key.hex(),
        kind,
        wall_ms,
        quanta,
    });
}

/// Register/join the job for one submission. The store probe runs
/// outside the lock; `probing` keeps the drain honest while it does.
fn submit(shared: &Shared, submission: &Submission) -> Result<JobTicket, String> {
    let (machine, scale, cell) = submission.resolve()?;
    let key = shared.store.key(&cell.store_identity(&machine, scale));

    let mut inner = shared.lock();
    if inner.draining {
        return Err("daemon is draining; new submissions are refused".into());
    }
    inner.submits += 1;
    if let Some(&idx) = inner.by_key.get(&key.key_hash) {
        // Coalesce: same key, same job — the second submission of a
        // cell never costs a second computation.
        inner.coalesced += 1;
        let settled = inner.jobs[idx].compute_wall_ms;
        match settled {
            Some(wall_ms) => inner.wall_ms_saved += wall_ms,
            None => inner.jobs[idx].pending_coalesced += 1,
        }
        return Ok(JobTicket {
            job: key.hex(),
            state: inner.jobs[idx].state,
            coalesced: true,
        });
    }
    let idx = inner.jobs.len();
    inner.jobs.push(JobRec {
        key,
        machine: machine.clone(),
        scale,
        cell,
        state: JobState::Queued,
        events: Vec::new(),
        artifact: None,
        compute_wall_ms: None,
        pending_coalesced: 0,
    });
    inner.by_key.insert(key.key_hash, idx);
    push_event(&mut inner.jobs[idx], EventKind::Queued, None, None);
    inner.probing += 1;
    drop(inner);

    let probe = shared.store.load(&key);

    let mut inner = shared.lock();
    inner.probing -= 1;
    let state = match probe {
        Some(entry) => {
            // Warm key: replay the committed entry — the simulator
            // never runs.
            inner.hits += 1;
            let doc = artifact(entry.result, scale, &machine);
            let job = &mut inner.jobs[idx];
            push_event(job, EventKind::Hit, Some(entry.wall_ms), Some(entry.quanta));
            push_event(job, EventKind::Done, None, None);
            job.artifact = Some(Arc::new(doc));
            job.compute_wall_ms = Some(entry.wall_ms);
            job.state = JobState::Done;
            let joined = std::mem::take(&mut job.pending_coalesced);
            inner.wall_ms_saved += entry.wall_ms * (1 + joined) as f64;
            JobState::Done
        }
        None => {
            inner.misses += 1;
            inner.queue.push_back(idx);
            JobState::Queued
        }
    };
    shared.cond.notify_all();
    Ok(JobTicket {
        job: key.hex(),
        state,
        coalesced: false,
    })
}

fn worker(shared: &Shared) {
    loop {
        let (idx, machine, scale, cell, key) = {
            let mut inner = shared.lock();
            loop {
                if inner.stopped {
                    return;
                }
                if let Some(idx) = inner.queue.pop_front() {
                    inner.running += 1;
                    let job = &mut inner.jobs[idx];
                    job.state = JobState::Running;
                    push_event(job, EventKind::Running, None, None);
                    shared.cond.notify_all();
                    let job = &inner.jobs[idx];
                    break (
                        idx,
                        job.machine.clone(),
                        job.scale,
                        job.cell.clone(),
                        job.key,
                    );
                }
                // Queue dry while draining: no submission can refill
                // it (probes in flight may still, so wait those out).
                if inner.draining && inner.probing == 0 {
                    return;
                }
                inner = shared.wait(inner);
            }
        };

        // The actual simulation — the exact grid cell path — runs
        // with no lock held.
        let (result, timing) = run_cell_timed(&machine, scale, &cell);
        let committed = shared.store.commit_or_warn(&key, &result, &timing);

        let doc = artifact(result, scale, &machine);
        let mut inner = shared.lock();
        inner.running -= 1;
        let job = &mut inner.jobs[idx];
        if committed {
            push_event(
                job,
                EventKind::Committed,
                Some(timing.wall_ms),
                Some([
                    timing.stepped_quanta,
                    timing.idle_advanced_quanta,
                    timing.busy_advanced_quanta,
                    timing.total_quanta,
                ]),
            );
        }
        push_event(job, EventKind::Done, None, None);
        job.artifact = Some(Arc::new(doc));
        job.compute_wall_ms = Some(timing.wall_ms);
        job.state = JobState::Done;
        let joined = std::mem::take(&mut job.pending_coalesced);
        inner.wall_ms_saved += timing.wall_ms * joined as f64;
        shared.cond.notify_all();
    }
}

fn lookup(inner: &Inner, job: &str) -> Result<usize, String> {
    u64::from_str_radix(job, 16)
        .ok()
        .and_then(|key| inner.by_key.get(&key).copied())
        .ok_or_else(|| format!("unknown job `{job}`"))
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut line = Vec::new();
    // One byte past the bound tells an over-long line from one that
    // just fits.
    let read =
        BufReader::new(read_half.take(MAX_REQUEST_BYTES as u64 + 1)).read_until(b'\n', &mut line);
    if !matches!(read, Ok(n) if n > 0) {
        return;
    }
    let request = if line.len() > MAX_REQUEST_BYTES {
        Err(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"))
    } else {
        String::from_utf8(line)
            .map_err(|_| "request line is not UTF-8".to_string())
            .and_then(|line| decode::<Request>(&line).map_err(|e| e.0))
    };
    let request = match request {
        Ok(request) => request,
        Err(error) => {
            let _ = write_msg(&mut writer, &Response::Error { error });
            return;
        }
    };
    let response = match request {
        Request::Submit(submission) => match submit(shared, &submission) {
            Ok(ticket) => Response::Job(ticket),
            Err(error) => Response::Error { error },
        },
        Request::Status { job } => {
            let inner = shared.lock();
            match lookup(&inner, &job) {
                Ok(idx) => Response::Job(JobTicket {
                    job,
                    state: inner.jobs[idx].state,
                    coalesced: false,
                }),
                Err(error) => Response::Error { error },
            }
        }
        Request::Watch { job } => {
            watch(shared, &mut writer, &job);
            return;
        }
        Request::Result { job } => result(shared, &job),
        Request::Stats => Response::Stats(stats(shared)),
        Request::Shutdown => Response::Shutdown {
            drained: shutdown(shared),
        },
    };
    let _ = write_msg(&mut writer, &response);
}

/// Stream the job's events from the beginning and keep following until
/// its terminal `done` event has been delivered.
fn watch(shared: &Shared, writer: &mut TcpStream, job: &str) {
    let idx = {
        let inner = shared.lock();
        match lookup(&inner, job) {
            Ok(idx) => idx,
            Err(error) => {
                let _ = write_msg(writer, &Response::Error { error });
                return;
            }
        }
    };
    let mut cursor = 0;
    loop {
        let (batch, finished) = {
            let mut inner = shared.lock();
            loop {
                let events = &inner.jobs[idx].events;
                if events.len() > cursor {
                    let batch: Vec<JobEvent> = events[cursor..].to_vec();
                    cursor = events.len();
                    let finished = batch.iter().any(|e| e.kind == EventKind::Done);
                    break (batch, finished);
                }
                if inner.stopped {
                    return;
                }
                inner = shared.wait(inner);
            }
        };
        for event in batch {
            if write_msg(writer, &Response::Event(event)).is_err() {
                return;
            }
        }
        if finished {
            return;
        }
    }
}

/// Block until the job settles, then answer with its artifact.
fn result(shared: &Shared, job: &str) -> Response {
    let mut inner = shared.lock();
    let idx = match lookup(&inner, job) {
        Ok(idx) => idx,
        Err(error) => return Response::Error { error },
    };
    loop {
        if let Some(doc) = &inner.jobs[idx].artifact {
            return Response::Artifact {
                job: job.to_string(),
                artifact: (**doc).clone(),
            };
        }
        if inner.stopped {
            return Response::Error {
                error: format!("daemon stopped before job `{job}` settled"),
            };
        }
        inner = shared.wait(inner);
    }
}

fn stats(shared: &Shared) -> ServeStats {
    // The store sweep is disk I/O: take it before the lock.
    let store = shared.store.stats();
    let inner = shared.lock();
    ServeStats {
        jobs: inner.jobs.len() as u64,
        submits: inner.submits,
        coalesced: inner.coalesced,
        hits: inner.hits,
        misses: inner.misses,
        in_flight: inner
            .jobs
            .iter()
            .filter(|j| j.state != JobState::Done)
            .count() as u64,
        wall_ms_saved: inner.wall_ms_saved,
        store,
    }
}

/// Drain and stop: refuse new submissions, wait for the queue, the
/// probes, and the running jobs to finish, then wake everything and
/// unblock the acceptor. Returns how many jobs were in flight when
/// the drain began. Idempotent — concurrent shutdowns all wait for
/// the same drain.
fn shutdown(shared: &Shared) -> u64 {
    let mut inner = shared.lock();
    inner.draining = true;
    let drained = inner
        .jobs
        .iter()
        .filter(|j| j.state != JobState::Done)
        .count() as u64;
    shared.cond.notify_all();
    while !(inner.queue.is_empty() && inner.running == 0 && inner.probing == 0) {
        inner = shared.wait(inner);
    }
    inner.stopped = true;
    shared.cond.notify_all();
    let addr = shared.addr;
    drop(inner);
    // Nudge the acceptor out of `accept()`; it re-checks `stopped`.
    let _ = TcpStream::connect(addr);
    drained
}
