//! The `cuttlefish/serve/v1` wire protocol: typed requests, responses,
//! and progress events, all carried as one [`Json::to_compact`] line
//! per message (newline-delimited). The codec is `bench::json`, so
//! every message is deterministic and round-trips byte-exactly —
//! the same discipline as the scenario files and grid artifacts.
//!
//! A connection carries exactly one request and its response(s):
//! every response is a single line except `watch`, which streams one
//! `event` line per job event and ends after `done`. `docs/SERVE.md`
//! specifies the format with examples; `tests/protocol_doc.rs` decodes
//! every one of them through this module.

use bench::grid::{scenario_cell, CellSpec, CELL_KEY_SCHEMA};
use bench::json::{FromJson, Json, JsonError, ToJson};
use bench::scenario::{obj, Scenario, SCENARIO_SCHEMA};
use bench::store::StoreStats;
use simproc::freq::MachineSpec;
use std::io::{self, BufRead, Write};

/// Format tag carried by every request and response.
pub const SERVE_SCHEMA: &str = "cuttlefish/serve/v1";

/// Longest request line the daemon reads, newline included. The
/// largest request the grids produce is the 256-node fleet cell
/// submitted as a scenario file, every node carrying its machine and
/// policy: 96 KB compact. The bound leaves ten times that. A longer
/// line is answered with an `error` and the connection is closed, so
/// no client can make the daemon buffer more. Responses carry
/// artifacts the daemon wrote, and the client reads them unbounded.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

fn num(n: u64) -> Json {
    debug_assert!(n < (1 << 53), "counter exceeds exact JSON transport");
    Json::Num(n as f64)
}

/// What a `submit` request carries: either a full scenario file or the
/// declarative cell-key document ([`CellSpec::store_identity`]) — the
/// two submission schemas the batch bins already accept.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// A `cuttlefish/scenario/v1` document.
    Scenario(Box<Scenario>),
    /// A `cuttlefish/cell-key/v1` document: machine × scale × cell.
    Cell(Box<CellSubmission>),
}

/// The declarative form: a grid cell in its grid context.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSubmission {
    /// Uniform machine (per-node overrides live in the cell).
    pub machine: MachineSpec,
    /// Workload scale.
    pub scale: f64,
    /// The cell proper.
    pub cell: CellSpec,
}

impl Submission {
    /// Validate and lower to the store-addressable triple every job is
    /// keyed and executed by. Rejects anything the cell format cannot
    /// express (the daemon only accepts submissions it can memoize —
    /// the same constraint as the bins' `--scenario` path with a
    /// store attached).
    pub fn resolve(&self) -> Result<(MachineSpec, f64, CellSpec), String> {
        match self {
            Submission::Scenario(scenario) => {
                scenario.validate()?;
                let cell = scenario_cell(scenario)?;
                Ok((scenario.nodes[0].0.clone(), scenario.workload.scale(), cell))
            }
            Submission::Cell(sub) => {
                sub.validate()?;
                Ok((sub.machine.clone(), sub.scale, sub.cell.clone()))
            }
        }
    }
}

impl CellSubmission {
    /// Check everything running the cell would otherwise assert (a
    /// malformed submission must be a protocol error, not a worker
    /// panic): the uniform machine, then
    /// [`CellSpec::validate_scenario`]. That check never derives an
    /// oracle table, whose trace probe belongs on the worker pool, not
    /// in the submit handler.
    fn validate(&self) -> Result<(), String> {
        self.machine.validate()?;
        self.cell.validate_scenario(&self.machine, self.scale)
    }
}

impl ToJson for Submission {
    fn to_json(&self) -> Json {
        match self {
            Submission::Scenario(s) => s.to_json(),
            Submission::Cell(sub) => obj(vec![
                ("schema", Json::Str(CELL_KEY_SCHEMA.into())),
                ("machine", sub.machine.to_json()),
                ("scale", Json::Num(sub.scale)),
                ("cell", sub.cell.to_json()),
            ]),
        }
    }
}

impl FromJson for Submission {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.field("schema")?.as_str()? {
            SCENARIO_SCHEMA => Ok(Submission::Scenario(Box::new(Scenario::from_json(j)?))),
            CELL_KEY_SCHEMA => Ok(Submission::Cell(Box::new(CellSubmission {
                machine: MachineSpec::from_json(j.field("machine")?)?,
                scale: j.field("scale")?.as_f64()?,
                cell: CellSpec::from_json(j.field("cell")?)?,
            }))),
            other => Err(JsonError(format!(
                "unsupported submission schema `{other}` \
                 (expected `{SCENARIO_SCHEMA}` or `{CELL_KEY_SCHEMA}`)"
            ))),
        }
    }
}

/// One client request. A connection carries exactly one.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue (or join) a job; answered with a [`JobTicket`].
    Submit(Submission),
    /// Current state of a job; answered with a [`JobTicket`].
    Status {
        /// Job id (16 hex digits — the store key).
        job: String,
    },
    /// Stream the job's events from the beginning; one `event` line
    /// each, ending after `done`.
    Watch {
        /// Job id.
        job: String,
    },
    /// Block until the job settles, then return its artifact.
    Result {
        /// Job id.
        job: String,
    },
    /// Daemon counters plus the store's aggregate shape.
    Stats,
    /// Refuse new submissions, drain in-flight jobs, then exit.
    Shutdown,
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        let mut fields = vec![("schema", Json::Str(SERVE_SCHEMA.into()))];
        match self {
            Request::Submit(payload) => {
                fields.push(("req", Json::Str("submit".into())));
                fields.push(("payload", payload.to_json()));
            }
            Request::Status { job } => {
                fields.push(("req", Json::Str("status".into())));
                fields.push(("job", Json::Str(job.clone())));
            }
            Request::Watch { job } => {
                fields.push(("req", Json::Str("watch".into())));
                fields.push(("job", Json::Str(job.clone())));
            }
            Request::Result { job } => {
                fields.push(("req", Json::Str("result".into())));
                fields.push(("job", Json::Str(job.clone())));
            }
            Request::Stats => fields.push(("req", Json::Str("stats".into()))),
            Request::Shutdown => fields.push(("req", Json::Str("shutdown".into()))),
        }
        obj(fields)
    }
}

impl FromJson for Request {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        check_schema(j)?;
        let job = |j: &Json| -> Result<String, JsonError> {
            let job = j.field("job")?.as_str()?;
            if job.len() != 16 || !job.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(JsonError(format!(
                    "job id `{job}` is not 16 hex digits (a store key)"
                )));
            }
            Ok(job.to_string())
        };
        match j.field("req")?.as_str()? {
            "submit" => Ok(Request::Submit(Submission::from_json(j.field("payload")?)?)),
            "status" => Ok(Request::Status { job: job(j)? }),
            "watch" => Ok(Request::Watch { job: job(j)? }),
            "result" => Ok(Request::Result { job: job(j)? }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(JsonError(format!("unknown request `{other}`"))),
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Registered; probing the store or waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Artifact available (store hit or computed-and-committed).
    Done,
}

impl JobState {
    /// Wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }

    fn parse(s: &str) -> Result<JobState, JsonError> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            other => Err(JsonError(format!("unknown job state `{other}`"))),
        }
    }
}

/// What `submit`/`status` answer: the job's id and where it stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTicket {
    /// Job id (16 hex digits — the store key, so identical
    /// submissions get identical ids).
    pub job: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Whether this submission joined an already-known job instead of
    /// creating one.
    pub coalesced: bool,
}

/// A job's progress milestones, in order: `queued`, then either `hit`
/// (warm store — no simulation) or `running` → `committed`, then
/// `done`. `hit` and `committed` carry the compute wall-clock and the
/// quanta-split counters of the (original) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Registered in the job table.
    Queued,
    /// Served from the store without running the simulator.
    Hit,
    /// Picked by a worker; simulation started.
    Running,
    /// Computed and committed back to the store.
    Committed,
    /// Artifact available; terminal.
    Done,
}

impl EventKind {
    /// Wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Queued => "queued",
            EventKind::Hit => "hit",
            EventKind::Running => "running",
            EventKind::Committed => "committed",
            EventKind::Done => "done",
        }
    }

    fn parse(s: &str) -> Result<EventKind, JsonError> {
        match s {
            "queued" => Ok(EventKind::Queued),
            "hit" => Ok(EventKind::Hit),
            "running" => Ok(EventKind::Running),
            "committed" => Ok(EventKind::Committed),
            "done" => Ok(EventKind::Done),
            other => Err(JsonError(format!("unknown event `{other}`"))),
        }
    }
}

/// One streamed progress event.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvent {
    /// Job id.
    pub job: String,
    /// Which milestone.
    pub kind: EventKind,
    /// Compute wall-clock, milliseconds — on `hit` (the committing
    /// run's) and `committed` (this run's).
    pub wall_ms: Option<f64>,
    /// `[stepped, idle_advanced, busy_advanced, total]` quanta — on
    /// `hit` and `committed`, same split as the store entries.
    pub quanta: Option<[u64; 4]>,
}

/// What `stats` answers: daemon counters plus the store's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Distinct jobs ever registered (one per distinct store key).
    pub jobs: u64,
    /// Total submissions accepted, including coalesced ones.
    pub submits: u64,
    /// Submissions that joined an existing job.
    pub coalesced: u64,
    /// Jobs served straight from the store.
    pub hits: u64,
    /// Jobs that had to compute.
    pub misses: u64,
    /// Jobs not yet done.
    pub in_flight: u64,
    /// Compute wall-clock avoided, milliseconds: the committing run's
    /// wall-clock for every hit, plus the job's compute wall-clock for
    /// every coalesced duplicate.
    pub wall_ms_saved: f64,
    /// The backing store's aggregate shape ([`bench::store::Store::stats`]).
    pub store: StoreStats,
}

/// One daemon response line. `watch` streams [`Response::Event`]s;
/// every other request is answered with exactly one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `submit`/`status`.
    Job(JobTicket),
    /// One `watch` stream element.
    Event(JobEvent),
    /// Answer to `result`: the job's one-cell grid artifact, embedded
    /// as a JSON value. Its pretty form is byte-identical to the
    /// artifact the batch bins write for the same cell.
    Artifact {
        /// Job id.
        job: String,
        /// The embedded `cuttlefish/grid-result/v1` document.
        artifact: Json,
    },
    /// Answer to `stats`.
    Stats(ServeStats),
    /// Answer to `shutdown`, sent after the drain completes.
    Shutdown {
        /// Jobs that were in flight when the drain began.
        drained: u64,
    },
    /// Any request that could not be honored.
    Error {
        /// Human-readable cause.
        error: String,
    },
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        let mut fields = vec![("schema", Json::Str(SERVE_SCHEMA.into()))];
        match self {
            Response::Job(t) => {
                fields.push(("resp", Json::Str("job".into())));
                fields.push(("job", Json::Str(t.job.clone())));
                fields.push(("state", Json::Str(t.state.as_str().into())));
                fields.push(("coalesced", Json::Bool(t.coalesced)));
            }
            Response::Event(e) => {
                fields.push(("resp", Json::Str("event".into())));
                fields.push(("job", Json::Str(e.job.clone())));
                fields.push(("event", Json::Str(e.kind.as_str().into())));
                if let Some(wall_ms) = e.wall_ms {
                    fields.push(("wall_ms", Json::Num(wall_ms)));
                }
                if let Some([stepped, idle, busy, total]) = e.quanta {
                    fields.push(("stepped_quanta", num(stepped)));
                    fields.push(("idle_advanced_quanta", num(idle)));
                    fields.push(("busy_advanced_quanta", num(busy)));
                    fields.push(("total_quanta", num(total)));
                }
            }
            Response::Artifact { job, artifact } => {
                fields.push(("resp", Json::Str("result".into())));
                fields.push(("job", Json::Str(job.clone())));
                fields.push(("artifact", artifact.clone()));
            }
            Response::Stats(s) => {
                fields.push(("resp", Json::Str("stats".into())));
                fields.push(("jobs", num(s.jobs)));
                fields.push(("submits", num(s.submits)));
                fields.push(("coalesced", num(s.coalesced)));
                fields.push(("hits", num(s.hits)));
                fields.push(("misses", num(s.misses)));
                fields.push(("in_flight", num(s.in_flight)));
                fields.push(("wall_ms_saved", Json::Num(s.wall_ms_saved)));
                fields.push(("store", s.store.to_json()));
            }
            Response::Shutdown { drained } => {
                fields.push(("resp", Json::Str("shutdown".into())));
                fields.push(("drained", num(*drained)));
            }
            Response::Error { error } => {
                fields.push(("resp", Json::Str("error".into())));
                fields.push(("error", Json::Str(error.clone())));
            }
        }
        obj(fields)
    }
}

impl FromJson for Response {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        check_schema(j)?;
        let job =
            |j: &Json| -> Result<String, JsonError> { Ok(j.field("job")?.as_str()?.to_string()) };
        match j.field("resp")?.as_str()? {
            "job" => Ok(Response::Job(JobTicket {
                job: job(j)?,
                state: JobState::parse(j.field("state")?.as_str()?)?,
                coalesced: j.field("coalesced")?.as_bool()?,
            })),
            "event" => {
                let quanta = match j.get("stepped_quanta") {
                    Some(stepped) => Some([
                        stepped.as_u64()?,
                        j.field("idle_advanced_quanta")?.as_u64()?,
                        j.field("busy_advanced_quanta")?.as_u64()?,
                        j.field("total_quanta")?.as_u64()?,
                    ]),
                    None => None,
                };
                Ok(Response::Event(JobEvent {
                    job: job(j)?,
                    kind: EventKind::parse(j.field("event")?.as_str()?)?,
                    wall_ms: j.get("wall_ms").map(Json::as_f64).transpose()?,
                    quanta,
                }))
            }
            "result" => Ok(Response::Artifact {
                job: job(j)?,
                artifact: j.field("artifact")?.clone(),
            }),
            "stats" => Ok(Response::Stats(ServeStats {
                jobs: j.field("jobs")?.as_u64()?,
                submits: j.field("submits")?.as_u64()?,
                coalesced: j.field("coalesced")?.as_u64()?,
                hits: j.field("hits")?.as_u64()?,
                misses: j.field("misses")?.as_u64()?,
                in_flight: j.field("in_flight")?.as_u64()?,
                wall_ms_saved: j.field("wall_ms_saved")?.as_f64()?,
                store: StoreStats::from_json(j.field("store")?)?,
            })),
            "shutdown" => Ok(Response::Shutdown {
                drained: j.field("drained")?.as_u64()?,
            }),
            "error" => Ok(Response::Error {
                error: j.field("error")?.as_str()?.to_string(),
            }),
            other => Err(JsonError(format!("unknown response `{other}`"))),
        }
    }
}

fn check_schema(j: &Json) -> Result<(), JsonError> {
    let schema = j.field("schema")?.as_str()?;
    if schema != SERVE_SCHEMA {
        return Err(JsonError(format!(
            "unsupported serve schema `{schema}` (expected `{SERVE_SCHEMA}`)"
        )));
    }
    Ok(())
}

/// Write one message as a single compact line.
pub fn write_msg<W: Write>(w: &mut W, msg: &impl ToJson) -> io::Result<()> {
    let mut line = msg.to_json().to_compact();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Read one newline-delimited message line; `Ok(None)` is clean EOF.
pub fn read_msg<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    match r.read_line(&mut line)? {
        0 => Ok(None),
        _ => Ok(Some(line)),
    }
}

/// Parse one message line into `T` (a [`Request`] or [`Response`]).
pub fn decode<T: FromJson>(line: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(line)?)
}
