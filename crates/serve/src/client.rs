//! Client half of the protocol: one TCP connection per request,
//! typed responses. Tests, ci.sh, and the `cuttlefish-serve`
//! subcommands all drive the daemon through this one code path.

use crate::protocol::{
    decode, read_msg, write_msg, JobEvent, JobTicket, Request, Response, ServeStats, Submission,
};
use bench::json::Json;
use std::io::BufReader;
use std::net::TcpStream;

/// A handle on one daemon address. Connectionless: every call opens,
/// speaks, and closes (the protocol is one request per connection).
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// Client for the daemon at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    /// The daemon address this client speaks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Open a connection and send one request; returns the reader for
    /// its response line(s).
    fn send(&self, request: &Request) -> Result<BufReader<TcpStream>, String> {
        let mut stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        write_msg(&mut stream, request).map_err(|e| format!("send to {}: {e}", self.addr))?;
        Ok(BufReader::new(stream))
    }

    /// Read one response line; protocol-level `error` responses and
    /// unexpected EOF both surface as `Err`.
    fn receive(&self, reader: &mut BufReader<TcpStream>) -> Result<Response, String> {
        let line = read_msg(reader)
            .map_err(|e| format!("read from {}: {e}", self.addr))?
            .ok_or_else(|| format!("{}: connection closed mid-response", self.addr))?;
        match decode::<Response>(&line).map_err(|e| e.0)? {
            Response::Error { error } => Err(error),
            response => Ok(response),
        }
    }

    fn roundtrip(&self, request: &Request) -> Result<Response, String> {
        let mut reader = self.send(request)?;
        self.receive(&mut reader)
    }

    /// Submit a scenario or cell-key document; returns the job ticket.
    pub fn submit(&self, submission: Submission) -> Result<JobTicket, String> {
        match self.roundtrip(&Request::Submit(submission))? {
            Response::Job(ticket) => Ok(ticket),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Current state of a job.
    pub fn status(&self, job: &str) -> Result<JobTicket, String> {
        match self.roundtrip(&Request::Status {
            job: job.to_string(),
        })? {
            Response::Job(ticket) => Ok(ticket),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Follow a job's event stream from the beginning; `on_event` sees
    /// every event in order. Returns once the terminal `done` event
    /// has been delivered.
    pub fn watch(
        &self,
        job: &str,
        mut on_event: impl FnMut(&JobEvent),
    ) -> Result<Vec<JobEvent>, String> {
        let mut reader = self.send(&Request::Watch {
            job: job.to_string(),
        })?;
        let mut events = Vec::new();
        loop {
            match self.receive(&mut reader)? {
                Response::Event(event) => {
                    on_event(&event);
                    let done = event.kind == crate::protocol::EventKind::Done;
                    events.push(event);
                    if done {
                        return Ok(events);
                    }
                }
                other => return Err(format!("unexpected response {other:?}")),
            }
        }
    }

    /// Block until the job settles; returns its artifact document.
    /// `artifact.to_pretty()` is byte-identical to the grid path's
    /// artifact file for the same cell.
    pub fn result(&self, job: &str) -> Result<Json, String> {
        match self.roundtrip(&Request::Result {
            job: job.to_string(),
        })? {
            Response::Artifact { artifact, .. } => Ok(artifact),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Submit and block until the artifact is available: the
    /// round trip of the `submit --wait` subcommand, and the one the
    /// benchmark's `warm-serve` workload times.
    pub fn submit_and_fetch(&self, submission: Submission) -> Result<(JobTicket, Json), String> {
        let ticket = self.submit(submission)?;
        let artifact = self.result(&ticket.job)?;
        Ok((ticket, artifact))
    }

    /// Daemon counters plus the store's aggregate shape.
    pub fn stats(&self) -> Result<ServeStats, String> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Graceful shutdown: returns how many jobs the drain completed
    /// once everything in flight has settled.
    pub fn shutdown(&self) -> Result<u64, String> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Shutdown { drained } => Ok(drained),
            other => Err(format!("unexpected response {other:?}")),
        }
    }
}
