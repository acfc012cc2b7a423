//! `cuttlefish-serve`: a scenario-submission daemon over the
//! content-addressed result store.
//!
//! The batch bins answer "run this grid"; this crate answers "keep
//! answering scenario submissions". A long-running TCP daemon accepts
//! [`Scenario`](bench::scenario::Scenario) (or declarative cell-key)
//! submissions over a newline-delimited deterministic JSON protocol
//! ([`protocol`], schema `cuttlefish/serve/v1`), keys every submission
//! by the store's [`CellKey`](bench::store::CellKey), and:
//!
//! * serves **warm** keys straight from the store — no simulator run,
//!   the artifact bytes replay digest-verified;
//! * **coalesces** duplicate in-flight submissions onto one
//!   computation — a million submissions of one scenario cost one run;
//! * dispatches **misses** onto a worker pool in arrival order, and
//!   commits every computed cell back, so the daemon and the batch
//!   bins share one cache.
//!
//! Progress is streamed as typed events (`queued → hit|running →
//! committed → done`, with the quanta-split counters and wall-clock),
//! mirroring RCRtool-style always-on telemetry rather than one-shot
//! batch reports. A [`client`] in the same crate drives the daemon for
//! tests, ci.sh, and humans alike; the `cuttlefish-serve` binary fronts
//! both halves. See `docs/SERVE.md` for the wire format.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{
    EventKind, JobEvent, JobState, JobTicket, Request, Response, ServeStats, Submission,
    SERVE_SCHEMA,
};
pub use server::Server;

/// Default daemon address (overridable via `--addr` and the
/// `CUTTLEFISH_SERVE_ADDR` environment variable).
pub const DEFAULT_ADDR: &str = "127.0.0.1:53013";

/// Resolve the daemon address: explicit flag value, else the
/// `CUTTLEFISH_SERVE_ADDR` environment variable, else [`DEFAULT_ADDR`].
pub fn resolve_addr(flag: Option<String>) -> String {
    flag.or_else(|| std::env::var("CUTTLEFISH_SERVE_ADDR").ok())
        .unwrap_or_else(|| DEFAULT_ADDR.to_string())
}
