//! # cluster — MPI+X-style execution with per-node Cuttlefish
//!
//! Section 4.6 of the paper scopes Cuttlefish to single-node parallel
//! regions of MPI+X programs: one process per node doing inter-node
//! communication, a multithreaded runtime (OpenMP/HClib) inside each
//! node, and one Cuttlefish instance per node tuning its own package.
//! The paper notes the limitation this crate makes measurable:
//! Cuttlefish does **not** reclaim inter-node slack — a node that
//! finishes its superstep early waits at the tuned frequencies rather
//! than slowing down to arrive just-in-time (the Adagio-style
//! optimization the paper leaves to future work).
//!
//! The model is bulk-synchronous: every superstep, each node computes
//! its local region, then all nodes synchronize and exchange halos
//! (α–β communication model). Each node is a full [`simproc::SimProcessor`]
//! with its own MSR file and optional [`cuttlefish::driver::CuttlefishDriver`]; node
//! daemons see only their local counters, exactly as real per-node
//! instances would.
//!
//! ```
//! use cluster::{BspApp, Cluster, CommModel, NodePolicy};
//! use simproc::engine::Chunk;
//!
//! // 2 nodes, 3 supersteps, balanced work.
//! let app = BspApp::uniform(2, 3, || vec![Chunk::new(2_000_000, 130_000, 56_000)]);
//! let mut cluster = Cluster::new(2, NodePolicy::Default, CommModel::default());
//! let outcome = cluster.run_program(&mut &app);
//! assert!(outcome.seconds > 0.0 && outcome.joules > 0.0);
//! ```
//!
//! # Scheduler architecture
//!
//! Between barriers the nodes share nothing, so there is nothing to
//! interleave: [`Cluster::run_program`] is one superstep loop that
//! drives each node in turn through the two loops every layer of the
//! stack already uses.
//!
//! * **Compute** — the node builds its superstep workload and drains
//!   it through `cuttlefish::controller::drive`, which fast-forwards
//!   parked stretches and controller-certified busy stretches
//!   (`SimProcessor::advance_idle_quanta` / `advance_busy_quanta`).
//! * **Barrier + exchange** — once every node has finished, each one
//!   idles its barrier wait plus the α–β exchange window as one
//!   stretch of whole quanta. The stretch advances analytically as far
//!   as the node's controller certifies (`idle_quanta_capacity`: up to
//!   its next `Tinv` tick, or indefinitely from an absorbing idle
//!   state) and steps for real only at the quanta it does not.
//!
//! Fleet cost is therefore bound by the number of *events*, not
//! nodes × quanta. [`SteppingMode::Lockstep`] turns both fast-forwards
//! off — a reference "cycle-box" selectable per [`Cluster`] (and
//! declaratively per scenario via the bench harness) — and the
//! equivalence suites hold the two modes to bit identity across every
//! shipped governor: every analytic advance in the stack is a
//! per-quantum replay of the stepped arithmetic.
//!
//! Programs enter through [`Cluster::run_program`] over a
//! [`BspProgram`] (superstep → per-node workload); [`BspApp`] chunk
//! lists and replicated per-node workloads ([`ReplicatedProgram`]) are
//! both expressed in that shape.

pub mod bsp;
pub mod node;

pub use bsp::{BspApp, BspOutcome, BspProgram, CommModel, QuantaSplit, ReplicatedProgram};
pub use node::{Cluster, NodePolicy, SteppingMode};
