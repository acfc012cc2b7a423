//! # tasking — async–finish task DAGs and schedulers over simulated cores
//!
//! The Cuttlefish paper evaluates two parallel programming models to
//! demonstrate that the library is *programming-model oblivious*:
//!
//! * **OpenMP** — work-sharing pragmas (static loop partitioning) and
//!   tasking pragmas (dynamic task parallelism with regular/irregular
//!   execution DAGs), and
//! * **HClib** — an async–finish work-stealing runtime.
//!
//! This crate is the substitute for both runtimes. Workloads build
//! [`TaskDag`]s (or region lists) describing their computation; two
//! schedulers execute them on the simulated cores by implementing
//! [`simproc::Workload`]:
//!
//! * [`WorkStealingScheduler`] — per-core deques, LIFO local pop, FIFO
//!   random-victim steal: the scheduling discipline of HClib (and of
//!   OpenMP task pools in practice).
//! * [`WorkSharingScheduler`] — statically partitioned parallel regions
//!   with barriers: OpenMP `parallel for` with a static schedule.
//!
//! Both workload forms are kept flat, because a paper-scale task
//! benchmark's graph holds 350–520 k tasks and is built, driven and
//! dropped once per simulated cell. A [`TaskDag`] keeps its successors
//! in one compressed-sparse-row pair of arrays (no allocation per task,
//! and each task's successors in the order their edges were declared),
//! and a completing task releases its successors straight from that
//! slice. [`WorkSharingScheduler`] answers "is this region drained?"
//! from a count of chunks not yet handed out rather than a scan of
//! every core's cursor.
//!
//! Every random choice (victim selection here, the spawn-tree and UTS
//! shapes in `workloads`) draws from one seeded generator,
//! [`SplitMix64`].
//!
//! Cuttlefish itself never sees any of this — it observes only the MSR
//! counter streams the execution produces, which is precisely the
//! paper's obliviousness claim.
//!
//! A third module, [`threaded`], is a *real* (host-thread) async–finish
//! work-stealing pool with the HClib-style `finish(|scope| scope.spawn(…))`
//! API. It is not connected to the simulator; it exists to demonstrate
//! the programming model end-to-end on actual threads (see the
//! `irregular_tasks` example).

pub mod rng;
pub mod share;
pub mod steal;
pub mod task;
pub mod threaded;

pub use rng::SplitMix64;
pub use share::{Region, WorkSharingScheduler};
pub use steal::WorkStealingScheduler;
pub use task::{DagBuilder, TaskDag, TaskId};
