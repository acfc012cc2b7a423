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
//! [`simproc::SplitMix64`].
//!
//! Cuttlefish itself never sees any of this — it observes only the MSR
//! counter streams the execution produces, which is precisely the
//! paper's obliviousness claim.

pub mod share;
pub mod steal;
pub mod task;

pub use share::{Region, WorkSharingScheduler};
pub use steal::WorkStealingScheduler;
pub use task::{DagBuilder, TaskDag, TaskId};
