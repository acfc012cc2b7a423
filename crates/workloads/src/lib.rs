//! # workloads — the ten benchmarks of the Cuttlefish evaluation
//!
//! Table 1 of the paper evaluates Cuttlefish on ten OpenMP
//! benchmarks/mini-applications (plus HClib ports of six):
//!
//! | Benchmark | Style | TIPI range | Distinct slabs |
//! |---|---|---|---|
//! | UTS (TIXXL) | irregular tasks | 0–0.004 | 1 |
//! | SOR-irt / -rt / -ws (32K², 200 it) | tasks / tasks / work-sharing | 0.012–0.028 | 1 / 1 / 3 |
//! | Heat-irt / -rt / -ws (32K², 200 it) | tasks / tasks / work-sharing | 0.012–0.076 | 4 / 3 / 11 |
//! | MiniFE (256×512×512, 200) | work-sharing | 0.068–0.152 | 16 |
//! | HPCCG (256×256×1024, 149) | work-sharing | 0.060–0.148 | 17 |
//! | AMG (256×256×1024, 22) | work-sharing | 0.060–0.332 | 60 |
//!
//! Each benchmark here is a *generator*: it turns per-task
//! `(instructions, LLC misses)` counts into either a
//! [`tasking::TaskDag`] (tasking styles) or a region list (work-sharing
//! style). The counts come from hand-set per-point constants
//! ([`cache::KernelCost`]): instructions per grid point or nonzero, and
//! misses per point from the bytes a kernel streams and its stencil
//! reuse in the last-level cache. Each module's "Cost model" section
//! derives its constants, and its tests check them against Table 1's
//! TIPI slabs. The simulated Cuttlefish runtime sees exactly what the
//! real one sees: MSR counter streams. Neither memory contents nor the
//! kernels' numerics are simulated.
//!
//! The `-irt`/`-rt` task variants use the regular/irregular execution
//! DAGs of the paper's Figure 1 (after Chen et al.), built by [`dag`].

pub mod amg;
pub mod cache;
pub mod dag;
pub mod heat;
pub mod hpccg;
pub mod minife;
pub mod sor;
pub mod spec;
pub mod uts;

pub use spec::{ChunkPhase, SyntheticSpec, SyntheticWorkload, WorkloadSpec};

use simproc::engine::Workload;
use tasking::{TaskDag, WorkSharingScheduler, WorkStealingScheduler};

/// Concurrency decomposition style (Table 1's "Parallelism Style").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Dynamic task parallelism, irregular execution DAG.
    IrregularTasks,
    /// Dynamic task parallelism, regular execution DAG.
    RegularTasks,
    /// Static loop partitioning with barriers.
    WorkSharing,
}

impl Style {
    /// Table-style short name.
    pub fn suffix(self) -> &'static str {
        match self {
            Style::IrregularTasks => "irt",
            Style::RegularTasks => "rt",
            Style::WorkSharing => "ws",
        }
    }
}

/// Parallel programming model executing the benchmark (the paper's
/// obliviousness axis: OpenMP vs HClib).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgModel {
    /// OpenMP: work-sharing regions for `-ws`, a central task pool for
    /// task pragmas.
    OpenMp,
    /// HClib: async–finish over a per-worker work-stealing runtime (all
    /// styles expressed as task DAGs).
    HClib,
}

/// Global scale factor for experiment duration. `1.0` reproduces the
/// paper's full-length runs (~60–80 virtual seconds); smaller values
/// shrink iteration counts proportionally for quick tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// The paper's full-length configuration.
    pub fn paper() -> Self {
        Scale(1.0)
    }

    /// Scaled iteration count, never below 1.
    pub fn iters(&self, paper_iters: usize) -> usize {
        ((paper_iters as f64 * self.0).round() as usize).max(1)
    }
}

/// The schedulable form of a benchmark: either a task DAG or a region
/// sequence.
pub enum BuiltWorkload {
    Dag(TaskDag),
    Regions(Vec<tasking::Region>),
}

impl BuiltWorkload {
    /// Wrap in the scheduler the programming model dictates.
    ///
    /// * OpenMP task pragmas → central shared task queue.
    /// * OpenMP work-sharing → static regions with barriers.
    /// * HClib (any style) → per-worker deques with random stealing.
    pub fn into_workload(self, model: ProgModel, n_cores: usize, seed: u64) -> Box<dyn Workload> {
        match (self, model) {
            (BuiltWorkload::Dag(dag), ProgModel::HClib) => {
                Box::new(WorkStealingScheduler::new(dag, n_cores, seed))
            }
            (BuiltWorkload::Dag(dag), ProgModel::OpenMp) => {
                Box::new(tasking::steal::CentralQueueScheduler::new(dag, n_cores))
            }
            (BuiltWorkload::Regions(regions), ProgModel::OpenMp) => {
                Box::new(WorkSharingScheduler::new(regions, n_cores))
            }
            (BuiltWorkload::Regions(regions), ProgModel::HClib) => {
                // HClib ports of the `-ws` variants express each region
                // as a flat forasync: a DAG of independent tasks with
                // barriers between regions.
                let mut b = TaskDag::builder();
                let mut prev: Vec<tasking::TaskId> = Vec::new();
                for region in regions {
                    let cur: Vec<tasking::TaskId> = region
                        .into_chunks()
                        .into_iter()
                        .map(|c| b.add_task(c))
                        .collect();
                    b.barrier(&prev, &cur);
                    prev = cur;
                }
                Box::new(WorkStealingScheduler::new(b.build(), n_cores, seed))
            }
        }
    }
}

/// A benchmark definition: everything the harness needs to run and
/// label one Table 1 row.
pub struct Benchmark {
    /// Display name, e.g. `"Heat-irt"`.
    pub name: String,
    /// Concurrency style.
    pub style: Style,
    /// Paper-reported Default execution time, seconds (Table 1) — used
    /// by calibration tests.
    pub paper_time_s: f64,
    /// Paper-reported TIPI range (Table 1).
    pub paper_tipi_range: (f64, f64),
    builder: Box<dyn Fn(usize) -> BuiltWorkload + Send + Sync>,
}

impl Benchmark {
    /// Construct; `builder` maps `n_cores` to the schedulable form.
    pub fn new(
        name: impl Into<String>,
        style: Style,
        paper_time_s: f64,
        paper_tipi_range: (f64, f64),
        builder: impl Fn(usize) -> BuiltWorkload + Send + Sync + 'static,
    ) -> Self {
        Benchmark {
            name: name.into(),
            style,
            paper_time_s,
            paper_tipi_range,
            builder: Box::new(builder),
        }
    }

    /// Build the schedulable form for `n_cores`.
    pub fn build(&self, n_cores: usize) -> BuiltWorkload {
        (self.builder)(n_cores)
    }

    /// Build and wrap in the model-appropriate scheduler.
    pub fn instantiate(&self, model: ProgModel, n_cores: usize, seed: u64) -> Box<dyn Workload> {
        self.build(n_cores).into_workload(model, n_cores, seed)
    }
}

/// The ten OpenMP benchmarks of Table 1, in table order.
pub fn openmp_suite(scale: Scale) -> Vec<Benchmark> {
    vec![
        uts::benchmark(scale),
        sor::benchmark(Style::IrregularTasks, scale),
        sor::benchmark(Style::RegularTasks, scale),
        sor::benchmark(Style::WorkSharing, scale),
        heat::benchmark(Style::IrregularTasks, scale),
        heat::benchmark(Style::RegularTasks, scale),
        heat::benchmark(Style::WorkSharing, scale),
        minife::benchmark(scale),
        hpccg::benchmark(scale),
        amg::benchmark(scale),
    ]
}

/// The six HClib ports of Section 5.2 (SOR and Heat variants; UTS,
/// MiniFE, HPCCG and AMG were not ported in the paper either).
pub fn hclib_suite(scale: Scale) -> Vec<Benchmark> {
    vec![
        sor::benchmark(Style::IrregularTasks, scale),
        sor::benchmark(Style::RegularTasks, scale),
        sor::benchmark(Style::WorkSharing, scale),
        heat::benchmark(Style::IrregularTasks, scale),
        heat::benchmark(Style::RegularTasks, scale),
        heat::benchmark(Style::WorkSharing, scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(openmp_suite(Scale(0.05)).len(), 10);
        assert_eq!(hclib_suite(Scale(0.05)).len(), 6);
    }

    #[test]
    fn scale_iters_never_zero() {
        assert_eq!(Scale(0.001).iters(200), 1);
        assert_eq!(Scale::paper().iters(200), 200);
        assert_eq!(Scale(0.5).iters(149), 75);
    }

    #[test]
    fn style_suffixes() {
        assert_eq!(Style::IrregularTasks.suffix(), "irt");
        assert_eq!(Style::RegularTasks.suffix(), "rt");
        assert_eq!(Style::WorkSharing.suffix(), "ws");
    }
}
