//! SOR — Successive Over-Relaxation (Java Grande port, paper \[7\]).
//!
//! Configuration from Table 1: a 32768×32768 grid, 200 iterations.
//! Three concurrency variants: `-irt` (irregular task DAG), `-rt`
//! (regular task DAG), `-ws` (static work-sharing).
//!
//! ## Cost model
//!
//! An in-place red-black SOR sweep touches each grid line once per
//! sweep (the 5-point stencil's neighbour rows are still cached from
//! the preceding rows at 32 K×8 B = 256 KB per row against a 25 MB
//! LLC): `1/8` miss per point. The update
//! `u[i][j] += ω·(resid/4)` with the stencil sum is ~5 instructions per
//! point of dependent FP work (CPI ≈ 2, prefetch-covered streaming
//! MLP ≈ 18). TIPI = 0.125/5 = **0.025**, the paper's 0.024–0.028 slab.
//!
//! The `-ws` variant adds the Java-Grande-style sampled residual check
//! (every 4th row, 8 instructions and `1/8` miss per sampled point →
//! TIPI 0.0156), which is what gives SOR-ws its extra low slabs in
//! Table 1 (3 slabs vs 1 for the task variants).

use crate::cache::KernelCost;
use crate::dag::{iterative_tree_dag, TreeShape};
use crate::{Benchmark, BuiltWorkload, Scale, Style};
use tasking::Region;

/// Grid side (points); the paper's 32K.
pub const GRID: u64 = 32_768;
/// Paper iteration count.
pub const PAPER_ITERS: usize = 200;
/// Grid rows per leaf task / work-sharing chunk.
pub const ROWS_PER_TASK: u64 = 32;

/// The SOR sweep kernel cost (see module docs). The dependent-chain
/// CPI dominates; the hardware prefetcher covers the streaming misses
/// almost entirely (high MLP), so SOR behaves compute-bound despite
/// its 0.025 TIPI — exactly the paper's classification.
pub fn sweep_kernel() -> KernelCost {
    KernelCost::new(5.0, 0.125, 2.2, 26.0)
}

/// The sampled residual-check kernel of the `-ws` variant.
pub fn residual_kernel() -> KernelCost {
    KernelCost::new(8.0, 0.125, 1.0, 10.0)
}

fn sweep_chunks() -> Vec<simproc::engine::Chunk> {
    let tasks = GRID / ROWS_PER_TASK;
    let points = ROWS_PER_TASK * GRID;
    (0..tasks).map(|_| sweep_kernel().chunk(points)).collect()
}

/// Build the schedulable workload for one style.
pub fn build(style: Style, scale: Scale, n_cores: usize) -> BuiltWorkload {
    let iters = scale.iters(PAPER_ITERS);
    match style {
        Style::WorkSharing => {
            let mut regions = Vec::with_capacity(iters * 2);
            for iter in 0..iters {
                // OpenMP `schedule(static)`: one contiguous row block
                // per thread — perfectly balanced, so barriers add no
                // idle tail (unlike the task variants, where block
                // granularity feeds the load balancer).
                let per_core = GRID * GRID / n_cores as u64;
                regions.push(Region::from_parts(
                    (0..n_cores)
                        .map(|_| vec![sweep_kernel().chunk(per_core)])
                        .collect(),
                ));
                // Sampled residual check: every 4th iteration, GRID/4
                // rows × 4 (batching keeps its runtime share constant
                // but reduces the number of phase transitions that
                // contaminate the profiler's main-slab samples —
                // matching the real code's periodic convergence test).
                if iter % 4 == 3 {
                    // Every 16th row sampled, batched 4 iterations at a
                    // time: ~6 % of runtime, the paper's ~7 % share for
                    // the low-TIPI slab.
                    let sample_points = GRID * GRID / 4 / n_cores as u64;
                    let res: Vec<_> = (0..n_cores)
                        .map(|_| residual_kernel().chunk(sample_points))
                        .collect();
                    regions.push(Region::statically_partitioned(res, n_cores));
                }
            }
            BuiltWorkload::Regions(regions)
        }
        Style::IrregularTasks | Style::RegularTasks => {
            let shape = if style == Style::IrregularTasks {
                TreeShape::Irregular
            } else {
                TreeShape::Regular(3)
            };
            let dag = iterative_tree_dag(iters, shape, 0x50_0501, |_, b| {
                sweep_chunks().into_iter().map(|c| b.add_task(c)).collect()
            });
            BuiltWorkload::Dag(dag)
        }
    }
}

/// Table 1 row for the given style.
pub fn benchmark(style: Style, scale: Scale) -> Benchmark {
    let (name, time, range) = match style {
        Style::IrregularTasks => ("SOR-irt", 69.1, (0.024, 0.028)),
        Style::RegularTasks => ("SOR-rt", 69.4, (0.024, 0.028)),
        Style::WorkSharing => ("SOR-ws", 68.7, (0.012, 0.028)),
    };
    Benchmark::new(name, style, time, range, move |n| build(style, scale, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::slab_of;

    #[test]
    fn sweep_tipi_in_paper_slab() {
        let t = sweep_kernel().tipi();
        assert!((0.024..0.028).contains(&t), "sweep TIPI {t}");
        assert_eq!(slab_of(t), 6);
    }

    #[test]
    fn residual_tipi_in_low_slab() {
        let t = residual_kernel().tipi();
        assert!((0.012..0.016).contains(&t), "residual TIPI {t}");
    }

    #[test]
    fn ws_build_region_structure() {
        let iters = Scale(0.1).iters(PAPER_ITERS);
        let wl = build(Style::WorkSharing, Scale(0.1), 4);
        match wl {
            BuiltWorkload::Regions(r) => {
                // One sweep per iteration plus a batched residual every
                // 4th iteration.
                assert_eq!(r.len(), iters + iters / 4);
                // The sweep region is perfectly balanced: one chunk per
                // core, equal sizes.
                assert_eq!(r[0].width(), 4);
                assert_eq!(r[0].len(), 4);
            }
            _ => panic!("ws must build regions"),
        }
    }

    #[test]
    fn task_builds_are_dags() {
        for style in [Style::IrregularTasks, Style::RegularTasks] {
            match build(style, Scale(0.01), 4) {
                BuiltWorkload::Dag(d) => {
                    assert!(d.len() > (GRID / ROWS_PER_TASK) as usize);
                    assert_eq!(d.roots().count(), 1);
                }
                _ => panic!("task styles must build DAGs"),
            }
        }
    }

    #[test]
    fn aggregate_dag_tipi_close_to_kernel() {
        if let BuiltWorkload::Dag(d) = build(Style::IrregularTasks, Scale(0.01), 4) {
            let t = d.aggregate_tipi();
            assert!(
                (t - sweep_kernel().tipi()).abs() < 0.002,
                "spawn overhead should barely move aggregate TIPI, got {t}"
            );
        } else {
            panic!();
        }
    }
}
