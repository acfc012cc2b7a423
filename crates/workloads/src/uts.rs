//! UTS — Unbalanced Tree Search (paper \[36\]), TIXXL configuration.
//!
//! UTS counts the nodes of an implicitly defined random tree whose
//! shape is wildly unbalanced — the canonical stress test for dynamic
//! load balancing. Its per-node work is a SHA-1-style hash evaluation:
//! pure register arithmetic, essentially no LLC traffic, which is why
//! Table 1 reports a TIPI range of 0–0.004 (a single slab) and why the
//! paper finds CFopt = 2.3 GHz / UFopt ≈ 1.2–1.3 GHz for it.
//!
//! The simulated workload pre-generates the task tree with a seeded
//! PRNG: each task explores a subtree chunk (millions of hash
//! evaluations), and spawns 0–4 child tasks with a skewed size
//! distribution, reproducing both the irregular DAG and the work
//! imbalance.

use crate::{Benchmark, BuiltWorkload, Scale, Style};
use simproc::engine::Chunk;
use simproc::perf::CostProfile;
use simproc::SplitMix64;
use tasking::{DagBuilder, TaskId};

/// Paper-reported Default execution time (Table 1).
pub const PAPER_TIME_S: f64 = 69.9;

/// TIPI of the traversal: nearly compute-pure.
pub const TIPI: f64 = 0.0009;

/// Cost profile: branchy scalar hashing — CPI ~0.9, low MLP.
pub fn profile() -> CostProfile {
    CostProfile::new(0.9, 4.0)
}

/// Total instructions needed for the paper-scale run: 69.9 s × 20 cores
/// at 2.3 GHz / CPI 0.9.
fn paper_total_instructions() -> f64 {
    PAPER_TIME_S * 20.0 * 2.3e9 / 0.9
}

fn task_chunk(instr: u64) -> Chunk {
    let misses = instr as f64 * TIPI;
    let remote = (misses * crate::cache::REMOTE_MISS_FRACTION) as u64;
    let local = misses as u64 - remote.min(misses as u64);
    Chunk {
        instructions: instr,
        misses_local: local,
        misses_remote: remote,
        profile: profile(),
    }
}

/// Pre-generate the UTS task DAG: a skewed random tree of subtree-chunk
/// tasks whose total instruction count hits the scaled paper budget.
pub fn build(scale: Scale, _n_cores: usize) -> BuiltWorkload {
    let total = paper_total_instructions() * scale.0;
    let mut b = DagBuilder::default();
    let mut rng = SplitMix64::new(0x0715_0001);

    // Frontier of (task, remaining-budget-for-subtree).
    let root_instr = 8.0e6;
    let root = b.add_task(task_chunk(root_instr as u64));
    let mut frontier: Vec<(TaskId, f64)> = vec![(root, total - root_instr)];

    while let Some((parent, budget)) = frontier.pop() {
        if budget <= 0.0 {
            continue;
        }
        // Number of children: skewed 1..=4 (geometric-ish); leaves occur
        // when the budget runs out, which the skewed splits make happen
        // at very different depths across the tree.
        let n_children = 1 + rng.below(4);
        let mut weights = [0.0f64; 4];
        let mut sum = 0.0;
        for w in weights.iter_mut().take(n_children) {
            *w = rng.uniform(0.1, 1.0).powi(2);
            sum += *w;
        }
        for w in weights.iter().take(n_children) {
            let share = budget * w / sum;
            // Each task does 4-16 M instructions of traversal itself.
            let own = rng.uniform(4.0e6, 16.0e6).min(share);
            if own < 1.0e6 {
                continue;
            }
            let child = b.add_task(task_chunk(own as u64));
            b.add_dep(parent, child);
            frontier.push((child, share - own));
        }
    }
    BuiltWorkload::Dag(b.build())
}

/// Table 1 row.
pub fn benchmark(scale: Scale) -> Benchmark {
    Benchmark::new(
        "UTS",
        Style::IrregularTasks,
        PAPER_TIME_S,
        (0.0, 0.004),
        move |n| build(scale, n),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasking::TaskDag;

    fn dag(scale: f64) -> TaskDag {
        match build(Scale(scale), 20) {
            BuiltWorkload::Dag(d) => d,
            _ => panic!("UTS must be a DAG"),
        }
    }

    #[test]
    fn total_instructions_tracks_scale() {
        let d = dag(0.02);
        let got = d.total_instructions() as f64;
        let want = paper_total_instructions() * 0.02;
        let err = (got - want).abs() / want;
        assert!(err < 0.05, "budget error {err:.3}");
    }

    #[test]
    fn tipi_is_in_the_single_low_slab() {
        let d = dag(0.02);
        let t = d.aggregate_tipi();
        assert!((0.0..0.004).contains(&t), "UTS TIPI {t}");
    }

    #[test]
    fn tree_is_unbalanced() {
        let d = dag(0.02);
        // Measure subtree instruction totals of the root's children via
        // successor fan-out sizes as a proxy: at minimum, task sizes vary.
        let mut sizes: Vec<u64> = (0..d.len())
            .map(|i| d.chunk(TaskId(i as u32)).instructions)
            .collect();
        sizes.sort_unstable();
        let small = sizes[sizes.len() / 10];
        let large = sizes[sizes.len() * 9 / 10];
        assert!(
            large as f64 / small as f64 > 1.5,
            "task sizes should vary substantially: p10={small} p90={large}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let d1 = dag(0.01);
        let d2 = dag(0.01);
        assert_eq!(d1.len(), d2.len());
        assert_eq!(d1.total_instructions(), d2.total_instructions());
    }
}
