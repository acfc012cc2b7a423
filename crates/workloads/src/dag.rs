//! Regular and irregular execution-DAG construction (paper Figure 1).
//!
//! The paper converts the loop-level parallelism of Heat and SOR into
//! task parallelism after Chen et al. [ICS'14]: a spawn tree whose
//! leaves are the loop blocks. The *regular* variant uses a uniform
//! interior degree; the *irregular* variant mixes degrees three and
//! five (the grey/black nodes of Figure 1), producing an unbalanced
//! spawn structure that exercises dynamic load balancing.
//!
//! Interior nodes are real (small) tasks — the spawning code itself —
//! so a parent is scheduled before any of its children, exactly like an
//! OpenMP `task` or HClib `async` that spawns further tasks.

use simproc::engine::Chunk;
use simproc::perf::CostProfile;
use tasking::{DagBuilder, SplitMix64, TaskId};

/// Cost of an interior spawn node: a few tens of microseconds of
/// runtime bookkeeping, negligible misses.
pub fn spawn_node_chunk() -> Chunk {
    Chunk::new(40_000, 30, 10).with_profile(CostProfile::new(1.2, 2.0))
}

/// Degree sequence policy for the spawn tree.
#[derive(Debug, Clone, Copy)]
pub enum TreeShape {
    /// Uniform interior degree (regular DAG, Fig. 1 right).
    Regular(usize),
    /// Random degrees in {3, 5} (irregular DAG, Fig. 1 left).
    Irregular,
}

/// Build a spawn tree over `leaves` (already added to `b`), returning
/// the root task. Parents precede children; leaves hang off the last
/// interior level.
pub fn spawn_tree(
    b: &mut DagBuilder,
    leaves: &[TaskId],
    shape: TreeShape,
    rng: &mut SplitMix64,
) -> TaskId {
    assert!(!leaves.is_empty(), "spawn tree needs at least one leaf");
    build_subtree(b, leaves, shape, rng)
}

fn pick_degree(shape: TreeShape, rng: &mut SplitMix64) -> usize {
    match shape {
        TreeShape::Regular(d) => d.max(2),
        TreeShape::Irregular => {
            if rng.chance(0.5) {
                3
            } else {
                5
            }
        }
    }
}

fn build_subtree(
    b: &mut DagBuilder,
    leaves: &[TaskId],
    shape: TreeShape,
    rng: &mut SplitMix64,
) -> TaskId {
    let node = b.add_task(spawn_node_chunk());
    let d = pick_degree(shape, rng);
    if leaves.len() <= d {
        for &leaf in leaves {
            b.add_dep(node, leaf);
        }
        return node;
    }
    // Split the leaf span into `d` parts. The irregular shape skews the
    // split (its first child takes a larger share, drawn here, before
    // any recursion draws) so subtree sizes — and hence task
    // availability over time — are uneven. The regular shape's leading
    // 0 is skipped like any empty part.
    let (first, rest) = match shape {
        TreeShape::Regular(_) => (0, even_split(leaves.len(), d)),
        TreeShape::Irregular => {
            let first = skewed_first(leaves.len(), d, rng);
            (first, even_split(leaves.len() - first, d - 1))
        }
    };
    let mut at = 0usize;
    for part in std::iter::once(first).chain(rest) {
        if part == 0 {
            continue;
        }
        let child = build_subtree(b, &leaves[at..at + part], shape, rng);
        b.add_dep(node, child);
        at += part;
    }
    node
}

/// `n` split into `d` near-equal parts, the larger ones first.
fn even_split(n: usize, d: usize) -> impl Iterator<Item = usize> {
    let base = n / d;
    let extra = n % d;
    (0..d).map(move |i| base + usize::from(i < extra))
}

/// The first part of a skewed split of `n` into `d` parts: 35-65% of
/// the span, leaving at least one for each other part where `n` allows.
fn skewed_first(n: usize, d: usize, rng: &mut SplitMix64) -> usize {
    let first = ((n as f64) * rng.uniform(0.35, 0.65)).round() as usize;
    first.clamp(1, n.saturating_sub(d - 1).max(1))
}

/// Build a complete iterative task workload: `iters` repetitions of a
/// leaf set produced by `make_leaves`, each iteration spawned from a
/// tree of the given shape, with a barrier between iterations (the
/// `finish` around each timestep).
pub fn iterative_tree_dag(
    iters: usize,
    shape: TreeShape,
    seed: u64,
    mut make_leaves: impl FnMut(usize, &mut DagBuilder) -> Vec<TaskId>,
) -> tasking::TaskDag {
    let mut b = DagBuilder::default();
    let mut rng = SplitMix64::new(seed);
    let mut prev_leaves: Vec<TaskId> = Vec::new();
    for iter in 0..iters {
        let leaves = make_leaves(iter, &mut b);
        let root = spawn_tree(&mut b, &leaves, shape, &mut rng);
        b.barrier(&prev_leaves, &[root]);
        prev_leaves = leaves;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(b: &mut DagBuilder, n: usize) -> Vec<TaskId> {
        (0..n)
            .map(|_| b.add_task(Chunk::new(1_000_000, 1000, 0)))
            .collect()
    }

    fn interior_degrees(dag: &tasking::TaskDag, n_leaves: usize) -> Vec<usize> {
        // Interior nodes are those added after the leaves.
        (n_leaves..dag.len())
            .map(|i| dag.successors(TaskId(i as u32)).len())
            .filter(|&d| d > 0)
            .collect()
    }

    #[test]
    fn regular_tree_has_uniform_degree() {
        let mut b = DagBuilder::default();
        let ls = leaves(&mut b, 81);
        let mut rng = SplitMix64::new(1);
        spawn_tree(&mut b, &ls, TreeShape::Regular(3), &mut rng);
        let dag = b.build();
        for d in interior_degrees(&dag, 81) {
            assert!(
                d <= 3,
                "regular degree-3 tree must not exceed 3 children, got {d}"
            );
        }
        // Exactly one root.
        assert_eq!(dag.roots().count(), 1);
    }

    #[test]
    fn irregular_tree_mixes_degrees() {
        let mut b = DagBuilder::default();
        let ls = leaves(&mut b, 200);
        let mut rng = SplitMix64::new(7);
        spawn_tree(&mut b, &ls, TreeShape::Irregular, &mut rng);
        let dag = b.build();
        let degrees = interior_degrees(&dag, 200);
        assert!(degrees.contains(&3), "expected some degree-3 nodes");
        assert!(degrees.contains(&5), "expected some degree-5 nodes");
    }

    #[test]
    fn all_leaves_reachable() {
        for shape in [TreeShape::Regular(3), TreeShape::Irregular] {
            let mut b = DagBuilder::default();
            let ls = leaves(&mut b, 57);
            let mut rng = SplitMix64::new(3);
            spawn_tree(&mut b, &ls, shape, &mut rng);
            let dag = b.build();
            // Every leaf has in-degree exactly 1 (its spawner).
            let indeg = dag.indegrees();
            for leaf in &ls {
                assert_eq!(indeg[leaf.0 as usize], 1);
            }
        }
    }

    #[test]
    fn single_leaf_tree() {
        let mut b = DagBuilder::default();
        let ls = leaves(&mut b, 1);
        let mut rng = SplitMix64::new(3);
        let root = spawn_tree(&mut b, &ls, TreeShape::Irregular, &mut rng);
        let dag = b.build();
        assert_eq!(dag.successors(root), &[ls[0].0]);
    }

    #[test]
    fn iterative_dag_orders_iterations() {
        let dag = iterative_tree_dag(3, TreeShape::Regular(3), 5, |_, b| {
            (0..9)
                .map(|_| b.add_task(Chunk::new(100_000, 100, 0)))
                .collect()
        });
        // One root overall: iteration 0's spawn root.
        assert_eq!(dag.roots().count(), 1);
        // Executing with the work-stealing scheduler completes everything.
        use simproc::engine::SimProcessor;
        use simproc::freq::HYPOTHETICAL7;
        let total = dag.len();
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = tasking::WorkStealingScheduler::new(dag, p.n_cores(), 2);
        p.run(&mut s, |_| {});
        assert_eq!(s.completed(), total);
    }

    /// FNV-1a over every task's successor list, in task order.
    fn successor_digest(dag: &tasking::TaskDag) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u32| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in 0..dag.len() {
            let succs = dag.successors(TaskId(t as u32));
            eat(succs.len() as u32);
            succs.iter().for_each(|&s| eat(s));
        }
        h
    }

    #[test]
    fn spawn_trees_match_recorded_digests() {
        // A change to the split arithmetic, to the PRNG draw order or
        // to successor order moves these digests, and with them every
        // task benchmark's schedule.
        let pinned = |shape, seed, n_leaves| {
            let dag = iterative_tree_dag(2, shape, seed, |_, b| leaves(b, n_leaves));
            (dag.len(), successor_digest(&dag))
        };
        assert_eq!(
            pinned(TreeShape::Irregular, 0x4e47_0001, 1000),
            (3453, 0x70ab_bf5b_656d_65b9)
        );
        assert_eq!(
            pinned(TreeShape::Regular(3), 0x50_0501, 999),
            (4185, 0x514f_79a5_dcbc_e837)
        );
    }

    #[test]
    fn deterministic_construction() {
        let d1 = iterative_tree_dag(2, TreeShape::Irregular, 11, |_, b| {
            (0..20)
                .map(|_| b.add_task(Chunk::new(100_000, 100, 0)))
                .collect()
        });
        let d2 = iterative_tree_dag(2, TreeShape::Irregular, 11, |_, b| {
            (0..20)
                .map(|_| b.add_task(Chunk::new(100_000, 100, 0)))
                .collect()
        });
        assert_eq!(d1.len(), d2.len());
        for i in 0..d1.len() {
            assert_eq!(
                d1.successors(TaskId(i as u32)),
                d2.successors(TaskId(i as u32))
            );
        }
    }
}
