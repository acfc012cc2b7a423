//! Task DAG representation.
//!
//! A [`TaskDag`] is a static directed acyclic graph whose nodes carry
//! [`Chunk`]s (instruction/miss cost descriptors) and whose edges are
//! happens-before dependencies. Workload generators build DAGs through
//! [`DagBuilder`]; schedulers consume them.
//!
//! The paper's Figure 1 derives two DAG shapes from the same loop nest
//! (after Chen et al. [ICS'14]): a *regular* DAG whose interior nodes
//! have uniform degree, and an *irregular* one with mixed degrees. Both
//! are just shapes of this one type.

use simproc::engine::Chunk;

/// Index of a task within its DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// An immutable task DAG ready for scheduling.
///
/// Successors are stored in compressed-sparse-row (CSR) form: task
/// `t`'s successors are `succs[succ_start[t]..succ_start[t + 1]]`, in
/// the order their edges were declared to the [`DagBuilder`]. That
/// order is what the schedulers push ready tasks in, so it is part of
/// every schedule.
#[derive(Debug, Clone)]
pub struct TaskDag {
    chunks: Vec<Chunk>,
    /// `len() + 1` offsets into `succs`, non-decreasing, ending at
    /// `succs.len()`.
    succ_start: Vec<u32>,
    succs: Vec<u32>,
    indeg: Vec<u32>,
}

impl TaskDag {
    /// Start building a DAG.
    pub fn builder() -> DagBuilder {
        DagBuilder::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The cost chunk of a task.
    pub fn chunk(&self, id: TaskId) -> &Chunk {
        &self.chunks[id.0 as usize]
    }

    /// Successor task ids of `id`, in the order their edges were
    /// declared.
    pub fn successors(&self, id: TaskId) -> &[u32] {
        let t = id.0 as usize;
        &self.succs[self.succ_start[t] as usize..self.succ_start[t + 1] as usize]
    }

    /// In-degree of each task (cloned; schedulers mutate their copy).
    pub fn indegrees(&self) -> Vec<u32> {
        self.indeg.clone()
    }

    /// Ids of tasks with no predecessors.
    pub fn roots(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| TaskId(i as u32))
    }

    /// Total instructions across all tasks.
    pub fn total_instructions(&self) -> u64 {
        self.chunks.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate TIPI of the whole DAG.
    pub fn aggregate_tipi(&self) -> f64 {
        let instr: u64 = self.total_instructions();
        if instr == 0 {
            return 0.0;
        }
        let misses: u64 = self
            .chunks
            .iter()
            .map(|c| c.misses_local + c.misses_remote)
            .sum();
        misses as f64 / instr as f64
    }
}

/// Incremental DAG constructor.
///
/// Edges are recorded as one flat `(before, after)` list in declaration
/// order; [`DagBuilder::build`] turns it into the [`TaskDag`]'s CSR
/// arrays with a stable counting sort, so `successors(t)` lists `t`'s
/// edges in the order they were declared.
#[derive(Debug, Default)]
pub struct DagBuilder {
    chunks: Vec<Chunk>,
    edges: Vec<(u32, u32)>,
}

impl DagBuilder {
    /// Add a task carrying `chunk`; returns its id.
    ///
    /// # Panics
    /// Panics if the task would not get a `u32` id.
    pub fn add_task(&mut self, chunk: Chunk) -> TaskId {
        let id = u32::try_from(self.chunks.len()).expect("task ids fit in u32");
        self.chunks.push(chunk);
        TaskId(id)
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether no tasks have been added.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Declare that `before` must complete before `after` starts.
    ///
    /// # Panics
    /// Panics if either id is unknown or `before == after`.
    pub fn add_dep(&mut self, before: TaskId, after: TaskId) {
        assert!(before != after, "a task cannot depend on itself");
        assert!(
            (before.0 as usize) < self.chunks.len(),
            "unknown task {before:?}"
        );
        assert!(
            (after.0 as usize) < self.chunks.len(),
            "unknown task {after:?}"
        );
        self.edges.push((before.0, after.0));
    }

    /// Convenience barrier: every task in `before` precedes every task
    /// in `after`. For wide barriers this inserts a zero-cost join node
    /// to keep the edge count linear.
    pub fn barrier(&mut self, before: &[TaskId], after: &[TaskId]) {
        if before.is_empty() || after.is_empty() {
            return;
        }
        if before.len() * after.len() <= 64 {
            for &b in before {
                for &a in after {
                    self.add_dep(b, a);
                }
            }
        } else {
            let join = self.add_task(Chunk::new(0, 0, 0));
            for &b in before {
                self.add_dep(b, join);
            }
            for &a in after {
                self.add_dep(join, a);
            }
        }
    }

    /// Finish construction, verifying acyclicity.
    ///
    /// # Panics
    /// Panics if the dependency graph contains a cycle, or if its edge
    /// offsets would not fit in `u32`.
    pub fn build(self) -> TaskDag {
        let n = self.chunks.len();
        assert!(
            u32::try_from(self.edges.len()).is_ok(),
            "edge offsets fit in u32"
        );
        // Count out- and in-degrees, turn the out-degrees into offsets,
        // then scatter each edge to its source's next free slot. Edges
        // are visited in declaration order, so each successor list keeps
        // that order.
        let mut succ_start = vec![0u32; n + 1];
        let mut indeg = vec![0u32; n];
        for &(before, after) in &self.edges {
            succ_start[before as usize + 1] += 1;
            indeg[after as usize] += 1;
        }
        for t in 0..n {
            succ_start[t + 1] += succ_start[t];
        }
        let mut next_slot = succ_start[..n].to_vec();
        let mut succs = vec![0u32; self.edges.len()];
        for &(before, after) in &self.edges {
            let slot = &mut next_slot[before as usize];
            succs[*slot as usize] = after;
            *slot += 1;
        }
        let dag = TaskDag {
            chunks: self.chunks,
            succ_start,
            succs,
            indeg,
        };
        // Kahn's algorithm: all tasks must be reachable at in-degree 0.
        let mut indeg = dag.indegrees();
        let mut queue: Vec<u32> = dag.roots().map(|t| t.0).collect();
        let mut seen = 0usize;
        while let Some(t) = queue.pop() {
            seen += 1;
            for &s in dag.successors(TaskId(t)) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(seen, dag.len(), "task DAG contains a cycle");
        dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u64) -> Chunk {
        Chunk::new(n, n / 100, 0)
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = TaskDag::builder();
        let a = b.add_task(c(1000));
        let x = b.add_task(c(2000));
        let y = b.add_task(c(3000));
        b.add_dep(a, x);
        b.add_dep(a, y);
        let dag = b.build();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.roots().collect::<Vec<_>>(), vec![a]);
        assert_eq!(dag.successors(a), &[x.0, y.0]);
        assert_eq!(dag.total_instructions(), 6000);
    }

    #[test]
    fn aggregate_tipi() {
        let mut b = TaskDag::builder();
        b.add_task(Chunk::new(1000, 50, 14));
        b.add_task(Chunk::new(1000, 0, 0));
        let dag = b.build();
        assert!((dag.aggregate_tipi() - 64.0 / 2000.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        let mut b = TaskDag::builder();
        let a = b.add_task(c(1));
        let x = b.add_task(c(1));
        b.add_dep(a, x);
        b.add_dep(x, a);
        b.build();
    }

    #[test]
    #[should_panic(expected = "depend on itself")]
    fn self_dep_rejected() {
        let mut b = TaskDag::builder();
        let a = b.add_task(c(1));
        b.add_dep(a, a);
    }

    #[test]
    fn wide_barrier_uses_join_node() {
        let mut b = TaskDag::builder();
        let before: Vec<TaskId> = (0..20).map(|_| b.add_task(c(1))).collect();
        let after: Vec<TaskId> = (0..20).map(|_| b.add_task(c(1))).collect();
        b.barrier(&before, &after);
        let dag = b.build();
        // 40 real tasks + 1 join node.
        assert_eq!(dag.len(), 41);
        let join = TaskId(40);
        assert_eq!(dag.successors(before[0]), &[join.0]);
    }

    #[test]
    fn narrow_barrier_uses_direct_edges() {
        let mut b = TaskDag::builder();
        let x = b.add_task(c(1));
        let y = b.add_task(c(1));
        b.barrier(&[x], &[y]);
        let dag = b.build();
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.successors(x), &[y.0]);
    }

    #[test]
    fn empty_barrier_is_noop() {
        let mut b = TaskDag::builder();
        let x = b.add_task(c(1));
        b.barrier(&[], &[x]);
        b.barrier(&[x], &[]);
        let dag = b.build();
        assert_eq!(dag.roots().count(), 1);
    }
}
