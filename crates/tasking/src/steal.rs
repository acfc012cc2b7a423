//! Work-stealing scheduler over simulated cores.
//!
//! The scheduling discipline mirrors HClib's (and Cilk's) runtime:
//! every core owns a deque; it pushes tasks it makes ready to the bottom
//! and pops from the bottom (LIFO, for locality); an idle core steals
//! from the *top* of a uniformly random victim's deque (FIFO, taking the
//! oldest — typically largest — piece of work). Victim selection uses a
//! seeded PRNG so whole-machine simulations are reproducible.
//!
//! The engine pulls work via [`simproc::Workload::next_chunk`]; the pull
//! that follows a completed chunk doubles as the completion signal, at
//! which point the task's successors are released.

use crate::rng::SplitMix64;
use crate::task::{TaskDag, TaskId};
use simproc::engine::{Chunk, Workload};
use std::collections::VecDeque;

/// Counters describing a finished schedule, for tests and traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Tasks executed from the core's own deque.
    pub local_pops: u64,
    /// Tasks obtained by stealing.
    pub steals: u64,
    /// Failed whole-machine steal sweeps (led to parking).
    pub failed_sweeps: u64,
}

/// Work-stealing executor for one [`TaskDag`].
#[derive(Debug)]
pub struct WorkStealingScheduler {
    dag: TaskDag,
    indeg: Vec<u32>,
    deques: Vec<VecDeque<u32>>,
    running: Vec<Option<u32>>,
    completed: usize,
    rng: SplitMix64,
    stats: StealStats,
}

impl WorkStealingScheduler {
    /// Schedule `dag` over `n_cores` cores; `seed` fixes victim choice.
    pub fn new(dag: TaskDag, n_cores: usize, seed: u64) -> Self {
        assert!(n_cores > 0);
        let indeg = dag.indegrees();
        let mut deques: Vec<VecDeque<u32>> = (0..n_cores).map(|_| VecDeque::new()).collect();
        // Roots are distributed round-robin, as if a startup loop had
        // spawned them from the main task.
        for (i, root) in dag.roots().enumerate() {
            deques[i % n_cores].push_back(root.0);
        }
        WorkStealingScheduler {
            dag,
            indeg,
            deques,
            running: vec![None; n_cores],
            completed: 0,
            rng: SplitMix64::new(seed),
            stats: StealStats::default(),
        }
    }

    /// Scheduling statistics so far.
    pub fn stats(&self) -> StealStats {
        self.stats
    }

    /// Tasks completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The DAG being executed.
    pub fn dag(&self) -> &TaskDag {
        &self.dag
    }

    fn complete(&mut self, core: usize, task: u32) {
        self.completed += 1;
        for &s in self.dag.successors(TaskId(task)) {
            self.indeg[s as usize] -= 1;
            if self.indeg[s as usize] == 0 {
                // Ready tasks go to the bottom of the completing core's
                // deque (child-first / locality, as in HClib).
                self.deques[core].push_back(s);
            }
        }
    }

    fn acquire(&mut self, core: usize) -> Option<u32> {
        if let Some(t) = self.deques[core].pop_back() {
            self.stats.local_pops += 1;
            return Some(t);
        }
        let n = self.deques.len();
        if n == 1 {
            self.stats.failed_sweeps += 1;
            return None;
        }
        // Random starting victim, then sweep the whole ring once; this
        // bounds the work per acquire while keeping victim choice random.
        let start = self.rng.below(n);
        for k in 0..n {
            let v = (start + k) % n;
            if v == core {
                continue;
            }
            if let Some(t) = self.deques[v].pop_front() {
                self.stats.steals += 1;
                return Some(t);
            }
        }
        self.stats.failed_sweeps += 1;
        None
    }
}

impl Workload for WorkStealingScheduler {
    fn next_chunk(&mut self, core: usize, _now_ns: u64) -> Option<Chunk> {
        if let Some(prev) = self.running[core].take() {
            self.complete(core, prev);
        }
        loop {
            let t = self.acquire(core)?;
            // Zero-cost join nodes complete immediately rather than
            // round-tripping through the engine.
            let chunk = self.dag.chunk(TaskId(t)).clone();
            if chunk.instructions == 0 && chunk.misses_local == 0 && chunk.misses_remote == 0 {
                self.complete(core, t);
                continue;
            }
            self.running[core] = Some(t);
            return Some(chunk);
        }
    }

    fn is_done(&self) -> bool {
        self.completed == self.dag.len() && self.running.iter().all(|r| r.is_none())
    }

    fn next_wake_ns(&self, now_ns: u64) -> Option<u64> {
        // An undrained stealer cannot promise side-effect-free skipped
        // pulls: every failed sweep advances the seeded victim PRNG and
        // the `failed_sweeps` counter, so skipping one would change the
        // replayed schedule. Only the drained tail is safe to
        // fast-forward — `None` hands it to the event scheduler.
        if self.is_done() {
            None
        } else {
            Some(now_ns)
        }
    }
}

/// Central shared-queue scheduler: one FIFO task pool all cores pull
/// from — the classic OpenMP untied-task pool discipline (breadth-first,
/// no owner deques). Contrast with [`WorkStealingScheduler`]'s HClib
/// discipline; the Cuttlefish evaluation uses the two to represent the
/// two programming models.
#[derive(Debug)]
pub struct CentralQueueScheduler {
    dag: TaskDag,
    indeg: Vec<u32>,
    queue: VecDeque<u32>,
    running: Vec<Option<u32>>,
    completed: usize,
}

impl CentralQueueScheduler {
    /// Schedule `dag` over `n_cores` cores.
    pub fn new(dag: TaskDag, n_cores: usize) -> Self {
        assert!(n_cores > 0);
        let indeg = dag.indegrees();
        let queue: VecDeque<u32> = dag.roots().map(|t| t.0).collect();
        CentralQueueScheduler {
            dag,
            indeg,
            queue,
            running: vec![None; n_cores],
            completed: 0,
        }
    }

    /// Tasks completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    fn complete(&mut self, task: u32) {
        self.completed += 1;
        for &s in self.dag.successors(TaskId(task)) {
            self.indeg[s as usize] -= 1;
            if self.indeg[s as usize] == 0 {
                self.queue.push_back(s);
            }
        }
    }
}

impl Workload for CentralQueueScheduler {
    fn next_chunk(&mut self, core: usize, _now_ns: u64) -> Option<Chunk> {
        if let Some(prev) = self.running[core].take() {
            self.complete(prev);
        }
        loop {
            let t = self.queue.pop_front()?;
            let chunk = self.dag.chunk(TaskId(t)).clone();
            if chunk.instructions == 0 && chunk.misses_local == 0 && chunk.misses_remote == 0 {
                self.complete(t);
                continue;
            }
            self.running[core] = Some(t);
            return Some(chunk);
        }
    }

    fn is_done(&self) -> bool {
        self.completed == self.dag.len() && self.running.iter().all(|r| r.is_none())
    }

    fn next_wake_ns(&self, now_ns: u64) -> Option<u64> {
        // Same contract as the stealer: pulls double as completion
        // signals while tasks are in flight, so only the drained tail
        // advertises `None` (free to fast-forward).
        if self.is_done() {
            None
        } else {
            Some(now_ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::DagBuilder;
    use simproc::engine::SimProcessor;
    use simproc::freq::HYPOTHETICAL7;
    use simproc::perf::CostProfile;

    fn chunk(n: u64) -> Chunk {
        Chunk::new(n, n / 1000, 0).with_profile(CostProfile::new(1.0, 6.0))
    }

    fn chain_dag(len: usize) -> TaskDag {
        let mut b = DagBuilder::default();
        let mut prev: Option<TaskId> = None;
        for _ in 0..len {
            let t = b.add_task(chunk(100_000));
            if let Some(p) = prev {
                b.add_dep(p, t);
            }
            prev = Some(t);
        }
        b.build()
    }

    fn wide_dag(n: usize) -> TaskDag {
        let mut b = DagBuilder::default();
        for _ in 0..n {
            b.add_task(chunk(500_000));
        }
        b.build()
    }

    #[test]
    fn executes_all_tasks() {
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = WorkStealingScheduler::new(wide_dag(100), p.n_cores(), 42);
        p.run(&mut s, |_| {});
        assert_eq!(s.completed(), 100);
        assert!(s.is_done());
    }

    #[test]
    fn respects_chain_dependencies() {
        // A pure chain admits no parallelism: total time must be the
        // serial time regardless of core count.
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = WorkStealingScheduler::new(chain_dag(64), p.n_cores(), 7);
        let secs = p.run(&mut s, |_| {});
        let serial = 64.0 * 100_000.0 * 1.0 / p.core_freq().hz();
        // Quantum rounding: each chunk may wait for the next quantum.
        assert!(secs >= serial, "cannot beat the critical path");
        assert_eq!(s.completed(), 64);
    }

    #[test]
    fn wide_dag_gets_parallel_speedup() {
        let n_tasks = 400;
        let mut p1 = SimProcessor::new(HYPOTHETICAL7.clone());
        let one_core_time = {
            // Single-core run: same machine but a scheduler that only
            // ever feeds core 0 (build a 1-core scheduler and park the
            // rest by giving them nothing).
            let mut s = WorkStealingScheduler::new(wide_dag(n_tasks), 1, 1);
            struct OnlyCore0<'a>(&'a mut WorkStealingScheduler);
            impl Workload for OnlyCore0<'_> {
                fn next_chunk(&mut self, core: usize, now: u64) -> Option<Chunk> {
                    if core == 0 {
                        self.0.next_chunk(0, now)
                    } else {
                        None
                    }
                }
                fn is_done(&self) -> bool {
                    self.0.is_done()
                }
            }
            let mut w = OnlyCore0(&mut s);
            p1.run(&mut w, |_| {})
        };
        let mut p4 = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s4 = WorkStealingScheduler::new(wide_dag(n_tasks), p4.n_cores(), 1);
        let four_core_time = p4.run(&mut s4, |_| {});
        let speedup = one_core_time / four_core_time;
        assert!(
            speedup > 3.0,
            "4 cores on embarrassingly parallel work should speed up ~4x, got {speedup:.2}"
        );
    }

    #[test]
    fn stealing_happens_on_imbalanced_roots() {
        // Single root fanning out: all other cores must steal to work.
        let mut b = DagBuilder::default();
        let root = b.add_task(chunk(100_000));
        for _ in 0..50 {
            let t = b.add_task(chunk(400_000));
            b.add_dep(root, t);
        }
        let dag = b.build();
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = WorkStealingScheduler::new(dag, p.n_cores(), 99);
        p.run(&mut s, |_| {});
        assert!(
            s.stats().steals > 0,
            "fan-out from one deque requires steals"
        );
        assert_eq!(s.completed(), 51);
    }

    #[test]
    fn central_queue_executes_all_tasks() {
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = CentralQueueScheduler::new(wide_dag(100), p.n_cores());
        p.run(&mut s, |_| {});
        assert_eq!(s.completed(), 100);
        assert!(s.is_done());
    }

    #[test]
    fn central_queue_respects_dependencies() {
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = CentralQueueScheduler::new(chain_dag(32), p.n_cores());
        let secs = p.run(&mut s, |_| {});
        let serial = 32.0 * 100_000.0 / p.core_freq().hz();
        assert!(secs >= serial);
        assert_eq!(s.completed(), 32);
    }

    #[test]
    fn central_queue_parallelizes_wide_work() {
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = CentralQueueScheduler::new(wide_dag(400), p.n_cores());
        let t4 = p.run(&mut s, |_| {});
        let serial = 400.0 * 500_000.0 / p.core_freq().hz();
        assert!(t4 < serial / 3.0, "4 cores should be ~4x faster");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
            let mut s = WorkStealingScheduler::new(wide_dag(200), p.n_cores(), seed);
            let t = p.run(&mut s, |_| {});
            (t, s.stats())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn zero_cost_join_nodes_do_not_deadlock() {
        let mut b = DagBuilder::default();
        let before: Vec<TaskId> = (0..20).map(|_| b.add_task(chunk(200_000))).collect();
        let after: Vec<TaskId> = (0..20).map(|_| b.add_task(chunk(200_000))).collect();
        b.barrier(&before, &after); // inserts a zero-cost join task
        let dag = b.build();
        let total = dag.len();
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = WorkStealingScheduler::new(dag, p.n_cores(), 3);
        p.run(&mut s, |_| {});
        assert_eq!(s.completed(), total);
    }
}
