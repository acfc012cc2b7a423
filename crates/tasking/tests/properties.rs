//! Property-based tests over the schedulers: any well-formed DAG must
//! execute to completion, exactly once per task, under every
//! scheduling discipline, on any core count.

use proptest::prelude::*;
use simproc::engine::{Chunk, SimProcessor, Workload};
use simproc::freq::{Freq, FreqDomain, MachineSpec};
use tasking::{DagBuilder, Region, TaskDag, TaskId, WorkSharingScheduler, WorkStealingScheduler};

fn machine(n_cores: usize) -> MachineSpec {
    MachineSpec {
        name: format!("prop-{n_cores}core"),
        n_cores,
        core: FreqDomain::new(Freq(12), Freq(23)),
        uncore: FreqDomain::new(Freq(12), Freq(30)),
        quantum_ns: 1_000_000,
    }
}

/// Build a random DAG: `n` tasks, layered edges (from lower to higher
/// indices only — guaranteed acyclic).
fn random_dag(n: usize, edges: &[(usize, usize)]) -> TaskDag {
    let mut b = DagBuilder::default();
    let ids: Vec<TaskId> = (0..n)
        .map(|i| b.add_task(Chunk::new(50_000 + (i as u64 * 7919) % 300_000, 500, 100)))
        .collect();
    for &(x, y) in edges {
        let (a, z) = (x % n, y % n);
        if a < z {
            b.add_dep(ids[a], ids[z]);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn work_stealing_completes_any_dag(
        n in 1usize..80,
        edges in proptest::collection::vec((0usize..80, 0usize..80), 0..160),
        n_cores in 1usize..8,
        seed in 0u64..1000,
    ) {
        let dag = random_dag(n, &edges);
        let total = dag.len();
        let mut p = SimProcessor::new(machine(n_cores));
        let mut s = WorkStealingScheduler::new(dag, n_cores, seed);
        let mut guard = 0u64;
        while !p.workload_drained(&s) {
            p.step(&mut s);
            guard += 1;
            prop_assert!(guard < 2_000_000, "scheduler stalled");
        }
        prop_assert_eq!(s.completed(), total);
    }

    #[test]
    fn central_queue_completes_any_dag(
        n in 1usize..80,
        edges in proptest::collection::vec((0usize..80, 0usize..80), 0..160),
        n_cores in 1usize..8,
    ) {
        let dag = random_dag(n, &edges);
        let total = dag.len();
        let mut p = SimProcessor::new(machine(n_cores));
        let mut s = tasking::steal::CentralQueueScheduler::new(dag, n_cores);
        let mut guard = 0u64;
        while !p.workload_drained(&s) {
            p.step(&mut s);
            guard += 1;
            prop_assert!(guard < 2_000_000, "scheduler stalled");
        }
        prop_assert_eq!(s.completed(), total);
    }

    #[test]
    fn work_sharing_executes_every_chunk_exactly_once(
        sizes in proptest::collection::vec(1usize..30, 1..12),
        n_cores in 1usize..8,
    ) {
        // Tag each chunk with a unique instruction count so the total
        // instruction counter proves exactly-once execution.
        let mut expected = 0u64;
        let mut k = 0u64;
        let regions: Vec<Region> = sizes
            .iter()
            .map(|&s| {
                let chunks: Vec<Chunk> = (0..s)
                    .map(|_| {
                        k += 1;
                        let instr = 100_000 + k * 1009;
                        expected += instr;
                        Chunk::new(instr, 100, 20)
                    })
                    .collect();
                Region::statically_partitioned(chunks, n_cores)
            })
            .collect();
        let mut p = SimProcessor::new(machine(n_cores));
        let mut s = WorkSharingScheduler::new(regions, n_cores);
        let mut guard = 0u64;
        while !p.workload_drained(&s) {
            p.step(&mut s);
            guard += 1;
            prop_assert!(guard < 2_000_000, "scheduler stalled");
        }
        let measured = p.total_instructions();
        prop_assert!(
            (measured - expected as f64).abs() < 2.0,
            "instructions: measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn successors_keep_declaration_order(
        n in 1usize..60,
        ranks in proptest::collection::vec(0usize..1000, 60),
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..200),
    ) {
        // Edges run from lower to higher `rank`, so the graph is acyclic
        // while its sources interleave and point at lower ids as often
        // as higher ones (duplicate edges included).
        let rank = |t: usize| (ranks[t], t);
        let mut b = DagBuilder::default();
        for _ in 0..n {
            b.add_task(Chunk::new(1000, 10, 0));
        }
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg = vec![0u32; n];
        for &(x, y) in &edges {
            let (a, z) = (x % n, y % n);
            if rank(a) < rank(z) {
                b.add_dep(TaskId(a as u32), TaskId(z as u32));
                expected[a].push(z as u32);
                indeg[z] += 1;
            }
        }
        let dag = b.build();
        for (t, succs) in expected.iter().enumerate() {
            prop_assert_eq!(dag.successors(TaskId(t as u32)), succs.as_slice());
        }
        prop_assert_eq!(dag.indegrees(), indeg);
    }

    #[test]
    fn schedulers_agree_on_total_work(
        n in 1usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..100),
    ) {
        // Different disciplines, same DAG → identical retired
        // instruction totals (work conservation).
        let dag = random_dag(n, &edges);
        let run = |wl: &mut dyn Workload| {
            let mut p = SimProcessor::new(machine(4));
            while !p.workload_drained(wl) {
                p.step(wl);
            }
            p.total_instructions()
        };
        let a = run(&mut WorkStealingScheduler::new(dag.clone(), 4, 1));
        let b = run(&mut tasking::steal::CentralQueueScheduler::new(dag, 4));
        prop_assert!((a - b).abs() < 2.0, "{a} vs {b}");
    }
}
