//! Property-based tests over the schedulers: any well-formed DAG must
//! execute to completion, exactly once per task, under every
//! scheduling discipline, on any core count. Each property runs
//! `CASES` seeded cases; case `i` draws from `SplitMix64::new(i)`, and
//! a failure names its case.

use simproc::engine::{Chunk, SimProcessor, Workload};
use simproc::freq::{Freq, FreqDomain, MachineSpec};
use simproc::SplitMix64;
use std::ops::Range;
use tasking::{DagBuilder, Region, TaskDag, TaskId, WorkSharingScheduler, WorkStealingScheduler};

const CASES: u64 = 64;

/// A uniform draw from `range`.
fn pick(rng: &mut SplitMix64, range: Range<usize>) -> usize {
    range.start + rng.below(range.len())
}

/// A `lens`-long list of random `(from, to)` pairs over `0..slots`.
fn pairs(rng: &mut SplitMix64, slots: usize, lens: Range<usize>) -> Vec<(usize, usize)> {
    let len = pick(rng, lens);
    (0..len)
        .map(|_| (pick(rng, 0..slots), pick(rng, 0..slots)))
        .collect()
}

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

#[test]
fn work_stealing_completes_any_dag() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = pick(&mut rng, 1..80);
        let edges = pairs(&mut rng, 80, 0..160);
        let n_cores = pick(&mut rng, 1..8);
        let seed = pick(&mut rng, 0..1000) as u64;
        let dag = random_dag(n, &edges);
        let total = dag.len();
        let mut p = SimProcessor::new(machine(n_cores));
        let mut s = WorkStealingScheduler::new(dag, n_cores, seed);
        let mut guard = 0u64;
        while !p.workload_drained(&s) {
            p.step(&mut s);
            guard += 1;
            assert!(guard < 2_000_000, "case {case}: scheduler stalled");
        }
        assert_eq!(s.completed(), total, "case {case}");
    }
}

#[test]
fn central_queue_completes_any_dag() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = pick(&mut rng, 1..80);
        let edges = pairs(&mut rng, 80, 0..160);
        let n_cores = pick(&mut rng, 1..8);
        let dag = random_dag(n, &edges);
        let total = dag.len();
        let mut p = SimProcessor::new(machine(n_cores));
        let mut s = tasking::steal::CentralQueueScheduler::new(dag, n_cores);
        let mut guard = 0u64;
        while !p.workload_drained(&s) {
            p.step(&mut s);
            guard += 1;
            assert!(guard < 2_000_000, "case {case}: scheduler stalled");
        }
        assert_eq!(s.completed(), total, "case {case}");
    }
}

#[test]
fn work_sharing_executes_every_chunk_exactly_once() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let len = pick(&mut rng, 1..12);
        let sizes: Vec<usize> = (0..len).map(|_| pick(&mut rng, 1..30)).collect();
        let n_cores = pick(&mut rng, 1..8);
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
            assert!(guard < 2_000_000, "case {case}: scheduler stalled");
        }
        let measured = p.total_instructions();
        assert!(
            (measured - expected as f64).abs() < 2.0,
            "case {case}: instructions: measured {measured}, expected {expected}"
        );
    }
}

#[test]
fn successors_keep_declaration_order() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = pick(&mut rng, 1..60);
        let ranks: Vec<usize> = (0..60).map(|_| pick(&mut rng, 0..1000)).collect();
        let edges = pairs(&mut rng, 60, 0..200);
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
            assert_eq!(
                dag.successors(TaskId(t as u32)),
                succs.as_slice(),
                "case {case}, task {t}"
            );
        }
        assert_eq!(dag.indegrees(), indeg, "case {case}");
    }
}

#[test]
fn schedulers_agree_on_total_work() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = pick(&mut rng, 1..60);
        let edges = pairs(&mut rng, 60, 0..100);
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
        assert!((a - b).abs() < 2.0, "case {case}: {a} vs {b}");
    }
}
