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
//! imbalance. The numeric reference in the tests is a miniature
//! geometric UTS with a splitmix-style node hash.

use crate::{Benchmark, BuiltWorkload, Scale, Style};
use simproc::engine::Chunk;
use simproc::perf::CostProfile;
use tasking::{DagBuilder, SplitMix64, TaskId};

/// Paper-reported Default execution time (Table 1).
pub const PAPER_TIME_S: f64 = 69.9;

/// Instructions per tree node (hash + bookkeeping).
pub const INSTR_PER_NODE: f64 = 30.0;

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

/// UTS with **online tree unfolding**: tasks are created while the
/// search runs, exactly like the real benchmark, instead of
/// pre-generating the DAG. Each simulated core owns a local stack of
/// subtree descriptors and steals from a shared overflow pool when it
/// runs dry — the self-scheduling structure of the original UTS
/// work-stealing implementation the paper notes UTS ships with.
///
/// Functionally equivalent to [`build`] for the profiler (same TIPI,
/// same aggregate work budget); exists to demonstrate that nothing in
/// the stack depends on the task graph being known up front.
#[derive(Debug)]
pub struct DynamicUts {
    /// Per-core local stacks of (seed, remaining-budget) descriptors.
    local: Vec<Vec<(u64, f64)>>,
    /// Shared overflow pool (victims push here when their stack grows).
    shared: Vec<(u64, f64)>,
    rng: SplitMix64,
}

impl DynamicUts {
    /// Online UTS sized like the paper's run at `scale`.
    pub fn new(scale: Scale, n_cores: usize, seed: u64) -> Self {
        let total = paper_total_instructions() * scale.0;
        DynamicUts {
            local: vec![Vec::new(); n_cores],
            shared: vec![(seed, total)],
            rng: SplitMix64::new(seed),
        }
    }

    /// Expand one descriptor: take its own work, split the rest among
    /// 0–4 children pushed back to `core`'s stack.
    fn expand(&mut self, core: usize, node_seed: u64, budget: f64) -> Chunk {
        let own = self.rng.uniform(4.0e6, 16.0e6).min(budget);
        let mut rest = budget - own;
        let n_children = 1 + self.rng.below(4);
        for c in 0..n_children {
            if rest < 1.0e6 {
                break;
            }
            let share = if c + 1 == n_children {
                rest
            } else {
                rest * self.rng.uniform(0.2, 0.8)
            };
            let child = (node_hash(node_seed ^ (c as u64 + 1)), share);
            // Overflow beyond a small local stack goes to the shared
            // pool where idle cores can grab it.
            if self.local[core].len() >= 8 {
                self.shared.push(child);
            } else {
                self.local[core].push(child);
            }
            rest -= share;
        }
        task_chunk(own as u64)
    }
}

impl simproc::engine::Workload for DynamicUts {
    fn next_chunk(&mut self, core: usize, _now_ns: u64) -> Option<Chunk> {
        // Expansion happens at hand-out; in-flight chunks are tracked by
        // the engine itself, so draining the stacks is the only state.
        let desc = self.local[core].pop().or_else(|| self.shared.pop())?;
        Some(self.expand(core, desc.0, desc.1))
    }

    fn is_done(&self) -> bool {
        self.shared.is_empty() && self.local.iter().all(Vec::is_empty)
    }
}

// ---------------------------------------------------------------------
// Reference numeric kernel: miniature geometric UTS.
// ---------------------------------------------------------------------

/// Splitmix64 — stands in for the SHA-1 node hash of real UTS.
pub fn node_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Count the nodes of a geometric UTS tree rooted at `id` with branching
/// factor drawn from the node hash: `P(child) = b/(b+1)` per slot, depth
/// capped at `max_depth`.
pub fn count_tree(id: u64, depth: u32, max_depth: u32, b: u32) -> u64 {
    if depth >= max_depth {
        return 1;
    }
    let h = node_hash(id);
    let mut count = 1;
    for slot in 0..b {
        // Child exists if the slot's hash bits pass a threshold that
        // shrinks with depth (geometric decay keeps the tree finite).
        let bits = (h >> (slot * 8)) & 0xff;
        let threshold = 256 * (max_depth - depth) / (max_depth + 1);
        if (bits as u32) < threshold {
            count += count_tree(node_hash(id ^ (slot as u64 + 1)), depth + 1, max_depth, b);
        }
    }
    count
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

    #[test]
    fn dynamic_uts_executes_full_budget() {
        use simproc::engine::Workload;
        use simproc::freq::HASWELL_2650V3;
        use simproc::SimProcessor;
        let scale = Scale(0.02);
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl = DynamicUts::new(scale, p.n_cores(), 42);
        while !p.workload_drained(&wl) {
            p.step(&mut wl);
        }
        assert!(wl.is_done());
        let want = paper_total_instructions() * scale.0;
        let got = p.total_instructions();
        assert!(
            (got - want).abs() / want < 0.02,
            "dynamic unfolding must hit the same budget: {got} vs {want}"
        );
    }

    #[test]
    fn dynamic_uts_matches_pregenerated_tipi() {
        use simproc::freq::HASWELL_2650V3;
        use simproc::msr;
        use simproc::SimProcessor;
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl = DynamicUts::new(Scale(0.02), p.n_cores(), 42);
        while !p.workload_drained(&wl) {
            p.step(&mut wl);
        }
        let tor = (p.msr_read(msr::SIM_TOR_INSERT_MISS_LOCAL).unwrap()
            + p.msr_read(msr::SIM_TOR_INSERT_MISS_REMOTE).unwrap()) as f64;
        let tipi = tor / p.total_instructions();
        assert!(
            (0.0..0.004).contains(&tipi),
            "same single low slab as the pregenerated DAG, got {tipi}"
        );
    }

    #[test]
    fn dynamic_uts_is_deterministic() {
        use simproc::freq::HASWELL_2650V3;
        use simproc::SimProcessor;
        let run = || {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            let mut wl = DynamicUts::new(Scale(0.01), p.n_cores(), 5);
            while !p.workload_drained(&wl) {
                p.step(&mut wl);
            }
            (p.now_ns(), p.total_instructions())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn numeric_uts_counts_are_reproducible_and_unbalanced() {
        let a = count_tree(1, 0, 8, 4);
        let b = count_tree(1, 0, 8, 4);
        assert_eq!(a, b, "same seed, same count");
        // Different roots produce very different subtree sizes — the
        // imbalance UTS exists to create. (At moderate depth the
        // variance is large relative to the mean; deep trees average
        // out by the law of large numbers.)
        let sizes: Vec<u64> = (1..=40).map(|r| count_tree(r, 0, 8, 4)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max > min.saturating_mul(3),
            "imbalance: min {min}, max {max}"
        );
    }

    #[test]
    fn node_hash_avalanches() {
        // Flipping one input bit changes about half the output bits.
        let x = 0xdead_beef_1234_5678u64;
        let mut total = 0;
        for bit in 0..64 {
            total += (node_hash(x) ^ node_hash(x ^ (1 << bit))).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((24.0..40.0).contains(&avg), "avalanche average {avg}");
    }
}
