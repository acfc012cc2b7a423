//! AMG — algebraic multigrid solver (LLNL benchmark, paper \[32\]).
//! Configuration from Table 1: 256×256×1024 domain, 22 cycles,
//! work-sharing. The most phase-diverse benchmark of the suite: the
//! paper measures **60 distinct TIPI slabs** spanning 0.060–0.332,
//! with two frequent slabs (0.144–0.148 at 56 % and 0.148–0.152 at
//! 25 %, Table 2).
//!
//! ## Phase structure and cost model
//!
//! Each V-cycle walks a hierarchy of coarsening levels. The fine level
//! streams a structured stencil matrix (TIPI ≈ 0.146 relax /
//! ≈ 0.150 residual — the two frequent slabs). Galerkin-coarsened
//! operators grow denser and lose structure with depth, so misses per
//! nonzero climb steeply (irregular gather access, TIPI up to ~0.33 at
//! level 5) while the level's share of runtime shrinks ~4× per level.
//! The coarsest level fits in the LLC (TIPI ≈ 0.065). Per-cycle cache
//! drift perturbs every level's miss rate a few percent, which is what
//! spreads samples over the paper's ~60 slabs.

use crate::cache::{KernelCost, Phase};
use crate::{Benchmark, BuiltWorkload, Scale, Style};
use tasking::Region;

/// Paper execution time (Table 1).
pub const PAPER_TIME_S: f64 = 63.7;
/// Paper cycle count.
pub const PAPER_ITERS: usize = 22;
const CORES: f64 = 20.0;

/// Per-level description: (base TIPI, share of cycle core-seconds,
/// instructions per nonzero, CPI, MLP).
const LEVELS: &[(f64, f64, f64, f64, f64)] = &[
    (0.1460, 0.52, 3.3, 0.7, 8.0),  // level 0 relax (frequent slab #1)
    (0.1498, 0.24, 3.3, 0.7, 8.0),  // level 0 residual (frequent slab #2)
    (0.172, 0.12, 3.6, 0.75, 7.0),  // level 1
    (0.210, 0.06, 3.8, 0.8, 6.0),   // level 2
    (0.258, 0.03, 4.0, 0.8, 5.0),   // level 3
    (0.298, 0.015, 4.2, 0.85, 5.0), // level 4
    (0.326, 0.008, 4.4, 0.85, 4.0), // level 5 (range top)
    (0.065, 0.007, 3.0, 0.7, 10.0), // coarsest: LLC-resident
];

/// Deterministic per-cycle drift factor for `(cycle, level)` — the
/// cache-state variation that spreads AMG's samples across ~60 slabs.
/// The two fine-level phases drift only ±0.8 % (they must stay in
/// their Table 2 slabs); coarser levels drift ±4 %.
pub fn drift(cycle: usize, level: usize) -> f64 {
    // Low-discrepancy walk (golden-ratio rotation), deterministic.
    let t = ((cycle * 131 + level * 47) as f64 * 0.618_033_988_749_895).fract();
    let amp = if level <= 1 { 0.016 } else { 0.08 };
    1.0 + (t - 0.5) * amp
}

/// Kernel for one level in one cycle.
pub fn level_kernel(cycle: usize, level: usize) -> KernelCost {
    let (tipi, _, instr, cpi, mlp) = LEVELS[level];
    let t = tipi * drift(cycle, level);
    KernelCost::new(instr, t * instr, cpi, mlp)
}

/// Setup-phase kernels (coarsening + Galerkin products).
pub fn setup_kernel(i: usize) -> KernelCost {
    let tipi = [0.082, 0.104, 0.126][i % 3];
    KernelCost::new(4.0, tipi * 4.0, 0.8, 7.0)
}

/// Build the work-sharing workload.
pub fn build(scale: Scale, n_cores: usize) -> BuiltWorkload {
    let cycles = scale.iters(PAPER_ITERS);
    let total_core_s = PAPER_TIME_S * CORES * scale.0;
    let setup_core_s = total_core_s * 0.06;
    let cycle_core_s = (total_core_s - setup_core_s) / cycles as f64;

    let mut regions: Vec<Region> = Vec::new();
    for i in 0..3 {
        let ph = Phase::new("amg.setup", setup_kernel(i), setup_core_s / 3.0);
        regions.push(ph.region(n_cores, 6));
    }
    for cycle in 0..cycles {
        for (level, &(_, share, ..)) in LEVELS.iter().enumerate() {
            let ph = Phase::new(
                "amg.level",
                level_kernel(cycle, level),
                cycle_core_s * share,
            );
            regions.push(ph.region(n_cores, 4));
        }
    }
    BuiltWorkload::Regions(regions)
}

/// Table 1 row.
pub fn benchmark(scale: Scale) -> Benchmark {
    Benchmark::new(
        "AMG",
        Style::WorkSharing,
        PAPER_TIME_S,
        (0.060, 0.332),
        move |n| build(scale, n),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::slab_of;

    #[test]
    fn frequent_slabs_match_table2() {
        // Level-0 relax and residual must stay in their Table 2 slabs
        // across all drift values.
        let mut relax_slabs = std::collections::BTreeSet::new();
        let mut resid_slabs = std::collections::BTreeSet::new();
        for cycle in 0..22 {
            relax_slabs.insert(slab_of(level_kernel(cycle, 0).tipi()));
            resid_slabs.insert(slab_of(level_kernel(cycle, 1).tipi()));
        }
        assert!(
            relax_slabs.contains(&36),
            "0.144-0.148 present: {relax_slabs:?}"
        );
        assert!(
            resid_slabs.contains(&37),
            "0.148-0.152 present: {resid_slabs:?}"
        );
    }

    #[test]
    fn level_tipis_span_paper_range() {
        let min = level_kernel(0, 7).tipi();
        let max = (0..22)
            .map(|c| level_kernel(c, 6).tipi())
            .fold(0.0, f64::max);
        assert!(min < 0.08, "coarse level near range bottom, got {min}");
        assert!(
            max > 0.31 && max < 0.34,
            "level 5 near range top, got {max}"
        );
    }

    #[test]
    fn drift_spreads_many_slabs() {
        let mut slabs = std::collections::BTreeSet::new();
        for cycle in 0..22 {
            for level in 0..LEVELS.len() {
                slabs.insert(slab_of(level_kernel(cycle, level).tipi()));
            }
        }
        assert!(
            (25..=70).contains(&slabs.len()),
            "AMG should produce tens of distinct slabs, got {}",
            slabs.len()
        );
    }

    #[test]
    fn level_shares_sum_to_one() {
        let sum: f64 = LEVELS.iter().map(|l| l.1).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    }

    #[test]
    fn build_produces_regions() {
        match build(Scale(0.2), 4) {
            BuiltWorkload::Regions(r) => {
                let cycles = Scale(0.2).iters(PAPER_ITERS);
                assert_eq!(r.len(), 3 + cycles * LEVELS.len());
            }
            _ => panic!("AMG is work-sharing"),
        }
    }
}
