//! HPCCG — High Performance Computing Conjugate Gradients (Mantevo,
//! paper \[1, 11\]). Configuration from Table 1: 256×256×1024 domain,
//! 149 CG iterations, work-sharing.
//!
//! ## Phase structure and cost model
//!
//! HPCCG is a leaner CG than MiniFE: the 27-point SpMV dominates. With
//! HPCCG's row-major band structure the matrix stream costs ~12 B per
//! nonzero and `x` enjoys better reuse than MiniFE's unstructured
//! assembly, landing SpMV at TIPI ≈ 0.122 — the paper's dominant
//! 0.120–0.124 slab (76 % of samples, Table 2). Dot products
//! (TIPI ≈ 0.061, drifting with vector cache residency) give the
//! bottom of the range (0.060) and a periodic residual-recomputation
//! phase (TIPI ≈ 0.146) the top (0.148). Dot/waxpby drift across
//! iterations walks enough bins for the ~17 distinct slabs of Table 1.

use crate::cache::{KernelCost, Phase};
use crate::{Benchmark, BuiltWorkload, Scale, Style};
use tasking::Region;

/// Paper execution time (Table 1).
pub const PAPER_TIME_S: f64 = 60.0;
/// Paper CG iteration count.
pub const PAPER_ITERS: usize = 149;
const CORES: f64 = 20.0;

/// Banded 27-point SpMV: TIPI ≈ 0.122.
pub fn spmv_kernel() -> KernelCost {
    KernelCost::new(3.2, 0.39, 0.7, 9.0)
}

/// Dot-product kernel for iteration `iter`: residency drift cycles the
/// TIPI through [0.060, 0.072).
pub fn dot_kernel(iter: usize) -> KernelCost {
    let t = (iter % 4) as f64 / 4.0;
    let tipi = 0.0605 + t * 0.011;
    KernelCost::new(3.5, tipi * 3.5, 0.7, 14.0)
}

/// Vector-update kernel for iteration `iter`: TIPI in [0.110, 0.118).
pub fn waxpby_kernel(iter: usize) -> KernelCost {
    let t = (iter % 3) as f64 / 3.0;
    let tipi = 0.111 + t * 0.006;
    KernelCost::new(3.3, tipi * 3.3, 0.55, 14.0)
}

/// Periodic residual recomputation: TIPI ≈ 0.146 (the range top).
pub fn residual_kernel() -> KernelCost {
    KernelCost::new(3.3, 0.482, 0.7, 8.0)
}

/// Structure-generation prologue kernels.
pub fn prologue_kernel(i: usize) -> KernelCost {
    let tipi = [0.090, 0.102][i % 2];
    KernelCost::new(4.0, tipi * 4.0, 0.8, 9.0)
}

/// Build the work-sharing workload.
pub fn build(scale: Scale, n_cores: usize) -> BuiltWorkload {
    let iters = scale.iters(PAPER_ITERS);
    let total_core_s = PAPER_TIME_S * CORES * scale.0;
    let prologue_core_s = total_core_s * 0.02;
    let iter_core_s = (total_core_s - prologue_core_s) / iters as f64;

    let mut regions: Vec<Region> = Vec::new();
    for i in 0..2 {
        let ph = Phase::new("hpccg.gen", prologue_kernel(i), prologue_core_s / 2.0);
        regions.push(ph.region(n_cores, 6));
    }
    for iter in 0..iters {
        regions
            .push(Phase::new("hpccg.spmv", spmv_kernel(), iter_core_s * 0.76).region(n_cores, 6));
        regions
            .push(Phase::new("hpccg.dot", dot_kernel(iter), iter_core_s * 0.12).region(n_cores, 6));
        regions.push(
            Phase::new("hpccg.waxpby", waxpby_kernel(iter), iter_core_s * 0.12).region(n_cores, 6),
        );
        if iter % 10 == 9 {
            regions.push(
                Phase::new("hpccg.residual", residual_kernel(), iter_core_s * 0.08)
                    .region(n_cores, 6),
            );
        }
    }
    BuiltWorkload::Regions(regions)
}

/// Table 1 row.
pub fn benchmark(scale: Scale) -> Benchmark {
    Benchmark::new(
        "HPCCG",
        Style::WorkSharing,
        PAPER_TIME_S,
        (0.060, 0.148),
        move |n| build(scale, n),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::slab_of;

    #[test]
    fn spmv_tipi_in_dominant_slab() {
        let t = spmv_kernel().tipi();
        assert!((0.120..0.124).contains(&t), "spmv TIPI {t}");
        assert_eq!(slab_of(t), 30);
    }

    #[test]
    fn dot_drift_covers_range_bottom() {
        let mut min = f64::INFINITY;
        let mut slabs = std::collections::BTreeSet::new();
        for iter in 0..8 {
            let t = dot_kernel(iter).tipi();
            min = min.min(t);
            slabs.insert(slab_of(t));
        }
        assert!((0.060..0.062).contains(&min), "range bottom {min}");
        assert!(slabs.len() >= 2);
    }

    #[test]
    fn residual_covers_range_top() {
        let t = residual_kernel().tipi();
        assert!((0.144..0.148).contains(&t), "residual TIPI {t}");
    }

    #[test]
    fn build_produces_expected_region_count() {
        let iters = Scale(0.1).iters(PAPER_ITERS);
        match build(Scale(0.1), 4) {
            BuiltWorkload::Regions(r) => {
                // 2 prologue + 3/iter + every-10th residual.
                let expect = 2 + iters * 3 + iters / 10;
                assert_eq!(r.len(), expect);
            }
            _ => panic!("HPCCG is work-sharing"),
        }
    }
}
