//! Declarative workload descriptions — the `workload` field of a
//! `bench::scenario::Scenario`.
//!
//! A [`WorkloadSpec`] is plain data (`Clone + PartialEq`, with a JSON
//! codec in `bench::scenario`) naming *what* runs: either one of the paper's Table 1 benchmarks at
//! a given scale under a programming model, or a synthetic chunk
//! stream described phase by phase. [`WorkloadSpec::build`] turns the
//! description into the schedulable [`Workload`] the engine steps —
//! the one construction path shared by the evaluation grid, the
//! `--scenario` CLI, the examples, and the equivalence tests.

use crate::{openmp_suite, Benchmark, ProgModel, Scale};
use simproc::engine::{Chunk, Workload};
use simproc::perf::CostProfile;

/// One phase of a synthetic chunk stream: `chunks` identical chunks
/// with the given counter footprint and cost profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPhase {
    /// Chunks handed out per cycle of this phase.
    pub chunks: u64,
    /// Instructions retired per chunk.
    pub instructions: u64,
    /// LLC misses served by the local socket, per chunk.
    pub misses_local: u64,
    /// LLC misses served by the remote socket, per chunk.
    pub misses_remote: u64,
    /// Cycles per instruction of the pipeline model.
    pub cpi: f64,
    /// Memory-level parallelism of the stall model.
    pub mlp: f64,
}

impl ChunkPhase {
    /// The chunk this phase hands out.
    pub fn chunk(&self) -> Chunk {
        Chunk::new(self.instructions, self.misses_local, self.misses_remote)
            .with_profile(CostProfile::new(self.cpi, self.mlp))
    }

    /// A memory-bound streaming phase (TIPI ≈ 0.064, the paper's
    /// Heat-like access pattern).
    pub fn streaming(chunks: u64) -> Self {
        ChunkPhase {
            chunks,
            instructions: 1_000_000,
            misses_local: 56_000,
            misses_remote: 8_000,
            cpi: 0.55,
            mlp: 12.0,
        }
    }

    /// A cache-resident compute-bound phase (TIPI ≈ 0.001).
    pub fn compute(chunks: u64) -> Self {
        ChunkPhase {
            chunks,
            instructions: 1_000_000,
            misses_local: 800,
            misses_remote: 200,
            cpi: 0.9,
            mlp: 4.0,
        }
    }
}

/// A synthetic workload: the listed phases cycled in order until
/// `total_chunks` chunks were handed out (`None` = an endless stream —
/// pair it with a scenario duration).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Phases cycled in order.
    pub phases: Vec<ChunkPhase>,
    /// Total chunk budget; `None` streams forever.
    pub total_chunks: Option<u64>,
}

impl SyntheticSpec {
    /// Chunks per full cycle of the phase list.
    pub fn cycle_len(&self) -> u64 {
        self.phases.iter().map(|p| p.chunks.max(1)).sum()
    }

    /// One full cycle of chunks, in phase order — the per-superstep
    /// unit of a bulk-synchronous synthetic scenario.
    pub fn cycle_chunks(&self) -> Vec<Chunk> {
        let mut out = Vec::new();
        for phase in &self.phases {
            for _ in 0..phase.chunks.max(1) {
                out.push(phase.chunk());
            }
        }
        out
    }
}

/// The schedulable form of a [`SyntheticSpec`]: hands out one chunk per
/// `next_chunk` call, cycling through the phases, until the budget is
/// exhausted.
pub struct SyntheticWorkload {
    spec: SyntheticSpec,
    handed: u64,
}

impl SyntheticWorkload {
    /// Build from a spec.
    ///
    /// # Panics
    /// Panics when the spec has no phases (there is nothing to stream).
    pub fn new(spec: SyntheticSpec) -> Self {
        assert!(
            !spec.phases.is_empty(),
            "synthetic workload needs at least one phase"
        );
        SyntheticWorkload { spec, handed: 0 }
    }

    fn current_chunk(&self) -> Chunk {
        let mut pos = self.handed % self.spec.cycle_len();
        for phase in &self.spec.phases {
            let n = phase.chunks.max(1);
            if pos < n {
                return phase.chunk();
            }
            pos -= n;
        }
        unreachable!("position is within the cycle by construction")
    }
}

impl Workload for SyntheticWorkload {
    fn next_chunk(&mut self, _core: usize, _now_ns: u64) -> Option<Chunk> {
        if let Some(total) = self.spec.total_chunks {
            if self.handed >= total {
                return None;
            }
        }
        let chunk = self.current_chunk();
        self.handed += 1;
        Some(chunk)
    }

    fn is_done(&self) -> bool {
        match self.spec.total_chunks {
            Some(total) => self.handed >= total,
            None => false,
        }
    }
}

/// Declarative description of what a scenario runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// One Table 1 benchmark, resolved by name, instantiated under
    /// `model` at `scale` (1.0 = the paper's full-length runs).
    Bench {
        /// Benchmark name (e.g. `"Heat-irt"`).
        name: String,
        /// Programming model the scheduler mimics.
        model: ProgModel,
        /// Workload scale factor.
        scale: f64,
    },
    /// A synthetic chunk stream.
    Synthetic(SyntheticSpec),
}

impl WorkloadSpec {
    /// Benchmark-backed spec.
    pub fn bench(name: impl Into<String>, model: ProgModel, scale: f64) -> Self {
        WorkloadSpec::Bench {
            name: name.into(),
            model,
            scale,
        }
    }

    /// Display name (the benchmark's, or `"synthetic"`).
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Bench { name, .. } => name.clone(),
            WorkloadSpec::Synthetic(_) => "synthetic".to_string(),
        }
    }

    /// Programming model (synthetic streams schedule like OpenMP
    /// work-sharing: any idle core pulls the next chunk).
    pub fn model(&self) -> ProgModel {
        match self {
            WorkloadSpec::Bench { model, .. } => *model,
            WorkloadSpec::Synthetic(_) => ProgModel::OpenMp,
        }
    }

    /// Scale factor (1.0 for synthetic streams).
    pub fn scale(&self) -> f64 {
        match self {
            WorkloadSpec::Bench { scale, .. } => *scale,
            WorkloadSpec::Synthetic(_) => 1.0,
        }
    }

    /// The phase signature of this workload: the TIPI window its
    /// phases live in (Table 1's per-benchmark range for benchmarks, a
    /// per-phase min/max for synthetic streams). This is the key an
    /// oracle-table derivation filters trace samples with — readings
    /// outside the window are warm-up or idle noise, not a phase.
    pub fn paper_tipi_range(&self) -> Option<(f64, f64)> {
        match self {
            WorkloadSpec::Bench { .. } => self.resolve().ok().map(|b| b.paper_tipi_range),
            WorkloadSpec::Synthetic(spec) => {
                let tipis: Vec<f64> = spec.phases.iter().map(|p| p.chunk().tipi()).collect();
                let lo = tipis.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = tipis.iter().cloned().fold(0.0, f64::max);
                lo.is_finite().then_some((lo, hi))
            }
        }
    }

    /// Resolve a benchmark-backed spec against the Table 1 definitions.
    /// Every benchmark (OpenMP and HClib alike) draws from the same
    /// generator set, so resolution is by name; the model only selects
    /// the scheduler at [`build`](Self::build) time.
    pub fn resolve(&self) -> Result<Benchmark, String> {
        match self {
            WorkloadSpec::Bench { name, scale, .. } => {
                let suite = openmp_suite(Scale(*scale));
                suite
                    .into_iter()
                    .find(|b| b.name == *name)
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))
            }
            WorkloadSpec::Synthetic(_) => Err("synthetic workloads have no benchmark".into()),
        }
    }

    /// Build the schedulable workload for an `n_cores` node.
    ///
    /// # Panics
    /// Panics on an unknown benchmark name — scenario files are
    /// validated before execution, so this is a programming error.
    pub fn build(&self, n_cores: usize, seed: u64) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Bench { model, .. } => {
                let def = self.resolve().unwrap_or_else(|e| panic!("{e}"));
                def.instantiate(*model, n_cores, seed)
            }
            WorkloadSpec::Synthetic(spec) => Box::new(SyntheticWorkload::new(spec.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_spec_resolves_and_builds() {
        let spec = WorkloadSpec::bench("UTS", ProgModel::OpenMp, 0.05);
        assert_eq!(spec.name(), "UTS");
        let def = spec.resolve().unwrap();
        assert_eq!(def.name, "UTS");
        let wl = spec.build(4, 1);
        assert!(!wl.is_done());
    }

    #[test]
    fn hclib_names_resolve_from_the_shared_generator_set() {
        let spec = WorkloadSpec::bench("Heat-ws", ProgModel::HClib, 0.05);
        assert!(spec.resolve().is_ok());
        let _ = spec.build(4, 1);
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let spec = WorkloadSpec::bench("NoSuch", ProgModel::OpenMp, 0.05);
        assert!(spec.resolve().is_err());
    }

    #[test]
    fn synthetic_budget_and_phases() {
        let spec = SyntheticSpec {
            phases: vec![ChunkPhase::streaming(2), ChunkPhase::compute(3)],
            total_chunks: Some(7),
        };
        assert_eq!(spec.cycle_len(), 5);
        assert_eq!(spec.cycle_chunks().len(), 5);
        let mut wl = SyntheticWorkload::new(spec);
        let mut tipis = Vec::new();
        while let Some(c) = wl.next_chunk(0, 0) {
            tipis.push(c.tipi());
        }
        assert_eq!(tipis.len(), 7);
        // 2 streaming, 3 compute, then the cycle restarts: 2 streaming.
        assert!(tipis[0] > 0.05 && tipis[1] > 0.05);
        assert!(tipis[2] < 0.01 && tipis[4] < 0.01);
        assert!(tipis[5] > 0.05 && tipis[6] > 0.05);
        assert!(wl.is_done());
    }

    #[test]
    fn endless_synthetic_never_finishes() {
        let spec = SyntheticSpec {
            phases: vec![ChunkPhase::streaming(1)],
            total_chunks: None,
        };
        let mut wl = SyntheticWorkload::new(spec);
        for _ in 0..100 {
            assert!(wl.next_chunk(0, 0).is_some());
        }
        assert!(!wl.is_done());
    }
}
