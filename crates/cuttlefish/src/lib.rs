//! # cuttlefish — energy-efficient multicore execution via DVFS + UFS
//!
//! A Rust reproduction of **"Cuttlefish: Library for Achieving Energy
//! Efficiency in Multicore Parallel Programs"** (Kumar, Gupta, Kumar,
//! Bhalachandra — SC 2021).
//!
//! Cuttlefish is a *programming-model-oblivious* runtime: it never
//! inspects the application. A daemon wakes every `Tinv` (20 ms by
//! default), reads hardware counters, and computes two quantities:
//!
//! * **TIPI** — TOR inserts per instruction — identifying the current
//!   memory access pattern (MAP), and
//! * **JPI** — joules per instruction — the energy-efficiency metric to
//!   minimize.
//!
//! For every distinct TIPI range (0.004-wide slab) it discovers, the
//! daemon explores the core-frequency (DVFS) axis and then the
//! uncore-frequency (UFS) axis for the JPI-minimal setting, using:
//!
//! * linear descent in steps of two with 10-sample JPI averaging and
//!   boundary tie-breaks (§4.3, Algorithm 2, Figure 5);
//! * an uncore exploration window estimated from the optimal core
//!   frequency (§4.3, Algorithm 3);
//! * exploration-bound inheritance from neighbouring TIPI ranges in a
//!   sorted list (§4.4) and bound revalidation that propagates
//!   mid-exploration discoveries to neighbours (§4.5).
//!
//! ## Using the library
//!
//! The paper's C/C++ API is two calls — `cuttlefish::start()` and
//! `cuttlefish::stop()` around the region to tune. This crate keeps
//! that shape for real-time use ([`api::start`]/[`api::Handle::stop`]
//! over any [`backend::PowerBackend`]) and additionally exposes the
//! daemon as a deterministic state machine ([`daemon::Daemon`]) plus a
//! simulation driver ([`driver::CuttlefishDriver`]) that plugs into
//! `simproc` for reproducible experiments.
//!
//! ```
//! use cuttlefish::{Config, Policy};
//! use cuttlefish::driver::CuttlefishDriver;
//! use simproc::{SimProcessor, HASWELL_2650V3};
//! use simproc::engine::{Chunk, Workload};
//!
//! // A steady compute-bound workload.
//! struct Steady;
//! impl Workload for Steady {
//!     fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
//!         Some(Chunk::new(2_000_000, 1_500, 500))
//!     }
//!     fn is_done(&self) -> bool { false }
//! }
//!
//! let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
//! let mut driver = CuttlefishDriver::new(&proc, Config::default());
//! let mut wl = Steady;
//! for _ in 0..8_000 {                      // 8 virtual seconds
//!     proc.step(&mut wl);
//!     driver.on_quantum(&mut proc);
//! }
//! // The daemon has discovered the single TIPI range and tuned it.
//! assert_eq!(driver.daemon().nodes().count(), 1);
//! ```

pub mod api;
pub mod backend;
pub mod controller;
pub mod daemon;
pub mod driver;
pub mod explore;
pub mod list;
pub mod node;
pub mod tipi;
pub mod ufrange;

pub use controller::{
    FrequencyController, NodePolicy, Ondemand, Oracle, OracleDerivation, OracleEntry, OracleTable,
    PidGains, PidUncore, Pinned, TraceSample,
};
pub use daemon::Daemon;
pub use tipi::TipiSlab;

/// Lock `m`, recovering the guard if a thread panicked while holding
/// it: a daemon that dies mid-publish must not turn the caller's final
/// report read, or the platform restore, into a panic.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Which frequency domains Cuttlefish is allowed to adapt — the three
/// build-time variants of the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Adapt both core (DVFS) and uncore (UFS): "Cuttlefish".
    Both,
    /// Adapt only the core frequency, uncore pinned at max:
    /// "Cuttlefish-Core".
    CoreOnly,
    /// Adapt only the uncore frequency, cores pinned at max:
    /// "Cuttlefish-Uncore".
    UncoreOnly,
}

impl Policy {
    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Both => "Cuttlefish",
            Policy::CoreOnly => "Cuttlefish-Core",
            Policy::UncoreOnly => "Cuttlefish-Uncore",
        }
    }
}

/// Runtime configuration (paper defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Profiling interval. 20 ms default (§5.4 picks it as the best
    /// trade-off; RAPL refreshes every 1 ms on Haswell).
    pub tinv_ns: u64,
    /// Warm-up before the daemon acts (§4.1: cold-cache TIPI/JPI
    /// fluctuation at startup), 2 s default.
    pub warmup_ns: u64,
    /// Frequency domains to adapt.
    pub policy: Policy,
    /// JPI readings averaged per frequency before comparing (§4.3).
    pub samples_per_freq: u32,
    /// TIPI slab width (§3.2).
    pub slab_width: f64,
    /// Algorithm 3's window multiplier (the paper's constant 4).
    pub uf_window_mult: f64,
    /// §4.4 optimization: new TIPI nodes inherit exploration bounds
    /// from neighbours. Disable for ablation studies only.
    pub neighbor_inheritance: bool,
    /// §4.5 optimization: bound changes propagate to neighbours
    /// mid-exploration. Disable for ablation studies only.
    pub revalidation: bool,
    /// Optional idle guard (extension beyond the paper, used for MPI+X
    /// executions): a sample whose instruction count falls below this
    /// fraction of the peak per-interval count is treated like a TIPI
    /// transition — its JPI is not recorded. Windows straddling a
    /// compute→barrier boundary otherwise poison the JPI averages with
    /// idle-dominated readings. `None` (default) reproduces the paper's
    /// algorithm exactly.
    pub idle_guard: Option<f64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            tinv_ns: 20_000_000,
            warmup_ns: 2_000_000_000,
            policy: Policy::Both,
            samples_per_freq: 10,
            slab_width: 0.004,
            uf_window_mult: 4.0,
            neighbor_inheritance: true,
            revalidation: true,
            idle_guard: None,
        }
    }
}

impl Config {
    /// Config with a different `Tinv` (for the Table 3 sensitivity
    /// study).
    pub fn with_tinv_ms(mut self, ms: u64) -> Self {
        self.tinv_ns = ms * 1_000_000;
        self
    }

    /// Config with a different policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = Config::default();
        assert_eq!(c.tinv_ns, 20_000_000);
        assert_eq!(c.warmup_ns, 2_000_000_000);
        assert_eq!(c.samples_per_freq, 10);
        assert_eq!(c.slab_width, 0.004);
        assert_eq!(c.uf_window_mult, 4.0);
        assert_eq!(c.policy, Policy::Both);
    }

    #[test]
    fn policy_names() {
        assert_eq!(Policy::Both.name(), "Cuttlefish");
        assert_eq!(Policy::CoreOnly.name(), "Cuttlefish-Core");
        assert_eq!(Policy::UncoreOnly.name(), "Cuttlefish-Uncore");
    }

    #[test]
    fn config_builders() {
        let c = Config::default()
            .with_tinv_ms(40)
            .with_policy(Policy::CoreOnly);
        assert_eq!(c.tinv_ns, 40_000_000);
        assert_eq!(c.policy, Policy::CoreOnly);
    }
}
