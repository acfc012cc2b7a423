//! # simproc — a simulated multicore processor with DVFS and UFS
//!
//! This crate is the hardware substrate for the Cuttlefish reproduction.
//! The original paper (SC'21) runs on a 20-core Intel Haswell Xeon
//! E5-2650 v3 and observes/actuates the machine exclusively through:
//!
//! * model-specific registers (MSRs): `INST_RETIRED.ANY`, the uncore
//!   `TOR_INSERT.MISS_{LOCAL,REMOTE}` counters, and the RAPL package
//!   energy counter, and
//! * two frequency knobs: per-chip core DVFS (1.2–2.3 GHz in 0.1 GHz
//!   steps) and uncore frequency scaling via MSR `0x620`
//!   (1.2–3.0 GHz).
//!
//! `simproc` reproduces exactly that interface over an analytic
//! performance and power model, advanced by a discrete-event engine in
//! fixed quanta of virtual time. Anything that talks to the machine only
//! through [`msr`] reads/writes — as the Cuttlefish runtime does — cannot
//! tell the difference structurally, and the first-order physics
//! (memory latency `∝ 1/UF + t_DRAM`, dynamic power `∝ V²·f`) gives the
//! same qualitative energy/performance trade-offs the paper exploits.
//!
//! ## Layout
//!
//! * [`freq`] — frequency domains and level tables (integer 100 MHz units)
//! * [`perf`] — per-core timing model
//! * [`power`] — package power model
//! * [`msr`] — MSR register file, RAPL accumulation, MSR-SAFE-like sessions
//! * [`engine`] — the discrete-event engine: cores, chunks, counters
//! * [`governor`] — the `Default` baseline (performance governor + BIOS
//!   "Auto" uncore controller)
//! * [`profile`] — counter snapshot/delta helpers (TIPI/JPI arithmetic)
//! * [`rng`] — [`SplitMix64`], the seeded generator behind every random
//!   choice in the simulation
//!
//! ## Quick example
//!
//! ```
//! use simproc::engine::{Chunk, SimProcessor, Workload};
//! use simproc::freq::HASWELL_2650V3;
//!
//! /// A trivial workload: every core executes one compute-bound chunk.
//! struct OneShot { handed: Vec<bool> }
//! impl Workload for OneShot {
//!     fn next_chunk(&mut self, core: usize, _now_ns: u64) -> Option<Chunk> {
//!         if self.handed[core] { return None; }
//!         self.handed[core] = true;
//!         Some(Chunk::new(50_000_000, 0, 0))
//!     }
//!     fn is_done(&self) -> bool { self.handed.iter().all(|&h| h) }
//! }
//!
//! let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
//! let mut wl = OneShot { handed: vec![false; proc.n_cores()] };
//! while !proc.workload_drained(&wl) {
//!     proc.step(&mut wl);
//! }
//! assert!(proc.now_ns() > 0);
//! assert!(proc.total_energy_joules() > 0.0);
//! ```

pub mod engine;
pub mod freq;
pub mod governor;
pub mod msr;
pub mod perf;
pub mod power;
pub mod profile;
pub mod rng;

pub use engine::{Chunk, SimProcessor, Workload};
pub use freq::{Freq, FreqDomain, MachineSpec, HASWELL_2650V3};
pub use governor::DefaultGovernor;
pub use rng::SplitMix64;
