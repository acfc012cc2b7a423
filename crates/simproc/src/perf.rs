//! Per-core analytic timing model.
//!
//! A work chunk carries an instruction count, LLC miss counts, and a cost
//! profile (base CPI and memory-level parallelism). The *latency-bound*
//! time to execute it at core frequency `f_c` and uncore frequency `f_u`
//! follows a two-term model:
//!
//! ```text
//! seconds/instruction = cpi / f_c  +  tipi · t_miss(f_u) / mlp
//! t_miss(f_u)         = uncore_cycles / f_u + t_dram
//! ```
//!
//! * The first term is pipeline time: compute-bound chunks (`tipi → 0`)
//!   scale inversely with core frequency.
//! * The second term is exposed memory stall per instruction. Each LLC
//!   miss pays a latency with an uncore-clocked component (L3 tag, ring,
//!   memory-controller queue) plus a fixed DRAM component; `mlp`
//!   outstanding misses overlap, so only `1/mlp` is exposed.
//!   Prefetch-friendly streaming kernels have high `mlp` (the hardware
//!   prefetcher hides latency); pointer-chasing code has low `mlp`.
//!
//! On top of the per-core latency bound, the engine applies a chip-level
//! **bandwidth roofline** (see [`PerfModel::bandwidth_cap`]): the uncore
//! (ring + memory controllers) sustains a bandwidth proportional to the
//! uncore frequency, capped by the DRAM peak. When aggregate miss traffic
//! demands more, every core's stall term is inflated proportionally.
//! This is what makes memory-bound kernels insensitive to *both*
//! frequency knobs above the knee (the paper's observation that Heat at
//! 1.2 GHz core / 2.2 GHz uncore runs within a few percent of
//! 2.3 GHz / 3.0 GHz) — and is what an interior uncore optimum at
//! ~2.2 GHz falls out of (Table 2).

use crate::freq::Freq;

/// Bytes transferred per LLC miss (one cache line).
pub const LINE_BYTES: f64 = 64.0;

/// Per-workload cost profile attached to each chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Base cycles per instruction with all memory references hitting in
    /// cache. Vectorized streaming kernels sit near 0.5; dependent
    /// scalar chains near 2.
    pub cpi: f64,
    /// Effective memory-level parallelism (overlapped outstanding
    /// misses, including prefetch coverage).
    pub mlp: f64,
}

impl CostProfile {
    pub const fn new(cpi: f64, mlp: f64) -> Self {
        CostProfile { cpi, mlp }
    }
}

impl Default for CostProfile {
    fn default() -> Self {
        CostProfile { cpi: 1.0, mlp: 6.0 }
    }
}

/// Machine-wide parameters of the timing model. Defaults reproduce the
/// qualitative trends of the paper's Haswell testbed (DESIGN.md §6).
#[derive(Debug, Clone)]
pub struct PerfModel {
    /// Uncore-clocked cycles on the LLC miss path.
    pub uncore_miss_cycles: f64,
    /// Fixed DRAM access component of a miss, in seconds.
    pub t_dram_s: f64,
    /// Extra exposed latency per remote-socket miss (QPI hop), seconds.
    pub t_remote_extra_s: f64,
    /// Peak DRAM bandwidth of the socket pair, bytes/second.
    pub dram_peak_bw: f64,
    /// Uncore-sustained bandwidth per GHz of uncore clock, bytes/second
    /// per GHz. `min(dram_peak_bw, bw_per_uncore_ghz · UF)` is the chip
    /// bandwidth cap; with the defaults the knee sits near 2.15 GHz.
    pub bw_per_uncore_ghz: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            uncore_miss_cycles: 110.0,
            t_dram_s: 52.0e-9,
            t_remote_extra_s: 30.0e-9,
            dram_peak_bw: 56.0e9,
            bw_per_uncore_ghz: 26.0e9,
        }
    }
}

impl PerfModel {
    /// Exposed seconds of latency for one local-socket LLC miss.
    #[inline]
    pub fn t_miss_local(&self, uf: Freq) -> f64 {
        self.uncore_miss_cycles / uf.hz() + self.t_dram_s
    }

    /// Exposed seconds of latency for one remote-socket LLC miss.
    #[inline]
    pub fn t_miss_remote(&self, uf: Freq) -> f64 {
        self.t_miss_local(uf) + self.t_remote_extra_s
    }

    /// Chip-level sustainable miss bandwidth at uncore frequency `uf`.
    #[inline]
    pub fn bandwidth_cap(&self, uf: Freq) -> f64 {
        (self.bw_per_uncore_ghz * uf.ghz()).min(self.dram_peak_bw)
    }

    /// Latency-bound seconds to execute `instructions` with the given
    /// miss counts at frequencies (`cf`, `uf`) on one core, ignoring
    /// bandwidth contention.
    pub fn latency_seconds(
        &self,
        instructions: u64,
        misses_local: u64,
        misses_remote: u64,
        profile: CostProfile,
        cf: Freq,
        uf: Freq,
    ) -> f64 {
        let compute = self.compute_seconds(instructions, profile, cf);
        compute + self.stall_seconds(misses_local, misses_remote, profile, uf)
    }

    /// Pipeline-only component of the chunk time.
    #[inline]
    pub fn compute_seconds(&self, instructions: u64, profile: CostProfile, cf: Freq) -> f64 {
        instructions as f64 * profile.cpi / cf.hz()
    }

    /// Exposed memory-stall component of the chunk time (latency bound,
    /// before bandwidth inflation).
    #[inline]
    pub fn stall_seconds(
        &self,
        misses_local: u64,
        misses_remote: u64,
        profile: CostProfile,
        uf: Freq,
    ) -> f64 {
        (misses_local as f64 * self.t_miss_local(uf)
            + misses_remote as f64 * self.t_miss_remote(uf))
            / profile.mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> PerfModel {
        PerfModel::default()
    }

    const STREAM: CostProfile = CostProfile::new(0.55, 12.0);

    #[test]
    fn compute_bound_scales_with_core_frequency() {
        let m = m();
        let slow = m.latency_seconds(1_000_000, 0, 0, STREAM, Freq(12), Freq(30));
        let fast = m.latency_seconds(1_000_000, 0, 0, STREAM, Freq(23), Freq(30));
        let ratio = slow / fast;
        assert!(
            (ratio - 23.0 / 12.0).abs() < 1e-9,
            "pure compute time must scale exactly with CF, got ratio {ratio}"
        );
    }

    #[test]
    fn memory_bound_latency_insensitive_to_core_frequency() {
        let m = m();
        // TIPI = 0.064 (paper's Heat range).
        let n = 1_000_000u64;
        let misses = (n as f64 * 0.064) as u64;
        let slow = m.latency_seconds(n, misses, 0, STREAM, Freq(12), Freq(22));
        let fast = m.latency_seconds(n, misses, 0, STREAM, Freq(23), Freq(22));
        assert!(
            slow / fast < 1.5,
            "memory-bound time must be far from CF-proportional, got {}",
            slow / fast
        );
    }

    #[test]
    fn miss_latency_saturates_with_uncore_frequency() {
        let m = m();
        let at_min = m.t_miss_local(Freq(12));
        let at_22 = m.t_miss_local(Freq(22));
        let at_max = m.t_miss_local(Freq(30));
        assert!(at_min > at_22 && at_22 > at_max);
        assert!(
            (at_min - at_22) > 2.0 * (at_22 - at_max),
            "diminishing returns above 2.2 GHz"
        );
    }

    #[test]
    fn bandwidth_cap_has_knee_below_max_uncore() {
        let m = m();
        // Below the knee the cap scales with UF...
        assert!(m.bandwidth_cap(Freq(12)) < m.bandwidth_cap(Freq(20)));
        // ...and above it the DRAM peak pins it flat.
        assert_eq!(m.bandwidth_cap(Freq(23)), m.dram_peak_bw);
        assert_eq!(m.bandwidth_cap(Freq(30)), m.dram_peak_bw);
    }

    #[test]
    fn remote_misses_cost_more() {
        let m = m();
        assert!(m.t_miss_remote(Freq(22)) > m.t_miss_local(Freq(22)));
    }

    #[test]
    fn low_mlp_exposes_more_stall() {
        let m = m();
        let chase = CostProfile::new(1.0, 2.0);
        let stream = CostProfile::new(1.0, 16.0);
        assert!(
            m.stall_seconds(1000, 0, chase, Freq(22)) > m.stall_seconds(1000, 0, stream, Freq(22))
        );
    }
}
