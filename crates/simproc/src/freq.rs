//! Frequency domains and machine specifications.
//!
//! Frequencies are represented as integer multiples of 100 MHz (the
//! granularity of both DVFS P-states and the UFS ratio field on Intel
//! machines), which keeps arithmetic exact. The evaluation machine of the
//! paper exposes 12 core levels (1.2–2.3 GHz) and 19 uncore levels
//! (1.2–3.0 GHz).

use std::fmt;
use std::sync::LazyLock;

/// A frequency in units of 100 MHz ("ratio" in Intel terminology).
///
/// `Freq(23)` is 2.3 GHz. Ordering and arithmetic are derived from the
/// inner integer, so frequency comparisons are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(pub u32);

impl Freq {
    /// Frequency in hertz.
    #[inline]
    pub fn hz(self) -> f64 {
        self.0 as f64 * 100.0e6
    }

    /// Frequency in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 as f64 / 10.0
    }

    /// Construct from gigahertz, rounding to the nearest 100 MHz step.
    pub fn from_ghz(ghz: f64) -> Self {
        Freq((ghz * 10.0).round() as u32)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}GHz", self.ghz())
    }
}

/// An ordered, contiguous range of frequency levels for one domain
/// (core or uncore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqDomain {
    min: Freq,
    max: Freq,
}

impl FreqDomain {
    /// Create a domain spanning `min..=max` in 100 MHz steps.
    ///
    /// # Panics
    /// Panics if `min > max` or `min` is zero.
    pub fn new(min: Freq, max: Freq) -> Self {
        assert!(min.0 > 0, "frequency domain must not contain 0");
        assert!(min <= max, "min must not exceed max");
        FreqDomain { min, max }
    }

    /// Lowest frequency of the domain.
    #[inline]
    pub fn min(&self) -> Freq {
        self.min
    }

    /// Highest frequency of the domain.
    #[inline]
    pub fn max(&self) -> Freq {
        self.max
    }

    /// Number of levels in the domain.
    #[inline]
    pub fn len(&self) -> usize {
        (self.max.0 - self.min.0 + 1) as usize
    }

    /// Domains are never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `f` is a valid level of this domain.
    #[inline]
    pub fn contains(&self, f: Freq) -> bool {
        self.min <= f && f <= self.max
    }

    /// Index of `f` within the domain (0 = min).
    ///
    /// # Panics
    /// Panics if `f` is outside the domain.
    #[inline]
    pub fn index_of(&self, f: Freq) -> usize {
        assert!(
            self.contains(f),
            "{f} outside domain {}..={}",
            self.min,
            self.max
        );
        (f.0 - self.min.0) as usize
    }

    /// Frequency at `index` (0 = min).
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn at(&self, index: usize) -> Freq {
        assert!(index < self.len(), "index {index} out of range");
        Freq(self.min.0 + index as u32)
    }

    /// Clamp an arbitrary frequency into the domain.
    #[inline]
    pub fn clamp(&self, f: Freq) -> Freq {
        Freq(f.0.clamp(self.min.0, self.max.0))
    }

    /// Iterate all levels from min to max.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Freq> + '_ {
        (self.min.0..=self.max.0).map(Freq)
    }

    /// The middle level (lower median for even-sized domains).
    pub fn mid(&self) -> Freq {
        Freq((self.min.0 + self.max.0) / 2)
    }
}

/// Static description of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable model name.
    pub name: String,
    /// Number of physical cores (all threads pinned 1:1 in the paper).
    pub n_cores: usize,
    /// Core DVFS domain.
    pub core: FreqDomain,
    /// Uncore UFS domain.
    pub uncore: FreqDomain,
    /// Virtual-time step of the discrete-event engine, in nanoseconds.
    /// RAPL updates once per quantum, matching the 1 ms MSR update
    /// cadence of Haswell.
    pub quantum_ns: u64,
}

impl MachineSpec {
    /// Sanity-check invariants (used by property tests).
    pub fn validate(&self) -> Result<(), String> {
        if self.n_cores == 0 {
            return Err("machine must have at least one core".into());
        }
        if self.quantum_ns == 0 {
            return Err("quantum must be positive".into());
        }
        Ok(())
    }
}

/// The paper's evaluation machine: Intel Xeon Haswell E5-2650 v3,
/// 20 cores, core 1.2–2.3 GHz, uncore 1.2–3.0 GHz, RAPL updated every
/// 1 ms.
pub static HASWELL_2650V3: LazyLock<MachineSpec> = LazyLock::new(|| MachineSpec {
    name: "Intel Xeon E5-2650 v3 (simulated)".to_string(),
    n_cores: 20,
    core: FreqDomain::new(Freq(12), Freq(23)),
    uncore: FreqDomain::new(Freq(12), Freq(30)),
    quantum_ns: 1_000_000,
});

/// A small hypothetical machine with seven levels (A–G) in both domains,
/// mirroring the worked examples in Figures 4–9 of the paper. Useful in
/// unit tests where hand-checking the exploration steps matters.
pub static HYPOTHETICAL7: LazyLock<MachineSpec> = LazyLock::new(|| MachineSpec {
    name: "hypothetical 7-level machine (paper Figs. 4-9)".to_string(),
    n_cores: 4,
    core: FreqDomain::new(Freq(10), Freq(16)),
    uncore: FreqDomain::new(Freq(10), Freq(16)),
    quantum_ns: 1_000_000,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_display_and_conversions() {
        let f = Freq(23);
        assert_eq!(f.ghz(), 2.3);
        assert_eq!(f.hz(), 2.3e9);
        assert_eq!(format!("{f}"), "2.3GHz");
        assert_eq!(Freq::from_ghz(2.3), Freq(23));
        assert_eq!(Freq::from_ghz(1.2000001), Freq(12));
    }

    #[test]
    fn domain_len_matches_paper_machine() {
        let m = &*HASWELL_2650V3;
        assert_eq!(m.core.len(), 12, "12 core levels 1.2..=2.3");
        assert_eq!(m.uncore.len(), 19, "19 uncore levels 1.2..=3.0");
    }

    #[test]
    fn domain_index_roundtrip() {
        let d = FreqDomain::new(Freq(12), Freq(30));
        for (i, f) in d.iter().enumerate() {
            assert_eq!(d.index_of(f), i);
            assert_eq!(d.at(i), f);
        }
    }

    #[test]
    fn domain_clamp() {
        let d = FreqDomain::new(Freq(12), Freq(23));
        assert_eq!(d.clamp(Freq(5)), Freq(12));
        assert_eq!(d.clamp(Freq(99)), Freq(23));
        assert_eq!(d.clamp(Freq(15)), Freq(15));
    }

    #[test]
    fn domain_mid() {
        assert_eq!(FreqDomain::new(Freq(10), Freq(16)).mid(), Freq(13));
        assert_eq!(FreqDomain::new(Freq(12), Freq(23)).mid(), Freq(17));
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn index_of_out_of_domain_panics() {
        FreqDomain::new(Freq(12), Freq(23)).index_of(Freq(30));
    }

    #[test]
    fn machine_spec_validates() {
        assert!(HASWELL_2650V3.validate().is_ok());
        assert!(HYPOTHETICAL7.validate().is_ok());
    }
}
