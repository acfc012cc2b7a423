//! Property-based tests of the simulated processor's physical
//! invariants: conservation, monotonicity, and counter consistency
//! must hold for any workload and any frequency program. Each property
//! runs `CASES` seeded cases; case `i` draws from `SplitMix64::new(i)`,
//! and a failure names its case.

use simproc::engine::{Chunk, SimProcessor, Workload};
use simproc::freq::{Freq, HASWELL_2650V3};
use simproc::msr;
use simproc::perf::CostProfile;
use simproc::SplitMix64;
use std::ops::Range;

const CASES: u64 = 48;

/// A uniform draw from `range`.
fn pick(rng: &mut SplitMix64, range: Range<usize>) -> usize {
    range.start + rng.below(range.len())
}

/// Workload replaying a fixed list of chunks round-robin across cores.
struct Replay {
    chunks: Vec<Chunk>,
    next: usize,
}

impl Workload for Replay {
    fn next_chunk(&mut self, _core: usize, _t: u64) -> Option<Chunk> {
        if self.next >= self.chunks.len() {
            return None;
        }
        let c = self.chunks[self.next].clone();
        self.next += 1;
        Some(c)
    }
    fn is_done(&self) -> bool {
        self.next >= self.chunks.len()
    }
}

/// A `lens`-long list of random chunks.
fn chunks(rng: &mut SplitMix64, lens: Range<usize>) -> Vec<Chunk> {
    let len = pick(rng, lens);
    (0..len)
        .map(|_| {
            let instr = pick(rng, 100_000..5_000_000) as u64;
            let tipi = rng.uniform(0.0, 0.2);
            let cpi = rng.uniform(0.4, 2.5);
            let mlp = rng.uniform(2.0, 24.0);
            let misses = (instr as f64 * tipi) as u64;
            Chunk::new(instr, misses * 7 / 10, misses * 3 / 10)
                .with_profile(CostProfile::new(cpi, mlp))
        })
        .collect()
}

/// Instructions retired equal instructions submitted; energy and
/// time are positive and finite.
#[test]
fn work_and_energy_conservation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let chunks = chunks(&mut rng, 1..60);
        let cf = pick(&mut rng, 12..24) as u32;
        let uf = pick(&mut rng, 12..31) as u32;
        let expected: u64 = chunks.iter().map(|c| c.instructions).sum();
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        p.set_core_freq(Freq(cf));
        p.set_uncore_freq(Freq(uf));
        let mut wl = Replay { chunks, next: 0 };
        let mut guard = 0;
        while !p.workload_drained(&wl) {
            p.step(&mut wl);
            guard += 1;
            assert!(guard < 10_000_000, "case {case}: engine stalled");
        }
        let measured = p.total_instructions();
        assert!(
            (measured - expected as f64).abs() / (expected as f64) < 1e-9,
            "case {case}: instructions: {measured} vs {expected}"
        );
        assert!(
            p.total_energy_joules().is_finite() && p.total_energy_joules() > 0.0,
            "case {case}"
        );
    }
}

/// Lowering the core frequency never makes any workload faster.
#[test]
fn time_monotone_in_core_frequency() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let chunks = chunks(&mut rng, 1..30);
        let uf = pick(&mut rng, 12..31) as u32;
        let run = |cf: u32| {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            p.set_core_freq(Freq(cf));
            p.set_uncore_freq(Freq(uf));
            let mut wl = Replay {
                chunks: chunks.clone(),
                next: 0,
            };
            while !p.workload_drained(&wl) {
                p.step(&mut wl);
            }
            p.now_ns()
        };
        // Quantum rounding allows equality; a *lower* frequency must
        // never win by more than one quantum.
        assert!(run(12) + 1_000_000 >= run(23), "case {case}");
    }
}

/// The RAPL MSR tracks ground-truth energy within quantization.
#[test]
fn rapl_counter_tracks_ground_truth() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let chunks = chunks(&mut rng, 1..40);
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let c0 = p.msr_read(msr::MSR_PKG_ENERGY_STATUS).unwrap();
        let mut wl = Replay { chunks, next: 0 };
        while !p.workload_drained(&wl) {
            p.step(&mut wl);
        }
        let c1 = p.msr_read(msr::MSR_PKG_ENERGY_STATUS).unwrap();
        let via_msr = (c1.wrapping_sub(c0) & 0xffff_ffff) as f64 * msr::JOULES_PER_COUNT;
        let exact = p.total_energy_joules();
        assert!(
            (via_msr - exact).abs() <= 2.0 * msr::JOULES_PER_COUNT,
            "case {case}: RAPL {via_msr} vs exact {exact}"
        );
    }
}

/// Counters are monotone non-decreasing over time.
#[test]
fn counters_monotone() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let chunks = chunks(&mut rng, 1..30);
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl = Replay { chunks, next: 0 };
        let mut prev_e = 0.0;
        let mut prev_i = 0.0;
        let mut prev_tor = 0u64;
        while !p.workload_drained(&wl) {
            p.step(&mut wl);
            let e = p.total_energy_joules();
            let i = p.total_instructions();
            let tor = p.msr_read(msr::SIM_TOR_INSERT_MISS_LOCAL).unwrap();
            assert!(e >= prev_e && i >= prev_i && tor >= prev_tor, "case {case}");
            prev_e = e;
            prev_i = i;
            prev_tor = tor;
        }
    }
}
