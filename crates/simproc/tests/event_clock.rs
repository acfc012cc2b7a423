//! Property-style equivalence suite for the virtual-clock layer:
//! event-driven stepping (fast-forwarding parked stretches through
//! `advance_idle_quanta` and busy steady-state stretches through
//! `advance_busy_quanta`) must produce *bit-identical* energy,
//! instruction, residency, and clock state to the pure quantum loop,
//! over seeded pseudo-random workload schedules.
//!
//! The schedules alternate busy windows (saturating chunk streams of
//! seed-dependent cost, some heavy enough to span many quanta — the
//! busy fast-forward's territory) with idle gaps the workload
//! announces through `next_wake_ns` — the shape of barrier waits and
//! communication windows in the cluster layer, reproduced here against
//! the engine alone.

use simproc::engine::{Chunk, SimProcessor, Workload};
use simproc::freq::{Freq, HASWELL_2650V3, HYPOTHETICAL7};
use simproc::msr::{IA32_APERF, IA32_FIXED_CTR0, IA32_MPERF, MSR_PKG_ENERGY_STATUS};
use simproc::perf::CostProfile;

/// Small deterministic PRNG (PCG-ish LCG) so the suite needs no
/// external crates and every failure is reproducible from its seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Busy windows over virtual time; outside them the workload is parked
/// and says exactly when it wakes again.
struct Bursty {
    /// `[start_ns, end_ns)` busy windows, ascending and disjoint.
    windows: Vec<(u64, u64)>,
    /// Chunk handed out within each window.
    chunks: Vec<Chunk>,
}

impl Bursty {
    fn random(rng: &mut Lcg, quantum_ns: u64, n_windows: usize) -> Self {
        let mut windows = Vec::new();
        let mut chunks = Vec::new();
        let mut t = 0u64;
        for _ in 0..n_windows {
            // Idle gap of 0..120 quanta, busy window of 1..40 quanta.
            t += rng.range(0, 120) * quantum_ns;
            let start = t;
            t += rng.range(1, 40) * quantum_ns;
            windows.push((start, t));
            let memoryish = rng.next().is_multiple_of(2);
            let (ml, mr, profile) = if memoryish {
                (56_000, 8_000, CostProfile::new(0.55, 12.0))
            } else {
                (rng.range(0, 2_000), 0, CostProfile::new(0.9, 4.0))
            };
            // A third of the chunks are heavy — hundreds of quanta of
            // execution — so busy stretches long enough to fast-forward
            // actually occur alongside the sub-quantum churn.
            let instr = if rng.next().is_multiple_of(3) {
                rng.range(40_000_000, 800_000_000)
            } else {
                rng.range(100_000, 2_000_000)
            };
            chunks.push(Chunk::new(instr, ml, mr).with_profile(profile));
        }
        Bursty { windows, chunks }
    }
}

impl Workload for Bursty {
    fn next_chunk(&mut self, _core: usize, now_ns: u64) -> Option<Chunk> {
        self.windows
            .iter()
            .position(|&(s, e)| s <= now_ns && now_ns < e)
            .map(|i| self.chunks[i].clone())
    }

    fn is_done(&self) -> bool {
        false
    }

    fn next_wake_ns(&self, now_ns: u64) -> Option<u64> {
        for &(s, e) in &self.windows {
            if now_ns < e {
                return Some(s.max(now_ns));
            }
        }
        None
    }
}

#[derive(PartialEq, Debug)]
struct Fingerprint {
    energy_bits: u64,
    instructions_bits: u64,
    time_ns: u64,
    residency: Vec<((u32, u32), u64)>,
    rapl: u64,
    core0: (u64, u64, u64),
    power_bits: u64,
    overload_bits: u64,
}

fn fingerprint(p: &SimProcessor) -> Fingerprint {
    Fingerprint {
        energy_bits: p.total_energy_joules().to_bits(),
        instructions_bits: p.total_instructions().to_bits(),
        time_ns: p.now_ns(),
        residency: p
            .frequency_residency()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect(),
        rapl: p.msr_read(MSR_PKG_ENERGY_STATUS).unwrap(),
        core0: (
            p.msr_read_core(0, IA32_FIXED_CTR0).unwrap(),
            p.msr_read_core(0, IA32_APERF).unwrap(),
            p.msr_read_core(0, IA32_MPERF).unwrap(),
        ),
        power_bits: p.last_quantum().power_watts.to_bits(),
        overload_bits: p.last_quantum().overload.to_bits(),
    }
}

/// The pure quantum loop: one `step` per quantum, no exceptions.
fn run_stepped(p: &mut SimProcessor, wl: &mut Bursty, quanta: u64) {
    while p.total_quanta() < quanta {
        p.step(wl);
    }
}

/// The event-driven loop: fast-forward parked stretches to the
/// workload's announced wake and busy stretches through the engine's
/// provably interaction-free runway (both bounded by the run length),
/// stepping everything else.
fn run_events(p: &mut SimProcessor, wl: &mut Bursty, quanta: u64) {
    let q = p.spec().quantum_ns;
    while p.total_quanta() < quanta {
        let left = quanta - p.total_quanta();
        if p.cores_parked() {
            match p.next_event_ns(wl) {
                Some(event) => {
                    let gap = (event - p.now_ns()) / q;
                    if gap > 1 {
                        p.advance_idle_quanta((gap - 1).min(left));
                        continue;
                    }
                }
                None => {
                    // Never wakes again: the rest of the run is idle.
                    p.advance_idle_quanta(left);
                    continue;
                }
            }
        } else if let Some(event) = p.next_event_ns(wl) {
            // With no controller attached there is nothing to consult:
            // the engine's own event bound is the whole constraint.
            let horizon = ((event - p.now_ns()) / q).saturating_sub(1);
            let k = horizon.min(left);
            if k > 0 && p.advance_busy_quanta(wl, k) > 0 {
                continue;
            }
        }
        p.step(wl);
    }
}

#[test]
fn event_loop_is_bit_identical_to_quantum_loop() {
    for seed in 1..=24u64 {
        let mut rng = Lcg(seed);
        let spec = if seed % 3 == 0 {
            HYPOTHETICAL7.clone()
        } else {
            HASWELL_2650V3.clone()
        };
        let cf = Freq(rng.range(spec.core.min().0 as u64, spec.core.max().0 as u64) as u32);
        let uf = Freq(rng.range(spec.uncore.min().0 as u64, spec.uncore.max().0 as u64) as u32);
        let quanta = rng.range(200, 2_000);

        let make = |rng_seed: u64| {
            let mut r = Lcg(rng_seed);
            Bursty::random(&mut r, spec.quantum_ns, 12)
        };
        let mut a = SimProcessor::new(spec.clone());
        a.set_core_freq(cf);
        a.set_uncore_freq(uf);
        let mut b = a.clone();

        let mut wl_a = make(seed ^ 0xABCD);
        let mut wl_b = make(seed ^ 0xABCD);
        run_stepped(&mut a, &mut wl_a, quanta);
        run_events(&mut b, &mut wl_b, quanta);

        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "seed {seed}: event-driven run must be bit-identical"
        );
        assert!(
            b.stepped_quanta() <= a.stepped_quanta(),
            "seed {seed}: the event loop must never step more"
        );
    }
}

#[test]
fn event_loop_actually_skips_on_gapped_schedules() {
    // Sanity against a vacuous pass: across the seeded schedules both
    // fast paths must engage — idle gaps and heavy busy stretches.
    let mut idle_advanced = 0u64;
    let mut busy_advanced = 0u64;
    for seed in 1..=8u64 {
        let mut rng = Lcg(seed);
        let mut wl = Bursty::random(&mut rng, HASWELL_2650V3.quantum_ns, 12);
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        run_events(&mut p, &mut wl, 1_500);
        idle_advanced += p.idle_advanced_quanta();
        busy_advanced += p.busy_advanced_quanta();
    }
    assert!(
        idle_advanced > 0,
        "no schedule exercised the idle fast path"
    );
    assert!(
        busy_advanced > 0,
        "no schedule exercised the busy fast path"
    );
}

#[test]
fn advance_equals_stepping_from_randomized_machine_states() {
    // Beyond the engine's own unit test: randomize frequency state,
    // duty modulation, and prior workload mix before the idle stretch.
    for seed in 1..=12u64 {
        let mut rng = Lcg(seed ^ 0x5EED);
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let cf = Freq(rng.range(12, 23) as u32);
        let uf = Freq(rng.range(12, 30) as u32);
        p.set_core_freq(cf);
        p.set_uncore_freq(uf);
        if rng.next().is_multiple_of(2) {
            p.set_duty_all(rng.range(4, 15) as u32);
        }
        let mut wl = Bursty::random(&mut rng, p.spec().quantum_ns, 3);
        run_stepped(&mut p, &mut wl, rng.range(50, 300));

        // Drain any in-flight chunk so the machine is parked.
        struct Never;
        impl Workload for Never {
            fn next_chunk(&mut self, _: usize, _: u64) -> Option<Chunk> {
                None
            }
            fn is_done(&self) -> bool {
                true
            }
            fn next_wake_ns(&self, _: u64) -> Option<u64> {
                None
            }
        }
        while !p.cores_parked() {
            p.step(&mut Never);
        }

        let idle = rng.range(1, 400);
        let mut stepped = p.clone();
        let mut jumped = p;
        for _ in 0..idle {
            stepped.step(&mut Never);
        }
        jumped.advance_idle_quanta(idle);
        assert_eq!(
            fingerprint(&stepped),
            fingerprint(&jumped),
            "seed {seed}: {idle} idle quanta must accumulate identically"
        );
    }
}
