//! Property-based tests over the Cuttlefish decision logic.
//!
//! The paper's runtime must behave sanely for *any* JPI landscape and
//! any sample stream — exploration always terminates, frequencies stay
//! in-domain, the sorted-list invariants survive arbitrary interleaved
//! discoveries, and bound clamping is monotone. Each property runs
//! `CASES` seeded cases; case `i` draws from `SplitMix64::new(i)`, and
//! a failure names its case.

use cuttlefish::daemon::Daemon;
use cuttlefish::explore::Exploration;
use cuttlefish::ufrange::uf_window;
use cuttlefish::{Config, Policy, TipiSlab};
use simproc::freq::{Freq, FreqDomain};
use simproc::profile::Sample;
use simproc::SplitMix64;
use std::ops::Range;

const CASES: u64 = 256;

/// A uniform draw from `range`.
fn pick(rng: &mut SplitMix64, range: Range<usize>) -> usize {
    range.start + rng.below(range.len())
}

fn sample(tipi: f64, jpi: f64) -> Sample {
    Sample {
        tipi,
        jpi,
        instructions: 1_000_000,
        joules: jpi * 1e6,
        dt_ns: 20_000_000,
    }
}

/// Exploration resolves within a bounded number of ticks for any
/// positive JPI curve, and the optimum lies within the initial
/// bounds.
#[test]
fn exploration_terminates_for_any_curve() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let curve: Vec<f64> = (0..12).map(|_| rng.uniform(0.01, 100.0)).collect();
        let lb = pick(&mut rng, 0..12);
        let width = pick(&mut rng, 0..12);
        let rb = (lb + width).min(11);
        let mut e = Exploration::new(lb, rb, 12, 10);
        let mut resolved = false;
        // 10 samples per level, ≤ 12 levels, plus slack.
        for _ in 0..500 {
            let adv = e.advance();
            if e.opt().is_some() {
                resolved = true;
                break;
            }
            e.record(adv.next, curve[adv.next]);
        }
        assert!(resolved, "case {case}: exploration must terminate");
        let opt = e.opt().unwrap();
        assert!(
            (lb..=rb).contains(&opt),
            "case {case}: opt {opt} outside [{lb}, {rb}]"
        );
    }
}

/// `clamp_bounds` never widens a range and never un-resolves an
/// optimum.
#[test]
fn clamp_is_monotone() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let len = pick(&mut rng, 1..20);
        let ops: Vec<(usize, usize)> = (0..len)
            .map(|_| (pick(&mut rng, 0..12), pick(&mut rng, 0..12)))
            .collect();
        let mut e = Exploration::new(0, 11, 12, 10);
        let mut prev = e.bounds();
        for (f, c) in ops {
            e.clamp_bounds(Some(f), Some(c));
            let now = e.bounds();
            assert!(
                now.0 >= prev.0,
                "case {case}: lb moved down: {now:?} from {prev:?}"
            );
            assert!(
                now.1 <= prev.1,
                "case {case}: rb moved up: {now:?} from {prev:?}"
            );
            assert!(now.0 <= now.1, "case {case}: bounds crossed: {now:?}");
            if let Some(o) = e.opt() {
                assert!((now.0..=now.1).contains(&o), "case {case}");
            }
            prev = now;
        }
    }
}

/// The Algorithm 3 window is always a valid, small sub-range.
#[test]
fn uf_window_always_valid() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let cf = pick(&mut rng, 0..12);
        let n_cf = pick(&mut rng, 1..32);
        let n_uf = pick(&mut rng, 1..32);
        let mult = rng.uniform(1.0, 8.0);
        let cf = cf.min(n_cf - 1);
        let (lb, rb) = uf_window(cf, n_cf, n_uf, mult);
        assert!(lb <= rb, "case {case}");
        assert!(rb < n_uf, "case {case}");
        let width = rb - lb + 1;
        let expect = ((mult * n_uf as f64) / n_cf as f64).ceil() as usize + 2;
        assert!(
            width <= expect.max(1),
            "case {case}: window {width} > expected {expect}"
        );
    }
}

/// The daemon survives any sample stream: frequencies stay within
/// their domains and the monotonicity invariants of the TIPI list
/// hold whenever optima are resolved.
#[test]
fn daemon_is_total_and_invariant_preserving() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let len = pick(&mut rng, 1..800);
        let stream: Vec<(f64, f64)> = (0..len)
            .map(|_| (rng.uniform(0.0, 0.35), rng.uniform(0.1, 50.0)))
            .collect();
        let policy = [Policy::Both, Policy::CoreOnly, Policy::UncoreOnly][pick(&mut rng, 0..3)];
        let core = FreqDomain::new(Freq(12), Freq(23));
        let uncore = FreqDomain::new(Freq(12), Freq(30));
        let cfg = Config {
            samples_per_freq: 3,
            ..Config::default()
        }
        .with_policy(policy);
        let mut d = Daemon::new(cfg, core.clone(), uncore.clone());
        for (tipi, jpi) in stream {
            let (cf, uf) = d.tick(sample(tipi, jpi));
            assert!(
                core.contains(cf),
                "case {case}: core frequency {cf} out of domain"
            );
            assert!(
                uncore.contains(uf),
                "case {case}: uncore frequency {uf} out of domain"
            );
            match policy {
                Policy::CoreOnly => assert_eq!(uf, Freq(30), "case {case}"),
                Policy::UncoreOnly => assert_eq!(cf, Freq(23), "case {case}"),
                Policy::Both => {}
            }
        }
        if let Err(e) = d.list().check_invariants() {
            // Monotonicity can only be violated transiently if the JPI
            // landscape itself is adversarially inconsistent across
            // slabs — but bounds inheritance must still prevent
            // *resolved* optima from crossing.
            panic!("case {case}: invariant violated: {e}");
        }
    }
}

/// Slab quantization is order-preserving and consistent with its
/// bounds.
#[test]
fn slab_quantization_consistent() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let t1 = rng.uniform(0.0, 1.0);
        let t2 = rng.uniform(0.0, 1.0);
        let w = 0.004;
        let s1 = TipiSlab::quantize(t1, w);
        let s2 = TipiSlab::quantize(t2, w);
        if t1 <= t2 {
            assert!(s1 <= s2, "case {case}");
        }
        assert!(s1.lo(w) <= t1 && t1 < s1.hi(w) + 1e-12, "case {case}");
    }
}
