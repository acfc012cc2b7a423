//! Per-domain frequency exploration — Algorithm 2 (`find`) and the
//! boundary rules of Figure 5.
//!
//! One [`Exploration`] instance tracks the search for the JPI-optimal
//! level of one frequency domain (core or uncore) within one TIPI node.
//! Levels are domain indices (`0 = min frequency`).
//!
//! The search walks **downward from the right bound in steps of two**,
//! keeping a running JPI average (10 samples by default) per visited
//! level:
//!
//! * if the level two below beats the current right bound, the right
//!   bound moves down there and the walk continues;
//! * if it loses, the optimum is bracketed: the left bound closes to
//!   `RB − 1` and the adjacent-pair rule of Figure 5 resolves it —
//!   at the very top of the domain the *higher* frequency wins (a
//!   compute-bound MAP, protect performance); anywhere else the *lower*
//!   frequency wins (a memory-bound MAP, favour energy);
//! * bounds may also be squeezed externally (neighbour inheritance,
//!   §4.4/4.5) at any time via [`Exploration::clamp_bounds`].
//!
//! The paper explores linearly rather than by binary search because JPI
//! is measured, not computed: each probe costs 10×`Tinv` of wall time
//! at a possibly-suboptimal frequency, and the modified binary search
//! needs JPI at `mid−1`/`mid`/`mid+1` per split (§4.3's cost analysis).

/// Running JPI average for one frequency level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JpiAvg {
    n: u32,
    sum: f64,
}

impl JpiAvg {
    /// Record one reading unless the average is already final.
    pub fn record(&mut self, jpi: f64, needed: u32) {
        if self.n < needed {
            self.n += 1;
            self.sum += jpi;
        }
    }

    /// Number of readings so far.
    pub fn count(&self) -> u32 {
        self.n
    }

    /// The average once `needed` readings have accumulated.
    pub fn value(&self, needed: u32) -> Option<f64> {
        if self.n >= needed {
            Some(self.sum / self.n as f64)
        } else {
            None
        }
    }
}

/// Exploration state for one frequency domain of one TIPI node.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Left (low-frequency) bound, domain index.
    lb: usize,
    /// Right (high-frequency) bound, domain index.
    rb: usize,
    /// Highest index of the domain (for the Figure 5 top-of-domain rule).
    domain_max: usize,
    /// Per-level JPI accumulators (len = domain size).
    jpi: Vec<JpiAvg>,
    /// Resolved optimum.
    opt: Option<usize>,
    /// JPI readings required per level.
    needed: u32,
}

/// What `advance` decided (Algorithm 2's return plus bound-change
/// signals consumed by the §4.5 revalidation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Advance {
    /// Frequency index to run at next.
    pub next: usize,
    /// The right bound moved down this call.
    pub rb_lowered: bool,
    /// The left bound moved up this call.
    pub lb_raised: bool,
    /// The optimum was resolved this call.
    pub resolved: bool,
}

impl Exploration {
    /// Fresh exploration over `[lb, rb]` in a domain of `domain_len`
    /// levels.
    pub fn new(lb: usize, rb: usize, domain_len: usize, needed: u32) -> Self {
        assert!(domain_len > 0 && rb < domain_len && lb <= rb);
        Exploration {
            lb,
            rb,
            domain_max: domain_len - 1,
            jpi: vec![JpiAvg::default(); domain_len],
            // A singleton range needs no exploration.
            opt: (lb == rb).then_some(lb),
            needed,
        }
    }

    /// Current bounds `(lb, rb)`.
    pub fn bounds(&self) -> (usize, usize) {
        (self.lb, self.rb)
    }

    /// The resolved optimum, if any.
    pub fn opt(&self) -> Option<usize> {
        self.opt
    }

    /// Whether a final JPI average exists at `level`.
    pub fn jpi_at(&self, level: usize) -> Option<f64> {
        self.jpi[level].value(self.needed)
    }

    /// Readings collected at `level`.
    pub fn samples_at(&self, level: usize) -> u32 {
        self.jpi[level].count()
    }

    /// Record a JPI reading taken at `level` (the caller has already
    /// discarded TIPI-transition readings, Algorithm 2 line 6–8).
    pub fn record(&mut self, level: usize, jpi: f64) {
        self.jpi[level].record(jpi, self.needed);
    }

    /// Externally squeeze the bounds (§4.4 inheritance / §4.5
    /// revalidation): `lb` may only rise, `rb` may only fall. If the
    /// bounds collapse to one level the optimum resolves to it.
    /// Returns true if anything changed.
    pub fn clamp_bounds(&mut self, lb_floor: Option<usize>, rb_ceil: Option<usize>) -> bool {
        if self.opt.is_some() {
            return false;
        }
        let mut changed = false;
        if let Some(f) = lb_floor {
            let f = f.min(self.rb);
            if f > self.lb {
                self.lb = f;
                changed = true;
            }
        }
        if let Some(c) = rb_ceil {
            let c = c.max(self.lb);
            if c < self.rb {
                self.rb = c;
                changed = true;
            }
        }
        if changed && self.lb == self.rb {
            self.opt = Some(self.lb);
        }
        changed
    }

    /// Figure 5 adjacent-pair rule: at the top of the domain keep the
    /// higher frequency (compute-bound: protect performance), otherwise
    /// take the lower (memory-bound: favour energy).
    fn resolve_adjacent(&self) -> usize {
        if self.rb == self.domain_max {
            self.rb
        } else {
            self.lb
        }
    }

    /// Algorithm 2: decide the next frequency to run, updating bounds
    /// from any newly finalized JPI averages.
    pub fn advance(&mut self) -> Advance {
        let mut adv = Advance {
            next: self.rb,
            rb_lowered: false,
            lb_raised: false,
            resolved: false,
        };

        if let Some(o) = self.opt {
            adv.next = o;
            return adv;
        }

        // Degenerate and adjacent ranges resolve immediately
        // (Algorithm 2 line 2–5 / Figure 5).
        if self.lb == self.rb {
            self.opt = Some(self.lb);
            adv.next = self.lb;
            adv.resolved = true;
            return adv;
        }
        if self.rb - self.lb == 1 {
            let o = self.resolve_adjacent();
            self.opt = Some(o);
            adv.next = o;
            adv.resolved = true;
            return adv;
        }

        // Steps of two: the probe below the right bound.
        let probe = self.rb - 2; // rb - lb >= 2 ⇒ probe >= lb

        // Keep collecting until averages exist (lines 9–12).
        let jpi_rb = match self.jpi_at(self.rb) {
            None => {
                adv.next = self.rb;
                return adv;
            }
            Some(v) => v,
        };
        let jpi_probe = match self.jpi_at(probe) {
            None => {
                adv.next = probe;
                return adv;
            }
            Some(v) => v,
        };

        if jpi_probe < jpi_rb {
            // Moving down helped: shift the right bound (lines 14–16).
            self.rb = probe;
            adv.rb_lowered = true;
            if self.rb == self.lb {
                self.opt = Some(self.rb);
                adv.next = self.rb;
                adv.resolved = true;
            } else {
                adv.next = if self.rb - self.lb > 2 {
                    self.rb - 2
                } else {
                    self.lb
                };
            }
        } else {
            // Moving down hurt: the optimum is bracketed (line 18).
            self.lb = self.rb - 1;
            adv.lb_raised = true;
            let o = self.resolve_adjacent();
            self.opt = Some(o);
            adv.next = o;
            adv.resolved = true;
        }
        adv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 7; // the paper's hypothetical A..G machine
    const NEEDED: u32 = 10;

    /// Drive the exploration against a synthetic JPI curve until it
    /// resolves; returns (optimum, probes visited in order).
    fn run(curve: &dyn Fn(usize) -> f64, lb: usize, rb: usize) -> (usize, Vec<usize>) {
        let mut e = Exploration::new(lb, rb, N, NEEDED);
        let mut visited = Vec::new();
        for _ in 0..1000 {
            let adv = e.advance();
            if adv.resolved || e.opt().is_some() {
                return (e.opt().unwrap(), visited);
            }
            if visited.last() != Some(&adv.next) {
                visited.push(adv.next);
            }
            e.record(adv.next, curve(adv.next));
        }
        panic!("exploration did not resolve");
    }

    #[test]
    fn figure4_descending_curve_finds_minimum_at_a() {
        // JPI improves at every step down: probes G, E, C, A → opt = A
        // (level 0). JPI as a function of the level index must
        // *increase* with frequency for this case.
        let (opt, visited) = run(&|l| 4.0 + l as f64, 0, 6);
        assert_eq!(opt, 0);
        assert_eq!(visited, vec![6, 4, 2, 0], "steps of two from the top");
    }

    #[test]
    fn figure5a_rising_at_top_keeps_max() {
        // JPI at E worse than G (JPI falls with frequency):
        // compute-bound — stay at G.
        let (opt, visited) = run(&|l| 10.0 - l as f64, 0, 6);
        assert_eq!(opt, 6, "top-of-domain adjacent rule picks the max");
        assert_eq!(visited, vec![6, 4]);
    }

    #[test]
    fn figure5b_rising_at_bottom_picks_lb() {
        // Minimum near C: descending beats until A loses to C; bracket
        // [B, C] resolves to B (the untested midpoint, per the paper).
        let curve = |l: usize| match l {
            0 => 5.0, // A worse than C
            2 => 3.0,
            4 => 6.0,
            6 => 9.0,
            _ => 100.0,
        };
        let (opt, visited) = run(&curve, 0, 6);
        assert_eq!(opt, 1, "interior bracket resolves to LB = RB-1");
        assert_eq!(visited, vec![6, 4, 2, 0]);
    }

    #[test]
    fn ten_samples_required_per_level() {
        let mut e = Exploration::new(0, 6, N, NEEDED);
        for i in 0..9 {
            let adv = e.advance();
            assert_eq!(adv.next, 6, "stay at RB until the average is final");
            e.record(6, 1.0);
            assert_eq!(e.samples_at(6), i + 1);
        }
        assert!(e.jpi_at(6).is_none());
        e.record(6, 1.0);
        assert_eq!(e.jpi_at(6), Some(1.0));
        let adv = e.advance();
        assert_eq!(adv.next, 4, "move to RB-2 once RB's average exists");
    }

    #[test]
    fn averages_freeze_after_needed_samples() {
        let mut a = JpiAvg::default();
        for _ in 0..10 {
            a.record(2.0, 10);
        }
        a.record(100.0, 10); // ignored
        assert_eq!(a.value(10), Some(2.0));
    }

    #[test]
    fn singleton_range_resolves_at_construction() {
        let mut e = Exploration::new(3, 3, N, NEEDED);
        assert_eq!(e.opt(), Some(3));
        let adv = e.advance();
        assert_eq!(adv.next, 3);
        assert!(!adv.resolved, "was already resolved before the call");
    }

    #[test]
    fn adjacent_range_at_top_resolves_to_max() {
        let mut e = Exploration::new(5, 6, N, NEEDED);
        let adv = e.advance();
        assert!(adv.resolved);
        assert_eq!(e.opt(), Some(6));
    }

    #[test]
    fn adjacent_range_interior_resolves_to_lb() {
        let mut e = Exploration::new(2, 3, N, NEEDED);
        e.advance();
        assert_eq!(e.opt(), Some(2));
    }

    #[test]
    fn clamp_bounds_narrows_and_resolves() {
        let mut e = Exploration::new(0, 6, N, NEEDED);
        assert!(e.clamp_bounds(Some(2), Some(4)));
        assert_eq!(e.bounds(), (2, 4));
        // Clamping is monotone: cannot widen back.
        assert!(!e.clamp_bounds(Some(1), Some(6)));
        assert_eq!(e.bounds(), (2, 4));
        // Collapse resolves.
        assert!(e.clamp_bounds(Some(4), None));
        assert_eq!(e.opt(), Some(4));
        // No further changes once resolved.
        assert!(!e.clamp_bounds(Some(5), None));
    }

    #[test]
    fn clamp_crossing_bounds_is_safe() {
        let mut e = Exploration::new(0, 6, N, NEEDED);
        // Floor above ceiling: floor is limited to rb first.
        e.clamp_bounds(Some(10), None);
        assert_eq!(e.bounds(), (6, 6));
        assert_eq!(e.opt(), Some(6));
    }

    #[test]
    fn exploration_probe_count_is_halved_by_steps_of_two() {
        // Worst case on a 12-level domain (the paper's core domain):
        // optimum at the bottom costs 6 measured probes (§4.3:
        // "total_frequencies/2 = six"), not 12. The final hop to LB is
        // transient — the next wake-up resolves from bounds alone — so
        // only levels with a completed JPI average count as probes.
        const NEEDED: u32 = 10;
        let mut e = Exploration::new(0, 11, 12, NEEDED);
        for _ in 0..1000 {
            let adv = e.advance();
            if adv.resolved {
                break;
            }
            e.record(adv.next, 8.0 + adv.next as f64);
        }
        assert_eq!(e.opt(), Some(0));
        let measured: Vec<usize> = (0..12).filter(|&l| e.jpi_at(l).is_some()).collect();
        assert_eq!(
            measured,
            vec![1, 3, 5, 7, 9, 11],
            "exactly the six odd levels get full averages"
        );
    }
}
