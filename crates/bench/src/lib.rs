//! Evaluation harness shared by the table/figure regenerators.
//!
//! One declarative description, [`scenario::Scenario`], captures an
//! experiment — machine(s) × frequency policy × workload × topology —
//! and [`scenario::Scenario::run`] executes it, returning measured
//! energy / time / frequency assignments. Everything downstream —
//! savings percentages, EDP, geometric means, trace series — is
//! arithmetic over [`RunOutcome`]s; the grid runner ([`grid`]) fans
//! axis-sets of scenarios across worker threads.

use cuttlefish::controller::{NodePolicy, PidGains};
use cuttlefish::{Config, Policy};
use simproc::freq::Freq;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod cli;
pub mod fuzz;
pub mod grid;
pub mod json;
pub mod scenario;
pub mod store;

pub use scenario::{Scenario, ScenarioOutcome, Topology};

/// The benchmark-instantiation seed every harness run uses (reps > 0
/// fold the repetition index in, so rep 0 reproduces historical runs).
pub const HARNESS_SEED: u64 = 0xC0FFEE;

/// The execution configurations of the paper — the four Figure 10/11
/// setups plus the fixed-frequency pins of the Figure 3 sweeps — and
/// the governors beyond the paper's four: the ondemand/schedutil-style
/// baseline, the static Table 2 oracle, and the PID uncore tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setup {
    /// `performance` governor + firmware Auto uncore.
    Default,
    /// A Cuttlefish policy.
    Cuttlefish(Policy),
    /// Core and uncore pinned at a fixed operating point (§3.2).
    Pinned(Freq, Freq),
    /// The ondemand/schedutil-style utilization-proportional governor.
    Ondemand,
    /// The static per-phase oracle (§5's comparison baseline). The
    /// operating-point table is *derived per cell* from a traced
    /// Default run of the same scenario unless the cell carries an
    /// explicit one — see `grid::CellSpec::scenario`.
    Oracle,
    /// PID uncore tracking over the Cuttlefish core-only search.
    PidUncore(PidGains),
}

impl Setup {
    /// The paper's four setups in presentation order.
    pub fn all() -> [Setup; 4] {
        [
            Setup::Default,
            Setup::Cuttlefish(Policy::Both),
            Setup::Cuttlefish(Policy::CoreOnly),
            Setup::Cuttlefish(Policy::UncoreOnly),
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Setup::Default => "Default",
            Setup::Cuttlefish(p) => p.name(),
            Setup::Pinned(..) => "Pinned",
            Setup::Ondemand => "Ondemand",
            Setup::Oracle => "Oracle",
            Setup::PidUncore(_) => "PidUncore",
        }
    }

    /// The node policy this setup builds its controller from; `cfg`
    /// parameterizes the Cuttlefish setups (Tinv, slab width, ...) and
    /// the PID setup's delegated core search.
    ///
    /// # Panics
    /// Panics for [`Setup::Oracle`]: its operating-point table lives
    /// on the grid cell (explicit or derived), so oracle policies are
    /// resolved by `grid::CellSpec::scenario`, not here.
    pub fn node_policy(self, cfg: Config) -> NodePolicy {
        match self {
            Setup::Default => NodePolicy::Default,
            Setup::Cuttlefish(policy) => NodePolicy::Cuttlefish(cfg.with_policy(policy)),
            Setup::Pinned(cf, uf) => NodePolicy::Pinned { cf, uf },
            Setup::Ondemand => NodePolicy::Ondemand,
            Setup::Oracle => {
                panic!("oracle setups resolve their table through CellSpec::scenario")
            }
            Setup::PidUncore(gains) => NodePolicy::PidUncore { config: cfg, gains },
        }
    }
}

/// Measurements from one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Benchmark name.
    pub bench: String,
    /// Setup used.
    pub setup: &'static str,
    /// Virtual execution time, seconds.
    pub seconds: f64,
    /// Package energy, joules.
    pub joules: f64,
    /// Instructions retired.
    pub instructions: f64,
    /// Per-TIPI-range report from the controller (the Cuttlefish
    /// daemon's discovered ranges, or a static controller's synthetic
    /// whole-run range).
    pub report: Vec<cuttlefish::daemon::NodeReport>,
    /// Fractions of distinct ranges with resolved (CFopt, UFopt).
    pub resolved: (f64, f64),
    /// Per-operating-point residency, `((core, uncore) deci-GHz, ns)`,
    /// in ascending key order (the residency/EDP analyses).
    pub residency: Vec<((u32, u32), u64)>,
    /// Quanta the engine executed one step at a time.
    pub stepped_quanta: u64,
    /// Quanta fast-forwarded analytically while parked.
    pub idle_advanced_quanta: u64,
    /// Quanta fast-forwarded analytically while executing (busy
    /// steady-state stretches the controller certified).
    pub busy_advanced_quanta: u64,
    /// Total virtual quanta elapsed — always
    /// `stepped + idle_advanced + busy_advanced`; the per-cell
    /// stepping-rate data the CI smoke stage reports.
    pub total_quanta: u64,
}

impl RunOutcome {
    /// Energy-delay product, J·s.
    pub fn edp(&self) -> f64 {
        self.joules * self.seconds
    }

    /// Joules per instruction.
    pub fn jpi(&self) -> f64 {
        self.joules / self.instructions.max(1.0)
    }
}

/// One (time, tipi, jpi, cf, uf, watts) trace point (Fig. 2 series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    pub t_s: f64,
    pub tipi: f64,
    pub jpi: f64,
    pub cf_ghz: f64,
    pub uf_ghz: f64,
    pub watts: f64,
}

/// Percentage saving of `tuned` relative to `base` (positive = tuned
/// is better/lower).
pub fn saving_pct(base: f64, tuned: f64) -> f64 {
    (1.0 - tuned / base) * 100.0
}

/// Geometric mean of ratios expressed as savings percentages.
///
/// The paper reports geomean savings across benchmarks; each saving
/// `s%` corresponds to a ratio `1 − s/100`, and the geomean of the
/// ratios is converted back to a percentage.
pub fn geomean_saving(savings_pct: &[f64]) -> f64 {
    if savings_pct.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = savings_pct.iter().map(|s| (1.0 - s / 100.0).ln()).sum();
    (1.0 - (log_sum / savings_pct.len() as f64).exp()) * 100.0
}

/// Render a fixed-width table (plain text, like the paper's artifacts).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Map `f` over `items` on up to `shards` scoped threads (min 1) and
/// return the results in input order — the one pool behind every
/// `--shards` option.
///
/// Threads take the next index from a shared cursor, so items start
/// in input order and a slow one never holds up a fixed partition;
/// each result is written into its input's slot, so the output is the
/// same for any shard count.
pub fn par_map<T: Sync, R: Send + Sync>(
    items: &[T],
    shards: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // The cursor publishes no data: results travel through the slots,
    // and the scope's join orders them before the reads below.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..shards.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // Each index is claimed once, so the slot is empty.
                let _ = slots[i].set(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index is claimed"))
        .collect()
}

/// The largest workload scale anything runs: twice the paper's length.
/// A task benchmark's graph grows with its scale (UTS holds about
/// 0.5 M tasks at 1.0), so this also bounds a cell's memory.
/// [`Scenario::validate`](scenario::Scenario::validate) refuses larger
/// scales, and [`cli::GridArgs::scale`] clamps `CUTTLEFISH_SCALE` to it.
pub const MAX_SCALE: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        // Ratios 0.8 and 0.9 → geomean √0.72 ≈ 0.8485 → 15.15% saving.
        let g = geomean_saving(&[20.0, 10.0]);
        assert!((g - 15.147).abs() < 0.01, "got {g}");
        assert_eq!(geomean_saving(&[]), 0.0);
        // Negative savings (losses) are handled.
        let g2 = geomean_saving(&[-10.0, 10.0]);
        assert!(
            g2.abs() < 0.6,
            "symmetric gains/losses nearly cancel, got {g2}"
        );
    }

    #[test]
    fn saving_pct_signs() {
        assert!((saving_pct(100.0, 80.0) - 20.0).abs() < 1e-12);
        assert!((saving_pct(100.0, 110.0) + 10.0).abs() < 1e-12);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["name", "x"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with("1.0"));
    }

    #[test]
    fn setup_names_cover_every_arm() {
        assert_eq!(Setup::Default.name(), "Default");
        assert_eq!(
            Setup::Cuttlefish(Policy::CoreOnly).name(),
            "Cuttlefish-Core"
        );
        assert_eq!(Setup::Pinned(Freq(12), Freq(22)).name(), "Pinned");
        assert_eq!(Setup::Ondemand.name(), "Ondemand");
        assert_eq!(
            Setup::Ondemand.node_policy(Config::default()),
            NodePolicy::Ondemand
        );
    }
}
