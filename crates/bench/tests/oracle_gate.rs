//! Full-scale online-vs-oracle gate (paper §5's central claim).
//!
//! Runs the `table2` grid at paper scale (`CUTTLEFISH_SCALE=1.0`
//! equivalent — the spec pins scale 1.0 directly so the gate cannot be
//! weakened through the environment) and asserts that Cuttlefish's
//! *online* search lands within a small energy gap of the *static
//! oracle* derived from each benchmark's traced Default run.
//!
//! `#[ignore]` by default: this is a multi-second release-mode run, far
//! beyond unit-test budgets, and meaningless in debug builds. The gate
//! is deterministic, and `ci.sh` runs it as a gating stage of the full
//! (non-`--quick`) path:
//!
//! ```text
//! cargo test --release -p bench --test oracle_gate -- --ignored
//! ```
//!
//! Bounds are set from measured behaviour with headroom, not from the
//! paper's numbers: at scale 1.0 the per-benchmark gap peaks around
//! +14 % (HPCCG, whose TIPI ranges resolve slowest) and the mean sits
//! near +4 %.

use bench::grid::{AxisSet, GridSetup, GridSpec};
use bench::Setup;
use cuttlefish::Policy;

/// Worst acceptable per-benchmark energy gap (online vs oracle).
const MAX_GAP_PCT: f64 = 20.0;
/// Worst acceptable suite-mean energy gap.
const MAX_MEAN_GAP_PCT: f64 = 8.0;

#[test]
#[ignore = "paper-scale run; ci.sh invokes it in release mode as a gating stage"]
fn online_search_tracks_static_oracle_at_full_scale() {
    let mut spec = GridSpec::new("table2", 1.0);
    let benchmarks = spec.full_suite();
    spec.push(AxisSet::new(
        benchmarks.clone(),
        vec![
            GridSetup::new("Default", Setup::Default).with_trace(),
            GridSetup::new("Cuttlefish", Setup::Cuttlefish(Policy::Both)),
        ],
    ));
    spec.push(AxisSet::new(
        benchmarks.clone(),
        vec![GridSetup::new("Oracle", Setup::Oracle)],
    ));

    let result = spec.run(bench::cli::default_shards());

    let mut gaps = Vec::new();
    for bench in &benchmarks {
        let cuttlefish = result.cell(bench, "Cuttlefish").expect("cuttlefish cell");
        let oracle = result.cell(bench, "Oracle").expect("oracle cell");
        let gap_pct = (cuttlefish.joules / oracle.joules - 1.0) * 100.0;
        eprintln!("{bench}: online-vs-oracle energy gap {gap_pct:+.1}%");
        assert!(
            gap_pct <= MAX_GAP_PCT,
            "{bench}: online search burned {gap_pct:+.1}% more energy than the \
             static oracle (bound {MAX_GAP_PCT}%)"
        );
        gaps.push(gap_pct);
    }
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    eprintln!("suite mean gap {mean:+.1}%");
    assert!(
        mean <= MAX_MEAN_GAP_PCT,
        "suite mean online-vs-oracle gap {mean:+.1}% exceeds {MAX_MEAN_GAP_PCT}%"
    );
}
