//! Frequency-residency / exploration-cost analysis.
//!
//! For each benchmark under Cuttlefish: the share of execution time
//! spent at the final optimal operating point versus exploring, and
//! the top operating points by residency. This quantifies the §4
//! claim that the runtime optimizations make exploration cheap — the
//! run should spend the overwhelming majority of its time at the
//! optimum despite starting with no prior information.
//!
//! Usage: `cargo run --release -p bench --bin residency --
//!         [--smoke] [--shards N] [--json PATH] [--scenario FILE] [--list]`

use bench::cli::GridArgs;
use bench::grid::{straggler_spec, AxisSet, Fleet, GridResult, GridSetup, GridSpec};
use bench::{render_table, Setup};
use cuttlefish::Policy;
use simproc::freq::HASWELL_2650V3;

const USAGE: &str = "residency [--smoke] [--shards N] [--json PATH] [--scenario FILE] [--list]\n      [--store PATH] [--no-store]";

fn spec(args: &GridArgs) -> GridSpec {
    let mut spec = GridSpec::new("residency", args.scale());
    let cuttlefish = || {
        vec![GridSetup::new(
            "Cuttlefish",
            Setup::Cuttlefish(Policy::Both),
        )]
    };
    if args.smoke {
        spec.push(AxisSet::new(
            vec!["UTS".into(), "Heat-irt".into(), "MiniFE".into()],
            cuttlefish(),
        ));
        // The §4.6 straggler shape with slow *hardware*, expressed as a
        // heterogeneous fleet-axis entry: three paper nodes plus one
        // de-rated node running a bulk-synchronous Heat decomposition.
        // Every superstep the fast nodes idle to the straggler's
        // barrier — the path the virtual-clock engine fast-forwards;
        // each node's own daemon still tunes its own package.
        let mut machines = vec![HASWELL_2650V3.clone(); 3];
        machines.push(straggler_spec());
        spec.push(
            AxisSet::new(
                vec!["Heat-ws".into()],
                vec![GridSetup::new(
                    "Cuttlefish-straggler",
                    Setup::Cuttlefish(Policy::Both),
                )],
            )
            .with_fleets(vec![Fleet::hetero(machines).with_bsp(96, 240.0e6)]),
        );
        // A 256-node uniform fleet strong-scaling the same Heat
        // decomposition: at this width each node's compute share is a
        // sliver of the superstep, so the timeline is dominated by
        // barrier and exchange windows — the shape the idle
        // fast-forward exists for. `ci.sh` holds this grid to a >=5x
        // fast-forward floor via `grid_aggregate --require-fast-forward`.
        spec.push(
            AxisSet::new(
                vec!["Heat-ws".into()],
                vec![GridSetup::new(
                    "Cuttlefish-fleet256",
                    Setup::Cuttlefish(Policy::Both),
                )],
            )
            .with_fleets(vec![Fleet::uniform(256).with_bsp(8, 240.0e6)]),
        );
    } else {
        let full = spec.full_suite();
        spec.push(AxisSet::new(full, cuttlefish()));
    }
    spec
}

fn main() {
    let args = GridArgs::parse(USAGE);
    let spec = spec(&args);
    if args.handle_scenario_or_list(&spec) {
        return;
    }
    eprintln!(
        "residency: scale {:.2}, {} cells on {} shards",
        spec.scale,
        spec.cells().len(),
        args.shards
    );
    let (result, timing) = args.run_grid(&spec);
    args.finish_timed(&result, &timing);
    render(&result);
}

fn render(result: &GridResult) {
    let mut rows = Vec::new();
    for o in &result.cells {
        let total_ns: u64 = o.residency.iter().map(|r| r.ns).sum();
        let mut pairs = o.residency.clone();
        pairs.sort_by_key(|r| std::cmp::Reverse(r.ns));
        let top = &pairs[0];
        let distinct = pairs.len();
        let top3: f64 = pairs.iter().take(3).map(|r| r.ns as f64).sum::<f64>() / total_ns as f64;
        rows.push(vec![
            o.spec.bench.clone(),
            format!("{:.1}/{:.1}", top.cf as f64 / 10.0, top.uf as f64 / 10.0),
            format!("{:.1}%", top.ns as f64 / total_ns as f64 * 100.0),
            format!("{:.1}%", top3 * 100.0),
            distinct.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "dominant CF/UF",
                "time there",
                "top-3 points",
                "distinct points",
            ],
            &rows
        )
    );
    println!("\n('time there' ≈ 1 − exploration+warm-up share; the paper's");
    println!("optimizations exist to push it toward 100% even for AMG's ~60 ranges)");
}
