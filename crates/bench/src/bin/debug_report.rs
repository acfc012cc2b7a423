//! Debug utility: full per-slab report for one benchmark.
//!
//! Usage: `cargo run --release -p bench --bin debug_report --
//!         [<bench-name>] [<scale>] [--smoke] [--shards N] [--json PATH]
//!         [--scenario FILE] [--list]`
//!
//! Defaults to `SOR-ws` at scale 0.3; `--smoke` pins the CI smoke
//! scale instead of the positional one. A benchmark outside the
//! OpenMP suite, or a scale that is not a number in
//! `(0, bench::MAX_SCALE]`, is a usage error (exit 2).

use bench::cli::GridArgs;
use bench::grid::{AxisSet, GridResult, GridSetup, GridSpec};
use bench::{Setup, MAX_SCALE};
use cuttlefish::Policy;

const USAGE: &str = "debug_report [<bench-name>] [<scale>] [--smoke] [--shards N] [--json PATH] \
                     [--scenario FILE] [--list] [--store PATH] [--no-store]";

fn spec(args: &GridArgs) -> GridSpec {
    let name = args
        .positionals()
        .first()
        .map(String::as_str)
        .unwrap_or("SOR-ws");
    let positional_scale = args.positionals().get(1).map(|s| match s.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 && x <= MAX_SCALE => x,
        _ => usage_error(&format!("scale `{s}` is not a number in (0, {MAX_SCALE}]")),
    });
    let scale = if args.smoke {
        args.scale()
    } else {
        positional_scale.unwrap_or(0.3)
    };
    let mut spec = GridSpec::new("debug_report", scale);
    let suite = spec.full_suite();
    if !suite.iter().any(|b| b == name) {
        usage_error(&format!(
            "unknown benchmark `{name}` (one of: {})",
            suite.join(", ")
        ));
    }
    spec.push(AxisSet::new(
        vec![name.to_string()],
        vec![GridSetup::new(
            "Cuttlefish",
            Setup::Cuttlefish(Policy::Both),
        )],
    ));
    spec
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = GridArgs::parse(USAGE);
    let spec = spec(&args);
    if args.handle_scenario_or_list(&spec) {
        return;
    }
    let (result, timing) = args.run_grid(&spec);
    args.finish_timed(&result, &timing);
    render(&result);
}

fn render(result: &GridResult) {
    for o in &result.cells {
        println!(
            "{}: {:.2}s {:.0}J, resolved ({}, {})",
            o.spec.bench, o.seconds, o.joules, o.resolved_cf, o.resolved_uf
        );
        for r in &o.report {
            println!(
                "  {:>13} {:6.2}% cf={:?} uf={:?} n={}",
                r.label,
                r.share * 100.0,
                r.cf_ghz(),
                r.uf_ghz(),
                r.occurrences
            );
        }
    }
}
