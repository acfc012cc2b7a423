//! Figure 2 — TIPI and JPI timelines.
//!
//! Reproduces both panels of the paper's Figure 2: for each of the six
//! headline benchmarks run at maximum frequencies, the per-`Tinv` TIPI
//! and JPI series over the execution timeline. Output is a CSV-like
//! series (downsampled for readability) plus the correlation statistic
//! the paper's analysis rests on ("for each benchmark, JPI increases
//! with the increase in TIPI").
//!
//! Usage: `cargo run --release -p bench --bin fig2 --
//!         [--csv] [--smoke] [--shards N] [--json PATH]
//!         [--scenario FILE] [--list]`

use bench::cli::GridArgs;
use bench::grid::{AxisSet, GridResult, GridSetup, GridSpec};
use bench::{Setup, TracePoint};

const USAGE: &str = "fig2 [--csv] [--smoke] [--shards N] [--json PATH] [--scenario FILE] [--list]\n      [--store PATH] [--no-store]";

/// Pearson correlation between TIPI and JPI series.
fn correlation(points: &[TracePoint]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.tipi).sum::<f64>() / n;
    let my = points.iter().map(|p| p.jpi).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for p in points {
        let dx = p.tipi - mx;
        let dy = p.jpi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

fn spec(args: &GridArgs) -> GridSpec {
    let mut spec = GridSpec::new("fig2", args.scale());
    // The paper plots UTS, SOR-irt, Heat-irt, MiniFE, HPCCG, AMG.
    let benchmarks = if args.smoke {
        vec!["UTS".into(), "Heat-irt".into()]
    } else {
        ["UTS", "SOR-irt", "Heat-irt", "MiniFE", "HPCCG", "AMG"]
            .map(String::from)
            .to_vec()
    };
    spec.push(AxisSet::new(
        benchmarks,
        vec![GridSetup::new("Default", Setup::Default).with_trace()],
    ));
    spec
}

fn main() {
    let mut args = GridArgs::parse_with(USAGE, &["--csv"], 0);
    let csv = args.take_flag("--csv");
    let spec = spec(&args);
    if args.handle_scenario_or_list(&spec) {
        return;
    }
    eprintln!(
        "fig2: timelines at max frequencies, scale {:.2}, {} cells on {} shards",
        spec.scale,
        spec.cells().len(),
        args.shards
    );
    let (result, timing) = args.run_grid(&spec);
    args.finish_timed(&result, &timing);
    render(&result, csv);
}

fn render(result: &GridResult, csv: bool) {
    for cell in &result.cells {
        let name = &cell.spec.bench;
        let trace = &cell.trace;
        if csv {
            println!("# {name}: t_s,tipi,jpi_nJ");
            for p in trace {
                println!("{:.3},{:.5},{:.4}", p.t_s, p.tipi, p.jpi * 1e9);
            }
            continue;
        }
        let r = correlation(trace);
        println!(
            "== {name}: {} samples, corr(TIPI, JPI) = {r:+.3}",
            trace.len()
        );
        // Downsample to ~16 display rows.
        let step = (trace.len() / 16).max(1);
        for p in trace.iter().step_by(step) {
            let bar = "#".repeat((p.tipi * 400.0).min(60.0) as usize);
            println!(
                "  t={:6.2}s  TIPI {:.4}  JPI {:6.3} nJ  |{bar}",
                p.t_s,
                p.tipi,
                p.jpi * 1e9
            );
        }
    }
}
