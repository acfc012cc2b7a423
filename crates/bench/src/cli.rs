//! Tiny shared argument parser for the figure/table bins.
//!
//! Every bin accepts the same grid flags:
//!
//! * `--shards N` — worker threads for the scenario grid (default: all
//!   available cores);
//! * `--smoke` — run the bin's reduced smoke grid at a fixed small
//!   scale (the CI "bench smoke" stage), ignoring `CUTTLEFISH_SCALE`;
//! * `--json PATH` — additionally write the [`GridResult`] artifact;
//! * `--scenario FILE` — instead of the grid, run one scenario from a
//!   JSON file (see `bench::scenario`): any imaginable cell without
//!   recompiling. With `--json` the one-cell artifact is written, and
//!   a cell described by a scenario file reproduces the grid's cell
//!   bytes bit for bit;
//! * `--list` — print the grid's enumerated cells and exit;
//! * `--store PATH` — content-addressed result store to replay hits
//!   from and commit misses to (default `target/cuttlefish-store`,
//!   or the `CUTTLEFISH_STORE` environment variable — see
//!   [`bench::store`](crate::store));
//! * `--no-store` — bypass the store entirely (every cell executes).
//!
//! Bin-specific flags (`--csv`) and positionals pass through untouched;
//! only `debug_report` takes positionals. Any other argument is a
//! usage error (exit 2), and so is a `CUTTLEFISH_SCALE` that is not a
//! finite number: a typo must never fall through to a paper-scale run.

use crate::grid::{GridResult, GridSpec, GridTiming};
use crate::json::ToJson;
use crate::scenario::Scenario;
use crate::store::{resolve_root, Store};
use crate::MAX_SCALE;

/// Scale every `--smoke` grid runs at: small enough for PR-time CI,
/// large enough that daemons resolve optima on the short benchmarks.
pub const SMOKE_SCALE: f64 = 0.05;

/// Parsed common flags plus pass-through arguments.
#[derive(Debug, Clone)]
pub struct GridArgs {
    /// Worker threads for `GridSpec::run`.
    pub shards: usize,
    /// Reduced-grid mode.
    pub smoke: bool,
    /// Artifact output path.
    pub json: Option<std::path::PathBuf>,
    /// Scenario file to run instead of the grid.
    pub scenario: Option<std::path::PathBuf>,
    /// List the grid's cells instead of running.
    pub list: bool,
    /// Explicit result-store root (`--store`).
    pub store_root: Option<std::path::PathBuf>,
    /// Bypass the result store (`--no-store`).
    pub no_store: bool,
    rest: Vec<String>,
}

impl GridArgs {
    /// Parse `std::env::args`; `usage` is printed on `--help` or on a
    /// malformed argument. Unknown flags (`--smoek`, `-smoke`) and
    /// stray positionals are fatal: a typo must not silently run the
    /// full paper-scale grid. Bins with extra flags or positionals
    /// declare them via [`GridArgs::parse_with`].
    pub fn parse(usage: &str) -> GridArgs {
        Self::parse_with(usage, &[], 0)
    }

    /// [`GridArgs::parse`] with bin-specific boolean flags (e.g.
    /// `&["--csv"]`) passed through to [`GridArgs::take_flag`], and at
    /// most `max_positionals` positionals (see
    /// [`GridArgs::positionals`]).
    pub fn parse_with(usage: &str, extra_flags: &[&str], max_positionals: usize) -> GridArgs {
        let mut shards = default_shards();
        let mut smoke = false;
        let mut json = None;
        let mut scenario = None;
        let mut list = false;
        let mut store_root = None;
        let mut no_store = false;
        let mut rest = Vec::new();
        let mut positionals = 0;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--shards" => {
                    shards = args
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die(usage, "--shards needs a positive integer"));
                }
                "--json" => {
                    json = Some(std::path::PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| die(usage, "--json needs a path")),
                    ));
                }
                "--scenario" => {
                    scenario = Some(std::path::PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| die(usage, "--scenario needs a path")),
                    ));
                }
                "--list" => list = true,
                "--smoke" => smoke = true,
                "--store" => {
                    store_root = Some(std::path::PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| die(usage, "--store needs a path")),
                    ));
                }
                "--no-store" => no_store = true,
                "--help" | "-h" => {
                    println!("{usage}");
                    std::process::exit(0);
                }
                other if extra_flags.contains(&other) => rest.push(arg),
                other if other.starts_with('-') => {
                    die(usage, &format!("unknown flag `{other}`"));
                }
                other if positionals == max_positionals => {
                    die(usage, &format!("unexpected argument `{other}`"));
                }
                _ => {
                    positionals += 1;
                    rest.push(arg);
                }
            }
        }
        GridArgs {
            shards,
            smoke,
            json,
            scenario,
            list,
            store_root,
            no_store,
            rest,
        }
    }

    /// The result store this invocation runs against: `None` under
    /// `--no-store`, otherwise a [`Store`] at the `--store` path /
    /// `CUTTLEFISH_STORE` / `target/cuttlefish-store` root. Opening is
    /// free, so bins resolve this once and pass it down.
    pub fn store(&self) -> Option<Store> {
        if self.no_store {
            return None;
        }
        Some(Store::open(resolve_root(self.store_root.clone())))
    }

    /// Run `spec` with this invocation's shard count and store — the
    /// one-line body of every figure/table bin.
    pub fn run_grid(&self, spec: &GridSpec) -> (GridResult, GridTiming) {
        spec.run_timed_store(self.shards, self.store().as_ref())
    }

    /// Handle `--list` and `--scenario` for this bin's grid. Returns
    /// `true` when the invocation was fully handled and the bin should
    /// exit without running its grid.
    ///
    /// `--list` prints every enumerated cell (index, benchmark, label,
    /// cluster shape) — the catalogue a scenario file can reproduce.
    /// `--scenario FILE` parses and validates the file, runs it through
    /// exactly the grid's per-cell path, prints a one-line outcome, and
    /// honours `--json` with the one-cell artifact.
    pub fn handle_scenario_or_list(&self, spec: &GridSpec) -> bool {
        if self.list {
            let cells = spec.cells();
            println!(
                "{}: {} cells (scale {})",
                spec.name,
                cells.len(),
                spec.scale
            );
            for (i, c) in cells.iter().enumerate() {
                let mut shape = format!("nodes={}", c.nodes);
                if let Some(b) = &c.bsp {
                    shape.push_str(&format!(" bsp={}x{:.0}B", b.supersteps, b.comm_bytes));
                }
                if c.machines.is_some() {
                    shape.push_str(" hetero");
                }
                if c.trace {
                    shape.push_str(" trace");
                }
                println!(
                    "  [{i:>3}] {:<10} {:<22} rep={} {}",
                    c.bench, c.label, c.rep, shape
                );
            }
            return true;
        }
        let Some(path) = &self.scenario else {
            return false;
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        let scenario = Scenario::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!(
                "error: {} is not a valid scenario file: {e}",
                path.display()
            );
            std::process::exit(2);
        });
        // Artifacts embed the grid's cell format, which only covers
        // grid-expressible scenarios (benchmark workloads, uniform
        // policies, harness seeds); everything the file schema allows
        // still *runs* — without `--json`, execute directly.
        match crate::grid::run_scenario_timed(&scenario, self.store().as_ref()) {
            Ok((result, timing)) => {
                self.finish_timed(&result, &timing);
                let cell = &result.cells[0];
                print_outcome(&scenario, cell.seconds, cell.joules, cell.instructions);
            }
            Err(reason) if self.json.is_none() => {
                let wall = std::time::Instant::now();
                let outcome = scenario.run();
                eprintln!(
                    "{}: stepped {} of {} quanta (idle-adv {}, busy-adv {}), {:.1} ms wall \
                     (cell format not applicable: {reason})",
                    scenario.label,
                    outcome.stepped_quanta(),
                    outcome.total_quanta(),
                    outcome.idle_advanced_quanta(),
                    outcome.busy_advanced_quanta(),
                    wall.elapsed().as_secs_f64() * 1e3,
                );
                print_outcome(
                    &scenario,
                    outcome.seconds(),
                    outcome.joules(),
                    outcome.instructions(),
                );
            }
            Err(reason) => {
                eprintln!(
                    "error: scenario {} cannot be written as a --json grid artifact: \
                     {reason} (drop --json to run it anyway)",
                    path.display()
                );
                std::process::exit(2);
            }
        }
        true
    }

    /// Consume a bin-specific boolean flag (e.g. `--csv`).
    pub fn take_flag(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(idx) => {
                self.rest.remove(idx);
                true
            }
            None => false,
        }
    }

    /// Remaining positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.rest
    }

    /// The scale this invocation runs at: `--smoke` pins
    /// [`SMOKE_SCALE`] (CI artifacts must not depend on the
    /// environment); otherwise `CUTTLEFISH_SCALE`, default 1.0 (the
    /// paper's full-length runs), clamped to `0.01..=`[`MAX_SCALE`].
    /// A value that is not a finite number exits 2, naming it.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            return SMOKE_SCALE;
        }
        let Some(raw) = std::env::var_os("CUTTLEFISH_SCALE") else {
            return 1.0;
        };
        match raw.to_str().and_then(|v| v.parse::<f64>().ok()) {
            Some(s) if s.is_finite() => s.clamp(0.01, MAX_SCALE),
            _ => {
                eprintln!(
                    "error: CUTTLEFISH_SCALE `{}` is not a finite number",
                    raw.to_string_lossy()
                );
                std::process::exit(2);
            }
        }
    }

    /// Write the artifact if `--json` was given. Exits non-zero on I/O
    /// failure so CI cannot mistake a missing artifact for success.
    pub fn finish(&self, result: &GridResult) {
        if let Some(path) = &self.json {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    die_io(path, &e);
                }
            }
            if let Err(e) = std::fs::write(path, result.to_json_string()) {
                die_io(path, &e);
            }
            eprintln!(
                "{}: wrote {} cells to {}",
                result.grid,
                result.cells.len(),
                path.display()
            );
        }
    }

    /// [`finish`](GridArgs::finish), plus the run's timing: prints the
    /// before/after stepping-rate line (under the pure quantum loop
    /// every virtual quantum was an engine step; the line shows how
    /// many still are) and, next to a `--json` artifact, writes a
    /// `<artifact>.timing` sidecar the aggregate step folds into
    /// `BENCH_smoke.json` metadata. Timing never enters the artifact
    /// itself — those bytes stay deterministic.
    pub fn finish_timed(&self, result: &GridResult, timing: &GridTiming) {
        self.finish(result);
        eprintln!("{}", timing.stepping_summary());
        if let Some(path) = &self.json {
            let mut sidecar = path.as_os_str().to_owned();
            sidecar.push(".timing");
            let sidecar = std::path::PathBuf::from(sidecar);
            if let Err(e) = std::fs::write(&sidecar, timing.to_json().to_pretty()) {
                die_io(&sidecar, &e);
            }
        }
    }
}

/// One-line scenario outcome summary.
fn print_outcome(scenario: &Scenario, seconds: f64, joules: f64, instructions: f64) {
    println!(
        "{}: {} on {} node(s) — {:.3} s, {:.1} J, {:.3e} instructions",
        scenario.label,
        scenario.workload.name(),
        scenario.n_nodes(),
        seconds,
        joules,
        instructions
    );
}

/// Default shard count: every available core.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn die(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

fn die_io(path: &std::path::Path, e: &std::io::Error) -> ! {
    eprintln!("error: cannot write {}: {e}", path.display());
    std::process::exit(1);
}
