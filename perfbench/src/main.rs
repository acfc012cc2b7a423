//! The benchmark of the Cuttlefish reproduction: one workload per run,
//! driven in-process from one thread through the crates' public
//! functions, its outputs checked, and as the last line of standard
//! output one JSON object — the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). README.md in this
//! directory defines every metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-eval --seed 12648430 --seconds 30 --trace 0
//! ```

mod cells;
mod fuzzing;
mod golden;
mod host;
mod stats;
mod trace;
mod warm;

use bench::json::Json;
use golden::Golden;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Layers;

/// The workload seed the committed golden digests were taken at.
pub const DEFAULT_SEED: u64 = bench::HARNESS_SEED;

/// Set-ups per run, whose fastest is `setup_s`: as many as fill this
/// share of the budget at the first set-up's cost, within bounds.
const SETUP_SHARE: f64 = 0.15;
const MIN_SETUPS: usize = 10;
const MAX_SETUPS: usize = 25;

const WORKLOADS: [&str; 4] = ["paper-eval", "fleet", "fuzz", "warm-serve"];

const USAGE: &str = "usage: perfbench --workload paper-eval|fleet|fuzz|warm-serve \
[--seed N] [--seconds S] [--trace 0|1] [--bless]";

/// One timed pass over a workload's fixed input.
pub struct Pass {
    /// Host milliseconds of each op, indexed by op (not by the seed's
    /// run order), so that entry `i` is the same op in every pass.
    pub op_ms: Vec<f64>,
    /// Ops whose output failed a check.
    pub failed: u64,
}

/// A workload's prepared inputs, held across passes.
pub trait Workload {
    /// Run every op once; check the outputs after the clock stops.
    fn pass(&mut self) -> Result<Pass, String>;
    /// The same ops with every layer call traced into `layers`; fails
    /// an op whose simulated output differs from the last `pass`.
    fn traced_pass(&mut self, layers: &mut Layers) -> Result<Pass, String>;
    /// `(cf_energy_ratio, cf_time_ratio)` of the last pass.
    fn cf_ratios(&self) -> (f64, f64);
    /// Whether an op is a serve round trip, whose latency percentiles
    /// the traced run reports.
    fn round_trips(&self) -> bool {
        false
    }
    /// The last pass's outputs as golden digests, where the workload
    /// has any.
    fn golden(&self) -> Option<Golden>;
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number `{s}`: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = parse_u64(&value()?)?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bless,
    })
}

/// Build a workload's inputs and run its warm-up op, timing both into
/// `setup_s`. Each set-up gets its own scratch directory.
fn setup(args: &Args, run_dir: &Path, setup_s: &mut Vec<f64>) -> Result<Box<dyn Workload>, String> {
    let start = Instant::now();
    let golden = match args.workload {
        "paper-eval" | "fleet" | "fuzz" if !args.bless => {
            Some(Golden::load(&golden::path(args.workload))?)
        }
        _ => None,
    };
    let workload: Box<dyn Workload> = match args.workload {
        "paper-eval" => Box::new(cells::Cells::setup(
            "paper-eval",
            args.seed,
            golden.as_ref(),
        )?),
        "fleet" => Box::new(cells::Cells::setup("fleet", args.seed, golden.as_ref())?),
        "fuzz" => Box::new(fuzzing::Fuzz::setup(args.seed, golden.as_ref())?),
        _ => Box::new(warm::Warm::setup(
            args.seed,
            &run_dir.join(format!("setup-{}", setup_s.len())),
        )?),
    };
    setup_s.push(start.elapsed().as_secs_f64());
    Ok(workload)
}

/// Regenerate `golden/<workload>.json` from one pass at the default seed.
fn bless(args: &Args, run_dir: &Path) -> Result<(), String> {
    if args.seed != DEFAULT_SEED {
        return Err("--bless records the default seed only".into());
    }
    let mut workload = setup(args, run_dir, &mut Vec::new())?;
    workload.pass()?;
    let golden = workload
        .golden()
        .ok_or(format!("{} has no golden outputs", args.workload))?;
    let path = golden::path(args.workload);
    golden.save(&path)?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}

type Metric = (String, f64, &'static str);

/// Host seconds of one pass over the input, with every op counted at
/// its fastest across `passes`. Every op is the same work in every
/// pass, and interference from the rest of the host only ever adds
/// time. The host's speed swings by tens of percent over seconds to
/// minutes, so a median — of a pass, or of an op's copies — moves with
/// whatever the host did during the run, while an op's fastest copy
/// needs only one quiet moment among its passes: among the hundreds
/// of copies of a round trip, and, less surely, among the 5–9 of a
/// cell.
fn pass_s(passes: &[Pass]) -> f64 {
    (0..passes[0].op_ms.len())
        .map(|i| stats::min(&passes.iter().map(|p| p.op_ms[i]).collect::<Vec<f64>>()))
        .sum::<f64>()
        / 1e3
}

fn result_line(correct: bool, attempted: usize, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str((*unit).into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_compact()
}

fn run(args: &Args, run_dir: &Path) -> Result<String, String> {
    let cpu = host::pin_to_one_cpu()?;
    let calib_before = host::calibrate();
    let steal_before = host::steal_ticks();

    let mut setup_s = Vec::new();
    let mut workload = setup(args, run_dir, &mut setup_s)?;
    // The other set-ups are spread over the run and thrown away. They
    // repeat the same work, and the host's speed drifts over seconds,
    // so like `wall_s` the set-up time is the fastest of many samples
    // taken at many moments.
    let setups =
        ((SETUP_SHARE * args.seconds / setup_s[0]).round() as usize).clamp(MIN_SETUPS, MAX_SETUPS);
    let mut layers = args.trace.then(Layers::new);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        let round = Instant::now();
        plain.push(workload.pass()?);
        if let Some(layers) = layers.as_mut() {
            traced.push(workload.traced_pass(layers)?);
        }
        let round_s = round.elapsed().as_secs_f64();
        while setup_s.len() < setups
            && start.elapsed().as_secs_f64() >= args.seconds * setup_s.len() as f64 / setups as f64
        {
            setup(args, run_dir, &mut setup_s)?;
        }
        // Stop where the next round would end nearer past the budget
        // than this one ends short of it.
        if start.elapsed().as_secs_f64() + round_s / 2.0 >= args.seconds {
            break;
        }
    }
    while setup_s.len() < setups {
        setup(args, run_dir, &mut setup_s)?;
    }

    let calib_after = host::calibrate();
    let steal = host::steal_ticks().saturating_sub(steal_before);
    let attempted: usize = plain.iter().chain(&traced).map(|p| p.op_ms.len()).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|p| p.failed).sum();
    let wall_s = pass_s(&plain);
    eprintln!(
        "perfbench: {} seed {:#x} on CPU {cpu}: {} passes, {attempted} ops, {failed} failed; \
         pass {wall_s:.3} s; {} set-ups, fastest {:.3} s, median {:.3} s; host probe \
         {calib_before:.2} ms before, {calib_after:.2} ms after, {steal} steal ticks",
        args.workload,
        args.seed,
        plain.len() + traced.len(),
        setup_s.len(),
        stats::min(&setup_s),
        stats::median(&setup_s),
    );

    let metrics: Vec<Metric> = match layers {
        None => {
            let (energy, time) = workload.cf_ratios();
            vec![
                ("wall_s".into(), wall_s, "s"),
                ("setup_s".into(), stats::min(&setup_s), "s"),
                ("peak_rss_mib".into(), host::peak_rss_mib()?, "MiB"),
                (
                    "ops_per_s".into(),
                    plain[0].op_ms.len() as f64 / wall_s,
                    "1/s",
                ),
                ("cf_energy_ratio".into(), energy, "ratio"),
                ("cf_time_ratio".into(), time, "ratio"),
            ]
        }
        Some(layers) => {
            let spans = run_dir
                .parent()
                .expect("run dir has a parent")
                .join(format!("spans-{}.json", args.workload));
            std::fs::write(
                &spans,
                layers.spans_json(args.workload, args.seed).to_pretty(),
            )
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
            // Round-trip latency is a distribution a client sees, so its
            // percentiles are over every untraced sample of the run.
            let samples: Vec<f64> = if workload.round_trips() {
                plain.iter().flat_map(|p| p.op_ms.iter().copied()).collect()
            } else {
                Vec::new()
            };
            let pct = |p| stats::percentile(&samples, p).unwrap_or(0.0);
            let mut m = layers.metrics(traced.len());
            m.push(("serve.rt_p50_ms".into(), pct(50), "ms"));
            m.push(("serve.rt_p99_ms".into(), pct(99), "ms"));
            m.push((
                "host.calib_ms".into(),
                (calib_before + calib_after) / 2.0,
                "ms",
            ));
            m.push(("host.steal_ticks".into(), steal as f64, "count"));
            m.push((
                "trace.overhead_pct".into(),
                (pass_s(&traced) / wall_s - 1.0) * 100.0,
                "%",
            ));
            m
        }
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = host::hold_mmap_threshold() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    // Scratch files (the warm-serve stores) live under the benchmark's
    // own directory and go away with the run; the spans file stays.
    let runs: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
    let run_dir = runs.join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))
        .and_then(|()| {
            if args.bless {
                bless(&args, &run_dir).map(|()| None)
            } else {
                run(&args, &run_dir).map(Some)
            }
        });
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
