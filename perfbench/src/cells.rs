//! The `paper-eval` and `fleet` workloads: grid cells run one after
//! another on the calling thread through `bench::grid::run_cell_timed`,
//! the grid runner's own per-cell path. An op is a cell. The cells are
//! always the paper grids' (repetition 0); the seed picks the order
//! they run in.

use crate::golden::{Expect, Golden, GoldenOp};
use crate::stats::{geomean_ratio, permutation};
use crate::trace::{ClusterCounts, Layers, SimOut};
use crate::{Pass, Workload, DEFAULT_SEED};
use bench::grid::{
    run_cell_timed, straggler_spec, AxisSet, CellResult, CellSpec, CellTiming, Fleet, GridSetup,
    GridSpec,
};
use bench::json::ToJson;
use bench::store::fnv1a64;
use bench::{ScenarioOutcome, Setup};
use cuttlefish::Policy;
use simproc::freq::{MachineSpec, HASWELL_2650V3};
use std::time::Instant;
use workloads::ProgModel;

/// Workload scale of the timed cells: the paper's full-length runs.
pub const SCALE: f64 = 1.0;

/// The fleet shapes and the span each one's cluster runs are timed in.
pub const FLEET_SPANS: [(&str, &str); 4] = [
    ("bsp4", "cluster.bsp4"),
    ("straggler", "cluster.straggler"),
    ("fleet256", "cluster.fleet256"),
    ("replicated2", "cluster.replicated2"),
];

/// The work-sharing benchmarks the BSP fleets strong-scale (BSP
/// decompositions need region-structured benchmarks).
const WS_BENCHES: [&str; 3] = ["SOR-ws", "Heat-ws", "HPCCG"];

/// The shape of a single-node cell.
pub const SINGLE_NODE: &str = "1";

/// A grid cell with the name of its cluster shape: [`SINGLE_NODE`] or
/// a [`FLEET_SPANS`] key.
pub type ShapedCell = (&'static str, CellSpec);

/// Index of the set-up's warm-up cell in each workload. Paper-eval's
/// first cell takes about 200 ms; fleet's first takes 50 ms, so its
/// warm-up is UTS Default replicated on 2 nodes, about 350 ms.
pub const PAPER_EVAL_WARMUP: usize = 0;
pub const FLEET_WARMUP: usize = 18;

/// The cells of `spec`, all of shape `shape`.
fn shaped(spec: &GridSpec, shape: &'static str) -> Vec<ShapedCell> {
    spec.cells().into_iter().map(|cell| (shape, cell)).collect()
}

/// The pair every headline ratio compares: Default and Cuttlefish
/// (core and uncore).
fn default_and_cuttlefish() -> Vec<GridSetup> {
    vec![
        GridSetup::new("Default", Setup::Default),
        GridSetup::new("Cuttlefish", Setup::Cuttlefish(Policy::Both)),
    ]
}

/// Figures 10 and 11: every OpenMP and HClib benchmark under Default
/// and Cuttlefish, single-node. The figures' core-only and uncore-only
/// ablation setups are left out: they enter neither headline ratio,
/// and without them a run fits twice the passes.
pub fn paper_eval_cells(scale: f64) -> Vec<ShapedCell> {
    let mut cells = Vec::new();
    for (name, model) in [("fig10", ProgModel::OpenMp), ("fig11", ProgModel::HClib)] {
        let mut spec = GridSpec::new(name, scale);
        spec.model = model;
        let suite = spec.full_suite();
        spec.push(AxisSet::new(suite, default_and_cuttlefish()));
        cells.extend(shaped(&spec, SINGLE_NODE));
    }
    cells
}

/// Multi-node cells under Default and Cuttlefish: the work-sharing
/// benchmarks strong-scaled over the fig10 MPI fleet (4 nodes), the
/// residency grid's 3+1 straggler fleet and its 256-node fleet, plus
/// UTS replicated on 2 nodes. Benchmark-major, as one grid of all
/// three fleets would enumerate them.
pub fn fleet_cells(scale: f64) -> Vec<ShapedCell> {
    let setups = default_and_cuttlefish();
    let mut straggler = vec![HASWELL_2650V3.clone(); 3];
    straggler.push(straggler_spec());
    let bsp_fleets = [
        ("bsp4", Fleet::uniform(4).with_bsp(96, 1.2e9)),
        ("straggler", Fleet::hetero(straggler).with_bsp(96, 240.0e6)),
        ("fleet256", Fleet::uniform(256).with_bsp(8, 240.0e6)),
    ];
    let mut cells = Vec::new();
    let mut add = |shape: &'static str, bench: &str, fleet: &Fleet| {
        let mut spec = GridSpec::new("fleet", scale);
        spec.push(
            AxisSet::new(vec![bench.to_string()], setups.clone()).with_fleets(vec![fleet.clone()]),
        );
        cells.extend(shaped(&spec, shape));
    };
    for bench in WS_BENCHES {
        for (shape, fleet) in &bsp_fleets {
            add(shape, bench, fleet);
        }
    }
    add("replicated2", "UTS", &Fleet::uniform(2));
    cells
}

/// Op name of a cell: model, benchmark, label and cluster shape.
pub fn op_name((shape, cell): &ShapedCell) -> String {
    let model = match cell.model {
        ProgModel::OpenMp => "omp",
        ProgModel::HClib => "hclib",
    };
    format!("{model}/{}/{}/{shape}", cell.bench, cell.label)
}

/// Geomean Cuttlefish/Default ratios of joules and virtual seconds
/// over every cell pair of the same benchmark, model and cluster
/// shape, in enumeration order. `outs[i]` is `(seconds, joules)` of
/// `cells[i]`.
pub fn cf_ratios(cells: &[ShapedCell], outs: &[(f64, f64)]) -> (f64, f64) {
    let same_shape = |(a_shape, a): &ShapedCell, (b_shape, b): &ShapedCell| {
        a_shape == b_shape && a.bench == b.bench && a.model == b.model
    };
    let mut energy = Vec::new();
    let mut time = Vec::new();
    for (i, cf) in cells.iter().enumerate() {
        if cf.1.label != "Cuttlefish" || cf.1.trace {
            continue;
        }
        if let Some(d) = cells
            .iter()
            .position(|c| c.1.label == "Default" && !c.1.trace && same_shape(c, cf))
        {
            energy.push((outs[d].1, outs[i].1));
            time.push((outs[d].0, outs[i].0));
        }
    }
    (geomean_ratio(&energy), geomean_ratio(&time))
}

/// Digest of a cell's canonical artifact bytes.
pub fn digest(result: &CellResult) -> u64 {
    fnv1a64(result.to_json().to_pretty().as_bytes())
}

/// The seed-independent output invariants: the quanta split adds up,
/// and time and energy are finite and positive.
pub fn invariants_hold(result: &CellResult, timing: &CellTiming) -> bool {
    timing.total_quanta
        == timing.stepped_quanta + timing.idle_advanced_quanta + timing.busy_advanced_quanta
        && result.seconds.is_finite()
        && result.seconds > 0.0
        && result.joules.is_finite()
        && result.joules > 0.0
}

/// What a pass keeps of a cell's output: enough to check it, to compare
/// the traced run with it and to compute the ratios. It holds no heap
/// memory, so each cell's allocations are all freed before the next
/// cell runs, whatever order the seed gave the cells.
#[derive(Debug, Clone, Copy)]
struct CellOut {
    digest: u64,
    sim: SimOut,
    barrier_wait_s: f64,
    invariants_hold: bool,
}

impl CellOut {
    fn of(result: &CellResult, timing: &CellTiming) -> CellOut {
        CellOut {
            digest: digest(result),
            sim: SimOut {
                seconds: result.seconds,
                joules: result.joules,
                instructions: result.instructions,
                quanta: [
                    timing.stepped_quanta,
                    timing.idle_advanced_quanta,
                    timing.busy_advanced_quanta,
                    timing.total_quanta,
                ],
            },
            barrier_wait_s: result.barrier_wait_s,
            invariants_hold: invariants_hold(result, timing),
        }
    }
}

/// A list of grid cells at one machine and scale.
pub struct Cells {
    name: &'static str,
    machine: MachineSpec,
    scale: f64,
    cells: Vec<ShapedCell>,
    /// Cell indices in run order.
    order: Vec<usize>,
    expect: Expect,
    /// Last untraced pass, in cell-index order.
    last: Vec<CellOut>,
}

impl Cells {
    /// Build and validate the cells of `name` (`paper-eval` or
    /// `fleet`) in `seed`'s order, then run the workload's warm-up
    /// cell as the untimed warm-up op.
    pub fn setup(name: &'static str, seed: u64, golden: Option<&Golden>) -> Result<Cells, String> {
        let (cells, warmup) = match name {
            "paper-eval" => (paper_eval_cells(SCALE), PAPER_EVAL_WARMUP),
            _ => (fleet_cells(SCALE), FLEET_WARMUP),
        };
        let machine = HASWELL_2650V3.clone();
        for cell in &cells {
            cell.1
                .scenario(&machine, SCALE)
                .validate()
                .map_err(|e| format!("{}: {e}", op_name(cell)))?;
        }
        let names: Vec<String> = cells.iter().map(op_name).collect();
        let expect = Expect::new(&names, golden)?;
        std::hint::black_box(run_cell_timed(&machine, SCALE, &cells[warmup].1));
        Ok(Cells {
            name,
            machine,
            scale: SCALE,
            order: permutation(cells.len(), seed),
            cells,
            expect,
            last: Vec::new(),
        })
    }
}

impl Workload for Cells {
    fn pass(&mut self) -> Result<Pass, String> {
        let n = self.cells.len();
        let mut op_ms = vec![0.0; n];
        let mut slots: Vec<Option<CellOut>> = vec![None; n];
        for &i in &self.order {
            let t = Instant::now();
            let (result, timing) = run_cell_timed(&self.machine, self.scale, &self.cells[i].1);
            op_ms[i] = t.elapsed().as_secs_f64() * 1e3;
            slots[i] = Some(CellOut::of(&result, &timing));
        }
        let outs: Vec<CellOut> = slots
            .into_iter()
            .map(|o| o.expect("every cell ran"))
            .collect();
        let mut failed = 0;
        for (i, out) in outs.iter().enumerate() {
            if !(out.invariants_hold && self.expect.check(i, out.digest)) {
                eprintln!(
                    "{}: op {} produced unexpected output",
                    self.name,
                    op_name(&self.cells[i])
                );
                failed += 1;
            }
        }
        self.last = outs;
        Ok(Pass { op_ms, failed })
    }

    fn traced_pass(&mut self, layers: &mut Layers) -> Result<Pass, String> {
        let mut op_ms = vec![0.0; self.cells.len()];
        let mut failed = 0;
        for &i in &self.order {
            let shaped = &self.cells[i];
            let (shape, cell) = shaped;
            let t = Instant::now();
            let want = self.last[i];
            let mut same = true;
            let scenario = cell.scenario(&self.machine, self.scale);
            let got = if *shape == SINGLE_NODE {
                layers.drive_single(&scenario)?
            } else {
                let (fleet, span) = FLEET_SPANS
                    .iter()
                    .copied()
                    .find(|(f, _)| f == shape)
                    .ok_or(format!("{}: unknown cluster shape", op_name(shaped)))?;
                let ScenarioOutcome::Cluster(c) = layers.tracer.span(span, |_| scenario.run())
                else {
                    return Err(format!("{}: expected a cluster outcome", op_name(shaped)));
                };
                let o = &c.outcome;
                let counts: &mut ClusterCounts = layers.clusters.entry(fleet).or_default();
                counts.idle_advanced += o.idle_advanced_quanta;
                counts.total += o.total_quanta;
                counts.barrier_wait_s += o.barrier_wait_s;
                same = o.barrier_wait_s.to_bits() == want.barrier_wait_s.to_bits();
                SimOut {
                    seconds: o.seconds,
                    joules: o.joules,
                    instructions: o.instructions,
                    quanta: [
                        o.stepped_quanta,
                        o.idle_advanced_quanta,
                        o.busy_advanced_quanta,
                        o.total_quanta,
                    ],
                }
            };
            op_ms[i] = t.elapsed().as_secs_f64() * 1e3;
            if !(same && got.same_bits(&want.sim)) {
                eprintln!(
                    "{}: traced {} differs from the untraced run",
                    self.name,
                    op_name(shaped)
                );
                failed += 1;
            }
        }
        Ok(Pass { op_ms, failed })
    }

    fn cf_ratios(&self) -> (f64, f64) {
        let outs: Vec<(f64, f64)> = self
            .last
            .iter()
            .map(|o| (o.sim.seconds, o.sim.joules))
            .collect();
        cf_ratios(&self.cells, &outs)
    }

    fn golden(&self) -> Option<Golden> {
        Some(Golden {
            workload: self.name.into(),
            seed: DEFAULT_SEED,
            ops: self
                .cells
                .iter()
                .zip(&self.last)
                .map(|(cell, out)| GoldenOp {
                    op: op_name(cell),
                    digest: out.digest,
                    seconds: Some(out.sim.seconds),
                    joules: Some(out.sim.joules),
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline numbers, recomputed from the committed fig10 +
    /// fig11 artifacts (virtual seconds and joules of every cell).
    #[test]
    fn paper_eval_geomeans_reproduce_from_the_golden_artifacts() {
        let golden = Golden::load(&crate::golden::path("paper-eval")).expect("committed golden");
        let cells = paper_eval_cells(SCALE);
        let names: Vec<String> = cells.iter().map(op_name).collect();
        let golden_names: Vec<&str> = golden.ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(
            golden_names,
            names.iter().map(String::as_str).collect::<Vec<_>>()
        );
        let outs: Vec<(f64, f64)> = golden
            .ops
            .iter()
            .map(|o| (o.seconds.unwrap(), o.joules.unwrap()))
            .collect();
        let (energy, time) = cf_ratios(&cells, &outs);
        assert_eq!(energy, 0.8273690516747303);
        assert_eq!(time, 1.017250038881733);
    }

    #[test]
    fn pairs_match_shape_and_skip_traced_cells() {
        let cells = fleet_cells(0.05);
        assert_eq!(cells.len(), 2 * (3 * WS_BENCHES.len() + 1));
        let outs: Vec<(f64, f64)> = cells
            .iter()
            .map(|(_, c)| {
                if c.label == "Default" {
                    (2.0, 4.0)
                } else {
                    (2.0, 2.0)
                }
            })
            .collect();
        assert_eq!(cf_ratios(&cells, &outs), (0.5, 1.0));
        for (fleet, _) in FLEET_SPANS {
            assert!(cells.iter().any(|(s, _)| *s == fleet), "{fleet} missing");
        }
    }

    #[test]
    fn fleet_shapes_name_their_clusters() {
        for (shape, cell) in fleet_cells(0.05) {
            let nodes = match shape {
                "bsp4" | "straggler" => 4,
                "fleet256" => 256,
                "replicated2" => 2,
                other => panic!("unknown shape {other}"),
            };
            assert_eq!(cell.nodes, nodes, "{shape}");
            assert_eq!(cell.machines.is_some(), shape == "straggler", "{shape}");
            assert_eq!(cell.bsp.is_none(), shape == "replicated2", "{shape}");
        }
        let (shape, warmup) = &fleet_cells(SCALE)[FLEET_WARMUP];
        assert_eq!(
            (*shape, warmup.bench.as_str(), warmup.label.as_str()),
            ("replicated2", "UTS", "Default")
        );
    }
}
