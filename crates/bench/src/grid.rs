//! The scenario grid: declarative axis-sets over [`Scenario`] fields,
//! fanned out across worker threads and aggregated into one
//! machine-readable result.
//!
//! The paper's evaluation is a grid — every figure/table is "run these
//! benchmarks under these setups on these fleets and compare" — and
//! each run is an independent, deterministic simulation. A [`GridSpec`]
//! is a list of [`AxisSet`]s, each the cartesian product
//! `benchmarks × fleets × setups × reps` over scenario fields (the
//! [`Fleet`] axis covers node counts, heterogeneous per-node machines,
//! and bulk-synchronous decompositions — no hand-built special-case
//! cells). [`GridSpec::run`] executes the enumerated cells on
//! `--shards` threads that take cell indices from a shared cursor
//! ([`par_map`]), each cell running through
//! [`Scenario::run`], and [`GridResult`] carries the per-cell
//! measurements in *cell-enumeration order* regardless of which thread
//! ran what — so the serialized artifact is byte-identical for any
//! shard count, which is what lets CI diff it over time.
//!
//! The figure/table bins in `src/bin/` are each one `GridSpec`
//! declaration plus a formatting layer over the returned cells; the
//! same JSON artifacts feed `ci.sh`'s "bench smoke" stage.

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::scenario::{arr, from_arr, from_opt_u32, obj, opt_u32, Scenario, ScenarioOutcome};
use crate::store::{CellKey, Store};
use crate::{par_map, RunOutcome, Setup, TracePoint, HARNESS_SEED};
use cluster::SteppingMode;
use cuttlefish::controller::{OracleDerivation, OracleTable, PidGains, TraceSample};
use cuttlefish::Config;
use simproc::freq::{Freq, FreqDomain, MachineSpec, HASWELL_2650V3};
use std::time::Instant;
use workloads::{hclib_suite, openmp_suite, Benchmark, ProgModel, Scale, WorkloadSpec};

/// Artifact format tag embedded in every serialized [`GridResult`].
pub const SCHEMA: &str = "cuttlefish/grid-result/v1";

/// Format tag of the canonical cell-identity document
/// ([`CellSpec::store_identity`]) — also the declarative cell
/// submission form the serve daemon accepts.
pub const CELL_KEY_SCHEMA: &str = "cuttlefish/cell-key/v1";

/// One entry on a grid's setup axis: an execution [`Setup`] with its
/// Cuttlefish [`Config`], a display label unique within the grid, and
/// whether cells under it collect a `Tinv`-rate trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSetup {
    /// Axis label (`"Default"`, `"Tinv=40ms"`, `"a:CF=1.2"` ...).
    pub label: String,
    /// Execution configuration.
    pub setup: Setup,
    /// Cuttlefish parameters (ignored by `Default`/`Pinned` setups).
    pub config: Config,
    /// Collect the per-`Tinv` trace for cells under this setup
    /// (single-node cells only; cluster cells have no single timeline).
    pub trace: bool,
}

impl GridSetup {
    /// Setup with the default [`Config`] and no trace.
    pub fn new(label: impl Into<String>, setup: Setup) -> Self {
        GridSetup {
            label: label.into(),
            setup,
            config: Config::default(),
            trace: false,
        }
    }

    /// Builder: replace the config.
    pub fn with_config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Builder: collect traces.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// One entry on a grid's node-spec axis: how many nodes a cell runs
/// on, which machines they are, and whether the workload strong-scales
/// bulk-synchronously across them. This is the axis that used to need
/// hand-built "extra" cells — heterogeneous stragglers and `*-mpi`
/// shapes are now just fleet entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    /// Node count (1 = single package via the evaluation harness).
    pub nodes: usize,
    /// Per-node machine overrides (length must equal `nodes`). `None`
    /// — the normal case — runs every node on the grid's uniform
    /// machine, and the serialized cell is byte-identical to the
    /// pre-heterogeneity format (the key is omitted entirely).
    pub machines: Option<Vec<MachineSpec>>,
    /// Bulk-synchronous decomposition. `None` replicates the whole
    /// benchmark per node with one final barrier; `Some` strong-scales
    /// it in superstep rounds (the §4.6 MPI+X shape).
    pub bsp: Option<BspCell>,
}

impl Fleet {
    /// One node on the grid machine — the default fleet.
    pub fn single() -> Self {
        Fleet {
            nodes: 1,
            machines: None,
            bsp: None,
        }
    }

    /// `n` nodes on the grid machine.
    pub fn uniform(n: usize) -> Self {
        Fleet {
            nodes: n,
            machines: None,
            bsp: None,
        }
    }

    /// A heterogeneous fleet, one machine per node.
    pub fn hetero(machines: Vec<MachineSpec>) -> Self {
        Fleet {
            nodes: machines.len(),
            machines: Some(machines),
            bsp: None,
        }
    }

    /// Builder: strong-scale bulk-synchronously.
    pub fn with_bsp(mut self, supersteps: u32, comm_bytes: f64) -> Self {
        self.bsp = Some(BspCell {
            supersteps,
            comm_bytes,
        });
        self
    }
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::single()
    }
}

/// One cartesian axis-set of a grid:
/// `benchmarks × fleets × setups × reps`, enumerated in exactly that
/// nesting order.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSet {
    /// Benchmark names (resolved against the grid's suite).
    pub benchmarks: Vec<String>,
    /// Setup axis.
    pub setups: Vec<GridSetup>,
    /// Node-spec axis.
    pub fleets: Vec<Fleet>,
    /// Repetitions per cell (distinct instantiation seeds).
    pub reps: u32,
}

impl AxisSet {
    /// Axis-set over single-node cells, one repetition — the shape of
    /// most figure/table grids.
    pub fn new(benchmarks: Vec<String>, setups: Vec<GridSetup>) -> Self {
        AxisSet {
            benchmarks,
            setups,
            fleets: vec![Fleet::single()],
            reps: 1,
        }
    }

    /// Builder: replace the fleet axis.
    pub fn with_fleets(mut self, fleets: Vec<Fleet>) -> Self {
        self.fleets = fleets;
        self
    }

    /// Builder: set the repetition count.
    pub fn with_reps(mut self, reps: u32) -> Self {
        self.reps = reps;
        self
    }
}

/// A declarative scenario grid: shared name/scale/machine/model plus a
/// list of axis-sets enumerated in order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid name (the figure/table this reproduces).
    pub name: String,
    /// Workload scale factor (1.0 = paper-length runs).
    pub scale: f64,
    /// Machine every uniform-fleet cell simulates.
    pub machine: MachineSpec,
    /// Programming model (selects the benchmark suite).
    pub model: ProgModel,
    /// Axis-sets, enumerated in order.
    pub axes: Vec<AxisSet>,
}

impl GridSpec {
    /// Grid over the paper's Haswell machine, OpenMP model, no
    /// axis-sets yet.
    pub fn new(name: impl Into<String>, scale: f64) -> Self {
        GridSpec {
            name: name.into(),
            scale,
            machine: HASWELL_2650V3.clone(),
            model: ProgModel::OpenMp,
            axes: Vec::new(),
        }
    }

    /// Append an axis-set.
    pub fn push(&mut self, axes: AxisSet) -> &mut Self {
        self.axes.push(axes);
        self
    }

    /// The benchmark suite this grid draws from.
    pub fn suite(&self) -> Vec<Benchmark> {
        match self.model {
            ProgModel::OpenMp => openmp_suite(Scale(self.scale)),
            ProgModel::HClib => hclib_suite(Scale(self.scale)),
        }
    }

    /// Every benchmark name of the suite for this grid's model, in
    /// table order — the full-suite benchmark axis.
    pub fn full_suite(&self) -> Vec<String> {
        self.suite().iter().map(|b| b.name.clone()).collect()
    }

    /// Enumerate the scenario cells in deterministic order: axis-sets
    /// in declaration order, each the cartesian product
    /// `benchmarks × fleets × setups × reps` in that nesting order.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for axes in &self.axes {
            for bench in &axes.benchmarks {
                for fleet in &axes.fleets {
                    for setup in &axes.setups {
                        for rep in 0..axes.reps.max(1) {
                            cells.push(CellSpec {
                                bench: bench.clone(),
                                model: self.model,
                                label: setup.label.clone(),
                                setup: setup.setup,
                                config: setup.config.clone(),
                                nodes: fleet.nodes,
                                rep,
                                trace: setup.trace && fleet.nodes == 1,
                                machines: fleet.machines.clone(),
                                bsp: fleet.bsp,
                                oracle: None,
                                stepping: SteppingMode::default(),
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Execute every cell across `shards` worker threads and aggregate.
    ///
    /// Cells are handed out through a shared cursor, so stragglers
    /// don't serialize behind a fixed partition; results are reassembled
    /// in enumeration order, making the aggregate — and its serialized
    /// bytes — independent of the shard count.
    pub fn run(&self, shards: usize) -> GridResult {
        self.run_timed(shards).0
    }

    /// [`run`](GridSpec::run), additionally reporting per-cell
    /// wall-clock and stepping counters. Timing lives *outside*
    /// [`GridResult`] by design: the artifact's bytes stay deterministic
    /// and shard-invariant, while the timing travels in the
    /// `.timing` sidecar / `BENCH_smoke.json` metadata the drift gate
    /// ignores.
    pub fn run_timed(&self, shards: usize) -> (GridResult, GridTiming) {
        self.run_timed_store(shards, None)
    }

    /// [`run_timed`](GridSpec::run_timed) through a content-addressed
    /// result [`Store`]: the grid's cells through [`run_cells`], after
    /// checking the benchmark axis against the suite.
    pub fn run_timed_store(
        &self,
        shards: usize,
        store: Option<&Store>,
    ) -> (GridResult, GridTiming) {
        let suite = self.suite();
        let cells = self.cells();
        // Validate the benchmark axis up front: a typo must fail the
        // whole grid, not one worker thread mid-run.
        for cell in &cells {
            assert!(
                suite.iter().any(|b| b.name == cell.bench),
                "grid `{}`: unknown benchmark `{}`",
                self.name,
                cell.bench
            );
        }
        run_cells(&self.name, &self.machine, self.scale, &cells, shards, store)
    }
}

/// Run `cells` on `machine` at `scale` across `shards` worker threads
/// and aggregate them as grid `name` — the one batch runner, behind
/// every grid bin and the `--scenario` path.
///
/// With a [`Store`], cells are partitioned up front into *hits* (entry
/// loaded and digest-verified — replayed without executing) and
/// *misses* (executed, then committed). The aggregate is reassembled
/// in cell order either way, so the artifact bytes are identical for
/// any store state and any shard count; only `GridTiming` sees the
/// difference (hit/miss counters, near-zero hit wall-clocks, restored
/// stepping counters).
pub fn run_cells(
    name: &str,
    machine: &MachineSpec,
    scale: f64,
    cells: &[CellSpec],
    shards: usize,
    store: Option<&Store>,
) -> (GridResult, GridTiming) {
    let wall = Instant::now();
    let mut slots: Vec<Option<(CellResult, CellTiming)>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    // Misses as (cell index, store key), in cell order.
    let mut misses: Vec<(usize, Option<CellKey>)> = Vec::new();
    match store {
        // The probe runs on the pool too: loads are independent reads,
        // and on a warm run the parse + digest check of large traced
        // entries *is* the grid's wall-clock.
        Some(store) => {
            let probes = par_map(cells, shards, |cell| {
                let load_wall = Instant::now();
                let key = store.key(&cell.store_identity(machine, scale));
                let hit = store
                    .load(&key)
                    .map(|entry| entry.replay(load_wall.elapsed().as_secs_f64() * 1e3));
                (key, hit)
            });
            for (idx, (key, hit)) in probes.into_iter().enumerate() {
                match hit {
                    Some(hit) => slots[idx] = Some(hit),
                    None => misses.push((idx, Some(key))),
                }
            }
        }
        None => misses.extend((0..cells.len()).map(|idx| (idx, None))),
    }
    let n_misses = misses.len() as u64;

    let computed = par_map(&misses, shards, |(idx, key)| {
        let (result, timing) = run_cell_timed(machine, scale, &cells[*idx]);
        if let (Some(store), Some(key)) = (store, key) {
            store.commit_or_warn(key, &result, &timing);
        }
        (result, timing)
    });
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    for ((idx, _), cell) in misses.iter().zip(computed) {
        slots[*idx] = Some(cell);
    }
    let (results, timings): (Vec<CellResult>, Vec<CellTiming>) = slots
        .into_iter()
        .map(|slot| slot.expect("every cell is a hit or a computed miss"))
        .unzip();
    (
        GridResult {
            grid: name.to_string(),
            scale,
            machine: machine.name.clone(),
            cells: results,
        },
        GridTiming {
            grid: name.to_string(),
            wall_ms,
            cells: timings,
            cache: store.map(|_| CacheStats {
                hits: cells.len() as u64 - n_misses,
                misses: n_misses,
            }),
        },
    )
}

/// The paper's four §5 setups in presentation order, Default first —
/// the setup axis of the headline grids (Figures 10/11).
pub fn paper_setups() -> Vec<GridSetup> {
    use cuttlefish::Policy;
    vec![
        GridSetup::new("Default", Setup::Default),
        GridSetup::new("Cuttlefish", Setup::Cuttlefish(Policy::Both)),
        GridSetup::new("Cuttlefish-Core", Setup::Cuttlefish(Policy::CoreOnly)),
        GridSetup::new("Cuttlefish-Uncore", Setup::Cuttlefish(Policy::UncoreOnly)),
    ]
}

/// Fully-resolved identity of one scenario cell — everything needed to
/// re-run it, embedded verbatim in the result artifact. A cell is the
/// grid-context form of a [`Scenario`]: [`CellSpec::scenario`] expands
/// it against the grid's machine and scale, and that scenario is
/// exactly what [`run_cell_timed`] executes.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Benchmark name.
    pub bench: String,
    /// Programming model.
    pub model: ProgModel,
    /// Setup-axis label this cell belongs to.
    pub label: String,
    /// Execution configuration.
    pub setup: Setup,
    /// Cuttlefish parameters.
    pub config: Config,
    /// Node count (1 = single package).
    pub nodes: usize,
    /// Repetition index.
    pub rep: u32,
    /// Whether the cell collects a trace.
    pub trace: bool,
    /// Per-node machine overrides for heterogeneous clusters (length
    /// must equal `nodes`; requires `nodes > 1`). `None` — the normal
    /// case — runs every node on the grid's uniform machine, and the
    /// serialized cell is byte-identical to the pre-heterogeneity
    /// format (the key is omitted entirely).
    pub machines: Option<Vec<MachineSpec>>,
    /// Bulk-synchronous decomposition for multi-node cells (see
    /// [`Fleet::bsp`]).
    pub bsp: Option<BspCell>,
    /// Operating-point table of a [`Setup::Oracle`] cell. `None` — the
    /// grid-declared form — derives the table deterministically from a
    /// traced Default run of the same cell when the cell expands
    /// ([`CellSpec::scenario`]); the executed result records the table
    /// it ran with, so the artifact bytes are identical whether the
    /// table was derived or supplied. Non-oracle cells keep the key
    /// omitted (their historical byte-exact encoding).
    pub oracle: Option<OracleTable>,
    /// Cluster driving mode the cell pins (see
    /// [`cluster::SteppingMode`]). Default-mode cells keep the key
    /// omitted — their historical byte-exact encoding.
    pub stepping: SteppingMode,
}

/// Parameters of a strong-scaled BSP cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BspCell {
    /// Superstep count the chunk stream is sliced into (chronological
    /// slices, so warm-up-dependent chunk costs keep their order).
    pub supersteps: u32,
    /// Bytes exchanged per node per superstep (α and bandwidth keep
    /// the `CommModel` defaults).
    pub comm_bytes: f64,
}

impl CellSpec {
    /// Instantiation seed: rep 0 reproduces the historical
    /// fixed-seed harness runs exactly.
    pub fn seed(&self) -> u64 {
        HARNESS_SEED ^ (u64::from(self.rep) << 32)
    }

    /// Check the cell-level rules [`CellSpec::scenario`] relies on,
    /// without expanding the cell. The cell format decides single-node
    /// by `nodes == 1`, so every single-node rule here keys on that.
    /// Callers holding a cell from outside (a scenario file, a serve
    /// submission) check it here so a malformed cell is an error, not
    /// a panic at expansion. The expanded scenario's own rules, such as
    /// valid machines, are [`Scenario::validate`]'s;
    /// [`CellSpec::validate_scenario`] checks both.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cell must have at least one node".into());
        }
        if let Some(machines) = &self.machines {
            if self.nodes < 2 || machines.len() != self.nodes {
                return Err(
                    "heterogeneous cells need one machine per node of a multi-node cell".into(),
                );
            }
        }
        if self.nodes == 1 && self.stepping != SteppingMode::default() {
            return Err(format!(
                "stepping `{}` is only defined for multi-node cells",
                self.stepping.as_str()
            ));
        }
        if self.nodes == 1 && self.bsp.is_some() {
            return Err("a bsp decomposition is only defined for multi-node cells".into());
        }
        if self.trace && self.nodes != 1 {
            return Err("traces are only defined for single-node cells".into());
        }
        if self.setup == Setup::Oracle && self.oracle.is_none() && self.nodes != 1 {
            return Err(
                "oracle tables are derived from single-node Default traces; \
                 multi-node oracle cells need an explicit table"
                    .into(),
            );
        }
        Ok(())
    }

    /// Expand into the [`Scenario`] this cell runs: `machine` is the
    /// grid's uniform machine (used for every node the cell doesn't
    /// override) and `scale` the grid's workload scale.
    ///
    /// For a [`Setup::Oracle`] cell without an explicit
    /// [`oracle`](CellSpec::oracle) table this *derives* one — it runs
    /// the cell's Default setup with a trace and feeds the samples to
    /// `OracleTable::from_trace` — so expanding such a cell costs one
    /// extra deterministic simulation.
    ///
    /// # Panics
    /// Panics when [`validate`](CellSpec::validate) rejects the cell.
    pub fn scenario(&self, machine: &MachineSpec, scale: f64) -> Scenario {
        if let Err(e) = self.validate() {
            panic!("invalid cell {}/{}: {e}", self.bench, self.label);
        }
        let policy = self.policy().unwrap_or_else(|| {
            cuttlefish::NodePolicy::Oracle(self.derive_oracle_table(machine, scale))
        });
        self.expand(machine, scale, policy)
    }

    /// Check that this cell, against `machine` and `scale`, expands to
    /// a scenario that runs: the cell-format rules, then
    /// [`Scenario::validate`] on one expansion. A cell that derives its
    /// oracle table is checked with the Default policy in the table's
    /// place: a derived table is valid by construction, so the verdict
    /// is the same, and the check never runs the derivation's trace
    /// probe.
    pub fn validate_scenario(&self, machine: &MachineSpec, scale: f64) -> Result<(), String> {
        self.validate()?;
        let policy = self.policy().unwrap_or(cuttlefish::NodePolicy::Default);
        self.expand(machine, scale, policy).validate()
    }

    /// The policy every node runs; `None` for an oracle cell whose
    /// table is derived at expansion.
    fn policy(&self) -> Option<cuttlefish::NodePolicy> {
        match (self.setup, &self.oracle) {
            (Setup::Oracle, Some(table)) => Some(cuttlefish::NodePolicy::Oracle(table.clone())),
            (Setup::Oracle, None) => None,
            (other, _) => Some(other.node_policy(self.config.clone())),
        }
    }

    /// The scenario this cell runs with `policy` on every node.
    fn expand(
        &self,
        machine: &MachineSpec,
        scale: f64,
        policy: cuttlefish::NodePolicy,
    ) -> Scenario {
        let node_machines: Vec<MachineSpec> = match &self.machines {
            Some(machines) => machines.clone(),
            None => vec![machine.clone(); self.nodes],
        };
        let topology = if self.nodes == 1 {
            crate::scenario::Topology::SingleNode
        } else if let Some(bsp) = &self.bsp {
            crate::scenario::Topology::bsp(bsp.supersteps, bsp.comm_bytes)
        } else {
            crate::scenario::Topology::Replicated
        };
        Scenario {
            label: self.label.clone(),
            workload: WorkloadSpec::Bench {
                name: self.bench.clone(),
                model: self.model,
                scale,
            },
            nodes: node_machines
                .into_iter()
                .map(|m| (m, policy.clone()))
                .collect(),
            topology,
            seed: self.seed(),
            duration_s: None,
            trace: self.trace,
            stepping: self.stepping,
        }
    }

    /// Canonical identity bytes of this cell in its grid context —
    /// what the content-addressed store hashes (see [`Store::key`]).
    ///
    /// This is the grid embedding of the cell's canonical scenario
    /// JSON: machine + scale + the cell spec, serialized through the
    /// same deterministic codec as the artifact. Hashing the *cell*
    /// rather than the expanded [`Scenario`] matters twice over: a
    /// derived-oracle cell (`oracle: None`) keys on its declaration,
    /// so a warm hit skips the expensive trace-probe expansion
    /// entirely (the derivation is deterministic, hence covered by the
    /// code-version half of the key); and fields a particular setup
    /// ignores at expansion time (e.g. `config` under `Default`) still
    /// separate keys, so the replayed `spec` bytes embedded in the
    /// artifact always match what a fresh run would embed.
    pub fn store_identity(&self, machine: &MachineSpec, scale: f64) -> Vec<u8> {
        obj(vec![
            ("schema", Json::Str(CELL_KEY_SCHEMA.into())),
            ("machine", machine.to_json()),
            ("scale", Json::Num(scale)),
            ("cell", self.to_json()),
        ])
        .to_pretty()
        .into_bytes()
    }

    /// Derive this cell's oracle table the way the paper builds its
    /// oracle: run the identical workload under the Default setup with
    /// a trace, then identify the frequent phases and their settling
    /// points from the samples (`OracleTable::from_trace`). Fully
    /// deterministic — same cell, same table, every time — which is
    /// what lets a derived-oracle grid cell and a scenario file
    /// carrying the table inline produce identical artifact bytes.
    ///
    /// Multi-node cells never get here: [`validate`](CellSpec::validate)
    /// requires them to carry an explicit table.
    ///
    /// # Panics
    /// Panics when the trace yields no usable table.
    fn derive_oracle_table(&self, machine: &MachineSpec, scale: f64) -> OracleTable {
        let workload = WorkloadSpec::Bench {
            name: self.bench.clone(),
            model: self.model,
            scale,
        };
        let probe = Scenario {
            label: format!("{}-oracle-derive", self.label),
            workload: workload.clone(),
            nodes: vec![(machine.clone(), cuttlefish::NodePolicy::Default)],
            topology: crate::scenario::Topology::SingleNode,
            seed: self.seed(),
            duration_s: None,
            trace: true,
            stepping: SteppingMode::default(),
        };
        let mut points = Vec::new();
        probe.run_traced(Some(&mut points));
        let samples: Vec<TraceSample> = points
            .iter()
            .map(|p| TraceSample {
                tipi: p.tipi,
                jpi: p.jpi,
                watts: p.watts,
                cf: Freq((p.cf_ghz * 10.0).round() as u32),
                uf: Freq((p.uf_ghz * 10.0).round() as u32),
            })
            .collect();
        let params = OracleDerivation {
            tipi_range: workload.paper_tipi_range(),
            ..OracleDerivation::default()
        };
        // The probe's models are the run's models: both come from
        // `SimProcessor::new(machine)`.
        let model_source = simproc::SimProcessor::new(machine.clone());
        OracleTable::from_trace(
            &samples,
            machine,
            model_source.perf_model(),
            model_source.power_model(),
            &params,
        )
        .unwrap_or_else(|e| {
            panic!(
                "cell {}/{} cannot derive an oracle table: {e}",
                self.bench, self.label
            )
        })
    }
}

/// Derive the artifact cell identity of a free-standing [`Scenario`]
/// (the `--scenario` CLI path). The mapping back onto the cell format
/// is total for everything the grid axes produce; scenarios using
/// features the cell format cannot express (per-node policies,
/// non-harness seeds, BSP weights, synthetic workloads), cells that
/// [`CellSpec::validate`] rejects, and one-node clusters, which the
/// cell format would run as a single node, are reported as errors.
pub fn scenario_cell(scenario: &Scenario) -> Result<CellSpec, String> {
    let Some(rep) = scenario.rep() else {
        return Err(
            "scenario seed is not a harness repetition seed (HARNESS_SEED ^ rep<<32); \
             it cannot be embedded in a grid artifact"
                .into(),
        );
    };
    let WorkloadSpec::Bench { name, model, .. } = &scenario.workload else {
        return Err("synthetic workloads cannot be embedded in a grid artifact".into());
    };
    let (machine0, policy0) = &scenario.nodes[0];
    if scenario.nodes.iter().any(|(_, p)| p != policy0) {
        return Err("per-node policies cannot be embedded in a grid artifact".into());
    }
    let mut oracle = None;
    let (setup, config) = match policy0 {
        cuttlefish::NodePolicy::Default => (Setup::Default, Config::default()),
        cuttlefish::NodePolicy::Cuttlefish(cfg) => (Setup::Cuttlefish(cfg.policy), cfg.clone()),
        cuttlefish::NodePolicy::Pinned { cf, uf } => (Setup::Pinned(*cf, *uf), Config::default()),
        cuttlefish::NodePolicy::Ondemand => (Setup::Ondemand, Config::default()),
        cuttlefish::NodePolicy::Oracle(table) => {
            oracle = Some(table.clone());
            (Setup::Oracle, Config::default())
        }
        cuttlefish::NodePolicy::PidUncore { config, gains } => {
            (Setup::PidUncore(*gains), config.clone())
        }
    };
    let machines = if scenario.nodes.len() > 1 && scenario.nodes.iter().any(|(m, _)| m != machine0)
    {
        Some(scenario.nodes.iter().map(|(m, _)| m.clone()).collect())
    } else {
        None
    };
    let bsp = match &scenario.topology {
        crate::scenario::Topology::Bsp {
            supersteps,
            comm_bytes,
            weights,
        } => {
            if !weights.is_empty() {
                return Err("BSP weights cannot be embedded in a grid artifact".into());
            }
            Some(BspCell {
                supersteps: *supersteps,
                comm_bytes: *comm_bytes,
            })
        }
        _ => None,
    };
    let cell = CellSpec {
        bench: name.clone(),
        model: *model,
        label: scenario.label.clone(),
        setup,
        config,
        nodes: scenario.nodes.len(),
        rep,
        trace: scenario.trace,
        machines,
        bsp,
        oracle,
        stepping: scenario.stepping,
    };
    cell.validate()?;
    if cell.nodes == 1 && scenario.topology != crate::scenario::Topology::SingleNode {
        return Err(
            "a one-node cluster runs as a single node in a grid artifact; \
             give it the `single-node` topology"
                .into(),
        );
    }
    Ok(cell)
}

/// Name of the one-cell grid a free-standing scenario runs as. The
/// `--scenario` path and the serve daemon both name their artifact
/// here, which keeps a scenario file and a serve submission of the
/// same cell byte-identical.
pub fn scenario_grid(label: &str) -> String {
    format!("scenario:{label}")
}

/// Run a free-standing scenario into a one-cell [`GridResult`] — the
/// `--scenario` CLI path. The cell is a one-cell [`run_cells`] batch,
/// so it executes through exactly the code the grid runner uses —
/// including the result store when one is given (a scenario identical
/// to a previously-run grid cell is a hit) — and a scenario file
/// describing a grid cell reproduces that cell's artifact bytes bit
/// for bit.
pub fn run_scenario_timed(
    scenario: &Scenario,
    store: Option<&Store>,
) -> Result<(GridResult, GridTiming), String> {
    scenario.validate()?;
    let cell = scenario_cell(scenario)?;
    Ok(run_cells(
        &scenario_grid(&scenario.label),
        &scenario.nodes[0].0,
        scenario.workload.scale(),
        &[cell],
        1,
        store,
    ))
}

/// One TIPI-range line of a cell's controller report (Table 2 shape).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEntry {
    /// Slab index.
    pub slab: u32,
    /// Paper-style range label.
    pub label: String,
    /// Resolved core optimum, deci-GHz.
    pub cf: Option<u32>,
    /// Resolved uncore optimum, deci-GHz.
    pub uf: Option<u32>,
    /// `Tinv` samples attributed to the range.
    pub occurrences: u64,
    /// Share of all samples.
    pub share: f64,
}

impl ReportEntry {
    /// The paper's "frequently occurring" threshold.
    pub fn is_frequent(&self) -> bool {
        self.share > 0.10
    }

    /// Core optimum in GHz.
    pub fn cf_ghz(&self) -> Option<f64> {
        self.cf.map(|f| f as f64 / 10.0)
    }

    /// Uncore optimum in GHz.
    pub fn uf_ghz(&self) -> Option<f64> {
        self.uf.map(|f| f as f64 / 10.0)
    }
}

/// Residency at one operating point, summed over nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyEntry {
    /// Core frequency, deci-GHz.
    pub cf: u32,
    /// Uncore frequency, deci-GHz.
    pub uf: u32,
    /// Nanoseconds spent at this point.
    pub ns: u64,
}

/// Measurements from one executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that produced this.
    pub spec: CellSpec,
    /// Virtual wall time, seconds (slowest node for clusters).
    pub seconds: f64,
    /// Package energy, joules (summed over nodes).
    pub joules: f64,
    /// Instructions retired (summed over nodes).
    pub instructions: f64,
    /// Fraction of reported ranges with a resolved core optimum
    /// (averaged over nodes).
    pub resolved_cf: f64,
    /// Fraction with a resolved uncore optimum.
    pub resolved_uf: f64,
    /// Node 0's controller report.
    pub report: Vec<ReportEntry>,
    /// Operating-point residency in ascending `(cf, uf)` order.
    pub residency: Vec<ResidencyEntry>,
    /// Per-node energies (length = `spec.nodes`).
    pub node_joules: Vec<f64>,
    /// Barrier wait charged across nodes (0 for single-node cells).
    pub barrier_wait_s: f64,
    /// `Tinv`-rate trace (empty unless `spec.trace`).
    pub trace: Vec<TracePoint>,
}

impl CellResult {
    /// Energy-delay product, J·s.
    pub fn edp(&self) -> f64 {
        self.joules * self.seconds
    }

    /// Joules per instruction.
    pub fn jpi(&self) -> f64 {
        self.joules / self.instructions.max(1.0)
    }
}

/// Wall-clock and stepping counters for one executed cell. Kept apart
/// from [`CellResult`]: timing is machine- and run-dependent, so it
/// must never enter the deterministic artifact bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTiming {
    /// Host wall-clock the cell took, milliseconds. For a store hit
    /// this is the load-and-verify time, not the compute time.
    pub wall_ms: f64,
    /// Whether the cell was replayed from the result store. The quanta
    /// counters below are deterministic virtual quantities, so a hit
    /// restores the committing run's values verbatim — only this flag
    /// and the wall-clock betray that nothing executed.
    pub cached: bool,
    /// Quanta the engine executed one step at a time (all nodes).
    pub stepped_quanta: u64,
    /// Quanta fast-forwarded analytically while parked (all nodes).
    pub idle_advanced_quanta: u64,
    /// Quanta fast-forwarded analytically while executing (all nodes).
    pub busy_advanced_quanta: u64,
    /// Total virtual quanta elapsed (all nodes); always
    /// `stepped + idle_advanced + busy_advanced`.
    pub total_quanta: u64,
}

impl CellTiming {
    /// Stepping-work reduction factor (≥ 1; 1 = nothing skipped).
    pub fn fast_forward_factor(&self) -> f64 {
        fast_forward_factor(self.stepped_quanta, self.total_quanta)
    }
}

/// `total / stepped`, guarded against an all-skipped run — the one
/// definition of the stepping-reduction ratio every consumer shares.
fn fast_forward_factor(stepped: u64, total: u64) -> f64 {
    total as f64 / stepped.max(1) as f64
}

/// Result-store traffic of one grid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells replayed from the store.
    pub hits: u64,
    /// Cells executed (and committed).
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; an empty grid counts as all-hit.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-cell timings of one grid run, in cell-enumeration order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTiming {
    /// The grid's name.
    pub grid: String,
    /// End-to-end wall-clock of the grid run, milliseconds.
    pub wall_ms: f64,
    /// Per-cell timings.
    pub cells: Vec<CellTiming>,
    /// Store traffic; `None` when the run bypassed the store.
    pub cache: Option<CacheStats>,
}

impl GridTiming {
    /// Quanta stepped individually, summed over cells.
    pub fn stepped_quanta(&self) -> u64 {
        self.cells.iter().map(|c| c.stepped_quanta).sum()
    }

    /// Quanta fast-forwarded while parked, summed over cells.
    pub fn idle_advanced_quanta(&self) -> u64 {
        self.cells.iter().map(|c| c.idle_advanced_quanta).sum()
    }

    /// Quanta fast-forwarded while executing, summed over cells.
    pub fn busy_advanced_quanta(&self) -> u64 {
        self.cells.iter().map(|c| c.busy_advanced_quanta).sum()
    }

    /// Total virtual quanta, summed over cells.
    pub fn total_quanta(&self) -> u64 {
        self.cells.iter().map(|c| c.total_quanta).sum()
    }

    /// Stepping-work reduction factor over the whole grid run.
    pub fn fast_forward_factor(&self) -> f64 {
        fast_forward_factor(self.stepped_quanta(), self.total_quanta())
    }

    /// One-line before/after stepping summary: under the pure quantum
    /// loop every virtual quantum was an engine step; now only
    /// `stepped` of them are.
    pub fn stepping_summary(&self) -> String {
        let stepped = self.stepped_quanta();
        let total = self.total_quanta();
        let mut line = format!(
            "{}: stepped {stepped} of {total} quanta (idle-adv {}, busy-adv {}; \
             {:.2}x fast-forward), {:.1} ms wall, {:.2} Mquanta/s",
            self.grid,
            self.idle_advanced_quanta(),
            self.busy_advanced_quanta(),
            self.fast_forward_factor(),
            self.wall_ms,
            total as f64 / 1e3 / self.wall_ms.max(1e-9),
        );
        if let Some(cache) = &self.cache {
            line.push_str(&format!(
                "; store {} hit / {} miss ({:.0}% hits)",
                cache.hits,
                cache.misses,
                cache.hit_rate() * 100.0
            ));
        }
        line
    }
}

/// A de-rated straggler node for heterogeneous smoke cells: a quarter
/// of the paper machine's cores with tighter frequency ceilings —
/// the "one slow node" hardware of the §4.6 imbalance discussion.
pub fn straggler_spec() -> MachineSpec {
    MachineSpec {
        name: "de-rated straggler (5 cores, 1.2-1.6/1.2-2.2 GHz)".to_string(),
        n_cores: 5,
        core: FreqDomain::new(Freq(12), Freq(16)),
        uncore: FreqDomain::new(Freq(12), Freq(22)),
        quantum_ns: HASWELL_2650V3.quantum_ns,
    }
}

fn report_entries(report: &[cuttlefish::daemon::NodeReport]) -> Vec<ReportEntry> {
    report
        .iter()
        .map(|r| ReportEntry {
            slab: r.slab.0,
            label: r.label.clone(),
            cf: r.cf_opt.map(|f| f.0),
            uf: r.uf_opt.map(|f| f.0),
            occurrences: r.occurrences,
            share: r.share,
        })
        .collect()
}

/// Execute one cell through its scenario, with its wall-clock and
/// stepping counters. Public so the benchmark and the daemon run
/// exactly what the grid runner runs per cell.
pub fn run_cell_timed(
    machine: &MachineSpec,
    scale: f64,
    cell: &CellSpec,
) -> (CellResult, CellTiming) {
    let wall = Instant::now();
    let (result, quanta) = run_cell_inner(machine, scale, cell);
    let [stepped_quanta, idle_advanced_quanta, busy_advanced_quanta, total_quanta] = quanta;
    (
        result,
        CellTiming {
            wall_ms: wall.elapsed().as_secs_f64() * 1e3,
            cached: false,
            stepped_quanta,
            idle_advanced_quanta,
            busy_advanced_quanta,
            total_quanta,
        },
    )
}

/// The second element is `[stepped, idle_advanced, busy_advanced,
/// total]` quanta.
fn run_cell_inner(machine: &MachineSpec, scale: f64, cell: &CellSpec) -> (CellResult, [u64; 4]) {
    let scenario = cell.scenario(machine, scale);
    // The result records the cell *as executed*: an oracle cell that
    // derived its table carries the derived table, so the artifact
    // bytes match a scenario file shipping the same table inline.
    let cell = &{
        let mut executed = cell.clone();
        if let cuttlefish::NodePolicy::Oracle(table) = &scenario.nodes[0].1 {
            executed.oracle = Some(table.clone());
        }
        executed
    };
    let mut trace = Vec::new();
    let outcome = scenario.run_traced(cell.trace.then_some(&mut trace));
    match outcome {
        ScenarioOutcome::Single(outcome) => {
            let cell_result = single_cell_result(cell, &outcome, trace);
            (
                cell_result,
                [
                    outcome.stepped_quanta,
                    outcome.idle_advanced_quanta,
                    outcome.busy_advanced_quanta,
                    outcome.total_quanta,
                ],
            )
        }
        ScenarioOutcome::Cluster(cluster) => {
            let outcome = &cluster.outcome;
            let fractions = &cluster.resolved;
            let n_nodes = fractions.len() as f64;
            let cell_result = CellResult {
                spec: cell.clone(),
                seconds: outcome.seconds,
                joules: outcome.joules,
                instructions: outcome.instructions,
                resolved_cf: fractions.iter().map(|f| f.0).sum::<f64>() / n_nodes,
                resolved_uf: fractions.iter().map(|f| f.1).sum::<f64>() / n_nodes,
                report: report_entries(&cluster.reports[0]),
                residency: cluster
                    .residency
                    .iter()
                    .map(|(&(cf, uf), &ns)| ResidencyEntry { cf, uf, ns })
                    .collect(),
                node_joules: outcome.node_joules.clone(),
                barrier_wait_s: outcome.barrier_wait_s,
                trace: Vec::new(),
            };
            (
                cell_result,
                [
                    outcome.stepped_quanta,
                    outcome.idle_advanced_quanta,
                    outcome.busy_advanced_quanta,
                    outcome.total_quanta,
                ],
            )
        }
    }
}

fn single_cell_result(cell: &CellSpec, outcome: &RunOutcome, trace: Vec<TracePoint>) -> CellResult {
    CellResult {
        spec: cell.clone(),
        seconds: outcome.seconds,
        joules: outcome.joules,
        instructions: outcome.instructions,
        resolved_cf: outcome.resolved.0,
        resolved_uf: outcome.resolved.1,
        report: report_entries(&outcome.report),
        residency: outcome
            .residency
            .iter()
            .map(|&((cf, uf), ns)| ResidencyEntry { cf, uf, ns })
            .collect(),
        node_joules: vec![outcome.joules],
        barrier_wait_s: 0.0,
        trace,
    }
}

/// Aggregated outcome of a grid run, in cell-enumeration order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResult {
    /// The grid's name.
    pub grid: String,
    /// Scale the grid ran at.
    pub scale: f64,
    /// Machine name.
    pub machine: String,
    /// Per-cell measurements.
    pub cells: Vec<CellResult>,
}

impl GridResult {
    /// Benchmark names in first-appearance order.
    pub fn benches(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !names.contains(&cell.spec.bench.as_str()) {
                names.push(&cell.spec.bench);
            }
        }
        names
    }

    /// First cell matching `(bench, setup label)`.
    pub fn cell(&self, bench: &str, label: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.spec.bench == bench && c.spec.label == label)
    }

    /// All cells of one benchmark, in enumeration order.
    pub fn cells_for<'a>(&'a self, bench: &'a str) -> impl Iterator<Item = &'a CellResult> + 'a {
        self.cells.iter().filter(move |c| c.spec.bench == bench)
    }

    /// Serialize to the deterministic JSON artifact format.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parse an artifact produced by [`GridResult::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<GridResult, JsonError> {
        GridResult::from_json(&Json::parse(text)?)
    }
}

/// One benchmark × setup row of a baseline-relative comparison — the
/// shape of the Figure 10/11 panels and the Table 3 / ablation
/// geomeans.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// Benchmark name.
    pub bench: String,
    /// Setup-axis label of the compared cell.
    pub label: String,
    /// Energy saving vs the baseline, percent (positive = better).
    pub energy_saving_pct: f64,
    /// Execution-time degradation vs the baseline, percent.
    pub time_degradation_pct: f64,
    /// EDP saving vs the baseline, percent.
    pub edp_saving_pct: f64,
    /// Baseline virtual seconds.
    pub base_seconds: f64,
    /// Compared cell's virtual seconds.
    pub seconds: f64,
    /// Baseline joules.
    pub base_joules: f64,
    /// Compared cell's joules.
    pub joules: f64,
}

/// Compare every non-baseline cell against its benchmark's `baseline`
/// cell, in enumeration order. One definition of the
/// savings/slowdown/EDP arithmetic, shared by every bin that reports
/// relative numbers — the paper's figures must not drift apart.
///
/// Only cells sharing the baseline's cluster shape (same node count,
/// machines, and BSP decomposition) are compared — a 2-node cell's
/// total joules against a single-node baseline is not a saving.
/// Benchmarks without a `baseline` cell (cluster-shape cells outside
/// the panel comparison) are skipped entirely.
///
/// # Panics
/// Panics when nothing was comparable even though non-baseline cells
/// exist — the signature of a misspelled baseline label.
pub fn compare_to_baseline(result: &GridResult, baseline: &str) -> Vec<BaselineComparison> {
    let mut out = Vec::new();
    for bench in result.benches() {
        let Some(base) = result.cell(bench, baseline) else {
            continue;
        };
        let comparable = |c: &&CellResult| {
            c.spec.label != baseline
                && c.spec.nodes == base.spec.nodes
                && c.spec.machines == base.spec.machines
                && c.spec.bsp == base.spec.bsp
        };
        for o in result.cells_for(bench).filter(comparable) {
            out.push(BaselineComparison {
                bench: o.spec.bench.clone(),
                label: o.spec.label.clone(),
                energy_saving_pct: crate::saving_pct(base.joules, o.joules),
                time_degradation_pct: (o.seconds / base.seconds - 1.0) * 100.0,
                edp_saving_pct: crate::saving_pct(base.edp(), o.edp()),
                base_seconds: base.seconds,
                seconds: o.seconds,
                base_joules: base.joules,
                joules: o.joules,
            });
        }
    }
    assert!(
        !out.is_empty() || result.cells.iter().all(|c| c.spec.label == baseline),
        "grid `{}`: no cell shares a benchmark and cluster shape with a \
         `{baseline}` baseline — misspelled baseline label?",
        result.grid
    );
    out
}

/// Per-setup geomeans over a comparison set: `(label, energy saving %,
/// slowdown %, EDP saving %)` in label order. Slowdowns are
/// geomean-composed as negative savings, matching the paper's
/// reporting.
pub fn geomean_by_setup(comparisons: &[BaselineComparison]) -> Vec<(String, f64, f64, f64)> {
    let mut by: std::collections::BTreeMap<&str, Vec<&BaselineComparison>> = Default::default();
    for c in comparisons {
        by.entry(&c.label).or_default().push(c);
    }
    by.into_iter()
        .map(|(label, group)| {
            let e: Vec<f64> = group.iter().map(|c| c.energy_saving_pct).collect();
            let s: Vec<f64> = group.iter().map(|c| -c.time_degradation_pct).collect();
            let d: Vec<f64> = group.iter().map(|c| c.edp_saving_pct).collect();
            (
                label.to_string(),
                crate::geomean_saving(&e),
                -crate::geomean_saving(&s),
                crate::geomean_saving(&d),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// JSON encoding of the artifact types (hand-rolled against
// `bench::json`, the workspace's only codec). The primitive codecs
// (machines, policies, configs, setups) live in `bench::scenario` and
// are shared.
// ---------------------------------------------------------------------

impl ToJson for CellSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("bench", Json::Str(self.bench.clone())),
            ("model", self.model.to_json()),
            ("label", Json::Str(self.label.clone())),
            ("setup", self.setup.to_json()),
            ("config", self.config.to_json()),
            ("nodes", Json::Num(self.nodes as f64)),
            ("rep", Json::Num(f64::from(self.rep))),
            ("trace", Json::Bool(self.trace)),
        ];
        // Only heterogeneous / BSP / oracle cells carry these keys:
        // plain cells keep their historical byte-exact encoding.
        if let Some(machines) = &self.machines {
            fields.push(("machines", arr(machines)));
        }
        if let Some(bsp) = &self.bsp {
            fields.push(("bsp", bsp.to_json()));
        }
        if let Some(oracle) = &self.oracle {
            fields.push(("oracle", oracle.to_json()));
        }
        if self.stepping != SteppingMode::default() {
            fields.push(("stepping", Json::Str(self.stepping.as_str().into())));
        }
        obj(fields)
    }
}

impl FromJson for CellSpec {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(CellSpec {
            bench: j.field("bench")?.as_str()?.to_string(),
            model: ProgModel::from_json(j.field("model")?)?,
            label: j.field("label")?.as_str()?.to_string(),
            setup: Setup::from_json(j.field("setup")?)?,
            config: Config::from_json(j.field("config")?)?,
            nodes: j.field("nodes")?.as_u64()? as usize,
            rep: j.field("rep")?.as_u64()? as u32,
            trace: j.field("trace")?.as_bool()?,
            machines: match j.get("machines") {
                Some(m) => Some(from_arr(m)?),
                None => None,
            },
            bsp: match j.get("bsp") {
                Some(b) => Some(BspCell::from_json(b)?),
                None => None,
            },
            oracle: match j.get("oracle") {
                Some(o) => Some(OracleTable::from_json(o)?),
                None => None,
            },
            stepping: match j.get("stepping") {
                Some(s) => SteppingMode::parse(s.as_str()?).map_err(JsonError)?,
                None => SteppingMode::default(),
            },
        })
    }
}

impl ToJson for Setup {
    fn to_json(&self) -> Json {
        match self {
            Setup::Default => obj(vec![("kind", Json::Str("default".into()))]),
            Setup::Cuttlefish(policy) => obj(vec![
                ("kind", Json::Str("cuttlefish".into())),
                ("policy", policy.to_json()),
            ]),
            Setup::Pinned(cf, uf) => obj(vec![
                ("kind", Json::Str("pinned".into())),
                ("cf", Json::Num(f64::from(cf.0))),
                ("uf", Json::Num(f64::from(uf.0))),
            ]),
            Setup::Ondemand => obj(vec![("kind", Json::Str("ondemand".into()))]),
            Setup::Oracle => obj(vec![("kind", Json::Str("oracle".into()))]),
            Setup::PidUncore(gains) => obj(vec![
                ("kind", Json::Str("pid-uncore".into())),
                ("gains", gains.to_json()),
            ]),
        }
    }
}

impl FromJson for Setup {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.field("kind")?.as_str()? {
            "default" => Ok(Setup::Default),
            "cuttlefish" => Ok(Setup::Cuttlefish(cuttlefish::Policy::from_json(
                j.field("policy")?,
            )?)),
            "pinned" => Ok(Setup::Pinned(
                Freq(j.field("cf")?.as_u64()? as u32),
                Freq(j.field("uf")?.as_u64()? as u32),
            )),
            "ondemand" => Ok(Setup::Ondemand),
            "oracle" => Ok(Setup::Oracle),
            "pid-uncore" => Ok(Setup::PidUncore(PidGains::from_json(j.field("gains")?)?)),
            other => Err(JsonError(format!("unknown setup kind `{other}`"))),
        }
    }
}

impl ToJson for BspCell {
    fn to_json(&self) -> Json {
        obj(vec![
            ("supersteps", Json::Num(f64::from(self.supersteps))),
            ("comm_bytes", Json::Num(self.comm_bytes)),
        ])
    }
}

impl FromJson for BspCell {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(BspCell {
            supersteps: j.field("supersteps")?.as_u64()? as u32,
            comm_bytes: j.field("comm_bytes")?.as_f64()?,
        })
    }
}

impl ToJson for ReportEntry {
    fn to_json(&self) -> Json {
        obj(vec![
            ("slab", Json::Num(f64::from(self.slab))),
            ("label", Json::Str(self.label.clone())),
            ("cf", opt_u32(self.cf)),
            ("uf", opt_u32(self.uf)),
            ("occurrences", Json::Num(self.occurrences as f64)),
            ("share", Json::Num(self.share)),
        ])
    }
}

impl FromJson for ReportEntry {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ReportEntry {
            slab: j.field("slab")?.as_u64()? as u32,
            label: j.field("label")?.as_str()?.to_string(),
            cf: from_opt_u32(j.field("cf")?)?,
            uf: from_opt_u32(j.field("uf")?)?,
            occurrences: j.field("occurrences")?.as_u64()?,
            share: j.field("share")?.as_f64()?,
        })
    }
}

impl ToJson for ResidencyEntry {
    fn to_json(&self) -> Json {
        obj(vec![
            ("cf", Json::Num(f64::from(self.cf))),
            ("uf", Json::Num(f64::from(self.uf))),
            ("ns", Json::Num(self.ns as f64)),
        ])
    }
}

impl FromJson for ResidencyEntry {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ResidencyEntry {
            cf: j.field("cf")?.as_u64()? as u32,
            uf: j.field("uf")?.as_u64()? as u32,
            ns: j.field("ns")?.as_u64()?,
        })
    }
}

impl ToJson for TracePoint {
    fn to_json(&self) -> Json {
        obj(vec![
            ("t_s", Json::Num(self.t_s)),
            ("tipi", Json::Num(self.tipi)),
            ("jpi", Json::Num(self.jpi)),
            ("cf_ghz", Json::Num(self.cf_ghz)),
            ("uf_ghz", Json::Num(self.uf_ghz)),
            ("watts", Json::Num(self.watts)),
        ])
    }
}

impl FromJson for TracePoint {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(TracePoint {
            t_s: j.field("t_s")?.as_f64()?,
            tipi: j.field("tipi")?.as_f64()?,
            jpi: j.field("jpi")?.as_f64()?,
            cf_ghz: j.field("cf_ghz")?.as_f64()?,
            uf_ghz: j.field("uf_ghz")?.as_f64()?,
            watts: j.field("watts")?.as_f64()?,
        })
    }
}

impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("spec", self.spec.to_json()),
            ("seconds", Json::Num(self.seconds)),
            ("joules", Json::Num(self.joules)),
            ("instructions", Json::Num(self.instructions)),
            ("resolved_cf", Json::Num(self.resolved_cf)),
            ("resolved_uf", Json::Num(self.resolved_uf)),
            ("report", arr(&self.report)),
            ("residency", arr(&self.residency)),
            (
                "node_joules",
                Json::Arr(self.node_joules.iter().map(|&v| Json::Num(v)).collect()),
            ),
            ("barrier_wait_s", Json::Num(self.barrier_wait_s)),
            ("trace", arr(&self.trace)),
        ])
    }
}

impl FromJson for CellResult {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(CellResult {
            spec: CellSpec::from_json(j.field("spec")?)?,
            seconds: j.field("seconds")?.as_f64()?,
            joules: j.field("joules")?.as_f64()?,
            instructions: j.field("instructions")?.as_f64()?,
            resolved_cf: j.field("resolved_cf")?.as_f64()?,
            resolved_uf: j.field("resolved_uf")?.as_f64()?,
            report: from_arr(j.field("report")?)?,
            residency: from_arr(j.field("residency")?)?,
            node_joules: j
                .field("node_joules")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Result<_, _>>()?,
            barrier_wait_s: j.field("barrier_wait_s")?.as_f64()?,
            trace: from_arr(j.field("trace")?)?,
        })
    }
}

impl ToJson for GridResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("grid", Json::Str(self.grid.clone())),
            ("scale", Json::Num(self.scale)),
            ("machine", Json::Str(self.machine.clone())),
            ("cells", arr(&self.cells)),
        ])
    }
}

impl ToJson for CellTiming {
    fn to_json(&self) -> Json {
        obj(vec![
            ("wall_ms", Json::Num(self.wall_ms)),
            ("cached", Json::Bool(self.cached)),
            ("stepped_quanta", Json::Num(self.stepped_quanta as f64)),
            (
                "idle_advanced_quanta",
                Json::Num(self.idle_advanced_quanta as f64),
            ),
            (
                "busy_advanced_quanta",
                Json::Num(self.busy_advanced_quanta as f64),
            ),
            ("total_quanta", Json::Num(self.total_quanta as f64)),
        ])
    }
}

impl FromJson for CellTiming {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(CellTiming {
            wall_ms: j.field("wall_ms")?.as_f64()?,
            cached: j.field("cached")?.as_bool()?,
            stepped_quanta: j.field("stepped_quanta")?.as_f64()? as u64,
            idle_advanced_quanta: j.field("idle_advanced_quanta")?.as_f64()? as u64,
            busy_advanced_quanta: j.field("busy_advanced_quanta")?.as_f64()? as u64,
            total_quanta: j.field("total_quanta")?.as_f64()? as u64,
        })
    }
}

/// Sidecar format tag for `.timing` files. v2 split the single
/// fast-forward counter into `idle_advanced_quanta` and
/// `busy_advanced_quanta` so the two mechanisms are attributable; v3
/// adds the result-store view — a per-cell `cached` flag and an
/// optional grid-level `cache` section (hits/misses/hit-rate).
pub const TIMING_SCHEMA: &str = "cuttlefish/grid-timing/v3";

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("hits", Json::Num(self.hits as f64)),
            ("misses", Json::Num(self.misses as f64)),
            ("hit_rate", Json::Num(self.hit_rate())),
        ])
    }
}

impl FromJson for CacheStats {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(CacheStats {
            hits: j.field("hits")?.as_u64()?,
            misses: j.field("misses")?.as_u64()?,
        })
    }
}

impl ToJson for GridTiming {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(TIMING_SCHEMA.into())),
            ("grid", Json::Str(self.grid.clone())),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("stepped_quanta", Json::Num(self.stepped_quanta() as f64)),
            (
                "idle_advanced_quanta",
                Json::Num(self.idle_advanced_quanta() as f64),
            ),
            (
                "busy_advanced_quanta",
                Json::Num(self.busy_advanced_quanta() as f64),
            ),
            ("total_quanta", Json::Num(self.total_quanta() as f64)),
            ("fast_forward", Json::Num(self.fast_forward_factor())),
        ];
        // Storeless runs keep the key omitted: "no store" and "0% hit
        // rate" are different facts.
        if let Some(cache) = &self.cache {
            fields.push(("cache", cache.to_json()));
        }
        fields.push(("cells", arr(&self.cells)));
        obj(fields)
    }
}

impl FromJson for GridTiming {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let schema = j.field("schema")?.as_str()?;
        if schema != TIMING_SCHEMA {
            return Err(JsonError(format!(
                "unsupported timing schema `{schema}` (expected `{TIMING_SCHEMA}`)"
            )));
        }
        Ok(GridTiming {
            grid: j.field("grid")?.as_str()?.to_string(),
            wall_ms: j.field("wall_ms")?.as_f64()?,
            cells: from_arr(j.field("cells")?)?,
            cache: match j.get("cache") {
                Some(c) => Some(CacheStats::from_json(c)?),
                None => None,
            },
        })
    }
}

impl FromJson for GridResult {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let schema = j.field("schema")?.as_str()?;
        if schema != SCHEMA {
            return Err(JsonError(format!(
                "unsupported artifact schema `{schema}` (expected `{SCHEMA}`)"
            )));
        }
        Ok(GridResult {
            grid: j.field("grid")?.as_str()?.to_string(),
            scale: j.field("scale")?.as_f64()?,
            machine: j.field("machine")?.as_str()?.to_string(),
            cells: from_arr(j.field("cells")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuttlefish::Policy;

    #[test]
    fn enumeration_order_is_bench_fleet_setup_rep() {
        let mut spec = GridSpec::new("t", 0.05);
        spec.push(
            AxisSet::new(
                vec!["A".into(), "B".into()],
                vec![
                    GridSetup::new("s0", Setup::Default),
                    GridSetup::new("s1", Setup::Cuttlefish(Policy::Both)),
                ],
            )
            .with_fleets(vec![Fleet::single(), Fleet::uniform(2)])
            .with_reps(2),
        );
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert_eq!(
            (
                cells[0].bench.as_str(),
                cells[0].nodes,
                cells[0].label.as_str(),
                cells[0].rep
            ),
            ("A", 1, "s0", 0)
        );
        assert_eq!(cells[1].rep, 1);
        assert_eq!(cells[2].label, "s1");
        assert_eq!(cells[4].nodes, 2);
        assert_eq!(cells[8].bench, "B");
        // Rep 0 keeps the historical harness seed.
        assert_eq!(cells[0].seed(), HARNESS_SEED);
        assert_ne!(cells[1].seed(), HARNESS_SEED);
    }

    #[test]
    fn axis_sets_enumerate_in_declaration_order() {
        let mut spec = GridSpec::new("t", 0.05);
        spec.push(AxisSet::new(
            vec!["A".into()],
            vec![GridSetup::new("main", Setup::Default)],
        ));
        spec.push(
            AxisSet::new(
                vec!["B".into()],
                vec![GridSetup::new("mpi", Setup::Default)],
            )
            .with_fleets(vec![Fleet::uniform(4).with_bsp(96, 1.2e9)]),
        );
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label, "main");
        let mpi = &cells[1];
        assert_eq!((mpi.label.as_str(), mpi.nodes), ("mpi", 4));
        assert_eq!(mpi.bsp.unwrap().supersteps, 96);
    }

    #[test]
    fn trace_is_disabled_on_cluster_cells() {
        let mut spec = GridSpec::new("t", 0.05);
        spec.push(
            AxisSet::new(
                vec!["A".into()],
                vec![GridSetup::new("s", Setup::Default).with_trace()],
            )
            .with_fleets(vec![Fleet::single(), Fleet::uniform(2)]),
        );
        let cells = spec.cells();
        assert!(cells[0].trace);
        assert!(!cells[1].trace);
    }

    #[test]
    fn setup_and_config_json_round_trip() {
        for setup in [
            Setup::Default,
            Setup::Cuttlefish(Policy::CoreOnly),
            Setup::Pinned(Freq(12), Freq(30)),
            Setup::Ondemand,
        ] {
            assert_eq!(Setup::from_json(&setup.to_json()).unwrap(), setup);
        }
        let cfg = Config {
            idle_guard: Some(0.3),
            ..Config::default()
        };
        assert_eq!(Config::from_json(&cfg.to_json()).unwrap(), cfg);
        assert_eq!(
            Config::from_json(&Config::default().to_json()).unwrap(),
            Config::default()
        );
    }

    #[test]
    fn cell_scenario_round_trip_preserves_identity() {
        let cell = CellSpec {
            bench: "Heat-ws".into(),
            model: ProgModel::OpenMp,
            label: "Cuttlefish-straggler".into(),
            setup: Setup::Cuttlefish(Policy::Both),
            config: Config::default(),
            nodes: 2,
            rep: 0,
            trace: false,
            machines: Some(vec![HASWELL_2650V3.clone(), straggler_spec()]),
            bsp: Some(BspCell {
                supersteps: 8,
                comm_bytes: 24.0e6,
            }),
            oracle: None,
            stepping: SteppingMode::Lockstep,
        };
        let scenario = cell.scenario(&HASWELL_2650V3, 0.02);
        assert_eq!(scenario.n_nodes(), 2);
        assert_eq!(scenario.stepping, SteppingMode::Lockstep);
        let back = scenario_cell(&scenario).expect("embeddable");
        assert_eq!(back, cell);
        // The non-default mode must also survive the cell's own JSON
        // codec; default-mode cells keep the key omitted entirely.
        let reparsed = CellSpec::from_json(&cell.to_json()).expect("codec");
        assert_eq!(reparsed, cell);
        let default_cell = CellSpec {
            stepping: SteppingMode::default(),
            ..cell
        };
        assert!(!default_cell.to_json().to_pretty().contains("stepping"));
    }
}
