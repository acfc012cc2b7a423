//! The Scenario API: one declarative, serializable description of
//! *machine × policy × workload × topology*, consumed everywhere.
//!
//! The paper's evaluation is "benchmark × setup × node count" (§5);
//! before this module, describing one such experiment was scattered
//! across ad-hoc entry points — a harness `run_on(...)` call here, a
//! `Cluster::with_spec`/`with_nodes` there, hand-assembled cell
//! structs in the bins. [`Scenario`] is now the single description:
//!
//! * **nodes** — one `(MachineSpec, NodePolicy)` pair per node (one
//!   pair = a single package; several = an MPI+X-style cluster, and
//!   the pairs may differ — mixed fleets, stragglers, per-node
//!   governors);
//! * **workload** — a [`WorkloadSpec`]: a Table 1 benchmark under a
//!   programming model at a scale, or a synthetic chunk stream;
//! * **topology** — [`Topology::SingleNode`], [`Topology::Replicated`]
//!   (every node runs the workload independently, final barrier + one
//!   exchange), or [`Topology::Bsp`] (the workload strong-scaled into
//!   supersteps, each ending in a barrier and an α–β exchange);
//! * **seed / duration / trace** — instantiation seed, an optional
//!   virtual-time cap for endless streams, and `Tinv`-rate trace
//!   collection.
//!
//! A scenario round-trips through the deterministic JSON codec
//! ([`Scenario::to_json_string`] / [`Scenario::from_json_str`], schema
//! [`SCENARIO_SCHEMA`]), so any imaginable cell is runnable from a
//! file without recompiling (`--scenario` on every figure/table bin),
//! and executes via [`Scenario::run`]. The grid runner
//! (`bench::grid`), the bins, the examples, and the equivalence tests
//! all construct experiments exclusively through this type.

use crate::{RunOutcome, TracePoint, HARNESS_SEED};
use cluster::{BspApp, Cluster, CommModel, ReplicatedProgram, SteppingMode};
use cuttlefish::controller::{NodePolicy, OracleEntry, OracleTable, PidGains};
use cuttlefish::daemon::NodeReport;
use cuttlefish::{Config, Policy, TipiSlab};
use simproc::freq::{Freq, FreqDomain, MachineSpec, HASWELL_2650V3};
use simproc::profile::{delta, CounterSnapshot};
use simproc::SimProcessor;
use std::collections::BTreeMap;
use workloads::{BuiltWorkload, ChunkPhase, ProgModel, SyntheticSpec, WorkloadSpec};

use crate::json::{FromJson, Json, JsonError, ToJson};

/// Schema tag of a serialized [`Scenario`].
pub const SCENARIO_SCHEMA: &str = "cuttlefish/scenario/v1";

/// How a scenario's nodes cooperate.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// One package, the evaluation-harness shape (traces allowed).
    SingleNode,
    /// Every node runs the workload independently (distinct per-node
    /// seeds), then all nodes meet at one final barrier and pay one
    /// exchange — "the same benchmark replicated over N nodes".
    Replicated,
    /// Bulk-synchronous strong scaling (§4.6): the workload's chunk
    /// stream is sliced into `supersteps` rounds dealt across the
    /// nodes, each round ending in a barrier plus an α–β exchange of
    /// `comm_bytes` per node.
    Bsp {
        /// Superstep count.
        supersteps: u32,
        /// Bytes exchanged per node per superstep (α and bandwidth
        /// keep the [`CommModel`] defaults).
        comm_bytes: f64,
        /// Per-node work multipliers for synthetic workloads (empty =
        /// balanced). `weights[i]` copies of the synthetic cycle land
        /// on node `i` each superstep — the §4.6 imbalance shape.
        weights: Vec<u32>,
    },
}

impl Topology {
    /// Balanced BSP decomposition.
    pub fn bsp(supersteps: u32, comm_bytes: f64) -> Self {
        Topology::Bsp {
            supersteps,
            comm_bytes,
            weights: Vec::new(),
        }
    }
}

/// One declarative experiment description — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display / cell label (the setup-axis label in grid artifacts).
    pub label: String,
    /// What runs.
    pub workload: WorkloadSpec,
    /// Per-node machine and frequency policy; length = node count.
    pub nodes: Vec<(MachineSpec, NodePolicy)>,
    /// How the nodes cooperate.
    pub topology: Topology,
    /// Workload instantiation seed ([`HARNESS_SEED`] reproduces the
    /// historical harness runs; must stay below 2^53 so the JSON codec
    /// transports it exactly).
    pub seed: u64,
    /// Optional virtual-time cap, seconds — for endless synthetic
    /// streams (single-node only).
    pub duration_s: Option<f64>,
    /// Collect the per-`Tinv` trace (single-node only).
    pub trace: bool,
    /// Whether the cluster's fast-forwards run (event-driven) or every
    /// node steps quantum by quantum (the lockstep reference);
    /// serialized only when non-default, so historical scenario files
    /// keep their bytes. Cluster topologies only: a single node always
    /// runs the event-driven loop, so validation rejects `Lockstep`
    /// there.
    pub stepping: SteppingMode,
}

/// Builder for [`Scenario`] — the one construction path shared by the
/// grid, the bins, the examples, and the tests.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    label: Option<String>,
    workload: WorkloadSpec,
    nodes: Vec<(MachineSpec, NodePolicy)>,
    bsp: Option<(u32, f64, Vec<u32>)>,
    seed: u64,
    duration_s: Option<f64>,
    trace: bool,
    stepping: SteppingMode,
}

impl Scenario {
    /// Builder over a Table 1 benchmark.
    pub fn bench(name: impl Into<String>, model: ProgModel, scale: f64) -> ScenarioBuilder {
        Self::workload(WorkloadSpec::bench(name, model, scale))
    }

    /// Builder over a synthetic chunk stream.
    pub fn synthetic(spec: SyntheticSpec) -> ScenarioBuilder {
        Self::workload(WorkloadSpec::Synthetic(spec))
    }

    /// Builder over an explicit workload description.
    pub fn workload(workload: WorkloadSpec) -> ScenarioBuilder {
        ScenarioBuilder {
            label: None,
            workload,
            nodes: Vec::new(),
            bsp: None,
            seed: HARNESS_SEED,
            duration_s: None,
            trace: false,
            stepping: SteppingMode::default(),
        }
    }

    /// Node count.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The repetition index this scenario's seed encodes, if it is a
    /// harness-style seed (`HARNESS_SEED ^ (rep << 32)`).
    pub fn rep(&self) -> Option<u32> {
        let bits = self.seed ^ HARNESS_SEED;
        if bits & 0xFFFF_FFFF == 0 {
            Some((bits >> 32) as u32)
        } else {
            None
        }
    }

    /// Check every invariant the runner relies on. [`ScenarioBuilder::build`]
    /// panics on violations (a programming error); the JSON decoder
    /// surfaces them as parse errors (malformed file).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("scenario needs at least one node".into());
        }
        for (machine, policy) in &self.nodes {
            machine.validate()?;
            policy.validate()?;
        }
        let quantum = self.nodes[0].0.quantum_ns;
        if self.nodes.iter().any(|(m, _)| m.quantum_ns != quantum) {
            return Err("all nodes must share one quantum_ns".into());
        }
        if self.seed > (1u64 << 53) {
            return Err("seed must stay below 2^53 (exact JSON transport)".into());
        }
        match &self.workload {
            WorkloadSpec::Bench { scale, .. } => {
                if !(*scale > 0.0 && *scale <= crate::MAX_SCALE) {
                    return Err(format!(
                        "invalid workload scale {scale} (must be positive and at most {})",
                        crate::MAX_SCALE
                    ));
                }
                self.workload.resolve()?;
            }
            WorkloadSpec::Synthetic(spec) => {
                if spec.phases.is_empty() {
                    return Err("synthetic workload needs at least one phase".into());
                }
            }
        }
        match &self.topology {
            Topology::SingleNode => {
                if self.nodes.len() != 1 {
                    return Err(format!(
                        "single-node topology with {} nodes",
                        self.nodes.len()
                    ));
                }
            }
            Topology::Replicated => {}
            Topology::Bsp {
                supersteps,
                comm_bytes,
                weights,
            } => {
                if *supersteps == 0 {
                    return Err("BSP topology needs at least one superstep".into());
                }
                if !(comm_bytes.is_finite() && *comm_bytes >= 0.0) {
                    return Err(format!("invalid exchange size {comm_bytes}"));
                }
                if !weights.is_empty() && weights.len() != self.nodes.len() {
                    return Err(format!(
                        "BSP weights ({}) must match the node count ({})",
                        weights.len(),
                        self.nodes.len()
                    ));
                }
                if let WorkloadSpec::Bench { .. } = &self.workload {
                    if !weights.is_empty() {
                        return Err("BSP weights apply to synthetic workloads only (benchmarks \
                             strong-scale their chunk stream evenly)"
                            .into());
                    }
                    let def = self.workload.resolve()?;
                    if def.style != workloads::Style::WorkSharing {
                        return Err(format!(
                            "BSP scenarios need a work-sharing benchmark (`{}` builds a task DAG)",
                            def.name
                        ));
                    }
                }
            }
        }
        if self.trace && !matches!(self.topology, Topology::SingleNode) {
            return Err("traces are only defined for single-node scenarios".into());
        }
        if self.duration_s.is_some() && !matches!(self.topology, Topology::SingleNode) {
            return Err("a duration cap is only defined for single-node scenarios".into());
        }
        if self.stepping != SteppingMode::default() && matches!(self.topology, Topology::SingleNode)
        {
            return Err(format!(
                "stepping `{}` is only defined for cluster scenarios",
                self.stepping.as_str()
            ));
        }
        if let Some(d) = self.duration_s {
            if !(d.is_finite() && d > 0.0) {
                return Err(format!("invalid duration {d}"));
            }
        }
        // An endless synthetic stream must have *some* terminator:
        // a duration cap (single node) or the per-superstep cycling of
        // a BSP decomposition. A replicated or uncapped single-node
        // endless stream would spin forever.
        if let WorkloadSpec::Synthetic(spec) = &self.workload {
            if spec.total_chunks.is_none() {
                let bounded = match self.topology {
                    Topology::SingleNode => self.duration_s.is_some(),
                    Topology::Bsp { .. } => true,
                    Topology::Replicated => false,
                };
                if !bounded {
                    return Err("an endless synthetic stream (total_chunks = null) needs a \
                         duration cap (single node) or a BSP decomposition to terminate"
                        .into());
                }
            }
        }
        Ok(())
    }

    /// Execute the scenario.
    pub fn run(&self) -> ScenarioOutcome {
        self.run_traced(None)
    }

    /// [`run`](Self::run), collecting the `Tinv`-rate trace into
    /// `trace` when the scenario requests one: a scenario built
    /// without [`trace`](ScenarioBuilder::trace) leaves the buffer
    /// untouched and keeps the event-driven (fast-forwarding) loop, so
    /// passing a buffer never silently changes how the run executes.
    pub fn run_traced(&self, trace: Option<&mut Vec<TracePoint>>) -> ScenarioOutcome {
        self.validate().expect("invalid scenario");
        let trace = if self.trace { trace } else { None };
        match self.topology {
            Topology::SingleNode => ScenarioOutcome::Single(self.run_single(trace)),
            _ => ScenarioOutcome::Cluster(self.run_cluster()),
        }
    }

    /// Build the single-node execution parts — processor, workload,
    /// controller — without running them, for callers that drive the
    /// stepping loop themselves (interactive examples, custom
    /// samplers). The controller has been built (and any initial
    /// actuation applied) exactly as [`run`](Self::run) would.
    ///
    /// # Panics
    /// Panics unless the scenario is valid and single-node.
    pub fn build_single_node(
        &self,
    ) -> (
        SimProcessor,
        Box<dyn simproc::engine::Workload>,
        Box<dyn cuttlefish::controller::FrequencyController>,
    ) {
        self.validate().expect("invalid scenario");
        assert!(
            matches!(self.topology, Topology::SingleNode),
            "build_single_node needs a single-node scenario"
        );
        let (machine, policy) = &self.nodes[0];
        let mut proc = SimProcessor::new(machine.clone());
        let wl = self.workload.build(proc.n_cores(), self.seed);
        let controller = policy.build(&mut proc);
        (proc, wl, controller)
    }

    fn run_single(&self, trace: Option<&mut Vec<TracePoint>>) -> RunOutcome {
        let (mut proc, mut wl, mut controller) = self.build_single_node();

        let start_e = proc.total_energy_joules();
        let start_t = proc.now_ns();
        let deadline = self.duration_s.map(|d| start_t + (d * 1e9).round() as u64);
        let expired = |proc: &SimProcessor| deadline.is_some_and(|d| proc.now_ns() >= d);

        // One driving loop for every run: each `drive_quanta` call
        // pauses the clock exactly at the next trace capture point (a
        // fixed 20-quantum cadence; the capture is a pure read) and at
        // the first boundary at or past the duration cap — where plain
        // per-quantum stepping would stop. Between pauses the idle and
        // busy fast-forwards run as in an untraced, uncapped drain.
        let cadence = if trace.is_some() { 20 } else { u64::MAX };
        let mut trace = trace.map(|points| {
            (
                points,
                CounterSnapshot::capture(&proc).expect("counters readable"),
            )
        });
        let quantum_ns = proc.spec().quantum_ns;
        let mut quanta = 0u64;
        while !proc.workload_drained(wl.as_mut()) && !expired(&proc) {
            let budget = match deadline {
                Some(d) => (d - proc.now_ns()).div_ceil(quantum_ns).min(cadence),
                None => cadence,
            };
            let done = cuttlefish::controller::drive_quanta(
                &mut proc,
                wl.as_mut(),
                controller.as_mut(),
                budget,
            );
            if done == 0 {
                break;
            }
            quanta += done;
            if let Some((points, last)) = trace.as_mut() {
                if quanta.is_multiple_of(cadence) {
                    let now = CounterSnapshot::capture(&proc).expect("counters readable");
                    if let Some(s) = delta(last, &now) {
                        points.push(TracePoint {
                            t_s: proc.now_seconds(),
                            tipi: s.tipi,
                            jpi: s.jpi,
                            cf_ghz: proc.core_freq().ghz(),
                            uf_ghz: proc.uncore_freq().ghz(),
                            watts: proc.last_quantum().power_watts,
                        });
                    }
                    *last = now;
                }
            }
        }

        let report = controller.report();
        let resolved = controller.resolved_fractions();

        RunOutcome {
            bench: self.workload.name(),
            setup: self.nodes[0].1.name(),
            seconds: (proc.now_ns() - start_t) as f64 * 1e-9,
            joules: proc.total_energy_joules() - start_e,
            instructions: proc.total_instructions(),
            report,
            resolved,
            residency: proc
                .frequency_residency()
                .iter()
                .map(|(&point, &ns)| (point, ns))
                .collect(),
            stepped_quanta: proc.stepped_quanta(),
            idle_advanced_quanta: proc.idle_advanced_quanta(),
            busy_advanced_quanta: proc.busy_advanced_quanta(),
            total_quanta: proc.total_quanta(),
        }
    }

    fn run_cluster(&self) -> ClusterOutcome {
        let comm = match &self.topology {
            Topology::Bsp { comm_bytes, .. } => CommModel {
                bytes: *comm_bytes,
                ..CommModel::default()
            },
            _ => CommModel::default(),
        };
        let mut cl = Cluster::with_nodes(self.nodes.clone(), comm);
        cl.set_stepping(self.stepping);
        let outcome = match &self.topology {
            Topology::Replicated => {
                let seed = self.seed;
                let workload = &self.workload;
                cl.run_program(&mut ReplicatedProgram::new(
                    self.nodes.len(),
                    |node, n_cores| {
                        // Distinct per-node seeds (node 0 keeps the base
                        // seed, so a 1-node cluster instantiates exactly
                        // the single-node run).
                        workload.build(
                            n_cores,
                            seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        )
                    },
                ))
            }
            Topology::Bsp { .. } => cl.run_program(&mut &self.bsp_app()),
            Topology::SingleNode => unreachable!("run_traced routes single-node scenarios"),
        };
        ClusterOutcome {
            outcome,
            reports: cl.reports(),
            resolved: cl.resolved_fractions(),
            residency: cl.residency(),
        }
    }

    /// The bulk-synchronous decomposition of this scenario's workload.
    ///
    /// Benchmarks strong-scale: the chunk stream is cut into
    /// `supersteps` chronological slices (warm-up-dependent chunk costs
    /// keep their order) and each slice is dealt round-robin across the
    /// nodes, so every node computes `1/nodes` of each superstep.
    /// Synthetic workloads replicate: each node receives `weights[i]`
    /// (default 1) copies of one phase cycle per superstep.
    fn bsp_app(&self) -> BspApp {
        let Topology::Bsp {
            supersteps,
            weights,
            ..
        } = &self.topology
        else {
            unreachable!("bsp_app is only called for BSP topologies")
        };
        let n_nodes = self.nodes.len();
        match &self.workload {
            WorkloadSpec::Bench { .. } => {
                let def = self.workload.resolve().expect("validated benchmark");
                let machine = &self.nodes[0].0;
                let chunks = match def.build(machine.n_cores) {
                    BuiltWorkload::Regions(regions) => regions
                        .into_iter()
                        .flat_map(|r| r.into_chunks())
                        .collect::<Vec<_>>(),
                    BuiltWorkload::Dag(_) => panic!(
                        "BSP scenarios need a work-sharing benchmark (`{}` builds a task DAG)",
                        def.name
                    ),
                };
                let supersteps = ((*supersteps).max(1) as usize).min(chunks.len().max(1));
                let per_step = chunks.len().div_ceil(supersteps);
                let mut steps = vec![vec![Vec::new(); n_nodes]; supersteps];
                for (i, chunk) in chunks.into_iter().enumerate() {
                    let step = i / per_step;
                    steps[step][(i % per_step) % n_nodes].push(chunk);
                }
                BspApp { steps }
            }
            WorkloadSpec::Synthetic(spec) => {
                let unit = spec.cycle_chunks();
                let weight = |node: usize| {
                    if weights.is_empty() {
                        1
                    } else {
                        weights[node].max(1)
                    }
                };
                let steps = (0..*supersteps as usize)
                    .map(|_| {
                        (0..n_nodes)
                            .map(|node| {
                                let mut chunks = Vec::new();
                                for _ in 0..weight(node) {
                                    chunks.extend(unit.iter().cloned());
                                }
                                chunks
                            })
                            .collect()
                    })
                    .collect();
                BspApp { steps }
            }
        }
    }
}

impl ScenarioBuilder {
    /// Set the display / cell label (defaults to the first node's
    /// policy name).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Append one node.
    pub fn node(mut self, machine: &MachineSpec, policy: NodePolicy) -> Self {
        self.nodes.push((machine.clone(), policy));
        self
    }

    /// Append `n` identical nodes.
    pub fn nodes(mut self, n: usize, machine: &MachineSpec, policy: NodePolicy) -> Self {
        for _ in 0..n {
            self.nodes.push((machine.clone(), policy.clone()));
        }
        self
    }

    /// Shorthand: one paper-Haswell node under `policy`.
    pub fn policy(self, policy: NodePolicy) -> Self {
        self.node(&HASWELL_2650V3, policy)
    }

    /// Strong-scale into a balanced BSP decomposition.
    pub fn bsp(mut self, supersteps: u32, comm_bytes: f64) -> Self {
        self.bsp = Some((supersteps, comm_bytes, Vec::new()));
        self
    }

    /// BSP with per-node work multipliers (synthetic workloads only).
    pub fn bsp_weighted(mut self, supersteps: u32, comm_bytes: f64, weights: Vec<u32>) -> Self {
        self.bsp = Some((supersteps, comm_bytes, weights));
        self
    }

    /// Set the instantiation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the seed via a repetition index (rep 0 = [`HARNESS_SEED`]).
    pub fn rep(mut self, rep: u32) -> Self {
        self.seed = HARNESS_SEED ^ (u64::from(rep) << 32);
        self
    }

    /// Cap virtual time (single-node; for endless synthetic streams).
    pub fn duration_s(mut self, seconds: f64) -> Self {
        self.duration_s = Some(seconds);
        self
    }

    /// Collect the `Tinv`-rate trace (single-node).
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Pin the cluster driving mode (defaults to
    /// [`SteppingMode::EventDriven`]; cluster scenarios only — see
    /// [`Scenario::stepping`]).
    pub fn stepping(mut self, mode: SteppingMode) -> Self {
        self.stepping = mode;
        self
    }

    /// Finish the description. Defaults: no nodes added = one
    /// paper-Haswell node under the Default policy; topology inferred
    /// (1 node = single-node, >1 = replicated, BSP when requested).
    ///
    /// # Panics
    /// Panics when the description violates a [`Scenario::validate`]
    /// invariant — builder misuse is a programming error (files go
    /// through the parsing path, which reports errors instead).
    pub fn build(self) -> Scenario {
        let mut nodes = self.nodes;
        if nodes.is_empty() {
            nodes.push((HASWELL_2650V3.clone(), NodePolicy::Default));
        }
        let topology = match self.bsp {
            Some((supersteps, comm_bytes, weights)) => Topology::Bsp {
                supersteps,
                comm_bytes,
                weights,
            },
            None if nodes.len() == 1 => Topology::SingleNode,
            None => Topology::Replicated,
        };
        let label = self.label.unwrap_or_else(|| nodes[0].1.name().to_string());
        let scenario = Scenario {
            label,
            workload: self.workload,
            nodes,
            topology,
            seed: self.seed,
            duration_s: self.duration_s,
            trace: self.trace,
            stepping: self.stepping,
        };
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        scenario
    }
}

/// What a scenario produced: a single-node [`RunOutcome`] or a cluster
/// [`ClusterOutcome`].
#[derive(Debug, Clone)]
pub enum ScenarioOutcome {
    /// Single-node result.
    Single(RunOutcome),
    /// Cluster result.
    Cluster(ClusterOutcome),
}

/// Cluster measurements: the bulk-synchronous outcome plus the
/// per-node controller state gathered after the run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Timing/energy outcome.
    pub outcome: cluster::BspOutcome,
    /// Per-node controller reports.
    pub reports: Vec<Vec<NodeReport>>,
    /// Per-node resolved-optimum fractions.
    pub resolved: Vec<(f64, f64)>,
    /// Operating-point residency summed over nodes.
    pub residency: BTreeMap<(u32, u32), u64>,
}

impl ScenarioOutcome {
    /// Virtual wall time, seconds (slowest node for clusters).
    pub fn seconds(&self) -> f64 {
        match self {
            ScenarioOutcome::Single(o) => o.seconds,
            ScenarioOutcome::Cluster(c) => c.outcome.seconds,
        }
    }

    /// Package energy, joules (summed over nodes).
    pub fn joules(&self) -> f64 {
        match self {
            ScenarioOutcome::Single(o) => o.joules,
            ScenarioOutcome::Cluster(c) => c.outcome.joules,
        }
    }

    /// Instructions retired (summed over nodes).
    pub fn instructions(&self) -> f64 {
        match self {
            ScenarioOutcome::Single(o) => o.instructions,
            ScenarioOutcome::Cluster(c) => c.outcome.instructions,
        }
    }

    /// Node 0's controller report.
    pub fn report(&self) -> Vec<NodeReport> {
        match self {
            ScenarioOutcome::Single(o) => o.report.clone(),
            ScenarioOutcome::Cluster(c) => c.reports.first().cloned().unwrap_or_default(),
        }
    }

    /// Quanta the engine executed one step at a time (all nodes).
    pub fn stepped_quanta(&self) -> u64 {
        match self {
            ScenarioOutcome::Single(o) => o.stepped_quanta,
            ScenarioOutcome::Cluster(c) => c.outcome.stepped_quanta,
        }
    }

    /// Quanta fast-forwarded analytically while parked (all nodes).
    pub fn idle_advanced_quanta(&self) -> u64 {
        match self {
            ScenarioOutcome::Single(o) => o.idle_advanced_quanta,
            ScenarioOutcome::Cluster(c) => c.outcome.idle_advanced_quanta,
        }
    }

    /// Quanta fast-forwarded analytically while executing (all nodes).
    pub fn busy_advanced_quanta(&self) -> u64 {
        match self {
            ScenarioOutcome::Single(o) => o.busy_advanced_quanta,
            ScenarioOutcome::Cluster(c) => c.outcome.busy_advanced_quanta,
        }
    }

    /// Total virtual quanta elapsed (all nodes).
    pub fn total_quanta(&self) -> u64 {
        match self {
            ScenarioOutcome::Single(o) => o.total_quanta,
            ScenarioOutcome::Cluster(c) => c.outcome.total_quanta,
        }
    }

    /// The single-node outcome, if this was one.
    pub fn single(&self) -> Option<&RunOutcome> {
        match self {
            ScenarioOutcome::Single(o) => Some(o),
            ScenarioOutcome::Cluster(_) => None,
        }
    }

    /// The cluster outcome, if this was one.
    pub fn cluster(&self) -> Option<&ClusterOutcome> {
        match self {
            ScenarioOutcome::Single(_) => None,
            ScenarioOutcome::Cluster(c) => Some(c),
        }
    }
}

// ---------------------------------------------------------------------
// JSON codec (hand-rolled against `bench::json`, the workspace's only
// codec). The primitive impls here (machines, policies, configs) are
// shared with the grid artifact codec in `bench::grid`.
// ---------------------------------------------------------------------

/// Build a [`Json::Obj`] from `(key, value)` pairs in order. Public
/// because downstream codecs (the serve protocol, external tools)
/// compose documents out of the same primitive impls defined here.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Build a [`Json::Arr`] by encoding each item.
pub fn arr<T: ToJson>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(ToJson::to_json).collect())
}

/// Decode a homogeneous array.
pub fn from_arr<T: FromJson>(j: &Json) -> Result<Vec<T>, JsonError> {
    j.as_arr()?.iter().map(T::from_json).collect()
}

pub(crate) fn opt_u32(v: Option<u32>) -> Json {
    v.map_or(Json::Null, |x| Json::Num(f64::from(x)))
}

pub(crate) fn from_opt_u32(j: &Json) -> Result<Option<u32>, JsonError> {
    match j {
        Json::Null => Ok(None),
        other => Ok(Some(other.as_u64()? as u32)),
    }
}

impl ToJson for ProgModel {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                ProgModel::OpenMp => "openmp",
                ProgModel::HClib => "hclib",
            }
            .into(),
        )
    }
}

impl FromJson for ProgModel {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str()? {
            "openmp" => Ok(ProgModel::OpenMp),
            "hclib" => Ok(ProgModel::HClib),
            other => Err(JsonError(format!("unknown programming model `{other}`"))),
        }
    }
}

impl ToJson for Policy {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Policy::Both => "both",
                Policy::CoreOnly => "core-only",
                Policy::UncoreOnly => "uncore-only",
            }
            .into(),
        )
    }
}

impl FromJson for Policy {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str()? {
            "both" => Ok(Policy::Both),
            "core-only" => Ok(Policy::CoreOnly),
            "uncore-only" => Ok(Policy::UncoreOnly),
            other => Err(JsonError(format!("unknown policy `{other}`"))),
        }
    }
}

impl ToJson for Config {
    fn to_json(&self) -> Json {
        obj(vec![
            ("tinv_ns", Json::Num(self.tinv_ns as f64)),
            ("warmup_ns", Json::Num(self.warmup_ns as f64)),
            ("policy", self.policy.to_json()),
            (
                "samples_per_freq",
                Json::Num(f64::from(self.samples_per_freq)),
            ),
            ("slab_width", Json::Num(self.slab_width)),
            ("uf_window_mult", Json::Num(self.uf_window_mult)),
            (
                "neighbor_inheritance",
                Json::Bool(self.neighbor_inheritance),
            ),
            ("revalidation", Json::Bool(self.revalidation)),
            ("idle_guard", self.idle_guard.map_or(Json::Null, Json::Num)),
        ])
    }
}

impl FromJson for Config {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Config {
            tinv_ns: j.field("tinv_ns")?.as_u64()?,
            warmup_ns: j.field("warmup_ns")?.as_u64()?,
            policy: Policy::from_json(j.field("policy")?)?,
            samples_per_freq: j.field("samples_per_freq")?.as_u64()? as u32,
            slab_width: j.field("slab_width")?.as_f64()?,
            uf_window_mult: j.field("uf_window_mult")?.as_f64()?,
            neighbor_inheritance: j.field("neighbor_inheritance")?.as_bool()?,
            revalidation: j.field("revalidation")?.as_bool()?,
            idle_guard: match j.field("idle_guard")? {
                Json::Null => None,
                other => Some(other.as_f64()?),
            },
        })
    }
}

impl ToJson for FreqDomain {
    fn to_json(&self) -> Json {
        obj(vec![
            ("min", Json::Num(f64::from(self.min().0))),
            ("max", Json::Num(f64::from(self.max().0))),
        ])
    }
}

impl FromJson for FreqDomain {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let min = j.field("min")?.as_u64()? as u32;
        let max = j.field("max")?.as_u64()? as u32;
        if min == 0 || min > max {
            return Err(JsonError(format!("invalid frequency domain {min}..{max}")));
        }
        Ok(FreqDomain::new(Freq(min), Freq(max)))
    }
}

impl ToJson for MachineSpec {
    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("n_cores", Json::Num(self.n_cores as f64)),
            ("core", self.core.to_json()),
            ("uncore", self.uncore.to_json()),
            ("quantum_ns", Json::Num(self.quantum_ns as f64)),
        ])
    }
}

impl FromJson for MachineSpec {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let spec = MachineSpec {
            name: j.field("name")?.as_str()?.to_string(),
            n_cores: j.field("n_cores")?.as_u64()? as usize,
            core: FreqDomain::from_json(j.field("core")?)?,
            uncore: FreqDomain::from_json(j.field("uncore")?)?,
            quantum_ns: j.field("quantum_ns")?.as_u64()?,
        };
        spec.validate().map_err(JsonError)?;
        Ok(spec)
    }
}

impl ToJson for OracleEntry {
    fn to_json(&self) -> Json {
        obj(vec![
            ("slab", Json::Num(f64::from(self.slab.0))),
            ("cf", Json::Num(f64::from(self.cf.0))),
            ("uf", Json::Num(f64::from(self.uf.0))),
        ])
    }
}

impl FromJson for OracleEntry {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(OracleEntry {
            slab: TipiSlab(j.field("slab")?.as_u64()? as u32),
            cf: Freq(j.field("cf")?.as_u64()? as u32),
            uf: Freq(j.field("uf")?.as_u64()? as u32),
        })
    }
}

impl ToJson for OracleTable {
    fn to_json(&self) -> Json {
        obj(vec![
            ("slab_width", Json::Num(self.slab_width)),
            ("tinv_ns", Json::Num(self.tinv_ns as f64)),
            ("entries", arr(&self.entries)),
        ])
    }
}

impl FromJson for OracleTable {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let table = OracleTable {
            slab_width: j.field("slab_width")?.as_f64()?,
            tinv_ns: j.field("tinv_ns")?.as_u64()?,
            entries: from_arr(j.field("entries")?)?,
        };
        table.validate().map_err(JsonError)?;
        Ok(table)
    }
}

impl ToJson for PidGains {
    fn to_json(&self) -> Json {
        obj(vec![
            ("kp", Json::Num(self.kp)),
            ("ki", Json::Num(self.ki)),
            ("kd", Json::Num(self.kd)),
            ("setpoint", Json::Num(self.setpoint)),
        ])
    }
}

impl FromJson for PidGains {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let gains = PidGains {
            kp: j.field("kp")?.as_f64()?,
            ki: j.field("ki")?.as_f64()?,
            kd: j.field("kd")?.as_f64()?,
            setpoint: j.field("setpoint")?.as_f64()?,
        };
        gains.validate().map_err(JsonError)?;
        Ok(gains)
    }
}

impl ToJson for NodePolicy {
    fn to_json(&self) -> Json {
        match self {
            NodePolicy::Default => obj(vec![("kind", Json::Str("default".into()))]),
            NodePolicy::Cuttlefish(cfg) => obj(vec![
                ("kind", Json::Str("cuttlefish".into())),
                ("config", cfg.to_json()),
            ]),
            NodePolicy::Pinned { cf, uf } => obj(vec![
                ("kind", Json::Str("pinned".into())),
                ("cf", Json::Num(f64::from(cf.0))),
                ("uf", Json::Num(f64::from(uf.0))),
            ]),
            NodePolicy::Ondemand => obj(vec![("kind", Json::Str("ondemand".into()))]),
            NodePolicy::Oracle(table) => obj(vec![
                ("kind", Json::Str("oracle".into())),
                ("table", table.to_json()),
            ]),
            NodePolicy::PidUncore { config, gains } => obj(vec![
                ("kind", Json::Str("pid-uncore".into())),
                ("config", config.to_json()),
                ("gains", gains.to_json()),
            ]),
        }
    }
}

impl FromJson for NodePolicy {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.field("kind")?.as_str()? {
            "default" => Ok(NodePolicy::Default),
            "cuttlefish" => Ok(NodePolicy::Cuttlefish(Config::from_json(
                j.field("config")?,
            )?)),
            "pinned" => Ok(NodePolicy::Pinned {
                cf: Freq(j.field("cf")?.as_u64()? as u32),
                uf: Freq(j.field("uf")?.as_u64()? as u32),
            }),
            "ondemand" => Ok(NodePolicy::Ondemand),
            // The table may be inline (`table`) or referenced
            // (`table_file`, resolved relative to the process CWD and
            // holding a bare serialized `OracleTable`). Files always
            // re-serialize inline.
            "oracle" => {
                let table = match j.get("table") {
                    Some(t) => OracleTable::from_json(t)?,
                    None => {
                        let path = j.field("table_file")?.as_str()?;
                        let text = std::fs::read_to_string(path).map_err(|e| {
                            JsonError(format!("cannot read oracle table_file `{path}`: {e}"))
                        })?;
                        OracleTable::from_json(&Json::parse(&text)?)?
                    }
                };
                Ok(NodePolicy::Oracle(table))
            }
            "pid-uncore" => Ok(NodePolicy::PidUncore {
                config: Config::from_json(j.field("config")?)?,
                gains: PidGains::from_json(j.field("gains")?)?,
            }),
            other => Err(JsonError(format!("unknown node policy `{other}`"))),
        }
    }
}

impl ToJson for ChunkPhase {
    fn to_json(&self) -> Json {
        obj(vec![
            ("chunks", Json::Num(self.chunks as f64)),
            ("instructions", Json::Num(self.instructions as f64)),
            ("misses_local", Json::Num(self.misses_local as f64)),
            ("misses_remote", Json::Num(self.misses_remote as f64)),
            ("cpi", Json::Num(self.cpi)),
            ("mlp", Json::Num(self.mlp)),
        ])
    }
}

impl FromJson for ChunkPhase {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ChunkPhase {
            chunks: j.field("chunks")?.as_u64()?,
            instructions: j.field("instructions")?.as_u64()?,
            misses_local: j.field("misses_local")?.as_u64()?,
            misses_remote: j.field("misses_remote")?.as_u64()?,
            cpi: j.field("cpi")?.as_f64()?,
            mlp: j.field("mlp")?.as_f64()?,
        })
    }
}

impl ToJson for WorkloadSpec {
    fn to_json(&self) -> Json {
        match self {
            WorkloadSpec::Bench { name, model, scale } => obj(vec![
                ("kind", Json::Str("bench".into())),
                ("bench", Json::Str(name.clone())),
                ("model", model.to_json()),
                ("scale", Json::Num(*scale)),
            ]),
            WorkloadSpec::Synthetic(spec) => obj(vec![
                ("kind", Json::Str("synthetic".into())),
                ("phases", arr(&spec.phases)),
                (
                    "total_chunks",
                    spec.total_chunks
                        .map_or(Json::Null, |n| Json::Num(n as f64)),
                ),
            ]),
        }
    }
}

impl FromJson for WorkloadSpec {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.field("kind")?.as_str()? {
            "bench" => Ok(WorkloadSpec::Bench {
                name: j.field("bench")?.as_str()?.to_string(),
                model: ProgModel::from_json(j.field("model")?)?,
                scale: j.field("scale")?.as_f64()?,
            }),
            "synthetic" => Ok(WorkloadSpec::Synthetic(SyntheticSpec {
                phases: from_arr(j.field("phases")?)?,
                total_chunks: match j.field("total_chunks")? {
                    Json::Null => None,
                    other => Some(other.as_u64()?),
                },
            })),
            other => Err(JsonError(format!("unknown workload kind `{other}`"))),
        }
    }
}

impl ToJson for Topology {
    fn to_json(&self) -> Json {
        match self {
            Topology::SingleNode => obj(vec![("kind", Json::Str("single-node".into()))]),
            Topology::Replicated => obj(vec![("kind", Json::Str("replicated".into()))]),
            Topology::Bsp {
                supersteps,
                comm_bytes,
                weights,
            } => {
                let mut fields = vec![
                    ("kind", Json::Str("bsp".into())),
                    ("supersteps", Json::Num(f64::from(*supersteps))),
                    ("comm_bytes", Json::Num(*comm_bytes)),
                ];
                if !weights.is_empty() {
                    fields.push((
                        "weights",
                        Json::Arr(weights.iter().map(|&w| Json::Num(f64::from(w))).collect()),
                    ));
                }
                obj(fields)
            }
        }
    }
}

impl FromJson for Topology {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.field("kind")?.as_str()? {
            "single-node" => Ok(Topology::SingleNode),
            "replicated" => Ok(Topology::Replicated),
            "bsp" => Ok(Topology::Bsp {
                supersteps: j.field("supersteps")?.as_u64()? as u32,
                comm_bytes: j.field("comm_bytes")?.as_f64()?,
                weights: match j.get("weights") {
                    Some(w) => w
                        .as_arr()?
                        .iter()
                        .map(|v| Ok(v.as_u64()? as u32))
                        .collect::<Result<_, JsonError>>()?,
                    None => Vec::new(),
                },
            }),
            other => Err(JsonError(format!("unknown topology `{other}`"))),
        }
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(SCENARIO_SCHEMA.into())),
            ("label", Json::Str(self.label.clone())),
            ("workload", self.workload.to_json()),
            (
                "nodes",
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|(machine, policy)| {
                            obj(vec![
                                ("machine", machine.to_json()),
                                ("policy", policy.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("topology", self.topology.to_json()),
            ("seed", Json::Num(self.seed as f64)),
            ("duration_s", self.duration_s.map_or(Json::Null, Json::Num)),
            ("trace", Json::Bool(self.trace)),
        ];
        // Default-mode scenarios keep their historical byte-exact
        // encoding; the key appears only when a cell pins lockstep.
        if self.stepping != SteppingMode::default() {
            fields.push(("stepping", Json::Str(self.stepping.as_str().into())));
        }
        obj(fields)
    }
}

impl FromJson for Scenario {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let schema = j.field("schema")?.as_str()?;
        if schema != SCENARIO_SCHEMA {
            return Err(JsonError(format!(
                "unsupported scenario schema `{schema}` (expected `{SCENARIO_SCHEMA}`)"
            )));
        }
        let nodes = j
            .field("nodes")?
            .as_arr()?
            .iter()
            .map(|n| {
                Ok((
                    MachineSpec::from_json(n.field("machine")?)?,
                    NodePolicy::from_json(n.field("policy")?)?,
                ))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let scenario = Scenario {
            label: j.field("label")?.as_str()?.to_string(),
            workload: WorkloadSpec::from_json(j.field("workload")?)?,
            nodes,
            topology: Topology::from_json(j.field("topology")?)?,
            seed: j.field("seed")?.as_u64()?,
            duration_s: match j.field("duration_s")? {
                Json::Null => None,
                other => Some(other.as_f64()?),
            },
            trace: j.field("trace")?.as_bool()?,
            stepping: match j.get("stepping") {
                Some(s) => SteppingMode::parse(s.as_str()?).map_err(JsonError)?,
                None => SteppingMode::default(),
            },
        };
        scenario.validate().map_err(JsonError)?;
        Ok(scenario)
    }
}

impl Scenario {
    /// Serialize to the deterministic scenario-file format.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parse and validate a scenario file.
    pub fn from_json_str(text: &str) -> Result<Scenario, JsonError> {
        Scenario::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn default_and_cuttlefish_runs_complete() {
        let d = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
            .policy(NodePolicy::Default)
            .build()
            .run();
        assert!(d.seconds() > 0.0 && d.joules() > 0.0);
        let c = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
            .policy(NodePolicy::Cuttlefish(Config::default()))
            .build()
            .run();
        assert!(c.seconds() > 0.0 && c.joules() > 0.0);
        assert!(!c.report().is_empty(), "daemon must have discovered ranges");
    }

    #[test]
    fn trace_collection_samples_at_tinv() {
        let suite = workloads::openmp_suite(Scale(0.05));
        let scenario = Scenario::bench(suite[1].name.clone(), ProgModel::OpenMp, 0.05)
            .policy(NodePolicy::Default)
            .trace()
            .build();
        let mut points = Vec::new();
        let o = scenario.run_traced(Some(&mut points));
        // ~1 point per 20 ms of virtual time.
        let expect = o.seconds() / 0.020;
        assert!(
            (points.len() as f64) > expect * 0.8 && (points.len() as f64) < expect * 1.2,
            "expected ~{expect} points, got {}",
            points.len()
        );
    }

    #[test]
    fn duration_cap_bounds_endless_streams() {
        let scenario = Scenario::synthetic(SyntheticSpec {
            phases: vec![ChunkPhase::streaming(1)],
            total_chunks: None,
        })
        .policy(NodePolicy::Default)
        .duration_s(0.5)
        .build();
        let o = scenario.run();
        assert!((o.seconds() - 0.5).abs() < 0.01, "got {}", o.seconds());
    }

    #[test]
    fn replicated_and_bsp_clusters_run() {
        let rep = Scenario::bench("UTS", ProgModel::OpenMp, 0.02)
            .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
            .build();
        assert_eq!(rep.topology, Topology::Replicated);
        let o = rep.run();
        let c = o.cluster().expect("cluster outcome");
        assert_eq!(c.outcome.node_joules.len(), 2);

        let bsp = Scenario::bench("Heat-ws", ProgModel::OpenMp, 0.02)
            .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
            .bsp(8, 24.0e6)
            .build();
        let o = bsp.run();
        assert!(o.seconds() > 0.0 && o.joules() > 0.0);
    }

    #[test]
    fn bsp_weights_imbalance_synthetic_nodes() {
        let spec = SyntheticSpec {
            phases: vec![ChunkPhase::streaming(400)],
            total_chunks: None,
        };
        let balanced = Scenario::synthetic(spec.clone())
            .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
            .bsp(4, 4.0e6)
            .build()
            .run();
        let imbalanced = Scenario::synthetic(spec)
            .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
            .bsp_weighted(4, 4.0e6, vec![2, 1])
            .build()
            .run();
        let b = balanced.cluster().unwrap();
        let i = imbalanced.cluster().unwrap();
        assert!(
            i.outcome.barrier_wait_s > b.outcome.barrier_wait_s + 0.05,
            "the weighted node must make the other wait ({} vs {})",
            i.outcome.barrier_wait_s,
            b.outcome.barrier_wait_s
        );
    }

    #[test]
    fn builder_defaults_and_rep_seeds() {
        let s = Scenario::bench("UTS", ProgModel::OpenMp, 0.05).build();
        assert_eq!(s.label, "Default");
        assert_eq!(s.seed, HARNESS_SEED);
        assert_eq!(s.rep(), Some(0));
        let s = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
            .rep(3)
            .build();
        assert_eq!(s.rep(), Some(3));
        let s = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
            .seed(12345)
            .build();
        assert_eq!(s.rep(), None);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        // Trace on a cluster.
        let mut s = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
            .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
            .build();
        s.trace = true;
        assert!(s.validate().is_err());
        // DAG benchmark under BSP.
        let mut s = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
            .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
            .build();
        s.topology = Topology::bsp(4, 1.0e6);
        assert!(s.validate().is_err());
        // Weight list of the wrong length.
        let mut s = Scenario::synthetic(SyntheticSpec {
            phases: vec![ChunkPhase::compute(1)],
            total_chunks: Some(10),
        })
        .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
        .build();
        s.topology = Topology::Bsp {
            supersteps: 2,
            comm_bytes: 1.0,
            weights: vec![1, 2, 3],
        };
        assert!(s.validate().is_err());
        // Unknown benchmark.
        let s = Scenario {
            label: "x".into(),
            workload: WorkloadSpec::bench("NoSuch", ProgModel::OpenMp, 0.05),
            nodes: vec![(HASWELL_2650V3.clone(), NodePolicy::Default)],
            topology: Topology::SingleNode,
            seed: HARNESS_SEED,
            duration_s: None,
            trace: false,
            stepping: SteppingMode::default(),
        };
        assert!(s.validate().is_err());
        // Endless synthetic stream with nothing to terminate it.
        let endless = WorkloadSpec::Synthetic(SyntheticSpec {
            phases: vec![ChunkPhase::streaming(1)],
            total_chunks: None,
        });
        let mut s = Scenario::workload(endless.clone())
            .policy(NodePolicy::Default)
            .duration_s(0.1)
            .build();
        s.duration_s = None;
        assert!(s.validate().is_err(), "uncapped endless stream must fail");
        let mut s = Scenario::workload(endless)
            .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
            .bsp(2, 1.0e6)
            .build();
        s.topology = Topology::Replicated;
        assert!(s.validate().is_err(), "replicated endless stream must fail");
    }

    #[test]
    fn run_traced_respects_the_scenario_trace_flag() {
        // A buffer passed to an untraced scenario stays untouched and
        // the run keeps the event-driven loop.
        let scenario = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
            .policy(NodePolicy::Default)
            .build();
        let mut points = Vec::new();
        let o = scenario.run_traced(Some(&mut points));
        assert!(points.is_empty(), "untraced scenarios must not trace");
        let traced = scenario.run();
        assert_eq!(
            o.single().unwrap().joules.to_bits(),
            traced.single().unwrap().joules.to_bits(),
            "passing a buffer must not change the execution path"
        );
    }

    #[test]
    fn scenario_json_round_trips() {
        let s = Scenario::bench("Heat-ws", ProgModel::HClib, 0.05)
            .label("Cuttlefish-mpi")
            .nodes(
                4,
                &HASWELL_2650V3,
                NodePolicy::Cuttlefish(Config {
                    idle_guard: Some(0.3),
                    ..Config::default()
                }),
            )
            .bsp(96, 1.2e9)
            .rep(1)
            .build();
        let text = s.to_json_string();
        let parsed = Scenario::from_json_str(&text).expect("round trip parses");
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_json_string(), text);
        // Default stepping stays off the wire, so every pre-existing
        // scenario file keeps its historical byte-exact encoding.
        assert_eq!(s.stepping, SteppingMode::EventDriven);
        assert!(!text.contains("stepping"));
    }

    #[test]
    fn stepping_mode_round_trips_through_scenario_json() {
        let s = Scenario::bench("Heat-ws", ProgModel::OpenMp, 0.05)
            .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
            .bsp(4, 1.0e6)
            .stepping(SteppingMode::Lockstep)
            .build();
        let text = s.to_json_string();
        assert!(
            text.contains("\"stepping\": \"lockstep\""),
            "non-default mode must be serialized: {text}"
        );
        let parsed = Scenario::from_json_str(&text).expect("round trip parses");
        assert_eq!(parsed.stepping, SteppingMode::Lockstep);
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn policy_json_round_trips() {
        for policy in [
            NodePolicy::Default,
            NodePolicy::Cuttlefish(Config::default().with_policy(Policy::CoreOnly)),
            NodePolicy::Pinned {
                cf: Freq(12),
                uf: Freq(22),
            },
            NodePolicy::Ondemand,
        ] {
            assert_eq!(NodePolicy::from_json(&policy.to_json()).unwrap(), policy);
        }
    }
}
