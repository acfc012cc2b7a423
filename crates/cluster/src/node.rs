//! Cluster simulation: N simulated packages executing bulk-synchronous
//! supersteps, each with its own frequency controller.
//!
//! Nodes share nothing between barriers, so [`Cluster::run_program`]
//! drives each superstep node by node: a node builds its workload and
//! drains it through the shared [`cuttlefish::controller::drive`] loop,
//! then idles its barrier wait plus the exchange window as one stretch
//! that fast-forwards whatever its controller certifies as uneventful.
//! [`SteppingMode::Lockstep`] turns both fast-forwards off — the
//! per-quantum reference the equivalence suites compare against.

use crate::bsp::{BspOutcome, BspProgram, CommModel, QuantaSplit};
use cuttlefish::controller::FrequencyController;
use simproc::engine::{Chunk, Workload};
use simproc::freq::{MachineSpec, HASWELL_2650V3};
use simproc::SimProcessor;
use std::collections::BTreeMap;

// The per-node frequency policy and the controllers it builds live in
// `cuttlefish::controller`, shared with the evaluation harness and the
// examples; `cluster` re-exports the policy for convenience.
pub use cuttlefish::controller::NodePolicy;

/// How a [`Cluster`] advances virtual time: with the analytic
/// fast-forwards on or off. Serialized in `Scenario` JSON by the bench
/// harness (omitted when default), so any grid cell can pin its
/// driving mode declaratively.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SteppingMode {
    /// The reference "cycle-box": every node steps quantum by quantum.
    /// Linear in nodes × quanta; exists so the fast-forwarding path has
    /// a bit-exact oracle to answer to.
    Lockstep,
    /// Compute phases run through `cuttlefish::controller::drive` and
    /// barrier/exchange waits skip every stretch the node's controller
    /// certifies as uneventful, so cost is bound by event count (the
    /// default).
    #[default]
    EventDriven,
}

impl SteppingMode {
    /// Stable wire name, used by the scenario/grid JSON codecs.
    pub fn as_str(self) -> &'static str {
        match self {
            SteppingMode::Lockstep => "lockstep",
            SteppingMode::EventDriven => "event-driven",
        }
    }

    /// Inverse of [`SteppingMode::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "lockstep" => Ok(SteppingMode::Lockstep),
            "event-driven" => Ok(SteppingMode::EventDriven),
            other => Err(format!(
                "unknown stepping mode `{other}` (expected `lockstep` or `event-driven`)"
            )),
        }
    }
}

struct Node {
    proc: SimProcessor,
    ctrl: Box<dyn FrequencyController>,
    busy_s: f64,
}

/// Nothing to run: models barrier wait / communication windows (cores
/// idle; the package still burns its floor power; per-node Cuttlefish
/// daemons skip the interval because no instructions retire).
struct Idle;
impl Workload for Idle {
    fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
        None
    }
    fn is_done(&self) -> bool {
        true
    }
    fn next_wake_ns(&self, _now: u64) -> Option<u64> {
        None
    }
}

/// A simulated cluster.
pub struct Cluster {
    nodes: Vec<Node>,
    comm: CommModel,
    /// How virtual time advances — see [`SteppingMode`]. Event-driven
    /// by default; `Lockstep` forces the quantum-by-quantum loop the
    /// equivalence tests and before/after stepping measurements compare
    /// against.
    stepping: SteppingMode,
}

impl Cluster {
    /// Build `n_nodes` Haswell nodes under `policy` — a thin
    /// convenience over [`Cluster::with_nodes`], the one constructor.
    pub fn new(n_nodes: usize, policy: NodePolicy, comm: CommModel) -> Self {
        assert!(n_nodes > 0);
        Self::with_nodes(
            (0..n_nodes)
                .map(|_| (HASWELL_2650V3.clone(), policy.clone()))
                .collect(),
            comm,
        )
    }

    /// The cluster constructor: each node gets its own machine spec
    /// and frequency policy — uniform fleets, mixed fleets, straggler
    /// nodes, per-node governor comparisons (the §4.6 imbalance study
    /// wants slow *hardware*, not just more chunks). Declarative
    /// callers go through `bench::scenario::Scenario`, which feeds its
    /// `nodes` list straight in here.
    pub fn with_nodes(nodes: Vec<(MachineSpec, NodePolicy)>, comm: CommModel) -> Self {
        assert!(!nodes.is_empty());
        // Specs may differ in cores and frequency domains, but the
        // cluster shares one virtual timeline: exchange windows and
        // barrier timestamps are expressed in whole quanta, so every
        // node must tick at the same quantum.
        assert!(
            nodes
                .iter()
                .all(|(s, _)| s.quantum_ns == nodes[0].0.quantum_ns),
            "heterogeneous nodes must share one quantum_ns"
        );
        let nodes = nodes
            .into_iter()
            .map(|(spec, policy)| {
                let mut proc = SimProcessor::new(spec);
                let ctrl = policy.build(&mut proc);
                Node {
                    proc,
                    ctrl,
                    busy_s: 0.0,
                }
            })
            .collect();
        Cluster {
            nodes,
            comm,
            stepping: SteppingMode::default(),
        }
    }

    /// Select the driving mode (see the field docs); returns `self`
    /// for builder-style use.
    pub fn set_stepping(&mut self, mode: SteppingMode) -> &mut Self {
        self.stepping = mode;
        self
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Per-node controller reports — one uniform path across policies:
    /// every controller reports what it has learned. Static controllers
    /// yield one synthetic whole-run range; a Cuttlefish node's report
    /// is empty until its daemon clears warm-up.
    pub fn reports(&self) -> Vec<Vec<cuttlefish::daemon::NodeReport>> {
        self.nodes.iter().map(|n| n.ctrl.report()).collect()
    }

    /// Per-node resolved-optimum fractions, through the same
    /// [`FrequencyController::resolved_fractions`] path single-node
    /// consumers use (keeps the definition canonical if it ever gains
    /// e.g. occurrence weighting).
    pub fn resolved_fractions(&self) -> Vec<(f64, f64)> {
        self.nodes
            .iter()
            .map(|n| n.ctrl.resolved_fractions())
            .collect()
    }

    /// Per-operating-point residency summed over all nodes, keyed by
    /// `(core, uncore)` deci-GHz.
    pub fn residency(&self) -> BTreeMap<(u32, u32), u64> {
        let mut merged: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for node in &self.nodes {
            for (&point, &ns) in node.proc.frequency_residency() {
                *merged.entry(point).or_default() += ns;
            }
        }
        merged
    }

    fn step_node(node: &mut Node, wl: &mut dyn Workload) {
        node.proc.step(wl);
        node.ctrl.on_quantum(&mut node.proc);
    }

    /// Idle one parked node for exactly `quanta` quanta, fast-forwarding
    /// every stretch the controller declares uneventful and stepping for
    /// real at the controller's scheduled events (`Tinv` ticks, firmware
    /// ramp-down quanta) — numerically identical to `quanta` plain
    /// `step(&mut Idle)`/`on_quantum` rounds, which is what `Lockstep`
    /// runs instead.
    fn idle_for(node: &mut Node, quanta: u64, stepping: SteppingMode) {
        let mut left = quanta;
        while left > 0 {
            let k = match stepping {
                SteppingMode::EventDriven => node.ctrl.idle_quanta_capacity(&node.proc).min(left),
                SteppingMode::Lockstep => 0,
            };
            if k == 0 {
                Self::step_node(node, &mut Idle);
                left -= 1;
            } else {
                node.proc.advance_idle_quanta(k);
                node.ctrl.note_idle_quanta(k);
                left -= k;
            }
        }
    }

    /// Drain one node's superstep workload: through the shared
    /// fast-forwarding [`cuttlefish::controller::drive`] loop, or quantum
    /// by quantum under `Lockstep`.
    fn drain(node: &mut Node, wl: &mut dyn Workload, stepping: SteppingMode) {
        match stepping {
            SteppingMode::EventDriven => {
                cuttlefish::controller::drive(&mut node.proc, wl, node.ctrl.as_mut());
            }
            SteppingMode::Lockstep => {
                while !node.proc.workload_drained(wl) {
                    Self::step_node(node, wl);
                }
            }
        }
    }

    fn outcome(&self, barrier_wait_s: f64, node_barrier_wait_s: Vec<f64>) -> BspOutcome {
        let node_joules: Vec<f64> = self
            .nodes
            .iter()
            .map(|n| n.proc.total_energy_joules())
            .collect();
        let seconds = self
            .nodes
            .iter()
            .map(|n| n.proc.now_seconds())
            .fold(0.0, f64::max);
        let node_quanta: Vec<QuantaSplit> = self
            .nodes
            .iter()
            .map(|n| QuantaSplit {
                stepped: n.proc.stepped_quanta(),
                idle_advanced: n.proc.idle_advanced_quanta(),
                busy_advanced: n.proc.busy_advanced_quanta(),
                total: n.proc.total_quanta(),
            })
            .collect();
        BspOutcome {
            seconds,
            joules: node_joules.iter().sum(),
            instructions: self.nodes.iter().map(|n| n.proc.total_instructions()).sum(),
            node_busy_s: self.nodes.iter().map(|n| n.busy_s).collect(),
            node_joules,
            barrier_wait_s,
            node_barrier_wait_s,
            stepped_quanta: node_quanta.iter().map(|q| q.stepped).sum(),
            idle_advanced_quanta: node_quanta.iter().map(|q| q.idle_advanced).sum(),
            busy_advanced_quanta: node_quanta.iter().map(|q| q.busy_advanced).sum(),
            total_quanta: node_quanta.iter().map(|q| q.total).sum(),
            node_quanta,
        }
    }

    /// Execute a bulk-synchronous program to completion — the one
    /// entry point. Per superstep, each node drains the workload
    /// `program` builds for it, then idles through the barrier and the
    /// exchange; both are driven per the cluster's [`SteppingMode`].
    pub fn run_program<P: BspProgram + ?Sized>(&mut self, program: &mut P) -> BspOutcome {
        assert_eq!(
            program.n_nodes(),
            self.nodes.len(),
            "program/cluster size mismatch"
        );
        let stepping = self.stepping;
        let quantum_ns = self.nodes[0].proc.spec().quantum_ns;
        let quantum_s = quantum_ns as f64 * 1e-9;
        let comm_quanta = (self.comm.exchange_seconds() / quantum_s).ceil() as u64;
        let mut barrier_wait_s = 0.0;
        let mut node_barrier_wait_s = vec![0.0; self.nodes.len()];

        for step in 0..program.n_steps() {
            // Phase 1: local computation, each node at its own pace.
            // Nodes are independent between barriers, so each builds,
            // drains and drops its workload in turn.
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let t0 = node.proc.now_ns();
                let mut wl = program.workload(step, i, node.proc.n_cores());
                Self::drain(node, wl.as_mut(), stepping);
                node.busy_s += (node.proc.now_ns() - t0) as f64 * 1e-9;
            }

            // Phases 2–3: early finishers idle until the slowest node
            // arrives (no slack reclamation: §4.6's limitation), then
            // every node idles on the NIC for one α–β exchange. Node
            // clocks live on the shared quantum grid, so the wait is a
            // whole number of quanta and both windows run as one idle
            // stretch.
            let barrier_ns = self
                .nodes
                .iter()
                .map(|n| n.proc.now_ns())
                .max()
                .expect("nodes exist");
            let waits: Vec<f64> = self
                .nodes
                .iter_mut()
                .map(|node| {
                    let wait_ns = barrier_ns - node.proc.now_ns();
                    Self::idle_for(node, wait_ns / quantum_ns + comm_quanta, stepping);
                    wait_ns as f64 * 1e-9
                })
                .collect();
            barrier_wait_s += waits.iter().sum::<f64>();
            for (acc, w) in node_barrier_wait_s.iter_mut().zip(&waits) {
                *acc += w;
            }
        }

        self.outcome(barrier_wait_s, node_barrier_wait_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::{BspApp, ReplicatedProgram};
    use cuttlefish::Config;
    use simproc::perf::CostProfile;

    fn heat_chunks() -> Vec<Chunk> {
        // One superstep of a memory-bound stencil: ~0.4 s per node
        // (enough supersteps of this give the per-node daemons time to
        // finish their exploration and run at the optimum).
        // TIPI 0.066 — centred in its 0.064–0.068 slab (a boundary
        // value would flap between slabs and look like perpetual
        // transitions to the profiler).
        (0..120)
            .map(|_| {
                Chunk::new(30_000_000, 1_390_000, 590_000)
                    .with_profile(CostProfile::new(0.55, 12.0))
            })
            .collect()
    }

    fn cuttlefish_cfg() -> Config {
        // Short warm-up, and the idle guard enabled: BSP supersteps end
        // in barrier waits whose boundary windows would otherwise
        // poison the JPI averages.
        Config {
            warmup_ns: 500_000_000,
            idle_guard: Some(0.3),
            ..Config::default()
        }
    }

    #[test]
    fn balanced_cluster_saves_like_single_node() {
        let app = BspApp::uniform(2, 40, heat_chunks);
        let base =
            Cluster::new(2, NodePolicy::Default, CommModel::default()).run_program(&mut &app);
        let tuned = Cluster::new(
            2,
            NodePolicy::Cuttlefish(cuttlefish_cfg()),
            CommModel::default(),
        )
        .run_program(&mut &app);
        let saving = 1.0 - tuned.joules / base.joules;
        assert!(
            saving > 0.12,
            "per-node Cuttlefish should save like single-node, got {:.1}%",
            saving * 100.0
        );
        let slowdown = tuned.seconds / base.seconds - 1.0;
        assert!(slowdown < 0.08, "slowdown {:.3}", slowdown);
    }

    #[test]
    fn nodes_tune_independently() {
        let app = BspApp::uniform(3, 40, heat_chunks);
        let mut cluster = Cluster::new(
            3,
            NodePolicy::Cuttlefish(cuttlefish_cfg()),
            CommModel::default(),
        );
        cluster.run_program(&mut &app);
        for report in cluster.reports() {
            assert!(
                report.iter().any(|r| r.cf_opt.is_some()),
                "every node's daemon must have resolved its MAP"
            );
        }
    }

    #[test]
    fn imbalance_creates_barrier_wait_but_no_slack_reclamation() {
        // §4.6: Cuttlefish "cannot regulate the processor frequencies to
        // mitigate the workload imbalance between the processes". The
        // fast nodes wait at the barrier; wall time is set by the slow
        // node under both policies.
        let app = BspApp::imbalanced(2, 20, 0, 2, heat_chunks);
        let base =
            Cluster::new(2, NodePolicy::Default, CommModel::default()).run_program(&mut &app);
        let tuned = Cluster::new(
            2,
            NodePolicy::Cuttlefish(cuttlefish_cfg()),
            CommModel::default(),
        )
        .run_program(&mut &app);
        assert!(base.barrier_wait_s > 1.0, "imbalance must create waiting");
        assert!(tuned.barrier_wait_s > 1.0);
        // Wall time tracks the slow node in both cases.
        let slowdown = tuned.seconds / base.seconds - 1.0;
        assert!(slowdown.abs() < 0.08, "slowdown {slowdown:.3}");
        // Energy still improves (each node tunes its own MAP)...
        assert!(tuned.joules < base.joules);
        // ...but the fast node's energy during its wait is floor power,
        // not a just-in-time slowdown: its busy time is far below the
        // slow node's.
        assert!(tuned.node_busy_s[1] < tuned.node_busy_s[0] * 0.7);
    }

    #[test]
    fn exchange_time_is_charged() {
        let comm = CommModel {
            alpha_s: 0.0,
            bytes: 120.0e6,
            bandwidth: 12.0e9, // 10 ms per exchange
        };
        let app = BspApp::uniform(2, 10, heat_chunks);
        let with_comm = Cluster::new(2, NodePolicy::Default, comm).run_program(&mut &app);
        let no_comm = Cluster::new(
            2,
            NodePolicy::Default,
            CommModel {
                alpha_s: 0.0,
                bytes: 0.0,
                bandwidth: 1.0,
            },
        )
        .run_program(&mut &app);
        let diff = with_comm.seconds - no_comm.seconds;
        assert!(
            (0.08..0.15).contains(&diff),
            "10 supersteps x 10 ms exchange ~ 0.1 s, got {diff:.3}"
        );
    }

    #[test]
    fn node_quanta_split_accounts_for_every_quantum() {
        let app = BspApp::uniform(2, 6, heat_chunks);
        let mut cluster = Cluster::new(
            2,
            NodePolicy::Cuttlefish(cuttlefish_cfg()),
            CommModel::default(),
        );
        let out = cluster.run_program(&mut &app);
        assert_eq!(out.node_quanta.len(), 2);
        for q in &out.node_quanta {
            assert_eq!(q.total, q.stepped + q.idle_advanced + q.busy_advanced);
        }
        assert_eq!(
            out.total_quanta,
            out.node_quanta.iter().map(|q| q.total).sum::<u64>(),
            "the fleet sums must fold the per-node split"
        );
    }

    #[test]
    fn replicated_program_runs_one_replica_per_node() {
        let make = |chunks: Vec<Chunk>| {
            move |_node: usize, n_cores: usize| -> Box<dyn Workload> {
                let region = tasking::Region::statically_partitioned(chunks.clone(), n_cores);
                Box::new(tasking::WorkSharingScheduler::new(vec![region], n_cores))
            }
        };
        let duo = Cluster::new(2, NodePolicy::Default, CommModel::default())
            .run_program(&mut ReplicatedProgram::new(2, make(heat_chunks())));
        let solo = Cluster::new(1, NodePolicy::Default, CommModel::default())
            .run_program(&mut ReplicatedProgram::new(1, make(heat_chunks())));
        // Identical nodes run identical replicas: per-node accounting
        // doubles while the (synchronized) wall clock does not move.
        assert_eq!(duo.node_joules.len(), 2);
        assert_eq!(
            duo.instructions.to_bits(),
            (2.0 * solo.instructions).to_bits()
        );
        assert_eq!(duo.seconds.to_bits(), solo.seconds.to_bits());
        // And a second identical run reproduces it bit for bit.
        let again = Cluster::new(2, NodePolicy::Default, CommModel::default())
            .run_program(&mut ReplicatedProgram::new(2, make(heat_chunks())));
        assert_eq!(duo.joules.to_bits(), again.joules.to_bits());
        assert_eq!(duo.total_quanta, again.total_quanta);
    }

    #[test]
    fn stepping_mode_default_and_wire_names() {
        assert_eq!(SteppingMode::default(), SteppingMode::EventDriven);
        for mode in [SteppingMode::Lockstep, SteppingMode::EventDriven] {
            assert_eq!(SteppingMode::parse(mode.as_str()), Ok(mode));
        }
        assert!(SteppingMode::parse("cycle-accurate").is_err());
    }
}
