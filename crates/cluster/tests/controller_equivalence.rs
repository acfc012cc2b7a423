//! Controller-equivalence suite for the cluster layer: the
//! event-driven per-node loops (idle *and* busy fast-forward) must
//! produce *bit-identical* cluster outcomes to the quantum-by-quantum
//! lockstep reference — energies, wall time, instructions, barrier
//! accounting, and per-operating-point residency — while stepping
//! strictly fewer quanta wherever a fast path legally exists.
//!
//! This is the cluster-level half of the `FrequencyController`
//! contract (see `cuttlefish::controller`): the engine suites prove
//! the advance arithmetic itself is exact; this suite proves each
//! controller's capacity answers are honest across real BSP phase
//! structure (compute stretches, barrier waits, exchange windows).

use cluster::{
    BspApp, BspOutcome, Cluster, CommModel, NodePolicy, ReplicatedProgram, SteppingMode,
};
use cuttlefish::controller::{OracleEntry, OracleTable};
use cuttlefish::tipi::TipiSlab;
use cuttlefish::{Config, PidGains};
use simproc::engine::{Chunk, Workload};
use simproc::freq::{Freq, FreqDomain, MachineSpec, HASWELL_2650V3};
use simproc::perf::CostProfile;
use std::collections::BTreeMap;
use tasking::{DagBuilder, WorkStealingScheduler};

/// A short memory-bound stencil superstep (same shape as the node
/// tests, sized down so six governors x two paths stay fast).
fn heat_chunks() -> Vec<Chunk> {
    (0..24)
        .map(|_| {
            Chunk::new(30_000_000, 1_390_000, 590_000).with_profile(CostProfile::new(0.55, 12.0))
        })
        .collect()
}

/// A compute-bound superstep: zero traffic, so fixed-point governors
/// (Ondemand, Default) reach drift-free busy stability.
fn compute_chunks() -> Vec<Chunk> {
    (0..24)
        .map(|_| Chunk::new(40_000_000, 2_000, 400).with_profile(CostProfile::new(0.9, 4.0)))
        .collect()
}

fn policies() -> Vec<(&'static str, NodePolicy)> {
    let table = OracleTable {
        slab_width: 0.004,
        tinv_ns: 20_000_000,
        entries: vec![OracleEntry {
            slab: TipiSlab(16),
            cf: Freq(12),
            uf: Freq(22),
        }],
    };
    vec![
        ("Default", NodePolicy::Default),
        ("Cuttlefish", NodePolicy::Cuttlefish(Config::default())),
        (
            "Pinned",
            NodePolicy::Pinned {
                cf: Freq(14),
                uf: Freq(24),
            },
        ),
        ("Ondemand", NodePolicy::Ondemand),
        ("Oracle", NodePolicy::Oracle(table)),
        (
            "PidUncore",
            NodePolicy::PidUncore {
                config: Config::default(),
                gains: PidGains::default(),
            },
        ),
    ]
}

/// Outcome plus the merged residency map — everything the bit-identity
/// assertions compare.
fn run(policy: &NodePolicy, app: &BspApp, mode: SteppingMode) -> (BspOutcome, Residency) {
    let mut cluster = Cluster::new(2, policy.clone(), CommModel::default());
    cluster.set_stepping(mode);
    let outcome = cluster.run_program(&mut &*app);
    (outcome, cluster.residency())
}

type Residency = BTreeMap<(u32, u32), u64>;

/// The full bit-identity check between a lockstep and an event-driven
/// outcome of the same cell.
fn assert_bit_identical(
    label: &str,
    (slow, slow_res): &(BspOutcome, Residency),
    (fast, fast_res): &(BspOutcome, Residency),
) {
    assert_eq!(
        slow.joules.to_bits(),
        fast.joules.to_bits(),
        "{label}: energy must be bit-identical"
    );
    assert_eq!(
        slow.seconds.to_bits(),
        fast.seconds.to_bits(),
        "{label}: wall time must be bit-identical"
    );
    assert_eq!(
        slow.instructions.to_bits(),
        fast.instructions.to_bits(),
        "{label}: instructions must be bit-identical"
    );
    for (a, b) in slow.node_joules.iter().zip(&fast.node_joules) {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: per-node energy");
    }
    assert_eq!(
        slow.barrier_wait_s.to_bits(),
        fast.barrier_wait_s.to_bits(),
        "{label}: barrier accounting"
    );
    for (a, b) in slow
        .node_barrier_wait_s
        .iter()
        .zip(&fast.node_barrier_wait_s)
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: per-node barrier wait");
    }
    assert_eq!(slow_res, fast_res, "{label}: residency map");
    // Identical virtual timelines, attributable quanta — per node, so a
    // straggler cannot hide behind fleet sums.
    assert_eq!(slow.total_quanta, fast.total_quanta, "{label}");
    for (i, (a, b)) in slow.node_quanta.iter().zip(&fast.node_quanta).enumerate() {
        assert_eq!(a.total, b.total, "{label}: node {i} total quanta");
        assert_eq!(
            b.total,
            b.stepped + b.idle_advanced + b.busy_advanced,
            "{label}: node {i} counter split must account for every quantum"
        );
        assert_eq!(
            a.stepped, a.total,
            "{label}: node {i}: the reference path steps everything"
        );
        assert!(
            b.stepped <= a.stepped,
            "{label}: node {i}: the event path must never step more"
        );
    }
}

#[test]
fn all_six_governors_are_bit_identical_under_event_stepping() {
    for (make, label) in [
        (heat_chunks as fn() -> Vec<Chunk>, "memory"),
        (compute_chunks as fn() -> Vec<Chunk>, "compute"),
    ] {
        let app = BspApp::uniform(2, 6, make);
        for (name, policy) in policies() {
            let slow = run(&policy, &app, SteppingMode::Lockstep);
            let fast = run(&policy, &app, SteppingMode::EventDriven);
            assert_bit_identical(&format!("{name}/{label}"), &slow, &fast);
        }
    }
}

#[test]
fn busy_fast_forward_engages_where_the_contract_allows() {
    // Pinned certifies unbounded busy stretches; the tick-scheduled
    // pair certifies everything between Tinv ticks. PidUncore returns
    // 0 by design — the control plane must honour that too.
    let app = BspApp::uniform(2, 4, heat_chunks as fn() -> Vec<Chunk>);
    for (name, policy) in policies() {
        let (fast, _) = run(&policy, &app, SteppingMode::EventDriven);
        match name {
            "Pinned" | "Cuttlefish" | "Oracle" => assert!(
                fast.busy_advanced_quanta > fast.stepped_quanta,
                "{name}: compute phases must fast-forward (busy {} vs stepped {})",
                fast.busy_advanced_quanta,
                fast.stepped_quanta
            ),
            "PidUncore" => assert_eq!(
                fast.busy_advanced_quanta, 0,
                "a per-quantum PID cannot fast-forward while busy"
            ),
            _ => {}
        }
    }
}

/// A de-rated 5-core node with tighter frequency ceilings — the "one
/// slow node" hardware of the §4.6 imbalance discussion, defined
/// inline (the bench crate owns the canonical copy).
fn straggler_spec() -> MachineSpec {
    MachineSpec {
        name: "de-rated straggler (5 cores, 1.2-1.6/1.2-2.2 GHz)".to_string(),
        n_cores: 5,
        core: FreqDomain::new(Freq(12), Freq(16)),
        uncore: FreqDomain::new(Freq(12), Freq(22)),
        quantum_ns: HASWELL_2650V3.quantum_ns,
    }
}

/// An irregular fan-out DAG run work-stealing with a per-node seed:
/// failed steal sweeps advance the victim PRNG, so any dishonest skip
/// of a "parked" pull shows up as a diverged schedule — exactly what
/// the bit-identity check is for.
fn stealing_workload(node: usize, n_cores: usize) -> Box<dyn Workload> {
    let mut b = DagBuilder::default();
    let root =
        b.add_task(Chunk::new(200_000, 9_000, 3_800).with_profile(CostProfile::new(0.55, 12.0)));
    for i in 0..60 {
        let t = b.add_task(
            Chunk::new(2_000_000 + 40_000 * (i % 7), 92_000, 39_000)
                .with_profile(CostProfile::new(0.55, 12.0)),
        );
        b.add_dep(root, t);
    }
    Box::new(WorkStealingScheduler::new(
        b.build(),
        n_cores,
        0xC0FFEE ^ (node as u64) << 32,
    ))
}

#[test]
fn straggler_fleet_is_bit_identical_across_stepping_modes() {
    // A seeded 8-node fleet with one de-rated straggler: seven paper
    // machines plus the slow node, each draining an irregular
    // work-stealing DAG, then one barrier (set by the straggler) and
    // one exchange. Heterogeneous clocks and long tail waits must
    // still match lockstep bit for bit on every governor.
    let fleet = |policy: &NodePolicy| -> Vec<(MachineSpec, NodePolicy)> {
        (0..7)
            .map(|_| (HASWELL_2650V3.clone(), policy.clone()))
            .chain(std::iter::once((straggler_spec(), policy.clone())))
            .collect()
    };
    for (name, policy) in policies() {
        let mut outcomes = [SteppingMode::Lockstep, SteppingMode::EventDriven]
            .into_iter()
            .map(|mode| {
                let mut cluster = Cluster::with_nodes(fleet(&policy), CommModel::default());
                cluster.set_stepping(mode);
                let outcome = cluster
                    .run_program(&mut ReplicatedProgram::new(8, |node, n_cores| {
                        stealing_workload(node, n_cores)
                    }));
                (outcome, cluster.residency())
            });
        let slow = outcomes.next().unwrap();
        let fast = outcomes.next().unwrap();
        assert_bit_identical(&format!("{name}/straggler-fleet"), &slow, &fast);
        // The de-rated node is the straggler: everyone else waits.
        let (outcome, _) = fast;
        assert!(
            outcome.node_barrier_wait_s[7] < outcome.node_barrier_wait_s[0],
            "{name}: the straggler must wait least at the barrier"
        );
        // The fast nodes' barrier and exchange windows must actually
        // fast-forward; only the bit-identity above would survive a
        // regression to stepping them. PidUncore is exempt: its idle
        // capacity waits for an absorbing PID state that waits this
        // short never reach.
        if name != "PidUncore" {
            for (i, q) in outcome.node_quanta[..7].iter().enumerate() {
                assert!(
                    q.idle_advanced > 0,
                    "{name}: fast node {i} must idle-advance part of its wait ({q:?})"
                );
            }
        }
    }
}
