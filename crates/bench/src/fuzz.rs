//! Deterministic scenario fuzzing and differential six-governor
//! testing — the coverage story for "as many scenarios as you can
//! imagine" (ROADMAP), built from three parts:
//!
//! * **Generator** ([`generate`]): a seeded, index-addressed map from
//!   `(campaign seed, case index)` to a *valid* [`Scenario`] —
//!   synthetic phase patterns with adversarial cadences jittered
//!   around quantum- and `Tinv`-multiples, Table 1 benchmarks at tiny
//!   scales, mixed/straggler fleets, degenerate machines, all three
//!   topologies, both stepping modes. Case `i` depends only on
//!   `(seed, i)`, never on execution order, so campaigns are
//!   bit-identical across runs and shard counts.
//! * **Differential executor** ([`run_case`]): runs one scenario under
//!   every requested governor plus a static pin sweep over the
//!   fleet's frequency domains, then asserts the machine-checkable
//!   invariant catalogue (docs/FUZZING.md): no panics, finite
//!   positive measurements, energy inside the pin-sweep envelope,
//!   bounded slowdown versus the slowest pin, lockstep ≡ event-driven
//!   bit-identity, per-quantum ≡ event-driven bit-identity, and
//!   bit-identical replay from the re-serialized scenario JSON.
//! * **Shrinker** ([`shrink`]): deterministic greedy minimization of a
//!   failing scenario — drop nodes, simplify phases, shrink budgets —
//!   re-checking the caller's predicate at every step. The fixpoint
//!   is the `scenarios/regression-*.json` a fix pins forever (the
//!   `fuzz_regressions` suite replays every committed file).
//!
//! The differential idea is the paper's own claim turned into an
//! oracle: the online search must stay inside the static pin-sweep
//! envelope and near the oracle replay, on *every* reachable
//! scenario, not just the hand-written grids.

use crate::grid::straggler_spec;
use crate::json::{Json, ToJson};
use crate::scenario::{obj, Scenario, ScenarioOutcome, Topology};
use crate::HARNESS_SEED;
use cluster::SteppingMode;
use cuttlefish::controller::{NodePolicy, OracleEntry, OracleTable};
use cuttlefish::tipi::TipiSlab;
use cuttlefish::{Config, PidGains};
use simproc::freq::{Freq, FreqDomain, MachineSpec, HASWELL_2650V3, HYPOTHETICAL7};
use simproc::SimProcessor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::{ChunkPhase, ProgModel, SyntheticSpec, WorkloadSpec};

/// Report schema identifier (bump on breaking changes).
pub const SCHEMA: &str = "cuttlefish/fuzz-campaign/v1";

/// The six shipped governor names, in canonical campaign order.
pub const GOVERNOR_NAMES: [&str; 6] = [
    "default",
    "cuttlefish",
    "pinned",
    "ondemand",
    "oracle",
    "pid-uncore",
];

/// Small deterministic PRNG (PCG-ish LCG), the same recipe as the
/// engine and busy-equivalence suites, so failures reproduce from
/// their `(campaign seed, index)` pair alone.
pub struct Lcg(pub u64);

impl Lcg {
    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    /// Uniform draw in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// Instruction counts whose compute time sits a hair's breadth around
/// `k` quanta at a nominal 2.3 GHz / CPI 0.9 — the cadences most
/// likely to expose an off-by-one in a fast-forward runway bound
/// (`k = 20` is exactly one `Tinv` at the paper's 1 ms quantum).
fn boundary_instr(rng: &mut Lcg, k: u64) -> u64 {
    let per_quantum = 2_555_555u64;
    let jitter = rng.range(0, 2_000) as i64 - 1_000;
    (per_quantum * k).saturating_add_signed(jitter)
}

/// One machine draw: mostly the paper Haswell, sometimes the 7-level
/// hypothetical, the de-rated straggler, or a degenerate machine
/// (1–2 cores, narrow or single-point frequency domains). All share
/// the paper's 1 ms quantum, as cluster validation requires.
fn gen_machine(rng: &mut Lcg) -> MachineSpec {
    match rng.next_u64() % 8 {
        0..=3 => HASWELL_2650V3.clone(),
        4..=5 => HYPOTHETICAL7.clone(),
        6 => straggler_spec(),
        _ => {
            let n_cores = rng.range(1, 2) as usize;
            let cf_lo = rng.range(10, 20) as u32;
            let cf_hi = cf_lo + rng.range(0, 3) as u32;
            let uf_lo = rng.range(10, 24) as u32;
            let uf_hi = uf_lo + rng.range(0, 4) as u32;
            MachineSpec {
                name: format!("degenerate-{n_cores}c-core{cf_lo}-{cf_hi}-uncore{uf_lo}-{uf_hi}"),
                n_cores,
                core: FreqDomain::new(Freq(cf_lo), Freq(cf_hi)),
                uncore: FreqDomain::new(Freq(uf_lo), Freq(uf_hi)),
                quantum_ns: HASWELL_2650V3.quantum_ns,
            }
        }
    }
}

/// A synthetic phase pattern: 1–4 phases mixing sub-quantum churn,
/// quantum-boundary cadences, and `Tinv`-boundary cadences, each
/// either memory-ish (high MLP, heavy misses) or compute-ish.
fn gen_synthetic(rng: &mut Lcg, endless: bool) -> SyntheticSpec {
    let n_phases = rng.range(1, 4) as usize;
    let mut phases = Vec::new();
    for _ in 0..n_phases {
        let memoryish = rng.next_u64().is_multiple_of(2);
        let instructions = match rng.next_u64() % 3 {
            0 => rng.range(100_000, 2_000_000),
            1 => {
                let k = rng.range(1, 5);
                boundary_instr(rng, k)
            }
            _ => boundary_instr(rng, 20),
        };
        let (misses_local, misses_remote, cpi, mlp) = if memoryish {
            (56_000, 8_000, 0.55, 12.0)
        } else {
            (rng.range(0, 2_000), 0, 0.9, 4.0)
        };
        phases.push(ChunkPhase {
            chunks: rng.range(1, 6),
            instructions,
            misses_local,
            misses_remote,
            cpi,
            mlp,
        });
    }
    SyntheticSpec {
        phases,
        total_chunks: if endless {
            None
        } else {
            Some(rng.range(30, 150))
        },
    }
}

/// Table 1 benchmarks cheap enough to fuzz (tiny scales); the BSP
/// topology is restricted to the work-sharing subset its validation
/// demands.
const FUZZ_BENCHES: [&str; 4] = ["UTS", "SOR-ws", "Heat-ws", "HPCCG"];
const FUZZ_WS_BENCHES: [&str; 3] = ["SOR-ws", "Heat-ws", "HPCCG"];

fn gen_bench(rng: &mut Lcg, ws_only: bool) -> WorkloadSpec {
    let name = if ws_only {
        FUZZ_WS_BENCHES[(rng.next_u64() % FUZZ_WS_BENCHES.len() as u64) as usize]
    } else {
        FUZZ_BENCHES[(rng.next_u64() % FUZZ_BENCHES.len() as u64) as usize]
    };
    let model = if name.ends_with("-ws") || rng.chance(70) {
        ProgModel::OpenMp
    } else {
        ProgModel::HClib
    };
    WorkloadSpec::Bench {
        name: name.to_string(),
        model,
        scale: rng.range(10, 20) as f64 / 1000.0,
    }
}

/// Workload seed: mostly harness repetition seeds (store-addressable),
/// sometimes an arbitrary seed below 2^53 — those cases double as
/// coverage for the grid path's submit-time refusal diagnostics.
fn gen_seed(rng: &mut Lcg) -> u64 {
    match rng.next_u64() % 8 {
        0..=5 => HARNESS_SEED ^ ((rng.next_u64() % 4) << 32),
        6 => HARNESS_SEED,
        _ => rng.range(1, 1 << 40),
    }
}

/// Deterministically generate case `index` of campaign `campaign_seed`.
///
/// The returned scenario always passes [`Scenario::validate`] and
/// round-trips byte-identically through the JSON codec (both enforced
/// by the generator-validity suite). Each node's policy is
/// [`NodePolicy::Default`] — the differential executor substitutes
/// every governor under test.
pub fn generate(campaign_seed: u64, index: u64) -> Scenario {
    let mut rng = Lcg(campaign_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Warm the LCG so structurally similar seeds decorrelate.
    rng.next_u64();
    rng.next_u64();

    let label = format!("fuzz-{index}");
    let topo = rng.next_u64() % 8;
    if topo <= 3 {
        // Single node: the only topology allowing traces, duration
        // caps, and endless streams (capped).
        let machine = gen_machine(&mut rng);
        let mut duration_s = None;
        let workload = if rng.chance(80) {
            let endless = rng.chance(20);
            let spec = gen_synthetic(&mut rng, endless);
            if endless || rng.chance(10) {
                duration_s = Some(rng.range(2, 8) as f64 / 10.0);
            }
            WorkloadSpec::Synthetic(spec)
        } else {
            gen_bench(&mut rng, false)
        };
        let trace = rng.chance(15);
        Scenario {
            label,
            workload,
            nodes: vec![(machine, NodePolicy::Default)],
            topology: Topology::SingleNode,
            seed: gen_seed(&mut rng),
            duration_s,
            trace,
            stepping: SteppingMode::default(),
        }
    } else if topo <= 5 {
        // Replicated: 2–3 independent (possibly mixed) nodes meeting
        // at one final barrier. Streams must be bounded.
        let n = rng.range(2, 3) as usize;
        let nodes = (0..n)
            .map(|_| (gen_machine(&mut rng), NodePolicy::Default))
            .collect();
        let workload = if rng.chance(80) {
            WorkloadSpec::Synthetic(gen_synthetic(&mut rng, false))
        } else {
            gen_bench(&mut rng, false)
        };
        Scenario {
            label,
            workload,
            nodes,
            topology: Topology::Replicated,
            seed: gen_seed(&mut rng),
            duration_s: None,
            trace: false,
            stepping: gen_stepping(&mut rng),
        }
    } else {
        // BSP strong scaling: 2–4 nodes, a handful of supersteps,
        // optional exchange bytes, optional synthetic-only weights.
        let n = rng.range(2, 4) as usize;
        let nodes: Vec<_> = (0..n)
            .map(|_| (gen_machine(&mut rng), NodePolicy::Default))
            .collect();
        let supersteps = rng.range(2, 6) as u32;
        let comm_bytes = match rng.next_u64() % 3 {
            0 => 0.0,
            _ => rng.range(1, 32) as f64 * 1.0e6,
        };
        let (workload, weights) = if rng.chance(80) {
            let endless = rng.chance(25);
            let spec = gen_synthetic(&mut rng, endless);
            let weights = if rng.chance(30) {
                (0..n).map(|_| rng.range(1, 3) as u32).collect()
            } else {
                vec![]
            };
            (WorkloadSpec::Synthetic(spec), weights)
        } else {
            (gen_bench(&mut rng, true), vec![])
        };
        Scenario {
            label,
            workload,
            nodes,
            topology: Topology::Bsp {
                supersteps,
                comm_bytes,
                weights,
            },
            seed: gen_seed(&mut rng),
            duration_s: None,
            trace: false,
            stepping: gen_stepping(&mut rng),
        }
    }
}

fn gen_stepping(rng: &mut Lcg) -> SteppingMode {
    if rng.chance(25) {
        SteppingMode::Lockstep
    } else {
        SteppingMode::default()
    }
}

// ---------------------------------------------------------------------------
// Fingerprints and execution
// ---------------------------------------------------------------------------

/// Bit-level fingerprint of one run: the mode-invariant observation
/// surface the cluster equivalence suite gates on (seconds, joules,
/// instructions, total virtual quanta, operating-point residency).
/// The stepped/idle/busy *split* is deliberately excluded — the
/// stepping modes differ there by design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFingerprint {
    /// `f64::to_bits` of virtual wall seconds.
    pub seconds_bits: u64,
    /// `f64::to_bits` of total joules.
    pub joules_bits: u64,
    /// `f64::to_bits` of instructions retired.
    pub instructions_bits: u64,
    /// Total virtual quanta elapsed (summed over nodes).
    pub total_quanta: u64,
    /// FNV-1a digest over the ascending residency map.
    pub residency_digest: u64,
}

impl RunFingerprint {
    /// Wall seconds as a float.
    pub fn seconds(&self) -> f64 {
        f64::from_bits(self.seconds_bits)
    }

    /// Joules as a float.
    pub fn joules(&self) -> f64 {
        f64::from_bits(self.joules_bits)
    }

    /// Instructions as a float.
    pub fn instructions(&self) -> f64 {
        f64::from_bits(self.instructions_bits)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn residency_digest<'a, I: Iterator<Item = (&'a (u32, u32), &'a u64)>>(iter: I) -> u64 {
    let mut h = FNV_OFFSET;
    for (&(cf, uf), &ns) in iter {
        h = fnv_mix(h, cf as u64);
        h = fnv_mix(h, uf as u64);
        h = fnv_mix(h, ns);
    }
    h
}

/// Fingerprint a finished scenario outcome.
pub fn fingerprint(outcome: &ScenarioOutcome) -> RunFingerprint {
    match outcome {
        ScenarioOutcome::Single(r) => RunFingerprint {
            seconds_bits: r.seconds.to_bits(),
            joules_bits: r.joules.to_bits(),
            instructions_bits: r.instructions.to_bits(),
            total_quanta: r.total_quanta,
            residency_digest: residency_digest(r.residency.iter().map(|(k, v)| (k, v))),
        },
        ScenarioOutcome::Cluster(c) => RunFingerprint {
            seconds_bits: c.outcome.seconds.to_bits(),
            joules_bits: c.outcome.joules.to_bits(),
            instructions_bits: c.outcome.instructions.to_bits(),
            total_quanta: c.outcome.total_quanta,
            residency_digest: residency_digest(c.residency.iter()),
        },
    }
}

/// Fingerprint a single-node processor after manual driving — the
/// per-quantum reference twin and the broken-controller tests share
/// this so the comparison surface is identical on both sides.
pub fn proc_fingerprint(proc: &SimProcessor, start_t: u64, start_e: f64) -> RunFingerprint {
    RunFingerprint {
        seconds_bits: (((proc.now_ns() - start_t) as f64) * 1e-9).to_bits(),
        joules_bits: (proc.total_energy_joules() - start_e).to_bits(),
        instructions_bits: proc.total_instructions().to_bits(),
        total_quanta: proc.total_quanta(),
        residency_digest: residency_digest(proc.frequency_residency().iter()),
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run a scenario to completion, converting any panic in the engine,
/// workload, or controller into an `Err` (the no-panic oracle).
pub fn execute(scenario: &Scenario) -> Result<RunFingerprint, String> {
    let s = scenario.clone();
    catch_unwind(AssertUnwindSafe(move || fingerprint(&s.run()))).map_err(panic_text)
}

/// Per-quantum reference twin for bounded single-node scenarios: the
/// plain `step`/`on_quantum` loop with no fast-forwards, which the
/// event-driven path must match bit for bit.
pub fn stepped_fingerprint(scenario: &Scenario) -> Result<RunFingerprint, String> {
    let s = scenario.clone();
    catch_unwind(AssertUnwindSafe(move || {
        let (mut proc, mut wl, mut ctrl) = s.build_single_node();
        let start_e = proc.total_energy_joules();
        let start_t = proc.now_ns();
        while !proc.workload_drained(wl.as_mut()) {
            proc.step(wl.as_mut());
            ctrl.on_quantum(&mut proc);
        }
        proc_fingerprint(&proc, start_t, start_e)
    }))
    .map_err(panic_text)
}

/// The scenario with every node's policy replaced and the label reset
/// — how the differential executor derives governor variants from one
/// generated base.
pub fn with_policy(base: &Scenario, policy: &NodePolicy, label: &str) -> Scenario {
    let mut s = base.clone();
    s.label = label.to_string();
    for node in &mut s.nodes {
        node.1 = policy.clone();
    }
    s
}

fn with_stepping(base: &Scenario, stepping: SteppingMode) -> Scenario {
    let mut s = base.clone();
    s.stepping = stepping;
    s
}

// ---------------------------------------------------------------------------
// Governors
// ---------------------------------------------------------------------------

/// The canonical differential instance of a governor by name (the
/// same six instances the equivalence suites pin): `Pinned` at the
/// paper's 1.4/2.4 GHz point and `Oracle` with the two-slab
/// memory/compute table — both clamped per node to each machine's
/// domain by the engine, so one instance serves heterogeneous fleets.
pub fn governor_policy(name: &str) -> Option<NodePolicy> {
    match name {
        "default" => Some(NodePolicy::Default),
        "cuttlefish" => Some(NodePolicy::Cuttlefish(Config::default())),
        "pinned" => Some(NodePolicy::Pinned {
            cf: Freq(14),
            uf: Freq(24),
        }),
        "ondemand" => Some(NodePolicy::Ondemand),
        "oracle" => Some(NodePolicy::Oracle(OracleTable {
            slab_width: 0.004,
            tinv_ns: 20_000_000,
            entries: vec![
                OracleEntry {
                    slab: TipiSlab(0),
                    cf: Freq(23),
                    uf: Freq(12),
                },
                OracleEntry {
                    slab: TipiSlab(16),
                    cf: Freq(12),
                    uf: Freq(22),
                },
            ],
        })),
        "pid-uncore" => Some(NodePolicy::PidUncore {
            config: Config::default(),
            gains: PidGains::default(),
        }),
        _ => None,
    }
}

/// All six governor names as owned strings (campaign default).
pub fn all_governors() -> Vec<String> {
    GOVERNOR_NAMES.iter().map(|s| s.to_string()).collect()
}

/// Parse a `--governors` comma list, validating every name.
pub fn parse_governors(arg: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = arg
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err("empty governor list".into());
    }
    for n in &names {
        if governor_policy(n).is_none() {
            return Err(format!(
                "unknown governor `{n}` (known: {})",
                GOVERNOR_NAMES.join(", ")
            ));
        }
    }
    Ok(names)
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

/// One invariant violation: which oracle fired, under which governor
/// variant, and the human-readable evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Invariant identifier (see docs/FUZZING.md catalogue).
    pub invariant: &'static str,
    /// Governor variant (or `pin-cf-uf` / `-` for non-governor runs).
    pub governor: String,
    /// Evidence.
    pub detail: String,
}

/// Invariant tolerances. The envelope and slowdown bands are relative
/// headroom on top of measured pin-sweep extremes: the pin grid
/// samples 3×3 points of a discrete 2-D frequency space, so a
/// governor settling between grid points can legitimately sit
/// slightly outside the sampled extremes.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Relative headroom below the pin-sweep energy minimum.
    pub envelope_below: f64,
    /// Relative headroom above the pin-sweep energy maximum.
    pub envelope_above: f64,
    /// Relative headroom above the slowest bound for the slowdown
    /// check.
    pub slowdown_headroom: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            envelope_below: 0.15,
            envelope_above: 0.10,
            slowdown_headroom: 0.10,
        }
    }
}

/// The static pin-sweep envelope: energy and time extremes over a
/// 3×3 grid of pinned operating points spanning the fleet's combined
/// frequency domains.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The pinned points swept (deci-GHz, deduped).
    pub points: Vec<(u32, u32)>,
    /// Minimum joules over the sweep.
    pub min_joules: f64,
    /// Maximum joules over the sweep.
    pub max_joules: f64,
    /// Minimum seconds over the sweep.
    pub min_seconds: f64,
    /// Maximum seconds over the sweep.
    pub max_seconds: f64,
}

/// The 3×3 pin grid spanning the fleet: `{lo, mid, hi}` per domain,
/// where `lo`/`hi` are the min/max over every node's domain (each
/// node clamps to its own hardware, so shared points are valid on
/// mixed fleets). Deduped, ascending.
pub fn fleet_pin_grid(scenario: &Scenario) -> Vec<(u32, u32)> {
    let cf_lo = scenario
        .nodes
        .iter()
        .map(|(m, _)| m.core.min().0)
        .min()
        .unwrap_or(12);
    let cf_hi = scenario
        .nodes
        .iter()
        .map(|(m, _)| m.core.max().0)
        .max()
        .unwrap_or(23);
    let uf_lo = scenario
        .nodes
        .iter()
        .map(|(m, _)| m.uncore.min().0)
        .min()
        .unwrap_or(12);
    let uf_hi = scenario
        .nodes
        .iter()
        .map(|(m, _)| m.uncore.max().0)
        .max()
        .unwrap_or(30);
    let axis = |lo: u32, hi: u32| {
        let mut v = vec![lo, (lo + hi) / 2, hi];
        v.dedup();
        v
    };
    let mut points = Vec::new();
    for &cf in &axis(cf_lo, cf_hi) {
        for &uf in &axis(uf_lo, uf_hi) {
            if !points.contains(&(cf, uf)) {
                points.push((cf, uf));
            }
        }
    }
    points
}

/// Run the pin sweep and build the envelope. Each pin that panics is
/// reported as a violation; the envelope is only produced when every
/// pin completes (a partial envelope would under-approximate).
pub fn pin_envelope(scenario: &Scenario) -> (Option<Envelope>, Vec<Violation>) {
    let points = fleet_pin_grid(scenario);
    let mut violations = Vec::new();
    let mut runs = Vec::new();
    for &(cf, uf) in &points {
        let pin = with_policy(
            scenario,
            &NodePolicy::Pinned {
                cf: Freq(cf),
                uf: Freq(uf),
            },
            &format!("pin-{cf}-{uf}"),
        );
        match execute(&pin) {
            Ok(fp) => runs.push(fp),
            Err(e) => violations.push(Violation {
                invariant: "panic",
                governor: format!("pin-{cf}-{uf}"),
                detail: e,
            }),
        }
    }
    if runs.len() != points.len() {
        return (None, violations);
    }
    let fold = |f: fn(f64, f64) -> f64, init: f64, get: fn(&RunFingerprint) -> f64| {
        runs.iter().map(get).fold(init, f)
    };
    let env = Envelope {
        points,
        min_joules: fold(f64::min, f64::INFINITY, RunFingerprint::joules),
        max_joules: fold(f64::max, f64::NEG_INFINITY, RunFingerprint::joules),
        min_seconds: fold(f64::min, f64::INFINITY, RunFingerprint::seconds),
        max_seconds: fold(f64::max, f64::NEG_INFINITY, RunFingerprint::seconds),
    };
    (Some(env), violations)
}

/// Finiteness oracle: seconds/joules/instructions must be finite,
/// time strictly positive, energy and instructions non-negative.
pub fn check_finite(governor: &str, fp: &RunFingerprint) -> Option<Violation> {
    let (s, j, i) = (fp.seconds(), fp.joules(), fp.instructions());
    if !s.is_finite() || !j.is_finite() || !i.is_finite() {
        return Some(Violation {
            invariant: "finite",
            governor: governor.to_string(),
            detail: format!("non-finite measurement: seconds {s}, joules {j}, instructions {i}"),
        });
    }
    if s <= 0.0 || j < 0.0 || i < 0.0 {
        return Some(Violation {
            invariant: "finite",
            governor: governor.to_string(),
            detail: format!("non-positive measurement: seconds {s}, joules {j}, instructions {i}"),
        });
    }
    None
}

/// Envelope oracle: a governor's energy must sit inside the pin-sweep
/// envelope (with tolerance) — no dynamic policy can beat every
/// static point by a wide margin, nor burn more than the worst pin.
pub fn check_envelope(
    governor: &str,
    fp: &RunFingerprint,
    env: &Envelope,
    tol: &Tolerances,
) -> Option<Violation> {
    let j = fp.joules();
    let lo = env.min_joules * (1.0 - tol.envelope_below);
    let hi = env.max_joules * (1.0 + tol.envelope_above);
    if j < lo || j > hi {
        return Some(Violation {
            invariant: "energy-envelope",
            governor: governor.to_string(),
            detail: format!(
                "joules {j:.6} outside pin-sweep envelope [{lo:.6}, {hi:.6}] \
                 (sweep min {:.6}, max {:.6})",
                env.min_joules, env.max_joules
            ),
        });
    }
    None
}

/// Slowdown oracle: no governor may run meaningfully slower than the
/// slowest static pin (frequency floors bound execution time in the
/// simulator), nor slower than `Default` would allow given that
/// bound.
pub fn check_slowdown(
    governor: &str,
    fp: &RunFingerprint,
    default_seconds: f64,
    env: Option<&Envelope>,
    tol: &Tolerances,
) -> Option<Violation> {
    let base = match env {
        Some(e) => e.max_seconds.max(default_seconds),
        // Without an envelope the only anchor is Default; allow a
        // loose multiple (lowest-pin vs highest-pin spreads stay well
        // under this in the model).
        None => default_seconds * 4.0,
    };
    let bound = base * (1.0 + tol.slowdown_headroom);
    let s = fp.seconds();
    if s > bound {
        return Some(Violation {
            invariant: "slowdown",
            governor: governor.to_string(),
            detail: format!(
                "seconds {s:.6} exceeds bound {bound:.6} (default {default_seconds:.6})"
            ),
        });
    }
    None
}

// ---------------------------------------------------------------------------
// Differential executor
// ---------------------------------------------------------------------------

/// One governor's completed run within a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GovernorRun {
    /// Governor name.
    pub governor: String,
    /// Fingerprint of the run.
    pub fp: RunFingerprint,
}

/// The full differential record of one fuzz case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case index within the campaign.
    pub index: u64,
    /// The generated base scenario (policies all `Default`).
    pub scenario: Scenario,
    /// The pin-sweep envelope (absent if a pin panicked).
    pub envelope: Option<Envelope>,
    /// Completed governor runs.
    pub runs: Vec<GovernorRun>,
    /// Invariant violations, in detection order.
    pub violations: Vec<Violation>,
}

impl CaseOutcome {
    /// True when every invariant held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Whether the per-quantum stepped twin applies: bounded single-node
/// scenarios only (the duration-cap loop has its own budgeted
/// stepping, and cluster scenarios are covered by the lockstep twin).
fn stepped_twin_applies(s: &Scenario) -> bool {
    s.nodes.len() == 1 && s.duration_s.is_none() && matches!(s.topology, Topology::SingleNode)
}

/// Run one scenario differentially under `governors` and assert the
/// invariant catalogue. The stepping-equivalence and replay oracles
/// rotate through the governor list by case index (one governor per
/// case each), bounding per-case cost while the campaign still covers
/// every `(oracle, governor)` pair.
pub fn run_case(
    index: u64,
    scenario: &Scenario,
    governors: &[String],
    tol: &Tolerances,
) -> CaseOutcome {
    let mut violations = Vec::new();

    // Codec oracle: the base scenario must survive serialize → parse
    // → re-serialize byte-identically.
    let json = scenario.to_json_string();
    match Scenario::from_json_str(&json) {
        Ok(parsed) => {
            if parsed != *scenario || parsed.to_json_string() != json {
                violations.push(Violation {
                    invariant: "codec",
                    governor: "-".to_string(),
                    detail: "scenario JSON round-trip is not the identity".to_string(),
                });
            }
        }
        Err(e) => violations.push(Violation {
            invariant: "codec",
            governor: "-".to_string(),
            detail: format!("serialized scenario failed to parse: {e}"),
        }),
    }

    // Static envelope.
    let (envelope, pin_violations) = pin_envelope(scenario);
    violations.extend(pin_violations);

    // Governor runs.
    let rotor = if governors.is_empty() {
        usize::MAX
    } else {
        (index % governors.len() as u64) as usize
    };
    let mut runs: Vec<GovernorRun> = Vec::new();
    for (g_idx, name) in governors.iter().enumerate() {
        let policy = governor_policy(name)
            .unwrap_or_else(|| panic!("unknown governor `{name}` reached run_case"));
        let variant = with_policy(scenario, &policy, name);
        let fp = match execute(&variant) {
            Ok(fp) => fp,
            Err(e) => {
                violations.push(Violation {
                    invariant: "panic",
                    governor: name.clone(),
                    detail: e,
                });
                continue;
            }
        };
        if let Some(v) = check_finite(name, &fp) {
            violations.push(v);
        }
        if let Some(env) = &envelope {
            if let Some(v) = check_envelope(name, &fp, env, tol) {
                violations.push(v);
            }
        }

        // Stepping-equivalence oracle (rotating governor): clusters
        // compare lockstep vs event-driven; bounded single-node cases
        // compare the plain per-quantum loop vs the event-driven one.
        if g_idx == rotor {
            if variant.nodes.len() > 1 {
                let other = match variant.stepping {
                    SteppingMode::Lockstep => SteppingMode::EventDriven,
                    _ => SteppingMode::Lockstep,
                };
                match execute(&with_stepping(&variant, other)) {
                    Ok(twin) if twin != fp => violations.push(Violation {
                        invariant: "stepping-equivalence",
                        governor: name.clone(),
                        detail: format!(
                            "lockstep and event-driven runs diverge: \
                             {fp:?} vs {twin:?}"
                        ),
                    }),
                    Ok(_) => {}
                    Err(e) => violations.push(Violation {
                        invariant: "panic",
                        governor: format!("{name} (stepping twin)"),
                        detail: e,
                    }),
                }
            } else if stepped_twin_applies(&variant) {
                match stepped_fingerprint(&variant) {
                    Ok(twin) if twin != fp => violations.push(Violation {
                        invariant: "stepping-equivalence",
                        governor: name.clone(),
                        detail: format!(
                            "per-quantum and event-driven runs diverge: \
                             {fp:?} vs {twin:?}"
                        ),
                    }),
                    Ok(_) => {}
                    Err(e) => violations.push(Violation {
                        invariant: "panic",
                        governor: format!("{name} (stepped twin)"),
                        detail: e,
                    }),
                }
            }

            // Replay oracle (same rotation): parse the re-serialized
            // variant and re-run — bits must match.
            match Scenario::from_json_str(&variant.to_json_string()) {
                Ok(replayed) => match execute(&replayed) {
                    Ok(fp2) if fp2 != fp => violations.push(Violation {
                        invariant: "replay",
                        governor: name.clone(),
                        detail: format!(
                            "re-serialized scenario replays differently: \
                             {fp:?} vs {fp2:?}"
                        ),
                    }),
                    Ok(_) => {}
                    Err(e) => violations.push(Violation {
                        invariant: "panic",
                        governor: format!("{name} (replay)"),
                        detail: e,
                    }),
                },
                Err(e) => violations.push(Violation {
                    invariant: "codec",
                    governor: name.clone(),
                    detail: format!("governor variant failed to re-parse: {e}"),
                }),
            }
        }

        runs.push(GovernorRun {
            governor: name.clone(),
            fp,
        });
    }

    // Slowdown oracle needs the Default anchor.
    if let Some(default_run) = runs.iter().find(|r| r.governor == "default") {
        let default_seconds = default_run.fp.seconds();
        for run in &runs {
            if run.governor == "default" {
                continue;
            }
            if let Some(v) = check_slowdown(
                &run.governor,
                &run.fp,
                default_seconds,
                envelope.as_ref(),
                tol,
            ) {
                violations.push(v);
            }
        }
    }

    CaseOutcome {
        index,
        scenario: scenario.clone(),
        envelope,
        runs,
        violations,
    }
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed (`--seed`).
    pub seed: u64,
    /// Number of cases to generate (`--cases`).
    pub cases: u64,
    /// Governors under test (`--governors`).
    pub governors: Vec<String>,
    /// Worker threads (`--shards`) — affects wall-clock only, never
    /// the report bytes.
    pub shards: usize,
    /// Invariant tolerances.
    pub tol: Tolerances,
}

/// A finished campaign: every case outcome in index order.
#[derive(Debug)]
pub struct Campaign {
    /// The configuration that produced it.
    pub config: CampaignConfig,
    /// Case outcomes, index order.
    pub outcomes: Vec<CaseOutcome>,
}

impl Campaign {
    /// Total violation count across all cases.
    pub fn violation_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Deterministic JSON campaign report (identical bytes for any
    /// shard count; no timestamps or wall-clock content).
    pub fn to_json(&self) -> Json {
        let cases: Vec<Json> = self.outcomes.iter().map(case_json).collect();
        obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("seed", Json::Num(self.config.seed as f64)),
            ("cases", Json::Num(self.config.cases as f64)),
            (
                "governors",
                Json::Arr(
                    self.config
                        .governors
                        .iter()
                        .map(|g| Json::Str(g.clone()))
                        .collect(),
                ),
            ),
            ("violations", Json::Num(self.violation_count() as f64)),
            ("results", Json::Arr(cases)),
        ])
    }

    /// Pretty-printed report.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }
}

/// The JSON emitter asserts finiteness; a NaN that slipped through a
/// violation record must still be reportable.
fn num_or_str(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Str(format!("{v}"))
    }
}

fn case_json(case: &CaseOutcome) -> Json {
    let s = &case.scenario;
    let topology = match &s.topology {
        Topology::SingleNode => "single-node",
        Topology::Replicated => "replicated",
        Topology::Bsp { .. } => "bsp",
    };
    let runs: Vec<Json> = case
        .runs
        .iter()
        .map(|r| {
            obj(vec![
                ("governor", Json::Str(r.governor.clone())),
                ("seconds", num_or_str(r.fp.seconds())),
                ("joules", num_or_str(r.fp.joules())),
                ("instructions", num_or_str(r.fp.instructions())),
                ("total_quanta", Json::Num(r.fp.total_quanta as f64)),
            ])
        })
        .collect();
    let violations: Vec<Json> = case
        .violations
        .iter()
        .map(|v| {
            obj(vec![
                ("invariant", Json::Str(v.invariant.to_string())),
                ("governor", Json::Str(v.governor.clone())),
                ("detail", Json::Str(v.detail.clone())),
            ])
        })
        .collect();
    let mut fields = vec![
        ("index", Json::Num(case.index as f64)),
        ("label", Json::Str(s.label.clone())),
        ("workload", Json::Str(s.workload.name())),
        ("topology", Json::Str(topology.to_string())),
        ("nodes", Json::Num(s.nodes.len() as f64)),
        ("stepping", Json::Str(s.stepping.as_str().into())),
        ("scenario_seed", Json::Num(s.seed as f64)),
        ("runs", Json::Arr(runs)),
        ("violations", Json::Arr(violations)),
    ];
    // Embed the full scenario only for violating cases — that is the
    // reproducer a triager needs, and clean cases stay compact.
    if !case.violations.is_empty() {
        fields.push(("scenario", s.to_json()));
    }
    obj(fields)
}

/// Run a campaign across `config.shards` worker threads. Case `i` is
/// fully determined by `(seed, i)` and results are reassembled in
/// index order, so the outcome vector — and therefore the report —
/// is bit-identical for any shard count.
pub fn run_campaign(config: &CampaignConfig) -> Campaign {
    let indices: Vec<u64> = (0..config.cases).collect();
    Campaign {
        config: config.clone(),
        outcomes: crate::par_map(&indices, config.shards, |&i| {
            run_case(i, &generate(config.seed, i), &config.governors, &config.tol)
        }),
    }
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// All one-step simplifications of a scenario, in fixed priority
/// order (structure before magnitude), pre-filtered to valid
/// scenarios. Deterministic: no randomness, no clocks.
pub fn shrink_candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = Vec::new();
    let mut push = |c: Scenario| {
        if c != *s && c.validate().is_ok() && !out.contains(&c) {
            out.push(c);
        }
    };

    // Drop one node at a time.
    if s.nodes.len() > 1 {
        for i in 0..s.nodes.len() {
            let mut c = s.clone();
            c.nodes.remove(i);
            if let Topology::Bsp { weights, .. } = &mut c.topology {
                if !weights.is_empty() {
                    weights.remove(i);
                }
            }
            push(c);
        }
    }
    // Simplify topology: weights off, BSP → Replicated, one-node
    // cluster → SingleNode.
    if let Topology::Bsp { weights, .. } = &s.topology {
        if !weights.is_empty() {
            let mut c = s.clone();
            if let Topology::Bsp { weights, .. } = &mut c.topology {
                weights.clear();
            }
            push(c);
        }
        let mut c = s.clone();
        c.topology = Topology::Replicated;
        push(c);
    }
    if s.nodes.len() == 1 && !matches!(s.topology, Topology::SingleNode) {
        let mut c = s.clone();
        c.topology = Topology::SingleNode;
        push(c);
    }
    // Non-default stepping back to default.
    if s.stepping != SteppingMode::default() {
        let mut c = s.clone();
        c.stepping = SteppingMode::default();
        push(c);
    }
    // Trace off, duration off or halved, seed canonical.
    if s.trace {
        let mut c = s.clone();
        c.trace = false;
        push(c);
    }
    if let Some(d) = s.duration_s {
        let mut c = s.clone();
        c.duration_s = None;
        push(c);
        if d > 0.05 {
            let mut c = s.clone();
            c.duration_s = Some(d / 2.0);
            push(c);
        }
    }
    if s.seed != HARNESS_SEED {
        let mut c = s.clone();
        c.seed = HARNESS_SEED;
        push(c);
    }
    // BSP magnitude shrinks.
    if let Topology::Bsp {
        supersteps,
        comm_bytes,
        ..
    } = &s.topology
    {
        if *supersteps > 1 {
            let mut c = s.clone();
            if let Topology::Bsp { supersteps, .. } = &mut c.topology {
                *supersteps /= 2;
                *supersteps = (*supersteps).max(1);
            }
            push(c);
        }
        if *comm_bytes > 0.0 {
            let mut c = s.clone();
            if let Topology::Bsp { comm_bytes, .. } = &mut c.topology {
                *comm_bytes = 0.0;
            }
            push(c);
        }
    }
    // Workload shrinks.
    match &s.workload {
        WorkloadSpec::Synthetic(spec) => {
            if spec.phases.len() > 1 {
                for i in 0..spec.phases.len() {
                    let mut c = s.clone();
                    if let WorkloadSpec::Synthetic(spec) = &mut c.workload {
                        spec.phases.remove(i);
                    }
                    push(c);
                }
            }
            if let Some(t) = spec.total_chunks {
                if t > 1 {
                    let mut c = s.clone();
                    if let WorkloadSpec::Synthetic(spec) = &mut c.workload {
                        spec.total_chunks = Some((t / 2).max(1));
                    }
                    push(c);
                }
            }
            for i in 0..spec.phases.len() {
                let p = &spec.phases[i];
                if p.instructions > 1_000 {
                    let mut c = s.clone();
                    if let WorkloadSpec::Synthetic(spec) = &mut c.workload {
                        spec.phases[i].instructions /= 2;
                    }
                    push(c);
                }
                if p.chunks > 1 {
                    let mut c = s.clone();
                    if let WorkloadSpec::Synthetic(spec) = &mut c.workload {
                        spec.phases[i].chunks /= 2;
                    }
                    push(c);
                }
                if p.misses_local > 0 || p.misses_remote > 0 {
                    let mut c = s.clone();
                    if let WorkloadSpec::Synthetic(spec) = &mut c.workload {
                        spec.phases[i].misses_local /= 2;
                        spec.phases[i].misses_remote /= 2;
                    }
                    push(c);
                }
            }
        }
        WorkloadSpec::Bench { scale, .. } => {
            if *scale > 0.002 {
                let mut c = s.clone();
                if let WorkloadSpec::Bench { scale, .. } = &mut c.workload {
                    *scale /= 2.0;
                }
                push(c);
            }
        }
    }
    out
}

/// Greedily shrink `scenario` while `still_failing` keeps returning
/// true, taking the first accepted candidate each round (first-
/// improvement), to a fixpoint where no single-step candidate still
/// fails. Deterministic for a deterministic predicate. The step cap
/// is a runaway backstop, far above any real shrink sequence.
pub fn shrink(scenario: &Scenario, still_failing: &mut dyn FnMut(&Scenario) -> bool) -> Scenario {
    let mut current = scenario.clone();
    for _ in 0..500 {
        let Some(next) = shrink_candidates(&current)
            .into_iter()
            .find(|c| still_failing(c))
        else {
            break;
        };
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg(42);
        let mut b = Lcg(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn finite_oracle_fires_on_nan_joules() {
        let fp = RunFingerprint {
            seconds_bits: 1.0f64.to_bits(),
            joules_bits: f64::NAN.to_bits(),
            instructions_bits: 1.0f64.to_bits(),
            total_quanta: 1,
            residency_digest: 0,
        };
        let v = check_finite("broken", &fp).expect("NaN joules must fire");
        assert_eq!(v.invariant, "finite");
        assert!(v.detail.contains("NaN"), "{}", v.detail);
    }

    #[test]
    fn finite_oracle_fires_on_infinite_seconds_and_negative_energy() {
        let mut fp = RunFingerprint {
            seconds_bits: f64::INFINITY.to_bits(),
            joules_bits: 1.0f64.to_bits(),
            instructions_bits: 1.0f64.to_bits(),
            total_quanta: 1,
            residency_digest: 0,
        };
        assert!(check_finite("broken", &fp).is_some());
        fp.seconds_bits = 1.0f64.to_bits();
        fp.joules_bits = (-1.0f64).to_bits();
        assert!(check_finite("broken", &fp).is_some());
        fp.joules_bits = 1.0f64.to_bits();
        assert!(check_finite("ok", &fp).is_none());
    }

    #[test]
    fn envelope_oracle_fires_outside_the_band() {
        let env = Envelope {
            points: vec![(12, 12)],
            min_joules: 100.0,
            max_joules: 200.0,
            min_seconds: 1.0,
            max_seconds: 2.0,
        };
        let tol = Tolerances::default();
        let fp = |j: f64| RunFingerprint {
            seconds_bits: 1.0f64.to_bits(),
            joules_bits: j.to_bits(),
            instructions_bits: 1.0f64.to_bits(),
            total_quanta: 1,
            residency_digest: 0,
        };
        assert!(check_envelope("g", &fp(50.0), &env, &tol).is_some());
        assert!(check_envelope("g", &fp(500.0), &env, &tol).is_some());
        assert!(check_envelope("g", &fp(150.0), &env, &tol).is_none());
        // Tolerance edges are inside the band.
        assert!(check_envelope("g", &fp(100.0 * 0.86), &env, &tol).is_none());
        assert!(check_envelope("g", &fp(200.0 * 1.09), &env, &tol).is_none());
    }

    #[test]
    fn slowdown_oracle_fires_past_the_bound() {
        let env = Envelope {
            points: vec![(12, 12)],
            min_joules: 1.0,
            max_joules: 2.0,
            min_seconds: 1.0,
            max_seconds: 3.0,
        };
        let tol = Tolerances::default();
        let fp = |s: f64| RunFingerprint {
            seconds_bits: s.to_bits(),
            joules_bits: 1.0f64.to_bits(),
            instructions_bits: 1.0f64.to_bits(),
            total_quanta: 1,
            residency_digest: 0,
        };
        // Bound is max(env.max_seconds, default) * 1.10 = 3.3.
        assert!(check_slowdown("g", &fp(10.0), 1.0, Some(&env), &tol).is_some());
        assert!(check_slowdown("g", &fp(3.2), 1.0, Some(&env), &tol).is_none());
        // Without an envelope, the Default anchor with the loose
        // multiple applies: 1.0 * 4.0 * 1.10 = 4.4.
        assert!(check_slowdown("g", &fp(5.0), 1.0, None, &tol).is_some());
        assert!(check_slowdown("g", &fp(4.0), 1.0, None, &tol).is_none());
    }

    #[test]
    fn governor_names_all_resolve() {
        for name in GOVERNOR_NAMES {
            assert!(governor_policy(name).is_some(), "{name}");
        }
        assert!(governor_policy("nonsense").is_none());
        assert_eq!(parse_governors("default, oracle").unwrap().len(), 2);
        assert!(parse_governors("default,bogus").is_err());
        assert!(parse_governors("").is_err());
    }

    #[test]
    fn pin_grid_spans_the_fleet_and_dedupes() {
        let s = generate(0xC0FFEE, 0);
        let grid = fleet_pin_grid(&s);
        assert!(!grid.is_empty() && grid.len() <= 9);
        let unique: std::collections::BTreeSet<_> = grid.iter().collect();
        assert_eq!(unique.len(), grid.len(), "pin grid must dedupe");
    }

    #[test]
    fn num_or_str_guards_the_emitter() {
        assert_eq!(num_or_str(1.5), Json::Num(1.5));
        assert_eq!(num_or_str(f64::NAN), Json::Str("NaN".to_string()));
        assert_eq!(num_or_str(f64::INFINITY), Json::Str("inf".to_string()));
    }
}
