//! The `fuzz` workload: the fixed-seed six-governor differential
//! campaign of `bench::fuzz`, one case at a time on the calling thread
//! through `run_case` (what `run_campaign` runs per case). An op is a
//! case.
//!
//! The campaign seed is always the CI campaign's. Campaigns at other
//! seeds cost 0.7–1.6 s per 200 cases against this one's steady cost,
//! which would swamp any run-to-run bound, and about half of them report
//! invariant violations today. So `--seed` only permutes the order the
//! cases run in — which is itself checked: a case's output must not
//! depend on what ran before it.

use crate::golden::{Expect, Golden, GoldenOp};
use crate::stats::{geomean_ratio, permutation};
use crate::trace::{Layers, SimOut};
use crate::{Pass, Workload, DEFAULT_SEED};
use bench::fuzz::{
    all_governors, execute, generate, governor_policy, pin_envelope, run_case, stepped_fingerprint,
    with_policy, Campaign, CampaignConfig, CaseOutcome, RunFingerprint, Tolerances,
};
use bench::json::{FromJson, Json, ToJson};
use bench::scenario::{Scenario, Topology};
use bench::store::fnv1a64;
use cluster::SteppingMode;
use std::time::Instant;

/// Cases per pass: the CI campaign.
pub const CASES: u64 = 200;

/// The set-up's warm-up case: the campaign's costliest (a few hundred
/// ms), where case 0 would take under a millisecond.
const WARMUP_CASE: usize = 18;

pub struct Fuzz {
    config: CampaignConfig,
    scenarios: Vec<Scenario>,
    /// Case indices in run order.
    order: Vec<usize>,
    expect: Expect,
    /// Last untraced pass, in case-index order.
    last: Vec<CaseOutcome>,
}

/// Digest of each case's entry in the campaign report, index order.
fn case_digests(campaign: &Campaign) -> Vec<u64> {
    campaign
        .to_json()
        .field("results")
        .and_then(Json::as_arr)
        .map(|cases| {
            cases
                .iter()
                .map(|c| fnv1a64(c.to_compact().as_bytes()))
                .collect()
        })
        .unwrap_or_default()
}

fn fp_out(fp: &RunFingerprint) -> SimOut {
    SimOut {
        seconds: fp.seconds(),
        joules: fp.joules(),
        instructions: fp.instructions(),
        quanta: [0, 0, 0, fp.total_quanta],
    }
}

impl Fuzz {
    /// Generate and validate the campaign's scenarios, then run the
    /// untimed warm-up op.
    pub fn setup(seed: u64, golden: Option<&Golden>) -> Result<Fuzz, String> {
        let config = CampaignConfig {
            seed: DEFAULT_SEED,
            cases: CASES,
            governors: all_governors(),
            shards: 1,
            tol: Tolerances::default(),
        };
        let scenarios: Vec<Scenario> = (0..CASES).map(|i| generate(config.seed, i)).collect();
        for (i, s) in scenarios.iter().enumerate() {
            s.validate().map_err(|e| format!("case-{i}: {e}"))?;
        }
        let names: Vec<String> = (0..CASES).map(|i| format!("case-{i}")).collect();
        let expect = Expect::new(&names, golden)?;
        std::hint::black_box(run_case(
            WARMUP_CASE as u64,
            &scenarios[WARMUP_CASE],
            &config.governors,
            &config.tol,
        ));
        Ok(Fuzz {
            order: permutation(scenarios.len(), seed),
            config,
            scenarios,
            expect,
            last: Vec::new(),
        })
    }

    /// One governor run, decorated when it is a single-node drive.
    fn run_variant(layers: &mut Layers, variant: &Scenario) -> Result<SimOut, String> {
        if matches!(variant.topology, Topology::SingleNode) {
            layers.drive_single(variant)
        } else {
            execute(variant).map(|fp| fp_out(&fp))
        }
    }
}

impl Workload for Fuzz {
    fn pass(&mut self) -> Result<Pass, String> {
        let n = self.scenarios.len();
        let mut op_ms = vec![0.0; n];
        let mut slots: Vec<Option<CaseOutcome>> = (0..n).map(|_| None).collect();
        for &i in &self.order {
            let t = Instant::now();
            let outcome = run_case(
                i as u64,
                &self.scenarios[i],
                &self.config.governors,
                &self.config.tol,
            );
            op_ms[i] = t.elapsed().as_secs_f64() * 1e3;
            slots[i] = Some(outcome);
        }
        let campaign = Campaign {
            config: self.config.clone(),
            outcomes: slots
                .into_iter()
                .map(|o| o.expect("every case ran"))
                .collect(),
        };
        let digests = case_digests(&campaign);
        let outcomes = campaign.outcomes;
        let mut failed = 0;
        for (i, outcome) in outcomes.iter().enumerate() {
            let ok = outcome.clean()
                && outcome.runs.len() == self.config.governors.len()
                && digests.get(i).is_some_and(|&d| self.expect.check(i, d));
            if !ok {
                eprintln!("fuzz: case-{i} failed: {:?}", outcome.violations);
                failed += 1;
            }
        }
        self.last = outcomes;
        Ok(Pass { op_ms, failed })
    }

    fn traced_pass(&mut self, layers: &mut Layers) -> Result<Pass, String> {
        let mut op_ms = vec![0.0; self.scenarios.len()];
        let mut failed = 0;
        let governors = self.config.governors.clone();
        for &i in &self.order {
            let t = Instant::now();
            let scenario = layers
                .tracer
                .span("fuzz.generate", |_| generate(self.config.seed, i as u64));
            layers
                .tracer
                .span("fuzz.envelope", |_| pin_envelope(&scenario));
            let rotor = i % governors.len();
            let mut mismatched = false;
            for (g, name) in governors.iter().enumerate() {
                let policy = governor_policy(name).ok_or(format!("unknown governor {name}"))?;
                let variant = with_policy(&scenario, &policy, name);
                layers.tracer.begin("fuzz.governor");
                let got = Self::run_variant(layers, &variant);
                layers.tracer.end();
                let want = self.last[i]
                    .runs
                    .iter()
                    .find(|r| r.governor == *name)
                    .map(|r| fp_out(&r.fp));
                let same = match (&got, &want) {
                    (Ok(a), Some(b)) => {
                        a.seconds.to_bits() == b.seconds.to_bits()
                            && a.joules.to_bits() == b.joules.to_bits()
                            && a.instructions.to_bits() == b.instructions.to_bits()
                            && a.quanta[3] == b.quanta[3]
                    }
                    _ => false,
                };
                mismatched |= !same;
                if g == rotor {
                    mismatched |= !Self::twins(layers, &variant, got.ok())?;
                }
            }
            layers.fuzz_violations += self.last[i].violations.len() as u64;
            op_ms[i] = t.elapsed().as_secs_f64() * 1e3;
            if mismatched {
                eprintln!("fuzz: traced case-{i} differs from the untraced run");
                failed += 1;
            }
        }
        Ok(Pass { op_ms, failed })
    }

    fn cf_ratios(&self) -> (f64, f64) {
        let mut energy = Vec::new();
        let mut time = Vec::new();
        for case in &self.last {
            let run = |g: &str| case.runs.iter().find(|r| r.governor == g);
            if let (Some(d), Some(c)) = (run("default"), run("cuttlefish")) {
                energy.push((d.fp.joules(), c.fp.joules()));
                time.push((d.fp.seconds(), c.fp.seconds()));
            }
        }
        (geomean_ratio(&energy), geomean_ratio(&time))
    }

    fn golden(&self) -> Option<Golden> {
        let campaign = Campaign {
            config: self.config.clone(),
            outcomes: self.last.clone(),
        };
        Some(Golden {
            workload: "fuzz".into(),
            seed: DEFAULT_SEED,
            ops: case_digests(&campaign)
                .into_iter()
                .enumerate()
                .map(|(i, digest)| GoldenOp {
                    op: format!("case-{i}"),
                    digest,
                    seconds: None,
                    joules: None,
                })
                .collect(),
        })
    }
}

impl Fuzz {
    /// The rotating governor's twins, as `run_case` runs them: the
    /// other stepping mode (clusters) or the plain per-quantum loop
    /// (bounded single node), then a replay from the re-serialized
    /// JSON. Returns whether both reproduced `fp`.
    fn twins(layers: &mut Layers, variant: &Scenario, fp: Option<SimOut>) -> Result<bool, String> {
        let Some(fp) = fp else {
            return Ok(false);
        };
        let same = |other: &RunFingerprint| {
            other.seconds_bits == fp.seconds.to_bits()
                && other.joules_bits == fp.joules.to_bits()
                && other.instructions_bits == fp.instructions.to_bits()
                && other.total_quanta == fp.quanta[3]
        };
        let mut ok = true;
        if variant.nodes.len() > 1 {
            let mut twin = variant.clone();
            twin.stepping = match variant.stepping {
                SteppingMode::Lockstep => SteppingMode::EventDriven,
                _ => SteppingMode::Lockstep,
            };
            ok &= layers
                .tracer
                .span("fuzz.twin", |_| execute(&twin))
                .is_ok_and(|t| same(&t));
        } else if variant.duration_s.is_none() {
            ok &= layers
                .tracer
                .span("fuzz.twin", |_| stepped_fingerprint(variant))
                .is_ok_and(|t| same(&t));
        }
        let text = layers
            .tracer
            .span("json.encode", |_| variant.to_json().to_pretty());
        let parsed = layers.tracer.span("json.parse", |_| Json::parse(&text));
        layers.json_encode_bytes += text.len() as u64;
        layers.json_parse_bytes += text.len() as u64;
        let replayed = parsed
            .and_then(|j| Scenario::from_json(&j))
            .map_err(|e| format!("replay twin does not parse: {e}"))?;
        ok &= layers
            .tracer
            .span("fuzz.twin", |_| execute(&replayed))
            .is_ok_and(|t| same(&t));
        Ok(ok)
    }
}
