//! The traced run's instruments, all in the benchmark's own code:
//!
//! * [`Tracer`] records coarse spans (name, start, end, parent) around
//!   the calls into each layer, kept in memory and written out once at
//!   exit;
//! * [`TimedController`] and [`TimedWorkload`] decorate the parts
//!   `Scenario::build_single_node` returns. They forward every trait
//!   method — a decorator that kept a defaulted method would answer
//!   capacity 0 and silently switch fast-forward off — and time the two
//!   hot calls, `on_quantum` and `next_chunk`, into per-layer counters
//!   (10 M `next_chunk` calls cannot each be a stored span);
//! * [`TimerCost`] is the measured price of the instrumentation, which
//!   the per-layer figures subtract.

use crate::stats::ratio;
use bench::json::Json;
use bench::scenario::Scenario;
use cuttlefish::controller::{drive, drive_quanta, FrequencyController, NodePolicy};
use cuttlefish::daemon::NodeReport;
use simproc::engine::{Chunk, Workload};
use simproc::SimProcessor;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use workloads::{ProgModel, WorkloadSpec};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`. `f` must not unwind:
    /// callers that may panic catch it inside.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
    }
}

/// The measured cost of the instrumentation itself.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// What a timer pair around no work reads, ns: subtracted from
    /// every timed call.
    pub pair_ns: f64,
    /// What one instrumented call adds to its caller's time, ns:
    /// subtracted from the enclosing span's self time per call.
    pub call_ns: f64,
}

impl TimerCost {
    /// Median of 21 trials of 100,000 empty timed calls each.
    pub fn measure() -> TimerCost {
        const CALLS: u64 = 100_000;
        let hot = Hot::default();
        let mut pairs = Vec::new();
        let mut calls = Vec::new();
        for _ in 0..21 {
            hot.reset();
            let outer = Instant::now();
            for i in 0..CALLS {
                let t = Instant::now();
                black_box(i);
                hot.record(t, false);
            }
            calls.push(outer.elapsed().as_nanos() as f64 / CALLS as f64);
            pairs.push(hot.ns.get() as f64 / CALLS as f64);
        }
        TimerCost {
            pair_ns: crate::stats::median(&pairs),
            call_ns: crate::stats::median(&calls),
        }
    }

    /// Measured nanoseconds of `calls` timed calls minus their timers.
    pub fn net(&self, ns: u64, calls: u64) -> f64 {
        (ns as f64 - self.pair_ns * calls as f64).max(0.0)
    }
}

/// Counters of one instrumented call site.
#[derive(Debug, Default)]
pub struct Hot {
    pub calls: Cell<u64>,
    pub ns: Cell<u64>,
    /// Calls with the site-specific outcome: a granted capacity, a
    /// parked core.
    pub hits: Cell<u64>,
}

impl Hot {
    fn record(&self, start: Instant, hit: bool) {
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.count(hit);
    }

    fn count(&self, hit: bool) {
        self.calls.set(self.calls.get() + 1);
        self.hits.set(self.hits.get() + u64::from(hit));
    }

    fn reset(&self) {
        self.calls.set(0);
        self.ns.set(0);
        self.hits.set(0);
    }
}

/// One governor's counters.
#[derive(Debug, Default)]
pub struct CtrlStats {
    pub on_quantum: Hot,
    pub idle_capacity: Hot,
    pub busy_capacity: Hot,
}

/// [`FrequencyController`] decorator: forwards every method, times
/// `on_quantum`, counts capacity queries that grant a fast-forward.
pub struct TimedController<'a> {
    inner: Box<dyn FrequencyController>,
    stats: &'a CtrlStats,
}

impl FrequencyController for TimedController<'_> {
    fn on_quantum(&mut self, proc: &mut SimProcessor) {
        let t = Instant::now();
        self.inner.on_quantum(proc);
        self.stats.on_quantum.record(t, false);
    }

    fn report(&self) -> Vec<NodeReport> {
        self.inner.report()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn resolved_fractions(&self) -> (f64, f64) {
        self.inner.resolved_fractions()
    }

    fn stop(&mut self, proc: &mut SimProcessor) {
        self.inner.stop(proc);
    }

    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        let k = self.inner.idle_quanta_capacity(proc);
        self.stats.idle_capacity.count(k > 0);
        k
    }

    fn note_idle_quanta(&mut self, quanta: u64) {
        self.inner.note_idle_quanta(quanta);
    }

    fn busy_quanta_capacity(&self, proc: &SimProcessor, horizon_quanta: u64) -> u64 {
        let k = self.inner.busy_quanta_capacity(proc, horizon_quanta);
        self.stats.busy_capacity.count(k > 0);
        k
    }

    fn note_busy_quanta(&mut self, quanta: u64, proc: &SimProcessor) {
        self.inner.note_busy_quanta(quanta, proc);
    }
}

/// [`Workload`] decorator: forwards every method, times `next_chunk`,
/// counts the pulls that park a core.
pub struct TimedWorkload<'a> {
    inner: Box<dyn Workload>,
    stats: &'a Hot,
}

impl Workload for TimedWorkload<'_> {
    fn next_chunk(&mut self, core: usize, now_ns: u64) -> Option<Chunk> {
        let t = Instant::now();
        let chunk = self.inner.next_chunk(core, now_ns);
        self.stats.record(t, chunk.is_none());
        chunk
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn next_wake_ns(&self, now_ns: u64) -> Option<u64> {
        self.inner.next_wake_ns(now_ns)
    }
}

/// The governor names the per-layer metrics use, in campaign order.
pub const GOVERNORS: [&str; 6] = bench::fuzz::GOVERNOR_NAMES;

/// The per-layer metric key of the governor a policy builds.
pub fn governor_key(policy: &NodePolicy) -> &'static str {
    match policy {
        NodePolicy::Default => "default",
        NodePolicy::Cuttlefish(_) => "cuttlefish",
        NodePolicy::Pinned { .. } => "pinned",
        NodePolicy::Ondemand => "ondemand",
        NodePolicy::Oracle(_) => "oracle",
        NodePolicy::PidUncore { .. } => "pid-uncore",
    }
}

/// Engine quanta of the decorated single-node drives.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineCounts {
    pub stepped: u64,
    pub busy_advanced: u64,
    pub idle_advanced: u64,
}

/// Counts of one cluster shape.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClusterCounts {
    pub idle_advanced: u64,
    pub total: u64,
    pub barrier_wait_s: f64,
}

/// What the bit-for-bit comparison with the untraced run looks at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOut {
    pub seconds: f64,
    pub joules: f64,
    pub instructions: f64,
    /// `[stepped, idle_advanced, busy_advanced, total]`.
    pub quanta: [u64; 4],
}

impl SimOut {
    /// Equality of the bit patterns (so a NaN never compares equal
    /// by accident, and -0.0 is told from 0.0).
    pub fn same_bits(&self, other: &SimOut) -> bool {
        self.seconds.to_bits() == other.seconds.to_bits()
            && self.joules.to_bits() == other.joules.to_bits()
            && self.instructions.to_bits() == other.instructions.to_bits()
            && self.quanta == other.quanta
    }
}

/// Everything a traced run accumulates, over all its traced passes.
pub struct Layers {
    pub tracer: Tracer,
    pub cost: TimerCost,
    controllers: BTreeMap<&'static str, CtrlStats>,
    /// `next_chunk` counters per programming model; synthetic streams
    /// (fuzz) are timed too, so engine self time stays clean, but not
    /// reported.
    omp: Hot,
    hclib: Hot,
    synthetic: Hot,
    pub engine: EngineCounts,
    pub clusters: BTreeMap<&'static str, ClusterCounts>,
    pub store_loads: u64,
    pub store_hits: u64,
    pub json_parse_bytes: u64,
    pub json_encode_bytes: u64,
    pub fuzz_violations: u64,
    pub response_bytes: u64,
    pub responses: u64,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            cost: TimerCost::measure(),
            tracer: Tracer::new(),
            controllers: GOVERNORS
                .iter()
                .map(|g| (*g, CtrlStats::default()))
                .collect(),
            omp: Hot::default(),
            hclib: Hot::default(),
            synthetic: Hot::default(),
            engine: EngineCounts::default(),
            clusters: BTreeMap::new(),
            store_loads: 0,
            store_hits: 0,
            json_parse_bytes: 0,
            json_encode_bytes: 0,
            fuzz_violations: 0,
            response_bytes: 0,
            responses: 0,
        }
    }

    /// Drive a bounded single-node scenario to completion through the
    /// decorators, exactly as `Scenario::run` drives it (the
    /// duration-capped loop when the scenario has a cap), inside an
    /// `engine.drive` span. `Err` carries a panic message.
    pub fn drive_single(&mut self, scenario: &Scenario) -> Result<SimOut, String> {
        let (mut proc, wl, ctrl) = scenario.build_single_node();
        let ctrl_stats = &self.controllers[governor_key(&scenario.nodes[0].1)];
        let wl_stats = match &scenario.workload {
            WorkloadSpec::Bench {
                model: ProgModel::OpenMp,
                ..
            } => &self.omp,
            WorkloadSpec::Bench {
                model: ProgModel::HClib,
                ..
            } => &self.hclib,
            WorkloadSpec::Synthetic(_) => &self.synthetic,
        };
        let mut ctrl = TimedController {
            inner: ctrl,
            stats: ctrl_stats,
        };
        let mut wl = TimedWorkload {
            inner: wl,
            stats: wl_stats,
        };
        let start_e = proc.total_energy_joules();
        let start_t = proc.now_ns();
        let duration_s = scenario.duration_s;
        let ran = self.tracer.span("engine.drive", |_| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match duration_s {
                None => {
                    drive(&mut proc, &mut wl, &mut ctrl);
                }
                Some(d) => {
                    let quantum_ns = proc.spec().quantum_ns;
                    let deadline = start_t + (d * 1e9).round() as u64;
                    while !proc.workload_drained(&wl) && proc.now_ns() < deadline {
                        let budget = (deadline - proc.now_ns()).div_ceil(quantum_ns);
                        if drive_quanta(&mut proc, &mut wl, &mut ctrl, budget) == 0 {
                            break;
                        }
                    }
                }
            }))
        });
        if let Err(panic) = ran {
            return Err(panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into()));
        }
        self.engine.stepped += proc.stepped_quanta();
        self.engine.busy_advanced += proc.busy_advanced_quanta();
        self.engine.idle_advanced += proc.idle_advanced_quanta();
        Ok(SimOut {
            seconds: (proc.now_ns() - start_t) as f64 * 1e-9,
            joules: proc.total_energy_joules() - start_e,
            instructions: proc.total_instructions(),
            quanta: [
                proc.stepped_quanta(),
                proc.idle_advanced_quanta(),
                proc.busy_advanced_quanta(),
                proc.total_quanta(),
            ],
        })
    }

    /// Mean net duration of the spans named `name`, in `unit_ns`
    /// units; 0 when there are none.
    fn mean_span(&self, name: &str, unit_ns: f64) -> f64 {
        let (ns, n) = self.tracer.total(name);
        ratio(self.cost.net(ns, n), n as f64) / unit_ns
    }

    /// MiB per second through the spans named `name`.
    fn mib_per_s(&self, name: &str, bytes: u64) -> f64 {
        let (ns, n) = self.tracer.total(name);
        ratio(bytes as f64 / (1 << 20) as f64, self.cost.net(ns, n) * 1e-9)
    }

    /// The per-layer metrics, per traced pass where they are totals.
    pub fn metrics(&self, passes: usize) -> Vec<(String, f64, &'static str)> {
        let per_pass = |v: f64| v / passes.max(1) as f64;
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |name: String, value: f64, unit: &'static str| m.push((name, value, unit));

        // Engine: the drive spans minus the timed calls inside them and
        // the timers' own cost.
        let (drive_ns, _) = self.tracer.total("engine.drive");
        let hot: Vec<&Hot> = self
            .controllers
            .values()
            .map(|c| &c.on_quantum)
            .chain([&self.omp, &self.hclib, &self.synthetic])
            .collect();
        let hot_calls: u64 = hot.iter().map(|h| h.calls.get()).sum();
        let hot_net: f64 = hot
            .iter()
            .map(|h| self.cost.net(h.ns.get(), h.calls.get()))
            .sum();
        let engine_ns = (drive_ns as f64 - hot_net - self.cost.call_ns * hot_calls as f64).max(0.0);
        let e = &self.engine;
        put("engine.self_ms".into(), per_pass(engine_ns) / 1e6, "ms");
        put(
            "engine.ns_per_quantum".into(),
            ratio(engine_ns, (e.stepped + e.busy_advanced) as f64),
            "ns",
        );
        put(
            "engine.stepped_quanta".into(),
            per_pass(e.stepped as f64),
            "count",
        );
        put(
            "engine.busy_advanced_quanta".into(),
            per_pass(e.busy_advanced as f64),
            "count",
        );
        put(
            "engine.idle_advanced_quanta".into(),
            per_pass(e.idle_advanced as f64),
            "count",
        );

        for (g, c) in &self.controllers {
            let q = &c.on_quantum;
            put(
                format!("controller.{g}.on_quantum_calls"),
                per_pass(q.calls.get() as f64),
                "count",
            );
            put(
                format!("controller.{g}.on_quantum_ns"),
                ratio(
                    self.cost.net(q.ns.get(), q.calls.get()),
                    q.calls.get() as f64,
                ),
                "ns",
            );
            for (kind, h) in [("busy", &c.busy_capacity), ("idle", &c.idle_capacity)] {
                put(
                    format!("controller.{g}.{kind}_grant_ratio"),
                    ratio(h.hits.get() as f64, h.calls.get() as f64),
                    "ratio",
                );
            }
        }

        for (model, h) in [("omp", &self.omp), ("hclib", &self.hclib)] {
            put(
                format!("workload.{model}.next_chunk_calls"),
                per_pass(h.calls.get() as f64),
                "count",
            );
            put(
                format!("workload.{model}.next_chunk_ns"),
                ratio(
                    self.cost.net(h.ns.get(), h.calls.get()),
                    h.calls.get() as f64,
                ),
                "ns",
            );
            put(
                format!("workload.{model}.park_ratio"),
                ratio(h.hits.get() as f64, h.calls.get() as f64),
                "ratio",
            );
        }

        for (fleet, span) in crate::cells::FLEET_SPANS {
            let c = self.clusters.get(fleet).copied().unwrap_or_default();
            let (ns, n) = self.tracer.total(span);
            put(
                format!("cluster.{fleet}.run_ms"),
                per_pass(self.cost.net(ns, n)) / 1e6,
                "ms",
            );
            put(
                format!("cluster.{fleet}.idle_share"),
                ratio(c.idle_advanced as f64, c.total as f64),
                "ratio",
            );
            put(
                format!("cluster.{fleet}.barrier_wait_s"),
                per_pass(c.barrier_wait_s),
                "s",
            );
        }

        put(
            "store.commit_ms".into(),
            self.mean_span("store.commit", 1e6),
            "ms",
        );
        put(
            "store.key_us".into(),
            self.mean_span("store.key", 1e3),
            "us",
        );
        put(
            "store.load_us".into(),
            self.mean_span("store.load", 1e3),
            "us",
        );
        put(
            "store.hit_ratio".into(),
            ratio(self.store_hits as f64, self.store_loads as f64),
            "ratio",
        );

        put(
            "json.parse_mib_s".into(),
            self.mib_per_s("json.parse", self.json_parse_bytes),
            "MiB/s",
        );
        put(
            "json.encode_mib_s".into(),
            self.mib_per_s("json.encode", self.json_encode_bytes),
            "MiB/s",
        );

        put(
            "fuzz.generate_us".into(),
            self.mean_span("fuzz.generate", 1e3),
            "us",
        );
        put(
            "fuzz.envelope_ms".into(),
            self.mean_span("fuzz.envelope", 1e6),
            "ms",
        );
        put(
            "fuzz.governor_ms".into(),
            self.mean_span("fuzz.governor", 1e6),
            "ms",
        );
        put(
            "fuzz.twin_ms".into(),
            self.mean_span("fuzz.twin", 1e6),
            "ms",
        );
        put(
            "fuzz.violations".into(),
            per_pass(self.fuzz_violations as f64),
            "count",
        );

        put(
            "serve.submit_us".into(),
            self.mean_span("serve.submit", 1e3),
            "us",
        );
        put(
            "serve.result_us".into(),
            self.mean_span("serve.result", 1e3),
            "us",
        );
        put(
            "serve.response_kib".into(),
            ratio(self.response_bytes as f64 / 1024.0, self.responses as f64),
            "KiB",
        );
        m
    }

    /// The spans file: every span with its self time, plus the timer
    /// cost that was subtracted from the per-layer figures.
    pub fn spans_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self.tracer.spans();
        let selfs = self_times(spans);
        let rows = spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ("self_ns".into(), Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Str(format!("{seed:#x}"))),
            ("timer_pair_ns".into(), Json::Num(self.cost.pair_ns)),
            ("timer_call_ns".into(), Json::Num(self.cost.call_ns)),
            ("spans".into(), Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simproc::freq::HASWELL_2650V3;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100) > op [10,90) > {drive [20,60) > leaf [30,35), json [60,70)}
        let spans = vec![
            span("pass", None, 0, 100),
            span("op", Some(0), 10, 90),
            span("drive", Some(1), 20, 60),
            span("leaf", Some(2), 30, 35),
            span("json", Some(1), 60, 70),
            span("other-pass", None, 100, 130),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 35, 5, 10, 30]);
    }

    #[test]
    fn tracer_nests_spans_by_call_structure() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            tr.span("inner", |_| ());
        });
        tr.span("next", |_| ());
        let parents: Vec<Option<usize>> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert_eq!(tr.total("inner").1, 2);
        let selfs = self_times(tr.spans());
        let outer = &tr.spans()[0];
        assert!(selfs[0] <= outer.duration_ns());
    }

    #[test]
    fn timer_net_never_goes_negative() {
        let cost = TimerCost {
            pair_ns: 30.0,
            call_ns: 40.0,
        };
        assert_eq!(cost.net(1_000, 10), 700.0);
        assert_eq!(cost.net(100, 10), 0.0);
    }

    /// The decorators change nothing the simulation computes, for every
    /// governor: a defaulted capacity method would switch fast-forward
    /// off and move the quanta split.
    #[test]
    fn decorated_drive_matches_scenario_run_bit_for_bit() {
        let mut layers = Layers::new();
        for g in GOVERNORS {
            let policy = bench::fuzz::governor_policy(g).expect("known governor");
            let scenario = Scenario::bench("Heat-ws", ProgModel::OpenMp, 0.01)
                .label(g)
                .node(&HASWELL_2650V3, policy)
                .build();
            let bench::ScenarioOutcome::Single(plain) = scenario.run() else {
                panic!("single-node scenario");
            };
            let traced = layers.drive_single(&scenario).expect("no panic");
            let want = SimOut {
                seconds: plain.seconds,
                joules: plain.joules,
                instructions: plain.instructions,
                quanta: [
                    plain.stepped_quanta,
                    plain.idle_advanced_quanta,
                    plain.busy_advanced_quanta,
                    plain.total_quanta,
                ],
            };
            assert!(traced.same_bits(&want), "{g}: {traced:?} vs {want:?}");
            assert!(layers.controllers[g].on_quantum.calls.get() > 0, "{g}");
        }
        assert!(layers.omp.calls.get() > 0);
    }
}
