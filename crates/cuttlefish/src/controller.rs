//! The unified frequency-control plane: every way of driving the two
//! frequency knobs of a simulated package — the firmware-like
//! [`DefaultGovernor`], the paper's [`CuttlefishDriver`], a fixed
//! [`Pinned`] operating point, the [`Ondemand`] utilization baseline,
//! the static [`Oracle`] table, or the [`PidUncore`] feedback tracker —
//! behind one object-safe trait.
//!
//! Before this module existed, every consumer (the evaluation harness,
//! the cluster simulator, each example) carried its own
//! `DefaultGovernor`-vs-`CuttlefishDriver` dispatch; adding a
//! controller meant editing all of them. Now consumers hold a
//! `Box<dyn FrequencyController>` built by [`NodePolicy::build`], and a
//! new governor is one `impl` plus one factory arm.
//!
//! # The `FrequencyController` contract
//!
//! Every implementation must honour the same call protocol, because
//! the engine's virtual-clock layer (PR 3) is allowed to *skip* calls
//! and the observable outcome must not change:
//!
//! 1. **Construction** happens through [`NodePolicy::build`], which
//!    may apply an initial actuation (e.g. [`Pinned`] sets its
//!    operating point before the first quantum; [`Oracle`] leaves the
//!    machine at its boot frequencies until the first profile tick).
//! 2. **Per quantum**, the engine calls [`SimProcessor::step`] and
//!    then [`FrequencyController::on_quantum`] — always in that order,
//!    exactly once each. `on_quantum` observes the quantum that just
//!    ran ([`SimProcessor::last_quantum`], counter MSRs) and sets the
//!    frequencies the *next* quantum will run at.
//! 3. **Idle fast-forward.** When every core is parked and the
//!    workload declares a wake-free stretch, the engine may replace
//!    `k` step/`on_quantum` pairs with one
//!    [`SimProcessor::advance_idle_quanta`]`(k)` plus one
//!    [`note_idle_quanta`]`(k)` — but only for
//!    `k ≤` [`idle_quanta_capacity`]. The pair of methods forms a
//!    contract: `idle_quanta_capacity` must return how many
//!    consecutive idle quanta `on_quantum` would neither touch the
//!    machine nor mutate any state beyond what `note_idle_quanta`
//!    replays, and `note_idle_quanta` must replay that bookkeeping
//!    **bit-identically** (floating-point state included — see
//!    [`DefaultGovernor::skip_idle_quanta`] replaying its EWMA decay).
//!    Returning 0 (the default) always degrades to real stepping and
//!    is always correct; capacities are a pure optimization that must
//!    be observationally invisible. Tick-scheduled controllers
//!    ([`CuttlefishDriver`], [`Oracle`]) bound the capacity by their
//!    next scheduled tick (`next_tick_ns`), so ticks always execute
//!    for real; fixed-point controllers ([`Pinned`], [`Ondemand`],
//!    [`PidUncore`]) report unbounded capacity only from an
//!    *absorbing* idle state where every skipped call would have been
//!    idempotent.
//! 4. **Busy fast-forward.** The busy twin of point 3: while cores are
//!    executing, the engine may replace `k` step/`on_quantum` pairs
//!    with one [`SimProcessor::advance_busy_quanta`]`(k)` plus one
//!    [`note_busy_quanta`]`(k)` — but only for
//!    `k ≤` [`busy_quanta_capacity`]. Unlike the idle advance, the
//!    busy advance replays the full per-quantum machine arithmetic
//!    (chunk progress, workload pulls, RAPL, telemetry) bit-for-bit;
//!    the *only* thing skipped is the controller. So the capacity
//!    question is purely "for how many quanta is my `on_quantum` a
//!    provable no-op (beyond what `note_busy_quanta` replays)?".
//!    The engine passes a conservative `horizon_quanta` — quanta
//!    provably free of workload interactions, within which telemetry
//!    can only drift at FP-ULP scale — and telemetry-driven
//!    controllers ([`DefaultGovernor`], [`Ondemand`]) must cap their
//!    answer by it, granting it only from a drift-immune fixed point.
//!    Schedule- or state-proven controllers may exceed the horizon:
//!    [`Pinned`] is unbounded once its pin is applied, and
//!    [`CuttlefishDriver`]/[`Oracle`] are bounded by `next_tick_ns`
//!    alone, because between ticks their `on_quantum` is a pure clock
//!    comparison. **[`PidUncore`] returns 0 by design**: a per-quantum
//!    PID folds a fresh error into its integral and derivative state
//!    every quantum while traffic is nonzero, so it has no busy fixed
//!    point to certify and legitimately cannot fast-forward while
//!    busy — it always steps for real.
//! 5. **Shutdown**: [`stop`](FrequencyController::stop) restores any
//!    platform state captured at attach time (the library's
//!    `cuttlefish::stop()`); controllers that captured nothing do
//!    nothing.
//!
//! The equivalence suites (`tests/controller_equivalence.rs`,
//! `crates/simproc/tests/event_clock.rs`) enforce the bit-exactness
//! half of this contract for every shipped controller.
//!
//! In cluster runs these capacity answers drive every node of the
//! fleet: each node drains its superstep workload through [`drive`]
//! and then idles its barrier wait and exchange window as one stretch
//! that advances as far as [`idle_quanta_capacity`] certifies. A
//! tick-scheduled governor therefore steps once per `Tinv` of a wait,
//! a fixed-point governor only until it reaches its absorbing idle
//! state, and the same bit-exactness obligations make the result
//! identical to stepping every quantum (`cluster::SteppingMode`).
//!
//! [`note_idle_quanta`]: FrequencyController::note_idle_quanta
//! [`idle_quanta_capacity`]: FrequencyController::idle_quanta_capacity
//! [`note_busy_quanta`]: FrequencyController::note_busy_quanta
//! [`busy_quanta_capacity`]: FrequencyController::busy_quanta_capacity

use crate::daemon::NodeReport;
use crate::driver::CuttlefishDriver;
use crate::tipi::TipiSlab;
use crate::{Config, Policy};
use simproc::freq::{Freq, MachineSpec};
use simproc::governor::DefaultGovernor;
use simproc::perf::{PerfModel, LINE_BYTES};
use simproc::power::PowerModel;
use simproc::profile::{delta, CounterSnapshot};
use simproc::SimProcessor;
use std::collections::BTreeMap;

/// A frequency controller driving one simulated package.
///
/// The engine advances in fixed quanta; after every
/// [`SimProcessor::step`] the controller gets [`on_quantum`] to observe
/// counters and set the core/uncore frequencies for the next quantum.
///
/// [`on_quantum`]: FrequencyController::on_quantum
pub trait FrequencyController {
    /// Observe the last quantum and apply frequency decisions.
    fn on_quantum(&mut self, proc: &mut SimProcessor);

    /// Per-TIPI-range view of what the controller has learned
    /// (Table 2 shape). Static controllers report one synthetic range
    /// covering the whole run; profiling controllers report the ranges
    /// discovered so far — which may be none (the Cuttlefish daemon's
    /// report is empty until its first post-warm-up sample), so
    /// consumers must not assume a non-empty vector.
    fn report(&self) -> Vec<NodeReport>;

    /// Display name (the paper's setup labels).
    fn name(&self) -> &'static str;

    /// Fractions of reported ranges with resolved core / uncore optima.
    fn resolved_fractions(&self) -> (f64, f64) {
        let report = self.report();
        let n = report.len().max(1) as f64;
        let cf = report.iter().filter(|r| r.cf_opt.is_some()).count() as f64;
        let uf = report.iter().filter(|r| r.uf_opt.is_some()).count() as f64;
        (cf / n, uf / n)
    }

    /// Release the machine: restore any platform state captured when
    /// the controller attached (the library's `cuttlefish::stop()`).
    /// Controllers that captured nothing do nothing.
    fn stop(&mut self, proc: &mut SimProcessor) {
        let _ = proc;
    }

    /// How many consecutive idle quanta, starting at `proc`'s current
    /// virtual time, this controller can be fast-forwarded across: its
    /// `on_quantum` over that stretch would neither touch the machine
    /// nor change any state beyond what
    /// [`note_idle_quanta`](Self::note_idle_quanta) replays. The engine
    /// advances `min(capacity, idle stretch)` quanta analytically and
    /// calls `note_idle_quanta` once instead of `on_quantum` per
    /// quantum; a capacity of 0 forces a real per-quantum step (the
    /// conservative default, which reproduces pre-virtual-clock
    /// behaviour exactly for controllers that don't opt in).
    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        let _ = proc;
        0
    }

    /// Account a stretch of `quanta` idle quanta the engine
    /// fast-forwarded past this controller. Only ever called with
    /// `quanta <= idle_quanta_capacity()`; implementations replay
    /// whatever per-quantum bookkeeping their `on_quantum` would have
    /// done (bit-identically), and nothing else.
    fn note_idle_quanta(&mut self, quanta: u64) {
        let _ = quanta;
    }

    /// How many consecutive *busy* quanta, starting at `proc`'s
    /// current virtual time, this controller can be fast-forwarded
    /// across: its `on_quantum` over that stretch would neither touch
    /// the machine nor change any state beyond what
    /// [`note_busy_quanta`](Self::note_busy_quanta) replays.
    ///
    /// `horizon_quanta` is the engine's conservative bound on quanta
    /// provably free of workload interactions — no chunk completion,
    /// chunk pull, or phase change (see
    /// `SimProcessor::busy_runway_quanta`) — within which per-quantum
    /// telemetry can only drift at floating-point ULP scale.
    /// Controllers whose no-op proof rests on telemetry staying inside
    /// a band (fixed-point governors like [`DefaultGovernor`] and
    /// [`Ondemand`]) must return at most `horizon_quanta`; controllers
    /// whose proof is schedule- or state-based ([`Pinned`] forever,
    /// [`CuttlefishDriver`]/[`Oracle`] up to the next tick) may exceed
    /// it, because [`SimProcessor::advance_busy_quanta`] replays
    /// workload interactions exactly and only the controller is
    /// skipped.
    ///
    /// A capacity of 0 (the default) always degrades to real stepping
    /// and is always correct. [`PidUncore`] returns 0 *by design*: a
    /// per-quantum PID has no busy fixed point — while traffic is
    /// nonzero it folds a fresh error into its integral and derivative
    /// state every quantum and may move the uncore on any of them — so
    /// it legitimately cannot fast-forward while busy.
    fn busy_quanta_capacity(&self, proc: &SimProcessor, horizon_quanta: u64) -> u64 {
        let _ = (proc, horizon_quanta);
        0
    }

    /// Account a stretch of `quanta` busy quanta the engine
    /// fast-forwarded past this controller. Only ever called with
    /// `quanta <=` the preceding
    /// [`busy_quanta_capacity`](Self::busy_quanta_capacity) answer,
    /// immediately after the corresponding
    /// [`SimProcessor::advance_busy_quanta`] returned `quanta`, so
    /// [`SimProcessor::busy_advance_stats`] exposes the per-quantum
    /// telemetry of exactly this stretch; implementations replay
    /// whatever per-quantum bookkeeping their `on_quantum` would have
    /// done (bit-identically — see
    /// [`DefaultGovernor::skip_busy_quanta`] folding its traffic EWMA
    /// over those stats), and nothing else.
    fn note_busy_quanta(&mut self, quanta: u64, proc: &SimProcessor) {
        let _ = (quanta, proc);
    }
}

/// Run `wl` to completion under `ctrl`, fast-forwarding every stretch
/// the workload ([`simproc::engine::Workload::next_wake_ns`], chunk
/// completion times) and the controller
/// ([`idle_quanta_capacity`](FrequencyController::idle_quanta_capacity),
/// [`busy_quanta_capacity`](FrequencyController::busy_quanta_capacity))
/// jointly declare uneventful — parked stretches through
/// `SimProcessor::advance_idle_quanta`, busy steady-state stretches
/// through `SimProcessor::advance_busy_quanta`. Numerically identical
/// to the plain step-then-`on_quantum` loop — both fast paths perform
/// the same arithmetic — and degrades to exactly that loop when either
/// party declines. Returns the virtual seconds elapsed.
pub fn drive(
    proc: &mut SimProcessor,
    wl: &mut dyn simproc::engine::Workload,
    ctrl: &mut dyn FrequencyController,
) -> f64 {
    let start = proc.now_ns();
    drive_quanta(proc, wl, ctrl, u64::MAX);
    (proc.now_ns() - start) as f64 * 1e-9
}

/// Advance up to `budget` quanta of the event-driven loop [`drive`]
/// runs, stopping early when the workload drains. Returns the quanta
/// actually elapsed (stepped + fast-forwarded). This is the building
/// block for callers that must pause on a wall-clock-independent
/// schedule — trace capture points, duration caps, BSP supersteps —
/// without giving up the fast paths in between.
pub fn drive_quanta(
    proc: &mut SimProcessor,
    wl: &mut dyn simproc::engine::Workload,
    ctrl: &mut dyn FrequencyController,
    budget: u64,
) -> u64 {
    let quantum = proc.spec().quantum_ns;
    let mut left = budget;
    while left > 0 && !proc.workload_drained(wl) {
        if proc.cores_parked() {
            // How far the workload lets the clock jump; `None` (never
            // wakes again) cannot occur for an undrained workload that
            // terminates, so treat it as one quantum and keep polling.
            let runway = match proc.next_event_ns(wl) {
                Some(event) => (event - proc.now_ns()) / quantum,
                None => 1,
            };
            if runway > 1 {
                let k = (runway - 1).min(ctrl.idle_quanta_capacity(proc)).min(left);
                if k > 0 {
                    proc.advance_idle_quanta(k);
                    ctrl.note_idle_quanta(k);
                    left -= k;
                    continue;
                }
            }
        } else {
            // Busy: the engine's event bound is the provably
            // interaction-free runway; one quantum before it is the
            // horizon telemetry-driven capacities must respect.
            // Schedule-proven controllers (Pinned, tick-bounded) may
            // answer beyond it — the busy advance replays workload
            // interactions exactly — so the capacity is *not* clamped
            // to the horizon here, only to the budget.
            let horizon = match proc.next_event_ns(wl) {
                Some(event) => ((event - proc.now_ns()) / quantum).saturating_sub(1),
                None => 0,
            };
            let k = ctrl.busy_quanta_capacity(proc, horizon).min(left);
            if k > 0 {
                let done = proc.advance_busy_quanta(wl, k);
                if done > 0 {
                    ctrl.note_busy_quanta(done, proc);
                    left -= done;
                    continue;
                }
            }
        }
        proc.step(wl);
        ctrl.on_quantum(proc);
        left -= 1;
    }
    budget - left
}

/// One synthetic whole-run range for controllers that do not profile
/// TIPI (label conveys the policy; optima are what the controller has
/// pinned, if anything). `share` is 1.0 — the policy genuinely covers
/// the entire run — so the entry reads as "frequent"; `occurrences`
/// carries the quanta actually observed (zero for controllers that
/// keep no count), letting consumers distinguish a synthetic range
/// from daemon-sampled ones.
fn static_report(
    label: &str,
    cf_opt: Option<Freq>,
    uf_opt: Option<Freq>,
    occurrences: u64,
) -> Vec<NodeReport> {
    vec![NodeReport {
        slab: TipiSlab(0),
        label: label.to_string(),
        cf_opt,
        uf_opt,
        occurrences,
        share: 1.0,
    }]
}

impl FrequencyController for DefaultGovernor {
    fn on_quantum(&mut self, proc: &mut SimProcessor) {
        DefaultGovernor::on_quantum(self, proc);
    }

    fn report(&self) -> Vec<NodeReport> {
        // The firmware resolves no per-MAP optima; it tracks traffic.
        static_report("firmware-auto", None, None, 0)
    }

    fn name(&self) -> &'static str {
        "Default"
    }

    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        // Until the traffic EWMA decays below the ramp and the uncore
        // lands on its idle floor, the firmware moves the knobs every
        // quantum and must be stepped for real; from the fixed point
        // onward only the EWMA decays, which note_idle_quanta replays.
        if self.is_idle_stable(proc) {
            u64::MAX
        } else {
            0
        }
    }

    fn note_idle_quanta(&mut self, quanta: u64) {
        self.skip_idle_quanta(quanta);
    }

    fn busy_quanta_capacity(&self, proc: &SimProcessor, horizon_quanta: u64) -> u64 {
        // Telemetry-driven: only from a saturated fixed point of the
        // traffic ramp (both EWMA and instantaneous signal clear of the
        // band edges, knobs already at the targets, overload settled),
        // and only within the engine's interaction-free horizon where
        // telemetry drift is bounded to ULP scale.
        if self.is_busy_stable(proc) {
            horizon_quanta
        } else {
            0
        }
    }

    fn note_busy_quanta(&mut self, quanta: u64, proc: &SimProcessor) {
        debug_assert_eq!(proc.busy_advance_stats().len() as u64, quanta);
        self.skip_busy_quanta(proc);
    }
}

impl FrequencyController for CuttlefishDriver {
    fn on_quantum(&mut self, proc: &mut SimProcessor) {
        CuttlefishDriver::on_quantum(self, proc);
    }

    fn report(&self) -> Vec<NodeReport> {
        self.daemon().report()
    }

    fn name(&self) -> &'static str {
        self.daemon().config().policy.name()
    }

    fn resolved_fractions(&self) -> (f64, f64) {
        self.daemon().resolved_fractions()
    }

    fn stop(&mut self, proc: &mut SimProcessor) {
        CuttlefishDriver::stop(self, proc);
    }

    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        // Everything up to the next scheduled Tinv tick is a pure clock
        // comparison; the tick itself (a counter snapshot that feeds the
        // next interval's delta) must run for real.
        CuttlefishDriver::idle_quanta_capacity(self, proc)
    }
    // note_idle_quanta: nothing to replay — the driver's schedule is
    // anchored to the engine's virtual clock, not to call counts.

    fn busy_quanta_capacity(&self, proc: &SimProcessor, _horizon_quanta: u64) -> u64 {
        // Same bound as idle: between ticks `on_quantum` is a pure
        // clock comparison, independent of what executes, and the busy
        // advance replays workload interactions exactly — so the
        // engine's telemetry horizon is irrelevant and the tick
        // schedule alone bounds the stretch.
        CuttlefishDriver::busy_quanta_capacity(self, proc)
    }
    // note_busy_quanta: nothing to replay either, for the same reason.
}

/// A controller that pins both domains at a fixed operating point —
/// the §3.2 motivating sweeps (Figure 3) and any oracle/static-tuning
/// baseline.
#[derive(Debug, Clone)]
pub struct Pinned {
    cf: Freq,
    uf: Freq,
    quanta: u64,
}

impl Pinned {
    /// Pin core at `cf` and uncore at `uf`.
    pub fn new(cf: Freq, uf: Freq) -> Self {
        Pinned { cf, uf, quanta: 0 }
    }

    /// The pinned core frequency.
    pub fn core(&self) -> Freq {
        self.cf
    }

    /// The pinned uncore frequency.
    pub fn uncore(&self) -> Freq {
        self.uf
    }
}

impl FrequencyController for Pinned {
    fn on_quantum(&mut self, proc: &mut SimProcessor) {
        // Re-assert every quantum: the pin must hold even if something
        // else (a sysadmin model, a test) moved the knobs.
        proc.set_core_freq(self.cf);
        proc.set_uncore_freq(self.uf);
        self.quanta += 1;
    }

    fn report(&self) -> Vec<NodeReport> {
        static_report("pinned", Some(self.cf), Some(self.uf), self.quanta)
    }

    fn name(&self) -> &'static str {
        "Pinned"
    }

    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        // Re-asserting an already-applied pin is a no-op; only the
        // quanta counter (report occurrences) needs replaying.
        if proc.core_freq() == proc.spec().core.clamp(self.cf)
            && proc.uncore_freq() == proc.spec().uncore.clamp(self.uf)
        {
            u64::MAX
        } else {
            0
        }
    }

    fn note_idle_quanta(&mut self, quanta: u64) {
        self.quanta += quanta;
    }

    fn busy_quanta_capacity(&self, proc: &SimProcessor, _horizon_quanta: u64) -> u64 {
        // Same proof as idle, and it holds regardless of what executes:
        // re-asserting an already-applied pin is a no-op whatever the
        // telemetry says, so the engine's horizon does not bound us.
        self.idle_quanta_capacity(proc)
    }

    fn note_busy_quanta(&mut self, quanta: u64, _proc: &SimProcessor) {
        self.quanta += quanta;
    }
}

/// An ondemand/schedutil-style software governor — the classic
/// utilization-proportional baseline the kernel ships, here as proof
/// that the policy axis is open: one `impl` plus one [`NodePolicy`]
/// arm, and every consumer (harness grid, cluster, scenario JSON,
/// examples) can run it.
///
/// Each quantum it reads the engine's utilization telemetry and steers
/// each domain toward `margin ×` the proportional target — core
/// frequency follows mean pipeline utilization (schedutil's
/// `1.25 · f_max · util`), uncore frequency follows the achieved
/// memory-traffic fraction — moving at most [`max_step`](Self) ratio
/// steps per quantum (the kernel's rate limit, and what keeps the
/// decision sequence deterministic and oscillation-bounded).
#[derive(Debug, Clone)]
pub struct Ondemand {
    /// Headroom multiplier over the proportional target (schedutil's
    /// 1.25).
    pub margin: f64,
    /// Ratio steps each domain may move per quantum.
    pub max_step: u32,
    quanta: u64,
}

impl Default for Ondemand {
    fn default() -> Self {
        Ondemand {
            margin: 1.25,
            max_step: 2,
            quanta: 0,
        }
    }
}

impl Ondemand {
    /// Governor with the schedutil-like defaults.
    pub fn new() -> Self {
        Self::default()
    }

    fn step_toward(cur: Freq, target: Freq, max_step: u32) -> Freq {
        if target.0 > cur.0 {
            Freq(cur.0 + (target.0 - cur.0).min(max_step))
        } else {
            Freq(cur.0 - (cur.0 - target.0).min(max_step))
        }
    }

    /// The `(core, uncore)` operating point this governor asks for at
    /// the given utilization signals (before the per-quantum rate
    /// limit).
    pub fn targets(&self, proc: &SimProcessor, util: f64, traffic: f64) -> (Freq, Freq) {
        let spec = proc.spec();
        let want = |max: Freq, signal: f64| {
            Freq((self.margin * signal.clamp(0.0, 1.0) * f64::from(max.0)).ceil() as u32)
        };
        (
            spec.core.clamp(want(spec.core.max(), util)),
            spec.uncore.clamp(want(spec.uncore.max(), traffic)),
        )
    }

    fn is_idle_stable(&self, proc: &SimProcessor) -> bool {
        let stats = proc.last_quantum();
        let (cf, uf) = self.targets(proc, 0.0, 0.0);
        stats.instructions == 0.0
            && stats.achieved_bw == 0.0
            && proc.core_freq() == cf
            && proc.uncore_freq() == uf
    }

    /// Whether the `.ceil()` inside [`targets`](Self::targets) is
    /// immune to the ULP-scale signal drift of a busy fast-forwarded
    /// stretch: the raw proportional value must sit clearly between
    /// two integers, so a last-bit wobble of the signal cannot move
    /// the quantized target. A signal of exactly 0 is drift-free
    /// (telemetry sums of exact zeros stay exact zeros); clamping
    /// boundaries need no special case because the clamped value feeds
    /// the same interior check.
    fn ceil_stable(margin: f64, signal: f64, max: Freq) -> bool {
        const EPS: f64 = 1e-6;
        let s = signal.clamp(0.0, 1.0);
        if s == 0.0 {
            return true;
        }
        let f = (margin * s * f64::from(max.0)).fract();
        f > EPS && f < 1.0 - EPS
    }

    /// True at the governor's *busy* fixed point: both domains already
    /// sit on their (rate-limit-free) targets for the last quantum's
    /// telemetry, each target is [`ceil_stable`](Self::ceil_stable)
    /// against ULP drift, and the engine's overload relaxation has
    /// settled — so every further `on_quantum` inside an
    /// interaction-free stretch re-writes the same frequencies.
    fn is_busy_stable(&self, proc: &SimProcessor) -> bool {
        if !proc.overload_settled() {
            return false;
        }
        let stats = proc.last_quantum();
        let traffic = stats.achieved_bw / proc.perf_model().dram_peak_bw;
        let (cf_t, uf_t) = self.targets(proc, stats.mean_util, traffic);
        proc.core_freq() == cf_t
            && proc.uncore_freq() == uf_t
            && Self::ceil_stable(self.margin, stats.mean_util, proc.spec().core.max())
            && Self::ceil_stable(self.margin, traffic, proc.spec().uncore.max())
    }
}

impl FrequencyController for Ondemand {
    fn on_quantum(&mut self, proc: &mut SimProcessor) {
        let stats = proc.last_quantum();
        let traffic = stats.achieved_bw / proc.perf_model().dram_peak_bw;
        let (cf_t, uf_t) = self.targets(proc, stats.mean_util, traffic);
        let cf = Self::step_toward(proc.core_freq(), cf_t, self.max_step);
        let uf = Self::step_toward(proc.uncore_freq(), uf_t, self.max_step);
        proc.set_core_freq(cf);
        proc.set_uncore_freq(uf);
        self.quanta += 1;
    }

    fn report(&self) -> Vec<NodeReport> {
        // Utilization-driven, not MAP-driven: no per-range optima.
        static_report("ondemand", None, None, self.quanta)
    }

    fn name(&self) -> &'static str {
        "Ondemand"
    }

    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        // At the idle fixed point (zero signals, both domains already at
        // the idle targets) every further on_quantum re-writes the same
        // frequencies — idempotent — and only counts the quantum.
        if self.is_idle_stable(proc) {
            u64::MAX
        } else {
            0
        }
    }

    fn note_idle_quanta(&mut self, quanta: u64) {
        self.quanta += quanta;
    }

    fn busy_quanta_capacity(&self, proc: &SimProcessor, horizon_quanta: u64) -> u64 {
        // Telemetry-driven: only from the step-limited fixed point
        // (targets already reached and ceil-stable against drift), and
        // only within the engine's interaction-free horizon.
        if self.is_busy_stable(proc) {
            horizon_quanta
        } else {
            0
        }
    }

    fn note_busy_quanta(&mut self, quanta: u64, _proc: &SimProcessor) {
        self.quanta += quanta;
    }
}

/// One row of an [`OracleTable`]: the statically-known optimal
/// operating point for one TIPI range (one Table 2 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleEntry {
    /// The TIPI range this point applies to.
    pub slab: TipiSlab,
    /// Core frequency to set, deci-GHz.
    pub cf: Freq,
    /// Uncore frequency to set, deci-GHz.
    pub uf: Freq,
}

/// A static per-phase operating-point table — the paper's §5 oracle
/// baseline, replaying Table 2's per-benchmark core+uncore optima.
///
/// Entries are keyed by quantized TIPI range (the paper's memory
/// access pattern identity), kept in strictly ascending slab order;
/// [`OracleTable::nearest`] resolves phases the table has no exact row
/// for to the closest known one. Tables are built either explicitly
/// (hand-written from Table 2) or by [`OracleTable::from_trace`],
/// which derives one from a traced `Default` run the way the paper
/// builds its oracle from profiled executions.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleTable {
    /// TIPI slab width the entries are quantized with (§3.2).
    pub slab_width: f64,
    /// Profile interval of the replaying controller, nanoseconds.
    pub tinv_ns: u64,
    /// Per-range optima, strictly ascending by slab.
    pub entries: Vec<OracleEntry>,
}

/// Parameters of [`OracleTable::from_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct OracleDerivation {
    /// TIPI slab width for the derived table.
    pub slab_width: f64,
    /// Profile interval for the derived table, nanoseconds.
    pub tinv_ns: u64,
    /// Minimum share of trace samples a slab needs to earn an entry
    /// (the paper's "frequently occurring" threshold is 0.10).
    pub min_share: f64,
    /// Optional TIPI window (e.g. the benchmark's Table 1 range):
    /// samples more than one slab outside it are treated as noise
    /// (warm-up transients, idle tails) and dropped.
    pub tipi_range: Option<(f64, f64)>,
}

impl Default for OracleDerivation {
    fn default() -> Self {
        OracleDerivation {
            slab_width: 0.004,
            tinv_ns: 20_000_000,
            min_share: 0.10,
            tipi_range: None,
        }
    }
}

/// One `Tinv`-rate observation of a traced run, as consumed by
/// [`OracleTable::from_trace`]: the interval's TIPI/JPI plus the
/// operating point and package power it was measured at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// TOR inserts per instruction over the interval.
    pub tipi: f64,
    /// Joules per instruction over the interval.
    pub jpi: f64,
    /// Package power over the interval, watts.
    pub watts: f64,
    /// Core frequency the interval ran at.
    pub cf: Freq,
    /// Uncore frequency the interval ran at.
    pub uf: Freq,
}

impl OracleTable {
    /// Check the invariants [`Oracle`] relies on.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.slab_width.is_finite() && self.slab_width > 0.0) {
            return Err(format!("invalid oracle slab width {}", self.slab_width));
        }
        if self.tinv_ns == 0 {
            return Err("oracle tinv_ns must be at least one nanosecond".into());
        }
        if self.entries.is_empty() {
            return Err("oracle table needs at least one entry".into());
        }
        for pair in self.entries.windows(2) {
            if pair[0].slab >= pair[1].slab {
                return Err(format!(
                    "oracle entries must be strictly ascending by slab ({} then {})",
                    pair[0].slab, pair[1].slab
                ));
            }
        }
        if let Some(e) = self.entries.iter().find(|e| e.cf.0 == 0 || e.uf.0 == 0) {
            return Err(format!("oracle entry for {} has a zero frequency", e.slab));
        }
        Ok(())
    }

    /// Index of the entry nearest to `slab` (ties resolve to the lower
    /// slab — deterministic).
    ///
    /// # Panics
    /// Panics on an empty table — construction is guarded by
    /// [`validate`](Self::validate).
    pub fn nearest(&self, slab: TipiSlab) -> usize {
        assert!(!self.entries.is_empty(), "oracle table must not be empty");
        let mut best = 0;
        let mut best_gap = u32::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            let gap = e.slab.0.abs_diff(slab.0);
            if gap < best_gap {
                best = i;
                best_gap = gap;
            }
        }
        best
    }

    /// Derive an oracle table from a traced `Default` run, mirroring
    /// how the paper builds its oracle from profiled executions.
    ///
    /// For every frequent TIPI slab the trace visits, the phase is
    /// *identified* from its samples — the package-power model is
    /// inverted for the mean core utilization, which splits the
    /// observed seconds-per-instruction into a pipeline component
    /// (scaling as `1/CF`) and an exposed-stall component (scaling
    /// with the uncore miss latency) — and the identified phase is
    /// then swept analytically over every `(CF, UF)` operating point
    /// of `spec` under the machine's perf/power models (latency bound,
    /// bandwidth roofline, package power). The JPI-argmin point
    /// becomes the slab's entry — the settling points of Table 2, but
    /// computed from one profiled run instead of an exhaustive sweep.
    ///
    /// Returns an error when no slab clears `params.min_share` with at
    /// least one identifiable sample.
    pub fn from_trace(
        samples: &[TraceSample],
        spec: &MachineSpec,
        perf: &PerfModel,
        power: &PowerModel,
        params: &OracleDerivation,
    ) -> Result<OracleTable, String> {
        #[derive(Default)]
        struct Acc {
            seen: u64,
            ok: u64,
            tipi: f64,
            cpi: f64,
            stall1: f64,
            /// Samples contributing to `stall1` (unsaturated only —
            /// see below).
            stall1_n: u64,
        }
        /// Above this achieved/cap fraction a sample counts as
        /// bandwidth-saturated: its observed stall is roofline-driven
        /// (`stall_lat · overload` with the product pinned by the cap),
        /// so the latency component is unidentifiable from it.
        const SATURATED: f64 = 0.95;
        /// Memory-level parallelism assumed for slabs whose every
        /// sample is saturated (mid-range of the Table 1 profiles).
        const FALLBACK_MLP: f64 = 8.0;
        let n = spec.n_cores as f64;
        let mut accs: BTreeMap<u32, Acc> = BTreeMap::new();
        let mut total = 0u64;
        for s in samples {
            if !(s.tipi.is_finite() && s.tipi >= 0.0 && s.jpi > 0.0 && s.watts > 0.0) {
                continue;
            }
            if let Some((lo, hi)) = params.tipi_range {
                if s.tipi < lo - params.slab_width || s.tipi > hi + params.slab_width {
                    continue;
                }
            }
            let slab = TipiSlab::quantize(s.tipi, params.slab_width).0;
            total += 1;
            let acc = accs.entry(slab).or_default();
            acc.seen += 1;
            // Identify the phase behind the sample. Chip instruction
            // rate and achieved traffic follow from JPI and power;
            // inverting the package-power model for the core-dynamic
            // term yields the mean pipeline utilization, which splits
            // the observed seconds/instruction into its pipeline and
            // exposed-stall components.
            let r_inst = s.watts / s.jpi;
            let spi = n / r_inst;
            let traffic = (r_inst * s.tipi * LINE_BYTES / perf.dram_peak_bw).clamp(0.0, 1.0);
            let vc = power.v_core.volts(s.cf);
            let vu = power.v_uncore.volts(s.uf);
            let act = power.act_floor + power.act_slope * traffic;
            let core_watts = s.watts
                - power.p_base
                - power.s_uncore * vu * vu
                - power.k_uncore * vu * vu * s.uf.hz() * act;
            if core_watts <= 0.0 {
                continue;
            }
            let eff = core_watts / (power.k_core * vc * vc * s.cf.hz()) / n;
            let util = ((eff - power.halt_fraction) / (1.0 - power.halt_fraction)).clamp(0.0, 1.0);
            let compute = util * spi;
            let stall = spi - compute;
            let cpi = compute * s.cf.hz();
            if !(cpi.is_finite() && cpi > 0.0 && stall.is_finite() && stall >= 0.0) {
                continue;
            }
            acc.ok += 1;
            acc.tipi += s.tipi;
            acc.cpi += cpi;
            // The latency-stall coefficient is only identifiable when
            // the sample ran below the bandwidth roofline; saturated
            // samples observe `stall_lat · overload`, which any
            // latency value is consistent with.
            let achieved = r_inst * s.tipi * LINE_BYTES;
            if achieved < SATURATED * perf.bandwidth_cap(s.uf) {
                acc.stall1 += stall / perf.t_miss_local(s.uf);
                acc.stall1_n += 1;
            }
        }

        let mut entries = Vec::new();
        for (slab, acc) in &accs {
            if acc.ok == 0 || (acc.seen as f64) < params.min_share * total as f64 {
                continue;
            }
            let k = acc.ok as f64;
            let phase = Phase {
                tipi: acc.tipi / k,
                cpi: acc.cpi / k,
                stall1: if acc.stall1_n > 0 {
                    acc.stall1 / acc.stall1_n as f64
                } else {
                    (acc.tipi / k) / FALLBACK_MLP
                },
            };
            let (cf, uf) = argmin_jpi(spec, perf, power, &phase);
            entries.push(OracleEntry {
                slab: TipiSlab(*slab),
                cf,
                uf,
            });
        }
        let table = OracleTable {
            slab_width: params.slab_width,
            tinv_ns: params.tinv_ns,
            entries,
        };
        table.validate().map_err(|e| {
            format!("trace yields no usable oracle table ({total} samples considered): {e}")
        })?;
        Ok(table)
    }
}

/// An identified phase: mean TIPI, pipeline cycles per instruction,
/// and exposed stall per unit miss latency.
struct Phase {
    tipi: f64,
    cpi: f64,
    stall1: f64,
}

/// Predicted steady-state JPI of an identified phase at operating
/// point `(cf, uf)`: latency-bound time per instruction under the
/// bandwidth roofline, times the package power the machine burns
/// sustaining it.
fn predict_jpi(
    spec: &MachineSpec,
    perf: &PerfModel,
    power: &PowerModel,
    phase: &Phase,
    cf: Freq,
    uf: Freq,
) -> f64 {
    let n = spec.n_cores as f64;
    let t_lat = phase.cpi / cf.hz() + phase.stall1 * perf.t_miss_local(uf);
    let t_bw = if phase.tipi > 0.0 {
        n * phase.tipi * LINE_BYTES / perf.bandwidth_cap(uf)
    } else {
        0.0
    };
    let t = t_lat.max(t_bw);
    let util = (phase.cpi / cf.hz()) / t;
    let eff_sum = n * power.core_effective(util);
    let traffic = ((n * phase.tipi * LINE_BYTES / t) / perf.dram_peak_bw).clamp(0.0, 1.0);
    let watts = power.package_watts(cf, uf, eff_sum, traffic);
    watts * t / n
}

/// The operating point the paper's search settles on for an identified
/// phase, via the same coordinate order Cuttlefish explores in: the
/// core axis first with the uncore at max (Algorithm 2), then the
/// uncore axis at the resolved core optimum (Algorithm 3). This is
/// what Table 2 reports — and it can differ by a ratio step from the
/// joint argmin, exactly as a real sequential search does. Sweeps are
/// ascending with a strict-less comparison, so ties resolve to the
/// lower frequency — deterministic.
fn argmin_jpi(
    spec: &MachineSpec,
    perf: &PerfModel,
    power: &PowerModel,
    phase: &Phase,
) -> (Freq, Freq) {
    let sweep = |freqs: &mut dyn Iterator<Item = (Freq, Freq)>| -> (Freq, Freq) {
        let mut best = (spec.core.max(), spec.uncore.max());
        let mut best_jpi = f64::INFINITY;
        for (cf, uf) in freqs {
            let jpi = predict_jpi(spec, perf, power, phase, cf, uf);
            if jpi < best_jpi {
                best = (cf, uf);
                best_jpi = jpi;
            }
        }
        best
    };
    let (cf_opt, _) = sweep(&mut spec.core.iter().map(|cf| (cf, spec.uncore.max())));
    sweep(&mut spec.uncore.iter().map(|uf| (cf_opt, uf)))
}

/// The static-oracle controller: wakes every `Tinv` like the
/// Cuttlefish daemon, identifies the last interval's TIPI range, and
/// sets the operating point its [`OracleTable`] prescribes — no
/// search, no exploration cost. This is the paper's §5 comparison
/// baseline: Cuttlefish's claim is that its *online* linear descent
/// matches the energy savings of exactly this statically-known table.
///
/// The `Tinv` wake-up is a scheduled event on the engine's virtual
/// clock (epoch-anchored `next_tick_ns`, like [`CuttlefishDriver`]):
/// between ticks `on_quantum` is a pure time comparison, so
/// [`idle_quanta_capacity`](FrequencyController::idle_quanta_capacity)
/// reports the stretch up to (but excluding) the next tick and idle
/// fast-forwarding stays bit-exact.
///
/// ```
/// use cuttlefish::controller::{FrequencyController, NodePolicy, Oracle, OracleEntry, OracleTable};
/// use cuttlefish::TipiSlab;
/// use simproc::engine::{Chunk, Workload};
/// use simproc::freq::{Freq, HASWELL_2650V3};
/// use simproc::perf::CostProfile;
///
/// // A memory-bound stream; the table prescribes the Table 2 point.
/// struct Stream;
/// impl Workload for Stream {
///     fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
///         Some(Chunk::new(1_000_000, 56_000, 8_000).with_profile(CostProfile::new(0.55, 12.0)))
///     }
///     fn is_done(&self) -> bool { false }
/// }
/// let table = OracleTable {
///     slab_width: 0.004,
///     tinv_ns: 20_000_000,
///     entries: vec![OracleEntry { slab: TipiSlab(16), cf: Freq(12), uf: Freq(22) }],
/// };
/// let mut proc = simproc::SimProcessor::new(HASWELL_2650V3.clone());
/// let mut ctrl = NodePolicy::Oracle(table).build(&mut proc);
/// let mut wl = Stream;
/// for _ in 0..100 {
///     proc.step(&mut wl);
///     ctrl.on_quantum(&mut proc);
/// }
/// // After the first profile tick the oracle point is applied.
/// assert_eq!(proc.core_freq(), Freq(12));
/// assert_eq!(proc.uncore_freq(), Freq(22));
/// ```
#[derive(Debug, Clone)]
pub struct Oracle {
    table: OracleTable,
    quantum_ns: u64,
    /// `Tinv` quantized to whole quanta, in ns (≥ one quantum).
    tinv_step_ns: u64,
    epoch_ns: Option<u64>,
    next_tick_ns: u64,
    last: Option<CounterSnapshot>,
    /// Per-entry tick attributions (parallel to `table.entries`).
    hits: Vec<u64>,
    ticks: u64,
}

impl Oracle {
    /// Controller for `proc` replaying `table`.
    ///
    /// # Panics
    /// Panics on an invalid table ([`OracleTable::validate`]) — file
    /// and scenario paths validate before construction.
    pub fn new(proc: &SimProcessor, table: OracleTable) -> Self {
        table
            .validate()
            .unwrap_or_else(|e| panic!("invalid oracle table: {e}"));
        let quantum_ns = proc.spec().quantum_ns;
        let hits = vec![0; table.entries.len()];
        let tinv_step_ns = (table.tinv_ns / quantum_ns).max(1) * quantum_ns;
        Oracle {
            table,
            quantum_ns,
            tinv_step_ns,
            epoch_ns: None,
            next_tick_ns: 0,
            last: None,
            hits,
            ticks: 0,
        }
    }

    /// [`OracleTable::from_trace`], wrapped into a ready controller.
    pub fn from_trace(
        proc: &SimProcessor,
        samples: &[TraceSample],
        params: &OracleDerivation,
    ) -> Result<Self, String> {
        let table = OracleTable::from_trace(
            samples,
            proc.spec(),
            proc.perf_model(),
            proc.power_model(),
            params,
        )?;
        Ok(Oracle::new(proc, table))
    }

    /// The table being replayed.
    pub fn table(&self) -> &OracleTable {
        &self.table
    }
}

impl FrequencyController for Oracle {
    fn on_quantum(&mut self, proc: &mut SimProcessor) {
        let now_ns = proc.now_ns();
        if self.epoch_ns.is_none() {
            // Anchor the tick schedule one quantum back (the step that
            // just ran), exactly like the Cuttlefish driver; the
            // machine keeps its boot operating point until the first
            // profiled interval identifies the phase.
            let epoch = now_ns.saturating_sub(self.quantum_ns);
            self.epoch_ns = Some(epoch);
            self.next_tick_ns = epoch + self.tinv_step_ns;
            self.last = CounterSnapshot::capture(proc).ok();
            return;
        }
        if now_ns < self.next_tick_ns {
            return;
        }
        while self.next_tick_ns <= now_ns {
            self.next_tick_ns += self.tinv_step_ns;
        }
        let now = match CounterSnapshot::capture(proc) {
            Ok(s) => s,
            Err(_) => return,
        };
        if let Some(prev) = self.last.replace(now) {
            if let Some(sample) = delta(&prev, &now) {
                let slab = TipiSlab::quantize(sample.tipi, self.table.slab_width);
                let idx = self.table.nearest(slab);
                self.hits[idx] += 1;
                self.ticks += 1;
                let entry = self.table.entries[idx];
                proc.set_core_freq(entry.cf);
                proc.set_uncore_freq(entry.uf);
            }
        }
    }

    fn report(&self) -> Vec<NodeReport> {
        let total = self.ticks.max(1) as f64;
        self.table
            .entries
            .iter()
            .zip(&self.hits)
            .map(|(e, &hits)| NodeReport {
                slab: e.slab,
                label: e.slab.label(self.table.slab_width),
                cf_opt: Some(e.cf),
                uf_opt: Some(e.uf),
                occurrences: hits,
                share: hits as f64 / total,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        // Between ticks on_quantum is a pure clock comparison; the
        // tick itself (a counter snapshot feeding the next interval's
        // delta) must run for real.
        if self.epoch_ns.is_none() {
            return 0;
        }
        let now_ns = proc.now_ns();
        if self.next_tick_ns <= now_ns {
            return 0;
        }
        (self.next_tick_ns - now_ns) / self.quantum_ns - 1
    }
    // note_idle_quanta: nothing to replay — the tick schedule is
    // anchored to the engine's virtual clock, not to call counts.

    fn busy_quanta_capacity(&self, proc: &SimProcessor, _horizon_quanta: u64) -> u64 {
        // Same bound as idle: between ticks on_quantum is a pure clock
        // comparison whatever the machine is doing, and the busy
        // advance replays workload interactions exactly, so the
        // engine's telemetry horizon is irrelevant here.
        self.idle_quanta_capacity(proc)
    }
    // note_busy_quanta: nothing to replay either, for the same reason.
}

/// Gains and setpoint of the [`PidUncore`] feedback loop.
///
/// The controlled variable is the fraction of the uncore's sustainable
/// bandwidth the workload actually achieves
/// (`achieved_bw / (bw_per_uncore_ghz · UF)`, in `0..=1`): driving it
/// to `setpoint` keeps the uncore just fast enough that memory traffic
/// retains `1 − setpoint` headroom, instead of exploring for the JPI
/// minimum like Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidGains {
    /// Proportional gain, ratio steps per unit error.
    pub kp: f64,
    /// Integral gain, ratio steps per unit accumulated error.
    pub ki: f64,
    /// Derivative gain, ratio steps per unit error slope.
    pub kd: f64,
    /// Target bandwidth-utilization fraction, in `(0, 1]`.
    pub setpoint: f64,
}

impl Default for PidGains {
    fn default() -> Self {
        PidGains {
            kp: 8.0,
            ki: 0.4,
            kd: 0.0,
            setpoint: 0.9,
        }
    }
}

impl PidGains {
    /// Check the invariants [`PidUncore`] relies on.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [("kp", self.kp), ("ki", self.ki), ("kd", self.kd)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("PID gain {name} must be finite and >= 0, got {v}"));
            }
        }
        if !(self.setpoint.is_finite() && self.setpoint > 0.0 && self.setpoint <= 1.0) {
            return Err(format!(
                "PID setpoint must lie in (0, 1], got {}",
                self.setpoint
            ));
        }
        Ok(())
    }
}

/// Anti-windup clamp on the PID integral term, in error·quanta.
const PID_INTEGRAL_CLAMP: f64 = 25.0;

/// A feedback-control alternative to Algorithm 3's uncore exploration
/// window: a per-quantum PID loop drives the uncore so that achieved
/// memory traffic sits at a fixed fraction of the uncore's sustainable
/// bandwidth, while core DVFS is delegated unchanged to the Cuttlefish
/// core search (a [`CuttlefishDriver`] running `Policy::CoreOnly` —
/// its tick-scheduled uncore write is overridden every quantum by the
/// loop, so the PID owns that knob).
///
/// ```
/// use cuttlefish::controller::{FrequencyController, NodePolicy, PidGains};
/// use cuttlefish::Config;
/// use simproc::engine::{Chunk, Workload};
/// use simproc::freq::HASWELL_2650V3;
/// use simproc::perf::CostProfile;
///
/// struct Stream;
/// impl Workload for Stream {
///     fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
///         Some(Chunk::new(1_000_000, 56_000, 8_000).with_profile(CostProfile::new(0.55, 12.0)))
///     }
///     fn is_done(&self) -> bool { false }
/// }
/// let mut proc = simproc::SimProcessor::new(HASWELL_2650V3.clone());
/// let mut ctrl = NodePolicy::PidUncore {
///     config: Config::default(),
///     gains: PidGains::default(),
/// }
/// .build(&mut proc);
/// let mut wl = Stream;
/// for _ in 0..600 {
///     proc.step(&mut wl);
///     ctrl.on_quantum(&mut proc);
/// }
/// // Saturating traffic settles the uncore near the bandwidth knee,
/// // well below max — without any exploration.
/// assert!(proc.uncore_freq() < HASWELL_2650V3.uncore.max());
/// ```
#[derive(Debug)]
pub struct PidUncore {
    gains: PidGains,
    core: CuttlefishDriver,
    /// Continuous uncore setting, in ratio units (rounded on write).
    level: f64,
    integral: f64,
    last_err: f64,
    quanta: u64,
}

impl PidUncore {
    /// Controller for `proc`: PID on the uncore, Cuttlefish core-only
    /// search (from `config`, its policy forced to `CoreOnly`) on the
    /// cores.
    ///
    /// # Panics
    /// Panics on invalid gains ([`PidGains::validate`]) — file and
    /// scenario paths validate before construction.
    pub fn new(proc: &SimProcessor, config: Config, gains: PidGains) -> Self {
        gains
            .validate()
            .unwrap_or_else(|e| panic!("invalid PID gains: {e}"));
        let core = CuttlefishDriver::new(proc, config.with_policy(Policy::CoreOnly));
        PidUncore {
            gains,
            core,
            level: f64::from(proc.uncore_freq().0),
            integral: 0.0,
            last_err: 0.0,
            quanta: 0,
        }
    }

    /// The gains in effect.
    pub fn gains(&self) -> &PidGains {
        &self.gains
    }

    /// The error signal at the current machine state. The controlled
    /// variable is traffic relative to the *uncore-sustainable*
    /// bandwidth (`bw_per_uncore_ghz · UF`), deliberately not the
    /// DRAM-capped roofline: a workload pinned at the DRAM peak can
    /// never fall below a setpoint measured against the capped value,
    /// which would wind the loop up to max instead of settling it just
    /// above the knee with `1 − setpoint` headroom.
    fn error(&self, proc: &SimProcessor) -> f64 {
        let sustainable = proc.perf_model().bw_per_uncore_ghz * proc.uncore_freq().ghz();
        let measured = if sustainable > 0.0 {
            (proc.last_quantum().achieved_bw / sustainable).clamp(0.0, 1.0)
        } else {
            0.0
        };
        measured - self.gains.setpoint
    }

    /// True when, on a fully-parked machine, every further
    /// `on_quantum` would be idempotent: zero signals, the integral
    /// saturated at its anti-windup clamp, the continuous level (and
    /// the machine) pinned at the domain floor, and the derivative
    /// term zero. From this absorbing state only the quanta counter
    /// advances, which `note_idle_quanta` replays.
    fn is_idle_stable(&self, proc: &SimProcessor) -> bool {
        let stats = proc.last_quantum();
        let err = -self.gains.setpoint;
        let floor = f64::from(proc.spec().uncore.min().0);
        stats.instructions == 0.0
            && stats.achieved_bw == 0.0
            && self.integral == -PID_INTEGRAL_CLAMP
            && self.last_err == err
            && self.level == floor
            && proc.uncore_freq() == proc.spec().uncore.min()
    }
}

impl FrequencyController for PidUncore {
    fn on_quantum(&mut self, proc: &mut SimProcessor) {
        // Core search first: on its Tinv ticks the driver writes both
        // knobs (CoreOnly pins the uncore request at max); the PID
        // write below lands after it, so the uncore knob is always the
        // loop's.
        self.core.on_quantum(proc);
        let err = self.error(proc);
        self.integral = (self.integral + err).clamp(-PID_INTEGRAL_CLAMP, PID_INTEGRAL_CLAMP);
        let derivative = err - self.last_err;
        self.last_err = err;
        let u = self.gains.kp * err + self.gains.ki * self.integral + self.gains.kd * derivative;
        let dom = &proc.spec().uncore;
        self.level = (self.level + u).clamp(f64::from(dom.min().0), f64::from(dom.max().0));
        proc.set_uncore_freq(Freq(self.level.round() as u32));
        self.quanta += 1;
    }

    fn report(&self) -> Vec<NodeReport> {
        // The core search's discovered ranges (CF optima); the uncore
        // is feedback-tracked, not per-range resolved.
        self.core.daemon().report()
    }

    fn name(&self) -> &'static str {
        "PidUncore"
    }

    fn resolved_fractions(&self) -> (f64, f64) {
        self.core.daemon().resolved_fractions()
    }

    fn stop(&mut self, proc: &mut SimProcessor) {
        self.core.stop(proc);
    }

    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        // Both halves must consent: the PID from its absorbing idle
        // fixed point, the core driver up to its next scheduled tick.
        if self.is_idle_stable(proc) {
            self.core.idle_quanta_capacity(proc)
        } else {
            0
        }
    }

    fn note_idle_quanta(&mut self, quanta: u64) {
        // The PID state is absorbing at the fixed point (the integral
        // sits exactly on its clamp, the error is constant, the level
        // exactly on the floor); only the quanta count advances. The
        // core driver's schedule is clock-anchored — nothing to replay.
        self.quanta += quanta;
    }

    fn busy_quanta_capacity(&self, _proc: &SimProcessor, _horizon_quanta: u64) -> u64 {
        // 0 by design, not by omission: a per-quantum PID has no busy
        // fixed point. While traffic is nonzero every quantum folds a
        // fresh error into the integral (and derivative) state and the
        // continuous `level` may cross a rounding boundary on any of
        // them — there is nothing a capacity could certify as a no-op,
        // so the loop legitimately cannot fast-forward while busy and
        // always steps for real. (Idle is different: the anti-windup
        // clamp makes the parked state absorbing.)
        0
    }
}

/// Frequency policy for a node — the factory input shared by the
/// evaluation harness, the cluster simulator, and the examples.
///
/// The policy is plain data (`Clone + PartialEq`): the grid runner in
/// `bench::grid` embeds it in per-cell scenario descriptors that cross
/// thread boundaries and round-trip through JSON artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum NodePolicy {
    /// `performance` governor + firmware Auto uncore.
    Default,
    /// One Cuttlefish instance with this configuration.
    Cuttlefish(Config),
    /// Both domains pinned at a fixed operating point.
    Pinned {
        /// Core frequency to pin.
        cf: Freq,
        /// Uncore frequency to pin.
        uf: Freq,
    },
    /// The ondemand/schedutil-style utilization-proportional governor.
    Ondemand,
    /// The static per-phase operating-point oracle (Table 2 replay).
    Oracle(OracleTable),
    /// PID uncore tracking over a Cuttlefish core-only search.
    PidUncore {
        /// Configuration of the delegated core search (its policy is
        /// forced to `CoreOnly` at build time).
        config: Config,
        /// Gains and setpoint of the uncore loop.
        gains: PidGains,
    },
}

impl NodePolicy {
    /// Display name of the controller this policy builds.
    pub fn name(&self) -> &'static str {
        match self {
            NodePolicy::Default => "Default",
            NodePolicy::Cuttlefish(cfg) => cfg.policy.name(),
            NodePolicy::Pinned { .. } => "Pinned",
            NodePolicy::Ondemand => "Ondemand",
            NodePolicy::Oracle(_) => "Oracle",
            NodePolicy::PidUncore { .. } => "PidUncore",
        }
    }

    /// Check the policy's own parameters (oracle tables, PID gains).
    /// Scenario validation and the JSON decoders report violations as
    /// errors; [`build`](Self::build) panics on them.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            NodePolicy::Oracle(table) => table.validate(),
            NodePolicy::PidUncore { gains, .. } => gains.validate(),
            _ => Ok(()),
        }
    }

    /// Build the controller for `proc`.
    ///
    /// Takes the processor mutably so controllers that need an initial
    /// actuation can apply it before the first quantum runs: `Pinned`
    /// sets its operating point here (the Figure 3 sweeps measure from
    /// the very first quantum), while `Cuttlefish` keeps its lazy
    /// Algorithm 1 line 2 behaviour (max frequencies on the first
    /// `on_quantum`), bit-identical with driving [`CuttlefishDriver`]
    /// directly.
    pub fn build(&self, proc: &mut SimProcessor) -> Box<dyn FrequencyController> {
        match self {
            NodePolicy::Default => Box::new(DefaultGovernor::new()),
            NodePolicy::Cuttlefish(cfg) => Box::new(CuttlefishDriver::new(proc, cfg.clone())),
            NodePolicy::Pinned { cf, uf } => {
                proc.set_core_freq(*cf);
                proc.set_uncore_freq(*uf);
                Box::new(Pinned::new(*cf, *uf))
            }
            NodePolicy::Ondemand => Box::new(Ondemand::new()),
            NodePolicy::Oracle(table) => Box::new(Oracle::new(proc, table.clone())),
            NodePolicy::PidUncore { config, gains } => {
                Box::new(PidUncore::new(proc, config.clone(), *gains))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Policy;
    use simproc::engine::{Chunk, Workload};
    use simproc::freq::HASWELL_2650V3;
    use simproc::perf::CostProfile;

    struct Steady(Chunk);
    impl Workload for Steady {
        fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
            Some(self.0.clone())
        }
        fn is_done(&self) -> bool {
            false
        }
    }

    fn memory_chunk() -> Chunk {
        Chunk::new(1_000_000, 56_000, 8_000).with_profile(CostProfile::new(0.55, 12.0))
    }

    #[test]
    fn factory_names_match_policies() {
        assert_eq!(NodePolicy::Default.name(), "Default");
        assert_eq!(
            NodePolicy::Cuttlefish(Config::default()).name(),
            "Cuttlefish"
        );
        assert_eq!(
            NodePolicy::Cuttlefish(Config::default().with_policy(Policy::CoreOnly)).name(),
            "Cuttlefish-Core"
        );
        let pinned = NodePolicy::Pinned {
            cf: Freq(12),
            uf: Freq(22),
        };
        assert_eq!(pinned.name(), "Pinned");
    }

    #[test]
    fn built_controllers_report_uniformly() {
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        for policy in [
            NodePolicy::Default,
            NodePolicy::Cuttlefish(Config::default()),
            NodePolicy::Pinned {
                cf: Freq(15),
                uf: Freq(20),
            },
        ] {
            let mut ctrl = policy.build(&mut proc);
            let mut wl = Steady(memory_chunk());
            for _ in 0..50 {
                proc.step(&mut wl);
                ctrl.on_quantum(&mut proc);
            }
            assert_eq!(ctrl.name(), policy.name());
            // Uniform contract: a report is never empty (the Cuttlefish
            // daemon is still in warm-up here, so its list is empty and
            // report() returns no ranges — that is the one exception and
            // it resolves once samples arrive; static controllers always
            // report their synthetic range).
            if !matches!(policy, NodePolicy::Cuttlefish(_)) {
                assert!(!ctrl.report().is_empty(), "{} report empty", ctrl.name());
            }
        }
    }

    #[test]
    fn pinned_holds_its_operating_point() {
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::Pinned {
            cf: Freq(15),
            uf: Freq(20),
        }
        .build(&mut proc);
        let mut wl = Steady(memory_chunk());
        for _ in 0..200 {
            proc.step(&mut wl);
            ctrl.on_quantum(&mut proc);
        }
        assert_eq!(proc.core_freq(), Freq(15));
        assert_eq!(proc.uncore_freq(), Freq(20));
        // The pin is applied at build time: the residency map must
        // contain only the pinned point.
        assert_eq!(proc.frequency_residency().len(), 1);
        let ((cf, uf), _) = proc.frequency_residency().iter().next().unwrap();
        assert_eq!((*cf, *uf), (15, 20));
        let (rc, ru) = ctrl.resolved_fractions();
        assert_eq!((rc, ru), (1.0, 1.0));
    }

    #[test]
    fn ondemand_tracks_the_bound_resource() {
        // Memory-bound streaming: cores stall, so CF sinks well below
        // max while the uncore chases the saturated traffic signal.
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::Ondemand.build(&mut proc);
        let mut wl = Steady(memory_chunk());
        for _ in 0..400 {
            proc.step(&mut wl);
            ctrl.on_quantum(&mut proc);
        }
        assert!(
            proc.core_freq() < Freq(20),
            "stalled cores must not stay near max, got {}",
            proc.core_freq()
        );
        assert!(
            proc.uncore_freq() > Freq(25),
            "saturated traffic must raise the uncore, got {}",
            proc.uncore_freq()
        );
        assert_eq!(ctrl.name(), "Ondemand");
        let report = ctrl.report();
        assert_eq!(report.len(), 1);
        assert!(report[0].occurrences >= 400);

        // Compute-bound: pipeline saturated, no traffic — CF at max,
        // uncore at the floor.
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::Ondemand.build(&mut proc);
        let compute = Chunk::new(1_000_000, 0, 0).with_profile(CostProfile::new(1.0, 6.0));
        let mut wl = Steady(compute);
        for _ in 0..400 {
            proc.step(&mut wl);
            ctrl.on_quantum(&mut proc);
        }
        assert_eq!(proc.core_freq(), HASWELL_2650V3.core.max());
        assert_eq!(proc.uncore_freq(), HASWELL_2650V3.uncore.min());
    }

    #[test]
    fn ondemand_idle_fast_forward_matches_stepping() {
        struct Never;
        impl Workload for Never {
            fn next_chunk(&mut self, _: usize, _: u64) -> Option<Chunk> {
                None
            }
            fn is_done(&self) -> bool {
                true
            }
            fn next_wake_ns(&self, _: u64) -> Option<u64> {
                None
            }
        }
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = Ondemand::new();
        let mut wl = Steady(memory_chunk());
        for _ in 0..100 {
            proc.step(&mut wl);
            FrequencyController::on_quantum(&mut ctrl, &mut proc);
        }
        // Busy machine: must be stepped for real.
        assert_eq!(ctrl.idle_quanta_capacity(&proc), 0);
        // Idle down to the fixed point by real stepping.
        let mut guard = 0;
        while ctrl.idle_quanta_capacity(&proc) == 0 {
            proc.step(&mut Never);
            FrequencyController::on_quantum(&mut ctrl, &mut proc);
            guard += 1;
            assert!(guard < 1000, "ondemand must reach its idle fixed point");
        }
        // From the fixed point, skipping equals stepping bit for bit.
        let mut p2 = proc.clone();
        let mut c2 = ctrl.clone();
        for _ in 0..37 {
            proc.step(&mut Never);
            FrequencyController::on_quantum(&mut ctrl, &mut proc);
        }
        p2.advance_idle_quanta(37);
        c2.note_idle_quanta(37);
        assert_eq!(proc.core_freq(), p2.core_freq());
        assert_eq!(proc.uncore_freq(), p2.uncore_freq());
        assert_eq!(
            proc.total_energy_joules().to_bits(),
            p2.total_energy_joules().to_bits()
        );
        assert_eq!(ctrl.quanta, c2.quanta);
    }

    #[test]
    fn ondemand_busy_fast_forward_matches_stepping() {
        // Compute-bound stream: zero traffic (exactly, every quantum)
        // and overload exactly 1.0, so the busy fixed point is
        // drift-free once the rate limit has walked both domains onto
        // their targets.
        let compute = Chunk::new(1_000_000, 0, 0).with_profile(CostProfile::new(1.0, 6.0));
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = Ondemand::new();
        let mut wl = Steady(compute);
        proc.step(&mut wl);
        FrequencyController::on_quantum(&mut ctrl, &mut proc);
        // One quantum in, the uncore is still ramping down: no capacity.
        assert_eq!(ctrl.busy_quanta_capacity(&proc, 1_000), 0);
        for _ in 0..400 {
            proc.step(&mut wl);
            FrequencyController::on_quantum(&mut ctrl, &mut proc);
        }
        // At the fixed point the capacity is exactly the offered
        // horizon — telemetry-driven governors must not exceed it.
        assert_eq!(ctrl.busy_quanta_capacity(&proc, 123), 123);
        let mut p2 = proc.clone();
        let mut c2 = ctrl.clone();
        let mut wl2 = Steady(Chunk::new(1_000_000, 0, 0).with_profile(CostProfile::new(1.0, 6.0)));
        for _ in 0..37 {
            proc.step(&mut wl);
            FrequencyController::on_quantum(&mut ctrl, &mut proc);
        }
        assert_eq!(p2.advance_busy_quanta(&mut wl2, 37), 37);
        c2.note_busy_quanta(37, &p2);
        assert_eq!(proc.core_freq(), p2.core_freq());
        assert_eq!(proc.uncore_freq(), p2.uncore_freq());
        assert_eq!(
            proc.total_energy_joules().to_bits(),
            p2.total_energy_joules().to_bits()
        );
        assert_eq!(
            proc.total_instructions().to_bits(),
            p2.total_instructions().to_bits()
        );
        assert_eq!(ctrl.quanta, c2.quanta);
    }

    #[test]
    fn drive_quanta_fast_forwards_busy_stretches_under_pinned() {
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::Pinned {
            cf: Freq(15),
            uf: Freq(20),
        }
        .build(&mut proc);
        let mut wl = Steady(memory_chunk());
        let done = drive_quanta(&mut proc, &mut wl, ctrl.as_mut(), 500);
        assert_eq!(done, 500, "a non-draining workload consumes the budget");
        assert_eq!(proc.total_quanta(), 500);
        assert!(
            proc.busy_advanced_quanta() >= 490,
            "the applied pin must fast-forward nearly everything, stepped {}",
            proc.stepped_quanta()
        );
        // The report's quanta count survives the fast path.
        assert_eq!(ctrl.report()[0].occurrences, 500);
        assert_eq!(proc.core_freq(), Freq(15));
        assert_eq!(proc.uncore_freq(), Freq(20));
    }

    #[test]
    fn pid_uncore_never_grants_busy_capacity() {
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::PidUncore {
            config: Config::default(),
            gains: PidGains::default(),
        }
        .build(&mut proc);
        let mut wl = Steady(memory_chunk());
        for _ in 0..200 {
            proc.step(&mut wl);
            ctrl.on_quantum(&mut proc);
        }
        // By design: a per-quantum PID cannot fast-forward while busy.
        assert_eq!(ctrl.busy_quanta_capacity(&proc, u64::MAX), 0);
    }

    /// The Table 2 memory-bound operating point (driver tests pin the
    /// same ranges on the same chunks).
    fn memory_table() -> OracleTable {
        OracleTable {
            slab_width: 0.004,
            tinv_ns: 20_000_000,
            entries: vec![OracleEntry {
                slab: TipiSlab(16),
                cf: Freq(12),
                uf: Freq(22),
            }],
        }
    }

    #[test]
    fn oracle_table_validation_rejects_bad_shapes() {
        assert!(memory_table().validate().is_ok());
        let empty = OracleTable {
            entries: Vec::new(),
            ..memory_table()
        };
        assert!(empty.validate().is_err());
        let bad_width = OracleTable {
            slab_width: 0.0,
            ..memory_table()
        };
        assert!(bad_width.validate().is_err());
        let mut dup = memory_table();
        dup.entries.push(dup.entries[0]);
        assert!(dup.validate().is_err());
        let mut zero = memory_table();
        zero.entries[0].cf = Freq(0);
        assert!(zero.validate().is_err());
    }

    #[test]
    fn oracle_nearest_resolves_unknown_slabs() {
        let table = OracleTable {
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
            ..memory_table()
        };
        assert_eq!(table.nearest(TipiSlab(0)), 0);
        assert_eq!(table.nearest(TipiSlab(3)), 0);
        assert_eq!(table.nearest(TipiSlab(14)), 1);
        assert_eq!(table.nearest(TipiSlab(40)), 1);
        // Equidistant resolves to the lower slab.
        assert_eq!(table.nearest(TipiSlab(8)), 0);
    }

    #[test]
    fn oracle_replays_its_table_and_reports_it() {
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::Oracle(memory_table()).build(&mut proc);
        let mut wl = Steady(memory_chunk());
        // Before the first tick the boot operating point holds.
        for _ in 0..10 {
            proc.step(&mut wl);
            ctrl.on_quantum(&mut proc);
        }
        assert_eq!(proc.core_freq(), Freq(23));
        for _ in 0..200 {
            proc.step(&mut wl);
            ctrl.on_quantum(&mut proc);
        }
        assert_eq!(proc.core_freq(), Freq(12), "table point applied");
        assert_eq!(proc.uncore_freq(), Freq(22));
        assert_eq!(ctrl.name(), "Oracle");
        let report = ctrl.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].cf_opt, Some(Freq(12)));
        assert_eq!(report[0].uf_opt, Some(Freq(22)));
        assert!(report[0].occurrences >= 9, "one hit per Tinv tick");
        assert_eq!(ctrl.resolved_fractions(), (1.0, 1.0));
    }

    #[test]
    fn oracle_idle_capacity_stops_at_the_next_tick() {
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::Oracle(memory_table()).build(&mut proc);
        assert_eq!(ctrl.idle_quanta_capacity(&proc), 0, "pre-epoch");
        let mut wl = Steady(memory_chunk());
        proc.step(&mut wl);
        ctrl.on_quantum(&mut proc);
        // Epoch anchored one quantum back; 20 ms tick = 20 quanta, so
        // 18 whole quanta may pass before the tick must run for real.
        assert_eq!(ctrl.idle_quanta_capacity(&proc), 18);
        // The busy bound is the same tick schedule — the horizon
        // argument is irrelevant for a clock-scheduled controller.
        assert_eq!(ctrl.busy_quanta_capacity(&proc, 3), 18);
    }

    /// `from_trace` must rediscover Table 2's settling points — the
    /// very frequencies the Cuttlefish driver converges to on the same
    /// chunks (see `driver::tests`) — from nothing but a traced
    /// Default-governor run.
    #[test]
    fn oracle_from_trace_reproduces_table2_settling_points() {
        /// Phase-alternating workload: 0.5 s streaming, 0.5 s compute.
        struct Phased;
        impl Workload for Phased {
            fn next_chunk(&mut self, _c: usize, t: u64) -> Option<Chunk> {
                if (t / 500_000_000).is_multiple_of(2) {
                    Some(memory_chunk())
                } else {
                    Some(Chunk::new(1_000_000, 800, 200).with_profile(CostProfile::new(0.9, 4.0)))
                }
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut gov = DefaultGovernor::new();
        let mut wl = Phased;
        let mut last = CounterSnapshot::capture(&proc).unwrap();
        let mut samples = Vec::new();
        for q in 1..=8_000u64 {
            proc.step(&mut wl);
            gov.on_quantum(&mut proc);
            if q.is_multiple_of(20) {
                let now = CounterSnapshot::capture(&proc).unwrap();
                if let Some(s) = delta(&last, &now) {
                    samples.push(TraceSample {
                        tipi: s.tipi,
                        jpi: s.jpi,
                        watts: proc.last_quantum().power_watts,
                        cf: proc.core_freq(),
                        uf: proc.uncore_freq(),
                    });
                }
                last = now;
            }
        }
        let oracle =
            Oracle::from_trace(&proc, &samples, &OracleDerivation::default()).expect("derives");
        let table = oracle.table();
        // Memory-bound phase (TIPI 0.064, slab 16): Table 2's Heat-like
        // settling point — cores driven down, uncore at the knee.
        let mem = table
            .entries
            .iter()
            .find(|e| e.slab == TipiSlab(16))
            .expect("frequent memory-bound slab derived");
        assert!(mem.cf <= Freq(14), "CFopt driven down, got {}", mem.cf);
        assert!(
            (Freq(20)..=Freq(24)).contains(&mem.uf),
            "UFopt at the knee, got {}",
            mem.uf
        );
        // Compute-bound phase (TIPI 0.001, slab 0): UTS-like — CF at
        // max (race to idle), uncore at its floor.
        let comp = table
            .entries
            .iter()
            .find(|e| e.slab == TipiSlab(0))
            .expect("frequent compute-bound slab derived");
        assert_eq!(comp.cf, Freq(23), "CFopt pinned at max");
        assert!(comp.uf <= Freq(14), "UFopt at the floor, got {}", comp.uf);
    }

    #[test]
    fn pid_gains_validation_rejects_bad_shapes() {
        assert!(PidGains::default().validate().is_ok());
        for bad in [
            PidGains {
                kp: f64::NAN,
                ..PidGains::default()
            },
            PidGains {
                ki: -1.0,
                ..PidGains::default()
            },
            PidGains {
                setpoint: 0.0,
                ..PidGains::default()
            },
            PidGains {
                setpoint: 1.5,
                ..PidGains::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn pid_uncore_tracks_traffic_and_delegates_core_search() {
        // Memory-bound streaming: the loop settles the uncore well
        // below max (bandwidth headroom instead of max clocking).
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::PidUncore {
            config: Config {
                warmup_ns: 500_000_000,
                ..Config::default()
            },
            gains: PidGains::default(),
        }
        .build(&mut proc);
        let mut wl = Steady(memory_chunk());
        for _ in 0..6_000 {
            proc.step(&mut wl);
            ctrl.on_quantum(&mut proc);
        }
        assert_eq!(ctrl.name(), "PidUncore");
        assert!(
            proc.uncore_freq() < HASWELL_2650V3.uncore.max(),
            "saturating traffic must not pin the uncore at max, got {}",
            proc.uncore_freq()
        );
        assert!(
            proc.uncore_freq() >= Freq(18),
            "the loop must keep serving the traffic, got {}",
            proc.uncore_freq()
        );
        // The delegated core search ran: its daemon profiled samples.
        let report = ctrl.report();
        assert!(!report.is_empty(), "core search discovered ranges");

        // Compute-bound: no traffic — the loop sinks the uncore to the
        // domain floor.
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let mut ctrl = NodePolicy::PidUncore {
            config: Config::default(),
            gains: PidGains::default(),
        }
        .build(&mut proc);
        let compute = Chunk::new(1_000_000, 0, 0).with_profile(CostProfile::new(1.0, 6.0));
        let mut wl = Steady(compute);
        for _ in 0..1_000 {
            proc.step(&mut wl);
            ctrl.on_quantum(&mut proc);
        }
        assert_eq!(proc.uncore_freq(), HASWELL_2650V3.uncore.min());
    }

    #[test]
    fn policy_validation_covers_the_new_arms() {
        assert!(NodePolicy::Default.validate().is_ok());
        assert!(NodePolicy::Oracle(memory_table()).validate().is_ok());
        assert!(NodePolicy::Oracle(OracleTable {
            entries: Vec::new(),
            ..memory_table()
        })
        .validate()
        .is_err());
        assert!(NodePolicy::PidUncore {
            config: Config::default(),
            gains: PidGains {
                setpoint: -0.5,
                ..PidGains::default()
            },
        }
        .validate()
        .is_err());
    }

    #[test]
    fn default_resolves_nothing() {
        let mut proc = SimProcessor::new(HASWELL_2650V3.clone());
        let ctrl = NodePolicy::Default.build(&mut proc);
        assert_eq!(ctrl.resolved_fractions(), (0.0, 0.0));
        assert_eq!(ctrl.report().len(), 1);
        assert!(ctrl.report()[0].cf_opt.is_none());
    }
}
