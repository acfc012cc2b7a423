//! The discrete-event engine: simulated cores executing work chunks in
//! fixed quanta of virtual time.
//!
//! Each quantum (1 ms by default, matching the RAPL update cadence):
//!
//! 1. Frequency control writes (`IA32_PERF_CTL`, `MSR_UNCORE_RATIO_LIMIT`)
//!    take effect.
//! 2. Every core executes from its current chunk, pulling new chunks
//!    from the [`Workload`] as it drains them. Chunk time follows the
//!    latency model of [`crate::perf`], with the memory-stall term
//!    inflated by the chip-level bandwidth overload factor.
//! 3. Package power for the quantum is computed from the cores' realized
//!    utilizations and the achieved memory traffic, and accumulated into
//!    the RAPL counter.
//!
//! The bandwidth overload factor is a fixed point across quanta: the
//! engine measures the unconstrained demand each quantum expressed and
//! uses `demand / cap` as the next quantum's inflation. For steady
//! phases it converges within a few quanta; transient error is bounded
//! and symmetric.
//!
//! ## The virtual clock and event-driven stepping
//!
//! Time only ever advances in whole quanta, but the engine does not
//! have to *execute* every quantum one call at a time. Two methods
//! expose the virtual clock as an event timeline:
//!
//! * [`SimProcessor::next_event_ns`] reports the earliest future
//!   instant at which an *event* may occur: the start of the quantum
//!   that can contain the earliest chunk completion while every core
//!   is busy (completion time is computable from the current rate —
//!   see [`SimProcessor::busy_runway_quanta`]), the next quantum
//!   boundary while busy and parked cores coexist (a parked core may
//!   be handed work at any quantum), the workload's announced wake
//!   time ([`Workload::next_wake_ns`]) rounded up to the quantum grid
//!   while every core is parked, or `None` when the workload will
//!   never produce work again.
//! * [`SimProcessor::advance_idle_quanta`] fast-forwards a
//!   fully-parked machine across a homogeneous idle stretch. The
//!   advance is *not* an approximation: it performs the
//!   identical per-quantum arithmetic `step` would perform against a
//!   workload that yields no chunks — the same frequency-control
//!   application, the same floor-power computation, the same
//!   per-quantum RAPL energy additions (repeated, so floating-point
//!   accumulation rounds identically), the same residency and
//!   overload-relaxation updates — while skipping the per-core
//!   execution machinery that makes a real `step` expensive. Energy,
//!   RAPL counts, `(cf, uf)` residency, and `time_ns` are bit-identical
//!   to stepping the same quanta one by one (enforced by
//!   `tests/event_clock.rs`).
//! * [`SimProcessor::advance_busy_quanta`] fast-forwards a *busy*
//!   stretch: a per-quantum replay of the exact `step` execution
//!   body (shared code, so bit-identity holds by
//!   construction — same chunk slicing, same `next_chunk` call order,
//!   same repeated RAPL additions, same overload updates) with the
//!   loop-invariant work hoisted out: pending frequency-control
//!   application, the uncore-derived miss-latency/bandwidth terms, and
//!   residency bookkeeping.
//!
//! ## Busy-stretch validity
//!
//! A busy advance is always *numerically* safe — chunk boundaries,
//! phase changes, and mid-stretch parking are absorbed by the replay,
//! which also ends the stretch early once every core parks. What it
//! skips is the *controller*: no `on_quantum` runs inside the stretch.
//! A caller may therefore only request as many quanta as the attached
//! controller certifies its per-quantum action to be a no-op for
//! (clock-scheduled controllers between ticks, pinned or fixed-point
//! governors indefinitely); the conservative
//! [`SimProcessor::busy_runway_quanta`] bound tells telemetry-driven
//! governors how long the inputs to their decisions provably cannot
//! change. The per-quantum telemetry of the stretch is recorded in
//! [`SimProcessor::busy_advance_stats`] so such governors can replay
//! their internal state afterwards. See
//! `cuttlefish::controller::FrequencyController` for the capacity
//! contract.
//!
//! Callers that drive a frequency controller (the Cuttlefish daemon's
//! `Tinv` tick, the cluster barrier loops) interleave the advances
//! with the controller's own scheduled events; see
//! `cuttlefish::controller` for the coupling.

use crate::freq::{Freq, MachineSpec};
use crate::msr::{MsrError, MsrFile};
use crate::perf::{CostProfile, PerfModel, LINE_BYTES};
use crate::power::PowerModel;

/// A unit of work: an instruction stream with its LLC-miss counts and
/// cost profile. Chunks are the only currency between workloads and the
/// engine — the simulator never sees data values, exactly as the real
/// Cuttlefish never sees anything but counter streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Instructions retired by this chunk.
    pub instructions: u64,
    /// LLC misses served by the local socket.
    pub misses_local: u64,
    /// LLC misses served by the remote socket (QPI).
    pub misses_remote: u64,
    /// Pipeline/prefetch cost profile.
    pub profile: CostProfile,
}

impl Chunk {
    /// Chunk with the default cost profile.
    pub fn new(instructions: u64, misses_local: u64, misses_remote: u64) -> Self {
        Chunk {
            instructions,
            misses_local,
            misses_remote,
            profile: CostProfile::default(),
        }
    }

    /// Attach a cost profile.
    pub fn with_profile(mut self, profile: CostProfile) -> Self {
        self.profile = profile;
        self
    }

    /// TOR inserts per instruction of this chunk.
    pub fn tipi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.misses_local + self.misses_remote) as f64 / self.instructions as f64
        }
    }
}

/// Source of work for the simulated cores.
///
/// Schedulers (work-sharing, work-stealing) implement this; the engine
/// calls [`Workload::next_chunk`] whenever a core runs dry. Returning
/// `None` parks the core for the rest of the quantum (it will ask again
/// next quantum) — this is how barrier waits and work imbalance manifest.
pub trait Workload {
    /// Next chunk for `core`, or `None` if it has nothing to run now.
    fn next_chunk(&mut self, core: usize, now_ns: u64) -> Option<Chunk>;
    /// True when no further chunks will ever be produced.
    fn is_done(&self) -> bool;
    /// The earliest virtual time at or after `now_ns` at which this
    /// workload may hand out a chunk to a currently-parked core.
    ///
    /// * `Some(t)` promises every `next_chunk` call strictly before `t`
    ///   returns `None` (and is free of observable side effects), so
    ///   the engine may fast-forward a fully-parked machine to `t`.
    /// * `None` means no chunk will ever be produced again — pure
    ///   barrier/communication idling.
    ///
    /// The conservative default, `Some(now_ns)`, declares "work may
    /// appear at any moment": the engine then polls every quantum,
    /// exactly as it did before the virtual-clock layer existed.
    fn next_wake_ns(&self, now_ns: u64) -> Option<u64> {
        Some(now_ns)
    }
}

/// Per-quantum telemetry, for traces and the evaluation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantumStats {
    /// Package power over the quantum, watts.
    pub power_watts: f64,
    /// Achieved memory bandwidth, bytes/second.
    pub achieved_bw: f64,
    /// Bandwidth overload factor applied during the quantum (≥ 1).
    pub overload: f64,
    /// Mean core pipeline utilization.
    pub mean_util: f64,
    /// Instructions retired during the quantum (all cores).
    pub instructions: f64,
}

#[derive(Debug, Clone)]
struct RunningChunk {
    remaining_instr: f64,
    remaining_ml: f64,
    remaining_mr: f64,
    profile: CostProfile,
}

#[derive(Debug, Clone, Default)]
struct CoreState {
    current: Option<RunningChunk>,
    /// Seconds of pipeline (compute) time within the current quantum
    /// (wall time — stretched when duty-cycle modulation gates the
    /// clock).
    compute_s: f64,
    /// Seconds the core clock was actually toggling during compute
    /// (`compute_s · duty`): the dynamic-power-relevant time.
    active_s: f64,
    /// Seconds of any execution (compute + stall) within the quantum.
    busy_s: f64,
}

/// The simulated processor package.
#[derive(Debug, Clone)]
pub struct SimProcessor {
    spec: MachineSpec,
    perf: PerfModel,
    power: PowerModel,
    msr: MsrFile,
    cores: Vec<CoreState>,
    cf: Freq,
    uf: Freq,
    time_ns: u64,
    overload: f64,
    last_stats: QuantumStats,
    /// Quanta executed by individual [`SimProcessor::step`] calls.
    stepped_quanta: u64,
    /// Quanta absorbed analytically by [`SimProcessor::advance_idle_quanta`].
    idle_advanced_quanta: u64,
    /// Quanta absorbed analytically by [`SimProcessor::advance_busy_quanta`].
    busy_advanced_quanta: u64,
    /// Rotates which core is served first each quantum so no core gets a
    /// systematic head start at pulling work.
    rotate: usize,
    /// Virtual nanoseconds spent at each (core, uncore) ratio pair —
    /// the residency profile exploration-cost analyses read.
    residency: std::collections::BTreeMap<(u32, u32), u64>,
    /// Per-quantum telemetry recorded during the most recent
    /// [`SimProcessor::advance_busy_quanta`] call (a reused buffer), so
    /// telemetry-folding controllers can replay their per-quantum state
    /// afterwards without the engine calling them back mid-stretch.
    advance_stats: Vec<QuantumStats>,
}

impl SimProcessor {
    /// New processor with default performance and power models.
    pub fn new(spec: MachineSpec) -> Self {
        let perf = PerfModel::default();
        let power = PowerModel::haswell(&spec.core, &spec.uncore);
        Self::with_models(spec, perf, power)
    }

    /// New processor with explicit models (used by calibration tools).
    pub fn with_models(spec: MachineSpec, perf: PerfModel, power: PowerModel) -> Self {
        spec.validate().expect("invalid machine spec");
        let cf = spec.core.max();
        let uf = spec.uncore.max();
        let msr = MsrFile::new(spec.n_cores, cf.0, uf.0);
        let cores = vec![CoreState::default(); spec.n_cores];
        SimProcessor {
            spec,
            perf,
            power,
            msr,
            cores,
            cf,
            uf,
            time_ns: 0,
            overload: 1.0,
            last_stats: QuantumStats::default(),
            stepped_quanta: 0,
            idle_advanced_quanta: 0,
            busy_advanced_quanta: 0,
            rotate: 0,
            residency: std::collections::BTreeMap::new(),
            advance_stats: Vec::new(),
        }
    }

    /// Machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.spec.n_cores
    }

    /// Performance model in effect.
    pub fn perf_model(&self) -> &PerfModel {
        &self.perf
    }

    /// Power model in effect.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Current virtual time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.time_ns
    }

    /// Current virtual time, seconds.
    pub fn now_seconds(&self) -> f64 {
        self.time_ns as f64 * 1e-9
    }

    /// Current core frequency.
    pub fn core_freq(&self) -> Freq {
        self.cf
    }

    /// Current uncore frequency.
    pub fn uncore_freq(&self) -> Freq {
        self.uf
    }

    /// Exact accumulated package energy in joules (harness ground truth;
    /// software under test should read the RAPL MSR instead).
    pub fn total_energy_joules(&self) -> f64 {
        self.msr.energy_joules_exact()
    }

    /// Exact total instructions retired.
    pub fn total_instructions(&self) -> f64 {
        self.msr.inst_retired_exact()
    }

    /// Telemetry from the most recent quantum.
    pub fn last_quantum(&self) -> QuantumStats {
        self.last_stats
    }

    /// Virtual nanoseconds spent at each (core, uncore) ratio pair.
    pub fn frequency_residency(&self) -> &std::collections::BTreeMap<(u32, u32), u64> {
        &self.residency
    }

    /// Quanta executed by individual [`step`](Self::step) calls.
    pub fn stepped_quanta(&self) -> u64 {
        self.stepped_quanta
    }

    /// Quanta absorbed analytically by the idle fast-forward
    /// ([`advance_idle_quanta`](Self::advance_idle_quanta)).
    pub fn idle_advanced_quanta(&self) -> u64 {
        self.idle_advanced_quanta
    }

    /// Quanta absorbed analytically by the busy fast-forward
    /// ([`advance_busy_quanta`](Self::advance_busy_quanta)).
    pub fn busy_advanced_quanta(&self) -> u64 {
        self.busy_advanced_quanta
    }

    /// Per-quantum telemetry recorded by the most recent
    /// [`advance_busy_quanta`](Self::advance_busy_quanta) call, in
    /// execution order — one entry per absorbed quantum. Controllers
    /// that fold telemetry every quantum (the Default governor's
    /// traffic EWMA) replay their state from this record to stay
    /// bit-identical with quantum-by-quantum stepping.
    pub fn busy_advance_stats(&self) -> &[QuantumStats] {
        &self.advance_stats
    }

    /// Total quanta of virtual time elapsed (stepped + fast-forwarded).
    /// The ratio against [`stepped_quanta`](Self::stepped_quanta) is the
    /// stepping-work reduction the virtual-clock layer achieved.
    pub fn total_quanta(&self) -> u64 {
        self.time_ns / self.spec.quantum_ns
    }

    /// True when no core holds an in-flight chunk.
    pub fn cores_parked(&self) -> bool {
        self.cores.iter().all(|c| c.current.is_none())
    }

    /// True when the bandwidth-overload fixed point has settled
    /// bitwise: the factor the next quantum will apply equals the
    /// factor the last executed quantum applied. While a steady busy
    /// stretch holds this, per-quantum telemetry can only drift at
    /// floating-point ULP scale — the condition telemetry-driven
    /// governors fold into their busy fixed-point checks before
    /// granting busy fast-forward capacity.
    pub fn overload_settled(&self) -> bool {
        self.overload.max(1.0).to_bits() == self.last_stats.overload.to_bits()
    }

    /// Direct frequency setters (equivalent to the MSR writes; also used
    /// by the Default governor which owns the platform).
    pub fn set_core_freq(&mut self, f: Freq) {
        let f = self.spec.core.clamp(f);
        self.msr
            .write(crate::msr::IA32_PERF_CTL, MsrFile::encode_perf_ctl(f.0))
            .expect("PERF_CTL is writable");
    }

    /// Pin the uncore frequency (min = max in `MSR_UNCORE_RATIO_LIMIT`).
    pub fn set_uncore_freq(&mut self, f: Freq) {
        let f = self.spec.uncore.clamp(f);
        self.msr
            .write(
                crate::msr::MSR_UNCORE_RATIO_LIMIT,
                MsrFile::encode_uncore_limit(f.0, f.0),
            )
            .expect("UNCORE_RATIO_LIMIT is writable");
    }

    /// Package-scope MSR read.
    pub fn msr_read(&self, addr: u32) -> Result<u64, MsrError> {
        self.msr.read(addr)
    }

    /// Per-core MSR read.
    pub fn msr_read_core(&self, core: usize, addr: u32) -> Result<u64, MsrError> {
        self.msr.read_core(core, addr)
    }

    /// Per-core MSR write (e.g. `IA32_CLOCK_MODULATION` for DDCM).
    pub fn msr_write_core(&mut self, core: usize, addr: u32, value: u64) -> Result<(), MsrError> {
        self.msr.write_core(core, addr, value)
    }

    /// Convenience: set per-core duty-cycle modulation on every core
    /// (`duty_16ths` of 16; 0 or 16 disables modulation).
    pub fn set_duty_all(&mut self, duty_16ths: u32) {
        for core in 0..self.spec.n_cores {
            self.msr
                .write_core(
                    core,
                    crate::msr::IA32_CLOCK_MODULATION,
                    MsrFile::encode_clock_modulation(duty_16ths),
                )
                .expect("CLOCK_MODULATION is writable");
        }
    }

    /// Borrow the MSR file (for [`crate::msr::MsrSession`] interop).
    pub fn msr_file(&self) -> &MsrFile {
        &self.msr
    }

    /// Mutably borrow the MSR file.
    pub fn msr_file_mut(&mut self) -> &mut MsrFile {
        &mut self.msr
    }

    /// True when the workload is finished *and* every core has drained
    /// its in-flight chunk.
    pub fn workload_drained(&self, wl: &dyn Workload) -> bool {
        wl.is_done() && self.cores.iter().all(|c| c.current.is_none())
    }

    fn apply_frequency_controls(&mut self) {
        let want_cf = Freq(self.msr.requested_core_ratio());
        self.cf = self.spec.core.clamp(want_cf);
        self.msr.set_current_core_ratio(self.cf.0);
        let (min_r, max_r) = self.msr.requested_uncore_ratios();
        // Hardware honours the limit window; with min == max the
        // frequency is pinned. With min < max we model the firmware
        // settling at the max of the window (traffic-greedy), which is
        // what BIOS "Auto" does under load.
        let target = Freq(max_r.max(min_r));
        self.uf = self.spec.uncore.clamp(target);
    }

    /// Advance one quantum, executing work from `wl`.
    pub fn step(&mut self, wl: &mut dyn Workload) {
        self.stepped_quanta += 1;
        self.apply_frequency_controls();
        let cap = self.perf.bandwidth_cap(self.uf);
        let t_miss_local = self.perf.t_miss_local(self.uf);
        let t_miss_remote = self.perf.t_miss_remote(self.uf);
        self.execute_quantum(wl, cap, t_miss_local, t_miss_remote);
        *self.residency.entry((self.cf.0, self.uf.0)).or_insert(0) += self.spec.quantum_ns;
    }

    /// One quantum of core execution, power accounting, and telemetry —
    /// the shared body of [`step`](Self::step) and
    /// [`advance_busy_quanta`](Self::advance_busy_quanta), so the two
    /// paths are bit-identical by construction. The uncore-derived
    /// terms (`cap` and the miss latencies) are parameters so a busy
    /// stretch can hoist them; callers must pass the values derived
    /// from the currently-applied `uf`. Residency and the path counters
    /// are the callers' responsibility (both are exact integer updates,
    /// so hoisting them cannot change any floating-point result).
    fn execute_quantum(
        &mut self,
        wl: &mut dyn Workload,
        cap: f64,
        t_miss_local: f64,
        t_miss_remote: f64,
    ) {
        let quantum_s = self.spec.quantum_ns as f64 * 1e-9;
        let n = self.spec.n_cores;
        let overload = self.overload.max(1.0);

        let mut total_instr = 0.0;
        let mut total_ml = 0.0;
        let mut total_mr = 0.0;
        let mut sum_eff = 0.0;
        let mut sum_util = 0.0;

        for k in 0..n {
            let core = (self.rotate + k) % n;
            // Split-borrow: temporarily move the core state out so we can
            // pass `wl` and `self.perf` around freely.
            let mut st = std::mem::take(&mut self.cores[core]);
            st.compute_s = 0.0;
            st.active_s = 0.0;
            st.busy_s = 0.0;
            // DDCM: a modulated core's clock runs `duty` of the time at
            // the full voltage — the pipeline stretches but each
            // instruction still costs the same active cycles.
            let duty = self.msr.duty_fraction(core);
            let cf_eff_hz = self.cf.hz() * duty;
            let mut budget = quantum_s;

            while budget > 1e-15 {
                let rc = match st.current.take() {
                    Some(rc) => rc,
                    None => match wl.next_chunk(core, self.time_ns) {
                        Some(ch) => RunningChunk {
                            remaining_instr: ch.instructions as f64,
                            remaining_ml: ch.misses_local as f64,
                            remaining_mr: ch.misses_remote as f64,
                            profile: ch.profile,
                        },
                        None => break, // park for the rest of the quantum
                    },
                };

                let compute = rc.remaining_instr * rc.profile.cpi / cf_eff_hz;
                let stall_lat = (rc.remaining_ml * t_miss_local + rc.remaining_mr * t_miss_remote)
                    / rc.profile.mlp;
                let total = compute + stall_lat * overload;

                if total <= budget {
                    // Chunk completes within the quantum.
                    total_instr += rc.remaining_instr;
                    total_ml += rc.remaining_ml;
                    total_mr += rc.remaining_mr;
                    self.msr.add_inst_retired(core, rc.remaining_instr);
                    st.compute_s += compute;
                    st.active_s += compute * duty;
                    st.busy_s += total;
                    budget -= total;
                } else {
                    // Execute a proportional slice and carry the rest.
                    let frac = if total > 0.0 { budget / total } else { 1.0 };
                    let di = rc.remaining_instr * frac;
                    let dl = rc.remaining_ml * frac;
                    let dr = rc.remaining_mr * frac;
                    total_instr += di;
                    total_ml += dl;
                    total_mr += dr;
                    self.msr.add_inst_retired(core, di);
                    st.compute_s += compute * frac;
                    st.active_s += compute * frac * duty;
                    st.busy_s += budget;
                    st.current = Some(RunningChunk {
                        remaining_instr: rc.remaining_instr - di,
                        remaining_ml: rc.remaining_ml - dl,
                        remaining_mr: rc.remaining_mr - dr,
                        profile: rc.profile,
                    });
                    budget = 0.0;
                }
            }

            let util = (st.compute_s / quantum_s).clamp(0.0, 1.0);
            sum_util += util;
            // Power follows the *active-clock* fraction: under DDCM the
            // dynamic energy per instruction is unchanged (same active
            // cycles at the same voltage) while runtime stretches —
            // which is exactly why DVFS saves more for equal slowdown.
            let active = (st.active_s / quantum_s).clamp(0.0, 1.0);
            sum_eff += self.power.core_effective(active);
            self.msr.add_unhalted(core, st.busy_s, self.cf.hz());
            self.cores[core] = st;
        }
        self.rotate = (self.rotate + 1) % n;

        self.msr.add_tor(total_ml, total_mr);

        // Achieved and unconstrained-demand bandwidth this quantum.
        let achieved_bw = (total_ml + total_mr) * LINE_BYTES / quantum_s;
        let demand_bw = achieved_bw * overload;
        self.overload = if cap > 0.0 {
            (demand_bw / cap).max(1.0)
        } else {
            1.0
        };

        let traffic = (achieved_bw / self.perf.dram_peak_bw).clamp(0.0, 1.0);
        let watts = self.power.package_watts(self.cf, self.uf, sum_eff, traffic);
        self.msr.add_energy(watts * quantum_s);

        self.last_stats = QuantumStats {
            power_watts: watts,
            achieved_bw,
            overload,
            mean_util: sum_util / n as f64,
            instructions: total_instr,
        };
        self.time_ns += self.spec.quantum_ns;
    }

    /// Fast-forward `quanta` idle quanta analytically.
    ///
    /// Equivalent — bit for bit, including floating-point accumulation
    /// order — to calling [`step`](Self::step) `quanta` times against a
    /// workload that yields no chunks, but without the per-core
    /// execution machinery. Pending frequency-control writes are
    /// applied once up front (they are idempotent across identical
    /// requests, exactly as repeated `step`s would re-apply them); the
    /// per-quantum floor power is computed once and accumulated with
    /// one RAPL addition per quantum so the energy counter rounds
    /// identically; residency, the virtual clock, and the core-rotation
    /// cursor advance in closed form.
    ///
    /// # Panics
    /// Panics if any core still holds an in-flight chunk — callers
    /// guard with [`cores_parked`](Self::cores_parked).
    pub fn advance_idle_quanta(&mut self, quanta: u64) {
        if quanta == 0 {
            return;
        }
        assert!(
            self.cores_parked(),
            "advance_idle_quanta requires every core to be parked"
        );
        self.apply_frequency_controls();

        let quantum_s = self.spec.quantum_ns as f64 * 1e-9;
        let n = self.spec.n_cores;

        // Identical arithmetic to an idle `step`: every core contributes
        // zero utilization; the additions run per core so the sum
        // rounds exactly as the per-core loop does.
        let mut sum_eff = 0.0;
        for st in &mut self.cores {
            st.compute_s = 0.0;
            st.active_s = 0.0;
            st.busy_s = 0.0;
            sum_eff += self.power.core_effective(0.0);
        }
        self.rotate = ((self.rotate as u64 + quanta) % n as u64) as usize;

        let watts = self.power.package_watts(self.cf, self.uf, sum_eff, 0.0);
        let joules = watts * quantum_s;
        // Repeated additions, not one multiply: the RAPL accumulator
        // must take the same rounding path as quantum-by-quantum
        // stepping.
        for _ in 0..quanta {
            self.msr.add_energy(joules);
        }

        // An idle quantum observes zero demand, so the overload factor
        // relaxes to 1 after the first quantum; the stats mirror the
        // last quantum of the stretch.
        let first_overload = self.overload.max(1.0);
        self.last_stats = QuantumStats {
            power_watts: watts,
            achieved_bw: 0.0,
            overload: if quanta == 1 { first_overload } else { 1.0 },
            mean_util: 0.0,
            instructions: 0.0,
        };
        self.overload = 1.0;

        let advanced_ns = self
            .spec
            .quantum_ns
            .checked_mul(quanta)
            .expect("idle advance overflows the virtual clock");
        *self.residency.entry((self.cf.0, self.uf.0)).or_insert(0) += advanced_ns;
        self.time_ns += advanced_ns;
        self.idle_advanced_quanta += quanta;
    }

    /// Fast-forward up to `quanta` *busy* quanta analytically,
    /// returning how many were absorbed.
    ///
    /// Equivalent — bit for bit, including floating-point accumulation
    /// order — to calling [`step`](Self::step) the same number of
    /// times with no controller action in between: the per-quantum
    /// execution body is literally shared (`execute_quantum`), so the
    /// chunk slicing, the [`Workload::next_chunk`] call order, the MSR
    /// accumulator additions, the repeated per-quantum RAPL energy
    /// additions, and the overload fixed-point updates are identical.
    /// What the stretch hoists out of the per-quantum path is only
    /// state no controller-free stretch can change: the pending
    /// frequency-control application (applied once up front; repeated
    /// application is idempotent), the uncore-derived miss-latency and
    /// bandwidth-cap terms, and the residency bookkeeping (exact
    /// integer additions, accumulated in closed form at the end).
    ///
    /// Chunk completions, workload phase changes, and mid-stretch
    /// parking are *absorbed* soundly rather than forbidden — the
    /// replay simply reproduces them. The stretch ends early
    /// (returning the executed count) as soon as every core parks,
    /// because the idle fast-forward handles what follows far more
    /// cheaply; it returns 0 immediately when the machine is already
    /// parked.
    ///
    /// What this method deliberately does **not** replay is the
    /// frequency controller. Callers must only request a stretch
    /// across which the controller's per-quantum action is provably a
    /// no-op — see the busy-capacity contract on
    /// `cuttlefish::controller::FrequencyController`. The telemetry of
    /// every absorbed quantum is recorded in
    /// [`busy_advance_stats`](Self::busy_advance_stats) so controllers
    /// can replay EWMA-style internal state afterwards.
    pub fn advance_busy_quanta(&mut self, wl: &mut dyn Workload, quanta: u64) -> u64 {
        self.advance_stats.clear();
        if quanta == 0 || self.cores_parked() {
            return 0;
        }
        self.apply_frequency_controls();

        // Loop invariants: no frequency write can land mid-stretch, so
        // the uncore-derived latency and bandwidth terms are constant.
        let cap = self.perf.bandwidth_cap(self.uf);
        let t_miss_local = self.perf.t_miss_local(self.uf);
        let t_miss_remote = self.perf.t_miss_remote(self.uf);

        let mut executed = 0u64;
        while executed < quanta {
            if self.cores_parked() {
                break;
            }
            self.execute_quantum(wl, cap, t_miss_local, t_miss_remote);
            self.advance_stats.push(self.last_stats);
            executed += 1;
        }

        let advanced_ns = self
            .spec
            .quantum_ns
            .checked_mul(executed)
            .expect("busy advance overflows the virtual clock");
        *self.residency.entry((self.cf.0, self.uf.0)).or_insert(0) += advanced_ns;
        self.busy_advanced_quanta += executed;
        executed
    }

    /// The earliest future virtual instant at which an *event* — a
    /// workload interaction or a state change a controller could react
    /// to differently — may occur:
    ///
    /// * every core busy: the start of the quantum in which the
    ///   earliest chunk completion can fall (computable from the
    ///   current rate; see [`busy_runway_quanta`](Self::busy_runway_quanta)) —
    ///   all quanta strictly before it are provably free of
    ///   [`Workload::next_chunk`] calls;
    /// * some cores busy, some parked: the next quantum boundary (a
    ///   parked core may be handed work at any quantum);
    /// * all cores parked: the workload's announced wake rounded up to
    ///   the quantum grid, or `None` when the workload will never
    ///   produce work again (pure idling — only an external deadline
    ///   such as a cluster barrier bounds the advance).
    ///
    /// `cuttlefish::controller::drive_quanta` sizes every fast-forward
    /// by this answer — for single nodes and for each cluster node's
    /// compute phase alike — so the returned instants must be sound:
    /// never *later* than the first real interaction.
    pub fn next_event_ns(&self, wl: &dyn Workload) -> Option<u64> {
        let boundary = self.time_ns + self.spec.quantum_ns;
        if !self.cores_parked() {
            if self.cores.iter().any(|c| c.current.is_none()) {
                return Some(boundary);
            }
            return Some(
                self.time_ns.saturating_add(
                    self.busy_runway_quanta()
                        .saturating_mul(self.spec.quantum_ns),
                ),
            );
        }
        match wl.next_wake_ns(self.time_ns) {
            Some(t) if t <= self.time_ns => Some(boundary),
            Some(t) => {
                let quanta = (t - self.time_ns).div_ceil(self.spec.quantum_ns);
                Some(self.time_ns + quanta * self.spec.quantum_ns)
            }
            None => None,
        }
    }

    /// A conservative number of quanta until the earliest possible
    /// chunk completion while **every** core is busy (always ≥ 1):
    /// quanta strictly before the returned count are provably free of
    /// [`Workload::next_chunk`] calls. The bound is sound because the
    /// bandwidth overload factor only inflates stall time (it is
    /// clamped ≥ 1) and no frequency or duty-cycle write can land
    /// mid-stretch, so each core's remaining time evaluated at
    /// overload 1 under the currently-applied frequencies lower-bounds
    /// its true completion; taking `floor` (rather than `ceil`) of the
    /// quantum count then absorbs the sub-quantum floating-point drift
    /// the per-quantum slicing accumulates.
    pub fn busy_runway_quanta(&self) -> u64 {
        let mut earliest = f64::INFINITY;
        for (core, st) in self.cores.iter().enumerate() {
            let Some(rc) = st.current.as_ref() else {
                return 1; // a parked core can be handed work any quantum
            };
            let duty = self.msr.duty_fraction(core);
            let cf_eff_hz = self.cf.hz() * duty;
            let compute = rc.remaining_instr * rc.profile.cpi / cf_eff_hz;
            let stall = (rc.remaining_ml * self.perf.t_miss_local(self.uf)
                + rc.remaining_mr * self.perf.t_miss_remote(self.uf))
                / rc.profile.mlp;
            earliest = earliest.min(compute + stall);
        }
        let quantum_s = self.spec.quantum_ns as f64 * 1e-9;
        (earliest / quantum_s).floor().clamp(1.0, 1e18) as u64
    }

    /// Run `wl` to completion with an optional per-quantum controller
    /// callback (governor, Cuttlefish driver, tracer). Returns the
    /// virtual seconds elapsed.
    pub fn run<F>(&mut self, wl: &mut dyn Workload, mut on_quantum: F) -> f64
    where
        F: FnMut(&mut SimProcessor),
    {
        let start = self.time_ns;
        while !self.workload_drained(wl) {
            self.step(wl);
            on_quantum(self);
        }
        (self.time_ns - start) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::{HASWELL_2650V3, HYPOTHETICAL7};

    /// Hands every core `per_core` copies of one chunk.
    pub(crate) struct Uniform {
        chunk: Chunk,
        left: Vec<usize>,
    }

    impl Uniform {
        pub(crate) fn new(n_cores: usize, per_core: usize, chunk: Chunk) -> Self {
            Uniform {
                chunk,
                left: vec![per_core; n_cores],
            }
        }
    }

    impl Workload for Uniform {
        fn next_chunk(&mut self, core: usize, _now: u64) -> Option<Chunk> {
            if self.left[core] == 0 {
                None
            } else {
                self.left[core] -= 1;
                Some(self.chunk.clone())
            }
        }
        fn is_done(&self) -> bool {
            self.left.iter().all(|&l| l == 0)
        }
    }

    fn compute_chunk() -> Chunk {
        Chunk::new(1_000_000, 0, 0).with_profile(CostProfile::new(1.0, 6.0))
    }

    fn memory_chunk() -> Chunk {
        // TIPI = 0.064, streaming profile.
        Chunk::new(1_000_000, 56_000, 8_000).with_profile(CostProfile::new(0.55, 12.0))
    }

    #[test]
    fn compute_workload_time_scales_with_cf() {
        let mut t = Vec::new();
        for cf in [Freq(12), Freq(23)] {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            p.set_core_freq(cf);
            p.set_uncore_freq(Freq(30));
            let mut wl = Uniform::new(p.n_cores(), 40, compute_chunk());
            let secs = p.run(&mut wl, |_| {});
            t.push(secs);
        }
        let ratio = t[0] / t[1];
        // Quantum granularity adds slack; allow 5%.
        assert!(
            (ratio - 23.0 / 12.0).abs() < 0.1,
            "expected ~1.92x, got {ratio}"
        );
    }

    #[test]
    fn memory_workload_time_flat_across_cf_at_high_uf() {
        let mut t = Vec::new();
        for cf in [Freq(12), Freq(23)] {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            p.set_core_freq(cf);
            p.set_uncore_freq(Freq(22));
            let mut wl = Uniform::new(p.n_cores(), 40, memory_chunk());
            t.push(p.run(&mut wl, |_| {}));
        }
        let ratio = t[0] / t[1];
        assert!(
            ratio < 1.12,
            "bandwidth-bound workload should be nearly CF-insensitive, got {ratio}"
        );
    }

    #[test]
    fn memory_workload_slow_below_bandwidth_knee() {
        let mut t = Vec::new();
        for uf in [Freq(12), Freq(22)] {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            p.set_uncore_freq(uf);
            let mut wl = Uniform::new(p.n_cores(), 40, memory_chunk());
            t.push(p.run(&mut wl, |_| {}));
        }
        assert!(
            t[0] / t[1] > 1.3,
            "UF=1.2 must hurt bandwidth-bound code badly, got {}",
            t[0] / t[1]
        );
    }

    #[test]
    fn memory_workload_flat_above_knee() {
        let mut t = Vec::new();
        for uf in [Freq(22), Freq(30)] {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            p.set_uncore_freq(uf);
            let mut wl = Uniform::new(p.n_cores(), 40, memory_chunk());
            t.push(p.run(&mut wl, |_| {}));
        }
        assert!(
            t[0] / t[1] < 1.07,
            "above the knee UF barely matters, got {}",
            t[0] / t[1]
        );
    }

    #[test]
    fn rapl_counter_tracks_ground_truth() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl = Uniform::new(p.n_cores(), 10, compute_chunk());
        let before = p.msr_read(crate::msr::MSR_PKG_ENERGY_STATUS).unwrap();
        p.run(&mut wl, |_| {});
        let after = p.msr_read(crate::msr::MSR_PKG_ENERGY_STATUS).unwrap();
        let via_msr =
            (after.wrapping_sub(before) & 0xffff_ffff) as f64 * crate::msr::JOULES_PER_COUNT;
        let exact = p.total_energy_joules();
        assert!(
            (via_msr - exact).abs() / exact < 1e-3,
            "RAPL {via_msr} vs exact {exact}"
        );
    }

    #[test]
    fn instruction_counters_match_workload() {
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let per_core = 7;
        let mut wl = Uniform::new(p.n_cores(), per_core, compute_chunk());
        p.run(&mut wl, |_| {});
        let expect = (p.n_cores() * per_core) as f64 * 1_000_000.0;
        assert!((p.total_instructions() - expect).abs() < 1.0);
    }

    #[test]
    fn frequency_writes_take_effect_next_quantum() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        assert_eq!(p.core_freq(), Freq(23));
        p.set_core_freq(Freq(15));
        p.set_uncore_freq(Freq(18));
        let mut wl = Uniform::new(p.n_cores(), 1, compute_chunk());
        p.step(&mut wl);
        assert_eq!(p.core_freq(), Freq(15));
        assert_eq!(p.uncore_freq(), Freq(18));
        // PERF_STATUS mirrors the applied ratio.
        let st = p.msr_read(crate::msr::IA32_PERF_STATUS).unwrap();
        assert_eq!((st >> 8) & 0xff, 15);
    }

    #[test]
    fn out_of_range_frequency_clamped() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        p.set_core_freq(Freq(99));
        p.set_uncore_freq(Freq(1));
        let mut wl = Uniform::new(p.n_cores(), 1, compute_chunk());
        p.step(&mut wl);
        assert_eq!(p.core_freq(), Freq(23));
        assert_eq!(p.uncore_freq(), Freq(12));
    }

    #[test]
    fn idle_cores_burn_floor_power() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        struct Nothing;
        impl Workload for Nothing {
            fn next_chunk(&mut self, _: usize, _: u64) -> Option<Chunk> {
                None
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        p.step(&mut Nothing);
        let w = p.last_quantum().power_watts;
        assert!(w > 10.0, "idle power should be a real floor, got {w}");
        assert!(
            w < 70.0,
            "idle power should be well under load power, got {w}"
        );
    }

    #[test]
    fn aperf_mperf_verify_dvfs_took_effect() {
        // The effective frequency measured via ΔAPERF/ΔMPERF must match
        // the programmed ratio — the standard hardware cross-check.
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        p.set_core_freq(Freq(16));
        let mut wl = Uniform::new(p.n_cores(), 50, compute_chunk());
        p.run(&mut wl, |_| {});
        let a = p.msr_read_core(0, crate::msr::IA32_APERF).unwrap() as f64;
        let m = p.msr_read_core(0, crate::msr::IA32_MPERF).unwrap() as f64;
        let eff = a / m * crate::msr::TSC_HZ / 1e8; // in 100 MHz ratios
        assert!((eff - 16.0).abs() < 0.2, "effective ratio {eff}");
    }

    #[test]
    fn ddcm_stretches_compute_proportionally() {
        // Duty 8/16 halves the effective clock for compute-bound work.
        let run_with_duty = |duty: u32| {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            p.set_duty_all(duty);
            let mut wl = Uniform::new(p.n_cores(), 40, compute_chunk());
            p.run(&mut wl, |_| {})
        };
        let full = run_with_duty(0);
        let half = run_with_duty(8);
        let ratio = half / full;
        assert!(
            (ratio - 2.0).abs() < 0.1,
            "duty 8/16 should double time, got {ratio}"
        );
    }

    #[test]
    fn dvfs_beats_ddcm_at_equal_slowdown() {
        // The classic result the related work measures: for the same
        // performance loss, lowering voltage+frequency (DVFS) saves
        // more energy than clock gating at full voltage (DDCM).
        // CF 1.2/2.3 ≈ duty 8.35/16: compare DVFS at 1.2 GHz against
        // DDCM at ~the same effective clock.
        let energy_dvfs = {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            p.set_core_freq(Freq(12));
            let mut wl = Uniform::new(p.n_cores(), 40, compute_chunk());
            p.run(&mut wl, |_| {});
            (p.total_energy_joules(), p.now_ns())
        };
        let energy_ddcm = {
            let mut p = SimProcessor::new(HASWELL_2650V3.clone());
            p.set_duty_all(8); // 2.3 GHz × 8/16 = 1.15 GHz effective
            let mut wl = Uniform::new(p.n_cores(), 40, compute_chunk());
            p.run(&mut wl, |_| {});
            (p.total_energy_joules(), p.now_ns())
        };
        // Similar runtimes (within 10%)...
        let t_ratio = energy_ddcm.1 as f64 / energy_dvfs.1 as f64;
        assert!((0.9..1.15).contains(&t_ratio), "time ratio {t_ratio}");
        // ...but DVFS uses clearly less energy (voltage scaling).
        assert!(
            energy_dvfs.0 < energy_ddcm.0 * 0.92,
            "DVFS {} J should beat DDCM {} J by >8%",
            energy_dvfs.0,
            energy_ddcm.0
        );
    }

    #[test]
    fn duty_modulation_is_per_core() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        p.msr_write_core(
            3,
            crate::msr::IA32_CLOCK_MODULATION,
            MsrFile::encode_clock_modulation(4),
        )
        .unwrap();
        assert_eq!(p.msr_file().duty_fraction(3), 0.25);
        assert_eq!(p.msr_file().duty_fraction(0), 1.0);
        // Modulated core retires instructions 4x slower: give every
        // core one identical chunk and check core 3 finishes last.
        let mut wl = Uniform::new(p.n_cores(), 1, compute_chunk());
        p.step(&mut wl);
        let fast = p.msr_read_core(0, crate::msr::IA32_FIXED_CTR0).unwrap();
        let slow = p.msr_read_core(3, crate::msr::IA32_FIXED_CTR0).unwrap();
        assert!(
            slow < fast,
            "modulated core must retire fewer instructions per quantum: {slow} vs {fast}"
        );
    }

    #[test]
    fn energy_monotonically_increases() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl = Uniform::new(p.n_cores(), 3, memory_chunk());
        let mut prev = 0.0;
        while !p.workload_drained(&wl) {
            p.step(&mut wl);
            let e = p.total_energy_joules();
            assert!(e > prev);
            prev = e;
        }
    }

    /// Nothing to run, ever — the cluster barrier shape.
    struct Never;
    impl Workload for Never {
        fn next_chunk(&mut self, _: usize, _: u64) -> Option<Chunk> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
        fn next_wake_ns(&self, _now: u64) -> Option<u64> {
            None
        }
    }

    #[test]
    fn advance_idle_is_bit_identical_to_idle_stepping() {
        // Drive both processors into a non-trivial state first (bandwidth
        // overload, rotation offset, residency history), then idle one
        // by stepping and the other by a single analytic advance.
        let prime = |p: &mut SimProcessor| {
            p.set_uncore_freq(Freq(12)); // deep overload regime
            let mut wl = Uniform::new(p.n_cores(), 7, memory_chunk());
            while !p.workload_drained(&wl) {
                p.step(&mut wl);
            }
        };
        for quanta in [1u64, 2, 3, 17, 500] {
            let mut stepped = SimProcessor::new(HASWELL_2650V3.clone());
            prime(&mut stepped);
            let mut jumped = stepped.clone();
            for _ in 0..quanta {
                stepped.step(&mut Never);
            }
            jumped.advance_idle_quanta(quanta);
            assert_eq!(
                stepped.total_energy_joules().to_bits(),
                jumped.total_energy_joules().to_bits(),
                "energy must round identically over {quanta} idle quanta"
            );
            assert_eq!(stepped.now_ns(), jumped.now_ns());
            assert_eq!(stepped.frequency_residency(), jumped.frequency_residency());
            assert_eq!(
                stepped.msr_read(crate::msr::MSR_PKG_ENERGY_STATUS).unwrap(),
                jumped.msr_read(crate::msr::MSR_PKG_ENERGY_STATUS).unwrap(),
                "RAPL projection identical"
            );
            let s = stepped.last_quantum();
            let j = jumped.last_quantum();
            assert_eq!(s.power_watts.to_bits(), j.power_watts.to_bits());
            assert_eq!(s.overload.to_bits(), j.overload.to_bits());
            // The next busy quantum must behave identically too (rotation
            // cursor, overload relaxation, pending-control application).
            let mut wa = Uniform::new(stepped.n_cores(), 1, memory_chunk());
            let mut wb = Uniform::new(jumped.n_cores(), 1, memory_chunk());
            stepped.step(&mut wa);
            jumped.step(&mut wb);
            assert_eq!(
                stepped.total_energy_joules().to_bits(),
                jumped.total_energy_joules().to_bits(),
                "post-idle busy quantum identical after {quanta} idle quanta"
            );
            assert_eq!(
                stepped.total_instructions().to_bits(),
                jumped.total_instructions().to_bits()
            );
        }
    }

    #[test]
    fn advance_idle_applies_pending_frequency_writes() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        p.set_core_freq(Freq(15));
        p.set_uncore_freq(Freq(18));
        p.advance_idle_quanta(10);
        assert_eq!(p.core_freq(), Freq(15));
        assert_eq!(p.uncore_freq(), Freq(18));
        assert_eq!(p.frequency_residency().get(&(15, 18)), Some(&10_000_000));
    }

    #[test]
    #[should_panic(expected = "every core to be parked")]
    fn advance_idle_rejects_in_flight_work() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        // A chunk far too large to finish in one quantum stays in flight.
        let mut wl = Uniform::new(p.n_cores(), 1, Chunk::new(1_000_000_000, 0, 0));
        p.step(&mut wl);
        p.advance_idle_quanta(1);
    }

    #[test]
    fn next_event_semantics() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let q = p.spec().quantum_ns;
        // Parked machine, workload that never wakes: no event.
        assert_eq!(p.next_event_ns(&Never), None);
        // Default wake (may produce work at any time): next boundary.
        let idle_now = Uniform::new(p.n_cores(), 0, compute_chunk());
        assert_eq!(p.next_event_ns(&idle_now), Some(q));
        // Every core mid-chunk: the event is the conservative earliest
        // chunk completion, at least one quantum out.
        let mut big = Uniform::new(p.n_cores(), 1, Chunk::new(1_000_000_000, 0, 0));
        p.step(&mut big);
        let event = p.next_event_ns(&Never).unwrap();
        assert_eq!(event, p.now_ns() + p.busy_runway_quanta() * q);
        assert!(event > p.now_ns() + q, "a giant chunk runs many quanta");
        // Mixed busy/parked cores: the next boundary (a parked core
        // may be handed work at any quantum).
        struct OnlyCoreZero(bool);
        impl Workload for OnlyCoreZero {
            fn next_chunk(&mut self, core: usize, _: u64) -> Option<Chunk> {
                (core == 0 && std::mem::take(&mut self.0)).then(|| Chunk::new(1_000_000_000, 0, 0))
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut mixed = SimProcessor::new(HASWELL_2650V3.clone());
        mixed.step(&mut OnlyCoreZero(true));
        assert!(!mixed.cores_parked());
        assert_eq!(mixed.next_event_ns(&Never), Some(mixed.now_ns() + q));
        // A future wake rounds up to the quantum grid.
        struct WakeAt(u64);
        impl Workload for WakeAt {
            fn next_chunk(&mut self, _: usize, _: u64) -> Option<Chunk> {
                None
            }
            fn is_done(&self) -> bool {
                false
            }
            fn next_wake_ns(&self, _now: u64) -> Option<u64> {
                Some(self.0)
            }
        }
        let p2 = SimProcessor::new(HASWELL_2650V3.clone());
        assert_eq!(p2.next_event_ns(&WakeAt(q * 3 + 1)), Some(q * 4));
        assert_eq!(p2.next_event_ns(&WakeAt(q * 3)), Some(q * 3));
    }

    #[test]
    fn stepping_counters_track_all_three_paths() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl = Uniform::new(p.n_cores(), 30, compute_chunk());
        p.step(&mut wl);
        let stepped = p.stepped_quanta();
        assert_eq!(p.total_quanta(), stepped);
        let busy = p.advance_busy_quanta(&mut wl, 3);
        assert_eq!(busy, 3);
        assert_eq!(p.stepped_quanta(), stepped);
        assert_eq!(p.busy_advanced_quanta(), 3);
        assert_eq!(p.idle_advanced_quanta(), 0);
        assert_eq!(p.total_quanta(), stepped + 3);
        // Drain, then idle-advance.
        while !p.workload_drained(&wl) {
            p.step(&mut wl);
        }
        let stepped = p.stepped_quanta();
        let total = p.total_quanta();
        p.advance_idle_quanta(40);
        assert_eq!(p.stepped_quanta(), stepped);
        assert_eq!(p.idle_advanced_quanta(), 40);
        assert_eq!(p.busy_advanced_quanta(), 3);
        assert_eq!(p.total_quanta(), total + 40);
        assert_eq!(
            p.total_quanta(),
            p.stepped_quanta() + p.idle_advanced_quanta() + p.busy_advanced_quanta()
        );
    }

    #[test]
    fn advance_busy_is_bit_identical_to_busy_stepping() {
        // Prime a non-trivial machine state (deep bandwidth overload,
        // rotation offset, counter history), then run one copy by
        // stepping and the other by a single analytic busy advance,
        // against identically-seeded workloads.
        for quanta in [1u64, 2, 3, 17, 400] {
            // Two identical (processor, workload) pairs, primed
            // identically so the chunk streams sit at the same point.
            let prime = |p: &mut SimProcessor, wl: &mut Uniform| {
                p.set_uncore_freq(Freq(12)); // deep overload regime
                for _ in 0..5 {
                    p.step(wl);
                }
            };
            let mut stepped = SimProcessor::new(HASWELL_2650V3.clone());
            let mut wl_s = Uniform::new(stepped.n_cores(), 10_000, memory_chunk());
            prime(&mut stepped, &mut wl_s);
            let mut jumped = SimProcessor::new(HASWELL_2650V3.clone());
            let mut wl_j = Uniform::new(jumped.n_cores(), 10_000, memory_chunk());
            prime(&mut jumped, &mut wl_j);

            for _ in 0..quanta {
                stepped.step(&mut wl_s);
            }
            let done = jumped.advance_busy_quanta(&mut wl_j, quanta);
            assert_eq!(done, quanta, "saturated stream must absorb fully");
            assert_eq!(jumped.busy_advance_stats().len(), quanta as usize);

            assert_eq!(
                stepped.total_energy_joules().to_bits(),
                jumped.total_energy_joules().to_bits(),
                "energy must round identically over {quanta} busy quanta"
            );
            assert_eq!(
                stepped.total_instructions().to_bits(),
                jumped.total_instructions().to_bits()
            );
            assert_eq!(stepped.now_ns(), jumped.now_ns());
            assert_eq!(stepped.frequency_residency(), jumped.frequency_residency());
            assert_eq!(
                stepped.msr_read(crate::msr::MSR_PKG_ENERGY_STATUS).unwrap(),
                jumped.msr_read(crate::msr::MSR_PKG_ENERGY_STATUS).unwrap()
            );
            for c in 0..stepped.n_cores() {
                for addr in [
                    crate::msr::IA32_FIXED_CTR0,
                    crate::msr::IA32_APERF,
                    crate::msr::IA32_MPERF,
                ] {
                    assert_eq!(
                        stepped.msr_read_core(c, addr).unwrap(),
                        jumped.msr_read_core(c, addr).unwrap(),
                        "core {c} counter {addr:#x} after {quanta} quanta"
                    );
                }
            }
            let s = stepped.last_quantum();
            let j = jumped.last_quantum();
            assert_eq!(s.power_watts.to_bits(), j.power_watts.to_bits());
            assert_eq!(s.overload.to_bits(), j.overload.to_bits());
            assert_eq!(s.achieved_bw.to_bits(), j.achieved_bw.to_bits());
            assert_eq!(s.instructions.to_bits(), j.instructions.to_bits());
            // The recorded telemetry matches what stepping observed
            // last, and continuing by stepping stays in lockstep.
            let tail = *jumped.busy_advance_stats().last().unwrap();
            assert_eq!(tail.power_watts.to_bits(), s.power_watts.to_bits());
            stepped.step(&mut wl_s);
            jumped.step(&mut wl_j);
            assert_eq!(
                stepped.total_energy_joules().to_bits(),
                jumped.total_energy_joules().to_bits(),
                "post-stretch busy quantum identical after {quanta} quanta"
            );
        }
    }

    #[test]
    fn advance_busy_absorbs_boundaries_and_parks_early() {
        // A finite workload: the advance must absorb the chunk
        // completions (identical next_chunk order) and stop once every
        // core parks, reporting fewer quanta than requested.
        let mut stepped = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl_s = Uniform::new(stepped.n_cores(), 6, memory_chunk());
        let mut jumped = stepped.clone();
        let mut wl_j = Uniform::new(jumped.n_cores(), 6, memory_chunk());

        stepped.step(&mut wl_s);
        jumped.step(&mut wl_j);
        while !stepped.cores_parked() {
            stepped.step(&mut wl_s);
        }
        let done = jumped.advance_busy_quanta(&mut wl_j, 100_000);
        assert!(done < 100_000, "drained workload must end the stretch");
        assert_eq!(jumped.now_ns(), stepped.now_ns());
        assert_eq!(
            stepped.total_energy_joules().to_bits(),
            jumped.total_energy_joules().to_bits()
        );
        assert_eq!(
            stepped.total_instructions().to_bits(),
            jumped.total_instructions().to_bits()
        );
        // Parked machine: busy advance is a no-op returning 0.
        assert_eq!(jumped.advance_busy_quanta(&mut wl_j, 10), 0);
    }

    #[test]
    fn busy_runway_bounds_the_first_workload_call() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        // One huge compute chunk per core: completion is far away.
        let mut wl = Uniform::new(p.n_cores(), 1, Chunk::new(500_000_000, 0, 0));
        p.step(&mut wl);
        let runway = p.busy_runway_quanta();
        assert!(
            runway > 10,
            "long chunk should yield a long runway, got {runway}"
        );
        let event = p.next_event_ns(&wl).unwrap();
        assert_eq!(event, p.now_ns() + runway * p.spec().quantum_ns);
        // Stepping strictly fewer quanta than the runway must make no
        // workload calls (all cores stay mid-chunk).
        struct Panicking;
        impl Workload for Panicking {
            fn next_chunk(&mut self, _: usize, _: u64) -> Option<Chunk> {
                panic!("no workload call may occur inside the runway");
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        for _ in 0..runway - 1 {
            p.step(&mut Panicking);
        }
    }

    #[test]
    fn overload_converges_for_steady_phase() {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        p.set_uncore_freq(Freq(12)); // far below knee
        let mut wl = Uniform::new(p.n_cores(), 200, memory_chunk());
        let mut overloads = Vec::new();
        for _ in 0..50 {
            p.step(&mut wl);
            overloads.push(p.last_quantum().overload);
        }
        // After convergence the overload is stable and > 1.
        let tail: Vec<f64> = overloads[40..].to_vec();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean > 1.2, "deep overload expected, got {mean}");
        for v in &tail {
            assert!((v - mean).abs() / mean < 0.05, "overload should settle");
        }
        // And achieved bandwidth must not exceed the cap materially.
        let cap = p.perf_model().bandwidth_cap(Freq(12));
        assert!(p.last_quantum().achieved_bw <= cap * 1.10);
    }
}
