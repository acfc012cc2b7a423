//! Model-Specific Register (MSR) file, RAPL energy accounting, and an
//! MSR-SAFE-like session layer.
//!
//! The Cuttlefish runtime observes the machine *only* through MSRs, so
//! this module reproduces the registers it needs with the same
//! semantics:
//!
//! | Address | Register | Semantics |
//! |---|---|---|
//! | `0x606` | `MSR_RAPL_POWER_UNIT` | bits 8..13 = energy-status unit `n`; one count = `1/2ⁿ` J |
//! | `0x611` | `MSR_PKG_ENERGY_STATUS` | 32-bit wrapping package energy counter, updated every 1 ms of virtual time (the Haswell RAPL cadence the paper's §5.4 relies on) |
//! | `0x198` | `IA32_PERF_STATUS` | current core ratio in bits 8..16 |
//! | `0x199` | `IA32_PERF_CTL` | write target core ratio to bits 8..16 (chip-wide, as the paper configures all cores together) |
//! | `0x620` | `MSR_UNCORE_RATIO_LIMIT` | bits 0..7 = max uncore ratio, bits 8..15 = min; writing min = max pins the uncore frequency (exactly how Cuttlefish drives UFS) |
//! | `0x309` | `IA32_FIXED_CTR0` | per-core `INST_RETIRED.ANY`, 48-bit wrapping |
//! | `0x700` | `SIM_TOR_INSERT_MISS_LOCAL` | socket-aggregated TOR-insert count for local misses, 48-bit wrapping |
//! | `0x701` | `SIM_TOR_INSERT_MISS_REMOTE` | same for remote misses |
//!
//! The two `0x700`-range registers are a deliberate simplification: real
//! Haswell exposes TOR inserts through per-CBo uncore-PMU counter pairs
//! that must be programmed with an event select and unit mask
//! (`TOR_INSERT` with `MISS_LOCAL`/`MISS_REMOTE` umasks, Intel uncore
//! performance monitoring guide). The simulator pre-aggregates across
//! CBos and exposes one free-running counter per umask; the profiling
//! arithmetic downstream (sum both, divide by instructions retired) is
//! unchanged.
//!
//! [`MsrSession`] mirrors the MSR-SAFE discipline of the paper's
//! methodology: an allow-list of readable/writable registers, original
//! values of writable registers captured at session open and restored at
//! close.

use std::collections::BTreeMap;

/// `MSR_RAPL_POWER_UNIT`.
pub const MSR_RAPL_POWER_UNIT: u32 = 0x606;
/// `MSR_PKG_ENERGY_STATUS` — 32-bit wrapping energy counter.
pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;
/// `IA32_PERF_STATUS` — current core ratio.
pub const IA32_PERF_STATUS: u32 = 0x198;
/// `IA32_PERF_CTL` — core DVFS control.
pub const IA32_PERF_CTL: u32 = 0x199;
/// `MSR_UNCORE_RATIO_LIMIT` — UFS control.
pub const MSR_UNCORE_RATIO_LIMIT: u32 = 0x620;
/// `IA32_FIXED_CTR0` — per-core instructions retired.
pub const IA32_FIXED_CTR0: u32 = 0x309;
/// `IA32_CLOCK_MODULATION` — per-core dynamic duty-cycle modulation
/// (DDCM). Bit 4 enables modulation; bits 0..4 select the duty level in
/// 1/16 steps (extended modulation). DDCM gates the clock without
/// lowering the voltage, which is why it saves less energy than DVFS
/// for the same slowdown — the comparison the related work (\[6\], \[24\],
/// \[50\]) studies and this simulator reproduces.
pub const IA32_CLOCK_MODULATION: u32 = 0x19a;
/// `IA32_MPERF` — per-core reference-clock ticks while unhalted.
pub const IA32_MPERF: u32 = 0xe7;
/// `IA32_APERF` — per-core actual-clock ticks while unhalted. The
/// ratio `ΔAPERF/ΔMPERF` is the effective frequency ratio — the
/// standard way to verify DVFS actually took effect.
pub const IA32_APERF: u32 = 0xe8;
/// Reference (TSC) clock in Hz, the MPERF tick rate.
pub const TSC_HZ: f64 = 100.0e6 * 23.0;
/// Simulated socket-wide TOR inserts, local-miss umask.
pub const SIM_TOR_INSERT_MISS_LOCAL: u32 = 0x700;
/// Simulated socket-wide TOR inserts, remote-miss umask.
pub const SIM_TOR_INSERT_MISS_REMOTE: u32 = 0x701;

/// Energy-status unit exponent: one RAPL count = `2^-14` J ≈ 61 µJ
/// (Haswell-EP package domain).
pub const ENERGY_UNIT_EXPONENT: u32 = 14;

/// Joules represented by one package-energy count.
pub const JOULES_PER_COUNT: f64 = 1.0 / (1u64 << ENERGY_UNIT_EXPONENT) as f64;

/// Mask for 48-bit free-running performance counters.
pub const CTR48_MASK: u64 = (1 << 48) - 1;

/// Errors surfaced by MSR access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsrError {
    /// The address is not implemented by this machine.
    Unknown(u32),
    /// The register exists but is read-only.
    ReadOnly(u32),
    /// Core index out of range for a per-core register.
    BadCore(usize),
    /// A session denied access (not on the allow-list).
    Denied(u32),
}

impl std::fmt::Display for MsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsrError::Unknown(a) => write!(f, "unknown MSR {a:#x}"),
            MsrError::ReadOnly(a) => write!(f, "MSR {a:#x} is read-only"),
            MsrError::BadCore(c) => write!(f, "core {c} out of range"),
            MsrError::Denied(a) => write!(f, "MSR {a:#x} not on session allow-list"),
        }
    }
}

impl std::error::Error for MsrError {}

/// The register file of one simulated package.
#[derive(Debug, Clone)]
pub struct MsrFile {
    n_cores: usize,
    /// Exact accumulated package energy in joules (simulation ground
    /// truth; the RAPL counter is its quantized, wrapping projection).
    energy_joules: f64,
    /// Per-core retired-instruction accumulators (exact).
    inst_retired: Vec<f64>,
    /// Per-core unhalted reference-clock ticks (exact).
    mperf: Vec<f64>,
    /// Per-core unhalted actual-clock ticks (exact).
    aperf: Vec<f64>,
    /// Socket-wide TOR insert accumulators (exact).
    tor_local: f64,
    tor_remote: f64,
    /// Architectural control registers.
    perf_ctl: u64,
    uncore_ratio_limit: u64,
    /// Per-core `IA32_CLOCK_MODULATION` values.
    clock_modulation: Vec<u64>,
    /// Current core ratio mirrored into `IA32_PERF_STATUS`.
    cur_core_ratio: u32,
}

impl MsrFile {
    /// Fresh register file with control registers reflecting the given
    /// initial ratios.
    pub fn new(n_cores: usize, core_ratio: u32, uncore_ratio: u32) -> Self {
        let mut f = MsrFile {
            n_cores,
            energy_joules: 0.0,
            inst_retired: vec![0.0; n_cores],
            mperf: vec![0.0; n_cores],
            aperf: vec![0.0; n_cores],
            tor_local: 0.0,
            tor_remote: 0.0,
            perf_ctl: 0,
            uncore_ratio_limit: 0,
            clock_modulation: vec![0; n_cores],
            cur_core_ratio: core_ratio,
        };
        f.perf_ctl = (core_ratio as u64) << 8;
        f.uncore_ratio_limit = Self::encode_uncore_limit(uncore_ratio, uncore_ratio);
        f
    }

    /// Encode a `MSR_UNCORE_RATIO_LIMIT` value pinning min=`min`,
    /// max=`max` (ratios in 100 MHz units).
    pub fn encode_uncore_limit(min: u32, max: u32) -> u64 {
        ((min as u64 & 0x7f) << 8) | (max as u64 & 0x7f)
    }

    /// Decode (min, max) ratios from a `MSR_UNCORE_RATIO_LIMIT` value.
    pub fn decode_uncore_limit(v: u64) -> (u32, u32) {
        (((v >> 8) & 0x7f) as u32, (v & 0x7f) as u32)
    }

    /// Encode an `IA32_PERF_CTL` value requesting the given core ratio.
    pub fn encode_perf_ctl(ratio: u32) -> u64 {
        (ratio as u64 & 0xff) << 8
    }

    /// Decode the requested core ratio from an `IA32_PERF_CTL` value.
    pub fn decode_perf_ctl(v: u64) -> u32 {
        ((v >> 8) & 0xff) as u32
    }

    /// Encode an `IA32_CLOCK_MODULATION` value: `duty_16ths` of 16
    /// (1..=15), or disabled when 0/16.
    pub fn encode_clock_modulation(duty_16ths: u32) -> u64 {
        if duty_16ths == 0 || duty_16ths >= 16 {
            0
        } else {
            0x10 | duty_16ths as u64
        }
    }

    /// Effective duty fraction of a core (1.0 when modulation is off).
    pub fn duty_fraction(&self, core: usize) -> f64 {
        let v = self.clock_modulation.get(core).copied().unwrap_or(0);
        if v & 0x10 == 0 {
            1.0
        } else {
            let level = (v & 0x0f).max(1);
            level as f64 / 16.0
        }
    }

    // ------------------------------------------------------------------
    // Engine-side (device) interface
    // ------------------------------------------------------------------

    /// Accumulate `joules` of package energy (called once per quantum).
    pub fn add_energy(&mut self, joules: f64) {
        debug_assert!(joules >= 0.0);
        self.energy_joules += joules;
    }

    /// Accumulate retired instructions on `core`.
    pub fn add_inst_retired(&mut self, core: usize, n: f64) {
        self.inst_retired[core] += n;
    }

    /// Accumulate TOR inserts.
    pub fn add_tor(&mut self, local: f64, remote: f64) {
        self.tor_local += local;
        self.tor_remote += remote;
    }

    /// Accumulate unhalted clock ticks on `core`: `busy_s` seconds of
    /// non-halted execution at `cf_hz` actual clock.
    pub fn add_unhalted(&mut self, core: usize, busy_s: f64, cf_hz: f64) {
        self.mperf[core] += busy_s * TSC_HZ;
        self.aperf[core] += busy_s * cf_hz;
    }

    /// Exact energy ground truth (not available to MSR readers).
    pub fn energy_joules_exact(&self) -> f64 {
        self.energy_joules
    }

    /// Exact total instructions retired across all cores.
    pub fn inst_retired_exact(&self) -> f64 {
        self.inst_retired.iter().sum()
    }

    /// Requested core ratio from the last `IA32_PERF_CTL` write.
    pub fn requested_core_ratio(&self) -> u32 {
        Self::decode_perf_ctl(self.perf_ctl)
    }

    /// Requested uncore (min, max) ratios.
    pub fn requested_uncore_ratios(&self) -> (u32, u32) {
        Self::decode_uncore_limit(self.uncore_ratio_limit)
    }

    /// Engine reports the ratio actually in effect (mirrored into
    /// `IA32_PERF_STATUS`).
    pub fn set_current_core_ratio(&mut self, ratio: u32) {
        self.cur_core_ratio = ratio;
    }

    // ------------------------------------------------------------------
    // Software-visible interface
    // ------------------------------------------------------------------

    /// Read a package-scope MSR.
    pub fn read(&self, addr: u32) -> Result<u64, MsrError> {
        match addr {
            MSR_RAPL_POWER_UNIT => Ok(((ENERGY_UNIT_EXPONENT as u64) & 0x1f) << 8),
            MSR_PKG_ENERGY_STATUS => {
                let counts = (self.energy_joules / JOULES_PER_COUNT) as u64;
                Ok(counts & 0xffff_ffff)
            }
            IA32_PERF_STATUS => Ok((self.cur_core_ratio as u64) << 8),
            IA32_PERF_CTL => Ok(self.perf_ctl),
            MSR_UNCORE_RATIO_LIMIT => Ok(self.uncore_ratio_limit),
            SIM_TOR_INSERT_MISS_LOCAL => Ok((self.tor_local as u64) & CTR48_MASK),
            SIM_TOR_INSERT_MISS_REMOTE => Ok((self.tor_remote as u64) & CTR48_MASK),
            IA32_FIXED_CTR0 => Err(MsrError::BadCore(usize::MAX)),
            _ => Err(MsrError::Unknown(addr)),
        }
    }

    /// Read a per-core MSR.
    pub fn read_core(&self, core: usize, addr: u32) -> Result<u64, MsrError> {
        if core >= self.n_cores {
            return Err(MsrError::BadCore(core));
        }
        match addr {
            IA32_FIXED_CTR0 => Ok((self.inst_retired[core] as u64) & CTR48_MASK),
            IA32_MPERF => Ok((self.mperf[core] as u64) & CTR48_MASK),
            IA32_APERF => Ok((self.aperf[core] as u64) & CTR48_MASK),
            IA32_CLOCK_MODULATION => Ok(self.clock_modulation[core]),
            _ => self.read(addr),
        }
    }

    /// Write a per-core MSR.
    pub fn write_core(&mut self, core: usize, addr: u32, value: u64) -> Result<(), MsrError> {
        if core >= self.inst_retired.len() {
            return Err(MsrError::BadCore(core));
        }
        match addr {
            IA32_CLOCK_MODULATION => {
                self.clock_modulation[core] = value & 0x1f;
                Ok(())
            }
            _ => self.write(addr, value),
        }
    }

    /// Write a package-scope MSR.
    pub fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        match addr {
            IA32_PERF_CTL => {
                self.perf_ctl = value;
                Ok(())
            }
            MSR_UNCORE_RATIO_LIMIT => {
                self.uncore_ratio_limit = value;
                Ok(())
            }
            MSR_RAPL_POWER_UNIT
            | MSR_PKG_ENERGY_STATUS
            | IA32_PERF_STATUS
            | IA32_FIXED_CTR0
            | IA32_MPERF
            | IA32_APERF
            | SIM_TOR_INSERT_MISS_LOCAL
            | SIM_TOR_INSERT_MISS_REMOTE => Err(MsrError::ReadOnly(addr)),
            _ => Err(MsrError::Unknown(addr)),
        }
    }
}

/// Access rights for one allow-list entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    ReadWrite,
}

/// An MSR-SAFE-like session: allow-listed access with save/restore of
/// writable control registers.
///
/// The paper's methodology uses the LLNL MSR-SAFE kernel module "for
/// saving and restoring MSR values"; this type plays that role. Open a
/// session before handing MSR access to a tuning runtime; [`MsrSession::restore`]
/// puts every writable register back to its pre-session value (as
/// MSR-SAFE does on release).
#[derive(Debug, Clone)]
pub struct MsrSession {
    allow: BTreeMap<u32, Access>,
    saved: BTreeMap<u32, u64>,
}

impl MsrSession {
    /// Open a session over `file` with the given allow-list, snapshotting
    /// current values of all writable registers.
    pub fn open(file: &MsrFile, allow: &[(u32, Access)]) -> Self {
        let allow: BTreeMap<u32, Access> = allow.iter().copied().collect();
        let mut saved = BTreeMap::new();
        for (&addr, &acc) in &allow {
            if acc == Access::ReadWrite {
                if let Ok(v) = file.read(addr) {
                    saved.insert(addr, v);
                }
            }
        }
        MsrSession { allow, saved }
    }

    /// The allow-list Cuttlefish needs: frequency controls writable,
    /// counters readable.
    pub fn cuttlefish_allowlist() -> Vec<(u32, Access)> {
        vec![
            (IA32_PERF_CTL, Access::ReadWrite),
            (MSR_UNCORE_RATIO_LIMIT, Access::ReadWrite),
            (IA32_PERF_STATUS, Access::Read),
            (MSR_RAPL_POWER_UNIT, Access::Read),
            (MSR_PKG_ENERGY_STATUS, Access::Read),
            (IA32_FIXED_CTR0, Access::Read),
            (SIM_TOR_INSERT_MISS_LOCAL, Access::Read),
            (SIM_TOR_INSERT_MISS_REMOTE, Access::Read),
        ]
    }

    fn check(&self, addr: u32, need_write: bool) -> Result<(), MsrError> {
        match self.allow.get(&addr) {
            Some(Access::ReadWrite) => Ok(()),
            Some(Access::Read) if !need_write => Ok(()),
            _ => Err(MsrError::Denied(addr)),
        }
    }

    /// Allow-list-checked package read.
    pub fn read(&self, file: &MsrFile, addr: u32) -> Result<u64, MsrError> {
        self.check(addr, false)?;
        file.read(addr)
    }

    /// Allow-list-checked per-core read.
    pub fn read_core(&self, file: &MsrFile, core: usize, addr: u32) -> Result<u64, MsrError> {
        self.check(addr, false)?;
        file.read_core(core, addr)
    }

    /// Allow-list-checked write.
    pub fn write(&self, file: &mut MsrFile, addr: u32, value: u64) -> Result<(), MsrError> {
        self.check(addr, true)?;
        file.write(addr, value)
    }

    /// Allow-list-checked per-core write.
    pub fn write_core(
        &self,
        file: &mut MsrFile,
        core: usize,
        addr: u32,
        value: u64,
    ) -> Result<(), MsrError> {
        self.check(addr, true)?;
        file.write_core(core, addr, value)
    }

    /// Restore every writable register to its value at session open.
    pub fn restore(&self, file: &mut MsrFile) {
        for (&addr, &v) in &self.saved {
            // Saved registers were readable at open; writes cannot fail
            // for writable control registers.
            let _ = file.write(addr, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> MsrFile {
        MsrFile::new(4, 23, 30)
    }

    #[test]
    fn rapl_unit_decodes_to_61_microjoules() {
        let f = file();
        let v = f.read(MSR_RAPL_POWER_UNIT).unwrap();
        let esu = (v >> 8) & 0x1f;
        assert_eq!(esu, 14);
        assert!((JOULES_PER_COUNT - 61.0e-6).abs() < 1e-6);
    }

    #[test]
    fn energy_counter_quantizes_and_wraps() {
        let mut f = file();
        f.add_energy(1.0);
        let counts = f.read(MSR_PKG_ENERGY_STATUS).unwrap();
        let back = counts as f64 * JOULES_PER_COUNT;
        assert!((back - 1.0).abs() < 2.0 * JOULES_PER_COUNT);

        // Push past the 32-bit wrap point: 2^32 counts = 2^18 J.
        f.add_energy(262_144.0);
        let wrapped = f.read(MSR_PKG_ENERGY_STATUS).unwrap();
        assert!(wrapped < u32::MAX as u64);
        // Ground truth is unaffected by the wrap.
        assert!(f.energy_joules_exact() > 262_144.0);
    }

    #[test]
    fn perf_ctl_roundtrip() {
        let mut f = file();
        f.write(IA32_PERF_CTL, MsrFile::encode_perf_ctl(15))
            .unwrap();
        assert_eq!(f.requested_core_ratio(), 15);
        assert_eq!(MsrFile::decode_perf_ctl(f.read(IA32_PERF_CTL).unwrap()), 15);
    }

    #[test]
    fn uncore_limit_roundtrip() {
        let mut f = file();
        f.write(MSR_UNCORE_RATIO_LIMIT, MsrFile::encode_uncore_limit(18, 18))
            .unwrap();
        assert_eq!(f.requested_uncore_ratios(), (18, 18));
    }

    #[test]
    fn per_core_instruction_counters() {
        let mut f = file();
        f.add_inst_retired(0, 1000.0);
        f.add_inst_retired(3, 500.0);
        assert_eq!(f.read_core(0, IA32_FIXED_CTR0).unwrap(), 1000);
        assert_eq!(f.read_core(3, IA32_FIXED_CTR0).unwrap(), 500);
        assert_eq!(f.read_core(1, IA32_FIXED_CTR0).unwrap(), 0);
        assert!(matches!(
            f.read_core(9, IA32_FIXED_CTR0),
            Err(MsrError::BadCore(9))
        ));
    }

    #[test]
    fn counters_are_read_only() {
        let mut f = file();
        assert!(matches!(
            f.write(MSR_PKG_ENERGY_STATUS, 0),
            Err(MsrError::ReadOnly(_))
        ));
        assert!(matches!(
            f.write(SIM_TOR_INSERT_MISS_LOCAL, 0),
            Err(MsrError::ReadOnly(_))
        ));
    }

    #[test]
    fn unknown_msr_rejected() {
        let f = file();
        assert!(matches!(f.read(0xdead), Err(MsrError::Unknown(0xdead))));
    }

    #[test]
    fn session_enforces_allowlist() {
        let mut f = file();
        let s = MsrSession::open(&f, &MsrSession::cuttlefish_allowlist());
        assert!(s.read(&f, MSR_PKG_ENERGY_STATUS).is_ok());
        assert!(s
            .write(&mut f, IA32_PERF_CTL, MsrFile::encode_perf_ctl(12))
            .is_ok());
        // Reads allowed, writes denied on read-only entries.
        assert!(matches!(
            s.write(&mut f, MSR_PKG_ENERGY_STATUS, 0),
            Err(MsrError::Denied(_))
        ));
        // Unlisted register denied entirely even though the device knows it.
        let narrow = MsrSession::open(&f, &[(IA32_PERF_CTL, Access::ReadWrite)]);
        assert!(matches!(
            narrow.read(&f, MSR_PKG_ENERGY_STATUS),
            Err(MsrError::Denied(_))
        ));
    }

    #[test]
    fn session_restore_puts_controls_back() {
        let mut f = file();
        let s = MsrSession::open(&f, &MsrSession::cuttlefish_allowlist());
        s.write(&mut f, IA32_PERF_CTL, MsrFile::encode_perf_ctl(12))
            .unwrap();
        s.write(
            &mut f,
            MSR_UNCORE_RATIO_LIMIT,
            MsrFile::encode_uncore_limit(12, 12),
        )
        .unwrap();
        s.restore(&mut f);
        assert_eq!(f.requested_core_ratio(), 23);
        assert_eq!(f.requested_uncore_ratios(), (30, 30));
    }

    #[test]
    fn aperf_mperf_ratio_reports_effective_frequency() {
        let mut f = file();
        // 10 ms unhalted at 1.5 GHz on core 2.
        f.add_unhalted(2, 0.010, 1.5e9);
        let m = f.read_core(2, IA32_MPERF).unwrap() as f64;
        let a = f.read_core(2, IA32_APERF).unwrap() as f64;
        let eff_ghz = a / m * TSC_HZ / 1e9;
        assert!((eff_ghz - 1.5).abs() < 0.01, "effective {eff_ghz} GHz");
        // Idle core: both counters still zero.
        assert_eq!(f.read_core(0, IA32_MPERF).unwrap(), 0);
    }

    #[test]
    fn tor_counters_accumulate() {
        let mut f = file();
        f.add_tor(100.0, 25.0);
        f.add_tor(50.0, 25.0);
        assert_eq!(f.read(SIM_TOR_INSERT_MISS_LOCAL).unwrap(), 150);
        assert_eq!(f.read(SIM_TOR_INSERT_MISS_REMOTE).unwrap(), 50);
    }
}
