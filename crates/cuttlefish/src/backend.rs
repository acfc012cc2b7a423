//! Platform abstraction: where the daemon's samples come from and
//! where its frequency decisions go.
//!
//! On the paper's hardware this is MSR reads/writes through MSR-SAFE;
//! here the canonical implementation is the simulated processor. The
//! trait keeps the daemon portable: a real `/dev/msr`-backed
//! implementation would slot in without touching the algorithm.

use crate::lock;
use simproc::freq::{Freq, FreqDomain};
use simproc::msr::{Access, MsrSession};
use simproc::profile::{delta, CounterSnapshot, Sample};
use simproc::SimProcessor;
use std::sync::{Arc, Mutex};

/// The platform interface the real-time API ([`crate::api`]) drives.
pub trait PowerBackend: Send {
    /// Core and uncore frequency domains of the machine.
    fn domains(&self) -> (FreqDomain, FreqDomain);
    /// Counter deltas since the previous call (TIPI/JPI sample), or
    /// `None` if no instructions retired in the interval.
    fn sample(&mut self) -> Option<Sample>;
    /// Apply frequency decisions.
    fn set_frequencies(&mut self, cf: Freq, uf: Freq);
    /// Restore any platform state captured at session start (called by
    /// `stop()`, mirroring MSR-SAFE's save/restore).
    fn restore(&mut self);
}

/// A [`PowerBackend`] over a shared simulated processor — used by the
/// threaded API in examples and tests. The processor is advanced by
/// some other party (e.g. a workload thread stepping virtual time);
/// the backend only reads counters and writes frequency controls, via
/// an allow-listed [`MsrSession`] exactly like the real library.
pub struct SharedSimBackend {
    proc: Arc<Mutex<SimProcessor>>,
    session: MsrSession,
    last: Option<CounterSnapshot>,
}

impl SharedSimBackend {
    /// Open a session over the shared processor.
    pub fn new(proc: Arc<Mutex<SimProcessor>>) -> Self {
        let session = {
            let p = lock(&proc);
            MsrSession::open(p.msr_file(), &MsrSession::cuttlefish_allowlist())
        };
        SharedSimBackend {
            proc,
            session,
            last: None,
        }
    }
}

impl PowerBackend for SharedSimBackend {
    fn domains(&self) -> (FreqDomain, FreqDomain) {
        let p = lock(&self.proc);
        (p.spec().core.clone(), p.spec().uncore.clone())
    }

    fn sample(&mut self) -> Option<Sample> {
        let p = lock(&self.proc);
        let now = CounterSnapshot::capture(&p).ok()?;
        drop(p);
        let out = self.last.as_ref().and_then(|prev| delta(prev, &now));
        self.last = Some(now);
        out
    }

    fn set_frequencies(&mut self, cf: Freq, uf: Freq) {
        use simproc::msr::{MsrFile, IA32_PERF_CTL, MSR_UNCORE_RATIO_LIMIT};
        let mut p = lock(&self.proc);
        let file = p.msr_file_mut();
        let _ = self
            .session
            .write(file, IA32_PERF_CTL, MsrFile::encode_perf_ctl(cf.0));
        let _ = self.session.write(
            file,
            MSR_UNCORE_RATIO_LIMIT,
            MsrFile::encode_uncore_limit(uf.0, uf.0),
        );
    }

    fn restore(&mut self) {
        let mut p = lock(&self.proc);
        self.session.restore(p.msr_file_mut());
    }
}

/// Convenience: the full Cuttlefish allow-list (re-exported so callers
/// building their own sessions don't reach into `simproc::msr`).
pub fn cuttlefish_allowlist() -> Vec<(u32, Access)> {
    MsrSession::cuttlefish_allowlist()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simproc::engine::{Chunk, Workload};
    use simproc::freq::HASWELL_2650V3;

    struct Steady;
    impl Workload for Steady {
        fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
            Some(Chunk::new(1_000_000, 10_000, 3_000))
        }
        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn shared_backend_samples_and_sets() {
        let proc = Arc::new(Mutex::new(SimProcessor::new(HASWELL_2650V3.clone())));
        let mut backend = SharedSimBackend::new(proc.clone());

        // First sample call establishes the baseline.
        assert!(backend.sample().is_none());

        // Advance virtual time.
        {
            let mut p = lock(&proc);
            let mut wl = Steady;
            for _ in 0..20 {
                p.step(&mut wl);
            }
        }
        let s = backend.sample().expect("20 quanta of activity");
        assert!(s.tipi > 0.0 && s.jpi > 0.0);

        backend.set_frequencies(Freq(15), Freq(20));
        {
            let mut p = lock(&proc);
            let mut wl = Steady;
            p.step(&mut wl);
            assert_eq!(p.core_freq(), Freq(15));
            assert_eq!(p.uncore_freq(), Freq(20));
        }

        backend.restore();
        {
            let mut p = lock(&proc);
            let mut wl = Steady;
            p.step(&mut wl);
            assert_eq!(p.core_freq(), Freq(23), "restore puts controls back");
            assert_eq!(p.uncore_freq(), Freq(30));
        }
    }

    #[test]
    fn domains_match_machine() {
        let proc = Arc::new(Mutex::new(SimProcessor::new(HASWELL_2650V3.clone())));
        let backend = SharedSimBackend::new(proc);
        let (c, u) = backend.domains();
        assert_eq!(c.len(), 12);
        assert_eq!(u.len(), 19);
    }
}
