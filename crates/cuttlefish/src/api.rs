//! The paper's two-call application API: `cuttlefish::start()` /
//! `cuttlefish::stop()`.
//!
//! [`start`] spawns the daemon thread over a [`PowerBackend`]; dropping
//! the returned [`Handle`] (or calling [`Handle::stop`]) shuts the
//! daemon down and restores the platform's frequency settings, exactly
//! like the C++ library's scope. Real-time behaviour — warm-up sleep,
//! `Tinv` cadence — lives here; the decision logic is the shared
//! [`Daemon`] state machine.
//!
//! In the paper, the daemon thread is pinned to a fixed core so its
//! interference pattern is stable; thread pinning is platform-specific
//! and outside the scope of this reproduction (the daemon's work per
//! wake-up — a few counter reads and comparisons — is microseconds).

use crate::backend::PowerBackend;
use crate::daemon::{Daemon, NodeReport};
use crate::{lock, Config};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared daemon state published for introspection while running.
#[derive(Debug, Default)]
struct Published {
    report: Vec<NodeReport>,
    total_samples: u64,
}

/// Running Cuttlefish instance.
pub struct Handle {
    stop: Arc<AtomicBool>,
    published: Arc<Mutex<Published>>,
    thread: Option<JoinHandle<()>>,
}

impl Handle {
    /// Signal the daemon, join it, restore platform state, and return
    /// the final per-TIPI-range report — the daemon's complete learned
    /// state, published one last time on the way out, so callers need
    /// no racy post-join [`report`](Handle::report) read.
    pub fn stop(mut self) -> Vec<NodeReport> {
        self.shutdown();
        lock(&self.published).report.clone()
    }

    /// Current per-TIPI-range report (Table 2 view) — refreshed each
    /// `Tinv` by the daemon while running; [`stop`](Handle::stop)
    /// returns the final one.
    pub fn report(&self) -> Vec<NodeReport> {
        lock(&self.published).report.clone()
    }

    /// Total samples the daemon has processed.
    pub fn total_samples(&self) -> u64 {
        lock(&self.published).total_samples
    }

    /// Idempotent: the join handle is taken exactly once, so a
    /// [`stop`](Handle::stop) followed by the implicit [`Drop`] (or
    /// any repeated drop path) is a no-op. A daemon that panicked
    /// mid-publish leaves the join `Err` (swallowed — the handle's
    /// job is shutdown, not re-raising) and possibly a poisoned
    /// publish mutex; [`lock`](crate::lock) recovers poisoned state
    /// instead of panicking, so the final report read above still
    /// returns the last consistent publication.
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the Cuttlefish daemon over `backend` — the library's
/// `cuttlefish::start()`.
pub fn start<B: PowerBackend + 'static>(mut backend: B, cfg: Config) -> Handle {
    let stop = Arc::new(AtomicBool::new(false));
    let published = Arc::new(Mutex::new(Published::default()));
    let stop2 = stop.clone();
    let published2 = published.clone();

    let thread = std::thread::Builder::new()
        .name("cuttlefish-daemon".into())
        .spawn(move || {
            let (core, uncore) = backend.domains();
            let mut daemon = Daemon::new(cfg.clone(), core, uncore);
            let (cf, uf) = daemon.initial_frequencies();
            backend.set_frequencies(cf, uf);

            // Warm-up (§4.1), interruptible.
            let warmup = Duration::from_nanos(cfg.warmup_ns);
            let step = Duration::from_millis(20);
            let mut waited = Duration::ZERO;
            while waited < warmup && !stop2.load(Ordering::SeqCst) {
                std::thread::sleep(step.min(warmup - waited));
                waited += step;
            }
            // Baseline snapshot.
            let _ = backend.sample();

            let tinv = Duration::from_nanos(cfg.tinv_ns);
            while !stop2.load(Ordering::SeqCst) {
                std::thread::sleep(tinv);
                if let Some(sample) = backend.sample() {
                    let (cf, uf) = daemon.tick(sample);
                    backend.set_frequencies(cf, uf);
                    let mut p = lock(&published2);
                    p.report = daemon.report();
                    p.total_samples = daemon.total_samples();
                }
            }
            // Final publication: a stop() racing the last tick (or
            // arriving during warm-up) still observes the daemon's
            // complete learned state.
            {
                let mut p = lock(&published2);
                p.report = daemon.report();
                p.total_samples = daemon.total_samples();
            }
            backend.restore();
        })
        .expect("failed to spawn cuttlefish daemon");

    Handle {
        stop,
        published,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SharedSimBackend;
    use simproc::engine::{Chunk, Workload};
    use simproc::freq::{Freq, HASWELL_2650V3};
    use simproc::perf::CostProfile;
    use simproc::SimProcessor;

    struct Steady(Chunk);
    impl Workload for Steady {
        fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
            Some(self.0.clone())
        }
        fn is_done(&self) -> bool {
            false
        }
    }

    /// Fast config so wall-clock tests stay quick: tiny warm-up, 2 ms
    /// Tinv, 3 samples per frequency.
    fn fast_cfg() -> Config {
        Config {
            tinv_ns: 2_000_000,
            warmup_ns: 10_000_000,
            samples_per_freq: 3,
            ..Config::default()
        }
    }

    #[test]
    fn start_stop_lifecycle_restores_frequencies() {
        let proc = Arc::new(Mutex::new(SimProcessor::new(HASWELL_2650V3.clone())));
        let backend = SharedSimBackend::new(proc.clone());
        let handle = start(backend, fast_cfg());

        // A workload thread advancing virtual time in step with real
        // time (1 quantum per wall-clock iteration).
        let chunk = Chunk::new(1_000_000, 56_000, 8_000).with_profile(CostProfile::new(0.55, 12.0));
        for _ in 0..400 {
            {
                let mut p = lock(&proc);
                let mut wl = Steady(chunk.clone());
                for _ in 0..5 {
                    p.step(&mut wl);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        // The daemon must have sampled and discovered the TIPI range.
        assert!(handle.total_samples() > 10, "daemon should have ticked");

        // stop() returns the final report — no re-read after join.
        let report = handle.stop();
        assert!(!report.is_empty());
        // After stop, the session restore puts the controls back.
        let mut p = lock(&proc);
        let mut wl = Steady(chunk);
        p.step(&mut wl);
        assert_eq!(p.core_freq(), Freq(23));
        assert_eq!(p.uncore_freq(), Freq(30));
    }

    #[test]
    fn drop_also_shuts_down() {
        let proc = Arc::new(Mutex::new(SimProcessor::new(HASWELL_2650V3.clone())));
        let backend = SharedSimBackend::new(proc);
        let handle = start(backend, fast_cfg());
        drop(handle); // must not hang
    }
}
