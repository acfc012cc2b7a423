//! A real async–finish work-stealing thread pool.
//!
//! This is the host-thread counterpart of [`crate::steal`]: where that
//! module *simulates* HClib's scheduling discipline on simulated cores,
//! this one actually runs it, with the HClib programming style:
//!
//! ```
//! use tasking::threaded::Pool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = Pool::new(4);
//! let sum = std::sync::Arc::new(AtomicU64::new(0));
//! pool.finish(|scope| {
//!     for i in 0..100u64 {
//!         let sum = sum.clone();
//!         scope.spawn(move |_| {
//!             sum.fetch_add(i, Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 4950);
//! ```
//!
//! `finish` returns only when every task spawned inside it — including
//! tasks spawned transitively by other tasks — has completed, which is
//! exactly the async–finish quiescence semantics of HClib / X10.
//!
//! Each worker owns a `Mutex<VecDeque>` deque and pushes and pops its
//! own tasks at the back (child-first); an idle worker takes from the
//! front of the global queue, then from the front of the other
//! workers' deques (oldest first). Tasks must be `Send + 'static`;
//! share state through `Arc` as the example shows.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce(&Scope<'_>) + Send>;

/// A job with the `finish` scope it counts against.
type Task = (Job, Arc<FinishState>);

/// A task deque: the owner's end is the back, the thieves' the front.
type Deque = Mutex<VecDeque<Task>>;

fn locked(q: &Deque) -> MutexGuard<'_, VecDeque<Task>> {
    // Only pushes and pops run under a deque lock; no job does.
    q.lock().expect("no job runs under a deque lock")
}

/// Pending-task accounting for one `finish` scope.
struct FinishState {
    pending: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl FinishState {
    fn new() -> Arc<Self> {
        Arc::new(FinishState {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    fn task_spawned(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    fn task_done(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    fn wait_quiescent(&self) {
        let mut g = self.lock.lock().unwrap();
        while self.pending.load(Ordering::SeqCst) != 0 {
            let (g2, _) = self.cv.wait_timeout(g, Duration::from_millis(1)).unwrap();
            g = g2;
        }
    }
}

struct Shared {
    /// The global queue: tasks spawned from outside the pool.
    injector: Deque,
    /// One deque per worker, indexed by worker.
    deques: Vec<Deque>,
    shutdown: AtomicBool,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl Shared {
    fn notify_work(&self) {
        let _g = self.idle_lock.lock().unwrap();
        self.idle_cv.notify_all();
    }
}

/// Handle passed to every task; lets it spawn siblings into the same
/// enclosing `finish`.
pub struct Scope<'a> {
    shared: &'a Shared,
    finish: &'a Arc<FinishState>,
    /// The running worker's index; `None` on a user thread.
    worker: Option<usize>,
}

impl Scope<'_> {
    /// Spawn an async task attributed to the enclosing `finish`.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'_>) + Send + 'static,
    {
        self.finish.task_spawned();
        let task = (Box::new(f) as Job, Arc::clone(self.finish));
        match self.worker {
            // Worker thread: child-first, to the back of our deque.
            Some(me) => locked(&self.shared.deques[me]).push_back(task),
            // User thread: through the global queue.
            None => locked(&self.shared.injector).push_back(task),
        }
        self.shared.notify_work();
    }
}

/// The work-stealing pool.
pub struct Pool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spin up `n_threads` workers.
    ///
    /// # Panics
    /// Panics if `n_threads` is zero.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "pool needs at least one thread");
        let shared = Arc::new(Shared {
            injector: Deque::default(),
            deques: (0..n_threads).map(|_| Deque::default()).collect(),
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        let threads = (0..n_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tasking-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Pool { shared, threads }
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Run `f` with a [`Scope`], then block until every task spawned in
    /// the scope (transitively) has completed.
    pub fn finish<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'_>),
    {
        let finish = FinishState::new();
        {
            let scope = Scope {
                shared: &self.shared,
                finish: &finish,
                worker: None,
            };
            f(&scope);
        }
        finish.wait_quiescent();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify_work();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn find_work(shared: &Shared, me: usize) -> Option<Task> {
    // One deque lock at a time (each guard drops with its statement):
    // two workers holding their own deque while locking each other's
    // would deadlock.
    if let Some(task) = locked(&shared.deques[me]).pop_back() {
        return Some(task);
    }
    if let Some(task) = locked(&shared.injector).pop_front() {
        return Some(task);
    }
    shared
        .deques
        .iter()
        .enumerate()
        .filter(|&(victim, _)| victim != me)
        .find_map(|(_, deque)| locked(deque).pop_front())
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        match find_work(shared, me) {
            Some((job, finish)) => {
                let scope = Scope {
                    shared,
                    finish: &finish,
                    worker: Some(me),
                };
                job(&scope);
                finish.task_done();
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Timed wait sidesteps missed-wakeup races against a
                // push landing between `find_work` and the wait.
                let g = shared.idle_lock.lock().unwrap();
                let _ = shared
                    .idle_cv
                    .wait_timeout(g, Duration::from_micros(200))
                    .unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn flat_finish_completes_all_tasks() {
        let pool = Pool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        pool.finish(|scope| {
            for _ in 0..1000 {
                let c = counter.clone();
                scope.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn nested_spawns_are_awaited() {
        // Binary tree of depth 10 spawned recursively: finish must wait
        // for all 2^10 leaves.
        let pool = Pool::new(4);
        let leaves = Arc::new(AtomicU64::new(0));

        fn node(scope: &Scope<'_>, depth: u32, leaves: Arc<AtomicU64>) {
            if depth == 0 {
                leaves.fetch_add(1, Ordering::Relaxed);
                return;
            }
            for _ in 0..2 {
                let l = leaves.clone();
                scope.spawn(move |s| node(s, depth - 1, l));
            }
        }

        pool.finish(|scope| {
            let l = leaves.clone();
            scope.spawn(move |s| node(s, 10, l));
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 1024);
    }

    #[test]
    fn sequential_finishes_are_ordered() {
        let pool = Pool::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        for round in 0..5u32 {
            let log = log.clone();
            pool.finish(move |scope| {
                for _ in 0..50 {
                    let log = log.clone();
                    scope.spawn(move |_| {
                        log.lock().unwrap().push(round);
                    });
                }
            });
        }
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 250);
        // Quiescence between finishes => rounds never interleave.
        let mut sorted = log.clone();
        sorted.sort_unstable();
        assert_eq!(*log, sorted);
    }

    #[test]
    fn empty_finish_returns() {
        let pool = Pool::new(2);
        pool.finish(|_| {});
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = Pool::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        pool.finish(|scope| {
            for _ in 0..100 {
                let c = counter.clone();
                scope.spawn(move |s| {
                    let c2 = c.clone();
                    s.spawn(move |_| {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn one_worker_runs_children_newest_first() {
        // The owner pops its own deque from the back: child-first.
        let pool = Pool::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let parent_log = log.clone();
        pool.finish(move |scope| {
            scope.spawn(move |s| {
                for i in 0..3 {
                    let log = parent_log.clone();
                    s.spawn(move |_| log.lock().unwrap().push(i));
                }
            });
        });
        assert_eq!(*log.lock().unwrap(), [2, 1, 0]);
    }

    #[test]
    fn pool_drop_joins_threads() {
        let pool = Pool::new(4);
        drop(pool); // must not hang
    }
}
