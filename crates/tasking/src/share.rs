//! Work-sharing scheduler: statically partitioned parallel regions with
//! barriers — the execution model of OpenMP `parallel for` with a
//! `schedule(static)` clause, which is what the paper's `-ws` benchmark
//! variants use.
//!
//! A workload is a sequence of [`Region`]s. Within a region every core
//! owns a fixed list of chunks; a core that drains its list waits at the
//! implicit barrier until every other core finishes the region (the
//! engine sees `None` and parks it — idle barrier time is where
//! work-sharing loses to work-stealing on imbalanced iterations).

use simproc::engine::{Chunk, Workload};

/// One parallel region: per-core chunk lists, executed in order.
#[derive(Debug, Clone)]
pub struct Region {
    per_core: Vec<Vec<Chunk>>,
}

impl Region {
    /// Build a region from explicit per-core chunk lists.
    pub fn from_parts(per_core: Vec<Vec<Chunk>>) -> Self {
        Region { per_core }
    }

    /// Statically partition `chunks` across `n_cores` in contiguous
    /// blocks (OpenMP static schedule).
    pub fn statically_partitioned(chunks: Vec<Chunk>, n_cores: usize) -> Self {
        assert!(n_cores > 0);
        let mut per_core: Vec<Vec<Chunk>> = (0..n_cores).map(|_| Vec::new()).collect();
        let total = chunks.len();
        if total == 0 {
            return Region { per_core };
        }
        let base = total / n_cores;
        let extra = total % n_cores;
        let mut it = chunks.into_iter();
        for (core, list) in per_core.iter_mut().enumerate() {
            let take = base + usize::from(core < extra);
            list.extend(it.by_ref().take(take));
        }
        Region { per_core }
    }

    /// A serial region: all chunks on core 0 (e.g. a sequential setup
    /// phase between parallel loops).
    pub fn serial(chunks: Vec<Chunk>) -> Self {
        Region {
            per_core: vec![chunks],
        }
    }

    /// Number of cores this region addresses.
    pub fn width(&self) -> usize {
        self.per_core.len()
    }

    /// Total chunks in the region.
    pub fn len(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }

    /// Whether the region carries no work.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flatten the region back into a single chunk list (core order),
    /// consuming it. Used when re-expressing work-sharing regions as
    /// flat task sets for a tasking runtime.
    pub fn into_chunks(self) -> Vec<Chunk> {
        self.per_core.into_iter().flatten().collect()
    }
}

/// Executor for a sequence of regions with implicit barriers.
#[derive(Debug)]
pub struct WorkSharingScheduler {
    /// Remaining regions, reversed so the current region pops cheaply.
    regions: Vec<Region>,
    /// Cursor into each core's list of the current region.
    cursor: Vec<usize>,
    current: Option<Region>,
    /// Chunks of the current region not yet handed out: its `len()`
    /// minus the sum of the cursors (0 with no current region). The
    /// region is drained exactly when this reaches 0.
    undrained: usize,
    in_flight: usize,
    regions_done: usize,
    /// Whether each core currently holds a handed-out, uncompleted chunk.
    handed: Vec<bool>,
}

impl WorkSharingScheduler {
    /// Schedule `regions` in order over `n_cores` cores.
    pub fn new(mut regions: Vec<Region>, n_cores: usize) -> Self {
        assert!(n_cores > 0);
        regions.reverse();
        let mut s = WorkSharingScheduler {
            regions,
            cursor: vec![0; n_cores],
            current: None,
            undrained: 0,
            in_flight: 0,
            regions_done: 0,
            handed: vec![false; n_cores],
        };
        s.advance();
        s
    }

    /// Number of regions fully executed so far.
    pub fn regions_done(&self) -> usize {
        self.regions_done
    }

    fn advance(&mut self) {
        self.cursor.iter_mut().for_each(|c| *c = 0);
        self.current = None;
        self.undrained = 0;
        while let Some(r) = self.regions.pop() {
            if r.is_empty() {
                self.regions_done += 1;
                continue;
            }
            self.undrained = r.len();
            self.current = Some(r);
            break;
        }
    }

    /// Whether every chunk of the current region has been handed out.
    /// (Lists of cores beyond the scheduler's width are never handed
    /// out, so a region wider than the machine never drains.)
    fn region_drained(&self) -> bool {
        self.undrained == 0
    }
}

impl Workload for WorkSharingScheduler {
    fn next_chunk(&mut self, core: usize, _now_ns: u64) -> Option<Chunk> {
        // The pull that follows a handed-out chunk signals its
        // completion (parked cores also pull every quantum, hence the
        // per-core flag rather than a bare counter).
        if self.handed_flag(core) {
            self.in_flight -= 1;
            self.set_handed(core, false);
        }

        // Barrier: if the current region is drained but chunks are still
        // in flight on other cores, everyone waits.
        if self.region_drained() {
            if self.in_flight == 0 && self.current.is_some() {
                self.regions_done += 1;
                self.advance();
            } else if self.current.is_none() && self.in_flight == 0 {
                self.advance();
            }
        }

        let region = self.current.as_ref()?;
        let list = region.per_core.get(core)?;
        let at = self.cursor[core];
        if at >= list.len() {
            return None; // this core waits at the barrier
        }
        let chunk = list[at].clone();
        self.cursor[core] = at + 1;
        self.undrained -= 1;
        self.in_flight += 1;
        self.set_handed(core, true);
        Some(chunk)
    }

    fn is_done(&self) -> bool {
        self.current.is_none() && self.regions.is_empty() && self.in_flight == 0
    }

    fn next_wake_ns(&self, now_ns: u64) -> Option<u64> {
        // Until the last region drains, pulls are load-bearing even on
        // parked cores: region advancement and barrier release happen
        // inside `next_chunk`, so no skipped pull can be certified
        // side-effect free. Only the drained tail is — `None` lets the
        // engine fast-forward it to the next barrier timestamp.
        if self.is_done() {
            None
        } else {
            Some(now_ns)
        }
    }
}

impl WorkSharingScheduler {
    fn handed_flag(&self, core: usize) -> bool {
        self.handed[core]
    }
    fn set_handed(&mut self, core: usize, v: bool) {
        self.handed[core] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simproc::engine::SimProcessor;
    use simproc::freq::HYPOTHETICAL7;

    fn chunk(n: u64) -> Chunk {
        Chunk::new(n, n / 1000, 0)
    }

    #[test]
    fn static_partition_is_balanced() {
        let r = Region::statically_partitioned((0..10).map(|_| chunk(1)).collect(), 4);
        let sizes: Vec<usize> = r.per_core.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn executes_all_regions_in_order() {
        let regions = vec![
            Region::statically_partitioned(vec![chunk(100_000); 8], 4),
            Region::serial(vec![chunk(50_000)]),
            Region::statically_partitioned(vec![chunk(100_000); 8], 4),
        ];
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = WorkSharingScheduler::new(regions, p.n_cores());
        p.run(&mut s, |_| {});
        assert!(s.is_done());
        assert_eq!(s.regions_done(), 3);
    }

    #[test]
    fn barrier_blocks_next_region() {
        // Region 1: core 0 gets much more work. Region 2 must not start
        // until core 0 finishes, so total time ~= core-0's serial time
        // of region 1 plus region 2.
        let r1 = Region::from_parts(vec![
            vec![chunk(4_000_000)],
            vec![chunk(100_000)],
            vec![chunk(100_000)],
            vec![chunk(100_000)],
        ]);
        let r2 = Region::statically_partitioned(vec![chunk(100_000); 4], 4);
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = WorkSharingScheduler::new(vec![r1, r2], p.n_cores());
        let secs = p.run(&mut s, |_| {});
        let cf = p.core_freq().hz();
        let lower_bound = (4_000_000.0 + 100_000.0) / cf;
        assert!(
            secs >= lower_bound,
            "imbalanced region must serialize at the barrier: {secs} < {lower_bound}"
        );
    }

    #[test]
    fn empty_regions_are_skipped() {
        let regions = vec![
            Region::statically_partitioned(vec![], 4),
            Region::statically_partitioned(vec![chunk(100_000); 4], 4),
            Region::statically_partitioned(vec![], 4),
        ];
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = WorkSharingScheduler::new(regions, p.n_cores());
        p.run(&mut s, |_| {});
        assert!(s.is_done());
        assert_eq!(s.regions_done(), 3);
    }

    #[test]
    fn serial_region_uses_one_core() {
        let regions = vec![Region::serial(vec![chunk(500_000); 4])];
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = WorkSharingScheduler::new(regions, p.n_cores());
        let secs = p.run(&mut s, |_| {});
        let serial = 4.0 * 500_000.0 / p.core_freq().hz();
        assert!(secs >= serial);
    }

    #[test]
    fn no_work_is_immediately_done() {
        let s = WorkSharingScheduler::new(vec![], 4);
        assert!(s.is_done());
    }
}
