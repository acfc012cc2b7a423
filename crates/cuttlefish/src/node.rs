//! A TIPI-range node: the per-MAP state of the daemon (§4.2).
//!
//! Each node owns two [`Exploration`]s — core first, then uncore — plus
//! occurrence statistics (used for the paper's "frequent TIPI" notion:
//! a range seen in more than 10 % of all `Tinv` samplings).

use crate::explore::Exploration;
use crate::tipi::TipiSlab;

/// Which exploration stage the node is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Exploring the core frequency (uncore pinned at max).
    Core,
    /// Core resolved; exploring the uncore frequency.
    Uncore,
    /// Both optima resolved.
    Done,
}

/// Per-TIPI-range state.
#[derive(Debug, Clone)]
pub struct Node {
    /// The quantized TIPI range this node represents.
    pub slab: TipiSlab,
    /// Core-frequency exploration.
    pub cf: Exploration,
    /// Uncore-frequency exploration; created only when the core
    /// optimum resolves (Algorithm 3 needs CFopt).
    pub uf: Option<Exploration>,
    /// Number of `Tinv` samples attributed to this range.
    pub occurrences: u64,
}

impl Node {
    /// Fresh node exploring the core domain over `[cf_lb, cf_rb]`.
    pub fn new(slab: TipiSlab, cf_lb: usize, cf_rb: usize, n_cf: usize, needed: u32) -> Self {
        Node {
            slab,
            cf: Exploration::new(cf_lb, cf_rb, n_cf, needed),
            uf: None,
            occurrences: 0,
        }
    }

    /// Current stage.
    pub fn stage(&self) -> Stage {
        if self.cf.opt().is_none() {
            Stage::Core
        } else {
            match &self.uf {
                Some(uf) if uf.opt().is_some() => Stage::Done,
                _ => Stage::Uncore,
            }
        }
    }

    /// Resolved core optimum (domain index).
    pub fn cf_opt(&self) -> Option<usize> {
        self.cf.opt()
    }

    /// Resolved uncore optimum (domain index).
    pub fn uf_opt(&self) -> Option<usize> {
        self.uf.as_ref().and_then(|u| u.opt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_progression() {
        let mut n = Node::new(TipiSlab(5), 0, 6, 7, 1);
        assert_eq!(n.stage(), Stage::Core);

        // Resolve CF by driving the exploration.
        loop {
            let adv = n.cf.advance();
            if adv.resolved {
                break;
            }
            n.cf.record(adv.next, 4.0 + adv.next as f64);
        }
        assert_eq!(n.cf_opt(), Some(0));
        assert_eq!(n.stage(), Stage::Uncore);

        n.uf = Some(Exploration::new(2, 6, 7, 1));
        assert_eq!(n.stage(), Stage::Uncore);
        loop {
            let adv = n.uf.as_mut().unwrap().advance();
            if adv.resolved {
                break;
            }
            n.uf.as_mut().unwrap().record(adv.next, adv.next as f64);
        }
        assert_eq!(n.stage(), Stage::Done);
        assert_eq!(n.uf_opt(), Some(2));
    }

    #[test]
    fn occurrences_start_at_zero() {
        let n = Node::new(TipiSlab(0), 0, 11, 12, 10);
        assert_eq!(n.occurrences, 0);
        assert_eq!(n.uf_opt(), None);
    }
}
