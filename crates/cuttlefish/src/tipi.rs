//! TIPI slab quantization (§3.2).
//!
//! Raw TIPI readings are binned into fixed slabs of width 0.004
//! (empirically derived in the paper): readings 0.004, 0.005 and 0.007
//! all report as the range 0.004–0.008. Every slab discovered at
//! runtime gets one node in the sorted TIPI list; the slab *index*
//! orders nodes from compute-bound (low) to memory-bound (high).

use std::fmt;

/// A quantized TIPI range `[index·width, (index+1)·width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TipiSlab(pub u32);

impl TipiSlab {
    /// Quantize a raw TIPI reading with the given slab width.
    pub fn quantize(tipi: f64, width: f64) -> Self {
        debug_assert!(width > 0.0);
        let t = tipi.max(0.0);
        TipiSlab((t / width).floor() as u32)
    }

    /// Lower bound of the range.
    pub fn lo(self, width: f64) -> f64 {
        self.0 as f64 * width
    }

    /// Upper bound (exclusive) of the range.
    pub fn hi(self, width: f64) -> f64 {
        (self.0 + 1) as f64 * width
    }

    /// Paper-style label like `"0.064-0.068"`.
    pub fn label(self, width: f64) -> String {
        format!("{:.3}-{:.3}", self.lo(width), self.hi(width))
    }
}

impl fmt::Display for TipiSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slab#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: f64 = 0.004;

    #[test]
    fn paper_example_bins_together() {
        // "TIPI values 0.004, 0.005 and 0.007 would be reported under
        // the TIPI range 0.004-0.008."
        let a = TipiSlab::quantize(0.004, W);
        let b = TipiSlab::quantize(0.005, W);
        let c = TipiSlab::quantize(0.007, W);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a, TipiSlab(1));
        assert_eq!(a.label(W), "0.004-0.008");
    }

    #[test]
    fn boundaries_are_half_open() {
        assert_eq!(TipiSlab::quantize(0.0079999, W), TipiSlab(1));
        assert_eq!(TipiSlab::quantize(0.008, W), TipiSlab(2));
    }

    #[test]
    fn negative_or_zero_clamps_to_slab_zero() {
        assert_eq!(TipiSlab::quantize(0.0, W), TipiSlab(0));
        assert_eq!(TipiSlab::quantize(-1.0, W), TipiSlab(0));
    }

    #[test]
    fn ordering_tracks_memory_boundedness() {
        let uts = TipiSlab::quantize(0.001, W);
        let sor = TipiSlab::quantize(0.025, W);
        let heat = TipiSlab::quantize(0.065, W);
        let amg = TipiSlab::quantize(0.150, W);
        assert!(uts < sor && sor < heat && heat < amg);
    }

    #[test]
    fn bounds_roundtrip() {
        let s = TipiSlab::quantize(0.065, W);
        assert!(s.lo(W) <= 0.065 && 0.065 < s.hi(W));
        assert_eq!(s.label(W), "0.064-0.068");
    }
}
