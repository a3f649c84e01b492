//! The ordered temporal loop stack.

use std::fmt;
use ulm_workload::{Dim, DimSizes};

/// One temporal for-loop: a dimension iterated `size` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TemporalLoop {
    /// The loop dimension.
    pub dim: Dim,
    /// The loop bound (iteration count).
    pub size: u64,
}

impl TemporalLoop {
    /// Builds a loop.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(dim: Dim, size: u64) -> Self {
        assert!(size > 0, "temporal loop size must be positive");
        Self { dim, size }
    }
}

impl fmt::Display for TemporalLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.dim, self.size)
    }
}

/// The global ordered temporal loop stack, **innermost loop first**.
///
/// All operands share one stack; their [`OperandAlloc`](crate::OperandAlloc)s
/// cut it into per-level ranges at (possibly) different positions. Because
/// every `Mem_CC` is a prefix product of this single stack, any two periods
/// divide one another — the property the periodic-window union math
/// exploits.
///
/// # Example
///
/// ```
/// use ulm_mapping::LoopStack;
/// use ulm_workload::Dim;
///
/// let s = LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 4), (Dim::K, 2)]);
/// assert_eq!(s.total_cycles(), 64);
/// assert_eq!(s.prefix_cycles(2), 32);
/// assert_eq!(s.extent(Dim::B), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct LoopStack {
    loops: Vec<TemporalLoop>,
}

impl LoopStack {
    /// Builds a stack from loops, innermost first. Size-1 loops are
    /// dropped (they are no-ops for every derived quantity).
    pub fn new(loops: Vec<TemporalLoop>) -> Self {
        Self {
            loops: loops.into_iter().filter(|l| l.size > 1).collect(),
        }
    }

    /// Builds a stack from `(dim, size)` pairs, innermost first.
    pub fn from_pairs(pairs: &[(Dim, u64)]) -> Self {
        Self::new(
            pairs
                .iter()
                .map(|&(d, s)| TemporalLoop::new(d, s))
                .collect(),
        )
    }

    /// An empty stack (single-iteration nest).
    pub fn empty() -> Self {
        Self { loops: vec![] }
    }

    /// The loops, innermost first.
    pub fn loops(&self) -> &[TemporalLoop] {
        &self.loops
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True if the stack has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Product of all loop sizes: the temporal iteration count, which is
    /// the computation-phase latency when the array never stalls
    /// (`CC_spatial`, Fig. 1b scenario 2).
    pub fn total_cycles(&self) -> u64 {
        self.loops.iter().map(|l| l.size).product()
    }

    /// Product of the innermost `p` loop sizes.
    ///
    /// # Panics
    ///
    /// Panics if `p > len()`.
    pub fn prefix_cycles(&self, p: usize) -> u64 {
        self.loops[..p].iter().map(|l| l.size).product()
    }

    /// Per-dimension extents of the innermost `p` loops.
    pub fn prefix_extents(&self, p: usize) -> DimSizes {
        let mut e = DimSizes::ones();
        for l in &self.loops[..p] {
            e.multiply(l.dim, l.size);
        }
        e
    }

    /// Total iteration count along `dim` over the whole stack.
    pub fn extent(&self, dim: Dim) -> u64 {
        self.loops
            .iter()
            .filter(|l| l.dim == dim)
            .map(|l| l.size)
            .product()
    }
}

impl fmt::Display for LoopStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.loops.is_empty() {
            return write!(f, "(empty)");
        }
        // Outermost first, like a written loop nest.
        let parts: Vec<String> = self.loops.iter().rev().map(|l| l.to_string()).collect();
        write!(f, "{}", parts.join(" / "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn products_and_prefixes() {
        let s = LoopStack::from_pairs(&[(Dim::C, 3), (Dim::K, 5), (Dim::C, 2)]);
        assert_eq!(s.total_cycles(), 30);
        assert_eq!(s.prefix_cycles(0), 1);
        assert_eq!(s.prefix_cycles(1), 3);
        assert_eq!(s.prefix_cycles(3), 30);
        assert_eq!(s.extent(Dim::C), 6);
        assert_eq!(s.extent(Dim::K), 5);
        assert_eq!(s.prefix_extents(2)[Dim::K], 5);
        assert_eq!(s.prefix_extents(2)[Dim::C], 3);
    }

    #[test]
    fn unit_loops_dropped() {
        let s = LoopStack::from_pairs(&[(Dim::B, 1), (Dim::K, 4), (Dim::C, 1)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_cycles(), 4);
    }

    #[test]
    fn empty_stack_is_one_cycle() {
        let s = LoopStack::empty();
        assert!(s.is_empty());
        assert_eq!(s.total_cycles(), 1);
        assert_eq!(s.to_string(), "(empty)");
    }

    #[test]
    fn display_is_outermost_first() {
        let s = LoopStack::from_pairs(&[(Dim::C, 8), (Dim::K, 2)]);
        assert_eq!(s.to_string(), "K 2 / C 8");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_loop_rejected() {
        let _ = TemporalLoop::new(Dim::B, 0);
    }
}
