//! Per-operand allocation of temporal loops to memory levels.

use std::fmt;
use std::ops::Range;

/// For one operand, the cut points that assign the shared loop stack to
/// that operand's memory levels.
///
/// `bounds[L]` is the number of innermost loops held at levels `<= L`;
/// level `L` itself owns the loop range `bounds[L-1] .. bounds[L]`
/// (with `bounds[-1] = 0`). The sequence must be non-decreasing and its
/// last entry must equal the stack length (every loop lives somewhere).
///
/// # Example
///
/// ```
/// use ulm_mapping::OperandAlloc;
///
/// // 3 levels over a 5-loop stack: reg gets loops 0..2, LB 2..2 (none),
/// // GB 2..5.
/// let a = OperandAlloc::new(vec![2, 2, 5]);
/// assert_eq!(a.loops_at(0), 0..2);
/// assert_eq!(a.loops_at(1), 2..2);
/// assert_eq!(a.loops_at(2), 2..5);
/// assert_eq!(a.upper(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct OperandAlloc {
    bounds: Vec<usize>,
}

impl OperandAlloc {
    /// Builds an allocation from cut points.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not non-decreasing. (Consistency
    /// with a particular stack and chain is checked when a
    /// [`MappedLayer`](crate::MappedLayer) is formed.)
    pub fn new(bounds: Vec<usize>) -> Self {
        assert!(!bounds.is_empty(), "allocation needs at least one level");
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "allocation bounds must be non-decreasing: {bounds:?}"
        );
        Self { bounds }
    }

    /// Single-level allocation holding all `n` loops.
    pub fn flat(n: usize) -> Self {
        Self { bounds: vec![n] }
    }

    /// Number of memory levels.
    pub fn levels(&self) -> usize {
        self.bounds.len()
    }

    /// Number of loops at levels `<= level` (the prefix length whose
    /// product is `Mem_CC` at that level).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn upper(&self, level: usize) -> usize {
        self.bounds[level]
    }

    /// Number of loops strictly below `level`.
    pub fn lower(&self, level: usize) -> usize {
        if level == 0 {
            0
        } else {
            self.bounds[level - 1]
        }
    }

    /// The loop index range owned by `level`.
    pub fn loops_at(&self, level: usize) -> Range<usize> {
        self.lower(level)..self.upper(level)
    }

    /// The topmost cut (must equal the stack length in a valid mapping).
    pub fn top(&self) -> usize {
        *self.bounds.last().expect("bounds are non-empty")
    }

    /// The raw cut points.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

impl fmt::Display for OperandAlloc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alloc{:?}", self.bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_stack() {
        let a = OperandAlloc::new(vec![1, 4, 4, 6]);
        let mut covered = vec![];
        for l in 0..a.levels() {
            covered.extend(a.loops_at(l));
        }
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn flat_alloc() {
        let a = OperandAlloc::flat(3);
        assert_eq!(a.levels(), 1);
        assert_eq!(a.loops_at(0), 0..3);
        assert_eq!(a.top(), 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_bounds_rejected() {
        let _ = OperandAlloc::new(vec![3, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_bounds_rejected() {
        let _ = OperandAlloc::new(vec![]);
    }
}
