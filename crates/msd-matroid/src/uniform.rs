//! The uniform matroid `U_{n,k}`: a set is independent iff `|S| ≤ k`.
//!
//! This is exactly the cardinality constraint of the paper's Section 4
//! (Max-Sum p Diversification); running the Section 5 local search over a
//! uniform matroid recovers the cardinality-constrained problem.

use crate::{ElementId, Matroid};

/// Uniform matroid over `n` elements with rank `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformMatroid {
    n: usize,
    k: usize,
}

impl UniformMatroid {
    /// Creates `U_{n,k}`. `k` is clamped to `n` (a rank above the ground
    /// size is meaningless).
    pub fn new(n: usize, k: usize) -> Self {
        Self { n, k: k.min(n) }
    }

    /// The rank bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Matroid for UniformMatroid {
    fn ground_size(&self) -> usize {
        self.n
    }

    fn is_independent(&self, set: &[ElementId]) -> bool {
        set.len() <= self.k && set.iter().all(|&u| (u as usize) < self.n)
    }

    /// O(1): only the cardinality matters.
    fn can_add(&self, u: ElementId, set: &[ElementId]) -> bool {
        (u as usize) < self.n && set.len() < self.k
    }

    /// O(1): a swap never changes the cardinality.
    fn can_swap(&self, u: ElementId, _v: ElementId, set: &[ElementId]) -> bool {
        (u as usize) < self.n && set.len() <= self.k
    }

    /// O(1): every in-range exchange of a feasible set is feasible.
    fn exchange_feasible(&self, set: &[ElementId], _out: ElementId, inn: ElementId) -> bool {
        (inn as usize) < self.n && set.len() <= self.k
    }

    /// O(1) decision: every member or none.
    fn exchange_partners(&self, set: &[ElementId], inn: ElementId, partners: &mut Vec<ElementId>) {
        partners.clear();
        if (inn as usize) < self.n && set.len() <= self.k {
            partners.extend_from_slice(set);
        }
    }

    fn rank(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::MatroidAudit;

    #[test]
    fn independence_is_cardinality() {
        let m = UniformMatroid::new(5, 2);
        assert!(m.is_independent(&[]));
        assert!(m.is_independent(&[3]));
        assert!(m.is_independent(&[3, 0]));
        assert!(!m.is_independent(&[3, 0, 1]));
    }

    #[test]
    fn out_of_range_elements_are_dependent() {
        let m = UniformMatroid::new(3, 3);
        assert!(!m.is_independent(&[7]));
        assert!(!m.can_add(7, &[]));
    }

    #[test]
    fn rank_is_k() {
        assert_eq!(UniformMatroid::new(10, 4).rank(), 4);
        assert_eq!(UniformMatroid::new(3, 9).rank(), 3); // clamped
        assert_eq!(UniformMatroid::new(3, 9).k(), 3);
    }

    #[test]
    fn swap_preserves_cardinality() {
        let m = UniformMatroid::new(4, 2);
        assert!(m.can_swap(3, 0, &[0, 1]));
        assert!(!m.can_swap(9, 0, &[0, 1]));
    }

    #[test]
    fn axioms_hold() {
        for k in 0..=4 {
            MatroidAudit::exhaustive(&UniformMatroid::new(4, k)).assert_matroid();
        }
    }

    #[test]
    fn zero_rank_matroid_has_only_empty_independent_set() {
        let m = UniformMatroid::new(3, 0);
        assert!(m.is_independent(&[]));
        assert!(!m.is_independent(&[0]));
        assert_eq!(m.rank(), 0);
    }
}
