//! Truncation: the intersection of a matroid with a uniform matroid.
//!
//! The paper (Section 1, citing Schrijver) notes that *"the intersection of
//! any matroid with a uniform matroid is still a matroid so that … we could
//! further impose the constraint that the set S has at most p elements."*
//! [`TruncatedMatroid`] implements exactly this: independence in the inner
//! matroid **and** `|S| ≤ k`.

use crate::{ElementId, Matroid};

/// `M | k` — the inner matroid truncated to rank at most `k`.
#[derive(Debug, Clone)]
pub struct TruncatedMatroid<M> {
    inner: M,
    k: usize,
}

impl<M: Matroid> TruncatedMatroid<M> {
    /// Truncates `inner` to rank `k`.
    pub fn new(inner: M, k: usize) -> Self {
        Self { inner, k }
    }

    /// The cardinality bound.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The inner matroid.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Matroid> Matroid for TruncatedMatroid<M> {
    fn ground_size(&self) -> usize {
        self.inner.ground_size()
    }

    fn is_independent(&self, set: &[ElementId]) -> bool {
        set.len() <= self.k && self.inner.is_independent(set)
    }

    fn can_add(&self, u: ElementId, set: &[ElementId]) -> bool {
        set.len() < self.k && self.inner.can_add(u, set)
    }

    fn can_swap(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> bool {
        set.len() <= self.k && self.inner.can_swap(u, v, set)
    }

    /// Delegates to the inner matroid's fast path (a swap never changes
    /// the cardinality, so the truncation bound cannot newly fail).
    fn exchange_feasible(&self, set: &[ElementId], out: ElementId, inn: ElementId) -> bool {
        set.len() <= self.k && self.inner.exchange_feasible(set, out, inn)
    }

    /// Delegates to the inner matroid's partner list under the same
    /// cardinality guard.
    fn exchange_partners(&self, set: &[ElementId], inn: ElementId, partners: &mut Vec<ElementId>) {
        if set.len() <= self.k {
            self.inner.exchange_partners(set, inn, partners);
        } else {
            partners.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::MatroidAudit;
    use crate::{GraphicMatroid, PartitionMatroid, UniformMatroid};

    #[test]
    fn truncation_caps_cardinality() {
        let m = TruncatedMatroid::new(UniformMatroid::new(6, 5), 2);
        assert!(m.is_independent(&[0, 5]));
        assert!(!m.is_independent(&[0, 1, 2]));
        assert_eq!(m.rank(), 2);
        assert_eq!(m.k(), 2);
    }

    #[test]
    fn truncation_keeps_inner_constraints() {
        // Partition {0,1} cap 1, {2,3} cap 1, truncated to 1 total.
        let inner = PartitionMatroid::new(vec![0, 0, 1, 1], vec![1, 1]);
        let m = TruncatedMatroid::new(inner, 1);
        assert!(m.is_independent(&[0]));
        assert!(!m.is_independent(&[0, 2])); // inner-OK but over k
        assert!(!m.is_independent(&[0, 1])); // within k? no: len 2 > 1
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn can_add_and_swap_respect_both_constraints() {
        let inner = PartitionMatroid::new(vec![0, 0, 1], vec![1, 1]);
        let m = TruncatedMatroid::new(inner, 1);
        assert!(m.can_add(0, &[]));
        assert!(!m.can_add(2, &[0])); // over k
        assert!(m.can_swap(2, 0, &[0])); // swap keeps |S| = 1
        assert!(!m.can_swap(1, 0, &[0]) || m.inner().can_swap(1, 0, &[0]));
        // swapping 1 for 0 keeps block 0 occupancy at 1 → allowed
        assert!(m.can_swap(1, 0, &[0]));
    }

    #[test]
    fn axioms_hold_for_truncated_graphic_matroid() {
        let inner = GraphicMatroid::new(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
        for k in 0..=3 {
            MatroidAudit::exhaustive(&TruncatedMatroid::new(inner.clone(), k)).assert_matroid();
        }
    }

    #[test]
    fn axioms_hold_for_truncated_partition_matroid() {
        let inner = PartitionMatroid::new(vec![0, 0, 1, 1], vec![2, 2]);
        for k in 0..=3 {
            MatroidAudit::exhaustive(&TruncatedMatroid::new(inner.clone(), k)).assert_matroid();
        }
    }

    #[test]
    fn inner_accessor() {
        let m = TruncatedMatroid::new(UniformMatroid::new(3, 3), 2);
        assert_eq!(m.inner().k(), 3);
        assert_eq!(m.ground_size(), 3);
    }
}
