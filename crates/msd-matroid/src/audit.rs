//! Exhaustive verification of the matroid axioms.
//!
//! Theorem 2's proof leans on deep matroid structure (the basis-exchange
//! bijection of Brualdi's lemma), so feeding a non-matroid oracle into the
//! local search silently voids the guarantee. [`MatroidAudit::exhaustive`]
//! checks the hereditary and augmentation axioms over every pair of subsets
//! — O(4^n), so strictly for test-sized ground sets (n ≤ 12).

use crate::{ElementId, Matroid};

/// One violated matroid axiom with a witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatroidViolation {
    /// `∅ ∉ F`.
    EmptySetDependent,
    /// Some `S' ⊂ S` with `S ∈ F` but `S' ∉ F`.
    NotHereditary {
        set: Vec<ElementId>,
        subset: Vec<ElementId>,
    },
    /// `A, B ∈ F`, `|A| > |B|`, but no `e ∈ A − B` with `B + e ∈ F`.
    NoAugmentation {
        larger: Vec<ElementId>,
        smaller: Vec<ElementId>,
    },
    /// `can_add` disagrees with `is_independent` on `S + u`.
    InconsistentCanAdd { set: Vec<ElementId>, u: ElementId },
    /// `can_swap` disagrees with `is_independent` on `S − v + u`.
    InconsistentCanSwap {
        set: Vec<ElementId>,
        u: ElementId,
        v: ElementId,
    },
    /// `exchange_partners(S, u)` differs from the members `v` of `S`, in
    /// `S` order, with `S − v + u` independent.
    InconsistentExchangePartners {
        set: Vec<ElementId>,
        u: ElementId,
        partners: Vec<ElementId>,
    },
}

/// Audit report for a matroid oracle.
#[derive(Debug, Clone)]
pub struct MatroidAudit {
    violations: Vec<MatroidViolation>,
}

impl MatroidAudit {
    /// Exhaustively audits all subsets (and all subset pairs for
    /// augmentation).
    ///
    /// # Panics
    ///
    /// Panics if the ground set exceeds 12 elements.
    pub fn exhaustive<M: Matroid>(m: &M) -> Self {
        let n = m.ground_size();
        assert!(
            n <= 12,
            "exhaustive matroid audit limited to 12 elements, got {n}"
        );
        let full: u32 = 1 << n;
        let to_set = |mask: u32| -> Vec<ElementId> {
            (0..n as ElementId)
                .filter(|&i| mask >> i & 1 == 1)
                .collect()
        };
        let mut violations = Vec::new();

        let independent: Vec<bool> = (0..full)
            .map(|mask| m.is_independent(&to_set(mask)))
            .collect();

        if !independent[0] {
            violations.push(MatroidViolation::EmptySetDependent);
        }

        // Hereditary: removing one element from an independent set stays
        // independent (single-element downward closure implies the full
        // axiom).
        for mask in 0..full {
            if !independent[mask as usize] {
                continue;
            }
            for i in 0..n {
                if mask >> i & 1 == 1 {
                    let sub = mask & !(1 << i);
                    if !independent[sub as usize] {
                        violations.push(MatroidViolation::NotHereditary {
                            set: to_set(mask),
                            subset: to_set(sub),
                        });
                    }
                }
            }
        }

        // Augmentation.
        for a in 0..full {
            if !independent[a as usize] {
                continue;
            }
            let size_a = a.count_ones();
            for b in 0..full {
                if !independent[b as usize] || size_a <= b.count_ones() {
                    continue;
                }
                let candidates = a & !b;
                let mut found = false;
                for i in 0..n {
                    if candidates >> i & 1 == 1 && independent[(b | 1 << i) as usize] {
                        found = true;
                        break;
                    }
                }
                if !found {
                    violations.push(MatroidViolation::NoAugmentation {
                        larger: to_set(a),
                        smaller: to_set(b),
                    });
                }
            }
        }

        // Consistency of the incremental helpers with the oracle.
        let mut partners = Vec::new();
        for mask in 0..full {
            if !independent[mask as usize] {
                continue;
            }
            let set = to_set(mask);
            for u in 0..n as ElementId {
                if mask >> u & 1 == 1 {
                    continue;
                }
                m.exchange_partners(&set, u, &mut partners);
                let expected = set
                    .iter()
                    .copied()
                    .filter(|&v| independent[((mask & !(1 << v)) | 1 << u) as usize]);
                if !partners.iter().copied().eq(expected) {
                    violations.push(MatroidViolation::InconsistentExchangePartners {
                        set: set.clone(),
                        u,
                        partners: partners.clone(),
                    });
                }
                let expected = independent[(mask | 1 << u) as usize];
                if m.can_add(u, &set) != expected {
                    violations.push(MatroidViolation::InconsistentCanAdd {
                        set: set.clone(),
                        u,
                    });
                }
                for v in 0..n as ElementId {
                    if mask >> v & 1 == 0 {
                        continue;
                    }
                    let swapped = (mask & !(1 << v)) | 1 << u;
                    let expected = independent[swapped as usize];
                    if m.can_swap(u, v, &set) != expected {
                        violations.push(MatroidViolation::InconsistentCanSwap {
                            set: set.clone(),
                            u,
                            v,
                        });
                    }
                }
            }
        }

        Self { violations }
    }

    /// `true` if all axioms hold.
    pub fn is_matroid(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found.
    pub fn violations(&self) -> &[MatroidViolation] {
        &self.violations
    }

    /// Panics with a readable report when an axiom fails. For tests.
    #[track_caller]
    pub fn assert_matroid(&self) {
        assert!(
            self.is_matroid(),
            "matroid axioms violated ({} violations); first: {:?}",
            self.violations.len(),
            self.violations.first()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Not hereditary: only {0,1} and ∅ independent.
    struct Gap;
    impl Matroid for Gap {
        fn ground_size(&self) -> usize {
            2
        }
        fn is_independent(&self, set: &[ElementId]) -> bool {
            set.is_empty() || set.len() == 2
        }
    }

    #[test]
    fn hereditary_violation_detected() {
        let audit = MatroidAudit::exhaustive(&Gap);
        assert!(!audit.is_matroid());
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, MatroidViolation::NotHereditary { .. })));
    }

    /// Not augmentable: independent sets are subsets of {0,1} or subsets of
    /// {2}, i.e. two "flats" with no exchange. {0,1} vs {2}: |A|=2 > |B|=1
    /// but neither 0 nor 1 can join {2}.
    struct TwoIslands;
    impl Matroid for TwoIslands {
        fn ground_size(&self) -> usize {
            3
        }
        fn is_independent(&self, set: &[ElementId]) -> bool {
            set.iter().all(|&u| u <= 1) || (set.len() <= 1 && set.iter().all(|&u| u == 2))
        }
    }

    #[test]
    fn augmentation_violation_detected() {
        let audit = MatroidAudit::exhaustive(&TwoIslands);
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, MatroidViolation::NoAugmentation { .. })));
    }

    /// Empty set dependent.
    struct NoEmpty;
    impl Matroid for NoEmpty {
        fn ground_size(&self) -> usize {
            1
        }
        fn is_independent(&self, set: &[ElementId]) -> bool {
            !set.is_empty()
        }
    }

    #[test]
    fn empty_set_violation_detected() {
        let audit = MatroidAudit::exhaustive(&NoEmpty);
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, MatroidViolation::EmptySetDependent)));
    }

    /// A valid rank-1 matroid but with a lying `can_add`.
    struct LyingCanAdd;
    impl Matroid for LyingCanAdd {
        fn ground_size(&self) -> usize {
            2
        }
        fn is_independent(&self, set: &[ElementId]) -> bool {
            set.len() <= 1
        }
        fn can_add(&self, _u: ElementId, _set: &[ElementId]) -> bool {
            true
        }
    }

    #[test]
    fn inconsistent_can_add_detected() {
        let audit = MatroidAudit::exhaustive(&LyingCanAdd);
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, MatroidViolation::InconsistentCanAdd { .. })));
    }

    /// A valid rank-1 matroid whose partner list forgets every member.
    struct SilentPartners;
    impl Matroid for SilentPartners {
        fn ground_size(&self) -> usize {
            2
        }
        fn is_independent(&self, set: &[ElementId]) -> bool {
            set.len() <= 1
        }
        fn exchange_partners(&self, _: &[ElementId], _: ElementId, partners: &mut Vec<ElementId>) {
            partners.clear();
        }
    }

    #[test]
    fn inconsistent_exchange_partners_detected() {
        let audit = MatroidAudit::exhaustive(&SilentPartners);
        assert!(audit.violations().iter().any(|v| matches!(
            v,
            MatroidViolation::InconsistentExchangePartners { set, u: 1, partners }
                if set == &[0] && partners.is_empty()
        )));
    }

    #[test]
    #[should_panic(expected = "limited to 12")]
    fn large_ground_set_rejected() {
        struct Big;
        impl Matroid for Big {
            fn ground_size(&self) -> usize {
                13
            }
            fn is_independent(&self, _: &[ElementId]) -> bool {
                true
            }
        }
        let _ = MatroidAudit::exhaustive(&Big);
    }

    #[test]
    #[should_panic(expected = "matroid axioms violated")]
    fn assert_matroid_panics_on_violation() {
        MatroidAudit::exhaustive(&Gap).assert_matroid();
    }

    #[test]
    fn free_matroid_passes() {
        struct Free;
        impl Matroid for Free {
            fn ground_size(&self) -> usize {
                4
            }
            fn is_independent(&self, _: &[ElementId]) -> bool {
                true
            }
        }
        MatroidAudit::exhaustive(&Free).assert_matroid();
    }
}
