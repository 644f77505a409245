//! Partition matroids: per-block capacities.
//!
//! The universe is partitioned into blocks `S_1, …, S_m`; a set is
//! independent iff it contains at most `k_i` elements of block `i`. The
//! paper's Section 1 motivates these for retrieving "ni tuples from a
//! specific database field i" and for balancing stock portfolios across
//! sectors; the Appendix counterexample (greedy fails on matroids) is a
//! two-block partition matroid.

use crate::{ElementId, Matroid};

/// A partition matroid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMatroid {
    /// `block_of[u]` = block index of element `u`.
    block_of: Vec<u32>,
    /// `capacity[b]` = maximum number of elements selectable from block `b`.
    capacity: Vec<u32>,
}

impl PartitionMatroid {
    /// Builds from a block assignment and per-block capacities.
    ///
    /// # Panics
    ///
    /// Panics if any element references a block `≥ capacity.len()`.
    pub fn new(block_of: Vec<u32>, capacity: Vec<u32>) -> Self {
        let m = capacity.len() as u32;
        for (u, &b) in block_of.iter().enumerate() {
            assert!(b < m, "element {u} assigned to out-of-range block {b}");
        }
        Self { block_of, capacity }
    }

    /// Builds from explicit blocks: `blocks[i]` lists the elements of block
    /// `i`, which must partition `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if the blocks do not form a partition of `0..n`.
    pub fn from_blocks(n: usize, blocks: &[Vec<ElementId>], capacity: Vec<u32>) -> Self {
        assert_eq!(blocks.len(), capacity.len(), "one capacity per block");
        let mut block_of = vec![u32::MAX; n];
        for (b, elems) in blocks.iter().enumerate() {
            for &u in elems {
                assert!((u as usize) < n, "element {u} out of range");
                assert_eq!(
                    block_of[u as usize],
                    u32::MAX,
                    "element {u} appears in two blocks"
                );
                block_of[u as usize] = b as u32;
            }
        }
        assert!(
            block_of.iter().all(|&b| b != u32::MAX),
            "blocks must cover every element"
        );
        Self::new(block_of, capacity)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.capacity.len()
    }

    /// Block of an element.
    pub fn block_of(&self, u: ElementId) -> u32 {
        self.block_of[u as usize]
    }

    /// Capacity of a block.
    pub fn capacity_of(&self, block: u32) -> u32 {
        self.capacity[block as usize]
    }

    /// Per-block occupancy of `set`.
    fn counts(&self, set: &[ElementId]) -> Vec<u32> {
        let mut counts = vec![0u32; self.capacity.len()];
        for &u in set {
            counts[self.block_of[u as usize] as usize] += 1;
        }
        counts
    }
}

impl Matroid for PartitionMatroid {
    fn ground_size(&self) -> usize {
        self.block_of.len()
    }

    fn is_independent(&self, set: &[ElementId]) -> bool {
        if set.iter().any(|&u| (u as usize) >= self.block_of.len()) {
            return false;
        }
        self.counts(set)
            .iter()
            .zip(&self.capacity)
            .all(|(&c, &cap)| c <= cap)
    }

    /// O(|S|): count only `u`'s block.
    fn can_add(&self, u: ElementId, set: &[ElementId]) -> bool {
        if (u as usize) >= self.block_of.len() {
            return false;
        }
        let b = self.block_of[u as usize];
        let occupancy = set
            .iter()
            .filter(|&&v| self.block_of[v as usize] == b)
            .count() as u32;
        occupancy < self.capacity[b as usize]
    }

    /// O(|S|): the swap only matters within `u`'s block.
    fn can_swap(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> bool {
        if (u as usize) >= self.block_of.len() {
            return false;
        }
        let bu = self.block_of[u as usize];
        let occupancy = set
            .iter()
            .filter(|&&x| x != v && self.block_of[x as usize] == bu)
            .count() as u32;
        occupancy < self.capacity[bu as usize]
    }

    /// O(1) for same-block exchanges (a feasible set stays feasible when
    /// an element is replaced within its own block); O(|S|) otherwise.
    fn exchange_feasible(&self, set: &[ElementId], out: ElementId, inn: ElementId) -> bool {
        if (inn as usize) >= self.block_of.len() {
            return false;
        }
        let bi = self.block_of[inn as usize];
        if self.block_of[out as usize] == bi {
            return true;
        }
        self.can_swap(inn, out, set)
    }

    /// O(|S|) for all members at once: one count of `inn`'s block. With
    /// room in that block every member is a partner; at capacity only
    /// the same-block members are.
    fn exchange_partners(&self, set: &[ElementId], inn: ElementId, partners: &mut Vec<ElementId>) {
        partners.clear();
        if (inn as usize) >= self.block_of.len() {
            return;
        }
        let bi = self.block_of[inn as usize];
        let occupancy = set
            .iter()
            .filter(|&&x| self.block_of[x as usize] == bi)
            .count() as u32;
        if occupancy < self.capacity[bi as usize] {
            partners.extend_from_slice(set);
        } else {
            partners.extend(
                set.iter()
                    .copied()
                    .filter(|&x| self.block_of[x as usize] == bi),
            );
        }
    }

    fn rank(&self) -> usize {
        // Rank = Σ min(|block|, capacity).
        let mut sizes = vec![0u32; self.capacity.len()];
        for &b in &self.block_of {
            sizes[b as usize] += 1;
        }
        sizes
            .iter()
            .zip(&self.capacity)
            .map(|(&s, &c)| s.min(c) as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::MatroidAudit;

    /// Elements 0,1,2 in block 0 (cap 2); elements 3,4 in block 1 (cap 1).
    fn sample() -> PartitionMatroid {
        PartitionMatroid::new(vec![0, 0, 0, 1, 1], vec![2, 1])
    }

    #[test]
    fn independence_respects_block_capacities() {
        let m = sample();
        assert!(m.is_independent(&[]));
        assert!(m.is_independent(&[0, 1, 3]));
        assert!(!m.is_independent(&[0, 1, 2])); // block 0 over capacity
        assert!(!m.is_independent(&[3, 4])); // block 1 over capacity
    }

    #[test]
    fn can_add_counts_only_the_relevant_block() {
        let m = sample();
        assert!(m.can_add(2, &[0, 3]));
        assert!(!m.can_add(2, &[0, 1]));
        assert!(!m.can_add(4, &[3]));
        assert!(!m.can_add(9, &[]));
    }

    #[test]
    fn can_swap_within_and_across_blocks() {
        let m = sample();
        // Swap inside block 0 at capacity: fine.
        assert!(m.can_swap(2, 0, &[0, 1, 3]));
        // Swap bringing block 0 over capacity: rejected.
        assert!(!m.can_swap(2, 3, &[0, 1, 3]));
        // Swap across blocks freeing nothing in u's block: rejected.
        assert!(!m.can_swap(4, 0, &[0, 3]));
        // Swap replacing block 1's occupant: fine.
        assert!(m.can_swap(4, 3, &[0, 3]));
    }

    #[test]
    fn rank_sums_clamped_block_sizes() {
        assert_eq!(sample().rank(), 3);
        // Capacity exceeding block size is clamped by the block size.
        let m = PartitionMatroid::new(vec![0, 1], vec![5, 5]);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn from_blocks_roundtrip() {
        let m = PartitionMatroid::from_blocks(5, &[vec![0, 1, 2], vec![3, 4]], vec![2, 1]);
        assert_eq!(m, sample());
        assert_eq!(m.num_blocks(), 2);
        assert_eq!(m.block_of(3), 1);
        assert_eq!(m.capacity_of(0), 2);
    }

    #[test]
    #[should_panic(expected = "two blocks")]
    fn overlapping_blocks_rejected() {
        let _ = PartitionMatroid::from_blocks(2, &[vec![0, 1], vec![1]], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "cover every element")]
    fn incomplete_blocks_rejected() {
        let _ = PartitionMatroid::from_blocks(3, &[vec![0, 1]], vec![1]);
    }

    #[test]
    #[should_panic(expected = "out-of-range block")]
    fn out_of_range_block_rejected() {
        let _ = PartitionMatroid::new(vec![0, 7], vec![1]);
    }

    #[test]
    fn axioms_hold() {
        MatroidAudit::exhaustive(&sample()).assert_matroid();
        MatroidAudit::exhaustive(&PartitionMatroid::new(vec![0, 1, 0, 1], vec![1, 2]))
            .assert_matroid();
        MatroidAudit::exhaustive(&PartitionMatroid::new(vec![0, 0, 0], vec![0])).assert_matroid();
    }

    #[test]
    fn uniform_matroid_is_single_block_partition() {
        let p = PartitionMatroid::new(vec![0; 4], vec![2]);
        let u = crate::UniformMatroid::new(4, 2);
        for mask in 0u32..16 {
            let set: Vec<ElementId> = (0..4).filter(|&i| mask >> i & 1 == 1).collect();
            assert_eq!(p.is_independent(&set), u.is_independent(&set));
        }
    }
}
