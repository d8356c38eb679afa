//! Binary indexed tree (Fenwick) over rank positions: point increments
//! and prefix counts in `O(log n)`.
//!
//! The `d ≤ 2` dominance counts sweep one axis in order and keep the
//! other axis's ranks in this tree, so "how many inserted points have a
//! rank `≤ r`" is one prefix query.
//! [`count_dominating_pairs`](crate::count_dominating_pairs) counts the
//! pairs within one point set this way, and the passive ladder counts
//! (zero, chain head) pairs with it to pick its `d ≤ 2` gadget.
//!
//! # Example
//!
//! ```
//! use mc_geom::Fenwick;
//!
//! let mut bit = Fenwick::new(8);
//! bit.add(3);
//! bit.add(5);
//! bit.add(5);
//! assert_eq!(bit.prefix(2), 0);
//! assert_eq!(bit.prefix(4), 1);
//! assert_eq!(bit.prefix(7), 3);
//! ```

/// Counts per rank position `0..len`; see the module docs.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// An all-zero tree over positions `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            tree: vec![0; len + 1],
        }
    }

    /// Increments position `i` (0-based).
    ///
    /// # Panics
    ///
    /// Debug builds panic if `i` is out of range.
    pub fn add(&mut self, i: usize) {
        debug_assert!(i + 1 < self.tree.len(), "position {i} out of range");
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    pub fn prefix(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_counts_match_a_linear_scan() {
        let adds = [0usize, 7, 3, 3, 9, 0, 5];
        let mut bit = Fenwick::new(10);
        let mut counts = [0u64; 10];
        for &a in &adds {
            bit.add(a);
            counts[a] += 1;
        }
        for i in 0..10 {
            assert_eq!(
                bit.prefix(i),
                counts[..=i].iter().sum::<u64>(),
                "prefix {i}"
            );
        }
        // Past the end clamps to the total.
        assert_eq!(bit.prefix(100), adds.len() as u64);
    }
}
