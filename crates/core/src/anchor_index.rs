//! Rank-compressed anchor index: the query fast path.
//!
//! [`MonotoneClassifier::classify`] is a naive scan — every query walks
//! all `a` anchors and compares `d` floats each, `O(a·d)` float work per
//! point. That is fine for training-time evaluation but not for serving
//! millions of queries per second. [`AnchorIndex`] preprocesses the
//! anchor set once so that a single-point query costs
//! `O(d log a + d·a/64)` *word* operations:
//!
//! * **Rank compression** (per dimension): the anchors' coordinates on
//!   dimension `k` are collapsed to dense ranks `0..m_k` via
//!   [`mc_geom::compress_column_ranks_with_values`], keeping the sorted
//!   distinct values alongside. A query coordinate `q` is translated
//!   into rank space with one binary search:
//!   `c_k = vals[k].partition_point(|v| *v <= q)` counts the anchor
//!   values at or below `q` under the same IEEE `<=` the naive
//!   `dominates` scan uses (so `NaN`, `±∞` and signed zeros agree
//!   bit-for-bit with the scan by construction).
//! * **Reversed-rank columns**: dimension `k` stores the *reversed*
//!   rank `rr_a = m_k − 1 − r_a` per anchor. An anchor is satisfied on
//!   dimension `k` iff `r_a < c_k` iff `rr_a ≥ m_k − c_k`, which is
//!   exactly the `col[j] ≥ threshold` narrowing the u64×4 blocked
//!   [`mc_geom::kernel`] already implements. A query is then one call
//!   to [`mc_geom::kernel::narrow_ge_into`]: start from the all-ones
//!   anchor bitset and intersect one `and_ge_mask` pass per dimension,
//!   early-exiting the moment the bitset empties. The chain-ladder zero
//!   sweep of the passive solver asks the same question of its chain
//!   heads through the same primitive.
//! * **Selectivity ordering**: dimensions are processed in decreasing
//!   threshold order (most selective first), and dimensions whose
//!   threshold is 0 (every anchor passes) are skipped outright. A
//!   dimension where *no* anchor value is `≤ q` (`c_k = 0` and the
//!   column has anchors) short-circuits to [`Label::Zero`] before any
//!   bitset work.
//!
//! The index answers exactly like the classifier it was built from —
//! property-tested bit-identically against the naive scan in
//! `crates/core/tests/anchor_index_props.rs` — and is immutable after
//! construction, so it can be shared across threads behind an `Arc` and
//! hot-swapped atomically (see `mcc serve`).

use crate::classifier::MonotoneClassifier;
use mc_geom::kernel::narrow_ge_into;
use mc_geom::{compress_column_ranks_with_values, parallel_chunks, Label, PointSet};

/// Reusable per-thread query scratch: the anchor bitset row plus the
/// per-dimension threshold list. Allocation-free across queries once
/// warm; one per worker thread, never shared.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    row: Vec<u64>,
    thresholds: Vec<(u32, usize)>,
}

/// An immutable rank-compressed index over a [`MonotoneClassifier`]'s
/// anchor set. See the module docs for the data layout; construction is
/// `O(a·d·log a)`, memory is one `u32` per anchor per dimension plus the
/// distinct coordinate values.
#[derive(Debug, Clone)]
pub struct AnchorIndex {
    dim: usize,
    num_anchors: usize,
    /// `cols[k][a]` = reversed rank of anchor `a` on dimension `k`.
    cols: Vec<Vec<u32>>,
    /// `vals[k]` = sorted distinct canonical anchor values on dimension
    /// `k` (`vals[k][r]` is the coordinate shared by rank-`r` anchors).
    vals: Vec<Vec<f64>>,
}

impl AnchorIndex {
    /// Builds the index from a classifier's (already minimal) anchors.
    pub fn build(h: &MonotoneClassifier) -> Self {
        let dim = h.dim();
        let anchors = h.anchors();
        let num_anchors = anchors.len();
        let mut cols = Vec::with_capacity(dim);
        let mut vals = Vec::with_capacity(dim);
        let mut column = vec![0.0f64; num_anchors];
        for k in 0..dim {
            for (slot, a) in column.iter_mut().zip(anchors) {
                *slot = a[k];
            }
            let (ranks, distinct) = compress_column_ranks_with_values(&column);
            let top = distinct.len() as u32;
            let reversed: Vec<u32> = ranks.iter().map(|&r| top - 1 - r).collect();
            cols.push(reversed);
            vals.push(distinct);
        }
        Self {
            dim,
            num_anchors,
            cols,
            vals,
        }
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed anchors.
    pub fn num_anchors(&self) -> usize {
        self.num_anchors
    }

    /// Approximate resident size of the index payload in bytes (rank
    /// columns + distinct values), for capacity planning and telemetry.
    pub fn payload_bytes(&self) -> usize {
        let ranks: usize = self.cols.iter().map(|c| c.len() * 4).sum();
        let distinct: usize = self.vals.iter().map(|v| v.len() * 8).sum();
        ranks + distinct
    }

    /// Classifies one point, allocating fresh scratch. Convenience
    /// entry point; hot loops should reuse a [`QueryScratch`] via
    /// [`Self::classify_with`].
    pub fn classify(&self, p: &[f64]) -> Label {
        self.classify_with(p, &mut QueryScratch::default())
    }

    /// Classifies one point using caller-provided scratch:
    /// [`Label::One`] iff `p` reflexively dominates some anchor,
    /// bit-identical to [`MonotoneClassifier::classify`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on dimensionality mismatch.
    pub fn classify_with(&self, p: &[f64], scratch: &mut QueryScratch) -> Label {
        debug_assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        if self.num_anchors == 0 {
            return Label::Zero;
        }
        scratch.thresholds.clear();
        for (k, &q) in p.iter().enumerate() {
            let vals = &self.vals[k];
            // Ranks at or below q under IEEE `<=`: NaN compares false
            // against everything, so a NaN coordinate yields c = 0 —
            // the same "dominates nothing" answer the naive scan gives.
            let c = vals.partition_point(|v| *v <= q);
            if c == 0 {
                return Label::Zero;
            }
            let t = (vals.len() - c) as u32;
            if t > 0 {
                scratch.thresholds.push((t, k));
            }
        }
        Label::from_bool(narrow_ge_into(
            self.num_anchors,
            &self.cols,
            &mut scratch.thresholds,
            &mut scratch.row,
        ))
    }

    /// Classifies a flat row-major batch (`data.len()` must be a
    /// multiple of `dim`), fanning out across threads via
    /// [`mc_geom::parallel_chunks`] for large batches. This is the
    /// serving kernel: `mcc serve`, `mcc classify` and the load
    /// generator all sit on top of it.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn classify_batch(&self, data: &[f64]) -> Vec<Label> {
        assert_eq!(
            data.len() % self.dim,
            0,
            "flat batch length must be a multiple of dim"
        );
        let n = data.len() / self.dim;
        let chunks = parallel_chunks(n, |range| {
            let mut scratch = QueryScratch::default();
            range
                .map(|i| self.classify_with(&data[i * self.dim..(i + 1) * self.dim], &mut scratch))
                .collect::<Vec<Label>>()
        });
        let mut out = Vec::with_capacity(n);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }

    /// Classifies every point of a [`PointSet`] (batch entry point for
    /// in-process callers; same kernel as [`Self::classify_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if the set's dimensionality differs from the index's.
    pub fn classify_set(&self, points: &PointSet) -> Vec<Label> {
        assert_eq!(points.dim(), self.dim, "point set dimensionality mismatch");
        let n = points.len();
        let chunks = parallel_chunks(n, |range| {
            let mut scratch = QueryScratch::default();
            range
                .map(|i| self.classify_with(points.point(i), &mut scratch))
                .collect::<Vec<Label>>()
        });
        let mut out = Vec::with_capacity(n);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_against_naive(h: &MonotoneClassifier, points: &[Vec<f64>]) {
        let idx = AnchorIndex::build(h);
        let mut scratch = QueryScratch::default();
        for p in points {
            assert_eq!(
                idx.classify_with(p, &mut scratch),
                h.classify(p),
                "index/naive disagreement on {p:?} with anchors {:?}",
                h.anchors()
            );
        }
        let flat: Vec<f64> = points.iter().flatten().copied().collect();
        let batch = idx.classify_batch(&flat);
        let naive: Vec<Label> = points.iter().map(|p| h.classify(p)).collect();
        assert_eq!(batch, naive);
    }

    #[test]
    fn empty_classifier_is_all_zero() {
        let h = MonotoneClassifier::all_zero(3);
        let idx = AnchorIndex::build(&h);
        assert_eq!(idx.num_anchors(), 0);
        assert_eq!(idx.classify(&[0.0, 0.0, 0.0]), Label::Zero);
        assert_eq!(idx.classify(&[f64::INFINITY; 3]), Label::Zero);
        assert!(idx.classify_batch(&[]).is_empty());
    }

    #[test]
    fn all_one_classifier_accepts_everything_non_nan() {
        let h = MonotoneClassifier::all_one(2);
        let idx = AnchorIndex::build(&h);
        assert_eq!(idx.classify(&[-1e308, -1e308]), Label::One);
        assert_eq!(idx.classify(&[f64::NEG_INFINITY, 0.0]), Label::One);
        // NaN dominates nothing, even the -inf anchor.
        assert_eq!(idx.classify(&[f64::NAN, 0.0]), Label::Zero);
    }

    #[test]
    fn matches_naive_on_edge_values() {
        let h = MonotoneClassifier::from_anchors(
            2,
            vec![
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![f64::NEG_INFINITY, 2.0],
                vec![3.0, f64::INFINITY],
            ],
        );
        let vals = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            3.0,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut points = Vec::new();
        for &x in &vals {
            for &y in &vals {
                points.push(vec![x, y]);
            }
        }
        check_against_naive(&h, &points);
    }

    #[test]
    fn batch_crosses_word_and_block_boundaries() {
        // 300 anchors → bitset rows spanning multiple u64×4 blocks.
        let anchors: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64, (300 - i) as f64]).collect();
        let h = MonotoneClassifier::from_anchors(2, anchors);
        assert_eq!(h.anchors().len(), 300); // an antichain: nothing pruned
        let points: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i * 3) as f64, (i * 2) as f64 + 0.5])
            .collect();
        check_against_naive(&h, &points);
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let h = MonotoneClassifier::from_anchors(1, vec![vec![5.0]]);
        let idx = AnchorIndex::build(&h);
        let mut scratch = QueryScratch::default();
        assert_eq!(idx.classify_with(&[9.0], &mut scratch), Label::One);
        assert_eq!(idx.classify_with(&[1.0], &mut scratch), Label::Zero);
        assert_eq!(idx.classify_with(&[5.0], &mut scratch), Label::One);
    }

    #[test]
    fn classify_set_matches_classifier_classify_set() {
        let h = MonotoneClassifier::from_anchors(2, vec![vec![1.0, 2.0], vec![2.0, 1.0]]);
        let points = PointSet::from_rows(
            2,
            &[
                vec![0.0, 0.0],
                vec![1.0, 2.0],
                vec![2.5, 2.5],
                vec![2.0, 0.5],
            ],
        );
        let idx = AnchorIndex::build(&h);
        assert_eq!(idx.classify_set(&points), h.classify_set(&points));
    }
}
