//! The `d ≤ 2` divide-and-conquer gadget of the classifier network.
//!
//! The paper's Section-5 construction inserts a type-3 edge for **every**
//! dominating pair `(p, q) ∈ P₀^con × P₁^con`, which is `Θ(n²)` edges —
//! fine for the theory (the `O(dn²)` bound absorbs it), but a memory wall
//! at `n ≈ 10⁵`, exactly the Σ sizes Theorem 3 produces on large inputs.
//!
//! For `d ≤ 2` the bipartite dominance relation admits a classic
//! `O(n log n)`-edge sparsification that preserves *connectivity* (and
//! therefore min cuts, since the replaced edges are all infinite):
//! divide and conquer on the `x`-order. At each split, the pairs
//! crossing it (zero on the right, one on the left) are exactly those
//! with `y_one ≤ y_zero` — a 1D containment structure expressible with a
//! *ladder*: auxiliary nodes `a_1 → a_0 → …` over the left ones sorted
//! by `y`, with each `a_i` feeding one `o_i` and the previous rung, and
//! each right zero entering the highest rung it dominates. All gadget
//! edges are infinite, so no new finite cuts are introduced, and a zero
//! reaches a one through the gadget iff it dominates it.
//!
//! Each zero gets at most one connector per split level, `⌈log₂ n⌉` in
//! all. The table pipeline of [`super::ladder`] builds this gadget only
//! when its exact count shows the chain ladder would need more
//! connectors than that bound; see [`super::ladder::Gadget`].
//!
//! Everything here works on dense rank columns (see [`plane`]): 1D
//! inputs pass their one column as both `x` and `y`, and ranks already
//! make `-0.0` and `+0.0` one coordinate. [`contending_sweep`] finds the
//! contending points with a single `O(n log n)` sweep over the same
//! columns instead of the generic `O(d·n²)` scan.

use crate::passive::contending::ContendingPoints;
use mc_flow::{Capacity, FlowNetwork, NodeId};
use mc_geom::{Label, RankTable};

/// A flow network for Problem 2 with sparse (gadget-based) type-3
/// connectivity, plus the node ids of the contending points.
pub(crate) struct ClassifierNetwork {
    pub net: FlowNetwork,
    /// Node of `con.zeros[i]`.
    pub zero_nodes: Vec<NodeId>,
    /// Node of `con.ones[i]`.
    pub one_nodes: Vec<NodeId>,
}

/// The `(x, y)` rank columns of a `d ≤ 2` table: its two columns for
/// `d = 2`, or the one column twice for `d = 1`.
pub(crate) fn plane(table: &RankTable) -> (&[u32], &[u32]) {
    match table.dim() {
        1 | 2 => (table.column(0), table.column(table.dim() - 1)),
        d => unreachable!("the plane view requires d ≤ 2, got {d}"),
    }
}

/// Point ids sorted by `(x, y)` with label-1 points first on full ties
/// (reflexive dominance: an equal one counts as below a zero), packed
/// as one `u128` key per point so the sort is a plain integer sort. Ids
/// take the low 32 bits, as ranks do in [`RankTable`].
fn sweep_order(x: &[u32], y: &[u32], ids: impl Iterator<Item = (usize, bool)>) -> Vec<u32> {
    let mut keys: Vec<u128> = ids
        .map(|(i, is_zero)| {
            (u128::from(x[i]) << 96)
                | (u128::from(y[i]) << 64)
                | (u128::from(is_zero) << 32)
                | i as u128
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u32).collect()
}

/// Builds the divide-and-conquer network over the contending points of
/// a `d ≤ 2` point set given as rank columns (see [`plane`]).
pub(crate) fn build_sparse_network(
    x: &[u32],
    y: &[u32],
    weights: &[f64],
    con: &ContendingPoints,
) -> ClassifierNetwork {
    let _span = mc_obs::span("sweep");
    let source = 0;
    let sink = 1;
    let mut net = FlowNetwork::new(2 + con.len(), source, sink);
    let zero_nodes: Vec<NodeId> = (0..con.zeros.len()).map(|i| 2 + i).collect();
    let one_nodes: Vec<NodeId> = (0..con.ones.len())
        .map(|i| 2 + con.zeros.len() + i)
        .collect();
    let mut node = vec![0; weights.len()];
    for (zi, &p) in con.zeros.iter().enumerate() {
        net.add_edge(source, zero_nodes[zi], weights[p]);
        node[p] = zero_nodes[zi];
    }
    for (oi, &q) in con.ones.iter().enumerate() {
        net.add_edge(one_nodes[oi], sink, weights[q]);
        node[q] = one_nodes[oi];
    }

    // Items: (y, is_one, node) in (x, y, ones-first) order, so that on
    // full coordinate ties a zero lands on the *right* side of the split
    // that separates it from an equal one (reflexive dominance counts).
    let ids = con
        .zeros
        .iter()
        .map(|&p| (p, true))
        .chain(con.ones.iter().map(|&q| (q, false)));
    let items: Vec<(u32, bool, NodeId)> = sweep_order(x, y, ids)
        .into_iter()
        .map(|i| {
            let i = i as usize;
            (y[i], node[i] >= 2 + con.zeros.len(), node[i])
        })
        .collect();

    build_recursive(&mut net, &items);

    ClassifierNetwork {
        net,
        zero_nodes,
        one_nodes,
    }
}

/// Recursively wires zeros on the right half to ones on the left half.
fn build_recursive(net: &mut FlowNetwork, items: &[(u32, bool, NodeId)]) {
    if items.len() <= 1 {
        return;
    }
    let mid = items.len() / 2;
    let (left, right) = items.split_at(mid);

    // Left ones sorted by y ascending (stable).
    let mut ones_left: Vec<(u32, NodeId)> = left
        .iter()
        .filter(|it| it.1)
        .map(|it| (it.0, it.2))
        .collect();
    ones_left.sort_by_key(|&(y, _)| y);
    if !ones_left.is_empty() {
        // Ladder: aux[i] reaches ones_left[0..=i].
        let mut aux: Vec<NodeId> = Vec::with_capacity(ones_left.len());
        for (i, &(_, one_node)) in ones_left.iter().enumerate() {
            let a = net.add_node();
            net.add_edge(a, one_node, Capacity::Infinite);
            if i > 0 {
                net.add_edge(a, aux[i - 1], Capacity::Infinite);
            }
            aux.push(a);
        }
        for it in right.iter().filter(|it| !it.1) {
            // Highest rung whose one has y ≤ the zero's y.
            let count = ones_left.partition_point(|&(y, _)| y <= it.0);
            if count > 0 {
                net.add_edge(it.2, aux[count - 1], Capacity::Infinite);
            }
        }
    }

    build_recursive(net, left);
    build_recursive(net, right);
}

/// Sweep-based contending-point computation for `d ≤ 2` in `O(n log n)`
/// over rank columns (see [`plane`]).
///
/// A label-0 point contends iff some label-1 point is coordinate-wise
/// `≤` it: sweeping in `(x, y, ones-first)` order, that is equivalent to
/// "the minimum `y` among ones seen so far is `≤` its `y`". The label-1
/// side is symmetric with the reversed sweep.
pub(crate) fn contending_sweep(x: &[u32], y: &[u32], labels: &[Label]) -> ContendingPoints {
    let ids = labels.iter().enumerate().map(|(i, l)| (i, l.is_zero()));
    let order = sweep_order(x, y, ids);

    // Forward: zeros contending against ones below-left.
    let mut zeros = Vec::new();
    let mut min_one_y = u32::MAX;
    for &i in &order {
        let i = i as usize;
        if labels[i].is_one() {
            min_one_y = min_one_y.min(y[i]);
        } else if min_one_y <= y[i] {
            zeros.push(i);
        }
    }
    // Backward: ones contending against zeros above-right. Ones sort
    // before zeros on ties, so in reverse order zeros at identical
    // coordinates are seen before the one — as required.
    let mut ones = Vec::new();
    let mut max_zero_y: Option<u32> = None;
    for &i in order.iter().rev() {
        let i = i as usize;
        if labels[i].is_zero() {
            max_zero_y = max_zero_y.max(Some(y[i]));
        } else if max_zero_y >= Some(y[i]) {
            ones.push(i);
        }
    }
    zeros.sort_unstable();
    ones.sort_unstable();
    ContendingPoints { zeros, ones }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_flow::{Dinic, MaxFlowAlgorithm};
    use mc_geom::WeightedSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sweep(ws: &WeightedSet) -> ContendingPoints {
        let table = RankTable::build(ws.points());
        let (x, y) = plane(&table);
        contending_sweep(x, y, ws.labels())
    }

    fn gadget(ws: &WeightedSet, con: &ContendingPoints) -> ClassifierNetwork {
        let table = RankTable::build(ws.points());
        let (x, y) = plane(&table);
        build_sparse_network(x, y, ws.weights(), con)
    }

    fn random_weighted(n: usize, dim: usize, grid: f64, rng: &mut StdRng) -> WeightedSet {
        let mut ws = WeightedSet::empty(dim);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..grid).round()).collect();
            ws.push(
                &coords,
                Label::from_bool(rng.gen_bool(0.5)),
                rng.gen_range(1..10) as f64,
            );
        }
        ws
    }

    #[test]
    fn sweep_matches_generic_contending() {
        let mut rng = StdRng::seed_from_u64(0x5EEE);
        for dim in [1usize, 2] {
            for trial in 0..60 {
                let n = rng.gen_range(0..60);
                let ws = random_weighted(n, dim, 5.0, &mut rng);
                let generic = ContendingPoints::compute_generic(&ws);
                assert_eq!(sweep(&ws), generic, "dim {dim} trial {trial}: {ws:?}");
            }
        }
    }

    #[test]
    fn sparse_min_cut_matches_dense() {
        let mut rng = StdRng::seed_from_u64(0x5EEF);
        for dim in [1usize, 2] {
            for trial in 0..40 {
                let n = rng.gen_range(1..40);
                let ws = random_weighted(n, dim, 4.0, &mut rng);
                let con = ContendingPoints::compute_generic(&ws);
                if con.is_empty() {
                    continue;
                }
                // Dense network.
                let mut dense = FlowNetwork::new(2 + con.len(), 0, 1);
                for (zi, &p) in con.zeros.iter().enumerate() {
                    dense.add_edge(0, 2 + zi, ws.weight(p));
                }
                for (oi, &q) in con.ones.iter().enumerate() {
                    dense.add_edge(2 + con.zeros.len() + oi, 1, ws.weight(q));
                }
                for (zi, &p) in con.zeros.iter().enumerate() {
                    for (oi, &q) in con.ones.iter().enumerate() {
                        if ws.points().dominates(p, q) {
                            dense.add_edge(2 + zi, 2 + con.zeros.len() + oi, Capacity::Infinite);
                        }
                    }
                }
                let dense_value = Dinic.solve(&dense).value();
                let sparse = gadget(&ws, &con);
                let sparse_value = Dinic.solve(&sparse.net).value();
                assert!(
                    (dense_value - sparse_value).abs() < 1e-9,
                    "dim {dim} trial {trial}: dense {dense_value} vs sparse {sparse_value}\n{ws:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_edge_count_is_near_linear() {
        let mut rng = StdRng::seed_from_u64(0x5EF0);
        let ws = random_weighted(4000, 2, 1e6, &mut rng);
        let con = sweep(&ws);
        let sparse = gadget(&ws, &con);
        let n = con.len();
        let bound = 20 * n * ((n as f64).log2().ceil() as usize + 1) + 2 * n + 16;
        assert!(
            sparse.net.num_edges() <= bound,
            "edges {} exceed O(n log n) bound {bound} for n = {n}",
            sparse.net.num_edges()
        );
    }

    #[test]
    fn signed_zero_duplicates_contend() {
        // -0.0 and +0.0 are the same coordinate under IEEE dominance;
        // the sweep's total_cmp ordering must not separate them.
        let mut ws = WeightedSet::empty(2);
        ws.push(&[0.0, -0.0], Label::One, 5.0);
        ws.push(&[-0.0, 0.0], Label::Zero, 2.0);
        let con = sweep(&ws);
        assert_eq!(con.zeros, vec![1]);
        assert_eq!(con.ones, vec![0]);
        assert_eq!(con, ContendingPoints::compute_generic(&ws));
        let sparse = gadget(&ws, &con);
        assert_eq!(Dinic.solve(&sparse.net).value(), 2.0);
    }

    #[test]
    fn duplicate_points_cross_labels() {
        // Equal coordinates, different labels: the pair must contend and
        // the sparse network must charge min(weight) as the cut.
        let mut ws = WeightedSet::empty(2);
        ws.push(&[3.0, 3.0], Label::One, 7.0);
        ws.push(&[3.0, 3.0], Label::Zero, 2.0);
        let con = sweep(&ws);
        assert_eq!(con.zeros, vec![1]);
        assert_eq!(con.ones, vec![0]);
        let sparse = gadget(&ws, &con);
        assert_eq!(Dinic.solve(&sparse.net).value(), 2.0);
    }
}
