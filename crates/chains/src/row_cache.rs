//! One row-cache policy for every matrix-free Lemma-6 path.
//!
//! The bitset Hopcroft–Karp engine revisits each split-graph row once
//! per BFS/DFS pass, and the König cover sweeps the rows once more.
//! Over a [`RankOracle`](mc_geom::RankOracle) every visit recomputes
//! the row with a `d`-dimension rank-compare pass; a materialized
//! [`BitsetGraph`] turns it into a word load. The rows are bit-identical
//! either way, so caching changes speed and residency, never the
//! matching, the chains or the antichain certificate.
//!
//! The policy: materialize when the rows fit the byte budget —
//! `MC_MATRIX_BUDGET_BYTES` if set, else [`DEFAULT_CACHE_BYTES`] — and
//! stay on on-demand rows above it. The sequential oracle path, the
//! shard engine's band solves and its full-width repair (with the König
//! certificate that reads the same rows) all decide through
//! [`rows_fit`].

use mc_geom::matrix_bytes;
use mc_matching::{BitsetGraph, OracleGraph};
use mc_obs::{CancelToken, Cancelled};

/// Default ceiling on materialized split-graph rows (bytes) when
/// `MC_MATRIX_BUDGET_BYTES` is unset. The matrix-free paths run
/// precisely in the regime the monolithic dominator matrix was evicted
/// from, so unlike the index builders (unset = unlimited) the row cache
/// defaults conservative; setting the env knob overrides both in one
/// place.
pub const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

/// The byte budget for materialized rows: `MC_MATRIX_BUDGET_BYTES` if
/// configured, else [`DEFAULT_CACHE_BYTES`].
pub fn cache_budget_bytes() -> u64 {
    mc_geom::matrix_budget_bytes().unwrap_or(DEFAULT_CACHE_BYTES)
}

/// `true` iff `copies` simultaneously resident row sets over `n` points
/// fit `budget` bytes.
pub fn rows_fit(n: usize, copies: usize, budget: u64) -> bool {
    matrix_bytes(n).saturating_mul(copies as u64) <= budget
}

/// Materializes `og`'s rows under a span named `span` (bumping
/// `counter` by the row count) when they fit `budget`; `None` keeps
/// the caller on on-demand rows (and is all an empty graph gets).
pub(crate) fn cached_rows(
    og: &OracleGraph<'_>,
    budget: u64,
    span: &'static str,
    counter: &'static str,
    token: &CancelToken,
) -> Result<Option<BitsetGraph<'static>>, Cancelled> {
    let n = og.oracle().len();
    if n == 0 || !rows_fit(n, 1, budget) {
        return Ok(None);
    }
    let _s = mc_obs::span(span);
    mc_obs::counter_add(counter, n as u64);
    og.materialize_cancellable(token).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_fit_charges_every_copy() {
        let one = matrix_bytes(100);
        assert!(rows_fit(100, 1, one));
        assert!(!rows_fit(100, 1, one - 1));
        assert!(rows_fit(100, 3, 3 * one));
        assert!(!rows_fit(100, 3, 3 * one - 1));
        assert!(rows_fit(0, usize::MAX, 0));
        assert!(!rows_fit(1 << 20, usize::MAX, u64::MAX - 1));
    }
}
