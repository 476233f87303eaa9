//! HyperCube share exponents and integer shares (Section 3.1).
//!
//! Given a fractional vertex cover `v = (v₁, …, v_k)` of value
//! `τ = Σᵢ vᵢ`, the HyperCube algorithm assigns each variable the *share
//! exponent* `eᵢ = vᵢ / τ` (so `Σ eᵢ = 1`) and the *share* `pᵢ = p^{eᵢ}`.
//! The `p` servers are identified with the cells of the hypercube
//! `[p₁] × ⋯ × [p_k]`. Because every atom is covered
//! (`Σ_{i ∈ vars(Sⱼ)} eᵢ ≥ 1/τ`), each base tuple is replicated at most
//! `p^{1 − 1/τ}` times, giving per-server load `O(n / p^{1/τ})`
//! (Proposition 3.2).
//!
//! Real servers come in integer quantities, so the fractional shares
//! `p^{eᵢ}` must be rounded to integers with `∏ᵢ pᵢ ≤ p`; this module
//! provides a deterministic rounding that starts from the floor and
//! greedily grows the coordinate with the largest deficit. The rounding
//! ablation (experiment E8) quantifies the resulting load penalty.

use serde::Serialize;

use mpc_cq::{Query, VarId};
use mpc_lp::cover::VertexCover;
use mpc_lp::{QueryLps, Rational};

use crate::error::CoreError;
use crate::Result;

/// A complete share assignment for a query on `p` servers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShareAllocation {
    /// The fractional vertex cover the exponents were derived from.
    pub cover: Vec<Rational>,
    /// The cover value `τ` (not necessarily optimal if a custom cover was
    /// supplied).
    pub tau: Rational,
    /// Share exponents `eᵢ = vᵢ / τ`, summing to 1.
    pub exponents: Vec<Rational>,
    /// Integer shares `pᵢ ≥ 1` with `∏ pᵢ ≤ p`.
    pub shares: Vec<usize>,
    /// The number of servers the allocation was computed for.
    pub p: usize,
}

impl ShareAllocation {
    /// Compute the allocation from an *optimal* fractional vertex cover of
    /// the query.
    ///
    /// ```
    /// use mpc_core::shares::ShareAllocation;
    /// use mpc_lp::Rational;
    ///
    /// // Chain L2 = S1(x0,x1), S2(x1,x2): the optimal cover puts weight 1
    /// // on the join variable x1, so x1 receives the full hypercube and
    /// // the endpoints are not partitioned at all — the classic hash join.
    /// let q = mpc_cq::families::chain(2);
    /// let alloc = ShareAllocation::optimal(&q, 16).unwrap();
    /// assert_eq!(alloc.exponents, vec![Rational::ZERO, Rational::ONE, Rational::ZERO]);
    /// assert_eq!(alloc.shares, vec![1, 16, 1]);
    /// assert_eq!(Rational::sum(alloc.exponents.iter()).unwrap(), Rational::ONE);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates LP errors; also rejects `p == 0`.
    pub fn optimal(q: &Query, p: usize) -> Result<Self> {
        let cover = optimal_cover(q)?;
        Self::from_cover(q, &cover, p)
    }

    /// Compute the allocation from a given (not necessarily optimal)
    /// fractional vertex cover.
    ///
    /// # Errors
    ///
    /// Rejects `p == 0`, covers of the wrong width, non-covers and covers
    /// with value zero.
    pub fn from_cover(q: &Query, cover: &VertexCover, p: usize) -> Result<Self> {
        if p == 0 {
            return Err(CoreError::InvalidPlan("p must be at least 1".to_string()));
        }
        if cover.weights().len() != q.num_vars() {
            return Err(CoreError::InvalidPlan(format!(
                "cover has {} weights but the query has {} variables",
                cover.weights().len(),
                q.num_vars()
            )));
        }
        if !cover.is_valid_for(q) {
            return Err(CoreError::InvalidPlan(
                "the supplied weights do not form a fractional vertex cover".to_string(),
            ));
        }
        let tau = cover.total();
        if !tau.is_positive() {
            return Err(CoreError::InvalidPlan("cover value must be positive".to_string()));
        }
        let exponents: Vec<Rational> = cover
            .weights()
            .iter()
            .map(|v| v.checked_div(&tau).map_err(CoreError::from))
            .collect::<Result<_>>()?;
        let shares = round_shares(&exponents, p);
        Ok(ShareAllocation { cover: cover.weights().to_vec(), tau, exponents, shares, p })
    }

    /// Compute an allocation whose exponents are `(1 − ε) · vᵢ` for the
    /// *partial-answer* HyperCube of Proposition 3.11. The resulting
    /// "hypercube" has `p^{(1−ε)τ}` cells — more than `p` when
    /// `ε < 1 − 1/τ` — and the caller maps a random subset of `p` cells to
    /// the actual servers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShareAllocation::from_cover`], and
    /// [`CoreError::InvalidPlan`] when the virtual grid has more cells than
    /// a `usize` counts.
    pub fn scaled(q: &Query, p: usize, one_minus_epsilon: Rational) -> Result<Self> {
        if p == 0 {
            return Err(CoreError::InvalidPlan("p must be at least 1".to_string()));
        }
        if !one_minus_epsilon.is_positive() {
            return Err(CoreError::InvalidPlan("1 − ε must be positive".to_string()));
        }
        let cover = optimal_cover(q)?;
        let exponents: Vec<Rational> = cover
            .weights()
            .iter()
            .map(|v| v.checked_mul(&one_minus_epsilon).map_err(CoreError::from))
            .collect::<Result<_>>()?;
        // Shares p^{(1-ε)v_i}, rounded to at least 1 each; the product may
        // exceed p (that is the point of the partial variant).
        let shares: Vec<usize> =
            exponents.iter().map(|e| fractional_power(p, *e).round().max(1.0) as usize).collect();
        if shares.iter().try_fold(1usize, |cells, s| cells.checked_mul(*s)).is_none() {
            return Err(CoreError::InvalidPlan(format!(
                "the virtual grid {shares:?} of {} on {p} servers has more than {} cells",
                q.name(),
                usize::MAX
            )));
        }
        Ok(ShareAllocation {
            cover: cover.weights().to_vec(),
            tau: cover.total(),
            exponents,
            shares,
            p,
        })
    }

    /// The share of a variable.
    pub fn share(&self, v: VarId) -> usize {
        self.shares.get(v.0).copied().unwrap_or(1)
    }

    /// The total number of hypercube cells `∏ᵢ pᵢ`.
    pub fn num_cells(&self) -> usize {
        self.shares.iter().product()
    }

    /// The worst-case replication factor of an atom whose variable set is
    /// `vars`: the product of the shares of the variables *not* in the
    /// atom, `∏_{i ∉ vars} pᵢ`.
    pub fn replication_of_atom(&self, q: &Query, atom: mpc_cq::AtomId) -> Result<usize> {
        let vars = q.vars_of_atom(atom)?;
        Ok(self
            .shares
            .iter()
            .enumerate()
            .filter(|(i, _)| !vars.contains(&VarId(*i)))
            .map(|(_, s)| *s)
            .product())
    }

    /// The largest replication factor over all atoms; bounded by
    /// `p^{1 − 1/τ}` for exact fractional shares.
    pub fn max_replication(&self, q: &Query) -> Result<usize> {
        let mut max = 1;
        for a in q.atom_ids() {
            max = max.max(self.replication_of_atom(q, a)?);
        }
        Ok(max)
    }

    /// Map a hypercube cell (one coordinate per variable, `coords[i] <
    /// shares[i]`) to a server index in `0..num_cells()` by mixed-radix
    /// encoding.
    pub fn cell_to_server(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.shares.len());
        let mut server = 0usize;
        for (coord, share) in coords.iter().zip(&self.shares) {
            debug_assert!(coord < share, "coordinate {coord} out of range {share}");
            server = server * share + coord;
        }
        server
    }
}

/// An optimal fractional vertex cover from [`QueryLps::solve`] (closed
/// form, else sparse simplex). Solved afresh on every call — microseconds
/// at the sizes planned here — so the cover, and the shares rounded from
/// it, depend on `q` alone.
fn optimal_cover(q: &Query) -> Result<VertexCover> {
    Ok(QueryLps::solve(q).map_err(CoreError::from)?.vertex_cover().clone())
}

/// `p^e` for a rational exponent, as `f64`.
pub fn fractional_power(p: usize, e: Rational) -> f64 {
    (p as f64).powf(e.to_f64())
}

/// Round fractional shares `p^{eᵢ}` to integers `pᵢ ≥ 1` with `∏ pᵢ ≤ p`:
/// start from the floor and repeatedly increment the coordinate whose ideal
/// value exceeds its current value by the largest ratio, as long as the
/// product stays within `p`.
fn round_shares(exponents: &[Rational], p: usize) -> Vec<usize> {
    let ideal: Vec<f64> = exponents.iter().map(|e| fractional_power(p, *e)).collect();
    let mut shares: Vec<usize> = ideal.iter().map(|x| (x.floor() as usize).max(1)).collect();

    // The floors might already overshoot (possible only through the max(1)
    // clamp); shrink the largest coordinates until the product fits.
    while shares.iter().product::<usize>() > p {
        let (idx, _) = shares
            .iter()
            .enumerate()
            .filter(|(_, s)| **s > 1)
            .max_by_key(|(_, s)| **s)
            .expect("product > p >= 1 implies some share > 1");
        shares[idx] -= 1;
    }

    // Greedily grow the most-underallocated coordinate.
    loop {
        let product: usize = shares.iter().product();
        let mut best: Option<(usize, f64)> = None;
        for i in 0..shares.len() {
            // Growing coordinate i is only allowed if the product stays ≤ p.
            let grown = product / shares[i] * (shares[i] + 1);
            if grown > p {
                continue;
            }
            let deficit = ideal[i] / shares[i] as f64;
            if best.is_none_or(|(_, d)| deficit > d) {
                best = Some((i, deficit));
            }
        }
        match best {
            // Only grow while some coordinate is actually below its ideal.
            Some((i, deficit)) if deficit > 1.0 => shares[i] += 1,
            _ => break,
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn triangle_shares_are_cube_roots() {
        // C3 with p = 64: shares (4, 4, 4) — Example 3.1 with p^{1/3}.
        let q = families::triangle();
        let alloc = ShareAllocation::optimal(&q, 64).unwrap();
        assert_eq!(alloc.tau, r(3, 2));
        assert_eq!(alloc.exponents, vec![r(1, 3); 3]);
        assert_eq!(alloc.shares, vec![4, 4, 4]);
        assert_eq!(alloc.num_cells(), 64);
        // Each binary atom misses one variable: replication p^{1/3} = 4.
        assert_eq!(alloc.max_replication(&q).unwrap(), 4);
    }

    #[test]
    fn chain_l2_needs_no_replication() {
        // L2 = S1(x0,x1), S2(x1,x2): optimal cover puts weight 1 on x1, so
        // all servers are allocated to x1 and no tuple is replicated.
        let q = families::chain(2);
        let alloc = ShareAllocation::optimal(&q, 16).unwrap();
        assert_eq!(alloc.tau, Rational::ONE);
        let x1 = q.var_id("x1").unwrap();
        assert_eq!(alloc.share(x1), 16);
        assert_eq!(alloc.num_cells(), 16);
        assert_eq!(alloc.max_replication(&q).unwrap(), 1);
    }

    #[test]
    fn star_allocates_everything_to_center() {
        let q = families::star(3);
        let alloc = ShareAllocation::optimal(&q, 32).unwrap();
        let z = q.var_id("z").unwrap();
        assert_eq!(alloc.share(z), 32);
        assert_eq!(alloc.max_replication(&q).unwrap(), 1);
    }

    #[test]
    fn product_never_exceeds_p() {
        for p in [1usize, 2, 3, 5, 7, 8, 12, 16, 27, 50, 64, 100, 1000] {
            for q in [
                families::triangle(),
                families::cycle(5),
                families::chain(4),
                families::chain(5),
                families::star(3),
                families::binomial(4, 2).unwrap(),
                families::spoke(3),
            ] {
                let alloc = ShareAllocation::optimal(&q, p).unwrap();
                assert!(alloc.num_cells() <= p, "{} with p = {p}: {:?}", q.name(), alloc.shares);
                assert!(alloc.shares.iter().all(|&s| s >= 1));
            }
        }
    }

    #[test]
    fn exponents_sum_to_one() {
        for q in [families::triangle(), families::chain(5), families::binomial(4, 2).unwrap()] {
            let alloc = ShareAllocation::optimal(&q, 64).unwrap();
            assert_eq!(Rational::sum(alloc.exponents.iter()).unwrap(), Rational::ONE);
        }
    }

    #[test]
    fn cell_encoding_is_a_bijection() {
        let q = families::triangle();
        let alloc = ShareAllocation::optimal(&q, 27).unwrap();
        assert_eq!(alloc.shares, vec![3, 3, 3]);
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    seen.insert(alloc.cell_to_server(&[a, b, c]));
                }
            }
        }
        assert_eq!(seen.len(), 27);
        assert_eq!(*seen.iter().max().unwrap(), 26);
    }

    #[test]
    fn consistent_cells_enumerates_free_dimensions() {
        let q = families::triangle();
        let alloc = ShareAllocation::optimal(&q, 27).unwrap();
        let routes = crate::grid::Grid::new(&alloc.shares, 0).routes(&q);
        // Tuple of S1(x1,x2): x1, x2 fixed, x3 free → 3 destinations, as
        // many as the allocation's replication of the atom.
        let mut cells = Vec::new();
        assert!(routes[0].cells_into(&[1, 2], |_, value, _| value as usize, &mut cells));
        assert_eq!(cells, vec![alloc.cell_to_server(&[1, 2, 0]), 16, 17]);
        assert_eq!(alloc.replication_of_atom(&q, mpc_cq::AtomId(0)).unwrap(), 3);
    }

    #[test]
    fn custom_cover_is_respected() {
        // A non-optimal cover of L2: weight 1 on x0 and x1 (τ = 2).
        let q = families::chain(2);
        let cover =
            VertexCover::from_weights(vec![Rational::ONE, Rational::ONE, Rational::ZERO]).unwrap();
        let alloc = ShareAllocation::from_cover(&q, &cover, 16).unwrap();
        assert_eq!(alloc.tau, r(2, 1));
        assert_eq!(alloc.exponents, vec![r(1, 2), r(1, 2), r(0, 1)]);
        assert_eq!(alloc.shares, vec![4, 4, 1]);
        // S2(x1,x2) misses x0 → replicated 4 times (worse than optimal).
        assert!(alloc.max_replication(&q).unwrap() > 1);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let q = families::chain(2);
        assert!(ShareAllocation::optimal(&q, 0).is_err());
        let bad_cover = VertexCover::from_weights(vec![Rational::ZERO; 3]).unwrap();
        assert!(ShareAllocation::from_cover(&q, &bad_cover, 8).is_err());
        let wrong_len = VertexCover::from_weights(vec![Rational::ONE; 2]).unwrap();
        assert!(ShareAllocation::from_cover(&q, &wrong_len, 8).is_err());
    }

    #[test]
    fn scaled_allocation_exceeds_p_below_space_exponent() {
        // C3 at ε = 0: shares p^{v_i} with Σ v_i = 3/2 → p^{3/2} cells > p.
        let q = families::triangle();
        let alloc = ShareAllocation::scaled(&q, 64, Rational::ONE).unwrap();
        assert!(alloc.num_cells() > 64, "cells = {}", alloc.num_cells());
        // At 1−ε = 2/3 (i.e. ε = 1/3 = ε*), the cells are ≈ p again.
        let alloc = ShareAllocation::scaled(&q, 64, r(2, 3)).unwrap();
        assert!(alloc.num_cells() <= 80);
    }

    #[test]
    fn rounding_handles_non_perfect_powers() {
        // p = 50 is not a perfect cube; C3 shares must multiply to ≤ 50 and
        // stay close to 50^{1/3} ≈ 3.68 each.
        let q = families::triangle();
        let alloc = ShareAllocation::optimal(&q, 50).unwrap();
        assert!(alloc.num_cells() <= 50);
        assert!(alloc.num_cells() >= 27, "should use a good fraction of the servers");
        for v in q.var_ids() {
            assert!(alloc.share(v) >= 3 && alloc.share(v) <= 4);
        }
    }
}
