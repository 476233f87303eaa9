//! Distances, radius and diameter of the query hypergraph (Section 4).
//!
//! The distance `d(u, v)` between two variables is the length of the
//! shortest path in the hypergraph where one step moves between variables
//! co-occurring in an atom. The *radius* is `rad(q) = min_u max_v d(u,v)`
//! and the *diameter* is `diam(q) = max_{u,v} d(u,v)`.
//!
//! These quantities drive the multi-round bounds: a tuple-based MPC(ε)
//! algorithm needs at least `⌈log_{kε} diam(q)⌉` rounds for tree-like
//! queries (Corollary 4.8), while `⌈log_{kε} rad(q)⌉ + 1` rounds always
//! suffice (Lemma 4.3).

use std::collections::VecDeque;

use crate::query::{Query, VarId};

impl Query {
    /// Breadth-first distances (in hypergraph steps) from `source` to every
    /// variable. Unreachable variables get `None`.
    pub(crate) fn distances_from(&self, source: VarId) -> Vec<Option<usize>> {
        let k = self.num_vars();
        let mut dist: Vec<Option<usize>> = vec![None; k];
        if source.0 >= k {
            return dist;
        }
        // Precompute adjacency once; queries are small (ℓ, k = O(10²)).
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); k];
        for atom in self.atoms() {
            let distinct = atom.distinct_vars();
            for &u in &distinct {
                for &v in &distinct {
                    if u != v {
                        adjacency[u.0].push(v.0);
                    }
                }
            }
        }
        dist[source.0] = Some(0);
        let mut queue = VecDeque::from([source.0]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have a distance");
            for &v in &adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Eccentricity of a variable: its maximum distance to any other
    /// variable, or `None` if the query is disconnected.
    pub(crate) fn eccentricity(&self, v: VarId) -> Option<usize> {
        let d = self.distances_from(v);
        let mut max = 0;
        for entry in d {
            max = max.max(entry?);
        }
        Some(max)
    }

    /// `rad(q) = min_u max_v d(u, v)`, or `None` if the query is
    /// disconnected.
    pub fn radius(&self) -> Option<usize> {
        self.var_ids()
            .map(|v| self.eccentricity(v))
            .try_fold(usize::MAX, |acc, e| e.map(|e| acc.min(e)))
    }

    /// `diam(q) = max_{u,v} d(u, v)`, or `None` if the query is
    /// disconnected.
    pub fn diameter(&self) -> Option<usize> {
        self.var_ids()
            .map(|v| self.eccentricity(v))
            .try_fold(0usize, |acc, e| e.map(|e| acc.max(e)))
    }
}

#[cfg(test)]
mod tests {
    use crate::families;
    use crate::query::{Query, VarId};

    /// A *center* of the query: a variable of minimum eccentricity
    /// (`None` if disconnected).
    fn center(q: &Query) -> Option<VarId> {
        let mut best: Option<(usize, VarId)> = None;
        for v in q.var_ids() {
            let ecc = q.eccentricity(v)?;
            if best.is_none_or(|(b, _)| ecc < b) {
                best = Some((ecc, v));
            }
        }
        best.map(|(_, v)| v)
    }

    #[test]
    fn chain_radius_and_diameter() {
        // rad(Lk) = ⌈k/2⌉, diam(Lk) = k (Section 4.1 / 4.2.2).
        for k in 1..=9usize {
            let q = families::chain(k);
            assert_eq!(q.diameter(), Some(k), "diam(L{k})");
            assert_eq!(q.radius(), Some(k.div_ceil(2)), "rad(L{k})");
        }
    }

    #[test]
    fn cycle_radius_and_diameter() {
        // rad(Ck) = diam(Ck) = ⌊k/2⌋.
        for k in 3..=9usize {
            let q = families::cycle(k);
            assert_eq!(q.diameter(), Some(k / 2), "diam(C{k})");
            assert_eq!(q.radius(), Some(k / 2), "rad(C{k})");
        }
    }

    #[test]
    fn star_radius_and_diameter() {
        // Tk: center z at distance 1 from every leaf; leaves at distance 2.
        for k in 2..=6usize {
            let q = families::star(k);
            assert_eq!(q.radius(), Some(1));
            assert_eq!(q.diameter(), Some(2));
        }
        // T1 = S1(z, x1) is a single edge.
        assert_eq!(families::star(1).diameter(), Some(1));
    }

    #[test]
    fn distances_within_chain() {
        let q = families::chain(4);
        let x0 = q.var_id("x0").unwrap();
        let x4 = q.var_id("x4").unwrap();
        let x2 = q.var_id("x2").unwrap();
        assert_eq!(q.distances_from(x0)[x4.0], Some(4));
        assert_eq!(q.distances_from(x0)[x2.0], Some(2));
        assert_eq!(q.distances_from(x2)[x2.0], Some(0));
        assert_eq!(q.distances_from(x4)[x0.0], Some(4));
    }

    #[test]
    fn center_of_chain_is_middle() {
        let q = families::chain(4);
        let c = center(&q).unwrap();
        assert_eq!(q.var_name(c).unwrap(), "x2");
    }

    #[test]
    fn disconnected_query_has_no_radius() {
        let q = crate::query::Query::new("q", vec![("R", vec!["x"]), ("S", vec!["y"])]).unwrap();
        assert_eq!(q.radius(), None);
        assert_eq!(q.diameter(), None);
        assert_eq!(center(&q), None);
        let x = q.var_id("x").unwrap();
        let y = q.var_id("y").unwrap();
        assert_eq!(q.distances_from(x)[y.0], None);
    }

    #[test]
    fn radius_diameter_inequalities() {
        // rad ≤ diam ≤ 2·rad for every connected query.
        for q in [
            families::chain(6),
            families::cycle(7),
            families::star(4),
            families::binomial(4, 2).unwrap(),
            families::spoke(3),
        ] {
            let r = q.radius().unwrap();
            let d = q.diameter().unwrap();
            assert!(r <= d, "{}", q.name());
            assert!(d <= 2 * r, "{}", q.name());
        }
    }

    #[test]
    fn hyperedge_counts_as_single_step() {
        // In B(3,2)-style queries, all variables inside one atom are at
        // distance 1 even though the atom is ternary.
        let q = crate::query::Query::new("q", vec![("R", vec!["x", "y", "z"])]).unwrap();
        assert_eq!(q.diameter(), Some(1));
        assert_eq!(q.radius(), Some(1));
    }
}
