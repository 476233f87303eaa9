//! The server grid and the one routing rule every program shares.
//!
//! A [`Grid`] identifies a group of servers with the cells of
//! `[p₁] × ⋯ × [p_k]`, one dimension per query variable, in mixed-radix
//! order (the last variable is the fastest digit) starting at the group's
//! first server. The paper has exactly one routing rule (Section 3.1): a
//! tuple of atom `S_j` goes to **every cell that agrees with its
//! coordinates** on the variables of `S_j`; the dimensions `S_j` does not
//! mention are free, and that is the replication. Every potential answer
//! `(a₁,…,a_k)` is then fully known at the cell `(c₁(a₁),…,c_k(a_k))`, so
//! [`local_join`] at every cell finds all answers.
//!
//! The rule is compiled once per atom into an [`AtomRoute`]: which tuple
//! position fixes which dimension at which stride, which positions repeat
//! a variable, and the offsets of the atom's free-dimension cells,
//! enumerated once in ascending order. Routing a tuple is then one
//! coordinate per distinct variable, one sum, and one pass over the
//! precomputed offsets — no per-tuple allocation.
//!
//! The programs differ only in the coordinate function
//! `coord(var, value, share)`: the seeded hash `hᵢ : [n] → [pᵢ]`
//! ([`hashed`]) for the HyperCube, the multi-round operators and the
//! residual plans, and the heavy rank modulo the share on the
//! value-indexed dimensions of the worst-case optimal plan. A tuple that
//! disagrees with itself on a repeated variable (`R(x,x,y)` with
//! `t[0] ≠ t[1]`) can never join and is routed nowhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_cq::{Atom, Query, VarId};
use mpc_sim::program::hash_value;
use mpc_sim::ServerState;
use mpc_storage::{Relation, Value};

/// A group of servers laid out as a mixed-radix grid over the query's
/// variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    shares: Vec<usize>,
    /// `strides[i] = ∏_{j > i} shares[j]`: the server-index distance of
    /// one step in dimension `i`.
    strides: Vec<usize>,
    /// First server (global index) of the group.
    offset: usize,
}

impl Grid {
    /// The grid with `shares[i] ≥ 1` coordinates in dimension `i`, whose
    /// cell `(0,…,0)` is server `offset`.
    pub fn new(shares: &[usize], offset: usize) -> Self {
        debug_assert!(shares.iter().all(|&s| s >= 1), "shares are at least 1: {shares:?}");
        let mut strides = vec![1usize; shares.len()];
        for i in (0..shares.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * shares[i + 1];
        }
        Grid { shares: shares.to_vec(), strides, offset }
    }

    /// Compile the routing rule for one atom of the query the grid was
    /// built for.
    pub fn route(&self, atom: &Atom) -> AtomRoute {
        let mut fixed = Vec::with_capacity(atom.vars.len());
        let mut repeats = Vec::new();
        for (pos, var) in atom.vars.iter().enumerate() {
            match atom.vars[..pos].iter().position(|w| w == var) {
                Some(first) => repeats.push((pos, first)),
                None => fixed.push((pos, *var, self.shares[var.0], self.strides[var.0])),
            }
        }
        let mut free = vec![self.offset];
        for (dim, (&share, &stride)) in self.shares.iter().zip(&self.strides).enumerate() {
            if !atom.vars.contains(&VarId(dim)) {
                free = free.iter().flat_map(|b| (0..share).map(move |c| b + c * stride)).collect();
            }
        }
        AtomRoute { fixed, repeats, free }
    }

    /// [`Grid::route`] for every atom of `q`, indexed by `AtomId`.
    pub fn routes(&self, q: &Query) -> Vec<AtomRoute> {
        q.atoms().iter().map(|atom| self.route(atom)).collect()
    }
}

/// The routing rule of one atom in one [`Grid`], compiled at plan time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomRoute {
    /// `(position, variable, share, stride)` of each distinct variable, at
    /// its first position in the atom.
    fixed: Vec<(usize, VarId, usize, usize)>,
    /// `(position, first position)` of every later occurrence of a
    /// variable.
    repeats: Vec<(usize, usize)>,
    /// The group offset plus the offset of every combination of the
    /// atom's free coordinates, ascending.
    free: Vec<usize>,
}

impl AtomRoute {
    /// Append to `out`, in ascending order, the servers of every cell that
    /// agrees with `tuple` under the coordinate function
    /// `coord(var, value, share) < share`. Returns `false`, appending
    /// nothing, for a tuple that disagrees with itself on a repeated
    /// variable.
    pub fn cells_into<F>(&self, tuple: &[Value], coord: F, out: &mut Vec<usize>) -> bool
    where
        F: Fn(VarId, Value, usize) -> usize,
    {
        if self.repeats.iter().any(|&(pos, first)| tuple[pos] != tuple[first]) {
            return false;
        }
        let base: usize = self
            .fixed
            .iter()
            .map(|&(pos, var, share, stride)| coord(var, tuple[pos], share) * stride)
            .sum();
        out.extend(self.free.iter().map(|cell| base + cell));
        true
    }
}

/// Derive `k` independent per-variable hash seeds from one master seed.
pub fn derive_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen()).collect()
}

/// The hashed coordinate function `hᵢ(value) ∈ [pᵢ]`, one seed per
/// variable.
pub fn hashed(seeds: &[u64]) -> impl Fn(VarId, Value, usize) -> usize + '_ {
    move |var, value, share| hash_value(seeds[var.0], value, share)
}

/// What a grid cell reports after the shuffle: the join of `query` over
/// the relations it received — empty when some atom received nothing.
///
/// # Errors
///
/// Propagates evaluation errors (an arity clash between a received
/// relation and its atom).
pub fn local_join(query: &Query, state: &ServerState) -> mpc_sim::Result<Relation> {
    if query.atoms().iter().any(|atom| state.relation(&atom.name).is_none()) {
        return Ok(Relation::empty(query.name(), query.num_vars()));
    }
    Ok(mpc_storage::join::evaluate(query, state)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity coordinates: the value itself, which the tests keep below
    /// the share.
    fn identity(_: VarId, value: Value, share: usize) -> usize {
        assert!((value as usize) < share);
        value as usize
    }

    fn cells(route: &AtomRoute, tuple: &[Value]) -> Option<Vec<usize>> {
        let mut out = Vec::new();
        route.cells_into(tuple, identity, &mut out).then_some(out)
    }

    #[test]
    fn consistent_cells_mixed_radix() {
        let q = Query::new("q", vec![("A", vec!["x", "y", "z"]), ("B", vec!["x", "z"])]).unwrap();
        let routes = Grid::new(&[2, 3, 1], 0).routes(&q);
        // Every coordinate fixed: cell (1, 2, 0) = 1·3 + 2.
        assert_eq!(cells(&routes[0], &[1, 2, 0]), Some(vec![5]));
        // `y` free: the three cells of row x = 0, ascending.
        assert_eq!(cells(&routes[1], &[0, 0]), Some(vec![0, 1, 2]));
        // A group offset shifts every cell.
        assert_eq!(cells(&Grid::new(&[2, 3, 1], 10).route(&q.atoms()[1]), &[1, 0]).unwrap()[0], 13);
    }

    #[test]
    fn self_contradicting_tuples_are_routed_nowhere() {
        let q = Query::new("q", vec![("R", vec!["x", "x", "y"]), ("S", vec!["y", "z"])]).unwrap();
        let route = Grid::new(&[2, 2, 2], 0).route(&q.atoms()[0]);
        assert_eq!(cells(&route, &[1, 0, 1]), None);
        // x = 1, y = 1, z free.
        assert_eq!(cells(&route, &[1, 1, 1]), Some(vec![6, 7]));
    }

    /// The router against brute force over seeded random grids, atoms and
    /// tuples: `cells_into` lists exactly the cells whose coordinates
    /// agree with the tuple, ascending, and nothing exactly when the tuple
    /// contradicts itself.
    #[test]
    fn cells_equal_brute_force_on_random_grids_atoms_and_tuples() {
        let mut rng = StdRng::seed_from_u64(0x6121D);
        let coord = |var: VarId, value: Value, share: usize| (value as usize + var.0) % share;
        let mut contradictions = 0;
        for case in 0..400 {
            let k = rng.gen_range(1usize..=4);
            let shares: Vec<usize> = (0..k).map(|_| rng.gen_range(1usize..=4)).collect();
            let offset = if case % 2 == 0 { 0 } else { rng.gen_range(1usize..50) };
            // Atoms may repeat variables and may cover all of them; the
            // second atom names every variable so the query is valid.
            let arity = rng.gen_range(1usize..=k + 1);
            let vars: Vec<usize> = match case % 4 {
                0 => (0..k).collect(),
                _ => (0..arity).map(|_| rng.gen_range(0..k)).collect(),
            };
            let name = |v: &usize| format!("x{v}");
            let q = Query::new(
                "q",
                vec![
                    ("A", (0..k).map(|v| name(&v)).collect::<Vec<_>>()),
                    ("R", vars.iter().map(name).collect()),
                ],
            )
            .unwrap();
            let (_, atom) = q.atom_by_name("R").unwrap();
            let route = Grid::new(&shares, offset).route(atom);

            for _ in 0..8 {
                let tuple: Vec<Value> = atom.vars.iter().map(|_| rng.gen_range(0u64..3)).collect();
                let consistent = atom.vars.iter().enumerate().all(|(pos, var)| {
                    atom.vars.iter().zip(&tuple).all(|(w, x)| w != var || *x == tuple[pos])
                });
                // Brute force: decode every cell, keep those that agree.
                let expected: Vec<usize> = (0..shares.iter().product::<usize>())
                    .filter(|cell| {
                        let mut rest = *cell;
                        let mut coords = vec![0usize; k];
                        for dim in (0..k).rev() {
                            coords[dim] = rest % shares[dim];
                            rest /= shares[dim];
                        }
                        atom.vars
                            .iter()
                            .zip(&tuple)
                            .all(|(var, x)| coords[var.0] == coord(*var, *x, shares[var.0]))
                    })
                    .map(|cell| offset + cell)
                    .collect();

                let mut got = vec![usize::MAX]; // appended to, not cleared
                let routed = route.cells_into(&tuple, coord, &mut got);
                assert_eq!(routed, consistent, "case {case}: {vars:?} {tuple:?}");
                if consistent {
                    assert!(!expected.is_empty());
                    assert_eq!(
                        got[1..],
                        expected[..],
                        "case {case}: {shares:?} {vars:?} {tuple:?}"
                    );
                } else {
                    contradictions += 1;
                    assert_eq!(got, vec![usize::MAX], "case {case}: nothing appended");
                }
            }
        }
        assert!(contradictions > 100, "the generator reaches repeated variables");
    }

    #[test]
    fn derived_seeds_are_a_prefix_stable_sequence() {
        let seeds = derive_seeds(42, 4);
        assert_eq!(seeds[..3], derive_seeds(42, 3)[..]);
        assert_ne!(seeds, derive_seeds(43, 4));
        let h = hashed(&seeds);
        assert_eq!(h(VarId(2), 17, 5), hash_value(seeds[2], 17, 5));
    }

    #[test]
    fn local_join_is_empty_until_every_atom_arrived() {
        let q = mpc_cq::families::chain(2);
        let mut state = ServerState::new(0, 10);
        let deliver = |state: &mut ServerState, tag: &str, row: &[Value]| {
            let mut stage = mpc_sim::RoundStage::default();
            stage.push_row(tag, row).unwrap();
            state.merge_stage(1, stage).unwrap();
            state.settle().unwrap();
        };
        deliver(&mut state, "S1", &[1, 2]);
        assert!(local_join(&q, &state).unwrap().is_empty());
        deliver(&mut state, "S2", &[2, 3]);
        let out = local_join(&q, &state).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&[1u64, 2, 3]));
        assert_eq!((out.name(), out.arity()), ("L2", 3));
    }
}
