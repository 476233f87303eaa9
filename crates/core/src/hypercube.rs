//! The HyperCube (HC) algorithm (Section 3.1) and its partial-answer
//! variant (Proposition 3.11), as programs over the one grid router of
//! [`crate::grid`].
//!
//! [`HyperCubeProgram`] is the grid of the optimal share allocation with
//! hashed coordinates on every dimension and nothing else: one round, one
//! group, all `p` servers. On a matching database the per-server load is
//! `O(n / p^{1/τ})` with high probability, i.e. space exponent
//! `ε = 1 − 1/τ` (Proposition 3.2); with the optimal fractional vertex
//! cover this matches the lower bound of Theorem 3.3.
//! [`PartialHyperCubeProgram`] adds the one thing Proposition 3.11 needs:
//! a virtual grid larger than `p` of which only a random subset of cells
//! is backed by a server.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mpc_cq::{Atom, Query};
use mpc_lp::Rational;
use mpc_sim::{MpcProgram, RouteSink, ServerState};
use mpc_storage::{Relation, Value};

use crate::error::CoreError;
use crate::grid::{derive_seeds, hashed, local_join, AtomRoute, Grid};
use crate::shares::ShareAllocation;
use crate::Result;

/// The one-round HyperCube program: an [`MpcProgram`] that can be run on
/// any [`mpc_sim::Cluster`].
#[derive(Debug, Clone)]
pub struct HyperCubeProgram {
    query: Query,
    allocation: ShareAllocation,
    /// The routing rule of every atom in the allocation's grid.
    routes: Vec<AtomRoute>,
    /// Per-variable hash seeds (`hᵢ`).
    seeds: Vec<u64>,
}

impl HyperCubeProgram {
    /// Build the program with the optimal share allocation for `p` servers.
    ///
    /// ```
    /// use mpc_core::hypercube::HyperCubeProgram;
    ///
    /// // The triangle query C3 has cover (1/2, 1/2, 1/2), so on p = 64
    /// // servers every variable gets share 64^(1/3) = 4.
    /// let q = mpc_cq::families::triangle();
    /// let program = HyperCubeProgram::new(&q, 64, 42).unwrap();
    /// assert_eq!(program.allocation().shares, vec![4, 4, 4]);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates LP/allocation errors.
    pub fn new(query: &Query, p: usize, seed: u64) -> Result<Self> {
        let allocation = ShareAllocation::optimal(query, p)?;
        Ok(Self::with_allocation(query, allocation, seed))
    }

    /// Build the program from an explicit share allocation.
    pub fn with_allocation(query: &Query, allocation: ShareAllocation, seed: u64) -> Self {
        let routes = Grid::new(&allocation.shares, 0).routes(query);
        let seeds = derive_seeds(seed, query.num_vars());
        HyperCubeProgram { query: query.clone(), allocation, routes, seeds }
    }

    /// The share allocation in use.
    pub fn allocation(&self) -> &ShareAllocation {
        &self.allocation
    }

    /// Destination servers of one tuple of `atom` (an atom of the
    /// program's query); none for a tuple that disagrees with itself on a
    /// repeated variable.
    pub fn destinations(&self, atom: &Atom, tuple: &[Value]) -> Vec<usize> {
        let mut cells = Vec::new();
        if let Some((id, _)) = self.query.atom_by_name(&atom.name) {
            self.routes[id.0].cells_into(tuple, hashed(&self.seeds), &mut cells);
        }
        cells
    }
}

impl MpcProgram for HyperCubeProgram {
    fn num_rounds(&self) -> usize {
        1
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        _p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        let Some((id, _)) = self.query.atom_by_name(relation.name()) else {
            // Relations not mentioned by the query are simply not shuffled.
            return Ok(());
        };
        let (route, coord) = (&self.routes[id.0], hashed(&self.seeds));
        let mut cells = Vec::new();
        for t in relation.iter() {
            cells.clear();
            if route.cells_into(t, &coord, &mut cells) {
                sink.emit(relation.name(), t, &cells)?;
            }
        }
        Ok(())
    }

    fn output(&self, _server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        local_join(&self.query, state)
    }

    fn output_name(&self) -> String {
        self.query.name().to_string()
    }

    fn output_arity(&self) -> usize {
        self.query.num_vars()
    }
}

/// The partial-answer HyperCube of Proposition 3.11: run *below* the space
/// exponent (`ε < 1 − 1/τ*`), where the full hypercube would need
/// `p^{(1−ε)τ*} > p` cells. A uniformly random subset of `p` cells is
/// materialised on the `p` servers; tuples are routed only to materialised
/// cells, so each potential answer is reported with probability
/// `p / p^{(1−ε)τ*} = 1 / p^{(1−ε)τ* − 1}` — exactly the fraction that
/// Theorem 3.3 proves to be optimal.
#[derive(Debug, Clone)]
pub struct PartialHyperCubeProgram {
    query: Query,
    allocation: ShareAllocation,
    /// The routing rule of every atom in the *virtual* grid.
    routes: Vec<AtomRoute>,
    seeds: Vec<u64>,
    /// Sorted list of materialised cells; index in this list = server id.
    chosen_cells: Vec<usize>,
}

impl PartialHyperCubeProgram {
    /// Build the partial program for `p` servers at space exponent
    /// `epsilon` (as an exact rational, e.g. `0` or `1/4`).
    ///
    /// # Errors
    ///
    /// Propagates allocation errors; rejects `ε ≥ 1`.
    pub fn new(query: &Query, p: usize, epsilon: Rational, seed: u64) -> Result<Self> {
        if epsilon >= Rational::ONE {
            return Err(CoreError::InvalidPlan("ε must be < 1 for the partial HC".to_string()));
        }
        let one_minus_eps = Rational::ONE - epsilon;
        let allocation = ShareAllocation::scaled(query, p, one_minus_eps)?;
        let total_cells = allocation.num_cells();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let chosen_cells: Vec<usize> = if total_cells <= p {
            (0..total_cells).collect()
        } else {
            // Uniform sample of p distinct cells.
            rand::seq::index::sample(&mut rng, total_cells, p).into_vec()
        };
        let mut chosen_cells = chosen_cells;
        chosen_cells.sort_unstable();
        let routes = Grid::new(&allocation.shares, 0).routes(query);
        let seeds = derive_seeds(seed, query.num_vars());
        Ok(PartialHyperCubeProgram {
            query: query.clone(),
            allocation,
            routes,
            seeds,
            chosen_cells,
        })
    }

    /// Total number of cells of the (virtual) hypercube.
    pub(crate) fn total_cells(&self) -> usize {
        self.allocation.num_cells()
    }

    /// The fraction of potential answers this program is expected to
    /// report: `(number of materialised cells) / (total cells)`.
    pub fn expected_fraction(&self) -> f64 {
        self.chosen_cells.len() as f64 / self.total_cells().max(1) as f64
    }
}

impl MpcProgram for PartialHyperCubeProgram {
    fn num_rounds(&self) -> usize {
        1
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        _p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        let Some((id, _)) = self.query.atom_by_name(relation.name()) else {
            return Ok(());
        };
        let (route, coord) = (&self.routes[id.0], hashed(&self.seeds));
        let mut cells = Vec::new();
        for t in relation.iter() {
            cells.clear();
            if !route.cells_into(t, &coord, &mut cells) {
                continue;
            }
            // Virtual cell → the server materialising it, if any; a tuple
            // none of whose cells is materialised goes out to nobody.
            cells.retain_mut(|cell| {
                self.chosen_cells.binary_search(cell).map(|server| *cell = server).is_ok()
            });
            sink.emit(relation.name(), t, &cells)?;
        }
        Ok(())
    }

    fn output(&self, _server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        local_join(&self.query, state)
    }

    fn output_name(&self) -> String {
        self.query.name().to_string()
    }

    fn output_arity(&self) -> usize {
        self.query.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_sim::{Cluster, MpcConfig, RunResult};
    use mpc_storage::join::evaluate;
    use mpc_storage::Database;

    use crate::space_exponent::space_exponent;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// `program` on `p` servers at space exponent `eps`.
    fn run(program: &impl MpcProgram, db: &Database, p: usize, eps: f64) -> RunResult {
        Cluster::new(MpcConfig::new(p, eps)).unwrap().run(program, db).unwrap()
    }

    /// The HyperCube of `q` on `p` servers at `eps`, default seed.
    fn run_hc(q: &Query, db: &Database, p: usize, eps: f64) -> RunResult {
        run(&HyperCubeProgram::new(q, p, 0x5EED).unwrap(), db, p, eps)
    }

    #[test]
    fn triangle_hypercube_is_correct_and_balanced() {
        // Example 3.1: C3 on p = 64 with ε = 1/3.
        let q = families::triangle();
        let db = matching_database(&q, 2000, 11);
        let result = run_hc(&q, &db, 64, 1.0 / 3.0);
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
        assert_eq!(space_exponent(&q).unwrap(), r(1, 3));
        // Replication rate ≈ p^{1/3} = 4.
        let rate = result.rounds[0].replication_rate;
        assert!(rate > 3.0 && rate < 5.0, "replication rate {rate}");
        // Within the ε = 1/3 budget.
        assert!(result.within_budget());
    }

    #[test]
    fn chain_l2_hypercube_no_replication() {
        let q = families::chain(2);
        let db = matching_database(&q, 3000, 3);
        let result = run_hc(&q, &db, 32, 0.0);
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
        assert!((result.rounds[0].replication_rate - 1.0).abs() < 1e-9);
        assert!(result.within_budget());
        assert_eq!(space_exponent(&q).unwrap(), Rational::ZERO);
    }

    #[test]
    fn star_query_hypercube() {
        let q = families::star(3);
        let db = matching_database(&q, 1000, 5);
        let result = run_hc(&q, &db, 16, 0.0);
        let expected = evaluate(&q, &db).unwrap();
        assert_eq!(expected.len(), 1000);
        assert!(result.output.same_tuples(&expected));
        assert!(result.within_budget());
    }

    #[test]
    fn longer_chain_and_cycle_are_correct() {
        for q in [families::chain(4), families::cycle(4)] {
            let db = matching_database(&q, 600, 17);
            let eps = space_exponent(&q).unwrap().to_f64();
            let result = run_hc(&q, &db, 27, eps);
            let expected = evaluate(&q, &db).unwrap();
            assert!(result.output.same_tuples(&expected), "HC output mismatch for {}", q.name());
        }
    }

    #[test]
    fn cartesian_product_uses_square_grid() {
        // The introduction's drug-interaction example: q(x,y) = R(x), S(y)
        // is solved by HC with shares (√p, √p).
        let q = mpc_cq::Query::new("CP", vec![("R", vec!["x"]), ("S", vec!["y"])]).unwrap();
        let db = matching_database(&q, 200, 23);
        let program = HyperCubeProgram::new(&q, 16, 0x5EED).unwrap();
        assert_eq!(program.allocation().shares, vec![4, 4]);
        let expected = evaluate(&q, &db).unwrap();
        assert_eq!(expected.len(), 200 * 200);
        assert!(run(&program, &db, 16, 0.5).output.same_tuples(&expected));
    }

    #[test]
    fn destinations_replicate_along_free_dimensions() {
        let q = families::triangle();
        let program = HyperCubeProgram::new(&q, 27, 1).unwrap();
        let (_, atom) = q.atom_by_name("S1").unwrap();
        let dests = program.destinations(atom, &[5, 9]);
        // S1(x1,x2) leaves x3 free: exactly p^{1/3} = 3 destinations.
        assert_eq!(dests.len(), 3);
        // Deterministic.
        assert_eq!(dests, program.destinations(atom, &[5, 9]));
    }

    #[test]
    fn unknown_relation_is_ignored_by_routing() {
        let q = families::chain(2);
        let program = HyperCubeProgram::new(&q, 8, 1).unwrap();
        let junk = Relation::from_tuples("Junk", 2, vec![[1u64, 2]]).unwrap();
        assert!((&program as &dyn MpcProgram).route_input(&junk, 8).unwrap().is_empty());
    }

    #[test]
    fn partial_hypercube_reports_predicted_fraction() {
        // L3 (τ* = 2) forced to one round at ε = 0 on p servers can only
        // report ≈ 1/p of the n answers (Theorem 3.3 / Prop 3.11).
        let q = families::chain(3);
        let n = 4000u64;
        let p = 16usize;
        let db = matching_database(&q, n, 31);
        let program = PartialHyperCubeProgram::new(&q, p, Rational::ZERO, 9).unwrap();
        let fraction = program.expected_fraction();
        let result = run(&program, &db, p, 0.0);
        let reported = result.output.len() as f64;
        let predicted = fraction * n as f64;
        assert!(fraction < 0.2, "fraction {fraction}");
        // Within a factor of 2.5 of the prediction (randomness of the hash).
        assert!(
            reported <= 2.5 * predicted + 10.0 && reported * 2.5 + 10.0 >= predicted,
            "reported {reported}, predicted {predicted}"
        );
        // All reported answers are genuine answers.
        let truth = evaluate(&q, &db).unwrap();
        for t in result.output.iter() {
            assert!(truth.contains(t));
        }
    }

    #[test]
    fn partial_hypercube_at_space_exponent_reports_everything() {
        // At ε = ε* the virtual hypercube has ≈ p cells, so (nearly) all
        // cells are materialised and (nearly) all answers are reported.
        let q = families::chain(2); // ε* = 0
        let db = matching_database(&q, 1000, 13);
        let program = PartialHyperCubeProgram::new(&q, 16, Rational::ZERO, 5).unwrap();
        assert!(program.expected_fraction() > 0.99);
        let truth = evaluate(&q, &db).unwrap();
        assert!(run(&program, &db, 16, 0.0).output.same_tuples(&truth));
    }

    #[test]
    fn partial_hypercube_rejects_epsilon_one() {
        let q = families::chain(2);
        assert!(PartialHyperCubeProgram::new(&q, 4, Rational::ONE, 1).is_err());
    }

    #[test]
    fn partial_hypercube_rejects_a_virtual_grid_past_usize() {
        // p^{τ*} cells: 64^12, 1024^8 and (2^17)^4 all exceed 2^64.
        for (k, p) in [(24, 64), (16, 1024), (8, 1 << 17)] {
            let err = PartialHyperCubeProgram::new(&families::chain(k), p, Rational::ZERO, 1);
            assert!(matches!(err, Err(CoreError::InvalidPlan(_))), "L{k} at p = {p}: {err:?}");
        }
        // A grid that fits is unchanged: 8^{1/2} rounds to 3 per variable.
        let small = PartialHyperCubeProgram::new(&families::triangle(), 8, Rational::ZERO, 1);
        assert_eq!(small.unwrap().total_cells(), 27);
    }
}
