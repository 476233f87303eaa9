//! Local (single-server) evaluation of full conjunctive queries.
//!
//! Servers in the MPC model are computationally unbounded; what matters is
//! only the data they receive. This module provides the in-memory join used
//! (a) inside every simulated server to compute its local output and
//! (b) sequentially on the whole database as the ground truth against which
//! the parallel algorithms are verified.
//!
//! The algorithm is a connected-order hash join: atoms are processed in an
//! order in which each atom (after the first) shares at least one variable
//! with the already-joined prefix whenever the query is connected; each
//! step builds a hash index on the shared variables and extends the
//! current partial assignments.
//!
//! The per-step index reads the atom's relation **in place**: rows stay
//! where the [`Relation`] stores them and the index is a set of *chains* of
//! `u32` row ids — per shared-variable key the first and last row, plus one
//! `next` array linking a key's rows in insertion order. Building it
//! allocates nothing per row (keys of one or two positions are plain
//! values), and hashing uses the crate's multiply-rotate mix. Partial
//! assignments live in one flat buffer of stride `k` (the number of query
//! variables). When enough partial assignments are in flight the probe runs
//! rayon-parallel over contiguous chunks, concatenated in order, so the
//! output row order does not depend on which path ran.

use std::collections::HashMap;
use std::ops::Range;

use mpc_cq::{Query, VarId};
use rayon::prelude::*;

use crate::database::{require, validate, RelationSource};
use crate::hash::BuildMixHasher;
use crate::relation::{Relation, Value};
use crate::Result;

/// Probe in parallel only when at least this many partial assignments are
/// in flight — below it, thread spawn overhead beats the win.
const PAR_PROBE_THRESHOLD: usize = 1024;

/// Partial assignments per parallel probe task.
const PAR_PROBE_CHUNK: usize = 512;

/// End-of-chain marker; a [`Relation`] never holds a row with this id.
const NIL: u32 = u32::MAX;

/// First and last row id of one key's chain.
type Ends = (u32, u32);

/// The hash index of one join step: the rows of an atom's relation that
/// are self-consistent on repeated variables, chained per shared-variable
/// key in insertion order.
struct AtomIndex<'a> {
    rel: &'a Relation,
    keys: KeyIndex,
    /// `next[r]` is the row after `r` on `r`'s chain, or [`NIL`].
    next: Vec<u32>,
}

enum KeyIndex {
    /// No shared variables (first atom, or a new connected component):
    /// one chain through every consistent row.
    All(Ends),
    /// Exactly one shared position — the common case.
    One(HashMap<Value, Ends, BuildMixHasher>),
    /// Two shared positions.
    Two(HashMap<(Value, Value), Ends, BuildMixHasher>),
    /// Three or more shared positions.
    Many(HashMap<Vec<Value>, Ends, BuildMixHasher>),
}

impl<'a> AtomIndex<'a> {
    /// Chain the rows of `rel`, skipping rows that disagree with
    /// themselves on a repeated variable, by their values at the shared
    /// positions.
    fn build(
        rel: &'a Relation,
        var_positions: &[(VarId, Vec<usize>)],
        shared: &[(VarId, usize)],
    ) -> AtomIndex<'a> {
        let map_hint = rel.len();
        let mut keys = match shared {
            [] => KeyIndex::All((NIL, NIL)),
            [_] => KeyIndex::One(HashMap::with_capacity_and_hasher(map_hint, Default::default())),
            [_, _] => {
                KeyIndex::Two(HashMap::with_capacity_and_hasher(map_hint, Default::default()))
            }
            _ => KeyIndex::Many(HashMap::with_capacity_and_hasher(map_hint, Default::default())),
        };
        let repeated: Vec<&[usize]> =
            var_positions.iter().filter(|(_, ps)| ps.len() > 1).map(|(_, ps)| &ps[..]).collect();
        let mut next = vec![NIL; rel.len()];
        for (id, row) in rel.iter().enumerate() {
            if repeated.iter().any(|ps| ps[1..].iter().any(|&p| row[p] != row[ps[0]])) {
                continue;
            }
            let id = id as u32;
            let ends = match &mut keys {
                KeyIndex::All(ends) => ends,
                KeyIndex::One(map) => map.entry(row[shared[0].1]).or_insert((NIL, NIL)),
                KeyIndex::Two(map) => {
                    map.entry((row[shared[0].1], row[shared[1].1])).or_insert((NIL, NIL))
                }
                KeyIndex::Many(map) => map
                    .entry(shared.iter().map(|&(_, pos)| row[pos]).collect())
                    .or_insert((NIL, NIL)),
            };
            if ends.0 == NIL {
                ends.0 = id;
            } else {
                next[ends.1 as usize] = id;
            }
            ends.1 = id;
        }
        AtomIndex { rel, keys, next }
    }

    /// The first row matching one partial assignment's shared-variable
    /// values, or [`NIL`]. `key` is scratch space for wide keys.
    fn first_match(
        &self,
        partial: &[Value],
        shared: &[(VarId, usize)],
        key: &mut Vec<Value>,
    ) -> u32 {
        let ends = match &self.keys {
            KeyIndex::All(ends) => Some(ends),
            KeyIndex::One(map) => map.get(&partial[shared[0].0 .0]),
            KeyIndex::Two(map) => map.get(&(partial[shared[0].0 .0], partial[shared[1].0 .0])),
            KeyIndex::Many(map) => {
                key.clear();
                key.extend(shared.iter().map(|&(v, _)| partial[v.0]));
                map.get(key.as_slice())
            }
        };
        ends.map_or(NIL, |ends| ends.0)
    }

    /// Extend each stride-`k` partial assignment in `partials` once per
    /// matching row, in chain order, appending the extended assignments to
    /// `out`.
    fn probe(
        &self,
        partials: &[Value],
        k: usize,
        shared: &[(VarId, usize)],
        new_vars: &[(VarId, usize)],
        out: &mut Vec<Value>,
    ) {
        let mut key = Vec::new();
        for partial in partials.chunks_exact(k) {
            let mut id = self.first_match(partial, shared, &mut key);
            while id != NIL {
                let row = self.rel.row(id as usize);
                let at = out.len();
                out.extend_from_slice(partial);
                for &(v, pos) in new_vars {
                    out[at + v.0] = row[pos];
                }
                id = self.next[id as usize];
            }
        }
    }
}

/// Evaluate the query on the relations `source` lends — a [`Database`], or
/// a simulated server's state.
///
/// The output relation is named after the query and has one column per
/// query variable, ordered by [`VarId`] (i.e. [`Query::var_names`] order).
///
/// # Errors
///
/// Returns an error if a relation is missing or has the wrong arity.
///
/// [`Database`]: crate::Database
pub fn evaluate<S: RelationSource + ?Sized>(q: &Query, source: &S) -> Result<Relation> {
    evaluate_with(q, source, PAR_PROBE_THRESHOLD)
}

/// [`evaluate`] with an explicit parallel-probe threshold (tests force
/// either path).
fn evaluate_with<S: RelationSource + ?Sized>(
    q: &Query,
    source: &S,
    par_threshold: usize,
) -> Result<Relation> {
    validate(source, q)?;
    // Atoms are never empty, so k ≥ 1.
    let k = q.num_vars();
    let order = join_order(q, source);

    // Partial assignments, flat with stride k: one value per variable;
    // `bound[v]` says which entries are meaningful. All partials share the
    // same bound set.
    let mut bound = vec![false; k];
    let mut partials: Vec<Value> = vec![0; k];

    for atom_idx in order {
        let atom = &q.atoms()[atom_idx];
        let rel = require(source, &atom.name)?;

        // Positions of the atom grouped by variable (handles repeated
        // variables within one atom, which arise after contraction).
        let mut var_positions: Vec<(VarId, Vec<usize>)> = Vec::new();
        for (pos, v) in atom.vars.iter().enumerate() {
            match var_positions.iter_mut().find(|(w, _)| w == v) {
                Some((_, ps)) => ps.push(pos),
                None => var_positions.push((*v, vec![pos])),
            }
        }

        let shared: Vec<(VarId, usize)> =
            var_positions.iter().filter(|(v, _)| bound[v.0]).map(|(v, ps)| (*v, ps[0])).collect();
        let new_vars: Vec<(VarId, usize)> =
            var_positions.iter().filter(|(v, _)| !bound[v.0]).map(|(v, ps)| (*v, ps[0])).collect();

        let index = AtomIndex::build(rel, &var_positions, &shared);

        // Probe: order-preserving, so the output stays deterministic
        // whether or not the parallel path runs.
        let count = partials.len() / k;
        partials = if count >= par_threshold {
            let tasks: Vec<Range<usize>> = (0..count)
                .step_by(PAR_PROBE_CHUNK)
                .map(|from| from * k..(from + PAR_PROBE_CHUNK).min(count) * k)
                .collect();
            let chunks: Vec<Vec<Value>> = tasks
                .par_iter()
                .map(|task| {
                    let mut out = Vec::new();
                    index.probe(&partials[task.clone()], k, &shared, &new_vars, &mut out);
                    out
                })
                .collect();
            chunks.concat()
        } else {
            let mut out = Vec::with_capacity(partials.len());
            index.probe(&partials, k, &shared, &new_vars, &mut out);
            out
        };
        for (v, _) in &new_vars {
            bound[v.0] = true;
        }
        if partials.is_empty() {
            break;
        }
    }

    let mut out = Relation::empty(q.name(), k);
    out.append_rows(partials.len() / k, &partials)?;
    out.settle()?;
    Ok(out)
}

/// Choose a join order: start from the smallest relation and repeatedly add
/// an atom sharing a variable with the already-chosen prefix (falling back
/// to the smallest remaining atom when the query is disconnected).
fn join_order<S: RelationSource + ?Sized>(q: &Query, source: &S) -> Vec<usize> {
    let l = q.num_atoms();
    let size_of =
        |i: usize| source.get_relation(&q.atoms()[i].name).map_or(usize::MAX, Relation::len);

    let mut remaining: Vec<usize> = (0..l).collect();
    remaining.sort_by_key(|&i| (size_of(i), i));
    let mut order = Vec::with_capacity(l);
    let mut bound_vars: Vec<bool> = vec![false; q.num_vars()];

    while !remaining.is_empty() {
        // Prefer an atom that shares a bound variable; otherwise take the
        // smallest remaining (start of a new component).
        let pick_pos = remaining
            .iter()
            .position(|&i| q.atoms()[i].vars.iter().any(|v| bound_vars[v.0]))
            .unwrap_or(0);
        let atom = remaining.remove(pick_pos);
        for v in &q.atoms()[atom].vars {
            bound_vars[v.0] = true;
        }
        order.push(atom);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Tuple};
    use mpc_cq::families;

    fn db_with(relations: Vec<(&str, Vec<[Value; 2]>)>) -> Database {
        let mut db = Database::new(10);
        for (name, tuples) in relations {
            db.insert_relation(Relation::from_tuples(name, 2, tuples).unwrap());
        }
        db
    }

    #[test]
    fn two_way_join() {
        let q = families::chain(2); // S1(x0,x1), S2(x1,x2)
        let db = db_with(vec![("S1", vec![[1, 2], [3, 4]]), ("S2", vec![[2, 5], [2, 6], [4, 7]])]);
        let out = evaluate(&q, &db).unwrap();
        // Columns are (x0, x1, x2).
        let expected =
            Relation::from_tuples("L2", 3, vec![[1u64, 2, 5], [1, 2, 6], [3, 4, 7]]).unwrap();
        assert!(out.same_tuples(&expected));
    }

    #[test]
    fn triangle_join() {
        let q = families::cycle(3); // S1(x1,x2), S2(x2,x3), S3(x3,x1)
        let db = db_with(vec![
            ("S1", vec![[1, 2], [4, 5], [7, 8]]),
            ("S2", vec![[2, 3], [5, 6]]),
            ("S3", vec![[3, 1], [6, 9]]),
        ]);
        let out = evaluate(&q, &db).unwrap();
        // Only the triangle 1-2-3 closes.
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from([1, 2, 3])));
    }

    #[test]
    fn empty_relation_gives_empty_output() {
        let q = families::chain(2);
        let mut db = db_with(vec![("S1", vec![[1, 2]])]);
        db.insert_relation(Relation::empty("S2", 2));
        let out = evaluate(&q, &db).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn star_join() {
        let q = families::star(2); // S1(z,x1), S2(z,x2)
        let db =
            db_with(vec![("S1", vec![[1, 10], [2, 20]]), ("S2", vec![[1, 11], [1, 12], [3, 30]])]);
        let out = evaluate(&q, &db).unwrap();
        // z=1 pairs with x1=10 and x2 ∈ {11,12}.
        assert_eq!(out.len(), 2);
        // Column order is (z, x1, x2).
        assert!(out.contains(&Tuple::from([1, 10, 11])));
        assert!(out.contains(&Tuple::from([1, 10, 12])));
    }

    #[test]
    fn disconnected_query_is_cartesian_product() {
        let q = mpc_cq::Query::new("q", vec![("R", vec!["x"]), ("S", vec!["y"])]).unwrap();
        let mut db = Database::new(10);
        db.insert_relation(Relation::from_tuples("R", 1, vec![[1u64], [2]]).unwrap());
        db.insert_relation(Relation::from_tuples("S", 1, vec![[5u64], [6], [7]]).unwrap());
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn repeated_variable_in_atom_filters_diagonal() {
        // q(x) :- R(x,x): only tuples with equal components survive.
        let q = mpc_cq::Query::new("q", vec![("R", vec!["x", "x"])]).unwrap();
        let db = db_with(vec![("R", vec![[1, 1], [1, 2], [3, 3]])]);
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Tuple::from([1])));
        assert!(out.contains(&Tuple::from([3])));
    }

    #[test]
    fn missing_relation_is_error() {
        let q = families::chain(2);
        let db = db_with(vec![("S1", vec![[1, 2]])]);
        assert!(evaluate(&q, &db).is_err());
    }

    #[test]
    fn unary_and_binary_mix() {
        // The JOIN-WITNESS query shape with tiny data.
        let q = families::witness_query();
        let mut db = Database::new(10);
        db.insert_relation(Relation::from_tuples("R", 1, vec![[1u64], [5]]).unwrap());
        db.insert_relation(Relation::from_tuples("S1", 2, vec![[1u64, 2], [5, 6]]).unwrap());
        db.insert_relation(Relation::from_tuples("S2", 2, vec![[2u64, 3], [6, 7]]).unwrap());
        db.insert_relation(Relation::from_tuples("S3", 2, vec![[3u64, 4], [7, 8]]).unwrap());
        db.insert_relation(Relation::from_tuples("T", 1, vec![[4u64]]).unwrap());
        let out = evaluate(&q, &db).unwrap();
        // Only the chain 1→2→3→4 ends in T.
        assert_eq!(out.len(), 1);
        // Columns are (w, x, y, z) in first-occurrence order.
        assert!(out.contains(&Tuple::from([1, 2, 3, 4])));
    }

    #[test]
    fn parallel_probe_path_matches_small_case_semantics() {
        // R(x) × S(y) builds 1600 partials — past PAR_PROBE_THRESHOLD —
        // before T(z) is probed, so the rayon path runs; the result must
        // be the full 40 · 40 · 3 cartesian product, deterministically.
        let q = mpc_cq::Query::new("q", vec![("R", vec!["x"]), ("S", vec!["y"]), ("T", vec!["z"])])
            .unwrap();
        let mut db = Database::new(10_000);
        db.insert_relation(Relation::from_tuples("R", 1, (0..40u64).map(|v| [v])).unwrap());
        db.insert_relation(Relation::from_tuples("S", 1, (100..140u64).map(|v| [v])).unwrap());
        db.insert_relation(Relation::from_tuples("T", 1, (200..203u64).map(|v| [v])).unwrap());
        const { assert!(40 * 40 >= PAR_PROBE_THRESHOLD) };
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 40 * 40 * 3);
        assert!(out.contains(&Tuple::from([0, 100, 200])));
        assert!(out.contains(&Tuple::from([39, 139, 202])));
    }

    /// The reference evaluator: nested loops over the atoms in query
    /// order, one assignment at a time, no index and no reordering.
    fn nested_loop(q: &Query, db: &Database) -> std::collections::BTreeSet<Vec<Value>> {
        fn extend(
            q: &Query,
            db: &Database,
            atom: usize,
            assignment: &mut Vec<Option<Value>>,
            out: &mut std::collections::BTreeSet<Vec<Value>>,
        ) {
            let Some(a) = q.atoms().get(atom) else {
                out.insert(assignment.iter().map(|v| v.expect("full query binds all")).collect());
                return;
            };
            for row in db.relation(&a.name).unwrap().iter() {
                let before = assignment.clone();
                let consistent = a
                    .vars
                    .iter()
                    .zip(row)
                    .all(|(v, &value)| *assignment[v.0].get_or_insert(value) == value);
                if consistent {
                    extend(q, db, atom + 1, assignment, out);
                }
                *assignment = before;
            }
        }
        let mut out = std::collections::BTreeSet::new();
        extend(q, db, 0, &mut vec![None; q.num_vars()], &mut out);
        out
    }

    #[test]
    fn matches_a_nested_loop_evaluator_on_random_databases() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // (atoms with their row counts, value domain). Together: one, two,
        // three and four shared positions; variables repeated inside an
        // atom; disconnected components.
        type Shape = (Vec<(&'static str, Vec<&'static str>, usize)>, u64);
        let shapes: Vec<Shape> = vec![
            (
                vec![
                    ("A", vec!["x", "y"], 30),
                    ("B", vec!["y", "z"], 30),
                    ("C", vec!["z", "w"], 30),
                ],
                6,
            ),
            (
                vec![
                    ("A", vec!["x", "y"], 25),
                    ("B", vec!["y", "z"], 25),
                    ("C", vec!["z", "x"], 25),
                ],
                5,
            ),
            (vec![("A", vec!["x", "y"], 25), ("B", vec!["y", "x"], 25)], 5),
            (vec![("A", vec!["x", "y", "z"], 60), ("B", vec!["z", "y", "x", "w"], 60)], 3),
            (vec![("A", vec!["a", "b", "c", "d"], 16), ("B", vec!["d", "c", "b", "a"], 16)], 2),
            (
                vec![
                    ("A", vec!["x", "x"], 40),
                    ("B", vec!["x", "y", "x"], 40),
                    ("C", vec!["y", "y"], 9),
                ],
                4,
            ),
            (vec![("A", vec!["x", "y"], 12), ("B", vec!["z"], 5), ("C", vec!["w", "z"], 12)], 5),
            // Wide: A × B × C puts |A|·|B|·|C| partial assignments — past
            // PAR_PROBE_THRESHOLD, many PAR_PROBE_CHUNKs — into the keyed
            // probe of D.
            (
                vec![
                    ("A", vec!["x"], 35),
                    ("B", vec!["y"], 35),
                    ("C", vec!["z", "v"], 6),
                    ("D", vec!["v", "w"], 45),
                ],
                50,
            ),
        ];
        for (case, (atoms, domain)) in shapes.into_iter().enumerate() {
            let sizes: Vec<usize> = atoms.iter().map(|a| a.2).collect();
            let q = Query::new("q", atoms.into_iter().map(|(name, vars, _)| (name, vars))).unwrap();
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed * 101 + case as u64);
                let mut db = Database::new(domain);
                for (i, atom) in q.atoms().iter().enumerate() {
                    // Seed 4 empties the first relation, seed 5 leaves the
                    // last one a single row.
                    let rows = match (seed, i) {
                        (4, 0) => 0,
                        (5, i) if i + 1 == sizes.len() => 1,
                        _ => sizes[i],
                    };
                    let mut rel = Relation::empty(&atom.name, atom.arity());
                    for _ in 0..rows {
                        let row: Vec<Value> =
                            (0..atom.arity()).map(|_| rng.gen_range(1..=domain)).collect();
                        rel.insert_row(&row).unwrap();
                    }
                    db.insert_relation(rel);
                }
                if sizes.len() == 4 && seed < 4 {
                    let in_flight: usize =
                        ["A", "B", "C"].iter().map(|r| db.relation(r).unwrap().len()).product();
                    assert!(
                        in_flight >= 2 * PAR_PROBE_CHUNK.max(PAR_PROBE_THRESHOLD),
                        "{in_flight}"
                    );
                }
                let sequential = evaluate_with(&q, &db, usize::MAX).unwrap();
                let parallel = evaluate_with(&q, &db, 1).unwrap();
                assert_eq!(sequential, parallel, "{q} seed {seed}: same rows, same order");
                assert_eq!(sequential, evaluate(&q, &db).unwrap());
                let expected = nested_loop(&q, &db);
                assert_eq!(sequential.len(), expected.len(), "{q} seed {seed}");
                assert!(expected.iter().all(|row| sequential.contains(row)), "{q} seed {seed}");
                assert!(seed != 4 || sequential.is_empty(), "an empty relation empties the join");
            }
        }
    }

    #[test]
    fn join_order_prefers_connected_atoms() {
        let q = families::chain(3);
        let db = db_with(vec![
            ("S1", vec![[1, 2], [9, 9]]),
            ("S2", vec![[2, 3]]),
            ("S3", vec![[3, 4], [8, 8], [7, 7]]),
        ]);
        let order = join_order(&q, &db);
        assert_eq!(order.len(), 3);
        // S2 is smallest, so it comes first; the rest must stay connected.
        assert_eq!(order[0], 1);
    }
}
