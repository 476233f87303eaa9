//! The [`MpcProgram`] trait: how algorithms are expressed against the
//! simulator.
//!
//! The execution model mirrors Sections 2.1, 2.4 and 4.1 of the paper:
//!
//! 1. **Round 1** — every input relation lives on its own *input server*,
//!    which sends each of its tuples to a set of workers
//!    ([`MpcProgram::route_input_into`]). This round is unrestricted in the
//!    model; the programs in this repository route by hashing.
//! 2. After every round's delivery, each worker runs unbounded local
//!    computation ([`MpcProgram::compute`]), deriving new local relations
//!    (join tuples) at no communication cost.
//! 3. **Rounds ≥ 2** — each worker sends *join tuples* it knows to other
//!    workers ([`MpcProgram::route_tuples_into`]). The tuple-based MPC model
//!    requires the destinations to depend only on the tuple itself (its
//!    tag and values), the round and the sending server — never on other
//!    data the server holds. Implementations must respect this; the
//!    canonical way is to route through a pure function
//!    `(tag, tuple, round) → destinations`.
//! 4. After the final round each worker reports its share of the output
//!    ([`MpcProgram::output`]); the cluster unions the shares.
//!
//! **Routing is push-style.** A program hands each row, borrowed, to the
//! [`RouteSink`] the executor passes in — `sink.emit(tag, row, dests)` —
//! and the sink copies it straight to where it is going: into the
//! receiving server's state on the reference loop, into the block bound
//! for each destination on every other backend. No routed row is
//! materialised in between.

use mpc_storage::{Relation, Tuple, Value};

use crate::error::SimError;
use crate::message::Routed;
use crate::server::ServerState;
use crate::Result;

/// Where a program's routed rows go: one call per row, with the tag it
/// travels under and every server that receives a copy (indices in
/// `0..p`; an empty list drops the row). The row and the destinations are
/// borrowed, so a program routes a whole relation out of one scratch
/// vector.
pub trait RouteSink {
    /// Send `row` under `tag` to every server in `dests`.
    ///
    /// # Errors
    ///
    /// A destination `≥ p` is a [`SimError::Program`]; a sink that
    /// delivers may also fail with what delivery fails with (a second
    /// arity under one tag). Programs pass the error on.
    fn emit(&mut self, tag: &str, row: &[Value], dests: &[usize]) -> Result<()>;
}

/// The error for a destination outside `0..p` — the check every
/// delivering sink makes.
pub(crate) fn out_of_range(dest: usize, p: usize) -> SimError {
    SimError::Program(format!("destination {dest} out of range for p = {p}"))
}

/// An algorithm in the (tuple-based) MPC model.
///
/// Implementations must be `Sync` because per-server calls are executed in
/// parallel across simulated servers.
pub trait MpcProgram: Sync {
    /// Total number of communication rounds.
    fn num_rounds(&self) -> usize;

    /// Round-1 routing performed by the input server that stores
    /// `relation`: emit each tuple into `sink` with the workers that
    /// receive it.
    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> Result<()>;

    /// Local computation at the end of round `round` (1-based) on worker
    /// `server`. Returns relations derived locally (added to the server's
    /// knowledge at no communication cost). The default implementation
    /// derives nothing — what every one-round program wants.
    fn compute(&self, round: usize, server: usize, state: &ServerState) -> Result<Vec<Relation>> {
        let _ = (round, server, state);
        Ok(Vec::new())
    }

    /// Routing performed by worker `server` at the beginning of round
    /// `round ≥ 2`: emit into `sink` the join tuples to send, with their
    /// destinations. `state` is the server's state before any of the
    /// round's deliveries.
    ///
    /// Tuple-based restriction: destinations may depend only on the tag,
    /// the tuple values, the round and the sender — not on anything else in
    /// `state`. The default implementation sends nothing.
    fn route_tuples_into(
        &self,
        round: usize,
        server: usize,
        state: &ServerState,
        sink: &mut dyn RouteSink,
    ) -> Result<()> {
        let _ = (round, server, state, sink);
        Ok(())
    }

    /// The output tuples this worker reports after the final round.
    fn output(&self, server: usize, state: &ServerState) -> Result<Relation>;

    /// Servers whose **final-round inbound** may be relocated wholesale to
    /// another server by the adaptive runtime ([`crate::reroute`]) — the
    /// program's declaration of which work units are *movable*.
    ///
    /// A server `s` may appear here only when its final-round traffic is
    /// consumed exclusively by [`MpcProgram::output`], and that output is a
    /// pure function of the tuples routed at `s` (no reliance on earlier
    /// rounds' state at `s`). The reroute host then re-tags `s`-bound
    /// final-round tuples, delivers them to a replacement server, and
    /// evaluates `output(s, ·)` there over the re-tagged state — so the
    /// union of outputs is invariant under any relocation.
    ///
    /// The default declares nothing movable: rerouting degenerates to the
    /// static schedule for programs that do not opt in.
    fn reroutable_cells(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Name of the output relation (used for the unioned result).
    fn output_name(&self) -> String {
        "output".to_string()
    }

    /// Arity of the output relation.
    fn output_arity(&self) -> usize;
}

/// Routing collected into owned [`Routed`] messages — for callers that
/// inspect what a program sends rather than execute it. These are inherent
/// methods of the trait object, so no program can override them and be
/// bypassed by the executors, which only ever call the `_into` forms.
impl dyn MpcProgram + '_ {
    /// [`MpcProgram::route_input_into`], collected.
    ///
    /// # Errors
    ///
    /// The program's routing errors.
    pub fn route_input(&self, relation: &Relation, p: usize) -> Result<Vec<Routed>> {
        let mut out = Vec::new();
        self.route_input_into(relation, p, &mut out)?;
        Ok(out)
    }

    /// [`MpcProgram::route_tuples_into`], collected.
    ///
    /// # Errors
    ///
    /// The program's routing errors.
    pub fn route_tuples(
        &self,
        round: usize,
        server: usize,
        state: &ServerState,
    ) -> Result<Vec<Routed>> {
        let mut out = Vec::new();
        self.route_tuples_into(round, server, state, &mut out)?;
        Ok(out)
    }
}

/// The collecting sink behind the `dyn MpcProgram` collectors: one owned
/// [`Routed`] per emitted row, destinations unchecked.
impl RouteSink for Vec<Routed> {
    fn emit(&mut self, tag: &str, row: &[Value], dests: &[usize]) -> Result<()> {
        self.push(Routed::new(tag, Tuple::new(row), dests.to_vec()));
        Ok(())
    }
}

/// A helper for hash-based routing: a deterministic hash of a tuple
/// restricted to selected positions, mapped into `0..buckets`.
///
/// This is the "random hash function" `h_i : [n] → [p_i]` of the HyperCube
/// algorithm; a seeded multiply-xor-shift hash is used so runs are
/// reproducible.
pub fn hash_to_bucket(seed: u64, values: &[u64], buckets: usize) -> usize {
    debug_assert!(buckets > 0);
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &v in values {
        h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(31).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    // Final avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h % buckets as u64) as usize
}

/// Convenience: hash a single value.
pub fn hash_value(seed: u64, value: u64, buckets: usize) -> usize {
    hash_to_bucket(seed, &[value], buckets)
}

/// A trivial broadcast program: send every relation to every worker, run a
/// user-provided local evaluation on worker 0's knowledge. Used as the
/// naive baseline and for testing the cluster mechanics.
#[derive(Debug, Clone)]
pub struct BroadcastProgram {
    query: mpc_cq::Query,
}

impl BroadcastProgram {
    /// Broadcast-and-evaluate for the given query.
    pub fn new(query: mpc_cq::Query) -> Self {
        BroadcastProgram { query }
    }
}

impl MpcProgram for BroadcastProgram {
    fn num_rounds(&self) -> usize {
        1
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> Result<()> {
        let everyone: Vec<usize> = (0..p).collect();
        relation.iter().try_for_each(|t| sink.emit(relation.name(), t, &everyone))
    }

    fn output(&self, server: usize, state: &ServerState) -> Result<Relation> {
        // Every server has the whole input; only server 0 reports to avoid
        // duplicating work in the union.
        if server != 0 {
            return Ok(Relation::empty(self.output_name(), self.output_arity()));
        }
        Ok(mpc_storage::join::evaluate(&self.query, state)?)
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

    #[test]
    fn hashing_is_deterministic_and_in_range() {
        for buckets in [1usize, 2, 7, 64] {
            for v in 0..200u64 {
                let b1 = hash_value(42, v, buckets);
                let b2 = hash_value(42, v, buckets);
                assert_eq!(b1, b2);
                assert!(b1 < buckets);
            }
        }
    }

    #[test]
    fn hashing_depends_on_seed() {
        let a: Vec<usize> = (0..100).map(|v| hash_value(1, v, 16)).collect();
        let b: Vec<usize> = (0..100).map(|v| hash_value(2, v, 16)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn hashing_is_roughly_uniform() {
        let buckets = 8usize;
        let mut counts = vec![0usize; buckets];
        for v in 0..8000u64 {
            counts[hash_value(7, v, buckets)] += 1;
        }
        let expected = 1000.0;
        for c in counts {
            assert!((c as f64 - expected).abs() < 250.0, "bucket count {c} far from {expected}");
        }
    }

    #[test]
    fn broadcast_targets_every_server() {
        let rel = Relation::from_tuples("S", 1, vec![[7u64], [9]]).unwrap();
        let program: &dyn MpcProgram = &BroadcastProgram::new(mpc_cq::families::chain(2));
        let routed = program.route_input(&rel, 5).unwrap();
        assert_eq!(routed.len(), 2);
        assert!(routed.iter().all(|r| r.destinations == [0, 1, 2, 3, 4] && r.tag == "S"));
        assert_eq!(routed[1].tuple.values(), &[9]);
    }

    #[test]
    fn emit_copies_tag_row_and_destinations() {
        let rel = Relation::from_tuples("R", 2, vec![[1u64, 2], [3, 4]]).unwrap();
        let mut routed: Vec<Routed> = Vec::new();
        for t in rel.iter() {
            routed.emit(rel.name(), t, &[t[0] as usize % 2]).unwrap();
        }
        assert_eq!(routed.len(), 2);
        assert_eq!(routed[0].destinations, vec![1]);
        assert_eq!(routed[1].destinations, vec![1]);
        assert_eq!(routed[0].tag, "R");
        assert_eq!(routed[1].tuple.values(), &[3, 4]);
    }
}
