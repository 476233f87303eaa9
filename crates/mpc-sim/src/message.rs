//! A routed tuple as an owned value.
//!
//! Executors never build one: programs push rows into a
//! [`crate::program::RouteSink`]. A [`Routed`] is what the collecting
//! `route_input` / `route_tuples` of `dyn MpcProgram` return, for callers
//! that inspect routing rather than execute it.

use serde::Serialize;

use mpc_storage::Tuple;

/// A routed tuple: one tuple, tagged with the (base or intermediate)
/// relation it belongs to, together with the set of destination servers.
///
/// Round 1 messages carry base tuples from the input servers (Section 2.4);
/// rounds ≥ 2 of the tuple-based model carry *join tuples* — tuples of a
/// connected subquery of the query being computed — and their destinations
/// may depend only on the tag, the tuple and the round (Section 4.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Routed {
    /// Name of the (base or intermediate) relation this tuple belongs to.
    pub tag: String,
    /// The tuple payload.
    pub tuple: Tuple,
    /// Destination servers (indices in `0..p`). Duplicates are allowed but
    /// pointless; an empty list drops the tuple.
    pub destinations: Vec<usize>,
}

impl Routed {
    /// Create a routed tuple.
    pub fn new<S: Into<String>>(tag: S, tuple: Tuple, destinations: Vec<usize>) -> Self {
        Routed { tag: tag.into(), tuple, destinations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accounting() {
        let r = Routed::new("S1", Tuple::from([1, 2, 3]), vec![0, 4]);
        assert_eq!(r.tag, "S1");
        assert_eq!(r.destinations, [0, 4]);
    }
}
