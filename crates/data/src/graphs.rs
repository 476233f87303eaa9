//! Graph inputs for the connected-components application (Theorem 4.10).
//!
//! The lower-bound construction of Theorem 4.10 partitions the `n` vertices
//! into `k + 1` layers `P1, …, P_{k+1}` of equal size and places a perfect
//! matching (permutation) between each pair of adjacent layers. Each
//! connected component is then a path visiting every layer once, and the
//! components of the graph are in bijection with the answers of the chain
//! query `L_k` over the layer-to-layer permutations.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use mpc_cq::{families, Query};
use mpc_storage::{Database, Relation};

/// The layered path graph family of Theorem 4.10.
#[derive(Debug, Clone)]
pub struct LayeredGraph {
    /// Number of edge layers `k` (so there are `k + 1` vertex layers).
    pub num_edge_layers: usize,
    /// Vertices per layer.
    pub layer_size: u64,
    /// Edges as (global vertex id, global vertex id) with ids in
    /// `1 ..= (k+1) · layer_size`; layer `i` holds ids
    /// `(i−1)·layer_size + 1 ..= i·layer_size`.
    pub edges: Vec<(u64, u64)>,
    /// The permutations between adjacent layers, in *local* coordinates
    /// `1..=layer_size` (entry `j` of `permutations[i]` is the local target
    /// in layer `i+2` of local vertex `j+1` in layer `i+1`).
    pub permutations: Vec<Vec<u64>>,
}

impl LayeredGraph {
    /// Generate a layered path graph with `num_edge_layers` layers of edges
    /// (i.e. `num_edge_layers + 1` layers of vertices), each layer holding
    /// `layer_size` vertices, with independent uniformly random matchings
    /// between adjacent layers.
    pub fn generate(num_edge_layers: usize, layer_size: u64, seed: u64) -> Self {
        assert!(num_edge_layers >= 1);
        assert!(layer_size >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut permutations = Vec::with_capacity(num_edge_layers);
        let mut edges = Vec::new();
        for layer in 0..num_edge_layers {
            let mut perm: Vec<u64> = (1..=layer_size).collect();
            perm.shuffle(&mut rng);
            for (src_local, &dst_local) in perm.iter().enumerate() {
                let src = layer as u64 * layer_size + (src_local as u64 + 1);
                let dst = (layer as u64 + 1) * layer_size + dst_local;
                edges.push((src, dst));
            }
            permutations.push(perm);
        }
        LayeredGraph { num_edge_layers, layer_size, edges, permutations }
    }

    /// Total number of vertices.
    pub fn num_vertices(&self) -> u64 {
        (self.num_edge_layers as u64 + 1) * self.layer_size
    }

    /// Total number of edges (`< num_vertices`, the graph is sparse).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of connected components (one path per first-layer vertex).
    pub fn num_components(&self) -> u64 {
        self.layer_size
    }

    /// The undirected edge relation `E(x, y)` with both orientations, as
    /// used by the connected-components programs.
    pub fn edge_relation(&self, name: &str) -> Relation {
        let mut rel = Relation::empty(name, 2);
        for &(u, v) in &self.edges {
            rel.insert_row(&[u, v]).expect("arity 2 by construction");
            rel.insert_row(&[v, u]).expect("arity 2 by construction");
        }
        rel
    }

    /// The chain query `L_k` and database whose answers are exactly the
    /// connected components of this graph: relation `Sj` holds the edges
    /// between vertex layers `j` and `j+1` (in global vertex ids).
    pub fn to_chain_database(&self) -> (Query, Database) {
        let q = families::chain(self.num_edge_layers);
        let mut db = Database::new(self.num_vertices());
        for (layer, perm) in self.permutations.iter().enumerate() {
            let mut rel = Relation::empty(format!("S{}", layer + 1), 2);
            for (src_local, &dst_local) in perm.iter().enumerate() {
                let src = layer as u64 * self.layer_size + (src_local as u64 + 1);
                let dst = (layer as u64 + 1) * self.layer_size + dst_local;
                rel.insert_row(&[src, dst]).expect("arity 2 by construction");
            }
            db.insert_relation(rel);
        }
        (q, db)
    }

    /// Ground-truth component labels: each vertex is mapped to the smallest
    /// vertex id of its component.
    pub fn ground_truth_labels(&self) -> BTreeMap<u64, u64> {
        // Follow each path from its first-layer vertex.
        let mut labels = BTreeMap::new();
        for start_local in 1..=self.layer_size {
            let label = start_local; // first-layer ids are 1..=layer_size, the smallest on the path
            let mut current_local = start_local;
            labels.insert(current_local, label);
            for (layer, perm) in self.permutations.iter().enumerate() {
                let next_local = perm[(current_local - 1) as usize];
                let next_global = (layer as u64 + 1) * self.layer_size + next_local;
                labels.insert(next_global, label);
                current_local = next_local;
            }
        }
        labels
    }
}

/// A random sparse undirected graph with `num_vertices` vertices and
/// (up to) `num_edges` distinct edges, returned as an `E(x,y)` relation
/// containing both orientations.
pub fn random_sparse_graph(num_vertices: u64, num_edges: usize, seed: u64, name: &str) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::empty(name, 2);
    let mut inserted = 0usize;
    let mut attempts = 0usize;
    while inserted < num_edges && attempts < num_edges * 20 {
        attempts += 1;
        let u = rng.gen_range(1..=num_vertices);
        let v = rng.gen_range(1..=num_vertices);
        if u == v {
            continue;
        }
        if rel.insert_row(&[u, v]).expect("arity 2") {
            rel.insert_row(&[v, u]).expect("arity 2");
            inserted += 1;
        }
    }
    rel
}

/// A dense random graph: every vertex gets `avg_degree` random neighbours
/// (with both edge orientations stored). Used for the contrast experiment:
/// dense graphs admit O(1)-round connected components (Karloff et al.,
/// discussed in Section 1 of the paper).
pub fn dense_graph(num_vertices: u64, avg_degree: usize, seed: u64, name: &str) -> Relation {
    random_sparse_graph(num_vertices, (num_vertices as usize) * avg_degree / 2, seed, name)
}

/// Sequential union-find connected components of an edge relation; returns
/// the number of components among vertices `1..=num_vertices` and the label
/// (smallest member) of each vertex. The reference answer for the MPC
/// programs.
pub fn sequential_components(edges: &Relation, num_vertices: u64) -> (u64, BTreeMap<u64, u64>) {
    let mut parent: Vec<u64> = (0..=num_vertices).collect();
    fn find(parent: &mut [u64], mut x: u64) -> u64 {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    }
    for t in edges.iter() {
        let (u, v) = (t[0], t[1]);
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            parent[hi as usize] = lo;
        }
    }
    let mut labels = BTreeMap::new();
    let mut roots = std::collections::BTreeSet::new();
    for v in 1..=num_vertices {
        let r = find(&mut parent, v);
        labels.insert(v, r);
        roots.insert(r);
    }
    (roots.len() as u64, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_storage::join::evaluate;

    #[test]
    fn layered_graph_shape() {
        let g = LayeredGraph::generate(4, 10, 3);
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 40);
        assert_eq!(g.num_components(), 10);
        let edges = g.edge_relation("E");
        assert_eq!(edges.len(), 80); // both orientations
    }

    #[test]
    fn layered_graph_components_match_chain_answers() {
        let g = LayeredGraph::generate(3, 8, 5);
        let (q, db) = g.to_chain_database();
        let answers = evaluate(&q, &db).unwrap();
        // One Lk answer per component.
        assert_eq!(answers.len() as u64, g.num_components());
    }

    #[test]
    fn ground_truth_labels_cover_all_vertices() {
        let g = LayeredGraph::generate(3, 6, 1);
        let labels = g.ground_truth_labels();
        assert_eq!(labels.len() as u64, g.num_vertices());
        // Labels are first-layer ids.
        assert!(labels.values().all(|&l| (1..=6).contains(&l)));
        // Exactly 6 distinct labels.
        let distinct: std::collections::BTreeSet<_> = labels.values().collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn ground_truth_agrees_with_sequential_union_find() {
        let g = LayeredGraph::generate(5, 7, 9);
        let edges = g.edge_relation("E");
        let (count, labels) = sequential_components(&edges, g.num_vertices());
        assert_eq!(count, g.num_components());
        let gt = g.ground_truth_labels();
        // Same partition: two vertices share a UF label iff they share a GT label.
        for (v, l) in &gt {
            for (w, m) in &gt {
                assert_eq!(l == m, labels[v] == labels[w]);
            }
        }
    }

    #[test]
    fn sparse_graph_generation() {
        let rel = random_sparse_graph(100, 150, 2, "E");
        assert!(rel.len() <= 300);
        assert!(rel.len() >= 280, "should find most of the requested edges");
        // No self loops.
        assert!(rel.iter().all(|t| t[0] != t[1]));
    }

    #[test]
    fn dense_graph_has_requested_density() {
        let rel = dense_graph(200, 10, 4, "E");
        // ~200·10/2 distinct edges, stored in both directions.
        assert!(rel.len() > 1500);
    }

    #[test]
    fn sequential_components_on_simple_graph() {
        // Two triangles and an isolated vertex.
        let rel =
            Relation::from_tuples("E", 2, vec![[1u64, 2], [2, 3], [3, 1], [4, 5], [5, 6], [6, 4]])
                .unwrap();
        let (count, labels) = sequential_components(&rel, 7);
        assert_eq!(count, 3);
        assert_eq!(labels[&1], labels[&3]);
        assert_eq!(labels[&4], labels[&6]);
        assert_ne!(labels[&1], labels[&4]);
        assert_eq!(labels[&7], 7);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = LayeredGraph::generate(4, 16, 10);
        let b = LayeredGraph::generate(4, 16, 10);
        assert_eq!(a.edges, b.edges);
    }
}
