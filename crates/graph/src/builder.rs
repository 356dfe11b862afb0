//! Edge-list ingestion.
//!
//! Applies the paper's preprocessing (§II-D): directed edges are converted to
//! undirected, self-loops are ignored, duplicates are merged. The edge list
//! is normalized to `(min, max)` on push, then sorted (in parallel) and
//! deduplicated at build time; edge `e` of the sorted list gets id `e`.
//!
//! Both CSR directions come from one sequential counting scatter that walks
//! the sorted list in order, and no row is sorted afterwards. Row `w`
//! receives neighbour `x` from every edge `(x, w)` with `x < w`, and
//! neighbour `y` from every edge `(w, y)` with `w < y`. In the sorted list
//! all edges `(x, w)` come before all edges `(w, y)`, because their first
//! component is smaller; within each group the other endpoint ascends. So
//! row `w` is its lower neighbours ascending, then its upper neighbours
//! ascending: sorted, duplicate-free, and with edge ids aligned. A
//! deduplicated CSR with sorted rows is unique, so this is the same graph
//! any other correct construction produces.

use crate::csr::{Graph, VertexId};
use rayon::prelude::*;

/// Accumulates edges and produces a [`Graph`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<[VertexId; 2]>,
}

impl GraphBuilder {
    /// Builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Add one edge; direction and duplicates are irrelevant, self-loops are
    /// dropped at build time.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.push(u, v);
        self
    }

    /// Add many edges.
    pub fn edges<I>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in it {
            self.push(u, v);
        }
        self
    }

    /// Add one edge in place (non-consuming form for loops).
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        self.edges.push([u.min(v), u.max(v)]);
    }

    /// Reserve capacity for `extra` more edges.
    pub fn reserve(&mut self, extra: usize) {
        self.edges.reserve(extra);
    }

    /// Grow the declared vertex count to at least `n` (never shrinks).
    /// Streaming readers that discover the id range as they parse call
    /// this per chunk instead of pre-declaring a size.
    pub fn ensure_vertices(&mut self, n: usize) {
        assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
        self.n = self.n.max(n);
    }

    /// Current declared vertex count.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn raw_len(&self) -> usize {
        self.edges.len()
    }

    /// Finalize into an immutable CSR graph.
    pub fn build(self) -> Graph {
        let t = std::time::Instant::now();
        let Self { n, mut edges } = self;
        // Normalize happened on push; drop self-loops, sort, dedup.
        edges.retain(|&[u, v]| u != v);
        // Edge lists written by `io::write_edge_list` arrive sorted; the
        // check is one pass, the parallel sort two scratch copies.
        if !edges.is_sorted() {
            edges.par_sort_unstable();
        }
        edges.dedup();
        let m = edges.len();
        assert!(m < u32::MAX as usize, "edge ids must fit in u32");

        // Degree count over both arc directions, then an in-place scan:
        // `offsets[v]` becomes the start of row `v`.
        let mut offsets = vec![0usize; n + 1];
        for &[u, v] in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        debug_assert_eq!(offsets[n], 2 * m);

        // Scatter arcs in sorted-edge order; rows come out sorted (module
        // doc). `offsets[v]` serves as row `v`'s cursor and ends at the
        // start of row `v + 1`, so one shift restores the row starts.
        let mut neighbors = vec![0u32; 2 * m];
        let mut edge_ids = vec![0u32; 2 * m];
        for (e, &[u, v]) in edges.iter().enumerate() {
            for (a, b) in [(u, v), (v, u)] {
                let slot = &mut offsets[a as usize];
                neighbors[*slot] = b;
                edge_ids[*slot] = e as u32;
                *slot += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;

        let g = Graph::from_parts(offsets, neighbors, edge_ids, edges);
        debug_assert!(g.validate().is_ok());
        sb_metrics::global()
            .histogram("sb_graph_build_ms", sb_metrics::Class::Runtime)
            .observe(crate::io::round_ms(t.elapsed()));
        g
    }
}

/// Build a graph directly from an edge slice.
pub fn from_edge_list(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
    GraphBuilder::new(n).edges(edges.iter().copied()).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The CSR the preprocessing defines, built the obvious way: the edge
    /// set with loops dropped and both orientations merged, numbered in
    /// sorted order, and each row read off a `BTreeMap`.
    fn naive_csr(n: usize, raw: &[(u32, u32)]) -> Graph {
        let edges: Vec<[u32; 2]> = raw
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| [u.min(v), u.max(v)])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut rows = vec![BTreeMap::new(); n];
        for (e, &[u, v]) in edges.iter().enumerate() {
            rows[u as usize].insert(v, e as u32);
            rows[v as usize].insert(u, e as u32);
        }
        let mut offsets = vec![0usize];
        let (mut neighbors, mut edge_ids) = (Vec::new(), Vec::new());
        for row in &rows {
            neighbors.extend(row.keys().copied());
            edge_ids.extend(row.values().copied());
            offsets.push(neighbors.len());
        }
        Graph::from_parts(offsets, neighbors, edge_ids, edges)
    }

    /// Random edge lists on up to 40 vertices: isolated vertices, loops and
    /// duplicates in both orientations come up often at this density; half
    /// the cases also add a star on a random hub.
    fn arb_input() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
        (1usize..40).prop_flat_map(|n| {
            let n32 = n as u32;
            (
                proptest::collection::vec((0..n32, 0..n32), 0..120),
                0..n32,
                0usize..2,
            )
                .prop_map(move |(mut raw, hub, star)| {
                    if star == 1 {
                        raw.extend((0..n32).map(|v| (hub, v)));
                        raw.extend((0..n32).rev().map(|v| (v, hub)));
                    }
                    (n, raw)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn build_matches_naive_btreeset_csr(input in arb_input()) {
            let (n, raw) = input;
            let g = GraphBuilder::new(n).edges(raw.iter().copied()).build();
            g.validate().map_err(TestCaseError::fail)?;
            let want = naive_csr(n, &raw);
            prop_assert_eq!(&g.offsets[..], &want.offsets[..]);
            prop_assert_eq!(&g.neighbors[..], &want.neighbors[..]);
            prop_assert_eq!(&g.edge_ids[..], &want.edge_ids[..]);
            prop_assert_eq!(&g.edges[..], &want.edges[..]);
        }
    }

    #[test]
    fn dedup_selfloop_symmetrize() {
        // (2,1) duplicates (1,2); (3,3) is a self-loop.
        let g = GraphBuilder::new(4)
            .edges([(1, 2), (2, 1), (3, 3), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        g.validate().unwrap();
    }

    #[test]
    fn rows_sorted_with_aligned_edge_ids() {
        let g = GraphBuilder::new(6)
            .edges([(5, 0), (0, 3), (0, 1), (4, 0), (0, 2)])
            .build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        for (w, e) in g.arcs(0) {
            assert_eq!(g.edge(e), (0, w));
        }
        g.validate().unwrap();
    }

    #[test]
    fn star_and_path_shapes() {
        let star = from_edge_list(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(star.degree(0), 4);
        assert_eq!(star.max_degree(), 4);
        let path = from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(path.degree(0), 1);
        assert_eq!(path.degree(1), 2);
        path.validate().unwrap();
    }

    #[test]
    fn larger_random_graph_validates() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 2000usize;
        let mut b = GraphBuilder::new(n);
        for _ in 0..10_000 {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            b.push(u, v);
        }
        let g = b.build();
        g.validate().unwrap();
        // Handshake identity.
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(degsum, 2 * g.num_edges());
    }

    #[test]
    fn edge_ids_are_dense_and_consistent() {
        let g = from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut seen = vec![false; g.num_edges()];
        for v in g.vertices() {
            for (_, e) in g.arcs(v) {
                seen[e as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
