//! Property-based tests (proptest) over arbitrary graphs: the invariants
//! every solver and decomposition must hold regardless of input shape.

use proptest::prelude::*;
use symmetry_breaking::prelude::*;

/// Strategy: an arbitrary undirected graph with up to `nmax` vertices and
/// `mmax` raw edges (dedup may shrink).
fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = Graph> {
    (2..nmax).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..mmax)
            .prop_map(move |edges| from_edge_list(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_handshake_and_validation(g in arb_graph(120, 400)) {
        g.validate().unwrap();
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    #[test]
    fn bridges_agree_with_sequential_reference(g in arb_graph(80, 160)) {
        let fast = symmetry_breaking::decompose::bridge::find_bridges(&g, &Counters::new());
        let slow = symmetry_breaking::decompose::bridge::bridges_sequential(&g);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn bridge_removal_increases_components_per_bridge(g in arb_graph(60, 120)) {
        // Removing all bridges adds exactly one component per bridge.
        use symmetry_breaking::graph::components::components_sequential;
        let d = decompose_bridge(&g, &Counters::new());
        let before = components_sequential(&g, None).count;
        let after = components_sequential(&g, Some(&|e: u32| !d.is_bridge(e))).count;
        prop_assert_eq!(after, before + d.bridges.len());
    }

    #[test]
    fn rand_partition_laws(g in arb_graph(100, 300), k in 1usize..8, seed in 0u64..50) {
        let d = decompose_rand(&g, k, seed, &Counters::new());
        prop_assert_eq!(d.part.len(), g.num_vertices());
        prop_assert!(d.part.iter().all(|&p| (p as usize) < k));
        prop_assert_eq!(d.m_induced + d.m_cross, g.num_edges());
        for &[u, v] in d.cross_graph(&g).edge_list() {
            prop_assert_ne!(d.part[u as usize], d.part[v as usize]);
        }
    }

    #[test]
    fn degk_partition_laws(g in arb_graph(100, 300), k in 0usize..6) {
        let d = decompose_degk(&g, k, &Counters::new());
        prop_assert_eq!(d.m_high + d.m_low + d.m_cross, g.num_edges());
        prop_assert!(d.low_graph(&g).max_degree() <= k);
        for v in g.vertices() {
            prop_assert_eq!(d.is_high[v as usize], g.degree(v) > k);
        }
    }

    #[test]
    fn matchings_always_maximal(g in arb_graph(90, 250), seed in 0u64..20) {
        for algo in [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand { partitions: 3 },
            Algo::Degk { k: 2 },
        ] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                let run = maximal_matching_opts(&g, algo, arch, seed, &SolveOpts::default());
                check_maximal_matching(&g, &run.mate)
                    .map_err(|e| TestCaseError::fail(format!("{algo:?} {arch}: {e}")))?;
            }
        }
    }

    #[test]
    fn colorings_always_proper(g in arb_graph(90, 250), seed in 0u64..20) {
        for algo in [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand { partitions: 3 },
            Algo::Degk { k: 2 },
        ] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                let run = vertex_coloring_opts(&g, algo, arch, seed, &SolveOpts::default());
                check_coloring(&g, &run.color)
                    .map_err(|e| TestCaseError::fail(format!("{algo:?} {arch}: {e}")))?;
            }
        }
    }

    #[test]
    fn mis_always_maximal_independent(g in arb_graph(90, 250), seed in 0u64..20) {
        for algo in [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand { partitions: 3 },
            Algo::Degk { k: 2 },
        ] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                let run = maximal_independent_set_opts(&g, algo, arch, seed, &SolveOpts::default());
                check_maximal_independent_set(&g, &run.in_set)
                    .map_err(|e| TestCaseError::fail(format!("{algo:?} {arch}: {e}")))?;
            }
        }
    }

    #[test]
    fn filter_round_trips_and_composes(g in arb_graph(80, 200), seed in 0u64..20) {
        use symmetry_breaking::graph::subgraph::filter_edges;
        // Keeping everything reproduces the graph exactly.
        let all = filter_edges(&g, |_| true);
        prop_assert_eq!(&all, &g);
        // A random keep-set yields a valid graph with exactly those edges.
        let keep = |e: u32| symmetry_breaking::par::rng::hash2(seed, e as u64).is_multiple_of(2);
        let f = filter_edges(&g, keep);
        f.validate().unwrap();
        let expected = (0..g.num_edges() as u32).filter(|&e| keep(e)).count();
        prop_assert_eq!(f.num_edges(), expected);
        for &[u, v] in f.edge_list() {
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn edge_list_io_round_trip(g in arb_graph(60, 150)) {
        use symmetry_breaking::graph::io::{read_edge_list, write_edge_list};
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(std::io::Cursor::new(buf), Some(g.num_vertices())).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn bicc_parallel_agrees_with_hopcroft_tarjan(g in arb_graph(70, 150)) {
        use symmetry_breaking::decompose::bicc::{bicc_sequential, decompose_bicc};
        let par = decompose_bicc(&g, &Counters::new());
        let seq = bicc_sequential(&g);
        prop_assert_eq!(par.num_blocks, seq.num_blocks);
        prop_assert_eq!(&par.is_articulation, &seq.is_articulation);
        // Same edge partition (block ids may be permuted).
        let canon = |d: &symmetry_breaking::decompose::bicc::BiccDecomposition| {
            let mut m = std::collections::BTreeMap::<u32, Vec<u32>>::new();
            for (e, &b) in d.edge_block.iter().enumerate() {
                m.entry(b).or_default().push(e as u32);
            }
            let mut gs: Vec<Vec<u32>> = m.into_values().collect();
            gs.sort();
            gs
        };
        prop_assert_eq!(canon(&par), canon(&seq));
    }

    #[test]
    fn bicc_refines_bridge_decomposition(g in arb_graph(70, 150)) {
        // Every bridge is a singleton block, and the number of blocks is at
        // least the number of 2-edge-connected pieces that carry edges.
        use symmetry_breaking::decompose::bicc::decompose_bicc;
        let bicc = decompose_bicc(&g, &Counters::new());
        let bridge = decompose_bridge(&g, &Counters::new());
        for &e in &bridge.bridges {
            let b = bicc.edge_block[e as usize];
            let members = bicc
                .edge_block
                .iter()
                .filter(|&&x| x == b)
                .count();
            prop_assert_eq!(members, 1, "bridge {} not a singleton block", e);
        }
        prop_assert!(bicc.num_blocks >= bridge.bridges.len());
    }

    #[test]
    fn israeli_itai_maximal(g in arb_graph(90, 250), seed in 0u64..20) {
        use symmetry_breaking::core::matching::ii::ii_extend;
        let mut mate = vec![INVALID; g.num_vertices()];
        ii_extend(&g, symmetry_breaking::graph::EdgeView::full(), &mut mate, None, seed, &Counters::new());
        check_maximal_matching(&g, &mate).unwrap();
    }

    #[test]
    fn jp_orderings_proper(g in arb_graph(90, 250), seed in 0u64..10) {
        use symmetry_breaking::core::coloring::jp::{jp_color_ordered, JpOrdering};
        for ordering in [
            JpOrdering::Random,
            JpOrdering::LargestDegreeFirst,
            JpOrdering::SmallestDegreeLast,
        ] {
            let c = jp_color_ordered(&g, ordering, seed, &Counters::new());
            check_coloring(&g, &c)
                .map_err(|e| TestCaseError::fail(format!("{ordering:?}: {e}")))?;
        }
    }

    #[test]
    fn concurrent_union_find_partition_laws(pairs in proptest::collection::vec((0u32..200, 0u32..200), 0..400)) {
        use symmetry_breaking::par::union_find::ConcurrentUnionFind;
        let uf = ConcurrentUnionFind::new(200);
        for &(a, b) in &pairs {
            uf.unite(a, b);
        }
        // Reflexive, symmetric, and transitive through representatives.
        for &(a, b) in &pairs {
            prop_assert!(uf.same(a, b));
            prop_assert_eq!(uf.find(a), uf.find(b));
            // Representative is the minimum of the set it names.
            prop_assert!(uf.find(a) <= a);
        }
    }

    #[test]
    fn oriented_mis_on_arbitrary_low_degree_piece(g in arb_graph(100, 300)) {
        // Take the DEG2 low piece of an arbitrary graph and solve it with
        // the oriented algorithm — the exact situation inside MIS-Deg2.
        use symmetry_breaking::core::mis::oriented::oriented_mis_extend;
        let d = decompose_degk(&g, 2, &Counters::new());
        let low_side: Vec<bool> = d.is_high.iter().map(|&h| !h).collect();
        let mut st = vec![0u8; g.num_vertices()];
        oriented_mis_extend(&g, d.low_view(), &mut st, Some(&low_side), &Counters::new());
        let in_set: Vec<bool> = st.iter().map(|&s| s == 1).collect();
        check_independent_set(&d.low_graph(&g), &in_set).unwrap();
        // Every low vertex must be decided.
        for (v, &h) in d.is_high.iter().enumerate() {
            if !h {
                prop_assert_ne!(st[v], 0u8, "low vertex {} undecided", v);
            }
        }
    }

    #[test]
    fn overlay_materialize_matches_direct_build(
        g in arb_graph(60, 150),
        ops in proptest::collection::vec((0u8..5, 0u32..40, 0u32..40), 0..40),
    ) {
        // Reference model: apply the same edits to a plain normalized
        // edge set. Kinds 3 (self-loop) and 4 (duplicate add) force the
        // degenerate shapes the edit model must absorb silently.
        let mut n = g.num_vertices();
        let mut model: std::collections::BTreeSet<(u32, u32)> =
            g.edge_list().iter().map(|&[u, v]| (u.min(v), u.max(v))).collect();
        let mut log = EditLog::new();
        let add = |log: &mut EditLog, model: &mut std::collections::BTreeSet<(u32, u32)>,
                       n: &mut usize, u: u32, v: u32| {
            log.add_edge(u, v);
            if u != v {
                *n = (*n).max(u.max(v) as usize + 1);
                model.insert((u.min(v), u.max(v)));
            }
        };
        for &(kind, u, v) in &ops {
            match kind {
                0 => add(&mut log, &mut model, &mut n, u, v),
                1 => {
                    log.remove_edge(u, v);
                    model.remove(&(u.min(v), u.max(v)));
                }
                2 => {
                    log.add_vertex(u as usize);
                    n = n.max(u as usize);
                }
                3 => add(&mut log, &mut model, &mut n, u, u),
                _ => {
                    add(&mut log, &mut model, &mut n, u, v);
                    add(&mut log, &mut model, &mut n, u, v);
                }
            }
        }
        let direct = from_edge_list(n, &model.iter().copied().collect::<Vec<_>>());
        let edited = log.materialize(&g);
        prop_assert_eq!(&edited, &direct);
        // The zero-rebuild overlay must read identically to what it
        // materializes: same counts, same sorted adjacency per vertex.
        let ov = log.apply(&g);
        prop_assert_eq!(ov.num_vertices(), direct.num_vertices());
        prop_assert_eq!(ov.num_edges(), direct.num_edges());
        for vtx in direct.vertices() {
            prop_assert_eq!(ov.degree(vtx), direct.degree(vtx));
            prop_assert_eq!(ov.neighbors(vtx), direct.neighbors(vtx).to_vec());
        }
    }
}

// Degenerate inputs surfaced by the differential fuzzer (`sb-fuzz`): the
// proptest strategies above never generate n < 2 or all-isolated shapes,
// so the minimized fuzz cases are pinned here directly.

#[test]
fn rand_partition_with_more_parts_than_vertices() {
    let opts = SolveOpts::default();
    let g = from_edge_list(3, &[(0, 1), (1, 2)]);
    for k in [4, 16, 100] {
        let d = decompose_rand(&g, k, 7, &Counters::new());
        assert_eq!(d.part.len(), 3);
        assert!(d.part.iter().all(|&p| (p as usize) < k));
        assert_eq!(d.m_induced + d.m_cross, g.num_edges());
        // Solves over the oversplit decomposition still finish and verify.
        for arch in [Arch::Cpu, Arch::GpuSim] {
            let run = maximal_matching_opts(&g, Algo::Rand { partitions: k }, arch, 7, &opts);
            check_maximal_matching(&g, &run.mate).unwrap();
            let run =
                maximal_independent_set_opts(&g, Algo::Rand { partitions: k }, arch, 7, &opts);
            check_maximal_independent_set(&g, &run.in_set).unwrap();
        }
    }
}

#[test]
fn degk_on_all_isolated_vertices() {
    let opts = SolveOpts::default();
    let g = Graph::empty(6);
    for k in [0, 2, 5] {
        let d = decompose_degk(&g, k, &Counters::new());
        assert!(d.is_high.iter().all(|&h| !h), "isolated vertices are low");
        assert_eq!(d.m_high + d.m_low + d.m_cross, 0);
    }
    for arch in [Arch::Cpu, Arch::GpuSim] {
        let run = maximal_independent_set_opts(&g, Algo::Degk { k: 2 }, arch, 7, &opts);
        assert!(
            run.in_set.iter().all(|&b| b),
            "isolated vertices all join the MIS"
        );
        let run = maximal_matching_opts(&g, Algo::Degk { k: 2 }, arch, 7, &opts);
        check_maximal_matching(&g, &run.mate).unwrap();
    }
}

#[test]
fn bridge_on_empty_and_fully_disconnected_graphs() {
    let opts = SolveOpts::default();
    for g in [Graph::empty(0), Graph::empty(1), Graph::empty(8)] {
        let d = decompose_bridge(&g, &Counters::new());
        assert!(d.bridges.is_empty());
        for arch in [Arch::Cpu, Arch::GpuSim] {
            let mm = maximal_matching_opts(&g, Algo::Bridge, arch, 7, &opts);
            check_maximal_matching(&g, &mm.mate).unwrap();
            let mis = maximal_independent_set_opts(&g, Algo::Bridge, arch, 7, &opts);
            check_maximal_independent_set(&g, &mis.in_set).unwrap();
            let col = vertex_coloring_opts(&g, Algo::Bridge, arch, 7, &opts);
            check_coloring(&g, &col.color).unwrap();
        }
    }
}

#[test]
fn single_vertex_and_single_edge_solves() {
    for g in [from_edge_list(1, &[]), from_edge_list(2, &[(0, 1)])] {
        for arch in [Arch::Cpu, Arch::GpuSim] {
            for mode in [FrontierMode::Dense, FrontierMode::Compact] {
                let opts = SolveOpts::with_mode(mode);
                let mm = maximal_matching_opts(&g, Algo::Baseline, arch, 7, &opts);
                check_maximal_matching(&g, &mm.mate).unwrap();
                let mis = maximal_independent_set_opts(&g, Algo::Baseline, arch, 7, &opts);
                check_maximal_independent_set(&g, &mis.in_set).unwrap();
                let col = vertex_coloring_opts(&g, Algo::Baseline, arch, 7, &opts);
                check_coloring(&g, &col.color).unwrap();
            }
        }
    }
}

#[test]
fn edit_log_hardening_at_the_io_vertex_limit() {
    // The edit parser enforces the same id ceiling as the edge-list io
    // layer: ids at MAX_EDIT_VERTEX pass, one past is rejected, and the
    // `v:` count may reach MAX_EDIT_VERTEX + 1 (a count, not an id).
    let max = MAX_EDIT_VERTEX;
    let log = EditLog::parse(&format!("+{max}-0")).unwrap();
    assert_eq!(EditLog::parse(&log.wire()).unwrap(), log);
    assert!(EditLog::parse(&format!("+{}-0", max + 1)).is_err());
    assert!(EditLog::parse(&format!("v:{}", max + 1)).is_ok());
    assert!(EditLog::parse(&format!("v:{}", max + 2)).is_err());

    // Degenerate edits at the limit must be absorbed without growing the
    // graph: a self-loop on the largest legal id drops before it can
    // allocate 4 billion vertices, and removing an absent edge touching
    // it (twice) is a no-op.
    let g = from_edge_list(2, &[(0, 1)]);
    let looped = EditLog::parse(&format!("+{max}-{max}")).unwrap();
    assert_eq!(looped.materialize(&g), g);
    let ghost = EditLog::parse(&format!("-{max}-0,-{max}-0")).unwrap();
    assert_eq!(ghost.materialize(&g), g);
}
