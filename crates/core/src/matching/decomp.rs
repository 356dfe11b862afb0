//! Decomposition-based maximal matching (Algorithms 4–6 of the paper).
//!
//! Each composite takes a decomposition (computed and timed by
//! [`crate::solve`]), matches the decomposition pieces with the
//! architecture's baseline solver, and then extends the partial matching
//! over the remaining edges. The pieces live on the parent graph's vertex
//! ids, so one `mate` array flows through all phases.

use super::{base_extend, fresh_mate, MatchingRun};
use crate::common::{Arch, RunStats, SolveOpts};
use sb_decompose::bicc::BiccDecomposition;
use sb_decompose::bridge::BridgeDecomposition;
use sb_decompose::degk::DegkDecomposition;
use sb_decompose::rand_part::RandDecomposition;
use sb_graph::csr::{Graph, INVALID};
use sb_graph::view::EdgeView;
use sb_par::counters::{Counters, Stopwatch};
use sb_par::frontier::Scratch;
use std::time::Duration;

/// The architecture's baseline matcher on the whole graph (no
/// decomposition). This is the comparison bar in Figure 3.
pub(crate) fn baseline_solve(
    g: &Graph,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
) -> MatchingRun {
    let mut scratch = Scratch::new();
    let mut mate = fresh_mate(g.num_vertices());
    let sw = Stopwatch::start();
    {
        let _span = counters.phase("solve");
        base_extend(
            g,
            EdgeView::full(),
            &mut mate,
            None,
            arch,
            seed,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    let solve_time = sw.elapsed();
    MatchingRun {
        mate,
        stats: RunStats::from_counters(std::time::Duration::ZERO, solve_time, &counters)
            .with_scratch(scratch.stats()),
    }
}

/// Algorithm 4 — MM-Bridge.
///
/// Match the 2-edge-connected components `G_c`, then maximally match the
/// subgraph of `G` induced by the still-unmatched bridge vertices.
pub(crate) fn mm_bridge_solve(
    g: &Graph,
    d: &BridgeDecomposition,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
    decompose_time: Duration,
) -> MatchingRun {
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let mut mate = fresh_mate(g.num_vertices());
    // Phase 1: M_c on the components.
    {
        let _span = counters.phase("induced-solve");
        base_extend(
            g,
            d.component_view(),
            &mut mate,
            None,
            arch,
            seed,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    // Phase 2: M_b on G[V'], V' = unmatched bridge vertices.
    {
        let _span = counters.phase("cross-solve");
        let mut allowed = vec![false; g.num_vertices()];
        for v in d.bridge_vertices(g) {
            if mate[v as usize] == INVALID {
                allowed[v as usize] = true;
            }
        }
        base_extend(
            g,
            EdgeView::full(),
            &mut mate,
            Some(&allowed),
            arch,
            seed ^ 1,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    let solve_time = sw.elapsed();

    MatchingRun {
        mate,
        stats: RunStats::from_counters(decompose_time, solve_time, &counters)
            .with_scratch(scratch.stats()),
    }
}

/// Algorithm 5 — MM-Rand.
///
/// Match the union of the induced partition subgraphs, then extend over the
/// cross-edge subgraph `G_{k+1}`.
pub(crate) fn mm_rand_solve(
    g: &Graph,
    d: &RandDecomposition,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
    decompose_time: Duration,
) -> MatchingRun {
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let mut mate = fresh_mate(g.num_vertices());
    // Phase 1: M_IS on G[V_1] ∪ … ∪ G[V_k].
    {
        let _span = counters.phase("induced-solve");
        base_extend(
            g,
            d.induced_view(),
            &mut mate,
            None,
            arch,
            seed ^ 2,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    // Phase 2: M_{k+1} on the unmatched part of G_{k+1} (the solver skips
    // matched endpoints, which is exactly the G_{k+1}[V'] restriction).
    {
        let _span = counters.phase("cross-solve");
        base_extend(
            g,
            d.cross_view(),
            &mut mate,
            None,
            arch,
            seed ^ 3,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    let solve_time = sw.elapsed();

    MatchingRun {
        mate,
        stats: RunStats::from_counters(decompose_time, solve_time, &counters)
            .with_scratch(scratch.stats()),
    }
}

/// Algorithm 6 — MM-Degk.
///
/// Match `G_H` first, then extend over `G_L ∪ G_C` restricted to unmatched
/// vertices.
pub(crate) fn mm_degk_solve(
    g: &Graph,
    d: &DegkDecomposition,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
    decompose_time: Duration,
) -> MatchingRun {
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let mut mate = fresh_mate(g.num_vertices());
    // Phase 1: M_H on G_H.
    {
        let _span = counters.phase("induced-solve");
        base_extend(
            g,
            d.high_view(),
            &mut mate,
            None,
            arch,
            seed ^ 4,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    // Phase 2: M_LC on G_LC = G_L ∪ G_C (every edge with a low endpoint —
    // the low-degree fringe).
    {
        let _span = counters.phase("fringe-peel");
        base_extend(
            g,
            d.low_cross_view(),
            &mut mate,
            None,
            arch,
            seed ^ 5,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    let solve_time = sw.elapsed();

    MatchingRun {
        mate,
        stats: RunStats::from_counters(decompose_time, solve_time, &counters)
            .with_scratch(scratch.stats()),
    }
}

/// MM-Bicc (extension, after Hochbaum \[16\]).
///
/// Removing the articulation vertices splits the graph into the interiors
/// of its blocks, which are pairwise disconnected — a maximal matching of
/// that remainder is found in one parallel solve, then extended over the
/// articulation vertices and their edges.
pub(crate) fn mm_bicc_solve(
    g: &Graph,
    d: &BiccDecomposition,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
    decompose_time: Duration,
) -> MatchingRun {
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let mut mate = fresh_mate(g.num_vertices());
    // Phase 1: block interiors (non-articulation vertices).
    {
        let _span = counters.phase("induced-solve");
        let interior: Vec<bool> = d.is_articulation.iter().map(|&a| !a).collect();
        base_extend(
            g,
            EdgeView::full(),
            &mut mate,
            Some(&interior),
            arch,
            seed,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    // Phase 2: extend over the articulation vertices.
    {
        let _span = counters.phase("cleanup");
        base_extend(
            g,
            EdgeView::full(),
            &mut mate,
            None,
            arch,
            seed ^ 1,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    let solve_time = sw.elapsed();

    MatchingRun {
        mate,
        stats: RunStats::from_counters(decompose_time, solve_time, &counters)
            .with_scratch(scratch.stats()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::maximal_matching_opts;
    use crate::verify::check_maximal_matching;
    use crate::Algo;
    use sb_graph::builder::from_edge_list;

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
            .collect();
        from_edge_list(n, &edges)
    }

    #[test]
    fn all_algorithms_produce_maximal_matchings_both_archs() {
        let graphs = [
            random_graph(300, 900, 1),
            random_graph(500, 700, 2),
            from_edge_list(64, &(0..63u32).map(|i| (i, i + 1)).collect::<Vec<_>>()),
        ];
        let algos = [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand { partitions: 4 },
            Algo::Degk { k: 2 },
            Algo::Bicc,
        ];
        for (gi, g) in graphs.iter().enumerate() {
            for algo in algos {
                for arch in [Arch::Cpu, Arch::GpuSim] {
                    let run = maximal_matching_opts(g, algo, arch, 42, &SolveOpts::default());
                    check_maximal_matching(g, &run.mate)
                        .unwrap_or_else(|e| panic!("graph {gi}, {algo:?} on {arch}: {e}"));
                }
            }
        }
    }

    #[test]
    fn decomposition_time_reported_separately() {
        let opts = SolveOpts::default();
        let g = random_graph(400, 1200, 3);
        let run = maximal_matching_opts(&g, Algo::Rand { partitions: 4 }, Arch::Cpu, 7, &opts);
        assert!(run.stats.decompose_time > std::time::Duration::ZERO);
        assert!(run.stats.solve_time > std::time::Duration::ZERO);
        let base = maximal_matching_opts(&g, Algo::Baseline, Arch::Cpu, 7, &opts);
        assert_eq!(base.stats.decompose_time, std::time::Duration::ZERO);
    }

    #[test]
    fn mm_bridge_on_tree_matches_via_bridge_phase() {
        // A tree is all bridges: phase 1 has nothing to do, phase 2 must
        // still deliver a maximal matching.
        let g = from_edge_list(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let run = maximal_matching_opts(&g, Algo::Bridge, Arch::Cpu, 1, &SolveOpts::default());
        check_maximal_matching(&g, &run.mate).unwrap();
        assert!(run.cardinality() >= 2);
    }

    #[test]
    fn mm_rand_single_partition_degenerates_to_baseline_shape() {
        let g = random_graph(200, 600, 5);
        let run = maximal_matching_opts(
            &g,
            Algo::Rand { partitions: 1 },
            Arch::Cpu,
            9,
            &SolveOpts::default(),
        );
        check_maximal_matching(&g, &run.mate).unwrap();
    }

    #[test]
    fn mm_degk_various_k() {
        let g = random_graph(300, 1500, 8);
        for k in [0, 1, 2, 4, 16] {
            let run =
                maximal_matching_opts(&g, Algo::Degk { k }, Arch::Cpu, 3, &SolveOpts::default());
            check_maximal_matching(&g, &run.mate).unwrap_or_else(|e| panic!("k = {k}: {e}"));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let opts = SolveOpts::default();
        let g = random_graph(250, 800, 10);
        let a = maximal_matching_opts(&g, Algo::Rand { partitions: 5 }, Arch::GpuSim, 77, &opts);
        let b = maximal_matching_opts(&g, Algo::Rand { partitions: 5 }, Arch::GpuSim, 77, &opts);
        assert_eq!(a.mate, b.mate);
    }
}
