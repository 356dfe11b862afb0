//! Decomposition-based MIS (Algorithms 10–12 of the paper).

use super::luby::{luby_extend, luby_extend_bsp, luby_extend_bsp_frontier, luby_extend_frontier};
use super::oriented::oriented_mis_extend;
use super::status::{IN, OUT, UNDECIDED};
use super::MisRun;
use crate::common::{Arch, FrontierMode, RunStats, SolveOpts};
use crate::matching::materialize_for_gpu;
use rayon::prelude::*;
use sb_decompose::bicc::BiccDecomposition;
use sb_decompose::bridge::BridgeDecomposition;
use sb_decompose::degk::DegkDecomposition;
use sb_decompose::rand_part::RandDecomposition;
use sb_graph::csr::{Graph, VertexId};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u8;
use sb_par::bsp::BspExecutor;
use sb_par::counters::{Counters, Stopwatch};
use sb_par::frontier::Scratch;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Run the architecture's Luby form over the undecided vertices of `g`
/// passing `allowed`, restricted to the edges of `view`.
///
/// In `Dense` mode, GPU phases over a filtered view materialize the piece
/// first (see `matching::base_extend`). In `Compact` mode both
/// architectures solve against the view zero-copy: Luby's decisions depend
/// only on vertex ids and the admitted edge set, so skipping the induced
/// CSR build cannot change the output.
#[allow(clippy::too_many_arguments)]
fn base_mis_extend(
    g: &Graph,
    view: EdgeView<'_>,
    status: &mut [u8],
    allowed: Option<&[bool]>,
    arch: Arch,
    seed: u64,
    counters: &Counters,
    mode: FrontierMode,
    scratch: &mut Scratch,
) {
    match (arch, mode) {
        (Arch::Cpu, FrontierMode::Dense) => luby_extend(g, view, status, allowed, seed, counters),
        (Arch::Cpu, FrontierMode::Compact) => {
            luby_extend_frontier(g, view, status, allowed, seed, counters, scratch)
        }
        (Arch::GpuSim, FrontierMode::Dense) => {
            let exec = BspExecutor::inheriting(counters);
            if view.is_full() {
                luby_extend_bsp(g, EdgeView::full(), status, allowed, seed, &exec);
            } else {
                let sub = materialize_for_gpu(g, view, exec.counters());
                luby_extend_bsp(&sub, EdgeView::full(), status, allowed, seed, &exec);
            }
            counters.merge(exec.counters());
        }
        (Arch::GpuSim, FrontierMode::Compact) => {
            let exec = BspExecutor::inheriting(counters);
            luby_extend_bsp_frontier(g, view, status, allowed, seed, &exec, scratch);
            counters.merge(exec.counters());
        }
    }
}

/// Exclude (in the full graph `g`) every undecided vertex with an IN
/// neighbor — the "remove from G vertices that are in I_A or have a
/// neighbor in I_A" step between phases.
fn exclude_dominated(g: &Graph, status: &mut [u8], counters: &Counters) {
    counters.add_edges(2 * g.num_edges() as u64);
    let st = as_atomic_u8(status);
    (0..g.num_vertices()).into_par_iter().for_each(|v| {
        if st[v].load(Ordering::Relaxed) != UNDECIDED {
            return;
        }
        if g.neighbors(v as VertexId)
            .iter()
            .any(|&w| st[w as usize].load(Ordering::Relaxed) == IN)
        {
            st[v].store(OUT, Ordering::Relaxed);
        }
    });
}

fn finish(
    status: Vec<u8>,
    decompose_time: Duration,
    sw: Stopwatch,
    counters: Counters,
    scratch: &Scratch,
) -> MisRun {
    let solve_time = sw.elapsed();
    MisRun {
        in_set: status.iter().map(|&s| s == IN).collect(),
        stats: RunStats::from_counters(decompose_time, solve_time, &counters)
            .with_scratch(scratch.stats()),
    }
}

/// LubyMIS on the whole graph — the Figure 5 baseline.
pub(crate) fn baseline_solve(
    g: &Graph,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
) -> MisRun {
    let mut scratch = Scratch::new();
    let mut status = vec![UNDECIDED; g.num_vertices()];
    let sw = Stopwatch::start();
    {
        let _span = counters.phase("solve");
        base_mis_extend(
            g,
            EdgeView::full(),
            &mut status,
            None,
            arch,
            seed,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    finish(status, Duration::ZERO, sw, counters, &scratch)
}

/// Average degree over the non-isolated vertices of a view — the sparsity
/// measure the paper uses to pick which side to solve first.
fn busy_avg_degree(g: &Graph, view: EdgeView<'_>) -> f64 {
    let busy = (0..g.num_vertices())
        .into_par_iter()
        .filter(|&v| view.has_arc(g, v as VertexId))
        .count();
    if busy == 0 {
        0.0
    } else {
        2.0 * view.num_edges(g) as f64 / busy as f64
    }
}

/// Algorithm 10 — MIS-Bridge.
///
/// Solve `∪ H_i = G_c` minus bridge endpoints and the bridge graph `G_B`,
/// sparser side first, extending through the full graph in between.
pub(crate) fn mis_bridge_solve(
    g: &Graph,
    d: &BridgeDecomposition,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
    decompose_time: Duration,
) -> MisRun {
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let n = g.num_vertices();
    let mut is_bridge_vertex = vec![false; n];
    for v in d.bridge_vertices(g) {
        is_bridge_vertex[v as usize] = true;
    }
    let mut status = vec![UNDECIDED; n];

    let comp_side: Vec<bool> = (0..n).map(|v| !is_bridge_vertex[v]).collect();
    if busy_avg_degree(g, d.component_view()) <= busy_avg_degree(g, d.bridge_view()) {
        // I_A on ∪ H_i first.
        {
            let _span = counters.phase("induced-solve");
            base_mis_extend(
                g,
                d.component_view(),
                &mut status,
                Some(&comp_side),
                arch,
                seed,
                &counters,
                opts.frontier,
                &mut scratch,
            );
        }
        let _span = counters.phase("cross-solve");
        exclude_dominated(g, &mut status, &counters);
        base_mis_extend(
            g,
            EdgeView::full(),
            &mut status,
            None,
            arch,
            seed ^ 1,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    } else {
        // I_B first. Note: an MIS of the bare bridge graph G_B would not be
        // independent in G (two bridge endpoints can share a non-bridge
        // edge), so I_B is computed on G restricted to the bridge vertices —
        // the subgraph Algorithm 10's "MIS of G_B" must mean for I_A ∪ I_B
        // to be an MIS of G.
        {
            let _span = counters.phase("induced-solve");
            base_mis_extend(
                g,
                EdgeView::full(),
                &mut status,
                Some(&is_bridge_vertex),
                arch,
                seed,
                &counters,
                opts.frontier,
                &mut scratch,
            );
        }
        let _span = counters.phase("cross-solve");
        exclude_dominated(g, &mut status, &counters);
        base_mis_extend(
            g,
            EdgeView::full(),
            &mut status,
            None,
            arch,
            seed ^ 1,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    finish(status, decompose_time, sw, counters, &scratch)
}

/// Algorithm 11 — MIS-Rand.
///
/// Solve `H = ∪ (G_i \ G_{k+1})` (induced subgraphs minus cross-edge
/// endpoints) and the cross graph, sparser side first.
pub(crate) fn mis_rand_solve(
    g: &Graph,
    d: &RandDecomposition,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
    decompose_time: Duration,
) -> MisRun {
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let n = g.num_vertices();
    let cross_endpoint: Vec<bool> = {
        let mut m = vec![false; n];
        for (e, &[u, v]) in g.edge_list().iter().enumerate() {
            if d.class[e] == sb_decompose::rand_part::RandDecomposition::CROSS {
                m[u as usize] = true;
                m[v as usize] = true;
            }
        }
        m
    };
    let h_side: Vec<bool> = (0..n).map(|v| !cross_endpoint[v]).collect();
    let mut status = vec![UNDECIDED; n];

    if busy_avg_degree(g, d.induced_view()) <= busy_avg_degree(g, d.cross_view()) {
        {
            let _span = counters.phase("induced-solve");
            base_mis_extend(
                g,
                d.induced_view(),
                &mut status,
                Some(&h_side),
                arch,
                seed ^ 2,
                &counters,
                opts.frontier,
                &mut scratch,
            );
        }
        let _span = counters.phase("cross-solve");
        exclude_dominated(g, &mut status, &counters);
        base_mis_extend(
            g,
            EdgeView::full(),
            &mut status,
            None,
            arch,
            seed ^ 3,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    } else {
        // Same subtlety as MIS-Bridge: cross-edge endpoints can also share
        // intra-partition edges, so I_B runs on G restricted to them.
        {
            let _span = counters.phase("induced-solve");
            base_mis_extend(
                g,
                EdgeView::full(),
                &mut status,
                Some(&cross_endpoint),
                arch,
                seed ^ 2,
                &counters,
                opts.frontier,
                &mut scratch,
            );
        }
        let _span = counters.phase("cross-solve");
        exclude_dominated(g, &mut status, &counters);
        base_mis_extend(
            g,
            EdgeView::full(),
            &mut status,
            None,
            arch,
            seed ^ 3,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    finish(status, decompose_time, sw, counters, &scratch)
}

/// Algorithm 12 — MIS-Degk (the paper's MIS-Deg2 for k = 2).
///
/// Solve the degree-≤k side first — with the deterministic oriented
/// algorithm when k ≤ 2 (paths and cycles), otherwise with Luby — then
/// extend through the remainder. The decomposition carries its own `k`.
pub(crate) fn mis_degk_solve(
    g: &Graph,
    d: &DegkDecomposition,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
    decompose_time: Duration,
) -> MisRun {
    let k = d.k;
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let n = g.num_vertices();
    let low_side: Vec<bool> = (0..n).map(|v| !d.is_high[v]).collect();
    let mut status = vec![UNDECIDED; n];

    // The degree-≤k fringe is peeled first (oriented Cole–Vishkin for
    // k ≤ 2, Luby otherwise).
    {
        let _span = counters.phase("fringe-peel");
        if k <= 2 {
            oriented_mis_extend(g, d.low_view(), &mut status, Some(&low_side), &counters);
        } else {
            base_mis_extend(
                g,
                d.low_view(),
                &mut status,
                Some(&low_side),
                arch,
                seed ^ 4,
                &counters,
                opts.frontier,
                &mut scratch,
            );
        }
    }
    {
        let _span = counters.phase("cross-solve");
        exclude_dominated(g, &mut status, &counters);
        base_mis_extend(
            g,
            EdgeView::full(),
            &mut status,
            None,
            arch,
            seed ^ 5,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    finish(status, decompose_time, sw, counters, &scratch)
}

/// MIS-Bicc (extension, after Hochbaum \[16\]).
///
/// An MIS of the block interiors (the graph minus articulation vertices,
/// whose pieces are pairwise disconnected), then exclusion through the
/// full graph and a final solve over what remains.
pub(crate) fn mis_bicc_solve(
    g: &Graph,
    d: &BiccDecomposition,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    counters: Counters,
    decompose_time: Duration,
) -> MisRun {
    let mut scratch = Scratch::new();
    let sw = Stopwatch::start();
    let n = g.num_vertices();
    let interior: Vec<bool> = d.is_articulation.iter().map(|&a| !a).collect();
    let mut status = vec![UNDECIDED; n];
    {
        let _span = counters.phase("induced-solve");
        base_mis_extend(
            g,
            EdgeView::full(),
            &mut status,
            Some(&interior),
            arch,
            seed,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    {
        let _span = counters.phase("cleanup");
        exclude_dominated(g, &mut status, &counters);
        base_mis_extend(
            g,
            EdgeView::full(),
            &mut status,
            None,
            arch,
            seed ^ 1,
            &counters,
            opts.frontier,
            &mut scratch,
        );
    }
    finish(status, decompose_time, sw, counters, &scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::maximal_independent_set_opts;
    use crate::verify::check_maximal_independent_set;
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
    fn all_algorithms_maximal_both_archs() {
        let graphs = [
            random_graph(300, 900, 1),
            random_graph(400, 600, 2),
            from_edge_list(80, &(0..79u32).map(|i| (i, i + 1)).collect::<Vec<_>>()),
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
                    let run =
                        maximal_independent_set_opts(g, algo, arch, 23, &SolveOpts::default());
                    check_maximal_independent_set(g, &run.in_set)
                        .unwrap_or_else(|e| panic!("graph {gi}, {algo:?} on {arch}: {e}"));
                }
            }
        }
    }

    #[test]
    fn deg2_on_chain_heavy_graph_uses_oriented_path_fast() {
        // Hub with many chains — the lp1 shape where MIS-Deg2 shines.
        let mut edges = vec![];
        for c in 0..30u32 {
            let b = 1 + 4 * c;
            edges.push((0, b));
            edges.push((b, b + 1));
            edges.push((b + 1, b + 2));
            edges.push((b + 2, b + 3));
        }
        let g = from_edge_list(121, &edges);
        let run = maximal_independent_set_opts(
            &g,
            Algo::Degk { k: 2 },
            Arch::Cpu,
            3,
            &SolveOpts::default(),
        );
        check_maximal_independent_set(&g, &run.in_set).unwrap();
        // Chains alone guarantee a large independent set.
        assert!(run.size() >= 60);
    }

    #[test]
    fn degk_with_large_k_falls_back_to_luby() {
        let g = random_graph(200, 800, 5);
        let run = maximal_independent_set_opts(
            &g,
            Algo::Degk { k: 8 },
            Arch::Cpu,
            7,
            &SolveOpts::default(),
        );
        check_maximal_independent_set(&g, &run.in_set).unwrap();
    }

    #[test]
    fn bridge_on_tree_and_on_cycle() {
        let opts = SolveOpts::default();
        let tree = from_edge_list(15, &(0..14u32).map(|i| (i / 2, i + 1)).collect::<Vec<_>>());
        let run = maximal_independent_set_opts(&tree, Algo::Bridge, Arch::Cpu, 1, &opts);
        check_maximal_independent_set(&tree, &run.in_set).unwrap();

        let mut edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        edges.push((19, 0));
        let cyc = from_edge_list(20, &edges);
        let run = maximal_independent_set_opts(&cyc, Algo::Bridge, Arch::GpuSim, 2, &opts);
        check_maximal_independent_set(&cyc, &run.in_set).unwrap();
    }

    #[test]
    fn rand_partition_sweep() {
        let g = random_graph(300, 1200, 9);
        for k in [1, 2, 5, 10] {
            let run = maximal_independent_set_opts(
                &g,
                Algo::Rand { partitions: k },
                Arch::Cpu,
                11,
                &SolveOpts::default(),
            );
            check_maximal_independent_set(&g, &run.in_set)
                .unwrap_or_else(|e| panic!("k = {k}: {e}"));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let opts = SolveOpts::default();
        let g = random_graph(250, 750, 12);
        let a = maximal_independent_set_opts(&g, Algo::Degk { k: 2 }, Arch::Cpu, 5, &opts);
        let b = maximal_independent_set_opts(&g, Algo::Degk { k: 2 }, Arch::Cpu, 5, &opts);
        assert_eq!(a.in_set, b.in_set);
    }

    #[test]
    fn stats_breakdown_present() {
        let g = random_graph(300, 900, 13);
        let run = maximal_independent_set_opts(
            &g,
            Algo::Degk { k: 2 },
            Arch::Cpu,
            3,
            &SolveOpts::default(),
        );
        assert!(run.stats.decompose_time > std::time::Duration::ZERO);
        assert!(run.stats.counters.rounds > 0);
    }
}
