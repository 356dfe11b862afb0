//! Maximal matching (Section III of the paper).
//!
//! Baselines: [`gm`] (Algorithm GM — the greedy lowest-id proposal matcher
//! used on multicore CPUs, plus the random-edge-priority variant of Blelloch
//! et al. as an ablation) and [`lmax`] (Algorithm LMAX — the local-max
//! matcher of Birn et al., expressed as bulk-synchronous kernels for the
//! GPU-sim executor).
//!
//! Composites ([`decomp`]): MM-Bridge, MM-Rand, MM-Degk (Algorithms 4–6),
//! each of which decomposes the input, matches the pieces, and extends the
//! partial matching over what remains.

pub mod decomp;
pub mod gm;
pub mod ii;
pub mod lmax;

use crate::common::{Arch, FrontierMode, RunStats, SolveOpts};
use crate::{Algo, Solution, Solver};
use sb_graph::csr::{Graph, INVALID};
use sb_graph::view::EdgeView;
use sb_par::bsp::BspExecutor;
use sb_par::counters::Counters;
use sb_par::frontier::Scratch;

/// Result of a matching run: the mate array plus timing/work breakdown.
#[derive(Debug, Clone)]
pub struct MatchingRun {
    /// `mate[v]` is `v`'s partner or `INVALID`.
    pub mate: Vec<u32>,
    /// Timing and counters.
    pub stats: RunStats,
}

impl MatchingRun {
    /// Number of matched edges.
    pub fn cardinality(&self) -> usize {
        crate::verify::matching_cardinality(&self.mate)
    }
}

/// Run a maximal-matching algorithm on `g` — [`crate::solve`] for
/// [`crate::Solver::Mm`], decomposing inline. `seed` drives every random
/// choice (RAND partition, LMAX edge weights), making runs reproducible
/// independent of thread count; `opts` carries the trace sink and the
/// frontier mode (see [`crate::common::FrontierMode`]).
pub fn maximal_matching_opts(
    g: &Graph,
    algo: Algo,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
) -> MatchingRun {
    match crate::solve(g, Solver::Mm(algo), arch, seed, opts, None) {
        (Solution::Mate(mate), stats) => MatchingRun { mate, stats },
        _ => unreachable!("a matching solver returns a mate array"),
    }
}

/// Extend the partial matching in `mate` to a maximal matching of the
/// subgraph of `g` restricted to `view` and to unmatched vertices passing
/// `allowed`, using the baseline solver of `arch`.
///
/// On the CPU, GM runs directly against the filtered view (its adjacency
/// cursor skips non-admitted arcs amortized-free). The GPU pipeline first
/// materializes the admitted piece — on-device that is a handful of cheap
/// streaming passes, whereas per-arc class checks inside the solver's
/// kernels would be gathers; the materialization work is charged to the
/// counters (and hence to the modeled device time).
/// In `Compact` mode the GPU pipeline instead runs the frontier LMAX
/// zero-copy against the masked view: per-arc admit checks ride along the
/// already-compacted worklist sweeps, so no induced CSR is built. Both
/// paths key LMAX edge weights by *original* edge id — the dense path
/// carries the new-id → original-id map of the materialization — so dense
/// and compact are byte-identical on masked views too (pinned by
/// `tests/frontier.rs`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn base_extend(
    g: &Graph,
    view: EdgeView<'_>,
    mate: &mut [u32],
    allowed: Option<&[bool]>,
    arch: Arch,
    seed: u64,
    counters: &Counters,
    mode: FrontierMode,
    scratch: &mut Scratch,
) {
    match (arch, mode) {
        (Arch::Cpu, FrontierMode::Dense) => gm::gm_extend(g, view, mate, allowed, counters),
        (Arch::Cpu, FrontierMode::Compact) => {
            gm::gm_extend_frontier(g, view, mate, allowed, counters, scratch)
        }
        (Arch::GpuSim, FrontierMode::Dense) => {
            let exec = BspExecutor::inheriting(counters);
            if view.is_full() {
                lmax::lmax_extend(g, EdgeView::full(), mate, allowed, seed, &exec);
            } else {
                // Weights must be keyed by the parent's edge ids, not the
                // renumbered ones, to match the zero-copy compact path.
                let orig_ids = view.admitted_edge_ids(g);
                let sub = materialize_for_gpu(g, view, exec.counters());
                lmax::lmax_extend_with_ids(
                    &sub,
                    EdgeView::full(),
                    mate,
                    allowed,
                    seed,
                    &exec,
                    Some(&orig_ids),
                );
            }
            counters.merge(exec.counters());
        }
        (Arch::GpuSim, FrontierMode::Compact) => {
            let exec = BspExecutor::inheriting(counters);
            lmax::lmax_extend_frontier(g, view, mate, allowed, seed, &exec, scratch);
            counters.merge(exec.counters());
        }
        (Arch::Cpu, FrontierMode::Bitset) => {
            gm::gm_extend_bitset(g, view, mate, allowed, counters, scratch)
        }
        (Arch::GpuSim, FrontierMode::Bitset) => {
            let exec = BspExecutor::inheriting(counters);
            lmax::lmax_extend_bitset(g, view, mate, allowed, seed, &exec, scratch);
            counters.merge(exec.counters());
        }
    }
}

/// Materialize a filtered view for a GPU pipeline phase, charging the
/// streaming passes (classify scan + CSR fill) to `counters`.
pub(crate) fn materialize_for_gpu(g: &Graph, view: EdgeView<'_>, counters: &Counters) -> Graph {
    let sub = view.materialize(g);
    counters.add_kernel(g.num_edges() as u64);
    counters.add_kernel(4 * sub.num_edges() as u64);
    sub
}

/// Shared helper: the initial all-unmatched mate array.
pub(crate) fn fresh_mate(n: usize) -> Vec<u32> {
    vec![INVALID; n]
}

/// The paper's rule of thumb for MM-Rand's partition count (§III-B):
/// "we use the partition size k close to the average degree of the graph".
/// Clamped to `[2, 128]` so degenerate graphs stay usable.
pub fn suggested_partitions(g: &Graph) -> usize {
    (g.avg_degree().round() as usize).clamp(2, 128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_graph::builder::from_edge_list;

    #[test]
    fn suggested_partitions_tracks_average_degree() {
        // Cycle: average degree 2.
        let c = from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(suggested_partitions(&c), 2);
        // K6: average degree 5.
        let mut e = Vec::new();
        for i in 0..6u32 {
            for j in i + 1..6 {
                e.push((i, j));
            }
        }
        let k6 = from_edge_list(6, &e);
        assert_eq!(suggested_partitions(&k6), 5);
        // Edgeless: clamped to 2.
        assert_eq!(suggested_partitions(&Graph::empty(4)), 2);
    }

    #[test]
    fn rand_with_suggested_partitions_is_maximal() {
        let g = from_edge_list(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
        let k = suggested_partitions(&g);
        let opts = SolveOpts::default();
        let run = maximal_matching_opts(&g, Algo::Rand { partitions: k }, Arch::Cpu, 3, &opts);
        crate::verify::check_maximal_matching(&g, &run.mate).unwrap();
    }
}
