//! Vertex coloring (Section IV of the paper).
//!
//! Baselines: [`vb`] (Algorithm VB — the vertex-based speculative colorer of
//! Deveci et al. with a fixed-size FORBIDDEN window, which the paper found
//! to be the best multicore-CPU baseline), [`eb`] (Algorithm EB — the
//! edge-based variant with a 32-bit availability mask, the GPU baseline),
//! and [`jp`] (Jones–Plassmann, kept as an ablation baseline).
//!
//! Composites ([`decomp`]): COLOR-Bridge, COLOR-Rand, COLOR-Degk
//! (Algorithms 7–9). COLOR-Degk is the paper's CPU winner: after coloring
//! `G_H`, the degree-≤k remainder needs only a (k+1)-entry FORBIDDEN window
//! above `max(C_H)`.

pub mod decomp;
pub mod eb;
pub mod jp;
pub mod vb;

use crate::common::{Arch, RunStats, SolveOpts};
use crate::{Algo, Solution, Solver};
use sb_graph::csr::Graph;

/// Result of a coloring run.
#[derive(Debug, Clone)]
pub struct ColoringRun {
    /// Color per vertex (dense from 0; no `INVALID` left on success).
    pub color: Vec<u32>,
    /// Timing and counters.
    pub stats: RunStats,
}

impl ColoringRun {
    /// Number of distinct colors used.
    pub fn num_colors(&self) -> usize {
        crate::verify::color_count(&self.color)
    }
}

/// Run a vertex-coloring algorithm on `g` — [`crate::solve`] for
/// [`crate::Solver::Color`], decomposing inline. `opts` carries the trace
/// sink and the frontier mode (see [`crate::common::FrontierMode`]).
pub fn vertex_coloring_opts(
    g: &Graph,
    algo: Algo,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
) -> ColoringRun {
    match crate::solve(g, Solver::Color(algo), arch, seed, opts, None) {
        (Solution::Color(color), stats) => ColoringRun { color, stats },
        _ => unreachable!("a coloring solver returns a color array"),
    }
}

/// FORBIDDEN-window size the paper uses for VB on the CPU: the average
/// degree of the graph being colored (at least 2).
pub(crate) fn vb_window(g: &Graph) -> usize {
    (g.avg_degree().ceil() as usize).max(2)
}
