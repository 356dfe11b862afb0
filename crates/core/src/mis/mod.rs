//! Maximal independent set (Section V of the paper).
//!
//! Baselines: [`luby`] (Algorithm LubyMIS — fresh random priorities each
//! round; worklist form for the CPU, flat-kernel form for the GPU-sim
//! executor) and [`greedy`] (the Blelloch et al. parallelized greedy with
//! static priorities, kept as an ablation).
//!
//! [`oriented`] implements the bounded-degree MIS used by MIS-Deg2 on the
//! degree-≤2 subgraph: deterministic Cole–Vishkin color reduction over the
//! vertex-id orientation (the documented substitute for Kothapalli &
//! Pindiproli \[21\]; the paper likewise uses "the vertex numbers to induce
//! the required orientation").
//!
//! Composites ([`decomp`]): MIS-Bridge, MIS-Rand, MIS-Deg2 (Algorithms
//! 10–12), including the paper's sparser-side-first ordering heuristic.

pub mod decomp;
pub mod greedy;
pub mod luby;
pub mod oriented;

use crate::common::{Arch, RunStats, SolveOpts};
use crate::{Algo, Solution, Solver};
use sb_graph::csr::Graph;

/// Shared live-set scan for the MIS solvers: the undecided vertices passing
/// `allowed`, as an order-stable compacted worklist. Every solver in this
/// family fixes its participant set with exactly this predicate; keeping the
/// scan in one place pins them to the same compaction primitive.
pub(crate) fn undecided_participants(status: &[u8], allowed: Option<&[bool]>) -> Vec<u32> {
    sb_par::frontier::compact_range(status.len(), |v| {
        status[v as usize] == status::UNDECIDED && allowed.is_none_or(|a| a[v as usize])
    })
}

/// Vertex status during MIS construction.
pub mod status {
    /// Not yet decided.
    pub const UNDECIDED: u8 = 0;
    /// In the independent set.
    pub const IN: u8 = 1;
    /// Excluded (has a neighbor in the set).
    pub const OUT: u8 = 2;
}

/// Result of an MIS run.
#[derive(Debug, Clone)]
pub struct MisRun {
    /// Membership flags.
    pub in_set: Vec<bool>,
    /// Timing and counters.
    pub stats: RunStats,
}

impl MisRun {
    /// Number of vertices in the independent set.
    pub fn size(&self) -> usize {
        self.in_set.iter().filter(|&&b| b).count()
    }
}

/// Run an MIS algorithm on `g` — [`crate::solve`] for
/// [`crate::Solver::Mis`], decomposing inline. `opts` carries the trace
/// sink and the frontier mode (see [`crate::common::FrontierMode`]).
pub fn maximal_independent_set_opts(
    g: &Graph,
    algo: Algo,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
) -> MisRun {
    match crate::solve(g, Solver::Mis(algo), arch, seed, opts, None) {
        (Solution::Set(in_set), stats) => MisRun { in_set, stats },
        _ => unreachable!("an MIS solver returns a membership array"),
    }
}
