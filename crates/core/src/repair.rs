//! Incremental solution repair for dynamic graphs.
//!
//! Given a base graph, an [`EditLog`], and a *valid, maximal* prior
//! solution for the base, each `repair_*` entry point produces a valid,
//! maximal solution for the *edited* graph by touching only the
//! neighborhood of the edits — never rebuilding the CSR (all structure
//! reads go through the zero-rebuild [`sb_graph::editlog::Overlay`]) and never re-running
//! the global round loops. This is the regime where greedy local
//! re-election is provably shallow (Blelloch–Fineman–Shun) and the
//! affected radius is bounded (Barenboim–Elkin–Pettie–Schneider): repair
//! cost scales with the edit batch, not the graph.
//!
//! Repairs are deterministic *sequential* passes in ascending vertex
//! order, so the result is byte-identical across thread counts,
//! frontier modes, and architectures — which is exactly what the
//! edit-sequence fuzz oracle pins. Each entry point threads through
//! [`SolveOpts`] like the static paths: work/edge counters accumulate
//! into the options' trace sink under a `"repair"` phase span, and the
//! returned run stats carry the usual counter snapshot.
//!
//! Correctness sketches live in DESIGN.md §16; the one-line versions:
//!
//! * **Matching** — removed matched edges free their endpoints; any edge
//!   left with two free endpoints must touch an edit (else the prior was
//!   not maximal), so one ascending greedy pass over the touched set
//!   restores maximality, and augmenting from freed vertices never
//!   unmatches anyone.
//! * **MIS** — added IN–IN edges demote the higher endpoint; domination
//!   is only lost by demotion or edge removal, so re-electing over
//!   demoted vertices' neighborhoods plus removed-edge endpoints plus
//!   new vertices (ascending; the set only grows) restores maximality.
//! * **Coloring** — removed edges never create conflicts; each added
//!   conflicting edge recolors its higher endpoint with the smallest
//!   color free in its edited neighborhood (palette extends implicitly),
//!   and a recolor chosen conflict-free stays conflict-free.

use crate::coloring::ColoringRun;
use crate::common::{counters_for_opts, RunStats, SolveOpts};
use crate::matching::MatchingRun;
use crate::mis::MisRun;
use sb_graph::csr::{Graph, INVALID};
use sb_graph::editlog::EditLog;
use sb_par::counters::Stopwatch;
use std::time::Duration;

/// Repair a maximal matching after `edits`.
///
/// `prior` must be a valid maximal matching of `base` (`mate[v]` is
/// `v`'s partner or [`INVALID`]); the result is a valid maximal
/// matching of `edits.materialize(base)`.
pub fn repair_matching(
    base: &Graph,
    edits: &EditLog,
    prior: &[u32],
    opts: &SolveOpts,
) -> MatchingRun {
    let counters = counters_for_opts(opts);
    let sw = Stopwatch::start();
    let ov = edits.apply(base);
    let n = ov.num_vertices();
    let mut mate = prior.to_vec();
    mate.resize(n, INVALID);
    {
        let _span = counters.phase("repair");
        // Free the endpoints of removed edges that were matched to each
        // other; both endpoints are in `touched()` already.
        for (u, v) in ov.removed_edges() {
            if mate[u as usize] == v {
                mate[u as usize] = INVALID;
                mate[v as usize] = INVALID;
            }
        }
        // One ascending greedy pass over the edit neighborhood: match
        // every still-free touched vertex to its first free neighbor.
        for v in ov.touched() {
            counters.add_work(1);
            if mate[v as usize] != INVALID {
                continue;
            }
            let row = ov.neighbors(v);
            counters.add_edges(row.len() as u64);
            if let Some(&w) = row.iter().find(|&&w| mate[w as usize] == INVALID) {
                mate[v as usize] = w;
                mate[w as usize] = v;
            }
        }
        counters.add_rounds(1);
    }
    MatchingRun {
        mate,
        stats: RunStats::from_counters(Duration::ZERO, sw.elapsed(), &counters),
    }
}

/// Repair a maximal independent set after `edits`.
///
/// `prior` must be a valid maximal independent set of `base`; the result
/// is a valid MIS of `edits.materialize(base)`.
pub fn repair_mis(base: &Graph, edits: &EditLog, prior: &[bool], opts: &SolveOpts) -> MisRun {
    let counters = counters_for_opts(opts);
    let sw = Stopwatch::start();
    let ov = edits.apply(base);
    let n = ov.num_vertices();
    let mut in_set = prior.to_vec();
    in_set.resize(n, false);
    {
        let _span = counters.phase("repair");
        // Phase A: an added edge inside the set is a violation — demote
        // the higher endpoint (deterministic), and queue its whole
        // neighborhood for re-election (they may have lost their only
        // IN neighbor).
        let mut work = ov.touched();
        for (u, v) in ov.added_edges() {
            if in_set[u as usize] && in_set[v as usize] {
                let demoted = u.max(v);
                in_set[demoted as usize] = false;
                let row = ov.neighbors(demoted);
                counters.add_edges(row.len() as u64);
                work.extend(row);
            }
        }
        work.sort_unstable();
        work.dedup();
        // Phase B: ascending re-election. The set only grows here, so a
        // vertex skipped because of an IN neighbor stays dominated.
        for v in work {
            counters.add_work(1);
            if in_set[v as usize] {
                continue;
            }
            let row = ov.neighbors(v);
            counters.add_edges(row.len() as u64);
            if row.iter().all(|&w| !in_set[w as usize]) {
                in_set[v as usize] = true;
            }
        }
        counters.add_rounds(1);
    }
    MisRun {
        in_set,
        stats: RunStats::from_counters(Duration::ZERO, sw.elapsed(), &counters),
    }
}

/// Repair a proper vertex coloring after `edits`.
///
/// `prior` must be a proper coloring of `base`; the result is a proper
/// coloring of `edits.materialize(base)`. The palette extends implicitly
/// when a conflicted vertex has no free color among the existing ones.
pub fn repair_coloring(
    base: &Graph,
    edits: &EditLog,
    prior: &[u32],
    opts: &SolveOpts,
) -> ColoringRun {
    let counters = counters_for_opts(opts);
    let sw = Stopwatch::start();
    let ov = edits.apply(base);
    let n = ov.num_vertices();
    let mut color = prior.to_vec();
    // New vertices carry a sentinel until their pass assigns a color;
    // sentinels are ignored when computing forbidden sets, and every
    // sentinel vertex is in the worklist, so none survives.
    color.resize(n, INVALID);
    {
        let _span = counters.phase("repair");
        // Removed edges never create conflicts; only added edges whose
        // endpoints collide — and brand-new vertices — need work.
        let mut work: Vec<u32> = (base.num_vertices() as u32..n as u32).collect();
        for (u, v) in ov.added_edges() {
            if color[u as usize] != INVALID && color[u as usize] == color[v as usize] {
                work.push(u.max(v));
            }
        }
        work.sort_unstable();
        work.dedup();
        for v in work {
            counters.add_work(1);
            let row = ov.neighbors(v);
            counters.add_edges(row.len() as u64);
            let mut used: Vec<u32> = row
                .iter()
                .map(|&w| color[w as usize])
                .filter(|&c| c != INVALID)
                .collect();
            used.sort_unstable();
            used.dedup();
            // Smallest color absent from the (sorted, deduplicated)
            // neighbor palette.
            let mut pick = 0u32;
            for c in used {
                if c == pick {
                    pick += 1;
                } else if c > pick {
                    break;
                }
            }
            color[v as usize] = pick;
        }
        counters.add_rounds(1);
    }
    ColoringRun {
        color,
        stats: RunStats::from_counters(Duration::ZERO, sw.elapsed(), &counters),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{
        check_coloring, check_maximal_independent_set, check_maximal_matching, matching_cardinality,
    };
    use crate::{coloring, matching, mis, Arch};
    use sb_graph::builder::from_edge_list;

    fn base_graph() -> Graph {
        // Two triangles joined by a path, plus a pendant.
        from_edge_list(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
                (6, 7),
            ],
        )
    }

    fn edit_script() -> EditLog {
        let mut log = EditLog::new();
        log.remove_edge(2, 3)
            .add_edge(0, 7)
            .add_edge(8, 3)
            .add_vertex(10)
            .remove_edge(4, 5)
            .add_edge(9, 9); // self-loop no-op
        log
    }

    #[test]
    fn matching_repair_valid_and_maximal() {
        let opts = SolveOpts::default();
        let g = base_graph();
        let prior = matching::maximal_matching_opts(&g, crate::Algo::Baseline, Arch::Cpu, 3, &opts);
        check_maximal_matching(&g, &prior.mate).unwrap();
        let log = edit_script();
        let repaired = repair_matching(&g, &log, &prior.mate, &opts);
        let edited = log.materialize(&g);
        check_maximal_matching(&edited, &repaired.mate).unwrap();
        assert!(matching_cardinality(&repaired.mate) >= 1);
    }

    #[test]
    fn mis_repair_valid_and_maximal() {
        let opts = SolveOpts::default();
        let g = base_graph();
        let prior =
            mis::maximal_independent_set_opts(&g, crate::Algo::Baseline, Arch::Cpu, 3, &opts);
        check_maximal_independent_set(&g, &prior.in_set).unwrap();
        let log = edit_script();
        let repaired = repair_mis(&g, &log, &prior.in_set, &opts);
        let edited = log.materialize(&g);
        check_maximal_independent_set(&edited, &repaired.in_set).unwrap();
    }

    #[test]
    fn coloring_repair_proper() {
        let opts = SolveOpts::default();
        let g = base_graph();
        let prior = coloring::vertex_coloring_opts(&g, crate::Algo::Baseline, Arch::Cpu, 3, &opts);
        check_coloring(&g, &prior.color).unwrap();
        let log = edit_script();
        let repaired = repair_coloring(&g, &log, &prior.color, &opts);
        let edited = log.materialize(&g);
        check_coloring(&edited, &repaired.color).unwrap();
        assert!(repaired.color.iter().all(|&c| c != INVALID));
    }

    #[test]
    fn empty_log_is_identity() {
        let opts = SolveOpts::default();
        let g = base_graph();
        let log = EditLog::new();
        let pm = matching::maximal_matching_opts(&g, crate::Algo::Baseline, Arch::Cpu, 1, &opts);
        assert_eq!(repair_matching(&g, &log, &pm.mate, &opts).mate, pm.mate);
        let ps = mis::maximal_independent_set_opts(&g, crate::Algo::Baseline, Arch::Cpu, 1, &opts);
        assert_eq!(repair_mis(&g, &log, &ps.in_set, &opts).in_set, ps.in_set);
        let pc = coloring::vertex_coloring_opts(&g, crate::Algo::Baseline, Arch::Cpu, 1, &opts);
        assert_eq!(repair_coloring(&g, &log, &pc.color, &opts).color, pc.color);
    }

    #[test]
    fn repair_counts_work_against_edit_batch() {
        // The whole point: repairing one edit on a big path touches a
        // handful of vertices, not O(n).
        let opts = SolveOpts::default();
        let n = 10_000u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = from_edge_list(n as usize, &edges);
        let prior =
            mis::maximal_independent_set_opts(&g, crate::Algo::Baseline, Arch::Cpu, 5, &opts);
        let mut log = EditLog::new();
        log.add_edge(0, 2);
        let repaired = repair_mis(&g, &log, &prior.in_set, &opts);
        let edited = log.materialize(&g);
        check_maximal_independent_set(&edited, &repaired.in_set).unwrap();
        assert!(
            repaired.stats.counters.work_items < 64,
            "repair touched {} vertices for a single edit",
            repaired.stats.counters.work_items
        );
    }
}
