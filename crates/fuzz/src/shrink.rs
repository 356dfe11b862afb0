//! Counterexample minimization: delta-debugging over the raw edge list,
//! then vertex deletion with id compaction, iterated to a fixpoint.
//!
//! The predicate is "the case still fails the oracle *with the same
//! failure kind*" — holding the kind fixed keeps the minimizer from
//! wandering onto an unrelated failure mid-shrink. Each predicate
//! evaluation re-runs the full mode × thread matrix, so the whole search
//! is bounded by an evaluation budget rather than a size target.

/// Result of a shrink: the minimized case plus search statistics.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Minimized vertex count.
    pub n: usize,
    /// Minimized raw edge list.
    pub edges: Vec<(u32, u32)>,
    /// Predicate evaluations spent.
    pub evals: usize,
    /// True if the search stopped on budget rather than at a fixpoint.
    pub budget_exhausted: bool,
}

/// Minimize `(n, edges)` while `fails` keeps returning true. `fails` must
/// be true for the input case (the caller just observed the failure).
pub fn shrink_case(
    n: usize,
    edges: &[(u32, u32)],
    mut fails: impl FnMut(usize, &[(u32, u32)]) -> bool,
    max_evals: usize,
) -> Shrunk {
    let mut cur_n = n;
    let mut cur: Vec<(u32, u32)> = edges.to_vec();
    let mut evals = 0usize;
    let mut out_of_budget = false;
    let mut try_eval = |n: usize, e: &[(u32, u32)], evals: &mut usize| -> Option<bool> {
        if *evals >= max_evals {
            return None;
        }
        *evals += 1;
        Some(fails(n, e))
    };

    loop {
        let mut changed = false;

        // Pass 1: ddmin over edges — delete chunks, halving the chunk
        // size; a deletion that keeps the failure restarts at that size.
        let mut chunk = cur.len().div_ceil(2).max(1);
        'edges: while chunk >= 1 {
            let mut i = 0;
            while i < cur.len() {
                let end = (i + chunk).min(cur.len());
                let mut candidate = cur.clone();
                candidate.drain(i..end);
                match try_eval(cur_n, &candidate, &mut evals) {
                    None => {
                        out_of_budget = true;
                        break 'edges;
                    }
                    Some(true) => {
                        cur = candidate;
                        changed = true;
                    }
                    Some(false) => i = end,
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // Pass 2: delete single vertices (dropping incident edges,
        // compacting ids above them).
        let mut v = 0u32;
        while (v as usize) < cur_n && !out_of_budget {
            let candidate: Vec<(u32, u32)> = cur
                .iter()
                .filter(|&&(a, b)| a != v && b != v)
                .map(|&(a, b)| (a - u32::from(a > v), b - u32::from(b > v)))
                .collect();
            match try_eval(cur_n - 1, &candidate, &mut evals) {
                None => out_of_budget = true,
                Some(true) => {
                    cur_n -= 1;
                    cur = candidate;
                    changed = true;
                }
                Some(false) => v += 1,
            }
        }

        if !changed || out_of_budget {
            break;
        }
    }

    Shrunk {
        n: cur_n,
        edges: cur,
        evals,
        budget_exhausted: out_of_budget,
    }
}

/// One-dimensional ddmin over an arbitrary item list: delete chunks while
/// `fails` keeps returning true, halving the chunk size down to single
/// items. Used by the edit axis to minimize the edit *sequence* after the
/// graph itself has been shrunk. Returns the minimized list, predicate
/// evaluations spent, and whether the budget stopped the search.
pub fn ddmin_list<T: Clone>(
    items: &[T],
    mut fails: impl FnMut(&[T]) -> bool,
    max_evals: usize,
) -> (Vec<T>, usize, bool) {
    let mut cur: Vec<T> = items.to_vec();
    let mut evals = 0usize;
    let mut out_of_budget = false;
    let mut chunk = cur.len().div_ceil(2).max(1);
    'outer: while chunk >= 1 {
        let mut i = 0;
        while i < cur.len() {
            if evals >= max_evals {
                out_of_budget = true;
                break 'outer;
            }
            evals += 1;
            let end = (i + chunk).min(cur.len());
            let mut candidate = cur.clone();
            candidate.drain(i..end);
            if fails(&candidate) {
                cur = candidate;
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    (cur, evals, out_of_budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_list_keeps_only_the_failing_items() {
        // Failure: "contains both 7 and 13". Everything else must go.
        let items: Vec<u32> = (0..40).collect();
        let (min, _, oob) = ddmin_list(&items, |s| s.contains(&7) && s.contains(&13), 10_000);
        assert_eq!(min, vec![7, 13]);
        assert!(!oob);
    }

    #[test]
    fn shrinks_to_the_failing_core() {
        // Failure: "contains the edge literally named (3, 4)". The edge
        // pass must strip the other 18 edges; the vertex pass can only
        // delete vertices above 4 (deleting a lower one would rename the
        // edge and lose the failure).
        let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        let s = shrink_case(
            20,
            &edges,
            |_, e| e.iter().any(|&(a, b)| (a, b) == (3, 4)),
            10_000,
        );
        assert_eq!(s.edges, vec![(3, 4)]);
        assert_eq!(s.n, 5);
        assert!(!s.budget_exhausted);
    }

    #[test]
    fn budget_stops_the_search() {
        let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
        let s = shrink_case(100, &edges, |_, e| !e.is_empty(), 5);
        assert!(s.budget_exhausted);
        assert_eq!(s.evals, 5);
        assert!(!s.edges.is_empty());
    }

    #[test]
    fn vertex_pass_drops_isolated_vertices() {
        // Failure depends only on one edge existing; the 8 isolated
        // vertices must all be deleted by the vertex pass.
        let s = shrink_case(10, &[(4, 7)], |_, e| !e.is_empty(), 10_000);
        assert_eq!(s.n, 2);
        assert_eq!(s.edges, vec![(0, 1)]);
    }
}
