//! `sb-fuzz` — differential fuzzing oracle for the symmetry-breaking
//! solvers (DESIGN.md §11).
//!
//! The harness sweeps adversarial graphs ([`gen`]) across the full
//! registered solver matrix ([`config`]), runs each configuration at
//! dense/compact × 1/N threads, and cross-checks validity, the
//! byte-equality contract, and sb-trace round/counter accounting
//! ([`oracle`]). Each case also runs the **engine axis**
//! ([`oracle::check_engine_case`]): the same configuration through
//! `sb-engine` with a warm decomposition cache and with caching disabled
//! (`cache cap 0`), asserting cached and fresh outputs are byte-identical
//! with identical verify outcomes. A failing case is minimized by delta-debugging
//! ([`shrink`]) and written as a replayable case file plus a
//! ready-to-paste regression test ([`case`]).
//!
//! Entry points: [`run_fuzz`] (library), `sbreak fuzz` (CLI), and the
//! `fuzz_smoke` binary (CI: planted-bug self-test, then a budgeted clean
//! sweep).

pub mod case;
pub mod config;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use case::CaseFile;
pub use config::SolverConfig;
pub use oracle::{Failure, Mutation};

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Options for one fuzzing sweep.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed: per-case solver seeds are derived from it, so a sweep
    /// is reproducible from this one number.
    pub master_seed: u64,
    /// Wall-clock budget; the sweep stops cleanly when it runs out.
    pub budget: Option<Duration>,
    /// Hard cap on cases run (handy for quick smoke tests).
    pub max_cases: Option<usize>,
    /// The N in the 1-vs-N thread matrix.
    pub wide_threads: usize,
    /// Seeds tried per (graph, configuration) pair.
    pub seeds_per_config: usize,
    /// Where counterexample files go; `None` keeps them in memory only.
    pub out_dir: Option<PathBuf>,
    /// Planted solver corruption (harness self-validation).
    pub mutation: Mutation,
    /// Stop after this many counterexamples.
    pub max_counterexamples: usize,
    /// Oracle evaluations the shrinker may spend per counterexample.
    pub shrink_evals: usize,
    /// Also run the engine configuration axis per case: cached vs cap-0
    /// fresh `sb-engine` runs must be byte-identical with identical
    /// verify outcomes (see [`oracle::check_engine_case`]).
    pub engine_axis: bool,
    /// Also run the serve axis: every [`SERVE_INTERVAL`]-th case is
    /// routed through a resident loopback `sbreak serve` daemon as an
    /// `inline:` graph and its solution text byte-compared against an
    /// in-process engine (see [`oracle::check_serve_case`]).
    pub serve_axis: bool,
    /// Also run the edit axis per case: chain a derived random edit
    /// sequence over the graph, repairing the prior solution per batch,
    /// and check validity, repaired-vs-fresh agreement, and frontier-mode
    /// invariance (see [`oracle::check_edit_case`]).
    pub edit_axis: bool,
}

/// One in [`SERVE_INTERVAL`] cases rides the serve axis: the wire adds
/// real latency per case, so the sweep samples it rather than paying it
/// everywhere.
pub const SERVE_INTERVAL: u64 = 16;

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            master_seed: 0xF022_5EED,
            budget: None,
            max_cases: None,
            wide_threads: 4,
            seeds_per_config: 2,
            out_dir: None,
            mutation: Mutation::None,
            max_counterexamples: 5,
            shrink_evals: 400,
            engine_axis: true,
            serve_axis: true,
            edit_axis: true,
        }
    }
}

/// The full per-case oracle: the solver matrix cross-check, then (when
/// enabled) the engine cached-vs-fresh axis, then — when a daemon is
/// supplied — the serve wire axis. Used by the sweep and by the shrinker,
/// so minimization preserves whichever axis failed.
fn full_check(
    g: &sb_graph::csr::Graph,
    cfg: &SolverConfig,
    seed: u64,
    opts: &FuzzOptions,
    serve: Option<&oracle::ServeOracle>,
) -> Result<(), oracle::Failure> {
    oracle::check_case(g, cfg, seed, opts.wide_threads, opts.mutation)?;
    if opts.engine_axis {
        oracle::check_engine_case(g, cfg, seed, opts.mutation)?;
    }
    if opts.edit_axis {
        oracle::check_edit_case(g, cfg, seed, opts.wide_threads, opts.mutation)?;
    }
    if let Some(daemon) = serve {
        oracle::check_serve_case(g, cfg, seed, opts.mutation, daemon)?;
    }
    Ok(())
}

/// One confirmed, minimized contract violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Failing configuration label.
    pub config: String,
    /// Generator shape the failure was found on.
    pub graph: String,
    /// Solver seed.
    pub seed: u64,
    /// Failure kind (`validity`, `equality`, `accounting`, `rounds`).
    pub kind: String,
    /// Full failure description from the *original* (unshrunk) case.
    pub detail: String,
    /// Original case size.
    pub orig_n: usize,
    /// Minimized case.
    pub shrunk: shrink::Shrunk,
    /// For edit-axis failures: the ddmin-minimized edit sequence over the
    /// shrunk graph, batches in wire form joined with `;`.
    pub edits: Option<String>,
    /// Where the case file was written, if an output dir was given.
    pub case_path: Option<PathBuf>,
    /// Ready-to-paste regression test for the minimized case.
    pub regression: String,
}

impl Counterexample {
    /// The minimized case as a writable/replayable file.
    pub fn case_file(&self, threads: usize) -> CaseFile {
        CaseFile {
            config: self.config.clone(),
            seed: self.seed,
            threads,
            failure: format!("{}: {}", self.kind, self.detail),
            n: self.shrunk.n,
            edges: self.shrunk.edges.clone(),
            edits: self.edits.clone(),
        }
    }
}

/// Outcome of a sweep.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases run (one case = one graph × configuration × seed, i.e. four
    /// solver executions).
    pub cases_run: usize,
    /// Distinct solver configurations exercised at least once.
    pub configs_covered: usize,
    /// Confirmed violations, minimized.
    pub counterexamples: Vec<Counterexample>,
    /// Wall time of the sweep.
    pub elapsed: Duration,
    /// True if the sweep stopped on budget/max-cases before exhausting
    /// the matrix.
    pub truncated: bool,
}

/// Run one fuzzing sweep over the adversarial suite × solver matrix.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    use sb_par::rng::hash2;

    let start = Instant::now();
    let suite = gen::adversarial_suite(opts.master_seed);
    let configs = SolverConfig::all();
    let mut report = FuzzReport {
        cases_run: 0,
        configs_covered: 0,
        counterexamples: Vec::new(),
        elapsed: Duration::ZERO,
        truncated: false,
    };
    let mut covered = vec![false; configs.len()];
    let mut case_index = 0u64;
    // One resident daemon serves every sampled case of the sweep; a bind
    // failure downgrades the sweep rather than failing it.
    let serve = if opts.serve_axis {
        oracle::ServeOracle::spawn()
            .map_err(|e| eprintln!("sb-fuzz: serve axis disabled: {e}"))
            .ok()
    } else {
        None
    };

    'sweep: for case in &suite {
        let g = case.build();
        for (ci, cfg) in configs.iter().enumerate() {
            for _ in 0..opts.seeds_per_config.max(1) {
                if opts.max_cases.is_some_and(|m| report.cases_run >= m)
                    || opts.budget.is_some_and(|b| start.elapsed() >= b)
                {
                    report.truncated = true;
                    break 'sweep;
                }
                let seed = hash2(opts.master_seed, case_index);
                let serve_this = serve
                    .as_ref()
                    .filter(|_| case_index.is_multiple_of(SERVE_INTERVAL));
                case_index += 1;
                report.cases_run += 1;
                covered[ci] = true;

                let failure = match full_check(&g, cfg, seed, opts, serve_this) {
                    Ok(()) => continue,
                    Err(f) => f,
                };

                let cex = minimize(case, cfg, seed, failure, opts, serve.as_ref());
                report.counterexamples.push(cex);
                if report.counterexamples.len() >= opts.max_counterexamples {
                    report.truncated = true;
                    break 'sweep;
                }
            }
        }
    }

    if let Some(daemon) = serve {
        daemon.stop();
    }
    report.configs_covered = covered.iter().filter(|&&c| c).count();
    report.elapsed = start.elapsed();
    report
}

/// Shrink one observed failure and package it (writing the case file when
/// an output directory is configured).
fn minimize(
    case: &gen::CaseGraph,
    cfg: &SolverConfig,
    seed: u64,
    failure: Failure,
    opts: &FuzzOptions,
    serve: Option<&oracle::ServeOracle>,
) -> Counterexample {
    let kind = failure.kind;
    // Shrink attempts only pay the wire round-trip when the failure being
    // preserved is a serve-axis failure.
    let serve = serve.filter(|_| kind == "serve");
    let shrunk = shrink::shrink_case(
        case.n,
        &case.edges,
        |n, edges| {
            let g = sb_graph::builder::from_edge_list(n, edges);
            matches!(full_check(&g, cfg, seed, opts, serve), Err(f) if f.kind == kind)
        },
        opts.shrink_evals,
    );
    let mut cex = Counterexample {
        config: cfg.to_string(),
        graph: case.name.clone(),
        seed,
        kind: kind.to_string(),
        detail: failure.detail,
        orig_n: case.n,
        shrunk,
        edits: None,
        case_path: None,
        regression: String::new(),
    };
    // Edit-axis failures additionally ddmin the edit *sequence*: the
    // graph shrink above re-derived the sequence per candidate graph, so
    // on the final graph we re-derive once more and strip every edit the
    // failure does not need (empty batches are legal and stay in place so
    // batch boundaries survive).
    if kind.starts_with("edit") {
        let g = sb_graph::builder::from_edge_list(cex.shrunk.n, &cex.shrunk.edges);
        let seq = gen::edit_sequence(&g, seed, oracle::EDIT_BATCHES, oracle::EDIT_BATCH_SIZE);
        let flat: Vec<(usize, sb_graph::editlog::Edit)> = seq
            .iter()
            .enumerate()
            .flat_map(|(i, log)| log.edits().iter().map(move |&e| (i, e)))
            .collect();
        let rebuild = |subset: &[(usize, sb_graph::editlog::Edit)]| {
            let mut out = vec![sb_graph::editlog::EditLog::new(); seq.len()];
            for &(i, e) in subset {
                out[i].push(e);
            }
            out
        };
        let (min_flat, _, _) = shrink::ddmin_list(
            &flat,
            |subset| {
                let candidate = rebuild(subset);
                matches!(
                    oracle::check_edit_chain(
                        &g, cfg, seed, opts.wide_threads, opts.mutation, &candidate
                    ),
                    Err(f) if f.kind == kind
                )
            },
            opts.shrink_evals,
        );
        cex.edits = Some(
            rebuild(&min_flat)
                .iter()
                .map(|l| l.wire())
                .collect::<Vec<_>>()
                .join(";"),
        );
    }
    let file = cex.case_file(opts.wide_threads);
    cex.regression = file.regression_skeleton();
    if let Some(dir) = &opts.out_dir {
        match file.write_to(dir) {
            Ok(path) => cex.case_path = Some(path),
            Err(e) => eprintln!("sb-fuzz: could not write case file: {e}"),
        }
    }
    cex
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mutation: Mutation, max_cases: usize) -> FuzzOptions {
        FuzzOptions {
            master_seed: 11,
            max_cases: Some(max_cases),
            wide_threads: 2,
            seeds_per_config: 1,
            mutation,
            max_counterexamples: 1,
            shrink_evals: 300,
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn planted_matching_bug_is_caught_and_minimized() {
        // Harness self-validation: with the matching corruption planted,
        // the very first mm configuration on the first edge-bearing graph
        // must fail validity, and the shrinker must reduce it to a
        // near-minimal graph (acceptance bound: ≤ 8 vertices).
        let report = run_fuzz(&quick(Mutation::CorruptMatching, 40));
        assert!(
            !report.counterexamples.is_empty(),
            "planted bug not caught in {} cases",
            report.cases_run
        );
        let cex = &report.counterexamples[0];
        assert_eq!(cex.kind, "validity");
        assert!(cex.config.starts_with("mm-"), "{}", cex.config);
        assert!(
            cex.shrunk.n <= 8,
            "shrunk to {} vertices, want ≤ 8",
            cex.shrunk.n
        );
        assert!(!cex.shrunk.edges.is_empty(), "corruption needs an edge");
        assert!(cex.regression.contains(&cex.config));
    }

    #[test]
    fn planted_bug_on_a_large_shape_shrinks_to_a_single_edge() {
        // The smoke path happens to surface the planted bug on the
        // already-minimal single-edge shape; this pins the shrinker's
        // actual minimization power. The corruption fails on any graph
        // with an edge, so a 129-vertex path must collapse to one edge.
        let suite = gen::adversarial_suite(5);
        let case = suite.iter().find(|c| c.name == "path-129").unwrap();
        let cfg = SolverConfig::parse("mm-baseline@cpu").unwrap();
        let g = case.build();
        let failure = oracle::check_case(&g, &cfg, 3, 2, Mutation::CorruptMatching).unwrap_err();
        assert_eq!(failure.kind, "validity");
        let opts = FuzzOptions {
            wide_threads: 2,
            mutation: Mutation::CorruptMatching,
            shrink_evals: 2000,
            ..FuzzOptions::default()
        };
        let cex = minimize(case, &cfg, 3, failure, &opts, None);
        assert_eq!(cex.orig_n, 129);
        assert_eq!(
            cex.shrunk.n, 2,
            "want the minimal edge, got {:?}",
            cex.shrunk
        );
        assert_eq!(cex.shrunk.edges, vec![(0, 1)]);
        assert!(!cex.shrunk.budget_exhausted);
    }

    #[test]
    fn planted_stale_repair_is_caught_and_the_edit_sequence_minimized() {
        // With the stale-repair mutation planted, the edit axis must
        // surface a counterexample within the first configurations, and
        // the minimizer must emit an explicit (ddmin'd) edit sequence.
        let report = run_fuzz(&quick(Mutation::StaleRepair, 60));
        assert!(
            !report.counterexamples.is_empty(),
            "planted stale repair not caught in {} cases",
            report.cases_run
        );
        let cex = &report.counterexamples[0];
        assert!(cex.kind.starts_with("edit"), "{}: {}", cex.kind, cex.detail);
        let edits = cex.edits.as_deref().expect("edit-axis cex carries edits");
        assert!(!edits.is_empty(), "minimized sequence should keep an edit");
        assert!(cex.regression.contains("check_edit_chain"));
    }

    #[test]
    fn clean_sweep_over_first_configs_finds_nothing() {
        let report = run_fuzz(&quick(Mutation::None, 35));
        assert_eq!(report.cases_run, 35, "sweep stopped early: {report:?}");
        assert!(
            report.counterexamples.is_empty(),
            "unexpected counterexample: {:?}",
            report.counterexamples[0]
        );
    }
}
