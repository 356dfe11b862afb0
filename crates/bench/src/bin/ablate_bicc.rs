//! Extension ablation: BRIDGE vs BICC composites.
//!
//! Hochbaum's original proposal \[16\] decomposes at articulation vertices
//! (biconnected blocks) — strictly finer than the paper's BRIDGE
//! (2-edge-connected components). This binary asks the question the paper
//! leaves open: does the finer decomposition pay for itself? For each
//! problem, compare the architecture baseline against the Bridge and Bicc
//! composites.

use sb_bench::harness::{load_suite, time_min, BenchConfig};
use sb_bench::report::fmt_ms;
use sb_bench::schemas;
use sb_core::coloring::vertex_coloring_opts;
use sb_core::common::SolveOpts;
use sb_core::matching::maximal_matching_opts;
use sb_core::mis::maximal_independent_set_opts;
use sb_core::verify::{check_coloring, check_maximal_independent_set, check_maximal_matching};
use sb_core::Algo;

fn main() {
    let opts = SolveOpts::default();
    let cfg = BenchConfig::from_env();
    let suite = load_suite(&cfg);
    let arch = cfg.arch;
    let schema = schemas::ablate_bicc(arch);
    let mut t = schema.table();
    for (sp, g) in &suite.graphs {
        let mm = |algo| {
            let (ms, run) = time_min(cfg.reps, || {
                maximal_matching_opts(g, algo, arch, cfg.seed, &opts)
            });
            check_maximal_matching(g, &run.mate).unwrap();
            ms
        };
        let col = |algo| {
            let (ms, run) = time_min(cfg.reps, || {
                vertex_coloring_opts(g, algo, arch, cfg.seed, &opts)
            });
            check_coloring(g, &run.color).unwrap();
            ms
        };
        let mis = |algo| {
            let (ms, run) = time_min(cfg.reps, || {
                maximal_independent_set_opts(g, algo, arch, cfg.seed, &opts)
            });
            check_maximal_independent_set(g, &run.in_set).unwrap();
            ms
        };
        t.row(vec![
            sp.name.into(),
            fmt_ms(mm(Algo::Baseline)),
            fmt_ms(mm(Algo::Bridge)),
            fmt_ms(mm(Algo::Bicc)),
            fmt_ms(col(Algo::Baseline)),
            fmt_ms(col(Algo::Bridge)),
            fmt_ms(col(Algo::Bicc)),
            fmt_ms(mis(Algo::Baseline)),
            fmt_ms(mis(Algo::Bridge)),
            fmt_ms(mis(Algo::Bicc)),
        ]);
    }
    t.emit(&schema.name);
    println!(
        "\nBICC classification costs the same BFS + LCA walks as BRIDGE but replaces\n\
         the mark bitset with a union-find; the composites then split at articulation\n\
         vertices instead of bridge endpoints."
    );
}
