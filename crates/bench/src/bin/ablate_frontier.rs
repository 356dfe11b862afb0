//! Frontier-representation A/B/C: every solver family runs in `dense` mode
//! (full-sweep rounds, the pre-frontier behavior), `compact` mode
//! (ping-pong worklists + scratch-arena reuse), and `bitset` mode (u64
//! word-bitset frontiers, trailing-zeros iteration, word-level masks), on
//! the same graphs with the same seeds. Reports wall-clock and total
//! `edges_scanned` per mode and **asserts**:
//!
//! * compaction reduced the scanned-edge total vs dense for every workload;
//! * the bitset frontier scanned no more edges than compact (the two visit
//!   identical member sets, so their logical work must coincide);
//! * with `--reps >= 2` (stable timing), bitset wall-clock does not regress
//!   past compact on the GM and Luby workloads.
//!
//! Exits non-zero on any violation, so CI can run this as a perf smoke leg
//! (`--reps 1` there: the edge assertions are deterministic, the timing
//! assertion needs repetitions to be meaningful and is skipped).
//!
//! The default graph is the 60k-vertex `rgg-n-2-23-s0` stand-in: GM's vain
//! tendency makes it the paper's round-count worst case (§III-C), which is
//! exactly where dense rescans hurt the most.
//!
//! The table is saved as `results/BENCH_frontier.json`.

use sb_bench::harness::{load_suite, time_min, BenchConfig};
use sb_bench::report::{fmt_ms, fmt_x};
use sb_bench::schemas;
use sb_core::common::{Arch, FrontierMode, SolveOpts};
use sb_core::matching::maximal_matching_opts;
use sb_core::mis::maximal_independent_set_opts;
use sb_core::verify::{check_maximal_independent_set, check_maximal_matching};
use sb_core::Algo;
use std::path::Path;

fn main() {
    let mut cfg = BenchConfig::from_env();
    if cfg.filter.is_empty() {
        cfg.filter = "rgg-n-2-23".into(); // GM's vain-tendency showcase
    }
    let suite = load_suite(&cfg);
    let schema = schemas::ablate_frontier();
    let mut t = schema.table();

    let mut failures = 0usize;
    for (sp, g) in &suite.graphs {
        type Run<'a> = Box<dyn Fn(FrontierMode) -> (f64, u64) + 'a>;
        let workloads: Vec<(String, Run)> = vec![
            (
                format!("{} / GM", sp.name),
                Box::new(|mode| {
                    let opts = SolveOpts::with_mode(mode);
                    let (ms, r) = time_min(cfg.reps, || {
                        maximal_matching_opts(g, Algo::Baseline, Arch::Cpu, cfg.seed, &opts)
                    });
                    check_maximal_matching(g, &r.mate).unwrap();
                    (ms, r.stats.counters.edges_scanned)
                }),
            ),
            (
                format!("{} / LubyMIS", sp.name),
                Box::new(|mode| {
                    let opts = SolveOpts::with_mode(mode);
                    let (ms, r) = time_min(cfg.reps, || {
                        maximal_independent_set_opts(g, Algo::Baseline, Arch::Cpu, cfg.seed, &opts)
                    });
                    check_maximal_independent_set(g, &r.in_set).unwrap();
                    (ms, r.stats.counters.edges_scanned)
                }),
            ),
            (
                format!("{} / LubyMIS (gpu-sim)", sp.name),
                Box::new(|mode| {
                    let opts = SolveOpts::with_mode(mode);
                    let (ms, r) = time_min(cfg.reps, || {
                        maximal_independent_set_opts(
                            g,
                            Algo::Baseline,
                            Arch::GpuSim,
                            cfg.seed,
                            &opts,
                        )
                    });
                    check_maximal_independent_set(g, &r.in_set).unwrap();
                    (ms, r.stats.counters.edges_scanned)
                }),
            ),
        ];
        for (label, run) in workloads {
            let (dense_ms, dense_edges) = run(FrontierMode::Dense);
            let (compact_ms, compact_edges) = run(FrontierMode::Compact);
            let (bitset_ms, bitset_edges) = run(FrontierMode::Bitset);
            if compact_edges >= dense_edges {
                eprintln!(
                    "FAIL: {label}: compact scanned {compact_edges} edges, \
                     dense {dense_edges} — compaction must reduce the total"
                );
                failures += 1;
            }
            if bitset_edges > compact_edges {
                eprintln!(
                    "FAIL: {label}: bitset scanned {bitset_edges} edges, compact \
                     {compact_edges} — identical member sets must scan identically"
                );
                failures += 1;
            }
            // Wall-clock is only trustworthy with repetitions (time_min
            // takes the minimum); the gpu-sim workload reports modeled
            // device time, so the host-side comparison targets the CPU
            // solvers.
            let timing_workload = !label.ends_with("(gpu-sim)");
            if cfg.reps >= 2 && timing_workload && bitset_ms > compact_ms {
                eprintln!(
                    "FAIL: {label}: bitset {bitset_ms:.3} ms vs compact \
                     {compact_ms:.3} ms — the bitset frontier regressed wall-clock"
                );
                failures += 1;
            }
            let reduction = if compact_edges > 0 {
                fmt_x(dense_edges as f64 / compact_edges as f64)
            } else {
                "-".to_string()
            };
            t.row(vec![
                label,
                fmt_ms(dense_ms),
                fmt_ms(compact_ms),
                fmt_ms(bitset_ms),
                dense_edges.to_string(),
                compact_edges.to_string(),
                bitset_edges.to_string(),
                reduction,
            ]);
        }
    }
    t.emit(&schema.name);
    if let Err(e) = t.save_json(Path::new("results"), "BENCH_frontier") {
        eprintln!("warning: could not save results/BENCH_frontier.json: {e}");
    } else {
        println!("[saved results/BENCH_frontier.json]");
    }
    if failures > 0 {
        eprintln!("{failures} frontier assertion(s) failed");
        std::process::exit(1);
    }
    if cfg.reps >= 2 {
        println!("\ncompact < dense edges, bitset <= compact edges and ms — OK");
    } else {
        println!(
            "\ncompact < dense edges, bitset <= compact edges — OK (timing skipped at --reps 1)"
        );
    }
}
