//! Reproducibility: every randomized component is a pure function of its
//! seed, independent of thread scheduling (counter-based randomness), and
//! different seeds genuinely vary the answers.
//!
//! Since the rayon layer runs a real worker pool, "independent of thread
//! scheduling" is an actual claim about concurrent interleavings, not a
//! vacuous one — the `*_thread_invariant` tests below pin solver output
//! and round/launch counts at 1 vs N threads. `SBREAK_TEST_THREADS` caps
//! the N used (CI runs 1 and 4).

use symmetry_breaking::core::coloring::jp::jp_color;
use symmetry_breaking::par::{
    schedule_strategy, set_schedule_strategy, with_threads, ScheduleStrategy,
};
use symmetry_breaking::prelude::*;

fn graph() -> Graph {
    generate(GraphId::CoAuthorsCiteseer, Scale::Tiny, 99)
}

/// Widest pool for the 1-vs-N comparisons.
fn wide() -> usize {
    std::env::var("SBREAK_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1)
}

#[test]
fn generators_deterministic_across_all_suite_graphs() {
    for id in GraphId::ALL {
        let a = generate(id, Scale::Tiny, 5);
        let b = generate(id, Scale::Tiny, 5);
        assert_eq!(a, b, "{id:?} not reproducible");
    }
}

#[test]
fn rand_decomposition_is_seed_pure() {
    let g = graph();
    let a = decompose_rand(&g, 6, 11, &Counters::new());
    let b = decompose_rand(&g, 6, 11, &Counters::new());
    assert_eq!(a.part, b.part);
    assert_eq!(a.class, b.class);
    let c = decompose_rand(&g, 6, 12, &Counters::new());
    assert_ne!(a.part, c.part);
}

#[test]
fn solvers_reproducible_per_seed() {
    let opts = SolveOpts::default();
    let g = graph();
    for arch in [Arch::Cpu, Arch::GpuSim] {
        let m1 = maximal_matching_opts(&g, Algo::Rand { partitions: 5 }, arch, 4, &opts).mate;
        let m2 = maximal_matching_opts(&g, Algo::Rand { partitions: 5 }, arch, 4, &opts).mate;
        assert_eq!(m1, m2, "matching not reproducible on {arch}");

        let i1 = maximal_independent_set_opts(&g, Algo::Baseline, arch, 4, &opts).in_set;
        let i2 = maximal_independent_set_opts(&g, Algo::Baseline, arch, 4, &opts).in_set;
        assert_eq!(i1, i2, "MIS not reproducible on {arch}");
    }
}

#[test]
fn different_seeds_differ() {
    let opts = SolveOpts::default();
    let g = graph();
    let i1 = maximal_independent_set_opts(&g, Algo::Baseline, Arch::Cpu, 1, &opts).in_set;
    let i2 = maximal_independent_set_opts(&g, Algo::Baseline, Arch::Cpu, 2, &opts).in_set;
    assert_ne!(i1, i2, "seeds should perturb Luby's choices");
}

#[test]
fn seed_deterministic_solvers_thread_invariant() {
    // Solvers documented as seed-deterministic: their per-round choices
    // come from seeded hashes or double-buffered local-extremum rules, so
    // any interleaving of a round commits the same decisions. VB coloring
    // is deliberately absent — its speculative color-then-fix loop resolves
    // conflicts in an interleaving-dependent order.
    let opts = SolveOpts::default();
    let g = graph();
    let n = wide();

    for arch in [Arch::Cpu, Arch::GpuSim] {
        // GM (CPU) / LMAX (GPU-sim), and the composites over deterministic
        // decompositions (RAND hash-partition, DEGk classification).
        for algo in [
            Algo::Baseline,
            Algo::Rand { partitions: 5 },
            Algo::Degk { k: 2 },
        ] {
            let one = with_threads(1, || maximal_matching_opts(&g, algo, arch, 4, &opts).mate);
            let many = with_threads(n, || maximal_matching_opts(&g, algo, arch, 4, &opts).mate);
            assert_eq!(one, many, "{algo:?} on {arch}: 1 vs {n} threads differ");
        }
        for algo in [Algo::Baseline, Algo::Degk { k: 2 }] {
            let one = with_threads(1, || {
                maximal_independent_set_opts(&g, algo, arch, 4, &opts).in_set
            });
            let many = with_threads(n, || {
                maximal_independent_set_opts(&g, algo, arch, 4, &opts).in_set
            });
            assert_eq!(one, many, "{algo:?} on {arch}: 1 vs {n} threads differ");
        }
    }

    // Jones–Plassmann: double-buffered local maxima, deterministic per seed.
    let one = with_threads(1, || jp_color(&g, 4, &Counters::new()));
    let many = with_threads(n, || jp_color(&g, 4, &Counters::new()));
    assert_eq!(one, many, "JP coloring: 1 vs {n} threads differ");
}

#[test]
fn round_and_launch_counts_thread_invariant() {
    // Round counts (and BSP kernel launches on the GPU-sim) are properties
    // of the algorithm and seed, not of the pool width: a round launches
    // the same kernels no matter how many threads sweep the grid.
    let g = graph();
    let n = wide();

    let lmax = |threads| {
        with_threads(threads, || {
            maximal_matching_opts(&g, Algo::Baseline, Arch::GpuSim, 7, &SolveOpts::default())
                .stats
                .counters
        })
    };
    let (one, many) = (lmax(1), lmax(n));
    assert_eq!(one.rounds, many.rounds, "LMAX rounds vary with threads");
    assert_eq!(
        one.kernel_launches, many.kernel_launches,
        "LMAX kernel launches vary with threads"
    );

    // sb-trace sees the same per-phase round records at any width.
    let traced_rounds = |threads: usize| {
        with_threads(threads, || {
            let sink = std::sync::Arc::new(TraceSink::enabled());
            maximal_independent_set_opts(
                &g,
                Algo::Baseline,
                Arch::Cpu,
                7,
                &SolveOpts::traced(Some(sink.clone())),
            );
            symmetry_breaking::trace::rounds_per_phase(&sink.events())
        })
    };
    assert_eq!(
        traced_rounds(1),
        traced_rounds(n),
        "traced round counts vary with threads"
    );
}

#[test]
fn productive_round_counts_frontier_mode_invariant() {
    // Dense and compact run the same productive rounds; only the dense
    // termination sweep (recorded with `vacuous: true`) may differ — the
    // compact form skips it when its worklist empties first. With vacuous
    // rounds discounted, per-phase round counts carry no mode carve-outs:
    // the same pin holds for the full-view baseline and the masked
    // composite phases, at any thread count.
    let g = graph();
    let n = wide();

    let traced = |algo: Algo, mode: FrontierMode, threads: usize| {
        with_threads(threads, || {
            let sink = std::sync::Arc::new(TraceSink::enabled());
            let opts = SolveOpts {
                trace: Some(sink.clone()),
                frontier: mode,
            };
            maximal_matching_opts(&g, algo, Arch::GpuSim, 7, &opts);
            symmetry_breaking::trace::productive_rounds_per_phase(&sink.events())
        })
    };
    for algo in [
        Algo::Baseline,
        Algo::Rand { partitions: 5 },
        Algo::Degk { k: 2 },
    ] {
        let dense = traced(algo, FrontierMode::Dense, 1);
        for (mode, threads) in [
            (FrontierMode::Dense, n),
            (FrontierMode::Compact, 1),
            (FrontierMode::Compact, n),
            (FrontierMode::Bitset, 1),
            (FrontierMode::Bitset, n),
        ] {
            assert_eq!(
                dense,
                traced(algo, mode, threads),
                "{algo:?}: productive rounds differ ({mode} at {threads} threads)"
            );
        }
    }
}

#[test]
fn solver_output_invariant_under_both_claim_strategies() {
    // The pool's claim discipline (work-stealing deques vs the global
    // counter baseline) redistributes pieces across workers, never the
    // decisions made inside them: solver output must be identical at any
    // width under either scheduler, in every frontier mode. This is the
    // determinism pin the stealing scheduler ships behind.
    let opts = SolveOpts::default();
    let g = graph();
    let n = wide();
    let before = schedule_strategy();

    let reference = maximal_independent_set_opts(&g, Algo::Baseline, Arch::Cpu, 4, &opts).in_set;
    for strat in [ScheduleStrategy::Stealing, ScheduleStrategy::GlobalCounter] {
        set_schedule_strategy(strat);
        for mode in [
            FrontierMode::Dense,
            FrontierMode::Compact,
            FrontierMode::Bitset,
        ] {
            let solve = |threads| {
                with_threads(threads, || {
                    maximal_independent_set_opts(
                        &g,
                        Algo::Baseline,
                        Arch::Cpu,
                        4,
                        &SolveOpts::with_mode(mode),
                    )
                    .in_set
                })
            };
            let one = solve(1);
            let many = solve(n);
            assert_eq!(one, many, "{strat:?}/{mode}: 1 vs {n} threads differ");
            assert_eq!(
                one, reference,
                "{strat:?}/{mode} diverged from the default-strategy output"
            );
        }
        let one = with_threads(1, || {
            maximal_matching_opts(&g, Algo::Degk { k: 2 }, Arch::Cpu, 4, &opts).mate
        });
        let many = with_threads(n, || {
            maximal_matching_opts(&g, Algo::Degk { k: 2 }, Arch::Cpu, 4, &opts).mate
        });
        assert_eq!(one, many, "{strat:?}: GM/degk 1 vs {n} threads differ");
    }
    set_schedule_strategy(before);
}

#[test]
fn deterministic_algorithms_ignore_seed() {
    // GM (lowest-id) and the oriented MIS are deterministic by design; the
    // seed only affects the decomposition in their composites.
    let opts = SolveOpts::default();
    let g = graph();
    let a = maximal_matching_opts(&g, Algo::Baseline, Arch::Cpu, 1, &opts).mate;
    let b = maximal_matching_opts(&g, Algo::Baseline, Arch::Cpu, 2, &opts).mate;
    assert_eq!(a, b, "GM is seedless and must not vary");
}
