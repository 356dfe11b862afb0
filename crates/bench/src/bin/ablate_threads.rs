//! Strong-scaling harness: wall-clock of the CPU baselines and their best
//! composites across real thread-pool sizes, plus a skewed-workload A/B of
//! the pool's claim strategies (work-stealing deques vs the global claim
//! counter).
//!
//! The paper runs 80 threads on a dual E5-2650; this binary reproduces that
//! axis on whatever host it runs on (`--threads 1,2,4,…` — defaults to
//! powers of two up to the available parallelism). Since the rayon layer
//! gained a real execution engine, each column genuinely runs the solver on
//! that many threads.
//!
//! On a host without real parallelism every thread count runs on one core,
//! so a "speedup" ratio would measure pool overhead, not scaling: the
//! binary refuses to label it as such — every speedup cell is annotated
//! `(host-limited)` and the saved JSON carries a top-level
//! `host_limited: true` so downstream readers can tell the regimes apart.
//! When the host *does* have parallelism, the skewed-workload rows are
//! asserted: stealing must not lose to the global counter on a workload
//! whose static partitions are badly imbalanced.
//!
//! Besides the standard `results/ablate_threads.{csv,json}` pair, the table
//! is saved as `results/BENCH_threads.json` with per-workload speedup of
//! the widest pool over 1 thread.

use sb_bench::harness::{load_suite, thread_counts, time_min, BenchConfig};
use sb_bench::report::{fmt_ms, fmt_speedup};
use sb_bench::schemas;
use sb_core::common::Arch;
use sb_core::common::SolveOpts;
use sb_core::matching::maximal_matching_opts;
use sb_core::mis::maximal_independent_set_opts;
use sb_core::verify::{check_maximal_independent_set, check_maximal_matching};
use sb_core::Algo;
use sb_par::with_threads;
use std::path::Path;

/// Synthetic skewed workload: per-item spin cost follows a heavy tail, so
/// the pool's static piece partitions are badly imbalanced and rebalancing
/// (or its absence) dominates the wall-clock.
fn skewed_spin(items: usize) -> u64 {
    use rayon::prelude::*;
    (0..items)
        .into_par_iter()
        .map(|i| {
            // Items divisible by 4096 are ~2000x heavier than the rest:
            // a few hot pieces, many near-empty ones.
            let spins = if i % 4096 == 0 { 200_000u64 } else { 100 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc & 1
        })
        .sum()
}

fn main() {
    let opts = SolveOpts::default();
    let mut cfg = BenchConfig::from_env();
    if cfg.filter.is_empty() {
        cfg.filter = "webbase".into(); // one representative graph by default
    }
    let suite = load_suite(&cfg);
    let threads = thread_counts(&cfg);
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let host_limited = host <= 1;
    let schema = schemas::ablate_threads(&threads, host);
    let mut t = schema.table();

    for (sp, g) in &suite.graphs {
        let workloads: Vec<(String, Box<dyn Fn() + Sync>)> = vec![
            (
                format!("{} / GM", sp.name),
                Box::new(|| {
                    let r = maximal_matching_opts(g, Algo::Baseline, Arch::Cpu, cfg.seed, &opts);
                    check_maximal_matching(g, &r.mate).unwrap();
                }),
            ),
            (
                format!("{} / MM-Rand(10)", sp.name),
                Box::new(|| {
                    let r = maximal_matching_opts(
                        g,
                        Algo::Rand { partitions: 10 },
                        Arch::Cpu,
                        cfg.seed,
                        &opts,
                    );
                    check_maximal_matching(g, &r.mate).unwrap();
                }),
            ),
            (
                format!("{} / LubyMIS", sp.name),
                Box::new(|| {
                    let r =
                        maximal_independent_set_opts(g, Algo::Baseline, Arch::Cpu, cfg.seed, &opts);
                    check_maximal_independent_set(g, &r.in_set).unwrap();
                }),
            ),
            (
                format!("{} / MIS-Deg2", sp.name),
                Box::new(|| {
                    let r = maximal_independent_set_opts(
                        g,
                        Algo::Degk { k: 2 },
                        Arch::Cpu,
                        cfg.seed,
                        &opts,
                    );
                    check_maximal_independent_set(g, &r.in_set).unwrap();
                }),
            ),
        ];
        for (label, work) in workloads {
            let mut row = vec![label];
            let mut ms_at: Vec<f64> = Vec::with_capacity(threads.len());
            for &nt in &threads {
                let (ms, _) = with_threads(nt, || time_min(cfg.reps, &work));
                ms_at.push(ms);
                row.push(fmt_ms(ms));
            }
            let speedup = match (ms_at.first(), ms_at.last()) {
                (Some(&t1), Some(&tn)) if tn > 0.0 => fmt_speedup(t1 / tn, host_limited),
                _ => "-".to_string(),
            };
            row.push(speedup);
            t.row(row);
        }
    }

    // Skewed-workload strategy A/B: same synthetic heavy-tail map under
    // each claim discipline. The stealing scheduler's whole reason to
    // exist is this shape — a few hot pieces pinning their static owners
    // while everyone else idles (global counter) or rebalances (stealing).
    use rayon::ScheduleStrategy;
    let before = rayon::schedule_strategy();
    let mut widest_ms: Vec<(ScheduleStrategy, f64)> = Vec::new();
    for (name, strat) in [
        ("stealing", ScheduleStrategy::Stealing),
        ("counter", ScheduleStrategy::GlobalCounter),
    ] {
        rayon::set_schedule_strategy(strat);
        let mut row = vec![format!("skewed-spin / {name}")];
        let mut ms_at: Vec<f64> = Vec::with_capacity(threads.len());
        for &nt in &threads {
            let (ms, _) = with_threads(nt, || time_min(cfg.reps, || skewed_spin(1 << 18)));
            ms_at.push(ms);
            row.push(fmt_ms(ms));
        }
        let speedup = match (ms_at.first(), ms_at.last()) {
            (Some(&t1), Some(&tn)) if tn > 0.0 => fmt_speedup(t1 / tn, host_limited),
            _ => "-".to_string(),
        };
        row.push(speedup);
        t.row(row);
        widest_ms.push((strat, *ms_at.last().unwrap()));
    }
    rayon::set_schedule_strategy(before);

    t.emit(&schema.name);
    let extra = [("host_limited", host_limited.to_string())];
    if let Err(e) = t.save_json_extra(Path::new("results"), "BENCH_threads", &extra) {
        eprintln!("warning: could not save results/BENCH_threads.json: {e}");
    } else {
        println!("[saved results/BENCH_threads.json]");
    }

    if host_limited {
        println!(
            "\nnote: this host reports {host} available thread(s); every column ran \
             on one core, so no row is labeled a genuine speedup (host_limited)."
        );
    } else {
        println!("\nnote: this host reports {host} available thread(s); the paper used 80.");
        let steal = widest_ms
            .iter()
            .find(|(s, _)| *s == ScheduleStrategy::Stealing)
            .map(|&(_, ms)| ms)
            .unwrap();
        let counter = widest_ms
            .iter()
            .find(|(s, _)| *s == ScheduleStrategy::GlobalCounter)
            .map(|&(_, ms)| ms)
            .unwrap();
        if steal > counter {
            eprintln!(
                "FAIL: skewed-spin at {} threads: stealing {steal:.3} ms vs global \
                 counter {counter:.3} ms — stealing must not lose on skewed work",
                threads.last().unwrap()
            );
            std::process::exit(1);
        }
        println!(
            "skewed-spin at {} threads: stealing {steal:.3} ms <= counter {counter:.3} ms — OK",
            threads.last().unwrap()
        );
    }
}
