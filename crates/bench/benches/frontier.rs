//! Criterion micro-benchmarks for the frontier-compaction primitive:
//! `compact_active` (two-pass blocked count + scatter) against the naive
//! dense scan (`filter` + `collect` over the whole index range), across
//! worklist sizes and survivor densities, plus an end-to-end dense vs
//! compact solve of LubyMIS (the DESIGN.md §10 headline comparison).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sb_core::common::{Arch, FrontierMode, SolveOpts};
use sb_core::mis::maximal_independent_set_opts;
use sb_core::Algo;
use sb_datasets::suite::{generate, GraphId, Scale};
use sb_par::frontier::compact_active;
use sb_par::rng::hash3;
use std::hint::black_box;

fn bench_compact_primitive(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier_compact");
    group.sample_size(20);
    for n in [1usize << 12, 1 << 16, 1 << 20] {
        let src: Vec<u32> = (0..n as u32).collect();
        // Survivor fraction per item, decided by a cheap deterministic hash
        // so both variants do identical predicate work.
        for keep_pct in [5u64, 50, 95] {
            let threshold = u64::MAX / 100 * keep_pct;
            let keep = move |v: u32| hash3(9, 9, v as u64) < threshold;
            group.bench_with_input(
                BenchmarkId::new(format!("compact_active/{keep_pct}pct"), n),
                &src,
                |b, src| {
                    let mut dst = Vec::new();
                    b.iter(|| {
                        compact_active(src, keep, &mut dst);
                        black_box(dst.len())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("dense_scan/{keep_pct}pct"), n),
                &src,
                |b, src| {
                    b.iter(|| {
                        let out: Vec<u32> = src.iter().copied().filter(|&v| keep(v)).collect();
                        black_box(out.len())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_mode_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier_mode");
    group.sample_size(10);
    let g = generate(GraphId::Rgg23, Scale::Factor(0.2), 42);
    for mode in [
        FrontierMode::Dense,
        FrontierMode::Compact,
        FrontierMode::Bitset,
    ] {
        let opts = SolveOpts::with_mode(mode);
        group.bench_function(format!("luby/{mode}"), |b| {
            b.iter(|| {
                black_box(maximal_independent_set_opts(
                    &g,
                    Algo::Baseline,
                    Arch::Cpu,
                    7,
                    &opts,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compact_primitive, bench_mode_end_to_end);
criterion_main!(benches);
