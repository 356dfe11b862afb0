//! Register allocation by interference-graph coloring.
//!
//! The classic compiler application of vertex coloring: virtual registers
//! whose live ranges overlap interfere and need distinct physical
//! registers. Live ranges are intervals, so the interference graph is an
//! interval graph; colors beyond the machine's register count are spills.
//!
//! ```sh
//! cargo run --release --example register_allocation
//! ```

use rand::{RngExt, SeedableRng};
use std::time::Instant;
use symmetry_breaking::prelude::*;

const MACHINE_REGS: u32 = 16;

/// Synthesize live ranges for a long straight-line function and build the
/// interval interference graph.
fn interference_graph(ranges: usize, seed: u64) -> (Graph, Vec<(u32, u32)>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let program_len = ranges as u32 * 4;
    let mut intervals: Vec<(u32, u32)> = (0..ranges)
        .map(|_| {
            let start = rng.random_range(0..program_len);
            // Mostly short temporaries, a few long-lived values.
            let len = if rng.random_bool(0.9) {
                rng.random_range(1..12)
            } else {
                rng.random_range(50..400)
            };
            (start, (start + len).min(program_len))
        })
        .collect();
    intervals.sort_unstable();
    // Sweep to collect overlaps.
    let mut edges = Vec::new();
    for i in 0..intervals.len() {
        let (_, end_i) = intervals[i];
        for (j, &(start_j, _)) in intervals.iter().enumerate().skip(i + 1) {
            if start_j >= end_i {
                break;
            }
            edges.push((i as u32, j as u32));
        }
    }
    (from_edge_list(ranges, &edges), intervals)
}

fn main() {
    let (g, _intervals) = interference_graph(30_000, 99);
    println!(
        "interference graph: {} live ranges, {} interferences, max pressure ≥ {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree() + 1
    );

    for (algo, label) in [
        (Algo::Baseline, "VB baseline"),
        (Algo::Degk { k: 2 }, "COLOR-Deg2 "),
        (Algo::Rand { partitions: 2 }, "COLOR-Rand "),
    ] {
        let t = Instant::now();
        let run = vertex_coloring_opts(&g, algo, Arch::Cpu, 3, &SolveOpts::default());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        check_coloring(&g, &run.color).unwrap();
        let spilled = run.color.iter().filter(|&&c| c >= MACHINE_REGS).count();
        println!(
            "{label}: {ms:>8.2} ms, {} colors, {spilled} ranges spilled past {MACHINE_REGS} regs",
            run.num_colors()
        );
    }
}
