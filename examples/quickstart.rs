//! Quickstart: run all three symmetry-breaking problems on a small graph
//! with and without decomposition, and verify every answer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use symmetry_breaking::prelude::*;

fn main() {
    // A Table II stand-in at test scale: the lp1 shape (chains off hubs),
    // where decomposition pays off most.
    let g = generate(GraphId::Lp1, Scale::Tiny, 42);
    let opts = SolveOpts::default();
    println!(
        "graph: lp1 stand-in, |V| = {}, |E| = {}, avg degree = {:.2}",
        g.num_vertices(),
        g.num_edges(),
        g.avg_degree()
    );

    for arch in [Arch::Cpu, Arch::GpuSim] {
        println!("\n=== {arch} ===");

        // Maximal matching: baseline vs MM-Rand.
        let base = maximal_matching_opts(&g, Algo::Baseline, arch, 1, &opts);
        check_maximal_matching(&g, &base.mate).unwrap();
        let rand = maximal_matching_opts(&g, Algo::Rand { partitions: 10 }, arch, 1, &opts);
        check_maximal_matching(&g, &rand.mate).unwrap();
        println!(
            "matching   baseline {:>8.2} ms ({} rounds) | MM-Rand {:>8.2} ms ({} rounds), {} edges",
            base.stats.total_ms(),
            base.stats.counters.rounds,
            rand.stats.total_ms(),
            rand.stats.counters.rounds,
            rand.cardinality(),
        );

        // Coloring: baseline vs COLOR-Deg2.
        let base = vertex_coloring_opts(&g, Algo::Baseline, arch, 1, &opts);
        check_coloring(&g, &base.color).unwrap();
        let degk = vertex_coloring_opts(&g, Algo::Degk { k: 2 }, arch, 1, &opts);
        check_coloring(&g, &degk.color).unwrap();
        println!(
            "coloring   baseline {:>8.2} ms ({} colors) | COLOR-Deg2 {:>8.2} ms ({} colors)",
            base.stats.total_ms(),
            base.num_colors(),
            degk.stats.total_ms(),
            degk.num_colors(),
        );

        // MIS: LubyMIS vs MIS-Deg2.
        let base = maximal_independent_set_opts(&g, Algo::Baseline, arch, 1, &opts);
        check_maximal_independent_set(&g, &base.in_set).unwrap();
        let degk = maximal_independent_set_opts(&g, Algo::Degk { k: 2 }, arch, 1, &opts);
        check_maximal_independent_set(&g, &degk.in_set).unwrap();
        println!(
            "mis        LubyMIS  {:>8.2} ms ({} rounds) | MIS-Deg2 {:>8.2} ms, |I| = {}",
            base.stats.total_ms(),
            base.stats.counters.rounds,
            degk.stats.total_ms(),
            degk.size(),
        );
    }

    println!("\nall solutions verified ✓");
}
