//! Frequency assignment on a road network.
//!
//! Roadside units along a road network must broadcast on channels distinct
//! from their neighbors'. Road graphs are exactly the shape where the
//! paper's COLOR-Deg2 wins on the CPU: most vertices are degree-2 polyline
//! points, so after coloring the (small) high-degree junction core, the
//! rest is colored with a 3-entry FORBIDDEN window.
//!
//! ```sh
//! cargo run --release --example road_coloring
//! ```

use std::time::Instant;
use symmetry_breaking::prelude::*;

fn main() {
    let opts = SolveOpts::default();
    let g = generate(GraphId::GermanyOsm, Scale::Factor(0.5), 7);
    let stats = GraphStats::compute(&g);
    println!(
        "road network: |V| = {}, |E| = {}, {:.1}% of vertices have degree ≤ 2",
        stats.num_vertices, stats.num_edges, stats.pct_deg_le2
    );

    // Decomposition view: how small is the junction core?
    let d = decompose_degk(&g, 2, &Counters::new());
    println!(
        "DEG2 split: {} junction vertices carry {} edges; {} polyline vertices carry {} edges ({} cross)",
        d.high_vertices().len(),
        d.m_high,
        d.low_vertices().len(),
        d.m_low,
        d.m_cross
    );

    let t = Instant::now();
    let base = vertex_coloring_opts(&g, Algo::Baseline, Arch::Cpu, 1, &opts);
    let base_ms = t.elapsed().as_secs_f64() * 1e3;
    check_coloring(&g, &base.color).unwrap();

    let t = Instant::now();
    let degk = vertex_coloring_opts(&g, Algo::Degk { k: 2 }, Arch::Cpu, 1, &opts);
    let degk_ms = t.elapsed().as_secs_f64() * 1e3;
    check_coloring(&g, &degk.color).unwrap();

    println!(
        "\nVB baseline : {base_ms:>8.2} ms, {} channels",
        base.num_colors()
    );
    println!(
        "COLOR-Deg2  : {degk_ms:>8.2} ms, {} channels ({:.0} ms decomposition + {:.0} ms solve)",
        degk.num_colors(),
        degk.stats.decompose_time.as_secs_f64() * 1e3,
        degk.stats.solve_time.as_secs_f64() * 1e3,
    );
    println!(
        "speedup     : {:.2}x (paper: 1.27x average on CPUs)",
        base_ms / degk_ms
    );

    // Channel usage histogram for the curious.
    let mut per_channel = vec![0usize; degk.num_colors()];
    for &c in &degk.color {
        per_channel[c as usize] += 1;
    }
    println!("\nchannel loads: {per_channel:?}");
}
